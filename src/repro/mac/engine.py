"""The event-driven CSMA/CA simulator.

One AP and N STAs share a single collision domain (all nodes within
carrier-sense range, as in the paper's §7.2.1 setup). The engine advances
time between three kinds of events — traffic arrivals, backoff expiries and
busy periods — and counts DCF backoff in *virtual time*:

* one global counter numbers the idle slots the medium has spent in
  countdown; a contending node's backoff is stored as the absolute slot at
  which it expires, in a heap with lazy invalidation, so countdown is free
  and finding the next expiry is O(log N);
* the medium stays idle for DIFS + k slots where k is the distance to the
  earliest expiry; the node(s) expiring there transmit, simultaneous
  expiries collide; an arrival landing mid-countdown advances the counter
  by the idle slots that fit before it;
* after any busy period, a fresh DIFS precedes the next countdown.

Who contends: a STA is ready exactly when it is backlogged in every
protocol, so STAs join on their first arrival and leave after an access
that empties their queue, with no polling. Only APs are asked for their
:meth:`~repro.mac.protocols.base.Protocol.ready_time`, once per event (the
hook where WiFox re-prioritises and fallback Carpool re-promotes). An AP
that stops being ready while holding a backoff — re-promotion can turn a
legacy-headed queue back into an aggregation wait — pauses: its residual
is written back to the node and resumes when it is ready again.

Frame-decoding outcomes come from the pluggable error model (trace-driven
from this package's PHY), one uniform per subframe from the ``errors``
child stream via :class:`~repro.mac.error_model.SubframeDraws`; failed
subframes are retransmitted with priority, frames exceeding the retry
limit are dropped.
"""

from __future__ import annotations

from copy import copy
from heapq import heappop, heappush

from repro.mac.airtime import ack_airtime, single_frame_airtime
from repro.mac.error_model import DEFAULT_ERROR_MODEL, SubframeDraws
from repro.mac.frames import Arrival, MacFrame
from repro.mac.metrics import MetricsCollector, MetricsSummary
from repro.mac.node import Node
from repro.mac.parameters import DEFAULT_PARAMETERS, PhyMacParameters
from repro.mac.protocols.base import Protocol
from repro.obs.metrics import NULL_INSTRUMENT
from repro.obs.trace import active_recorder, metrics
from repro.util.rng import RngStream

__all__ = ["WlanSimulator", "AP_NAME"]

AP_NAME = "ap"

_OBS_COUNTER_NAMES = ("transmissions", "collisions", "ahdr_miss",
                      "ahdr_false_match", "ack_lost", "ack_desync")
_DISABLED_COUNTERS = {name: NULL_INSTRUMENT for name in _OBS_COUNTER_NAMES}

_RTS_BYTES = 20
_CTS_BYTES = 14


class WlanSimulator:
    """Runs one scenario: a protocol, a station population, a workload.

    Args:
        protocol: Downlink transmission policy (one of the five schemes).
        num_stations: STAs associated with the AP.
        arrivals: Time-sorted iterable of :class:`Arrival`. Downlink
            arrivals name the AP as source; uplink arrivals name a STA.
        params: PHY/MAC constants (Table 2 defaults).
        error_model: Subframe decode-failure model: any object with a
            scalar ``subframe_success_probability(start, n, rte)``.
        rng: Root random stream (backoff and error draws use children).
        use_rts_cts: Prepend an RTS/CTS(-sequence) exchange to every
            downlink transmission (§4.2's hidden-terminal mechanism).
        faults: Optional :class:`repro.faults.FaultPlan` (or a pre-built
            :class:`repro.faults.mac.MacFaultInjector`). MAC faults draw
            from a dedicated ``faults`` child stream — with ``None`` the
            engine performs zero extra draws and runs bit-identically to
            the pre-fault-framework simulator.
        sequential_ack_recovery: Harden the AP's sequential-ACK handling:
            with timestamp-based slot matching a lost ACK costs only its
            own subframe; without it (the naive ordinal matcher) the first
            unexplained ACK gap desynchronises the rest of the sequence
            and every later subframe is conservatively retransmitted.
    """

    def __init__(
        self,
        protocol: Protocol,
        num_stations: int,
        arrivals,
        params: PhyMacParameters = DEFAULT_PARAMETERS,
        error_model=DEFAULT_ERROR_MODEL,
        rng: RngStream | None = None,
        use_rts_cts: bool = False,
        num_aps: int = 1,
        station_names: list | None = None,
        hidden_pairs: set | None = None,
        faults=None,
        sequential_ack_recovery: bool = False,
    ):
        if num_stations < 1 and not station_names:
            raise ValueError("need at least one station")
        if num_aps < 1:
            raise ValueError("need at least one AP")
        self.protocol = protocol
        self.params = params
        self.error_model = error_model
        self.use_rts_cts = use_rts_cts
        rng = rng or RngStream(seed=0)
        self._error_draws = SubframeDraws(error_model, rng.child("errors"))
        # AP names: "ap", "ap1", "ap2", … — the first is the measured AP;
        # extras model co-channel APs sharing the collision domain (the
        # paper's §7.2.1 setup has two APs in carrier-sense range).
        ap_names = [AP_NAME] + [f"ap{i}" for i in range(1, num_aps)]
        self.aps = {
            name: Node(name, params, rng.child(f"backoff-{name}"), is_ap=True)
            for name in ap_names
        }
        self.ap = self.aps[AP_NAME]
        if station_names is None:
            station_names = [f"sta{i}" for i in range(num_stations)]
        self.stations = {
            name: Node(name, params, rng.child(f"backoff-{name}"))
            for name in station_names
        }
        self.nodes = {**self.aps, **self.stations}
        # Virtual-time contention state, per node index in ``self.nodes``
        # order (the order simultaneous expiries are resolved in).
        self._order = list(self.nodes.values())
        self._index = {name: i for i, name in enumerate(self.nodes)}
        self._ap_indices = [self._index[name] for name in self.aps]
        self._idle_slots = 0
        self._expiry: list = [None] * len(self._order)
        self._ready = [False] * len(self._order)
        self._n_ready = 0
        self._countdowns: list = []  # heap of (expiry slot, node index)
        self._arrivals = iter(arrivals)
        self._pending_arrival: Arrival | None = None
        self.metrics = MetricsCollector()
        self.now = 0.0
        self._difs_pending = False
        self._consecutive_failures: dict = {}
        # Hidden-terminal topology: unordered name pairs that cannot carrier-
        # sense each other, kept as each node's hidden peers in node order.
        # Everyone else shares one collision domain.
        hidden = {frozenset((a, b)) for a, b in hidden_pairs or ()}
        self._hidden_peers = {
            name: [other for other in self._order
                   if other.name != name and frozenset((name, other.name)) in hidden]
            for name in self.nodes
        } if hidden else {}
        self._hidden_rng = rng.child("hidden")
        self.hidden_collisions = 0
        # Fault injection: a dedicated child stream, never shared with the
        # backoff/error/hidden streams above, so enabling a plan cannot
        # perturb the baseline trajectory of unaffected trials.
        self._faults = None
        self.sequential_ack_recovery = sequential_ack_recovery
        if faults is not None:
            from repro.faults.mac import MacFaultInjector

            if isinstance(faults, MacFaultInjector):
                self._faults = faults
            else:
                self._faults = MacFaultInjector(faults, rng.child("faults"))
        # Per-node radio airtime for the §8 energy analysis.
        self.airtime_by_node = {
            name: {"tx": 0.0, "rx": 0.0} for name in self.nodes
        }
        # Optional event timeline for debugging/teaching: call
        # enable_timeline() before run(); events land in self.timeline.
        self.timeline: list | None = None
        # Ambient obs hooks, looked up once per run() so disabled runs pay
        # a single None check per logged event.
        self._rec = None
        self._obs_counters = _DISABLED_COUNTERS

    # ------------------------------------------------------------------ #

    def enable_timeline(self) -> None:
        """Record (time, event, node, detail) tuples during run()."""
        self.timeline = []

    def _log(self, event: str, node: str, detail: str = "") -> None:
        if self.timeline is not None:
            self.timeline.append((self.now, event, node, detail))
        if self._rec is not None:
            self._rec.emit("mac", event, t=round(self.now, 9), node=node,
                           detail=detail)

    def run(self, duration: float) -> MetricsSummary:
        """Simulate ``duration`` seconds and return the metrics summary."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        self._rec = active_recorder()
        scope = metrics().scope("mac")
        self._obs_counters = {
            name: scope.counter(name) for name in _OBS_COUNTER_NAMES
        }
        while self.now < duration:
            self._inject_arrivals()
            wake_time = self._poll_aps()
            if not self._n_ready:
                next_time = self._next_event_time(wake_time)
                if next_time is None or next_time >= duration:
                    break
                self.now = max(self.now, next_time)
                continue
            self._contend()
        return self.metrics.summary(duration)

    # ------------------------------------------------------------------ #

    def _inject_arrivals(self) -> None:
        while True:
            arrival = self._peek_arrival()
            if arrival is None or arrival.time > self.now:
                return
            self._pop_arrival()
            i = self._index.get(arrival.source)
            if i is None:
                raise KeyError(f"arrival for unknown node {arrival.source!r}")
            node = self._order[i]
            node.enqueue(MacFrame.from_arrival(arrival))
            if not node.is_ap and not self._ready[i]:
                self._make_ready(i)
            self.metrics.record_offered()
            self._log("arrival", node.name, f"{arrival.size_bytes} B")

    def _peek_arrival(self) -> Arrival | None:
        if self._pending_arrival is None:
            self._pending_arrival = next(self._arrivals, None)
        return self._pending_arrival

    def _pop_arrival(self) -> None:
        self._pending_arrival = None

    def _poll_aps(self):
        """Ask each AP whether it contends now; return the earliest future
        wake time among those that do not."""
        wake = None
        ready_time = self.protocol.ready_time
        for i in self._ap_indices:
            t = ready_time(self._order[i], self.now)
            if t is not None and t <= self.now:
                if not self._ready[i]:
                    self._make_ready(i)
                continue
            if self._ready[i]:
                self._pause(i)
            if t is not None:
                wake = t if wake is None else min(wake, t)
        return wake

    def _next_event_time(self, wake_time):
        arrival = self._peek_arrival()
        candidates = [t for t in (wake_time, arrival.time if arrival else None) if t is not None]
        return min(candidates) if candidates else None

    # Virtual-time backoff ----------------------------------------------- #

    def _make_ready(self, i: int) -> None:
        """Node ``i`` joins the contention: it resumes its paused residual
        or draws a fresh backoff, and its expiry enters the heap."""
        self._ready[i] = True
        self._n_ready += 1
        expiry = self._idle_slots + self._order[i].ensure_backoff()
        self._expiry[i] = expiry
        heappush(self._countdowns, (expiry, i))

    def _leave(self, i: int) -> None:
        """Node ``i`` stops contending; its heap entry goes stale."""
        self._ready[i] = False
        self._n_ready -= 1
        self._expiry[i] = None

    def _rejoin(self, i: int) -> None:
        """After node ``i`` lost its backoff: a backlogged STA draws again at
        once; an AP waits for the next poll, which lets the protocol adjust
        its window (WiFox) before the draw."""
        node = self._order[i]
        if not node.is_ap and node.backlogged:
            self._make_ready(i)

    def _pause(self, i: int) -> None:
        """AP ``i`` is no longer ready mid-countdown: keep its residual."""
        node = self._order[i]
        node.consume_slots(node.backoff_slots - (self._expiry[i] - self._idle_slots))
        self._leave(i)

    def _backoff_lost(self, node: Node) -> None:
        """``node`` lost its backoff outside its own access (the culprit of
        a hidden collision)."""
        i = self._index[node.name]
        if self._ready[i]:
            self._leave(i)
            self._rejoin(i)

    def _contend(self) -> None:
        expiry, countdowns = self._expiry, self._countdowns
        while expiry[countdowns[0][1]] != countdowns[0][0]:
            heappop(countdowns)  # stale: its node paused, won or lost its backoff
        first = countdowns[0][0]
        k = first - self._idle_slots
        difs = self.params.difs if self._difs_pending else 0.0
        tx_start = self.now + difs + k * self.params.slot_time

        arrival = self._peek_arrival()
        if arrival is not None and arrival.time < tx_start:
            # An arrival lands mid-countdown: credit the elapsed idle slots
            # and re-enter with the new frame in its queue.
            idle = arrival.time - self.now - difs
            if idle >= 0:
                self._difs_pending = False
                self._idle_slots += min(k, int(idle // self.params.slot_time))
            self.now = arrival.time
            return

        self._idle_slots = first
        self.now = tx_start
        winners = []
        while countdowns and countdowns[0][0] == first:
            _, i = heappop(countdowns)
            if expiry[i] == first:
                self._leave(i)
                winners.append(i)
        nodes = [self._order[i] for i in winners]
        if len(nodes) > 1:
            self._collide(nodes)
        else:
            self._transmit(nodes[0])
        self._difs_pending = True
        for i in winners:
            self._rejoin(i)

    # ------------------------------------------------------------------ #

    def _collide(self, winners: list) -> None:
        busy = max(self._estimate_airtime(node) for node in winners)
        self._obs_counters["collisions"].inc()
        self._log("collision", "+".join(sorted(n.name for n in winners)),
                  f"busy={busy * 1e6:.0f}us")
        self.metrics.record_collision(busy)
        for node in winners:
            failures = self._consecutive_failures.get(node.name, 0) + 1
            if failures > self.params.retry_limit and node.queue:
                dropped = node.queue.popleft()
                self.metrics.record_drop(dropped)
                self._consecutive_failures[node.name] = 0
                node.on_success()  # CW resets after a drop per the standard
            else:
                self._consecutive_failures[node.name] = failures
                node.on_collision()
        self.now += busy

    def _estimate_airtime(self, node: Node) -> float:
        """Airtime the node's next transmission would occupy (no side effects)."""
        saved_queue = copy(node.queue)
        try:
            transmission = self.protocol.build(node, self.now)
            return transmission.airtime
        finally:
            node.queue.clear()
            node.queue.extend(saved_queue)

    def _hidden_interferers(self, node: Node) -> list:
        if not self._hidden_peers:
            return []
        return [other for other in self._hidden_peers[node.name] if other.backlogged]

    def _hidden_hit(self, interferers: list, vulnerable: float) -> Node | None:
        """Does a hidden node start transmitting inside the window?

        Each hidden backlogged node fires after roughly DIFS plus half its
        contention window (it cannot sense the victim, so it counts down
        freely); the chance of overlap scales with the window length.
        """
        for other in interferers:
            mean_access = self.params.difs + 0.5 * other.cw * self.params.slot_time
            probability = min(1.0, vulnerable / max(mean_access, 1e-9))
            if self._hidden_rng.uniform() < probability:
                return other
        return None

    def _transmit(self, node: Node) -> None:
        transmission = self.protocol.build(node, self.now)
        protected = self.use_rts_cts and node.is_ap
        overhead = self._rts_cts_overhead(len(transmission.subframes)) if protected else 0.0

        # Injected hidden-terminal window: interference the carrier-sense
        # (and RTS/CTS) machinery cannot suppress destroys the whole
        # exchange, like an unprotected hidden-node collision.
        if self._faults is not None and self._faults.hidden_window_hit(self.now):
            self.hidden_collisions += 1
            total = overhead + transmission.total_duration
            self._log("fault-hidden", node.name, f"busy={total * 1e6:.0f}us")
            self.metrics.record_collision(total)
            for _subframe in transmission.subframes:
                self.metrics.record_retransmission()
            self._requeue_transmission(node, transmission, count_retry=True)
            node.on_collision()
            self.now += total
            return

        interferers = self._hidden_interferers(node)
        if interferers:
            if protected:
                # Only the short RTS is vulnerable; a CTS sequence then
                # silences the hidden nodes (§4.2, Fig. 7).
                rts_time = single_frame_airtime(_RTS_BYTES, self.params)
                culprit = self._hidden_hit(interferers, rts_time)
                if culprit is not None:
                    self.hidden_collisions += 1
                    busy = rts_time + self.params.difs
                    self.metrics.record_collision(busy)
                    node.on_collision()
                    culprit.on_collision()
                    self._backoff_lost(culprit)
                    self._requeue_transmission(node, transmission)
                    self.now += busy
                    return
            else:
                culprit = self._hidden_hit(
                    interferers, overhead + transmission.airtime
                )
                if culprit is not None:
                    self.hidden_collisions += 1
                    total = overhead + transmission.total_duration
                    self.metrics.record_collision(total)
                    for subframe in transmission.subframes:
                        self.metrics.record_retransmission()
                    self._requeue_transmission(node, transmission, count_retry=True)
                    node.on_collision()
                    culprit.on_collision()
                    self._backoff_lost(culprit)
                    self.now += total
                    return

        # Injected RTS/CTS failure: a lost CTS aborts the exchange after
        # the RTS + one CTS slot's worth of airtime.
        if protected and self._faults is not None and self._faults.cts_lost(self.now):
            rts_time = single_frame_airtime(_RTS_BYTES, self.params)
            cts_time = self.params.plcp_header_time + 8 * _CTS_BYTES / self.params.basic_rate_bps
            busy = rts_time + self.params.sifs + cts_time + self.params.difs
            self._log("fault-cts-loss", node.name, f"busy={busy * 1e6:.0f}us")
            self.metrics.record_collision(busy)
            node.on_collision()
            self._requeue_transmission(node, transmission)
            self.now += busy
            return

        total = overhead + transmission.total_duration
        self.metrics.record_transmission(total)
        self._obs_counters["transmissions"].inc()
        self._log("transmit", node.name,
                  f"{len(transmission.subframes)} subframes, "
                  f"{transmission.total_payload_bytes} B")
        self._consecutive_failures[node.name] = 0
        self._account_airtime(node, transmission, overhead)

        data_end = self.now + overhead + transmission.airtime
        decoded = self._error_draws.draw_subframes(transmission.subframes)
        if self._faults is not None:
            decoded = self._apply_subframe_faults(transmission, decoded, overhead)
            acked = self._apply_ack_faults(transmission, decoded)
        else:
            acked = decoded

        failed_frames = []
        for subframe, ok, ack_ok in zip(transmission.subframes, decoded, acked):
            if ok:
                for frame in subframe.frames:
                    if not frame.delivered:
                        self.metrics.record_delivery(frame, data_end, source=node.name)
                        frame.delivered = True
            if ack_ok:
                continue
            # No (attributable) ACK: the AP must assume the subframe was
            # lost and retransmit — even if it was in fact delivered.
            self.metrics.record_retransmission()
            for frame in subframe.frames:
                frame.retries += 1
                if frame.retries > self.params.retry_limit:
                    if not frame.delivered:
                        self.metrics.record_drop(frame)
                else:
                    failed_frames.append(frame)
        if node.is_ap:
            for subframe, ack_ok in zip(transmission.subframes, acked):
                self.protocol.on_subframe_result(subframe.destination, ack_ok, self.now)
        node.requeue_front(failed_frames)
        if any(acked) or not transmission.subframes:
            node.on_success()
        else:
            node.on_collision()  # no ACK at all: double CW like a collision
        self.now += total

    def _apply_subframe_faults(self, transmission, decoded: list, overhead: float) -> list:
        """Overlay A-HDR corruption and bursty-loss outcomes on decode draws."""
        t_sym = self.params.symbol_duration
        plcp = self.params.plcp_header_time
        # Only Carpool-style aggregates carry an A-HDR (their subframes
        # decode with RTE); plain unicast / legacy frames are immune.
        ahdr_spec = None
        if any(sf.rte for sf in transmission.subframes):
            ahdr_spec = self._faults.ahdr_corrupted(self.now)
        outcomes = []
        data_start = self.now + overhead + plcp
        for subframe, ok in zip(transmission.subframes, decoded):
            if ok and ahdr_spec is not None and self._faults.ahdr_subframe_missed(ahdr_spec):
                # The intended STA never finds its subframe in the
                # corrupted header — an undecoded subframe from the AP's
                # point of view.
                ok = False
                self._obs_counters["ahdr_miss"].inc()
                if self._rec is not None:
                    self._rec.emit("mac", "ahdr_miss", t=round(self.now, 9),
                                   node=subframe.destination)
            if ok:
                t0 = data_start + subframe.start_symbol * t_sym
                t1 = t0 + subframe.n_symbols * t_sym
                if self._faults.subframe_burst_failed(t0, t1):
                    ok = False
            outcomes.append(ok)
        if ahdr_spec is not None:
            self._charge_false_matches(transmission, ahdr_spec)
        return outcomes

    def _charge_false_matches(self, transmission, ahdr_spec) -> None:
        """Bystanders that falsely match a corrupted A-HDR decode one
        irrelevant subframe — pure receive-energy waste."""
        subframes = transmission.subframes
        if not subframes:
            return
        addressed = {sf.destination for sf in subframes}
        # sum/len over integer symbol counts is exact (and much cheaper
        # than np.mean on a short list).
        mean_subframe = (
            sum(sf.n_symbols for sf in subframes) / len(subframes)
        ) * self.params.symbol_duration
        for name in self.stations:
            if name in addressed:
                continue
            if self._faults.ahdr_false_match(ahdr_spec):
                self.airtime_by_node[name]["rx"] += mean_subframe
                self._obs_counters["ahdr_false_match"].inc()
                if self._rec is not None:
                    self._rec.emit("mac", "ahdr_false_match",
                                   t=round(self.now, 9), node=name)

    def _apply_ack_faults(self, transmission, decoded: list) -> list:
        """Overlay ACK loss; model the sequential-ACK desync failure mode.

        Each decoded subframe's ACK is lost independently. In a
        multi-receiver sequence, the naive AP matches ACKs to subframes
        *ordinally*: the first injected gap desynchronises the remainder,
        so every later subframe is conservatively treated as lost. With
        ``sequential_ack_recovery`` the AP matches ACKs to slots by
        timestamp (:meth:`SequentialAckPlan.match_ack_to_subframe`) and a
        lost ACK costs only its own subframe.
        """
        acked = list(decoded)
        first_gap = None
        for i, ok in enumerate(decoded):
            if ok and self._faults.ack_lost(self.now):
                acked[i] = False
                if first_gap is None:
                    first_gap = i
                self._obs_counters["ack_lost"].inc()
                if self._rec is not None:
                    self._rec.emit(
                        "mac", "ack_lost", t=round(self.now, 9),
                        node=transmission.subframes[i].destination, slot=i)
        if (
            first_gap is not None
            and len(transmission.subframes) > 1
            and not self.sequential_ack_recovery
        ):
            for i in range(first_gap, len(acked)):
                acked[i] = False
            self._obs_counters["ack_desync"].inc()
            if self._rec is not None:
                self._rec.emit(
                    "mac", "ack_desync", t=round(self.now, 9),
                    first_gap=first_gap,
                    slots_lost=len(acked) - first_gap - 1)
        return acked

    def _account_airtime(self, node: Node, transmission, overhead: float) -> None:
        """Charge per-node radio time for the §8 energy analysis.

        The transmitter pays TX for the frame and RX for the ACK sequence.
        Every addressed station receives from the frame start to the end
        of its own subframe and transmits its ACK. Non-addressed stations
        receive the PLCP header plus the protocol's overhear span (the
        A-HDR for Carpool) and, with the A-HDR false-positive probability,
        one irrelevant subframe.
        """
        t_sym = self.params.symbol_duration
        plcp = self.params.plcp_header_time
        self.airtime_by_node[node.name]["tx"] += overhead + transmission.airtime
        self.airtime_by_node[node.name]["rx"] += transmission.ack_time

        subframes = transmission.subframes
        if not subframes:
            return
        last_symbol_by_dest: dict = {}
        for sf in subframes:
            end = sf.start_symbol + sf.n_symbols
            last_symbol_by_dest[sf.destination] = max(
                last_symbol_by_dest.get(sf.destination, 0), end
            )
        ack = ack_airtime(self.params)
        for dest, end in last_symbol_by_dest.items():
            if dest in self.airtime_by_node:
                record = self.airtime_by_node[dest]
                record["rx"] += plcp + end * t_sym
                record["tx"] += ack

        mean_subframe = (sum(sf.n_symbols for sf in subframes) / len(subframes)) * t_sym
        overhear = (
            plcp
            + self.protocol.overhear_symbols * t_sym
            + self.protocol.overhear_false_positive * mean_subframe
        )
        for name, other in self.stations.items():
            if name not in last_symbol_by_dest and other is not node:
                self.airtime_by_node[name]["rx"] += overhear

    def energy_report(self, duration: float, power_model=None) -> dict:
        """Per-node energy (joules) over ``duration`` under a power model.

        Defaults to the WPC55AG model the paper uses; idle time is
        whatever the node spent neither transmitting nor receiving.
        """
        if power_model is None:
            from repro.core.energy import WPC55AG as power_model  # noqa: N811
        report = {}
        for name, record in self.airtime_by_node.items():
            tx = min(record["tx"], duration)
            rx = min(record["rx"], max(duration - tx, 0.0))
            idle = max(duration - tx - rx, 0.0)
            report[name] = power_model.energy(tx, rx, idle)
        return report

    def _requeue_transmission(self, node: Node, transmission, count_retry: bool = False) -> None:
        """Put a destroyed transmission's frames back at the queue head."""
        frames = []
        for subframe in transmission.subframes:
            for frame in subframe.frames:
                if count_retry:
                    frame.retries += 1
                    if frame.retries > self.params.retry_limit:
                        self.metrics.record_drop(frame)
                        continue
                frames.append(frame)
        node.requeue_front(frames)

    def _rts_cts_overhead(self, num_receivers: int) -> float:
        """Multicast RTS followed by per-receiver CTSs (§4.2, Fig. 7)."""
        rts = single_frame_airtime(_RTS_BYTES, self.params)
        cts = self.params.plcp_header_time + 8 * _CTS_BYTES / self.params.basic_rate_bps
        return rts + max(1, num_receivers) * (self.params.sifs + cts) + self.params.sifs

    # Convenience ------------------------------------------------------------

    def station_names(self) -> list:
        """Names of all non-AP nodes."""
        return list(self.stations)
