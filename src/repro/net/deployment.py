"""Deployment-scale simulation: many cells, one runtime, one answer.

:func:`simulate_deployment` is the entry point the deployment sweeps and
the ``repro net`` CLI drive. It composes the rest of the package:

1. :func:`~repro.net.topology.build_topology` places APs and STAs and
   fixes every link budget.
2. :func:`~repro.net.roaming.build_association_timeline` associates every
   station (byte-exact §4.3 handshake) and, with mobility, roams it.
3. :func:`~repro.net.interference.coupling_fault_plans` turns co-channel
   overlap into per-cell fault plans.
4. Each cell becomes one :class:`CellSpec` — a picklable, self-seeded
   unit of work — and the cells fan out over the persistent
   :mod:`repro.runtime` pools via :func:`~repro.runtime.trials.run_trials`
   with the spec list shipped once per worker as the ``shared=`` payload.
5. Per-cell metrics fold through the mergeable
   :class:`~repro.net.aggregate.DeploymentAggregate` into a
   :class:`DeploymentResult` (total and useful goodput, busy airtime,
   deployment-wide Jain fairness, roam statistics, per-cell moments and
   histograms), which is stored in the
   :class:`~repro.runtime.cache.ResultCache` keyed by the config content
   and a fingerprint of the producing code.

**Sharded mode** (``shards=k``) is the constant-memory variant of steps
4–5 for large deployments: the parent never materialises the spec list —
workers regenerate their own shard of specs per chunk from the config
(``trial_source=``, with the expensive decomposition memoized per worker
process; the parent builds only the association timeline and coupling
plans, never the traffic) — and never collects per-cell results: each
worker folds its chunk into a
:class:`~repro.net.aggregate.DeploymentAggregate` before IPC
(``reduce_fn=``), so only small accumulators cross the pipe. Because
the aggregate is exactly associative, a sharded run is bit-identical to
the unsharded path in every deployment-level number; what it gives up is
the per-cell breakdown (``result.cells`` is empty).

Determinism: a cell's result is a pure function of its spec, and every
spec derives its seed from the deployment seed and the AP index — so the
same config gives bit-identical results for any worker count, chunking,
or shard count. A static (no-mobility) cell is executed *through*
:class:`repro.mac.scenarios.CbrScenario` with a derived seed
(:func:`cell_seed`), which makes the degenerate one-AP, coupling-off
deployment reproduce the existing single-cell machinery bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.mac.engine import AP_NAME, WlanSimulator
from repro.mac.parameters import DEFAULT_PARAMETERS
from repro.mac.protocols import PROTOCOLS
from repro.mac.protocols.base import AggregationLimits
from repro.mac.protocols.carpool_mixed import CarpoolMixedProtocol
from repro.mac.scenarios import CbrScenario
from repro.faults.plan import FaultPlan
from repro.net.aggregate import DeploymentAggregate, aggregate_factory, reduce_cell
from repro.net.interference import (
    background_duty,
    coupling_fault_plans,
    estimated_duty,
)
from repro.net.roaming import RandomWaypointMobility, build_association_timeline
from repro.net.topology import Arena, build_topology
from repro.obs.log import get_logger
from repro.obs.manifest import manifest_scope
from repro.obs.trace import active_recorder, metrics
from repro.runtime.cache import ResultCache, code_fingerprint, content_key
from repro.runtime.trials import run_trials, shared_payload
from repro.traffic.background import background_uplink_arrivals
from repro.traffic.flows import cbr_downlink_arrivals, merge_arrivals
from repro.util.rng import RngStream, derive_seed

log = get_logger(__name__)

__all__ = [
    "DeploymentConfig",
    "CellSpec",
    "CellResult",
    "DeploymentResult",
    "cell_seed",
    "simulate_deployment",
]

_MAX_FRAME_BYTES = 65535

#: Every ``repro`` package that ``import repro.net.deployment`` loads. A
#: cached result is only as fresh as all the code that could have shaped
#: it; ``tests/runtime/test_cache_keys.py`` checks this list against the
#: import closure of a fresh interpreter.
_FINGERPRINT_PACKAGES = (
    "repro.bloom", "repro.channel", "repro.core", "repro.faults", "repro.mac",
    "repro.net", "repro.obs", "repro.phy", "repro.runtime", "repro.traffic",
    "repro.util",
)


def cell_seed(root_seed: int, ap_index: int) -> int:
    """The seed cell ``ap_index`` of a deployment simulates under.

    Public because the parity tests (and anyone validating the layering)
    use it to rebuild a cell's reference single-cell scenario directly.
    """
    return derive_seed(root_seed, f"net-cell{ap_index}")


@dataclass(frozen=True)
class DeploymentConfig:
    """Everything that defines one deployment run (and its cache key)."""

    n_aps: int = 4
    stas_per_ap: int = 4
    duration: float = 5.0
    seed: int = 42
    protocol: str = "Carpool"
    # Geometry ---------------------------------------------------------------
    arena_width_m: float = 50.0
    arena_height_m: float = 50.0
    ap_placement: str = "grid"
    sta_placement: str = "uniform"
    channels: int = 3
    shadowing_sigma_db: float = 6.0
    # Workload (CbrScenario conventions) -------------------------------------
    frame_bytes: int = 120
    frames_per_second: float = 100.0
    latency_requirement: float = 0.010
    with_background: bool = True
    background_intensity: float = 3.0
    # Association / roaming --------------------------------------------------
    mobility: bool = False
    hysteresis_db: float = 5.0
    handoff_delay: float = 0.05
    legacy_fraction: float = 0.0
    # Inter-cell coupling ----------------------------------------------------
    coupling: bool = True
    hit_probability: float = 0.35
    #: Deployment-wide :class:`~repro.faults.plan.FaultPlan` applied to
    #: every cell on top of the coupling-derived plan (the soak
    #: scheduler's rolling impairment episodes enter here). ``None`` = no
    #: extra faults; part of the frozen config, so it keys the cache.
    extra_faults: object = None

    def __post_init__(self):
        if self.n_aps < 1:
            raise ValueError("need at least one AP")
        if self.stas_per_ap < 0:
            raise ValueError("stas_per_ap must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; known: {sorted(PROTOCOLS)}"
            )
        if not 0.0 <= self.legacy_fraction <= 1.0:
            raise ValueError("legacy_fraction must be in [0, 1]")

    @property
    def n_stas(self) -> int:
        """Total stations in the deployment."""
        return self.n_aps * self.stas_per_ap

    @property
    def arena(self) -> Arena:
        """The deployment arena."""
        return Arena(self.arena_width_m, self.arena_height_m)

    def to_payload(self) -> dict:
        """JSON-stable dict of every input (the cache-key payload)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CellSpec:
    """One cell as a self-contained, picklable unit of work.

    ``static=True`` cells carry only a seed: the worker rebuilds the whole
    workload through :class:`~repro.mac.scenarios.CbrScenario`, which is
    what makes static deployments provably the existing single-cell
    machinery. Roaming cells carry their explicit, pre-routed arrival
    list (global station names) instead.
    """

    ap_index: int
    protocol: str
    seed: int
    duration: float
    frame_bytes: int
    frames_per_second: float
    latency_requirement: float
    with_background: bool
    background_intensity: float
    n_stations: int
    static: bool = True
    arrivals: tuple = ()
    station_names: tuple = ()
    #: Static mode: ((local_name, global_name), ...) in station order.
    name_map: tuple = ()
    #: Mixed networks: names (cell-local in static mode, global otherwise)
    #: of the members that negotiated Carpool; ``None`` = pure protocol.
    carpool_stations: tuple | None = None
    fault_plan: object = None


@dataclass
class CellResult:
    """What one cell reports back to the deployment aggregator."""

    ap_index: int
    protocol: str
    n_stations: int
    goodput_bps: float
    useful_goodput_bps: float
    mean_delay_s: float
    p95_delay_s: float
    collisions: int
    transmissions: int
    retransmitted_subframes: int
    dropped_frames: int
    channel_busy_fraction: float
    busy_airtime_s: float
    #: Global station name → delivered payload bytes.
    delivered_bytes_by_sta: dict = field(default_factory=dict)
    coupled: bool = False
    #: Fallback demote/re-promote transitions (0 for protocols without
    #: the cycle). Defaults keep pre-telemetry cached payloads loadable.
    demotions: int = 0
    repromotions: int = 0

    def to_dict(self) -> dict:
        """JSON-serialisable form (cache / cross-process transport)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class DeploymentResult:
    """Deployment-level aggregates plus the per-cell breakdown.

    Every deployment-level number is finalised from the exactly-
    associative :class:`~repro.net.aggregate.DeploymentAggregate`, so it
    is identical whether the run was sharded or not. ``cells`` holds the
    per-cell breakdown in the unsharded path and is empty for sharded
    runs (the constant-memory trade: shard mode never materialises
    per-cell results anywhere).
    """

    config: dict
    cells: list
    total_goodput_bps: float
    total_useful_goodput_bps: float
    busy_airtime_s: float
    jain_fairness: float
    n_roams: int
    interruption_time_s: float
    n_coupled_cells: int
    # Streaming-aggregate fields (defaults keep pre-streaming cached
    # payloads loadable).
    n_cells: int = 0
    mean_cell_goodput_bps: float = 0.0
    cell_goodput_stddev_bps: float = 0.0
    mean_cell_busy_fraction: float = 0.0
    goodput_histogram: dict = field(default_factory=dict)
    busy_fraction_histogram: dict = field(default_factory=dict)
    #: Deployment-wide fallback transition totals (defaults keep
    #: pre-telemetry cached payloads loadable).
    demotions: int = 0
    repromotions: int = 0

    def to_dict(self) -> dict:
        """JSON-serialisable form (the cached value)."""
        data = dataclasses.asdict(self)
        data["cells"] = [c.to_dict() for c in self.cells]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DeploymentResult":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        data["cells"] = [CellResult.from_dict(c) for c in data["cells"]]
        return cls(**data)


# --------------------------------------------------------------------------- #
# Cell execution (runs inside pool workers).
# --------------------------------------------------------------------------- #


def _protocol_factory(spec: CellSpec):
    if spec.carpool_stations is None:
        return PROTOCOLS[spec.protocol]
    return lambda params, limits: CarpoolMixedProtocol(
        params, limits, carpool_stations=spec.carpool_stations
    )


def _idle_cell(spec: CellSpec) -> CellResult:
    return CellResult(
        ap_index=spec.ap_index, protocol=spec.protocol, n_stations=0,
        goodput_bps=0.0, useful_goodput_bps=0.0,
        mean_delay_s=0.0, p95_delay_s=0.0,
        collisions=0, transmissions=0, retransmitted_subframes=0,
        dropped_frames=0, channel_busy_fraction=0.0, busy_airtime_s=0.0,
        coupled=spec.fault_plan is not None,
    )


def _run_static_cell(spec: CellSpec) -> CellResult:
    """Run a no-mobility cell *through* the existing CbrScenario."""
    scenario = CbrScenario(
        num_stations=spec.n_stations,
        num_aps=1,
        duration=spec.duration,
        seed=spec.seed,
        frame_bytes=spec.frame_bytes,
        frames_per_second=spec.frames_per_second,
        latency_requirement=spec.latency_requirement,
        with_background=spec.with_background,
        background_intensity=spec.background_intensity,
        fault_plan=spec.fault_plan,
    )
    result = scenario.run(_protocol_factory(spec))
    to_global = dict(spec.name_map)
    delivered = {
        to_global[name]: size
        for name, size in result.delivered_bytes_by_destination.items()
        if name in to_global  # uplink deliveries land on "ap"
    }
    return CellResult(
        ap_index=spec.ap_index,
        protocol=spec.protocol,
        n_stations=spec.n_stations,
        goodput_bps=result.measured_ap_goodput_bps,
        useful_goodput_bps=result.measured_ap_useful_goodput_bps,
        mean_delay_s=result.downlink_mean_delay,
        p95_delay_s=result.downlink_p95_delay,
        collisions=result.collisions,
        transmissions=result.transmissions,
        retransmitted_subframes=result.retransmitted_subframes,
        dropped_frames=result.dropped_frames,
        channel_busy_fraction=result.channel_busy_fraction,
        busy_airtime_s=result.channel_busy_fraction * spec.duration,
        delivered_bytes_by_sta=delivered,
        coupled=spec.fault_plan is not None,
        demotions=result.demotions,
        repromotions=result.repromotions,
    )


def _run_roaming_cell(spec: CellSpec) -> CellResult:
    """Run a cell over its explicit, pre-routed arrival list."""
    limits = AggregationLimits(
        max_frame_bytes=_MAX_FRAME_BYTES,
        max_latency=spec.latency_requirement,
    )
    protocol = _protocol_factory(spec)(DEFAULT_PARAMETERS, limits)
    sim = WlanSimulator(
        protocol,
        num_stations=len(spec.station_names),
        arrivals=list(spec.arrivals),
        rng=RngStream(spec.seed).child("sim"),
        num_aps=1,
        station_names=list(spec.station_names),
        faults=spec.fault_plan,
    )
    summary = sim.run(spec.duration)
    delivered = {
        name: size
        for name, size in sim.metrics.delivered_bytes_by_destination().items()
        if name != AP_NAME
    }
    return CellResult(
        ap_index=spec.ap_index,
        protocol=spec.protocol,
        n_stations=len(spec.station_names),
        goodput_bps=sim.metrics.goodput_of_source(AP_NAME, spec.duration),
        useful_goodput_bps=sim.metrics.goodput_of_source(
            AP_NAME, spec.duration, latency_bound=spec.latency_requirement
        ),
        mean_delay_s=summary.downlink_mean_delay,
        p95_delay_s=summary.downlink_p95_delay,
        collisions=summary.collisions,
        transmissions=summary.transmissions,
        retransmitted_subframes=summary.retransmitted_subframes,
        dropped_frames=summary.dropped_frames,
        channel_busy_fraction=summary.channel_busy_fraction,
        busy_airtime_s=summary.channel_busy_fraction * spec.duration,
        delivered_bytes_by_sta=delivered,
        coupled=spec.fault_plan is not None,
        demotions=int(getattr(protocol, "demotions", 0)),
        repromotions=int(getattr(protocol, "repromotions", 0)),
    )


def run_cell(spec: CellSpec) -> CellResult:
    """Execute one cell spec (pure function of the spec)."""
    with metrics().timer("net.run_cell").time():
        if spec.n_stations == 0:
            result = _idle_cell(spec)
        elif spec.static:
            result = _run_static_cell(spec)
        else:
            result = _run_roaming_cell(spec)
    rec = active_recorder()
    if rec is not None:
        rec.emit(
            "net", "cell_done",
            ap_index=spec.ap_index,
            protocol=spec.protocol,
            n_stations=result.n_stations,
            goodput_bps=round(result.goodput_bps, 3),
            busy_fraction=round(result.channel_busy_fraction, 6),
            coupled=result.coupled,
        )
    return result


def _cell_trial(trial_index: int, rng) -> dict:
    """run_trials adapter: cell ``trial_index`` of the shared spec list.

    The handed RNG is deliberately unused — every cell is seeded by its
    spec, so results cannot depend on worker count or chunking.
    """
    specs = shared_payload()
    return run_cell(specs[trial_index]).to_dict()


# --------------------------------------------------------------------------- #
# Arrival routing for roaming deployments.
# --------------------------------------------------------------------------- #


def _route_arrivals(arrivals: list, segments: list, duration: float) -> dict:
    """Split one station's time-sorted arrivals across its cell segments.

    An arrival inside a segment goes to that cell at its own time; one in
    a handoff gap is deferred to the start of the next segment (the frame
    waits out the handoff in the distribution system and lands in the new
    cell's queue the moment the station is reachable); one after the last
    segment is dropped. The time mapping is monotone, so each per-cell
    output list stays sorted.
    """
    routed: dict = {}
    cursor = 0
    for arrival in arrivals:
        while cursor < len(segments) and arrival.time >= segments[cursor].stop:
            cursor += 1
        if cursor == len(segments):
            break  # roamed past every segment: nothing can deliver this
        segment = segments[cursor]
        if arrival.time >= segment.start:
            routed.setdefault(segment.ap_index, []).append(arrival)
        elif segment.start < duration:
            routed.setdefault(segment.ap_index, []).append(
                dataclasses.replace(arrival, time=segment.start)
            )
    return routed


def _build_roaming_cell_arrivals(config: DeploymentConfig, timeline) -> dict:
    """ap_index → time-sorted arrival list with global station names."""
    rng = RngStream(config.seed)
    per_cell: dict = {}
    for sta_index in range(config.n_stas):
        name = f"sta{sta_index}"
        streams = [
            cbr_downlink_arrivals(
                [name], config.duration, config.frame_bytes,
                config.frames_per_second, rng.child(f"net-cbr-sta{sta_index}"),
                ap_name=AP_NAME,
            )
        ]
        if config.with_background:
            streams.append(
                background_uplink_arrivals(
                    [name], config.duration, rng.child(f"net-bg-sta{sta_index}"),
                    ap_name=AP_NAME, intensity=config.background_intensity,
                )
            )
        segments = timeline.segments_for(sta_index)
        for stream in streams:
            for ap_index, routed in _route_arrivals(
                stream, segments, config.duration
            ).items():
                per_cell.setdefault(ap_index, []).append(routed)
    return {
        ap_index: merge_arrivals(*streams)
        for ap_index, streams in per_cell.items()
    }


# --------------------------------------------------------------------------- #
# The deployment driver.
# --------------------------------------------------------------------------- #


@dataclass
class _DeploymentLayout:
    """Topology → associations → coupling plans, with no traffic.

    All a sharded parent reads (the timeline for statistics and handoff
    events, the coupling plans for fault counts); :func:`_deployment_plan`
    builds the full plan on top of it.
    """

    timeline: object
    members: dict
    plans: dict
    ap_order: tuple


@dataclass
class _DeploymentPlan(_DeploymentLayout):
    """The expensive, cell-independent decomposition of a config.

    Everything :func:`_make_cell_spec` needs to mint any single cell's
    spec: built once per process (the parent, or in sharded mode each
    worker) and reused for every cell of the deployment.
    """

    cell_arrivals: dict
    mixed: bool


def _deployment_layout(config: DeploymentConfig) -> _DeploymentLayout:
    """Build the layout: no traffic is generated."""
    topology = build_topology(
        config.n_aps, config.n_stas, config.seed,
        arena=config.arena,
        ap_placement=config.ap_placement,
        sta_placement=config.sta_placement,
        channels=config.channels,
        shadowing_sigma_db=config.shadowing_sigma_db,
    )
    mobility = RandomWaypointMobility() if config.mobility else None
    timeline = build_association_timeline(
        topology, config.duration, config.seed,
        mobility=mobility,
        hysteresis_db=config.hysteresis_db,
        handoff_delay=config.handoff_delay,
        legacy_fraction=config.legacy_fraction,
    )
    members = {ap.index: timeline.members(ap.index) for ap in topology.aps}
    if config.coupling:
        plans = coupling_fault_plans(
            topology, config.duration, config.seed,
            duty_by_ap={
                index: min(0.9, estimated_duty(
                    len(stas), config.frames_per_second, config.frame_bytes
                ) + (background_duty(
                    len(stas), intensity=config.background_intensity
                ) if config.with_background else 0.0))
                for index, stas in members.items()
            },
            hit_probability=config.hit_probability,
        )
    else:
        plans = {ap.index: None for ap in topology.aps}

    return _DeploymentLayout(
        timeline=timeline,
        members=members,
        plans=plans,
        ap_order=tuple(ap.index for ap in topology.aps),
    )


def _deployment_plan(config: DeploymentConfig) -> _DeploymentPlan:
    """The layout plus, for roaming deployments, the routed arrivals."""
    layout = _deployment_layout(config)
    return _DeploymentPlan(
        timeline=layout.timeline,
        members=layout.members,
        plans=layout.plans,
        ap_order=layout.ap_order,
        cell_arrivals=(_build_roaming_cell_arrivals(config, layout.timeline)
                       if config.mobility else {}),
        mixed=config.legacy_fraction > 0.0 and config.protocol == "Carpool",
    )


def _cell_fault_plan(config: DeploymentConfig, coupling_plan):
    """Compose a cell's coupling plan with the deployment-wide extras.

    Stream independence holds by construction: coupling specs are salted
    ``ap{i}-w{k}`` while soak episodes are salted per epoch, so composing
    the two never collides a fault RNG stream.
    """
    extra = config.extra_faults
    if not extra:
        return coupling_plan
    if not coupling_plan:
        return extra
    return FaultPlan.of(*coupling_plan.specs, *extra.specs)


def _make_cell_spec(config: DeploymentConfig, plan: _DeploymentPlan,
                    ap_index: int) -> CellSpec:
    """Mint one cell's spec from the shared deployment plan."""
    timeline, members = plan.timeline, plan.members
    common = dict(
        ap_index=ap_index,
        protocol=config.protocol,
        seed=cell_seed(config.seed, ap_index),
        duration=config.duration,
        frame_bytes=config.frame_bytes,
        frames_per_second=config.frames_per_second,
        latency_requirement=config.latency_requirement,
        with_background=config.with_background,
        background_intensity=config.background_intensity,
        fault_plan=_cell_fault_plan(config, plan.plans[ap_index]),
    )
    if not config.mobility:
        # Static: local names sta0..n-1 (the CbrScenario convention)
        # mapped back to the deployment's global indices.
        cell_members = members[ap_index]
        name_map = tuple(
            (f"sta{local}", f"sta{global_index}")
            for local, global_index in enumerate(cell_members)
        )
        carpool = None
        if plan.mixed:
            to_local = {g: l for l, g in name_map}
            carpool = tuple(
                to_local[name]
                for name in timeline.carpool_stations(ap_index)
            )
        return CellSpec(
            n_stations=len(cell_members), static=True,
            name_map=name_map, carpool_stations=carpool, **common,
        )
    names = tuple(f"sta{i}" for i in members[ap_index])
    carpool = (
        tuple(timeline.carpool_stations(ap_index)) if plan.mixed else None
    )
    return CellSpec(
        n_stations=len(names), static=False,
        arrivals=tuple(plan.cell_arrivals.get(ap_index, ())),
        station_names=names, carpool_stations=carpool, **common,
    )


def build_cell_specs(config: DeploymentConfig) -> tuple:
    """(specs, timeline, fault_plans) for a deployment config.

    Exposed separately so tests can inspect the decomposition without
    running the cells.
    """
    plan = _deployment_plan(config)
    specs = [_make_cell_spec(config, plan, i) for i in plan.ap_order]
    return specs, plan.timeline, plan.plans


# Worker-side plan memo for sharded runs: a worker serving several chunks
# of the same deployment rebuilds the decomposition once, not per chunk.
# Single entry (keyed by the frozen config) so a worker recycled across
# different deployments cannot accumulate plans — that would breach the
# constant-memory contract shards exist for.
_PLAN_MEMO: dict = {}


def _plan_for(config: DeploymentConfig) -> _DeploymentPlan:
    plan = _PLAN_MEMO.get(config)
    if plan is None:
        _PLAN_MEMO.clear()
        plan = _deployment_plan(config)
        _PLAN_MEMO[config] = plan
    return plan


class _SpecSource:
    """``run_trials`` trial_source: lazily mint one shard of cell specs.

    Pickles as just the config — workers regenerate their own shard of
    specs from the memoized plan, so the parent never materialises (or
    ships) the full spec list.
    """

    __slots__ = ("config",)

    def __init__(self, config: DeploymentConfig):
        self.config = config

    def __call__(self, start: int, stop: int) -> list:
        plan = _plan_for(self.config)
        return [
            _make_cell_spec(self.config, plan, plan.ap_order[i])
            for i in range(start, stop)
        ]

    def __reduce__(self):
        return (_SpecSource, (self.config,))


def _cell_trial_sharded(trial_index: int, rng, spec: CellSpec) -> dict:
    """Sharded run_trials adapter: the spec arrives from the trial source.

    The handed RNG is deliberately unused, exactly as in :func:`_cell_trial`.
    """
    return run_cell(spec).to_dict()


def _finalize(config: DeploymentConfig, agg: DeploymentAggregate, timeline,
              plans: dict, cells: list) -> DeploymentResult:
    """One :class:`DeploymentResult` from the folded aggregate.

    Both execution paths end here with an identical aggregate (the
    primitives are exactly associative), so every deployment-level field
    is bit-identical whether cells were folded in the parent or reduced
    shard-by-shard inside workers.
    """
    return DeploymentResult(
        config=config.to_payload(),
        cells=cells,
        total_goodput_bps=agg.total_goodput_bps(),
        total_useful_goodput_bps=agg.total_useful_goodput_bps(),
        busy_airtime_s=agg.busy_airtime_s(),
        jain_fairness=agg.jain_fairness(),
        n_roams=timeline.n_roams,
        interruption_time_s=timeline.interruption_time,
        n_coupled_cells=sum(1 for plan in plans.values() if plan is not None),
        n_cells=agg.n_cells,
        mean_cell_goodput_bps=agg.cell_goodput.mean(),
        cell_goodput_stddev_bps=agg.cell_goodput.stddev(),
        mean_cell_busy_fraction=agg.busy_fraction.mean(),
        goodput_histogram=agg.goodput_hist.to_dict(),
        busy_fraction_histogram=agg.busy_hist.to_dict(),
        demotions=agg.demotions,
        repromotions=agg.repromotions,
    )


def _emit_handoffs(config: DeploymentConfig, timeline) -> None:
    rec = active_recorder()
    if rec is None or not config.mobility:
        return
    for sta_index in range(config.n_stas):
        segments = timeline.segments_for(sta_index)
        for prev, nxt in zip(segments, segments[1:]):
            rec.emit("net", "handoff", sta=sta_index,
                     t=round(nxt.start, 6),
                     from_ap=prev.ap_index, to_ap=nxt.ap_index)


def simulate_deployment(
    config: DeploymentConfig,
    n_workers: int | None = None,
    cache: ResultCache | None = None,
    use_cache: bool = True,
    manifest_path=None,
    chunk_size: int | str | None = "auto",
    shards: int | None = None,
    return_aggregate: bool = False,
) -> DeploymentResult:
    """Simulate a whole deployment; cells fan out over the runtime pools.

    Each trial is one whole cell, and ``chunk_size`` defaults to
    ``"auto"``: the runtime measures the pool's per-submission IPC cost
    and batches enough cells per chunk to amortise it (cells are coarse,
    so this usually lands at a few cells per chunk). Chunking never
    affects results.

    ``shards=k`` selects the streaming path: cells are generated and
    reduced in ~``n_aps / k`` sized shards, workers fold their shard into
    a :class:`~repro.net.aggregate.DeploymentAggregate` before IPC, and
    the parent merges accumulators instead of collecting per-cell
    results. Deployment-level numbers are bit-identical to the unsharded
    path at any ``shards``/worker combination; ``result.cells`` is empty
    (the memory being saved is exactly that list).

    Results are cached under the ``deployment`` namespace, keyed by the
    full config payload and a fingerprint of every package that shapes
    the outcome — every ``repro`` package this module imports, so editing
    any code a cell runs invalidates stale entries automatically. Sharded
    results cache under a distinct key: the two paths return
    differently-shaped results (with and without ``cells``), so neither
    may satisfy the other's lookup.
    ``use_cache=False`` forces a recompute (the fresh result is still
    stored).

    ``manifest_path`` writes a provenance record (seed, git SHA, config
    hash, versions, timing) next to wherever the caller stores the result.

    ``return_aggregate=True`` returns ``(result, aggregate)`` — the live
    :class:`~repro.net.aggregate.DeploymentAggregate` the result was
    finalised from, so streaming callers (the :mod:`repro.serve` epoch
    loop) can keep folding it into a rolling deployment-of-deployments
    accumulator. It requires ``use_cache=False`` (a cache hit has no
    aggregate to hand back) and skips the cache write: epoch configs are
    one-shot, and persisting thousands of them would grow the cache
    without a future hit ever reading them.
    """
    if return_aggregate and use_cache:
        raise ValueError("return_aggregate=True requires use_cache=False")
    if shards is not None:
        shards = int(shards)
        if shards < 1:
            raise ValueError("shards must be >= 1")
    streaming = shards is not None
    key_payload = config.to_payload()
    if streaming:
        key_payload = dict(key_payload, result_shape="aggregate-only")
    key = content_key(
        "deployment", key_payload,
        code_fingerprint(*_FINGERPRINT_PACKAGES),
    )
    cache = cache or ResultCache(namespace="deployment")
    if use_cache:
        cached = cache.get(key)
        if cached is not None:
            log.info("deployment cache hit (%d APs, seed %d)",
                     config.n_aps, config.seed)
            return DeploymentResult.from_dict(cached)
    log.info("simulating deployment: %d APs x %d STAs, %s, seed %d%s",
             config.n_aps, config.stas_per_ap, config.protocol, config.seed,
             f" ({shards} shards)" if streaming else "")
    with manifest_scope(manifest_path, kind="deployment", seed=config.seed,
                        config=config.to_payload()):
        seed = derive_seed(config.seed, "net-cells")
        if streaming:
            with metrics().timer("net.build_specs").time():
                # The parent needs only the timeline (statistics, handoff
                # events) and the coupling plans: no spec list, no traffic.
                layout = _deployment_layout(config)
            _emit_handoffs(config, layout.timeline)
            with metrics().timer("net.run_cells").time():
                agg = run_trials(
                    _cell_trial_sharded, config.n_aps,
                    seed=seed,
                    n_workers=n_workers,
                    chunk_size=max(1, math.ceil(config.n_aps / shards)),
                    trial_source=_SpecSource(config),
                    reduce_fn=reduce_cell,
                    reduce_init=aggregate_factory(config.mobility),
                )
            with metrics().timer("net.aggregate").time():
                result = _finalize(config, agg, layout.timeline, layout.plans, [])
        else:
            with metrics().timer("net.build_specs").time():
                specs, timeline, plans = build_cell_specs(config)
            _emit_handoffs(config, timeline)
            with metrics().timer("net.run_cells").time():
                raw = run_trials(
                    _cell_trial, len(specs),
                    seed=seed,
                    n_workers=n_workers,
                    chunk_size=chunk_size,
                    shared=specs,
                )
            with metrics().timer("net.aggregate").time():
                # Fold the same wire dicts the sharded path reduces —
                # identity between the paths holds by construction.
                agg = DeploymentAggregate(track_stations=config.mobility)
                for r in raw:
                    agg.observe_cell(r)
                cells = [CellResult.from_dict(r) for r in raw]
                result = _finalize(config, agg, timeline, plans, cells)
        if not return_aggregate:
            cache.put(key, result.to_dict())
    if return_aggregate:
        return result, agg
    return result
