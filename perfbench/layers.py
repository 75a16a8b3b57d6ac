"""Layer attribution for the traced run: wrap public functions, count and time them.

:class:`LayerTracer` replaces public functions and methods of each
``repro`` package with wrappers that keep a span stack. Every wrapped call
is one span of its layer; a layer's *self time* is its spans' time minus
the time of the spans they called, so builtin, numpy and ``repro.util``
work is charged to the layer that called it. Per hook the tracer keeps the
calls, the inclusive seconds and (optionally) an item count taken from the
return value; nested calls of one hook (a ``super()`` chain) count once.

The wrappers live only inside ``with tracer.installed():``. Leaving the
block puts every original object back where it was found, so an untraced
run in the same process executes the unmodified code.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

#: Layers in report order (``util`` is charged to its caller).
LAYERS = ("analysis", "mac", "traffic", "faults", "net", "runtime",
          "channel", "core", "phy")

_TRACED = "__perfbench_traced__"

#: Every per-layer metric of the traced run, with its unit.
PER_LAYER_UNITS = {
    "mac.run_s": "s", "mac.self_s": "s",
    "mac.ready_time_calls": "count", "mac.ready_time_s": "s",
    "mac.ready_calls_per_access": "ratio", "mac.backoff_countdowns": "count",
    "mac.queue_scans": "count", "mac.build_calls": "count",
    "mac.builds_per_access": "ratio", "mac.error_draws": "count",
    "mac.transmissions": "count", "mac.collisions": "count",
    "mac.collision_frac": "ratio", "mac.retx_subframes": "count",
    "mac.dropped_frames": "count",
    "traffic.arrivals": "count", "traffic.gen_s": "s", "traffic.self_s": "s",
    "faults.window_checks": "count", "faults.window_hits": "count",
    "faults.s": "s", "faults.self_s": "s",
    "net.plan_builds": "count", "net.plan_s": "s", "net.cells": "count",
    "net.cell_s": "s", "net.aggregate_s": "s", "net.roams": "count",
    "net.coupled_cells": "count", "net.self_s": "s",
    "runtime.run_trials_s": "s", "runtime.parent_wait_s": "s",
    "runtime.worker_cpu_s": "s", "runtime.pool_spawn_s": "s",
    "runtime.ipc_result_bytes": "bytes", "runtime.shm_payloads": "count",
    "runtime.self_s": "s",
    "channel.transmit_calls": "count", "channel.transmit_s": "s",
    "channel.self_s": "s",
    "core.decode_s": "s", "core.rte_updates": "count",
    "core.crc_pass_frac": "ratio", "core.self_s": "s",
    "phy.demod_s": "s", "phy.crc_s": "s", "phy.self_s": "s",
    "analysis.self_s": "s",
    "obs.trace_overhead": "ratio", "obs.traced_wall_s": "s",
    "obs.untraced_wall_s": "s",
}


class LayerTracer:
    """Span stack, per-hook counters and per-layer self time."""

    def __init__(self):
        self.self_s = {layer: [0.0] for layer in LAYERS}
        self.hooks: dict = {}  # metric -> [calls, seconds, items]
        self.missing: list = []  # hook targets this code base does not have
        self._depth: dict = {}
        self._stack: list = []
        self._undo: list = []

    # -- reading ----------------------------------------------------------

    def calls(self, metric: str) -> int:
        return self.hooks.get(metric, [0, 0.0, 0])[0]

    def seconds(self, metric: str) -> float:
        return self.hooks.get(metric, [0, 0.0, 0])[1]

    def items(self, metric: str) -> int:
        return self.hooks.get(metric, [0, 0.0, 0])[2]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str, metric: str, count=None):
        acc = self.hooks.setdefault(metric, [0, 0.0, 0])
        depth = self._depth.setdefault(metric, [0])
        layer_self = self.self_s[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = depth[0] == 0
            depth[0] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[0] -= 1
                layer_self[0] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if outer:
                    acc[0] += 1
                    acc[1] += elapsed
            if outer and count is not None:
                acc[2] += count(result)
            return result

        setattr(traced, _TRACED, True)
        return traced

    def hook(self, owner, name: str, layer: str, metric: str, count=None):
        """Wrap ``owner.name`` as one span of ``layer`` counted under ``metric``."""
        self.patch(owner, name,
                   lambda fn: self._wrap(fn, layer, metric, count))

    def patch(self, owner, name: str, make_wrapper) -> None:
        """Replace ``owner.name`` by ``make_wrapper(original)`` until uninstall.

        ``owner`` is a class (its own attribute; a property's getter is
        wrapped) or a module, in which case every module-level binding of
        the same function object is replaced too.
        """
        if isinstance(owner, type):
            raw = vars(owner).get(name)
            if raw is None:
                self.missing.append(f"{owner.__qualname__}.{name}")
                return
            if isinstance(raw, property):
                new = property(make_wrapper(raw.fget), raw.fset, raw.fdel,
                               raw.__doc__)
            else:
                new = make_wrapper(raw)
            self._undo.append((owner, name, raw))
            setattr(owner, name, new)
            return
        raw = getattr(owner, name, None)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{name}")
            return
        new = make_wrapper(raw)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is raw:
                    self._undo.append((module, attr, raw))
                    setattr(module, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    @contextlib.contextmanager
    def installed(self, hook_table=None):
        """Wrap every hook of ``hook_table`` (default: all layers) for the block."""
        try:
            for owner, name, layer, metric, count in (
                    hook_table if hook_table is not None else layer_hooks()):
                self.hook(owner, name, layer, metric, count)
            yield self
        finally:
            self.uninstall()


def probe_run_trials(tracer: LayerTracer) -> dict:
    """Patch ``run_trials`` (via ``tracer``) to total its wall, parent-CPU
    and worker-CPU seconds per call into the returned dict."""
    from host import live_children_cpu
    from repro.runtime import trials

    totals = {"wall": 0.0, "parent_cpu": 0.0, "worker_cpu": 0.0}

    def make(fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            workers, parent = live_children_cpu(), time.process_time()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals["wall"] += time.perf_counter() - start
                totals["parent_cpu"] += time.process_time() - parent
                totals["worker_cpu"] += live_children_cpu() - workers

        setattr(probed, _TRACED, True)
        return probed

    tracer.patch(trials, "run_trials", make)
    return totals


def is_traced(obj) -> bool:
    """True for a tracer wrapper (or a property whose getter is one)."""
    if isinstance(obj, property):
        obj = obj.fget
    return bool(getattr(obj, _TRACED, False))


def _truthy(result) -> int:
    return 1 if result else 0


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def layer_hooks() -> list:
    """(owner, attribute, layer, metric, item count) for every layer boundary."""
    from repro.analysis import phy_experiments
    from repro.channel.model import ChannelModel
    from repro.core import receiver
    from repro.core.rte import RealTimeEstimator
    from repro.core.symbol_crc import SymbolCrcConfig
    from repro.faults.mac import MacFaultInjector
    from repro.mac import error_model
    from repro.mac.engine import WlanSimulator
    from repro.mac.node import Node
    from repro.mac.protocols.base import Protocol
    from repro.mac.scenarios import CbrScenario, VoipScenario
    from repro.net import aggregate, deployment, interference, roaming, topology
    from repro.phy.modulation import Modulation
    from repro.runtime import trials
    from repro.traffic import background, flows, voip

    hooks = [
        (phy_experiments, "ber_by_symbol_index", "analysis", "analysis.ber", None),
        (VoipScenario, "run", "mac", "mac.scenario", None),
        (CbrScenario, "run", "mac", "mac.scenario", None),
        (WlanSimulator, "run", "mac", "mac.run", None),
        (Node, "consume_slots", "mac", "mac.consume_slots", None),
        (Node, "pending_bytes", "mac", "mac.queue_scan", None),
        (Node, "oldest_arrival", "mac", "mac.queue_scan", None),
    ]
    # Every class that defines the method: overrides calling super() nest
    # inside one hook, which counts them once.
    for cls in _subclasses(Protocol):
        hooks += [(cls, name, "mac", f"mac.{name}", None)
                  for name in ("ready_time", "build") if name in vars(cls)]
    models = [cls for cls in vars(error_model).values() if isinstance(cls, type)]
    for cls in models:
        if "draw_subframe" in vars(cls):
            hooks.append((cls, "draw_subframe", "mac", "mac.draw_subframe", None))
        if "draw_subframes" in vars(cls):
            hooks.append((cls, "draw_subframes", "mac", "mac.draw_subframes", len))
    hooks += [
        (voip, "voip_downlink_arrivals", "traffic", "traffic.gen", len),
        (voip, "voip_uplink_arrivals", "traffic", "traffic.gen", len),
        (flows, "cbr_downlink_arrivals", "traffic", "traffic.gen", len),
        (background, "background_uplink_arrivals", "traffic", "traffic.gen", len),
        (flows, "merge_arrivals", "traffic", "traffic.merge", None),
    ]
    for name in ("ack_lost", "cts_lost", "ahdr_corrupted",
                 "subframe_burst_failed", "hidden_window_hit"):
        hooks.append((MacFaultInjector, name, "faults", "faults.window", _truthy))
    hooks += [
        (deployment, "simulate_deployment", "net", "net.deployment", None),
        (topology, "build_topology", "net", "net.topology", None),
        (roaming, "build_association_timeline", "net", "net.timeline", None),
        (interference, "coupling_fault_plans", "net", "net.coupling", None),
        (deployment, "run_cell", "net", "net.run_cell", None),
        (aggregate, "reduce_cell", "net", "net.aggregate", None),
        (aggregate.DeploymentAggregate, "observe_cell", "net", "net.aggregate", None),
        (aggregate.DeploymentAggregate, "merge", "net", "net.aggregate", None),
        (trials, "run_trials", "runtime", "runtime.run_trials", None),
        (ChannelModel, "transmit", "channel", "channel.transmit", None),
        (receiver, "decode_subframe_symbols", "core", "core.decode", None),
        (receiver, "decode_subframe_symbols_frozen_batch", "core", "core.decode", None),
        (RealTimeEstimator, "update", "core", "core.rte_update", None),
        (Modulation, "demodulate", "phy", "phy.demod", None),
        (SymbolCrcConfig, "check_group", "phy", "phy.crc", None),
        (SymbolCrcConfig, "check_groups_block", "phy", "phy.crc", None),
    ]
    return hooks


def layer_metrics(tracer: LayerTracer, accesses: int) -> dict:
    """The traced run's per-layer metrics (counts and seconds) from a tracer."""
    t = tracer
    per_access = (lambda n: n / accesses) if accesses else (lambda n: 0.0)
    out = {
        "mac.run_s": t.seconds("mac.run"),
        "mac.ready_time_calls": t.calls("mac.ready_time"),
        "mac.ready_time_s": t.seconds("mac.ready_time"),
        "mac.ready_calls_per_access": per_access(t.calls("mac.ready_time")),
        "mac.backoff_countdowns": t.calls("mac.consume_slots"),
        "mac.queue_scans": t.calls("mac.queue_scan"),
        "mac.build_calls": t.calls("mac.build"),
        "mac.builds_per_access": per_access(t.calls("mac.build")),
        "mac.error_draws": (t.calls("mac.draw_subframe")
                            + t.items("mac.draw_subframes")),
        "traffic.arrivals": t.items("traffic.gen"),
        "traffic.gen_s": t.seconds("traffic.gen") + t.seconds("traffic.merge"),
        "faults.window_checks": t.calls("faults.window"),
        "faults.window_hits": t.items("faults.window"),
        "faults.s": t.seconds("faults.window"),
        "net.plan_builds": t.calls("net.timeline"),
        "net.plan_s": (t.seconds("net.topology") + t.seconds("net.timeline")
                       + t.seconds("net.coupling")),
        "net.cells": t.calls("net.run_cell"),
        "net.cell_s": t.seconds("net.run_cell"),
        "net.aggregate_s": t.seconds("net.aggregate"),
        "channel.transmit_calls": t.calls("channel.transmit"),
        "channel.transmit_s": t.seconds("channel.transmit"),
        "core.decode_s": t.seconds("core.decode"),
        "core.rte_updates": t.calls("core.rte_update"),
        "phy.demod_s": t.seconds("phy.demod"),
        "phy.crc_s": t.seconds("phy.crc"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.self_s[layer][0]
    return out
