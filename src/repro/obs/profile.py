"""Cross-worker profiling: mergeable per-stage timings + cProfile stats.

The single-process ``--profile`` flag from the CLI answers "where did
*this interpreter* spend its time" — useless for a soak run whose hot
path executes inside ``runtime.trials`` pool workers. This module makes
profiles **mergeable and shippable**, the same trick the trace recorder
and metrics registry already play:

* :class:`ProfileCollector` accumulates per-stage wall/CPU chunk timings
  and per-function ``cProfile`` statistics keyed ``file:line:name``.
  Snapshots are plain dicts (picklable, JSON-safe) and fold with plain
  addition, so worker-side captures merge into the parent collector in
  deterministic span order exactly like trace chunks.
* The **ambient collector** mirrors the recorder/registry contract:
  ``profiling_enabled()`` is one pointer test, :func:`profile_capture`
  is a no-op context manager when disabled, and
  :func:`~repro.obs.trace.worker_spec` ships the enable bit to workers.
* ``cProfile`` cannot nest within a thread, so captures guard on a
  module flag: an inner capture under an active profiler records its
  wall/CPU stage timing but skips function stats (the outer profiler is
  already attributing them).
* A parent blocked on its workers is idle, not busy: :func:`profile_paused`
  switches the live profiler off around the wait and books the waited
  seconds as a stage instead, so the wait cannot show up as a lock
  ``acquire`` row charged to layer ``other`` on top of the workers' own
  rows (which would make the per-layer profile sum to more than the run's
  wall time).

Profiles are strictly **wall-domain**: they land in the run manifest's
``profile`` section and the CLI renders them, but they never touch
``state.json`` / ``metrics.jsonl`` / the deterministic telemetry view —
profiling on or off cannot move a deterministic artifact by a byte.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager
from typing import Optional

__all__ = [
    "PROFILE_SCHEMA",
    "ProfileCollector",
    "StageCapture",
    "enable_profiling",
    "disable_profiling",
    "profiling_enabled",
    "profile_collector",
    "profile_capture",
    "profile_paused",
    "function_layer",
]

PROFILE_SCHEMA = 1

#: Function rows kept per capture snapshot (by cumulative time). Merging
#: sums whatever rows survive the cap, so the aggregate stays bounded no
#: matter how many chunks a soak run folds in.
TOP_FUNCTIONS_PER_CAPTURE = 40


def function_layer(key: str) -> str:
    """Map a ``file:line:name`` stat key onto a repro layer.

    ``.../src/repro/mac/protocols/fallback.py:112:_demote`` → ``mac``;
    anything outside the ``repro`` package (numpy, stdlib, builtins)
    lands in ``other``.
    """
    path = key.rsplit(":", 2)[0].replace("\\", "/")
    marker = "repro/"
    at = path.rfind(marker)
    if at < 0:
        return "other"
    rest = path[at + len(marker):]
    head = rest.split("/", 1)[0]
    return head[:-3] if head.endswith(".py") else head


class ProfileCollector:
    """Mergeable profile store: stage timings + function statistics."""

    def __init__(self):
        #: stage -> {"count", "wall_s", "cpu_s"}
        self.stages: dict = {}
        #: "file:line:name" -> {"ncalls", "tottime", "cumtime"}
        self.functions: dict = {}

    def record_stage(self, stage: str, wall_s: float, cpu_s: float) -> None:
        entry = self.stages.get(stage)
        if entry is None:
            entry = self.stages[stage] = {"count": 0, "wall_s": 0.0,
                                          "cpu_s": 0.0}
        entry["count"] += 1
        entry["wall_s"] += wall_s
        entry["cpu_s"] += cpu_s

    def record_profile(self, profiler: cProfile.Profile) -> None:
        """Fold one finished profiler's top functions in."""
        stats = pstats.Stats(profiler)
        rows = sorted(
            stats.stats.items(),  # (file, line, name) -> (cc, nc, tt, ct, …)
            key=lambda item: item[1][3], reverse=True,
        )[:TOP_FUNCTIONS_PER_CAPTURE]
        for (filename, line, name), (_cc, ncalls, tottime, cumtime, _callers) in rows:
            key = f"{filename}:{line}:{name}"
            entry = self.functions.get(key)
            if entry is None:
                entry = self.functions[key] = {
                    "ncalls": 0, "tottime": 0.0, "cumtime": 0.0,
                }
            entry["ncalls"] += ncalls
            entry["tottime"] += tottime
            entry["cumtime"] += cumtime

    # -- reduction ----------------------------------------------------------

    def merge_snapshot(self, snapshot: Optional[dict]) -> None:
        """Fold a worker-side :meth:`snapshot` in (plain addition)."""
        if not snapshot:
            return
        for stage, data in snapshot.get("stages", {}).items():
            entry = self.stages.get(stage)
            if entry is None:
                self.stages[stage] = dict(data)
            else:
                entry["count"] += data["count"]
                entry["wall_s"] += data["wall_s"]
                entry["cpu_s"] += data["cpu_s"]
        for key, data in snapshot.get("functions", {}).items():
            entry = self.functions.get(key)
            if entry is None:
                self.functions[key] = dict(data)
            else:
                entry["ncalls"] += data["ncalls"]
                entry["tottime"] += data["tottime"]
                entry["cumtime"] += data["cumtime"]

    def snapshot(self) -> Optional[dict]:
        """Picklable/JSON form, or ``None`` when nothing was captured."""
        if not self.stages and not self.functions:
            return None
        return {
            "schema_version": PROFILE_SCHEMA,
            "stages": {k: dict(v) for k, v in sorted(self.stages.items())},
            "functions": {k: dict(v)
                          for k, v in sorted(self.functions.items())},
        }

    # -- rendering helpers --------------------------------------------------

    def per_layer(self) -> dict:
        """``tottime`` by repro layer (phy/mac/net/runtime/serve/other)."""
        layers: dict = {}
        for key, data in self.functions.items():
            layer = function_layer(key)
            layers[layer] = layers.get(layer, 0.0) + data["tottime"]
        return dict(sorted(layers.items(), key=lambda kv: -kv[1]))

    def top_functions(self, n: int = 15) -> list:
        """``(key, ncalls, tottime, cumtime)`` rows by total time."""
        rows = [(key, d["ncalls"], d["tottime"], d["cumtime"])
                for key, d in self.functions.items()]
        rows.sort(key=lambda r: r[2], reverse=True)
        return rows[:n]

    def to_manifest_section(self) -> Optional[dict]:
        """The ``profile`` section a run manifest carries: stage and
        per-layer aggregates plus the top functions — small enough to
        rewrite every epoch, rich enough for ``repro status``."""
        if not self.stages and not self.functions:
            return None
        return {
            "schema_version": PROFILE_SCHEMA,
            "stages": {k: dict(v) for k, v in sorted(self.stages.items())},
            "layers": self.per_layer(),
            "top_functions": [
                {"function": key, "ncalls": ncalls,
                 "tottime": tottime, "cumtime": cumtime}
                for key, ncalls, tottime, cumtime in self.top_functions()
            ],
        }


# --------------------------------------------------------------------------
# Ambient state, mirroring the recorder/registry contract in obs.trace.
# --------------------------------------------------------------------------

_COLLECTOR: Optional[ProfileCollector] = None
#: PID owning the live cProfile, or ``None``. cProfile cannot nest within
#: a thread, so captures under an active profiler record timings only —
#: and a forked child that inherited a stale flag must not be locked out,
#: hence the pid comparison rather than a plain boolean.
_PROFILER_OWNER: Optional[int] = None
#: The owner's live profiler, so a wait can pause it (:func:`profile_paused`).
_LIVE_PROFILER: Optional[cProfile.Profile] = None


def _profiler_active() -> bool:
    return _PROFILER_OWNER == os.getpid()


def profiling_enabled() -> bool:
    return _COLLECTOR is not None


def profile_collector() -> Optional[ProfileCollector]:
    """The ambient collector, or ``None`` when profiling is disabled."""
    return _COLLECTOR


def enable_profiling(collector: Optional[ProfileCollector] = None
                     ) -> ProfileCollector:
    """Install (and return) the ambient profile collector."""
    global _COLLECTOR
    if collector is None:
        collector = ProfileCollector()
    _COLLECTOR = collector
    return collector


def disable_profiling() -> Optional[ProfileCollector]:
    """Remove the ambient collector; returns it for a final snapshot."""
    global _COLLECTOR
    previous = _COLLECTOR
    _COLLECTOR = None
    return previous


class StageCapture:
    """One profiled span with explicit ``start``/``stop`` so callers that
    cannot use a ``with`` block (the worker chunk wrapper) still capture
    correctly. ``stop`` is idempotent."""

    def __init__(self, collector: ProfileCollector, stage: str):
        self._collector = collector
        self._stage = stage
        self._profiler: Optional[cProfile.Profile] = None
        self._running = False
        self._t_wall = 0.0
        self._t_cpu = 0.0

    def start(self) -> "StageCapture":
        global _PROFILER_OWNER, _LIVE_PROFILER
        self._running = True
        if not _profiler_active():
            self._profiler = _LIVE_PROFILER = cProfile.Profile()
            _PROFILER_OWNER = os.getpid()
            self._profiler.enable()
        self._t_wall = time.perf_counter()
        self._t_cpu = time.process_time()
        return self

    def stop(self) -> None:
        global _PROFILER_OWNER, _LIVE_PROFILER
        if not self._running:
            return
        self._running = False
        wall = time.perf_counter() - self._t_wall
        cpu = time.process_time() - self._t_cpu
        if self._profiler is not None:
            self._profiler.disable()
            _PROFILER_OWNER = _LIVE_PROFILER = None
            self._collector.record_profile(self._profiler)
            self._profiler = None
        self._collector.record_stage(self._stage, wall, cpu)

    def __enter__(self) -> "StageCapture":
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False


class _NullCapture:
    """Shared no-op capture for the disabled path: one pointer test per
    ``profile_capture`` call, nothing else."""

    __slots__ = ()

    def start(self):
        return self

    def stop(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_CAPTURE = _NullCapture()


def profile_capture(stage: str):
    """A capture for ``stage`` against the ambient collector — the shared
    no-op when profiling is disabled, so instrumented call sites need no
    conditional."""
    collector = _COLLECTOR
    if collector is None:
        return _NULL_CAPTURE
    return StageCapture(collector, stage)


@contextmanager
def _paused_stage(collector: ProfileCollector, stage: str):
    profiler = _LIVE_PROFILER if _profiler_active() else None
    if profiler is not None:
        profiler.disable()
    t_wall, t_cpu = time.perf_counter(), time.process_time()
    try:
        yield
    finally:
        collector.record_stage(stage, time.perf_counter() - t_wall,
                               time.process_time() - t_cpu)
        if profiler is not None:
            profiler.enable()


def profile_paused(stage: str):
    """Pause this process's live profiler while it blocks on other work.

    Wrap a wait on worker results in it: the waited seconds are recorded
    as ``stage`` instead of as time in whatever lock primitive the wait
    sits in. With no live profiler in this process only the stage is
    recorded; with profiling disabled it is the shared no-op. cProfile
    closes the frames open at the pause, so they stop accruing time
    there; calls made after the wait are profiled as usual.
    """
    collector = _COLLECTOR
    if collector is None:
        return _NULL_CAPTURE
    return _paused_stage(collector, stage)
