"""Cross-worker profiling: mergeable collectors, ambient state, no-op cost.

Mirrors the recorder/registry contracts ``test_noop_fastpath`` pins for
the other observability layers: disabled profiling is one pointer test
per call site, enabling it never perturbs what it measures (profiles are
wall-domain only), and worker-side snapshots fold with plain addition.
"""

import time

import pytest

from repro.obs.profile import (
    ProfileCollector,
    _NULL_CAPTURE,
    disable_profiling,
    enable_profiling,
    function_layer,
    profile_capture,
    profile_collector,
    profile_paused,
    profiling_enabled,
)
from repro.runtime.trials import run_trials, shutdown_pools


@pytest.fixture(autouse=True)
def _profiling_off():
    """Every test starts and ends with profiling disabled."""
    disable_profiling()
    yield
    disable_profiling()
    assert not profiling_enabled()


def _busy(n=2000):
    return sum(i * i for i in range(n))


def _sleep_trial(trial_index, rng):
    time.sleep(0.05)
    return trial_index


class TestFunctionLayer:
    def test_repro_layers(self):
        key = "/w/src/repro/mac/protocols/fallback.py:112:_demote"
        assert function_layer(key) == "mac"
        assert function_layer("/w/src/repro/runtime/trials.py:10:f") \
            == "runtime"

    def test_top_level_module(self):
        assert function_layer("/w/src/repro/cli.py:5:main") == "cli"

    def test_non_repro_is_other(self):
        assert function_layer("/usr/lib/python3.11/json/decoder.py:1:d") \
            == "other"
        assert function_layer("~:0:<built-in method time.sleep>") == "other"


class TestCollector:
    def test_stage_accumulates(self):
        collector = ProfileCollector()
        collector.record_stage("chunk", 0.5, 0.4)
        collector.record_stage("chunk", 0.25, 0.2)
        entry = collector.stages["chunk"]
        assert entry["count"] == 2
        assert entry["wall_s"] == pytest.approx(0.75)
        assert entry["cpu_s"] == pytest.approx(0.6)

    def test_empty_snapshot_is_none(self):
        assert ProfileCollector().snapshot() is None
        assert ProfileCollector().to_manifest_section() is None

    def test_snapshot_merge_is_addition(self):
        a, b = ProfileCollector(), ProfileCollector()
        a.record_stage("chunk", 1.0, 0.9)
        b.record_stage("chunk", 2.0, 1.8)
        b.record_stage("item", 0.5, 0.4)
        merged = ProfileCollector()
        merged.merge_snapshot(a.snapshot())
        merged.merge_snapshot(b.snapshot())
        assert merged.stages["chunk"]["count"] == 2
        assert merged.stages["chunk"]["wall_s"] == pytest.approx(3.0)
        assert merged.stages["item"]["count"] == 1

    def test_merge_order_does_not_matter(self):
        a, b = ProfileCollector(), ProfileCollector()
        a.record_stage("chunk", 1.0, 1.0)
        b.record_stage("chunk", 2.0, 2.0)
        ab, ba = ProfileCollector(), ProfileCollector()
        ab.merge_snapshot(a.snapshot())
        ab.merge_snapshot(b.snapshot())
        ba.merge_snapshot(b.snapshot())
        ba.merge_snapshot(a.snapshot())
        assert ab.snapshot() == ba.snapshot()

    def test_merge_none_is_noop(self):
        collector = ProfileCollector()
        collector.merge_snapshot(None)
        assert collector.snapshot() is None


class TestAmbientState:
    def test_disabled_by_default(self):
        assert not profiling_enabled()
        assert profile_collector() is None

    def test_enable_disable_round_trip(self):
        collector = enable_profiling()
        assert profiling_enabled()
        assert profile_collector() is collector
        assert disable_profiling() is collector
        assert not profiling_enabled()

    def test_disabled_capture_is_shared_noop(self):
        assert profile_capture("anything") is _NULL_CAPTURE

    def test_disabled_capture_is_cheap(self):
        """~50k disabled-path spans; same guard style as the metrics
        no-op fast path — generous bound, catches per-call allocation."""
        n = 50_000
        start = time.perf_counter()
        for _ in range(n):
            with profile_capture("serve.epoch"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed / n < 20e-6


class TestStageCapture:
    def test_capture_records_stage_and_functions(self):
        collector = enable_profiling()
        with profile_capture("serve.epoch"):
            _busy()
        assert collector.stages["serve.epoch"]["count"] == 1
        assert collector.stages["serve.epoch"]["wall_s"] > 0
        assert collector.functions  # cProfile rows landed

    def test_nested_capture_records_timing_only(self):
        """cProfile cannot nest: the inner span keeps its stage timing
        but leaves function attribution to the outer profiler."""
        collector = enable_profiling()
        with profile_capture("outer"):
            with profile_capture("inner"):
                _busy()
        assert collector.stages["outer"]["count"] == 1
        assert collector.stages["inner"]["count"] == 1

    def test_stop_is_idempotent(self):
        collector = enable_profiling()
        capture = profile_capture("once").start()
        capture.stop()
        capture.stop()
        assert collector.stages["once"]["count"] == 1

    def test_manifest_section_shape(self):
        collector = enable_profiling()
        with profile_capture("serve.epoch"):
            _busy()
        section = collector.to_manifest_section()
        assert section["stages"]["serve.epoch"]["count"] == 1
        assert isinstance(section["layers"], dict)
        rows = section["top_functions"]
        assert rows and {"function", "ncalls", "tottime", "cumtime"} \
            <= set(rows[0])


class TestPausedWait:
    def test_disabled_pause_is_shared_noop(self):
        assert profile_paused("trials.wait") is _NULL_CAPTURE

    def test_pause_without_live_profiler_records_stage(self):
        collector = enable_profiling()
        with profile_paused("trials.wait"):
            time.sleep(0.01)
        assert collector.stages["trials.wait"]["count"] == 1
        assert not collector.functions

    def test_parent_wait_is_not_profiled_lock_time(self):
        """A parent blocked on sleeping workers books the wait as a
        ``trials.wait`` stage, not as a lock ``acquire`` row."""
        shutdown_pools()
        collector = enable_profiling()
        try:
            with profile_capture("outer"):
                results = run_trials(_sleep_trial, 8, seed=0, n_workers=2,
                                     chunk_size=1)
        finally:
            shutdown_pools()
        assert results == list(range(8))
        wall = collector.stages["outer"]["wall_s"]
        assert collector.stages["trials.wait"]["wall_s"] > 0.5 * wall
        acquire = [d["tottime"] for key, d in collector.functions.items()
                   if "acquire" in key]
        assert all(t <= 0.05 * wall for t in acquire), acquire
