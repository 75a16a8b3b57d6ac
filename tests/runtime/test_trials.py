"""The parallel trial runner must be deterministic for any worker count."""

import os

import numpy as np
import pytest

from repro.runtime import (
    autotune_chunk_size,
    parallel_map,
    persistent_pool,
    resolve_workers,
    run_trials,
    shared_payload,
    shutdown_pools,
    trial_rngs,
)


def _toy_trial(trial_index, rng, offset):
    # Top-level so it pickles into pool workers.
    return (trial_index, offset + float(rng.random()))


def _square(x):
    return x * x


def _worker_pid(trial_index, rng):
    return os.getpid()


def _read_shared(trial_index, rng):
    return shared_payload()


def _draw_trial(trial_index, rng, scale):
    return round(float(rng.random()) * scale, 9)


def _draw_batch(start, rngs, scale):
    # Same per-RNG draws as _draw_trial, executed for a whole chunk.
    return [round(float(rng.random()) * scale, 9) for rng in rngs]


def _chunk_width_batch(start, rngs):
    # Every trial in a chunk reports how many trials shared its chunk.
    return [len(rngs)] * len(rngs)


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_beats_autodetect(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_autodetect_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestRunTrials:
    def test_serial_equals_parallel(self):
        serial = run_trials(_toy_trial, 17, seed=123, n_workers=1, args=(5.0,))
        parallel = run_trials(_toy_trial, 17, seed=123, n_workers=4, args=(5.0,))
        assert serial == parallel

    def test_chunk_size_does_not_change_results(self):
        baseline = run_trials(_toy_trial, 11, seed=9, n_workers=1, args=(0.0,))
        for chunk_size in (1, 2, 5, 11):
            chunked = run_trials(_toy_trial, 11, seed=9, n_workers=3,
                                 chunk_size=chunk_size, args=(0.0,))
            assert chunked == baseline

    def test_results_are_ordered(self):
        results = run_trials(_toy_trial, 9, seed=0, n_workers=3, args=(0.0,))
        assert [index for index, _ in results] == list(range(9))

    def test_zero_trials(self):
        assert run_trials(_toy_trial, 0, seed=0, n_workers=2, args=(0.0,)) == []

    def test_trial_rngs_match_runner(self):
        rngs = trial_rngs(42, 5)
        expected = [float(rng.random()) for rng in rngs]
        observed = [v for _, v in run_trials(_toy_trial, 5, seed=42,
                                             n_workers=1, args=(0.0,))]
        assert observed == expected


class TestPersistentPools:
    def test_pool_is_reused_across_calls(self):
        shutdown_pools()
        first = set(run_trials(_worker_pid, 6, seed=0, n_workers=2))
        second = set(run_trials(_worker_pid, 6, seed=1, n_workers=2))
        # The same worker processes serve both calls (start-up paid once);
        # scheduling may skew chunks, so require overlap, not equality.
        assert first & second
        shutdown_pools()

    def test_persistent_pool_identity(self):
        shutdown_pools()
        assert persistent_pool(2) is persistent_pool(2)
        shutdown_pools()

    def test_shared_payload_reaches_workers(self):
        shutdown_pools()
        payload = {"table": [1, 2, 3]}
        values = run_trials(_read_shared, 4, seed=0, n_workers=2,
                            shared=payload)
        assert all(v == payload for v in values)
        shutdown_pools()

    def test_shared_payload_on_serial_path(self):
        values = run_trials(_read_shared, 3, seed=0, n_workers=1,
                            shared={"k": 7})
        assert values == [{"k": 7}] * 3


class TestGranularity:
    def test_chunks_align_to_granularity(self):
        shutdown_pools()
        # 10 trials, chunk_size 3 rounded up to 4: widths 4, 4, 2 (tail).
        widths = run_trials(_worker_pid, 10, seed=0, n_workers=2,
                            chunk_size=3, granularity=2,
                            batch_fn=_chunk_width_batch)
        assert sorted(set(widths)) == [2, 4]
        assert widths[:8] == [4] * 8
        shutdown_pools()

    def test_granularity_does_not_change_results(self):
        baseline = run_trials(_draw_trial, 12, seed=4, n_workers=1, args=(3.0,))
        for granularity in (2, 3, 4):
            tiled = run_trials(_draw_trial, 12, seed=4, n_workers=3,
                               granularity=granularity, args=(3.0,))
            assert tiled == baseline
        shutdown_pools()

    def test_autotune_respects_granularity(self):
        size = autotune_chunk_size(_draw_trial, 40, seed=0, n_workers=4,
                                   args=(1.0,), granularity=3)
        assert size % 3 == 0 or size == 40


class TestBatchFn:
    def test_batch_path_matches_scalar(self):
        shutdown_pools()
        scalar = run_trials(_draw_trial, 14, seed=8, n_workers=1, args=(2.0,))
        for kwargs in ({"n_workers": 1}, {"n_workers": 2},
                       {"n_workers": 4, "chunk_size": 3}):
            batched = run_trials(_draw_trial, 14, seed=8, args=(2.0,),
                                 batch_fn=_draw_batch, **kwargs)
            assert batched == scalar, kwargs
        shutdown_pools()

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(RuntimeError, match="batch"):
            run_trials(_draw_trial, 5, seed=0, n_workers=1, args=(1.0,),
                       batch_fn=lambda start, rngs, scale: [0.0])


class TestFingerprintKeying:
    def test_equal_recreated_payload_reuses_pool(self):
        shutdown_pools()
        first = set(run_trials(_worker_pid, 6, seed=0, n_workers=2,
                               shared={"table": [1, 2, 3]}))
        # A *new* but equal payload object must hit the same warm pool.
        second = set(run_trials(_worker_pid, 6, seed=1, n_workers=2,
                                shared={"table": [1, 2, 3]}))
        assert first & second
        shutdown_pools()

    def test_different_payload_retires_old_pool(self):
        shutdown_pools()
        first = set(run_trials(_worker_pid, 6, seed=0, n_workers=2,
                               shared={"table": [1, 2, 3]}))
        second = set(run_trials(_worker_pid, 6, seed=0, n_workers=2,
                                shared={"table": [4, 5, 6]}))
        assert first.isdisjoint(second)
        values = run_trials(_read_shared, 2, seed=0, n_workers=2,
                            shared={"table": [4, 5, 6]})
        assert values == [{"table": [4, 5, 6]}] * 2
        shutdown_pools()

    def test_payload_free_pool_is_kept_separate(self):
        shutdown_pools()
        plain = persistent_pool(2)
        with_payload = persistent_pool(2, shared={"k": 1})
        assert plain is not with_payload
        assert persistent_pool(2) is plain
        shutdown_pools()


class TestAutotune:
    def test_bounds_and_serial_shortcut(self):
        assert autotune_chunk_size(_toy_trial, 1, seed=0, n_workers=4,
                                   args=(0.0,)) == 1
        assert autotune_chunk_size(_toy_trial, 40, seed=0, n_workers=1,
                                   args=(0.0,)) == 40
        size = autotune_chunk_size(_toy_trial, 40, seed=0, n_workers=4,
                                   args=(0.0,))
        assert 1 <= size <= 10  # ceil(40/4): at least one chunk per worker

    def test_auto_chunking_does_not_change_results(self):
        baseline = run_trials(_toy_trial, 11, seed=9, n_workers=1, args=(0.0,))
        auto = run_trials(_toy_trial, 11, seed=9, n_workers=3,
                          chunk_size="auto", args=(0.0,))
        assert auto == baseline


class TestParallelMap:
    def test_order_preserved(self):
        items = list(range(23))
        assert parallel_map(_square, items, n_workers=1) == [x * x for x in items]
        assert parallel_map(_square, items, n_workers=4) == [x * x for x in items]

    def test_empty(self):
        assert parallel_map(_square, [], n_workers=4) == []


class TestExperimentDeterminism:
    def test_ber_by_symbol_index_serial_equals_parallel(self):
        from repro.analysis.phy_experiments import LinkConfig, ber_by_symbol_index

        link = LinkConfig(seed=5)
        serial = ber_by_symbol_index("QPSK-1/2", 400, trials=4, link=link,
                                     n_workers=1)
        parallel = ber_by_symbol_index("QPSK-1/2", 400, trials=4, link=link,
                                       n_workers=3)
        assert np.array_equal(serial.ber_per_symbol, parallel.ber_per_symbol)
        assert serial.crc_pass_rate == parallel.crc_pass_rate
        assert serial.side_bit_error_rate == parallel.side_bit_error_rate


def _emitting_trial(trial_index, rng, scale):
    # Emits through the ambient recorder/registry so trace determinism
    # can be asserted across worker counts.
    from repro.obs.trace import active_recorder, metrics

    value = round(float(rng.random()) * scale, 9)
    rec = active_recorder()
    if rec is not None:
        rec.emit("test", "trial_done", value=value)
    metrics().counter("test.trials").inc()
    return (trial_index, value)


def _silent_batch(start, rngs, scale):
    # Correct values but no events: using it under tracing would lose
    # the per-trial emissions (and the test would catch it).
    return [(start + t, round(float(rng.random()) * scale, 9))
            for t, rng in enumerate(rngs)]


def _emitting_item(x):
    from repro.obs.trace import active_recorder

    rec = active_recorder()
    if rec is not None:
        rec.emit("test", "map_item", x=x)
    return x * x


class TestTraceDeterminism:
    """Correlation ids derive from the run seed and the trial's spawn
    position — never ``id()`` or the clock — so an instrumented run
    produces the exact same trace at any worker count or chunking."""

    @pytest.fixture(autouse=True)
    def _pristine_obs(self):
        from repro.obs.trace import disable_metrics, set_recorder

        set_recorder(None)
        disable_metrics()
        yield
        set_recorder(None)
        disable_metrics()

    def _traced_run(self, **kwargs):
        import json

        from repro.obs.trace import TraceRecorder, set_recorder

        recorder = TraceRecorder(None, deterministic=True)
        set_recorder(recorder)
        try:
            results = run_trials(_emitting_trial, 8, seed=5, args=(2.0,),
                                 **kwargs)
        finally:
            set_recorder(None)
        return results, json.dumps(recorder.events, sort_keys=True)

    def test_trace_byte_identical_across_worker_counts(self):
        shutdown_pools()
        serial_results, serial_trace = self._traced_run(n_workers=1)
        for kwargs in ({"n_workers": 3}, {"n_workers": 2, "chunk_size": 3},
                       {"n_workers": 3, "chunk_size": 1}):
            results, trace = self._traced_run(**kwargs)
            assert results == serial_results, kwargs
            assert trace == serial_trace, kwargs
        shutdown_pools()

    def test_traced_runs_bypass_the_batch_path(self):
        # A batch executor skips per-trial instrumentation, so a traced
        # run must fall back to the scalar oracle — same results, same
        # trace bytes as an untraced-equivalent scalar run, any workers.
        shutdown_pools()
        _, serial_trace = self._traced_run(n_workers=1)
        for n_workers in (1, 3):
            results, trace = self._traced_run(n_workers=n_workers,
                                              batch_fn=_silent_batch)
            assert trace == serial_trace
            assert results == [(i, v) for i, (_, v) in enumerate(results)]
        shutdown_pools()

    def test_cids_derive_from_seed_and_position(self):
        from repro.obs.trace import trial_correlation_id

        _, trace = self._traced_run(n_workers=1)
        import json

        events = json.loads(trace)
        assert [e["cid"] for e in events] == [
            trial_correlation_id(5, i) for i in range(8)
        ]
        # A different run seed yields different ids for the same slots.
        assert trial_correlation_id(6, 0) != trial_correlation_id(5, 0)

    def test_parallel_map_positional_cids(self):
        import json

        from repro.obs.trace import TraceRecorder, set_recorder

        traces = []
        for n_workers in (1, 3):
            recorder = TraceRecorder(None, deterministic=True)
            set_recorder(recorder)
            try:
                assert parallel_map(_emitting_item, [3, 1, 2],
                                    n_workers=n_workers) == [9, 1, 4]
            finally:
                set_recorder(None)
            traces.append(json.dumps(recorder.events, sort_keys=True))
        assert traces[0] == traces[1]
        events = json.loads(traces[0])
        assert [e["cid"] for e in events] == ["i00000", "i00001", "i00002"]
        shutdown_pools()

    def test_worker_metrics_fold_back_only_when_shipped(self):
        from repro.obs.trace import disable_metrics, enable_metrics

        registry = enable_metrics()  # parent-side only
        run_trials(_emitting_trial, 6, seed=1, n_workers=2, args=(1.0,))
        assert registry.counter("test.trials").value == 0
        disable_metrics()

        registry = enable_metrics(ship_to_workers=True)
        run_trials(_emitting_trial, 6, seed=1, n_workers=2, args=(1.0,))
        assert registry.counter("test.trials").value == 6
        disable_metrics()
        shutdown_pools()
