"""Zero-copy shared payloads: descriptors, pool keying, segment lifecycle."""

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.runtime import trials
from repro.runtime.shm import (
    MIN_SHARED_BYTES,
    SharedPayload,
    pack_payload,
    payload_fingerprint,
    shm_supported,
)
from repro.runtime.trials import (
    persistent_pool,
    run_trials,
    shared_payload,
    shutdown_pools,
)

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="no multiprocessing.shared_memory")


def _segments() -> set:
    """Names of the live shared-memory segments on this box."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-Linux: fall back to name tracking only
        return set()


def _big_payload(fill=1.0):
    return {
        "table": np.full(2048, fill),
        "nested": [np.arange(1024, dtype=np.int64), "label"],
        "scalar": 7,
    }


def _lookup_trial(trial_index, rng, scale):
    payload = shared_payload()
    return float(payload["table"][trial_index]) * scale + payload["scalar"]


def _boom_trial(trial_index, rng):
    if trial_index >= 2:
        raise ValueError("boom")
    return trial_index


class TestPackPayload:
    def test_no_arrays_means_no_descriptor(self):
        assert pack_payload({"config": [1, 2, 3], "name": "x"}) is None

    def test_small_arrays_keep_plain_pickle(self):
        tiny = {"a": np.arange(8)}
        assert tiny["a"].nbytes < MIN_SHARED_BYTES
        assert pack_payload(tiny) is None

    def test_object_arrays_are_not_lifted(self):
        assert pack_payload({"a": np.array([object()] * 4096)}) is None

    def test_descriptor_round_trip(self):
        payload = _big_payload()
        descriptor = pack_payload(payload)
        assert isinstance(descriptor, SharedPayload)
        try:
            clone = pickle.loads(pickle.dumps(descriptor))
            assert not clone.is_owner
            rebuilt = clone.materialize()
            assert np.array_equal(rebuilt["table"], payload["table"])
            assert np.array_equal(rebuilt["nested"][0], payload["nested"][0])
            assert rebuilt["nested"][1] == "label"
            assert rebuilt["scalar"] == 7
            assert not rebuilt["table"].flags.writeable
            # Zero-copy: the views must be backed by the mapping, not pickle.
            assert clone.materialize() is rebuilt
        finally:
            descriptor.release()

    def test_release_is_owner_only_and_idempotent(self):
        descriptor = pack_payload(_big_payload())
        name = descriptor.name
        clone = pickle.loads(pickle.dumps(descriptor))
        clone.materialize()
        clone.release()  # non-owner: must be a no-op
        assert name in _segments() or not _segments()
        descriptor.release()
        descriptor.release()  # idempotent
        assert name not in _segments()

    def test_fingerprint_tracks_content_not_identity(self):
        a = _big_payload()
        b = _big_payload()
        c = _big_payload(fill=2.0)
        assert payload_fingerprint(a) == payload_fingerprint(b)
        assert payload_fingerprint(a) != payload_fingerprint(c)


class TestSegmentLifecycle:
    def setup_method(self):
        shutdown_pools()

    def teardown_method(self):
        shutdown_pools()

    def test_worker_reads_through_shared_segment(self):
        payload = _big_payload()
        results = run_trials(_lookup_trial, 6, seed=1, n_workers=2,
                             args=(2.0,), shared=payload)
        assert results == [payload["table"][i] * 2.0 + 7 for i in range(6)]

    def test_pool_retirement_unlinks_segment(self):
        before = _segments()
        run_trials(_lookup_trial, 4, seed=1, n_workers=2, args=(1.0,),
                   shared=_big_payload())
        assert len(_segments() - before) == 1  # pool holds its segment
        shutdown_pools()
        assert _segments() - before == set()

    def test_new_fingerprint_retires_old_segment(self):
        before = _segments()
        run_trials(_lookup_trial, 4, seed=1, n_workers=2, args=(1.0,),
                   shared=_big_payload(fill=1.0))
        run_trials(_lookup_trial, 4, seed=1, n_workers=2, args=(1.0,),
                   shared=_big_payload(fill=2.0))
        # The stale pool and its segment are gone; only the live one maps.
        assert len(_segments() - before) == 1
        shutdown_pools()
        assert _segments() - before == set()

    def test_hardened_retry_releases_segments(self):
        before = _segments()
        outcome = run_trials(_boom_trial, 4, seed=1, n_workers=2,
                             chunk_size=1, salvage=True, max_chunk_retries=1,
                             shared=_big_payload())
        assert [f for f in outcome.failures]  # the bad chunks were lost
        assert outcome.results[:2] == [0, 1]
        assert _segments() - before == set()


class TestSpawnStartMethod:
    def test_spawn_workers_match_serial(self, monkeypatch):
        shutdown_pools()
        monkeypatch.setattr(
            trials, "_mp_context",
            lambda: multiprocessing.get_context("spawn"))
        try:
            payload = _big_payload()
            parallel = run_trials(_lookup_trial, 4, seed=9, n_workers=2,
                                  args=(1.5,), shared=payload)
        finally:
            shutdown_pools()
        serial = run_trials(_lookup_trial, 4, seed=9, n_workers=1,
                            args=(1.5,), shared=payload)
        assert parallel == serial
