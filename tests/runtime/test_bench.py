"""BENCH_*.json schema validation, baseline comparison, and smoke runs."""

import copy
import json

import pytest

from repro.runtime.bench import (
    SCHEMA_VERSION,
    compare_bench,
    run_mac_bench,
    run_phy_bench,
    validate_bench,
)

def _scaling(serial_seconds, units, timings, unit="trials"):
    return {
        "unit": unit,
        "serial_seconds": serial_seconds,
        "workers": {
            str(w): {
                "seconds": s,
                f"{unit}_per_s": units / s,
                "speedup_vs_serial": serial_seconds / s,
            }
            for w, s in timings.items()
        },
    }


_VALID = {
    "meta": {
        "schema_version": SCHEMA_VERSION,
        "suite": "phy",
        "python": "3.11.0",
        "numpy": "2.0.0",
        "platform": "test",
        "c_kernel": True,
        "smoke": True,
        "n_workers": 1,
    },
    "encode": {
        "n_bits": 100, "rate": "3/4", "seconds_per_frame": 1e-3,
        "mbit_per_s": 0.1,
    },
    "viterbi": {
        "n_bits": 100, "rate": "3/4", "seconds_per_frame": 1e-3,
        "mbit_per_s": 0.1, "reference_seconds_per_frame": 1e-1,
        "speedup_vs_reference": 100.0, "bit_exact_vs_reference": True,
    },
    "rx_chain": {
        "mcs": "QAM64-3/4", "payload_bytes": 500, "seconds_per_frame": 1e-2,
        "frames_per_s": 100.0,
    },
    "monte_carlo": {
        "trials": 4, "payload_bytes": 300, "serial_seconds": 1.0,
        "serial_trials_per_s": 4.0, "parallel_workers": 2,
        "parallel_seconds": 1.0, "parallel_trials_per_s": 4.0,
        "pool_reused": True, "crossover_workers": None,
        "identical_serial_parallel": True,
        "scaling": _scaling(1.0, 4, {1: 0.8, 2: 1.0}),
    },
}

_VALID_MAC = {
    "meta": {
        "schema_version": SCHEMA_VERSION,
        "suite": "mac",
        "python": "3.11.0",
        "numpy": "2.0.0",
        "platform": "test",
        "smoke": True,
        "n_workers": 1,
    },
    "sweep": {
        "receivers": [2, 4], "payloads": [256, 1024], "points": 4,
        "trials": 1, "uncached_seconds": 10.0,
        "cached_seconds": 1.0, "speedup": 10.0,
        "identical_results": True,
    },
    "trials_pool": {
        "trials": 4, "stations": 4, "payload_bytes": 300,
        "probes_per_tile": 2, "serial_seconds": 1.0,
        "serial_trials_per_s": 4.0, "parallel_workers": 2,
        "parallel_seconds": 0.5, "parallel_trials_per_s": 8.0,
        "pool_reused": True, "crossover_workers": 2,
        "identical_serial_parallel": True,
        "scaling": _scaling(1.0, 4, {1: 0.6, 2: 0.5}),
    },
}


_VALID_NET = {
    "meta": {
        "schema_version": SCHEMA_VERSION,
        "suite": "net",
        "python": "3.11.0",
        "numpy": "2.0.0",
        "platform": "test",
        "smoke": True,
        "n_workers": 2,
    },
    "deployment": {
        "aps": 4, "stas_per_ap": 2, "duration": 0.3,
        "serial_seconds": 1.0, "serial_cells_per_s": 4.0,
        "parallel_workers": 2, "parallel_seconds": 0.5,
        "parallel_cells_per_s": 8.0, "pool_reused": True,
        "crossover_workers": 2, "identical_serial_parallel": True,
        "scaling": _scaling(1.0, 4, {1: 0.6, 2: 0.5}, unit="cells"),
    },
    "replay": {
        "aps": 4, "stas_per_ap": 2, "duration": 0.3,
        "cold_seconds": 1.0, "warm_seconds": 0.01,
        "identical_cold_warm": True,
    },
    "streaming": {
        "small_aps": 4, "large_aps": 16, "stas_per_ap": 2,
        "duration": 0.3, "shards": 4,
        "unsharded_ipc_bytes": 50_000, "sharded_ipc_bytes": 5_000,
        "ipc_reduction_factor": 10.0,
        "small_peak_rss_mb": 40.0, "large_peak_rss_mb": 41.0,
        "rss_growth_factor": 1.025,
        "ipc_reduction_ok": True, "rss_flat_ok": True,
        "identical_sharded_unsharded": True,
    },
}


class TestValidateBench:
    def test_accepts_valid_payload(self):
        assert validate_bench(copy.deepcopy(_VALID)) == _VALID

    def test_accepts_valid_mac_payload(self):
        assert validate_bench(copy.deepcopy(_VALID_MAC)) == _VALID_MAC

    def test_missing_suite_defaults_to_phy(self):
        legacy = copy.deepcopy(_VALID)
        del legacy["meta"]["suite"]
        assert validate_bench(legacy) == legacy

    def test_rejects_unknown_suite(self):
        broken = copy.deepcopy(_VALID)
        broken["meta"]["suite"] = "dsp"
        with pytest.raises(ValueError, match="unknown bench suite"):
            validate_bench(broken)

    def test_rejects_missing_section(self):
        broken = copy.deepcopy(_VALID)
        del broken["viterbi"]
        with pytest.raises(ValueError, match="missing section 'viterbi'"):
            validate_bench(broken)

    def test_rejects_missing_mac_section(self):
        broken = copy.deepcopy(_VALID_MAC)
        del broken["sweep"]
        with pytest.raises(ValueError, match="missing section 'sweep'"):
            validate_bench(broken)

    def test_rejects_missing_key(self):
        broken = copy.deepcopy(_VALID)
        del broken["monte_carlo"]["crossover_workers"]
        with pytest.raises(ValueError, match="monte_carlo.crossover_workers"):
            validate_bench(broken)

    def test_rejects_inexact_decoder(self):
        broken = copy.deepcopy(_VALID)
        broken["viterbi"]["bit_exact_vs_reference"] = False
        with pytest.raises(ValueError, match="bit_exact_vs_reference"):
            validate_bench(broken)

    def test_rejects_nondeterministic_runner(self):
        broken = copy.deepcopy(_VALID)
        broken["monte_carlo"]["identical_serial_parallel"] = False
        with pytest.raises(ValueError, match="identical_serial_parallel"):
            validate_bench(broken)

    def test_rejects_sweep_divergence(self):
        broken = copy.deepcopy(_VALID_MAC)
        broken["sweep"]["identical_results"] = False
        with pytest.raises(ValueError, match="identical_results"):
            validate_bench(broken)

    def test_rejects_wrong_schema_version(self):
        broken = copy.deepcopy(_VALID)
        broken["meta"]["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            validate_bench(broken)

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            validate_bench([])


class TestCompareBench:
    def test_identical_runs_have_no_regressions(self):
        assert compare_bench(copy.deepcopy(_VALID_MAC), _VALID_MAC) == []

    def test_small_drop_within_threshold_passes(self):
        current = copy.deepcopy(_VALID_MAC)
        current["sweep"]["speedup"] = _VALID_MAC["sweep"]["speedup"] * 0.85
        assert compare_bench(current, _VALID_MAC, threshold=0.2) == []

    def test_large_drop_is_flagged(self):
        current = copy.deepcopy(_VALID_MAC)
        current["sweep"]["speedup"] = _VALID_MAC["sweep"]["speedup"] * 0.5
        messages = compare_bench(current, _VALID_MAC, threshold=0.2)
        assert len(messages) == 1
        assert "sweep.speedup" in messages[0]

    def test_improvement_is_not_flagged(self):
        current = copy.deepcopy(_VALID_MAC)
        current["sweep"]["speedup"] *= 10
        current["trials_pool"]["parallel_trials_per_s"] *= 10
        assert compare_bench(current, _VALID_MAC) == []

    def test_raw_seconds_are_not_gated(self):
        # Absolute seconds are results but not throughput metrics: a
        # slower wall clock with the same throughput keys does not flag.
        current = copy.deepcopy(_VALID_MAC)
        current["sweep"]["uncached_seconds"] *= 100
        assert compare_bench(current, _VALID_MAC) == []

    def test_mismatched_workloads_are_skipped(self):
        # A smoke-sized sweep legitimately has a different speedup than
        # the full grid: sections with different workload descriptors
        # are not comparable and must not flag phantom regressions.
        current = copy.deepcopy(_VALID_MAC)
        current["sweep"]["points"] = 16
        current["sweep"]["trials"] = 5
        current["sweep"]["speedup"] = 1.0  # would flag if compared
        assert compare_bench(current, _VALID_MAC) == []

    def test_same_workload_drop_still_flags_other_sections(self):
        current = copy.deepcopy(_VALID_MAC)
        current["sweep"]["points"] = 16  # sweep skipped...
        current["trials_pool"]["parallel_trials_per_s"] = 0.1  # ...pool gated
        messages = compare_bench(current, _VALID_MAC)
        assert len(messages) == 1
        assert "trials_pool.parallel_trials_per_s" in messages[0]

    def test_missing_sections_in_current_are_skipped(self):
        current = {"meta": _VALID_MAC["meta"], "sweep": _VALID_MAC["sweep"]}
        assert compare_bench(current, _VALID_MAC) == []

    def test_phy_vs_mac_baselines_do_not_cross_talk(self):
        # Disjoint section names: nothing to compare, nothing to flag.
        assert compare_bench(copy.deepcopy(_VALID), _VALID_MAC) == []

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_bench(_VALID_MAC, _VALID_MAC, threshold=1.5)


class TestCrossoverGate:
    def test_lost_crossover_on_full_run_is_flagged(self):
        current = copy.deepcopy(_VALID_MAC)
        current["meta"]["smoke"] = False
        current["trials_pool"]["crossover_workers"] = None
        messages = compare_bench(current, _VALID_MAC)
        assert len(messages) == 1
        assert "trials_pool.crossover_workers" in messages[0]

    def test_smoke_runs_are_exempt(self):
        # Tiny smoke workloads rarely amortise a pool; losing the
        # crossover there says nothing about the full-size run.
        current = copy.deepcopy(_VALID_MAC)
        assert current["meta"]["smoke"] is True
        current["trials_pool"]["crossover_workers"] = None
        assert compare_bench(current, _VALID_MAC) == []

    def test_null_baseline_never_flags(self):
        # _VALID's monte_carlo baseline has crossover None: a null
        # candidate is status quo, not a regression.
        current = copy.deepcopy(_VALID)
        current["meta"]["smoke"] = False
        assert compare_bench(current, _VALID) == []

    def test_crossover_moving_later_is_degree_not_kind(self):
        # 2 -> 4 still crosses over; the throughput keys gate the degree.
        current = copy.deepcopy(_VALID_MAC)
        current["meta"]["smoke"] = False
        current["trials_pool"]["crossover_workers"] = 4
        assert compare_bench(current, _VALID_MAC) == []

    def test_mismatched_workload_skips_the_gate(self):
        current = copy.deepcopy(_VALID_MAC)
        current["meta"]["smoke"] = False
        current["trials_pool"]["trials"] = 64
        current["trials_pool"]["crossover_workers"] = None
        assert compare_bench(current, _VALID_MAC) == []

    def test_scaling_curves_are_results_not_workload(self):
        # A changed scaling subsection must not make the section look
        # like a different workload (which would skip all its gates).
        current = copy.deepcopy(_VALID_MAC)
        current["trials_pool"]["scaling"] = _scaling(2.0, 4, {1: 1.0, 2: 1.8})
        current["trials_pool"]["parallel_trials_per_s"] = 1.0
        messages = compare_bench(current, _VALID_MAC)
        assert any("trials_pool.parallel_trials_per_s" in m for m in messages)


class TestStreamingSection:
    def test_accepts_valid_net_payload(self):
        assert validate_bench(copy.deepcopy(_VALID_NET)) == _VALID_NET

    @pytest.mark.parametrize("gate", [
        "identical_sharded_unsharded", "ipc_reduction_ok", "rss_flat_ok",
    ])
    def test_rejects_failed_streaming_gates(self, gate):
        broken = copy.deepcopy(_VALID_NET)
        broken["streaming"][gate] = False
        with pytest.raises(ValueError, match=gate):
            validate_bench(broken)

    def test_rejects_missing_streaming_key(self):
        broken = copy.deepcopy(_VALID_NET)
        del broken["streaming"]["ipc_reduction_factor"]
        with pytest.raises(ValueError, match="streaming.ipc_reduction_factor"):
            validate_bench(broken)

    def test_ipc_reduction_drop_is_flagged(self):
        current = copy.deepcopy(_VALID_NET)
        current["streaming"]["ipc_reduction_factor"] = 4.0  # 10x -> 4x
        messages = compare_bench(current, _VALID_NET)
        assert len(messages) == 1
        assert "streaming.ipc_reduction_factor" in messages[0]

    def test_measured_bytes_and_rss_are_results_not_workload(self):
        # Byte counts and RSS marks vary run to run; they must neither
        # make the section look like a different workload (which would
        # skip its gates) nor flag on their own — only the reduction
        # factor and the *_ok booleans gate.
        current = copy.deepcopy(_VALID_NET)
        current["streaming"]["unsharded_ipc_bytes"] = 80_000
        current["streaming"]["sharded_ipc_bytes"] = 9_000
        current["streaming"]["small_peak_rss_mb"] = 55.0
        current["streaming"]["large_peak_rss_mb"] = 60.0
        current["streaming"]["rss_growth_factor"] = 1.09
        assert compare_bench(current, _VALID_NET) == []
        # ...and the section is still live for real regressions:
        current["streaming"]["ipc_reduction_factor"] = 1.0
        assert any("ipc_reduction_factor" in m
                   for m in compare_bench(current, _VALID_NET))


class TestObservabilityBackCompat:
    """Pre-streaming baselines know nothing of the new counters
    (ipc_result_bytes, shm_bytes, peak_rss_mb) or the streaming section;
    comparing against them must keep working unchanged.
    """

    def _observability(self):
        return {
            "cache_hits": 3, "cache_misses": 1, "pool_reuses": 2,
            "ipc_result_bytes": 123_456, "shm_bytes": 789,
            "peak_rss_mb": 41.5,
        }

    def test_baseline_without_new_counters_is_accepted(self):
        # Old baseline: no observability section at all.
        current = copy.deepcopy(_VALID_MAC)
        current["observability"] = self._observability()
        assert compare_bench(current, _VALID_MAC) == []

    def test_baseline_with_partial_observability_is_accepted(self):
        # Old baseline recorded *some* counters but predates the
        # IPC/RSS ones; the section is never compared either way.
        baseline = copy.deepcopy(_VALID_MAC)
        baseline["observability"] = {"cache_hits": 0, "pool_reuses": 0}
        current = copy.deepcopy(_VALID_MAC)
        current["observability"] = self._observability()
        assert compare_bench(current, baseline) == []
        assert compare_bench(copy.deepcopy(baseline), current) == []

    def test_baseline_without_streaming_section_is_accepted(self):
        # A net baseline recorded before the streaming bench existed
        # simply has nothing to say about it.
        baseline = copy.deepcopy(_VALID_NET)
        del baseline["streaming"]
        assert compare_bench(copy.deepcopy(_VALID_NET), baseline) == []


_VALID_SOAK = {
    "meta": {
        "schema_version": SCHEMA_VERSION,
        "suite": "soak",
        "python": "3.11.0",
        "numpy": "2.0.0",
        "platform": "test",
        "smoke": True,
        "n_workers": 1,
    },
    "sustained": {
        "epochs": 4, "aps": 3, "max_stas_per_ap": 6,
        "epoch_duration": 0.3, "shards": 3, "cumulative_users": 24,
        "frames": 400, "wall_seconds": 2.0, "frames_per_s": 200.0,
        "warm_peak_rss_mb": 40.0, "end_peak_rss_mb": 42.0,
        "rss_growth_factor": 1.05, "rss_growth_threshold": 1.5,
        "rss_flat_ok": True,
    },
    "telemetry": {
        "epochs": 4, "slo": "goodput_bps<1",
        "plain_wall_seconds": 2.0, "telemetry_wall_seconds": 2.05,
        "plain_frames_per_s": 200.0, "telemetry_frames_per_s": 195.0,
        "overhead_factor": 1.026, "overhead_threshold": 2.5,
        "overhead_ok": True, "telemetry_records": 4,
        "health_status": "ok",
    },
    "resume": {
        "epochs": 2, "resume_epoch": 1, "identical_resume": True,
        "identical_telemetry": True,
    },
}


class TestSoakSuite:
    def test_accepts_valid_soak_payload(self):
        assert validate_bench(copy.deepcopy(_VALID_SOAK)) == _VALID_SOAK

    @pytest.mark.parametrize("section,gate", [
        ("sustained", "rss_flat_ok"), ("telemetry", "overhead_ok"),
        ("resume", "identical_resume"), ("resume", "identical_telemetry"),
    ])
    def test_rejects_failed_soak_gates(self, section, gate):
        broken = copy.deepcopy(_VALID_SOAK)
        broken[section][gate] = False
        with pytest.raises(ValueError, match=gate):
            validate_bench(broken)

    def test_rejects_missing_soak_key(self):
        broken = copy.deepcopy(_VALID_SOAK)
        del broken["sustained"]["frames_per_s"]
        with pytest.raises(ValueError, match="sustained.frames_per_s"):
            validate_bench(broken)

    def test_throughput_drop_is_flagged(self):
        current = copy.deepcopy(_VALID_SOAK)
        current["sustained"]["frames_per_s"] = 100.0  # 200 -> 100
        messages = compare_bench(current, _VALID_SOAK)
        assert len(messages) == 1
        assert "sustained.frames_per_s" in messages[0]

    def test_rss_marks_are_results_not_workload(self):
        # RSS readings vary run to run: they must neither flag on their
        # own nor disguise the section as a different workload.
        current = copy.deepcopy(_VALID_SOAK)
        current["sustained"]["warm_peak_rss_mb"] = 55.0
        current["sustained"]["end_peak_rss_mb"] = 58.0
        current["sustained"]["rss_growth_factor"] = 1.055
        current["sustained"]["wall_seconds"] = 1.9
        assert compare_bench(current, _VALID_SOAK) == []
        current["sustained"]["frames_per_s"] = 50.0
        assert any("frames_per_s" in m
                   for m in compare_bench(current, _VALID_SOAK))

    def test_telemetry_throughput_drop_is_flagged(self):
        current = copy.deepcopy(_VALID_SOAK)
        current["telemetry"]["telemetry_frames_per_s"] = 50.0
        assert any("telemetry.telemetry_frames_per_s" in m
                   for m in compare_bench(current, _VALID_SOAK))

    def test_telemetry_overhead_factor_is_result_not_workload(self):
        # The factor jitters run to run; it must not disguise the section
        # as a different workload (which would silently skip comparison).
        current = copy.deepcopy(_VALID_SOAK)
        current["telemetry"]["overhead_factor"] = 1.04
        current["telemetry"]["plain_frames_per_s"] = 100.0
        assert any("plain_frames_per_s" in m
                   for m in compare_bench(current, _VALID_SOAK))

    def test_baseline_without_soak_suite_is_accepted(self):
        # compare_bench must accept older baselines that predate the
        # soak suite entirely (cross-suite payloads share no sections).
        assert compare_bench(copy.deepcopy(_VALID_SOAK), _VALID_NET) == []

    def test_baseline_without_resume_section_is_accepted(self):
        baseline = copy.deepcopy(_VALID_SOAK)
        del baseline["resume"]
        assert compare_bench(copy.deepcopy(_VALID_SOAK), baseline) == []


@pytest.mark.slow
def test_soak_smoke_bench_emits_valid_json(tmp_path):
    from repro.runtime.bench import run_soak_bench

    out = tmp_path / "BENCH_soak.json"
    payload = run_soak_bench(smoke=True, out_path=str(out))
    on_disk = json.loads(out.read_text())
    assert validate_bench(on_disk) == on_disk
    assert payload["meta"]["suite"] == "soak"
    assert payload["sustained"]["rss_flat_ok"] is True
    assert payload["sustained"]["frames"] > 0
    assert payload["telemetry"]["overhead_ok"] is True
    assert payload["telemetry"]["health_status"] == "ok"
    assert payload["resume"]["identical_resume"] is True
    assert payload["resume"]["identical_telemetry"] is True


@pytest.mark.slow
def test_smoke_bench_emits_valid_json(tmp_path):
    out = tmp_path / "BENCH_phy.json"
    payload = run_phy_bench(smoke=True, out_path=str(out))
    on_disk = json.loads(out.read_text())
    assert validate_bench(on_disk) == on_disk
    assert payload["meta"]["smoke"] is True
    assert payload["meta"]["suite"] == "phy"
    assert payload["viterbi"]["bit_exact_vs_reference"] is True
    assert payload["monte_carlo"]["identical_serial_parallel"] is True
    assert payload["monte_carlo"]["pool_reused"] is True


@pytest.mark.slow
def test_mac_smoke_bench_emits_valid_json(tmp_path):
    out = tmp_path / "BENCH_mac.json"
    payload = run_mac_bench(smoke=True, out_path=str(out))
    on_disk = json.loads(out.read_text())
    assert validate_bench(on_disk) == on_disk
    assert payload["meta"]["suite"] == "mac"
    assert "engine" not in payload
    assert payload["sweep"]["identical_results"] is True
    assert payload["sweep"]["speedup"] > 1.0
    assert payload["trials_pool"]["identical_serial_parallel"] is True
