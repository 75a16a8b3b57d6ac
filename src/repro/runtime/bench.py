"""Performance-regression harness → ``BENCH_phy.json`` / ``BENCH_mac.json``.

Times the hot loops this reproduction depends on. The **phy** suite covers
convolutional encoding, Viterbi decoding, the full receive chain, and the
Monte-Carlo trial runner serial vs parallel; the **mac** suite covers the
sweep engine this repo's system-level results run on — the
receivers×payload goodput sweep cached vs uncached, and trial-runner
scaling on the persistent pools. Run via::

    python -m repro bench --suite phy --out BENCH_phy.json
    python -m repro bench --suite mac --out BENCH_mac.json
    python -m repro bench --suite net --out BENCH_net.json
    python -m repro bench --suite all --smoke          # CI structural check
    python -m repro bench --suite all --smoke --compare .   # regression gate

The **net** suite times the multi-BSS deployment layer (:mod:`repro.net`):
cell fan-out over the persistent pools serial vs parallel, and a cold
compute vs a warm result-cache replay of the same deployment.

Each suite emits one JSON document in the same schema family, checked by
:func:`validate_bench`; :func:`compare_bench` diffs a run against a
committed baseline and reports every throughput metric that regressed by
more than the threshold (the CI gate fails on any).

Not imported from ``repro.runtime.__init__``: this module depends on
``repro.analysis``, which itself runs its trials through the runtime.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import replace

import numpy as np

from repro.obs.trace import collecting
from repro.runtime.trials import resolve_workers, run_trials

__all__ = [
    "run_phy_bench",
    "run_mac_bench",
    "run_net_bench",
    "run_soak_bench",
    "validate_bench",
    "compare_bench",
    "peak_rss_mb",
    "SCHEMA_VERSION",
]

# v3: the serial legs of monte_carlo / trials_pool are the per-trial
# *scalar oracle*, the parallel legs run the production batched chunk
# path, and each pool section carries a ``scaling`` subsection — the
# speedup curve over worker counts (``"1"`` = the batched path in-process,
# no pool) that ``crossover_workers`` is read from.
# v4: the net suite gains a ``streaming`` section — bytes shipped over
# IPC and parent peak RSS for sharded (worker-side reduced) vs unsharded
# deployments at identical results — and the ``observability`` section
# carries ``ipc_result_bytes`` / ``shm_bytes`` / ``peak_rss_mb``.
# v5: new ``soak`` suite — sustained frames-per-wall-second of the
# :mod:`repro.serve` epoch loop at a flat parent RSS ceiling, plus a
# kill/resume identity gate. Older baselines lacking the suite (or any
# section) stay comparable: :func:`compare_bench` only diffs sections
# present in both documents.
# v6: the soak suite gains a ``telemetry`` section — sustained frames/s
# with per-epoch telemetry + one SLO watchdog on vs off, gated on the
# overhead factor — and the ``resume`` section gains an
# ``identical_telemetry`` gate: the deterministic telemetry view must be
# byte-identical across kill/resume at different worker/shard counts.
# v7: the MAC engine has one subframe-draw path, so the mac suite drops
# its ``engine`` section (scalar vs batched draws) and the ``sweep`` keys
# become ``uncached_seconds`` / ``cached_seconds``.
SCHEMA_VERSION = 7

# Suite -> section -> keys every BENCH_*.json must carry (the schema family).
_REQUIRED_KEYS = {
    "phy": {
        "meta": (
            "schema_version", "suite", "python", "numpy", "platform",
            "c_kernel", "smoke", "n_workers",
        ),
        "encode": ("n_bits", "rate", "seconds_per_frame", "mbit_per_s"),
        "viterbi": (
            "n_bits", "rate", "seconds_per_frame", "mbit_per_s",
            "reference_seconds_per_frame", "speedup_vs_reference",
            "bit_exact_vs_reference",
        ),
        "rx_chain": ("mcs", "payload_bytes", "seconds_per_frame", "frames_per_s"),
        "monte_carlo": (
            "trials", "payload_bytes", "serial_seconds", "serial_trials_per_s",
            "parallel_workers", "parallel_seconds", "parallel_trials_per_s",
            "pool_reused", "crossover_workers", "identical_serial_parallel",
            "scaling",
        ),
    },
    "mac": {
        "meta": (
            "schema_version", "suite", "python", "numpy", "platform",
            "smoke", "n_workers",
        ),
        "sweep": (
            "receivers", "payloads", "points", "trials",
            "uncached_seconds", "cached_seconds", "speedup",
            "identical_results",
        ),
        "trials_pool": (
            "trials", "stations", "payload_bytes", "probes_per_tile",
            "serial_seconds", "serial_trials_per_s",
            "parallel_workers", "parallel_seconds", "parallel_trials_per_s",
            "pool_reused", "crossover_workers", "identical_serial_parallel",
            "scaling",
        ),
    },
    "net": {
        "meta": (
            "schema_version", "suite", "python", "numpy", "platform",
            "smoke", "n_workers",
        ),
        "deployment": (
            "aps", "stas_per_ap", "duration", "serial_seconds",
            "serial_cells_per_s", "parallel_workers", "parallel_seconds",
            "parallel_cells_per_s", "pool_reused", "crossover_workers",
            "identical_serial_parallel", "scaling",
        ),
        "replay": (
            "aps", "stas_per_ap", "duration", "cold_seconds",
            "warm_seconds", "identical_cold_warm",
        ),
        "streaming": (
            "small_aps", "large_aps", "stas_per_ap", "duration", "shards",
            "unsharded_ipc_bytes", "sharded_ipc_bytes",
            "ipc_reduction_factor", "small_peak_rss_mb", "large_peak_rss_mb",
            "rss_growth_factor", "ipc_reduction_ok", "rss_flat_ok",
            "identical_sharded_unsharded",
        ),
    },
    "soak": {
        "meta": (
            "schema_version", "suite", "python", "numpy", "platform",
            "smoke", "n_workers",
        ),
        "sustained": (
            "epochs", "aps", "max_stas_per_ap", "epoch_duration", "shards",
            "cumulative_users", "frames", "wall_seconds", "frames_per_s",
            "warm_peak_rss_mb", "end_peak_rss_mb", "rss_growth_factor",
            "rss_flat_ok",
        ),
        "telemetry": (
            "epochs", "slo", "plain_wall_seconds", "telemetry_wall_seconds",
            "plain_frames_per_s", "telemetry_frames_per_s",
            "overhead_factor", "overhead_threshold", "overhead_ok",
            "telemetry_records", "health_status",
        ),
        "resume": (
            "epochs", "resume_epoch", "identical_resume",
            "identical_telemetry",
        ),
    },
}

# Correctness gates: (suite, section, key) that must be True.
_TRUE_GATES = {
    "phy": (
        ("viterbi", "bit_exact_vs_reference"),
        ("monte_carlo", "identical_serial_parallel"),
    ),
    "mac": (
        ("sweep", "identical_results"),
        ("trials_pool", "identical_serial_parallel"),
    ),
    "net": (
        ("deployment", "identical_serial_parallel"),
        ("replay", "identical_cold_warm"),
        ("streaming", "identical_sharded_unsharded"),
        ("streaming", "ipc_reduction_ok"),
        ("streaming", "rss_flat_ok"),
    ),
    "soak": (
        ("sustained", "rss_flat_ok"),
        ("telemetry", "overhead_ok"),
        ("resume", "identical_resume"),
        ("resume", "identical_telemetry"),
    ),
}


def peak_rss_mb() -> float:
    """This process's lifetime peak resident set size, in MiB.

    The single place ``ru_maxrss`` units are normalised: the kernel
    reports kilobytes on Linux but *bytes* on macOS, so every consumer
    (the streaming and soak bench gates, ``benchmarks/
    check_memory_ceiling.py`` and its committed ``memory_budget.json``
    ceilings) must read the figure through this helper for absolute MB
    budgets to be portable.

    ``ru_maxrss`` is a monotone high-water mark: it can only ever grow,
    which is exactly the property the delta-based gates lean on — measure
    after a small leg, then after a large leg, and any growth is
    attributable to the large leg.
    """
    import resource
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / ((1 << 20) if sys.platform == "darwin" else (1 << 10))


def _observability_section(registry) -> dict:
    """Parent-side obs counters for the optional ``observability`` section.

    Collected with worker shipping off, so the timed chunk path inside the
    pools is exactly what an uninstrumented run executes. Informational
    only: :func:`compare_bench` never gates on it, and committed baselines
    written before the section existed (or before individual counters
    like ``ipc_result_bytes`` / ``shm_bytes`` / ``peak_rss_mb`` were
    added) stay valid.
    """
    def count(name: str) -> int:
        instrument = registry.get(name)
        return int(instrument.value) if instrument is not None else 0

    hits = count("runtime.cache_hits")
    misses = count("runtime.cache_misses")
    lookups = hits + misses
    return {
        "pool_spawned": count("runtime.pool_spawned"),
        "pool_reused": count("runtime.pool_reused"),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_ratio": hits / lookups if lookups else None,
        "chunk_retries": count("runtime.chunk_retries"),
        "chunks_failed": count("runtime.chunks_failed"),
        "ipc_result_bytes": count("runtime.ipc_result_bytes"),
        "shm_bytes": count("runtime.shm_bytes"),
        "peak_rss_mb": peak_rss_mb(),
    }


def _best_of(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` (one discarded warm-up)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _scaling_section(serial_seconds: float, n_units: int, timings: dict,
                     unit: str) -> dict:
    """The speedup curve of one pool section: worker count -> timings.

    ``timings["1"]`` is the production (batched, where the section has a
    batch path) code at one worker *in-process* — no pool; higher counts
    add the pool. ``serial_seconds`` is the per-trial scalar oracle the
    speedups are measured against.
    """
    return {
        "unit": unit,
        "serial_seconds": serial_seconds,
        "workers": {
            str(w): {
                "seconds": s,
                f"{unit}_per_s": n_units / s,
                "speedup_vs_serial": serial_seconds / s,
            }
            for w, s in sorted(timings.items())
        },
    }


def _crossover(serial_seconds: float, timings: dict) -> int | None:
    """Smallest *pooled* worker count that beats the serial oracle."""
    return next(
        (w for w in sorted(timings) if w >= 2 and timings[w] < serial_seconds),
        None,
    )


def _meta(suite: str, smoke: bool, n_workers) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "smoke": smoke,
        "n_workers": resolve_workers(n_workers),
    }


# --------------------------------------------------------------------------- #
# PHY suite
# --------------------------------------------------------------------------- #

def _bench_coding(n_bits: int, repeats: int) -> tuple[dict, dict]:
    from repro.phy import coding

    rng = np.random.default_rng(0)
    message = rng.integers(0, 2, n_bits).astype(np.uint8)
    rate = coding.RATE_3_4
    coded = coding.conv_encode(message, rate)

    encode_s = _best_of(lambda: coding.conv_encode(message, rate), repeats)
    decode_s = _best_of(
        lambda: coding.viterbi_decode(coded, n_bits, rate, terminated=False),
        repeats,
    )
    reference_s = _best_of(
        lambda: coding.viterbi_decode_reference(coded, n_bits, rate, terminated=False),
        max(1, repeats // 2),
    )
    fast = coding.viterbi_decode(coded, n_bits, rate, terminated=False)
    reference = coding.viterbi_decode_reference(coded, n_bits, rate, terminated=False)

    encode = {
        "n_bits": n_bits,
        "rate": "3/4",
        "seconds_per_frame": encode_s,
        "mbit_per_s": n_bits / encode_s / 1e6,
    }
    viterbi = {
        "n_bits": n_bits,
        "rate": "3/4",
        "seconds_per_frame": decode_s,
        "mbit_per_s": n_bits / decode_s / 1e6,
        "reference_seconds_per_frame": reference_s,
        "speedup_vs_reference": reference_s / decode_s,
        "bit_exact_vs_reference": bool(np.array_equal(fast, reference)),
    }
    return encode, viterbi


def _bench_rx_chain(payload_bytes: int, repeats: int) -> dict:
    from repro.analysis.phy_experiments import (
        LinkConfig,
        _decode_standard_subframe,
        _make_frame,
    )
    from repro.core.symbol_crc import DEFAULT_CRC_CONFIG
    from repro.phy.mcs import mcs_by_name

    mcs_name = "QAM64-3/4"
    mcs = mcs_by_name(mcs_name)
    frame, _ = _make_frame(payload_bytes, mcs, DEFAULT_CRC_CONFIG, True, seed=0)
    received = LinkConfig(seed=0).channel("bench-rx").transmit(frame.symbols)
    seconds = _best_of(
        lambda: _decode_standard_subframe(
            received, mcs, DEFAULT_CRC_CONFIG, use_rte=False, rte_rule="average"
        ),
        repeats,
    )
    return {
        "mcs": mcs_name,
        "payload_bytes": payload_bytes,
        "seconds_per_frame": seconds,
        "frames_per_s": 1.0 / seconds,
    }


def _bench_monte_carlo(payload_bytes: int, trials: int, n_workers,
                       smoke: bool) -> dict:
    """Scalar serial oracle vs the batched chunk path across worker counts.

    The serial leg (``batched=False``) decodes one frame per call — the
    per-trial reference the bit-identity contract is stated against. The
    parallel legs run production code: chunks sized from measured IPC
    cost, each chunk decoded as one stacked vectorised call, frame tables
    shipped once per worker by shared memory. ``crossover_workers`` is
    the smallest pooled count that beats the oracle.
    """
    from repro.analysis.phy_experiments import LinkConfig, ber_by_symbol_index

    link = LinkConfig(seed=1)
    repeats = 1 if smoke else 2

    def leg(w, batched=None, chunk_size=None):
        # Best-of-N: pool scheduling jitter on small boxes easily swings
        # one measurement ±30%, which would poison the committed baseline.
        best, result = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = ber_by_symbol_index(
                "QAM64-3/4", payload_bytes, trials, link=link, n_workers=w,
                batched=batched, chunk_size=chunk_size,
            )
            best = min(best, time.perf_counter() - start)
        return best, result

    serial_s, serial = leg(1, batched=False)

    # Exercise the pool even on a single-core box: the point of the parallel
    # leg is to regression-check determinism through the process pool. The
    # persistent pool is warmed (spawn cost paid) by a tiny throwaway run so
    # the timed leg measures the amortised steady state a sweep sees.
    workers = max(2, resolve_workers(n_workers))
    candidates = [workers] if smoke else sorted({2, workers, 2 * workers})
    timings = {}
    parallel = None
    for w in candidates:
        ber_by_symbol_index("QAM64-3/4", payload_bytes, 2, link=link, n_workers=w)
        timings[w], result = leg(w, chunk_size="auto")
        if w == workers:
            parallel = result
    # The one-worker point of the curve: batched chunks, no pool.
    timings[1], batched_serial = leg(1)
    crossover = _crossover(serial_s, timings)

    identical = bool(
        np.array_equal(serial.ber_per_symbol, parallel.ber_per_symbol)
        and serial.crc_pass_rate == parallel.crc_pass_rate
        and serial.side_bit_error_rate == parallel.side_bit_error_rate
        and np.array_equal(serial.ber_per_symbol, batched_serial.ber_per_symbol)
    )
    return {
        "trials": trials,
        "payload_bytes": payload_bytes,
        "serial_seconds": serial_s,
        "serial_trials_per_s": trials / serial_s,
        "parallel_workers": workers,
        "parallel_seconds": timings[workers],
        "parallel_trials_per_s": trials / timings[workers],
        "pool_reused": True,
        "crossover_workers": crossover,
        "identical_serial_parallel": identical,
        "scaling": _scaling_section(serial_s, trials, timings, "trials"),
    }


def run_phy_bench(
    smoke: bool = False,
    n_workers: int | None = None,
    out_path: str | None = None,
) -> dict:
    """Run the full PHY timing suite; optionally write JSON to ``out_path``.

    ``smoke=True`` shrinks every workload (seconds instead of minutes) while
    exercising every code path, so CI can validate the schema cheaply.
    """
    from repro.phy import coding

    if smoke:
        coding_bits, repeats = 7998, 1
        rx_payload, mc_payload, mc_trials = 500, 300, 4
    else:
        # ~4 KB frame at rate 3/4 (nearest multiple of the puncture period).
        coding_bits, repeats = 32766, 5
        rx_payload, mc_payload, mc_trials = 4090, 1000, 48

    with collecting() as registry:
        encode, viterbi = _bench_coding(coding_bits, repeats)
        rx_chain = _bench_rx_chain(rx_payload, repeats)
        monte_carlo = _bench_monte_carlo(mc_payload, mc_trials, n_workers, smoke)
    meta = _meta("phy", smoke, n_workers)
    meta["c_kernel"] = coding._CKERNEL is not None
    payload = {
        "meta": meta,
        "encode": encode,
        "viterbi": viterbi,
        "rx_chain": rx_chain,
        "monte_carlo": monte_carlo,
        "observability": _observability_section(registry),
    }
    validate_bench(payload)
    _write(payload, out_path)
    return payload


# --------------------------------------------------------------------------- #
# MAC suite
# --------------------------------------------------------------------------- #

def _mac_sim(rng, stations, duration):
    """One VoIP MAC simulation seeded from the trial's RNG."""
    from repro.mac import PROTOCOLS
    from repro.mac.scenarios import VoipScenario

    scenario = VoipScenario(
        num_stations=stations, duration=duration,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    result = scenario.run(PROTOCOLS["Carpool"])
    return result.measured_ap_goodput_bps


def _mac_tile_trial(trial_index, rng, link, mcs, crc_config, probes,
                    stations, duration):
    """One sweep tile, scalar: ``probes`` PHY error probes + one MAC sim.

    This is the cost shape of a real sweep cell — calibration-style frame
    probes feeding a trace-driven MAC run. The probes read the frame
    tables from the run's shared payload and draw their channels from the
    tile's RNG in order, then the sim seeds itself from the same RNG, so
    the batched executor below consumes each RNG identically.
    """
    from repro.analysis.phy_experiments import _ber_symbol_trial

    crc_passes = side_errors = 0
    for _ in range(probes):
        _, passes, side = _ber_symbol_trial(
            trial_index, rng, link, mcs, crc_config, False, "average")
        crc_passes += passes
        side_errors += side
    return (crc_passes, side_errors, _mac_sim(rng, stations, duration))


def _mac_tile_batch(start, rngs, link, mcs, crc_config, probes,
                    stations, duration):
    """Batched executor for :func:`_mac_tile_trial` chunks.

    Probe round *r* of every tile in the chunk decodes as one stacked
    call; each RNG is consumed once per round and then once by its own
    sim — the same per-RNG draw order as the scalar tile, so results are
    bit-identical.
    """
    from repro.analysis.phy_experiments import _ber_symbol_batch

    crc_passes = [0] * len(rngs)
    side_errors = [0] * len(rngs)
    for _ in range(probes):
        outcomes = _ber_symbol_batch(
            start, rngs, link, mcs, crc_config, False, "average")
        for t, (_, passes, side) in enumerate(outcomes):
            crc_passes[t] += passes
            side_errors[t] += side
    return [
        (crc_passes[t], side_errors[t], _mac_sim(rngs[t], stations, duration))
        for t in range(len(rngs))
    ]


def _bench_sweep(receivers: tuple, payloads: tuple, trials: int,
                 duration: float, calibration_payload: int,
                 calibration_trials: int) -> dict:
    """The headline number: cached vs uncached calibration at equal seeds."""
    from repro.analysis.calibration import clear_calibration_cache
    from repro.mac.sweep import SweepConfig, goodput_airtime_sweep

    fast_config = SweepConfig(
        receiver_counts=receivers, payload_bytes=payloads, trials=trials,
        duration=duration, calibration_payload=calibration_payload,
        calibration_trials=calibration_trials, cache=True,
    )
    slow_config = replace(fast_config, cache=False)

    clear_calibration_cache()
    start = time.perf_counter()
    slow = goodput_airtime_sweep(slow_config, n_workers=1)
    slow_s = time.perf_counter() - start

    clear_calibration_cache()  # time the cached leg from a cold cache
    start = time.perf_counter()
    fast = goodput_airtime_sweep(fast_config, n_workers=1)
    fast_s = time.perf_counter() - start

    identical = all(
        a.per_trial_goodput == b.per_trial_goodput for a, b in zip(slow, fast)
    )
    return {
        "receivers": list(receivers),
        "payloads": list(payloads),
        "points": len(receivers) * len(payloads),
        "trials": trials,
        "uncached_seconds": slow_s,
        "cached_seconds": fast_s,
        "speedup": slow_s / fast_s,
        "identical_results": identical,
    }


def _bench_trials_pool(trials: int, stations: int, duration: float,
                       payload_bytes: int, probes: int, n_workers,
                       smoke: bool) -> dict:
    """Serial scalar vs batched pool ``run_trials`` on MAC sweep tiles.

    Each trial is one sweep *tile*: ``probes`` PHY frame probes plus the
    MAC simulation they feed (:func:`_mac_tile_trial`). The serial leg
    runs tiles one probe at a time — the per-trial oracle; the pooled
    legs batch every chunk's probes into stacked decodes with the frame
    tables shipped once per worker by shared memory.
    """
    from repro.analysis.phy_experiments import (
        LinkConfig,
        _frame_tables,
        _make_frame,
    )
    from repro.core.symbol_crc import DEFAULT_CRC_CONFIG
    from repro.phy.mcs import mcs_by_name

    seed = 314159
    link = LinkConfig(seed=271828)
    mcs = mcs_by_name("QAM64-3/4")
    frame, true_side_bits = _make_frame(
        payload_bytes, mcs, DEFAULT_CRC_CONFIG, True, link.seed)
    shared = _frame_tables(frame, true_side_bits)
    args = (link, mcs, DEFAULT_CRC_CONFIG, probes, stations, duration)
    repeats = 1 if smoke else 2

    def leg(w, batch_fn=None, chunk_size=None):
        best, result = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_trials(_mac_tile_trial, trials, seed=seed,
                                n_workers=w, chunk_size=chunk_size,
                                args=args, shared=shared, batch_fn=batch_fn)
            best = min(best, time.perf_counter() - start)
        return best, result

    serial_s, serial = leg(1)

    workers = max(2, resolve_workers(n_workers))
    candidates = [workers] if smoke else sorted({2, workers, 2 * workers})
    timings = {}
    parallel = None
    for w in candidates:
        # Warm the persistent pool (same payload content -> same pool) so
        # the timed run sees the steady state; one chunk per worker keeps
        # the stacked decodes as large as the tile count allows.
        chunk = max(1, -(-trials // w))
        run_trials(_mac_tile_trial, min(2, trials), seed=seed, n_workers=w,
                   args=args, shared=shared, batch_fn=_mac_tile_batch)
        timings[w], result = leg(w, batch_fn=_mac_tile_batch, chunk_size=chunk)
        if w == workers:
            parallel = result
    timings[1], batched_serial = leg(1, batch_fn=_mac_tile_batch)
    crossover = _crossover(serial_s, timings)

    return {
        "trials": trials,
        "stations": stations,
        "payload_bytes": payload_bytes,
        "probes_per_tile": probes,
        "serial_seconds": serial_s,
        "serial_trials_per_s": trials / serial_s,
        "parallel_workers": workers,
        "parallel_seconds": timings[workers],
        "parallel_trials_per_s": trials / timings[workers],
        "pool_reused": True,
        "crossover_workers": crossover,
        "identical_serial_parallel": serial == parallel == batched_serial,
        "scaling": _scaling_section(serial_s, trials, timings, "trials"),
    }


def run_mac_bench(
    smoke: bool = False,
    n_workers: int | None = None,
    out_path: str | None = None,
) -> dict:
    """Run the MAC/sweep timing suite; optionally write JSON to ``out_path``.

    The ``sweep`` section is the acceptance benchmark: the receivers ×
    payload goodput sweep, cached vs uncached at equal seeds (the
    uncached leg re-runs the PHY calibration per point, which is what
    real sweeps did before the cache existed).
    """
    with collecting() as registry:
        if smoke:
            sweep = _bench_sweep(
                receivers=(2, 4), payloads=(256, 1024), trials=1, duration=0.2,
                calibration_payload=500, calibration_trials=2,
            )
            pool = _bench_trials_pool(
                trials=4, stations=4, duration=0.2, payload_bytes=300,
                probes=2, n_workers=n_workers, smoke=True,
            )
        else:
            sweep = _bench_sweep(
                receivers=(2, 4, 6, 8), payloads=(256, 1024, 2048, 4095),
                trials=2, duration=0.4,
                calibration_payload=4090, calibration_trials=30,
            )
            pool = _bench_trials_pool(
                trials=8, stations=4, duration=0.3, payload_bytes=1000,
                probes=6, n_workers=n_workers, smoke=False,
            )

    payload = {
        "meta": _meta("mac", smoke, n_workers),
        "sweep": sweep,
        "trials_pool": pool,
        "observability": _observability_section(registry),
    }
    validate_bench(payload)
    _write(payload, out_path)
    return payload


# --------------------------------------------------------------------------- #
# NET suite
# --------------------------------------------------------------------------- #

def _bench_deployment(config, n_workers, smoke: bool) -> dict:
    """Serial vs pool-parallel cell fan-out on one deployment config."""
    from repro.net.deployment import simulate_deployment

    # Best-of-3 on full runs: each leg is only ~2 s of simulation on the
    # CI box, and the pooled leg flaps hardest under transient load.
    repeats = 1 if smoke else 3

    def leg(w):
        best, result = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = simulate_deployment(config, n_workers=w, use_cache=False)
            best = min(best, time.perf_counter() - start)
        return best, result

    serial_s, serial = leg(1)

    workers = max(2, resolve_workers(n_workers))
    candidates = [workers] if smoke else sorted({2, workers})
    timings = {}
    parallel = None
    for w in candidates:
        # Warm the persistent pool (and ship the shared spec payload) so
        # the timed leg measures the amortised steady state a sweep sees.
        simulate_deployment(config, n_workers=w, use_cache=False)
        timings[w], result = leg(w)
        if w == workers:
            parallel = result
    # Deployment cells have no batched path: the serial leg *is* the
    # production one-worker code, so it doubles as the curve's "1" point.
    timings[1] = serial_s
    crossover = _crossover(serial_s, timings)

    return {
        "aps": config.n_aps,
        "stas_per_ap": config.stas_per_ap,
        "duration": config.duration,
        "serial_seconds": serial_s,
        "serial_cells_per_s": config.n_aps / serial_s,
        "parallel_workers": workers,
        "parallel_seconds": timings[workers],
        "parallel_cells_per_s": config.n_aps / timings[workers],
        "pool_reused": True,
        "crossover_workers": crossover,
        "identical_serial_parallel": serial.to_dict() == parallel.to_dict(),
        "scaling": _scaling_section(serial_s, config.n_aps, timings, "cells"),
    }


def _bench_replay(config) -> dict:
    """Cold vs warm deployment-cache lookup on a private cache dir."""
    import tempfile

    from repro.net.deployment import simulate_deployment
    from repro.runtime.cache import ResultCache

    cache = ResultCache(
        directory=tempfile.mkdtemp(prefix="repro-bench-net-"),
        namespace="deployment",
    )
    start = time.perf_counter()
    cold = simulate_deployment(config, n_workers=1, cache=cache)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = simulate_deployment(config, n_workers=1, cache=cache)
    warm_s = time.perf_counter() - start
    return {
        "aps": config.n_aps,
        "stas_per_ap": config.stas_per_ap,
        "duration": config.duration,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "identical_cold_warm": cold.to_dict() == warm.to_dict(),
    }


def _bench_streaming(small, large, shards: int, n_workers, registry,
                     smoke: bool) -> dict:
    """Sharded (worker-side reduced) vs unsharded deployments: IPC bytes
    and parent peak RSS at identical results.

    Leg order is load-bearing. ``ru_maxrss`` is a monotone high-water
    mark, so the sharded legs run first, small before large: any RSS
    growth between the two measurements was caused by growing the
    deployment ~an order of magnitude under shards — the constant-memory
    claim, stated as a one-sided gate. The unsharded leg (which *does*
    materialise the spec list and every per-cell dict in the parent) runs
    last, purely to count its IPC traffic and to check bit-identity of
    the deployment-level numbers.

    Gates (thresholds relaxed under ``smoke``):

    * ``ipc_reduction_ok`` — reducing in workers must cut bytes shipped
      over the pipe by at least the threshold factor,
    * ``rss_flat_ok`` — parent peak RSS must stay flat as the AP count
      grows (the authoritative fresh-process ceiling check lives in
      ``benchmarks/check_memory_ceiling.py``; this in-suite gate catches
      gross leaks without a subprocess),
    * ``identical_sharded_unsharded`` — fixed result quality: every
      deployment-level field bit-identical between the paths.
    """
    from repro.net.deployment import simulate_deployment
    from repro.runtime.trials import shutdown_pools

    def ipc_bytes() -> int:
        instrument = registry.get("runtime.ipc_result_bytes")
        return int(instrument.value) if instrument is not None else 0

    workers = max(2, resolve_workers(n_workers))
    ipc_threshold = 2.0 if smoke else 5.0
    rss_threshold = 1.25 if smoke else 1.10

    # Fresh pools so the legs below pay (and amortise) the same costs.
    shutdown_pools()
    simulate_deployment(small, n_workers=workers, use_cache=False,
                        shards=shards)
    small_rss = peak_rss_mb()

    base = ipc_bytes()
    sharded = simulate_deployment(large, n_workers=workers, use_cache=False,
                                  shards=shards)
    sharded_bytes = ipc_bytes() - base
    large_rss = peak_rss_mb()

    base = ipc_bytes()
    unsharded = simulate_deployment(large, n_workers=workers, use_cache=False)
    unsharded_bytes = ipc_bytes() - base

    # Identity is over every deployment-level field; the per-cell list is
    # exactly what sharding trades away, so it is excluded by contract.
    sharded_dict = dict(sharded.to_dict(), cells=None)
    unsharded_dict = dict(unsharded.to_dict(), cells=None)
    reduction = (
        unsharded_bytes / sharded_bytes if sharded_bytes else float("inf")
    )
    growth = large_rss / small_rss if small_rss else float("inf")
    return {
        "small_aps": small.n_aps,
        "large_aps": large.n_aps,
        "stas_per_ap": large.stas_per_ap,
        "duration": large.duration,
        "shards": shards,
        "parallel_workers": workers,
        "unsharded_ipc_bytes": unsharded_bytes,
        "sharded_ipc_bytes": sharded_bytes,
        "ipc_reduction_factor": reduction,
        "ipc_reduction_threshold": ipc_threshold,
        "small_peak_rss_mb": small_rss,
        "large_peak_rss_mb": large_rss,
        "rss_growth_factor": growth,
        "rss_growth_threshold": rss_threshold,
        "ipc_reduction_ok": bool(reduction >= ipc_threshold),
        "rss_flat_ok": bool(growth <= rss_threshold),
        "identical_sharded_unsharded": sharded_dict == unsharded_dict,
    }


def run_net_bench(
    smoke: bool = False,
    n_workers: int | None = None,
    out_path: str | None = None,
) -> dict:
    """Run the deployment timing suite; optionally write JSON to ``out_path``.

    The ``deployment`` section times cell fan-out over the persistent
    pools serial vs parallel (gated on bit-identical aggregates); the
    ``replay`` section times a cold compute vs a warm
    :class:`~repro.runtime.cache.ResultCache` hit of the same config; the
    ``streaming`` section measures bytes shipped over IPC and parent peak
    RSS for sharded (worker-side reduced) vs unsharded runs of the same
    deployment, gated on bit-identical deployment-level results.
    """
    from repro.net.deployment import DeploymentConfig

    if smoke:
        config = DeploymentConfig(n_aps=4, stas_per_ap=2, duration=0.5,
                                  channels=1)
        stream_small = DeploymentConfig(n_aps=4, stas_per_ap=2, duration=0.3,
                                        channels=1)
        stream_large = replace(stream_small, n_aps=16)
        shards = 4
    else:
        config = DeploymentConfig(n_aps=9, stas_per_ap=6, duration=3.0,
                                  channels=1)
        stream_small = DeploymentConfig(n_aps=9, stas_per_ap=4, duration=0.5,
                                        channels=1)
        stream_large = replace(stream_small, n_aps=100)
        shards = 10

    with collecting() as registry:
        deployment = _bench_deployment(config, n_workers, smoke)
        replay = _bench_replay(config)
        streaming = _bench_streaming(stream_small, stream_large, shards,
                                     n_workers, registry, smoke)
    payload = {
        "meta": _meta("net", smoke, n_workers),
        "deployment": deployment,
        "replay": replay,
        "streaming": streaming,
        "observability": _observability_section(registry),
    }
    validate_bench(payload)
    _write(payload, out_path)
    return payload


# --------------------------------------------------------------------------- #
# SOAK suite
# --------------------------------------------------------------------------- #

def _bench_soak_sustained(workload, epochs: int, shards, n_workers,
                          smoke: bool) -> dict:
    """Sustained epoch throughput at a flat parent memory ceiling.

    One warm-up epoch first (pays imports, pool spawn, and the allocator
    high-water of a single epoch), then the RSS reading; the remaining
    epochs run through the resumable service exactly as production does,
    and the end-of-run reading must not have grown past the threshold —
    ``ru_maxrss`` is monotone, so any growth happened *during* the
    sustained leg. Frames are the aggregate's MAC transmissions: the
    actual simulated work, not the offered load.
    """
    import shutil
    import tempfile

    from repro.serve.service import SoakConfig, run_soak

    directory = tempfile.mkdtemp(prefix="repro-bench-soak-")
    try:
        warm = run_soak(SoakConfig(
            workload=workload, checkpoint_dir=directory, epochs=1,
            n_workers=n_workers, shards=shards,
        ))
        warm_rss = peak_rss_mb()
        start = time.perf_counter()
        done = run_soak(SoakConfig(
            workload=workload, checkpoint_dir=directory, epochs=epochs,
            n_workers=n_workers, shards=shards, resume=True,
        ))
        wall = time.perf_counter() - start
        end_rss = peak_rss_mb()
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    frames = done.cumulative_frames - warm.cumulative_frames
    growth = end_rss / warm_rss if warm_rss else float("inf")
    threshold = 1.5 if smoke else 1.25
    return {
        "epochs": epochs,
        "aps": workload.n_aps,
        "max_stas_per_ap": workload.max_stas_per_ap,
        "epoch_duration": workload.epoch_duration,
        "shards": shards,
        "cumulative_users": done.cumulative_users,
        "frames": frames,
        "wall_seconds": wall,
        "frames_per_s": frames / wall if wall else float("inf"),
        "warm_peak_rss_mb": warm_rss,
        "end_peak_rss_mb": end_rss,
        "rss_growth_factor": growth,
        "rss_growth_threshold": threshold,
        "rss_flat_ok": bool(growth <= threshold),
    }


def _bench_soak_telemetry(workload, epochs: int, shards, n_workers,
                          smoke: bool) -> dict:
    """Telemetry + SLO watchdog overhead on sustained epoch throughput.

    The end-to-end walls of interleaved plain/telemetry legs are
    reported for the record, but the *gate* uses a paired, same-run
    measurement: ``run_soak`` times its own telemetry machinery
    (``serve.observe``) against the epoch simulation (``serve.epoch``)
    with the same registry clock, so scheduler bursts — which dwarf the
    ~2% true signal when differencing two separate runs at these epoch
    lengths — hit numerator and denominator together and cancel.
    Profiling stays OFF — ``cProfile`` instruments every Python call
    and its cost on a pure-Python simulator is opt-in diagnostic spend,
    not part of the always-on telemetry budget this gate protects.
    """
    import shutil
    import tempfile

    from repro.obs.slo import read_health
    from repro.obs.telemetry import read_telemetry_records
    from repro.serve.service import SoakConfig, run_soak

    # Breach condition "goodput below 1 bps" never trips: the watchdog
    # runs every epoch but the health status stays ``ok``.
    slo = "goodput_bps<1"

    def leg(telemetry: bool) -> tuple:
        directory = tempfile.mkdtemp(prefix="repro-bench-soak-tel-")
        try:
            with collecting() as leg_registry:
                start = time.perf_counter()
                done = run_soak(SoakConfig(
                    workload=workload, checkpoint_dir=directory,
                    epochs=epochs, n_workers=n_workers, shards=shards,
                    telemetry=telemetry, slos=(slo,) if telemetry else (),
                ))
                wall = time.perf_counter() - start
            records = sum(1 for _ in read_telemetry_records(directory))
            health = read_health(directory)
            status = health["status"] if health else "n/a"
            timers = leg_registry.to_dict().get("timers", {})
            return wall, done.cumulative_frames, records, status, timers
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    # Discarded warm-up pays imports and pool spawn for both modes.
    leg(telemetry=False)
    plain_wall = tel_wall = float("inf")
    frames = records = 0
    status = "n/a"
    sim_seconds = observe_seconds = 0.0
    for _ in range(2 if smoke else 3):
        wall, frames, _, _, _ = leg(telemetry=False)
        plain_wall = min(plain_wall, wall)
        wall, frames, records, status, timers = leg(telemetry=True)
        tel_wall = min(tel_wall, wall)
        sim_seconds += timers.get("serve.epoch", {}).get("total", 0.0)
        observe_seconds += timers.get("serve.observe", {}).get("total", 0.0)

    plain_fps = frames / plain_wall if plain_wall else float("inf")
    tel_fps = frames / tel_wall if tel_wall else float("inf")
    overhead = (1.0 + observe_seconds / sim_seconds if sim_seconds
                else float("inf"))
    # The ISSUE's ≤5% budget on the full workload; smoke epochs are too
    # short for even the paired ratio to carry much signal, so that tier
    # only smoke-tests the machinery with a loose bound.
    threshold = 2.5 if smoke else 1.05
    return {
        "epochs": epochs,
        "slo": slo,
        "plain_wall_seconds": plain_wall,
        "telemetry_wall_seconds": tel_wall,
        "plain_frames_per_s": plain_fps,
        "telemetry_frames_per_s": tel_fps,
        "overhead_factor": overhead,
        "overhead_threshold": threshold,
        "overhead_ok": bool(overhead <= threshold),
        "telemetry_records": records,
        "health_status": status,
    }


def _bench_soak_resume(workload, epochs: int, resume_epoch: int,
                       shards, n_workers) -> dict:
    """Kill/resume identity: interrupted-and-resumed == uninterrupted.

    The straight leg runs ``epochs`` in one invocation; the resumed leg
    stops at ``resume_epoch`` and continues under a *different* worker
    and shard count — the strongest form of the contract: neither the
    interruption point nor the execution geometry may leak into the
    deterministic artifacts. Identity is a byte compare of ``state.json``
    and ``metrics.jsonl`` plus equality of the manifest ``config_hash``;
    with telemetry on in every leg, the deterministic telemetry view must
    be byte-identical too (``identical_telemetry``) while the wall-clock
    fields are free to differ.
    """
    import json
    import shutil
    import tempfile

    from repro.obs.telemetry import deterministic_view_bytes
    from repro.serve.service import SoakConfig, run_soak

    straight_dir = tempfile.mkdtemp(prefix="repro-bench-soak-a-")
    resumed_dir = tempfile.mkdtemp(prefix="repro-bench-soak-b-")
    try:
        run_soak(SoakConfig(
            workload=workload, checkpoint_dir=straight_dir, epochs=epochs,
            n_workers=1, shards=None, telemetry=True,
        ))
        run_soak(SoakConfig(
            workload=workload, checkpoint_dir=resumed_dir,
            epochs=resume_epoch, n_workers=1, shards=None, telemetry=True,
        ))
        run_soak(SoakConfig(
            workload=workload, checkpoint_dir=resumed_dir, epochs=epochs,
            n_workers=max(2, resolve_workers(n_workers)), shards=2,
            resume=True, telemetry=True,
        ))

        def artifact(directory, name):
            with open(f"{directory}/{name}", "rb") as handle:
                return handle.read()

        identical = (
            artifact(straight_dir, "state.json")
            == artifact(resumed_dir, "state.json")
            and artifact(straight_dir, "metrics.jsonl")
            == artifact(resumed_dir, "metrics.jsonl")
            and json.loads(artifact(straight_dir, "manifest.json"))["config_hash"]
            == json.loads(artifact(resumed_dir, "manifest.json"))["config_hash"]
        )
        straight_view = deterministic_view_bytes(straight_dir)
        identical_telemetry = bool(
            straight_view
            and straight_view == deterministic_view_bytes(resumed_dir)
        )
    finally:
        shutil.rmtree(straight_dir, ignore_errors=True)
        shutil.rmtree(resumed_dir, ignore_errors=True)
    return {
        "epochs": epochs,
        "resume_epoch": resume_epoch,
        "identical_resume": identical,
        "identical_telemetry": identical_telemetry,
    }


def run_soak_bench(
    smoke: bool = False,
    n_workers: int | None = None,
    out_path: str | None = None,
) -> dict:
    """Run the soak-service timing suite; optionally write JSON.

    The ``sustained`` section is the ISSUE's gate: frames simulated per
    wall-second across a ≥20-epoch run with parent peak RSS flat
    (≤ ×1.25 growth after warm-up); the ``telemetry`` section gates the
    always-on observability overhead (telemetry + one SLO watchdog ≤5%
    on the full workload); the ``resume`` section asserts the
    kill/resume identity contract — including the deterministic
    telemetry view — end to end through the public service.
    """
    from repro.serve.workload import SoakWorkload

    if smoke:
        workload = SoakWorkload(
            seed=11, n_aps=3, max_stas_per_ap=6, target_active_stas=2.5,
            epoch_duration=0.3, channels=1,
        )
        sustained_epochs, shards = 4, 3
        resume_epochs, resume_at = 2, 1
    else:
        workload = SoakWorkload(
            seed=11, n_aps=4, max_stas_per_ap=8, target_active_stas=3.0,
            epoch_duration=0.5, channels=1,
        )
        sustained_epochs, shards = 20, 4
        resume_epochs, resume_at = 6, 3

    with collecting() as registry:
        sustained = _bench_soak_sustained(
            workload, sustained_epochs, shards, n_workers, smoke)
        telemetry = _bench_soak_telemetry(
            workload, sustained_epochs, shards, n_workers, smoke)
        resume = _bench_soak_resume(
            workload, resume_epochs, resume_at, shards, n_workers)
    payload = {
        "meta": _meta("soak", smoke, n_workers),
        "sustained": sustained,
        "telemetry": telemetry,
        "resume": resume,
        "observability": _observability_section(registry),
    }
    validate_bench(payload)
    _write(payload, out_path)
    return payload


# --------------------------------------------------------------------------- #
# Schema validation and baseline comparison
# --------------------------------------------------------------------------- #

def _write(payload: dict, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


def validate_bench(payload: dict) -> dict:
    """Check a BENCH document against its suite's schema; raise on failure.

    Structural check (sections and keys) plus the suite's correctness
    gates — bit-exact decoding, serial/parallel determinism, cached/
    uncached sweep identity. Documents without ``meta.suite`` validate as
    the phy suite (the pre-``suite`` schema).
    """
    problems = []
    if not isinstance(payload, dict):
        raise ValueError(f"bench payload must be a dict, got {type(payload)!r}")
    meta = payload.get("meta")
    suite = meta.get("suite", "phy") if isinstance(meta, dict) else "phy"
    if suite not in _REQUIRED_KEYS:
        raise ValueError(f"unknown bench suite {suite!r}")
    for section, keys in _REQUIRED_KEYS[suite].items():
        body = payload.get(section)
        if not isinstance(body, dict):
            problems.append(f"missing section {section!r}")
            continue
        for key in keys:
            if key == "suite":
                continue  # optional: pre-suite documents validate as phy
            if key not in body:
                problems.append(f"missing key {section}.{key}")
    if not problems:
        if payload["meta"]["schema_version"] != SCHEMA_VERSION:
            problems.append(
                f"schema_version {payload['meta']['schema_version']!r} != {SCHEMA_VERSION}"
            )
        for section, key in _TRUE_GATES[suite]:
            if payload[section][key] is not True:
                problems.append(f"{section}.{key} is not True")
    if problems:
        raise ValueError(f"invalid BENCH_{suite}.json: " + "; ".join(problems))
    return payload


# Key substrings whose values are throughputs/ratios (higher is better).
_HIGHER_IS_BETTER = ("_per_s", "speedup", "frames_per_s", "mbit_per_s",
                     "reduction_factor")

# Result keys that are neither gated metrics nor workload descriptors.
# ``_bytes`` / ``_rss_mb`` / ``_factor`` cover the streaming section's
# measurements (lower is better, so not regression-gated numerically —
# the section's own ``*_ok`` booleans gate them instead).
_RESULT_MARKERS = _HIGHER_IS_BETTER + (
    "seconds", "crossover_workers", "scaling", "_bytes", "_rss_mb", "_factor",
    "_ok",
)


def _same_section_workload(current: dict, baseline: dict) -> bool:
    """True when two section bodies describe the same workload.

    Every key that is not a measurement result (throughput, seconds,
    crossover) is a workload descriptor — trial counts, payload sizes,
    grids, worker counts — and must match for timings to be comparable.
    A smoke run's 4-point sweep at tiny calibration legitimately shows a
    different speed-up than the full 16-point grid; comparing the two
    would flag phantom regressions.
    """
    for key, base_value in baseline.items():
        if any(marker in key for marker in _RESULT_MARKERS):
            continue
        if current.get(key) != base_value:
            return False
    return True


def compare_bench(current: dict, baseline: dict, threshold: float = 0.2) -> list:
    """Regression report: current run vs a committed baseline.

    Returns one message per throughput metric that dropped by more than
    ``threshold`` (fraction, default 20 %); empty list = no regression.
    A full (non-smoke) candidate whose ``crossover_workers`` went null
    while the baseline's is numeric is also a regression: the pool no
    longer beats serial at any worker count.
    Only sections whose workload descriptors (trial counts, grids,
    payload sizes, …) match the baseline are compared — a smoke run
    diffed against a full-run baseline gates nothing, by design; run the
    full suites (``make bench-compare``) for a meaningful diff.

    The correctness gates travel with :func:`validate_bench`; run it on
    both documents first if provenance is untrusted.
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    regressions = []
    for section, body in baseline.items():
        # The optional ``observability`` section carries run-dependent
        # counters (cache hits, pool reuse), not performance metrics:
        # never compared, and absent from older baselines by design.
        if section in ("meta", "observability") or not isinstance(body, dict):
            continue
        cur_body = current.get(section)
        if not isinstance(cur_body, dict):
            continue
        if not _same_section_workload(cur_body, body):
            continue
        # Losing the crossover entirely — a baseline where some pooled
        # worker count beat serial, a candidate where none does — is a
        # regression in kind, not degree: parallelism stopped winning.
        # Smoke runs are exempt (tiny workloads rarely amortise a pool).
        base_cross = body.get("crossover_workers")
        cur_meta = current.get("meta")
        cur_smoke = bool(cur_meta.get("smoke")) if isinstance(cur_meta, dict) else False
        if (
            isinstance(base_cross, int) and not isinstance(base_cross, bool)
            and "crossover_workers" in cur_body
            and cur_body["crossover_workers"] is None
            and not cur_smoke
        ):
            regressions.append(
                f"{section}.crossover_workers: null vs baseline {base_cross} "
                "(no pooled worker count beats serial any more)"
            )
        for key, base_value in body.items():
            if isinstance(base_value, bool) or not isinstance(base_value, (int, float)):
                continue
            if not any(marker in key for marker in _HIGHER_IS_BETTER):
                continue
            cur_value = cur_body.get(key)
            if not isinstance(cur_value, (int, float)) or isinstance(cur_value, bool):
                continue
            if cur_value < base_value * (1.0 - threshold):
                drop = 100.0 * (1.0 - cur_value / base_value)
                regressions.append(
                    f"{section}.{key}: {cur_value:.4g} vs baseline "
                    f"{base_value:.4g} (-{drop:.0f}%, threshold {threshold:.0%})"
                )
    return regressions
