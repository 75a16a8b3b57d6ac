"""End-to-end benchmark of the Carpool reproduction, with a layer-attributed traced run.

Run from the repository root::

    python3 perfbench/run.py --workload deploy-roaming --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with ``repro.obs`` off:
the workload's unit (one simulation per scheme, see ``workloads.py``) runs
in a closed loop for ``--seconds``, and the run reports the median unit's
wall time, CPU (this process plus its pool workers) and throughput, the
peak RSS of any process, and the median of three fresh-process set-ups.
``--trace 1`` instead runs a fixed amount of work three ways -- pooled
with the runtime probe, in-process untraced, in-process with every layer
wrapped (``layers.py``) and the ``repro.obs`` registry on -- and reports
the per-layer metrics; its counts repeat exactly at a fixed seed.

Every unit's outputs are checked: the paper's direction must hold, every
repetition must reproduce the first bit for bit, and for the seeds
recorded in ``reference.json`` every simulation's statistics digest must
match. A failed check counts as a failed operation. The last line of
standard output is the JSON result; the line before it records the run's
provenance and raw samples.

Each run uses a fresh, empty ``REPRO_CACHE_DIR`` under ``.perfbench_tmp/``
and removes it afterwards. ``--record`` writes a seed's digests into the
reference file instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

#: Fresh-process set-ups per measured run; setup_s is their median.
SETUP_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
    "tx_per_s": "1/s", "frames_per_s": "1/s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own smoke-test size")
    parser.add_argument("--reference", default=REFERENCE,
                        help="digest file to check against (or --record into)")
    parser.add_argument("--record", action="store_true",
                        help="record this seed's digests instead of measuring")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_sources() -> None:
    """Put this checkout's ``src`` first on the path, or stop."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


# --------------------------------------------------------------------------- #
# Output check
# --------------------------------------------------------------------------- #


def load_reference(path: str, key: str, seed: int):
    """{operation: digest} recorded for this workload/size and seed, or None."""
    try:
        with open(path, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table.get(key, {}).get(str(seed))


class OutputCheck:
    """Counts operations and the ones whose outputs fail the check."""

    def __init__(self, expected):
        self.expected = expected
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def unit(self, outcomes: list) -> None:
        from workloads import direction_holds

        digests = {o.name: o.digest for o in outcomes}
        if self.first is None:
            self.first = digests
        bad = set()
        if not direction_holds(outcomes):
            bad.update(digests)
            self.problems.append(
                "direction: " + ", ".join(f"{o.name}={o.score:.6g}" for o in outcomes))
        for name, digest in digests.items():
            if digest != self.first.get(name):
                bad.add(name)
                self.problems.append(f"{name}: differs from the run's first unit")
            if self.expected is not None and digest != self.expected.get(name):
                bad.add(name)
                self.problems.append(f"{name}: digest {digest[:12]} != reference")
        self.attempted += len(outcomes)
        self.failed += len(bad)

    def crashed(self, n_ops: int, exc: BaseException) -> None:
        self.attempted += n_ops
        self.failed += n_ops
        self.problems.append(f"raised {type(exc).__name__}: {exc}")


def checked_unit(workload, check: OutputCheck, n_workers: int):
    """Run one unit; returns its outcomes, or None if it raised."""
    try:
        outcomes = workload.run_unit(n_workers)
    except Exception as exc:  # a broken program is a failed operation
        traceback.print_exc()
        check.crashed(len(workload.schemes), exc)
        return None
    check.unit(outcomes)
    return outcomes


# --------------------------------------------------------------------------- #
# Measured run (--trace 0)
# --------------------------------------------------------------------------- #


def measure(workload, seconds: float, check: OutputCheck) -> list:
    """Closed loop of units for ``seconds``; one sample dict per good unit."""
    from host import cpu_now
    from workloads import POOL_WORKERS

    samples = []
    start = time.perf_counter()
    while True:
        cpu0 = cpu_now()
        t0 = time.perf_counter()
        outcomes = checked_unit(workload, check, POOL_WORKERS)
        wall = time.perf_counter() - t0
        cpu = cpu_now() - cpu0
        if outcomes is not None:
            samples.append({
                "wall_s": wall, "cpu_s": cpu,
                "accesses": sum(o.accesses for o in outcomes),
                "frames": sum(o.frames for o in outcomes),
            })
        if time.perf_counter() - start >= seconds:
            return samples


def setup_times(args, n: int) -> list:
    """Process start to first workload call, in ``n`` fresh processes."""
    out = []
    for _ in range(n):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--size", args.size,
             "--setup-probe"],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        out.append(ready - start)
    return out


def end_to_end(samples: list, setups: list, peak_mb: float) -> dict:
    median = statistics.median
    return {
        "setup_s": median(setups),
        "wall_s": median(s["wall_s"] for s in samples),
        "cpu_s": median(s["cpu_s"] for s in samples),
        "peak_rss_mb": peak_mb,
        "tx_per_s": median(s["accesses"] / s["wall_s"] for s in samples),
        "frames_per_s": median(s["frames"] / s["wall_s"] for s in samples),
    }


# --------------------------------------------------------------------------- #
# Traced run (--trace 1)
# --------------------------------------------------------------------------- #


def runtime_metrics(workload, check: OutputCheck) -> dict:
    """Pool start-up and one pooled unit under the runtime probe."""
    from host import reap_children
    from layers import LayerTracer, probe_run_trials
    from repro.obs import collecting
    from repro.runtime.trials import shutdown_pools
    from workloads import POOL_WORKERS

    if not workload.pooled:
        return {}
    shutdown_pools()
    reap_children()
    tracer = LayerTracer()
    with collecting() as registry:
        start = time.perf_counter()
        workload.warm()
        spawn = time.perf_counter() - start
        with tracer.installed(hook_table=()):
            totals = probe_run_trials(tracer)
            checked_unit(workload, check, POOL_WORKERS)

    def counter(name):
        instrument = registry.get(name)
        return instrument.value if instrument is not None else 0

    return {
        "runtime.run_trials_s": totals["wall"],
        "runtime.parent_wait_s": max(0.0, totals["wall"] - totals["parent_cpu"]),
        "runtime.worker_cpu_s": totals["worker_cpu"],
        "runtime.pool_spawn_s": spawn,
        "runtime.ipc_result_bytes": counter("runtime.ipc_result_bytes"),
        "runtime.shm_payloads": counter("runtime.shm_payloads"),
    }


def traced(workload, check: OutputCheck):
    """Per-layer metrics; pooled work runs in-process so workers' calls are seen.

    A layer the workload never enters reads 0.
    """
    from layers import PER_LAYER_UNITS, LayerTracer, layer_metrics
    from repro.obs import collecting

    metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    metrics.update(runtime_metrics(workload, check))
    checked_unit(workload, check, 1)  # warm the in-process path first
    start = time.perf_counter()
    checked_unit(workload, check, 1)
    untraced_wall = time.perf_counter() - start

    tracer = LayerTracer()
    with collecting(), tracer.installed():
        start = time.perf_counter()
        outcomes = checked_unit(workload, check, 1)
        traced_wall = time.perf_counter() - start
    if outcomes is None:
        return None, tracer
    metrics.update(layer_metrics(tracer, sum(o.accesses for o in outcomes)))
    metrics.update(workload.layer_totals(outcomes))
    metrics["obs.trace_overhead"] = traced_wall / untraced_wall
    metrics["obs.traced_wall_s"] = traced_wall
    metrics["obs.untraced_wall_s"] = untraced_wall
    return metrics, tracer


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


def fresh_environment() -> str:
    """A private, empty cache directory for this process; returns its path."""
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    os.environ["XDG_CACHE_HOME"] = os.path.join(workdir, "xdg")
    return workdir


def run(args) -> int:
    load_start = os.getloadavg()
    from host import peak_rss_mb, provenance, reap_children
    from layers import PER_LAYER_UNITS
    from repro.runtime.trials import shutdown_pools
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size)
    key = f"{args.workload}/{args.size}"
    check = OutputCheck(load_reference(args.reference, key, args.seed))
    extra: dict = {}
    try:
        workload.warm()
        if args.setup_probe:
            print(json.dumps({"ready": time.monotonic()}), flush=True)
            return 0
        if args.record:
            return record(args, workload, key)
        if args.trace:
            metrics, tracer = traced(workload, check)
            extra["unhooked"] = tracer.missing
        else:
            samples = measure(workload, args.seconds, check)
    finally:
        shutdown_pools()
        reap_children()  # so their CPU and peak RSS are counted
    if not args.trace:
        metrics = None
        if samples:
            peak = peak_rss_mb()
            setups = setup_times(args, SETUP_PROBES)
            metrics = end_to_end(samples, setups, peak)
            extra.update(samples=samples, setup_samples=setups)
    if metrics is None:  # no unit completed: there is nothing to report
        print(json.dumps({"problems": check.problems}), file=sys.stderr)
        return 1
    print(json.dumps({"perfbench": {
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, ROOT, load_start),
        "reference_checked": check.expected is not None,
        "problems": check.problems[:20],
        **extra,
    }}))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def record(args, workload, key: str) -> int:
    """Merge this seed's per-operation digests into the reference file."""
    from workloads import POOL_WORKERS, direction_holds

    outcomes = workload.run_unit(POOL_WORKERS)
    if not direction_holds(outcomes):
        sys.exit(f"perfbench: seed {args.seed}: the paper's direction fails")
    try:
        with open(args.reference, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        table = {}
    table.setdefault(key, {})[str(args.seed)] = {o.name: o.digest for o in outcomes}
    table[key] = dict(sorted(table[key].items(), key=lambda kv: int(kv[0])))
    with open(args.reference, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_sources()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workdir = fresh_environment()
    try:
        return run(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
