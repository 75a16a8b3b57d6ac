"""The benchmark's own tests: smoke runs, the output check, and wrapper hygiene.

Run from the repository root with ``python -m pytest perfbench``.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("voip-dense", "deploy-roaming", "phy-ber")


def bench(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny(workload, *extra, seed=3, trace=0):
    return result_of(bench("--workload", workload, "--seed", str(seed),
                           "--seconds", "0.1", "--trace", str(trace),
                           "--size", "tiny", *extra))


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_reports_every_end_to_end_metric(workload):
    result = tiny(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_counts_repeat_exactly(workload):
    first, second = (tiny(workload, trace=1) for _ in range(2))
    assert first["correct"] and second["correct"]
    declared = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    counts = [name for name, unit in declared.items() if unit == "count"]
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})
    assert first["metrics"]["obs.trace_overhead"]["value"] > 0


def test_output_check_fails_on_a_perturbed_digest(tmp_path):
    reference = tmp_path / "reference.json"
    assert bench("--workload", "phy-ber", "--seed", "5", "--size", "tiny",
                 "--record", "--reference", str(reference)).returncode == 0
    assert tiny("phy-ber", "--reference", str(reference), seed=5)["correct"]

    table = json.loads(reference.read_text())
    digests = table["phy-ber/tiny"]["5"]
    digests["RTE"] = digests["RTE"][:-1] + ("0" if digests["RTE"][-1] != "0" else "1")
    reference.write_text(json.dumps(table))
    result = tiny("phy-ber", "--reference", str(reference), seed=5)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_references_cover_every_workload_and_operation():
    from workloads import WORKLOADS as defined

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        table = json.load(handle)
    for name, workload in defined.items():
        seeds = table[f"{name}/full"]
        assert len(seeds) >= 10
        assert all(set(d) == set(workload.schemes) for d in seeds.values())


def test_wrappers_are_removed_and_never_leak():
    from layers import LayerTracer, is_traced, layer_hooks
    from workloads import VoipDense

    def bound():
        return {(id(owner), name): vars(owner)[name]
                for owner, name, *_ in layer_hooks()}

    before = bound()
    workload = VoipDense(1, "tiny")
    tracer = LayerTracer()
    with tracer.installed():
        assert all(is_traced(value) for value in bound().values())
        workload.run_unit()
    assert tracer.calls("mac.run") == 3 and not tracer.missing
    assert bound() == before
    leaked = [
        f"{module.__name__}.{attr}"
        for module in list(sys.modules.values())
        for attr, value in list(getattr(module, "__dict__", {}).items())
        if is_traced(value)
    ]
    assert leaked == []
    workload.run_unit()  # untraced: the tracer sees nothing more
    assert tracer.calls("mac.run") == 3


def test_every_run_gets_a_fresh_empty_cache(monkeypatch):
    import run

    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    monkeypatch.setenv("XDG_CACHE_HOME", "")
    dirs = [run.fresh_environment() for _ in range(2)]
    try:
        assert dirs[0] != dirs[1]
        assert os.environ["REPRO_CACHE_DIR"].startswith(dirs[1])
        assert not os.path.exists(os.environ["REPRO_CACHE_DIR"])
    finally:
        for path in dirs:
            shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.SCRATCH)


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = bench("--workload", "voip-dense", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
