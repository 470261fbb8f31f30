"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Every metric that BENCHMARK.json names must be emitted, with its unit, by
every workload: end-to-end metrics with --trace 0, per-layer ones with
--trace 1.
"""

import contextlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = run_bench(ROOT, workload, trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = result["metrics"]
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        assert metric["name"] in got, metric["name"]
        assert got[metric["name"]]["unit"] == metric["unit"], metric["name"]
        assert isinstance(got[metric["name"]]["value"], (int, float))


def test_fails_without_the_program_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        res = run_bench(bare, "algebra_cli", 0)
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert res.returncode != 0
    assert res.stdout == ""


def test_a_deleted_public_name_reads_as_zero_calls():
    pkg = "fakespecsub"
    mod = types.ModuleType(f"{pkg}.eigensolve")
    mod.lowest_eigenvalue = lambda matrix, grid_n=None: types.SimpleNamespace(residual=1e-12)
    sys.modules[pkg] = types.ModuleType(pkg)
    sys.modules[mod.__name__] = mod
    tracer = spans.Tracer()
    try:
        tracer.install(package=pkg)
        mod.lowest_eigenvalue(None, grid_n=256)
    finally:
        tracer.uninstall()
        del sys.modules[pkg], sys.modules[mod.__name__]
    assert "eigensolve.symmetrized" in tracer.missing
    metrics = spans.layer_metrics(tracer.spans, max_dim=41)
    assert metrics["eigensolve.symmetrized.s"] == (0, "s")
    assert metrics["eigensolve.lowest_eigenvalue.calls.n256"] == (1, "count")
    assert metrics["eigensolve.residual_max"] == (1e-12, "norm")
