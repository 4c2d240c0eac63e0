"""Self-test of the benchmark at n_elem=8.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc, lines


# krylov is not declared in BENCHMARK.json (see README.md) but still runs.
@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    return request.param, run_bench(request.param, 0), run_bench(request.param, 1)


def check_result(proc, lines, declared):
    assert proc.returncode == 0, proc.stderr
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[-2]["summary"]["problems"]
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    return result


def test_every_declared_metric_is_emitted_with_its_unit(runs):
    _, (proc0, lines0), (proc1, lines1) = runs
    check_result(proc0, lines0, SPEC["end_to_end"])
    check_result(proc1, lines1, SPEC["per_layer"])
    for metric in SPEC["end_to_end"]:
        assert lines0[-1]["metrics"][metric["name"]]["value"] != 0, metric["name"]


def test_traced_and_untraced_runs_agree_on_iterations(runs):
    _, (_, lines0), (_, lines1) = runs
    untraced = [r["op"] for r in lines0 if "op" in r and r["op"]["pass"] == 0]
    traced = [r["op"] for r in lines1 if "op" in r and r["op"]["pass"] == 1]
    assert [(r["label"], r["iters"]) for r in untraced] == [(r["label"], r["iters"]) for r in traced]
    assert all(r["iters"] is not None for r in untraced)


def test_header_describes_host_and_inputs(runs):
    _, (_, lines0), _ = runs
    header = lines0[0]["header"]
    for key in ("git_sha", "src_sha256", "nproc", "cpu_model", "python", "numpy", "scipy", "blas", "blas_threads", "seed"):
        assert key in header
    assert header["inputs"]


def test_silent_max_iters_counts_as_failure(runs):
    name, (_, lines0), _ = runs
    if name != "generate":
        pytest.skip("only generate has a failing case")
    ops = [r["op"] for r in lines0 if "op" in r and r["op"]["pass"] == 0]
    failed = [r for r in ops if r["failed"]]
    assert [(r["label"], r["error"]) for r in failed] == [("n8-p1-q1-it1", "silent_max_iters")]
    assert lines0[-1]["failed"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc, lines = run_bench("catalog", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not any("correct" in line for line in lines)
