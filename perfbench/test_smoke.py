"""Smoke test of the benchmark at tiny sizes, one or two units per workload.

    python3 -m pytest perfbench/test_smoke.py -q

It holds the benchmark to its own contract: every metric named in
``BENCHMARK.json`` is emitted with its unit, the correctness gate passes, and
every wrapper of the traced run finds its target and is reached by the
workloads that should reach it.  A refactor that renames, removes or stops
calling a traced function fails here instead of silently dropping a layer.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
    ]  # fmt: skip
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def _outputs(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = _outputs(workload, 0)
    _check_result(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = report["environment"]
    for key in ("python", "numpy", "scipy", "openblas_numpy", "nproc", "MATFDP_THREADS",
                "OPENBLAS_NUM_THREADS", "blas_threads", "git_commit", "seed"):  # fmt: skip
        assert key in env
    assert env["seed"] == 3 and env["workload"] == workload
    assert report["abs_err_pct"] and not report["problems"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_every_wrapper_fires(workload):
    report, result = _outputs(workload, 1)
    _check_result(result, BENCH["per_layer"])
    calls = report["binding_calls"]
    missing = [b for b in tracing.EXPECTED_BINDINGS[workload] if not calls.get(b)]
    assert not missing, f"wrappers never reached on {workload}: {missing}"
    assert result["metrics"]["trace.coverage_share"]["value"] > 0


def test_declared_metrics_match_the_code():
    import run

    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracing.LAYER_METRICS
    assert sorted(WORKLOADS) == sorted(run.THREADS) == sorted(tracing.EXPECTED_BINDINGS)


def test_missing_target_raises_and_restores(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import matfdp.simlab as simlab

    original = simlab.test_matrix
    monkeypatch.delattr(simlab, "fdp_pfa")
    with pytest.raises(LookupError, match="matfdp.simlab.fdp_pfa"):
        with tracing.installed(tracing.Tracer()):
            pass
    assert simlab.test_matrix is original


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sim-ls", 0, cwd=str(tmp_path))
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
