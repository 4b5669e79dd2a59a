"""Smoke test of the benchmark itself, at its smallest size (one point).

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import run

CONTRACT = run.load_contract()


def _check(name, **kw):
    return {"name": name, "pass": True, "max": 1e-15, "mean": 1e-16, "errors": 0, **kw}


def test_gate_distrusts_the_report():
    expected = ["a", "b", "c", "d"]
    checks = [
        _check("a"),
        _check("b", mean=math.nan),  # a NaN the report's max hides
        _check("c", errors=1),
        _check("d", **{"pass": False}),
    ]
    assert sorted(run.gate(checks, expected)) == ["b", "c", "d"]
    assert "<selection>" in run.gate(checks[:3], expected)
    assert run.gate([_check(n) for n in expected], expected) == {}


def test_gate_trips_on_negative_control():
    ok, detail = run.negative_control(time.monotonic() + run.BUDGET_S)
    assert ok, detail


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_end_to_end_metrics(workload):
    record = run.run_benchmark(workload, seed=None, seconds=0, traced=False, points=1)
    result = record["result"]
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    for m in CONTRACT["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_per_layer_metrics(workload):
    # correct also requires identical counts across the two traced runs
    record = run.run_benchmark(workload, seed=None, seconds=0, traced=True, points=1)
    result = record["result"]
    assert result["correct"], record["problems"]
    for m in CONTRACT["per_layer"]:
        if m["name"] in result["metrics"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        else:
            assert record["missing"][m["name"]], m["name"]


def test_refuses_without_the_program():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "suite_curved",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
