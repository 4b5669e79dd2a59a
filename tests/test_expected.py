"""Reports pinned in ``tests/expected/``: each case's report, exit code and
error lines match the corpus that ``scripts/expected.py --write`` wrote.

Residuals compare byte for byte where numpy's version and the machine are
the recorded ones, and within a rounding bound elsewhere; no case skips.

Beside the corpus, the report-identity rows: a case's report is the same
bytes in a fresh interpreter at another hash seed or BLAS thread count, and
from forked shards, as in this process; and the seed sweep passes.
"""

import copy
import functools
import importlib.util
import json
import runpy
import sys
from pathlib import Path

import pytest

from conftest import BUNDLED, fresh_python, shard_children
from rcdirac import harness

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "expected.py"
_spec = importlib.util.spec_from_file_location("expected_reports", _SCRIPT)
expected = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(expected)

# each run made once in this process: the corpus case's report is the one
# the other rows compare with
run_json = functools.cache(expected.run_json)


def test_the_corpus_holds_every_case_and_nothing_else():
    assert sorted(p.stem for p in expected.EXPECTED_DIR.glob("*.json")) == sorted(expected.CASES)


def test_every_bundled_scenario_is_pinned_at_10_and_33_points():
    pinned = {f"{name}-p{points}": (name, points) for name in BUNDLED for points in (10, 33)}
    assert BUNDLED
    assert {case: expected.CASES.get(case) for case in pinned} == pinned


@pytest.mark.parametrize("name", sorted(expected.CASES))
def test_report_matches_the_corpus(name):
    assert expected.differences(expected.load(name), expected.record(name, *run_json(name))) == []


def _perturbed(record, key, value, check=0):
    out = copy.deepcopy(record)
    out["report"]["checks"][check][key] = value
    return out


def test_the_comparison_sees_a_moved_digit_a_verdict_and_an_exact_zero():
    recorded = expected.load("curved_torsion-p10")
    elsewhere = dict(recorded, numpy="0.0", machine="elsewhere")
    nonzero = next(k for k, c in enumerate(recorded["report"]["checks"]) if c["max"])
    zero = next(k for k, c in enumerate(recorded["report"]["checks"]) if c["max"] == 0.0)
    top = recorded["report"]["checks"][nonzero]["max"]

    # one ulp is a difference on the recording numpy and machine only
    ulp = _perturbed(recorded, "max", top * (1 + 2**-52), nonzero)
    assert expected.differences(recorded, ulp)
    assert expected.differences(elsewhere, ulp) == []
    # past the rounding bound, anywhere
    assert expected.differences(elsewhere, _perturbed(recorded, "max", top + 1e-11, nonzero))
    # an exact zero stays exact, a verdict and the exit code compare exactly
    assert expected.differences(elsewhere, _perturbed(recorded, "max", 1e-300, zero))
    assert expected.differences(elsewhere, _perturbed(recorded, "pass", False))
    assert expected.differences(elsewhere, dict(recorded, exit=1))
    errors = [{"point": [0.5, 0.5, 0.5, 0.5], "message": "JetDomainError: x"}]
    assert expected.differences(elsewhere, _perturbed(recorded, "errors", errors))


# prints {case: [exit code, JSON report text]} of the cases named after the
# path of scripts/expected.py
PRINT_REPORTS = (
    "import json, runpy, sys; run_json = runpy.run_path(sys.argv[1])['run_json'];"
    " print(json.dumps({name: run_json(name) for name in sys.argv[2:]}))"
)


@pytest.mark.parametrize("env", [
    {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": None},
    {"PYTHONHASHSEED": "1", "OPENBLAS_NUM_THREADS": None},
    {"OPENBLAS_NUM_THREADS": "4"},
], ids=["PYTHONHASHSEED=0", "PYTHONHASHSEED=1", "OPENBLAS_NUM_THREADS=4"])
def test_a_fresh_interpreter_gives_the_same_reports(env):
    cases = [f"{name}-p10" for name in BUNDLED]
    proc = fresh_python("-W", "error", "-c", PRINT_REPORTS, str(_SCRIPT), *cases, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {case: list(run_json(case)) for case in cases}


def test_forked_shards_of_two_batches_give_the_one_worker_report(forks):
    # 100 points on 3 workers: shards of 34, 33 and 33 points, each run as
    # two batches
    assert harness.BATCH_POINTS < 33 <= 2 * harness.BATCH_POINTS
    one = run_json("curved_torsion-p100")
    forks.clear()
    assert expected.run_json("curved_torsion-p100", "--workers", "3") == one
    assert len(forks) == shard_children(3)


def test_seed_sweep_passes_on_every_seed(monkeypatch, capsys):
    sweep = runpy.run_path(str(expected.ROOT / "scripts" / "seed_sweep.py"))
    monkeypatch.setattr(sys, "argv", ["seed_sweep.py", "curved_torsion", "--seeds", "8", "--points", "6"])
    assert sweep["main"]() == 0, capsys.readouterr().out
