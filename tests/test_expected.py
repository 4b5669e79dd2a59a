"""Reports pinned in ``tests/expected/``: each case's report, exit code and
error lines match the corpus that ``scripts/expected.py --write`` wrote.

Residuals compare byte for byte where numpy's version and the machine are
the recorded ones, and within a rounding bound elsewhere; no case skips.
"""

import copy
import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "expected.py"
_spec = importlib.util.spec_from_file_location("expected_reports", _SCRIPT)
expected = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(expected)


def test_the_corpus_holds_every_case_and_nothing_else():
    assert sorted(p.stem for p in expected.EXPECTED_DIR.glob("*.json")) == sorted(expected.CASES)


@pytest.mark.parametrize("name", sorted(expected.CASES))
def test_report_matches_the_corpus(name):
    assert expected.differences(expected.load(name), expected.run_case(name)) == []


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
