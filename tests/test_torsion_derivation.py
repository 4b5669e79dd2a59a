"""The torsion operator as a derivation: the six identities that decompose
the torsionful operators and their squares through the standard ones and
the torsion operator, on every grade.

The checks apply them to the ``vector`` field.  The torsion operator is the
commutator with the torsion biforms, which acts on every grade, so the same
right sides hold on bivector, even and general fields wherever the torsion
is totally antisymmetric, co-closed or not, and fail where it is not."""

from pathlib import Path

import pytest

from conftest import load_bundled
from rcdirac import fieldspec, harness
from rcdirac.harness import BatchContext, build_run_fields, point_residuals, sample_points

ROOT = Path(__file__).parent.parent
SKEW_NOT_COCLOSED = ROOT / "tests" / "data" / "skew_not_coclosed.scn"
GENERIC_TORSION = ROOT / "perfbench" / "data" / "generic_torsion.scn"

# check -> its body, which takes the batch and one field
SKEW_TORSION_CHECKS = {
    "cov-deriv-torsion": harness._c_cov_deriv_torsion,
    "dirac-torsion": harness._c_dirac_torsion,
    "pair-expansion": harness._c_pair_expansion,
    "square-torsion-relation": harness._c_square_torsion_relation,
    "spin-standard-square": harness._c_spin_standard_square,
    "s2-levi-civita": harness._c_s2_levi_civita,
}


def _scenario(name):
    path = {"skew_not_coclosed": SKEW_NOT_COCLOSED, "generic_torsion": GENERIC_TORSION}.get(name)
    return load_bundled(name) if path is None else fieldspec.load_scenario_file(path)


def _residuals(name):
    """The worst residual of each of the six checks on each non-vector
    field, at 6 points of seed 4."""
    scenario = _scenario(name)
    pts = sample_points(scenario, points=6, seed=4)
    ctx = BatchContext(scenario, build_run_fields(scenario, 4, pts), pts)
    return {
        (check, kind): float(point_residuals(body(ctx, ctx.field(kind))).max())
        for check, body in SKEW_TORSION_CHECKS.items()
        for kind in ("bivector", "even", "general")
    }


def test_the_six_checks_read_the_torsion_operator():
    assert set(SKEW_TORSION_CHECKS) == {
        name for name, check in harness.CHECKS.items() if check.note == harness._TOT_ANTISYM_NOTE
    }
    for name, body in SKEW_TORSION_CHECKS.items():
        assert harness.CHECKS[name].fields == ("vector",)
        assert body.__name__ == "_c_" + name.replace("-", "_")


@pytest.mark.parametrize("name", ("curved_torsion", "flat_torsion", "skew_not_coclosed"))
def test_skew_torsion_identities_hold_on_every_grade(name):
    residuals = _residuals(name)
    assert max(residuals.values()) <= 1e-13, residuals


def test_skew_torsion_identities_fail_on_generic_torsion():
    # the negative control: torsion with a trace, not totally antisymmetric
    residuals = _residuals("generic_torsion")
    assert min(residuals.values()) > 1e-2, residuals


def test_skew_not_coclosed_report():
    # the four-term Lichnerowicz identity and the symmetric torsionful Ricci
    # tensor need co-closed torsion; every other check holds
    report = harness.run_suite(_scenario("skew_not_coclosed"), points=10)
    failing = {c.name: c.max for c in report.checks if not c.passed}
    assert set(failing) == {"ricci-antisymmetry", "lichnerowicz"}
    assert failing["ricci-antisymmetry"] == pytest.approx(0.510, abs=5e-4)
    assert failing["lichnerowicz"] == pytest.approx(0.158, abs=5e-4)
    assert len(report.checks) == len(harness.CHECKS)
    assert not any(c.errors for c in report.checks)
    assert harness.cli_main(["run", str(SKEW_NOT_COCLOSED), "--points", "10"]) == 1
