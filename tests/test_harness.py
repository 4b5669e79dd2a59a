import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import GENERAL_TORSION_TEXT, load_bundled
import rcdirac
from rcdirac import fieldspec as fs
from rcdirac import harness
from rcdirac.harness import (
    CHECKS,
    UniformStream,
    UsageError,
    build_run_fields,
    cli_main,
    run_suite,
    sample_points,
    select_checks,
)
IDENTITY = "[tetrad]\ne0_0 = 1\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n"


def test_sampling_determinism_golden():
    # fixed expectations for box [0,1]^4, seed 42 (golden values)
    sc = fs.load_scenario(IDENTITY)
    pts = sample_points(sc, points=10, seed=42)
    assert pts[0].x == (
        0.9244014809985147,
        0.5730090486046107,
        0.05609279594410917,
        0.5442569841452533,
    )
    assert pts[1].x == (
        0.6994014809985147,
        0.8730090486046107,
        0.23609279594410915,
        0.6728284127166818,
    )
    assert pts == sample_points(sc, points=10, seed=42)
    assert pts != sample_points(sc, points=10, seed=43)
    # quasi-uniform: prefixes agree across counts for a fixed seed
    assert sample_points(sc, points=4, seed=42) == pts[:4]


def test_sampling_margin():
    sc = fs.load_scenario("[chart]\nx1_min = -2\nx1_max = 2\n" + IDENTITY)
    pts = sample_points(sc, points=200, seed=0)
    for p in pts:
        assert 0.05 <= p.x[0] <= 0.95
        assert -1.8 <= p.x[1] <= 1.8


def test_sampling_errors():
    sc = fs.load_scenario(IDENTITY)
    with pytest.raises(ValueError):
        sample_points(sc, points=0, seed=0)
    bad = fs.load_scenario("[chart]\nx0_min = 1\nx0_max = 1\n" + IDENTITY)
    with pytest.raises(ValueError):
        sample_points(bad, points=3, seed=0)


@pytest.mark.parametrize(
    "entropy", [[0, 0], [4, 0x5A11], [4, 0xF1E1D], [2**40 + 5, 7], [2**70, 0xF1E1D]]
)
def test_uniform_stream_is_numpys_stream(entropy):
    ours = UniformStream(entropy)
    theirs = np.random.default_rng(entropy)
    for lo, hi, n in ((0.0, 1.0, 4), (-1.0, 1.0, 35), (-1.0, 1.0, 35), (-1.0, 1.0, 1), (0.0, 1.0, 100)):
        got = np.array(ours.uniform(lo, hi, n))
        assert got.view(np.uint64).tolist() == theirs.uniform(lo, hi, n).view(np.uint64).tolist()


def test_negative_seed_is_a_scenario_error(tmp_path, capsys):
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        UniformStream([-1, 0x5A11])
    path = tmp_path / "negative.scn"
    path.write_text(IDENTITY + "[sampling]\nseed = -1\n")
    for argv in (["run", "minkowski", "--seed", "-1"], ["run", str(path)]):
        assert cli_main(argv + ["--points", "1"]) == 3
        assert capsys.readouterr().err == "scenario error: expected non-negative integer\n"


def test_run_does_not_import_numpy_random():
    code = (
        "import sys, rcdirac\n"
        "sc = rcdirac.load_scenario_file(rcdirac.harness.resolve_scenario_path('curved_torsion'))\n"
        "rcdirac.run_suite(sc, points=1, only=['dirac-split', 'lichnerowicz'])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(rcdirac.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"


def test_field_generation_normalized_and_seeded():
    sc = fs.load_scenario(IDENTITY)
    pts = sample_points(sc, points=6, seed=3)
    fields = build_run_fields(sc, 3, pts)
    assert set(fields) == set(harness.FIELD_KINDS)
    sup = max(fields["general"].at(p).max_abs() for p in pts)
    assert sup == pytest.approx(1.0, rel=1e-12)
    again = build_run_fields(sc, 3, pts)
    p = pts[0]
    assert np.allclose(fields["even"].at(p).values(), again["even"].at(p).values())
    other = build_run_fields(sc, 4, pts)
    assert not np.allclose(fields["even"].at(p).values(), other["even"].at(p).values())


def test_field_grade_content():
    sc = fs.load_scenario(IDENTITY)
    pts = sample_points(sc, points=3, seed=5)
    fields = build_run_fields(sc, 5, pts)
    from rcdirac.cliffalg import GRADES

    vals = fields["vector"].at(pts[0]).values()
    for i, v in enumerate(vals):
        assert (v == 0.0) or GRADES[i] == 1
    vals = fields["even"].at(pts[0]).values()
    for i, v in enumerate(vals):
        assert (v == 0.0) or GRADES[i] % 2 == 0


def test_scenario_field_override():
    sc = fs.load_scenario(IDENTITY + '[fields]\nf.scalar = "x0"\n')
    pts = sample_points(sc, points=4, seed=1)
    fields = build_run_fields(sc, 1, pts)
    assert fields["scalar"].exprs is not None
    sup = max(abs(fields["scalar"].at(p).coeffs[0].value) for p in pts)
    assert sup == pytest.approx(1.0, rel=1e-12)
    # pinning one field must not reshuffle the generated ones
    plain = build_run_fields(fs.load_scenario(IDENTITY), 1, pts)
    assert np.allclose(
        fields["general"].at(pts[0]).values(), plain["general"].at(pts[0]).values()
    )


def test_scenario_field_override_wrong_grade_rejected():
    sc = fs.load_scenario(IDENTITY + '[fields]\nA.vector.7 = "x0"\n')
    pts = sample_points(sc, points=2, seed=1)
    with pytest.raises(fs.ScenarioError) as exc:
        build_run_fields(sc, 1, pts)
    assert "grade" in str(exc.value)


def test_select_checks():
    sc = fs.load_scenario(IDENTITY)
    assert select_checks(sc) == list(CHECKS)
    assert select_checks(sc, only=["lichnerowicz"]) == ["lichnerowicz"]
    with pytest.raises(UsageError):
        select_checks(sc, only=["bogus"])
    sc2 = fs.load_scenario(
        IDENTITY + "[checks]\nmetricity = on\n", valid_checks=set(CHECKS)
    )
    assert select_checks(sc2) == ["metricity"]


def test_run_suite_minkowski_all_pass():
    sc = load_bundled("minkowski")
    report = run_suite(sc, points=3)
    assert report.all_passed()
    assert {c.name for c in report.checks} == set(CHECKS)
    for c in report.checks:
        assert c.max <= 1e-10
        assert not c.errors


def test_report_formats():
    sc = load_bundled("minkowski")
    report = run_suite(sc, points=2, only=["metricity", "dirac-split"])
    text = report.to_text()
    assert text.startswith("PASS metricity max=")
    assert "worst=(" in text
    blob = json.loads(report.to_json())
    assert list(blob) == ["scenario_digest", "seed", "points", "tol", "checks"]
    assert blob["points"] == 2
    assert blob["scenario_digest"] == sc.digest
    for entry in blob["checks"]:
        assert list(entry) == [
            "name", "max", "mean", "worst_point", "pass", "paper_anchor",
        ]
        assert entry["pass"] is True
        assert len(entry["worst_point"]) == 4


def test_json_round_trip():
    sc = load_bundled("minkowski")
    report = run_suite(sc, points=2, only=["metricity"])
    s = report.to_json()
    assert json.dumps(json.loads(s)) == s


def test_run_determinism_and_worker_independence():
    sc = load_bundled("flat_torsion")
    kwargs = dict(points=3, seed=5, only=["metricity", "lichnerowicz", "dirac-split"])
    a = run_suite(sc, **kwargs).to_json()
    b = run_suite(sc, **kwargs).to_json()
    assert a == b
    c = run_suite(sc, workers=2, **kwargs).to_json()
    assert a == c


def test_check_isolation():
    # a check's residuals must not depend on which other checks run
    sc = load_bundled("flat_torsion")
    alone = run_suite(sc, points=2, only=["lichnerowicz"]).checks[0]
    grouped = run_suite(
        sc, points=2, only=["metricity", "lichnerowicz", "maxwell-equivalence"]
    ).checks[1]
    assert grouped.name == "lichnerowicz"
    assert grouped.max == alone.max
    assert grouped.mean == alone.mean
    assert grouped.worst_point == alone.worst_point


def test_singular_point_flagged_run_completes():
    base = fs.load_scenario(IDENTITY)
    pts = sample_points(base, points=4, seed=7)
    bad_x0 = pts[2].x[0]
    text = (
        f'[tetrad]\ne0_0 = "x0 - {bad_x0!r}"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n'
        "[sampling]\nseed = 7\npoints = 4\n"
    )
    sc = fs.load_scenario(text)
    report = run_suite(sc, only=["metricity", "torsion-recovery"])
    for c in report.checks:
        assert len(c.errors) == 1
        assert "singular" in c.errors[0][1]
        assert c.max is not None  # other three points evaluated
    assert "ERROR" in report.to_text()


def test_all_points_singular_yields_failure():
    text = (
        '[tetrad]\ne0_0 = "x0 - x0"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n'
        "[sampling]\npoints = 2\n"
    )
    sc = fs.load_scenario(text)
    report = run_suite(sc, only=["metricity"])
    assert not report.all_passed()
    assert report.checks[0].max is None
    assert "max=n/a" in report.to_text()


# -- CLI ------------------------------------------------------------------------


def test_cli_run_bundled_ok(capsys):
    rc = cli_main(["run", "minkowski", "--points", "2", "--only", "metricity,bianchi"])
    out = capsys.readouterr()
    assert rc == 0
    assert out.out.startswith("PASS metricity")
    assert "wall time" in out.err


def test_cli_run_json(capsys):
    rc = cli_main(
        ["run", "flat_torsion", "--points", "2", "--only", "lichnerowicz",
         "--format", "json"]
    )
    out = capsys.readouterr()
    assert rc == 0
    blob = json.loads(out.out)
    assert blob["checks"][0]["name"] == "lichnerowicz"
    assert blob["checks"][0]["pass"] is True


def test_cli_missing_scenario(capsys):
    rc = cli_main(["run", "missing.scn"])
    assert rc == 3
    assert "scenario" in capsys.readouterr().err


def test_cli_malformed_scenario(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text("[tetrad]\ne0_0 = \n")
    rc = cli_main(["run", str(path)])
    assert rc == 3


def test_cli_unknown_check(capsys):
    rc = cli_main(["run", "minkowski", "--only", "bogus"])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_usage_error(capsys):
    rc = cli_main(["run"])  # missing scenario argument
    assert rc == 2
    capsys.readouterr()
    rc = cli_main([])
    assert rc == 2
    capsys.readouterr()


def test_cli_failing_check_exits_one(tmp_path, capsys):
    path = tmp_path / "general.scn"
    path.write_text(GENERAL_TORSION_TEXT + "[checks]\nlichnerowicz = on\n")
    rc = cli_main(["run", str(path), "--points", "2"])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out.startswith("FAIL lichnerowicz")


def test_cli_list_checks(capsys):
    rc = cli_main(["list-checks"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in CHECKS:
        assert name in out


def test_cli_explain(capsys):
    rc = cli_main(["explain", "lichnerowicz"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "generalized Dalembertian" in out
    assert "\norder:    needs jets of order 2\n" in out
    rc = cli_main(["explain", "bogus"])
    assert rc == 2
    capsys.readouterr()


def test_bundled_names():
    names = harness.bundled_scenario_names()
    assert names == ["curved_diag", "curved_torsion", "flat_torsion", "minkowski"]


# -- non-finite values ------------------------------------------------------------


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_nan_residual_fails_with_point_error(capsys, tmp_path):
    # the scalar field overflows to infinity at x0 > 0.507, so its sup-norm
    # scale is 0 and it is NaN there; the NaN point is not the first one
    text = (
        "[chart]\nx0_min = 0.3\nx0_max = 0.6\n" + IDENTITY
        + '[fields]\nf.scalar = "exp(700*x0)*exp(700*x0)"\n'
        + "[sampling]\nseed = 0\npoints = 6\n"
    )
    names = ["scalar-laplacian", "double-contraction", "scalar-square-forms"]
    report = run_suite(fs.load_scenario(text), only=names)
    assert not report.all_passed()
    for c in report.checks:
        assert not c.passed
        assert c.max is not None  # the finite points were evaluated
        assert [msg for _, msg in c.errors] == ["non-finite residual nan"]
    assert "ERROR scalar-laplacian point=(" in report.to_text()
    blob = _strict_json(report.to_json())
    assert [e["pass"] for e in blob["checks"]] == [False] * 3

    path = tmp_path / "nan.scn"
    path.write_text(text)
    rc = cli_main(["run", str(path), "--only", ",".join(names), "--format", "json"])
    assert rc == 1
    _strict_json(capsys.readouterr().out)


def test_overflow_is_a_point_error(capsys, tmp_path):
    # exp(800*x1) overflows a float for x1 > 0.887; seed 1 samples x1 = 0.923
    text = '[tetrad]\ne0_0 = "exp(800*x1)"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n'
    report = run_suite(fs.load_scenario(text), points=6, seed=1, only=["metricity"])
    (check,) = report.checks
    assert len(check.errors) == 1
    assert check.errors[0][1].startswith("OverflowError")
    assert check.max is not None
    path = tmp_path / "overflow.scn"
    path.write_text(text)
    rc = cli_main(["run", str(path), "--points", "6", "--seed", "1", "--only", "metricity"])
    assert rc == 0
    assert "ERROR metricity" in capsys.readouterr().out


def test_json_writes_non_finite_as_null():
    check = harness.CheckResult(
        name="metricity", max=float("inf"), mean=float("nan"), worst_point=(0.1, 0.2, 0.3, 0.4),
        passed=False, anchor="",
    )
    report = harness.ResidualReport("digest", 0, 1, float("inf"), [check])
    blob = _strict_json(report.to_json())
    assert blob["tol"] is None
    assert blob["checks"][0]["max"] is None and blob["checks"][0]["mean"] is None


def test_monomial_jets_match_jet_products():
    from rcdirac.jets import ChartPoint, Jet2, seed_coordinate

    p = ChartPoint((0.3, -0.7, 1.2, 0.45))
    xs = [seed_coordinate(mu, p) for mu in range(4)]
    got = harness.monomial_jets(p)
    for m, exps in enumerate(harness.MONOMIALS):
        want = Jet2.const(1.0)
        for mu, e in enumerate(exps):
            for _ in range(e):
                want = want * xs[mu]
        assert np.max(np.abs(got[m] - want.data)) <= 1e-14


# checks whose bodies reduced residuals with Python's max, which drops a NaN
HIDDEN_NAN_CHECKS = [
    "dirac-split", "leibniz", "spin-module", "spin-left-form", "cov-deriv-torsion",
    "pair-expansion", "s2-levi-civita", "spin-commutator", "antiderivation",
]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_nan_inside_check_body_fails(capsys, tmp_path):
    # the fields overflow to infinity at x0 > 0.507, so their sup-norm scale
    # is 0 and they are NaN there; the NaN point is not the first one
    big = '"exp(700*x0)*exp(700*x0)"'
    text = (
        "[chart]\nx0_min = 0.3\nx0_max = 0.6\n" + IDENTITY
        + f"[fields]\nA.general.1 = {big}\nA.vector.1 = {big}\nA.even.0 = {big}\n"
        + "[sampling]\nseed = 0\npoints = 6\n"
    )
    report = run_suite(fs.load_scenario(text), only=HIDDEN_NAN_CHECKS)
    for c in report.checks:
        assert not c.passed, c.name
        assert c.max is not None  # the finite points were evaluated
        assert [msg for _, msg in c.errors] == ["non-finite residual nan"], c.name
    path = tmp_path / "nan.scn"
    path.write_text(text)
    assert cli_main(["run", str(path), "--only", ",".join(HIDDEN_NAN_CHECKS)]) == 1
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_tetrad_is_a_failing_point_error(capsys, tmp_path):
    # the tetrad overflows to infinity at the x1 ~ 0.65 sample point
    text = '[tetrad]\ne0_0 = "exp(700*x1)*exp(700*x1)"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n'
    report = run_suite(fs.load_scenario(text), points=3)
    bad = [p for p in sample_points(fs.load_scenario(text), points=3) if p.x[1] > 0.6]
    assert len(bad) == 1
    for c in report.checks:
        assert not c.passed, c.name
        assert [point for point, _ in c.errors] == [bad[0].x], c.name
        assert c.errors[0][1].startswith("NonFiniteFrameError: the tetrad is not finite")
    path = tmp_path / "inf.scn"
    path.write_text(text)
    assert cli_main(["run", str(path), "--points", "3"]) == 1
    assert "ERROR metricity point=(" in capsys.readouterr().out
