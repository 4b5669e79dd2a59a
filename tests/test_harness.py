import contextlib
import dataclasses
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import BUNDLED, GENERAL_TORSION_TEXT, load_bundled
import rcdirac
from rcdirac import fieldspec as fs
from rcdirac import harness
from rcdirac.cliffalg import GradeError
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
    calls = (
        (0.0, 1.0, 4), (-1.0, 1.0, 35), (-1.0, 1.0, 35), (-1.0, 1.0, 1), (0.0, 1.0, 100),
        (-1.0, 1.0, 1960), (0.0, 1.0, 0), (-2.5, 3.0, 3), (-1.0, 1.0, 1925), (0.0, 1.0, 7),
    )
    for lo, hi, n in calls:
        got = np.array(ours.uniform(lo, hi, n))
        assert got.view(np.uint64).tolist() == theirs.uniform(lo, hi, n).view(np.uint64).tolist()
    # one bulk call continues the stream exactly where single draws leave it
    ours, theirs = UniformStream(entropy), np.random.default_rng(entropy)
    singles = [ours.uniform(-1.0, 1.0, 1)[0] for _ in range(70)]
    bulk = ours.uniform(-1.0, 1.0, 1960)
    want = theirs.uniform(-1.0, 1.0, 2030)
    assert np.array(singles).view(np.uint64).tolist() == want[:70].view(np.uint64).tolist()
    assert bulk.view(np.uint64).tolist() == want[70:].view(np.uint64).tolist()


def test_negative_seed_is_a_scenario_error(tmp_path, capsys):
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        UniformStream([-1, 0x5A11])
    path = tmp_path / "negative.scn"
    path.write_text(IDENTITY + "[sampling]\nseed = -1\n")
    for argv in (["run", "minkowski", "--seed", "-1"], ["run", str(path)]):
        assert cli_main(argv + ["--points", "1"]) == 3
        assert capsys.readouterr().err == "scenario error: expected non-negative integer\n"


def _fresh_interpreter(code: str) -> str:
    src = str(Path(rcdirac.__file__).resolve().parents[1])
    # stdout stays buffered, so a forked child that flushed the buffer it
    # inherited would print the lines before the fork twice
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-c", code], env={**env, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout


def test_run_does_not_import_numpy_random():
    code = (
        "import sys, rcdirac\n"
        "sc = rcdirac.load_scenario_file(rcdirac.harness.resolve_scenario_path('curved_torsion'))\n"
        "rcdirac.run_suite(sc, points=1, only=['dirac-split', 'lichnerowicz'])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert _fresh_interpreter(code) == "False\n"


def test_worker_run_imports_no_executor():
    code = (
        "import sys, rcdirac\n"
        "sc = rcdirac.load_scenario_file(rcdirac.harness.resolve_scenario_path('curved_torsion'))\n"
        "rcdirac.run_suite(sc, points=2, only=['metricity'], workers=2)\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    assert _fresh_interpreter(code) == "False\n"


def test_run_does_not_import_argparse():
    code = (
        "import sys, rcdirac\n"
        "sc = rcdirac.load_scenario_file(rcdirac.harness.resolve_scenario_path('curved_torsion'))\n"
        "rcdirac.run_suite(sc, points=1, only=['metricity'])\n"
        "print('argparse' in sys.modules)\n"
    )
    assert _fresh_interpreter(code) == "False\n"


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
    # the scalar field overflows to infinity at x0 > 0.507, which makes the
    # residuals NaN there; the NaN point is not the first one
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


# the scalar field overflows to infinity at x0 > 0.507, not at every point
OVERFLOWING_SCALAR = (
    "[chart]\nx0_min = 0.3\nx0_max = 0.6\n" + IDENTITY
    + '[fields]\nf.scalar = "exp(700*x0)*exp(700*x0)"\n'
)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_sup_norm_is_taken_over_finite_values():
    sc = fs.load_scenario(OVERFLOWING_SCALAR)
    pts = sample_points(sc, points=6, seed=0)
    fields = build_run_fields(sc, 0, pts)
    values = [fields["scalar"].at(p).coeffs[0].value for p in pts]
    finite = [v for v in values if np.isfinite(v)]
    assert 0 < len(finite) < len(values)
    assert max(finite) == 1.0
    assert all(v > 0.0 for v in finite)


@pytest.mark.parametrize("expr", ["0*x0", "x0 + 1e999"], ids=["zero", "infinite"])
def test_field_without_finite_nonzero_value_is_a_scenario_error(expr, capsys, tmp_path):
    text = IDENTITY + f'[fields]\nf.scalar = "{expr}"\n'
    with pytest.raises(fs.ScenarioError, match="test field f.scalar has no finite non-zero value"):
        run_suite(fs.load_scenario(text), points=3)
    path = tmp_path / "field.scn"
    path.write_text(text)
    assert cli_main(["run", str(path), "--points", "3"]) == 3
    assert "f.scalar" in capsys.readouterr().err


def test_failing_test_field_is_a_scenario_error(capsys, tmp_path):
    # exp(800*x0) overflows a float for x0 > 0.887, so at every point here
    overflow = "[chart]\nx0_min = 0.9\nx0_max = 1.0\n" + IDENTITY + '[fields]\nf.scalar = "exp(800*x0)"\n'
    domain = IDENTITY + '[fields]\nA.vector.1 = "1/(x0 - x0)"\n'
    for text, what in ((overflow, "test field f.scalar: OverflowError at point ("),
                       (domain, "test field A.vector: domain error at point (")):
        sc = fs.load_scenario(text)
        with pytest.raises(fs.ScenarioError) as exc:
            run_suite(sc, points=3)
        assert str(exc.value).startswith(what)
        first = sample_points(sc, points=3)[0]
        assert str(first.x) in str(exc.value)
        path = tmp_path / "field.scn"
        path.write_text(text)
        assert cli_main(["run", str(path), "--points", "3"]) == 3
        out = capsys.readouterr()
        assert what in out.err
        assert "Traceback" not in out.out + out.err


# exp(800*x1) overflows a float for x1 > 0.887; seed 1 samples x1 = 0.923
OVERFLOW_TETRAD = '[tetrad]\ne0_0 = "exp(800*x1)"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n'
# the tetrad overflows to infinity at the x1 ~ 0.65 sample point
INF_TETRAD = '[tetrad]\ne0_0 = "exp(700*x1)*exp(700*x1)"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n'


def test_overflow_is_a_point_error(capsys, tmp_path):
    text = OVERFLOW_TETRAD
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
    # the fields overflow to infinity at x0 > 0.507, which makes the
    # residuals NaN there; the NaN point is not the first one
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
    text = INF_TETRAD
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


# -- worker shards ------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    not harness.FORK_SHARDS,
    reason="shards fork on Linux only; the patched check reaches the children by fork",
)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# scenario text and seed; the error tuples of the last two come from child
# processes at some of the worker counts
SHARD_SCENARIOS = {
    "general_torsion": (GENERAL_TORSION_TEXT, None),
    "overflow": (OVERFLOW_TETRAD, 1),
    "non_finite_tetrad": (INF_TETRAD, None),
}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("name", [*BUNDLED, *SHARD_SCENARIOS])
def test_reports_identical_at_any_worker_count(name):
    # 5 points give uneven shards
    if name in SHARD_SCENARIOS:
        text, seed = SHARD_SCENARIOS[name]
        sc = fs.load_scenario(text)
    else:
        sc, seed = load_bundled(name), None
    one = run_suite(sc, points=5, seed=seed)
    if name in ("overflow", "non_finite_tetrad"):
        assert any(c.errors for c in one.checks)
    for workers in (2, 3, 7):
        report = run_suite(sc, points=5, seed=seed, workers=workers)
        assert report.to_json() == one.to_json(), workers
        assert report.to_text() == one.to_text(), workers
    _assert_no_child_left()


def _patched_check(monkeypatch, fn):
    monkeypatch.setitem(CHECKS, "patched", harness.CheckDescriptor("patched", "", (), fn))


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"run_suite did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@needs_fork
@pytest.mark.parametrize("shard", [0, 1])
def test_exception_in_a_shard_is_reraised(monkeypatch, shard):
    # shard 0 runs in this process, shard 1 in a child; when this process
    # raises, the busy child is stopped, not waited for
    sc = load_bundled("minkowski")
    pts = sample_points(sc, 4)

    def check(ctx):
        if pts[shard] in ctx.points:
            raise KeyError("no such blade")
        if shard == 0 and pts[1] in ctx.points:
            time.sleep(120)
        return 0.0

    _patched_check(monkeypatch, check)
    with _deadline(60), pytest.raises(KeyError, match="no such blade"):
        run_suite(sc, points=4, only=["metricity", "patched"], workers=2)
    _assert_no_child_left()


@needs_fork
def test_child_that_exits_raises_runtime_error(monkeypatch):
    sc = load_bundled("minkowski")
    target = sample_points(sc, 4)[1]

    def check(ctx):
        if target in ctx.points:
            os._exit(7)
        return 0.0

    _patched_check(monkeypatch, check)
    with _deadline(60), pytest.raises(harness.WorkerError, match="^worker process exited with code 7$"):
        run_suite(sc, points=4, only=["patched"], workers=2)
    _assert_no_child_left()


@needs_fork
def test_killed_child_is_a_run_error(monkeypatch, capsys):
    # a worker that dies to a signal (the OOM killer sends SIGKILL) ends
    # the run with one stderr line and exit code 4, not a traceback
    sc = load_bundled("minkowski")
    target = sample_points(sc, 4)[1]
    parent = os.getpid()

    def check(ctx):
        if target in ctx.points and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return 0.0

    _patched_check(monkeypatch, check)
    with _deadline(60):
        code = cli_main(["run", "minkowski", "--points", "4", "--only", "patched", "--workers", "2"])
    out = capsys.readouterr()
    assert code == 4
    assert out.out == ""
    assert out.err == "run error: worker process killed by signal 9 (SIGKILL)\n"
    _assert_no_child_left()


@needs_fork
def test_child_killed_while_sending_is_a_worker_error(monkeypatch):
    # a child killed partway through its message leaves a cut-short pickle
    def child(write_fd, shard):
        os.write(write_fd, pickle.dumps((True, harness._eval_shard(*shard), None))[:20])
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(harness, "_shard_child", child)
    sc = load_bundled("minkowski")
    with _deadline(60), pytest.raises(
        harness.WorkerError, match=r"^worker process killed by signal 9 \(SIGKILL\)$"
    ):
        run_suite(sc, points=4, only=["metricity"], workers=3)
    _assert_no_child_left()


def _no_fork():
    raise AssertionError("a child process was forked")


def test_one_shard_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    sc = load_bundled("minkowski")
    one = run_suite(sc, points=1, only=["metricity"]).to_json()
    assert run_suite(sc, points=1, only=["metricity"], workers=3).to_json() == one


def test_shards_run_here_where_fork_is_off(monkeypatch):
    # off Linux the calling process evaluates every point itself
    sc = load_bundled("curved_torsion")
    one = run_suite(sc, points=5)
    monkeypatch.setattr(harness, "FORK_SHARDS", False)
    monkeypatch.setattr(os, "fork", _no_fork)
    report = run_suite(sc, points=5, workers=3)
    assert report.to_json() == one.to_json()
    assert report.to_text() == one.to_text()


def test_sharded_run_imports_no_multiprocessing():
    code = (
        "import sys, rcdirac\n"
        "print('multiprocessing' in sys.modules)\n"
        "sc = rcdirac.load_scenario_file(rcdirac.harness.resolve_scenario_path('curved_torsion'))\n"
        "kw = dict(points=3, only=['metricity', 'lichnerowicz', 'spin-square-assembly'])\n"
        "two = rcdirac.run_suite(sc, workers=2, **kw).to_json()\n"
        "print('multiprocessing' in sys.modules)\n"
        "print(two == rcdirac.run_suite(sc, **kw).to_json())\n"
    )
    assert _fresh_interpreter(code) == "False\nFalse\nTrue\n"


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_is_a_usage_error(capsys, workers):
    sc = load_bundled("minkowski")
    with pytest.raises(UsageError, match=f"^worker count must be at least 1, got {workers}$"):
        run_suite(sc, points=1, workers=workers)
    assert cli_main(["run", "minkowski", "--points", "1", "--workers", str(workers)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"usage error: worker count must be at least 1, got {workers}\n"


# sin and cos of an infinite value raise ValueError("math domain error");
# the product overflows to infinity at x1 > 0.507, not at every point (its
# jets overflow at smaller x1, which makes the tetrad non-finite there)
SIN_OF_INF_TETRAD = (
    '[tetrad]\ne0_0 = "1 + 0*sin(exp(700*x1)*exp(700*x1))"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n'
)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_sin_of_infinity_is_a_point_error(capsys, tmp_path):
    sc = fs.load_scenario(SIN_OF_INF_TETRAD)
    pts = sample_points(sc, points=5)
    bad = [p.x for p in pts if p.x[1] > 0.507]
    assert 0 < len(bad) < len(pts)
    one = run_suite(sc, points=5, only=["metricity"])
    (check,) = one.checks
    assert not check.passed and check.max is not None   # the other points ran
    domain = [(x, msg) for x, msg in check.errors if msg.startswith("ValueError")]
    assert domain == [(x, "ValueError: math domain error") for x in bad]
    assert run_suite(sc, points=5, only=["metricity"], workers=2).to_text() == one.to_text()
    path = tmp_path / "sin.scn"
    path.write_text(SIN_OF_INF_TETRAD)
    for workers in ("1", "2"):
        assert cli_main(["run", str(path), "--points", "5", "--only", "metricity", "--workers", workers]) == 1
        out = capsys.readouterr()
        assert out.out == one.to_text()
        assert "ERROR metricity point=(" in out.out and "scenario error" not in out.err


def test_point_hooks_run_once_per_point(monkeypatch):
    # the per-point surface that perfbench's tracer wraps: rebound on the
    # module and in the registry, each hook is looked up at call time
    calls = {"task": 0, "point": 0, "check": []}
    eval_task, evaluate_point = harness._eval_task, harness.evaluate_point

    def task(args):
        calls["task"] += 1
        return eval_task(args)

    def point(*args, **kwargs):
        calls["point"] += 1
        return evaluate_point(*args, **kwargs)

    desc = CHECKS["metricity"]

    def check(ctx):
        calls["check"].append(ctx.points)
        return desc.fn(ctx)

    monkeypatch.setattr(harness, "_eval_task", task)
    monkeypatch.setattr(harness, "evaluate_point", point)
    monkeypatch.setitem(CHECKS, "metricity", dataclasses.replace(desc, fn=check))
    sc = load_bundled("curved_torsion")
    report = run_suite(sc, points=3, only=["metricity", "bianchi"])
    assert report.all_passed()
    assert calls["task"] == 3 and calls["point"] == 3
    # the check runs once, on the shard's three points
    assert calls["check"] == [tuple(sample_points(sc, points=3))]


def test_check_error_stays_at_its_point(monkeypatch):
    # a check that fails on a batch holding one point is run point by
    # point, so the error reaches only that point
    sc = load_bundled("minkowski")
    pts = sample_points(sc, 4)

    def check(ctx):
        if pts[2] in ctx.points:
            raise GradeError("field must be pure grade 1")
        return np.zeros(len(ctx.points))

    _patched_check(monkeypatch, check)
    one = run_suite(sc, points=4, only=["patched"])
    (c,) = one.checks
    assert c.errors == [(pts[2].x, "GradeError: field must be pure grade 1")]
    assert c.max == 0.0
    assert run_suite(sc, points=4, only=["patched"], workers=4).to_json() == one.to_json()
