import contextlib
import dataclasses
import errno
import json
import os
import pickle
import runpy
import signal
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import BUNDLED, GENERAL_TORSION_TEXT, fresh_python, load_bundled, shard_children
from rcdirac import fieldspec as fs
from rcdirac import geometry, harness
from rcdirac.cliffalg import GradeError, Multivector
from rcdirac.geometry import CONN_ORDER
from rcdirac.jets import JET_LEN, ChartPoint, width
from rcdirac.harness import (
    CHECKS,
    BatchContext,
    UsageError,
    build_run_fields,
    cli_main,
    point_residuals,
    run_suite,
    sample_points,
    select_checks,
    uniform_draws,
)
IDENTITY = "[tetrad]\ne0_0 = 1\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n"


def test_sampling_determinism_golden():
    # fixed expectations for box [0,1]^4, seed 42 (golden values)
    sc = fs.load_scenario(IDENTITY)
    pts = sample_points(sc, points=10, seed=42)
    assert pts[0].x == (
        0.5622337165261854,
        0.10671198489381573,
        0.6982947639510312,
        0.5962485625264781,
    )
    assert pts[1].x == (
        0.33723371652618533,
        0.40671198489381566,
        0.8782947639510311,
        0.7248199910979067,
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
    # an empty interval fails at load; a box set without the loader still
    # fails at sampling
    with pytest.raises(fs.ScenarioError, match="^line 3: empty chart interval x0"):
        fs.load_scenario("[chart]\nx0_min = 1\nx0_max = 1\n" + IDENTITY)
    bad = dataclasses.replace(sc, chart_box=((1.0, 1.0),) + sc.chart_box[1:])
    with pytest.raises(ValueError, match="empty chart box interval"):
        sample_points(bad, points=3, seed=0)


@pytest.mark.parametrize("seed, tag, lo, hi, bits", [
    (0, 0x5A11, 0.0, 1.0, [0x3FE07AEDAA386319, 0x3FCDD12D014E6C88, 0x3FDACB9A812548C6]),
    (4, 0xF1E1D, -1.0, 1.0, [0xBFDBA179B8D8618C, 0x3FEAC734BD9E02DC, 0xBFEEDE48205483AE]),
    (2**40 + 3, 0x5A11, 0.0, 1.0, [0x3FE406355278550E, 0x3FD40BED199E41F8, 0x3FE4BEC546A3348C]),
    (11, 0xF1E1D, -2.5, 3.0, [0x3FE5E2736F40453C, 0xBFF6F768B459CD12, 0x3FFB8882357672C0]),
], ids=["shift-seed0", "fields-seed4", "shift-seed2**40+3", "fields-seed11"])
def test_uniform_draws_golden(seed, tag, lo, hi, bits):
    # pinned float64 bit patterns: a change to Python's random() stream for
    # an integer seed would change every sampled point and test field
    got = uniform_draws(seed, tag, lo, hi, 3)
    assert got.dtype == np.float64
    assert got.view(np.uint64).tolist() == bits
    assert uniform_draws(seed, tag, lo, hi, 0).shape == (0,)
    # a longer draw starts with the shorter one, and stays in [lo, hi)
    more = uniform_draws(seed, tag, lo, hi, 1000)
    assert more[:3].view(np.uint64).tolist() == bits
    assert lo <= more.min() and more.max() < hi
    # other seeds and other tags give other streams
    assert not np.array_equal(uniform_draws(seed + 1, tag, lo, hi, 3), got)
    assert not np.array_equal(uniform_draws(seed, tag ^ 1, lo, hi, 3), got)


def test_negative_seed_is_a_scenario_error():
    # the loader refuses it first, at its line; this is the sampler's own guard
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        uniform_draws(-1, 0x5A11, 0.0, 1.0, 4)


@pytest.mark.parametrize("kwargs", [{"points": 0}, {"seed": -1}, {"tol": float("inf")}, {"tol": float("nan")},
                                    {"tol": -1.0}, {"only": []}, {"workers": 0}])
def test_run_suite_rejects_bad_arguments(kwargs):
    with pytest.raises(UsageError):
        run_suite(load_bundled("minkowski"), **{"points": 1, **kwargs})


def test_integer_valued_sampling_count_is_accepted():
    sc = fs.load_scenario(IDENTITY + "[sampling]\npoints = 3.0\nseed = 1e1\n")
    assert (sc.sampling.points, sc.sampling.seed) == (3, 10)
    # a float would round 2**53 + 1 to 2**53
    assert fs.load_scenario(IDENTITY + "[sampling]\nseed = 9007199254740993\n").sampling.seed == 2**53 + 1


# a run at two workers, then at one, in a fresh interpreter that counts its
# os.fork calls in FORKS; it prints the modules that no run uses, before and
# after, then the forks and whether the two reports are the same
RUN_IMPORTS = """
import json, os
FORKS, _fork = [], os.fork
os.fork = lambda: FORKS.append(1) or _fork()
import sys, rcdirac
UNUSED = ("numpy.random", "argparse", "concurrent.futures", "multiprocessing")
print(json.dumps([m for m in UNUSED if m in sys.modules]))
sc = rcdirac.load_scenario_file(rcdirac.harness.resolve_scenario_path("curved_torsion"))
kw = dict(points=8, only=["metricity", "dirac-split", "lichnerowicz", "spin-square-assembly"])
two = rcdirac.run_suite(sc, workers=2, **kw).to_json()
same = two == rcdirac.run_suite(sc, **kw).to_json()
print(json.dumps([m for m in UNUSED if m in sys.modules]))
print(json.dumps([len(FORKS), same]))
"""


@pytest.fixture(scope="module")
def run_imports():
    """The three lines of RUN_IMPORTS, each decoded; the one interpreter
    serves every import probe below."""
    # stdout stays buffered, so a forked child that flushed the buffer it
    # inherited would print the first line twice
    proc = fresh_python("-c", RUN_IMPORTS, env={"PYTHONUNBUFFERED": None})
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_module_entry_point_runs_without_a_warning():
    proc = fresh_python("-W", "error", "-m", "rcdirac", "list-checks")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == len(CHECKS) == 34


def test_run_does_not_import_numpy_random(run_imports):
    assert "numpy.random" not in run_imports[1]


def test_run_does_not_import_argparse(run_imports):
    assert "argparse" not in run_imports[1]


def test_worker_run_imports_no_executor(run_imports):
    _, loaded, (forks, _) = run_imports
    assert "concurrent.futures" not in loaded and forks == shard_children(2)


def test_sharded_run_imports_no_multiprocessing(run_imports):
    assert run_imports == [[], [], [shard_children(2), True]]


def test_field_generation_normalized_and_seeded():
    sc = fs.load_scenario(IDENTITY)
    pts = sample_points(sc, points=6, seed=3)
    fields = build_run_fields(sc, 3, pts)
    assert set(fields) == set(harness.FIELD_KINDS)
    sup = max(fields["general"].at(p).max_abs() for p in pts)
    assert sup == pytest.approx(1.0, rel=1e-12)
    again = build_run_fields(sc, 3, pts)
    p = pts[0]
    assert np.allclose(fields["even"].at(p).data[..., 0], again["even"].at(p).data[..., 0])
    other = build_run_fields(sc, 4, pts)
    assert not np.allclose(fields["even"].at(p).data[..., 0], other["even"].at(p).data[..., 0])


@pytest.mark.parametrize("coords", [[0.5, 0.6, 0.7, 0.8], np.array([0.5, 0.6, 0.7, 0.8])], ids=["list", "array"])
def test_chart_point_from_a_sequence_is_a_tuple_point(coords):
    p, q = ChartPoint(coords), ChartPoint((0.5, 0.6, 0.7, 0.8))
    assert p == q and hash(p) == hash(q) and type(p.x) is tuple
    assert all(type(c) is float for c in p.x)
    sc = load_bundled("curved_torsion")
    got, want = build_run_fields(sc, 0, [p]), build_run_fields(sc, 0, [q])
    for kind, f in want.items():
        assert np.array_equal(got[kind].at(q).data, f.at(q).data) and got[kind].sup == f.sup


def test_field_grade_content():
    sc = fs.load_scenario(IDENTITY)
    pts = sample_points(sc, points=3, seed=5)
    fields = build_run_fields(sc, 5, pts)
    from rcdirac.cliffalg import GRADES

    vals = fields["vector"].at(pts[0]).data[..., 0]
    for i, v in enumerate(vals):
        assert (v == 0.0) or GRADES[i] == 1
    vals = fields["even"].at(pts[0]).data[..., 0]
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
        fields["general"].at(pts[0]).data[..., 0], plain["general"].at(pts[0]).data[..., 0]
    )


def test_scenario_field_override_wrong_grade_rejected():
    # rejected when the scenario is loaded, at the key's line
    with pytest.raises(fs.ScenarioError, match="^line 7: ") as exc:
        fs.load_scenario(IDENTITY + '[fields]\nA.vector.7 = "x0"\n')
    assert "grade" in str(exc.value)


def test_select_checks():
    sc = fs.load_scenario(IDENTITY)
    assert select_checks(sc) == list(CHECKS)
    assert select_checks(sc, only=["lichnerowicz"]) == ["lichnerowicz"]
    with pytest.raises(UsageError):
        select_checks(sc, only=["bogus"])
    sc2 = fs.load_scenario(IDENTITY + "[checks]\nmetricity = on\n")
    assert select_checks(sc2) == ["metricity"]


def test_unknown_check_name_through_the_library_names_its_line():
    text = IDENTITY + "[checks]\nmetricity = on\nbogus = off\n"
    sc = fs.load_scenario(text)
    message = f"^line 8: unknown check name 'bogus'; valid names: {', '.join(CHECKS)}$"
    with pytest.raises(fs.ScenarioError, match=message):
        run_suite(sc, points=1)
    # the section is validated before --only wins
    with pytest.raises(fs.ScenarioError, match=message):
        select_checks(sc, only=["metricity"])


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
            "name", "max", "mean", "worst_point", "pass", "paper_anchor", "errors",
        ]
        assert entry["pass"] is True
        assert len(entry["worst_point"]) == 4


def test_json_round_trip():
    sc = load_bundled("minkowski")
    report = run_suite(sc, points=2, only=["metricity"])
    s = report.to_json()
    assert json.dumps(json.loads(s)) == s


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


def test_scenario_file_with_a_byte_order_mark_loads(tmp_path):
    path = harness.resolve_scenario_path("curved_torsion")
    bom = tmp_path / "bom.scn"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    plain, marked = fs.load_scenario_file(path), fs.load_scenario_file(bom)
    assert marked == plain and marked.digest == plain.digest
    assert run_suite(marked, points=2).to_text() == run_suite(plain, points=2).to_text()


# -- non-finite values ------------------------------------------------------------


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _top_split(coord: int, points: int, seed: int) -> float:
    """The midpoint between the largest and the second-largest coordinate
    x<coord> of the points sampled in the unit chart box at this count and
    seed.  exp(710 x<coord> / split) overflows a float (log of the largest
    is 709.78) just below the split, so at the point with the largest
    coordinate only; its derivatives, up to 1e6 times larger, stay finite
    at the others when the two coordinates are a few hundredths apart."""
    pts = sample_points(fs.load_scenario(IDENTITY), points=points, seed=seed)
    top, second = sorted(p.x[coord] for p in pts)[:-3:-1]
    return (top + second) / 2


def _assert_one_point_above(coord: int, split: float, points: int, seed: int) -> tuple:
    """The coordinates of the one sampled point whose x<coord> passes the
    split, asserting that there is one and that it is not the first: the
    points evaluated before it and beside it show that it alone fails."""
    pts = sample_points(fs.load_scenario(IDENTITY), points=points, seed=seed)
    bad = [p.x for p in pts if p.x[coord] > split]
    assert len(bad) == 1 and bad[0] != pts[0].x
    return bad[0]


# 6 points at seed 0: a product of two finite exponentials that overflows to
# infinity above X0_SPLIT, at one point, which makes the residuals NaN there
X0_SPLIT = _top_split(0, 6, 0)
BIG_X0 = f'"exp({355 / X0_SPLIT!r}*x0)*exp({355 / X0_SPLIT!r}*x0)"'


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_nan_residual_fails_with_point_error():
    bad = _assert_one_point_above(0, X0_SPLIT, 6, 0)
    text = IDENTITY + f"[fields]\nf.scalar = {BIG_X0}\n" + "[sampling]\nseed = 0\npoints = 6\n"
    names = ["scalar-laplacian", "double-contraction", "scalar-square-forms"]
    report = run_suite(fs.load_scenario(text), only=names)
    assert not report.all_passed()
    for c in report.checks:
        assert not c.passed
        assert c.max is not None  # the finite points were evaluated
        assert [msg for _, msg in c.errors] == ["non-finite residual nan"]
        assert [x for x, _ in c.errors] == [bad]
    assert "ERROR scalar-laplacian point=(" in report.to_text()
    blob = _strict_json(report.to_json())
    assert [e["pass"] for e in blob["checks"]] == [False] * 3


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_sup_norm_is_taken_over_finite_values():
    _assert_one_point_above(0, X0_SPLIT, 6, 0)
    # the scalar field overflows to infinity at one point, not at every point
    sc = fs.load_scenario(IDENTITY + f"[fields]\nf.scalar = {BIG_X0}\n")
    pts = sample_points(sc, points=6, seed=0)
    fields = build_run_fields(sc, 0, pts)
    values = [fields["scalar"].at(p).coeffs[0].value for p in pts]
    finite = [v for v in values if np.isfinite(v)]
    assert 0 < len(finite) < len(values)
    assert max(finite) == 1.0
    assert all(v > 0.0 for v in finite)
    # the field is divided by its sup: 49 * (1 / 49) is 0.9999999999999999
    sc = fs.load_scenario(IDENTITY + '[fields]\nf.scalar = "49"\n')
    fields = build_run_fields(sc, 0, pts)
    assert [fields["scalar"].at(p).coeffs[0].value for p in pts] == [1.0] * len(pts)


# 6 points at seed 1: exp overflows a float (OverflowError) above X0_SPLIT_1,
# at one point; x0, as the largest x1 at seed 1 is the first point's
X0_SPLIT_1 = _top_split(0, 6, 1)
OVERFLOW_TETRAD = f'[tetrad]\ne0_0 = "exp({710 / X0_SPLIT_1!r}*x0)"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n'
# 3 points at seed 0: the tetrad overflows to infinity above X1_SPLIT, at one point
X1_SPLIT = _top_split(1, 3, 0)
INF_TETRAD = (
    f'[tetrad]\ne0_0 = "exp({355 / X1_SPLIT!r}*x1)*exp({355 / X1_SPLIT!r}*x1)"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n'
)


def test_overflow_is_a_point_error():
    bad = _assert_one_point_above(0, X0_SPLIT_1, 6, 1)
    report = run_suite(fs.load_scenario(OVERFLOW_TETRAD), points=6, seed=1, only=["metricity"])
    (check,) = report.checks
    assert len(check.errors) == 1
    assert check.errors[0][0] == bad
    assert check.errors[0][1].startswith("OverflowError")
    assert check.max is not None
    # a frame value that overflows fails the check, like one whose jets do
    assert not check.passed


# exp(800 x1) overflows a float for x1 > 0.887 and 640000 exp(800 x1), its
# second derivative, for x1 > 0.871: at seed 1 one point falls in between, so
# only its jets overflow; at seed 6 the value itself does
EXP800_TETRAD = '[tetrad]\ne0_0 = "exp(800*x1)"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n'


def test_both_overflow_routes_fail():
    sc = fs.load_scenario(EXP800_TETRAD)
    for seed, error in ((1, "NonFiniteFrameError: the tetrad is not finite"), (6, "OverflowError: math range error")):
        (check,) = run_suite(sc, points=6, seed=seed, only=["metricity"]).checks
        assert not check.passed, seed
        assert len(check.errors) == 1 and check.errors[0][1].startswith(error), seed


def test_overflow_warns_nothing():
    # the frame's derivative jets overflow at one point (seed 1, as above):
    # the check names it, and numpy warns nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (check,) = run_suite(fs.load_scenario(EXP800_TETRAD), points=6, seed=1, only=["metricity"]).checks
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]
    assert len(check.errors) == 1


def test_test_fields_overflowing_at_a_huge_chart_bound_warn_nothing():
    # near x2 = 1e308 the generated fields' monomials overflow at every
    # point: the first field is a scenario error, and numpy warns nothing
    sc = fs.load_scenario(IDENTITY + "[chart]\nx2_max = 1.01e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fs.ScenarioError, match="^test field f.scalar has no finite non-zero value at the "
                                                   "sampled points$"):
            run_suite(sc, points=4)


def test_calibration_failure_is_a_failing_point_error(capsys, monkeypatch):
    monkeypatch.setattr(geometry, "_CALIBRATION_TOL", -1.0)
    sc = load_bundled("curved_torsion")
    pts = [p.x for p in sample_points(sc, points=3)]
    (c,) = run_suite(sc, points=3, only=["metricity"]).checks
    assert not c.passed and [x for x, _ in c.errors] == pts
    assert all(msg.startswith("GeometryError: connection biform calibration failed") for _, msg in c.errors)
    assert cli_main(["run", "curved_torsion", "--points", "3", "--only", "metricity"]) == 1
    assert capsys.readouterr().out.count("ERROR metricity point=(") == 3


# tests-only scenarios; scripts/expected.py pins each one's report
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["sqrt_tetrad", "mixed_frame_errors"])
def test_json_errors_are_the_text_error_lines(name):
    report = run_suite(fs.load_scenario_file(DATA / f"{name}.scn"), points=16)
    lines = report.to_text().splitlines()
    for entry in _strict_json(report.to_json())["checks"]:
        got = [
            f"ERROR {entry['name']} point=({','.join(f'{x:.6g}' for x in e['point'])}) {e['message']}"
            for e in entry["errors"]
        ]
        assert got and got == [line for line in lines if line.startswith(f"ERROR {entry['name']} ")]


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

    pts = [ChartPoint((0.3, -0.7, 1.2, 0.45)), ChartPoint((-1.1, 0.0, 0.25, 2.0)), ChartPoint((0.9, 0.6, -0.4, -0.8))]
    got = harness.monomial_jets(pts)
    assert got.shape == (len(pts), len(harness.MONOMIALS), JET_LEN)
    for p, jets_p in zip(pts, got):
        xs = [seed_coordinate(mu, p) for mu in range(4)]
        for m, exps in enumerate(harness.MONOMIALS):
            want = Jet2.const(1.0)
            for mu, e in enumerate(exps):
                for _ in range(e):
                    want = want * xs[mu]
            assert np.max(np.abs(jets_p[m] - want.data)) <= 1e-14


def _monomial_jets_at(point) -> np.ndarray:
    """The jets (35, 15) of the monomials at one point, in the closed form
    that the fields were once built with point by point."""
    from rcdirac.jets import HESS_PAIRS, NVARS

    order = np.zeros((JET_LEN, NVARS), dtype=int)     # [slot, mu]: derivatives by x^mu
    order[1:5] = np.eye(NVARS, dtype=int)
    for k, (mu, nu) in enumerate(HESS_PAIRS):
        order[5 + k, mu] += 1
        order[5 + k, nu] += 1
    x = np.array(point.x)
    e = np.array(harness.MONOMIALS)
    factors = np.stack([
        x ** e,
        e * x ** np.maximum(e - 1, 0),
        e * (e - 1) * x ** np.maximum(e - 2, 0),
    ])
    m = np.arange(len(e))[:, None]
    return np.multiply.reduce(factors[order[:, None, :], m, np.arange(NVARS)], axis=-1).T


def test_generated_fields_match_the_per_point_closed_form_bit_for_bit():
    sc = load_bundled("curved_torsion")
    pts = sample_points(sc, points=7, seed=2)
    assert np.array_equal(harness.monomial_jets(pts), [_monomial_jets_at(p) for p in pts])
    fields = build_run_fields(sc, 2, pts)
    for kind, f in fields.items():
        unscaled = [f.polys @ _monomial_jets_at(p) for p in pts]
        assert f.sup == max(abs(v[:, 0]).max() for v in unscaled), kind
        for p, v in zip(pts, unscaled):
            assert np.array_equal(f.at(p).data, v / f.sup), kind
        assert np.array_equal(f.at(pts).data, [v / f.sup for v in unscaled]), kind


# checks whose bodies reduced residuals with Python's max, which drops a NaN
HIDDEN_NAN_CHECKS = [
    "dirac-split", "leibniz", "spin-module", "spin-left-form", "cov-deriv-torsion",
    "pair-expansion", "s2-levi-civita", "spin-commutator", "antiderivation",
]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_nan_inside_check_body_fails():
    # the fields overflow to infinity at one point, not the first, which
    # makes the residuals NaN there
    bad = _assert_one_point_above(0, X0_SPLIT, 6, 0)
    text = (
        IDENTITY
        + f"[fields]\nA.general.1 = {BIG_X0}\nA.vector.1 = {BIG_X0}\nA.even.0 = {BIG_X0}\n"
        + "[sampling]\nseed = 0\npoints = 6\n"
    )
    report = run_suite(fs.load_scenario(text), only=HIDDEN_NAN_CHECKS)
    for c in report.checks:
        assert not c.passed, c.name
        assert c.max is not None  # the finite points were evaluated
        assert [msg for _, msg in c.errors] == ["non-finite residual nan"], c.name
        assert [x for x, _ in c.errors] == [bad], c.name


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_tetrad_is_a_failing_point_error():
    report = run_suite(fs.load_scenario(INF_TETRAD), points=3)
    bad = _assert_one_point_above(1, X1_SPLIT, 3, 0)
    for c in report.checks:
        assert not c.passed, c.name
        assert [point for point, _ in c.errors] == [bad], c.name
        assert c.errors[0][1].startswith("NonFiniteFrameError: the tetrad is not finite")


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
def test_reports_identical_at_any_worker_count(name, forks):
    # 29 points give uneven shards, and at each worker count one shard per
    # worker: 29 // MIN_SHARD_POINTS = 7
    if name in SHARD_SCENARIOS:
        text, seed = SHARD_SCENARIOS[name]
        sc = fs.load_scenario(text)
    else:
        sc, seed = load_bundled(name), None
    one = run_suite(sc, points=29, seed=seed)
    if name in ("overflow", "non_finite_tetrad"):
        assert any(c.errors for c in one.checks)
    for workers in (2, 3, 7):
        forks.clear()
        report = run_suite(sc, points=29, seed=seed, workers=workers)
        assert len(forks) == shard_children(workers), workers
        assert report.to_json() == one.to_json(), workers
        assert report.to_text() == one.to_text(), workers
    _assert_no_child_left()


def _patched_check(monkeypatch, fn):
    monkeypatch.setitem(CHECKS, "patched", harness.CheckDescriptor("patched", "", (), fn))


def _zero_pairs(ctx):
    """A check's pairs whose residual is 0 at every point of the batch."""
    return [(np.zeros((len(ctx.points), JET_LEN)), None)]


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
def test_exception_in_a_shard_is_reraised(monkeypatch, forks, shard):
    # shard 0 runs in this process, shard 1 in a child; when this process
    # raises, the busy child is stopped, not waited for
    sc = load_bundled("minkowski")
    pts = sample_points(sc, 8)

    def check(ctx):
        if pts[shard] in ctx.points:
            raise KeyError("no such blade")
        if shard == 0 and pts[1] in ctx.points:
            time.sleep(120)
        return _zero_pairs(ctx)

    _patched_check(monkeypatch, check)
    with _deadline(60), pytest.raises(KeyError, match="no such blade"):
        run_suite(sc, points=8, only=["metricity", "patched"], workers=2)
    assert len(forks) == 1
    _assert_no_child_left()


@needs_fork
def test_child_that_exits_raises_runtime_error(monkeypatch, forks):
    sc = load_bundled("minkowski")
    target = sample_points(sc, 8)[1]
    parent = os.getpid()

    def check(ctx):
        # never in this process: os._exit would end the test session
        if target in ctx.points and os.getpid() != parent:
            os._exit(7)
        return _zero_pairs(ctx)

    _patched_check(monkeypatch, check)
    with _deadline(60), pytest.raises(harness.WorkerError, match="^worker process exited with code 7$"):
        run_suite(sc, points=8, only=["patched"], workers=2)
    assert len(forks) == 1
    _assert_no_child_left()


@needs_fork
def test_killed_child_is_a_run_error(monkeypatch, capsys, forks):
    # a worker that dies to a signal (the OOM killer sends SIGKILL) ends
    # the run with one stderr line and exit code 4, not a traceback
    sc = load_bundled("minkowski")
    target = sample_points(sc, 8)[1]
    parent = os.getpid()

    def check(ctx):
        if target in ctx.points and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return _zero_pairs(ctx)

    _patched_check(monkeypatch, check)
    with _deadline(60):
        code = cli_main(["run", "minkowski", "--points", "8", "--only", "patched", "--workers", "2"])
    out = capsys.readouterr()
    assert code == 4
    assert out.out == ""
    assert out.err == "run error: worker process killed by signal 9 (SIGKILL)\n"
    assert len(forks) == 1
    _assert_no_child_left()


@needs_fork
def test_child_killed_while_sending_is_a_worker_error(monkeypatch, forks):
    # a child killed partway through its message leaves a cut-short pickle
    def child(write_fd, shard):
        os.write(write_fd, pickle.dumps((True, harness._eval_shard(*shard), None))[:20])
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(harness, "_shard_child", child)
    sc = load_bundled("minkowski")
    with _deadline(60), pytest.raises(
        harness.WorkerError, match=r"^worker process killed by signal 9 \(SIGKILL\)$"
    ):
        run_suite(sc, points=12, only=["metricity"], workers=3)
    assert len(forks) == 2
    _assert_no_child_left()


def _no_fork():
    raise AssertionError("a child process was forked")


def test_one_shard_forks_nothing(monkeypatch):
    # below MIN_SHARD_POINTS points per worker, fewer shards than workers
    monkeypatch.setattr(os, "fork", _no_fork)
    sc = load_bundled("minkowski")
    for points, workers in [(1, 3), (2, 2), (7, 2), (3, 7)]:
        one = run_suite(sc, points=points, only=["metricity"]).to_json()
        assert run_suite(sc, points=points, only=["metricity"], workers=workers).to_json() == one


@needs_fork
@pytest.mark.parametrize("points, workers, children", [(8, 2, 1), (12, 3, 2), (11, 7, 1), (29, 7, 6)])
def test_shard_plan_forks_a_child_per_shard_after_the_first(forks, points, workers, children):
    assert children == min(workers, max(1, points // harness.MIN_SHARD_POINTS)) - 1
    sc = load_bundled("minkowski")
    one = run_suite(sc, points=points, only=["metricity"]).to_json()
    assert not forks
    assert run_suite(sc, points=points, only=["metricity"], workers=workers).to_json() == one
    assert len(forks) == children
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_worker_that_cannot_start_is_a_run_error(monkeypatch, capsys, call):
    # the second of two children cannot be started (out of processes,
    # memory or file descriptors): the first is killed and reaped, and no
    # descriptor of the failed start is left open
    real = getattr(os, call)
    calls = []

    def fails_second_time():
        calls.append(call)
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, call, fails_second_time)
    open_fds = sorted(os.listdir("/proc/self/fd"))
    with _deadline(60):
        code = cli_main(["run", "minkowski", "--points", "12", "--only", "metricity", "--workers", "3"])
    out = capsys.readouterr()
    assert code == 4
    assert out.out == ""
    assert out.err == f"run error: cannot start worker process: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"
    assert calls == [call, call]
    assert sorted(os.listdir("/proc/self/fd")) == open_fds
    _assert_no_child_left()


def test_shards_run_here_where_fork_is_off(monkeypatch):
    # off Linux the calling process evaluates every point itself
    sc = load_bundled("curved_torsion")
    one = run_suite(sc, points=5)
    monkeypatch.setattr(harness, "FORK_SHARDS", False)
    monkeypatch.setattr(os, "fork", _no_fork)
    report = run_suite(sc, points=5, workers=3)
    assert report.to_json() == one.to_json()
    assert report.to_text() == one.to_text()


# sin and cos of an infinite value raise ValueError("math domain error");
# the product overflows to infinity at x1 > 0.507, not at every point (its
# jets overflow at smaller x1, which makes the tetrad non-finite there)
SIN_OF_INF_TETRAD = (
    '[tetrad]\ne0_0 = "1 + 0*sin(exp(700*x1)*exp(700*x1))"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n'
)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_sin_of_infinity_is_a_point_error(forks):
    sc = fs.load_scenario(SIN_OF_INF_TETRAD)
    pts = sample_points(sc, points=8)
    bad = [p.x for p in pts if p.x[1] > 0.507]
    assert 0 < len(bad) < len(pts)
    one = run_suite(sc, points=8, only=["metricity"])
    (check,) = one.checks
    assert not check.passed and check.max is not None   # the other points ran
    domain = [(x, msg) for x, msg in check.errors if msg.startswith("ValueError")]
    assert domain == [(x, "ValueError: math domain error") for x in bad]
    assert run_suite(sc, points=8, only=["metricity"], workers=2).to_text() == one.to_text()
    assert len(forks) == shard_children(2)


def test_point_hooks_run_once_per_point(monkeypatch):
    # the per-point surface that perfbench's tracer wraps: rebound on the
    # module and in the registry, each hook is looked up at call time
    calls = {"point": 0, "check": []}
    evaluate_point = harness.evaluate_point

    def point(*args, **kwargs):
        calls["point"] += 1
        return evaluate_point(*args, **kwargs)

    desc = CHECKS["metricity"]

    def check(ctx):
        calls["check"].append(ctx.points)
        return desc.fn(ctx)

    monkeypatch.setattr(harness, "evaluate_point", point)
    monkeypatch.setitem(CHECKS, "metricity", dataclasses.replace(desc, fn=check))
    sc = load_bundled("curved_torsion")
    report = run_suite(sc, points=3, only=["metricity", "bianchi"])
    assert report.all_passed()
    assert calls["point"] == 3
    # the check runs once, on the shard's three points
    assert calls["check"] == [tuple(sample_points(sc, points=3))]


def test_check_error_stays_at_its_point(monkeypatch, forks):
    # a check that fails on a batch holding one point is run point by
    # point, so the error reaches only that point
    sc = load_bundled("minkowski")
    pts = sample_points(sc, 16)

    def check(ctx):
        if pts[2] in ctx.points:
            raise GradeError("field must be pure grade 1")
        return _zero_pairs(ctx)

    _patched_check(monkeypatch, check)
    one = run_suite(sc, points=16, only=["patched"])
    (c,) = one.checks
    assert c.errors == [(pts[2].x, "GradeError: field must be pure grade 1")]
    assert c.max == 0.0
    assert run_suite(sc, points=16, only=["patched"], workers=4).to_json() == one.to_json()
    assert len(forks) == shard_children(4)


def test_point_residuals_reduce_each_point_over_every_pair():
    table = np.zeros((2, 3, JET_LEN))
    table[1, 2, 0] = -4.0
    table[0, 0, 5] = 9.0                  # a derivative slot, not a value
    lhs = Multivector.from_array(np.zeros((4, 3, 16, JET_LEN)), 2)
    rhs = Multivector.from_array(np.zeros((4, 3, 16, JET_LEN)), 2)
    rhs.data[2, 0, 7, 0] = 0.5
    rhs.data[3, 2, 1, 0] = 1.0
    rhs.data[0, 1, 3, 0] = np.nan
    got = point_residuals([(table, None), (lhs, rhs)])
    assert got.shape == (3,)
    assert got[0] == 0.5 and np.isnan(got[1]) and got[2] == 4.0


@pytest.fixture(scope="module")
def three_point_batch():
    sc = load_bundled("curved_torsion")
    pts = sample_points(sc, points=3)
    return BatchContext(sc, build_run_fields(sc, sc.sampling.seed, pts), pts)


def _shape_and_points(side):
    """A pair side's array shape and the length of its point axis.  A
    multivector stores the jet width of its order, which two sides of
    different orders do not share: its shape is given without the jet axis.
    A jet table carries no order, and two tables are compared at one width."""
    if isinstance(side, Multivector):
        assert side.data.shape[-1] == width(side.order)
        return side.data.shape[:-1], side.data.shape[-3]
    assert isinstance(side, np.ndarray) and side.shape[-1] in (width(CONN_ORDER), JET_LEN)
    return side.shape, side.shape[-2]


@pytest.mark.parametrize("name", list(CHECKS))
def test_check_returns_the_sides_of_its_identity(name, three_point_batch):
    ctx = three_point_batch
    pairs = CHECKS[name].fn(ctx)
    assert isinstance(pairs, list) and pairs
    for lhs, rhs in pairs:
        shape, n_points = _shape_and_points(lhs)
        assert n_points == 3
        if rhs is not None:
            assert type(rhs) is type(lhs)
            assert _shape_and_points(rhs)[0] == shape
    assert point_residuals(pairs).tobytes() == np.array(ctx.results(name)).tobytes()


# exp(400*x0)^2 overflows for x0 above about 0.89: a chart reaching past it
# has points with non-finite frames, one wholly above it has no other points
OVERFLOWING_FRAME = (
    "[chart]\nx0_min = {lo}\nx0_max = 1.7\n"
    '[tetrad]\ne0_0 = "1 + 0*(exp(400*x0)*exp(400*x0))"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n'
)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("text, code, finite", [
    (IDENTITY, 0, True), (OVERFLOWING_FRAME.format(lo=0.0), 1, True), (OVERFLOWING_FRAME.format(lo=1.0), 1, False),
])
def test_seed_sweep_exits_with_the_reports_verdict(tmp_path, monkeypatch, capsys, text, code, finite):
    path = tmp_path / "sweep.scn"
    path.write_text(text)
    script = Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py"
    sweep = runpy.run_path(str(script))
    monkeypatch.setattr(sys, "argv", ["seed_sweep.py", str(path), "--seeds", "2", "--points", "3"])
    assert sweep["main"]() == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[-1].startswith("worst over all seeds: ")
    assert lines[-1].endswith("n/a") == (not finite)
    for line in lines[:2]:
        assert (" worst n/a" in line) == (not finite)
        assert line.endswith("  34 failing") == (code == 1)
