"""Acceptance criteria, one test per criterion, each printing a PASS line.

Residual-based criteria run through the harness on every bundled scenario
(six sample points each, well under the desk-scale budget) and assert the
per-family tolerances on the reported maxima.
"""

import json
import math

import numpy as np
import pytest

from conftest import BUNDLED, check_residual, load_bundled, rand_float_mv, rand_mv, shard_children
from reference_loops import basis, reversion
from rcdirac import geometry as geo
from rcdirac import harness, jets, operators as ops
from rcdirac.cliffalg import (
    geometric_product as gp,
    grade_project,
    left_contraction,
    wedge,
)
from rcdirac.geometry import ETA, build_frame, curvature
from rcdirac.jets import ChartPoint, seed_coordinate

POINTS = 6


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name in BUNDLED:
        sc = load_bundled(name)
        out[name] = harness.run_suite(sc, points=POINTS)
    return out


def _report_max(reports, check):
    worst = 0.0
    for name in BUNDLED:
        entry = next(c for c in reports[name].checks if c.name == check)
        assert entry.max is not None and not entry.errors, (name, check)
        worst = max(worst, entry.max)
    return worst


def test_criterion_1_algebra_suite():
    E = [basis(a) for a in range(4)]
    for a in range(4):
        for b in range(4):
            lhs = (gp(E[a], E[b]) + gp(E[b], E[a])).data[..., 0]
            want = np.zeros(16)
            want[0] = 2.0 * (ETA[a] if a == b else 0.0)
            assert lhs.tolist() == want.tolist()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        A, B, C = (rand_float_mv(rng) for _ in range(3))
        scale = max(1.0, A.max_abs() * B.max_abs() * C.max_abs())
        assoc = (gp(gp(A, B), C) - gp(A, gp(B, C))).max_abs()
        assert assoc <= 1e-12 * scale
        a = rand_float_mv(rng, grade=1)
        split = (gp(a, B) - left_contraction(a, B) - wedge(a, B)).max_abs()
        assert split <= 1e-12 * max(1.0, a.max_abs() * B.max_abs())
        rev = (reversion(gp(A, B)) - gp(reversion(B), reversion(A))).max_abs()
        assert rev <= 1e-12 * max(1.0, A.max_abs() * B.max_abs())
        parts = grade_project(A, 0)
        for k in range(1, 5):
            parts = parts + grade_project(A, k)
        assert (parts - A).max_abs() == 0.0
    print("ACCEPTANCE 1 algebra suite: PASS")


def test_criterion_2_jet_suite():
    cases = [
        (jets.sin, math.sin, 0.0),
        (jets.cos, math.cos, 0.0),
        (jets.exp, math.exp, 0.0),
        (jets.sqrt, math.sqrt, 2.5),
        (jets.recip, lambda v: 1.0 / v, 2.5),
        (lambda a: jets.pow_int(a, 3), lambda v: v**3, 0.0),
    ]
    rng = np.random.default_rng(77)
    h = 1e-4
    for jet_fn, float_fn, shift in cases:
        for _ in range(100):
            x = rng.uniform(-1, 1, 4)

            def value(q):
                return float_fn(shift + 0.5 * (q[0] + 0.5 * q[1] - 0.25 * q[2] * q[3]))

            p = ChartPoint(tuple(x))
            xs = [seed_coordinate(mu, p) for mu in range(4)]
            j = jet_fn(shift + 0.5 * (xs[0] + 0.5 * xs[1] - 0.25 * xs[2] * xs[3]))
            for mu in range(4):
                up, dn = x.copy(), x.copy()
                up[mu] += h
                dn[mu] -= h
                fd = (value(up) - value(dn)) / (2 * h)
                assert abs(j.grad[mu] - fd) <= 1e-6 * max(1.0, abs(fd))
            for mu in range(4):
                for nu in range(mu, 4):
                    pp, pm, mp, mm = x.copy(), x.copy(), x.copy(), x.copy()
                    pp[mu] += h; pp[nu] += h
                    pm[mu] += h; pm[nu] -= h
                    mp[mu] -= h; mp[nu] += h
                    mm[mu] -= h; mm[nu] -= h
                    fd = (value(pp) - value(pm) - value(mp) + value(mm)) / (4 * h * h)
                    assert abs(j.hess_at(mu, nu) - fd) <= 1e-4 * max(1.0, abs(fd))
    print("ACCEPTANCE 2 jet suite: PASS")


def test_criterion_3_geometry_suite(reports):
    assert _report_max(reports, "metricity") <= 1e-9
    assert _report_max(reports, "torsion-recovery") <= 1e-9
    assert _report_max(reports, "levi-civita") <= 1e-9
    assert _report_max(reports, "bianchi") <= 1e-8
    assert _report_max(reports, "curvature-decomposition") <= 1e-8
    assert _report_max(reports, "contorsion-trace") <= 1e-12
    print("ACCEPTANCE 3 geometry suite: PASS")


def test_criterion_4_first_order_suite(reports):
    for check in (
        "dirac-split",
        "exterior-derivative",
        "codifferential",
        "torsion-splits",
        "torsion-trace-contraction",
        "scalar-laplacian",
        "cov-deriv-torsion",
        "dirac-torsion",
    ):
        assert _report_max(reports, check) <= 1e-9, check
    print("ACCEPTANCE 4 first-order operator suite: PASS")


def test_criterion_5_second_order_suite(reports):
    for check in (
        "scalar-square-forms",
        "square-assembly",
        "pair-expansion",
        "square-torsion-relation",
        "spin-commutator",
        "lichnerowicz",
        "spin-square-relation",
        "spin-standard-square",
        "spin-square-assembly",
    ):
        assert _report_max(reports, check) <= 1e-8, check
    print("ACCEPTANCE 5 second-order suite: PASS")


def test_criterion_6_degenerate_limits():
    sc = load_bundled("minkowski")
    pts = harness.sample_points(sc, points=POINTS)
    rng = np.random.default_rng(6)
    for p in pts:
        g = build_frame(sc, p)
        curv = curvature(g)
        for theta in g.torsion_forms:
            assert theta.max_abs() <= 1e-12
        k_max = max(
            abs(g.K[a, b, c, 0, 0])
            for a in range(4) for b in range(4) for c in range(4)
        )
        assert k_max <= 1e-12
        assert curv.j_form.max_abs() <= 1e-12
        v = rand_mv(rng, p, grade=1)
        A = rand_mv(rng, p)
        s1_grid = ops.vector_square_torsion_correction(g, v)
        s2_grid = ops.spin_square_right_correction(g, A)
        for a in range(4):
            for b in range(4):
                s1 = s1_grid[a, b]
                s2 = s2_grid[a, b]
                assert s1.max_abs() <= 1e-12
                assert s2.max_abs() <= 1e-12
        psi = rand_mv(rng, p, even=True)
        assert curv.scalar[0, 0] == 0.0
        rhs = ops.lichnerowicz_rhs(g, curv, psi)
        wave = sum(
            ops.pfaff(g, ops.pfaff(g, psi, a), a).scale(ETA[a]) for a in range(4)
        )
        assert (rhs - wave).max_abs() <= 1e-12
    print("ACCEPTANCE 6 degenerate limits: PASS")


def test_criterion_7_maxwell_equivalence(reports):
    assert _report_max(reports, "maxwell-equivalence") <= 1e-9
    # and directly with an explicitly non-solution field on each scenario
    rng = np.random.default_rng(7)
    for name in BUNDLED:
        sc = load_bundled(name)
        p = harness.sample_points(sc, points=1, seed=123)[0]
        g = build_frame(sc, p)
        F = rand_mv(rng, p, grade=2)
        Je = rand_mv(rng, p, grade=1)
        clifford, _ = ops.maxwell_residuals(g, F, Je)
        assert clifford.max_abs() > 1e-3
        assert check_residual("maxwell-equivalence", g, bivector=F, current=Je) <= 1e-9
    print("ACCEPTANCE 7 Maxwell equivalence: PASS")


def test_criterion_8_determinism(forks):
    # 12 points: 3 workers get shards of MIN_SHARD_POINTS points, so they fork
    sc = load_bundled("flat_torsion")
    first = harness.run_suite(sc, points=12).to_json()
    second = harness.run_suite(sc, points=12).to_json()
    assert not forks
    third = harness.run_suite(sc, points=12, workers=2).to_json()
    assert len(forks) == shard_children(2)
    fourth = harness.run_suite(sc, points=12, workers=3).to_json()
    assert len(forks) == shard_children(2) + shard_children(3)
    assert first == second == third == fourth
    assert json.loads(first)["points"] == 12
    print("ACCEPTANCE 8 determinism: PASS")
