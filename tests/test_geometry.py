import numpy as np
import pytest

from conftest import BUNDLED, check_residual, rand_scalar_jet
from reference_loops import pair_blade, ref_j_components, ref_riemann_components
from rcdirac import fieldspec as fs
from rcdirac import geometry as geo
from rcdirac import harness
from rcdirac.cliffalg import PLANE_GP, blade_sum, grade_project
from rcdirac.geometry import (
    CURV_ORDER,
    DegenerateFrameError,
    FrameErrors,
    build_frame,
    contorsion,
    curvature,
    torsion_two_forms,
)
from rcdirac.jets import JET_LEN, ChartPoint, slots

IDENTITY = "[tetrad]\ne0_0 = 1\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n"

DIAG_A = """
[chart]
x0_min = 0.2
x0_max = 1.0
[tetrad]
e0_0 = 1
e1_1 = "1 + 0.5*x0^2"
e2_2 = 1
e3_3 = 1
"""

# Expanding spatial frame away from the x0 = 0 singular slice.
EXPANDING = """
[chart]
x0_min = 0.5
x0_max = 1.5
[tetrad]
e0_0 = 1
e1_1 = "x0"
e2_2 = "x0"
e3_3 = "x0"
"""


def jet_table_max(table):
    return float(np.max(np.abs(table[..., 0])))


def test_identity_tetrad_directional_derivative():
    sc = fs.load_scenario(IDENTITY)
    p = ChartPoint((0.3, 0.4, 0.5, 0.6))
    g = build_frame(sc, p)
    rng = np.random.default_rng(0)
    f = rand_scalar_jet(rng, p)
    for a in range(4):
        # the block for order-2 jets: 15 slots in, 5 out
        assert (f.data @ g.derivations[JET_LEN][a, 0])[0] == pytest.approx(f.grad[a], abs=1e-14)


def test_diagonal_tetrad_inverse_against_matrix_oracle():
    sc = fs.load_scenario(DIAG_A)
    p = ChartPoint((0.7, 0.3, 0.2, 0.9))
    g = build_frame(sc, p)
    theta_vals = np.array([[g.tetrad[a, mu, 0, 0] for mu in range(4)] for a in range(4)])
    inv = np.linalg.inv(theta_vals)
    for a in range(4):
        for mu in range(4):
            assert g.frame_vectors[a, mu, 0, 0] == pytest.approx(inv[mu, a], rel=1e-12)
    # e_1 = (1/a) d_1 with a = 1 + 0.5 x0^2
    assert g.frame_vectors[1, 1, 0, 0] == pytest.approx(1.0 / (1 + 0.5 * 0.7**2))


def test_singular_tetrad_raises():
    sc = fs.load_scenario("[tetrad]\ne0_0 = \"x0 - x0\"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n")
    with pytest.raises(FrameErrors) as exc:
        build_frame(sc, ChartPoint((0.3, 0.3, 0.3, 0.3)))
    assert isinstance(exc.value.errors[0], DegenerateFrameError)


def test_structure_coefficients_identity_frame_vanish():
    sc = fs.load_scenario(IDENTITY)
    g = build_frame(sc, ChartPoint((0.1, 0.2, 0.3, 0.4)))
    assert jet_table_max(g.c) == 0.0


def test_structure_coefficients_against_fd_commutator(scenarios):
    """[e_a, e_b]^mu from finite differences of the inverse tetrad values."""
    sc = scenarios["curved_diag"]
    p = ChartPoint((0.6, 0.5, 0.7, 0.4))
    g = build_frame(sc, p)
    h = 1e-5

    def inverse_at(x):
        theta = np.array(
            [[fs.eval_expr(sc.tetrad[a][mu], ChartPoint(tuple(x))).value
              for mu in range(4)] for a in range(4)]
        )
        return np.linalg.inv(theta)  # inv[mu][a] = e_a^mu

    base = np.array(p.x)
    for a in range(4):
        for b in range(a + 1, 4):
            bracket = np.zeros(4)
            for nu in range(4):
                up = base.copy(); up[nu] += h
                dn = base.copy(); dn[nu] -= h
                d_nu = (inverse_at(up) - inverse_at(dn)) / (2 * h)
                e_a = inverse_at(base)[:, a]
                e_b = inverse_at(base)[:, b]
                bracket += e_a[nu] * d_nu[:, b] - e_b[nu] * d_nu[:, a]
            for c in range(4):
                theta_c = np.array([g.tetrad[c, mu, 0, 0] for mu in range(4)])
                want = float(theta_c @ bracket)
                assert g.c[c, a, b, 0, 0] == pytest.approx(want, abs=1e-6)


def test_structure_coefficients_antisymmetry(frames):
    for geoms in frames.values():
        for g in geoms:
            for c in range(4):
                for a in range(4):
                    for b in range(4):
                        s = g.c[c, a, b, 0] + g.c[c, b, a, 0]
                        assert abs(s[0]) == 0.0


def test_levi_civita_identity_frame_vanishes():
    sc = fs.load_scenario(IDENTITY)
    g = build_frame(sc, ChartPoint((0.1, 0.2, 0.3, 0.4)))
    assert jet_table_max(g.lc) == 0.0


def test_levi_civita_defining_residuals(frames):
    for geoms in frames.values():
        for g in geoms:
            assert check_residual("levi-civita", g) <= 1e-9


def test_levi_civita_against_coordinate_christoffel_oracle():
    """Push finite-difference coordinate Christoffels of the metric to the
    frame and compare with the structure-coefficient closed form."""
    sc = fs.load_scenario(EXPANDING)
    p = ChartPoint((1.0, 0.4, 0.6, 0.8))
    g = build_frame(sc, p)
    h = 1e-5
    eta = np.diag([1.0, -1.0, -1.0, -1.0])

    def tetrad_at(x):
        return np.array(
            [[fs.eval_expr(sc.tetrad[a][mu], ChartPoint(tuple(x))).value
              for mu in range(4)] for a in range(4)]
        )

    def metric_at(x):
        th = tetrad_at(x)
        return th.T @ eta @ th

    base = np.array(p.x)
    dg = np.zeros((4, 4, 4))  # dg[mu][alpha][beta] = d_mu g_ab
    for mu in range(4):
        up = base.copy(); up[mu] += h
        dn = base.copy(); dn[mu] -= h
        dg[mu] = (metric_at(up) - metric_at(dn)) / (2 * h)
    ginv = np.linalg.inv(metric_at(base))
    gamma = np.zeros((4, 4, 4))  # gamma[lam][mu][nu]
    for lam in range(4):
        for mu in range(4):
            for nu in range(4):
                gamma[lam, mu, nu] = 0.5 * sum(
                    ginv[lam, s] * (dg[mu][s, nu] + dg[nu][s, mu] - dg[s][mu, nu])
                    for s in range(4)
                )
    theta = tetrad_at(base)
    einv = np.linalg.inv(theta)  # einv[mu][a] = e_a^mu
    de = np.zeros((4, 4, 4))     # de[mu][nu][a] = d_mu e_a^nu
    for mu in range(4):
        up = base.copy(); up[mu] += h
        dn = base.copy(); dn[mu] -= h
        de[mu] = (np.linalg.inv(tetrad_at(up)) - np.linalg.inv(tetrad_at(dn))) / (2 * h)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                want = 0.0
                for mu in range(4):
                    for lam in range(4):
                        cov = de[mu][lam, c] + sum(
                            gamma[lam, mu, nu] * einv[nu, c] for nu in range(4)
                        )
                        want += theta[b, lam] * einv[mu, a] * cov
                assert g.lc[a, b, c, 0, 0] == pytest.approx(want, abs=2e-5)


def test_contorsion_zero_for_zero_torsion(frames):
    for g in frames["minkowski"] + frames["curved_diag"]:
        assert jet_table_max(g.K) == 0.0


def test_contorsion_half_torsion_for_totally_antisymmetric(frames):
    for g in frames["flat_torsion"] + frames["curved_torsion"]:
        worst = 0.0
        for be in range(4):
            for al in range(4):
                for rh in range(4):
                    # the values: K stores 5 jet slots and T 15
                    diff = g.K[be, al, rh, 0, 0] - 0.5 * g.T[al, be, rh, 0, 0]
                    worst = max(worst, abs(diff))
        assert worst <= 1e-14


def test_contorsion_trace_identity(frames, general_torsion):
    for geoms in frames.values():
        for g in geoms:
            assert check_residual("contorsion-trace", g) <= 1e-12
    g = build_frame(general_torsion, ChartPoint((0.5, 0.6, 0.7, 0.8)))
    assert check_residual("contorsion-trace", g) <= 1e-12


def test_full_connection_reduces_to_levi_civita_without_torsion(frames):
    for g in frames["curved_diag"]:
        diff = max(
            abs((g.full[a, b, c, 0] - g.lc[a, b, c, 0])[0])
            for a in range(4) for b in range(4) for c in range(4)
        )
        assert diff == 0.0


def test_metricity_and_torsion_recovery(frames, general_torsion):
    geoms = [g for gs in frames.values() for g in gs]
    geoms.append(build_frame(general_torsion, ChartPoint((0.5, 0.6, 0.7, 0.8))))
    for g in geoms:
        assert check_residual("metricity", g) <= 1e-9
        assert check_residual("torsion-recovery", g) <= 1e-9


def test_torsion_two_forms(frames):
    for g in frames["minkowski"] + frames["curved_diag"]:
        assert all(t.max_abs() == 0.0 for t in g.torsion_forms)
    sc = fs.load_scenario(IDENTITY + "[torsion]\nT2_01 = 0.3\n")
    g = build_frame(sc, ChartPoint((0.1, 0.2, 0.3, 0.4)))
    thetas = g.torsion_forms
    assert np.array_equal(torsion_two_forms(g.T).data, thetas.data)
    idx, _ = pair_blade(0, 1)
    vals = thetas[2, 0].data[..., 0]
    assert vals[idx] == 0.3
    vals[idx] = 0.0
    assert np.all(vals == 0.0)
    assert thetas[0].max_abs() == 0.0


def test_curvature_minkowski_vanishes(frames):
    g = frames["minkowski"][0]
    curv = curvature(g)
    assert jet_table_max(curv.components) == 0.0
    assert curv.scalar[0, 0] == 0.0


def test_curvature_antisymmetries(frames):
    for geoms in frames.values():
        for g in geoms:
            curv = curvature(g)
            for a in range(4):
                for b in range(4):
                    for c in range(4):
                        for d in range(4):
                            s = curv.components[a, b, c, d, 0] + curv.components[a, b, d, c, 0]
                            assert abs(s[0]) == 0.0


def test_first_bianchi(frames):
    for geoms in frames.values():
        for g in geoms:
            assert check_residual("bianchi", g) <= 1e-8


def test_decomposition(frames, general_torsion):
    geoms = [g for gs in frames.values() for g in gs]
    geoms.append(build_frame(general_torsion, ChartPoint((0.5, 0.6, 0.7, 0.8))))
    for g in geoms:
        assert check_residual("curvature-decomposition", g) <= 1e-8


def test_flat_torsion_curvature_is_pure_contorsion(frames):
    # with an identity tetrad the torsion-free curvature vanishes, so the
    # full curvature must equal the contorsion-induced difference
    for g in frames["flat_torsion"]:
        curv = curvature(g)
        assert jet_table_max(curv.lc_components) == 0.0
        assert check_residual("curvature-decomposition", g, curv) <= 1e-14


def test_quadriform_zero_without_torsion(frames):
    for g in frames["minkowski"] + frames["curved_diag"]:
        curv = curvature(g)
        assert curv.j_form.max_abs() == 0.0
        assert jet_table_max(curv.j_components) == 0.0


def test_quadriform_is_pure_grade4(frames):
    for g in frames["curved_torsion"]:
        curv = curvature(g)
        vals = curv.j_form[0].data[..., 0]
        assert vals[15] != 0.0
        for i in range(15):
            assert vals[i] == 0.0


def test_quadriform_matches_curvature_contraction(frames):
    # the grade-4 part of the biform contraction, divided by four, must
    # reproduce the contorsion-route quadriform (first Bianchi at work)
    for name in ("flat_torsion", "curved_torsion"):
        for g in frames[name]:
            curv = curvature(g)
            grade4 = grade_project(blade_sum(PLANE_GP, curv.biforms), 4)
            diff = grade4.scale(0.25) - curv.j_form
            assert diff.max_abs() <= 1e-12


def test_eta_trace_of_biforms_vanishes(frames):
    for geoms in frames.values():
        for g in geoms:
            curv = curvature(g)
            trace = sum(curv.biforms[a][a].scale(geo.ETA[a]) for a in range(4))
            assert trace.max_abs() == 0.0
            worst = max(
                (curv.biforms[a][b] + curv.biforms[b][a]).max_abs()
                for a in range(4) for b in range(4)
            )
            assert worst <= 1e-14


def test_ricci_antisymmetry_condition(frames, general_torsion):
    # co-closed (here: constant or dual-of-exact) skew torsion keeps the
    # grade-2 contraction at zero; generic torsion does not
    for name in BUNDLED:
        for g in frames[name]:
            assert curvature(g).contraction_grade2.max_abs() <= 1e-12
    g = build_frame(general_torsion, ChartPoint((0.5, 0.6, 0.7, 0.8)))
    assert curvature(g).contraction_grade2.max_abs() > 1e-3


def test_curvature_tables_match_index_loops(frames, general_torsion):
    geoms = [g for gs in frames.values() for g in gs]
    geoms.append(build_frame(general_torsion, ChartPoint((0.5, 0.6, 0.7, 0.8))))
    for g in geoms:
        curv = curvature(g)
        for got, want in (
            (curv.components, ref_riemann_components(g, g.full)),
            (curv.lc_components, ref_riemann_components(g, g.lc)),
            (curv.j_components, ref_j_components(g)),
        ):
            # the jet slots valid at the curvature's order
            got, want = got[..., :slots(CURV_ORDER)], want[..., :slots(CURV_ORDER)]
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


# R x S^3 with the round S^3 of radius 2 in Euler angles (x1, x2, x3) and the
# torsion of the flat Cartan-Schouten connection that parallelizes it
R_X_S3 = """
[chart]
x1_min = 0.4
x1_max = 1.2
[tetrad]
e0_0 = 1
e1_1 = "sin(x3)"
e1_2 = "-cos(x3)*sin(x1)"
e2_1 = "cos(x3)"
e2_2 = "sin(x3)*sin(x1)"
e3_2 = "cos(x1)"
e3_3 = 1
[torsion]
T1_23 = -1
T2_13 = 1
T3_12 = -1
"""


def _known_answer(text):
    """Run every check on a known-answer scenario at 10 points (seed 1),
    assert that all of them pass, and return the frame and curvature at
    those points."""
    sc = fs.load_scenario(text)
    report = harness.run_suite(sc, points=10, seed=1)
    assert len(report.checks) == len(harness.CHECKS)
    assert all(c.passed and not c.errors for c in report.checks), report.to_text()
    g = build_frame(sc, harness.sample_points(sc, 10, 1))
    return g, curvature(g)


def test_known_answer_r_x_s3_with_parallelizing_torsion():
    # every check passes, lichnerowicz and ricci-antisymmetry too, which need
    # co-closed torsion
    g, curv = _known_answer(R_X_S3)
    # the full connection and its curvature vanish: the frame is parallel,
    # and so is the constant torsion
    assert np.abs(g.full).max() <= 1e-13
    assert not g.T[..., 1:].any()
    assert np.abs(curv.components).max() <= 1e-13
    # the Levi-Civita sectional curvature of a coordinate plane of S^3 is 1/r^2
    assert np.abs(curv.lc_components[1, 2, 1, 2, :, 0] - 0.25).max() <= 1e-12


# de Sitter space in flat slicing, e_i = exp(H x0) dx^i with H = 1/2
DE_SITTER = """
[tetrad]
e0_0 = 1
e1_1 = "exp(0.5*x0)"
e2_2 = "exp(0.5*x0)"
e3_3 = "exp(0.5*x0)"
"""

# Minkowski space in a frame rotated by 0.7 x0 x3 + x2 in the (1, 2) plane:
# a connection that is pure gauge, with no curvature
PURE_GAUGE = """
[tetrad]
e0_0 = 1
e1_1 = "cos(0.7*x0*x3 + x2)"
e1_2 = "sin(0.7*x0*x3 + x2)"
e2_1 = "-sin(0.7*x0*x3 + x2)"
e2_2 = "cos(0.7*x0*x3 + x2)"
e3_3 = 1
"""


@pytest.mark.parametrize(
    "text, h2, conn, tol",
    [
        # the connection coefficients are 0 and +-H
        pytest.param(DE_SITTER, 0.25, (0.5, 0.5), 1e-12, id="de_sitter"),
        # only a connection term, which the curvature's derivative terms cancel
        pytest.param(PURE_GAUGE, 0.0, (0.5, np.inf), 1e-13, id="pure_gauge"),
    ],
)
def test_known_answer_torsion_free_constant_curvature(text, h2, conn, tol):
    g, curv = _known_answer(text)
    # without torsion the full connection is the Levi-Civita one
    assert not g.T.any() and np.array_equal(g.full, g.lc)
    assert conn[0] - tol <= np.abs(g.full).max() <= conn[1] + tol
    # constant curvature h2 = H^2: R^a_{bcd} = -h2 (delta^a_c eta_bd -
    # delta^a_d eta_bc), so R^0_{101} = R^1_{212} = h2 and 24 components
    # per point are +-h2
    eta = np.diag(geo.ETA)
    want = -h2 * (np.einsum("ac,bd->abcd", np.eye(4), eta) - np.einsum("ad,bc->abcd", np.eye(4), eta))
    got = curv.components[..., 0]
    assert np.abs(got - want[..., None]).max() <= tol
    assert np.count_nonzero(want) == (24 if h2 else 0)
    assert np.abs(got[0, 1, 0, 1] - h2).max() <= tol and np.abs(got[1, 2, 1, 2] - h2).max() <= tol
    assert not curv.components[..., 1:].any()
    # the biform scalar is 12 H^2, the R of Lichnerowicz's D^2 = nabla* nabla + R / 4,
    # which the lichnerowicz check has just confirmed
    assert np.abs(curv.scalar[:, 0] - 12 * h2).max() <= tol
    assert not curv.scalar[:, 1:].any()
