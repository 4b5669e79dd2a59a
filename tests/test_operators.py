import numpy as np
import pytest

from conftest import check_residual, rand_mv, rand_scalar_jet
from reference_loops import RefMV, full_width, ref_exterior_d
from rcdirac import fieldspec as fs
from rcdirac import geometry as geo
from rcdirac import harness
from rcdirac import operators as ops
from rcdirac.cliffalg import (
    GradeError,
    Multivector,
    geometric_product,
    grade_involution,
    grade_project,
    left_contraction,
    wedge,
)
from rcdirac.geometry import ETA, THETA, build_frame, curvature
from rcdirac.jets import ChartPoint, Jet2, partial, seed_coordinate, slots

IDENTITY = "[tetrad]\ne0_0 = 1\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n"


@pytest.fixture(scope="module")
def curvatures(frames):
    return {name: [curvature(g) for g in geoms] for name, geoms in frames.items()}


def scalar_mv(f):
    return Multivector([f] + [0.0] * 15)


# -- first-order examples ------------------------------------------------------


def test_flat_dirac_of_coordinate():
    sc = fs.load_scenario(IDENTITY)
    p = ChartPoint((0.3, 0.7, 0.1, 0.9))
    g = build_frame(sc, p)
    f = seed_coordinate(1, p)
    out = ops.dirac(g, scalar_mv(f), "lc")
    vals = out[0].values()
    assert vals[2] == 1.0  # coefficient of e1
    vals[2] = 0.0
    assert np.all(vals == 0.0)


def test_cov_deriv_of_constant_vanishes_flat():
    sc = fs.load_scenario(IDENTITY)
    p = ChartPoint((0.3, 0.7, 0.1, 0.9))
    g = build_frame(sc, p)
    A = Multivector([0.5] * 16)
    for a in range(4):
        assert ops.cov_deriv(g, A, a, "full").max_abs() == 0.0


def test_cov_deriv_of_coframe_reproduces_connection(frames):
    for geoms in frames.values():
        for g in geoms:
            for a in range(4):
                for b in range(4):
                    got = ops.cov_deriv(g, THETA[b], a, "full")
                    want = sum(
                        THETA[c].scale(-g.full[a][b][c], geo.CONN_ORDER) for c in range(4)
                    )
                    assert (got - want).max_abs() <= 1e-12


def test_spin_deriv_is_pfaff_when_flat():
    sc = fs.load_scenario(IDENTITY)
    p = ChartPoint((0.3, 0.7, 0.1, 0.9))
    g = build_frame(sc, p)
    rng = np.random.default_rng(1)
    psi = rand_mv(rng, p, even=True)
    for a in range(4):
        diff = ops.spin_cov_deriv(g, psi, a) - ops.pfaff(g, psi, a)
        assert diff.max_abs() == 0.0


def test_zero_torsion_operators_coincide(frames):
    rng = np.random.default_rng(2)
    for name in ("minkowski", "curved_diag"):
        for g in frames[name]:
            A = rand_mv(rng, g.point)
            assert (ops.dirac(g, A, "full") - ops.dirac(g, A, "lc")).max_abs() <= 1e-15


def test_torsion_operator_examples(frames):
    rng = np.random.default_rng(3)
    for g in frames["minkowski"]:
        v = rand_mv(rng, g.point, grade=1)
        for a in range(4):
            assert ops.torsion_operators(g, v)[a].max_abs() == 0.0
    for g in frames["flat_torsion"]:
        v = rand_mv(rng, g.point, grade=1)
        # on every grade the torsion operator is a derivation of the
        # geometric product: tau_a(v B) = tau_a(v) B + v tau_a(B)
        B = rand_mv(rng, g.point, grade=2)
        tau_vb = ops.torsion_operators(g, geometric_product(v, B))
        tau_v, tau_b = ops.torsion_operators(g, v), ops.torsion_operators(g, B)
        leibniz = geometric_product(tau_v, B) + geometric_product(v, tau_b)
        assert (tau_vb - leibniz).max_abs() <= 1e-14
        assert tau_b.max_abs() > 1e-3
        # antisymmetry through the two slots: tau(e_a, theta-dual of e_a) has
        # no diagonal part: T^rho_{aa} = 0
        got = ops.torsion_operators(g, THETA[1].scale(ETA[1]))[1]
        assert got.max_abs() <= 1e-15


def test_exterior_derivative_of_scalar_twice_vanishes(frames):
    rng = np.random.default_rng(4)
    for geoms in frames.values():
        for g in geoms:
            f = rand_scalar_jet(rng, g.point)
            ddf = ops.exterior_d(g, ops.exterior_d(g, scalar_mv(f)))
            assert ddf.max_abs() <= 1e-9


def test_exterior_derivative_matches_blade_expansion(frames, general_torsion):
    rng = np.random.default_rng(33)
    geoms = [g for gs in frames.values() for g in gs]
    geoms.append(build_frame(general_torsion, ChartPoint((0.5, 0.6, 0.7, 0.8))))
    for g in geoms:
        A = rand_mv(rng, g.point)
        got = ops.exterior_d(g, A)
        n = slots(got.order)   # the jet slots valid at the result's order
        want = ref_exterior_d(g, RefMV.of(A)).data()[..., :n]
        assert np.max(np.abs(got.data[..., :n] - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_codifferential_on_scalar_vanishes(frames):
    rng = np.random.default_rng(5)
    for geoms in frames.values():
        for g in geoms:
            f = rand_scalar_jet(rng, g.point)
            assert ops.codifferential(g, scalar_mv(f)).max_abs() <= 1e-12


def test_prop1_splits(frames):
    rng = np.random.default_rng(6)
    for geoms in frames.values():
        for g in geoms:
            A = rand_mv(rng, g.point)
            d = ops.exterior_d(g, A)
            delta = ops.codifferential(g, A)
            assert (ops.dirac_wedge(g, A, "lc") - d).max_abs() <= 1e-9
            assert (ops.dirac_contract(g, A, "lc") + delta).max_abs() <= 1e-9
            split = ops.dirac(g, A, "lc") - d + delta
            assert split.max_abs() <= 1e-9


def test_torsion_splits_general_grade(frames, general_torsion):
    rng = np.random.default_rng(7)
    geoms = [g for gs in frames.values() for g in gs]
    geoms.append(build_frame(general_torsion, ChartPoint((0.5, 0.6, 0.7, 0.8))))
    for g in geoms:
        A = rand_mv(rng, g.point)
        thetas = g.torsion_forms
        wedge_corr = sum(
            wedge(thetas[r], left_contraction(THETA[r].scale(ETA[r]), A)) for r in range(4)
        )
        contract_corr = sum(
            left_contraction(thetas[r], wedge(THETA[r].scale(ETA[r]), A)) for r in range(4)
        )
        w = ops.dirac_wedge(g, A) - ops.dirac_wedge(g, A, "lc") + wedge_corr
        c = ops.dirac_contract(g, A) - ops.dirac_contract(g, A, "lc") + contract_corr
        assert w.max_abs() <= 1e-9
        assert c.max_abs() <= 1e-9


def test_torsion_trace_contraction_with_nonzero_trace(general_torsion):
    rng = np.random.default_rng(8)
    p = ChartPoint((0.5, 0.6, 0.7, 0.8))
    g = build_frame(general_torsion, p)
    Q = [Jet2(full_width(q), geo.CONN_ORDER) for q in geo.torsion_trace(g)[:, 0]]
    assert max(abs(q.value) for q in Q) > 1e-3  # trace genuinely exercised
    f = rand_scalar_jet(rng, p)
    df = ops.dirac(g, scalar_mv(f), "lc")
    thetas = g.torsion_forms
    lhs = sum(
        left_contraction(thetas[r], wedge(THETA[r].scale(ETA[r]), df)) for r in range(4)
    )
    # e_b f = e_b^mu d_mu f, from the frame vectors of the one-point frame
    e_f = [sum(Jet2(g.frame_vectors[b, mu, 0]) * partial(f, mu) for mu in range(4)) for b in range(4)]
    rhs = sum(-(ETA[b] * Q[b]) * e_f[b] for b in range(4))
    assert (lhs - Multivector.scalar(rhs)).max_abs() <= 1e-9


def test_r5_r6_on_totally_antisymmetric_scenarios(frames):
    rng = np.random.default_rng(9)
    for name in ("flat_torsion", "curved_torsion"):
        for g in frames[name]:
            v = rand_mv(rng, g.point, grade=1)
            for a in range(4):
                resid = (
                    ops.cov_deriv(g, v, a, "full")
                    - ops.cov_deriv(g, v, a, "lc")
                    - ops.torsion_operators(g, v)[a].scale(0.5)
                )
                assert resid.max_abs() <= 1e-9
            corr = sum(
                geometric_product(
                    THETA[a], ops.torsion_operators(g, v)[a]
                ).scale(0.5)
                for a in range(4)
            )
            resid = ops.dirac(g, v, "full") - ops.dirac(g, v, "lc") - corr
            assert resid.max_abs() <= 1e-9


# -- scalar squares --------------------------------------------------------------


def test_flat_wave_operator_on_squared_coordinate():
    sc = fs.load_scenario(IDENTITY)
    p = ChartPoint((0.4, 0.2, 0.8, 0.6))
    g = build_frame(sc, p)
    x0 = seed_coordinate(0, p)
    out = ops.dirac_square_direct(g, scalar_mv(x0 * x0), "full")
    vals = out[0].values()
    assert vals[0] == pytest.approx(2.0)
    vals[0] = 0.0
    assert np.max(np.abs(vals)) <= 1e-15


def test_flat_wave_operator_spatial_sign():
    # signature (+,-,-,-): the square of a spatial coordinate gets -2
    sc = fs.load_scenario(IDENTITY)
    p = ChartPoint((0.4, 0.2, 0.8, 0.6))
    g = build_frame(sc, p)
    x1 = seed_coordinate(1, p)
    out = ops.dirac_square_direct(g, scalar_mv(x1 * x1), "full")
    assert out[0].values()[0] == pytest.approx(-2.0)


def test_dirac_defaults_to_full_connection(frames):
    rng = np.random.default_rng(99)
    g = frames["flat_torsion"][0]
    A = rand_mv(rng, g.point)
    assert (ops.dirac(g, A) - ops.dirac(g, A, "full")).max_abs() == 0.0
    assert (ops.dirac(g, A) - ops.dirac(g, A, "lc")).max_abs() > 1e-3


def test_flat_wave_operator_on_crossterm():
    sc = fs.load_scenario(IDENTITY)
    p = ChartPoint((0.4, 0.2, 0.8, 0.6))
    g = build_frame(sc, p)
    x1 = seed_coordinate(1, p)
    x2 = seed_coordinate(2, p)
    out = ops.dirac_square_direct(g, scalar_mv(x1 * x2), "full")
    assert out.max_abs() <= 1e-15  # eta^{12} = 0 and no grade-2 part, flat


def test_scalar_square_forms_agree(frames, general_torsion):
    rng = np.random.default_rng(10)
    geoms = [g for gs in frames.values() for g in gs]
    geoms.append(build_frame(general_torsion, ChartPoint((0.5, 0.6, 0.7, 0.8))))
    for g in geoms:
        f = scalar_mv(rand_scalar_jet(rng, g.point))
        direct = ops.dirac_square_direct(g, f, "full")
        std = ops.scalar_square_standard_form(g, f)
        conn = ops.scalar_square_connection_form(g, f)
        assert (std - conn).max_abs() <= 1e-9
        assert (std - direct).max_abs() <= 1e-8
        assert (conn - direct).max_abs() <= 1e-8


def test_scalar_square_zero_torsion_reduces_to_laplacian(frames):
    rng = np.random.default_rng(11)
    for g in frames["curved_diag"]:
        f = scalar_mv(rand_scalar_jet(rng, g.point))
        mdel = ops.codifferential(g, ops.exterior_d(g, f)).scale(-1.0)
        assert (ops.scalar_square_standard_form(g, f) - mdel).max_abs() <= 1e-9


def test_wave_part_plus_biform_part_is_standard_form(frames):
    rng = np.random.default_rng(12)
    for g in frames["flat_torsion"]:
        f = scalar_mv(rand_scalar_jet(rng, g.point))
        assembled = ops.scalar_wave_part(g, f) + ops.scalar_square_biform_part(g, f)
        assert (assembled - ops.scalar_square_standard_form(g, f)).max_abs() == 0.0


def test_scalar_form_rejects_nothing_but_scalars():
    # the scalar forms take a scalar field; grade gating happens in callers.  The
    # direct square on a non-scalar is fine (general multivector), and so is
    # the torsion-operator path, which is a commutator on every grade: with
    # no torsion its correction vanishes on a bivector
    sc = fs.load_scenario(IDENTITY)
    p = ChartPoint((0.4, 0.2, 0.8, 0.6))
    g = build_frame(sc, p)
    rng = np.random.default_rng(13)
    assert ops.vector_square_torsion_correction(g, rand_mv(rng, p, grade=2)).max_abs() == 0.0


# -- second-order relations -------------------------------------------------------


def test_square_assembly_both_variants(frames):
    rng = np.random.default_rng(14)
    for geoms in frames.values():
        for g in geoms:
            A = rand_mv(rng, g.point)
            direct = ops.dirac_square_direct(g, A, "full")
            plain, anti = ops.dirac_square_assemblies(g, A, "full")
            assert (plain - direct).max_abs() <= 1e-8
            assert (anti - direct).max_abs() <= 1e-8


def test_pair_expansion_and_square_relation(frames):
    rng = np.random.default_rng(15)
    for name in ("flat_torsion", "curved_torsion"):
        for g in frames[name]:
            v = rand_mv(rng, g.point, grade=1)
            assert check_residual("pair-expansion", g, vector=v) <= 1e-8
            assert check_residual("square-torsion-relation", g, vector=v) <= 1e-8


def test_spin_square_zero_for_flat_constant_field():
    sc = fs.load_scenario(IDENTITY)
    p = ChartPoint((0.4, 0.2, 0.8, 0.6))
    g = build_frame(sc, p)
    psi = Multivector([Jet2.const(0.3) if i in (0, 5, 15) else 0.0 for i in range(16)])
    assert ops.spin_dirac_square_direct(g, psi).max_abs() == 0.0


def test_spin_commutator_both_forms(frames, curvatures):
    rng = np.random.default_rng(16)
    for name, geoms in frames.items():
        for g, curv in zip(geoms, curvatures[name]):
            psi = rand_mv(rng, g.point, even=True)
            commutator, bracket, expanded = ops.spin_commutator_forms(g, curv, psi)
            assert harness.point_residuals([(commutator, bracket)]) <= 1e-8
            assert harness.point_residuals([(commutator, expanded)]) <= 1e-8


def test_spin_commutator_diagonal_vanishes(frames, curvatures):
    rng = np.random.default_rng(17)
    g = frames["curved_torsion"][0]
    curv = curvatures["curved_torsion"][0]
    psi = rand_mv(rng, g.point, even=True)
    spin1 = [ops.spin_cov_deriv(g, psi, c) for c in range(4)]
    for a in range(4):
        lhs = ops.spin_cov_deriv(g, spin1[a], a) - ops.spin_cov_deriv(g, spin1[a], a)
        assert lhs.max_abs() == 0.0
        assert curv.biforms[a][a].max_abs() == 0.0


def test_lichnerowicz_on_bundled(frames, curvatures):
    rng = np.random.default_rng(18)
    for name, geoms in frames.items():
        for g, curv in zip(geoms, curvatures[name]):
            psi = rand_mv(rng, g.point, even=True)
            assert check_residual("lichnerowicz", g, curv, even=psi) <= 1e-8


def test_lichnerowicz_minkowski_reduces_to_wave_operator(frames, curvatures):
    rng = np.random.default_rng(19)
    g = frames["minkowski"][0]
    curv = curvatures["minkowski"][0]
    psi = rand_mv(rng, g.point, even=True)
    rhs = ops.lichnerowicz_rhs(g, curv, psi)
    wave = sum(
        ops.pfaff(g, ops.pfaff(g, psi, a), a).scale(ETA[a]) for a in range(4)
    )
    assert curv.scalar[0, 0] == 0.0
    assert (rhs - wave).max_abs() <= 1e-12


def test_spin_square_relation_per_grade(frames):
    rng = np.random.default_rng(20)
    g = frames["flat_torsion"][0]
    for grade in range(5):
        A = rand_mv(rng, g.point, grade=grade)
        assert check_residual("spin-square-relation", g, general=A) <= 1e-8


def test_spin_square_relation_general_torsion(general_torsion):
    rng = np.random.default_rng(21)
    p = ChartPoint((0.5, 0.6, 0.7, 0.8))
    g = build_frame(general_torsion, p)
    A = rand_mv(rng, p)
    assert check_residual("spin-square-relation", g, general=A) <= 1e-8


def test_spin_standard_square_and_lc_form(frames):
    rng = np.random.default_rng(22)
    for name in ("flat_torsion", "curved_torsion"):
        for g in frames[name]:
            v = rand_mv(rng, g.point, grade=1)
            assert check_residual("spin-standard-square", g, vector=v) <= 1e-8
            assert check_residual("s2-levi-civita", g, vector=v) <= 1e-8


def test_spin_square_assembly(frames):
    rng = np.random.default_rng(23)
    for geoms in frames.values():
        for g in geoms:
            psi = rand_mv(rng, g.point, even=True)
            assert check_residual("spin-square-assembly", g, even=psi) <= 1e-8


def test_right_action_correction_zero_when_flat():
    sc = fs.load_scenario(IDENTITY)
    p = ChartPoint((0.4, 0.2, 0.8, 0.6))
    g = build_frame(sc, p)
    rng = np.random.default_rng(24)
    A = rand_mv(rng, p)
    grid = ops.spin_square_right_correction(g, A)
    for a in range(4):
        for b in range(4):
            assert grid[a, b].max_abs() == 0.0


def test_torsion_corrections_zero_without_torsion(frames):
    rng = np.random.default_rng(25)
    for g in frames["curved_diag"]:
        v = rand_mv(rng, g.point, grade=1)
        grid = ops.vector_square_torsion_correction(g, v)
        for a in range(4):
            for b in range(4):
                corr = grid[a, b]
                assert corr.max_abs() == 0.0


# -- Maxwell forms ------------------------------------------------------------------


def test_maxwell_equivalence(frames, general_torsion):
    rng = np.random.default_rng(26)
    geoms = [g for gs in frames.values() for g in gs]
    geoms.append(build_frame(general_torsion, ChartPoint((0.5, 0.6, 0.7, 0.8))))
    for g in geoms:
        F = rand_mv(rng, g.point, grade=2)
        Je = rand_mv(rng, g.point, grade=1)
        clifford, _ = ops.maxwell_residuals(g, F, Je)
        assert check_residual("maxwell-equivalence", g, bivector=F, current=Je) <= 1e-9
        # residuals themselves are O(1): F does not solve the equation
        assert clifford.max_abs() > 1e-3


def test_maxwell_solution_by_construction(frames):
    # F = d(potential) with J_e taken as the Dirac derivative of F: with zero
    # torsion the wedge part of dirac(F) is d(dA) = 0, so J_e is grade 1 and
    # the Clifford residual vanishes by construction.
    rng = np.random.default_rng(27)
    for name in ("minkowski", "curved_diag"):
        g = frames[name][0]
        potential = rand_mv(rng, g.point, grade=1)
        F = ops.exterior_d(g, potential)
        Je = ops.dirac(g, F, "full")
        assert (Je - grade_project(Je, 1)).max_abs() <= 1e-9
        clifford, _ = ops.maxwell_residuals(g, F, grade_project(Je, 1))
        assert clifford.max_abs() <= 1e-9
        assert check_residual("maxwell-equivalence", g, bivector=F, current=grade_project(Je, 1)) <= 1e-9


def test_maxwell_flat_constant_field():
    sc = fs.load_scenario(IDENTITY)
    p = ChartPoint((0.4, 0.2, 0.8, 0.6))
    g = build_frame(sc, p)
    F = Multivector([Jet2.const(1.0) if i == 5 else 0.0 for i in range(16)])
    Je = Multivector([Jet2.const(0.0) if i in (1, 2, 3, 4) else 0.0 for i in range(16)])
    clifford, spin = ops.maxwell_residuals(g, F, Je)
    assert clifford.max_abs() == 0.0
    assert spin.max_abs() == 0.0
    assert check_residual("maxwell-equivalence", g, bivector=F, current=Je) == 0.0


def test_maxwell_grade_errors(frames):
    rng = np.random.default_rng(28)
    g = frames["minkowski"][0]
    with pytest.raises(GradeError):
        ops.maxwell_residuals(g, rand_mv(rng, g.point, grade=1), rand_mv(rng, g.point, grade=1))
    with pytest.raises(GradeError):
        ops.maxwell_residuals(g, rand_mv(rng, g.point, grade=2), rand_mv(rng, g.point, grade=2))


# -- derivation properties -----------------------------------------------------------


def test_leibniz_and_module_rules(frames):
    rng = np.random.default_rng(29)
    g = frames["curved_torsion"][0]
    A = rand_mv(rng, g.point)
    B = rand_mv(rng, g.point)
    psi = rand_mv(rng, g.point, even=True)
    for conn in ("lc", "full"):
        for a in range(4):
            resid = (
                ops.cov_deriv(g, geometric_product(A, B), a, conn)
                - geometric_product(ops.cov_deriv(g, A, a, conn), B)
                - geometric_product(A, ops.cov_deriv(g, B, a, conn))
            )
            assert resid.max_abs() <= 1e-9
    for a in range(4):
        resid = (
            ops.spin_cov_deriv(g, geometric_product(A, psi), a)
            - geometric_product(ops.cov_deriv(g, A, a, "full"), psi)
            - geometric_product(A, ops.spin_cov_deriv(g, psi, a))
        )
        assert resid.max_abs() <= 1e-9


def test_antiderivation_rule(frames):
    rng = np.random.default_rng(30)
    g = frames["curved_torsion"][1]
    A = rand_mv(rng, g.point)
    B = rand_mv(rng, g.point)
    for conn in ("lc", "full"):
        resid = (
            ops.dirac_wedge(g, wedge(A, B), conn)
            - wedge(ops.dirac_wedge(g, A, conn), B)
            - wedge(grade_involution(A), ops.dirac_wedge(g, B, conn))
        )
        assert resid.max_abs() <= 1e-9


def test_double_contraction_scalar(frames):
    rng = np.random.default_rng(31)
    for g in frames["curved_torsion"]:
        f = rand_scalar_jet(rng, g.point)
        inner = ops.dirac_contract(g, scalar_mv(f), "full")
        assert inner.max_abs() == 0.0
        assert ops.dirac_contract(g, inner, "full").max_abs() == 0.0


def test_pfaff_order_exhaustion(frames):
    from rcdirac.jets import JetOrderError

    g = frames["minkowski"][0]
    rng = np.random.default_rng(32)
    A = rand_mv(rng, g.point)
    d1 = ops.pfaff(g, A, 0)
    d2 = ops.pfaff(g, d1, 1)
    with pytest.raises(JetOrderError):
        ops.pfaff(g, d2, 2)
