from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_bundled, rand_float_mv, rand_mv
from reference_loops import RefMV, basis, commutator, pseudoscalar, ref_pfaff, ref_sign_tables, reversion, scalar, zero
from rcdirac import cliffalg as ca
from rcdirac.cliffalg import (
    GradeError,
    Multivector,
    geometric_product,
    grade_involution,
    grade_project,
    hodge_dual,
    left_contraction,
    wedge,
)
from rcdirac.jets import Jet2, slots

E = [basis(a) for a in range(4)]
TAU = pseudoscalar()
ETA = ca.SIGNATURE
gp = geometric_product


def assert_mv_close(a, b, tol=1e-12):
    assert np.max(np.abs(a.data[..., 0] - b.data[..., 0])) <= tol


def test_anticommutation_all_pairs_exact():
    for a in range(4):
        for b in range(4):
            lhs = gp(E[a], E[b]) + gp(E[b], E[a])
            want = scalar(2.0 * (ETA[a] if a == b else 0.0))
            assert lhs.data[..., 0].tolist() == want.data[..., 0].tolist()


def test_sign_tables_match_pair_loop():
    # bit for bit: the same dtype, values and signs of zero
    tables = (ca.PAIR_I, ca.PAIR_J, ca.GP_SIGN, ca.WEDGE_SIGN, ca.LC_SIGN)
    for got, want in zip(tables, ref_sign_tables(), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape == (256,)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_generator_squares():
    assert gp(E[0], E[0]).data[..., 0][0] == 1.0
    assert gp(E[1], E[1]).data[..., 0][0] == -1.0


def test_orthogonal_generators_give_single_bivector_blade():
    prod = gp(E[0], E[1])
    assert_mv_close(prod, wedge(E[0], E[1]), 0.0)
    idx = ca.MASK_TO_INDEX[0b0011]
    assert prod.data[..., 0][idx] == 1.0


def test_wedge_examples():
    assert wedge(E[0], E[0]).max_abs() == 0.0
    quad = wedge(wedge(E[0], E[1]), wedge(E[2], E[3]))
    assert_mv_close(quad, TAU, 0.0)


def test_left_contraction_equal_grade_formula():
    # (e_al ^ e_be) left-contracted on (e_rho-lowered ^ e_de), all index
    # combinations, against the closed form -(d^al_rho eta^{be de} -
    # d^be_rho eta^{al de}).
    for al in range(4):
        for be in range(4):
            if al == be:
                continue
            for rho in range(4):
                for de in range(4):
                    X = wedge(E[al], E[be])
                    Y = wedge(E[rho].scale(ETA[rho]), E[de])
                    got = left_contraction(X, Y).data[..., 0][0]
                    want = -(
                        (1.0 if al == rho else 0.0) * (ETA[be] if be == de else 0.0)
                        - (1.0 if be == rho else 0.0) * (ETA[al] if al == de else 0.0)
                    )
                    assert got == pytest.approx(want, abs=1e-14)


def test_left_contraction_examples():
    assert left_contraction(E[0], E[0]).data[..., 0][0] == 1.0
    rng = np.random.default_rng(0)
    A = rand_float_mv(rng)
    assert_mv_close(left_contraction(scalar(1.0), A), A, 0.0)


def test_involution_examples():
    b01 = wedge(E[0], E[1])
    assert_mv_close(reversion(b01), -b01, 0.0)
    assert_mv_close(grade_involution(E[0]), -E[0], 0.0)
    mixed = b01 + scalar(3.0)
    assert grade_project(mixed, 0).data[..., 0][0] == 3.0
    assert grade_project(mixed, 0).data[..., 0][1:].tolist() == [0.0] * 15


def test_grade_project_out_of_range():
    with pytest.raises(GradeError):
        grade_project(E[0], 5)
    with pytest.raises(GradeError):
        grade_project(E[0], -1)


def test_grade_projections_partition():
    rng = np.random.default_rng(1)
    A = rand_float_mv(rng)
    acc = zero()
    for k in range(5):
        acc = acc + grade_project(A, k)
    assert_mv_close(acc, A, 0.0)


def test_hodge_examples():
    assert_mv_close(hodge_dual(scalar(1.0)), TAU, 0.0)
    # tau^2 via the product oracle, then hodge(tau) must match rev(tau)*tau
    tau_sq = geometric_product(TAU, TAU)
    assert tau_sq.data[..., 0][0] == -1.0
    assert_mv_close(hodge_dual(TAU), scalar(-1.0), 0.0)


def test_hodge_double_on_grade2_blades():
    # brute force over all six grade-2 blades: star(star(F)) == -F
    for idx in ca.GRADE_INDICES[2]:
        F = Multivector([1.0 if i == idx else 0.0 for i in range(16)])
        assert_mv_close(hodge_dual(hodge_dual(F)), -F, 0.0)


def test_commutator_examples():
    assert commutator(E[0], E[0]).max_abs() == 0.0
    b01 = wedge(E[0], E[1])
    got = commutator(b01, E[0])
    # product-oracle value: e0e1e0 - e0e0e1 = -2 e1
    direct = geometric_product(b01, E[0]) - geometric_product(E[0], b01)
    assert_mv_close(got, direct, 0.0)
    assert_mv_close(got, E[1].scale(-2.0), 0.0)
    rng = np.random.default_rng(2)
    A = rand_float_mv(rng)
    assert commutator(A, scalar(1.0)).max_abs() == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_associativity_relative(seed):
    rng = np.random.default_rng(seed)
    A, B, C = (rand_float_mv(rng) for _ in range(3))
    lhs = gp(gp(A, B), C)
    rhs = gp(A, gp(B, C))
    scale = max(1.0, A.max_abs() * B.max_abs() * C.max_abs())
    assert np.max(np.abs(lhs.data[..., 0] - rhs.data[..., 0])) <= 1e-12 * scale


def test_associativity_exact_arithmetic():
    # Fraction coefficients travel the generic ring path: zero deviation.
    rng = np.random.default_rng(3)
    for _ in range(20):
        mvs = []
        for _ in range(3):
            coeffs = [Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 9)))
                      for _ in range(16)]
            mvs.append(RefMV(coeffs))
        A, B, C = mvs
        lhs = (A * B) * C
        rhs = A * (B * C)
        assert lhs.coeffs == rhs.coeffs


def test_float_path_matches_generic_path():
    rng = np.random.default_rng(4)
    A = rand_float_mv(rng)
    B = rand_float_mv(rng)
    fast = geometric_product(A, B)
    exact = (
        RefMV([Fraction(c).limit_denominator(10**12) for c in A.data[..., 0]])
        * RefMV([Fraction(c).limit_denominator(10**12) for c in B.data[..., 0]])
    )
    assert np.max(np.abs(fast.data[..., 0] - exact.values())) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_vector_product_splits_into_contraction_and_wedge(seed):
    rng = np.random.default_rng(seed)
    a = rand_float_mv(rng, grade=1)
    B = rand_float_mv(rng)
    lhs = gp(a, B)
    rhs = left_contraction(a, B) + wedge(a, B)
    assert np.max(np.abs(lhs.data[..., 0] - rhs.data[..., 0])) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reversion_antiautomorphism(seed):
    rng = np.random.default_rng(seed)
    A = rand_float_mv(rng)
    B = rand_float_mv(rng)
    lhs = reversion(gp(A, B))
    rhs = gp(reversion(B), reversion(A))
    assert np.max(np.abs(lhs.data[..., 0] - rhs.data[..., 0])) <= 1e-13


def test_grade1_wedge_self_vanishes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rand_float_mv(rng, grade=1)
        assert wedge(a, a).max_abs() <= 1e-15


def test_jet_coefficient_product_matches_generic_loop():
    from rcdirac.jets import ChartPoint, seed_coordinate

    p = ChartPoint((0.3, 0.7, -0.2, 1.1))
    xs = [seed_coordinate(mu, p) for mu in range(4)]
    f = xs[0] * xs[1] + xs[2]
    A = Multivector([f if i in (0, 3, 7) else 0.25 for i in range(16)])
    B = Multivector([xs[1] if i in (1, 5, 15) else -0.5 for i in range(16)])
    fast = geometric_product(A, B)
    ref = [None] * 16
    for k, i, j, s in zip(
        np.arange(16).repeat(16), ca.PAIR_I, ca.PAIR_J, ca.GP_SIGN
    ):
        if s == 0.0:
            continue
        term = A.coeffs[i] * B.coeffs[j]
        term = -term if s < 0 else term
        ref[k] = term if ref[k] is None else ref[k] + term
    from rcdirac.jets import Jet2

    for got, want in zip(fast.coeffs, ref):
        want_data = want.data if isinstance(want, Jet2) else Jet2.const(float(want)).data
        assert np.allclose(got.data, want_data)


def test_fraction_coefficients_rejected():
    with pytest.raises(TypeError):
        Multivector([Fraction(1, 3)] * 16)


def _dense_jet_mv(rng):
    return Multivector.from_array(rng.uniform(-1.0, 1.0, (16, 15)), 2)


def _assert_matches(got, want, scale):
    """The jet slots valid at the result's order agree with the loop."""
    n = slots(got.order)
    assert np.max(np.abs(got.data[..., :n] - want.data()[..., :n])) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_product_kernels_match_coefficient_loop(seed):
    rng = np.random.default_rng(seed)
    A, B = _dense_jet_mv(rng), _dense_jet_mv(rng)
    ref_a, ref_b = RefMV.of(A), RefMV.of(B)
    scale = np.max(np.abs(A.data)) * np.max(np.abs(B.data))
    for kernel, sign in (
        (geometric_product, ca.GP_SIGN),
        (wedge, ca.WEDGE_SIGN),
        (left_contraction, ca.LC_SIGN),
    ):
        _assert_matches(kernel(A, B), ref_a.product(ref_b, sign), scale)
    _assert_matches(commutator(A, B), ref_a * ref_b - ref_b * ref_a, scale)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_scale_matches_coefficient_loop(seed):
    rng = np.random.default_rng(seed)
    A = _dense_jet_mv(rng)
    s = Jet2(rng.uniform(-1.0, 1.0, 15), 1)
    f = float(rng.uniform(-1.0, 1.0))
    scale = np.max(np.abs(A.data))
    _assert_matches(A.scale(f), RefMV(f * c for c in RefMV.of(A).coeffs), scale)
    got = A.scale(s)
    _assert_matches(got, RefMV(s * c for c in RefMV.of(A).coeffs), scale * np.max(np.abs(s.data)))
    assert got.order == 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pfaff_matches_coefficient_loop(frames, seed):
    from rcdirac import operators

    g = frames["curved_torsion"][0]
    rng = np.random.default_rng(seed)
    A = _dense_jet_mv(rng)
    a = int(rng.integers(0, 4))
    got = operators.pfaff(g, A, a)
    want = ref_pfaff(g, RefMV.of(A), a)
    scale = np.max(np.abs(A.data)) * np.max(np.abs(g.frame_vectors))
    _assert_matches(got, want, scale)
    assert got.order == 1


def test_commutator_structural_zeros_exact():
    # ab - ba as two products leaves FMA residue where blades commute; the
    # antisymmetrised table cancels them exactly
    from rcdirac import operators
    from rcdirac.geometry import build_frame
    from rcdirac.harness import sample_points

    rng = np.random.default_rng(6)
    sc = load_bundled("curved_torsion")
    p = sample_points(sc, points=1, seed=3)[0]
    g = build_frame(sc, p)
    B = rand_mv(rng, p, grade=2)
    v = rand_mv(rng, p, grade=1)
    for got in (commutator(B, v), commutator(g.omega_biform[1], v)):
        assert np.all(got.data[..., list(ca.GRADE_INDICES[3]), :] == 0.0)
    for a in range(4):
        for conn in ("lc", "full"):
            d = operators.cov_deriv(g, v, a, conn)
            assert np.all(d.data[..., list(ca.GRADE_INDICES[3]), :] == 0.0)
            assert np.max(np.abs(d.data[..., list(ca.GRADE_INDICES[1]), :])) > 0.0


def test_constant_multivector_order():
    from rcdirac.jets import CONSTANT

    A = rand_float_mv(np.random.default_rng(7))
    assert A.order == CONSTANT and A.is_numeric()
    assert gp(A, A).order == CONSTANT
    assert gp(A, scalar(Jet2.const(1.0, order=1))).order == 1
    coeffs = A.coeffs
    assert [c.value for c in coeffs] == A.data[..., 0].tolist()
    with pytest.raises(ValueError):
        coeffs[0].data[0] = 1.0
