"""Direction-stacked operators against the per-direction reference loops,
and negative controls: a perturbed ingredient that makes a check fail."""

import dataclasses

import numpy as np
import pytest

from conftest import load_bundled, rand_mv
from reference_loops import (
    ref_cov_deriv,
    ref_frame_sum,
    ref_pair_sum,
    ref_pfaff_mv,
    ref_right_correction,
    ref_right_rep_deriv,
    ref_spin_cov_deriv,
    ref_torsion_commutator,
    ref_torsion_operator,
    ref_vector_correction,
    zero,
)
from rcdirac import geometry, harness
from rcdirac import operators as ops
from rcdirac.cliffalg import PLANE_GP, Multivector, blade_sum, geometric_product, grade_project, left_contraction, wedge
from rcdirac.geometry import build_frame, curvature
from rcdirac.jets import ChartPoint, slots


@pytest.fixture(scope="module")
def geoms(frames, general_torsion):
    """Two points of each bundled scenario plus one of general torsion."""
    out = [g for gs in frames.values() for g in gs]
    out.append(build_frame(general_torsion, ChartPoint((0.5, 0.6, 0.7, 0.8))))
    return out


def _close(got: Multivector, want: Multivector) -> bool:
    """The jet slots valid at the result's order agree within 1e-13 x the
    scale of the reference."""
    got, want = got.data[..., :slots(got.order)], want.data[..., :slots(got.order)]
    return np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def assert_stack(got: Multivector, want_fn):
    """Every item got[idx] of a one-point stack matches want_fn(*idx) in the
    jet slots valid at its order, within 1e-13 x the scale of the
    reference; idx runs over the stack axes before the point axis."""
    assert got.data.ndim > 3 and got.data.shape[-3] == 1
    for idx in np.ndindex(got.data.shape[:-3]):
        assert _close(got[idx], want_fn(*idx)), idx


def test_derivative_stacks_match_loops(geoms):
    rng = np.random.default_rng(40)
    for g in geoms:
        A = rand_mv(rng, g.point)
        psi = rand_mv(rng, g.point, even=True)
        assert_stack(ops.pfaffs(g, A), lambda a: ref_pfaff_mv(g, A, a))
        for conn in ("lc", "full"):
            assert_stack(ops.cov_derivs(g, A, conn), lambda a: ref_cov_deriv(g, A, a, conn))
        assert_stack(ops.spin_cov_derivs(g, psi), lambda a: ref_spin_cov_deriv(g, psi, a))
        assert_stack(ops.right_rep_derivs(g, A), lambda a: ref_right_rep_deriv(g, A, a))
        for a in range(4):
            assert _close(ops.cov_deriv(g, A, a), ref_cov_deriv(g, A, a))
            assert _close(ops.pfaff(g, A, a), ref_pfaff_mv(g, A, a))


def test_second_derivative_grids_match_loops(geoms):
    rng = np.random.default_rng(41)
    for g in geoms:
        A = rand_mv(rng, g.point)
        for conn in ("lc", "full"):
            grid = ops.cov_derivs(g, ops.cov_derivs(g, A, conn), conn)
            assert_stack(grid, lambda a, b: ref_cov_deriv(
                g, ref_cov_deriv(g, A, b, conn), a, conn))
        grid = ops.spin_cov_derivs(g, ops.spin_cov_derivs(g, A))
        assert_stack(grid, lambda a, b: ref_spin_cov_deriv(g, ref_spin_cov_deriv(g, A, b), a))


def test_torsion_operator_stacks_match_loops(geoms):
    # the torsion operator is [beta_a, .] on every grade; on the skew torsion
    # of the bundled frames it is tau(e_a, v) = T(e_a, v) on vectors, on the
    # general torsion of the last frame it is not
    rng = np.random.default_rng(42)
    for g in geoms:
        skew = g is not geoms[-1]
        v = rand_mv(rng, g.point, grade=1)
        A = rand_mv(rng, g.point)
        assert_stack(ops.torsion_operators(g, v), lambda a: ref_torsion_commutator(g, a, v))
        assert_stack(ops.torsion_operators(g, A), lambda a: ref_torsion_commutator(g, a, A))
        D = ops.cov_derivs(g, v, "lc")
        ref = ref_torsion_operator if skew else ref_torsion_commutator
        assert_stack(ops.torsion_operators(g, D), lambda a, b: ref(g, a, ref_cov_deriv(g, v, b, "lc")))
        if skew:
            assert_stack(ops.torsion_operators(g, v), lambda a: ref_torsion_operator(g, a, v))
        else:
            assert not _close(ops.torsion_operators(g, v)[0], ref_torsion_operator(g, 0, v))


def test_frame_sums_match_loops(geoms):
    rng = np.random.default_rng(43)
    for g in geoms:
        A = rand_mv(rng, g.point)
        for conn in ("lc", "full"):
            cov = [ref_cov_deriv(g, A, a, conn) for a in range(4)]
            for got, product in (
                (ops.dirac(g, A, conn), geometric_product),
                (ops.dirac_contract(g, A, conn), left_contraction),
                (ops.dirac_wedge(g, A, conn), wedge),
            ):
                assert _close(got, ref_frame_sum(g, product, cov))
        spin = [ref_spin_cov_deriv(g, A, a) for a in range(4)]
        assert _close(ops.spin_dirac(g, A), ref_frame_sum(g, geometric_product, spin))


def test_correction_grids_match_loops(geoms):
    rng = np.random.default_rng(44)
    for g in geoms:
        v = rand_mv(rng, g.point, grade=1)
        A = rand_mv(rng, g.point)
        assert_stack(ops.vector_square_torsion_correction(g, v), ref_vector_correction(g, v))
        assert_stack(ops.spin_square_right_correction(g, A),
                     lambda a, b: ref_right_correction(g, A, a, b))


def test_pair_sums_match_loops(geoms):
    rng = np.random.default_rng(45)
    for g in geoms:
        A = rand_mv(rng, g.point)
        grid = ops.spin_square_right_correction(g, A)
        assert _close(ops._pair_sum(grid), ref_pair_sum(lambda a, b: grid[a, b]))
        # the curvature contraction is the plane half of a pair sum
        curv = curvature(g)
        want = ref_pair_sum(
            lambda a, b: curv.biforms[a, b] if a != b else zero()
        )
        got = ops.scalar_multivector(curv.scalar, curv.contraction_grade2.order)
        got = got + curv.contraction_grade2 + grade_project(blade_sum(PLANE_GP, curv.biforms), 4)
        assert _close(got, want)


def test_grids_are_indexed_a_then_b(frames):
    # grid[a, b] is the (a, b) term, not its transpose
    rng = np.random.default_rng(46)
    g = frames["curved_torsion"][0]
    v = rand_mv(rng, g.point, grade=1)
    A = rand_mv(rng, g.point)
    second = ops.cov_derivs(g, ops.cov_derivs(g, v))
    for grid, ref in (
        (second, lambda a, b: ref_cov_deriv(g, ref_cov_deriv(g, v, b), a)),
        (ops.vector_square_torsion_correction(g, v), ref_vector_correction(g, v)),
        (ops.spin_square_right_correction(g, A), lambda a, b: ref_right_correction(g, A, a, b)),
        (ops.torsion_operators(g, ops.cov_derivs(g, v, "lc")),
         lambda a, b: ref_torsion_operator(g, a, ref_cov_deriv(g, v, b, "lc"))),
    ):
        assert _close(grid[0, 1], ref(0, 1))
        assert not _close(grid[0, 1], ref(1, 0))


# -- negative controls -------------------------------------------------------------


def _transposed(fn):
    """The (a, b) grid comes back transposed."""
    return lambda *args: fn(*args).swapaxes(0, 1)


def _second_transposed(fn):
    """A derivative stack whose second application is transposed."""
    def wrapped(geom, A, *rest):
        out = fn(geom, A, *rest)
        return out.swapaxes(0, 1) if A.data.ndim > 3 else out
    return wrapped


def _without_tau_d(fn):
    """The vector correction without its tau_a(D_b A)/2 term.  (Its
    tau_a(tau_b A)/4 term is no control: for totally antisymmetric torsion
    its pair sum vanishes.)"""
    def wrapped(geom, A):
        tau_d = ops.torsion_operators(geom, ops.cov_derivs(geom, A, "lc"))
        return fn(geom, A) - tau_d.scale(0.5)
    return wrapped


def _frame_with(change):
    """build_frame followed by a change of one field of the geometry."""
    return lambda fn: lambda scenario, point: change(fn(scenario, point))


def _plus_identity(fn):
    """A derivative plus the field itself, which is no derivation: the
    Leibniz and module rules fail by a product of the fields."""
    return lambda geom, A, *rest: fn(geom, A, *rest) + A


def _other_connection(fn):
    """The operator of the other connection, Levi-Civita for full and full
    for Levi-Civita."""
    return lambda geom, A, conn: fn(geom, A, "lc" if conn == "full" else "full")


# the exterior derivative without its dtheta ^ (theta_g _| A) term, as if
# the frame were holonomic
_WITHOUT_DTHETA = _frame_with(lambda g: dataclasses.replace(g, dtheta=g.dtheta.scale(0.0)))
# an index slip in the contorsion: a connection that is not metric, and
# whose Ricci tensor is not symmetric
_SLIPPED_CONTORSION = _frame_with(lambda g: dataclasses.replace(g, full=g.lc + g.K.swapaxes(0, 1)))


# check -> (module, attribute, replacement built from the original)
PERTURBATIONS = {
    "pair-expansion": (ops, "cov_derivs", _second_transposed),
    "square-torsion-relation": (ops, "vector_square_torsion_correction", _transposed),
    "spin-square-relation": (ops, "spin_square_right_correction", _transposed),
    "spin-standard-square": (ops, "vector_square_torsion_correction", _without_tau_d),
    "s2-levi-civita": (geometry, "build_frame", _frame_with(
        lambda g: dataclasses.replace(g, torsion_commutator=0.0 * g.torsion_commutator))),
    "square-assembly": (geometry, "build_frame", _frame_with(
        lambda g: dataclasses.replace(g, full=g.lc))),
    "spin-square-assembly": (ops, "spin_cov_derivs", _second_transposed),
    "lichnerowicz": (geometry, "torsion_two_forms", lambda fn: lambda T: fn(T).scale(0.0)),
    "spin-commutator": (ops, "spin_cov_derivs", _second_transposed),
    # the eight checks that read exactly max=0 on curved_torsion; a table
    # that is not metric is changed after the build, whose biform
    # calibration would reject it
    "metricity": (geometry, "build_frame", _SLIPPED_CONTORSION),
    "torsion-recovery": (geometry, "contorsion", lambda fn: lambda T: -fn(T)),
    "levi-civita": (geometry, "levi_civita", lambda fn: lambda c: -fn(c)),
    # a contorsion built from skew torsion by any index slip stays traceless
    "contorsion-trace": (geometry, "build_frame", _frame_with(lambda g: dataclasses.replace(g, K=g.full))),
    "bianchi": (geometry, "build_frame", _frame_with(lambda g: dataclasses.replace(g, lc=g.full))),
    "curvature-traces": (geometry, "_riemann_components", lambda fn: lambda g, conn: fn(g, conn).swapaxes(0, 2)),
    "torsion-trace-contraction": (geometry, "build_frame", _frame_with(
        lambda g: dataclasses.replace(g, torsion_forms=g.dtheta))),
    "double-contraction": (ops, "dirac_contract", lambda fn: ops.dirac),
    "curvature-decomposition": (geometry, "j_components", lambda fn: lambda g: -fn(g)),
    "ricci-antisymmetry": (geometry, "build_frame", _SLIPPED_CONTORSION),
    "dirac-split": (ops, "dirac_wedge", _other_connection),
    "exterior-derivative": (geometry, "build_frame", _WITHOUT_DTHETA),
    "codifferential": (ops, "_CODIFF_HODGE", lambda hodge: -hodge),
    "torsion-splits": (geometry, "torsion_two_forms", lambda fn: lambda T: fn(T).scale(0.0)),
    "scalar-laplacian": (geometry, "build_frame", _WITHOUT_DTHETA),
    "cov-deriv-torsion": (ops, "torsion_operators", lambda fn: lambda g, V: fn(g, V).scale(0.0)),
    "dirac-torsion": (ops, "torsion_operators", lambda fn: lambda g, V: fn(g, V).scale(0.0)),
    "leibniz": (ops, "cov_derivs", _plus_identity),
    "antiderivation": (harness, "grade_involution", lambda fn: lambda A: A),
    "spin-module": (ops, "cov_derivs", _plus_identity),
    # the right action at a quarter of the connection biform
    "spin-left-form": (ops, "right_actions", lambda fn: lambda g, phi: fn(g, phi).scale(0.5)),
    "d-squared": (geometry, "build_frame", _WITHOUT_DTHETA),
    # a sign flip of the Hodge dual keeps delta^2 = 0: no control for it
    "delta-squared": (geometry, "build_frame", _WITHOUT_DTHETA),
    "scalar-square-forms": (geometry, "torsion_two_forms", lambda fn: lambda T: fn(T).scale(0.0)),
    "maxwell-equivalence": (ops, "right_actions", lambda fn: lambda g, phi: fn(g, phi).scale(0.5)),
}


def test_every_check_has_a_negative_control():
    assert set(PERTURBATIONS) == set(harness.CHECKS)


@pytest.fixture(scope="module")
def curved_torsion():
    return load_bundled("curved_torsion")


@pytest.mark.parametrize("check", sorted(PERTURBATIONS))
def test_perturbed_ingredient_fails(check, curved_torsion, monkeypatch):
    (control,) = harness.run_suite(curved_torsion, points=2, only=[check]).checks
    assert control.passed
    module, attr, perturb = PERTURBATIONS[check]
    monkeypatch.setattr(module, attr, perturb(getattr(module, attr)))
    (c,) = harness.run_suite(curved_torsion, points=2, only=[check]).checks
    assert not c.passed
    assert c.max > 1e-6 and not c.errors
