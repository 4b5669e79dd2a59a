"""Operator results shared per frame: the checks of one batch reuse them,
and sharing changes no residual."""

import collections
import dataclasses
import inspect
import math

import numpy as np
import pytest

from conftest import BUNDLED, load_bundled, rand_mv
from rcdirac import cliffalg, geometry
from rcdirac import operators as ops
from rcdirac.geometry import build_frame
from rcdirac.jets import width
from rcdirac.harness import (
    CHECKS, BatchContext, build_run_fields, evaluate_point, point_residuals, sample_points,
)


def _run_inputs(scenario, points=2):
    pts = sample_points(scenario, points=points)
    return pts, build_run_fields(scenario, scenario.sampling.seed, pts)


@pytest.mark.parametrize("name", BUNDLED + ("general_torsion",))
def test_check_alone_equals_full_suite(name, general_torsion):
    scenario = general_torsion if name == "general_torsion" else load_bundled(name)
    pts, fields = _run_inputs(scenario)
    names = list(CHECKS)
    full = {p: evaluate_point(scenario, fields, names, p) for p in pts}
    batch = BatchContext(scenario, fields, pts)
    for p in pts:
        assert evaluate_point(scenario, fields, names[::-1], p, batch) == full[p]
    for check in names:
        alone = point_residuals(CHECKS[check].fn(BatchContext(scenario, fields, pts)))
        assert alone.tolist() == [full[p][check] for p in pts], check


def test_full_suite_product_count(monkeypatch):
    scenario = load_bundled("curved_torsion")
    orders, expanded, matmuls = [], [], []
    product = cliffalg._product

    def counted(a, b, table):
        orders.append(min(a.order, b.order))
        return product(a, b, table)

    monkeypatch.setattr(cliffalg, "_product", counted)
    # the left expansions, table @ a, and the expanded products, each
    # through every module's own binding
    left, last = cliffalg.left_expansion, cliffalg.expanded_product

    def recorded(a, table, n):
        expanded.append((id(table), a))
        return left(a, table, n)

    def matmul(left, right, order):
        matmuls.append(order)
        return last(left, right, order)

    for module in (cliffalg, geometry, ops):
        for name, orig, wrapper in (("left_expansion", left, recorded), ("expanded_product", last, matmul)):
            if getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, wrapper)
    # a batch of any size makes the products of one point, each one kernel
    # call over the batch's points
    for points in (1, 5):
        orders.clear()
        expanded.clear()
        matmuls.clear()
        pts, fields = _run_inputs(scenario, points=points)
        ctx = BatchContext(scenario, fields, pts)
        for name in CHECKS:
            ctx.results(name)
        # 28: every product but the biform actions of the derivatives and
        # of the torsion operator runs the whole kernel: the six frame sums
        # over dtheta (exterior_d of six arguments), the four over the
        # torsion forms, and 18 products of fields with fields, curvature
        # forms or biform derivatives
        assert 0 < len(orders) <= 28
        # every product, kept expansion or not, ends in one matmul: an
        # extra product cannot hide under the bound above.  The torsion
        # operator's four calls per batch (tau of the field, of its
        # standard derivatives, of tau itself and of omega) each end in one
        assert len(matmuls) == 78
        # nearly every product has an operand of order <= 1 and runs on 5
        # jet slots; only products of two order-2 fields run on all 15
        assert sum(order >= 2 for order in orders) <= 3
        # omega, omega_lc and the torsion biforms beta are expanded at most
        # once per product table, by build_frame; dtheta and the torsion
        # forms run the plain kernel.  On this skew torsion the contorsion
        # biforms are beta bit for bit, so no second commutator expansion
        # of them runs either
        geom = ctx.geom
        frame_operands = {
            "omega": geom.omega_biform, "lc": geometry.connection_biforms(geom.lc),
            "beta": geometry.connection_biforms(0.5 * geom.T.transpose(1, 0, 2, 3, 4)),
            "dtheta": geom.dtheta, "torsion": geom.torsion_forms,
        }
        seen = collections.Counter(
            (table, name)
            for table, a in expanded
            for name, x in frame_operands.items()
            if _is_scaled(a, x.data)
        )
        assert max(n for (_, name), n in seen.items() if name in ("omega", "lc", "beta")) == 1, seen
        names = {name for _, name in seen}
        assert names == set(frame_operands), names


def _is_scaled(a, x):
    """a holds the values of x, or of x times a factor 1/2, in any stack
    shape."""
    return a.size == x.size and any(np.array_equal(a.ravel(), f * x.ravel()) for f in (1.0, 0.5))


def test_full_suite_keeps_each_building_block_once():
    # the checks of one batch share one spin Hessian (lichnerowicz and
    # spin-square-assembly) and one grid of torsion pair terms
    # (pair-expansion, square-torsion-relation, spin-standard-square); the
    # memo keeps operator results only
    scenario = load_bundled("curved_torsion")
    pts, fields = _run_inputs(scenario)
    ctx = BatchContext(scenario, fields, pts)
    for name in CHECKS:
        ctx.results(name)
    geom = ctx.geom
    functions = collections.Counter(key[0] for key in geom.shared)
    assert functions[ops.spin_hessian.__wrapped__] == 1
    assert functions[ops.torsion_pair_terms.__wrapped__] == 1
    assert all(isinstance(out, cliffalg.Multivector) for out in geom.shared.values())


def test_shared_results_are_read_only(frames):
    g = frames["curved_torsion"][0]
    A = rand_mv(np.random.default_rng(50), g.point)
    D = ops.cov_derivs(g, A)
    with pytest.raises(ValueError):
        D.data[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        D[1].data[0, 0] = 1.0            # an item is a view of the shared array
    with pytest.raises(ValueError):
        ops.dirac(g, A).data[0, 0] = 0.0
    # a result built from a shared one is a fresh, writable array
    (D + D).data[0, 0, 0] = 1.0


def test_sharing_key(frames):
    g = frames["curved_torsion"][1]
    rng = np.random.default_rng(51)
    A = rand_mv(rng, g.point)
    D = ops.cov_derivs(g, A)
    # the default connection is filled in before the lookup
    assert ops.cov_derivs(g, A, "full") is D
    # arguments are given by position: the memo takes no keywords
    with pytest.raises(TypeError):
        ops.cov_derivs(g, A, conn="full")
    assert ops.cov_derivs(g, A, "lc") is not D
    # an equal but distinct argument is its own entry
    B = cliffalg.Multivector.from_array(A.data.copy(), A.order)
    assert ops.cov_derivs(g, B) is not D
    # a replaced frame starts with no shared results
    assert ops.cov_derivs(dataclasses.replace(g), A) is not D


def test_memoized_arity_is_the_positional_parameter_count():
    # per_frame reads a call's arity from the code object and fills omitted
    # trailing arguments from __defaults__: every memoized function takes
    # positional parameters only, so a call that omits a default gives the
    # same key as one that passes it
    wrapped = {
        fn.__wrapped__ for fn in vars(ops).values()
        if getattr(fn, "__code__", None) is ops.cov_derivs.__code__
    }
    assert {ops.cov_derivs.__wrapped__, ops.spin_hessian.__wrapped__} < wrapped
    for fn in wrapped:
        params = inspect.signature(fn).parameters.values()
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), fn
        assert fn.__code__.co_argcount == len(params), fn


def test_entries_keep_their_arguments(frames):
    # arguments dropped by the caller stay alive in the entry's key, so a
    # new multivector never meets the result of an old one at a reused id
    g = frames["flat_torsion"][0]
    rng = np.random.default_rng(52)
    for _ in range(4):
        A = rand_mv(rng, g.point)
        got = ops.exterior_d(g, A)
        want = ops.exterior_d.__wrapped__(g, A)
        assert np.array_equal(got.data, want.data)


def test_each_frame_has_its_own_results():
    scenario = load_bundled("curved_torsion")
    p = sample_points(scenario, points=1)[0]
    g1 = build_frame(scenario, p)
    g2 = build_frame(scenario, p)
    A = rand_mv(np.random.default_rng(53), p)
    assert ops.spin_dirac(g1, A) is not ops.spin_dirac(g2, A)
    assert np.array_equal(ops.spin_dirac(g1, A).data, ops.spin_dirac(g2, A).data)


def test_scalar_multivector_built_once():
    scenario = load_bundled("minkowski")
    pts, fields = _run_inputs(scenario, points=2)
    ctx = BatchContext(scenario, fields, pts)
    # the checks read the scalar field as it is: one object per batch, a
    # scalar multivector with blades 1-15 exactly zero
    assert ctx.field("scalar") is ctx.field("scalar")
    f = fields["scalar"].at(pts).data
    assert np.array_equal(ctx.field("scalar").data[..., 0, :], f[..., 0, :])
    assert not ctx.field("scalar").data[..., 1:, :].any()


# -- frame expansions -------------------------------------------------------------

def _along(stack, A):
    """A direction stack shaped to broadcast, direction axis first, with A."""
    shape = (4,) + (1,) * (A.data.ndim - 3) + stack.data.shape[1:]
    return cliffalg.Multivector.from_array(stack.data.reshape(shape), stack.order)


# The operators written as products of multivectors, each operand expanded
# on every call, and each factor 1/2 applied to the product.

def _cov_derivs(geom, A, conn):
    biform = geom.omega_biform if conn == "full" else geometry.connection_biforms(geom.lc)
    return ops.pfaffs(geom, A) + cliffalg.commutator(_along(biform, A), A).scale(0.5)


def _spin_cov_derivs(geom, psi):
    return ops.pfaffs(geom, psi) + cliffalg.geometric_product(_along(geom.omega_biform, psi), psi).scale(0.5)


def _right_rep_derivs(geom, phi):
    return ops.pfaffs(geom, phi) - cliffalg.geometric_product(phi, _along(geom.omega_biform, phi)).scale(0.5)


def _exterior_d(geom, A):
    dtheta = cliffalg.Multivector.from_array(cliffalg.bivector_array(-geom.c), geometry.CONN_ORDER)
    interior = cliffalg.blade_products(ops.THETA_DOWN_LC, A)
    return cliffalg.blade_sum(cliffalg.THETA_WEDGE, ops.pfaffs(geom, A)) + cliffalg.product_sum(
        dtheta, interior, cliffalg.WEDGE_TABLE
    )


def _maxwell_residuals(geom, F, J):
    clifford = cliffalg.blade_sum(cliffalg.THETA_GP, _cov_derivs(geom, F, "full")) - J
    spin = _right_rep_derivs(geom, F) + cliffalg.geometric_product(geom.omega_biform, F).scale(0.5)
    return clifford, cliffalg.blade_sum(cliffalg.THETA_GP, spin) - J


def _assert_same_bits(got, want):
    assert got.order == want.order
    x, y = got.data, want.data
    assert x.shape == y.shape
    nan = np.isnan(x)
    assert np.array_equal(nan, np.isnan(y))
    assert x[~nan].tobytes() == y[~nan].tobytes()


def _with_nonfinite(A, blades):
    """A copy of the field with NaN and infinite jet slots on some of the
    given blades."""
    data = A.data.copy()
    data[0, blades[0], 0] = math.nan
    data[-1, blades[-1], 2] = math.inf
    data[..., blades[len(blades) // 2], 9] = -math.inf
    return cliffalg.Multivector.from_array(data, A.order)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("points", (1, 3, 5))
@pytest.mark.parametrize("name", ("curved_torsion", "general_torsion"))
def test_frame_expansions_keep_every_bit(name, points, general_torsion):
    scenario = general_torsion if name == "general_torsion" else load_bundled(name)
    pts, fields = _run_inputs(scenario, points=points)
    ctx = BatchContext(scenario, fields, pts)
    geom = ctx.geom
    A, F, J = ctx.field("general"), ctx.field("bivector"), ctx.field("current")
    bad = _with_nonfinite(A, (0, 5, 15))
    single = cliffalg.Multivector.from_array(A.data[0], A.order)    # broadcast over the points
    stack = ops.cov_derivs(geom, A)                                 # (4, P, 16, 5)
    for X in (A, bad, single, stack):
        for conn in ("full", "lc"):
            _assert_same_bits(ops.cov_derivs(geom, X, conn), _cov_derivs(geom, X, conn))
        _assert_same_bits(ops.spin_cov_derivs(geom, X), _spin_cov_derivs(geom, X))
        _assert_same_bits(ops.right_rep_derivs(geom, X), _right_rep_derivs(geom, X))
    for X in (A, bad, single):     # exterior_d takes a field, not a stack
        _assert_same_bits(ops.exterior_d(geom, X), _exterior_d(geom, X))
    assert np.isnan(ops.cov_derivs(geom, bad).data).any()
    for F, J in ((F, J), (_with_nonfinite(F, (5, 7, 10)), _with_nonfinite(J, (1, 2, 4)))):
        for got, want in zip(ops.maxwell_residuals(geom, F, J), _maxwell_residuals(geom, F, J), strict=True):
            _assert_same_bits(got, want)


def test_halved_biform_expansions_are_read_only_frame_fields():
    scenario = load_bundled("curved_torsion")
    pts, fields = _run_inputs(scenario, points=3)
    ctx = BatchContext(scenario, fields, pts)
    geom = ctx.geom
    n = width(geometry.CONN_ORDER)
    steps = {
        "omega_commutator_half": (cliffalg.left_expansion, geom.omega_biform, cliffalg.COMMUTATOR_TABLE),
        "lc_commutator_half": (cliffalg.left_expansion, geometry.connection_biforms(geom.lc), cliffalg.COMMUTATOR_TABLE),
        "omega_gp_half": (cliffalg.left_expansion, geom.omega_biform, cliffalg.GP_TABLE),
        "omega_right_half": (cliffalg.right_expansion, geom.omega_biform),
        # beta, the connection biforms of T^b_ac / 2, is half those of T^b_ac
        "torsion_commutator": (
            cliffalg.left_expansion, geometry.connection_biforms(geom.T.transpose(1, 0, 2, 3, 4)),
            cliffalg.COMMUTATOR_TABLE,
        ),
    }
    want = {name: step(0.5 * operand.data, *table, n) for name, (step, operand, *table) in steps.items()}
    for name, (step, operand, *table) in steps.items():
        # 1/2 is a power of two: halving before or after the step is exact
        assert np.array_equal(want[name], 0.5 * step(operand.data, *table, n)), name
    for check in CHECKS:
        ctx.results(check)
    for name, out in want.items():
        half = getattr(geom, name)
        with pytest.raises(ValueError):
            half.flat[0] = 0.0
        assert half.tobytes() == out.tobytes(), name
    # a new batch builds its own frame, whose memo starts empty
    fresh = BatchContext(scenario, fields, pts).geom
    assert fresh.shared == {}
    assert not any(np.shares_memory(getattr(fresh, name), getattr(geom, name)) for name in steps)
    assert dataclasses.replace(geom).shared == {}
