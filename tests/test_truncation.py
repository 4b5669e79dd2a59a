"""Order-truncated kernels against their full-width formulas.

A jet of order r is defined by its slots of degree <= r, and an array of
such jets stores ``width(r)`` slots.  Each kernel must return its result's
width, agree with the full-width formula of ``reference_loops`` on the
slots its result's order defines, hold exact zeros above them, and still
carry a NaN from an operand slot that feeds them.  The guard tests keep a
full suite inside that contract and the product work truncated."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUNDLED, load_bundled
from reference_loops import (
    commutator, dense_jet_einsum, dense_pfaffs, dense_product, dense_product_sum, dense_scale, full_width,
)
from rcdirac import cliffalg as ca
from rcdirac import operators as ops
from rcdirac.cliffalg import Multivector
from rcdirac.geometry import CONN_ORDER, CURV_ORDER, ETA_DIAG, build_frame, connection_biforms
from rcdirac.harness import CHECKS, BatchContext, build_run_fields, sample_points
from rcdirac.jets import CONSTANT, JET_LEN, MUL, Jet2, jet_einsum, slots, width

ORDERS = (0, 1, 2, CONSTANT)
# stack shapes of the two operands; (4, 1) x (1, 4) broadcasts to a grid
STACKS = (((), ()), ((4,), (4,)), ((4, 1), (1, 4)), ((4, 4), (4, 4)))
PRODUCTS = (
    (ca.geometric_product, ca.GP_TABLE),
    (ca.wedge, ca.WEDGE_TABLE),
    (ca.left_contraction, ca.LC_TABLE),
    (commutator, ca.COMMUTATOR_TABLE),
)
TABLES = tuple(table for _, table in PRODUCTS)
SPECS = ("cak,dkb->abcd", "kcd,kab->abcd", "ck,acb->abk", "cm,abm->cab", "ak,a->k", "a,a->")

seeds = st.integers(0, 2**32 - 1)
orders = st.sampled_from(ORDERS)


def _jets(rng, shape, order):
    """Random jets (..., width(order)) in the slot contract: zero above the
    order's slots, and only a value for a constant."""
    data = np.zeros(shape + (width(order),))
    n = 1 if order == CONSTANT else slots(order)
    data[..., :n] = rng.uniform(-1.0, 1.0, shape + (n,))
    return data


def _mv(rng, stack, order):
    return Multivector.from_array(_jets(rng, stack + (ca.N_BLADES,), order), order)


def _with_nan(rng, data, data_order, order):
    """A copy of the jets with a NaN at a random place, in a slot that feeds
    a result of the given order."""
    out = data.copy()
    n = 1 if data_order == CONSTANT else min(slots(order), slots(data_order))
    idx = tuple(int(rng.integers(0, k)) for k in data.shape[:-1])
    out[idx + (int(rng.integers(0, n)),)] = np.nan
    return out


def _assert_contract(got, want, order):
    """got stores the order's width, matches the full-width want in the
    slots the order defines, within 1e-13 x the reference's largest
    coefficient there, and is exactly zero above them."""
    assert got.shape[-1] == width(order)
    n = slots(order)
    assert np.max(np.abs(got[..., :n] - want[..., :n])) <= 1e-13 * np.max(np.abs(want[..., :n]))
    assert np.all(got[..., n:] == 0.0)


def _reaches(got, order):
    return bool(np.isnan(got[..., :slots(order)]).any())


@settings(max_examples=120, deadline=None)
@given(seeds, st.sampled_from(PRODUCTS), orders, orders, st.sampled_from(STACKS))
def test_products_follow_slot_contract(seed, kernel, order_a, order_b, stacks):
    rng = np.random.default_rng(seed)
    product, table = kernel
    a, b = _mv(rng, stacks[0], order_a), _mv(rng, stacks[1], order_b)
    order = min(order_a, order_b)
    got = product(a, b)
    assert got.order == order
    _assert_contract(got.data, dense_product(full_width(a.data), full_width(b.data), table), order)
    nan_a = Multivector.from_array(_with_nan(rng, a.data, order_a, order), order_a)
    nan_b = Multivector.from_array(_with_nan(rng, b.data, order_b, order), order_b)
    assert _reaches(product(nan_a, b).data, order)
    assert _reaches(product(a, nan_b).data, order)


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(TABLES), orders, orders)
def test_product_sum_follows_slot_contract(seed, table, order_a, order_b):
    # the sum runs over the leading stack axis, so both operands are (4,) stacks
    rng = np.random.default_rng(seed)
    a, b = _mv(rng, (4,), order_a), _mv(rng, (4,), order_b)
    order = min(order_a, order_b)
    got = ca.product_sum(a, b, table)
    assert got.order == order
    _assert_contract(got.data, dense_product_sum(full_width(a.data), full_width(b.data), table), order)
    nan_b = Multivector.from_array(_with_nan(rng, b.data, order_b, order), order_b)
    assert _reaches(ca.product_sum(a, nan_b, table).data, order)


@settings(max_examples=60, deadline=None)
@given(seeds, orders, st.sampled_from((0, 1, 2)), st.sampled_from(STACKS))
def test_scale_by_jet_follows_slot_contract(seed, order_a, jet_order, stacks):
    rng = np.random.default_rng(seed)
    a = _mv(rng, stacks[0], order_a)
    if stacks[1] == ():
        jet = full_width(_jets(rng, (), jet_order))
        s = Jet2(jet, jet_order)
    else:
        # a bare jet array counts as order 2; its axes broadcast with a's
        jet_order = 2
        s = jet = _jets(rng, stacks[1], jet_order)
    order = min(order_a, jet_order)
    got = a.scale(s)
    assert got.order == order
    _assert_contract(got.data, dense_scale(full_width(a.data), jet), order)
    nan = Multivector.from_array(_with_nan(rng, a.data, order_a, order), order_a)
    assert _reaches(nan.scale(s).data, order)


@functools.cache
def _frame():
    # built here, not taken from a fixture, so that a failing example does
    # not print the whole frame
    scenario = load_bundled("curved_torsion")
    return build_frame(scenario, sample_points(scenario, points=1)[0])


@settings(max_examples=40, deadline=None)
# stacks with the one-point frame's point axis
@given(seeds, st.sampled_from((1, 2, CONSTANT)), st.sampled_from(((1,), (4, 1), (4, 4, 1))))
def test_pfaffs_follow_slot_contract(seed, order_a, stack):
    g = _frame()
    rng = np.random.default_rng(seed)
    a = _mv(rng, stack, order_a)
    order = CONSTANT if order_a == CONSTANT else order_a - 1
    got = ops.pfaffs.__wrapped__(g, a)
    assert got.order == order and got.data.shape[:-1] == (4,) + a.data.shape[:-1]
    _assert_contract(got.data, dense_pfaffs(g, full_width(a.data)), order)
    if order_a != CONSTANT:   # a constant's derivative is zero whatever its value
        nan = Multivector.from_array(_with_nan(rng, a.data, order_a, order_a), order_a)
        assert _reaches(ops.pfaffs.__wrapped__(g, nan).data, order)


@settings(max_examples=40, deadline=None)
@given(seeds, orders, st.sampled_from(((1,), (4, 1), (4, 4, 1))))
def test_torsion_operators_keep_the_torsion_order(seed, order_v, stack):
    # the torsion table stores CONN_ORDER's slots, so tau has at most that order
    g = _frame()
    assert g.T.shape[-1] == width(CONN_ORDER)
    rng = np.random.default_rng(seed)
    v = _mv(rng, stack, order_v)
    v.data[..., np.array(ca.GRADES) != 1, :] = 0.0
    order = min(order_v, CONN_ORDER)
    got = ops.torsion_operators.__wrapped__(g, v)
    assert got.order == order and got.data.shape[:-1] == (4,) + v.data.shape[:-1]
    signed = ETA_DIAG[:, None, None, None, None] * ETA_DIAG[:, None, None] * full_width(g.T)
    want = np.zeros(got.data.shape[:-1] + (JET_LEN,))
    want[..., 1:5, :] = np.einsum("rabpS,...pbT,STU->a...prU", signed, full_width(v.data[..., 1:5, :]), MUL)
    _assert_contract(got.data, want, order)


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(SPECS), orders, orders)
def test_jet_einsum_follows_slot_contract(seed, spec, order_x, order_y):
    rng = np.random.default_rng(seed)
    xs, ys = spec.split("->")[0].split(",")
    # distinct axis lengths, so that a transposed axis cannot pass
    size = {c: 2 + i % 3 for i, c in enumerate(sorted(set(xs + ys)))}
    x = _jets(rng, tuple(size[c] for c in xs), order_x)
    y = _jets(rng, tuple(size[c] for c in ys), order_y)
    order = min(order_x, order_y)
    got = jet_einsum(spec, x, y, order)
    _assert_contract(got, dense_jet_einsum(spec, full_width(x), full_width(y)), order)
    assert _reaches(jet_einsum(spec, _with_nan(rng, x, order_x, order), y, order), order)
    assert _reaches(jet_einsum(spec, x, _with_nan(rng, y, order_y, order), order), order)


# -- guards on a full suite ------------------------------------------------------


def _assert_zero_above(data, order, what):
    assert data.shape[-1] == width(order), what
    assert np.all(data[..., slots(order):] == 0.0), what


@pytest.mark.parametrize("name", BUNDLED + ("general_torsion",))
def test_full_suite_results_keep_slot_contract(name, general_torsion):
    scenario = general_torsion if name == "general_torsion" else load_bundled(name)
    p = sample_points(scenario, points=1)[0]
    ctx = BatchContext(scenario, build_run_fields(scenario, scenario.sampling.seed, [p]), [p])
    for check in CHECKS.values():
        check.fn(ctx)
    g, curv = ctx.geom, ctx.curv
    assert g.shared
    for key, out in g.shared.items():
        _assert_zero_above(out.data, out.order, key[0].__name__)
    for what in ("c", "T", "lc", "K", "full"):
        _assert_zero_above(getattr(g, what), CONN_ORDER, what)
    for biforms in (g.omega_biform, connection_biforms(g.lc), connection_biforms(g.K)):
        _assert_zero_above(biforms.data, biforms.order, "biforms")
    for table in (curv.components, curv.lc_components, curv.j_components):
        _assert_zero_above(table, CURV_ORDER, "curvature")


# -- the width contract ------------------------------------------------------------


@pytest.mark.parametrize("order", ORDERS)
def test_from_array_takes_only_the_width_of_the_order(order):
    stored = width(order)
    Multivector.from_array(np.zeros((3, ca.N_BLADES, stored)), order)
    for n in {1, 5, JET_LEN} - {stored}:
        with pytest.raises(ValueError):
            Multivector.from_array(np.zeros((3, ca.N_BLADES, n)), order)


def test_check_sides_and_shared_results_store_their_width():
    scenario = load_bundled("curved_torsion")
    pts = sample_points(scenario, points=3)
    ctx = BatchContext(scenario, build_run_fields(scenario, scenario.sampling.seed, pts), pts)
    sides = 0
    for name, check in CHECKS.items():
        for pair in check.fn(ctx):
            for side in pair:
                if isinstance(side, Multivector):
                    _assert_zero_above(side.data, side.order, name)
                    sides += 1
    assert sides > len(CHECKS)
    assert ctx.geom.shared
    for key, out in ctx.geom.shared.items():
        _assert_zero_above(out.data, out.order, key[0].__name__)


@pytest.mark.parametrize("order", (0, 1, 2))
def test_coefficients_are_full_jets(order):
    rng = np.random.default_rng(7)
    mv = _mv(rng, (), order)
    for i, jet in enumerate(mv.coeffs):
        assert isinstance(jet, Jet2) and jet.data.shape == (JET_LEN,) and jet.order == order
        assert np.array_equal(jet.data[:slots(order)], mv.data[i, :slots(order)])
        assert not jet.data[slots(order):].any()
