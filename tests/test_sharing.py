"""Operator results shared per frame: the checks of one batch reuse them,
and sharing changes no residual."""

import dataclasses

import numpy as np
import pytest

from conftest import BUNDLED, load_bundled, rand_mv
from rcdirac import cliffalg, geometry, harness
from rcdirac import operators as ops
from rcdirac.geometry import build_frame
from rcdirac.harness import (
    CHECKS, BatchContext, build_run_fields, evaluate_point, point_residuals, run_suite, sample_points,
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
    pts, fields = _run_inputs(scenario, points=1)
    orders, sum_orders = [], []
    product, product_sum = cliffalg._product, cliffalg.product_sum

    def counted(a, b, table):
        orders.append(min(a.order, b.order))
        return product(a, b, table)

    def counted_sum(a, b, table=cliffalg.GP_TABLE):
        sum_orders.append(min(a.order, b.order))
        return product_sum(a, b, table)

    monkeypatch.setattr(cliffalg, "_product", counted)
    # product_sum is called through each module's own binding
    for module in (cliffalg, geometry, ops, harness):
        if getattr(module, "product_sum", None) is product_sum:
            monkeypatch.setattr(module, "product_sum", counted_sum)
    # one point, then a 5-point run: a batch of any size makes the products
    # of one point, each one kernel call over the batch's points
    for run in (lambda: evaluate_point(scenario, fields, list(CHECKS), pts[0]),
                lambda: run_suite(scenario, points=5)):
        orders.clear()
        sum_orders.clear()
        run()
        assert 0 < len(orders) <= 66
        # nearly every product has an operand of order <= 1 and runs on 5
        # jet slots; only products of two order-2 fields run on all 15
        assert sum(order >= 2 for order in orders) <= 3
        # every product sum meets a first derivative or a torsion 2-form,
        # both of order 1
        assert sum_orders and max(sum_orders) < 2


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
    assert ops.cov_derivs(g, A, conn="full") is D
    assert ops.cov_derivs(g, A, "lc") is not D
    # an equal but distinct argument is its own entry
    B = cliffalg.Multivector.from_array(A.data.copy(), A.order)
    assert ops.cov_derivs(g, B) is not D
    # a replaced frame starts with no shared results
    assert ops.cov_derivs(dataclasses.replace(g), A) is not D


def test_entries_keep_their_arguments(frames):
    # arguments dropped by the caller stay alive in the entry, so a new
    # multivector never meets the result of an old one at a reused id
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
    assert ctx.scalar_mv() is ctx.scalar_mv()
    f = ctx.field("scalar").data
    assert np.array_equal(ctx.scalar_mv().data[..., 0, :], f[..., 0, :])
    assert not ctx.scalar_mv().data[..., 1:, :].any()
