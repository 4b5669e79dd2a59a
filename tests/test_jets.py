import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcdirac import jets
from rcdirac.jets import (
    ChartPoint,
    Jet2,
    JetDomainError,
    JetOrderError,
    partial,
    seed_coordinate,
)

# (jet function, plain-float function, safe input shift) pairs for the
# finite-difference oracle; shifts keep sqrt/recip away from zero.
ELEMENTARY_CASES = [
    (jets.sin, math.sin, 0.0),
    (jets.cos, math.cos, 0.0),
    (jets.exp, math.exp, 0.0),
    (jets.sqrt, math.sqrt, 2.5),
    (jets.recip, lambda v: 1.0 / v, 2.5),
    (lambda a: jets.pow_int(a, 3), lambda v: v**3, 0.0),
    (lambda a: jets.pow_int(a, -2), lambda v: v**-2, 2.5),
]


def test_seed_examples():
    p = ChartPoint((2.0, 0.0, 0.0, 0.0))
    j = seed_coordinate(0, p)
    assert j.value == 2.0
    assert j.grad.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert j.hess.tolist() == [0.0] * 10
    assert j.order == 2
    assert seed_coordinate(3, p).grad.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert seed_coordinate(1, ChartPoint((0.0, 5.0, 0.0, 0.0))).value == 5.0


def test_seed_index_out_of_range():
    p = ChartPoint((0.0, 0.0, 0.0, 0.0))
    with pytest.raises(IndexError):
        seed_coordinate(4, p)


def test_chart_point_validation():
    with pytest.raises(ValueError):
        ChartPoint((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        ChartPoint((float("nan"), 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ChartPoint((0.0, 0.0, float("-inf"), 0.0))


def test_chart_point_hashes_and_pickles_by_coordinates():
    p = ChartPoint((0.1, 0.2, 0.3, 0.4))
    q = ChartPoint((0.1, 0.2, 0.3, 0.4))
    assert p == q and hash(p) == hash(q)
    assert {p: 1}[q] == 1
    assert p != ChartPoint((0.1, 0.2, 0.3, 0.5))
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and type(copy) is ChartPoint and copy.x == (0.1, 0.2, 0.3, 0.4)
    assert repr(p) == "ChartPoint(x=(0.1, 0.2, 0.3, 0.4))"
    with pytest.raises(AttributeError):
        p.x = (0.0, 0.0, 0.0, 0.0)


def test_square_of_coordinate():
    p = ChartPoint((2.0, 1.0, 1.0, 1.0))
    x0 = seed_coordinate(0, p)
    sq = x0 * x0
    assert sq.value == 4.0
    assert sq.grad[0] == 4.0
    assert sq.hess_at(0, 0) == 2.0


def test_sin_at_zero():
    p = ChartPoint((0.0, 0.0, 0.0, 0.0))
    s = jets.sin(seed_coordinate(1, p))
    assert s.value == 0.0
    assert s.grad.tolist() == [0.0, 1.0, 0.0, 0.0]
    assert s.hess_at(1, 1) == 0.0


def _fd_check(build, point, rel_grad=1e-6, rel_hess=1e-4):
    """Compare jet derivatives of build(x: 4 floats) -> float against
    central finite differences."""
    p = ChartPoint(tuple(point))
    j = build([seed_coordinate(mu, p) for mu in range(4)])
    h = 1e-4

    def value_at(q):
        return build(list(q))

    for mu in range(4):
        up = list(point)
        dn = list(point)
        up[mu] += h
        dn[mu] -= h
        fd = (value_at(up) - value_at(dn)) / (2 * h)
        scale = max(1.0, abs(fd))
        assert abs(j.grad[mu] - fd) <= rel_grad * scale, (mu, j.grad[mu], fd)
    for mu in range(4):
        for nu in range(mu, 4):
            pp = list(point); pm = list(point); mp = list(point); mm = list(point)
            pp[mu] += h; pp[nu] += h
            pm[mu] += h; pm[nu] -= h
            mp[mu] -= h; mp[nu] += h
            mm[mu] -= h; mm[nu] -= h
            fd = (value_at(pp) - value_at(pm) - value_at(mp) + value_at(mm)) / (4 * h * h)
            scale = max(1.0, abs(fd))
            assert abs(j.hess_at(mu, nu) - fd) <= rel_hess * scale


def test_exp_product_against_finite_differences():
    def build(xs):
        if isinstance(xs[0], Jet2):
            return jets.exp(xs[0] * xs[1])
        return math.exp(xs[0] * xs[1])

    _fd_check(build, (1.0, 1.0, 0.0, 0.0))


def test_elementary_functions_against_finite_differences():
    rng = np.random.default_rng(20)
    for jet_fn, float_fn, shift in ELEMENTARY_CASES:
        for _ in range(100):
            point = rng.uniform(-1.0, 1.0, 4)

            def build(xs, jet_fn=jet_fn, float_fn=float_fn, shift=shift):
                arg = shift + 0.5 * (xs[0] + 0.5 * xs[1] - 0.25 * xs[2] * xs[3])
                if isinstance(xs[0], Jet2):
                    return jet_fn(arg)
                return float_fn(arg)

            _fd_check(build, point)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ring_axioms(seed):
    rng = np.random.default_rng(seed)
    p = ChartPoint(tuple(rng.uniform(-1, 1, 4)))
    xs = [seed_coordinate(mu, p) for mu in range(4)]

    def rand_jet():
        j = Jet2.const(float(rng.uniform(-1, 1)))
        for mu in range(4):
            j = j + float(rng.uniform(-1, 1)) * xs[mu]
            j = j + float(rng.uniform(-1, 1)) * xs[mu] * xs[(mu + 1) % 4]
        return j

    a, b, c = rand_jet(), rand_jet(), rand_jet()
    assoc = (a * b) * c - a * (b * c)
    dist = a * (b + c) - (a * b + a * c)
    comm = a * b - b * a
    scale = max(1.0, abs(a.value) * abs(b.value) * abs(c.value))
    assert np.max(np.abs(assoc.data)) <= 1e-12 * scale
    assert np.max(np.abs(dist.data)) <= 1e-12 * scale
    assert np.max(np.abs(comm.data)) <= 1e-12 * scale


def test_partial_examples():
    p = ChartPoint((3.0, 0.0, 0.0, 0.0))
    sq = seed_coordinate(0, p) * seed_coordinate(0, p)
    d = partial(sq, 0)
    assert d.value == 6.0
    assert d.grad.tolist() == [2.0, 0.0, 0.0, 0.0]
    assert d.order == 1
    assert np.all(partial(Jet2.const(7.0), 2).data == 0.0)


def test_mixed_partials_commute():
    p = ChartPoint((1.5, -2.0, 0.0, 0.0))
    f = seed_coordinate(0, p) * seed_coordinate(1, p)
    d01 = partial(partial(f, 0), 1)
    d10 = partial(partial(f, 1), 0)
    assert d01.value == d10.value == 1.0


def test_order_bookkeeping():
    p = ChartPoint((0.5, 0.5, 0.5, 0.5))
    f = seed_coordinate(0, p) * seed_coordinate(1, p)
    d1 = partial(f, 0)
    d2 = partial(d1, 1)
    assert d2.order == 0
    with pytest.raises(JetOrderError):
        partial(d2, 0)


def test_arithmetic_preserves_min_order():
    p = ChartPoint((0.5, 0.5, 0.5, 0.5))
    f = seed_coordinate(0, p)
    d = partial(f, 0)          # order 1
    assert (f * d).order == 1
    assert (f + d).order == 1


def test_domain_errors():
    with pytest.raises(JetDomainError):
        jets.recip(Jet2.const(1e-14))
    with pytest.raises(JetDomainError):
        jets.sqrt(Jet2.const(-1.0))
    with pytest.raises(JetDomainError):
        jets.sqrt(Jet2.const(0.0))
    with pytest.raises(JetDomainError):
        jets.pow_int(Jet2.const(0.0), -1)
    # error message names the offending value
    try:
        jets.recip(Jet2.const(0.0))
    except JetDomainError as err:
        assert "0.0" in str(err)


def test_division_operators():
    p = ChartPoint((2.0, 4.0, 1.0, 1.0))
    x0 = seed_coordinate(0, p)
    x1 = seed_coordinate(1, p)
    q = x1 / x0
    assert q.value == pytest.approx(2.0)
    assert q.grad[0] == pytest.approx(-1.0)   # d(x1/x0)/dx0 = -x1/x0^2
    assert q.grad[1] == pytest.approx(0.5)
    r = 1.0 / x0
    assert r.value == pytest.approx(0.5)
    assert (x0 / 2.0).value == pytest.approx(1.0)
