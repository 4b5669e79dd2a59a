"""Order-2 truncated Taylor arithmetic in the four chart variables.

A ``Jet2`` packs a value, its four first partials and the ten independent
second partials at a single chart point into one flat float64 vector::

    data[0]      value
    data[1:5]    d/dx0 .. d/dx3
    data[5:15]   upper-triangular Hessian, in the order
                 (0,0)(0,1)(0,2)(0,3)(1,1)(1,2)(1,3)(2,2)(2,3)(3,3)

Arithmetic composes truncated Taylor series, so every first and second
derivative an operator needs is exact to machine precision; no finite
differencing happens anywhere in the engine.  The ``order`` tag tracks how
many derivative extractions the jet can still support: seeded jets start at
order 2, each ``partial`` lowers the order by one, and extracting from an
order-0 jet is an error.

The same slot layout, cut to the width of the jets' order (see the slot
contract below), is the last axis of every array in the engine, and the
arrays of a frame hold P chart points with the point axis just before the
slot axis: a multivector is a (P, 16, w) array (point x blade x slot), and
the geometry tables are (4, 4, P, w), (4, 4, 4, P, w) or
(4, 4, 4, 4, P, w) arrays, w = 15 or 5.  Whole arrays multiply through
one bilinear table, ``MUL``: the jet product is
``(a * b)[u] = sum_{s,t} a[s] b[t] MUL[s, t, u]``, so ``a @ mul_matrix(b)``
multiplies any stack of jets ``a`` by the jet ``b``, and ``jet_einsum``
contracts jet tables over named indices, item by item along a batch axis
such as the point axis.  The expression programs of ``fieldspec``
evaluate on stacks of packed jets with ``mul_packed``, ``mul_const`` and
``compose``.  ``Jet2`` is one jet over the same slots, which no run path
uses: the micro-benchmarks and the tracer of ``perfbench`` are built on it,
and so is the tree-walk oracle of ``tests/reference_loops.py``.

Slot contract: a jet of order r is defined by its slots of degree <= r,
``slots(r)`` of them: slot 0 at order 0, slots 0-4 at order 1, all 15 at
order 2 and for constants.  A jet array stores ``width(r)`` slots: 5 below
order 2 (an order-0 jet keeps slots 1-4 as exact zeros) and 15 at order 2
and for constants, so the last axis of every array of jets is the width of
its order.  A slot of degree d of a product or a derivative takes only
operand slots of degree <= d (the Leibniz rule), so a kernel runs its dense
matmuls on its result's width and returns an array of that width, with
one ``MUL`` block per width; it reads a slice of an operand only where a
15-slot operand (order 2 or constant) meets one of lower order.  ``mul_matrix``, ``jet_einsum``
and ``derivative`` take the result's order or width; the Clifford
products, ``product_sum``, ``Multivector.scale``, ``operators.pfaffs``, the
torsion operator and the geometry tables are built on them.

Call overhead: a batch of few points costs mostly per-call overhead, so
the batch path calls numpy's C entry points, ndarray ``transpose`` and
``swapaxes`` to permute axes and ufunc ``reduce`` (``np.maximum.reduce``,
``np.logical_and.reduce``, ...) to reduce, never ``np.moveaxis``, an
``np.einsum`` that sums no index, or a reduction method or function
(``.max()``, ``np.any``, ...), which run numpy's Python wrappers first.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

NVARS = 4
JET_LEN = 15

# Packed Hessian slot layout, and its inverse: HESS_ROW[mu][nu] is the
# packed slot of (mu, nu), either way round.
HESS_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (mu, nu) for mu in range(NVARS) for nu in range(mu, NVARS)
)
HESS_ROW = np.zeros((NVARS, NVARS), dtype=np.int64)
for _k, (_mu, _nu) in enumerate(HESS_PAIRS):
    HESS_ROW[_mu, _nu] = HESS_ROW[_nu, _mu] = _k

# Index pairs used by the bilinear Hessian product term, as flat arrays.
HESS_I = np.array([p[0] for p in HESS_PAIRS])
HESS_J = np.array([p[1] for p in HESS_PAIRS])

_SINGULAR_TOL = 1e-12

# Jet order of constants: differentiating one gives zero and uses up no order.
CONSTANT = math.inf


def _mul_tensor() -> np.ndarray:
    """MUL[s, t, u]: the coefficient of a[s] * b[t] in slot u of a * b."""
    m = np.zeros((JET_LEN, JET_LEN, JET_LEN))
    m[0] = np.eye(JET_LEN)         # value(a) * b
    m[:, 0] += np.eye(JET_LEN)     # value(b) * a
    m[0, 0, 0] = 1.0
    for p, (mu, nu) in enumerate(HESS_PAIRS):
        m[1 + mu, 1 + nu, 5 + p] += 1.0
        m[1 + nu, 1 + mu, 5 + p] += 1.0
    return m


MUL = _mul_tensor()

SLOTS = (1, NVARS + 1, JET_LEN)   # slots defined at orders 0, 1 and 2


def slots(order) -> int:
    """Number of jet slots an order defines: 1 at order 0, 5 at order 1,
    all 15 at order 2 and for constants."""
    return SLOTS[0] if order < 1 else SLOTS[1] if order < 2 else JET_LEN


def width(order) -> int:
    """Number of slots a jet array of this order stores, and a kernel
    computes: 5 below order 2, else 15.  An order-0 array keeps 5 slots,
    with slots 1-4 exact zeros: at one slot the last contraction of a
    kernel would be a matrix-vector product, which numpy hands to BLAS gemv
    or dot, and those round differently from the gemm of the wider
    kernels."""
    return SLOTS[1] if order < 2 else JET_LEN


# The jet product restricted to the first n slots, one block per kernel
# width: ``a[..., :n] @ mul_matrix(b, n)`` is slots :n of a * b, since a
# slot of degree d takes only operand slots of degree <= d (Leibniz rule).
_MUL_RIGHT = {
    n: MUL[:n, :n, :n].transpose(1, 0, 2).reshape(n, n * n) for n in SLOTS[1:]
}

# PARTIALS[s, (mu, t)] = 1 where slot t of d/dx^mu f is slot s of f.
PARTIALS = np.zeros((JET_LEN, NVARS, JET_LEN))
for _mu in range(NVARS):
    PARTIALS[1 + _mu, _mu, 0] = 1.0
    PARTIALS[5 + HESS_ROW[_mu], _mu, 1:5] = np.eye(NVARS)
PARTIALS = PARTIALS.reshape(JET_LEN, NVARS * JET_LEN)
# the columns (mu, t < n) of PARTIALS, one block per kernel width
_PARTIALS = {
    n: PARTIALS.reshape(JET_LEN, NVARS, JET_LEN)[:, :, :n].reshape(JET_LEN, NVARS * n) for n in SLOTS[1:]
}


class JetOrderError(ValueError):
    """Raised when a derivative is extracted from an order-exhausted jet."""


class JetDomainError(ValueError):
    """Raised when recip/sqrt/negative powers hit a singular input value."""


class _ChartPointFields(NamedTuple):
    x: tuple[float, float, float, float]


class ChartPoint(_ChartPointFields):
    """A point of the coordinate chart, dimensionless chart units."""

    __slots__ = ()

    def __new__(cls, x):
        x = tuple(float(c) for c in x)
        if len(x) != NVARS:
            raise ValueError(f"chart point needs {NVARS} coordinates, got {len(x)}")
        if not all(math.isfinite(c) for c in x):
            raise ValueError(f"chart point has non-finite coordinates: {x}")
        return super().__new__(cls, x)


class Jet2:
    """Value + exact first and second partials at one chart point."""

    __slots__ = ("data", "order")

    def __init__(self, data, order: int = 2):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.shape != (JET_LEN,):
            raise ValueError(f"jet data must have shape ({JET_LEN},)")
        self.order = order

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(value: float, order: int = 2) -> "Jet2":
        d = np.zeros(JET_LEN)
        d[0] = value
        return Jet2(d, order)

    # -- views --------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.data[0])

    @property
    def grad(self) -> np.ndarray:
        return self.data[1:5]

    @property
    def hess(self) -> np.ndarray:
        return self.data[5:15]

    def hess_at(self, mu: int, nu: int) -> float:
        return float(self.data[5 + HESS_ROW[mu, nu]])

    def __repr__(self):
        return f"Jet2(value={self.value:.6g}, order={self.order})"

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet2):
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet2.const(float(other), order=self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(self.data + o.data, min(self.order, o.order))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(self.data - o.data, min(self.order, o.order))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return Jet2(-self.data, self.order)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(mul_packed(self.data, o.data), min(self.order, o.order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet2(self.data / float(other), self.order)
        if isinstance(other, Jet2):
            return self * recip(other)
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * recip(self)


def mul_packed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Leibniz product of packed jets: vectors (15,), or slot-major stacks
    (15, P) of P jets each."""
    out = np.empty(a.shape)
    av, bv = a[0], b[0]
    ag, bg = a[1:5], b[1:5]
    out[0] = av * bv
    out[1:5] = av * bg + bv * ag
    # take: a gather that is cheap on stacks too
    out[5:15] = (
        av * b[5:15] + bv * a[5:15]
        + ag.take(HESS_I, 0) * bg.take(HESS_J, 0) + ag.take(HESS_J, 0) * bg.take(HESS_I, 0)
    )
    return out


def mul_const(a: np.ndarray, c: float) -> np.ndarray:
    """``mul_packed(a, b)`` for packed jets a and the constant jet b of
    value c, as a scalar product.  mul_packed also adds a's value and
    gradient times b's zero slots, which is NaN where those are not finite;
    only then are these terms added."""
    out = a * c
    if not np.logical_and.reduce(np.isfinite(a[:5]), axis=None):
        zero = a[:5] * 0.0
        out[1:] += zero[0]
        out[5:] += zero.take(1 + HESS_I, 0) + zero.take(1 + HESS_J, 0)
    return out


def mul_matrix(b: np.ndarray, n: int = JET_LEN) -> np.ndarray:
    """Jets (..., m) -> matrices (..., n, n) with ``a * b == a @ mul_matrix(b)``
    on the first n slots, n a kernel width (5 or 15) and m >= n; only slots
    :n of ``b`` are read."""
    return (b[..., :n] @ _MUL_RIGHT[n]).reshape(b.shape[:-1] + (n, n))


def clear_above(x: np.ndarray, order) -> np.ndarray:
    """Zero the slots of the jets x (..., width(order)) above the ones
    ``order`` defines, in place, and return x: slots 1-4 at order 0, the
    only order whose width holds more slots than it defines."""
    if order < 1:
        x[..., 1:] = 0.0
    return x


def derivative(f: np.ndarray, matrices: np.ndarray, order) -> np.ndarray:
    """Jets e(f) = f @ matrices at a result order ``order`` <= 1, one below
    f's: ``matrices`` (..., n, 5) is the block of ``derivation_matrices``
    for input width n = width(order + 1), and only the first n slots of f
    are read."""
    return clear_above(f[..., :matrices.shape[-2]] @ matrices, order)


@lru_cache(maxsize=None)
def _einsum_plan(spec: str):
    """Axis permutations that make ``jet_einsum(spec, x, y)`` one matmul,
    batched over the batch axis if the spec has one: x to (batch, kept,
    summed, slot), mul_matrix(y) to (batch, summed, slot, kept, slot), the
    product to the output order."""
    inputs, out = spec.split("->")
    xs, ys = inputs.split(",")
    batch = [c for c in xs if c in ys and c in out]
    if len(batch) > 1:
        raise ValueError(f"jet_einsum takes at most one batch axis: {spec!r}")
    summed = [c for c in xs if c in ys and c not in out]
    keep_x = [c for c in xs if c not in ys]
    keep_y = [c for c in ys if c not in xs]
    x_perm = [xs.index(c) for c in batch + keep_x + summed] + [len(xs)]
    y_perm = [ys.index(c) for c in batch + summed] + [len(ys)] + [ys.index(c) for c in keep_y] + [len(ys) + 1]
    kept = batch + keep_x + keep_y
    out_perm = [kept.index(c) for c in out] + [len(kept)]
    return x_perm, y_perm, out_perm, len(batch), len(keep_x), len(summed)


def jet_einsum(spec: str, x: np.ndarray, y: np.ndarray, order=CONSTANT) -> np.ndarray:
    """Index contraction of two jet arrays with jet products, e.g.
    ``jet_einsum("cakp,dkbp->abcdp", X, Y)[a, b, c, d, p] = sum_k X[c, a, k, p] * Y[d, k, b, p]``.

    ``spec`` names the leading axes only; the trailing jet axis of both
    operands and of the result is implied.  A letter in both operands is
    summed, unless the output has it too: that one letter (at most) is a
    batch axis, such as the point axis, and the contraction runs item by
    item along it.  ``order`` is the result's jet order: the contraction
    runs on, and returns, ``width(order)`` slots.  It is one matmul of
    ``x`` against ``mul_matrix(y)``, its axis permutations planned once per
    spec; the matrices of a batch item have the same shapes at any batch
    size.
    """
    n = width(order)
    x_perm, y_perm, out_perm, n_batch, n_keep_x, n_summed = _einsum_plan(spec)
    xt = x[..., :n].transpose(x_perm)
    m = mul_matrix(y, n).transpose(y_perm)
    keep_x = xt.shape[n_batch:n_batch + n_keep_x]
    keep_y = m.shape[n_batch + n_summed + 1:-1]
    rows = math.prod(m.shape[n_batch:n_batch + n_summed + 1])
    prod = xt.reshape(xt.shape[:n_batch] + (math.prod(keep_x), -1)) @ m.reshape(m.shape[:n_batch] + (rows, -1))
    return clear_above(prod.reshape(prod.shape[:n_batch] + keep_x + keep_y + (n,)).transpose(out_perm), order)


def derivation_matrices(frame_vectors: np.ndarray, n: int = JET_LEN) -> np.ndarray:
    """Frame-vector components e_a^mu, jets of shape (..., 4, P, 15) with
    the chart index mu before the point axis -> matrices (..., P, 15, n)
    with ``e_a(f)[:n] = f @ D[a]``: the first n slots of the jet of
    e_a^mu d_mu f, one order lower than f.  A derivative of an order-r jet
    has order r - 1, so its slots of degree d take only slots of degree
    <= d of e_a^mu and of d_mu f, whose slots 5-14 are zero."""
    m = mul_matrix(frame_vectors, n).swapaxes(-4, -3)        # (..., P, mu, n, n)
    return _PARTIALS[n] @ m.reshape(m.shape[:-3] + (NVARS * n, n))


def seed_coordinate(mu: int, point: ChartPoint) -> Jet2:
    """Order-2 jet of the coordinate function x^mu at the given point."""
    if not 0 <= mu < NVARS:
        raise IndexError(f"coordinate index {mu} out of range 0..{NVARS - 1}")
    d = np.zeros(JET_LEN)
    d[0] = point.x[mu]
    d[1 + mu] = 1.0
    return Jet2(d, 2)


def partial(a: Jet2, mu: int) -> Jet2:
    """Jet of da/dx^mu, one order lower than ``a``."""
    if not 0 <= mu < NVARS:
        raise IndexError(f"coordinate index {mu} out of range 0..{NVARS - 1}")
    if a.order < 1:
        raise JetOrderError("cannot differentiate an order-0 jet")
    d = np.zeros(JET_LEN)
    d[0] = a.data[1 + mu]
    d[1:5] = a.data[5 + HESS_ROW[mu]]
    return Jet2(d, a.order - 1)


# -- elementary functions ---------------------------------------------
#
# All follow the same order-2 chain rule: for f(a),
#   grad  = f'(a0) * a.grad
#   hess  = f'(a0) * a.hess + f''(a0) * (a.grad (x) a.grad)
# The ``*_factors`` functions give (f(v), f'(v), f''(v)) at one value v,
# with the domain check; ``compose`` applies them to jets.  ``Jet2`` and the
# expression programs of ``fieldspec`` share both.


def compose(a: np.ndarray, f0, f1, f2) -> np.ndarray:
    """Packed jets of f(a), as in ``mul_packed``, from the factors of f at
    a's values: floats, or arrays (P,) with one entry per jet."""
    d = np.empty(a.shape)
    g = a[1:5]
    d[0] = f0
    d[1:5] = f1 * g
    d[5:15] = f1 * a[5:15] + f2 * g.take(HESS_I, 0) * g.take(HESS_J, 0)
    return d


def sin_factors(v: float):
    s, c = math.sin(v), math.cos(v)
    return s, c, -s


def cos_factors(v: float):
    s, c = math.sin(v), math.cos(v)
    return c, -s, -c


def exp_factors(v: float):
    e = math.exp(v)
    return e, e, e


def sqrt_factors(v: float):
    if v <= _SINGULAR_TOL:
        raise JetDomainError(f"sqrt of non-positive or near-zero value {v!r}")
    r = math.sqrt(v)
    return r, 0.5 / r, -0.25 / (r * v)


def recip_factors(v: float):
    if abs(v) <= _SINGULAR_TOL:
        raise JetDomainError(f"reciprocal of near-zero value {v!r}")
    return 1.0 / v, -1.0 / v**2, 2.0 / v**3


def pow_factors(v: float, n: int):
    """Factors of the integer power v**n, n != 0; negative n requires a
    value away from zero."""
    if n < 0 and abs(v) <= _SINGULAR_TOL:
        raise JetDomainError(f"negative power of near-zero value {v!r}")
    f0 = v**n
    f1 = n * v ** (n - 1)
    f2 = n * (n - 1) * v ** (n - 2) if n != 1 else 0.0
    return f0, f1, f2


FACTORS = {
    "sin": sin_factors,
    "cos": cos_factors,
    "exp": exp_factors,
    "sqrt": sqrt_factors,
    "recip": recip_factors,
}


def _jet_function(factors):
    return lambda a: Jet2(compose(a.data, *factors(a.value)), a.order)


# Jet2 -> Jet2 elementary functions
ELEMENTARY = {name: _jet_function(factors) for name, factors in FACTORS.items()}
sin, cos, exp, sqrt, recip = (ELEMENTARY[name] for name in ("sin", "cos", "exp", "sqrt", "recip"))


def pow_int(a: Jet2, n: int) -> Jet2:
    """Integer power a**n; negative n requires a value away from zero."""
    if n != int(n):
        raise ValueError("pow_int exponent must be an integer")
    n = int(n)
    if n == 0:
        return Jet2.const(1.0, a.order)
    return Jet2(compose(a.data, *pow_factors(a.value, n)), a.order)
