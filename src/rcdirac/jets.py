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

The same slot layout is the last axis of every array in the engine: a
multivector is a (16, 15) array (blade x slot), and the geometry tables are
(4, 4, 15), (4, 4, 4, 15) or (4, 4, 4, 4, 15) arrays.  Whole arrays multiply
through one bilinear table, ``MUL``: the jet product is
``(a * b)[u] = sum_{s,t} a[s] b[t] MUL[s, t, u]``, so ``a @ mul_matrix(b)``
multiplies any stack of jets ``a`` by the jet ``b``, and ``jet_einsum``
contracts jet tables over named indices.  ``Jet2`` stays the scalar type
that expressions evaluate to.

Slot contract: a jet of order r is defined by its slots of degree <= r,
``slots(r)`` of them: slot 0 at order 0, slots 0-4 at order 1, all 15 at
order 2 and for constants.  A slot of degree d of a product or a
derivative takes only operand slots of degree <= d (the Leibniz rule), so
a kernel whose result has order <= 1 reads only the operand slots that
feed it, runs its dense matmuls on those (``width``: 5 slots below order 2,
15 at order 2, with one ``MUL`` block per width) and writes exact zeros
above its result's slots (``padded``).  ``mul_matrix``, ``jet_einsum`` and
``derivative`` take the result's order or width; the Clifford products,
``product_sum``, ``Multivector.scale``, ``operators.pfaffs``, the torsion
operator and the geometry tables are built on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NVARS = 4
JET_LEN = 15

# Packed Hessian slot layout and its inverse lookup.
HESS_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (mu, nu) for mu in range(NVARS) for nu in range(mu, NVARS)
)
HESS_SLOT = {pair: k for k, pair in enumerate(HESS_PAIRS)}
for (mu, nu), k in list(HESS_SLOT.items()):
    HESS_SLOT[(nu, mu)] = k

# Row gather: HESS_ROW[mu][nu] is the packed slot of (mu, nu).
HESS_ROW = np.array(
    [[HESS_SLOT[(mu, nu)] for nu in range(NVARS)] for mu in range(NVARS)]
)

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
    """Number of slots a kernel computes for a result of this order: 5 below
    order 2, else 15.  An order-0 result is computed on 5 slots and cut to
    1: at one slot the last contraction of a kernel would be a
    matrix-vector product, which numpy hands to BLAS gemv or dot, and those
    round differently from the gemm that the full-width kernels used."""
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


class JetOrderError(ValueError):
    """Raised when a derivative is extracted from an order-exhausted jet."""


class JetDomainError(ValueError):
    """Raised when recip/sqrt/negative powers hit a singular input value."""


@dataclass(frozen=True)
class ChartPoint:
    """A point of the coordinate chart, dimensionless chart units."""

    x: tuple[float, float, float, float]

    def __post_init__(self):
        if len(self.x) != NVARS:
            raise ValueError(f"chart point needs {NVARS} coordinates, got {len(self.x)}")
        if not all(math.isfinite(c) for c in self.x):
            raise ValueError(f"chart point has non-finite coordinates: {self.x}")


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
        return float(self.data[5 + HESS_SLOT[(mu, nu)]])

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
    """Leibniz product of two packed jet vectors (shape (15,) each)."""
    out = np.empty(JET_LEN)
    av, bv = a[0], b[0]
    ag, bg = a[1:5], b[1:5]
    out[0] = av * bv
    out[1:5] = av * bg + bv * ag
    out[5:15] = av * b[5:15] + bv * a[5:15] + ag[HESS_I] * bg[HESS_J] + ag[HESS_J] * bg[HESS_I]
    return out


def mul_matrix(b: np.ndarray, n: int = JET_LEN) -> np.ndarray:
    """Jets (..., 15) -> matrices (..., n, n) with ``a * b == a @ mul_matrix(b)``
    on the first n slots, n a kernel width (5 or 15); only slots :n of ``b``
    are read."""
    return (b[..., :n] @ _MUL_RIGHT[n]).reshape(b.shape[:-1] + (n, n))


def padded(x: np.ndarray, order) -> np.ndarray:
    """Kernel output jets (..., n) -> (..., 15) holding the slots that
    ``order`` defines; the slots above are exact zeros."""
    n = slots(order)
    if n == x.shape[-1] == JET_LEN:
        return x
    out = np.zeros(x.shape[:-1] + (JET_LEN,))
    out[..., :n] = x[..., :n]
    return out


def clear_above(x: np.ndarray, order) -> np.ndarray:
    """Zero the slots of the jets x above ``order``, in place; returns x."""
    x[..., slots(order):] = 0.0
    return x


def derivative(f: np.ndarray, derivations: np.ndarray, order) -> np.ndarray:
    """Jets e(f) = f @ derivations at a result order one below f's: only the
    slots of f that feed the result's slots are read, and the slots above
    ``order`` are zero."""
    n_in, n = width(order + 1), width(order)
    return padded(f[..., :n_in] @ derivations[..., :n_in, :n], order)


@lru_cache(maxsize=None)
def _einsum_plan(spec: str):
    """Axis permutations that make ``jet_einsum(spec, x, y)`` one matmul: x
    to (kept, summed, slot), mul_matrix(y) to (summed, slot, kept, slot),
    the product to the output order."""
    inputs, out = spec.split("->")
    xs, ys = inputs.split(",")
    summed = [c for c in xs if c in ys]
    keep_x = [c for c in xs if c not in ys]
    keep_y = [c for c in ys if c not in xs]
    x_perm = [xs.index(c) for c in keep_x + summed] + [len(xs)]
    y_perm = [ys.index(c) for c in summed] + [len(ys)] + [ys.index(c) for c in keep_y] + [len(ys) + 1]
    out_perm = [(keep_x + keep_y).index(c) for c in out] + [len(keep_x + keep_y)]
    return x_perm, y_perm, out_perm, len(keep_x), len(summed)


def jet_einsum(spec: str, x: np.ndarray, y: np.ndarray, order=CONSTANT) -> np.ndarray:
    """Index contraction of two jet arrays with jet products, e.g.
    ``jet_einsum("cak,dkb->abcd", X, Y)[a, b, c, d] = sum_k X[c, a, k] * Y[d, k, b]``.

    ``spec`` names the leading axes only; the trailing jet axis of both
    operands and of the result is implied.  A letter in both operands is
    summed (no batch axes).  ``order`` is the result's jet order: the
    contraction runs on ``width(order)`` slots and keeps the ones the order
    defines; the slots above are zero.  It is one matmul of ``x`` against
    ``mul_matrix(y)``, its axis permutations planned once per spec.
    """
    n = width(order)
    x_perm, y_perm, out_perm, n_keep_x, n_summed = _einsum_plan(spec)
    xt = x[..., :n].transpose(x_perm)
    m = mul_matrix(y, n).transpose(y_perm)
    keep_x, keep_y = xt.shape[:n_keep_x], m.shape[n_summed + 1:-1]
    prod = xt.reshape(math.prod(keep_x), -1) @ m.reshape(math.prod(m.shape[:n_summed + 1]), -1)
    return padded(prod.reshape(keep_x + keep_y + (n,)).transpose(out_perm), order)


def derivation_matrices(frame_vectors: np.ndarray) -> np.ndarray:
    """Frame-vector components e_a^mu, jets of shape (..., 4, 15) -> matrices
    (..., 15, 15) with ``e_a(f) = f @ D[a]``: the jet of e_a^mu d_mu f, one
    order lower than f."""
    m = mul_matrix(frame_vectors)
    return PARTIALS @ m.reshape(m.shape[:-3] + (NVARS * JET_LEN, JET_LEN))


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


def _compose(a: Jet2, f0: float, f1: float, f2: float) -> Jet2:
    d = np.empty(JET_LEN)
    g = a.data[1:5]
    d[0] = f0
    d[1:5] = f1 * g
    d[5:15] = f1 * a.data[5:15] + f2 * g[HESS_I] * g[HESS_J]
    return Jet2(d, a.order)


def sin(a: Jet2) -> Jet2:
    s, c = math.sin(a.value), math.cos(a.value)
    return _compose(a, s, c, -s)


def cos(a: Jet2) -> Jet2:
    s, c = math.sin(a.value), math.cos(a.value)
    return _compose(a, c, -s, -c)


def exp(a: Jet2) -> Jet2:
    e = math.exp(a.value)
    return _compose(a, e, e, e)


def sqrt(a: Jet2) -> Jet2:
    v = a.value
    if v <= _SINGULAR_TOL:
        raise JetDomainError(f"sqrt of non-positive or near-zero value {v!r}")
    r = math.sqrt(v)
    return _compose(a, r, 0.5 / r, -0.25 / (r * v))


def recip(a: Jet2) -> Jet2:
    v = a.value
    if abs(v) <= _SINGULAR_TOL:
        raise JetDomainError(f"reciprocal of near-zero value {v!r}")
    return _compose(a, 1.0 / v, -1.0 / v**2, 2.0 / v**3)


def pow_int(a: Jet2, n: int) -> Jet2:
    """Integer power a**n; negative n requires a value away from zero."""
    if n != int(n):
        raise ValueError("pow_int exponent must be an integer")
    n = int(n)
    if n == 0:
        return Jet2.const(1.0, a.order)
    v = a.value
    if n < 0 and abs(v) <= _SINGULAR_TOL:
        raise JetDomainError(f"negative power of near-zero value {v!r}")
    f0 = v**n
    f1 = n * v ** (n - 1)
    f2 = n * (n - 1) * v ** (n - 2) if n != 1 else 0.0
    return _compose(a, f0, f1, f2)


ELEMENTARY = {
    "sin": sin,
    "cos": cos,
    "exp": exp,
    "sqrt": sqrt,
    "recip": recip,
}
