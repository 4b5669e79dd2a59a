"""The Clifford algebra Cl(1,3) of multivectors with order-2 jet coefficients.

Basis and conventions
---------------------
Generators e0..e3 are the orthonormal coframe one-forms, with metric
signature eta = diag(+1, -1, -1, -1), so ``e_a e_b + e_b e_a = 2 eta_ab``.
A blade is internally a bitmask over the four generators (bit a set means
e_a present, factors in ascending order); the *coefficient index* visible to
callers is the grade-grouped canonical order::

    0: 1
    1..4: e0 e1 e2 e3
    5..10: e01 e02 e03 e12 e13 e23
    11..14: e012 e013 e023 e123
    15: e0123   (unit pseudoscalar)

Product signs come from transposition counting on the bitmasks plus one
metric factor per repeated generator, exactly once, at import time, into
flat 256-entry tables.  The same pair table drives the geometric product,
the wedge (pairs with disjoint masks) and the left contraction (pairs where
the left mask is a subset of the right mask).

Scalar ring and stacks
----------------------
Coefficients are order-2 jets (``jets.Jet2``); a plain number is a jet with
zero derivatives.  A multivector stores them as one float64 array ``data``
of shape (..., 16, 15), blade by jet slot, with one jet ``order`` for the
whole array.  Leading axes, when present, are stack axes: a (4, 16, 15)
multivector holds one item per frame direction, a (4, 4, 16, 15) one per
direction pair, and indexing (``X[a]``, ``grid[a, b]``) picks items.
Constant coefficients give the order ``jets.CONSTANT``, which no derivative
uses up.

Each product type is one kernel: its sign table, rearranged so that row
(k, j) holds the signs of the left blades paired with right blade j in
output blade k, gathers the signed left factors in one matmul, and two more
matmuls take the jet products through ``jets.MUL`` and sum them.  The
kernels follow the slot contract of ``jets``: the result has the lower
operand order, and below order 2 the matmuls run on the first 5 jet
slots only, with exact zeros written above the result's slots; so do
``product_sum`` and scaling by a jet.  A sum or difference of operands of
different orders clears the slots above the lower one.  Stack
axes broadcast like numpy's, so ``geometric_product(X[:, None], Y[None])``
is the whole (a, b) grid of products, each operand expanded once.  The
commutator has its own table, GP[k, i, j] - GP[k, j, i], so blades that
commute cancel exactly instead of leaving rounding residue.

A product with a constant blade is a 16 x 16 signed permutation of the
other operand's rows.  These matrices are built at import time for the
coframe theta^a (``THETA_GP``, ``THETA_WEDGE``, ``THETA_LC``), the pairs
theta^a theta^b = eta^ab + theta^a ^ theta^b (``THETA_PAIR``), the planes
theta^a ^ theta^b (``PLANE_GP``) and the Hodge dual (``HODGE``), so a frame
sum such as sum_a theta^a X[a] is one (16, 64) @ (64, 15) matmul
(``blade_sum``).  ``product_sum`` does the same for a sum of products of
two jet stacks, sum_i A[i] B[i].

The Hodge dual used throughout is ``hodge(A) = reversion(A) * e0123``; with
this convention the codifferential is a plain star-d-star sandwich on every
grade (no grade-dependent signs).
"""

from __future__ import annotations

import numpy as np

from .jets import CONSTANT, JET_LEN, Jet2, clear_above, mul_matrix, padded, width

N_GENERATORS = 4
N_BLADES = 16

SIGNATURE = (1.0, -1.0, -1.0, -1.0)

# Grade-grouped canonical order of blade bitmasks.
BLADE_MASKS = (
    0b0000,
    0b0001, 0b0010, 0b0100, 0b1000,
    0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100,
    0b0111, 0b1011, 0b1101, 0b1110,
    0b1111,
)
MASK_TO_INDEX = {m: i for i, m in enumerate(BLADE_MASKS)}
GRADES = tuple(bin(m).count("1") for m in BLADE_MASKS)
GRADE_INDICES = tuple(
    tuple(i for i in range(N_BLADES) if GRADES[i] == k) for k in range(5)
)

BLADE_NAMES = tuple(
    "1" if m == 0 else "e" + "".join(str(a) for a in range(4) if m >> a & 1)
    for m in BLADE_MASKS
)


class GradeError(ValueError):
    """Raised for grade projections outside 0..4 or wrong-grade operands."""


def _mask_bits(m: int):
    return [a for a in range(N_GENERATORS) if m >> a & 1]


def _product_sign(mi: int, mj: int) -> float:
    """Sign of blade(mi) * blade(mj), metric factors included."""
    inv = 0
    for b in _mask_bits(mj):
        higher = mi & ~((1 << (b + 1)) - 1)
        inv += bin(higher).count("1")
    sign = -1.0 if inv % 2 else 1.0
    for g in _mask_bits(mi & mj):
        sign *= SIGNATURE[g]
    return sign


def _build_tables():
    entries = []
    for i, mi in enumerate(BLADE_MASKS):
        for j, mj in enumerate(BLADE_MASKS):
            k = MASK_TO_INDEX[mi ^ mj]
            s = _product_sign(mi, mj)
            w = s if (mi & mj) == 0 else 0.0
            c = s if (mi & ~mj) == 0 else 0.0  # left mask subset of right
            entries.append((k, i, j, s, w, c))
    entries.sort()  # ascending k; exactly 16 pairs land on each k
    k_idx = np.array([e[0] for e in entries])
    assert (k_idx.reshape(N_BLADES, N_BLADES) == np.arange(N_BLADES)[:, None]).all()
    return (
        np.array([e[1] for e in entries]),
        np.array([e[2] for e in entries]),
        np.array([e[3] for e in entries]),
        np.array([e[4] for e in entries]),
        np.array([e[5] for e in entries]),
    )


PAIR_I, PAIR_J, GP_SIGN, WEDGE_SIGN, LC_SIGN = _build_tables()

# Per-blade involution signs.
REVERSION_SIGN = np.array([(-1.0) ** (k * (k - 1) // 2) for k in GRADES])
INVOLUTION_SIGN = np.array([(-1.0) ** k for k in GRADES])

_NUMERIC = (int, float, np.floating, np.integer)

_PLANE_A, _PLANE_B = np.array(
    [[a, b] for a in range(N_GENERATORS) for b in range(a + 1, N_GENERATORS)]
).T


def _dense(sign: np.ndarray) -> np.ndarray:
    """S[k, i, j]: the coefficient of blade k in blade(i) * blade(j)."""
    out = np.zeros((N_BLADES, N_BLADES, N_BLADES))
    out[np.repeat(np.arange(N_BLADES), N_BLADES), PAIR_I, PAIR_J] = sign
    return out


def _kernel_table(dense: np.ndarray) -> np.ndarray:
    """G[(k, j), i] = S[k, i, j]: ``G @ A`` holds, in row (k, j), the signed
    left factor that multiplies right blade j into output blade k."""
    return dense.transpose(0, 2, 1).reshape(N_BLADES * N_BLADES, N_BLADES)


_GP_DENSE = _dense(GP_SIGN)
_WEDGE_DENSE = _dense(WEDGE_SIGN)
GP_TABLE = _kernel_table(_GP_DENSE)
WEDGE_TABLE = _kernel_table(_WEDGE_DENSE)
LC_TABLE = _kernel_table(_dense(LC_SIGN))
COMMUTATOR_TABLE = _kernel_table(_GP_DENSE - _GP_DENSE.transpose(0, 2, 1))


def _left_matrices(dense: np.ndarray, values: np.ndarray) -> np.ndarray:
    """L[..., k, j]: the matrix of left multiplication by constant
    multivectors with coefficient values (..., 16), ``B A = L @ A.data``."""
    return np.einsum("kij,...i->...kj", dense, values)


_THETA = np.eye(N_BLADES)[1:5]  # values of theta^0..theta^3
THETA_GP = _left_matrices(_GP_DENSE, _THETA)                   # theta^a A
THETA_WEDGE = _left_matrices(_WEDGE_DENSE, _THETA)             # theta^a ^ A
THETA_LC = _left_matrices(_dense(LC_SIGN), _THETA)             # theta^a _| A
# values of theta^a o theta^b: column 1 + b of the matrix of theta^a o
THETA_PAIR = _left_matrices(_GP_DENSE, THETA_GP[..., 1:5].swapaxes(1, 2))      # theta^a theta^b A
PLANE_GP = _left_matrices(_GP_DENSE, THETA_WEDGE[..., 1:5].swapaxes(1, 2))     # (theta^a ^ theta^b) A
# hodge(A) = reversion(A) e0123 = HODGE @ A.data
HODGE = _GP_DENSE[:, :, 15] * REVERSION_SIGN


class Multivector:
    """A 16-coefficient element of Cl(1,3) with order-2 jet coefficients,
    or a stack of them along leading axes of ``data``."""

    __slots__ = ("data", "order")

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != N_BLADES:
            raise ValueError(f"need {N_BLADES} coefficients, got {len(coeffs)}")
        data = np.zeros((N_BLADES, JET_LEN))
        order = CONSTANT
        for i, c in enumerate(coeffs):
            if isinstance(c, Jet2):
                data[i] = c.data
                order = min(order, c.order)
            elif isinstance(c, _NUMERIC):
                data[i, 0] = c
            else:
                raise TypeError(f"coefficient {i} is {type(c).__name__}, not a number or Jet2")
        self.data = clear_above(data, order)
        self.order = order

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_array(cls, data: np.ndarray, order) -> "Multivector":
        """Wrap a (..., 16, 15) blade-by-jet-slot array (not copied)."""
        if data.shape[-2:] != (N_BLADES, JET_LEN):
            raise ValueError(f"multivector data must have shape (..., {N_BLADES}, {JET_LEN})")
        mv = cls.__new__(cls)
        mv.data = data
        mv.order = order
        return mv

    @classmethod
    def zero(cls) -> "Multivector":
        return cls.from_array(np.zeros((N_BLADES, JET_LEN)), CONSTANT)

    @classmethod
    def scalar(cls, value) -> "Multivector":
        return cls.blade((), value)

    @classmethod
    def basis(cls, a: int) -> "Multivector":
        """The coframe one-form e_a."""
        return cls.blade((a,))

    @classmethod
    def blade(cls, indices, coeff=1.0) -> "Multivector":
        """Blade e_{i1} ^ ... ^ e_{ik} for strictly increasing indices."""
        mask = 0
        for a in indices:
            if mask >> a & 1 or (mask and a <= max(_mask_bits(mask))):
                raise ValueError(f"blade indices must be strictly increasing: {indices}")
            mask |= 1 << a
        c = [0.0] * N_BLADES
        c[MASK_TO_INDEX[mask]] = coeff
        return cls(c)

    @classmethod
    def pseudoscalar(cls) -> "Multivector":
        return cls.blade(range(N_GENERATORS))

    # -- structure queries ------------------------------------------------

    @property
    def coeffs(self) -> "Coefficients":
        """The 16 coefficients as ``Jet2`` values, a read-only view of ``data``."""
        return Coefficients(self)

    def is_numeric(self) -> bool:
        """True when every coefficient is a constant."""
        return self.order == CONSTANT

    def values(self) -> np.ndarray:
        """Coefficient values (jets collapsed to their value part)."""
        return self.data[..., 0].copy()

    def max_abs(self) -> float:
        """Largest coefficient value over every blade and stack item; NaN
        if any value is NaN."""
        return float(np.max(np.abs(self.data[..., 0])))

    def __getitem__(self, index) -> "Multivector":
        """Item or sub-stack of the leading stack axes."""
        data = self.data[index]
        if data.shape[-2:] != (N_BLADES, JET_LEN):
            raise IndexError("index reaches past the stack axes of a multivector")
        return Multivector.from_array(data, self.order)

    def swapaxes(self, i: int, j: int) -> "Multivector":
        """The stack with stack axes i and j exchanged, e.g. ``grid[b, a]``
        at ``[a, b]``."""
        return Multivector.from_array(self.data.swapaxes(i, j), self.order)

    def __repr__(self):
        if self.data.ndim > 2:
            return f"Multivector(stack of shape {self.data.shape[:-2]})"
        vals = self.values()
        parts = [
            f"{vals[i]:+.4g}*{BLADE_NAMES[i]}"
            for i in range(N_BLADES)
            if vals[i] != 0.0
        ]
        return "Multivector(" + (" ".join(parts) if parts else "0") + ")"

    # -- linear operations ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return _linear(self.data + other.data, self.order, other.order)

    def __radd__(self, other):
        # 0 + A, so that the builtin sum() adds multivectors
        if isinstance(other, int) and other == 0:
            return self
        return NotImplemented

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return _linear(self.data - other.data, self.order, other.order)

    def __neg__(self):
        return Multivector.from_array(-self.data, self.order)

    def scale(self, s) -> "Multivector":
        """Multiply every coefficient by a number, a ``Jet2``, or a bare jet
        array (..., 15), which counts as order 2 and whose leading axes
        broadcast against the stack axes."""
        if isinstance(s, _NUMERIC):
            return Multivector.from_array(self.data * s, self.order)
        if isinstance(s, Jet2):
            jet, order = s.data, s.order
        else:
            jet, order = np.asarray(s, dtype=np.float64), 2
            if jet.shape[-1:] != (JET_LEN,):
                raise TypeError(f"cannot scale a multivector by {type(s).__name__}")
        order = min(self.order, order)
        n = width(order)
        return Multivector.from_array(padded(self.data[..., :n] @ mul_matrix(jet, n), order), order)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Multivector):
            return NotImplemented
        return self.scale(other)


def _linear(data: np.ndarray, order_a, order_b) -> Multivector:
    """A sum or difference of two operands: the higher-order one may fill
    slots above the result's order, which are cleared."""
    if order_a == order_b:
        return Multivector.from_array(data, order_a)
    order = min(order_a, order_b)
    return Multivector.from_array(clear_above(data, order), order)


_NOT_GRADE = tuple(np.array(GRADES) != k for k in range(5))


class Coefficients:
    """Read-only sequence of a multivector's coefficients; each item is a
    ``Jet2`` whose data is a row of the multivector's array."""

    __slots__ = ("_rows", "_order")

    def __init__(self, mv: Multivector):
        self._rows = mv.data.view()
        self._rows.flags.writeable = False
        self._order = min(mv.order, 2)

    def __len__(self):
        return N_BLADES

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(N_BLADES))]
        return Jet2(self._rows[i], self._order)


def _product(a: Multivector, b: Multivector, table: np.ndarray) -> Multivector:
    order = min(a.order, b.order)
    n = width(order)
    left = (table @ a.data[..., :n]).reshape(a.data.shape[:-2] + (N_BLADES, N_BLADES * n))
    right = mul_matrix(b.data, n).reshape(b.data.shape[:-2] + (N_BLADES * n, n))
    return Multivector.from_array(padded(left @ right, order), order)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    return _product(a, b, GP_TABLE)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    return _product(a, b, WEDGE_TABLE)


def left_contraction(a: Multivector, b: Multivector) -> Multivector:
    return _product(a, b, LC_TABLE)


def commutator(a: Multivector, b: Multivector) -> Multivector:
    """Half-free bracket [a, b] = ab - ba."""
    return _product(a, b, COMMUTATOR_TABLE)


def product_sum(a: Multivector, b: Multivector, table: np.ndarray = GP_TABLE) -> Multivector:
    """sum_i a[i] o b[i] over the leading stack axis of both operands, as
    one matmul; ``table`` picks the product (GP_TABLE, WEDGE_TABLE, ...)."""
    order = min(a.order, b.order)
    n, items = width(order), a.data.shape[0]
    left = (table @ a.data[..., :n]).reshape(items, N_BLADES, N_BLADES * n).transpose(1, 0, 2)
    right = mul_matrix(b.data, n).reshape(items * N_BLADES * n, n)
    return Multivector.from_array(padded(left.reshape(N_BLADES, -1) @ right, order), order)


def blade_sum(matrices: np.ndarray, x: Multivector) -> Multivector:
    """sum_i B_i x[i], the products of constant blades B_i with the items of
    a stack, as one matmul; ``matrices`` (n..., 16, 16) holds the product
    matrix of each B_i (e.g. ``THETA_GP``) and its leading axes are all of
    x's stack axes."""
    rows = np.moveaxis(matrices, -2, 0).reshape(N_BLADES, -1)
    return Multivector.from_array(rows @ x.data.reshape(-1, JET_LEN), x.order)


def blade_products(matrices: np.ndarray, x: Multivector) -> Multivector:
    """The stack [i] of products B_i x of constant blades with one
    multivector, one matmul; ``matrices`` (n..., 16, 16) as for
    ``blade_sum``."""
    return Multivector.from_array(matrices @ x.data, x.order)


def reversion(a: Multivector) -> Multivector:
    return Multivector.from_array(a.data * REVERSION_SIGN[:, None], a.order)


def grade_involution(a: Multivector) -> Multivector:
    return Multivector.from_array(a.data * INVOLUTION_SIGN[:, None], a.order)


def grade_project(a: Multivector, k: int) -> Multivector:
    if not 0 <= k <= 4:
        raise GradeError(f"grade {k} outside 0..4")
    data = a.data.copy()
    data[..., _NOT_GRADE[k], :] = 0.0
    return Multivector.from_array(data, a.order)


def hodge_dual(a: Multivector) -> Multivector:
    """Dual through the unit pseudoscalar: reversion(a) * e0123."""
    return Multivector.from_array(HODGE @ a.data, a.order)


def bivector_array(pairs: np.ndarray) -> np.ndarray:
    """Multivector arrays (..., 16, 15) whose bivector coefficients are
    ``pairs[..., a, b, :]`` for a < b, from jet tables (..., 4, 4, 15)."""
    out = np.zeros(pairs.shape[:-3] + (N_BLADES, JET_LEN))
    out[..., 5:11, :] = pairs[..., _PLANE_A, _PLANE_B, :]
    return out

