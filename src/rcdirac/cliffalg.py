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
of shape (..., 16, w), blade by jet slot, with one jet ``order`` for the
whole array, and stores ``w = jets.width(order)`` slots: 15 at order 2 and
for constants, 5 below.  Leading axes, when present, are stack axes: a
(4, 16, w) multivector holds one item per frame direction, a (4, 4, 16, w)
one per direction pair, and indexing (``X[a]``, ``grid[a, b]``) picks
items.  Constant coefficients give the order ``jets.CONSTANT``, which no
derivative uses up.

Each product type is one kernel: its sign table, rearranged so that row
(k, j) holds the signs of the left blades paired with right blade j in
output blade k, gathers the signed left factors in one matmul, and two more
matmuls take the jet products through ``jets.MUL`` and sum them.  These are
the kernel's three steps: the left operand's expansion
(``left_expansion``), the right operand's jet product matrices
(``right_expansion``) and their matmul (``expanded_product``); a caller
that meets an operand again may keep its expansion and run the last step
alone, as ``operators`` does per frame.  The kernels follow the slot
contract of ``jets``: the result has the lower operand order and stores its
width, the matmuls run on that width, and a 15-slot operand (order 2 or
constant) is cut to it where it meets one of lower order; so does
scaling by a jet.  A sum or difference of operands of
different orders has the lower order's width.  Stack axes broadcast like
numpy's, so ``geometric_product(X[:, None], Y[None])`` is the whole
(a, b) grid of products, each operand expanded once.  The commutator has
its own table, GP[k, i, j] - GP[k, j, i], so blades that commute cancel
exactly instead of leaving rounding residue.

A product with a constant blade is a 16 x 16 signed permutation of the
other operand's rows.  These matrices are built at import time for the
coframe theta^a (``THETA_GP``, ``THETA_WEDGE``, ``THETA_LC``), the pairs
theta^a theta^b = eta^ab + theta^a ^ theta^b (``THETA_PAIR``), the planes
theta^a ^ theta^b (``PLANE_GP``) and the Hodge dual (``HODGE``).  A frame
sum has no layout of its own: it is the stack of products, summed over
the stack axes it runs over.  So sum_a theta^a X[a] is ``blade_sum`` with
``THETA_GP``, the stack theta^a X[a] summed over a, and ``product_sum``
is the kernel's stack A[i] B[i] summed over i.

The Hodge dual used throughout is ``hodge(A) = reversion(A) * e0123``; with
this convention the codifferential is a star-d-star sandwich with one
signature sign on every grade, -I^2 with I^2 = e0123^2 = prod(SIGNATURE),
and no grade-dependent signs (``operators.codifferential``).
"""

from __future__ import annotations

import numpy as np

from .jets import CONSTANT, JET_LEN, Jet2, clear_above, mul_matrix, width

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


def _build_tables():
    """The 256 blade pairs (i, j) grouped by output blade k = mask(i) ^
    mask(j), row k in order of i, with the signs of blade(i) * blade(j)
    (metric factors included) in the geometric, wedge and left-contraction
    products."""
    masks = np.array(BLADE_MASKS)
    index = np.empty(N_BLADES, dtype=int)
    index[masks] = np.arange(N_BLADES)
    gen = np.arange(N_GENERATORS)
    mi = np.broadcast_to(masks, (N_BLADES, N_BLADES))          # [k, i]
    mj = masks[:, None] ^ masks                                # [k, i]: the right blade's mask
    bi, bj = mi[..., None] >> gen & 1, mj[..., None] >> gen & 1
    # reordering swaps each generator a of the left blade past each b < a of the right
    swaps = (bi[..., :, None] & bj[..., None, :] & (gen[:, None] > gen)).sum(axis=(-2, -1))
    metric = np.where(bi & bj, SIGNATURE, 1.0).prod(axis=-1)  # e_g e_g = eta_g
    gp = np.where(swaps % 2, -1.0, 1.0) * metric
    wedge = np.where(mi & mj, 0.0, gp)
    lc = np.where(mi & ~mj, 0.0, gp)      # left mask a subset of the right
    return (
        np.tile(np.arange(N_BLADES), N_BLADES), index[mj].ravel(), gp.ravel(), wedge.ravel(), lc.ravel(),
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
# the kernel tables by name: a name can be part of a memo key, an array cannot
KERNEL_TABLES = {"gp": GP_TABLE, "wedge": WEDGE_TABLE, "lc": LC_TABLE, "commutator": COMMUTATOR_TABLE}


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
        order = CONSTANT
        for i, c in enumerate(coeffs):
            if isinstance(c, Jet2):
                order = min(order, c.order)
            elif not isinstance(c, _NUMERIC):
                raise TypeError(f"coefficient {i} is {type(c).__name__}, not a number or Jet2")
        n = width(order)
        data = np.zeros((N_BLADES, n))
        for i, c in enumerate(coeffs):
            if isinstance(c, Jet2):
                data[i] = c.data[:n]
            else:
                data[i, 0] = c
        self.data = clear_above(data, order)
        self.order = order

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_array(cls, data: np.ndarray, order) -> "Multivector":
        """Wrap a (..., 16, width(order)) blade-by-jet-slot array (not copied)."""
        if data.shape[-2:] != (N_BLADES, width(order)):
            raise ValueError(
                f"multivector data of order {order} must have shape (..., {N_BLADES}, {width(order)}), "
                f"got {data.shape}"
            )
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
            if a < mask.bit_length():    # not above every index before it
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
        """The 16 coefficients as ``Jet2`` values of 15 slots each, zero above
        the order; read-only views of ``data`` at order 2 and for constants."""
        return Coefficients(self)

    def is_numeric(self) -> bool:
        """True when every coefficient is a constant."""
        return self.order == CONSTANT

    def values(self) -> np.ndarray:
        """Coefficient values (jets collapsed to their value part)."""
        return self.data[..., 0].copy()

    def max_abs(self):
        """Largest coefficient value at each point, (P,): a NaN-propagating
        max over every axis but the point axis, the innermost stack axis.
        A single multivector (16, w) gives one number."""
        values = np.abs(self.data[..., 0])
        if values.ndim == 1:
            return values.max()
        return values.max(axis=tuple(range(values.ndim - 2)) + (values.ndim - 1,))

    def __getitem__(self, index) -> "Multivector":
        """Item or sub-stack of the leading stack axes."""
        data = self.data[index]
        if data.shape[-2:] != self.data.shape[-2:]:
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
        return _linear(np.add, self, other)

    def __radd__(self, other):
        # 0 + A, so that the builtin sum() adds multivectors
        if isinstance(other, int) and other == 0:
            return self
        return NotImplemented

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return _linear(np.subtract, self, other)

    def __neg__(self):
        return Multivector.from_array(-self.data, self.order)

    def scale(self, s, order=2) -> "Multivector":
        """Multiply every coefficient by a number, a ``Jet2``, or a bare jet
        array (..., width(order)) of jet order ``order``, whose leading axes
        broadcast against the stack axes: jets (P, w) scale each point's
        items."""
        if isinstance(s, _NUMERIC):
            return Multivector.from_array(self.data * s, self.order)
        if isinstance(s, Jet2):
            jet, order = s.data, s.order
        else:
            jet = np.asarray(s, dtype=np.float64)
            if jet.shape[-1:] != (width(order),):
                raise TypeError(f"cannot scale a multivector by {type(s).__name__} of shape {jet.shape} "
                                f"as jets of order {order}")
        order = min(self.order, order)
        n = width(order)
        return Multivector.from_array(clear_above(self.data[..., :n] @ mul_matrix(jet, n), order), order)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Multivector):
            return NotImplemented
        return self.scale(other)


def _linear(op, a: Multivector, b: Multivector) -> Multivector:
    """A sum or difference of two operands at the lower order's width: the
    wider operand is cut to it, and the slots that an order-1 operand fills
    above an order-0 result are cleared."""
    if a.order == b.order:
        return Multivector.from_array(op(a.data, b.data), a.order)
    order = min(a.order, b.order)
    n = width(order)
    return Multivector.from_array(clear_above(op(a.data[..., :n], b.data[..., :n]), order), order)


_NOT_GRADE = tuple(np.array(GRADES) != k for k in range(5))


class Coefficients:
    """Read-only sequence of a multivector's coefficients; each item is a
    ``Jet2`` of 15 slots: a row of the multivector's array, or a copy of
    a narrower row with zeros above it."""

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
        row = self._rows[i]
        if row.shape[-1] < JET_LEN:
            row = np.concatenate((row, np.zeros(JET_LEN - row.shape[-1])))
        return Jet2(row, self._order)


def left_expansion(a: np.ndarray, table: np.ndarray, n: int) -> np.ndarray:
    """The first step of a product: the left operand's arrays (..., 16, w)
    expanded through a kernel table into (..., 16, 16 n), row k holding
    for each (j, s) the signed left factor that multiplies slot s of right
    blade j into output blade k; only slots :n are read."""
    return (table @ a[..., :n]).reshape(a.shape[:-2] + (N_BLADES, N_BLADES * n))


def right_expansion(b: np.ndarray, n: int) -> np.ndarray:
    """The second step: the right operand's arrays (..., 16, w) as jet
    product matrices (..., 16 n, n), ``mul_matrix`` of each blade's jet."""
    return mul_matrix(b, n).reshape(b.shape[:-2] + (N_BLADES * n, n))


def expanded_product(left: np.ndarray, right: np.ndarray, order) -> Multivector:
    """The last step: the product of order ``order`` from the two
    expansions, one matmul whose stack axes broadcast."""
    return Multivector.from_array(clear_above(left @ right, order), order)


def _product(a: Multivector, b: Multivector, table: np.ndarray) -> Multivector:
    """The one Clifford product kernel, in three steps at the width of the
    lower operand order: the left operand's expansion through the table
    (``left_expansion``), the right operand's jet product matrices
    (``right_expansion``), and their matmul (``expanded_product``)."""
    order = min(a.order, b.order)
    n = width(order)
    return expanded_product(left_expansion(a.data, table, n), right_expansion(b.data, n), order)


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
    """sum_i a[i] o b[i] over the leading stack axis of both operands: the
    stack of products from ``_product``, summed over that axis; ``table``
    picks the product (GP_TABLE, WEDGE_TABLE, ...).  The other stack axis,
    if any, is the point axis."""
    if a.data.ndim < b.data.ndim:       # a point axis on one operand only
        a = a[:, None]
    elif b.data.ndim < a.data.ndim:
        b = b[:, None]
    products = _product(a, b, table)
    return Multivector.from_array(np.add.reduce(products.data, axis=0), products.order)


def blade_sum(matrices: np.ndarray, x: Multivector) -> Multivector:
    """sum_i B_i x[i], the products of constant blades B_i with the items of
    a stack, multiplied item by item and summed over the item axes;
    ``matrices`` (i..., 16, 16) holds the product matrix of each B_i (e.g.
    ``THETA_GP``), and the items are all of x's stack axes but the point
    axis."""
    items = matrices.shape[:-2]
    products = matrices.reshape(items + (1, N_BLADES, N_BLADES)) @ x.data
    return Multivector.from_array(np.add.reduce(products, axis=tuple(range(len(items)))), x.order)


def blade_products(matrices: np.ndarray, x: Multivector) -> Multivector:
    """The stack [i] of products B_i x of constant blades with a
    multivector or a point stack of them, one matmul; ``matrices``
    (n..., 16, 16) holds the product matrix of each B_i (e.g.
    ``THETA_GP``)."""
    shape = matrices.shape[:-2] + (1,) * (x.data.ndim - 2) + (N_BLADES, N_BLADES)
    return Multivector.from_array(matrices.reshape(shape) @ x.data, x.order)


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
    """Multivector arrays (..., P, 16, w) whose bivector coefficients are
    ``pairs[..., a, b, :, :]`` for a < b, from jet tables (..., 4, 4, P, w)."""
    out = np.zeros(pairs.shape[:-4] + pairs.shape[-2:-1] + (N_BLADES, pairs.shape[-1]))
    out[..., 5:11, :] = pairs[..., _PLANE_A, _PLANE_B, :, :].swapaxes(-3, -2)
    return out

