"""Slow reference implementations of the engine's array kernels.

The sign tables themselves are derived one blade pair at a time
(``ref_sign_tables``).  Products loop over the 256-entry sign tables one
coefficient pair at a time, in any ring with +, - and * (floats, ``fractions.Fraction``, ``Jet2``);
geometry loops over indices with ``Jet2`` scalars.  Neither shares code with
the array kernels.  The per-direction operator loops below are the engine's
operators as they were before direction stacks: one frame direction, one
direction pair and one single-multivector product at a time, with the
planes theta^a ^ theta^b as wedge products.  Tests compare the array
kernels of ``cliffalg``, ``operators`` and ``geometry`` against them, and
the compiled expression programs of ``fieldspec`` against ``ref_eval``,
the ``Jet2`` tree walk that they replaced.

The loops work on one-point frames: they read each geometry table at its
single point, and their multivectors are single (16, w) ones, which
broadcast against the engine's (1, 16, w) point stacks.  They compute on
all 15 jet slots: ``full_width`` pads a narrower jet array with zeros, and
``at_width`` cuts a result to the width of its order.

The engine builds no multivector coefficient by coefficient, so the
builders ``blade``, ``basis``, ``scalar``, ``zero`` and ``pseudoscalar``
live here, with ``commutator`` and ``reversion``, which no operator calls.
"""

from __future__ import annotations

import numpy as np

from rcdirac import cliffalg as ca
from rcdirac import fieldspec as fs
from rcdirac import jets
from rcdirac.geometry import CONN_ORDER, THETA, connection_biforms
from rcdirac.jets import (
    CONSTANT, JET_LEN, MUL, ChartPoint, Jet2, JetDomainError, derivation_matrices, partial, seed_coordinate, slots,
    width,
)


# -- builders and brackets ------------------------------------------------------


def blade(indices, coeff=1.0) -> ca.Multivector:
    """Blade e_{i1} ^ ... ^ e_{ik} for strictly increasing indices."""
    mask = 0
    for a in indices:
        if a < mask.bit_length():    # not above every index before it
            raise ValueError(f"blade indices must be strictly increasing: {indices}")
        mask |= 1 << a
    c = [0.0] * ca.N_BLADES
    c[ca.MASK_TO_INDEX[mask]] = coeff
    return ca.Multivector(c)


def basis(a: int) -> ca.Multivector:
    """The coframe one-form e_a."""
    return blade((a,))


def scalar(value) -> ca.Multivector:
    return blade((), value)


def zero() -> ca.Multivector:
    return ca.Multivector.from_array(np.zeros((ca.N_BLADES, JET_LEN)), CONSTANT)


def pseudoscalar() -> ca.Multivector:
    return blade(range(ca.N_GENERATORS))


def commutator(a: ca.Multivector, b: ca.Multivector) -> ca.Multivector:
    """Half-free bracket [a, b] = ab - ba, through the commutator table."""
    return ca._product(a, b, ca.COMMUTATOR_TABLE)


def reversion(a: ca.Multivector) -> ca.Multivector:
    return ca.Multivector.from_array(a.data * ca.REVERSION_SIGN[:, None], a.order)


# -- sign tables and coefficient loops --------------------------------------------------


def full_width(data: np.ndarray) -> np.ndarray:
    """Jets (..., w) padded with zeros to all 15 slots."""
    return np.concatenate((data, np.zeros(data.shape[:-1] + (JET_LEN - data.shape[-1],))), axis=-1)


def at_width(data: np.ndarray, order) -> np.ndarray:
    """Full-width jets (..., 15) cut to ``width(order)`` slots, with the
    slots above the ones the order defines set to zero; a copy."""
    out = data[..., :width(order)].copy()
    out[..., slots(order):] = 0.0
    return out


def full_derivations(geom) -> np.ndarray:
    """The frame's derivation matrices on all 15 slots, (4, P, 15, 15)."""
    return derivation_matrices(geom.frame_vectors)


def _mask_bits(m: int):
    return [a for a in range(ca.N_GENERATORS) if m >> a & 1]


def _product_sign(mi: int, mj: int) -> float:
    """Sign of blade(mi) * blade(mj), metric factors included."""
    inv = 0
    for b in _mask_bits(mj):
        higher = mi & ~((1 << (b + 1)) - 1)
        inv += bin(higher).count("1")
    sign = -1.0 if inv % 2 else 1.0
    for g in _mask_bits(mi & mj):
        sign *= ca.SIGNATURE[g]
    return sign


def ref_sign_tables():
    """``PAIR_I, PAIR_J, GP_SIGN, WEDGE_SIGN, LC_SIGN`` by a loop over the
    256 blade pairs, one sign at a time."""
    entries = []
    for i, mi in enumerate(ca.BLADE_MASKS):
        for j, mj in enumerate(ca.BLADE_MASKS):
            k = ca.MASK_TO_INDEX[mi ^ mj]
            s = _product_sign(mi, mj)
            w = s if (mi & mj) == 0 else 0.0
            c = s if (mi & ~mj) == 0 else 0.0  # left mask subset of right
            entries.append((k, i, j, s, w, c))
    entries.sort()  # ascending k; exactly 16 pairs land on each k
    return tuple(np.array([e[col] for e in entries]) for col in range(1, 6))


class RefMV:
    """16 coefficients of any ring, multiplied by the generic pair loop."""

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @classmethod
    def of(cls, mv: ca.Multivector) -> "RefMV":
        """The coefficients of a single multivector, or of a one-point stack."""
        rows = full_width(mv.data).reshape(ca.N_BLADES, JET_LEN)
        return cls(Jet2(row, min(mv.order, 2)) for row in rows)

    def product(self, other: "RefMV", sign: np.ndarray) -> "RefMV":
        out = [None] * ca.N_BLADES
        for k, i, j, s in zip(
            np.arange(ca.N_BLADES).repeat(ca.N_BLADES), ca.PAIR_I, ca.PAIR_J, sign
        ):
            if s == 0.0:
                continue
            term = self.coeffs[i] * other.coeffs[j]
            if s < 0:
                term = -term
            out[k] = term if out[k] is None else out[k] + term
        return RefMV(0.0 if c is None else c for c in out)

    def __mul__(self, other):
        return self.product(other, ca.GP_SIGN)

    def __sub__(self, other):
        return RefMV(a - b for a, b in zip(self.coeffs, other.coeffs))

    def values(self) -> np.ndarray:
        return np.array([c.value if isinstance(c, Jet2) else float(c) for c in self.coeffs])

    def data(self) -> np.ndarray:
        """(16, 15) jet array of the coefficients."""
        return np.array([
            c.data if isinstance(c, Jet2) else Jet2.const(float(c)).data
            for c in self.coeffs
        ])


def ref_e(geom, a: int, f: Jet2) -> Jet2:
    """e_a(f) = e_a^mu d_mu f, one Jet2 product per chart direction."""
    acc = Jet2.const(0.0)
    for mu in range(4):
        acc = acc + Jet2(geom.frame_vectors[a, mu, 0]) * partial(f, mu)
    return acc


def ref_pfaff(geom, A: RefMV, a: int) -> RefMV:
    return RefMV(ref_e(geom, a, c) for c in A.coeffs)


def ref_exterior_d(geom, A: RefMV) -> RefMV:
    """theta^b ^ e_b(A^I) theta_I + A^I d(theta_I), expanding d(theta_I) over
    the generators of each blade."""
    theta = [RefMV(1.0 if i == 1 + b else 0.0 for i in range(16)) for b in range(4)]
    dtheta = []
    for g in range(4):
        coeffs = [0.0] * 16
        for b in range(4):
            for c in range(b + 1, 4):
                coeffs[pair_blade(b, c)[0]] = -Jet2(full_width(geom.c[g, b, c, 0]))
        dtheta.append(RefMV(coeffs))
    out = [Jet2.const(0.0)] * 16
    for b in range(4):
        term = theta[b].product(ref_pfaff(geom, A, b), ca.WEDGE_SIGN)
        out = [x + y for x, y in zip(out, term.coeffs)]
    for i, coeff in enumerate(A.coeffs):
        bits = [g for g in range(4) if ca.BLADE_MASKS[i] >> g & 1]
        for pos, gen in enumerate(bits):
            term = dtheta[gen]
            if bits[:pos]:
                prefix = RefMV(blade(bits[:pos]).data[..., 0])
                term = prefix.product(term, ca.WEDGE_SIGN)
            if bits[pos + 1:]:
                suffix = RefMV(blade(bits[pos + 1:]).data[..., 0])
                term = term.product(suffix, ca.WEDGE_SIGN)
            sign = 1.0 if pos % 2 == 0 else -1.0
            out = [x + sign * coeff * y for x, y in zip(out, term.coeffs)]
    return RefMV(out)


def pair_blade(a: int, b: int):
    """(index, sign) of e_a ^ e_b in the canonical order; sign 0 if a == b."""
    if a == b:
        return 0, 0.0
    mask = (1 << a) | (1 << b)
    return ca.MASK_TO_INDEX[mask], 1.0 if a < b else -1.0


def _jets(table: np.ndarray):
    """Nested lists of Jet2 from a jet table (..., w)."""
    if table.ndim == 1:
        return Jet2(full_width(table))
    return [_jets(t) for t in table]


def _jets_at_point(table: np.ndarray):
    """Nested lists of Jet2 from a one-point jet table (..., 1, 15)."""
    return _jets(table[..., 0, :])


def ref_riemann_components(geom, conn_table: np.ndarray) -> np.ndarray:
    """R^a_{bcd} = e_c conn[d][a][b] - e_d conn[c][a][b]
    + conn[c][a][k] conn[d][k][b] - conn[d][a][k] conn[c][k][b]
    - c^k_{cd} conn[k][a][b], as a one-point table (4, 4, 4, 4, 1, 15)."""
    conn = _jets_at_point(conn_table)
    c_t = _jets_at_point(geom.c)
    R = np.zeros((4, 4, 4, 4, 15))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(c + 1, 4):
                    acc = ref_e(geom, c, conn[d][a][b]) - ref_e(geom, d, conn[c][a][b])
                    for k in range(4):
                        acc = acc + conn[c][a][k] * conn[d][k][b]
                        acc = acc - conn[d][a][k] * conn[c][k][b]
                        acc = acc - c_t[k][c][d] * conn[k][a][b]
                    R[a, b, c, d] = acc.data
                    R[a, b, d, c] = -acc.data
    return R[..., None, :]


def ref_j_components(geom) -> np.ndarray:
    """J^a_{bcd}: nabla_c K^a_{db} (full connection on all three slots)
    - K^a_{ck} K^k_{db} + K^k_{cd} K^a_{kb}, antisymmetrized in c, d, as a
    one-point table."""
    K = _jets_at_point(geom.K)
    full = _jets_at_point(geom.full)
    cand = np.zeros((4, 4, 4, 4, 15))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    acc = ref_e(geom, c, K[d][a][b])
                    for k in range(4):
                        acc = acc + full[c][a][k] * K[d][k][b]
                        acc = acc - full[c][k][d] * K[k][a][b]
                        acc = acc - full[c][k][b] * K[d][a][k]
                        acc = acc - K[c][a][k] * K[d][k][b]
                        acc = acc + K[c][k][d] * K[k][a][b]
                    cand[a, b, c, d] = acc.data
    return (cand - cand.transpose(0, 1, 3, 2, 4))[..., None, :]


# -- per-direction operator loops ----------------------------------------------

ETA = (1.0, -1.0, -1.0, -1.0)


def _omega(geom, conn):
    return geom.omega_biform if conn == "full" else connection_biforms(geom.lc)


def ref_pfaff_mv(geom, A: ca.Multivector, a: int) -> ca.Multivector:
    if A.is_numeric():
        return zero()
    order = min(A.order - 1, 2)
    return ca.Multivector.from_array(at_width(full_width(A.data) @ full_derivations(geom)[a], order), order)


def ref_cov_deriv(geom, A, a, conn="full"):
    return ref_pfaff_mv(geom, A, a) + commutator(_omega(geom, conn)[a], A).scale(0.5)


def ref_spin_cov_deriv(geom, psi, a):
    return ref_pfaff_mv(geom, psi, a) + ca.geometric_product(geom.omega_biform[a], psi).scale(0.5)


def ref_right_rep_deriv(geom, phi, a):
    return ref_pfaff_mv(geom, phi, a) - ca.geometric_product(phi, geom.omega_biform[a]).scale(0.5)


def ref_torsion_operator(geom, a, V):
    """tau(e_a, V)^r = eta_r sum_b T^r_{ab} eta_b V_b, one Jet2 product at a
    time, at most at the torsion table's order ``CONN_ORDER``."""
    v = full_width(V.data).reshape(ca.N_BLADES, JET_LEN)
    data = np.zeros_like(v)
    for r in range(4):
        acc = Jet2.const(0.0)
        for b in range(4):
            acc = acc + Jet2(full_width(geom.T[r, a, b, 0])) * Jet2(v[1 + b]) * (ETA[r] * ETA[b])
        data[1 + r] = acc.data
    order = min(V.order, CONN_ORDER)
    return ca.Multivector.from_array(at_width(data, order), order)


# the geometric-product signs of the blade pairs whose left (right) blade is
# a bivector: a product with a bivector skips the pairs of its zero blades
_BIVECTOR = np.array(ca.GRADES) == 2
_GP_SIGN_BIVECTOR_LEFT = np.where(_BIVECTOR[ca.PAIR_I], ca.GP_SIGN, 0.0)
_GP_SIGN_BIVECTOR_RIGHT = np.where(_BIVECTOR[ca.PAIR_J], ca.GP_SIGN, 0.0)


def ref_torsion_commutator(geom, a, A):
    """[beta_a, A] with the torsion biform beta_a = sum_{b<c} L_abc theta^b
    ^ theta^c, L_abc = (eta_b T^b_ac - eta_c T^c_ab) / 4, built one index at
    a time and multiplied by the coefficient-pair loop, at most at the
    torsion table's order ``CONN_ORDER``."""
    T = _jets_at_point(geom.T)
    coeffs = [Jet2.const(0.0)] * ca.N_BLADES
    for b in range(4):
        for c in range(b + 1, 4):
            k, _ = pair_blade(b, c)
            coeffs[k] = (T[b][a][c] * ETA[b] - T[c][a][b] * ETA[c]) * 0.25
    beta, V = RefMV(coeffs), RefMV.of(A)
    bracket = beta.product(V, _GP_SIGN_BIVECTOR_LEFT) - V.product(beta, _GP_SIGN_BIVECTOR_RIGHT)
    order = min(A.order, CONN_ORDER)
    return ca.Multivector.from_array(at_width(bracket.data(), order), order)


def ref_frame_sum(geom, product, stack):
    """sum_a product(theta^a, stack[a])."""
    return sum(product(THETA[a], stack[a]) for a in range(4))


def ref_pair_sum(term_fn):
    """eta^{ab} term(a, b) + (theta^a ^ theta^b) term(a, b), geometric product."""
    out = sum(term_fn(a, a).scale(ETA[a]) for a in range(4))
    for a in range(4):
        for b in range(4):
            if a != b:
                plane = ca.wedge(basis(a), basis(b))
                out = out + ca.geometric_product(plane, term_fn(a, b))
    return out


def ref_vector_correction(geom, A):
    """The torsion correction of the squared operator on a vector, with the
    torsion operator [beta_a, .], as a function of the pair (a, b); the
    first derivatives D_c A and tau_c A are shared by the pairs."""
    D = [ref_cov_deriv(geom, A, c, "lc") for c in range(4)]
    tau = [ref_torsion_commutator(geom, c, A) for c in range(4)]

    def pair(a, b):
        out = ref_torsion_commutator(geom, a, D[b]).scale(0.5)
        out = out + ref_cov_deriv(geom, tau[b], a, "lc").scale(0.5)
        for c in range(4):
            out = out - D[c].scale(0.5 * geom.T[c][a][b], CONN_ORDER)
            out = out - tau[c].scale(0.5 * geom.lc[a][c][b], CONN_ORDER)
            out = out - tau[c].scale(0.25 * geom.T[c][a][b], CONN_ORDER)
        return out + ref_torsion_commutator(geom, a, tau[b]).scale(0.25)

    return pair


def ref_right_correction(geom, A, a, b):
    """Right-action correction of the squared spin operator, pair (a, b)."""
    omega = geom.omega_biform
    cov1 = [ref_cov_deriv(geom, A, c) for c in range(4)]
    a_omega = [ca.geometric_product(A, omega[c]) for c in range(4)]
    d_omega = ref_pfaff_mv(geom, omega[b], a) + commutator(omega[a], omega[b]).scale(0.5)
    out = ca.geometric_product(cov1[b], omega[a]).scale(0.5)
    out = out + ca.geometric_product(cov1[a], omega[b]).scale(0.5)
    out = out + ca.geometric_product(A, d_omega).scale(0.5)
    out = out + ca.geometric_product(a_omega[b], omega[a]).scale(0.25)
    for c in range(4):
        out = out - a_omega[c].scale(0.5 * geom.full[a][c][b], CONN_ORDER)
    return out


# -- full-width array kernels -------------------------------------------------------
#
# The product, scale, pfaff and jet-contraction kernels as they were before
# the slot contract: all 15 jet slots computed, whatever the operands'
# orders.  The order-truncated kernels must agree with them on the slots
# that the result's order defines.

_DENSE_MUL_RIGHT = MUL.transpose(1, 0, 2).reshape(JET_LEN, JET_LEN * JET_LEN)


def dense_mul_matrix(b: np.ndarray) -> np.ndarray:
    return (b @ _DENSE_MUL_RIGHT).reshape(b.shape[:-1] + (JET_LEN, JET_LEN))


def dense_product(a: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Product of two multivector arrays (..., 16, 15) through a kernel table."""
    left = (table @ a).reshape(a.shape[:-2] + (ca.N_BLADES, ca.N_BLADES * JET_LEN))
    right = dense_mul_matrix(b).reshape(b.shape[:-2] + (ca.N_BLADES * JET_LEN, JET_LEN))
    return left @ right


def dense_product_sum(a: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_i a[i] o b[i] over the leading stack axis of two (n, 16, 15) stacks."""
    n = a.shape[0]
    left = (table @ a).reshape(n, ca.N_BLADES, ca.N_BLADES * JET_LEN).transpose(1, 0, 2)
    right = dense_mul_matrix(b).reshape(n * ca.N_BLADES * JET_LEN, JET_LEN)
    return left.reshape(ca.N_BLADES, -1) @ right


def dense_scale(a: np.ndarray, jet: np.ndarray) -> np.ndarray:
    return a @ dense_mul_matrix(jet)


def dense_pfaffs(geom, a: np.ndarray) -> np.ndarray:
    """e_c(A^I) along all four frame vectors, direction axis first, for a
    stack (..., P, 16, 15) with the frame's point axis."""
    derivations = full_derivations(geom)
    return a @ derivations.reshape((4,) + (1,) * (a.ndim - 3) + derivations.shape[1:])


def dense_jet_einsum(spec: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``jets.jet_einsum`` written as one np.einsum with the product table."""
    inputs, out = spec.split("->")
    xs, ys = inputs.split(",")
    return np.einsum(f"{xs}S,{ys}T,STU->{out}U", x, y, MUL)


def ref_eval(e, p: ChartPoint) -> Jet2:
    """Order-2 jet of an expression at p by a depth-first walk of its tree,
    one ``Jet2`` per node (the evaluator before compiled programs); a
    ``JetDomainError`` is raised as ``ExprDomainError``."""
    coords = [seed_coordinate(mu, p) for mu in range(4)]
    try:
        return _walk(e, coords)
    except JetDomainError as err:
        raise fs.ExprDomainError(p, str(err)) from err


def ref_eval_exprs(exprs, p: ChartPoint) -> np.ndarray:
    """Jets (n, 15) of n expressions at p, walked one after another; a
    ``Const(0)`` entry is a zero row and is not evaluated."""
    out = np.zeros((len(exprs), JET_LEN))
    for i, e in enumerate(exprs):
        if e != fs.ZERO_EXPR:
            out[i] = ref_eval(e, p).data
    return out


def _walk(e, coords) -> Jet2:
    if isinstance(e, fs.Const):
        return Jet2.const(e.value)
    if isinstance(e, fs.Coord):
        return coords[e.index]
    if isinstance(e, fs.Neg):
        return -_walk(e.arg, coords)
    if isinstance(e, fs.Pow):
        return jets.pow_int(_walk(e.base, coords), e.exponent)
    if isinstance(e, fs.Call):
        return jets.ELEMENTARY[e.fn](_walk(e.arg, coords))
    left = _walk(e.left, coords)
    right = _walk(e.right, coords)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    return left * jets.recip(right)
