"""Slow reference implementations of the engine's array kernels.

Products loop over the 256-entry sign tables one coefficient pair at a
time, in any ring with +, - and * (floats, ``fractions.Fraction``, ``Jet2``);
geometry loops over indices with ``Jet2`` scalars.  Neither shares code with
the array kernels.  The per-direction operator loops below are the engine's
operators as they were before direction stacks: one frame direction, one
direction pair and one single-multivector product at a time, with the
planes theta^a ^ theta^b as wedge products.  Tests compare the array
kernels of ``cliffalg``, ``operators`` and ``geometry`` against them.
"""

from __future__ import annotations

import numpy as np

from rcdirac import cliffalg as ca
from rcdirac.jets import JET_LEN, MUL, Jet2, partial


class RefMV:
    """16 coefficients of any ring, multiplied by the generic pair loop."""

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @classmethod
    def of(cls, mv: ca.Multivector) -> "RefMV":
        return cls(Jet2(row.copy(), min(mv.order, 2)) for row in mv.data)

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
        acc = acc + Jet2(geom.frame_vectors[a, mu]) * partial(f, mu)
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
                coeffs[pair_blade(b, c)[0]] = -Jet2(geom.c[g, b, c])
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
                prefix = RefMV(ca.Multivector.blade(bits[:pos]).values())
                term = prefix.product(term, ca.WEDGE_SIGN)
            if bits[pos + 1:]:
                suffix = RefMV(ca.Multivector.blade(bits[pos + 1:]).values())
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
    """Nested lists of Jet2 from a jet table (..., 15)."""
    if table.ndim == 1:
        return Jet2(table)
    return [_jets(t) for t in table]


def ref_riemann_components(geom, conn_table: np.ndarray) -> np.ndarray:
    """R^a_{bcd} = e_c conn[d][a][b] - e_d conn[c][a][b]
    + conn[c][a][k] conn[d][k][b] - conn[d][a][k] conn[c][k][b]
    - c^k_{cd} conn[k][a][b]."""
    conn = _jets(conn_table)
    c_t = _jets(geom.c)
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
    return R


def ref_j_components(geom) -> np.ndarray:
    """J^a_{bcd}: nabla_c K^a_{db} (full connection on all three slots)
    - K^a_{ck} K^k_{db} + K^k_{cd} K^a_{kb}, antisymmetrized in c, d."""
    K = _jets(geom.K)
    full = _jets(geom.full)
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
    return cand - cand.transpose(0, 1, 3, 2, 4)


# -- per-direction operator loops ----------------------------------------------

ETA = (1.0, -1.0, -1.0, -1.0)


def _omega(geom, conn):
    return geom.omega_biform if conn == "full" else geom.lc_biform


def ref_pfaff_mv(geom, A: ca.Multivector, a: int) -> ca.Multivector:
    if A.is_numeric():
        return ca.Multivector.zero()
    return ca.Multivector.from_array(A.data @ geom.derivations[a], min(A.order - 1, 2))


def ref_cov_deriv(geom, A, a, conn="full"):
    return ref_pfaff_mv(geom, A, a) + ca.commutator(_omega(geom, conn)[a], A).scale(0.5)


def ref_spin_cov_deriv(geom, psi, a):
    return ref_pfaff_mv(geom, psi, a) + ca.geometric_product(geom.omega_biform[a], psi).scale(0.5)


def ref_right_rep_deriv(geom, phi, a):
    return ref_pfaff_mv(geom, phi, a) - ca.geometric_product(phi, geom.omega_biform[a]).scale(0.5)


def ref_torsion_operator(geom, a, V):
    """tau(e_a, V)^r = eta_r sum_b T^r_{ab} eta_b V_b, one Jet2 product at a time."""
    data = np.zeros_like(V.data)
    for r in range(4):
        acc = Jet2.const(0.0)
        for b in range(4):
            acc = acc + Jet2(geom.T[r, a, b]) * Jet2(V.data[1 + b]) * (ETA[r] * ETA[b])
        data[1 + r] = acc.data
    return ca.Multivector.from_array(data, min(V.order, 2))


def ref_frame_sum(geom, product, stack):
    """sum_a product(theta^a, stack[a])."""
    return sum(product(geom.theta[a], stack[a]) for a in range(4))


def ref_pair_sum(term_fn):
    """eta^{ab} term(a, b) + (theta^a ^ theta^b) term(a, b), geometric product."""
    out = sum(term_fn(a, a).scale(ETA[a]) for a in range(4))
    for a in range(4):
        for b in range(4):
            if a != b:
                plane = ca.wedge(ca.Multivector.basis(a), ca.Multivector.basis(b))
                out = out + ca.geometric_product(plane, term_fn(a, b))
    return out


def ref_vector_correction(geom, A, a, b):
    """Torsion correction of the squared operator on a vector, pair (a, b)."""
    D = [ref_cov_deriv(geom, A, c, "lc") for c in range(4)]
    tau = [ref_torsion_operator(geom, c, A) for c in range(4)]
    out = ref_torsion_operator(geom, a, D[b]).scale(0.5)
    out = out + ref_cov_deriv(geom, tau[b], a, "lc").scale(0.5)
    for c in range(4):
        out = out - D[c].scale(0.5 * geom.T[c][a][b])
        out = out - tau[c].scale(0.5 * geom.lc[a][c][b])
        out = out - tau[c].scale(0.25 * geom.T[c][a][b])
    return out + ref_torsion_operator(geom, a, tau[b]).scale(0.25)


def ref_right_correction(geom, A, a, b):
    """Right-action correction of the squared spin operator, pair (a, b)."""
    omega = geom.omega_biform
    cov1 = [ref_cov_deriv(geom, A, c) for c in range(4)]
    a_omega = [ca.geometric_product(A, omega[c]) for c in range(4)]
    d_omega = ref_pfaff_mv(geom, omega[b], a) + ca.commutator(omega[a], omega[b]).scale(0.5)
    out = ca.geometric_product(cov1[b], omega[a]).scale(0.5)
    out = out + ca.geometric_product(cov1[a], omega[b]).scale(0.5)
    out = out + ca.geometric_product(A, d_omega).scale(0.5)
    out = out + ca.geometric_product(a_omega[b], omega[a]).scale(0.25)
    for c in range(4):
        out = out - a_omega[c].scale(0.5 * geom.full[a][c][b])
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
    """sum_i a[i] o b[i] over the leading stack axis."""
    n = a.shape[0]
    left = (table @ a).reshape(n, ca.N_BLADES, ca.N_BLADES * JET_LEN).transpose(1, 0, 2)
    right = dense_mul_matrix(b).reshape(n * ca.N_BLADES * JET_LEN, JET_LEN)
    return left.reshape(ca.N_BLADES, -1) @ right


def dense_scale(a: np.ndarray, jet: np.ndarray) -> np.ndarray:
    return a @ dense_mul_matrix(jet)


def dense_pfaffs(geom, a: np.ndarray) -> np.ndarray:
    """e_c(A^I) along all four frame vectors, direction axis first."""
    return a @ geom.derivations.reshape((4,) + (1,) * (a.ndim - 2) + (JET_LEN, JET_LEN))


def dense_jet_einsum(spec: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``jets.jet_einsum`` written as one np.einsum with the product table."""
    inputs, out = spec.split("->")
    xs, ys = inputs.split(",")
    return np.einsum(f"{xs}S,{ys}T,STU->{out}U", x, y, MUL)
