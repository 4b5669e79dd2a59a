"""Connection-level geometry built from a tetrad and a torsion table.

Index conventions (all tensors carried in orthonormal frame indices; the
metric is the constant eta = diag(1,-1,-1,-1), so raising/lowering is a sign
flip per index):

* connection-like tables ``conn[a][b][c]`` hold the coefficient with ``a``
  the differentiation direction, ``b`` the upper index and ``c`` the form
  index: ``cov_a theta^b = -conn[a][b][c] theta^c``;
* the torsion table ``T[c][a][b]`` holds ``T^c_ab``, antisymmetric in a,b;
* the contorsion table has the same slot layout as a connection.

The full connection is the unique metric-compatible one with the prescribed
torsion: Levi-Civita coefficients from the structure-coefficient closed form
plus the contorsion built from ``T``.  Connection biforms are calibrated so
that ``pfaff_a theta^b + [omega_a, theta^b]/2 = -conn[a][b][c] theta^c``
holds identically (checked at build time).

Every table is a float64 array of jets with the jet slot last (the layout of
``jets``): ``tetrad`` and ``frame_vectors`` are (4, 4, 15), connection-like
tables and the torsion (4, 4, 4, 15), curvature components (4, 4, 4, 4, 15).
Products of tables are index contractions through ``jets.jet_einsum``, and a
directional derivative is one matmul, ``e_a(f) = f @ derivations[a]``.
Tables follow the slot contract of ``jets``: the structure coefficients,
the Levi-Civita and full connections and the connection biforms have order
``CONN_ORDER`` (1), the curvature tables ``CURV_ORDER`` (0), and each is
computed on the slots its order defines, with zeros above.
Multivector-valued data are direction stacks: the coframe and the
connection biforms are (4, 16, 15) multivectors indexed by a, the curvature
biforms a (4, 4, 16, 15) grid, and the torsion operator tau(e_a, .) is one
(16, 60) jet matrix ``tau`` acting on the four vector coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .cliffalg import PLANE_GP, Multivector, bivector_array, blade_sum, commutator, grade_project
from .fieldspec import Scenario, eval_exprs
from .jets import (
    CONSTANT, HESS_I, HESS_J, JET_LEN, ChartPoint, Jet2, JetOrderError, clear_above, derivation_matrices,
    derivative, jet_einsum, slots,
)

ETA = (1.0, -1.0, -1.0, -1.0)
_ETA = np.array(ETA)
_DET_TOL = 1e-8
_CALIBRATION_TOL = 1e-9

# Jet orders: the tetrad and torsion come straight from scenario expressions,
# connection tables hold one derivative of the tetrad and curvature two.
FRAME_ORDER = 2
CONN_ORDER = 1
CURV_ORDER = 0

# Permutation signs epsilon^{abcd} with epsilon^{0123} = +1.
EPSILON = np.zeros((4, 4, 4, 4))
for perm in permutations(range(4)):
    sign = 1
    p = list(perm)
    for i in range(4):
        for j in range(i + 1, 4):
            if p[i] > p[j]:
                sign = -sign
    EPSILON[perm] = float(sign)

# The torsion components T^c_ab with a < b, which a scenario sets; the
# a > b half follows by antisymmetry.
_TORSION_UPPER = [(c, a, b) for c in range(4) for a in range(4) for b in range(a + 1, 4)]
_T_C, _T_A, _T_B = np.array(_TORSION_UPPER).T

# The coframe theta^a as a direction stack of constant one-forms.
THETA = Multivector.from_array(np.stack([Multivector.basis(a).data for a in range(4)]), CONSTANT)
THETA.data.flags.writeable = False  # shared by every frame


class DegenerateFrameError(ValueError):
    def __init__(self, point: ChartPoint, det: float):
        self.point = point
        super().__init__(
            f"tetrad is singular at point {point.x} (|det| = {abs(det):.3e})"
        )


class NonFiniteFrameError(ValueError):
    """The tetrad, torsion or frame-vector jets at a point are not finite."""


class GeometryError(RuntimeError):
    """Internal consistency failure while assembling the connection."""


@dataclass
class FrameGeometry:
    """All connection-level data of one scenario at one chart point."""

    point: ChartPoint
    tetrad: np.ndarray           # theta^a_mu, (4, 4, 15), rows a
    frame_vectors: np.ndarray    # e_a^mu, (4, 4, 15), rows a
    derivations: np.ndarray      # (4, 15, 15): e_a(f) = f @ derivations[a]
    det: Jet2
    c: np.ndarray                # structure coefficients c[c][a][b]
    T: np.ndarray                # torsion T[c][a][b]
    lc: np.ndarray               # Levi-Civita conn[a][b][c]
    K: np.ndarray                # contorsion conn[a][b][c]
    full: np.ndarray             # full connection conn[a][b][c]
    tau: np.ndarray              # (16, 60): tau(e_a, V)^r from V's vector jets
    theta: Multivector           # coframe one-forms, (4, 16, 15) stack
    omega_biform: Multivector    # full-connection biforms omega_{e_a}, stack
    lc_biform: Multivector       # Levi-Civita biforms, stack
    contorsion_biform: Multivector  # omega - lc biforms, stack
    # operator results shared by the checks at this point (see operators)
    shared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def e(self, a: int, f: Jet2) -> Jet2:
        """Directional derivative e_a(f) = e_a^mu d_mu f."""
        if f.order < 1:
            raise JetOrderError("cannot differentiate an order-0 jet")
        order = min(f.order - 1, FRAME_ORDER)
        return Jet2(derivative(f.data, self.derivations[a], order), order)

    def theta_down(self, a: int) -> Multivector:
        return self.theta[a].scale(ETA[a])


@dataclass
class CurvatureData:
    """Curvature of the full connection plus its Levi-Civita part and the
    contorsion-induced difference."""

    components: np.ndarray       # R^a_{bcd}, full connection
    lc_components: np.ndarray    # same for Levi-Civita
    biforms: Multivector         # (4, 4, 16, 15) grid [c, d], plane indices lowered
    scalar: Jet2                 # grade-0 part of the biform contraction
    contraction_grade2: Multivector
    contraction_grade4: Multivector
    j_components: np.ndarray     # J^a_{bcd} = (R - R_lc)^a_{bcd}, from contorsion
    j_form: Multivector          # grade-4 term as it enters the squared operator


def _derive(derivations: np.ndarray, table: np.ndarray, order) -> np.ndarray:
    """e_c of every entry of a jet table, c on a new leading axis, at the
    result order ``order``."""
    return derivative(table.reshape(-1, JET_LEN), derivations, order).reshape((4,) + table.shape)


# -- tetrad ---------------------------------------------------------------


def invert_tetrad(theta_mat: np.ndarray, point: ChartPoint):
    """Inverse of the 4x4 jet matrix theta^a_mu.

    Returns (frame_vectors, det) with frame_vectors[a][mu] = e_a^mu such
    that theta^a_mu e_b^mu = delta^a_b.  The jets of the inverse E of a
    matrix A follow from E A = 1: d_m E = -E A_m E and
    d_m d_n E = -E A_mn E + E A_m E A_n E + E A_n E A_m E.
    """
    value = theta_mat[..., 0]
    det = float(np.linalg.det(value))
    if abs(det) <= _DET_TOL:
        raise DegenerateFrameError(point, det)
    inv = np.linalg.inv(value)                          # inv[mu][a] = e_a^mu
    grad = np.moveaxis(theta_mat[..., 1:5], -1, 0)      # d_m theta, (4, 4, 4)
    hess = np.moveaxis(theta_mat[..., 5:], -1, 0)       # d_m d_n theta, (10, 4, 4)
    ig = inv @ grad
    igig = ig[HESS_I] @ ig[HESS_J]
    d2 = (ig[HESS_J] @ ig[HESS_I] + igig - inv @ hess) @ inv
    jets = np.concatenate((inv[None], -ig @ inv, d2))   # (15, mu, a)
    frame_vectors = jets.transpose(2, 1, 0)

    # d ln det = tr(E dA)
    tr_g = np.trace(ig, axis1=1, axis2=2)
    tr_h = np.trace(inv @ hess, axis1=1, axis2=2) - np.trace(igig, axis1=1, axis2=2)
    det_jet = det * np.concatenate(([1.0], tr_g, tr_g[HESS_I] * tr_g[HESS_J] + tr_h))
    return frame_vectors, Jet2(det_jet, FRAME_ORDER)


def build_frame(scenario: Scenario, point: ChartPoint) -> FrameGeometry:
    """Evaluate the scenario's tetrad and torsion at a point and assemble
    every connection-level object."""
    theta_mat = eval_exprs([e for row in scenario.tetrad for e in row], point).reshape(4, 4, JET_LEN)
    _require_finite(theta_mat, "the tetrad", point)
    frame_vectors, det = invert_tetrad(theta_mat, point)
    _require_finite(frame_vectors, "the inverse tetrad", point)

    T = np.zeros((4, 4, 4, JET_LEN))
    upper = eval_exprs([scenario.torsion_expr(c, a, b) for c, a, b in _TORSION_UPPER], point)
    T[_T_C, _T_A, _T_B] = upper
    T[_T_C, _T_B, _T_A] = -upper
    _require_finite(T, "the torsion", point)

    c_t = structure_coefficients(theta_mat, frame_vectors)
    lc = levi_civita(c_t)
    K = contorsion(T)
    full = clear_above(lc + K, CONN_ORDER)

    geom = FrameGeometry(
        point=point,
        tetrad=theta_mat,
        frame_vectors=frame_vectors,
        derivations=derivation_matrices(frame_vectors),
        det=det,
        c=c_t,
        T=T,
        lc=lc,
        K=K,
        full=full,
        tau=torsion_matrix(T),
        theta=THETA,
        omega_biform=connection_biforms(full),
        lc_biform=connection_biforms(lc),
        contorsion_biform=connection_biforms(K),
    )
    _calibrate_biforms(geom)
    return geom


def _require_finite(table: np.ndarray, what: str, point: ChartPoint):
    if not np.all(np.isfinite(table)):
        raise NonFiniteFrameError(f"{what} is not finite at point {point.x}")


def torsion_matrix(T) -> np.ndarray:
    """tau[(a, r), (b, s)] = eta_r eta_b T^r_{ab}[s]: with V's vector jets v
    (4, 15), row (a, r) of ``tau @ mul_matrix(v).reshape(60, 15)`` is the
    theta^r coefficient of the torsion operator tau(e_a, V)^r = V^b T^r_{ab}."""
    return np.einsum("r,b,rabs->arbs", _ETA, _ETA, T).reshape(16, 4 * JET_LEN)


def structure_coefficients(theta_mat, frame_vectors):
    """c^c_{ab} = theta^c([e_a, e_b]) from jets of the inverse tetrad."""
    # de[a, b, mu] = e_a(e_b^mu); the bracket is de[a, b] - de[b, a]
    de = _derive(derivation_matrices(frame_vectors), frame_vectors, CONN_ORDER)
    half = jet_einsum("cm,abm->cab", theta_mat, de, CONN_ORDER)
    return half - half.transpose(0, 2, 1, 3)


def levi_civita(c_t):
    """Unique zero-torsion metric-compatible coefficients from the structure
    coefficients: lowered form L_abc = (g_abc + g_bca - g_cab)/2 with
    g_abc = eta_bm c^m_{ac}."""
    g = np.einsum("bac...->abc...", _ETA[:, None, None, None] * c_t)
    low = 0.5 * (g + np.einsum("bca...->abc...", g) - np.einsum("cab...->abc...", g))
    return _ETA[None, :, None, None] * low


def contorsion(T):
    """Contorsion of the metric-compatible connection with torsion T.

    Componentwise, with the metric already diagonal:
    K^al_{be,rh} = -eta^{al,al} (eta_be T^be_{rh,al} + eta_rh T^rh_{be,al}
    - eta_al T^al_{be,rh}) / 2, stored as conn[be][al][rh].
    """
    low = _ETA[:, None, None, None] * T          # low[x, y, z] = eta_x T^x_{yz}
    s = (
        np.einsum("bra...->bar...", low)
        + np.einsum("rba...->bar...", low)
        - np.einsum("abr...->bar...", low)
    )
    return (-0.5 * _ETA[None, :, None, None]) * s


def connection_biforms(conn):
    """Biforms omega_{e_a} = L_abc theta^b ^ theta^c / 2 with L the lowered
    (antisymmetric-pair) coefficients."""
    low = _ETA[None, :, None, None] * conn
    pairs = bivector_array(0.5 * (low - low.transpose(0, 2, 1, 3)))
    return Multivector.from_array(clear_above(pairs, CONN_ORDER), CONN_ORDER)


def _calibrate_biforms(geom: FrameGeometry):
    """Abort if [omega_a, theta^b]/2 fails to reproduce -conn[a][b][c] theta^c."""
    resid = 0.5 * commutator(geom.omega_biform[:, None], geom.theta[None]).data   # [a, b]
    resid[..., 1:5, :] += geom.full
    worst = np.max(np.abs(resid[..., :slots(CONN_ORDER)]))
    if not worst <= _CALIBRATION_TOL:
        raise GeometryError(
            f"connection biform calibration failed at {geom.point.x}: "
            f"residual {worst:.3e}"
        )


def torsion_two_forms(geom: FrameGeometry):
    """The four torsion 2-forms Theta^rho = T^rho_{ab} theta^a ^ theta^b / 2,
    as a (4, 16, 15) stack indexed by rho."""
    return Multivector.from_array(bivector_array(geom.T), FRAME_ORDER)


# -- curvature -------------------------------------------------------------


def _riemann_components(geom: FrameGeometry, conn):
    """R^a_{bcd} = e_c conn[d][a][b] - e_d conn[c][a][b]
    + conn[c][a][k] conn[d][k][b] - conn[d][a][k] conn[c][k][b]
    - c^k_{cd} conn[k][a][b]."""
    # antisymmetrizing the half in (c, d) keeps R exactly antisymmetric
    half = (
        np.einsum("cdab...->abcd...", _derive(geom.derivations, conn, CURV_ORDER))
        + jet_einsum("cak,dkb->abcd", conn, conn, CURV_ORDER)
        - 0.5 * jet_einsum("kcd,kab->abcd", geom.c, conn, CURV_ORDER)
    )
    return half - half.transpose(0, 1, 3, 2, 4)


def j_components(geom: FrameGeometry):
    """The contorsion-induced curvature difference J^a_{bcd}, already
    antisymmetrized in its last index pair; satisfies R = R_lc + J.

    J is the antisymmetrized nabla_c K^a_{db} - K^a_{ck} K^k_{db}
    + K^k_{cd} K^a_{kb}, the full-connection covariant derivative acting on
    all three slots of K."""
    K, full = geom.K, geom.full
    # the K K terms share index patterns with two of the connection terms
    lc_part = full - K
    cand = (
        np.einsum("cdab...->abcd...", _derive(geom.derivations, K, CURV_ORDER))
        + jet_einsum("cak,dkb->abcd", lc_part, K, CURV_ORDER)
        - jet_einsum("ckd,kab->abcd", lc_part, K, CURV_ORDER)
        - jet_einsum("ckb,dak->abcd", full, K, CURV_ORDER)
    )
    return cand - cand.transpose(0, 1, 3, 2, 4)


def j_quadriform(J) -> Multivector:
    """Grade-4 torsion-curvature term, normalized as it enters the squared
    spin-Dirac identity: (1/8) sum J_{abcd} eps^{abcd} e0123 with the first
    index lowered."""
    data = np.zeros((16, JET_LEN))
    data[15] = np.einsum("abcd,abcd...->...", 0.125 * _ETA[:, None, None, None] * EPSILON, J)
    return Multivector.from_array(data, CURV_ORDER)


def curvature(geom: FrameGeometry) -> CurvatureData:
    """Curvature components, biforms, scalar, and the contorsion split."""
    R = _riemann_components(geom, geom.full)
    R_lc = _riemann_components(geom, geom.lc)

    low = _ETA[:, None, None, None, None] * R
    pairs = 0.5 * (low - low.transpose(1, 0, 2, 3, 4))          # [a, b, c, d]
    biforms = Multivector.from_array(
        bivector_array(np.moveaxis(pairs, (0, 1), (2, 3))), CURV_ORDER   # [c, d]
    )
    # sum over planes (theta^a ^ theta^b) biforms[a, b]
    contraction = blade_sum(PLANE_GP, biforms)

    J = j_components(geom)
    return CurvatureData(
        components=R,
        lc_components=R_lc,
        biforms=biforms,
        scalar=Jet2(contraction.data[0], CURV_ORDER),
        contraction_grade2=grade_project(contraction, 2),
        contraction_grade4=grade_project(contraction, 4),
        j_components=J,
        j_form=j_quadriform(J),
    )


# -- residual helpers (used by the harness geometry checks) -----------------


def _max_value(table) -> float:
    return float(np.max(np.abs(table[..., 0])))


def metricity_residual(conn) -> float:
    """max |eta_bm conn[a][m][c] + eta_cm conn[a][m][b]|."""
    low = _ETA[None, :, None, None] * conn
    return _max_value(low + low.transpose(0, 2, 1, 3))


def torsion_recovery_residual(geom: FrameGeometry) -> float:
    """Antisymmetrized full connection minus structure coefficients must
    reproduce the input torsion."""
    full = geom.full
    return _max_value(
        np.einsum("acb...->cab...", full)
        - np.einsum("bca...->cab...", full)
        - geom.c
        - geom.T
    )


def levi_civita_residual(geom: FrameGeometry) -> float:
    """Zero-torsion and metricity defining residuals of the Levi-Civita
    coefficients."""
    lc = geom.lc
    zero_torsion = (
        np.einsum("acb...->cab...", lc) - np.einsum("bca...->cab...", lc) - geom.c
    )
    return float(np.max([_max_value(zero_torsion), metricity_residual(lc)]))


def contorsion_trace_residual(geom: FrameGeometry) -> float:
    """Trace identity: eta^{br} K^a_{br} + eta^{sa} T^r_{rs} = 0."""
    lhs = np.einsum("b,bab...->a...", _ETA, geom.K)
    rhs = _ETA[:, None] * np.einsum("rra...->a...", geom.T)
    return _max_value(lhs + rhs)


def first_bianchi_residual(curv: CurvatureData) -> float:
    """Cyclic sum of the lowered Levi-Civita curvature over the last three
    indices."""
    R = curv.lc_components
    cyclic = R + np.einsum("acdb...->abcd...", R) + np.einsum("adbc...->abcd...", R)
    return _max_value(_ETA[:, None, None, None, None] * cyclic)


def decomposition_residual(curv: CurvatureData) -> float:
    """Componentwise residual of R = R_levi_civita + J."""
    return _max_value(curv.components - curv.lc_components - curv.j_components)


def torsion_trace(geom: FrameGeometry):
    """Q_b = T^a_{ab}, the torsion trace entering scalar square formulas."""
    return [Jet2(q, FRAME_ORDER) for q in np.einsum("aab...->b...", geom.T)]
