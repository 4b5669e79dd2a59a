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

A frame is built at P chart points at once (``build_frame`` takes one point
or a sequence of them).  Every table is a float64 array of jets with the
jet slot last (the layout of ``jets``) and the point axis just before it,
and follows the slot contract of ``jets``: it stores the ``width`` of its
jet order.  Only ``tetrad`` and ``frame_vectors`` have order
``FRAME_ORDER`` (2): (4, 4, P, 15).  The torsion ``T``, the structure
coefficients, the contorsion, the Levi-Civita and full connections and the
connection biforms have order ``CONN_ORDER`` (1), and the curvature tables
``CURV_ORDER`` (0): T and connection-like tables are (4, 4, 4, P, 5), curvature
components (4, 4, 4, 4, P, 5).  Products of tables are index contractions
through ``jets.jet_einsum`` with the point axis as its batch axis, and a
directional derivative is one matmul per point, ``e_a(f) = f @ D[a]``,
with ``D = derivations[n]`` (4, P, n, 5) the contiguous block for jets f
of width n.
Multivector-valued data are direction stacks with the point axis
innermost: the connection biforms are (4, P, 16, 5) multivectors indexed by
a, dtheta^g and the torsion 2-forms Theta^r (4, P, 16, 5) stacks indexed
by g and r, the coframe ``THETA`` one (4, 1, 16, 15) stack that every frame
shares and that broadcasts over the points, and the curvature biforms a
(4, 4, P, 16, 5) grid.

Ownership: a frame owns its constants, and its one memo, ``shared``
(``per_frame``), holds operator results only.  Each connection-level
table, dtheta, the torsion 2-forms and the full-connection biforms omega
included, is built once, by ``build_frame``, as a field of the frame's
``FrameGeometry``, and so are the halved biform expansions that the
covariant, spin and right-representative derivatives of ``operators``
apply on every call: the left expansions of omega / 2 through the
commutator and geometric product tables, of omega_lc / 2 through the
commutator table, and the right expansion of omega / 2; so is the
commutator expansion of the torsion biforms beta (``torsion_commutator``),
the torsion operator on every grade.  Each is read-only.  The omega_lc
and beta biforms live on only in their expansions.  What is the same in
every frame (``THETA``, ``ETA``, ``ETA_DIAG``, ``EPSILON``) is a module
constant.  An operator result depends on its arguments: it lives in
``shared`` and goes away with the frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .cliffalg import (
    COMMUTATOR_TABLE, GP_TABLE, PLANE_GP, SIGNATURE, Multivector, bivector_array, blade_sum, expanded_product,
    grade_project, left_expansion, right_expansion,
)
from .fieldspec import TORSION_UPPER, Scenario
from .jets import CONSTANT, HESS_I, HESS_J, JET_LEN, ChartPoint, derivation_matrices, derivative, jet_einsum, width

# the metric eta = diag(ETA) is the signature of the Clifford algebra;
# ETA_DIAG holds the same values as an array that every module shares
ETA = SIGNATURE
ETA_DIAG = np.array(ETA)
ETA_DIAG.flags.writeable = False
_DET_TOL = 1e-8
_CALIBRATION_TOL = 1e-9    # times the largest |conn| at the point, at least 1

# Jet orders: the tetrad and frame vectors come straight from scenario
# expressions, connection tables hold one derivative of the tetrad and
# curvature two; the torsion enters only beside the connection.
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
_T_C, _T_A, _T_B = np.array(TORSION_UPPER).T

# The coframe theta^a as a direction stack of constant one-forms, with a
# point axis of length 1 that broadcasts against any frame's points.
THETA = Multivector.from_array(np.stack([Multivector.basis(a).data[None] for a in range(4)]), CONSTANT)
THETA.data.flags.writeable = False  # shared by every frame


class DegenerateFrameError(ValueError):
    def __init__(self, point: ChartPoint, det: float):
        self.point = point
        super().__init__(
            f"tetrad is singular at point {point.x} (|det| = {abs(det):.3e})"
        )


class NonFiniteFrameError(ValueError):
    """The tetrad, torsion or frame-vector jets at a point are not finite."""

    def __init__(self, point: ChartPoint, what: str):
        self.point = point
        super().__init__(f"{what} is not finite at point {point.x}")


class GeometryError(ValueError):
    """The connection biforms fail to reproduce the connection at a point."""

    def __init__(self, point: ChartPoint, residual: float):
        self.point = point
        super().__init__(f"connection biform calibration failed at {point.x}: residual {residual:.3e}")


class FrameErrors(ValueError):
    """``errors`` maps the index of each point whose frame cannot be built
    to the error it gets alone, which names it as ``point``."""

    def __init__(self, errors: dict):
        self.errors = errors
        super().__init__(f"no frame at {len(errors)} point(s), first: {errors[min(errors)]!r}")


@dataclass(eq=False, repr=False)
class FrameGeometry:
    """All connection-level data of one scenario at P chart points; every
    table has the point axis just before its jet axis."""

    points: tuple                # the P chart points
    tetrad: np.ndarray           # theta^a_mu, (4, 4, P, 15), rows a
    frame_vectors: np.ndarray    # e_a^mu, (4, 4, P, 15), rows a
    derivations: dict            # {n: (4, P, n, 5)}: e_a(f) = f @ derivations[n][a], f of width n
    c: np.ndarray                # structure coefficients c[c][a][b], (4, 4, 4, P, 5)
    T: np.ndarray                # torsion T[c][a][b] at CONN_ORDER, (4, 4, 4, P, 5)
    lc: np.ndarray               # Levi-Civita conn[a][b][c], (4, 4, 4, P, 5)
    K: np.ndarray                # contorsion conn[a][b][c], (4, 4, 4, P, 5)
    full: np.ndarray             # full connection conn[a][b][c], (4, 4, 4, P, 5)
    omega_biform: Multivector    # full-connection biforms omega_{e_a}, (4, P, 16, 5)
    dtheta: Multivector          # dtheta^g = -c^g_{bc} theta^b ^ theta^c over b < c, (4, P, 16, 5)
    torsion_forms: Multivector   # torsion 2-forms Theta^r (``torsion_two_forms``), (4, P, 16, 5)
    # the halved biform expansions at the width of CONN_ORDER, read-only:
    # left (4, P, 16, 80), right (4, P, 80, 5).  The factor 1/2 changes no
    # bit of a product: every term and sum of the matmuls after it is
    # scaled exactly, so each rounds at the same place.
    omega_commutator_half: np.ndarray   # left_expansion(omega / 2, COMMUTATOR_TABLE)
    lc_commutator_half: np.ndarray      # left_expansion(omega_lc / 2, COMMUTATOR_TABLE)
    omega_gp_half: np.ndarray           # left_expansion(omega / 2, GP_TABLE)
    omega_right_half: np.ndarray        # right_expansion(omega / 2)
    # the torsion operator [beta_a, .], beta the connection biforms of T^b_ac / 2 at [a, b, c]
    torsion_commutator: np.ndarray      # left_expansion(beta, COMMUTATOR_TABLE), (4, P, 16, 80)
    # results shared by the checks at these points (``per_frame``)
    shared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def point(self) -> ChartPoint:
        """The chart point of a one-point frame."""
        (point,) = self.points
        return point


def per_frame(fn):
    """Share fn's result, a ``Multivector``, per frame: the first call for
    a set of arguments stores it, read-only, in ``geom.shared``; later
    calls return it.  The key is fn and the arguments, given by position,
    with omitted trailing ones filled from fn's defaults: it holds them,
    and a ``Multivector`` compares by identity."""
    n_args, defaults = fn.__code__.co_argcount - 1, fn.__defaults__ or ()

    @functools.wraps(fn)
    def shared(geom, *args):
        if len(args) < n_args:
            args += defaults[len(args) - n_args:]
        key = (fn, *args)
        out = geom.shared.get(key)
        if out is None:
            out = geom.shared[key] = fn(geom, *args)
            out.data.flags.writeable = False
        return out

    return shared


@dataclass(eq=False, repr=False)
class CurvatureData:
    """Curvature of the full connection plus its Levi-Civita part and the
    contorsion-induced difference, at the points of a frame."""

    components: np.ndarray       # R^a_{bcd}, full connection, (4, 4, 4, 4, P, 5)
    lc_components: np.ndarray    # same for Levi-Civita
    biforms: Multivector         # (4, 4, P, 16, 5) grid [c, d], plane indices lowered
    scalar: np.ndarray           # jets (P, 5), grade-0 part of the biform contraction
    contraction_grade2: Multivector  # grade-2 part of the biform contraction
    j_components: np.ndarray     # J^a_{bcd} = (R - R_lc)^a_{bcd}, from contorsion
    j_form: Multivector          # grade-4 term as it enters the squared operator


def _derive(derivations: dict, table: np.ndarray, order) -> np.ndarray:
    """e_c of every entry of a jet table (..., P, n), c on a new leading
    axis, at the result order ``order`` <= 1: one matmul per point."""
    n = table.shape[-1]
    t = table.reshape(-1, table.shape[-2], n).swapaxes(0, 1)
    d = derivative(t, derivations[width(order + 1)], order)      # (4, P, N, 5)
    return d.swapaxes(1, 2).reshape((4,) + table.shape[:-1] + (d.shape[-1],))


# -- tetrad ---------------------------------------------------------------


def invert_tetrad(theta_mat: np.ndarray, points, failed: dict):
    """Inverse of the 4x4 jet matrices theta^a_mu (4, 4, P, 15) at P points:
    the frame vectors, frame_vectors[a][mu] = e_a^mu such that
    theta^a_mu e_b^mu = delta^a_b; a point with a near-singular tetrad
    fails with ``DegenerateFrameError`` (see ``build_frame``).  The jets of
    the inverse E of a matrix A follow from E A = 1: d_m E = -E A_m E and
    d_m d_n E = -E A_mn E + E A_m E A_n E + E A_n E A_m E.
    """
    a = theta_mat.transpose(2, 0, 1, 3)                     # (P, a, mu, 15)
    value = a[..., 0].copy()
    for k, d in enumerate(np.linalg.det(value).tolist()):
        if abs(d) <= _DET_TOL:
            failed.setdefault(k, DegenerateFrameError(points[k], d))
    value[list(failed)] = np.eye(4)     # one singular matrix would make inv raise for the stack
    inv = np.linalg.inv(value)[:, None]                     # inv[p, 0, mu, a] = e_a^mu
    grad = a[..., 1:5].transpose(0, 3, 1, 2)                # d_m theta, (P, 4, 4, 4)
    hess = a[..., 5:].transpose(0, 3, 1, 2)                 # d_m d_n theta, (P, 10, 4, 4)
    ig = inv @ grad
    d2 = (ig[:, HESS_J] @ ig[:, HESS_I] + ig[:, HESS_I] @ ig[:, HESS_J] - inv @ hess) @ inv
    jets = np.concatenate((inv, -ig @ inv, d2), axis=1)     # (P, 15, mu, a)
    return np.ascontiguousarray(jets.transpose(3, 2, 0, 1))


def build_frame(scenario: Scenario, points) -> FrameGeometry:
    """Evaluate the scenario's tetrad and torsion at a chart point, or at a
    sequence of P points in one batch, and assemble every
    connection-level object.

    The steps run in order, each at all points, and a point fails at its
    first failing step with the error it gets alone, naming it as
    ``point``: ``DegenerateFrameError``, ``NonFiniteFrameError``,
    ``GeometryError``, or the error of a failing frame expression.  One
    ``FrameErrors`` holds every failing point's error; the other points,
    built without them, get the frames they have alone."""
    points = (points,) if isinstance(points, ChartPoint) else tuple(points)
    n = len(points)
    failed = {}     # point index -> the error of its first failing step
    # the torsion is evaluated at the points whose tetrad passed its checks
    stages = scenario.frame_program.stages(points, failed)
    theta_mat = np.ascontiguousarray(next(stages).reshape(n, 4, 4, JET_LEN).transpose(1, 2, 0, 3))
    _require_finite(theta_mat, "the tetrad", points, failed)
    frame_vectors = invert_tetrad(theta_mat, points, failed)
    _require_finite(frame_vectors, "the inverse tetrad", points, failed)

    # every evaluated torsion slot is checked; T keeps those of CONN_ORDER
    upper = next(stages).transpose(1, 0, 2)
    _require_finite(upper, "the torsion", points, failed)
    upper = upper[..., :width(CONN_ORDER)]
    T = np.zeros((4, 4, 4, n, width(CONN_ORDER)))
    T[_T_C, _T_A, _T_B] = upper
    T[_T_C, _T_B, _T_A] = -upper

    # the derivative of an order-2 jet has order 1: its 5 slots take all
    # 15 slots of the jet, those of an order-1 jet's derivative its 5
    wide = derivation_matrices(frame_vectors, width(CONN_ORDER))
    derivations = {JET_LEN: wide, width(CONN_ORDER): np.ascontiguousarray(wide[..., :width(CONN_ORDER), :])}
    c_t = structure_coefficients(theta_mat, frame_vectors, derivations)
    lc = levi_civita(c_t)
    K = contorsion(T)
    full = lc + K
    for table, what in ((c_t, "the structure coefficients"), (lc, "the Levi-Civita connection"),
                        (K, "the contorsion"), (full, "the connection")):
        _require_finite(table, what, points, failed)

    omega = connection_biforms(full)
    half_omega, half_lc, n = 0.5 * omega.data, 0.5 * connection_biforms(lc).data, width(CONN_ORDER)
    beta = connection_biforms(0.5 * T.transpose(1, 0, 2, 3, 4)).data    # from T: K's biforms on skew T only
    geom = FrameGeometry(
        points=points,
        tetrad=theta_mat,
        frame_vectors=frame_vectors,
        derivations=derivations,
        c=c_t,
        T=T,
        lc=lc,
        K=K,
        full=full,
        omega_biform=omega,
        dtheta=Multivector.from_array(bivector_array(-c_t), CONN_ORDER),
        torsion_forms=torsion_two_forms(T),
        omega_commutator_half=left_expansion(half_omega, COMMUTATOR_TABLE, n),
        lc_commutator_half=left_expansion(half_lc, COMMUTATOR_TABLE, n),
        omega_gp_half=left_expansion(half_omega, GP_TABLE, n),
        omega_right_half=right_expansion(half_omega, n),
        torsion_commutator=left_expansion(beta, COMMUTATOR_TABLE, n),
    )
    for half in (geom.omega_commutator_half, geom.lc_commutator_half, geom.omega_gp_half, geom.omega_right_half,
                 geom.torsion_commutator):
        half.flags.writeable = False
    _calibrate_biforms(geom, failed)
    if failed:
        raise FrameErrors(failed)
    return geom


def _require_finite(table: np.ndarray, what: str, points, failed: dict):
    """Fail each point at which the jet table (..., P, 15) is not finite."""
    finite = np.logical_and.reduce(np.isfinite(table), axis=(*range(table.ndim - 2), -1))
    for k in np.logical_not(finite).nonzero()[0].tolist():
        failed.setdefault(k, NonFiniteFrameError(points[k], what))


def structure_coefficients(theta_mat, frame_vectors, derivations):
    """c^c_{ab} = theta^c([e_a, e_b]) from jets of the inverse tetrad and
    its ``derivation_matrices``."""
    # de[a, b, mu] = e_a(e_b^mu); the bracket is de[a, b] - de[b, a]
    de = _derive(derivations, frame_vectors, CONN_ORDER)
    half = jet_einsum("cmp,abmp->cabp", theta_mat, de, CONN_ORDER)
    return half - half.transpose(0, 2, 1, 3, 4)


def levi_civita(c_t):
    """Unique zero-torsion metric-compatible coefficients from the structure
    coefficients: lowered form L_abc = (g_abc + g_bca - g_cab)/2 with
    g_abc = eta_bm c^m_{ac}."""
    g = (ETA_DIAG[:, None, None, None, None] * c_t).transpose(1, 0, 2, 3, 4)      # g[a, b, c]
    low = 0.5 * (g + g.transpose(2, 0, 1, 3, 4) - g.transpose(1, 2, 0, 3, 4))
    return ETA_DIAG[None, :, None, None, None] * low


def contorsion(T):
    """Contorsion of the metric-compatible connection with torsion T.

    Componentwise, with the metric already diagonal:
    K^al_{be,rh} = -eta^{al,al} (eta_be T^be_{rh,al} + eta_rh T^rh_{be,al}
    - eta_al T^al_{be,rh}) / 2, stored as conn[be][al][rh].
    """
    low = ETA_DIAG[:, None, None, None, None] * T    # low[x, y, z] = eta_x T^x_{yz}
    # s[b, a, r] = low[b, r, a] + low[r, b, a] - low[a, b, r]
    s = low.transpose(0, 2, 1, 3, 4) + low.transpose(1, 2, 0, 3, 4) - low.transpose(1, 0, 2, 3, 4)
    return (-0.5 * ETA_DIAG[None, :, None, None, None]) * s


def connection_biforms(conn):
    """Biforms omega_{e_a} = L_abc theta^b ^ theta^c / 2 with L the lowered
    (antisymmetric-pair) coefficients, a (4, P, 16, 5) stack."""
    low = ETA_DIAG[None, :, None, None, None] * conn
    return Multivector.from_array(bivector_array(0.5 * (low - low.transpose(0, 2, 1, 3, 4))), CONN_ORDER)


def _calibrate_biforms(geom: FrameGeometry, failed: dict):
    """Fail with ``GeometryError`` each point at which [omega_a,
    theta^b]/2 fails to reproduce -conn[a][b][c] theta^c, to within
    ``_CALIBRATION_TOL`` times the largest |conn| there, at least 1,
    through the halved expansion that ``operators.cov_derivs`` applies."""
    theta = right_expansion(THETA.data, width(CONN_ORDER))
    resid = expanded_product(geom.omega_commutator_half[:, None], theta[None], CONN_ORDER).data    # [a, b]
    resid[..., 1:5, :] += geom.full.swapaxes(2, 3)
    worst = np.maximum.reduce(np.abs(resid), axis=(0, 1, 3, 4))
    scale = np.maximum.reduce(np.abs(geom.full), axis=(0, 1, 2, 4), initial=1.0)
    for k, (w, s) in enumerate(zip(worst.tolist(), scale.tolist())):
        if not w <= _CALIBRATION_TOL * s:
            failed.setdefault(k, GeometryError(geom.points[k], w))


def torsion_two_forms(T):
    """The four torsion 2-forms Theta^rho = T^rho_{ab} theta^a ^ theta^b / 2
    of the torsion table T, as a (4, P, 16, 5) stack indexed by rho, at
    ``CONN_ORDER``."""
    return Multivector.from_array(bivector_array(T), CONN_ORDER)


# -- curvature -------------------------------------------------------------


def _riemann_components(geom: FrameGeometry, conn):
    """R^a_{bcd} = e_c conn[d][a][b] - e_d conn[c][a][b]
    + conn[c][a][k] conn[d][k][b] - conn[d][a][k] conn[c][k][b]
    - c^k_{cd} conn[k][a][b]."""
    # antisymmetrizing the half in (c, d) keeps R exactly antisymmetric
    half = (
        _derive(geom.derivations, conn, CURV_ORDER).transpose(2, 3, 0, 1, 4, 5)
        + jet_einsum("cakp,dkbp->abcdp", conn, conn, CURV_ORDER)
        - 0.5 * jet_einsum("kcdp,kabp->abcdp", geom.c, conn, CURV_ORDER)
    )
    return half - half.transpose(0, 1, 3, 2, 4, 5)


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
        _derive(geom.derivations, K, CURV_ORDER).transpose(2, 3, 0, 1, 4, 5)
        + jet_einsum("cakp,dkbp->abcdp", lc_part, K, CURV_ORDER)
        - jet_einsum("ckdp,kabp->abcdp", lc_part, K, CURV_ORDER)
        - jet_einsum("ckbp,dakp->abcdp", full, K, CURV_ORDER)
    )
    return cand - cand.transpose(0, 1, 3, 2, 4, 5)


def j_quadriform(J) -> Multivector:
    """Grade-4 torsion-curvature term, normalized as it enters the squared
    spin-Dirac identity: (1/8) sum J_{abcd} eps^{abcd} e0123 with the first
    index lowered; a (P, 16, 5) stack."""
    data = np.zeros(J.shape[-2:-1] + (16, J.shape[-1]))
    data[..., 15, :] = np.einsum("abcd,abcd...->...", 0.125 * ETA_DIAG[:, None, None, None] * EPSILON, J)
    return Multivector.from_array(data, CURV_ORDER)


def curvature(geom: FrameGeometry) -> CurvatureData:
    """Curvature components, biforms, scalar, and the contorsion split."""
    R = _riemann_components(geom, geom.full)
    R_lc = _riemann_components(geom, geom.lc)

    low = ETA_DIAG[:, None, None, None, None, None] * R
    pairs = 0.5 * (low - low.transpose(1, 0, 2, 3, 4, 5))          # [a, b, c, d]
    biforms = Multivector.from_array(
        bivector_array(pairs.transpose(2, 3, 0, 1, 4, 5)), CURV_ORDER    # [c, d]
    )
    # sum over planes (theta^a ^ theta^b) biforms[a, b]
    contraction = blade_sum(PLANE_GP, biforms)

    J = j_components(geom)
    return CurvatureData(
        components=R,
        lc_components=R_lc,
        biforms=biforms,
        scalar=contraction.data[..., 0, :],
        contraction_grade2=grade_project(contraction, 2),
        j_components=J,
        j_form=j_quadriform(J),
    )


def connection_torsion(geom: FrameGeometry, conn) -> np.ndarray:
    """conn[a][c][b] - conn[b][c][a] - c^c_{ab} at [c, a, b]: the torsion of
    the connection coefficients ``conn``."""
    return conn.swapaxes(0, 1) - conn.transpose(1, 2, 0, 3, 4) - geom.c


def lowered(conn) -> np.ndarray:
    """eta_bm conn[a][m][c], antisymmetric in (b, c) for a metric-compatible
    connection."""
    return ETA_DIAG[None, :, None, None, None] * conn


def connection_trace(conn) -> np.ndarray:
    """eta^{bb} conn^a_{bb}, the trace of a connection-like table over its
    direction and form index: jets (4, P, w) indexed by a."""
    return np.einsum("b,bab...->a...", ETA_DIAG, conn)


def torsion_trace(geom: FrameGeometry) -> np.ndarray:
    """Q_b = T^a_{ab}, the torsion trace entering scalar square formulas:
    jets (4, P, 5) at ``CONN_ORDER``, indexed by b."""
    return np.einsum("aab...->b...", geom.T)
