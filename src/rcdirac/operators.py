"""First- and second-order Dirac-type operators and the forms of their identities.

Every operator acts pointwise on a ``Multivector`` whose coefficients are
order-2 jets: the jets carry the exact derivatives, so a squared operator is
literally two applications, each consuming one jet order.  The frame holds
P points, and a field is a point stack (P, 16, 15), or one multivector
(16, 15) that broadcasts over the points; every result keeps the point
axis as its innermost stack axis, and stores the jet width of its order
(``jets.width``): a first derivative is (..., P, 16, 5).  Each identity
the engine verifies is available in at least two independently computed
forms.  A form that is more than one operator call is a function here:
the ``*_rhs`` functions build the right side of the check of the same
name, ``spin_commutator_forms`` and ``maxwell_residuals`` all the forms of
theirs, and ``dirac_square_assemblies`` both eta-plus-bivector assemblies
of the square, from one grid.  The harness compares the forms; nothing here
reduces them to residuals.  Scalar fields are scalar multivectors
(``scalar_multivector``); the scalar forms (``frame_wave`` and the parts
of the scalar square) read e_a f from blade 0 of ``pfaffs``, shared with
the Dirac operators on the same field.

Direction stacks: the paper builds every operator from sums over frame
indices, and each such family is one array kernel, not a loop over a, b, c.
Derivatives along all four e_a are one call returning a stack with the
direction axis first (``cov_derivs(geom, A)[a]`` is nabla_a A); applied to a
stack they prepend the new axis, so ``cov_derivs(geom, cov_derivs(geom,
A))[a, b]`` is nabla_a nabla_b A.  The same holds for ``pfaffs``,
``spin_cov_derivs``, ``right_rep_derivs`` and ``torsion_operators``;
``pfaff``, ``cov_deriv`` and ``spin_cov_deriv`` are per-direction
indexers.  A frame sum sum_a theta^a X[a] is the stack of products with
the constant-blade matrices, summed over the direction axis
(``cliffalg.blade_sum``), the pair sum eta^ab X[a, b] + (theta^a ^
theta^b) X[a, b] the same with theta^a theta^b, and a
connection term sum_c Gamma^c_ab X[c], like the torsion operator
tau(e_a, V)^r = eta_r eta_b T^r_ab V^b, one ``jets.jet_einsum`` of a
frame table with the field's jets.  The per-pair
corrections of the squared operators are (4, 4, P, 16, w) grids whose
products broadcast one operand along a and the other along b, so each
operand is expanded once.

Sharing: a frame owns its constants, and its memo holds operator results
only.  The covariant, spin and right-representative derivatives are e_a
plus half a one- or two-sided action of a connection biform, so the
product expansions that many calls meet are the halved ones of omega and
omega_lc: ``build_frame`` builds them once, as read-only fields of the
frame (``omega_commutator_half``, ``lc_commutator_half``,
``omega_gp_half``, ``omega_right_half``), and each call expands its
argument's jets alone.  Every other product, frame sums over
``geom.dtheta`` and ``geom.torsion_forms`` included, runs through the
plain kernel (``cliffalg.product_sum``), with the same bits.  Each pure
operator family (``pfaffs``, ``cov_derivs``, ``spin_cov_derivs``,
``right_rep_derivs``, ``torsion_operators``, the three Dirac parts,
``exterior_d``, ``codifferential``, both direct squares, ``spin_dirac``,
``spin_hessian``, ``torsion_pair_terms`` and the two correction grids) is
computed once per frame and argument: its result lives, read-only, in the
frame's one memo, ``geom.shared`` (``geometry.per_frame``), keyed by the
function and its arguments, and goes away with the frame; each batch of
points builds its own frame.  Writing into a shared result raises
``ValueError``; arithmetic on one returns new arrays.  Passing the same
multivector object again reuses the result, so an argument must not be
modified in place after a call.  Engine code gives every argument by
position, which skips the binding of defaults.

Connection selection: ``conn="lc"`` is the Levi-Civita (standard) operator
family, ``conn="full"`` the torsionful metric-compatible one.  The covariant
derivative on Clifford fields is the Pfaff derivative plus half the
commutator with the connection biform; the spin covariant derivative (on
spinor-field representatives) uses the one-sided left action, and the
right-representative derivative the one-sided right action.
"""

from __future__ import annotations

import math

import numpy as np

from .cliffalg import (
    GP_TABLE, GRADES, HODGE, N_BLADES, PLANE_GP, SIGNATURE, THETA_GP, THETA_LC, THETA_PAIR, THETA_WEDGE, WEDGE_TABLE,
    GradeError, Multivector, blade_products, blade_sum, commutator, expanded_product, geometric_product,
    hodge_dual, left_expansion, product_sum, right_expansion,
)
from .geometry import (
    CONN_ORDER, CURV_ORDER, ETA_DIAG, FRAME_ORDER, CurvatureData, FrameGeometry, connection_biforms,
    connection_trace, per_frame, torsion_trace,
)
from .jets import CONSTANT, JetOrderError, clear_above, derivative, jet_einsum, width

Connection = str  # "lc" | "full"


_GRADES = np.array(GRADES)
# product matrices of the lowered coframe theta_a = eta_a theta^a
THETA_DOWN_LC = ETA_DIAG[:, None, None] * THETA_LC
THETA_DOWN_WEDGE = ETA_DIAG[:, None, None] * THETA_WEDGE


def _require_grade(A: Multivector, k: int, what: str):
    # a NaN is not a grade error: it reaches the residual, which reports it
    if np.logical_or.reduce(np.abs(A.data[..., _GRADES != k, 0]) > 0.0, axis=None):
        raise GradeError(f"{what} must be pure grade {k}")


# The kernel width of every product with a connection biform, which has
# order CONN_ORDER, and so of the frame's halved biform expansions.
_N = width(CONN_ORDER)


def _along_directions(x: np.ndarray, A: Multivector) -> np.ndarray:
    """The expansion x (4, P, ...) of a direction stack shaped to broadcast,
    direction axis first, with A."""
    return x.reshape((4,) + (1,) * (A.data.ndim - 3) + x.shape[1:])


def _biform_actions(half: np.ndarray, A: Multivector) -> Multivector:
    """(omega_a o A) / 2 along all e_a, direction axis first, from one of
    the frame's halved left expansions of a biform stack omega."""
    return expanded_product(_along_directions(half, A), right_expansion(A.data, _N), min(CONN_ORDER, A.order))


def right_actions(geom: FrameGeometry, phi: Multivector) -> Multivector:
    """phi omega_a / 2 along all e_a, direction axis first: the halved right
    action of the connection biforms, from the frame's
    ``omega_right_half``.  On a stack phi[b] the result is the grid
    [a, b]."""
    left = left_expansion(phi.data, GP_TABLE, _N)
    return expanded_product(left, _along_directions(geom.omega_right_half, phi), min(phi.order, CONN_ORDER))


def _combine(spec: str, X: Multivector, table: np.ndarray, order=CONN_ORDER) -> Multivector:
    """Multivector stack from ``jet_einsum(spec, X.data, table)``, point
    axis p, blade axis k; e.g. spec "cpk,acbp->abpk" gives
    [a, b] = sum_c table[a][c][b] X[c] at each point."""
    order = min(X.order, order)
    return Multivector.from_array(jet_einsum(spec, X.data, table, order), order)


def eta_trace(grid: Multivector) -> Multivector:
    """eta^{ab} grid[a, b] (the metric is diagonal)."""
    return Multivector.from_array(np.einsum("a,aa...->...", ETA_DIAG, grid.data), grid.order)


def _pair_sum(grid: Multivector) -> Multivector:
    """eta^{ab} grid[a, b] + (theta^a ^ theta^b) grid[a, b] = theta^a theta^b grid[a, b]."""
    return blade_sum(THETA_PAIR, grid)


# -- first order -------------------------------------------------------------


@per_frame
def pfaffs(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Componentwise directional derivatives e_a(A^I) theta_I along all
    four frame vectors, direction axis first."""
    # the point axis of the derivations meets A's point axis, or a single
    # multivector (16, w) broadcast over the points
    block = geom.derivations[A.data.shape[-1]]
    shape = (4,) + (1,) * (A.data.ndim - 3) + block.shape[1:]
    if A.is_numeric():
        stack = np.broadcast_shapes(shape[:-2], A.data.shape[:-2])
        return Multivector.from_array(np.zeros(stack + A.data.shape[-2:]), CONSTANT)
    if A.order < 1:
        raise JetOrderError("directional derivative of an order-exhausted field")
    order = min(A.order, FRAME_ORDER) - 1
    return Multivector.from_array(derivative(A.data, block.reshape(shape), order), order)


@per_frame
def cov_derivs(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    """Covariant derivatives of a Clifford field along all e_a:
    pfaff_a(A) + [omega_a, A] / 2."""
    half = geom.omega_commutator_half if conn == "full" else geom.lc_commutator_half
    return pfaffs(geom, A) + _biform_actions(half, A)


@per_frame
def spin_cov_derivs(geom: FrameGeometry, psi: Multivector) -> Multivector:
    """Representative spinor derivatives: pfaff_a(psi) + omega_a psi / 2."""
    return pfaffs(geom, psi) + _biform_actions(geom.omega_gp_half, psi)


@per_frame
def right_rep_derivs(geom: FrameGeometry, phi: Multivector) -> Multivector:
    """Right-representative derivatives: pfaff_a(phi) - phi omega_a / 2."""
    return pfaffs(geom, phi) - right_actions(geom, phi)


@per_frame
def torsion_operators(geom: FrameGeometry, V: Multivector) -> Multivector:
    """tau(e_a, V)^r = eta_r eta_b T^r_{ab} V^b for all a, direction axis
    first, on grade-1 arguments: one ``jet_einsum`` of the eta-signed
    torsion table with V's vector jets [b, k, p], k V's stack axes
    flattened and p its point axis (one that broadcasts over the frame's
    points if V has none)."""
    _require_grade(V, 1, "torsion operator argument")
    vec = V.data[..., 1:5, :]
    stack = vec.shape[:-2] if vec.ndim > 2 else (1,)
    vec = vec.reshape(-1, stack[-1], 4, vec.shape[-1]).transpose(2, 0, 1, 3)
    signed = ETA_DIAG[:, None, None, None, None] * ETA_DIAG[:, None, None] * geom.T
    order = min(V.order, CONN_ORDER)
    tau = jet_einsum("rabp,bkp->akpr", signed, vec, order)     # [a, k, p, r]
    data = np.zeros((4,) + stack[:-1] + tau.shape[2:3] + (N_BLADES, tau.shape[-1]))
    data[..., 1:5, :] = tau.reshape(data.shape[:-2] + (4, -1))
    return Multivector.from_array(data, order)


def pfaff(geom: FrameGeometry, A: Multivector, a: int) -> Multivector:
    """e_a(A^I) theta_I, the direction-a item of ``pfaffs``."""
    return pfaffs(geom, A)[a]


def cov_deriv(geom: FrameGeometry, A: Multivector, a: int, conn: Connection = "full") -> Multivector:
    """nabla_a A, the direction-a item of ``cov_derivs``."""
    return cov_derivs(geom, A, conn)[a]


def spin_cov_deriv(geom: FrameGeometry, psi: Multivector, a: int) -> Multivector:
    """The direction-a item of ``spin_cov_derivs``."""
    return spin_cov_derivs(geom, psi)[a]


@per_frame
def dirac(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    """theta^a nabla_a A."""
    return blade_sum(THETA_GP, cov_derivs(geom, A, conn))


@per_frame
def dirac_contract(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    """theta^a _| nabla_a A."""
    return blade_sum(THETA_LC, cov_derivs(geom, A, conn))


@per_frame
def dirac_wedge(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    """theta^a ^ nabla_a A."""
    return blade_sum(THETA_WEDGE, cov_derivs(geom, A, conn))


@per_frame
def exterior_d(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Exterior derivative from antisymmetrized frame derivatives plus
    structure-coefficient terms; no connection involved.

    d(A^I theta_I) = theta^b ^ e_b(A^I) theta_I + A^I d(theta_I), and d acts
    on a coframe blade as a derivation: d(theta_I) = dtheta^g ^ (i_{e_g}
    theta_I), the interior product i_{e_g} being the left contraction by the
    lowered theta_g (the even dtheta^g commutes into first place)."""
    interior = blade_products(THETA_DOWN_LC, A)   # [g]: theta_g _| A
    return blade_sum(THETA_WEDGE, pfaffs(geom, A)) + product_sum(geom.dtheta, interior, WEDGE_TABLE)


# The codifferential's sign -I^2, I^2 = (theta^0123)^2 = prod(SIGNATURE),
# folded into its outer Hodge dual: exactly 1.0 in Lorentzian signature.
_CODIFF_HODGE = -math.prod(SIGNATURE) * HODGE


@per_frame
def codifferential(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Hodge codifferential -I^2 star d star, with I the unit pseudoscalar;
    the dual convention needs no grade-dependent sign."""
    d = exterior_d(geom, hodge_dual(A))
    return Multivector.from_array(_CODIFF_HODGE @ d.data, d.order)


# -- squares on scalars -------------------------------------------------------


@per_frame
def dirac_square_direct(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    return dirac(geom, dirac(geom, A, conn), conn)


def dirac_square_assemblies(
    geom: FrameGeometry, A: Multivector, conn: Connection = "full"
) -> tuple[Multivector, Multivector]:
    """The square assembled from eta^{ab}[...] plus theta^a ^ theta^b
    (Clifford) acting on the grid nabla_a nabla_b A - Gamma^c_{ab} nabla_c A,
    in two forms from the one grid: plain, and with the bivector half
    explicitly antisymmetrized."""
    cov1 = cov_derivs(geom, A, conn)
    table = geom.full if conn == "full" else geom.lc
    inner = cov_derivs(geom, cov1, conn) - _combine("cpk,acbp->abpk", cov1, table)
    half = (inner - inner.swapaxes(0, 1)).scale(0.5)
    return _pair_sum(inner), eta_trace(inner) + blade_sum(PLANE_GP, half)


def scalar_multivector(jets: np.ndarray, order) -> Multivector:
    """The scalar multivectors (P, 16, w) with scalar parts ``jets``
    (P, w), w = width(order)."""
    data = np.zeros(jets.shape[:-1] + (N_BLADES, jets.shape[-1]))
    data[..., 0, :] = jets
    return Multivector.from_array(data, order)


def frame_wave(geom: FrameGeometry, f: Multivector, conn, trace=None) -> Multivector:
    """eta^{bb} e_b e_b f - eta^{bb} conn^a_{bb} e_a f, plus
    eta^{aa} trace_a e_a f when a (4, P, 5) torsion trace is given, on the
    scalar part of f; a scalar multivector."""
    if f.order < 2:
        raise JetOrderError("the frame wave operator needs an order-2 jet")
    order = min(f.order, FRAME_ORDER) - 2
    df = pfaffs(geom, f).data[..., 0, :]                    # df[a] = e_a f
    weight = -connection_trace(conn)
    if trace is not None:
        weight = weight + ETA_DIAG[:, None, None] * trace
    second = np.einsum("b,bps,bpsu->pu", ETA_DIAG, df, geom.derivations[df.shape[-1]])
    return scalar_multivector(clear_above(second, order) + jet_einsum("ap,ap->p", weight, df, order), order)


def scalar_wave_part(geom: FrameGeometry, f: Multivector) -> Multivector:
    """Grade-0 part of the scalar square: the torsionful wave operator
    eta^{ba} e_b e_a f - eta^{br} lc^a_{br} e_a f + Q_b e^b f."""
    return frame_wave(geom, f, geom.lc, torsion_trace(geom))


def scalar_square_biform_part(geom: FrameGeometry, f: Multivector) -> Multivector:
    """Grade-2 part of the scalar square: -Theta^a e_a(f)."""
    df = pfaffs(geom, f)                                    # df[a] = e_a f
    return _combine("apk,ap->pk", geom.torsion_forms, -df.data[..., 0, :], df.order)


def scalar_square_standard_form(geom: FrameGeometry, f: Multivector) -> Multivector:
    """Scalar square of the scalar part of f, built from the standard
    (Levi-Civita) pieces plus torsion-trace and torsion-2-form
    corrections."""
    return scalar_square_biform_part(geom, f) + scalar_wave_part(geom, f)


def scalar_square_connection_form(geom: FrameGeometry, f: Multivector) -> Multivector:
    """Scalar square written through the full connection contraction:
    eta^{br} e_b e_r f - eta^{br} Gamma^a_{br} e_a f
    - T^a_{br} (theta^b ^ theta^r) e_a f / 2."""
    return scalar_square_biform_part(geom, f) + frame_wave(geom, f, geom.full)


# -- vector-level torsion correction ------------------------------------------


@per_frame
def torsion_pair_terms(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Grid [a, b] of the torsion terms both expansions of a grade-1 field's
    square share, D the standard derivative: tau_a(D_b A)/2 + D_a(tau_b A)/2
    + tau_a(tau_b A)/4."""
    D = cov_derivs(geom, A, "lc")
    tau = torsion_operators(geom, A)
    return (
        torsion_operators(geom, D).scale(0.5)
        + cov_derivs(geom, tau, "lc").scale(0.5)
        + torsion_operators(geom, tau).scale(0.25)
    )


@per_frame
def vector_square_torsion_correction(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Grid [a, b] of the per-direction-pair correction relating the
    torsionful square of a grade-1 field to the standard square:
    ``torsion_pair_terms`` - T^c_ab D_c A/2 - lc^c_ab tau_c A/2 - T^c_ab tau_c A/4."""
    D = cov_derivs(geom, A, "lc")
    tau = torsion_operators(geom, A)
    return (
        torsion_pair_terms(geom, A)
        - _combine("cpk,cabp->abpk", D.scale(0.5) + tau.scale(0.25), geom.T)
        - _combine("cpk,acbp->abpk", tau, geom.lc).scale(0.5)
    )


def pair_expansion_rhs(geom: FrameGeometry, A: Multivector) -> Multivector:
    """The second covariant derivatives nabla_a nabla_b of a grade-1 field
    expanded through the standard derivative and the torsion operator, the
    (a, b) grid."""
    return cov_derivs(geom, cov_derivs(geom, A, "lc"), "lc") + torsion_pair_terms(geom, A)


def square_torsion_relation_rhs(geom: FrameGeometry, A: Multivector) -> Multivector:
    """The torsionful square of a grade-1 field as the standard square plus
    the paired torsion correction."""
    return dirac_square_direct(geom, A, "lc") + _pair_sum(vector_square_torsion_correction(geom, A))


# -- spin operators ------------------------------------------------------------


@per_frame
def spin_dirac(geom: FrameGeometry, psi: Multivector) -> Multivector:
    return blade_sum(THETA_GP, spin_cov_derivs(geom, psi))


@per_frame
def spin_dirac_square_direct(geom: FrameGeometry, psi: Multivector) -> Multivector:
    return spin_dirac(geom, spin_dirac(geom, psi))


def _right_correction(
    geom: FrameGeometry, A: Multivector, first: Multivector, d_omega: Multivector
) -> Multivector:
    """Grid [a, b] of the right-action correction, from the first
    derivatives first[c] of A and the biform derivatives d_omega[a, b] of
    omega_b along e_a:
    first_b omega_a/2 + first_a omega_b/2 + A d_omega_ab/2
    + (A omega_b/2) omega_a/2 - Gamma^c_ab (A omega_c/2)."""
    a_omega = right_actions(geom, A)                    # [c]: A omega_c / 2
    half = right_actions(geom, first)                   # [a, b]: first_b omega_a / 2
    return (
        half + half.swapaxes(0, 1)
        + geometric_product(A, d_omega).scale(0.5)
        + right_actions(geom, a_omega)
        - _combine("cpk,acbp->abpk", a_omega, geom.full)
    )


@per_frame
def spin_square_right_correction(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Grid [a, b] of the per-direction-pair right-action correction
    relating the squared spin operator on a representative to the squared
    torsionful operator."""
    return _right_correction(
        geom, A, cov_derivs(geom, A, "full"), cov_derivs(geom, geom.omega_biform, "full")
    )


def spin_square_relation_rhs(geom: FrameGeometry, A: Multivector) -> Multivector:
    """The squared spin operator as the torsionful square plus the paired
    right-action correction (any grade)."""
    return dirac_square_direct(geom, A, "full") + _pair_sum(spin_square_right_correction(geom, A))


def spin_standard_square_rhs(geom: FrameGeometry, A: Multivector) -> Multivector:
    """The squared spin operator as the standard square plus both
    corrections (grade-1 fields)."""
    corr = spin_square_right_correction(geom, A) + vector_square_torsion_correction(geom, A)
    return dirac_square_direct(geom, A, "lc") + _pair_sum(corr)


def s2_levi_civita_rhs(geom: FrameGeometry, A: Multivector) -> Multivector:
    """The right-action correction ``spin_square_right_correction`` rewritten
    through the standard derivative and the torsion operator (grade-1
    fields, totally antisymmetric torsion); the derivative of the connection
    biform keeps its contorsion-commutator correction, which has no
    vector-level torsion-operator form."""
    omega = geom.omega_biform
    nabla = cov_derivs(geom, A, "lc") + torsion_operators(geom, A).scale(0.5)
    # [K_a, omega_b] / 2 on the grid [a, b]
    d_omega = cov_derivs(geom, omega, "lc") + commutator(connection_biforms(geom.K)[:, None], omega).scale(0.5)
    return _right_correction(geom, A, nabla, d_omega)


@per_frame
def spin_hessian(geom: FrameGeometry, psi: Multivector) -> Multivector:
    """The spin Hessian S_a S_b psi - Gamma^c_ab S_c psi, the (a, b) grid:
    its pair sum is the squared spin operator, its eta-trace the
    generalized spin Dalembertian."""
    spin1 = spin_cov_derivs(geom, psi)
    return spin_cov_derivs(geom, spin1) - _combine("cpk,acbp->abpk", spin1, geom.full)


def spin_square_assembly_rhs(geom: FrameGeometry, psi: Multivector) -> Multivector:
    """The squared spin operator as its eta / bivector assembly."""
    return _pair_sum(spin_hessian(geom, psi))


def spin_commutator_forms(
    geom: FrameGeometry, curv: CurvatureData, psi: Multivector
) -> tuple[Multivector, Multivector, Multivector]:
    """The commutator of spin derivatives and the curvature biform action
    it equals, in the bracket form (structure-coefficient term) and the
    expanded form (torsion-minus-connection coefficients), each an (a, b)
    grid."""
    spin1 = spin_cov_derivs(geom, psi)
    spin2 = spin_cov_derivs(geom, spin1)                   # [a, b]: S_a S_b psi
    lhs = spin2 - spin2.swapaxes(0, 1)
    curv_action = geometric_product(curv.biforms, psi).scale(0.5)
    bracket = curv_action + _combine("cpk,cabp->abpk", spin1, geom.c)
    # T^c_ab - Gamma^c_ab + Gamma^c_ba at [c, a, b]
    coeff = geom.T - geom.full.swapaxes(0, 1) + geom.full.transpose(1, 2, 0, 3, 4)
    expanded = curv_action - _combine("cpk,cabp->abpk", spin1, coeff)
    return lhs, bracket, expanded


def lichnerowicz_rhs(geom: FrameGeometry, curv: CurvatureData, psi: Multivector) -> Multivector:
    """Four-term right side of the generalized Lichnerowicz identity:
    generalized spin Dalembertian + R psi / 4 + J psi - Theta^c spin_c psi."""
    out = eta_trace(spin_hessian(geom, psi)) + psi.scale(curv.scalar, CURV_ORDER).scale(0.25)
    out = out + geometric_product(curv.j_form, psi)
    return out - product_sum(geom.torsion_forms, spin_cov_derivs(geom, psi))


# -- Maxwell forms --------------------------------------------------------------


def maxwell_residuals(
    geom: FrameGeometry, F: Multivector, J_e: Multivector
) -> tuple[Multivector, Multivector]:
    """Field-equation residuals in Clifford form and in right-representative
    spin form, which coincide for any F, whether or not F solves the
    equation."""
    _require_grade(F, 2, "field strength")
    _require_grade(J_e, 1, "current")
    clifford = dirac(geom, F, "full") - J_e
    spin = right_rep_derivs(geom, F) + _biform_actions(geom.omega_gp_half, F)
    spin = blade_sum(THETA_GP, spin) - J_e
    return clifford, spin
