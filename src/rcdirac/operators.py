"""First- and second-order Dirac-type operators and their identity residuals.

Every operator acts pointwise on a ``Multivector`` whose coefficients are
order-2 jets: the jets carry the exact derivatives, so a squared operator is
literally two applications, each consuming one jet order.  Each identity the
engine verifies is available in at least two independently computed forms;
the ``*_residual`` functions return the max absolute coefficient value of
the difference, NaN if any coefficient is NaN.

Direction stacks: the paper builds every operator from sums over frame
indices, and each such family is one array kernel, not a loop over a, b, c.
Derivatives along all four e_a are one call returning a stack with the
direction axis first (``cov_derivs(geom, A)[a]`` is nabla_a A); applied to a
stack they prepend the new axis, so ``cov_derivs(geom, cov_derivs(geom,
A))[a, b]`` is nabla_a nabla_b A.  The same holds for ``pfaffs``,
``spin_cov_derivs``, ``right_rep_derivs`` and ``torsion_operators`` (one jet
matrix, ``FrameGeometry.tau``); ``pfaff``, ``cov_deriv``, ``spin_cov_deriv``,
``right_rep_deriv`` and ``torsion_operator`` are their per-direction
indexers.  A frame sum sum_a theta^a X[a] is one matmul with a
constant-blade matrix (``cliffalg.blade_sum``), the pair sum eta^ab X[a, b]
+ (theta^a ^ theta^b) X[a, b] the same with theta^a theta^b, and a
connection term sum_c Gamma^c_ab X[c] one ``jets.jet_einsum``.  The per-pair
corrections of the squared operators are (4, 4, 16, 15) grids whose
products broadcast one operand along a and the other along b, so each
operand is expanded once.

Sharing: the checks at a point compare forms built from the same
ingredients, so each pure operator family (``pfaffs``, ``cov_derivs``,
``spin_cov_derivs``, ``right_rep_derivs``, ``torsion_operators``, the three
Dirac parts, ``exterior_d``, ``codifferential``, both direct squares,
``spin_dirac`` and the two correction grids) is computed once per frame and
argument.  Its result lives in ``geom.shared``, keyed by the function and
the identity of its multivector arguments, and goes away with the frame;
each pool worker builds its own frames.  Shared results are read-only:
writing into one raises ``ValueError``, and arithmetic on them returns new
arrays.  Passing the same multivector object again reuses the result, so
an argument must not be modified in place after a call.

Connection selection: ``conn="lc"`` is the Levi-Civita (standard) operator
family, ``conn="full"`` the torsionful metric-compatible one.  The covariant
derivative on Clifford fields is the Pfaff derivative plus half the
commutator with the connection biform; the spin covariant derivative (on
spinor-field representatives) uses the one-sided left action, and the
right-representative derivative the one-sided right action.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from .cliffalg import (
    GRADES, N_BLADES, PLANE_GP, THETA_GP, THETA_LC, THETA_PAIR, THETA_WEDGE, WEDGE_TABLE,
    GradeError, Multivector, bivector_array, blade_products, blade_sum, commutator,
    geometric_product, hodge_dual, product_sum,
)
from .geometry import (
    CONN_ORDER, ETA, FRAME_ORDER, CurvatureData, FrameGeometry, torsion_trace, torsion_two_forms,
)
from .jets import (
    CONSTANT, JET_LEN, Jet2, JetOrderError, clear_above, derivative, jet_einsum, mul_matrix, padded, slots, width,
)

Connection = str  # "lc" | "full"


_ETA = np.array(ETA)
_GRADES = np.array(GRADES)
# product matrices of the lowered coframe theta_a = eta_a theta^a
THETA_DOWN_LC = _ETA[:, None, None] * THETA_LC
THETA_DOWN_WEDGE = _ETA[:, None, None] * THETA_WEDGE


def _per_frame(fn):
    """Share fn's result per frame: the first call for a set of arguments
    stores it, read-only, in ``geom.shared``; later calls return it.  The
    key is fn plus the identity of each Multivector argument, with defaults
    filled in; the entry holds those arguments, so their ids stay theirs."""
    sig = inspect.signature(fn)
    n_params = len(sig.parameters)

    @functools.wraps(fn)
    def shared(geom, *args, **kwargs):
        if kwargs or len(args) + 1 != n_params:
            bound = sig.bind(geom, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        key = (fn,) + tuple(id(x) if isinstance(x, Multivector) else x for x in args)
        hit = geom.shared.get(key)
        if hit is None:
            out = fn(geom, *args)
            out.data.flags.writeable = False
            hit = geom.shared[key] = (args, out)
        return hit[1]

    return shared


def _require_grade(A: Multivector, k: int, what: str):
    # a NaN is not a grade error: it reaches the residual, which reports it
    if np.any(np.abs(A.data[..., _GRADES != k, 0]) > 0.0):
        raise GradeError(f"{what} must be pure grade {k}")


def _biform(geom: FrameGeometry, conn: Connection) -> Multivector:
    return geom.omega_biform if conn == "full" else geom.lc_biform


def _conn_table(geom: FrameGeometry, conn: Connection):
    return geom.full if conn == "full" else geom.lc


def _along_directions(stack: Multivector, A: Multivector) -> Multivector:
    """A (4, 16, 15) stack shaped to broadcast, direction axis first, with A."""
    shape = (4,) + (1,) * (A.data.ndim - 2) + (N_BLADES, JET_LEN)
    return Multivector.from_array(stack.data.reshape(shape), stack.order)


def _combine(spec: str, X: Multivector, table: np.ndarray, order=CONN_ORDER) -> Multivector:
    """Multivector stack from ``jet_einsum(spec, X.data, table)``, blade axis
    k; e.g. spec "ck,acb->abk" gives [a, b] = sum_c table[a][c][b] X[c]."""
    order = min(X.order, order)
    return Multivector.from_array(jet_einsum(spec, X.data, table, order), order)


def _eta_trace(grid: Multivector) -> Multivector:
    """eta^{ab} grid[a, b] (the metric is diagonal)."""
    return Multivector.from_array(np.einsum("a,aa...->...", _ETA, grid.data), grid.order)


def _pair_sum(grid: Multivector) -> Multivector:
    """eta^{ab} grid[a, b] + (theta^a ^ theta^b) grid[a, b] = theta^a theta^b grid[a, b]."""
    return blade_sum(THETA_PAIR, grid)


# -- first order -------------------------------------------------------------


@_per_frame
def pfaffs(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Componentwise directional derivatives e_a(A^I) theta_I along all
    four frame vectors, direction axis first."""
    if A.is_numeric():
        return Multivector.from_array(np.zeros((4,) + A.data.shape), CONSTANT)
    if A.order < 1:
        raise JetOrderError("directional derivative of an order-exhausted field")
    order = min(A.order - 1, FRAME_ORDER)
    derivations = geom.derivations.reshape((4,) + (1,) * (A.data.ndim - 2) + (JET_LEN, JET_LEN))
    return Multivector.from_array(derivative(A.data, derivations, order), order)


@_per_frame
def cov_derivs(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    """Covariant derivatives of a Clifford field along all e_a:
    pfaff_a(A) + [omega_a, A] / 2."""
    omega = _along_directions(_biform(geom, conn), A)
    return pfaffs(geom, A) + commutator(omega, A).scale(0.5)


@_per_frame
def spin_cov_derivs(geom: FrameGeometry, psi: Multivector) -> Multivector:
    """Representative spinor derivatives: pfaff_a(psi) + omega_a psi / 2."""
    omega = _along_directions(geom.omega_biform, psi)
    return pfaffs(geom, psi) + geometric_product(omega, psi).scale(0.5)


@_per_frame
def right_rep_derivs(geom: FrameGeometry, phi: Multivector) -> Multivector:
    """Right-representative derivatives: pfaff_a(phi) - phi omega_a / 2."""
    omega = _along_directions(geom.omega_biform, phi)
    return pfaffs(geom, phi) - geometric_product(phi, omega).scale(0.5)


@_per_frame
def torsion_operators(geom: FrameGeometry, V: Multivector) -> Multivector:
    """tau(e_a, V)^rho = V^beta T^rho_{a beta} for all a, direction axis
    first, on grade-1 arguments: one matmul with ``geom.tau``."""
    _require_grade(V, 1, "torsion operator argument")
    order = min(V.order, FRAME_ORDER)
    n, stack = width(order), V.data.shape[:-2]
    vec = mul_matrix(V.data[..., 1:5, :], n).reshape(stack + (4 * n, n))
    tau = geom.tau if n == JET_LEN else geom.tau.reshape(16, 4, JET_LEN)[..., :n].reshape(16, 4 * n)
    vectors = np.moveaxis((tau @ vec).reshape(stack + (4, 4, n)), -3, 0)
    data = np.zeros((4,) + V.data.shape)
    data[..., 1:5, :slots(order)] = vectors[..., :slots(order)]
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


def right_rep_deriv(geom: FrameGeometry, phi: Multivector, a: int) -> Multivector:
    """The direction-a item of ``right_rep_derivs``."""
    return right_rep_derivs(geom, phi)[a]


def torsion_operator(geom: FrameGeometry, a: int, V: Multivector) -> Multivector:
    """tau(e_a, V), the direction-a item of ``torsion_operators``."""
    return torsion_operators(geom, V)[a]


@_per_frame
def dirac(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    """theta^a nabla_a A."""
    return blade_sum(THETA_GP, cov_derivs(geom, A, conn))


@_per_frame
def dirac_contract(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    """theta^a _| nabla_a A."""
    return blade_sum(THETA_LC, cov_derivs(geom, A, conn))


@_per_frame
def dirac_wedge(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    """theta^a ^ nabla_a A."""
    return blade_sum(THETA_WEDGE, cov_derivs(geom, A, conn))


def _dtheta(geom: FrameGeometry) -> Multivector:
    """dtheta^g = -c^g_{bc} theta^b ^ theta^c summed over b < c, a stack."""
    return Multivector.from_array(bivector_array(-geom.c), CONN_ORDER)


@_per_frame
def exterior_d(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Exterior derivative from antisymmetrized frame derivatives plus
    structure-coefficient terms; no connection involved.

    d(A^I theta_I) = theta^b ^ e_b(A^I) theta_I + A^I d(theta_I), and d acts
    on a coframe blade as a derivation: d(theta_I) = dtheta^g ^ (i_{e_g}
    theta_I), the interior product i_{e_g} being the left contraction by the
    lowered theta_g (the even dtheta^g commutes into first place)."""
    interior = blade_products(THETA_DOWN_LC, A)   # [g]: theta_g _| A
    return blade_sum(THETA_WEDGE, pfaffs(geom, A)) + product_sum(
        _dtheta(geom), interior, WEDGE_TABLE
    )


@_per_frame
def codifferential(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Hodge codifferential as a star-d-star sandwich (sign-free in this
    engine's dual convention)."""
    return hodge_dual(exterior_d(geom, hodge_dual(A)))


# -- squares on scalars -------------------------------------------------------


@_per_frame
def dirac_square_direct(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    return dirac(geom, dirac(geom, A, conn), conn)


def dirac_square_assembled(
    geom: FrameGeometry, A: Multivector, conn: Connection = "full", antisymmetrized: bool = False
) -> Multivector:
    """Square assembled from eta^{ab}[...] plus theta^a ^ theta^b (Clifford)
    acting on the grid nabla_a nabla_b A - Gamma^c_{ab} nabla_c A; the
    antisymmetrized flag switches the bivector half to its explicitly
    antisymmetrized form."""
    cov1 = cov_derivs(geom, A, conn)
    inner = cov_derivs(geom, cov1, conn) - _combine("ck,acb->abk", cov1, _conn_table(geom, conn))
    if not antisymmetrized:
        return _pair_sum(inner)
    half = (inner - inner.swapaxes(0, 1)).scale(0.5)
    return _eta_trace(inner) + blade_sum(PLANE_GP, half)


def frame_wave(geom: FrameGeometry, f: Jet2, conn, trace=None) -> Jet2:
    """eta^{bb} e_b e_b f - eta^{bb} conn^a_{bb} e_a f, plus
    eta^{aa} trace_a e_a f when a (4, 15) torsion trace is given."""
    if f.order < 2:
        raise JetOrderError("the frame wave operator needs an order-2 jet")
    order = f.order - 2
    n_in, n = width(order + 1), width(order)
    df = derivative(f.data, geom.derivations, order + 1)    # df[a] = e_a f
    weight = -np.einsum("b,bab...->a...", _ETA, conn)
    if trace is not None:
        weight = weight + _ETA[:, None] * trace
    second = np.einsum("b,bs,bsu->u", _ETA, df[:, :n_in], geom.derivations[:, :n_in, :n])
    return Jet2(padded(second, order) + jet_einsum("a,a->", weight, df, order), order)


def scalar_wave_part(geom: FrameGeometry, f: Jet2) -> Jet2:
    """Grade-0 part of the scalar square: the torsionful wave operator
    eta^{ba} e_b e_a f - eta^{br} lc^a_{br} e_a f + Q_b e^b f."""
    Q = np.array([q.data for q in torsion_trace(geom)])
    return frame_wave(geom, f, geom.lc, Q)


def scalar_square_biform_part(geom: FrameGeometry, f: Jet2) -> Multivector:
    """Grade-2 part of the scalar square: -Theta^a e_a(f)."""
    if f.order < 1:
        raise JetOrderError("cannot differentiate an order-0 jet")
    order = min(f.order - 1, FRAME_ORDER)
    df = derivative(f.data, geom.derivations, order)       # df[a] = e_a f
    return _combine("ak,a->k", torsion_two_forms(geom), -df, order)


def _with_scalar(A: Multivector, s: Jet2) -> Multivector:
    data = A.data.copy()
    data[0] = s.data
    order = min(A.order, s.order)
    return Multivector.from_array(clear_above(data, order), order)


def scalar_square_standard_form(geom: FrameGeometry, f: Jet2) -> Multivector:
    """Scalar square built from the standard (Levi-Civita) pieces plus
    torsion-trace and torsion-2-form corrections."""
    return _with_scalar(scalar_square_biform_part(geom, f), scalar_wave_part(geom, f))


def scalar_square_connection_form(geom: FrameGeometry, f: Jet2) -> Multivector:
    """Scalar square written through the full connection contraction:
    eta^{br} e_b e_r f - eta^{br} Gamma^a_{br} e_a f
    - T^a_{br} (theta^b ^ theta^r) e_a f / 2."""
    return _with_scalar(scalar_square_biform_part(geom, f), frame_wave(geom, f, geom.full))


# -- vector-level torsion correction ------------------------------------------


@_per_frame
def vector_square_torsion_correction(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Grid [a, b] of the per-direction-pair correction relating the
    torsionful square to the standard square on grade-1 fields (six tau/T
    terms, D the standard derivative):
    tau_a(D_b A)/2 + D_a(tau_b A)/2 - T^c_ab D_c A/2 - lc^c_ab tau_c A/2
    - T^c_ab tau_c A/4 + tau_a(tau_b A)/4."""
    _require_grade(A, 1, "torsion square correction argument")
    D = cov_derivs(geom, A, "lc")
    tau = torsion_operators(geom, A)
    return (
        torsion_operators(geom, D).scale(0.5)
        + cov_derivs(geom, tau, "lc").scale(0.5)
        - _combine("ck,cab->abk", D.scale(0.5) + tau.scale(0.25), geom.T, FRAME_ORDER)
        - _combine("ck,acb->abk", tau, geom.lc).scale(0.5)
        + torsion_operators(geom, tau).scale(0.25)
    )


def covariant_pair_expansion_residual(geom: FrameGeometry, A: Multivector) -> float:
    """Second covariant derivative of a grade-1 field expanded through the
    standard derivative and the torsion operator, over the (a, b) grid."""
    D = cov_derivs(geom, A, "lc")
    tau = torsion_operators(geom, A)
    lhs = cov_derivs(geom, cov_derivs(geom, A, "full"), "full")
    rhs = (
        cov_derivs(geom, D, "lc")
        + torsion_operators(geom, D).scale(0.5)
        + cov_derivs(geom, tau, "lc").scale(0.5)
        + torsion_operators(geom, tau).scale(0.25)
    )
    return (lhs - rhs).max_abs()


def vector_square_relation_residual(geom: FrameGeometry, A: Multivector) -> float:
    """Torsionful square minus standard square minus the paired torsion
    correction, on a grade-1 field."""
    lhs = dirac_square_direct(geom, A, "full")
    rhs = dirac_square_direct(geom, A, "lc") + _pair_sum(vector_square_torsion_correction(geom, A))
    return (lhs - rhs).max_abs()


# -- spin operators ------------------------------------------------------------


@_per_frame
def spin_dirac(geom: FrameGeometry, psi: Multivector) -> Multivector:
    return blade_sum(THETA_GP, spin_cov_derivs(geom, psi))


@_per_frame
def spin_dirac_square_direct(geom: FrameGeometry, psi: Multivector) -> Multivector:
    return spin_dirac(geom, spin_dirac(geom, psi))


def _right_correction(
    geom: FrameGeometry, A: Multivector, first: Multivector, d_omega: Multivector
) -> Multivector:
    """Grid [a, b] of the right-action correction, from the first
    derivatives first[c] of A and the biform derivatives d_omega[a, b] of
    omega_b along e_a:
    first_b omega_a/2 + first_a omega_b/2 + A d_omega_ab/2
    + (A omega_b) omega_a/4 - Gamma^c_ab (A omega_c)/2."""
    omega = geom.omega_biform
    a_omega = geometric_product(A, omega)                              # [c]
    first_omega = geometric_product(first[None], omega[:, None])       # [a, b]: first_b omega_a
    return (
        (first_omega + first_omega.swapaxes(0, 1)).scale(0.5)
        + geometric_product(A, d_omega).scale(0.5)
        + geometric_product(a_omega[None], omega[:, None]).scale(0.25)
        - _combine("ck,acb->abk", a_omega, geom.full).scale(0.5)
    )


@_per_frame
def spin_square_right_correction(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Grid [a, b] of the per-direction-pair right-action correction
    relating the squared spin operator on a representative to the squared
    torsionful operator."""
    return _right_correction(
        geom, A, cov_derivs(geom, A, "full"), cov_derivs(geom, geom.omega_biform, "full")
    )


def spin_square_relation_residual(geom: FrameGeometry, A: Multivector) -> float:
    """Squared spin operator vs torsionful square plus the paired
    right-action correction (any grade)."""
    lhs = spin_dirac_square_direct(geom, A)
    rhs = dirac_square_direct(geom, A, "full") + _pair_sum(spin_square_right_correction(geom, A))
    return (lhs - rhs).max_abs()


def spin_standard_square_residual(geom: FrameGeometry, A: Multivector) -> float:
    """Squared spin operator vs standard square plus both corrections
    (grade-1 fields)."""
    _require_grade(A, 1, "spin standard square argument")
    lhs = spin_dirac_square_direct(geom, A)
    corr = spin_square_right_correction(geom, A) + vector_square_torsion_correction(geom, A)
    rhs = dirac_square_direct(geom, A, "lc") + _pair_sum(corr)
    return (lhs - rhs).max_abs()


def s2_levi_civita_residual(geom: FrameGeometry, A: Multivector) -> float:
    """Right-action correction rewritten through the standard derivative and
    the torsion operator (grade-1 fields, totally antisymmetric torsion);
    the derivative of the connection biform keeps its contorsion-commutator
    correction, which has no vector-level torsion-operator form."""
    _require_grade(A, 1, "right-action correction argument")
    omega = geom.omega_biform
    nabla = cov_derivs(geom, A, "lc") + torsion_operators(geom, A).scale(0.5)
    d_omega = (
        pfaffs(geom, omega)
        + commutator(geom.lc_biform[:, None], omega[None]).scale(0.5)
        + commutator(geom.contorsion_biform[:, None], omega[None]).scale(0.5)
    )
    direct = spin_square_right_correction(geom, A)
    return (direct - _right_correction(geom, A, nabla, d_omega)).max_abs()


def spin_square_assembly_residual(geom: FrameGeometry, psi: Multivector) -> float:
    """Direct squared spin operator vs the eta / bivector assembly."""
    spin1 = spin_cov_derivs(geom, psi)
    term = spin_cov_derivs(geom, spin1) - _combine("ck,acb->abk", spin1, geom.full)
    direct = spin_dirac_square_direct(geom, psi)
    return (direct - _pair_sum(term)).max_abs()


def spin_commutator_residuals(
    geom: FrameGeometry, curv: CurvatureData, psi: Multivector
) -> tuple[float, float]:
    """Commutator of spin derivatives vs the curvature biform action, in the
    bracket form (structure-coefficient term) and the expanded form
    (torsion-minus-connection coefficients), over the (a, b) grid."""
    spin1 = spin_cov_derivs(geom, psi)
    spin2 = spin_cov_derivs(geom, spin1)                   # [a, b]: S_a S_b psi
    lhs = spin2 - spin2.swapaxes(0, 1)
    curv_action = geometric_product(curv.biforms, psi).scale(0.5)
    bracket = curv_action + _combine("ck,cab->abk", spin1, geom.c)
    # T^c_ab - Gamma^c_ab + Gamma^c_ba at [c, a, b]
    coeff = (
        geom.T
        - np.einsum("acb...->cab...", geom.full)
        + np.einsum("bca...->cab...", geom.full)
    )
    expanded = curv_action - _combine("ck,cab->abk", spin1, coeff)
    return (lhs - bracket).max_abs(), (lhs - expanded).max_abs()


def lichnerowicz_rhs(
    geom: FrameGeometry, curv: CurvatureData, psi: Multivector
) -> Multivector:
    """Four-term right side of the generalized Lichnerowicz identity:
    generalized spin Dalembertian + R psi / 4 + J psi - Theta^c spin_c psi."""
    spin1 = spin_cov_derivs(geom, psi)
    weight = np.einsum("a,aba...->b...", _ETA, geom.full)  # eta^aa Gamma^b_aa
    out = _eta_trace(spin_cov_derivs(geom, spin1)) - _combine("bk,b->k", spin1, weight)
    out = out + psi.scale(curv.scalar).scale(0.25)
    out = out + geometric_product(curv.j_form, psi)
    return out - product_sum(torsion_two_forms(geom), spin1)


def lichnerowicz_residual(
    geom: FrameGeometry, curv: CurvatureData, psi: Multivector
) -> float:
    direct = spin_dirac_square_direct(geom, psi)
    return (direct - lichnerowicz_rhs(geom, curv, psi)).max_abs()


# -- Maxwell forms --------------------------------------------------------------


def maxwell_residuals(
    geom: FrameGeometry, F: Multivector, J_e: Multivector
) -> tuple[Multivector, Multivector, Multivector]:
    """Field-equation residuals in Clifford form and in right-representative
    spin form, plus their difference (an algebraic identity, zero for any F,
    whether or not F solves the equation)."""
    _require_grade(F, 2, "field strength")
    _require_grade(J_e, 1, "current")
    clifford = dirac(geom, F, "full") - J_e
    spin = right_rep_derivs(geom, F) + geometric_product(geom.omega_biform, F).scale(0.5)
    spin = blade_sum(THETA_GP, spin) - J_e
    return clifford, spin, clifford - spin
