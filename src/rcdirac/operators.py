"""First- and second-order Dirac-type operators and their identity residuals.

Every operator acts pointwise on a ``Multivector`` whose coefficients are
order-2 jets: the jets carry the exact derivatives, so a squared operator is
literally two applications, each consuming one jet order.  Each identity the
engine verifies is available in at least two independently computed forms;
the ``*_residual`` functions return the max absolute coefficient value of
the difference.

Connection selection: ``conn="lc"`` is the Levi-Civita (standard) operator
family, ``conn="full"`` the torsionful metric-compatible one.  The covariant
derivative on Clifford fields is the Pfaff derivative plus half the
commutator with the connection biform; the spin covariant derivative (on
spinor-field representatives) uses the one-sided left action, and the
right-representative derivative the one-sided right action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cliffalg import (
    GRADES,
    GradeError,
    Multivector,
    bivector_array,
    commutator,
    geometric_product,
    hodge_dual,
    left_contraction,
    wedge,
)
from .geometry import (
    CONN_ORDER,
    ETA,
    FRAME_ORDER,
    PLANES,
    CurvatureData,
    FrameGeometry,
    torsion_trace,
    torsion_two_forms,
)
from .jets import ChartPoint, Jet2, JetOrderError, jet_einsum

Connection = str  # "lc" | "full"


@dataclass(frozen=True)
class MvField:
    """A rule point -> Multivector with jet coefficients of a known order."""

    label: str
    fn: Callable[[ChartPoint], Multivector]
    order: int = 2

    def at(self, point: ChartPoint) -> Multivector:
        return self.fn(point)


@dataclass(frozen=True)
class OperatorResult:
    """An operator output together with the formula that produced it."""

    value: Multivector
    provenance: str


_ETA = np.array(ETA)
_GRADES = np.array(GRADES)


def _require_grade(A: Multivector, k: int, what: str):
    if np.any(A.data[_GRADES != k, 0] != 0.0):
        raise GradeError(f"{what} must be pure grade {k}")


def _biform(geom: FrameGeometry, conn: Connection):
    return geom.omega_biform if conn == "full" else geom.lc_biform


def _conn_table(geom: FrameGeometry, conn: Connection):
    return geom.full if conn == "full" else geom.lc


# -- first order -------------------------------------------------------------


def pfaff(geom: FrameGeometry, A: Multivector, a: int) -> Multivector:
    """Componentwise directional derivative e_a(A^I) theta_I."""
    if A.is_numeric():
        return Multivector.zero()
    if A.order < 1:
        raise JetOrderError("directional derivative of an order-exhausted field")
    return Multivector.from_array(A.data @ geom.derivations[a], min(A.order - 1, FRAME_ORDER))


def cov_deriv(geom: FrameGeometry, A: Multivector, a: int, conn: Connection = "full") -> Multivector:
    """Covariant derivative of a Clifford field:
    pfaff_a(A) + [omega_a, A] / 2."""
    omega = _biform(geom, conn)[a]
    return pfaff(geom, A, a) + commutator(omega, A).scale(0.5)


def spin_cov_deriv(geom: FrameGeometry, psi: Multivector, a: int) -> Multivector:
    """Representative spinor derivative: pfaff_a(psi) + omega_a psi / 2."""
    omega = geom.omega_biform[a]
    return pfaff(geom, psi, a) + geometric_product(omega, psi).scale(0.5)


def right_rep_deriv(geom: FrameGeometry, phi: Multivector, a: int) -> Multivector:
    """Right-representative derivative: pfaff_a(phi) - phi omega_a / 2."""
    omega = geom.omega_biform[a]
    return pfaff(geom, phi, a) - geometric_product(phi, omega).scale(0.5)


def dirac(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    return sum(
        geometric_product(geom.theta[a], cov_deriv(geom, A, a, conn)) for a in range(4)
    )


def dirac_contract(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    return sum(
        left_contraction(geom.theta[a], cov_deriv(geom, A, a, conn)) for a in range(4)
    )


def dirac_wedge(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    return sum(
        wedge(geom.theta[a], cov_deriv(geom, A, a, conn)) for a in range(4)
    )


def _dtheta(geom: FrameGeometry):
    """dtheta^g = -c^g_{bc} theta^b ^ theta^c summed over b < c."""
    return [Multivector.from_array(d, CONN_ORDER) for d in bivector_array(-geom.c)]


def exterior_d(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Exterior derivative from antisymmetrized frame derivatives plus
    structure-coefficient terms; no connection involved.

    d(A^I theta_I) = theta^b ^ e_b(A^I) theta_I + A^I d(theta_I), and d acts
    on a coframe blade as a derivation: d(theta_I) = dtheta^g ^ (i_{e_g}
    theta_I), the interior product i_{e_g} being the left contraction by the
    lowered theta_g (the even dtheta^g commutes into first place)."""
    dthetas = _dtheta(geom)
    return sum(
        wedge(geom.theta[b], pfaff(geom, A, b))
        + wedge(dthetas[b], left_contraction(geom.theta_down(b), A))
        for b in range(4)
    )


def codifferential(geom: FrameGeometry, A: Multivector) -> Multivector:
    """Hodge codifferential as a star-d-star sandwich (sign-free in this
    engine's dual convention)."""
    return hodge_dual(exterior_d(geom, hodge_dual(A)))


def torsion_operator(geom: FrameGeometry, a: int, V: Multivector) -> Multivector:
    """tau(e_a, V)^rho = V^beta T^rho_{a beta} on grade-1 arguments."""
    _require_grade(V, 1, "torsion operator argument")
    data = np.zeros_like(V.data)
    lowered = _ETA[:, None] * V.data[1:5]
    data[1:5] = _ETA[:, None] * jet_einsum("rb,b->r", geom.T[:, a], lowered)
    return Multivector.from_array(data, min(V.order, FRAME_ORDER))


# -- squares on scalars -------------------------------------------------------


def dirac_square_direct(geom: FrameGeometry, A: Multivector, conn: Connection = "full") -> Multivector:
    return dirac(geom, dirac(geom, A, conn), conn)


def dirac_square_assembled(
    geom: FrameGeometry, A: Multivector, conn: Connection = "full", antisymmetrized: bool = False
) -> Multivector:
    """Square assembled from eta^{ab}[...] plus theta^a ^ theta^b (Clifford)
    acting on cov_a cov_b A - Gamma^c_{ab} cov_c A; the antisymmetrized flag
    switches the bivector half to its explicitly antisymmetrized form."""
    table = _conn_table(geom, conn)
    cov1 = [cov_deriv(geom, A, a, conn) for a in range(4)]
    inner = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            term = cov_deriv(geom, cov1[b], a, conn)
            for c in range(4):
                term = term - cov1[c].scale(table[a][c][b])
            inner[a][b] = term
    out = sum(inner[a][a].scale(ETA[a]) for a in range(4))
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            plane = PLANES[a, b]
            if antisymmetrized:
                half = (inner[a][b] - inner[b][a]).scale(0.5)
                out = out + geometric_product(plane, half)
            else:
                out = out + geometric_product(plane, inner[a][b])
    return out


def frame_wave(geom: FrameGeometry, f: Jet2, conn, trace=None) -> Jet2:
    """eta^{bb} e_b e_b f - eta^{bb} conn^a_{bb} e_a f, plus
    eta^{aa} trace_a e_a f when a (4, 15) torsion trace is given."""
    if f.order < 2:
        raise JetOrderError("the frame wave operator needs an order-2 jet")
    df = f.data @ geom.derivations                      # df[a] = e_a f
    weight = -np.einsum("b,bab...->a...", _ETA, conn)
    if trace is not None:
        weight = weight + _ETA[:, None] * trace
    second = np.einsum("b,bs,bsu->u", _ETA, df, geom.derivations)
    return Jet2(second + jet_einsum("a,a->", weight, df), f.order - 2)


def scalar_wave_part(geom: FrameGeometry, f: Jet2) -> Jet2:
    """Grade-0 part of the scalar square: the torsionful wave operator
    eta^{ba} e_b e_a f - eta^{br} lc^a_{br} e_a f + Q_b e^b f."""
    Q = np.array([q.data for q in torsion_trace(geom)])
    return frame_wave(geom, f, geom.lc, Q)


def scalar_square_biform_part(geom: FrameGeometry, f: Jet2) -> Multivector:
    """Grade-2 part of the scalar square: -Theta^a e_a(f)."""
    thetas = torsion_two_forms(geom)
    return sum(thetas[a].scale(geom.e(a, f)).scale(-1.0) for a in range(4))


def _with_scalar(A: Multivector, s: Jet2) -> Multivector:
    data = A.data.copy()
    data[0] = s.data
    return Multivector.from_array(data, min(A.order, s.order))


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


def _vector_cache(geom: FrameGeometry, A: Multivector):
    """Shared first-derivative data for the grade-1 correction terms."""
    _require_grade(A, 1, "torsion square correction argument")
    return {
        "D": [cov_deriv(geom, A, c, "lc") for c in range(4)],
        "tau": [torsion_operator(geom, c, A) for c in range(4)],
    }


def vector_square_torsion_correction(
    geom: FrameGeometry, A: Multivector, a: int, b: int, cache=None
) -> Multivector:
    """Per-direction-pair correction relating the torsionful square to the
    standard square on grade-1 fields (six tau/T terms)."""
    if cache is None:
        cache = _vector_cache(geom, A)
    DbA = cache["D"][b]
    tau_bA = cache["tau"][b]
    out = torsion_operator(geom, a, DbA).scale(0.5)
    out = out + cov_deriv(geom, tau_bA, a, "lc").scale(0.5)
    for c in range(4):
        out = out - cache["D"][c].scale(0.5 * geom.T[c][a][b])
        out = out - cache["tau"][c].scale(0.5 * geom.lc[a][c][b])
        out = out - cache["tau"][c].scale(0.25 * geom.T[c][a][b])
    out = out + torsion_operator(geom, a, tau_bA).scale(0.25)
    return out


def covariant_pair_expansion_residual(geom: FrameGeometry, A: Multivector) -> float:
    """Second covariant derivative of a grade-1 field expanded through the
    standard derivative and the torsion operator."""
    cache = _vector_cache(geom, A)
    cov1 = [cov_deriv(geom, A, c, "full") for c in range(4)]
    worst = 0.0
    for a in range(4):
        for b in range(4):
            lhs = cov_deriv(geom, cov1[b], a, "full")
            rhs = cov_deriv(geom, cache["D"][b], a, "lc")
            rhs = rhs + torsion_operator(geom, a, cache["D"][b]).scale(0.5)
            rhs = rhs + cov_deriv(geom, cache["tau"][b], a, "lc").scale(0.5)
            rhs = rhs + torsion_operator(geom, a, cache["tau"][b]).scale(0.25)
            worst = max(worst, (lhs - rhs).max_abs())
    return worst


def _pair_sum(geom: FrameGeometry, term_fn) -> Multivector:
    """eta^{ab} term(a,b) + (theta^a ^ theta^b) term(a,b), geometric product."""
    out = sum(term_fn(a, a).scale(ETA[a]) for a in range(4))
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            out = out + geometric_product(PLANES[a, b], term_fn(a, b))
    return out


def vector_square_relation_residual(geom: FrameGeometry, A: Multivector) -> float:
    """Torsionful square minus standard square minus the paired torsion
    correction, on a grade-1 field."""
    lhs = dirac_square_direct(geom, A, "full")
    rhs = dirac_square_direct(geom, A, "lc")
    cache = _vector_cache(geom, A)
    corr = {}
    for a in range(4):
        for b in range(4):
            corr[(a, b)] = vector_square_torsion_correction(geom, A, a, b, cache=cache)
    rhs = rhs + _pair_sum(geom, lambda a, b: corr[(a, b)])
    return (lhs - rhs).max_abs()


# -- spin operators ------------------------------------------------------------


def spin_dirac(geom: FrameGeometry, psi: Multivector) -> Multivector:
    return sum(
        geometric_product(geom.theta[a], spin_cov_deriv(geom, psi, a)) for a in range(4)
    )


def spin_dirac_square_direct(geom: FrameGeometry, psi: Multivector) -> Multivector:
    return spin_dirac(geom, spin_dirac(geom, psi))


def _cov_omega(geom: FrameGeometry, a: int, b: int) -> Multivector:
    """nabla_a omega_b as a Clifford field (Pfaff plus half commutator)."""
    return pfaff(geom, geom.omega_biform[b], a) + commutator(
        geom.omega_biform[a], geom.omega_biform[b]
    ).scale(0.5)


def spin_square_right_correction(
    geom: FrameGeometry,
    A: Multivector,
    a: int,
    b: int,
    cov1=None,
    a_omega=None,
) -> Multivector:
    """Per-direction-pair right-action correction relating the squared spin
    operator on a representative to the squared torsionful operator."""
    omega = geom.omega_biform
    if cov1 is None:
        cov1 = [cov_deriv(geom, A, c, "full") for c in range(4)]
    if a_omega is None:
        a_omega = [geometric_product(A, omega[c]) for c in range(4)]
    dab = _cov_omega(geom, a, b)
    out = geometric_product(cov1[b], omega[a]).scale(0.5)
    out = out + geometric_product(cov1[a], omega[b]).scale(0.5)
    out = out + geometric_product(A, dab).scale(0.5)
    out = out + geometric_product(a_omega[b], omega[a]).scale(0.25)
    for c in range(4):
        out = out - a_omega[c].scale(0.5 * geom.full[a][c][b])
    return out


def spin_square_relation_residual(geom: FrameGeometry, A: Multivector) -> float:
    """Squared spin operator vs torsionful square plus the paired
    right-action correction (any grade)."""
    lhs = spin_dirac_square_direct(geom, A)
    cov1 = [cov_deriv(geom, A, c, "full") for c in range(4)]
    a_omega = [geometric_product(A, geom.omega_biform[c]) for c in range(4)]
    corr = {}
    for a in range(4):
        for b in range(4):
            corr[(a, b)] = spin_square_right_correction(
                geom, A, a, b, cov1=cov1, a_omega=a_omega
            )
    rhs = dirac_square_direct(geom, A, "full") + _pair_sum(geom, lambda a, b: corr[(a, b)])
    return (lhs - rhs).max_abs()


def spin_standard_square_residual(geom: FrameGeometry, A: Multivector) -> float:
    """Squared spin operator vs standard square plus both corrections
    (grade-1 fields)."""
    _require_grade(A, 1, "spin standard square argument")
    lhs = spin_dirac_square_direct(geom, A)
    cov1 = [cov_deriv(geom, A, c, "full") for c in range(4)]
    a_omega = [geometric_product(A, geom.omega_biform[c]) for c in range(4)]
    cache = _vector_cache(geom, A)
    corr = {}
    for a in range(4):
        for b in range(4):
            corr[(a, b)] = spin_square_right_correction(
                geom, A, a, b, cov1=cov1, a_omega=a_omega
            ) + vector_square_torsion_correction(geom, A, a, b, cache=cache)
    rhs = dirac_square_direct(geom, A, "lc") + _pair_sum(geom, lambda a, b: corr[(a, b)])
    return (lhs - rhs).max_abs()


def s2_levi_civita_residual(geom: FrameGeometry, A: Multivector) -> float:
    """Right-action correction rewritten through the standard derivative and
    the torsion operator (grade-1 fields, totally antisymmetric torsion);
    the derivative of the connection biform keeps its contorsion-commutator
    correction, which has no vector-level torsion-operator form."""
    _require_grade(A, 1, "right-action correction argument")
    omega = geom.omega_biform
    kappa = geom.contorsion_biform
    cov1 = [cov_deriv(geom, A, c, "full") for c in range(4)]
    nabla = [
        cov_deriv(geom, A, c, "lc") + torsion_operator(geom, c, A).scale(0.5)
        for c in range(4)
    ]
    a_omega = [geometric_product(A, omega[c]) for c in range(4)]
    worst = 0.0
    for a in range(4):
        for b in range(4):
            direct = spin_square_right_correction(
                geom, A, a, b, cov1=cov1, a_omega=a_omega
            )
            d_omega = pfaff(geom, omega[b], a) + commutator(
                geom.lc_biform[a], omega[b]
            ).scale(0.5) + commutator(kappa[a], omega[b]).scale(0.5)
            lc_form = geometric_product(nabla[b], omega[a]).scale(0.5)
            lc_form = lc_form + geometric_product(nabla[a], omega[b]).scale(0.5)
            lc_form = lc_form + geometric_product(A, d_omega).scale(0.5)
            lc_form = lc_form + geometric_product(a_omega[b], omega[a]).scale(0.25)
            for c in range(4):
                lc_form = lc_form - a_omega[c].scale(0.5 * geom.full[a][c][b])
            worst = max(worst, (direct - lc_form).max_abs())
    return worst


def spin_square_assembly_residual(geom: FrameGeometry, psi: Multivector) -> float:
    """Direct squared spin operator vs the eta / bivector assembly."""
    spin1 = [spin_cov_deriv(geom, psi, c) for c in range(4)]

    def term(a, b):
        out = spin_cov_deriv(geom, spin1[b], a)
        for c in range(4):
            out = out - spin1[c].scale(geom.full[a][c][b])
        return out

    direct = spin_dirac_square_direct(geom, psi)
    return (direct - _pair_sum(geom, term)).max_abs()


def spin_commutator_residuals(
    geom: FrameGeometry, curv: CurvatureData, psi: Multivector
) -> tuple[float, float]:
    """Commutator of spin derivatives vs the curvature biform action, in the
    bracket form (structure-coefficient term) and the expanded form
    (torsion-minus-connection coefficients)."""
    spin1 = [spin_cov_deriv(geom, psi, c) for c in range(4)]
    worst_bracket = 0.0
    worst_expanded = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            lhs = spin_cov_deriv(geom, spin1[b], a) - spin_cov_deriv(geom, spin1[a], b)
            curv_action = geometric_product(curv.biforms[a][b], psi).scale(0.5)
            bracket = curv_action + sum(
                spin1[c].scale(geom.c[c][a][b]) for c in range(4)
            )
            expanded = curv_action - sum(
                spin1[c].scale(
                    geom.T[c][a][b] - geom.full[a][c][b] + geom.full[b][c][a]
                )
                for c in range(4)
            )
            worst_bracket = max(worst_bracket, (lhs - bracket).max_abs())
            worst_expanded = max(worst_expanded, (lhs - expanded).max_abs())
    return worst_bracket, worst_expanded


def lichnerowicz_rhs(
    geom: FrameGeometry, curv: CurvatureData, psi: Multivector
) -> Multivector:
    """Four-term right side of the generalized Lichnerowicz identity:
    generalized spin Dalembertian + R psi / 4 + J psi - Theta^c spin_c psi."""
    spin1 = [spin_cov_deriv(geom, psi, c) for c in range(4)]
    out = sum(spin_cov_deriv(geom, spin1[a], a).scale(ETA[a]) for a in range(4))
    for a in range(4):
        for b in range(4):
            out = out - spin1[b].scale(ETA[a] * geom.full[a][b][a])
    out = out + psi.scale(curv.scalar).scale(0.25)
    out = out + geometric_product(curv.j_form, psi)
    thetas = torsion_two_forms(geom)
    for c in range(4):
        out = out - geometric_product(thetas[c], spin1[c])
    return out


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
    spin = sum(
        geometric_product(geom.theta[a], right_rep_deriv(geom, F, a)) for a in range(4)
    )
    for a in range(4):
        spin = spin + geometric_product(
            geom.theta[a], geometric_product(geom.omega_biform[a], F)
        ).scale(0.5)
    spin = spin - J_e
    return clifford, spin, clifford - spin
