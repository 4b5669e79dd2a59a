"""Integration by parts: the Dirac operators against the metric's volume form.

For Clifford fields A and B, with V^a = <~A theta^a B>_0,

    <(dA)~ B>_0 + <~A dB>_0 = d_mu V^mu + V^mu d_mu log|det theta| + Q_b V^b,

where d is the Dirac operator, V^mu = e_a^mu V^a and Q_b = T^a_ab is the
torsion trace; the Levi-Civita operator has no Q term.  The same holds for
the spin-Dirac operator, with A = psi even and B = psi theta^0 odd, whose
V^a is the Dirac current of psi.  The right side
reads only the tetrad's jets and the torsion trace, not the connection
tables the 34 checks compare the operator with, so an error those tables
share shows here."""

from pathlib import Path

import numpy as np
import pytest
from conftest import BUNDLED, load_bundled
from reference_loops import reversion

from rcdirac import fieldspec, geometry, harness, jets, operators
from rcdirac.cliffalg import THETA_GP, blade_products, geometric_product
from rcdirac.geometry import THETA

GENERIC_PATH = Path(__file__).parent.parent / "perfbench" / "data" / "generic_torsion.scn"


def _scalar_part(x, y):
    """<~x y>_0 as jets (..., P, w)."""
    return geometric_product(reversion(x), y).data[..., 0, :]


def dirac(conn):
    """The Dirac operator of a connection, as a function of (geom, X)."""
    return lambda geom, X: operators.dirac(geom, X, conn)


def general_fields(run_fields, points):
    return run_fields["general"].at(points), run_fields["general2"].at(points)


def spinor_and_current(run_fields, points):
    """psi, the even field, and psi theta^0."""
    psi = run_fields["even"].at(points)
    return psi, geometric_product(psi, THETA[0])


def green_sides(scenario, op, fields=general_fields, trace=True, log_det_scale=1.0):
    """The two sides of the identity for the operator op(geom, X) on the
    fields A, B that ``fields`` picks, at 6 points, seed 3, and the torsion
    term of the right side, (P,) each."""
    points = harness.sample_points(scenario, points=6, seed=3)
    geom = geometry.build_frame(scenario, points)
    A, B = fields(harness.build_run_fields(scenario, 3, points), points)
    lhs = _scalar_part(op(geom, A), B) + _scalar_part(A, op(geom, B))
    V = _scalar_part(A, blade_products(THETA_GP, B))          # V^a, (4, P, 15)
    e, theta = geom.frame_vectors, geom.tetrad                 # [a][mu], (4, 4, P, 15)
    V_up = np.einsum("apj,ampjk->mpk", V, jets.mul_matrix(e))  # V^mu
    divergence = sum(V_up[mu, :, 1 + mu] for mu in range(4))
    # d_mu log|det theta| = e_a^nu d_mu theta^a_nu
    d_log_det = np.einsum("anp,anpm->mp", e[..., 0], theta[..., 1:5])
    torsion_term = np.einsum("bp,bp->p", geometry.torsion_trace(geom)[..., 0], V[..., 0])
    rhs = divergence + log_det_scale * np.einsum("mp,mp->p", V_up[..., 0], d_log_det)
    return lhs[:, 0], (rhs + torsion_term if trace else rhs), torsion_term


SCENARIOS = (*BUNDLED, "generic_torsion")


@pytest.fixture(scope="module")
def loaded():
    return {name: load_bundled(name) for name in BUNDLED} | {
        "generic_torsion": fieldspec.load_scenario_file(GENERIC_PATH)}


@pytest.mark.parametrize("conn", ["full", "lc"])
@pytest.mark.parametrize("name", SCENARIOS)
def test_dirac_operator_integrates_by_parts(loaded, name, conn):
    lhs, rhs, _ = green_sides(loaded[name], dirac(conn), trace=conn == "full")
    assert np.abs(lhs).max() > 1.0
    assert np.abs(lhs - rhs).max() < 1e-13


def test_torsion_trace_term_is_needed_and_tested(loaded):
    # generic torsion has a trace: without Q_b V^b the identity fails
    lhs, rhs, torsion_term = green_sides(loaded["generic_torsion"], dirac("full"), trace=False)
    assert np.abs(torsion_term).max() > 0.1
    assert np.abs(lhs - rhs).max() > 0.1


def test_volume_form_is_tested(loaded):
    # a volume form off by 1% breaks the identity
    lhs, rhs, _ = green_sides(loaded["generic_torsion"], dirac("full"), log_det_scale=1.01)
    assert np.abs(lhs - rhs).max() > 1e-3


@pytest.mark.parametrize("name", SCENARIOS)
def test_spin_dirac_operator_integrates_by_parts(loaded, name):
    lhs, rhs, _ = green_sides(loaded[name], operators.spin_dirac, spinor_and_current)
    assert np.abs(lhs).max() > 1.0
    assert np.abs(lhs - rhs).max() < 1e-13


def test_spin_dirac_needs_the_torsion_trace_and_volume_form(loaded):
    # the two negative controls above, for the spin-Dirac operator
    scenario = loaded["generic_torsion"]
    lhs, rhs, torsion_term = green_sides(scenario, operators.spin_dirac, spinor_and_current, trace=False)
    assert np.abs(torsion_term).max() > 0.1
    assert np.abs(lhs - rhs).max() > 0.1
    lhs, rhs, _ = green_sides(scenario, operators.spin_dirac, spinor_and_current, log_det_scale=1.01)
    assert np.abs(lhs - rhs).max() > 1e-3
