"""Residual harness: load a scenario, sample chart points, run identity
checks, emit deterministic reports.

Every check is a pure function of (scenario, point, test fields); the run
evaluates each selected check at each sampled point and reports max/mean
residuals against the tolerance.  Reports are byte-identical across runs
with the same scenario bytes, seed and flags, at any worker count: work is
keyed by point index and merged in index order, and timing goes to stderr.

A check runs on a batch of points at once: it receives a ``BatchContext``,
whose frame and curvature carry a point axis (see ``geometry``), then the
test fields its ``_check`` registration declares, as point stacks, in that
order, and returns the two sides of its identity as ``(lhs, rhs)`` pairs,
which ``point_residuals`` alone reduces to one residual per point, with
``np.maximum.reduce`` (the rule on numpy calls is in ``jets``).
A shard's points run in batches of at most ``BATCH_POINTS``.  The
per-point seam stays: ``_eval_shard`` calls ``evaluate_point`` once per
point, looked up at call time.
The first point of a batch computes each selected check for the whole
batch, through ``CHECKS[name].fn``; later points read their own results.
A batch builds its frames once; ``build_frame``'s ``FrameErrors`` names
every point whose frame fails, each gets its error at every check, and the
others are built once more without them.  A check that raises for a batch
is rerun one point at a time, so no point's results depend on the others
in its batch.

``workers`` is the most processes a run uses, the calling one included.
The points are split into ``n = min(workers, max(1, points //
MIN_SHARD_POINTS))`` static index shards ``points[k::n]``, so that no shard
holds fewer than ``MIN_SHARD_POINTS`` points unless there is only one: the
calling process evaluates shard 0 and one child process each other shard.
The children are forked with ``os.fork``, so they inherit the scenario and
the evaluated test fields; each sends its results back once, as one pickled
message through an ``os.pipe``.  A child that dies, or exits without
sending, or cannot be started, raises ``WorkerError`` (exit code 4 on the
command line).  With one shard nothing is forked.  Shards fork on Linux
only (``FORK_SHARDS``); on other platforms the calling process evaluates
every point, which gives the same report.

Each test field has one representation: its jets at the sampled points,
built in one pass for the run (``build_run_fields``) and divided once by
the field's sup-norm over those points, so that its largest finite value
is 1.  A generated field is a random degree-3 polynomial, with seeded
coefficients, on each blade its kind fills.  A scenario pins a field under
a name that ``fieldspec.FIELD_KINDS`` reserves, ``f.scalar`` or
``A.<kind>``, checked when the scenario is loaded.  The scalar field is a
scalar multivector, blades 1-15 exactly zero, and the checks read it as
it is.

The seeded draws (the Halton shift of the sample points and the polynomial
coefficients) come from ``uniform_draws``: one standard-library
``random.Random`` stream per seed and tag, so a run never imports
``numpy.random``, whose import would cost more than the draws.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
import random
import sys
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import fieldspec, geometry, operators
from .cliffalg import (
    GRADES, THETA_GP, WEDGE_TABLE, GradeError, Multivector, blade_products, blade_sum,
    geometric_product, grade_involution, product_sum, wedge,
)
from .fieldspec import FIELD_KINDS, Scenario, ScenarioError
from .geometry import ETA_DIAG, GeometryError, NonFiniteFrameError
from .jets import HESS_PAIRS, JET_LEN, NVARS, ChartPoint, JetDomainError, JetOrderError, jet_einsum

MARGIN = 0.05

# Monomial exponents of total degree <= 3 in four variables (35 of them).
MONOMIALS: tuple[tuple[int, int, int, int], ...] = tuple(
    (i, j, k, l)
    for i in range(4)
    for j in range(4)
    for k in range(4)
    for l in range(4)
    if i + j + k + l <= 3
)
_EXPONENTS = np.array(MONOMIALS)

# _SLOT_DERIVATIVE[s, mu]: how often jet slot s differentiates by x^mu.
_SLOT_DERIVATIVE = np.zeros((JET_LEN, NVARS), dtype=int)
_SLOT_DERIVATIVE[1:5] = np.eye(NVARS, dtype=int)
for _p, (_mu, _nu) in enumerate(HESS_PAIRS):
    _SLOT_DERIVATIVE[5 + _p, _mu] += 1
    _SLOT_DERIVATIVE[5 + _p, _nu] += 1

# the blades a generated field of each kind fills
_FIELD_BLADES = {
    kind: [i for i in range(16) if GRADES[i] in grades] for kind, grades in FIELD_KINDS.items()
}


class UsageError(ValueError):
    """Bad command-line arguments."""


# -- seeded streams -------------------------------------------------------------


def uniform_draws(seed: int, tag: int, lo: float, hi: float, n: int) -> np.ndarray:
    """n doubles uniform in [lo, hi) from the stream of one tag (below
    2**32) for a run seed: the Mersenne Twister of ``random.Random(seed <<
    32 | tag)``, whose ``random()`` sequence for an integer seed Python
    keeps the same across versions."""
    if seed < 0:
        # Random seeds from abs(seed), which would give -s the stream of s
        raise ValueError("expected non-negative integer")
    draw = random.Random(seed << 32 | tag).random
    # iter(draw, None) calls draw() without end; fromiter stops after n
    return lo + (hi - lo) * np.fromiter(iter(draw, None), np.float64, n)


# -- test fields --------------------------------------------------------------


@dataclass(eq=False, repr=False)
class RunField:
    """A test field: random polynomial coefficients or scenario expressions,
    and its (16, 15) jets at each of the run's points, divided once by its
    sup-norm, so that its largest finite value is exactly 1 (x / x == 1 in
    floating point, x * (1 / x) not always)."""

    kind: str
    polys: np.ndarray | None = None       # (16, 35) monomial coefficients
    exprs: tuple | None = None            # 16 expressions from the scenario
    sup: float = 1.0
    # read-only (16, 15) values at the run's points, filled by
    # build_run_fields; a forked shard child inherits them
    values: dict = field(default_factory=dict, repr=False, compare=False)

    def at(self, points) -> Multivector:
        """The field at one of the run's chart points, (16, 15), or at a
        sequence of P of them, a point stack (P, 16, 15)."""
        if isinstance(points, ChartPoint):
            return Multivector.from_array(self.values[points], 2)
        return Multivector.from_array(np.array([self.values[p] for p in points]).reshape(-1, 16, JET_LEN), 2)


def monomial_jets(points) -> np.ndarray:
    """Jets (P, 35, 15) of the MONOMIALS at P points, in closed form: the
    jet slot differentiating x^mu d times takes e!/(e-d)! x^(e-d) from
    factor mu."""
    x = np.array([p.x for p in points])[:, None, :]
    e = _EXPONENTS
    # factors[p, d, m, mu]: the d-th derivative of x^mu to the power e[m, mu]
    factors = np.stack([
        x ** e,
        e * x ** np.maximum(e - 1, 0),
        e * (e - 1) * x ** np.maximum(e - 2, 0),
    ], axis=1)
    m = np.arange(len(e))[:, None]
    per_slot = factors[:, _SLOT_DERIVATIVE[:, None, :], m, np.arange(NVARS)]     # (P, 15, 35, 4)
    return np.multiply.reduce(per_slot, axis=-1).swapaxes(1, 2)


def build_run_fields(scenario: Scenario, seed: int, points) -> dict[str, RunField]:
    """Assemble all test fields for a run, the pinned ones from the
    scenario, and normalize them to unit sup-norm over the sampled points."""
    # one draw of 35 coefficients per blade a kind fills, in FIELD_KINDS
    # order; the draws are made for every kind regardless of pinning, so
    # pinning one field never reshuffles the generated ones
    n_rows = sum(map(len, _FIELD_BLADES.values()))
    draws = uniform_draws(seed, 0xF1E1D, -1.0, 1.0, n_rows * len(MONOMIALS))
    draws = draws.reshape(n_rows, len(MONOMIALS))
    monomials = monomial_jets(points)
    fields: dict[str, RunField] = {}
    for kind, blades in _FIELD_BLADES.items():
        rows, draws = draws[:len(blades)], draws[len(blades):]
        label = "f.scalar" if kind == "scalar" else f"A.{kind}"
        if kind in scenario.fields:
            f = RunField(kind=kind, exprs=scenario.fields[kind])
            try:
                values = fieldspec.Program(f.exprs).evaluate(points)
            except (ArithmeticError, ValueError) as err:
                detail = err if isinstance(err, fieldspec.ExprDomainError) else (
                    f"{type(err).__name__} at point {err.point.x}: {err}"
                )
                raise ScenarioError(f"test field {label}: {detail}") from err
        else:
            f = RunField(kind=kind, polys=np.zeros((16, len(MONOMIALS))))
            f.polys[blades] = rows
            values = f.polys @ monomials
        f.sup = _sup_norm(label, values)
        values = values / f.sup
        values.flags.writeable = False
        f.values = dict(zip(points, values))
        fields[kind] = f
    return fields


def _sup_norm(label: str, values: np.ndarray) -> float:
    """The largest finite value of a field's jets (P, 16, 15) at the run's
    points, or 1 when that is tiny; non-finite values stay per-point
    errors of the checks."""
    v = np.abs(values[..., 0])
    sup = np.maximum.reduce(v[np.isfinite(v)], initial=0.0)
    if sup == 0.0:
        raise ScenarioError(
            f"test field {label} has no finite non-zero value at the sampled points"
        )
    return sup if sup > 1e-12 else 1.0


# -- sampling ------------------------------------------------------------------


_HALTON_BASES = (2, 3, 5, 7)


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def sample_points(scenario: Scenario, points: int | None = None, seed: int | None = None):
    """Seeded quasi-uniform points, strictly interior (5% margin) to the
    chart box so user expressions stay away from edge singularities.

    A Halton sequence with a seeded rotation: low discrepancy in the box,
    deterministic for a given (seed, count)."""
    n = scenario.sampling.points if points is None else points
    s = scenario.sampling.seed if seed is None else seed
    if n <= 0:
        raise ValueError(f"point count must be positive, got {n}")
    for lo, hi in scenario.chart_box:
        if not hi > lo:
            raise ValueError(f"empty chart box interval ({lo}, {hi})")
    shift = uniform_draws(s, 0x5A11, 0.0, 1.0, 4).tolist()
    out = []
    for k in range(n):
        coords = []
        for d, (lo, hi) in enumerate(scenario.chart_box):
            u = (_halton(k + 1, _HALTON_BASES[d]) + shift[d]) % 1.0
            t = MARGIN + u * (1.0 - 2.0 * MARGIN)
            coords.append(float(lo + t * (hi - lo)))
        out.append(ChartPoint(tuple(coords)))
    return out


# -- check registry --------------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class CheckDescriptor:
    """A registered check: its name, the identity it tests, the test fields
    it reads and the function that returns its ``(lhs, rhs)`` pairs."""

    name: str
    anchor: str                       # identity statement, for explain/JSON
    fields: tuple[str, ...]
    fn: object
    note: str = ""


CHECKS: dict[str, CheckDescriptor] = {}


def _check(name, anchor, fields=(), note=""):
    """Register ``body(ctx, *fields)`` as the check ``name``: its
    registered ``fn(ctx)`` passes the body the test fields it declares, in
    order, as the batch's point stacks."""
    def deco(body):
        def fn(ctx):
            return body(ctx, *map(ctx.field, fields))

        CHECKS[name] = CheckDescriptor(name=name, anchor=anchor, fields=tuple(fields), fn=fn, note=note)
        return body

    return deco


class BatchContext:
    """The shared state of one batch of a shard's points: their frames,
    built when the batch is made, and, on first use, their curvature, the
    test fields as point stacks and each check's results at all of them.

    A point whose frame fails (``FrameErrors``) has its frame error as its
    result for every check; the frames, fields and check residuals are
    those of the other points, ``points``, built again without it."""

    def __init__(self, scenario: Scenario, fields: dict[str, RunField], points):
        self.scenario = scenario
        self.fields = fields
        self.all_points = tuple(points)
        self.index = {p: k for k, p in enumerate(self.all_points)}
        self._frame_errors = [None] * len(self.all_points)   # per point: its error tuple, or None
        self._values: dict[str, Multivector] = {}
        self._results: dict[str, list] = {}
        try:
            self.geom = geometry.build_frame(scenario, self.all_points)
        except geometry.FrameErrors as failed:
            for k, err in failed.errors.items():
                # an OverflowError is a frame value too large for a float:
                # it fails the check like one that overflows to infinity,
                # and so does a connection its biforms do not reproduce
                kind = "non-finite" if isinstance(err, (NonFiniteFrameError, OverflowError, GeometryError)) else "error"
                self._frame_errors[k] = (kind, f"{type(err).__name__}: {err}")
            self.geom = None
        self._live = [k for k, err in enumerate(self._frame_errors) if err is None]
        # the points whose frames were built, in batch order
        self.points = tuple(self.all_points[k] for k in self._live)
        if self.geom is None and self.points:
            self.geom = geometry.build_frame(scenario, self.points)

    @functools.cached_property
    def curv(self):
        return geometry.curvature(self.geom)

    def field(self, kind: str) -> Multivector:
        """The test field at ``points``, a (P, 16, 15) stack."""
        if kind not in self._values:
            self._values[kind] = self.fields[kind].at(self.points)
        return self._values[kind]

    def results(self, name: str) -> list:
        """One check's result at each point of the batch, in batch order: a
        residual, or an error tuple ``(kind, message)``."""
        if name not in self._results:
            self._results[name] = self._run_check(name)
        return self._results[name]

    def _run_check(self, name: str) -> list:
        live, out = self._live, list(self._frame_errors)
        if not live:
            return out
        try:
            # looked up at call time, so that a wrapper installed in the
            # registry (perfbench's tracer) runs here
            values = point_residuals(CHECKS[name].fn(self))
        except _CHECK_ERRORS as err:
            if len(live) == 1:
                out[live[0]] = ("error", f"{type(err).__name__}: {err}")
            else:
                # an error must not reach the other points: each runs as a
                # one-point batch
                for k in live:
                    out[k] = BatchContext(self.scenario, self.fields, [self.all_points[k]]).results(name)[0]
        else:
            for k, value in zip(live, values.tolist(), strict=True):
                out[k] = value
        return out


# the errors a check body reports per point instead of failing the run
_CHECK_ERRORS = (JetDomainError, JetOrderError, GradeError)


def point_residuals(pairs) -> np.ndarray:
    """Each point's residual of a check's ``(lhs, rhs)`` pairs, (P,): the
    largest |lhs - rhs| over the value slot and every axis but the point
    axis, then over the pairs; NaN if any value is NaN (Python's max drops
    them).  A side is a ``Multivector``, whose point axis is its innermost
    stack axis, or a jet table (..., P, w); ``rhs`` None stands for zero.
    Only the value slots are subtracted: the difference of two sides is
    elementwise, so its value slot is the difference of theirs."""
    worst = []
    for lhs, rhs in pairs:
        diff = _value_slots(lhs) if rhs is None else _value_slots(lhs) - _value_slots(rhs)
        worst.append(np.maximum.reduce(np.abs(diff), axis=(*range(diff.ndim - 2), -1)))
    return functools.reduce(np.maximum, worst)


def _value_slots(side) -> np.ndarray:
    """(..., P, k): the values of a multivector's k = 16 blades, or of a jet
    table's entries with k = 1."""
    return side.data[..., 0] if isinstance(side, Multivector) else side[..., None, 0]


_TOT_ANTISYM_NOTE = "valid for totally antisymmetric (zero-strain) torsion"
_COCLOSED_NOTE = "needs co-closed totally antisymmetric torsion"


@_check(
    "metricity",
    "eta-lowered full connection coefficients are antisymmetric in the rotation pair",
)
def _c_metricity(ctx):
    low = geometry.lowered(ctx.geom.full)
    return [(low, -low.swapaxes(1, 2))]


@_check(
    "torsion-recovery",
    "antisymmetrized connection minus frame structure coefficients reproduces the torsion input",
)
def _c_torsion_recovery(ctx):
    recovered = geometry.connection_torsion(ctx.geom, ctx.geom.full)
    # the input torsion at the connection's width
    return [(recovered, ctx.geom.T[..., :recovered.shape[-1]])]


@_check(
    "levi-civita",
    "torsion-free and metricity defining residuals of the Levi-Civita coefficients",
)
def _c_levi_civita(ctx):
    low = geometry.lowered(ctx.geom.lc)
    return [(geometry.connection_torsion(ctx.geom, ctx.geom.lc), None), (low, -low.swapaxes(1, 2))]


@_check(
    "contorsion-trace",
    "contorsion trace identity: eta^{br} K^a_{br} + eta^{sa} T^r_{rs} = 0",
)
def _c_contorsion_trace(ctx):
    trace = np.einsum("b,bab...->a...", ETA_DIAG, ctx.geom.K)
    return [(trace, -ETA_DIAG[:, None, None] * geometry.torsion_trace(ctx.geom))]


@_check(
    "bianchi",
    "first Bianchi identity: cyclic sum of the lowered torsion-free curvature vanishes",
)
def _c_bianchi(ctx):
    R = ctx.curv.lc_components
    return [(R + R.transpose(0, 3, 1, 2, 4, 5) + R.transpose(0, 2, 3, 1, 4, 5), None)]


@_check(
    "curvature-decomposition",
    "curvature equals torsion-free curvature plus the contorsion-induced difference, componentwise",
)
def _c_decomposition(ctx):
    curv = ctx.curv
    return [(curv.components - curv.lc_components, curv.j_components)]


@_check(
    "curvature-traces",
    "curvature biforms are antisymmetric in the plane pair and eta-traceless",
)
def _c_curvature_traces(ctx):
    biforms = ctx.curv.biforms
    return [(biforms, -biforms.swapaxes(0, 1)), (operators.eta_trace(biforms), None)]


@_check(
    "ricci-antisymmetry",
    "grade-2 part of the curvature contraction (the connection's antisymmetric "
    "Ricci) vanishes; the structural condition behind the four-term squared "
    "spin operator identity",
    note=_COCLOSED_NOTE,
)
def _c_ricci_antisymmetry(ctx):
    return [(ctx.curv.contraction_grade2, None)]


@_check(
    "dirac-split",
    "Dirac operator equals its contraction part plus its wedge part",
    fields=("general",),
)
def _c_dirac_split(ctx, A):
    return [
        (
            operators.dirac(ctx.geom, A, conn) - operators.dirac_contract(ctx.geom, A, conn),
            operators.dirac_wedge(ctx.geom, A, conn),
        )
        for conn in ("lc", "full")
    ]


@_check(
    "exterior-derivative",
    "wedge part of the standard Dirac operator is the exterior derivative",
    fields=("general",),
)
def _c_exterior_derivative(ctx, A):
    return [(operators.dirac_wedge(ctx.geom, A, "lc"), operators.exterior_d(ctx.geom, A))]


@_check(
    "codifferential",
    "contraction part of the standard Dirac operator is minus the Hodge codifferential",
    fields=("general",),
)
def _c_codifferential(ctx, A):
    return [(operators.dirac_contract(ctx.geom, A, "lc"), -operators.codifferential(ctx.geom, A))]


@_check(
    "torsion-splits",
    "torsionful contraction/wedge parts equal the standard parts minus torsion 2-form corrections",
    fields=("general",),
)
def _c_torsion_splits(ctx, A):
    geom = ctx.geom
    thetas = geom.torsion_forms
    # sum_r Theta^r ^ (theta_r _| A) and sum_r Theta^r _| (theta_r ^ A)
    # (the wedge expansion of the torsion forms has no other use: not kept)
    wedge_corr = product_sum(thetas, blade_products(operators.THETA_DOWN_LC, A), WEDGE_TABLE)
    contract_corr = operators.frame_product_sum(
        geom, thetas, blade_products(operators.THETA_DOWN_WEDGE, A), "lc"
    )
    return [
        (operators.dirac_wedge(geom, A, "full"), operators.dirac_wedge(geom, A, "lc") - wedge_corr),
        (operators.dirac_contract(geom, A, "full"), operators.dirac_contract(geom, A, "lc") - contract_corr),
    ]


@_check(
    "torsion-trace-contraction",
    "torsion 2-forms contracted on the gradient reproduce minus the eta-raised torsion trace",
    fields=("scalar",),
)
def _c_torsion_trace_contraction(ctx, f):
    geom = ctx.geom
    df = operators.dirac(geom, f, "lc")
    lowered = blade_products(operators.THETA_DOWN_WEDGE, df)      # [r]: theta_r ^ df
    lhs = operators.frame_product_sum(geom, geom.torsion_forms, lowered, "lc")
    Q = geometry.torsion_trace(geom)
    e_f = operators.pfaffs(geom, f)                               # [b]: e_b(f)
    rhs = jet_einsum("bp,bp->p", -ETA_DIAG[:, None, None] * Q, e_f.data[..., 0, :], e_f.order)
    return [(lhs, operators.scalar_multivector(rhs, e_f.order))]


@_check(
    "scalar-laplacian",
    "minus delta d on a scalar equals the frame Laplace-Beltrami combination",
    fields=("scalar",),
)
def _c_scalar_laplacian(ctx, f):
    geom = ctx.geom
    lhs = operators.codifferential(geom, operators.exterior_d(geom, f)).scale(-1.0)
    return [(lhs, operators.frame_wave(geom, f, geom.lc))]


@_check(
    "cov-deriv-torsion",
    "covariant derivative equals the standard one plus half the torsion operator on vectors",
    fields=("vector",),
    note=_TOT_ANTISYM_NOTE,
)
def _c_cov_deriv_torsion(ctx, v):
    geom = ctx.geom
    return [(
        operators.cov_derivs(geom, v, "full") - operators.cov_derivs(geom, v, "lc"),
        operators.torsion_operators(geom, v).scale(0.5),
    )]


@_check(
    "dirac-torsion",
    "Dirac operator on vectors equals the standard one plus half the contracted torsion operator",
    fields=("vector",),
    note=_TOT_ANTISYM_NOTE,
)
def _c_dirac_torsion(ctx, v):
    geom = ctx.geom
    corr = blade_sum(THETA_GP, operators.torsion_operators(geom, v)).scale(0.5)
    return [(operators.dirac(geom, v, "full") - operators.dirac(geom, v, "lc"), corr)]


@_check(
    "leibniz",
    "covariant derivatives are derivations of the geometric product",
    fields=("general", "general2"),
)
def _c_leibniz(ctx, A, B):
    geom = ctx.geom
    AB = geometric_product(A, B)
    return [
        (
            operators.cov_derivs(geom, AB, conn) - geometric_product(operators.cov_derivs(geom, A, conn), B),
            geometric_product(A, operators.cov_derivs(geom, B, conn)),
        )
        for conn in ("lc", "full")
    ]


@_check(
    "antiderivation",
    "the wedge part acts as an antiderivation through the grade involution",
    fields=("general", "general2"),
)
def _c_antiderivation(ctx, A, B):
    geom = ctx.geom
    AB = wedge(A, B)
    return [
        (
            operators.dirac_wedge(geom, AB, conn) - wedge(operators.dirac_wedge(geom, A, conn), B),
            wedge(grade_involution(A), operators.dirac_wedge(geom, B, conn)),
        )
        for conn in ("lc", "full")
    ]


@_check(
    "spin-module",
    "spin derivative of a Clifford multiple of a representative obeys the module rule",
    fields=("general", "even"),
)
def _c_spin_module(ctx, C, psi):
    geom = ctx.geom
    return [(
        operators.spin_cov_derivs(geom, geometric_product(C, psi))
        - geometric_product(operators.cov_derivs(geom, C, "full"), psi),
        geometric_product(C, operators.spin_cov_derivs(geom, psi)),
    )]


@_check(
    "spin-left-form",
    "one-sided left form of the spin derivative equals the covariant form plus half the right action",
    fields=("even",),
)
def _c_spin_left_form(ctx, psi):
    geom = ctx.geom
    return [(
        operators.spin_cov_derivs(geom, psi) - operators.cov_derivs(geom, psi, "full"),
        operators.right_actions(geom, psi),
    )]


@_check("d-squared", "the exterior derivative squares to zero", fields=("general",))
def _c_d_squared(ctx, A):
    return [(operators.exterior_d(ctx.geom, operators.exterior_d(ctx.geom, A)), None)]


@_check("delta-squared", "the codifferential squares to zero", fields=("general",))
def _c_delta_squared(ctx, A):
    return [(operators.codifferential(ctx.geom, operators.codifferential(ctx.geom, A)), None)]


@_check(
    "double-contraction",
    "the contraction part applied twice to a scalar vanishes",
    fields=("scalar",),
)
def _c_double_contraction(ctx, f):
    inner = operators.dirac_contract(ctx.geom, f, "full")
    return [(operators.dirac_contract(ctx.geom, inner, "full"), None)]


@_check(
    "scalar-square-forms",
    "standard-plus-torsion and full-connection scalar square expansions agree with the direct square",
    fields=("scalar",),
)
def _c_scalar_square_forms(ctx, f):
    geom = ctx.geom
    direct = operators.dirac_square_direct(geom, f, "full")
    std = operators.scalar_square_standard_form(geom, f)
    conn = operators.scalar_square_connection_form(geom, f)
    return [(std, conn), (std, direct), (conn, direct)]


@_check(
    "square-assembly",
    "direct square equals the eta-plus-bivector assembly, plain and antisymmetrized",
    fields=("general",),
)
def _c_square_assembly(ctx, A):
    geom = ctx.geom
    direct = operators.dirac_square_direct(geom, A, "full")
    plain, anti = operators.dirac_square_assemblies(geom, A, "full")
    return [(plain, direct), (anti, direct)]


@_check(
    "pair-expansion",
    "second covariant derivative expands through the standard derivative and the torsion operator",
    fields=("vector",),
    note=_TOT_ANTISYM_NOTE,
)
def _c_pair_expansion(ctx, v):
    geom = ctx.geom
    lhs = operators.cov_derivs(geom, operators.cov_derivs(geom, v, "full"), "full")
    return [(lhs, operators.pair_expansion_rhs(geom, v))]


@_check(
    "square-torsion-relation",
    "torsionful square equals the standard square plus the paired torsion correction on vectors",
    fields=("vector",),
    note=_TOT_ANTISYM_NOTE,
)
def _c_square_torsion_relation(ctx, v):
    geom = ctx.geom
    return [(operators.dirac_square_direct(geom, v, "full"), operators.square_torsion_relation_rhs(geom, v))]


@_check(
    "spin-commutator",
    "commutator of spin derivatives equals half the curvature biform action "
    "plus a structure/torsion coefficient term, in both printed forms",
    fields=("even",),
)
def _c_spin_commutator(ctx, psi):
    commutator, bracket, expanded = operators.spin_commutator_forms(ctx.geom, ctx.curv, psi)
    return [(commutator, bracket), (commutator, expanded)]


@_check(
    "lichnerowicz",
    "squared spin operator equals generalized Dalembertian + scalar curvature over 4 "
    "+ grade-4 torsion-curvature term - torsion 2-form term",
    fields=("even",),
    note=_COCLOSED_NOTE,
)
def _c_lichnerowicz(ctx, psi):
    geom = ctx.geom
    return [(operators.spin_dirac_square_direct(geom, psi), operators.lichnerowicz_rhs(geom, ctx.curv, psi))]


@_check(
    "spin-square-relation",
    "squared spin operator equals the torsionful square plus the paired right-action correction",
    fields=("general",),
)
def _c_spin_square_relation(ctx, A):
    geom = ctx.geom
    return [(operators.spin_dirac_square_direct(geom, A), operators.spin_square_relation_rhs(geom, A))]


@_check(
    "spin-standard-square",
    "squared spin operator equals the standard square plus both corrections on vectors",
    fields=("vector",),
    note=_TOT_ANTISYM_NOTE,
)
def _c_spin_standard_square(ctx, v):
    geom = ctx.geom
    return [(operators.spin_dirac_square_direct(geom, v), operators.spin_standard_square_rhs(geom, v))]


@_check(
    "s2-levi-civita",
    "right-action correction rewritten through the standard derivative and the torsion operator",
    fields=("vector",),
    note=_TOT_ANTISYM_NOTE,
)
def _c_s2_levi_civita(ctx, v):
    geom = ctx.geom
    return [(operators.spin_square_right_correction(geom, v), operators.s2_levi_civita_rhs(geom, v))]


@_check(
    "spin-square-assembly",
    "squared spin operator equals its eta-plus-bivector assembly",
    fields=("even",),
)
def _c_spin_square_assembly(ctx, psi):
    geom = ctx.geom
    return [(operators.spin_dirac_square_direct(geom, psi), operators.spin_square_assembly_rhs(geom, psi))]


@_check(
    "maxwell-equivalence",
    "Clifford-form and right-representative field-equation residuals coincide for arbitrary fields",
    fields=("bivector", "current"),
)
def _c_maxwell_equivalence(ctx, F, J):
    return [operators.maxwell_residuals(ctx.geom, F, J)]


# -- evaluation ------------------------------------------------------------------


def evaluate_point(scenario, fields, names, point, batch: BatchContext | None = None):
    """All selected checks at one point; errors are captured per check.

    ``batch`` is the context of a batch that holds the point: the first
    point's call computes each check at all of the batch's points, later
    calls read their own results.  Without one, the point is a one-point
    batch."""
    if batch is None:
        batch = BatchContext(scenario, fields, [point])
    k = batch.index[point]
    return {name: batch.results(name)[k] for name in names}


# The most points evaluated as one batch.  A batch keeps its operator
# results, tables and frame expansions until its last check has run, about
# 0.95 MB per point (32-point batch of curved_torsion; 0.45 MB before the
# expansions were kept), and batches above about 16 points run little
# faster per point.
BATCH_POINTS = 32

# The fewest points a forked shard is given.  Most of a batch's cost does
# not depend on how many points it holds, and each process pays it in full,
# plus the copy-on-write page faults that follow the fork.  On a 2-core host
# (full suite, curved_torsion, medians of fresh interpreters) two processes
# were slower than one on shards of 1 and 2 points, broke even on 3, and
# won on every shard size from 4 points on.
MIN_SHARD_POINTS = 4


def _eval_shard(scenario, fields, names, indexed_points) -> dict:
    """{point index: check results} for one shard, ``(index, point)``
    pairs, evaluated in consecutive batches of equal size, up to one point,
    and at most ``BATCH_POINTS`` points."""
    out = {}
    size, n = len(indexed_points), -(-len(indexed_points) // BATCH_POINTS)
    for k in range(n):
        batch = indexed_points[k * size // n:(k + 1) * size // n]
        context = BatchContext(scenario, fields, [p for _, p in batch])
        for idx, point in batch:
            # one call per point, looked up at call time, so that a wrapper
            # installed on the module (perfbench's tracer) sees every
            # point, in any process
            out[idx] = evaluate_point(scenario, fields, names, point, context)
    return out


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a shard's child process."""


class WorkerError(RuntimeError):
    """A shard's child process could not be started, or ended without
    sending its results."""


# Shards fork on Linux only.  Elsewhere fork is missing (Windows) or unsafe
# with system frameworks such as Accelerate (macOS), and the calling process
# evaluates every point itself.
FORK_SHARDS = sys.platform == "linux"


def _shard_child(write_fd: int, shard) -> None:
    """A forked child: send one pickled ``(ok, results or exception, traceback
    text)`` for a shard, then ``os._exit``: no exit handler, no stdio flush."""
    try:
        try:
            msg = (True, _eval_shard(*shard), None)
        except BaseException as err:
            import traceback

            msg = (False, err, traceback.format_exc())
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(msg))
        os._exit(0)
    finally:
        os._exit(1)    # reached only when the message could not be sent


def _run_shards(scenario, fields, names, points, n: int) -> dict:
    """Evaluate the points in ``n`` static index shards ``points[k::n]``:
    this process evaluates shard 0 and a forked child each other shard,
    sending back its results or exception through a pipe.  With one shard,
    or where ``FORK_SHARDS`` is off, every point is evaluated here.  A pipe
    or fork that fails raises ``WorkerError``, and on any error the children
    already started are killed and reaped."""
    indexed = list(enumerate(points))
    if n == 1 or not FORK_SHARDS:
        return _eval_shard(scenario, fields, names, indexed)
    running = {}    # pid: read end of its pipe, for each child not yet reaped
    try:
        for k in range(1, n):
            fds = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError as err:    # EAGAIN, ENOMEM, EMFILE: out of processes, memory or files
                for fd in fds:
                    os.close(fd)
                raise WorkerError(f"cannot start worker process: {err}") from err
            read_fd, write_fd = fds
            if pid == 0:
                _shard_child(write_fd, (scenario, fields, names, indexed[k::n]))
            os.close(write_fd)    # the child's end now: its exit reads as EOF
            running[pid] = open(read_fd, "rb")
        results = _eval_shard(scenario, fields, names, indexed[::n])
        for pid, pipe in list(running.items()):
            with pipe:    # read before reaping: a child blocks on a large payload
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            if code >= 0 and (code or not data):
                raise WorkerError(f"worker process exited with code {code}")
            if code < 0:    # killed, perhaps while writing: data may be cut short
                import signal
                raise WorkerError(f"worker process killed by signal {-code} ({signal.Signals(-code).name})")
            ok, payload, child_tb = pickle.loads(data)
            if not ok:
                raise payload from _ChildTraceback(child_tb)
            results.update(payload)
        return results
    except BaseException:
        # this process or a child failed: no child may outlive the call
        import signal

        for pid, pipe in running.items():
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
        raise


@dataclass
class CheckResult:
    """One check's outcome over a run's points: residual max and mean, the
    worst point, the verdict and the per-point errors."""

    name: str
    max: float | None
    mean: float | None
    worst_point: tuple | None
    passed: bool
    anchor: str
    errors: list = field(default_factory=list)


def _finite_or_none(x):
    """JSON has no NaN or infinity: such a value is written as null."""
    return x if x is not None and math.isfinite(x) else None


@dataclass
class ResidualReport:
    """A run's report: what was run and each check's result."""

    scenario_digest: str
    seed: int
    points: int
    tol: float
    checks: list

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        obj = {
            "scenario_digest": self.scenario_digest,
            "seed": self.seed,
            "points": self.points,
            "tol": _finite_or_none(self.tol),
            "checks": [
                {
                    "name": c.name,
                    "max": _finite_or_none(c.max),
                    "mean": _finite_or_none(c.mean),
                    "worst_point": list(c.worst_point) if c.worst_point else None,
                    "pass": c.passed,
                    "paper_anchor": c.anchor,
                    "errors": [{"point": list(point), "message": msg} for point, msg in c.errors],
                }
                for c in self.checks
            ],
        }
        return json.dumps(obj, allow_nan=False)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            if c.max is None:
                lines.append(f"FAIL {c.name} max=n/a mean=n/a worst=n/a")
            else:
                worst = ",".join(f"{x:.6g}" for x in c.worst_point)
                status = "PASS" if c.passed else "FAIL"
                lines.append(
                    f"{status} {c.name} max={c.max:.6e} mean={c.mean:.6e} worst=({worst})"
                )
            for point, msg in c.errors:
                coords = ",".join(f"{x:.6g}" for x in point)
                lines.append(f"ERROR {c.name} point=({coords}) {msg}")
        return "\n".join(lines) + "\n"


def select_checks(scenario: Scenario, only=None):
    if only is not None:
        only = list(dict.fromkeys(only))    # a repeated name runs once
        unknown = [n for n in only if n not in CHECKS]
        if unknown or not only:
            what = f"unknown check name(s) {', '.join(unknown)}" if unknown else "no check name given"
            raise UsageError(f"{what}; valid names: {', '.join(CHECKS)}")
        return only
    if scenario.checks:
        unknown = [n for n in scenario.checks if n not in CHECKS]
        if unknown:
            raise ScenarioError(
                f"unknown check name(s) {', '.join(unknown)}; "
                f"valid names: {', '.join(CHECKS)}"
            )
        return list(scenario.checks)
    return list(CHECKS)


def run_suite(
    scenario: Scenario,
    points: int | None = None,
    seed: int | None = None,
    tol: float | None = None,
    only=None,
    workers: int = 1,
) -> ResidualReport:
    """Run the selected checks at the sampled points on at most ``workers``
    processes, this one included: ``min(workers, max(1, points //
    MIN_SHARD_POINTS))`` static shards, one process each."""
    if workers < 1:
        raise UsageError(f"worker count must be at least 1, got {workers}")
    if points is not None and points < 1:
        raise UsageError(f"point count must be at least 1, got {points}")
    if seed is not None and seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    if tol is not None and not (np.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"tolerance must be finite and non-negative, got {tol}")
    names = select_checks(scenario, only)
    n_points = scenario.sampling.points if points is None else points
    run_seed = scenario.sampling.seed if seed is None else seed
    run_tol = scenario.sampling.tol if tol is None else tol

    pts = sample_points(scenario, n_points, run_seed)
    fields = build_run_fields(scenario, run_seed, pts)

    n = min(workers, max(1, len(pts) // MIN_SHARD_POINTS))
    # a value that overflows, or is not a number, is a per-point error or
    # FAIL in the report, not a warning; forked shards inherit the state
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        results = _run_shards(scenario, fields, names, pts, n)

    checks = []
    for name in names:
        values = []
        errors = []
        nonfinite = False
        for i in range(len(pts)):
            r = results[i][name]
            if isinstance(r, tuple):
                errors.append((pts[i].x, r[1]))
                nonfinite = nonfinite or r[0] == "non-finite"
            elif not math.isfinite(r):
                # max() would hide a NaN, and a residual that is not a
                # number proves nothing: the check fails
                errors.append((pts[i].x, f"non-finite residual {r!r}"))
                nonfinite = True
            else:
                values.append((r, pts[i].x))
        if values:
            vmax, worst = max(values, key=lambda t: t[0])
            # np.mean's sum and division, without its per-call overhead
            vmean = float(np.add.reduce(np.array([v for v, _ in values])) / len(values))
            passed = vmax <= run_tol and not nonfinite
        else:
            vmax = vmean = worst = None
            passed = False
        checks.append(
            CheckResult(
                name=name,
                max=vmax,
                mean=vmean,
                worst_point=worst,
                passed=passed,
                anchor=CHECKS[name].anchor,
                errors=errors,
            )
        )
    return ResidualReport(
        scenario_digest=scenario.digest,
        seed=run_seed,
        points=n_points,
        tol=run_tol,
        checks=checks,
    )


# -- CLI ---------------------------------------------------------------------------


def resolve_scenario_path(name: str):
    """A filesystem path, or the name of a bundled scenario."""
    if os.path.exists(name):
        return name
    base = name if name.endswith(".scn") else name + ".scn"
    bundled = resources.files("rcdirac") / "scenarios" / base
    if bundled.is_file():
        return bundled
    raise ScenarioError(
        f"scenario {name!r} not found (not a file, not a bundled scenario)"
    )


def bundled_scenario_names():
    out = []
    for entry in (resources.files("rcdirac") / "scenarios").iterdir():
        if entry.name.endswith(".scn"):
            out.append(entry.name[:-4])
    return sorted(out)


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="rcdirac",
        description="Verify Dirac-operator identities on frame-based Riemann-Cartan geometries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run identity checks on a scenario file")
    run.add_argument("scenario", help="scenario file path or bundled scenario name")
    run.add_argument("--points", type=int, default=None, help="sample point count")
    run.add_argument("--seed", type=int, default=None, help="sampling/field seed")
    run.add_argument("--tol", type=float, default=None, help="pass/fail tolerance")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--only", default=None, help="comma-separated check names")
    run.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help=f"at most N processes, the calling one included: n = min(N, max(1, points // {MIN_SHARD_POINTS})) shards",
    )
    sub.add_parser("list-checks", help="list available identity checks")
    explain = sub.add_parser("explain", help="describe one check")
    explain.add_argument("check")
    return parser


def _attach_tolerance(argv) -> list:
    """argv with a number after ``--tol`` attached to it, ``--tol -1e-8`` as
    ``--tol=-1e-8``: argparse takes a token that starts with '-' for an
    option unless it is a plain negative number such as -1 or -0.5, so
    ``-1e-8`` or ``-inf`` would not reach the tolerance check."""
    out = []
    for arg in argv:
        if out and out[-1] == "--tol" and _is_number(arg):
            out[-1] = f"--tol={arg}"
        else:
            out.append(arg)
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_tolerance(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    if args.command == "list-checks":
        for name, desc in CHECKS.items():
            note = f"  [{desc.note}]" if desc.note else ""
            print(f"{name:26s} {desc.anchor}{note}")
        return 0

    if args.command == "explain":
        desc = CHECKS.get(args.check)
        if desc is None:
            print(
                f"unknown check {args.check!r}; valid names: {', '.join(CHECKS)}",
                file=sys.stderr,
            )
            return 2
        print(f"name:     {desc.name}")
        print(f"identity: {desc.anchor}")
        print(f"fields:   {', '.join(desc.fields) if desc.fields else 'none'}")
        print("order:    needs jets of order 2")
        if desc.note:
            print(f"note:     {desc.note}")
        return 0

    only = None if args.only is None else [n.strip() for n in args.only.split(",") if n.strip()]
    try:
        path = resolve_scenario_path(args.scenario)
        scenario = fieldspec.load_scenario_file(path, valid_checks=set(CHECKS))
    except (ScenarioError, OSError) as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return 3
    try:
        t0 = time.perf_counter()
        report = run_suite(
            scenario,
            points=args.points,
            seed=args.seed,
            tol=args.tol,
            only=only,
            workers=args.workers,
        )
        elapsed = time.perf_counter() - t0
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ScenarioError) as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return 3
    except WorkerError as err:
        print(f"run error: {err}", file=sys.stderr)
        return 4

    if args.format == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.to_text())
    print(f"wall time: {elapsed:.2f}s", file=sys.stderr)
    return 0 if report.all_passed() else 1


def main():
    sys.exit(cli_main(sys.argv[1:]))
