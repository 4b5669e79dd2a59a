"""Residual harness: load a scenario, sample chart points, run identity
checks, emit deterministic reports.

Every check is a pure function of (scenario, point, test fields); the run
evaluates each selected check at each sampled point and reports max/mean
residuals against the tolerance.  Reports are byte-identical across runs
with the same scenario bytes, seed and flags, at any worker count: work is
keyed by point index and merged in index order, and timing goes to stderr.

A check runs on a batch of points at once: it receives a ``BatchContext``,
whose frame, curvature and test fields carry a point axis (see
``geometry``), and returns one residual per point.  A shard's points run in
batches of at most ``BATCH_POINTS``.  The per-point seam stays:
``_eval_shard`` calls ``_eval_task`` once per point, looked up at call
time, and that calls ``evaluate_point`` for the point.  The first point of
a batch computes each selected check for the whole batch, through
``CHECKS[name].fn``; later points read their own results.  A point whose
frame cannot be built leaves the batch and gets its frame error at every
check, and a check that raises for a batch is rerun one point at a time,
so no point's results depend on the others in its batch.

``workers`` counts processes in total, the calling one included.  The
points are split into ``n = min(workers, points)`` static index shards
``points[k::n]``: the calling process evaluates shard 0 and one child process
each other shard.  The children are forked with ``os.fork``, so they inherit
the scenario and the evaluated test fields; each sends its results back
once, as one pickled message through an ``os.pipe``.  A child that dies,
or exits without sending, raises ``WorkerError`` (exit code 4 on the
command line).  With one shard nothing is forked.  Shards fork on Linux
only (``FORK_SHARDS``); on other platforms the calling process evaluates
every point, which gives the same report.

Auto-generated test fields are random degree-3 polynomials with seeded
coefficients, normalized to unit sup-norm over the sampled points.  A
scenario may override any of them by defining fields with the reserved
names ``f.scalar`` and ``A.vector``, ``A.bivector``, ``A.even``,
``A.general``, ``A.general2``, ``A.current``.

The seeded draws (the Halton shift of the sample points and the polynomial
coefficients) come from ``UniformStream``, which reproduces numpy's
``default_rng`` PCG64 stream bit for bit without importing ``numpy.random``,
whose import would cost more than the draws.
"""

from __future__ import annotations

import json
import operator
import os
import pickle
import sys
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import fieldspec, geometry, operators
from .cliffalg import (
    GRADES, LC_TABLE, THETA_GP_ROWS, WEDGE_TABLE, GradeError, Multivector, blade_products, blade_sum,
    geometric_product, grade_involution, product_sum, wedge,
)
from .fieldspec import Scenario, ScenarioError, eval_exprs
from .geometry import ETA, NonFiniteFrameError
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

FIELD_KINDS = {
    "scalar": (0,),
    "vector": (1,),
    "bivector": (2,),
    "even": (0, 2, 4),
    "general": (0, 1, 2, 3, 4),
    "general2": (0, 1, 2, 3, 4),
    "current": (1,),
}
# the blades a generated field of each kind fills
_FIELD_BLADES = {
    kind: [i for i in range(16) if GRADES[i] in grades] for kind, grades in FIELD_KINDS.items()
}


class UsageError(ValueError):
    """Bad command-line arguments."""


# -- seeded streams -------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


class UniformStream:
    """numpy's ``default_rng(entropy)`` stream, drawn without importing
    ``numpy.random``: SeedSequence mixing of the entropy words into a
    4-word pool, PCG64 (XSL-RR 128/64) seeded from it, and doubles
    ``(x >> 11) * 2**-53``.  ``uniform(lo, hi, n)`` equals numpy's
    ``Generator.uniform(lo, hi, n)`` bit for bit over consecutive calls."""

    def __init__(self, entropy):
        words = []
        for n in entropy:
            n = operator.index(n)
            if n < 0:
                raise ValueError("expected non-negative integer")
            words.append(n & _MASK32)
            while n >> 32:
                n >>= 32
                words.append(n & _MASK32)
        const = _INIT_A

        def hashmix(value):
            nonlocal const
            value ^= const
            const = const * _MULT_A & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16

        def mix(x, y):
            r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))

        # generate_state(4, uint64): 8 words, paired little-endian
        state, hash_b = [], _INIT_B
        for i in range(8):
            value = pool[i % _POOL_SIZE] ^ hash_b
            hash_b = hash_b * _MULT_B & _MASK32
            value = value * hash_b & _MASK32
            state.append(value ^ value >> 16)
        w = [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]
        seed, inc = w[0] << 64 | w[1], w[2] << 64 | w[3]
        # PCG64 srandom: state 0, step, add the seed, step
        self._inc = (inc << 1 | 1) & _MASK128
        self._state = ((self._inc + seed) * _PCG_MULT + self._inc) & _MASK128

    def uniform(self, lo: float, hi: float, n: int) -> np.ndarray:
        # the 128-bit LCG steps in Python integers; the XSL-RR output and
        # the double conversion run on the (low, high) uint64 halves
        state, inc, states = self._state, self._inc, []
        for _ in range(n):
            state = (state * _PCG_MULT + inc) & _MASK128
            states.append(state.to_bytes(16, "little"))
        self._state = state
        low, high = np.frombuffer(b"".join(states), dtype=np.uint64).reshape(n, 2).T
        x, rot = low ^ high, high >> np.uint64(58)
        x = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))    # rotate right
        return lo + (hi - lo) * ((x >> np.uint64(11)) * _DOUBLE_UNIT)


# -- test fields --------------------------------------------------------------


@dataclass
class RunField:
    """A test field: random polynomial coefficients or scenario expressions,
    with a sup-norm scale applied at evaluation time."""

    kind: str
    polys: np.ndarray | None = None       # (16, 35) monomial coefficients
    exprs: tuple | None = None            # 16 expressions from the scenario
    scale: float = 1.0
    # unscaled (16, 15) values at the run's points, filled by
    # build_run_fields; a forked shard child inherits them, and a pickled
    # copy leaves them out and evaluates its points itself
    values: dict = field(default_factory=dict, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "values": {}}

    def raw(self, point: ChartPoint, monomials: np.ndarray | None = None) -> np.ndarray:
        """Unscaled (16, 15) jets at a point; ``monomials`` are the point's
        ``monomial_jets`` when already computed."""
        if self.exprs is not None:
            return eval_exprs(self.exprs, point)
        return self.polys @ (monomial_jets(point) if monomials is None else monomials)

    def at(self, points) -> Multivector:
        """The field at a chart point, (16, 15), or at a sequence of P
        points, a point stack (P, 16, 15)."""
        if isinstance(points, ChartPoint):
            return Multivector.from_array(self._raw_at(points) * self.scale, 2)
        data = np.array([self._raw_at(p) for p in points]).reshape(-1, 16, JET_LEN)
        return Multivector.from_array(data * self.scale, 2)

    def _raw_at(self, point: ChartPoint) -> np.ndarray:
        data = self.values.get(point)
        return self.raw(point) if data is None else data


def monomial_jets(point: ChartPoint) -> np.ndarray:
    """Jets (35, 15) of the MONOMIALS at a point, in closed form: the jet
    slot differentiating x^mu d times takes e!/(e-d)! x^(e-d) from factor mu."""
    x = np.array(point.x)
    e = _EXPONENTS
    # factors[d, m, mu]: the d-th derivative of x^mu to the power e[m, mu]
    factors = np.stack([
        x ** e,
        e * x ** np.maximum(e - 1, 0),
        e * (e - 1) * x ** np.maximum(e - 2, 0),
    ])
    m = np.arange(len(e))[:, None]
    return factors[_SLOT_DERIVATIVE[:, None, :], m, np.arange(NVARS)].prod(axis=-1).T


def build_run_fields(scenario: Scenario, seed: int, points) -> dict[str, RunField]:
    """Assemble all test fields for a run and normalize them to unit
    sup-norm over the sampled points."""
    # one draw of 35 coefficients per blade a kind fills, in FIELD_KINDS
    # order; the draws are made for every kind regardless of overrides, so
    # pinning one field never reshuffles the generated ones
    n_rows = sum(map(len, _FIELD_BLADES.values()))
    draws = UniformStream([seed, 0xF1E1D]).uniform(-1.0, 1.0, n_rows * len(MONOMIALS))
    draws = draws.reshape(n_rows, len(MONOMIALS))
    fields: dict[str, RunField] = {}
    for kind, grades in FIELD_KINDS.items():
        blades = _FIELD_BLADES[kind]
        rows, draws = draws[:len(blades)], draws[len(blades):]
        override = None
        if kind == "scalar" and "scalar" in scenario.scalar_fields:
            override = (scenario.scalar_fields["scalar"],) + (fieldspec.ZERO_EXPR,) * 15
        elif kind != "scalar" and kind in scenario.multivector_fields:
            override = scenario.multivector_fields[kind]
            for i, expr in enumerate(override):
                if GRADES[i] not in grades and expr != fieldspec.ZERO_EXPR:
                    raise ScenarioError(
                        f"field A.{kind} has a component at blade {i} "
                        f"(grade {GRADES[i]}), but this reserved name only "
                        f"allows grades {grades}"
                    )
        if override is not None:
            fields[kind] = RunField(kind=kind, exprs=tuple(override))
        else:
            polys = np.zeros((16, len(MONOMIALS)))
            polys[blades] = rows
            fields[kind] = RunField(kind=kind, polys=polys)
    monomials = [monomial_jets(p) for p in points]
    for kind, f in fields.items():
        label = "f.scalar" if kind == "scalar" else f"A.{kind}"
        if f.exprs is None:
            f.values = {p: f.raw(p, m) for p, m in zip(points, monomials)}
        else:
            try:
                f.values = dict(zip(points, fieldspec.Program(f.exprs).evaluate(points)))
            except (ArithmeticError, ValueError) as err:
                detail = err if isinstance(err, fieldspec.ExprDomainError) else (
                    f"{type(err).__name__} at point {err.point.x}: {err}"
                )
                raise ScenarioError(f"test field {label}: {detail}") from err
        f.scale = _unit_scale(label, f.values.values())
    return fields


def _unit_scale(label: str, values) -> float:
    """1 / the largest finite value of a field's (16, 15) jets at the run's
    points, or 1 when that is tiny; non-finite values stay per-point
    errors of the checks."""
    v = np.abs([data[:, 0] for data in values])
    sup = v[np.isfinite(v)].max(initial=0.0)
    if sup == 0.0:
        raise ScenarioError(
            f"test field {label} has no finite non-zero value at the sampled points"
        )
    return 1.0 / sup if sup > 1e-12 else 1.0


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
    shift = UniformStream([s, 0x5A11]).uniform(0.0, 1.0, 4).tolist()
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


@dataclass(frozen=True)
class CheckDescriptor:
    name: str
    anchor: str                       # identity statement, for explain/JSON
    fields: tuple[str, ...]
    fn: object
    note: str = ""


CHECKS: dict[str, CheckDescriptor] = {}


def _check(name, anchor, fields=(), note=""):
    def deco(fn):
        CHECKS[name] = CheckDescriptor(name=name, anchor=anchor, fields=tuple(fields), fn=fn, note=note)
        return fn

    return deco


class BatchContext:
    """The shared state of one batch of a shard's points, each part built
    on first use: the frames of its points in one pass, their curvature,
    the test fields as point stacks, and each check's results at all of
    them.

    A point whose frame cannot be built leaves the batch: its frame error
    is its result for every check, and the frames, fields and check
    residuals are those of the other points, ``points``."""

    def __init__(self, scenario: Scenario, fields: dict[str, RunField], points):
        self.scenario = scenario
        self.fields = fields
        self.all_points = tuple(points)
        self.index = {p: k for k, p in enumerate(self.all_points)}
        self._live = None           # indices of the points with frames
        self._points = None         # those points
        self._frame_errors = None   # per point: its frame error, or None
        self._geom = None
        self._curv = None
        self._values: dict[str, Multivector] = {}
        self._results: dict[str, list] = {}

    def _build_frames(self):
        if self._live is not None:
            return
        live = list(range(len(self.all_points)))
        errors = [None] * len(live)
        while live:
            points = [self.all_points[k] for k in live]
            try:
                self._geom = geometry.build_frame(self.scenario, points)
                break
            except _FRAME_ERRORS as err:
                # the error names its point: it leaves, the rest are rebuilt
                point = getattr(err, "point", None)
                if point not in points:
                    raise
                kind = "non-finite" if isinstance(err, NonFiniteFrameError) else "error"
                errors[live.pop(points.index(point))] = (kind, f"{type(err).__name__}: {err}")
        self._live, self._frame_errors = live, errors
        self._points = tuple(self.all_points[k] for k in live)

    @property
    def points(self) -> tuple:
        """The points whose frames were built, in batch order."""
        self._build_frames()
        return self._points

    @property
    def geom(self):
        self._build_frames()
        return self._geom

    @property
    def curv(self):
        if self._curv is None:
            self._curv = geometry.curvature(self.geom)
        return self._curv

    def field(self, kind: str) -> Multivector:
        """The test field at ``points``, a (P, 16, 15) stack."""
        if kind not in self._values:
            self._values[kind] = self.fields[kind].at(self.points)
        return self._values[kind]

    def scalar_mv(self) -> Multivector:
        """The scalar field as scalar multivectors, one object per batch so
        that the checks share the operator results on it."""
        if "scalar_mv" not in self._values:
            f = self.field("scalar")
            data = np.zeros_like(f.data)
            data[..., 0, :] = f.data[..., 0, :]
            self._values["scalar_mv"] = Multivector.from_array(data, f.order)
        return self._values["scalar_mv"]

    def results(self, name: str) -> list:
        """One check's result at each point of the batch, in batch order: a
        residual, or an error tuple ``(kind, message)``."""
        if name not in self._results:
            self._results[name] = self._run_check(name)
        return self._results[name]

    def _run_check(self, name: str) -> list:
        self._build_frames()
        live, out = self._live, list(self._frame_errors)
        if not live:
            return out
        try:
            # looked up at call time, so that a wrapper installed in the
            # registry (perfbench's tracer) runs here
            values = np.asarray(CHECKS[name].fn(self), dtype=np.float64)
        except _CHECK_ERRORS as err:
            if len(live) == 1:
                out[live[0]] = ("error", f"{type(err).__name__}: {err}")
            else:
                # an error must not reach the other points: each runs as a
                # one-point batch
                for k in live:
                    out[k] = BatchContext(self.scenario, self.fields, [self.all_points[k]]).results(name)[0]
        else:
            if values.shape != (len(live),):
                values = np.broadcast_to(values, (len(live),))
            for k, value in zip(live, values.tolist()):
                out[k] = value
        return out


# the errors of a point whose frame cannot be built, which name it as
# ``point``: DegenerateFrameError, NonFiniteFrameError and the
# ArithmeticError or ValueError of a failing frame expression
_FRAME_ERRORS = (ArithmeticError, ValueError)
# the errors a check body reports per point instead of failing the run
_CHECK_ERRORS = (JetDomainError, JetOrderError, GradeError)


def _worst(*residuals) -> np.ndarray:
    """The largest residual at each point, NaN if any is NaN (Python's max
    drops them)."""
    return np.max(residuals, axis=0)


_TOT_ANTISYM_NOTE = "valid for totally antisymmetric (zero-strain) torsion"
_COCLOSED_NOTE = "needs co-closed totally antisymmetric torsion"


@_check(
    "metricity",
    "eta-lowered full connection coefficients are antisymmetric in the rotation pair",
)
def _c_metricity(ctx):
    return geometry.metricity_residual(ctx.geom.full)


@_check(
    "torsion-recovery",
    "antisymmetrized connection minus frame structure coefficients reproduces the torsion input",
)
def _c_torsion_recovery(ctx):
    return geometry.torsion_recovery_residual(ctx.geom)


@_check(
    "levi-civita",
    "torsion-free and metricity defining residuals of the Levi-Civita coefficients",
)
def _c_levi_civita(ctx):
    return geometry.levi_civita_residual(ctx.geom)


@_check(
    "contorsion-trace",
    "contorsion trace identity: eta^{br} K^a_{br} + eta^{sa} T^r_{rs} = 0",
)
def _c_contorsion_trace(ctx):
    return geometry.contorsion_trace_residual(ctx.geom)


@_check(
    "bianchi",
    "first Bianchi identity: cyclic sum of the lowered torsion-free curvature vanishes",
)
def _c_bianchi(ctx):
    return geometry.first_bianchi_residual(ctx.curv)


@_check(
    "curvature-decomposition",
    "curvature equals torsion-free curvature plus the contorsion-induced difference, componentwise",
)
def _c_decomposition(ctx):
    return geometry.decomposition_residual(ctx.curv)


@_check(
    "curvature-traces",
    "curvature biforms are antisymmetric in the plane pair and eta-traceless",
)
def _c_curvature_traces(ctx):
    biforms = ctx.curv.biforms
    trace = np.einsum("a,aa...->...", np.array(ETA), biforms.data[..., 0])
    return _worst((biforms + biforms.swapaxes(0, 1)).max_abs(), np.abs(trace).max(axis=-1))


@_check(
    "ricci-antisymmetry",
    "grade-2 part of the curvature contraction (the connection's antisymmetric "
    "Ricci) vanishes; the structural condition behind the four-term squared "
    "spin operator identity",
    note=_COCLOSED_NOTE,
)
def _c_ricci_antisymmetry(ctx):
    return ctx.curv.contraction_grade2.max_abs()


@_check(
    "dirac-split",
    "Dirac operator equals its contraction part plus its wedge part",
    fields=("general",),
)
def _c_dirac_split(ctx):
    A = ctx.field("general")
    return _worst(*(
        (
            operators.dirac(ctx.geom, A, conn)
            - operators.dirac_contract(ctx.geom, A, conn)
            - operators.dirac_wedge(ctx.geom, A, conn)
        ).max_abs()
        for conn in ("lc", "full")
    ))


@_check(
    "exterior-derivative",
    "wedge part of the standard Dirac operator is the exterior derivative",
    fields=("general",),
)
def _c_exterior_derivative(ctx):
    A = ctx.field("general")
    return (
        operators.dirac_wedge(ctx.geom, A, "lc") - operators.exterior_d(ctx.geom, A)
    ).max_abs()


@_check(
    "codifferential",
    "contraction part of the standard Dirac operator is minus the Hodge codifferential",
    fields=("general",),
)
def _c_codifferential(ctx):
    A = ctx.field("general")
    return (
        operators.dirac_contract(ctx.geom, A, "lc") + operators.codifferential(ctx.geom, A)
    ).max_abs()


@_check(
    "torsion-splits",
    "torsionful contraction/wedge parts equal the standard parts minus torsion 2-form corrections",
    fields=("general",),
)
def _c_torsion_splits(ctx):
    A = ctx.field("general")
    geom = ctx.geom
    thetas = geometry.torsion_two_forms(geom)
    # sum_r Theta^r ^ (theta_r _| A) and sum_r Theta^r _| (theta_r ^ A)
    wedge_corr = product_sum(thetas, blade_products(operators.THETA_DOWN_LC, A), WEDGE_TABLE)
    contract_corr = product_sum(thetas, blade_products(operators.THETA_DOWN_WEDGE, A), LC_TABLE)
    w = operators.dirac_wedge(geom, A) - (operators.dirac_wedge(geom, A, "lc") - wedge_corr)
    c = operators.dirac_contract(geom, A) - (
        operators.dirac_contract(geom, A, "lc") - contract_corr
    )
    return _worst(w.max_abs(), c.max_abs())


@_check(
    "torsion-trace-contraction",
    "torsion 2-forms contracted on the gradient reproduce minus the eta-raised torsion trace",
    fields=("scalar",),
)
def _c_torsion_trace_contraction(ctx):
    geom = ctx.geom
    f = ctx.scalar_mv()
    df = operators.dirac(geom, f, "lc")
    lowered = blade_products(operators.THETA_DOWN_WEDGE, df)      # [r]: theta_r ^ df
    lhs = product_sum(geometry.torsion_two_forms(geom), lowered, LC_TABLE)
    Q = geometry.torsion_trace(geom)
    e_f = operators.pfaffs(geom, f)                               # [b]: e_b(f)
    rhs = jet_einsum("bp,bp->p", -np.array(ETA)[:, None, None] * Q, e_f.data[..., 0, :], e_f.order)
    return (lhs - operators.scalar_multivector(rhs, e_f.order)).max_abs()


@_check(
    "scalar-laplacian",
    "minus delta d on a scalar equals the frame Laplace-Beltrami combination",
    fields=("scalar",),
)
def _c_scalar_laplacian(ctx):
    geom = ctx.geom
    f = ctx.scalar_mv()
    lhs = operators.codifferential(geom, operators.exterior_d(geom, f)).scale(-1.0)
    return (lhs - operators.frame_wave(geom, f, geom.lc)).max_abs()


@_check(
    "cov-deriv-torsion",
    "covariant derivative equals the standard one plus half the torsion operator on vectors",
    fields=("vector",),
    note=_TOT_ANTISYM_NOTE,
)
def _c_cov_deriv_torsion(ctx):
    geom = ctx.geom
    v = ctx.field("vector")
    return (
        operators.cov_derivs(geom, v, "full")
        - operators.cov_derivs(geom, v, "lc")
        - operators.torsion_operators(geom, v).scale(0.5)
    ).max_abs()


@_check(
    "dirac-torsion",
    "Dirac operator on vectors equals the standard one plus half the contracted torsion operator",
    fields=("vector",),
    note=_TOT_ANTISYM_NOTE,
)
def _c_dirac_torsion(ctx):
    geom = ctx.geom
    v = ctx.field("vector")
    corr = blade_sum(THETA_GP_ROWS, operators.torsion_operators(geom, v)).scale(0.5)
    return (
        operators.dirac(geom, v, "full") - operators.dirac(geom, v, "lc") - corr
    ).max_abs()


@_check(
    "leibniz",
    "covariant derivatives are derivations of the geometric product",
    fields=("general", "general2"),
)
def _c_leibniz(ctx):
    geom = ctx.geom
    A = ctx.field("general")
    B = ctx.field("general2")
    AB = geometric_product(A, B)
    return _worst(*(
        (
            operators.cov_derivs(geom, AB, conn)
            - geometric_product(operators.cov_derivs(geom, A, conn), B)
            - geometric_product(A, operators.cov_derivs(geom, B, conn))
        ).max_abs()
        for conn in ("lc", "full")
    ))


@_check(
    "antiderivation",
    "the wedge part acts as an antiderivation through the grade involution",
    fields=("general", "general2"),
)
def _c_antiderivation(ctx):
    geom = ctx.geom
    A = ctx.field("general")
    B = ctx.field("general2")
    AB = wedge(A, B)
    return _worst(*(
        (
            operators.dirac_wedge(geom, AB, conn)
            - wedge(operators.dirac_wedge(geom, A, conn), B)
            - wedge(grade_involution(A), operators.dirac_wedge(geom, B, conn))
        ).max_abs()
        for conn in ("lc", "full")
    ))


@_check(
    "spin-module",
    "spin derivative of a Clifford multiple of a representative obeys the module rule",
    fields=("general", "even"),
)
def _c_spin_module(ctx):
    geom = ctx.geom
    C = ctx.field("general")
    psi = ctx.field("even")
    return (
        operators.spin_cov_derivs(geom, geometric_product(C, psi))
        - geometric_product(operators.cov_derivs(geom, C, "full"), psi)
        - geometric_product(C, operators.spin_cov_derivs(geom, psi))
    ).max_abs()


@_check(
    "spin-left-form",
    "one-sided left form of the spin derivative equals the covariant form plus half the right action",
    fields=("even",),
)
def _c_spin_left_form(ctx):
    geom = ctx.geom
    psi = ctx.field("even")
    return (
        operators.spin_cov_derivs(geom, psi)
        - operators.cov_derivs(geom, psi, "full")
        - geometric_product(psi, geom.omega_biform).scale(0.5)
    ).max_abs()


@_check("d-squared", "the exterior derivative squares to zero", fields=("general",))
def _c_d_squared(ctx):
    A = ctx.field("general")
    return operators.exterior_d(ctx.geom, operators.exterior_d(ctx.geom, A)).max_abs()


@_check("delta-squared", "the codifferential squares to zero", fields=("general",))
def _c_delta_squared(ctx):
    A = ctx.field("general")
    return operators.codifferential(ctx.geom, operators.codifferential(ctx.geom, A)).max_abs()


@_check(
    "double-contraction",
    "the contraction part applied twice to a scalar vanishes",
    fields=("scalar",),
)
def _c_double_contraction(ctx):
    inner = operators.dirac_contract(ctx.geom, ctx.scalar_mv(), "full")
    return operators.dirac_contract(ctx.geom, inner, "full").max_abs()


@_check(
    "scalar-square-forms",
    "standard-plus-torsion and full-connection scalar square expansions agree with the direct square",
    fields=("scalar",),
)
def _c_scalar_square_forms(ctx):
    geom = ctx.geom
    f = ctx.scalar_mv()
    direct = operators.dirac_square_direct(geom, f, "full")
    std = operators.scalar_square_standard_form(geom, f)
    conn = operators.scalar_square_connection_form(geom, f)
    return _worst(
        (std - conn).max_abs(), (std - direct).max_abs(), (conn - direct).max_abs()
    )


@_check(
    "square-assembly",
    "direct square equals the eta-plus-bivector assembly, plain and antisymmetrized",
    fields=("general",),
)
def _c_square_assembly(ctx):
    geom = ctx.geom
    A = ctx.field("general")
    direct = operators.dirac_square_direct(geom, A, "full")
    plain = operators.dirac_square_assembled(geom, A, "full")
    anti = operators.dirac_square_assembled(geom, A, "full", antisymmetrized=True)
    return _worst((plain - direct).max_abs(), (anti - direct).max_abs())


@_check(
    "pair-expansion",
    "second covariant derivative expands through the standard derivative and the torsion operator",
    fields=("vector",),
    note=_TOT_ANTISYM_NOTE,
)
def _c_pair_expansion(ctx):
    return operators.covariant_pair_expansion_residual(ctx.geom, ctx.field("vector"))


@_check(
    "square-torsion-relation",
    "torsionful square equals the standard square plus the paired torsion correction on vectors",
    fields=("vector",),
    note=_TOT_ANTISYM_NOTE,
)
def _c_square_torsion_relation(ctx):
    return operators.vector_square_relation_residual(ctx.geom, ctx.field("vector"))


@_check(
    "spin-commutator",
    "commutator of spin derivatives equals half the curvature biform action "
    "plus a structure/torsion coefficient term, in both printed forms",
    fields=("even",),
)
def _c_spin_commutator(ctx):
    return _worst(*operators.spin_commutator_residuals(ctx.geom, ctx.curv, ctx.field("even")))


@_check(
    "lichnerowicz",
    "squared spin operator equals generalized Dalembertian + scalar curvature over 4 "
    "+ grade-4 torsion-curvature term - torsion 2-form term",
    fields=("even",),
    note=_COCLOSED_NOTE,
)
def _c_lichnerowicz(ctx):
    return operators.lichnerowicz_residual(ctx.geom, ctx.curv, ctx.field("even"))


@_check(
    "spin-square-relation",
    "squared spin operator equals the torsionful square plus the paired right-action correction",
    fields=("general",),
)
def _c_spin_square_relation(ctx):
    return operators.spin_square_relation_residual(ctx.geom, ctx.field("general"))


@_check(
    "spin-standard-square",
    "squared spin operator equals the standard square plus both corrections on vectors",
    fields=("vector",),
    note=_TOT_ANTISYM_NOTE,
)
def _c_spin_standard_square(ctx):
    return operators.spin_standard_square_residual(ctx.geom, ctx.field("vector"))


@_check(
    "s2-levi-civita",
    "right-action correction rewritten through the standard derivative and the torsion operator",
    fields=("vector",),
    note=_TOT_ANTISYM_NOTE,
)
def _c_s2_levi_civita(ctx):
    return operators.s2_levi_civita_residual(ctx.geom, ctx.field("vector"))


@_check(
    "spin-square-assembly",
    "squared spin operator equals its eta-plus-bivector assembly",
    fields=("even",),
)
def _c_spin_square_assembly(ctx):
    return operators.spin_square_assembly_residual(ctx.geom, ctx.field("even"))


@_check(
    "maxwell-equivalence",
    "Clifford-form and right-representative field-equation residuals coincide for arbitrary fields",
    fields=("bivector", "current"),
)
def _c_maxwell_equivalence(ctx):
    _, _, eq = operators.maxwell_residuals(
        ctx.geom, ctx.field("bivector"), ctx.field("current")
    )
    return eq.max_abs()


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


def _eval_task(args):
    """One point of a batch: (its index in the run, its check results)."""
    batch, names, idx, point = args
    return idx, evaluate_point(batch.scenario, batch.fields, names, point, batch)


# The most points evaluated as one batch.  A batch keeps its operator
# results until its last check has run, about 1.4 MB per point, and
# batches above about 16 points run no faster per point.
BATCH_POINTS = 32


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
            idx, res = _eval_task((context, names, idx, point))
            out[idx] = res
    return out


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a shard's child process."""


class WorkerError(RuntimeError):
    """A shard's child process ended without sending its results."""


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
    or where ``FORK_SHARDS`` is off, every point is evaluated here."""
    indexed = list(enumerate(points))
    if n == 1 or not FORK_SHARDS:
        return _eval_shard(scenario, fields, names, indexed)
    running = {}    # pid: read end of its pipe, for each child not yet reaped
    try:
        for k in range(1, n):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:
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
    name: str
    max: float | None
    mean: float | None
    worst_point: tuple | None
    passed: bool
    anchor: str
    errors: list = field(default_factory=list)


def _finite_or_none(x):
    """JSON has no NaN or infinity: such a value is written as null."""
    return x if x is not None and np.isfinite(x) else None


@dataclass
class ResidualReport:
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
    if only:
        unknown = [n for n in only if n not in CHECKS]
        if unknown:
            raise UsageError(
                f"unknown check name(s) {', '.join(unknown)}; "
                f"valid names: {', '.join(CHECKS)}"
            )
        return list(only)
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
    """Run the selected checks at the sampled points on ``workers``
    processes in total, this one included."""
    if workers < 1:
        raise UsageError(f"worker count must be at least 1, got {workers}")
    names = select_checks(scenario, only)
    n_points = scenario.sampling.points if points is None else points
    run_seed = scenario.sampling.seed if seed is None else seed
    run_tol = scenario.sampling.tol if tol is None else tol

    pts = sample_points(scenario, n_points, run_seed)
    fields = build_run_fields(scenario, run_seed, pts)

    results = _run_shards(scenario, fields, names, pts, min(workers, len(pts)))

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
            elif not np.isfinite(r):
                # max() would hide a NaN, and a residual that is not a
                # number proves nothing: the check fails
                errors.append((pts[i].x, f"non-finite residual {r!r}"))
                nonfinite = True
            else:
                values.append((r, pts[i].x))
        if values:
            vmax, worst = max(values, key=lambda t: t[0])
            vmean = float(np.mean([v for v, _ in values]))
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
    run.add_argument("--workers", type=int, default=1, help="process count, the calling one included")
    sub.add_parser("list-checks", help="list available identity checks")
    explain = sub.add_parser("explain", help="describe one check")
    explain.add_argument("check")
    return parser


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
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

    only = None
    if args.only:
        only = [n.strip() for n in args.only.split(",") if n.strip()]
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


if __name__ == "__main__":
    main()
