import os
import subprocess
import sys
from pathlib import Path

import pytest

import rcdirac
from rcdirac import fieldspec, geometry, harness
from rcdirac.cliffalg import GRADES, Multivector
from rcdirac.jets import ChartPoint, Jet2, seed_coordinate

# the scenarios the package ships, by name
BUNDLED = tuple(sorted(p.stem for p in (Path(rcdirac.__file__).parent / "scenarios").glob("*.scn")))

# Torsion with a non-vanishing trace: exercises the trace terms that totally
# antisymmetric torsion kills.  Only the identities valid for arbitrary
# metric-compatible torsion are checked on it.
GENERAL_TORSION_TEXT = """
[chart]
x0_min = 0.2
x0_max = 1.0
x1_min = 0.2
x1_max = 1.0
x2_min = 0.2
x2_max = 1.0
x3_min = 0.2
x3_max = 1.0
[tetrad]
e0_0 = "exp(0.15*x1)"
e1_1 = "1 + 0.3*x0^2"
e2_2 = "1 + 0.2*sin(x3)"
e3_3 = "1 + 0.25*x2"
[torsion]
T0_01 = "0.2*x2"
T1_12 = 0.15
T2_01 = "-0.1*sin(x1)"
T3_23 = "0.12*x0"
T0_12 = 0.07
[sampling]
seed = 9
points = 4
"""


def fresh_python(*argv: str, env=None, cwd=None) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter that imports rcdirac from this
    checkout (its ``src`` first on PYTHONPATH), with ``env`` laid over this
    process's environment; a variable given as None is unset."""
    merged = {**os.environ, **(env or {})}
    src = str(Path(rcdirac.__file__).resolve().parents[1])
    merged["PYTHONPATH"] = os.pathsep.join(filter(None, [src, merged.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env={k: v for k, v in merged.items() if v is not None},
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def load_bundled(name: str) -> fieldspec.Scenario:
    path = harness.resolve_scenario_path(name)
    return fieldspec.load_scenario_file(path)


def shard_children(shards: int) -> int:
    """The child processes a run of ``shards`` shards forks: none where
    shards do not fork (``harness.FORK_SHARDS``)."""
    return shards - 1 if harness.FORK_SHARDS else 0


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls this process makes during the test, one list
    entry per child forked; a run's shards still fork through it."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture(scope="session")
def scenarios():
    return {name: load_bundled(name) for name in BUNDLED}


@pytest.fixture(scope="session")
def general_torsion():
    return fieldspec.load_scenario(GENERAL_TORSION_TEXT)


@pytest.fixture(scope="session")
def frames(scenarios):
    """One frame geometry per bundled scenario, at a fixed interior point."""
    out = {}
    for name, sc in scenarios.items():
        pts = harness.sample_points(sc, points=2, seed=11)
        out[name] = [geometry.build_frame(sc, p) for p in pts]
    return out


def rand_scalar_jet(rng, p: ChartPoint) -> Jet2:
    """Random cubic polynomial as an order-2 jet at p."""
    xs = [seed_coordinate(mu, p) for mu in range(4)]
    acc = Jet2.const(float(rng.uniform(-1, 1)))
    mons = []
    for i in range(4):
        mons.append(xs[i])
        for j in range(i, 4):
            mons.append(xs[i] * xs[j])
            for k in range(j, 4):
                mons.append(xs[i] * xs[j] * xs[k])
    for m in mons:
        acc = acc + float(rng.uniform(-1, 1)) * m
    return acc


def rand_mv(rng, p: ChartPoint, grade=None, even=False) -> Multivector:
    coeffs = []
    for i in range(16):
        keep = (
            (grade is None and not even)
            or (grade is not None and GRADES[i] == grade)
            or (even and GRADES[i] % 2 == 0)
        )
        coeffs.append(rand_scalar_jet(rng, p) if keep else 0.0)
    return Multivector(coeffs)


def rand_float_mv(rng, grade=None) -> Multivector:
    coeffs = []
    for i in range(16):
        keep = grade is None or GRADES[i] == grade
        coeffs.append(float(rng.uniform(-1, 1)) if keep else 0.0)
    return Multivector(coeffs)


class FrameContext:
    """The part of a ``harness.BatchContext`` that a check reads: a given
    frame, its curvature, and given test fields by kind."""

    def __init__(self, geom, curv=None, **fields):
        self.geom = geom
        self._curv = curv
        self._fields = fields

    @property
    def curv(self):
        if self._curv is None:
            self._curv = geometry.curvature(self.geom)
        return self._curv

    def field(self, kind: str) -> Multivector:
        return self._fields[kind]


def check_residual(name: str, geom, curv=None, **fields):
    """The residual of the registered check ``name`` at each point of the
    frame, (P,), reduced from its pairs by the harness."""
    return harness.point_residuals(harness.CHECKS[name].fn(FrameContext(geom, curv, **fields)))
