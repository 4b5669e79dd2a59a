"""The metric signature as an oracle: the engine, copied with its one
``cliffalg.SIGNATURE`` line rewritten, must pass every check in the
signatures where the scenarios' identities hold.

In Euclidean signature (+,+,+,+) the flat and the curved diagonal tetrads
have no torsion, and the torsion that parallelizes R x S^3 is skew under
either metric, so every identity holds; the bundled torsion scenarios are
skew only under the Lorentzian metric.  Torsion that is skew under the
Euclidean metric but not co-closed fails exactly the two checks that need
co-closure.  Under (-,+,+,+) every bundled scenario stays valid, its
torsion skew under the negated metric too."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BUNDLED
from test_geometry import R_X_S3
import rcdirac

LORENTZIAN = "SIGNATURE = (1.0, -1.0, -1.0, -1.0)\n"
EUCLIDEAN = (1.0, 1.0, 1.0, 1.0)

# the curved_torsion tetrad with skew torsion that is not co-closed, its
# components T^c_ab signed to be skew under the Euclidean metric
EUCLIDEAN_SKEW = """
[tetrad]
e0_0 = "exp(0.15*x1)"
e1_1 = "1 + 0.3*x0^2"
e2_2 = "1 + 0.2*sin(x3)"
e3_3 = "1 + 0.25*x2"
[torsion]
T0_12 = "0.3*x1*x3"
T1_02 = "-0.3*x1*x3"
T2_01 = "0.3*x1*x3"
T0_13 = "0.2*sin(x2)"
T1_03 = "-0.2*sin(x2)"
T3_01 = "0.2*sin(x2)"
T0_23 = "0.25*x0*x1"
T2_03 = "-0.25*x0*x1"
T3_02 = "0.25*x0*x1"
T1_23 = "0.15*cos(x3)"
T2_13 = "-0.15*cos(x3)"
T3_12 = "0.15*cos(x3)"
"""
# tests-only scenarios, written to files of these names; the torsion that
# parallelizes R x S^3 is skew under either signature
SCENARIOS = {"r_x_s3": R_X_S3, "euclidean_skew": EUCLIDEAN_SKEW}

# prints, per scenario named on the command line, the engine's signature,
# the number of checks run and the names of those that failed
RUN = """\
import sys, rcdirac
for name in sys.argv[1:]:
    scenario = rcdirac.load_scenario_file(rcdirac.harness.resolve_scenario_path(name))
    report = rcdirac.run_suite(scenario, points=3)
    print(name, rcdirac.cliffalg.SIGNATURE, len(report.checks), [c.name for c in report.checks if not c.passed])
"""


def _run(signature, scenarios, tmp_path) -> list:
    """RUN's lines for the named scenarios, bundled or in SCENARIOS, on a
    copy of the package with the signature rewritten."""
    package = tmp_path / "rcdirac"
    shutil.copytree(Path(rcdirac.__file__).resolve().parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    source = package / "cliffalg.py"
    text = source.read_text()
    assert text.count(LORENTZIAN) == 1
    source.write_text(text.replace(LORENTZIAN, f"SIGNATURE = {signature!r}\n"))
    for name, scenario in SCENARIOS.items():
        (tmp_path / name).write_text(scenario)     # a path relative to cwd
    return subprocess.run(
        [sys.executable, "-c", RUN, *scenarios], env={**os.environ, "PYTHONPATH": str(tmp_path)},
        cwd=tmp_path, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()


@pytest.mark.parametrize("signature, scenarios", [
    (EUCLIDEAN, ["minkowski", "curved_diag", "r_x_s3"]),
    ((-1.0, 1.0, 1.0, 1.0), [*BUNDLED, "r_x_s3"]),
], ids=["euclidean", "negated-lorentzian"])
def test_other_signatures_pass_every_check(signature, scenarios, tmp_path):
    n = len(rcdirac.harness.CHECKS)
    assert _run(signature, scenarios, tmp_path) == [f"{name} {signature} {n} []" for name in scenarios]


def test_euclidean_skew_torsion_fails_only_the_co_closure_checks(tmp_path):
    n = len(rcdirac.harness.CHECKS)
    failed = ["ricci-antisymmetry", "lichnerowicz"]
    assert _run(EUCLIDEAN, ["euclidean_skew"], tmp_path) == [f"euclidean_skew {EUCLIDEAN} {n} {failed}"]
