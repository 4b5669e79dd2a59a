"""The metric signature as an oracle: the engine, copied with its one
``cliffalg.SIGNATURE`` line rewritten, must pass every check in the
signatures where the scenarios' identities hold.

In Euclidean signature (+,+,+,+) the flat and the curved diagonal tetrads
have no torsion, so every identity holds; the torsion scenarios are skew
only under the Lorentzian metric.  Under (-,+,+,+) every bundled scenario
stays valid, its torsion skew under the negated metric too."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BUNDLED
import rcdirac

LORENTZIAN = "SIGNATURE = (1.0, -1.0, -1.0, -1.0)\n"

# prints, per scenario named on the command line, the engine's signature,
# the number of checks run and the names of those that failed
RUN = """\
import sys, rcdirac
for name in sys.argv[1:]:
    scenario = rcdirac.load_scenario_file(rcdirac.harness.resolve_scenario_path(name))
    report = rcdirac.run_suite(scenario, points=3)
    print(name, rcdirac.cliffalg.SIGNATURE, len(report.checks), [c.name for c in report.checks if not c.passed])
"""


@pytest.mark.parametrize("signature, scenarios", [
    ((1.0, 1.0, 1.0, 1.0), ["minkowski", "curved_diag"]),
    ((-1.0, 1.0, 1.0, 1.0), BUNDLED),
], ids=["euclidean", "negated-lorentzian"])
def test_other_signatures_pass_every_check(signature, scenarios, tmp_path):
    package = tmp_path / "rcdirac"
    shutil.copytree(Path(rcdirac.__file__).resolve().parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    source = package / "cliffalg.py"
    text = source.read_text()
    assert text.count(LORENTZIAN) == 1
    source.write_text(text.replace(LORENTZIAN, f"SIGNATURE = {signature!r}\n"))
    out = subprocess.run(
        [sys.executable, "-c", RUN, *scenarios], env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.splitlines() == [f"{name} {signature} {len(rcdirac.harness.CHECKS)} []" for name in scenarios]
