#!/usr/bin/env python3
"""Expected reports: the JSON reports of a fixed set of runs, kept in
``tests/expected/``, against the reports the engine gives now.

Usage: expected.py [--write]

Without ``--write``, each case is run in-process through ``cli_main`` and
compared with its file; every difference is printed, and the exit code is 1
if there is any.  With ``--write``, the files are written from the engine
on ``PYTHONPATH``.  A change that moves residual digits rewrites the corpus,
and the diff of ``tests/expected/`` then lists the moved residuals.

A file holds the case's scenario and point count, the exit code, numpy's
version and the machine that made it, and the report.  Verdicts, exit
codes, error lines and exact zeros always compare exactly.  The residuals
(``max``, ``mean``) and the worst points compare exactly when numpy's
version and the machine are the recorded ones.  Elsewhere a residual may
differ by rounding, |a - b| <= ABS_TOL + REL_TOL |a|, and the worst point,
where rounding can break a near tie, is not compared.
"""

import argparse
import contextlib
import io
import json
import platform
import sys
import warnings
from pathlib import Path

import numpy as np

from rcdirac import harness

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_DIR = ROOT / "tests" / "expected"

# case name: (bundled scenario name or path from the repo root, points or
# None for the scenario's own count)
CASES = {
    "minkowski-p10": ("minkowski", 10),
    "flat_torsion-p10": ("flat_torsion", 10),
    "curved_diag-p10": ("curved_diag", 10),
    "curved_torsion-p10": ("curved_torsion", 10),
    # 33 points run as two batches, of 16 and 17 points
    "minkowski-p33": ("minkowski", 33),
    "flat_torsion-p33": ("flat_torsion", 33),
    "curved_diag-p33": ("curved_diag", 33),
    "curved_torsion-p33": ("curved_torsion", 33),
    "generic_torsion": ("perfbench/data/generic_torsion.scn", None),
    "curved_torsion-p100": ("curved_torsion", 100),
    # every tests/data scenario: reports with FAIL verdicts or per-point errors
    **{p.stem: (f"tests/data/{p.name}", None) for p in sorted((ROOT / "tests" / "data").glob("*.scn"))},
}

ABS_TOL = 1e-12
REL_TOL = 1e-9


def run_json(name: str, *extra: str) -> tuple[int, str]:
    """The exit code and the JSON report text of one case, run with the
    arguments ``extra`` appended, from the engine imported here; a warning
    is an error, so a case that warns fails."""
    scenario, points = CASES[name]
    arg = str(ROOT / scenario) if scenario.endswith(".scn") else scenario
    argv = ["run", arg, "--format", "json"] + ([] if points is None else ["--points", str(points)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = harness.cli_main(argv + list(extra))
    return code, out.getvalue()


def record(name: str, code: int, text: str) -> dict:
    """The record of one case from its exit code and JSON report text."""
    scenario, points = CASES[name]
    return {
        "scenario": scenario,
        "points": points,
        "numpy": np.__version__,
        "machine": platform.machine(),
        "exit": code,
        "report": json.loads(text),
    }


def path(name: str) -> Path:
    return EXPECTED_DIR / f"{name}.json"


def load(name: str) -> dict:
    return json.loads(path(name).read_text())


def _close(a, b) -> bool:
    return a is not None and b is not None and abs(a - b) <= ABS_TOL + REL_TOL * abs(a)


def differences(expected: dict, actual: dict) -> list[str]:
    """What differs between a recorded and a fresh record, one line each."""
    exact = (expected["numpy"], expected["machine"]) == (actual["numpy"], actual["machine"])
    out = []
    if expected["exit"] != actual["exit"]:
        out.append(f"exit code {actual['exit']}, expected {expected['exit']}")
    want, got = expected["report"], actual["report"]
    for key in ("scenario_digest", "seed", "points", "tol"):
        if want[key] != got[key]:
            out.append(f"{key} {got[key]!r}, expected {want[key]!r}")
    names = [c["name"] for c in want["checks"]]
    if [c["name"] for c in got["checks"]] != names:
        out.append(f"checks {[c['name'] for c in got['checks']]}, expected {names}")
        return out
    for w, g in zip(want["checks"], got["checks"]):
        for key in ("pass", "paper_anchor", "errors"):
            if w[key] != g[key]:
                out.append(f"{w['name']}: {key} {g[key]!r}, expected {w[key]!r}")
        keys = ("max", "mean", "worst_point") if exact else ("max", "mean")
        for key in keys:
            if w[key] == g[key]:
                continue
            if exact or w[key] == 0.0 or g[key] == 0.0 or not _close(w[key], g[key]):
                out.append(f"{w['name']}: {key} {g[key]!r}, expected {w[key]!r}")
        if not exact and (w["worst_point"] is None) != (g["worst_point"] is None):
            out.append(f"{w['name']}: worst_point {g['worst_point']!r}, expected {w['worst_point']!r}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help="write the corpus from the current engine")
    args = ap.parse_args()
    failed = 0
    for name in CASES:
        fresh = record(name, *run_json(name))
        if args.write:
            EXPECTED_DIR.mkdir(parents=True, exist_ok=True)
            path(name).write_text(json.dumps(fresh, indent=1) + "\n")
            print(f"wrote {path(name).relative_to(ROOT)}")
            continue
        diffs = differences(load(name), fresh)
        print(f"{name}: {'ok' if not diffs else f'{len(diffs)} difference(s)'}")
        for line in diffs:
            print(f"  {line}")
        failed += bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
