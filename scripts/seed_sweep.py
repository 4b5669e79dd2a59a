#!/usr/bin/env python3
"""Sweep sampling seeds on one scenario and report worst residual per seed;
exit 1 if any seed's report has a failing check.

Residuals should be seed-independent up to rounding noise: the identities
hold for arbitrary smooth fields, so fresh random fields and points must not
move the max residual by orders of magnitude.
"""

import argparse
import sys

from rcdirac import fieldspec, harness


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("scenario", nargs="?", default="curved_torsion")
    ap.add_argument("--seeds", type=int, default=8)
    ap.add_argument("--points", type=int, default=6)
    args = ap.parse_args()

    path = harness.resolve_scenario_path(args.scenario)
    scenario = fieldspec.load_scenario_file(path)
    worst_overall = None
    failed = False
    for seed in range(args.seeds):
        report = harness.run_suite(scenario, points=args.points, seed=seed)
        finite = [c for c in report.checks if c.max is not None]
        failing = sum(not c.passed for c in report.checks)
        line = f"seed {seed:3d}  worst n/a"
        if finite:
            culprit = max(finite, key=lambda c: c.max)
            line = f"seed {seed:3d}  worst {culprit.max:.3e}  ({culprit.name})"
            worst_overall = max(culprit.max, worst_overall or 0.0)
        print(line + (f"  {failing} failing" if failing else ""))
        failed = failed or failing > 0
    print("worst over all seeds: " + ("n/a" if worst_overall is None else f"{worst_overall:.3e}"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
