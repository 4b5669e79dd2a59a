#!/usr/bin/env python3
"""Run the full identity suite on every bundled scenario and print reports.

Usage: run_bundled.py [--workers N] [--points N]

Stdout holds each scenario's header and report, and is the same at any
worker count; each scenario's wall time goes to stderr.
"""

import argparse
import sys
import time

from rcdirac import fieldspec, harness


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="at most N processes, the calling one included: "
        f"n = min(N, max(1, points // {harness.MIN_SHARD_POINTS})) shards",
    )
    ap.add_argument(
        "--points", type=int, default=None, metavar="N",
        help="sample N points in every scenario (default: each scenario's own count)",
    )
    args = ap.parse_args()

    failures = 0
    for name in harness.bundled_scenario_names():
        path = harness.resolve_scenario_path(name)
        scenario = fieldspec.load_scenario_file(path)
        t0 = time.perf_counter()
        report = harness.run_suite(scenario, points=args.points, workers=args.workers)
        dt = time.perf_counter() - t0
        print(f"=== {name} ({report.points} points, tol {report.tol:g})")
        sys.stdout.write(report.to_text())
        print(f"{name}: wall time {dt:.2f}s", file=sys.stderr)
        if not report.all_passed():
            failures += 1
    if failures:
        print(f"{failures} scenario(s) with failing checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
