"""The rcdirac benchmark: runs one workload and prints its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload suite_curved [--seed N] [--seconds S] [--trace 0|1]

Each run is one ``rcdirac.run_suite`` call in a fresh interpreter
(``worker.py``), the way a user of ``rcdirac run`` pays for it: one caller,
one run at a time (a closed loop).  ``--seed`` is passed through to the
engine; without it the scenario's own seed is used.

``--trace 0`` repeats the run for ``--seconds`` (at least three times) and
reports the medians of the end-to-end metrics named in BENCHMARK.json, its
times scaled to a fixed host speed by the reference loop (``reference.py``).
``--trace 1`` runs the workload untraced once, then twice with every engine
layer wrapped (``spantrace.py``), and reports the per-layer metrics, the
tracing overhead and the kernel micro-benchmarks.

Every run passes the correctness gate or the result says ``"correct":
false``: each selected check must PASS with a finite max and mean and no
per-point error, and all reports of one invocation must be byte-identical.
A negative-control scenario with generic torsion is run first; the gate must
flag exactly its torsion-antisymmetric checks, or the result is not correct.

The last line of standard output is the JSON result; a copy with the
environment record, every sample and the trace spans goes to
``.perfbench_out/``.  See perfbench/README.md for why each workload exists
and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from reference import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
BUDGET_S = 170.0
MIN_RUNS = 3

WORKLOADS = {
    "suite_curved": {"scenario": "curved_torsion", "points": 2, "workers": 1, "only": None},
    "suite_workers2": {"scenario": "curved_torsion", "points": 2, "workers": 2, "only": None},
}

# Checks that hold only for totally antisymmetric torsion: on the generic
# torsion of the negative control they must fail, and the gate must say so.
TORSION_ANTISYMMETRIC = [
    "cov-deriv-torsion", "dirac-torsion", "pair-expansion",
    "square-torsion-relation", "spin-standard-square", "s2-levi-civita",
]
NEGATIVE_CONTROL = {
    "scenario": str(HERE / "data" / "generic_torsion.scn"),
    "points": 1, "workers": 1, "seed": None,
    "only": ["metricity", "torsion-recovery"] + TORSION_ANTISYMMETRIC,
}


class BenchError(RuntimeError):
    """A run that could not be carried out (as opposed to a wrong result)."""


# -- environment ---------------------------------------------------------------


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_before": _loadavg(),
    }


# -- runs ------------------------------------------------------------------------


def run_worker(spec: dict, deadline: float) -> dict:
    """One run in a fresh interpreter; returns the worker's measurements."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before the run started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"run exceeded the time budget: {spec}") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"run failed with exit code {proc.returncode}: {spec}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def gate(checks: list[dict], expected: list[str]) -> dict[str, str]:
    """Checks that fail the correctness gate, with the reason.

    It does not trust the report's ``pass`` alone: a non-finite max or mean
    (a NaN at any point but the first is invisible to ``max``) or any
    per-point error fails the check too."""
    failed = {}
    names = [c["name"] for c in checks]
    if names != expected:
        failed["<selection>"] = f"report lists {names}, expected {expected}"
    for c in checks:
        if not c["pass"]:
            failed[c["name"]] = "FAIL"
        elif not all(isinstance(c[k], (int, float)) and math.isfinite(c[k]) for k in ("max", "mean")):
            failed[c["name"]] = f"non-finite residual max={c['max']} mean={c['mean']}"
        elif c["errors"]:
            failed[c["name"]] = f"{c['errors']} per-point error(s)"
    return failed


def negative_control(deadline: float) -> tuple[bool, str]:
    """The gate must flag exactly the torsion-antisymmetric checks."""
    out = run_worker({**NEGATIVE_CONTROL, "trace": False, "micro": False, "trace_dir": ""}, deadline)
    flagged = gate(out["checks"], NEGATIVE_CONTROL["only"])
    ok = sorted(flagged) == sorted(TORSION_ANTISYMMETRIC)
    return ok, f"gate flagged {sorted(flagged)}; expected {sorted(TORSION_ANTISYMMETRIC)}"


def selected_checks(config: dict) -> list[str]:
    """The checks a run selects; the full suite as ``rcdirac list-checks`` prints it."""
    if config["only"] is not None:
        return list(config["only"])
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import rcdirac

    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        rcdirac.cli_main(["list-checks"])
    return [line.split()[0] for line in listing.getvalue().splitlines() if line.strip()]


class Tally:
    """Gate verdicts and report digests over every run of one invocation."""

    def __init__(self, expected: list[str]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def add(self, label: str, out: dict) -> None:
        bad = gate(out["checks"], self.expected)
        self.attempted += len(self.expected)
        self.failed += len(self.expected) if "<selection>" in bad else len(bad)
        self.problems += [f"{label}: {name}: {why}" for name, why in bad.items()]
        self.digests.add(out["report_sha256"])

    def check_identical(self) -> None:
        if len(self.digests) > 1:
            self.problems.append(
                f"reports differ between runs with the same inputs ({len(self.digests)} digests)"
            )


def spec_for(config: dict, seed, trace: bool, micro: bool = False, trace_dir: str = "") -> dict:
    return {**config, "seed": seed, "trace": trace, "micro": micro, "trace_dir": trace_dir}


def reference_s(procs: int, deadline: float) -> float:
    """Mean time of the reference loop run on ``procs`` processes at once."""
    children = [
        subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(procs)
    ]
    try:
        outs = [c.communicate(timeout=max(deadline - time.monotonic(), 0.0)) for c in children]
    except subprocess.TimeoutExpired as err:
        raise BenchError("reference loop exceeded the time budget") from err
    finally:
        for c in children:
            if c.poll() is None:
                c.kill()
            c.wait()
    if any(c.returncode != 0 for c in children):
        raise BenchError(f"reference loop failed: {[err[-500:] for _, err in outs]}")
    return statistics.fmean(float(out) for out, _ in outs)


def measure(config: dict, seed, seconds: float, deadline: float, tally: Tally) -> tuple[dict, dict, list]:
    """Repeat the run for ``seconds``; returns (metrics, unscaled medians, samples).

    Each run is preceded by the reference loop on as many processes as the
    run uses; the reported times are medians of each run's time scaled by
    ``REF_S`` over that loop's time, so that a host whose cores slow down for
    minutes at a time (other tenants) moves them much less than the run
    itself.  The unscaled medians are kept in the record.

    A run is not started if one as long as the last would end past the
    window, so an invocation takes ``seconds`` plus its fixed overhead."""
    samples = []
    start = time.monotonic()
    last = 0.0
    while len(samples) < MIN_RUNS or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        ref = reference_s(config["workers"], deadline)
        out = run_worker(spec_for(config, seed, trace=False), deadline)
        last = time.monotonic() - began
        tally.add(f"run {len(samples) + 1}", out)
        samples.append({"ref_s": ref, **{k: out[k] for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb")}})
    raw = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    metrics = {k: statistics.median(s[k] * REF_S / s["ref_s"] for s in samples)
               for k in ("setup_s", "run_s", "cpu_s")}
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    metrics["pass_ratio"] = 1.0 - tally.failed / tally.attempted
    return metrics, raw, samples


def trace(name: str, config: dict, seed, deadline: float, tally: Tally) -> tuple[dict, dict, dict]:
    """Per-layer metrics; returns (metrics, missing, trace record).

    Parallel efficiency compares the untraced runs of both workloads at the
    workload's point count."""
    configs = {label: {**cfg, "points": config["points"]} for label, cfg in WORKLOADS.items()}
    untraced = {}
    for label, cfg in configs.items():
        untraced[label] = run_worker(spec_for(cfg, seed, trace=False), deadline)
        if label == name:
            tally.add(f"untraced {label}", untraced[label])

    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    traced = []
    try:
        for i in range(2):
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir(parents=True)
            out = run_worker(spec_for(config, seed, trace=True, micro=i == 0, trace_dir=str(tmp)), deadline)
            tally.add(f"traced run {i + 1}", out)
            traced.append(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    first, second = traced
    if first["counts"] != second["counts"]:
        diff = {k: (first["counts"].get(k), second["counts"].get(k))
                for k in set(first["counts"]) | set(second["counts"])
                if first["counts"].get(k) != second["counts"].get(k)}
        tally.problems.append(f"counts differ between two traced runs: {diff}")
    if "harness.point_s_p50" not in first["missing"] and first["points_traced"] != config["points"]:
        tally.problems.append(
            f"trace incomplete: {first['points_traced']} of {config['points']} points recorded"
        )

    metrics = dict(first["layers"])
    base = untraced[name]["run_s"]
    metrics["trace.overhead_s"] = first["run_s"] - base
    metrics["trace.overhead_ratio"] = first["run_s"] / base - 1.0
    metrics["harness.parallel_efficiency"] = untraced["suite_curved"]["run_s"] / (
        2.0 * untraced["suite_workers2"]["run_s"]
    )
    record = {
        "untraced_run_s": {k: v["run_s"] for k, v in untraced.items()},
        "traced_run_s": [t["run_s"] for t in traced],
        "counts": first["counts"],
        "spans": first["spans"],
    }
    return metrics, first["missing"], record


# -- output ---------------------------------------------------------------------


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, seed, seconds: float, traced: bool, points: int | None = None) -> dict:
    """Run one workload; returns the result object plus its record.

    ``points`` overrides the workload's point count (the smoke test uses 1)."""
    deadline = time.monotonic() + BUDGET_S
    config = dict(WORKLOADS[workload])
    if points is not None:
        config["points"] = points
    contract = load_contract()
    wanted = contract["per_layer" if traced else "end_to_end"]
    env = environment()
    tally = Tally(selected_checks(config))

    control_ok, control_detail = negative_control(deadline)
    if not control_ok:
        tally.problems.append(f"negative control: {control_detail}")

    record: dict = {"workload": workload, "config": config, "seed": seed, "env": env,
                    "negative_control": control_detail}
    if traced:
        produced, missing, record["trace"] = trace(workload, config, seed, deadline, tally)
    else:
        produced, record["raw_medians"], record["samples"] = measure(config, seed, seconds, deadline, tally)
        missing = {}
    tally.check_identical()
    env["loadavg_after"] = _loadavg()

    metrics = {}
    for m in wanted:
        if m["name"] in produced:
            metrics[m["name"]] = {"value": produced[m["name"]], "unit": m["unit"]}
        else:
            missing.setdefault(m["name"], "not produced by this run")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record.update(result=result, missing=missing, problems=tally.problems)
    return record


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="sampling/field seed (default: the scenario's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rcdirac" / "__init__.py").is_file():
        print(f"perfbench: no rcdirac source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    seed_tag = "default" if args.seed is None else args.seed
    out_path = OUT_DIR / f"{args.workload}-seed{seed_tag}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    result = record["result"]
    print(f"env: {json.dumps(record['env'])}")
    print(f"workload {args.workload}: {json.dumps(record['config'])} seed={seed_tag}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {_fmt(m['value']):>14s} {m['unit']}")
    for name, why in record["missing"].items():
        print(f"  {name:40s} {'missing':>14s} ({why})")
    if "raw_medians" in record:
        print(f"  unscaled medians: {json.dumps(record['raw_medians'])}")
    print(f"  failed_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    print(f"negative control: {record['negative_control']}")
    for problem in record["problems"]:
        print(f"GATE: {problem}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
