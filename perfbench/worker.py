"""One rcdirac run in a fresh interpreter, as a user of ``rcdirac run`` pays it.

Usage: python3 perfbench/worker.py '<json spec>'   (with src/ on PYTHONPATH)

The spec names the scenario (bundled name or file path), point count, seed
(null for the scenario's own), ``only`` check list (null for the full
suite), worker count, whether to trace, whether to run the kernel
micro-benchmarks, and the directory for trace files.  The last line of
standard output is a JSON object with the run's measurements and the
per-check verdicts that ``run.py`` gates on.

Set-up is timed from before ``import rcdirac`` to the loaded scenario.  The
run is timed around ``rcdirac.run_suite`` plus the report's JSON rendering,
and goes only through that public surface; the traced variant additionally
wraps the engine's functions (see ``spantrace``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import resource
import statistics
import sys
import time
from collections import defaultdict


MICRO = ("jets.mul_us", "cliffalg.geometric_product_us", "cliffalg.scale_us", "operators.pfaff_us")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (Linux: KiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _resolve(name: str):
    if os.path.isfile(name):
        return name
    from importlib import resources

    return resources.files("rcdirac") / "scenarios" / f"{name}.scn"


def _check_summary(report, text: str) -> list[dict]:
    """Per-check verdicts from the JSON report, with the per-point error
    count that only the report object carries today."""
    parsed = json.loads(text)["checks"]
    out = []
    for obj, check in zip(parsed, report.checks):
        errors = len(obj.get("errors") or getattr(check, "errors", None) or ())
        out.append({
            "name": obj["name"],
            "pass": obj["pass"],
            "max": obj["max"],
            "mean": obj["mean"],
            "errors": errors,
        })
    return out


def _quantile(sorted_values, q: float) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def layer_metrics(tracer, check_names, checks, task_bytes) -> tuple[dict, dict]:
    """Per-layer metrics from one traced run; returns (metrics, missing)."""
    from spantrace import self_times

    metrics: dict[str, float] = {}
    missing: dict[str, str] = {}
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span[1]].append(span)
    self_s = self_times(tracer.spans)
    counts, times = tracer.counts, tracer.times

    def total(name):
        return sum(end - start for _, _, start, end, _ in by_name[name])

    def put(name, groups, fn):
        reasons = [tracer.missing[g] for g in groups if g in tracer.missing]
        if reasons:
            missing[name] = "; ".join(reasons)
        else:
            metrics[name] = fn()

    point_s = sorted(end - start for _, _, start, end, _ in by_name["harness.evaluate_point"])
    evals = counts["harness.field_evals"]

    put("harness.sample_s", ["harness.sample_points"], lambda: total("harness.sample_points"))
    put("harness.fields_build_s", ["harness.build_run_fields"], lambda: total("harness.build_run_fields"))
    put("harness.field_evals", ["harness.field_eval"], lambda: evals)
    put("harness.field_evals_used_ratio", ["harness.field_eval", "check"],
        lambda: counts["harness.field_evals_used"] / evals if evals else 0.0)
    put("harness.point_s_p50", ["harness.evaluate_point"], lambda: _quantile(point_s, 0.5))
    put("harness.point_s_p90", ["harness.evaluate_point"], lambda: _quantile(point_s, 0.9))
    put("harness.self_s", ["harness.run_suite"],
        lambda: sum(self_s[s[0]] for s in by_name["harness.run_suite"]))
    if task_bytes is None:
        missing["harness.task_bytes"] = "rcdirac.harness.build_run_fields not usable"
    else:
        metrics["harness.task_bytes"] = task_bytes
    put("harness.result_bytes", ["harness.evaluate_point"],
        lambda: statistics.fmean(tracer.result_bytes))
    metrics["harness.worst_residual"] = max(c["max"] for c in checks if c["max"] is not None)

    put("fieldspec.load_s", ["fieldspec.load_scenario_file"],
        lambda: total("fieldspec.load_scenario_file"))
    put("fieldspec.eval_expr_calls", ["fieldspec.eval_expr"], lambda: len(by_name["fieldspec.eval_expr"]))
    put("fieldspec.eval_expr_s", ["fieldspec.eval_expr"], lambda: total("fieldspec.eval_expr"))

    put("geometry.build_frame_calls", ["geometry.build_frame"], lambda: len(by_name["geometry.build_frame"]))
    put("geometry.build_frame_s", ["geometry.build_frame"], lambda: total("geometry.build_frame"))
    put("geometry.curvature_calls", ["geometry.curvature"], lambda: len(by_name["geometry.curvature"]))
    put("geometry.curvature_s", ["geometry.curvature"], lambda: total("geometry.curvature"))
    put("geometry.torsion_two_forms_calls", ["geometry.torsion_two_forms"],
        lambda: counts["geometry.torsion_two_forms"])

    for op in ("pfaff", "cov_deriv", "spin_cov_deriv", "dirac"):
        put(f"operators.{op}_calls", [f"operators.{op}"], lambda op=op: counts[f"operators.{op}"])

    # A check's own time: its span minus the shared per-point state it
    # built lazily (frame, curvature, field evaluations), which the
    # geometry and harness metrics report.  Checks not selected took 0 s.
    check_total = 0.0
    for name in check_names:
        value = sum((self_s[s[0]] for s in by_name[f"check.{name}"]), 0.0)
        check_total += value
        put(f"check.{name}_s", ["check"], lambda value=value: value)
    put("check.total_s", ["check"], lambda: check_total)

    put("cliffalg.product_calls", ["cliffalg.product"], lambda: counts["cliffalg.product"])
    put("cliffalg.product_float_operand_calls",
        ["cliffalg.product", "cliffalg.product_float_operand"],
        lambda: counts["cliffalg.product_float_operand"])
    put("cliffalg.product_s", ["cliffalg.product"], lambda: times["cliffalg.product"])
    put("cliffalg.scale_calls", ["cliffalg.scale"], lambda: counts["cliffalg.scale"])
    put("cliffalg.scale_s", ["cliffalg.scale"], lambda: times["cliffalg.scale"])

    put("jets.mul_calls", ["jets.mul"], lambda: counts["jets.mul"])
    put("jets.objects", ["jets.objects"], lambda: counts["jets.objects"])
    put("jets.partial_calls", ["jets.partial"], lambda: counts["jets.partial"])
    return metrics, missing


def _task_bytes(scenario, names, points, seed) -> float | None:
    """Mean pickled size of the per-point task a pool worker receives."""
    from rcdirac import harness

    try:
        pts = harness.sample_points(scenario, points, seed)
        run_seed = scenario.sampling.seed if seed is None else seed
        fields = harness.build_run_fields(scenario, run_seed, pts)
    except (AttributeError, TypeError):
        return None
    return statistics.fmean(
        len(pickle.dumps((scenario, fields, names, i, p))) for i, p in enumerate(pts)
    )


def _per_call_us(fn, batch_s: float = 0.04, batches: int = 7) -> float:
    """Median time of one call over several batches, in microseconds."""
    fn()
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= batch_s:
            break
        n *= 2
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples) * 1e6


def micro_benchmarks(scenario, seed) -> tuple[dict, dict]:
    """Kernel timings on dense jets at the run's first sample point."""
    import numpy as np

    import rcdirac

    run_seed = scenario.sampling.seed if seed is None else seed
    try:
        point = rcdirac.sample_points(scenario, 1, run_seed)[0]
        rng = np.random.default_rng([run_seed, 0xBE7C])
        xs = [rcdirac.seed_coordinate(mu, point) for mu in range(4)]

        def quadratic():
            # nonzero value, gradient and Hessian
            c = rng.uniform(-1.0, 1.0, 15)
            acc = xs[0] * c[1] + xs[1] * c[2] + xs[2] * c[3] + xs[3] * c[4] + float(c[0])
            k = 5
            for i in range(4):
                for j in range(i, 4):
                    acc = acc + xs[i] * xs[j] * float(c[k])
                    k += 1
            return acc

        A = rcdirac.Multivector([quadratic() for _ in range(16)])
        B = rcdirac.Multivector([quadratic() for _ in range(16)])
        geom = rcdirac.build_frame(scenario, point)
    except (AttributeError, TypeError) as err:
        reason = f"inputs not buildable: {type(err).__name__}: {err}"
        return {}, {name: reason for name in MICRO}

    probes = {
        "jets.mul_us": lambda: A.coeffs[1] * B.coeffs[2],
        "cliffalg.geometric_product_us": lambda: rcdirac.geometric_product(A, B),
        "cliffalg.scale_us": lambda: A.scale(0.5),
        "operators.pfaff_us": lambda: rcdirac.operators.pfaff(geom, A, 1),
    }
    metrics, missing = {}, {}
    for name in MICRO:
        try:
            metrics[name] = _per_call_us(probes[name])
        except (AttributeError, TypeError) as err:
            missing[name] = f"{type(err).__name__}: {err}"
    return metrics, missing


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    import rcdirac

    path = _resolve(spec["scenario"])
    scenario = rcdirac.load_scenario_file(path)
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        import spantrace

        tracer = spantrace.Tracer(spec["trace_dir"])
        tracer.install(rcdirac)
        rcdirac.load_scenario_file(path)  # a traced load, for fieldspec.load_s

    cpu0 = _cpu_s()
    start = time.perf_counter()
    report = rcdirac.run_suite(
        scenario,
        points=spec["points"],
        seed=spec["seed"],
        only=spec["only"],
        workers=spec["workers"],
    )
    text = report.to_json()
    run_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0

    checks = _check_summary(report, text)
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "checks": checks,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.merge_children()
        out["points_traced"] = sum(1 for s in tracer.spans if s[1] == "harness.evaluate_point")
        from rcdirac import harness

        names = [c["name"] for c in checks]
        task_bytes = _task_bytes(scenario, names, spec["points"], spec["seed"])
        metrics, missing = layer_metrics(
            tracer, list(getattr(harness, "CHECKS", ())), checks, task_bytes
        )
        out["layers"] = metrics
        out["missing"] = missing
        out["counts"] = dict(tracer.counts)
        out["spans"] = tracer.spans
    if spec["micro"]:
        metrics, missing = micro_benchmarks(scenario, spec["seed"])
        out.setdefault("layers", {}).update(metrics)
        out.setdefault("missing", {}).update(missing)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
