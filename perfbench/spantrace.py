"""Per-layer tracing of rcdirac from outside the package.

The tracer wraps public functions of the six engine modules (``fieldspec``,
``jets``, ``cliffalg``, ``geometry``, ``operators``, ``harness``) without
editing them.  Functions bound into other modules with ``from .x import f``
are replaced at every binding: wrapping only the defining module would miss
the calls that ``operators``, ``geometry`` and ``harness`` make through
their own names.

Coarse layer boundaries (a run, a point, a check, a frame, a curvature
build, a field evaluation, an expression evaluation, a scenario load) are
recorded as spans ``(id, name, start, end, parent)`` kept in memory.  Hot
kernels (Clifford products, scaling, jet multiplication, jet construction,
derivatives) only bump counters and, for products and scaling, add up time.

A target that a later refactor removes is reported in ``missing`` with a
reason, and the metrics built on it are left out instead of failing the run.

Pool workers forked by ``run_suite(workers > 1)`` inherit the wrappers.  Each
worker dumps what it recorded for one task to a JSON file in ``out_dir``; the
parent merges those files after the run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import time
from collections import Counter, defaultdict
from pathlib import Path

# The tracer whose wrappers are installed.  A pool worker pickles
# ``harness._eval_task`` by name, so the worker-side hook must be a
# module-level function, and it finds its tracer here.
_ACTIVE: "Tracer | None" = None

ENGINE_MODULES = ("fieldspec", "jets", "cliffalg", "geometry", "operators", "harness")

# (span name, module, attribute) for plain module functions.
SPAN_TARGETS = (
    ("harness.run_suite", "harness", "run_suite"),
    ("harness.sample_points", "harness", "sample_points"),
    ("harness.build_run_fields", "harness", "build_run_fields"),
    ("harness.evaluate_point", "harness", "evaluate_point"),
    ("geometry.build_frame", "geometry", "build_frame"),
    ("geometry.curvature", "geometry", "curvature"),
    ("fieldspec.eval_expr", "fieldspec", "eval_expr"),
    ("fieldspec.load_scenario_file", "fieldspec", "load_scenario_file"),
)

# (counter name, module, attribute) for functions that are only counted.
COUNT_TARGETS = (
    ("jets.partial", "jets", "partial"),
    ("geometry.torsion_two_forms", "geometry", "torsion_two_forms"),
    ("operators.pfaff", "operators", "pfaff"),
    ("operators.cov_deriv", "operators", "cov_deriv"),
    ("operators.spin_cov_deriv", "operators", "spin_cov_deriv"),
    ("operators.dirac", "operators", "dirac"),
)

PRODUCTS = ("geometric_product", "wedge", "left_contraction")


class Tracer:
    """Spans, counters and kernel times of one traced run; ``install`` wraps
    the engine, ``uninstall`` restores every binding it replaced."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self.result_bytes: list[int] = []
        self.missing: dict[str, str] = {}
        self._stack: list[str] = []
        self._next = 0
        self._in_check = 0
        self._dumps = 0
        self._undo: list = []
        self._modules: dict = {}
        self._orig_eval_task = None

    # -- recording -----------------------------------------------------

    def call_span(self, name, fn, args, kwargs):
        sid = f"{os.getpid()}:{self._next}"
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    # -- installation --------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _replace_everywhere(self, orig, wrapper):
        """Rebind ``orig`` to ``wrapper`` in every engine module that holds it."""
        for mod in self._modules.values():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, name, wrapper)

    def _lookup(self, group, mod_name, attr):
        mod = self._modules.get(mod_name)
        target = getattr(mod, attr, None) if mod is not None else None
        if target is None:
            self.missing[group] = f"rcdirac.{mod_name}.{attr} not found"
        return target

    def install(self, package) -> None:
        """Wrap the engine's functions; ``package`` is the imported rcdirac."""
        global _ACTIVE
        import importlib

        self._modules = {"rcdirac": package}
        for name in ENGINE_MODULES:
            try:
                self._modules[name] = importlib.import_module(f"rcdirac.{name}")
            except ImportError as err:
                self.missing[name] = f"module rcdirac.{name} not importable: {err}"

        for span_name, mod_name, attr in SPAN_TARGETS:
            orig = self._lookup(span_name, mod_name, attr)
            if orig is not None:
                self._replace_everywhere(orig, self._span_wrapper(span_name, orig))

        for counter, mod_name, attr in COUNT_TARGETS:
            orig = self._lookup(counter, mod_name, attr)
            if orig is not None:
                self._replace_everywhere(orig, self._count_wrapper(counter, orig))

        self._install_products()
        self._install_jets()
        self._install_harness()
        _ACTIVE = self

    def _install_products(self):
        cliffalg = self._modules.get("cliffalg")
        mv = getattr(cliffalg, "Multivector", None)
        is_numeric = getattr(mv, "is_numeric", None)
        if is_numeric is None:
            self.missing["cliffalg.product_float_operand"] = (
                "rcdirac.cliffalg.Multivector.is_numeric not found"
            )
        for attr in PRODUCTS:
            orig = self._lookup("cliffalg.product", "cliffalg", attr)
            if orig is not None:
                self._replace_everywhere(orig, self._product_wrapper(orig, is_numeric))
        scale = getattr(mv, "scale", None)
        if scale is None:
            self.missing["cliffalg.scale"] = "rcdirac.cliffalg.Multivector.scale not found"
        else:
            self._set(mv, "scale", self._timed_wrapper("cliffalg.scale", scale))

    def _install_jets(self):
        jet = getattr(self._modules.get("jets"), "Jet2", None)
        if jet is None:
            self.missing["jets.mul"] = self.missing["jets.objects"] = "rcdirac.jets.Jet2 not found"
            return
        counts = self.counts
        mul = jet.__mul__

        def jet_mul(a, b):
            counts["jets.mul"] += 1
            return mul(a, b)

        init = jet.__init__

        def jet_init(self_, *args, **kwargs):
            counts["jets.objects"] += 1
            init(self_, *args, **kwargs)

        self._set(jet, "__mul__", jet_mul)
        if jet.__dict__.get("__rmul__") is mul:
            self._set(jet, "__rmul__", jet_mul)
        self._set(jet, "__init__", jet_init)

    def _install_harness(self):
        harness = self._modules.get("harness")
        run_field = getattr(harness, "RunField", None)
        if run_field is None or not hasattr(run_field, "at"):
            self.missing["harness.field_eval"] = "rcdirac.harness.RunField.at not found"
        else:
            at = run_field.at

            def field_at(self_, point):
                self.counts["harness.field_evals"] += 1
                if self._in_check:
                    self.counts["harness.field_evals_used"] += 1
                return self.call_span("harness.field_eval", at, (self_, point), {})

            self._set(run_field, "at", field_at)

        checks = getattr(harness, "CHECKS", None)
        if not isinstance(checks, dict):
            self.missing["check"] = "rcdirac.harness.CHECKS registry not found"
        else:
            for name, desc in list(checks.items()):
                wrapped = dataclasses.replace(desc, fn=self._check_wrapper(name, desc.fn))
                self._undo.append((checks, name, desc))
                checks[name] = wrapped

        # without a pool task function there is no pool to follow; the
        # caller checks that every point was traced
        eval_task = getattr(harness, "_eval_task", None)
        if eval_task is not None:
            self._orig_eval_task = eval_task
            self._set(harness, "_eval_task", _pool_eval_task)

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, name, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._undo.clear()
        _ACTIVE = None

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, orig):
        if name == "harness.evaluate_point":
            def wrapper(*args, **kwargs):
                out = self.call_span(name, orig, args, kwargs)
                self.result_bytes.append(len(pickle.dumps((0, out))))
                return out
        else:
            def wrapper(*args, **kwargs):
                return self.call_span(name, orig, args, kwargs)
        return wrapper

    def _count_wrapper(self, name, orig):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _timed_wrapper(self, name, orig):
        counts, times = self.counts, self.times

        def wrapper(*args, **kwargs):
            counts[name] += 1
            start = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                times[name] += time.perf_counter() - start

        return wrapper

    def _product_wrapper(self, orig, is_numeric):
        counts, times = self.counts, self.times

        def wrapper(a, b):
            counts["cliffalg.product"] += 1
            if is_numeric is not None and (is_numeric(a) or is_numeric(b)):
                counts["cliffalg.product_float_operand"] += 1
            start = time.perf_counter()
            try:
                return orig(a, b)
            finally:
                times["cliffalg.product"] += time.perf_counter() - start

        return wrapper

    def _check_wrapper(self, name, fn):
        def wrapper(ctx):
            self._in_check += 1
            try:
                return self.call_span(f"check.{name}", fn, (ctx,), {})
            finally:
                self._in_check -= 1

        return wrapper

    # -- pool workers ------------------------------------------------------

    def _dump_task(self, args):
        """In a forked pool worker: run one task and write what it recorded."""
        # the wrappers hold these containers, so they are cleared in place
        for records in (self.spans, self.counts, self.times, self.result_bytes):
            records.clear()
        try:
            return self._orig_eval_task(args)
        finally:
            self._dumps += 1
            path = self.out_dir / f"child-{os.getpid()}-{self._dumps}.json"
            path.write_text(json.dumps(self.snapshot()))

    def snapshot(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "times": dict(self.times),
            "result_bytes": self.result_bytes,
        }

    def merge_children(self) -> None:
        """Fold the pool workers' dumps into this tracer."""
        for path in sorted(self.out_dir.glob("child-*.json")):
            data = json.loads(path.read_text())
            self.spans.extend(tuple(s) for s in data["spans"])
            self.counts.update(data["counts"])
            for k, v in data["times"].items():
                self.times[k] += v
            self.result_bytes.extend(data["result_bytes"])
            path.unlink()


def _pool_eval_task(args):
    tracer = _ACTIVE
    if os.getpid() == tracer.pid:
        return tracer._orig_eval_task(args)
    return tracer._dump_task(args)


# -- analysis ------------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[str, float]:
    """Span id -> duration minus the time its direct children cover."""
    children = defaultdict(list)
    for sid, _name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        out[sid] = (end - start) - _covered(clipped)
    return out
