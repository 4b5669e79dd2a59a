"""The batch path calls numpy's C entry points: ufunc ``.reduce`` and
ndarray ``.transpose``/``.swapaxes``, not numpy's Python wrappers, whose
per-call overhead is most of what a 2-point run costs."""

import os
import sys

import numpy as np

import rcdirac
from conftest import load_bundled
from rcdirac import harness

RCDIRAC = os.path.dirname(rcdirac.__file__)
NUMPY = os.path.dirname(np.__file__)
# numpy's Python reduction wrappers (ndarray methods and np.max, np.any, ...)
# and np.moveaxis, by function name, which numpy 1.x and 2.x share
WRAPPERS = frozenset((
    "moveaxis", "_amax", "_amin", "_all", "_any", "_prod", "_sum", "_wrapreduction", "_wrapreduction_any_all",
))


def _engine_caller(frame):
    """The first frame below ``frame`` outside numpy, if it is rcdirac's."""
    frame = frame.f_back
    while frame is not None and frame.f_code.co_filename.startswith(NUMPY):
        frame = frame.f_back
    return frame if frame is not None and frame.f_code.co_filename.startswith(RCDIRAC) else None


def test_a_run_enters_no_numpy_wrapper_and_permutes_axes_without_einsum(monkeypatch):
    scenario = load_bundled("curved_torsion")
    specs, entered, wrapped = [], [], []
    einsum = np.einsum

    def recording_einsum(spec, *operands, **kwargs):
        specs.append(spec)
        return einsum(spec, *operands, **kwargs)

    def profile(frame, event, arg):
        if event != "call" or not frame.f_code.co_filename.startswith(NUMPY):
            return
        caller = _engine_caller(frame)
        if caller is not None:
            entered.append(frame.f_code.co_name)
            if frame.f_code.co_name in WRAPPERS:
                where = f"{os.path.basename(caller.f_code.co_filename)}:{caller.f_lineno}"
                wrapped.append((frame.f_code.co_name, where))

    monkeypatch.setattr(np, "einsum", recording_einsum)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        report = harness.run_suite(scenario, points=2)
        report.to_json()
    finally:
        sys.setprofile(previous)

    assert report.all_passed() and entered and specs
    assert wrapped == []
    # an einsum that sums no index only permutes axes: a transpose does that
    for spec in specs:
        inputs, output = spec.split("->")
        assert set(inputs) - set(output) - set(".,"), spec
