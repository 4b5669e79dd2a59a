"""A fixed reference computation that gauges how fast the host runs right now.

Usage: python3 perfbench/reference.py      (prints the loop's time in seconds)

On a shared host the speed of a core changes by a third or more for minutes
at a time, as other tenants load the hardware it shares, and a run of the
engine slows with it.  ``run.py`` runs this loop just before each timed run,
on as many processes at once as the run uses, and scales the run's times by
``REF_S`` over the loop's time: seconds at a fixed host speed.

The loop is the engine's hot path in kind (order-2 jet products of packed
15-vectors, small numpy arrays driven from Python) but imports nothing from
rcdirac, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# The loop's median time on one process of the host the bounds were set on
# (2-core Intel Xeon, Python 3.11.7, numpy 2.4.6); it fixes the scale only.
REF_S = 0.18
ITERATIONS = 12000

# Packed-Hessian index pairs (0,0)(0,1)...(3,3) of an order-2 jet.
_I = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
_J = np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(15)
    av, bv = a[0], b[0]
    ag, bg = a[1:5], b[1:5]
    out[0] = av * bv
    out[1:5] = av * bg + bv * ag
    out[5:15] = av * b[5:15] + bv * a[5:15] + ag[_I] * bg[_J] + ag[_J] * bg[_I]
    return out


def loop_s(iterations: int = ITERATIONS) -> float:
    """Seconds taken by ``iterations`` jet multiply-adds."""
    xs = [np.random.default_rng(k).uniform(-1.0, 1.0, 15) for k in range(16)]
    kept = []
    start = time.perf_counter()
    for i in range(iterations):
        a, b = xs[i % 16], xs[(7 * i + 3) % 16]
        kept.append(_mul(a, b) * 0.5 + a)
        if len(kept) > 64:
            kept.clear()
    return time.perf_counter() - start


if __name__ == "__main__":
    loop_s(500)  # warm-up
    print(loop_s())
