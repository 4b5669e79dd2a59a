"""Frame-based Clifford-bundle calculus on Riemann-Cartan geometries.

The engine builds the unique metric-compatible connection from a tetrad and
a torsion table, implements the standard, torsionful and spin Dirac
operators over order-2 jet arithmetic, and verifies their first- and
second-order identities (through the generalized Lichnerowicz formula) as
numerical residuals on sampled chart points.
"""

import os
import sys

# The engine's parallel work runs in forked shards, and none of its BLAS
# calls is large enough for OpenBLAS's thread pool, whose workers cost
# start-up time.  Unless numpy is already imported or the user chose a
# thread count, numpy is imported with one BLAS thread; the variable is
# then removed, so that subprocesses see the user's environment.
_BLAS_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in sys.modules and not _BLAS_THREAD_VARS & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .cliffalg import (
    Multivector,
    geometric_product,
    grade_involution,
    grade_project,
    hodge_dual,
    left_contraction,
    wedge,
)
from .fieldspec import Scenario, load_scenario, load_scenario_file, parse_expr
from .geometry import CurvatureData, FrameGeometry, build_frame, curvature
from .harness import ResidualReport, cli_main, run_suite, sample_points
from .jets import ChartPoint, Jet2, seed_coordinate

__all__ = [
    "ChartPoint",
    "CurvatureData",
    "FrameGeometry",
    "Jet2",
    "Multivector",
    "ResidualReport",
    "Scenario",
    "build_frame",
    "cli_main",
    "curvature",
    "geometric_product",
    "grade_involution",
    "grade_project",
    "hodge_dual",
    "left_contraction",
    "load_scenario",
    "load_scenario_file",
    "parse_expr",
    "run_suite",
    "sample_points",
    "seed_coordinate",
    "wedge",
]
