"""Point-batched shards: each point's results do not depend on the other
points evaluated with it in one batch."""

from pathlib import Path

import pytest

from conftest import BUNDLED, GENERAL_TORSION_TEXT, load_bundled
from test_harness import INF_TETRAD, OVERFLOW_TETRAD
from rcdirac import fieldspec as fs
from rcdirac import geometry
from rcdirac.harness import (
    BATCH_POINTS, CHECKS, BatchContext, build_run_fields, evaluate_point, run_suite, sample_points,
)


# tests-only scenarios whose frames fail at some or all of the points, and
# the errors they fail with
DATA = Path(__file__).parent / "data"
HOSTILE = {
    "overflow_torsion": {"NonFiniteFrameError"},
    "hessian_overflow_torsion": {"NonFiniteFrameError"},
    "sqrt_tetrad": {"ExprDomainError"},
    "mixed_frame_errors": {"ExprDomainError", "DegenerateFrameError", "NonFiniteFrameError"},
}


def _bits(result):
    """A check result with its float as exact bits; error tuples as they are."""
    return result if isinstance(result, tuple) else float(result).hex()


def _scenario(name):
    if name == "general_torsion":
        return fs.load_scenario(GENERAL_TORSION_TEXT), None
    if name == "overflow":
        return fs.load_scenario(OVERFLOW_TETRAD), 1
    if name == "non_finite_tetrad":
        return fs.load_scenario(INF_TETRAD), 0
    if name in HOSTILE:
        return fs.load_scenario_file(DATA / f"{name}.scn"), None
    return load_bundled(name), None


def _frame_fails(scenario, point) -> bool:
    try:
        geometry.build_frame(scenario, point)
    except (ArithmeticError, ValueError):
        return True
    return False


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("name", [*BUNDLED, "general_torsion", "overflow", "non_finite_tetrad", *HOSTILE])
def test_results_do_not_depend_on_the_batch(name):
    scenario, seed = _scenario(name)
    run_seed = scenario.sampling.seed if seed is None else seed
    # a tests-only scenario fills one batch, at steps that fail at some points
    pts = sample_points(scenario, points=BATCH_POINTS if name in HOSTILE else 5, seed=run_seed)
    bad = [p for p in pts if _frame_fails(scenario, p)]
    if name in ("overflow", "non_finite_tetrad"):
        # the points whose frames fail go in the middle of the batch
        assert 0 < len(bad) < len(pts) - 1
        good = [p for p in pts if p not in bad]
        pts = good[:1] + bad + good[1:]
    fields = build_run_fields(scenario, run_seed, pts)
    names = list(CHECKS)
    batch = BatchContext(scenario, fields, pts)
    batched = {p: evaluate_point(scenario, fields, names, p, batch) for p in pts}
    for p in pts:
        alone = evaluate_point(scenario, fields, names, p)
        for check in names:
            assert _bits(batched[p][check]) == _bits(alone[check]), (check, p)
    assert batch.points == tuple(p for p in pts if p not in bad)
    for p in bad:
        assert all(isinstance(r, tuple) for r in batched[p].values())
    if name in HOSTILE:
        assert {batched[p]["metricity"][1].split(":")[0] for p in bad} == HOSTILE[name]


@pytest.mark.parametrize("name", HOSTILE)
def test_a_batch_builds_its_frames_at_most_twice(monkeypatch, name):
    # once at all of its points and, if some fail, once at the others
    scenario = fs.load_scenario_file(DATA / f"{name}.scn")
    built = []
    build_frame = geometry.build_frame

    def counted(scenario, points):
        built.append(len(points))
        return build_frame(scenario, points)

    monkeypatch.setattr(geometry, "build_frame", counted)
    run_suite(scenario, points=3 * BATCH_POINTS, only=["metricity"])
    # each batch's first build is at all of its points
    starts = [k for k, n in enumerate(built) if n == BATCH_POINTS]
    assert len(starts) == 3
    assert all(end - start <= 2 for start, end in zip(starts, starts[1:] + [len(built)])), built
