"""Fuzzed scenarios.

Token-level mutations of the shipped scenarios: loading one raises nothing
but ``ScenarioError``, a loaded one runs at 2 points with nothing but
``ScenarioError`` raised and no Python warning, a check whose every point
errored is not a PASS, and a run's report is the same at 1 and 2 workers.

Well-formed expression trees drawn from the grammar, up to 3 levels past
``MAX_DEPTH``: printed with redundant parentheses and spaces, one within
the limit parses back to its tree and loads, and one past it is an error
at its line.

The examples are derandomized and their number fixed, so tier-1 runs the
same cases every time."""

import pickle
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from test_fieldspec import MINKOWSKI_TEXT, print_expr, tree_depth

from rcdirac import fieldspec as fs
from rcdirac import harness

ROOT = Path(__file__).parent.parent
CORPUS = tuple(
    sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "rcdirac" / "scenarios").glob("*.scn"))
    + sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests" / "data").glob("*.scn"))
    + ["perfbench/data/generic_torsion.scn"]
)
CURVED, GENERIC = "src/rcdirac/scenarios/curved_torsion.scn", "perfbench/data/generic_torsion.scn"
TEXTS = {name: (ROOT / name).read_text(encoding="utf-8") for name in CORPUS}

# whitespace runs, names, numbers and single characters: joined, the
# tokens of a file are the file
_TOKEN = re.compile(r"\s+|[A-Za-z_][A-Za-z0-9_.]*|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|.", re.ASCII)

# the two defect classes of overflowing literals and deep nesting: a long
# sum and a long run of minus signs that go before an atom, deep
# parentheses that stand for one, and a long sum as a quoted value
LONG_SUM = "x0+" * 3000
MINUSES = "-" * 3000
PARENS = "(" * 400 + "x0" + ")" * 400
QUOTED_SUM = '"' + "+".join(["x0"] * 3000) + '"'
# an exponent of more digits than int() converts
LONG_EXPONENT = "^" + "1" * 5000
PALETTE = (
    "1e400", '"1e400"', "1e308", "1e-400", "nan", "inf", "0", "-1", "x0", "x4", "sin(", "sqrt(", "(", ")", "^",
    "^-2", "-", "+", "*", "/", '"', "=", "#", "[", "]", "\n", " ", LONG_SUM, MINUSES, PARENS, QUOTED_SUM,
)

# an edit of the value of one assignment line, (kind, line, spot, token):
# an insertion, deletion or replacement at one of the value's tokens
edits = st.tuples(
    st.sampled_from(("insert", "delete", "replace")),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(PALETTE),
)


def _mutate(text: str, changes) -> str:
    lines = text.split("\n")
    assignments = [k for k, line in enumerate(lines) if "=" in line and not line.startswith("#")]
    for kind, n, at, token in changes:
        k = assignments[n % len(assignments)]
        tokens = _TOKEN.findall(lines[k])
        # the value's tokens but its spaces, and its end
        spots = [j for j in range(tokens.index("=") + 1, len(tokens)) if not tokens[j].isspace()]
        i = (spots + [len(tokens)])[at % (len(spots) + 1)]
        if kind == "insert":
            tokens.insert(i, token)
        elif i < len(tokens):
            tokens[i:i + 1] = [] if kind == "delete" else [token]
        lines[k] = "".join(tokens)
    return "\n".join(lines)


def test_tokens_rebuild_every_file():
    assert len(CORPUS) == 11
    for text in TEXTS.values():
        assert "".join(_TOKEN.findall(text)) == text


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CORPUS), st.lists(edits, min_size=1, max_size=2))
# each defect class once, whatever the draws: assignment line 12 of
# curved_torsion is T0_12 = "0.3*x1/(1 + 0.25*x2)", whose value tokens but
# spaces are '"', '0.3', '*', 'x1', '/', ...; line 13 of generic_torsion is
# T1_12 = 0.15
@example(CURVED, [("replace", 12, 1, "1e400")])
@example(CURVED, [("insert", 12, 1, LONG_SUM)])
@example(CURVED, [("insert", 12, 1, MINUSES)])
@example(CURVED, [("replace", 12, 3, PARENS)])
@example(GENERIC, [("replace", 13, 0, QUOTED_SUM)])
@example(CURVED, [("insert", 12, 4, LONG_EXPONENT)])
def test_mutated_scenarios_fail_only_as_scenario_errors(name, changes):
    text = _mutate(TEXTS[name], changes)
    try:
        scenario = fs.load_scenario(text)
    except fs.ScenarioError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = harness.run_suite(scenario, points=2)
        except fs.ScenarioError:
            return
    for check in report.checks:
        if len(check.errors) == 2:
            assert not check.passed, check.name


@settings(max_examples=12, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.sampled_from(CORPUS), st.lists(edits, min_size=1, max_size=2))
def test_mutated_scenarios_report_the_same_at_one_and_two_workers(name, changes):
    # 8 points are the fewest that fork a second worker (MIN_SHARD_POINTS)
    try:
        scenario = fs.load_scenario(_mutate(TEXTS[name], changes))
    except fs.ScenarioError:
        assume(False)
    reports = []
    for workers in (1, 2):
        try:
            reports.append(harness.run_suite(scenario, points=8, workers=workers).to_json())
        except fs.ScenarioError as err:
            reports.append(str(err))
    assert reports[0] == reports[1]


# -- well-formed trees ---------------------------------------------------------

# leaves: a constant is non-negative, as print_expr writes a negative one
# as a negation, and below 1e300, whose printed form "1e+300" marks the
# subtree that gets redundant parentheses
MARK = fs.Const(1e300)
leaves = st.one_of(st.builds(fs.Coord, st.integers(0, 3)), st.builds(fs.Const, st.floats(0.0, 1e6)))
small_trees = st.recursive(leaves, lambda kids: st.one_of(
    st.builds(fs.Neg, kids),
    st.builds(fs.BinOp, st.sampled_from("+-*/"), kids, kids),
    st.builds(fs.Pow, kids, st.integers(-3, 3)),
    st.builds(fs.Call, st.sampled_from(fs.FUNCTIONS), kids),
), max_leaves=6)


def _subtrees(e):
    """Every (path, subtree) of e, a path listing the child positions
    among a node's fields from the root."""
    out, todo = [], [((), e)]
    while todo:
        path, node = todo.pop()
        out.append((path, node))
        todo += [(path + (i,), v) for i, v in enumerate(node.__reduce__()[1]) if isinstance(v, fs.Expr)]
    return out


def _replace(e, path, new):
    """e with its subtree at path replaced by new."""
    if not path:
        return new
    cls, values = e.__reduce__()
    values = list(values)
    values[path[0]] = _replace(values[path[0]], path[1:], new)
    return cls(*values)


# the tokens of a printed tree, which ASCII spaces may separate
_PRINTED_TOKEN = re.compile(r"\d+(?:\.\d*)?(?:e[+-]?\d+)?|[a-z]\w*|\S", re.ASCII)


# a step that grows a tree one level: a minus sign (None), or a binary
# operator with a leaf on its left (True) or right side
steps = st.one_of(st.none(), st.tuples(st.sampled_from("+-*/"), leaves, st.booleans()))


@st.composite
def printed_trees(draw):
    """A tree up to MAX_DEPTH + 3 deep, and its text: a small tree grown to
    a drawn depth by a repeating pattern of steps, such as a left-deep sum
    or a run of minus signs, then printed with one subtree in up to 300
    more parentheses and with spaces between some tokens."""
    e = draw(small_trees)
    limit = fs.MAX_DEPTH
    target = draw(st.one_of(st.sampled_from((limit, limit + 1, limit + 3)), st.integers(1, limit + 3)))
    pattern = draw(st.lists(steps, min_size=1, max_size=3))
    for k in range(target - tree_depth(e)):
        step = pattern[k % len(pattern)]
        if step is None:
            e = fs.Neg(e)
        else:
            op, leaf, leaf_left = step
            e = fs.BinOp(op, leaf, e) if leaf_left else fs.BinOp(op, e, leaf)
    path, sub = draw(st.sampled_from(_subtrees(e)))
    parens = draw(st.integers(1, 300))
    text = print_expr(_replace(e, path, MARK)).replace(repr(MARK.value), "(" * parens + print_expr(sub) + ")" * parens)
    rng = draw(st.randoms(use_true_random=False))
    text = "".join(token + " " * rng.choice((0, 0, 1, 2)) for token in _PRINTED_TOKEN.findall(text))
    return e, text


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(printed_trees())
def test_printed_trees_parse_back_and_load_within_the_depth_limit(case):
    tree, text = case
    scenario_text = MINKOWSKI_TEXT + f'[torsion]\nT0_12 = "{text}"\n'
    if tree_depth(tree) > fs.MAX_DEPTH:
        with pytest.raises(fs.ScenarioError, match=f"^line 9: expression nested deeper than {fs.MAX_DEPTH} levels$"):
            fs.load_scenario(scenario_text)
        return
    assert fs.parse_expr(text) == tree
    e = fs.load_scenario(scenario_text).torsion[(0, 1, 2)]
    assert e == tree and hash(e) == hash(tree)
    assert pickle.loads(pickle.dumps(e)) == tree
    assert repr(e) == repr(tree)
