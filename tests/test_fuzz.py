"""Token-level mutations of the shipped scenarios: loading one raises
nothing but ``ScenarioError``, a loaded one runs at 2 points with nothing
but ``ScenarioError`` raised and no Python warning, and a check whose every
point errored is not a PASS.

The examples are derandomized and their number fixed, so tier-1 runs the
same mutations every time."""

import re
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    assert len(CORPUS) == 10
    for text in TEXTS.values():
        assert "".join(_TOKEN.findall(text)) == text


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CORPUS), st.lists(edits, min_size=1, max_size=2))
# each defect class once, whatever the draws: assignment line 12 of
# curved_torsion is T0_12 = "0.3*x1/(1 + 0.25*x2)", whose value tokens but
# spaces are '"', '0.3', '*', 'x1', ...; line 13 of generic_torsion is
# T1_12 = 0.15
@example(CURVED, [("replace", 12, 1, "1e400")])
@example(CURVED, [("insert", 12, 1, LONG_SUM)])
@example(CURVED, [("insert", 12, 1, MINUSES)])
@example(CURVED, [("replace", 12, 3, PARENS)])
@example(GENERIC, [("replace", 13, 0, QUOTED_SUM)])
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
