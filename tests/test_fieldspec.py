import dataclasses
import itertools
import math
import pickle
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import load_bundled
from reference_loops import ref_eval, ref_eval_exprs

from rcdirac import fieldspec as fs
from rcdirac import geometry, harness
from rcdirac.fieldspec import (
    BinOp,
    Call,
    Const,
    Coord,
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
    Neg,
    Pow,
    Sampling,
    ScenarioError,
    eval_expr,
    load_scenario,
    parse_expr,
)
from rcdirac.jets import ChartPoint

MINKOWSKI_TEXT = """
# flat frame
[tetrad]
e0_0 = 1
e1_1 = 1
e2_2 = 1
e3_3 = 1
"""


def test_parse_example_ast():
    e = parse_expr("x0^2 + sin(x1)")
    assert e == BinOp("+", Pow(Coord(0), 2), Call("sin", Coord(1)))


def test_expression_nodes_compare_hash_and_print_by_fields():
    # a zero compares equal to a negative zero, as the float fields do
    assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))
    # nodes of different types are unequal, even with equal fields
    assert Const(1.0) != Coord(1)
    assert Const(0.0) != Coord(0)
    assert Neg(Coord(0)) != Call("sin", Coord(0))
    e = parse_expr("x0^2 + sin(x1) - 3/x2")
    same = parse_expr("x0 ^ 2 + sin( x1 ) - 3 / x2")
    assert e == same and e is not same and hash(e) == hash(same)
    assert len({e, same, parse_expr("x0^2")}) == 2
    assert repr(BinOp("+", Coord(0), Const(2.0))) == (
        "BinOp(op='+', left=Coord(index=0), right=Const(value=2.0))"
    )
    assert repr(Pow(Coord(3), -2)) == "Pow(base=Coord(index=3), exponent=-2)"


def test_expression_nodes_pickle_and_are_read_only():
    e = parse_expr("exp(-x0*x1)^3 / (2 - x3)")
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and type(copy) is type(e)
    assert pickle.loads(pickle.dumps(Const(-0.0))).value.hex() == "-0x0.0p+0"
    node = Const(1.0)
    with pytest.raises(AttributeError):
        node.value = 2.0
    with pytest.raises(AttributeError):
        del node.value
    with pytest.raises(AttributeError):
        node.other = 0
    assert node == Const(1.0)
    with pytest.raises(TypeError):
        BinOp("+", Coord(0))


def test_parse_and_eval_example():
    e = parse_expr("2*(x2 - x3)")
    v = eval_expr(e, ChartPoint((0.0, 0.0, 5.0, 1.0)))
    assert v.value == 8.0


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("x0 +")
    assert exc.value.offset == 4
    assert "expected" in str(exc.value)


def test_overflowing_literal_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("x0 * 1e400")
    assert (exc.value.offset, exc.value.expected, exc.value.found) == (5, "a finite number", "'1e400'")
    assert parse_expr("1e-400") == Const(0.0)


def test_exponent_past_int_conversion_is_a_syntax_error():
    # 5000 digits are more than int() converts: an error at the exponent,
    # and one at its line when a scenario loads it
    digits = "1" * 5000
    for src, offset in (("x0^" + digits, 3), ("x0 ^ -" + digits, 6)):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(src)
        assert (exc.value.offset, exc.value.expected) == (offset, "an integer exponent")
    with pytest.raises(ScenarioError, match="^line 2: syntax error at offset 3: expected an integer exponent"):
        load_scenario(f'[tetrad]\ne0_0 = "x0^{digits}"\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n')


def test_unknown_identifier():
    with pytest.raises(ExprNameError) as exc:
        parse_expr("x0 + y1")
    assert exc.value.name == "y1"


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than *
    assert parse_expr("-x0^2") == Neg(Pow(Coord(0), 2))
    assert parse_expr("-x0*x1") == BinOp("*", Neg(Coord(0)), Coord(1))
    # left associativity
    assert parse_expr("x0 - x1 - x2") == BinOp(
        "-", BinOp("-", Coord(0), Coord(1)), Coord(2)
    )
    assert parse_expr("x0^2^3") == Pow(Pow(Coord(0), 2), 3)
    assert parse_expr("x0^-2") == Pow(Coord(0), -2)


def test_whitespace_insensitive():
    assert parse_expr("x0+x1 * x2") == parse_expr("  x0 + x1*x2 ")


def _random_expr(rng, depth):
    if depth == 0 or rng.uniform() < 0.3:
        if rng.uniform() < 0.5:
            return Coord(int(rng.integers(0, 4)))
        return Const(float(np.round(rng.uniform(0, 4), 3)))
    pick = rng.integers(0, 7)
    if pick <= 3:
        op = "+-*/"[pick]
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if pick == 4:
        return Neg(_random_expr(rng, depth - 1))
    if pick == 5:
        return Pow(_random_expr(rng, depth - 1), int(rng.integers(0, 4)))
    fn = ("sin", "cos", "exp", "sqrt")[rng.integers(0, 4)]
    return Call(fn, _random_expr(rng, depth - 1))


# printing, for the round-trip test: parenthesized only where the grammar needs it
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: fs.Expr) -> int:
    if isinstance(e, BinOp):
        return _LEVEL_ADD if e.op in "+-" else _LEVEL_MUL
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    if isinstance(e, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def print_expr(e: fs.Expr) -> str:
    if isinstance(e, Const):
        return repr(e.value) if e.value >= 0 else f"(-{repr(-e.value)})"
    if isinstance(e, Coord):
        return fs.COORD_NAMES[e.index]
    if isinstance(e, Call):
        return f"{e.fn}({print_expr(e.arg)})"
    if isinstance(e, Neg):
        inner = print_expr(e.arg)
        if _level(e.arg) < _LEVEL_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Pow):
        base = print_expr(e.base)
        if _level(e.base) < _LEVEL_POW:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, BinOp):
        lvl = _level(e)
        left = print_expr(e.left)
        right = print_expr(e.right)
        if _level(e.left) < lvl:
            left = f"({left})"
        # right operand at the same level must be parenthesized: the grammar
        # is left associative, so "a - b - c" rebuilds as "(a - b) - c".
        if _level(e.right) <= lvl:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")


def test_print_parse_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(500):
        e = _random_expr(rng, 4)
        assert parse_expr(print_expr(e)) == e


def _float_eval(e, x):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Coord):
        return x[e.index]
    if isinstance(e, Neg):
        return -_float_eval(e.arg, x)
    if isinstance(e, Pow):
        return _float_eval(e.base, x) ** e.exponent
    if isinstance(e, Call):
        return getattr(math, e.fn)(_float_eval(e.arg, x))
    a, b = _float_eval(e.left, x), _float_eval(e.right, x)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[e.op]


def test_eval_matches_finite_differences():
    rng = np.random.default_rng(7)
    # division-free random expressions on a safe box
    srcs = [
        "x0^2*x1 + sin(x2)*cos(x3)",
        "exp(0.3*x0 - 0.2*x3) + x1*x2^2",
        "sqrt(2 + x0*x1) - x2",
        "(x0 + x1)*(x2 - x3) + cos(x0*x2)",
        "1/(2 + x0^2) + x3",
    ]
    h = 1e-4
    for src in srcs:
        e = parse_expr(src)
        for _ in range(20):
            x = rng.uniform(0.1, 0.9, 4)
            j = eval_expr(e, ChartPoint(tuple(x)))
            assert j.value == pytest.approx(_float_eval(e, x), rel=1e-12)
            for mu in range(4):
                up = x.copy(); up[mu] += h
                dn = x.copy(); dn[mu] -= h
                fd = (_float_eval(e, up) - _float_eval(e, dn)) / (2 * h)
                assert abs(j.grad[mu] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_eval_examples():
    j = eval_expr(parse_expr("x0*x1"), ChartPoint((2.0, 3.0, 0.0, 0.0)))
    assert j.value == 6.0
    assert j.grad.tolist() == [3.0, 2.0, 0.0, 0.0]
    assert j.hess_at(0, 1) == 1.0
    j = eval_expr(parse_expr("sin(x1)"), ChartPoint((0.0, 0.0, 0.0, 0.0)))
    assert j.grad.tolist() == [0.0, 1.0, 0.0, 0.0]
    with pytest.raises(ExprDomainError):
        eval_expr(parse_expr("1/(x0-x0)"), ChartPoint((1.0, 0.0, 0.0, 0.0)))


def test_minkowski_scenario_defaults():
    sc = load_scenario(MINKOWSKI_TEXT)
    assert sc.torsion == {}
    assert sc.torsion_expr(2, 0, 1) == Const(0.0)
    assert sc.checks == ()
    assert sc.sampling == Sampling()
    assert sc.chart_box == tuple(((0.0, 1.0),) * 4)
    assert sc.tetrad[0][0] == Const(1.0)
    assert sc.tetrad[0][1] == Const(0.0)


def test_torsion_antisymmetric_completion():
    sc = load_scenario(MINKOWSKI_TEXT + "[torsion]\nT2_01 = 0.3\n")
    p = ChartPoint((0.0, 0.0, 0.0, 0.0))
    assert eval_expr(sc.torsion_expr(2, 0, 1), p).value == 0.3
    assert eval_expr(sc.torsion_expr(2, 1, 0), p).value == -0.3
    assert eval_expr(sc.torsion_expr(2, 1, 1), p).value == 0.0


def test_checks_section():
    # the entries in file order, with their lines; a run selects from them
    sc = load_scenario(MINKOWSKI_TEXT + "[checks]\nlichnerowicz = on\nbianchi = off\n")
    assert sc.checks == (("lichnerowicz", True, 9), ("bianchi", False, 10))
    assert harness.select_checks(sc) == ["lichnerowicz"]


def test_unknown_check_name_lists_valid():
    # the name loads; selecting the run's checks rejects it
    sc = load_scenario(MINKOWSKI_TEXT + "[checks]\nbogus = on\n")
    with pytest.raises(ScenarioError) as exc:
        harness.select_checks(sc)
    assert "lichnerowicz" in str(exc.value)


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError) as exc:
        load_scenario(MINKOWSKI_TEXT + "[sampling]\nseed = 1\nseed = 2\n")
    assert "duplicate" in str(exc.value)


def test_torsion_index_order_rejected():
    with pytest.raises(ScenarioError):
        load_scenario(MINKOWSKI_TEXT + "[torsion]\nT2_10 = 0.3\n")
    with pytest.raises(ScenarioError):
        load_scenario(MINKOWSKI_TEXT + "[torsion]\nT2_11 = 0.3\n")


def test_missing_tetrad_row():
    with pytest.raises(ScenarioError) as exc:
        load_scenario("[tetrad]\ne0_0 = 1\ne1_1 = 1\ne2_2 = 1\n")
    assert "row" in str(exc.value)


def test_unknown_section_and_keys():
    with pytest.raises(ScenarioError):
        load_scenario("[garbage]\nx = 1\n")
    with pytest.raises(ScenarioError):
        load_scenario(MINKOWSKI_TEXT + "[sampling]\nbogus = 1\n")
    with pytest.raises(ScenarioError):
        load_scenario("e0_0 = 1\n")  # entry before a section header


@pytest.mark.parametrize("entry, message", [
    ("seed = -1", "line 9: seed must be non-negative, got '-1'"),
    ("points = 0", "line 9: points must be at least 1, got '0'"),
    ("points = -5", "line 9: points must be at least 1, got '-5'"),
    ("points = 2.5", "line 9: points must be an integer, got '2.5'"),
])
def test_bad_sampling_value_names_line_and_key(entry, message):
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        load_scenario(MINKOWSKI_TEXT + f"[sampling]\n{entry}\n")


def test_sampling_section():
    sc = load_scenario(MINKOWSKI_TEXT + "[sampling]\nseed = 0\npoints = 1\ntol = 1e-6\n")
    assert sc.sampling == Sampling(seed=0, points=1, tol=1e-6)
    assert sc.sampling.points == 1 and sc.sampling.tol == 1e-6


def test_fields_section():
    sc = load_scenario(
        MINKOWSKI_TEXT
        + '[fields]\nf.scalar = "x0*x1"\nA.vector.1 = "sin(x0)"\nA.vector.4 = 2\n'
    )
    assert set(sc.fields) == {"scalar", "vector"}
    # f.scalar fills blade 0 of the scalar kind's 16 expressions
    assert sc.fields["scalar"] == (BinOp("*", Coord(0), Coord(1)),) + (Const(0.0),) * 15
    mv = sc.fields["vector"]
    assert mv[1] == Call("sin", Coord(0))
    assert mv[4] == Const(2.0)
    assert mv[0] == Const(0.0)


@pytest.mark.parametrize("first, second", [("A.vector.1", "A.vector.01"), ("A.general.0", "A.general.00")])
def test_field_component_set_twice_rejected(first, second):
    # two spellings of one blade index; an exact repeat is a duplicate key
    text = MINKOWSKI_TEXT + f'[fields]\n{first} = "x0"\n{second} = "x1"\n'
    with pytest.raises(ScenarioError, match=f"^line 10: '{second}' sets blade .* already set at line 9$"):
        load_scenario(text)


@pytest.mark.parametrize("section, entry", [
    ("torsion", "T0_12 = nan"),
    ("tetrad", "e0_1 = inf"),
    ("fields", "A.vector.1 = -Infinity"),
    ("fields", "f.scalar = 1e999"),
])
def test_non_finite_bare_number_rejected(section, entry):
    value = entry.partition("= ")[2]
    with pytest.raises(ScenarioError, match=f"^line 9: non-finite number '{value}'$"):
        load_scenario(MINKOWSKI_TEXT + f"[{section}]\n{entry}\n")


@pytest.mark.parametrize("section, entry", [
    ("torsion", "T0_12 = 1_0"),
    ("torsion", "T0_12 = \u0661\u0662"),              # Arabic-Indic digits
    ("torsion", 'T0_12 = "\u0661\u0662*x0"'),
    ("fields", "A.vector.\u0661 = 1"),
    ("sampling", "seed = \u0664"),
    ("sampling", "points = 1_0"),
    ("sampling", "tol = 1_0"),
    ("chart", "x0_max = 2_0"),
])
def test_number_outside_the_ascii_grammar_rejected(section, entry):
    # Python's float and int, and a Unicode \d, take these spellings; the
    # scenario grammar's numbers are ASCII decimal literals without "_"
    with pytest.raises(ScenarioError, match="^line 9: "):
        load_scenario(MINKOWSKI_TEXT + f"[{section}]\n{entry}\n")


@pytest.mark.parametrize("entries, message", [
    ("x1_min = 2", "line 9: empty chart interval x1: min 2.0 >= max 1.0"),
    ("x1_min = 2\nx1_max = 1.0", "line 10: empty chart interval x1: min 2.0 >= max 1.0"),
    ("x1_max = 1.0\nx1_min = 2", "line 10: empty chart interval x1: min 2.0 >= max 1.0"),
    ("x3_min = 0.5\nx3_max = 0.5", "line 10: empty chart interval x3: min 0.5 >= max 0.5"),
    ("x0_max = -1\nx2_min = 0.25", "line 9: empty chart interval x0: min 0.0 >= max -1.0"),
    ("x1_min = 0.2\nx1_max = 1.01e-320", "line 10: empty chart interval x1: min 0.2 >= max 1.01e-320"),
])
def test_empty_chart_interval_rejected(entries, message):
    # the error names the last line that sets a bound of the interval
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        load_scenario(MINKOWSKI_TEXT + f"[chart]\n{entries}\n")


def test_underflowing_bare_number_loads_as_zero():
    sc = load_scenario(MINKOWSKI_TEXT + "[torsion]\nT0_12 = 1e-400\n")
    assert sc.torsion[(0, 1, 2)] == Const(0.0)


@pytest.mark.parametrize("section, entry, offset, literal", [
    ("torsion", 'T0_12 = "1e400"', 0, "1e400"),
    ("tetrad", 'e0_1 = "1e400*0"', 0, "1e400"),
    ("fields", 'A.vector.1 = "1e400*x0"', 0, "1e400"),
    ("fields", 'f.scalar = "x0 + 2.5E+308"', 5, "2.5E+308"),
])
def test_overflowing_literal_in_an_expression_rejected(section, entry, offset, literal):
    # quoted as bare: a literal that reads as infinity is refused at its line
    message = f"line 9: syntax error at offset {offset}: expected a finite number, found '{literal}'"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        load_scenario(MINKOWSKI_TEXT + f"[{section}]\n{entry}\n")


def test_overflowing_arithmetic_and_underflowing_literals_load():
    # nothing is evaluated at load: an overflowing product fails per point,
    # and a literal that underflows is 0, as it is bare
    sc = load_scenario(MINKOWSKI_TEXT + '[torsion]\nT0_12 = "1e300*1e300"\nT0_13 = "1e-400 + x0"\n')
    assert sc.torsion[(0, 1, 2)] == BinOp("*", Const(1e300), Const(1e300))
    assert sc.torsion[(0, 1, 3)] == BinOp("+", Const(0.0), Coord(0))


def tree_depth(e: fs.Expr) -> int:
    """The number of nodes on the longest root-to-leaf path of the tree e,
    counted level by level, without recursion."""
    depth, level = 0, [e]
    while level:
        depth += 1
        level = [child for node in level for child in node.__reduce__()[1] if isinstance(child, fs.Expr)]
    return depth


def at_stack_depth(frames: int, fn):
    """fn() called with ``frames`` Python frames on the stack below it."""
    def down(n):
        return fn() if n == 0 else down(n - 1)

    below, frame = 0, sys._getframe()
    while frame is not None:
        below, frame = below + 1, frame.f_back
    return down(frames - below - 1)


TOO_DEEP = f"expression nested deeper than {fs.MAX_DEPTH} levels"


@pytest.mark.parametrize("expr", [
    "-" * 3000 + "x0",
    # parentheses build no node, and hide none
    "(" * 400 + "+".join(["x0"] * (fs.MAX_DEPTH + 1)) + ")" * 400,
    "+".join(["x0"] * 3000),
    "+".join(["x0"] * (fs.MAX_DEPTH + 1)),
    "-" * fs.MAX_DEPTH + "x0",
])
@pytest.mark.parametrize("key", ["T0_12", "A.vector.1"])
def test_deep_nesting_rejected_at_its_line(expr, key):
    section = "torsion" if key.startswith("T") else "fields"
    with pytest.raises(ScenarioError, match=f"^line 9: {TOO_DEEP}$"):
        load_scenario(MINKOWSKI_TEXT + f'[{section}]\n{key} = "{expr}"\n')
    with pytest.raises(fs.ExprDepthError, match=f"^{TOO_DEEP}$"):
        parse_expr(expr)


def test_parser_does_not_recurse():
    # nesting costs no Python frame: all three parse with 900 frames
    # below the parser, 100 short of the default recursion limit
    sum_at_limit = "+".join(["x0"] * fs.MAX_DEPTH)
    parens, minuses, total = at_stack_depth(900, lambda: (
        parse_expr("(" * 10_000 + "x1" + ")" * 10_000),
        parse_expr("-" * (fs.MAX_DEPTH - 1) + "x0"),
        parse_expr(sum_at_limit),
    ))
    assert parens == Coord(1)
    assert tree_depth(minuses) == tree_depth(total) == fs.MAX_DEPTH
    assert total == parse_expr(sum_at_limit)


def test_expression_at_the_depth_limit_loads_and_runs():
    # a left-deep sum of MAX_DEPTH terms is MAX_DEPTH nodes deep; every
    # operation on the scenario that holds it works 500 frames deep
    text = MINKOWSKI_TEXT + f'[torsion]\nT0_12 = "{"+".join(["x0"] * fs.MAX_DEPTH)}"\n'
    sc = load_scenario(text)
    e = sc.torsion[(0, 1, 2)]
    assert tree_depth(e) == fs.MAX_DEPTH

    def use():
        again = load_scenario(text)
        copy = pickle.loads(pickle.dumps(again))
        return again == sc, copy == sc, hash(again.torsion[(0, 1, 2)]) == hash(e), repr(again) == repr(sc)

    assert at_stack_depth(500, use) == (True, True, True, True)
    (c,) = harness.run_suite(sc, points=2, only=["torsion-recovery"]).checks
    assert c.passed and not c.errors


def test_scenario_determinism():
    text = MINKOWSKI_TEXT + "[sampling]\nseed = 5\n"
    assert load_scenario(text) == load_scenario(text)
    assert load_scenario(text).digest == load_scenario(text).digest


def test_crlf_and_comments():
    text = MINKOWSKI_TEXT.replace("\n", "\r\n") + "# trailing comment\r\n"
    sc = load_scenario(text)
    assert sc.tetrad[3][3] == Const(1.0)


def test_quoted_expression_with_hash():
    sc = load_scenario(MINKOWSKI_TEXT + '[fields]\nf.scalar = "x0 + 2"  # comment\n')
    assert sc.fields["scalar"][0] == BinOp("+", Coord(0), Const(2.0))


# -- compiled programs against the Jet2 tree walk -------------------------------

# leaves include a near-zero divisor, values that overflow products and
# powers, and infinity, which the parser refuses as a literal and a
# Program still compiles
_CONSTS = (0.0, 0.5, 1.0, 2.0, 3.0, 1e-13, 1e103, 1e200, 709.0, 800.0, math.inf)
_EXPONENTS = (-40, -3, -2, -1, 0, 1, 2, 3, 40)
_COORDS = st.floats(-3.0, 3.0) | st.sampled_from((0.0, 1e-7, 1.0, 300.0, -800.0))
_POINTS = st.builds(lambda x: ChartPoint(tuple(x)), st.lists(_COORDS, min_size=4, max_size=4))

_EXPRS = st.recursive(
    st.builds(Const, st.sampled_from(_CONSTS)) | st.builds(Coord, st.integers(0, 3)),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.sampled_from(_EXPONENTS)),
        st.builds(Call, st.sampled_from(fs.FUNCTIONS), sub),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
    ),
    max_leaves=12,
)


def _outcome(fn):
    """An evaluation's jets, or the type and message of its error."""
    try:
        return fn()
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)


def _assert_same(got, want):
    """Same error, or jets equal slot by slot with NaN and infinity at the
    same places (the sign of a zero may differ)."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, np.ndarray), got
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.all((got == want) | np.isnan(want))


def _walk_points(exprs, points):
    """The walk at each point in turn: the first failing point raises."""
    return np.stack([ref_eval_exprs(exprs, p) for p in points])


@settings(max_examples=400, deadline=None)
@given(st.lists(_EXPRS, min_size=1, max_size=4), st.lists(_POINTS, min_size=1, max_size=3))
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_program_matches_tree_walk(exprs, points):
    # a shared subtree, emitted once by the program
    exprs = exprs + [BinOp("*", exprs[0], exprs[-1])]
    program = fs.Program(exprs)
    for p in points:
        _assert_same(_outcome(lambda: program.evaluate([p])[0]), _outcome(lambda: ref_eval_exprs(exprs, p)))
    _assert_same(_outcome(lambda: program.evaluate(points)), _outcome(lambda: _walk_points(exprs, points)))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_constant_products_propagate_nan():
    # the walk's product with a constant jet turns a non-finite value or
    # gradient into NaN derivative slots
    # an infinite value at x2 = 1e300, an infinite gradient at x1 = 0
    p = ChartPoint((0.6, 0.0, 1e300, 0.0))
    for src in ("3*(x2*x2)", "(x2*x2)*0.5", "2*(1e200*x1*1e200)", "(1e200*x1*1e200)/4",
                "exp(700*x0)*exp(700*x0)*2"):
        e = parse_expr(src)
        got = fs.Program([e]).evaluate([p])[0, 0]
        want = ref_eval(e, p).data
        assert np.isnan(want).any(), src
        _assert_same(got, want)


def test_failing_constant_raises_per_point():
    pts = [ChartPoint((0.1, 0.2, 0.3, 0.4)), ChartPoint((0.5, 0.6, 0.7, 0.8))]
    for src in ("x1/0", "x1/(1 - 1)", "2/0", "x0 + sqrt(0 - 1)", "(2 - 2)^-1"):
        exprs = [parse_expr("x0 + 1"), parse_expr(src)]
        program = fs.Program(exprs)        # compiles: nothing is evaluated yet
        with pytest.raises(ExprDomainError) as exc:
            program.evaluate(pts)
        assert exc.value.point == pts[0]
        assert str(exc.value) == _outcome(lambda: ref_eval_exprs(exprs, pts[0]))[1]
    with pytest.raises(OverflowError) as exc:
        fs.Program([parse_expr("x0/1e200")]).evaluate(pts[1:])
    assert exc.value.point == pts[1]


def test_first_failing_point_raises():
    # the second point fails in the first expression, the first point only
    # in the last one: the first point's error is raised
    exprs = [parse_expr("1/(x0 - 0.5)"), parse_expr("sqrt(x1)")]
    pts = [ChartPoint((0.1, -1.0, 0.0, 0.0)), ChartPoint((0.5, 1.0, 0.0, 0.0))]
    with pytest.raises(ExprDomainError) as exc:
        fs.Program(exprs).evaluate(pts)
    assert exc.value.point == pts[0]
    assert "sqrt" in str(exc.value)


def test_bundled_frame_tables_match_tree_walk(scenarios):
    for name, sc in scenarios.items():
        tetrad = [e for row in sc.tetrad for e in row]
        torsion = [sc.torsion_expr(*cab) for cab in itertools.product(range(4), repeat=3)]
        for p in harness.sample_points(sc, points=3, seed=2):
            geom = geometry.build_frame(sc, p)
            assert np.array_equal(geom.tetrad[..., 0, :], ref_eval_exprs(tetrad, p).reshape(4, 4, -1)), name
            # the torsion table keeps the slots of CONN_ORDER (test_truncation.py)
            want = ref_eval_exprs(torsion, p).reshape(4, 4, 4, -1)[..., :geom.T.shape[-1]]
            assert np.array_equal(geom.T[..., 0, :], want), name


def _tree_nodes(e) -> int:
    return 1 + sum(_tree_nodes(c) for c in (getattr(e, a, None) for a in ("arg", "base", "left", "right")) if c is not None)


def test_frame_program_shares_subexpressions(scenarios):
    sc = scenarios["curved_torsion"]
    exprs = [e for row in sc.tetrad for e in row] + [sc.torsion_expr(*cab) for cab in fs.TORSION_UPPER]
    nodes = sum(_tree_nodes(e) for e in exprs if e != fs.ZERO_EXPR)
    assert nodes == 168
    assert len(sc.frame_program.ops) < nodes


def test_frame_program_is_built_once_per_scenario(monkeypatch):
    compiled = []

    class CountingProgram(fs.Program):
        def __init__(self, *groups):
            compiled.append(groups)
            super().__init__(*groups)

    monkeypatch.setattr(fs, "Program", CountingProgram)
    sc = load_bundled("curved_torsion")
    program = sc.frame_program
    assert len(compiled) == 1 and isinstance(program, CountingProgram)
    batches = []
    evaluate = program.stages
    monkeypatch.setattr(program, "stages", lambda points, failed: batches.append(len(points)) or evaluate(points, failed))
    pts = harness.sample_points(sc, points=3, seed=2)
    for p in pts:
        geometry.build_frame(sc, p)
    geometry.build_frame(sc, pts)
    assert batches == [1, 1, 1, 3]
    assert len(compiled) == 1 and sc.frame_program is program


def _frame_arrays(geom) -> dict:
    """Every array of a frame, by field name and key, as raw bytes."""
    out = {}
    for f in dataclasses.fields(geom):
        if f.compare and f.name != "points":
            value = getattr(geom, f.name)
            for key, x in (value.items() if isinstance(value, dict) else [(None, value)]):
                out[f.name, key] = getattr(x, "data", x).tobytes()
    return out


def test_program_is_not_compared_and_pickles_with_its_scenario(scenarios):
    sc = load_scenario(MINKOWSKI_TEXT)
    other = load_scenario(MINKOWSKI_TEXT)
    assert sc.frame_program is not other.frame_program
    assert sc == other
    sc = scenarios["curved_torsion"]
    copy = pickle.loads(pickle.dumps(sc))
    assert copy == sc and copy.digest == sc.digest
    pts = harness.sample_points(sc, points=3, seed=2)
    want = _frame_arrays(geometry.build_frame(sc, pts))
    assert _frame_arrays(geometry.build_frame(copy, pts)) == want
    assert len(want) > 13
