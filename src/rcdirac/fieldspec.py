"""Scenario configuration: a tiny expression language plus a line-oriented
scenario file format.

Expression grammar (whitespace-insensitive, left associative)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' integer)*          # integer exponent, may be signed
    atom   := number | x0..x3 | fn '(' expr ')' | '(' expr ')'
    fn     := sin | cos | exp | sqrt

``parse_expr`` reads an expression in one loop, without recursion, into a
tree of at most ``MAX_DEPTH`` (100) nodes on any root-to-leaf path, the
leaf counted; parentheses build no node, so they nest at no cost.

Scenario files are UTF-8, LF or CRLF, one assignment per line, ``#`` starts
a comment.  Sections and keys::

    [chart]     x<k>_min = <number>, x<k>_max = <number>   (defaults 0..1)
    [tetrad]    e<a>_<mu> = "expr" | number    (coframe components theta^a_mu;
                every row a must appear; unset entries in a row are 0)
    [torsion]   T<c>_<a><b> = "expr" | number  (frame components, a < b;
                the a > b half is implied by antisymmetry; unset entries 0)
    [fields]    f.scalar = "expr"              (the scalar test field)
                A.<kind>.<idx> = "expr"        (component idx 0..15, in blade
                order, of a grade that kind in FIELD_KINDS fills; unset
                components 0); any other name is an error
    [checks]    <check-name> = on | off        (the on entries if any, else
                every check not set off; default: the full suite)
    [sampling]  seed = int >= 0, points = int >= 1, tol = float >= 0

Evaluation: groups of expressions compile into a ``Program``, a flat list
of jet operations over a point axis (see "evaluation" below); a
``Scenario`` compiles its frame's Program once, when it is built, into
``frame_program``.  Its jets are those of a ``Jet2`` walk of each tree, bit
for bit up to the sign of a zero, and a point fails with the walk's first
error there: ``stages`` records every failing point in one pass.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import jets
from .cliffalg import GRADES
from .jets import ChartPoint, Jet2, JetDomainError

COORD_NAMES = ("x0", "x1", "x2", "x3")
FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class ExprSyntaxError(ValueError):
    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected {expected}, found {found}"
        )


class ExprNameError(ValueError):
    def __init__(self, offset: int, name: str):
        self.offset = offset
        self.name = name
        super().__init__(
            f"unknown identifier {name!r} at offset {offset} "
            f"(coordinates are x0..x3; functions are {', '.join(FUNCTIONS)})"
        )


class ExprDomainError(ValueError):
    def __init__(self, point: ChartPoint, detail: str):
        self.point = point
        super().__init__(f"domain error at point {point.x}: {detail}")


class ExprDepthError(ValueError):
    def __init__(self):
        super().__init__(f"expression nested deeper than {MAX_DEPTH} levels")


class ScenarioError(ValueError):
    """Malformed scenario file."""


# -- AST ----------------------------------------------------------------


class _Node:
    """An immutable expression node.  A subclass names its fields in
    ``__slots__`` and sets them in ``__init__`` with ``_set``; a node equals
    a node of the same type with equal fields, and hashes, prints and
    pickles by its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: expression nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: expression nodes are immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


# sets a field of a new node past the node's read-only __setattr__
_set = object.__setattr__


class Const(_Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class Coord(_Node):
    __slots__ = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)


class Neg(_Node):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)


class BinOp(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Pow(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class Call(_Node):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        _set(self, "fn", fn)
        _set(self, "arg", arg)


Expr = Const | Coord | Neg | BinOp | Pow | Call


# -- tokenizer / parser ---------------------------------------------------

# Every pattern is ASCII: a Unicode digit or space is none of the grammar's.
# A bare value may also spell nan or infinity, for its caller to reject.
_NUMBER = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<num>{_NUMBER})|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),]))", re.ASCII
)
_BARE_NUMBER_RE = re.compile(rf"[+-]?(?:{_NUMBER}|nan|inf|infinity)", re.ASCII | re.IGNORECASE)

# the deepest expression tree, in nodes on its longest root-to-leaf path,
# the leaf counted.  Each operation on a tree recurses once per level, and
# the Python frames of one level are: repr 4, == 3, hash and pickle 2, and
# ``Program._compile`` 1 (CPython 3.11).  So at 100 levels every one of
# them needs at most 400 frames, within the default recursion limit of
# 1000 even for a caller already 500 frames deep.  The deepest expression
# of a shipped scenario is 6 levels.
MAX_DEPTH = 100


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip(" \t\n\r\f\v")     # the ASCII \s
            if not stripped:
                break
            off = len(src) - len(stripped)
            raise ExprSyntaxError(off, "a token", repr(src[off]))
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


# the binding strength of an operator waiting on the operator stack: unary
# minus (``Neg``) binds tighter than * and /, which bind tighter than + and
# -; an open parenthesis or a function name (0) waits for its ")"
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, Neg: 3}


def parse_expr(src: str) -> Expr:
    """The tree of the expression src, at most ``MAX_DEPTH`` nodes deep.

    One operator-precedence loop over the tokens (Dijkstra's shunting
    yard), without recursion.  ``operands`` holds the trees built so far
    with their depths; ``operators`` holds the unary minus signs, binary
    operators, open parentheses and function names that wait for an
    operand.  When an operand is complete, the next token applies every
    waiting operator that binds at least as tightly as it does; "^" binds
    tightest and applies to the operand before it at once.  A node is built
    where a recursive-descent parser of the grammar would build it, and one
    more than ``MAX_DEPTH`` deep raises ``ExprDepthError``; parentheses
    build no node."""
    tokens = _tokenize(src)
    operands = []       # (node, depth)
    operators = []      # Neg, a binary operator, "(" or a function name
    k, want_operand = 0, True

    def fail(expected: str):
        kind, text, off = tokens[k]
        raise ExprSyntaxError(off, expected, "end of input" if kind == "end" else repr(text))

    def build(node, *depths):
        depth = 1 + max(depths, default=0)
        if depth > MAX_DEPTH:
            raise ExprDepthError()
        operands.append((node, depth))

    while True:
        kind, text, off = tokens[k]
        if want_operand:
            if text in ("-", "("):
                operators.append(Neg if text == "-" else "(")
            elif kind == "num":
                value = float(text)
                if math.isinf(value):
                    fail("a finite number")
                build(Const(value))
                want_operand = False
            elif text in COORD_NAMES:
                build(Coord(COORD_NAMES.index(text)))
                want_operand = False
            elif text in FUNCTIONS:
                k += 1
                if tokens[k][1] != "(":
                    fail("'('")
                operators.append(text)
            elif kind == "name":
                raise ExprNameError(off, text)
            else:
                fail("a number, coordinate, function or '('")
        elif text == "^":
            k, sign = k + 1, 1
            if tokens[k][1] == "-":
                k, sign = k + 1, -1
            kind, digits, _ = tokens[k]
            if kind != "num" or not digits.isdigit():
                fail("an integer exponent")
            try:
                exponent = sign * int(digits)
            except ValueError:      # more digits than int() converts
                fail("an integer exponent")
            base, depth = operands.pop()
            build(Pow(base, exponent), depth)
        else:
            # the operand before this token is complete
            while operators and _BINDING.get(operators[-1], 0) >= _BINDING.get(text, 1):
                op = operators.pop()
                right, depth = operands.pop()
                if op is Neg:
                    build(Neg(right), depth)
                else:
                    left, left_depth = operands.pop()
                    build(BinOp(op, left, right), left_depth, depth)
            if text in _BINDING:
                operators.append(text)
                want_operand = True
            elif text == ")" and operators:
                bracket = operators.pop()
                if bracket != "(":
                    arg, depth = operands.pop()
                    build(Call(bracket, arg), depth)
            elif operators:
                fail("')'")
            elif kind != "end":
                fail("an operator or end of input")
            else:
                return operands.pop()[0]
        k += 1


# -- evaluation ------------------------------------------------------------
#
# Expressions compile once into a ``Program``: a straight-line list of jet
# operations on registers, each a slot-major (15, P) array of the jets at
# P points (the layout of ``jets.mul_packed``); an operation is
# ``kernel(registers, operand, argument, failed)`` (see ``_factors``).
# Registers 0-3 hold the coordinates; operation k writes register 4 + k.
# The operations follow the depth-first order of the trees, an identical
# subtree is emitted once, and a constant operand of * and / is applied as
# a scalar; one of + and - is a constant register, emitted once per value.
# While compiling, an operand is a register index (int) or the value of a
# constant leaf (float).  Nothing is evaluated at compile time, so a
# failing constant such as ``1/0`` fails per point.


def _neg(r, i, *_):
    return -r[i]


def _add(r, i, j, *_):
    return r[i] + r[j]


def _sub(r, i, j, *_):
    return r[i] - r[j]


def _mul(r, i, j, *_):
    return jets.mul_packed(r[i], r[j])


def _mul_const(r, i, c, *_):
    return jets.mul_const(r[i], c)


def _div_const(r, i, c, failed):
    # the reciprocal of a constant jet is the constant jet of 1/c
    return jets.mul_const(r[i], _factors(jets.recip_factors, [c] * r[i].shape[1], failed)[0])


def _const(r, _, c, *__):
    out = np.zeros(r[0].shape)
    out[0] = c
    return out


def _elementary(r, i, factors, failed):
    return jets.compose(r[i], *_factors(factors, r[i][0].tolist(), failed))


def _factors(factors, values, failed):
    """Rows (3, P) of ``factors(v)`` at each point's value v: NaN at a point
    in ``failed``, and at a point whose call fails, which enters it."""
    rows = []
    for k, v in enumerate(values):
        try:
            rows.append(_NAN3 if k in failed else factors(v))
        except _FAILURES as err:
            failed[k] = err
            rows.append(_NAN3)
    return np.array(rows).T


# kernels of the binary operators by operand kinds; a quotient by a
# register is a product with its reciprocal
_REG_REG = {"+": _add, "-": _sub, "*": _mul}
_REG_CONST = {"*": _mul_const, "/": _div_const}

# the errors an operation can raise: domain, overflow and math domain errors
_FAILURES = (ArithmeticError, ValueError)
_NAN3 = (math.nan,) * 3

_MU = np.arange(jets.NVARS)


def _is_plus_zero(a) -> bool:
    return isinstance(a, float) and a == 0.0 and math.copysign(1.0, a) > 0


class Program:
    """Groups of expressions compiled into one jet program (see above);
    ``stages`` evaluates it group by group at a list of points."""

    def __init__(self, *groups):
        self.ops = []              # (kernel, register, argument)
        self._numbers = {}         # (kernel, register, key) -> register
        self._groups = []          # (end of its ops, (output, register), size)
        for exprs in groups:
            outs = [self._compile(e) for e in exprs]
            nonzero = [(k, self._register(o)) for k, o in enumerate(outs) if not _is_plus_zero(o)]
            self._groups.append((len(self.ops), nonzero, len(exprs)))

    def _emit(self, kernel, i, arg, key=None) -> int:
        if key is None:
            # a constant's key tells 0.0 from -0.0: both reach value slots
            key = (arg, math.copysign(1.0, arg)) if isinstance(arg, float) else arg
        key = (kernel, i, key)
        reg = self._numbers.get(key)
        if reg is None:
            reg = self._numbers[key] = jets.NVARS + len(self.ops)
            self.ops.append((kernel, i, arg))
        return reg

    def _register(self, a) -> int:
        return self._emit(_const, 0, a) if isinstance(a, float) else a

    def _compile(self, e: Expr):
        if isinstance(e, Const):
            return float(e.value)
        if isinstance(e, Coord):
            return e.index
        if isinstance(e, Neg):
            a = self._compile(e.arg)
            return -a if isinstance(a, float) else self._emit(_neg, a, None)
        if isinstance(e, Pow):
            a = self._compile(e.base)
            if e.exponent == 0:
                return 1.0
            factors = functools.partial(jets.pow_factors, n=e.exponent)
            return self._emit(_elementary, self._register(a), factors, key=("^", e.exponent))
        if isinstance(e, Call):
            return self._emit(_elementary, self._register(self._compile(e.arg)), jets.FACTORS[e.fn])
        if isinstance(e, BinOp):
            left, right = self._compile(e.left), self._compile(e.right)
            op = e.op
            if op in "+-":
                left, right = self._register(left), self._register(right)
            elif isinstance(left, float) and isinstance(right, float):
                left = self._register(left)
            if op == "/" and not isinstance(right, float):
                right, op = self._emit(_elementary, right, jets.FACTORS["recip"]), "*"
            if isinstance(right, float):
                return self._emit(_REG_CONST[op], left, right)
            if isinstance(left, float):
                return self._emit(_mul_const, right, left)
            return self._emit(_REG_REG[op], left, right)
        raise TypeError(f"not an expression node: {e!r}")

    def stages(self, points, failed: dict):
        """Yield the jets (P, n, 15) of each group's n expressions at the P
        points, one group at a time.

        A point fails at its first failing operation in depth-first order:
        that error, the one the point gets alone, goes in ``failed`` under
        the point's index unless one is there already, naming the point as
        ``point``, a ``JetDomainError`` as ``ExprDomainError``.  A failed
        point's jets are NaN."""
        x = np.array([p.x for p in points])
        seeds = np.zeros((jets.NVARS, jets.JET_LEN, len(x)))
        seeds[:, 0] = x.T
        seeds[_MU, _MU + 1] = 1.0
        regs = list(seeds)
        errors = {}     # each point's first error of an operation
        start = 0
        for stop, outputs, n in self._groups:
            for kernel, i, arg in self.ops[start:stop]:
                regs.append(kernel(regs, i, arg, errors))
            start = stop
            for k, err in errors.items():
                if k not in failed:
                    failed[k] = ExprDomainError(points[k], str(err)) if isinstance(err, JetDomainError) else err
                    failed[k].point = points[k]
            out = np.zeros((len(x), n, jets.JET_LEN))
            for k, reg in outputs:
                out[:, k] = regs[reg].T
            out[list(failed)] = np.nan
            yield out

    def evaluate(self, points) -> np.ndarray:
        """Jets (P, n, 15) of all n expressions at the P points; the first
        failing point, if any, raises its error (see ``stages``)."""
        failed = {}
        out = np.concatenate(list(self.stages(points, failed)), axis=1)
        if failed:
            raise failed[min(failed)]
        return out


def eval_expr(e: Expr, p: ChartPoint) -> Jet2:
    """Order-2 jet of the expression at p; division/sqrt guard the domain."""
    return Jet2(Program([e]).evaluate([p])[0, 0])


# -- scenario ---------------------------------------------------------------

ZERO_EXPR = Const(0.0)


class Sampling(NamedTuple):
    """The [sampling] section: the run's seed, point count and tolerance."""

    seed: int = 0
    points: int = 20
    tol: float = 1e-8


# the reserved test-field names, f.scalar and A.<kind>, and the grades the
# field of each kind fills
FIELD_KINDS = {
    "scalar": (0,),
    "vector": (1,),
    "bivector": (2,),
    "even": (0, 2, 4),
    "general": (0, 1, 2, 3, 4),
    "general2": (0, 1, 2, 3, 4),
    "current": (1,),
}

# the torsion entries T^c_ab a frame evaluates, a < b
TORSION_UPPER = [(c, a, b) for c in range(4) for a in range(4) for b in range(a + 1, 4)]


@dataclass
class Scenario:
    """Parsed, validated scenario configuration."""

    chart_box: tuple[tuple[float, float], ...]
    tetrad: tuple[tuple[Expr, ...], ...]          # theta^a_mu, rows a
    torsion: dict[tuple[int, int, int], Expr]     # (c, a, b) with a < b
    fields: dict[str, tuple[Expr, ...]]           # pinned kind: 16 blade expressions
    checks: tuple[tuple[str, bool, int], ...] = ()  # [checks] as (name, on, line); see harness.select_checks
    sampling: Sampling = Sampling()
    digest: str = field(default="", compare=False)
    # the Program of a frame's two stages: the tetrad entries theta^a_mu,
    # row by row, then the torsion entries ``TORSION_UPPER``
    frame_program: Program = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.frame_program = Program(
            [e for row in self.tetrad for e in row],
            [self.torsion_expr(c, a, b) for c, a, b in TORSION_UPPER],
        )

    def torsion_expr(self, c: int, a: int, b: int) -> Expr:
        """T^c_{ab} with the antisymmetric completion applied."""
        if a == b:
            return ZERO_EXPR
        if a < b:
            return self.torsion.get((c, a, b), ZERO_EXPR)
        e = self.torsion.get((c, b, a), ZERO_EXPR)
        return ZERO_EXPR if e == ZERO_EXPR else Neg(e)


_SECTION_RE = re.compile(r"^\[([a-z]+)\]$", re.ASCII)
_TETRAD_KEY = re.compile(r"^e([0-3])_([0-3])$", re.ASCII)
_TORSION_KEY = re.compile(r"^T([0-3])_([0-3])([0-3])$", re.ASCII)
_SCALAR_KEY = re.compile(r"^f\.([A-Za-z_][A-Za-z0-9_]*)$", re.ASCII)
_MV_KEY = re.compile(r"^A\.([A-Za-z_][A-Za-z0-9_]*)\.(\d{1,2})$", re.ASCII)
_CHART_KEY = re.compile(r"^x([0-3])_(min|max)$", re.ASCII)
_NAME_KEY = re.compile(r"^[A-Za-z0-9_-]+$", re.ASCII)

_SECTIONS = ("chart", "tetrad", "torsion", "fields", "checks", "sampling")


def _strip_comment(line: str) -> str:
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def _parse_number(text: str, lineno: int) -> float:
    """A bare value: a signed number token of the grammar, or nan or
    infinity; any other spelling that ``float`` takes is an error."""
    if not _BARE_NUMBER_RE.fullmatch(text):
        raise ScenarioError(f"line {lineno}: expected a number, got {text!r}")
    return float(text)


def _parse_integer(key: str, text: str, lineno: int) -> int:
    """A number with an integer value, such as ``20`` or ``1e3``; integer
    digits are read exactly, beyond the 53 bits of a float."""
    number = _parse_number(text, lineno)
    try:
        return int(text)
    except ValueError:
        pass
    if not (math.isfinite(number) and number.is_integer()):
        raise ScenarioError(f"line {lineno}: {key} must be an integer, got {text!r}")
    return int(number)


def _parse_value_expr(value: str, lineno: int) -> Expr:
    """Quoted string -> parsed expression, at most ``MAX_DEPTH`` nodes deep;
    bare number -> constant, which must be finite (the expression grammar
    has no spelling of nan or inf).  A syntax, name or depth error is a
    ``ScenarioError`` naming the line."""
    if value.startswith('"'):
        if not (len(value) >= 2 and value.endswith('"')):
            raise ScenarioError(f"line {lineno}: unterminated string")
        try:
            e = parse_expr(value[1:-1])
        except (ExprSyntaxError, ExprNameError, ExprDepthError) as err:
            raise ScenarioError(f"line {lineno}: {err}") from err
        return e
    number = _parse_number(value, lineno)
    if not math.isfinite(number):
        raise ScenarioError(f"line {lineno}: non-finite number {value!r}")
    return Const(number)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file's contents; the check names of
    [checks] are validated when a run selects its checks
    (``harness.select_checks``)."""
    sections: dict[str, dict[str, tuple[str, int]]] = {s: {} for s in _SECTIONS}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _SECTIONS:
                raise ScenarioError(
                    f"line {lineno}: unknown section [{name}]; "
                    f"valid sections: {', '.join(_SECTIONS)}"
                )
            current = name
            continue
        if current is None:
            raise ScenarioError(f"line {lineno}: entry before any [section] header")
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        if key in sections[current]:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, lineno)

    box = _load_chart(sections["chart"])
    tetrad = _load_tetrad(sections["tetrad"])
    torsion = _load_torsion(sections["torsion"])
    fields = _load_fields(sections["fields"])
    checks = _load_checks(sections["checks"])
    sampling = _load_sampling(sections["sampling"])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return Scenario(
        chart_box=box,
        tetrad=tetrad,
        torsion=torsion,
        fields=fields,
        checks=checks,
        sampling=sampling,
        digest=digest,
    )


def load_scenario_file(path) -> Scenario:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # utf-8-sig drops a leading byte-order mark, which some editors write
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        raise ScenarioError(f"{path}: not valid UTF-8 ({err})") from err
    return load_scenario(text)


def _load_chart(entries) -> tuple[tuple[float, float], ...]:
    bounds = [[0.0, 1.0] for _ in range(4)]
    lines = [0] * 4     # the last line that sets a bound of each interval
    for key, (value, lineno) in entries.items():
        m = _CHART_KEY.match(key)
        if not m:
            raise ScenarioError(
                f"line {lineno}: bad [chart] key {key!r} (use x<k>_min / x<k>_max)"
            )
        k, side = int(m.group(1)), m.group(2)
        v = _parse_number(value, lineno)
        if not math.isfinite(v):
            raise ScenarioError(f"line {lineno}: non-finite chart bound")
        bounds[k][0 if side == "min" else 1] = v
        lines[k] = lineno
    for k, (lo, hi) in enumerate(bounds):
        if not lo < hi:
            raise ScenarioError(f"line {lines[k]}: empty chart interval x{k}: min {lo!r} >= max {hi!r}")
        if not math.isfinite(hi - lo):
            raise ScenarioError(f"line {lines[k]}: chart interval x{k} too wide: max - min overflows")
    return tuple((lo, hi) for lo, hi in bounds)


def _load_tetrad(entries) -> tuple[tuple[Expr, ...], ...]:
    if not entries:
        raise ScenarioError("missing [tetrad] section entries (all four rows required)")
    rows: list[list[Expr]] = [[ZERO_EXPR] * 4 for _ in range(4)]
    seen_rows = set()
    for key, (value, lineno) in entries.items():
        m = _TETRAD_KEY.match(key)
        if not m:
            raise ScenarioError(f"line {lineno}: bad [tetrad] key {key!r} (use e<a>_<mu>)")
        a, mu = int(m.group(1)), int(m.group(2))
        rows[a][mu] = _parse_value_expr(value, lineno)
        seen_rows.add(a)
    missing = sorted(set(range(4)) - seen_rows)
    if missing:
        raise ScenarioError(f"tetrad row missing for a = {missing}")
    return tuple(tuple(r) for r in rows)


def _load_torsion(entries) -> dict[tuple[int, int, int], Expr]:
    torsion = {}
    for key, (value, lineno) in entries.items():
        m = _TORSION_KEY.match(key)
        if not m:
            raise ScenarioError(
                f"line {lineno}: bad [torsion] key {key!r} (use T<c>_<a><b>)"
            )
        c, a, b = (int(m.group(g)) for g in (1, 2, 3))
        if a >= b:
            raise ScenarioError(
                f"line {lineno}: torsion key {key!r} needs a < b "
                "(the other half is implied by antisymmetry)"
            )
        torsion[(c, a, b)] = _parse_value_expr(value, lineno)
    return torsion


def _load_fields(entries) -> dict[str, tuple[Expr, ...]]:
    parts: dict[str, dict[int, Expr]] = {}
    lines: dict[tuple[str, int], int] = {}     # (kind, blade) -> the line that set it
    for key, (value, lineno) in entries.items():
        m = _SCALAR_KEY.match(key) or _MV_KEY.match(key)
        if not m:
            raise ScenarioError(
                f"line {lineno}: bad [fields] key {key!r} (use f.scalar or A.<kind>.<idx>)"
            )
        kind = m.group(1)
        # f.<name> names the scalar field, A.<name> a field of another kind
        if kind not in FIELD_KINDS or (kind == "scalar") != (m.re is _SCALAR_KEY):
            raise ScenarioError(
                f"line {lineno}: unknown field {key!r}; reserved names: f.scalar, "
                + ", ".join(f"A.{k}" for k in FIELD_KINDS if k != "scalar")
            )
        idx = 0 if kind == "scalar" else int(m.group(2))
        if not 0 <= idx <= 15:
            raise ScenarioError(f"line {lineno}: blade index {idx} outside 0..15")
        if GRADES[idx] not in FIELD_KINDS[kind]:
            raise ScenarioError(
                f"line {lineno}: field A.{kind} has a component at blade {idx} "
                f"(grade {GRADES[idx]}), but this reserved name only allows "
                f"grades {FIELD_KINDS[kind]}"
            )
        first = lines.setdefault((kind, idx), lineno)
        if first != lineno:     # e.g. A.vector.1 and A.vector.01
            raise ScenarioError(
                f"line {lineno}: {key!r} sets blade {idx} of the {kind} field, already set at line {first}"
            )
        parts.setdefault(kind, {})[idx] = _parse_value_expr(value, lineno)
    return {kind: tuple(p.get(i, ZERO_EXPR) for i in range(16)) for kind, p in parts.items()}


_CHECK_FLAGS = {"on": True, "1": True, "true": True, "off": False, "0": False, "false": False}


def _load_checks(entries) -> tuple[tuple[str, bool, int], ...]:
    """The [checks] entries in file order, as (name, on, line)."""
    out = []
    for key, (value, lineno) in entries.items():
        if not _NAME_KEY.match(key):
            raise ScenarioError(f"line {lineno}: bad check name {key!r}")
        on = _CHECK_FLAGS.get(value.lower())
        if on is None:
            raise ScenarioError(
                f"line {lineno}: check value must be on/off, got {value!r}"
            )
        out.append((key, on, lineno))
    return tuple(out)


def _load_sampling(entries) -> Sampling:
    values = {}     # the keys given; the others keep Sampling's defaults
    for key, (value, lineno) in entries.items():
        if key == "seed":
            values[key] = seed = _parse_integer(key, value, lineno)
            if seed < 0:
                raise ScenarioError(f"line {lineno}: seed must be non-negative, got {value!r}")
        elif key == "points":
            values[key] = points = _parse_integer(key, value, lineno)
            if points < 1:
                raise ScenarioError(f"line {lineno}: points must be at least 1, got {value!r}")
        elif key == "tol":
            values[key] = tol = _parse_number(value, lineno)
            if not (math.isfinite(tol) and tol >= 0.0):
                raise ScenarioError(f"line {lineno}: tol must be finite and non-negative, got {value!r}")
        else:
            raise ScenarioError(
                f"line {lineno}: bad [sampling] key {key!r} (seed, points, tol)"
            )
    return Sampling(**values)
