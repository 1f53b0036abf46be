"""Expression language: parsing, evaluation, errors and round-tripping."""

import math
import re
import string
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legpulse.basis import BasisConfig, project_function, project_kernel
from legpulse.exprlang import (
    _MAX_DEPTH,
    CONSTANTS,
    VARIABLES,
    BinOp,
    Call,
    ExprEvalError,
    ExprSyntaxError,
    FUNCTIONS,
    Name,
    Neg,
    Num,
    UnknownIdentifier,
    evaluate,
    is_difference_kernel,
    parse_expression,
    to_string,
    variables,
)


def value(source, t=0.0, s=None):
    return evaluate(parse_expression(source), t, s)


def test_arithmetic_precedence():
    assert value("2+3*4") == 14.0
    assert value("(2+3)*4") == 20.0
    assert value("6/3/2") == 1.0
    assert value("1-2-3") == -4.0
    assert value("2*3+4*5") == 26.0


def test_power_binds_tighter_than_unary_minus():
    assert value("-t^2", t=2.0) == -4.0
    assert value("(-t)^2", t=2.0) == 4.0


def test_power_is_right_associative():
    assert value("2^3^2") == 512.0
    assert value("2^-3") == 0.125


def test_unary_minus():
    assert value("2*-3") == -6.0
    assert value("--5") == 5.0
    assert value("-t", t=1.5) == -1.5


def test_number_literals():
    assert value("1e-2") == 0.01
    assert value(".5 + 1") == 1.5
    assert value("2.5E3") == 2500.0
    assert value("7") == 7.0


def test_constants_and_variables():
    assert value("pi") == math.pi
    assert value("e") == math.e
    assert value("t + s", t=1.0, s=2.0) == 3.0
    assert value("e^2") == pytest.approx(math.e**2, rel=1e-15)


def test_functions():
    assert value("sin(pi/2)") == pytest.approx(1.0, abs=1e-15)
    assert value("cos(0)") == 1.0
    assert value("exp(1)") == math.e
    assert value("log(e)") == pytest.approx(1.0, abs=1e-15)
    assert value("sqrt(9)") == 3.0
    assert value("abs(-4)") == 4.0
    assert value("exp(t - s)", t=1.0, s=0.5) == pytest.approx(math.exp(0.5))


def test_whitespace_is_ignored():
    assert value(" 2 + 3 * t ", t=2.0) == 8.0


def test_python_power_operator_is_rejected_with_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("2**t")
    assert info.value.position == 2
    assert "position 2" in str(info.value)


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("")
    assert info.value.position == 0

    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("2+")
    assert info.value.position == 2

    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("sin(t")
    assert info.value.position == 5

    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("2 3")
    assert info.value.position == 2

    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("2 @ 3")
    assert info.value.position == 2

    with pytest.raises(ExprSyntaxError, match="not finite") as info:
        parse_expression("2*t + 1e999")
    assert info.value.position == 6


def test_unknown_names_are_flagged_at_their_offset():
    with pytest.raises(UnknownIdentifier) as info:
        parse_expression("foo")
    assert info.value.position == 0

    with pytest.raises(UnknownIdentifier) as info:
        parse_expression("2 + tan(t)")
    assert info.value.position == 4


def test_domain_errors_name_the_subexpression():
    with pytest.raises(ExprEvalError, match="log"):
        value("log(0)")
    with pytest.raises(ExprEvalError, match="sqrt"):
        value("sqrt(0 - 1)")
    with pytest.raises(ExprEvalError, match="/"):
        value("1/0")
    with pytest.raises(ExprEvalError):
        value("(0 - 2)^0.5")


def test_unbound_s_is_an_evaluation_error():
    tree = parse_expression("s + 1")
    with pytest.raises(ExprEvalError, match="'s'"):
        evaluate(tree, 0.5)
    assert evaluate(tree, 0.5, 2.0) == 3.0


def test_variables_reported():
    assert variables(parse_expression("exp(t - s)")) == frozenset({"t", "s"})
    assert variables(parse_expression("sin(t)")) == frozenset({"t"})
    assert variables(parse_expression("pi * e")) == frozenset()


def test_non_finite_literal_rejected():
    with pytest.raises(ValueError):
        Num(float("nan"))


ROUND_TRIP_CORPUS = [
    "2+3*4",
    "-t^2",
    "2^-3",
    "2^3^2",
    "(1 + t) * (1 - t)",
    "sin(t)*cos(s)",
    "exp(t - s)",
    "2*t^3 + t^2 - 12*t + 12*sin(t)",
    "e^(t + 1)",
    "-(t + s)",
    "--t",
    "1/(1 + t^2)",
    "sqrt(abs(t - 1))",
    "t/(s + 1)/2",
    "pi*e - t",
]


@pytest.mark.parametrize("source", ROUND_TRIP_CORPUS)
def test_to_string_round_trips_structurally(source):
    tree = parse_expression(source)
    assert parse_expression(to_string(tree)) == tree


@pytest.mark.parametrize("source", ROUND_TRIP_CORPUS)
def test_to_string_round_trips_numerically(source):
    tree = parse_expression(source)
    back = parse_expression(to_string(tree))
    for t, s in [(0.1, 0.9), (0.5, 0.25), (0.99, 0.0)]:
        assert evaluate(back, t, s) == evaluate(tree, t, s)


def ast_strategy(max_literal=1e6):
    leaves = st.one_of(
        st.builds(Num, st.floats(min_value=0.0, max_value=max_literal, allow_nan=False)),
        st.sampled_from([Name("t"), Name("s"), Name("pi"), Name("e")]),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Neg, children),
            st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children),
            st.builds(
                BinOp, st.sampled_from(list("+-*/^")), children, children
            ),
        ),
        max_leaves=20,
    )


@settings(deadline=None, max_examples=200)
@given(tree=ast_strategy())
def test_round_trip_arbitrary_trees(tree):
    assert parse_expression(to_string(tree)) == tree


@given(t=st.floats(min_value=0.0, max_value=1.0), s=st.floats(min_value=0.0, max_value=1.0))
def test_evaluation_is_pure(t, s):
    tree = parse_expression("exp(t - s) * sin(t + s)")
    first = evaluate(tree, t, s)
    second = evaluate(tree, t, s)
    assert first == second


def test_array_domain_error_reports_first_offending_element():
    tree = parse_expression("log(t - 0.5)")
    with pytest.raises(ExprEvalError, match=r"log\(t-0\.5\) for argument -0\.3"):
        evaluate(tree, np.array([0.75, 0.2, 0.5]))
    # row-major order: (t=0.5, s=1) comes before (t=0.25, s=1)
    with pytest.raises(ExprEvalError, match=r"for operands 0\.5 and 0\.0"):
        evaluate(parse_expression("t/(s - 1)"), np.array([[0.5], [0.25]]), np.array([0.0, 1.0]))


def test_overflow_is_an_evaluation_error():
    with pytest.raises(ExprEvalError, match=r"\*"):
        value("1e300*1e300")
    with pytest.raises(ExprEvalError, match="exp"):
        value("exp(t)", t=1000.0)
    assert value("exp(-t)", t=1000.0) == 0.0


POINTS = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4)


@settings(deadline=None, max_examples=300)
@given(tree=ast_strategy(max_literal=10.0), ts=POINTS, ss=POINTS)
def test_array_evaluation_matches_per_point_evaluation(tree, ts, ss):
    # t is a column and s a row, so the result spans every (t, s) pair
    t, s = np.array(ts)[:, None], np.array(ss)
    expected = np.empty((len(ts), len(ss)))
    try:
        for i, ti in enumerate(ts):
            for j, sj in enumerate(ss):
                point = evaluate(tree, ti, sj)
                assert isinstance(point, float)
                expected[i, j] = point
    except ExprEvalError:
        with pytest.raises(ExprEvalError):
            evaluate(tree, t, s)
        return
    got = evaluate(tree, t, s)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "kernel, explicit",
    [("2", "2 + 0*t*s"), ("t", "t + 0*s"), ("cos(s)", "cos(s) + 0*t")],
)
def test_kernel_with_fewer_variables_projects_like_two_variable_form(kernel, explicit):
    cfg = BasisConfig(q=3, r=2)
    short, full = parse_expression(kernel), parse_expression(explicit)
    nodes = np.linspace(0.0, 0.9, 5)
    assert evaluate(short, nodes[:, None], nodes).shape == (5, 5)
    np.testing.assert_array_equal(
        project_kernel(cfg, lambda t, s: evaluate(short, t, s)),
        project_kernel(cfg, lambda t, s: evaluate(full, t, s)),
    )


def test_constant_forcing_projects_like_one_variable_form():
    cfg = BasisConfig(q=3, r=2)
    short, full = parse_expression("3"), parse_expression("3 + 0*t")
    assert evaluate(short, np.zeros((2, 4))).shape == (2, 4)
    np.testing.assert_array_equal(
        project_function(cfg, lambda t: evaluate(short, t)),
        project_function(cfg, lambda t: evaluate(full, t)),
    )


@pytest.mark.parametrize(
    "source, expected",
    [
        ("exp(t - s)", True),
        ("sin(s - t)", True),
        ("1/(1 + (t - s)^2)", True),
        ("exp(-abs(t - s))", True),
        ("t - s - 1", True),
        ("-(s - t)^2*pi", True),
        ("1", True),
        ("e", True),
        ("cos(5*t*s)", False),
        ("t", False),
        ("s", False),
        ("t*s", False),
        ("t + s", False),
        ("(t - s) + t", False),
        ("t - 2*s", False),
        ("1 + t - s", False),  # (1 + t) - s: a function of t - s, but not by form
        ("exp(t)*exp(-s)", False),
    ],
)
def test_is_difference_kernel(source, expected):
    assert is_difference_kernel(parse_expression(source)) is expected


# variables and is_difference_kernel as they were before _children, each with
# its own descent through Neg, Call and BinOp, kept as the oracle for the test
# below
def _oracle_variables(expr):
    if isinstance(expr, Name):
        return frozenset({expr.ident}) if expr.ident in VARIABLES else frozenset()
    if isinstance(expr, Neg):
        return _oracle_variables(expr.operand)
    if isinstance(expr, Call):
        return _oracle_variables(expr.arg)
    if isinstance(expr, BinOp):
        return _oracle_variables(expr.left) | _oracle_variables(expr.right)
    return frozenset()


def _oracle_is_difference_kernel(expr):
    if expr in (BinOp("-", Name("t"), Name("s")), BinOp("-", Name("s"), Name("t"))):
        return True
    if isinstance(expr, Name):
        return expr.ident not in VARIABLES
    if isinstance(expr, Neg):
        return _oracle_is_difference_kernel(expr.operand)
    if isinstance(expr, Call):
        return _oracle_is_difference_kernel(expr.arg)
    if isinstance(expr, BinOp):
        left, right = expr.left, expr.right
        return _oracle_is_difference_kernel(left) and _oracle_is_difference_kernel(right)
    return True


@settings(deadline=None, max_examples=300)
@given(tree=ast_strategy())
def test_tree_queries_match_the_oracle(tree):
    assert variables(tree) == _oracle_variables(tree)
    assert is_difference_kernel(tree) is _oracle_is_difference_kernel(tree)


# The recursive-descent parser that parse_expression replaced, one method per
# grammar level, kept as the oracle for the differential tests below.  It has
# no depth bound: it overflows the stack from about 200 nested parentheses.
_ORACLE_TOKEN_RE = re.compile(
    r"""
      (?P<NUMBER>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<OP>[-+*/^()])
    | (?P<WS>\s+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(source: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(source):
        match = _ORACLE_TOKEN_RE.match(source, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "WS":
            yield _Token(kind, match.group(), match.start())
        pos = match.end()
    yield _Token("END", "", len(source))


class _Parser:
    def __init__(self, source: str):
        self.tokens = list(_tokenize(source))
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def at_op(self, chars: str) -> bool:
        return self.current.kind == "OP" and self.current.text in chars

    def expect_op(self, char: str) -> None:
        if not self.at_op(char):
            raise ExprSyntaxError(f"expected {char!r}", self.current.position)
        self.advance()

    def parse(self):
        node = self.expr()
        if self.current.kind != "END":
            raise ExprSyntaxError(
                f"unexpected trailing input {self.current.text!r}", self.current.position
            )
        return node

    def expr(self):
        node = self.term()
        while self.at_op("+-"):
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.at_op("*/"):
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.at_op("-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.at_op("^"):
            self.advance()
            node = BinOp("^", node, self.unary())
        return node

    def atom(self):
        token = self.current
        if token.kind == "NUMBER":
            self.advance()
            value = float(token.text)
            if not np.isfinite(value):
                raise ExprSyntaxError(f"numeric literal {token.text!r} is not finite", token.position)
            return Num(value)
        if token.kind == "IDENT":
            self.advance()
            if self.at_op("("):
                if token.text not in FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {token.text!r}", token.position)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(token.text, arg)
            if token.text in VARIABLES or token.text in CONSTANTS:
                return Name(token.text)
            raise UnknownIdentifier(f"unknown name {token.text!r}", token.position)
        if self.at_op("("):
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a number, name or parenthesized expression", token.position)


def assert_parses_like_the_oracle(source):
    try:
        expected = _Parser(source).parse()
    except ExprSyntaxError as exc:
        with pytest.raises(ExprSyntaxError) as info:
            parse_expression(source)
        got = info.value
        assert (type(got), str(got), got.position) == (type(exc), str(exc), exc.position)
    else:
        assert parse_expression(source) == expected


ORACLE_CASES = [
    "",
    "   ",
    "2e",
    "1.e3",
    ".5e-3",
    "2^-3^2",
    "-2*3",
    "té",
    "exp(t) $ (",
    "t) $",
    "t)",
    "2 3",
    "1e999",
    "tan(t)",
    "2**t",
]


@pytest.mark.parametrize("source", ORACLE_CASES)
def test_parser_matches_the_oracle_on_edge_cases(source):
    assert_parses_like_the_oracle(source)


# single characters (٣ is an Arabic-Indic digit, which \d matches, and
# \u00a0 a no-break space, which \s matches), and tokens, so that both stray
# characters and well-formed grammar are common
CHARACTERS = st.sampled_from(
    list(string.digits + ".eE+-*/^()" + string.ascii_letters + "é٣$ \t\u00a0")
)
TOKENS = st.sampled_from(
    ["t", "s", "pi", "e", "sin", "exp(", "abs(", "(", ")", "+", "-", "*", "/", "^", "2", "0.5", "1e3", ".5", " "]
)
SOURCES = st.one_of(
    st.text(CHARACTERS, max_size=40), st.lists(TOKENS, max_size=30).map("".join)
)


@settings(deadline=None, max_examples=1000)
@given(source=SOURCES)
def test_parser_matches_the_oracle_on_random_text(source):
    assert_parses_like_the_oracle(source)


@settings(deadline=None, max_examples=200)
@given(tree=ast_strategy())
def test_parser_matches_the_oracle_on_printed_trees(tree):
    assert_parses_like_the_oracle(to_string(tree))


# each shape nests k levels of parentheses, calls, unary minus signs,
# exponents or the operators of one + chain, paired with the position of the
# token that opens level k
NESTED = {
    "parentheses": (lambda k: "(" * k + "t" + ")" * k, lambda k: k - 1),
    "calls": (lambda k: "abs(" * k + "t" + ")" * k, lambda k: 4 * k - 1),
    "minus": (lambda k: "-" * k + "t", lambda k: k - 1),
    "exponents": (lambda k: "t" + "^1" * k, lambda k: 2 * k - 1),
    "sum": (lambda k: "t" + "+t" * k, lambda k: 2 * k - 1),
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_at_the_bound_parses_evaluates_and_prints(shape):
    source, _ = NESTED[shape]
    tree = parse_expression(source(_MAX_DEPTH))
    expected = {"sum": 0.5 * (_MAX_DEPTH + 1), "minus": 0.5 * (-1) ** _MAX_DEPTH}.get(shape, 0.5)
    assert evaluate(tree, 0.5) == expected
    assert variables(tree) == frozenset({"t"})
    assert is_difference_kernel(tree) is False
    assert parse_expression(to_string(tree)) == tree


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_past_the_bound_is_a_syntax_error_at_the_crossing_token(shape):
    source, crossing = NESTED[shape]
    for k in (_MAX_DEPTH + 1, 10_000):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expression(source(k))
        assert info.value.message == f"expression nested deeper than {_MAX_DEPTH} levels"
        assert info.value.position == crossing(_MAX_DEPTH + 1)


def test_a_binary_operator_pushes_its_left_operand_one_level_down():
    # the + chain's first operand is _MAX_DEPTH - 1 calls deep, so its first
    # "+" is the last level that fits, and a second one crosses the bound
    deep = "abs(" * (_MAX_DEPTH - 1) + "t" + ")" * (_MAX_DEPTH - 1)
    tree = parse_expression(deep + " + t")
    assert to_string(tree).count("abs(") == _MAX_DEPTH - 1
    with pytest.raises(ExprSyntaxError, match="nested deeper") as info:
        parse_expression(deep + " + t - t")
    assert info.value.position == len(deep) + 5
    # the same holds when the deep operand came in on the right of the first "+"
    assert parse_expression("t + " + deep) == BinOp("+", Name("t"), tree.left)
    with pytest.raises(ExprSyntaxError, match="nested deeper") as info:
        parse_expression("t + " + deep + " - t")
    assert info.value.position == len(deep) + 5
    with pytest.raises(ExprSyntaxError, match="nested deeper") as info:
        parse_expression(f"({deep})^2^2 * 2")
    assert info.value.position == len(deep) + 2


def test_sibling_groups_do_not_add_up():
    # 256 parenthesized leaves in a balanced sum nest 25 levels
    source = "(t)"
    for _ in range(8):
        source = f"({source} + -{source})"
    assert_parses_like_the_oracle(source)
    assert source.count("(") > _MAX_DEPTH
