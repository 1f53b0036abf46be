"""A small arithmetic expression language for problem files.

Grammar (whitespace between tokens is ignored):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

"^" is right associative and binds tighter than unary minus, so -t^2
means -(t^2), while 2^-3 and 2^3^2 parse as expected.  The variables
are t and s, the constants pi and e are predefined, and the available
functions are sin, cos, exp, log, sqrt and abs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np
from numpy.typing import ArrayLike

VARIABLES = ("t", "s")
CONSTANTS = {"pi": np.pi, "e": np.e}
FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


class ExpressionError(Exception):
    """Base class for every error this module raises."""


class ExprSyntaxError(ExpressionError):
    """Malformed source text; position is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self) -> str:
        return f"{self.message} at position {self.position}"


class UnknownIdentifier(ExprSyntaxError):
    """A name that is not a variable, constant or known function."""


class ExprEvalError(ExpressionError):
    """Evaluation overflowed or left the real domain (log of a nonpositive number, ...)."""


@dataclass(frozen=True)
class Num:
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"numeric literal must be finite, got {self.value}")


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Name, Neg, Call, BinOp]

_TOKEN_RE = re.compile(
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
        match = _TOKEN_RE.match(source, pos)
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
            raise ExprSyntaxError(
                f"expected {char!r}", self.current.position
            )
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        if self.current.kind != "END":
            raise ExprSyntaxError(
                f"unexpected trailing input {self.current.text!r}",
                self.current.position,
            )
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.at_op("+-"):
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.at_op("*/"):
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.at_op("^"):
            self.advance()
            node = BinOp("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        token = self.current
        if token.kind == "NUMBER":
            self.advance()
            value = float(token.text)
            if not np.isfinite(value):
                raise ExprSyntaxError(
                    f"numeric literal {token.text!r} is not finite", token.position
                )
            return Num(value)
        if token.kind == "IDENT":
            self.advance()
            if self.at_op("("):
                if token.text not in FUNCTIONS:
                    raise UnknownIdentifier(
                        f"unknown function {token.text!r}", token.position
                    )
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
        raise ExprSyntaxError(
            "expected a number, name or parenthesized expression", token.position
        )


def parse_expression(source: str) -> Expr:
    """Parse source text into an expression tree."""
    return _Parser(source).parse()


def evaluate(expr: Expr, t: ArrayLike, s: Optional[ArrayLike] = None):
    """Evaluate an expression tree at the points (t, s).

    t and s are floats or arrays that broadcast against each other; the
    result has their broadcast shape, or is a float if both are scalars.
    Overflow and leaving the real domain raise ExprEvalError naming the
    subexpression and its first offending value; underflow flushes to 0.
    """
    t = np.asarray(t, dtype=float)
    s = None if s is None else np.asarray(s, dtype=float)
    shape = t.shape if s is None else np.broadcast_shapes(t.shape, s.shape)
    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        value = _evaluate(expr, t, s)
    if not shape:
        return float(value)
    return value if np.shape(value) == shape else np.full(shape, value)


def _evaluate(expr: Expr, t: np.ndarray, s: Optional[np.ndarray]):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Name):
        if expr.ident == "s" and s is None:
            raise ExprEvalError("variable 's' is not bound in this context")
        return dict(CONSTANTS, t=t, s=s)[expr.ident]
    if isinstance(expr, Neg):
        return -_evaluate(expr.operand, t, s)
    if isinstance(expr, Call):
        arg = _evaluate(expr.arg, t, s)
        return _apply(FUNCTIONS[expr.func], expr, "argument", arg)
    left = _evaluate(expr.left, t, s)
    right = _evaluate(expr.right, t, s)
    return _apply(OPERATORS[expr.op], expr, "operands", left, right)


def _apply(ufunc: np.ufunc, expr: Expr, label: str, *operands):
    """ufunc(*operands), turning a floating-point fault into ExprEvalError."""
    try:
        return ufunc(*operands)
    except FloatingPointError as exc:
        with np.errstate(all="ignore"):
            bad = ~np.isfinite(ufunc(*operands))
        i = int(np.argmax(bad))
        values = " and ".join(
            repr(float(np.broadcast_to(x, bad.shape).flat[i])) for x in operands
        )
        raise ExprEvalError(
            f"cannot evaluate {to_string(expr)} for {label} {values}: {exc}"
        ) from exc


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PRECEDENCE = 3
_ATOM_PRECEDENCE = 9


def _precedence(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return _PRECEDENCE[expr.op]
    if isinstance(expr, Neg):
        return _NEG_PRECEDENCE
    if isinstance(expr, Num) and expr.value < 0:
        # a negative literal prints with a leading minus sign
        return _NEG_PRECEDENCE
    return _ATOM_PRECEDENCE


def _wrap(expr: Expr, parent: int, strict: bool) -> str:
    text = to_string(expr)
    prec = _precedence(expr)
    if prec < parent or (strict and prec == parent):
        return f"({text})"
    return text


def to_string(expr: Expr) -> str:
    """Render a tree back to source text that parses to the same tree."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Neg):
        return "-" + _wrap(expr.operand, _NEG_PRECEDENCE, False)
    if isinstance(expr, Call):
        return f"{expr.func}({to_string(expr.arg)})"
    prec = _PRECEDENCE[expr.op]
    if expr.op == "^":
        # right associative: parenthesize an equal-precedence left child
        return _wrap(expr.left, prec, True) + expr.op + _wrap(expr.right, prec, False)
    # left associative: parenthesize an equal-precedence right child
    return _wrap(expr.left, prec, False) + expr.op + _wrap(expr.right, prec, True)


def variables(expr: Expr) -> frozenset:
    """The set of variable names ('t', 's') the expression reads."""
    if isinstance(expr, Name):
        return frozenset({expr.ident}) if expr.ident in VARIABLES else frozenset()
    if isinstance(expr, Neg):
        return variables(expr.operand)
    if isinstance(expr, Call):
        return variables(expr.arg)
    if isinstance(expr, BinOp):
        return variables(expr.left) | variables(expr.right)
    return frozenset()


_DIFFERENCES = (BinOp("-", Name("t"), Name("s")), BinOp("-", Name("s"), Name("t")))


def is_difference_kernel(expr: Expr) -> bool:
    """Whether expr is a function of t - s alone: every t and s leaf sits in a
    t - s or s - t node.  A constant counts; t * s, t and (t - s) + t do not."""
    if expr in _DIFFERENCES:
        return True
    if isinstance(expr, Name):
        return expr.ident not in VARIABLES
    if isinstance(expr, Neg):
        return is_difference_kernel(expr.operand)
    if isinstance(expr, Call):
        return is_difference_kernel(expr.arg)
    if isinstance(expr, BinOp):
        return is_difference_kernel(expr.left) and is_difference_kernel(expr.right)
    return True
