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
functions are sin, cos, exp, log, sqrt and abs.  Each pair of
parentheses, call, unary minus and binary operator is one level over the
levels it contains, and a syntax error names the token at which an
expression first nests deeper than _MAX_DEPTH levels.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Union

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
        if not math.isfinite(self.value):
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
    | (?P<STRAY>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PRECEDENCE = 3
_ATOM_PRECEDENCE = 9

# The tree walkers below recurse once per level (to_string twice) and the
# parser at most three times, so all stay inside Python's recursion limit.
_MAX_DEPTH = 200


class _ExprParser:
    """Recursive descent over (kind, text, position) tokens.

    depth counts the levels that enclose the current token; reach is the
    deepest level of the subtree parsed last, which a binary operator pushes
    one level down when it takes that subtree as its left operand.
    """

    __slots__ = ("tokens", "index", "kind", "text", "position", "depth", "reach")

    def __init__(self, source: str):
        # the whole text is tokenized first, so a stray character is
        # reported before any grammar error
        self.tokens = []
        for match in _TOKEN_RE.finditer(source):
            kind = match.lastgroup
            if kind == "STRAY":
                raise ExprSyntaxError(f"unexpected character {match.group()!r}", match.start())
            if kind != "WS":
                self.tokens.append((kind, match.group(), match.start()))
        self.tokens.append(("END", "", len(source)))
        self.kind, self.text, self.position = self.tokens[0]
        self.index = self.depth = self.reach = 0

    def advance(self) -> None:
        self.index += 1
        self.kind, self.text, self.position = self.tokens[self.index]

    def enter(self, level: int) -> None:
        """Step past the current token, which opens a level at `level`."""
        if level > _MAX_DEPTH:
            message = f"expression nested deeper than {_MAX_DEPTH} levels"
            raise ExprSyntaxError(message, self.position)
        self.depth += 1
        self.advance()

    def parse(self) -> Expr:
        node = self.expr(1)
        if self.kind != "END":
            raise ExprSyntaxError(f"unexpected trailing input {self.text!r}", self.position)
        return node

    def expr(self, floor: int) -> Expr:
        """A left-associative chain of the + - * / operators that bind at
        least as tightly as floor; "^" never gets here, as unary takes it."""
        node = self.unary()
        while _PRECEDENCE.get(self.text, 0) >= floor:
            node = self.binary(node)
        return node

    def binary(self, left: Expr) -> Expr:
        """left, the operator at the current token and its right operand, a
        chain of tighter operators only; above "^" there are none, so the
        operand of "^" is a unary, and "^" is right associative."""
        op, reach = self.text, self.reach + 1
        self.enter(reach)
        node = BinOp(op, left, self.expr(_PRECEDENCE[op] + 1))
        self.depth -= 1
        self.reach = max(reach, self.reach)
        return node

    def unary(self) -> Expr:
        if self.text == "-":
            self.enter(self.depth + 1)
            node = Neg(self.unary())
            self.depth -= 1
            return node
        node = self.atom()
        if self.text == "^":
            node = self.binary(node)
        return node

    def atom(self) -> Expr:
        kind, text, position = self.kind, self.text, self.position
        self.reach = self.depth
        if kind == "NUMBER":
            self.advance()
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"numeric literal {text!r} is not finite", position)
            return Num(value)
        if kind == "IDENT":
            self.advance()
            if self.text != "(":
                if text in VARIABLES or text in CONSTANTS:
                    return Name(text)
                raise UnknownIdentifier(f"unknown name {text!r}", position)
            if text not in FUNCTIONS:
                raise UnknownIdentifier(f"unknown function {text!r}", position)
        elif text != "(":
            raise ExprSyntaxError("expected a number, name or parenthesized expression", position)
        # "(" expr ")", the argument of a call or a group, one level deeper
        self.enter(self.depth + 1)
        node = self.expr(1)
        if self.text != ")":
            raise ExprSyntaxError("expected ')'", self.position)
        self.depth -= 1
        self.advance()
        return Call(text, node) if kind == "IDENT" else node


def parse_expression(source: str) -> Expr:
    """Parse source text into an expression tree."""
    return _ExprParser(source).parse()


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
        return t if expr.ident == "t" else s if expr.ident == "s" else CONSTANTS[expr.ident]
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


def _children(expr: Expr) -> tuple:
    """The direct subexpressions of expr, left to right."""
    if isinstance(expr, Neg):
        return (expr.operand,)
    if isinstance(expr, Call):
        return (expr.arg,)
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    return ()


def variables(expr: Expr) -> frozenset:
    """The set of variable names ('t', 's') the expression reads."""
    if isinstance(expr, Name):
        return frozenset({expr.ident}) if expr.ident in VARIABLES else frozenset()
    return frozenset().union(*map(variables, _children(expr)))


_DIFFERENCES = (BinOp("-", Name("t"), Name("s")), BinOp("-", Name("s"), Name("t")))


def is_difference_kernel(expr: Expr) -> bool:
    """Whether expr is a function of t - s alone: every t and s leaf sits in a
    t - s or s - t node.  A constant counts; t * s, t and (t - s) + t do not."""
    if expr in _DIFFERENCES:
        return True
    if isinstance(expr, Name):
        return expr.ident not in VARIABLES
    return all(map(is_difference_kernel, _children(expr)))
