"""Multivariate polynomial expressions with rational coefficients.

Small AST (constants, variables, add, mul, neg, nonnegative integer powers)
plus a parser, exact symbolic differentiation, and evaluation over either
plain rationals or gross-number vectors.  Evaluation uses only addition and
multiplication, so it is always exact; division never appears in the
function class.

Grammar (variables are x1..xn):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := ['-'] atom ['^' uint]
    atom   := rational | 'x' uint | '(' expr ')'

Constant subexpressions are folded on construction; no other simplification
is performed (correctness rests on evaluation, not on canonical forms).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Set, Union

from .arith import GrossNumber, ParseError, as_gross
from .linalg import GrossVector

__all__ = [
    "Add",
    "Const",
    "Mul",
    "Neg",
    "PolyExpr",
    "Pow",
    "Var",
    "add_expr",
    "const",
    "differentiate",
    "eval_gross",
    "eval_rational",
    "mul_expr",
    "neg_expr",
    "parse_expr",
    "pow_expr",
    "variables",
]


class PolyExpr:
    """Base class for polynomial expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(PolyExpr):
    value: Fraction


@dataclass(frozen=True)
class Var(PolyExpr):
    index: int


@dataclass(frozen=True)
class Add(PolyExpr):
    left: PolyExpr
    right: PolyExpr


@dataclass(frozen=True)
class Mul(PolyExpr):
    left: PolyExpr
    right: PolyExpr


@dataclass(frozen=True)
class Neg(PolyExpr):
    operand: PolyExpr


@dataclass(frozen=True)
class Pow(PolyExpr):
    base: PolyExpr
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError("polynomial exponents must be nonnegative")


def const(value: Union[int, Fraction]) -> Const:
    return Const(Fraction(value))


def add_expr(left: PolyExpr, right: PolyExpr) -> PolyExpr:
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(left.value + right.value)
    return Add(left, right)


def mul_expr(left: PolyExpr, right: PolyExpr) -> PolyExpr:
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(left.value * right.value)
    return Mul(left, right)


def neg_expr(operand: PolyExpr) -> PolyExpr:
    if isinstance(operand, Const):
        return Const(-operand.value)
    return Neg(operand)


def pow_expr(base: PolyExpr, exponent: int) -> PolyExpr:
    if isinstance(base, Const):
        return Const(base.value ** exponent)
    return Pow(base, exponent)


def variables(expr: PolyExpr) -> Set[int]:
    """Indices of the variables appearing in the expression."""
    match expr:
        case Const():
            return set()
        case Var(index=i):
            return {i}
        case Add(left=l, right=r) | Mul(left=l, right=r):
            return variables(l) | variables(r)
        case Neg(operand=e):
            return variables(e)
        case Pow(base=b):
            return variables(b)
    raise TypeError(f"not a PolyExpr node: {expr!r}")


def differentiate(expr: PolyExpr, var_index: int) -> PolyExpr:
    """Exact symbolic partial derivative with respect to variable var_index."""
    match expr:
        case Const():
            return Const(Fraction(0))
        case Var(index=i):
            return Const(Fraction(1 if i == var_index else 0))
        case Add(left=l, right=r):
            return add_expr(differentiate(l, var_index), differentiate(r, var_index))
        case Mul(left=l, right=r):
            return add_expr(
                mul_expr(differentiate(l, var_index), r),
                mul_expr(l, differentiate(r, var_index)),
            )
        case Neg(operand=e):
            return neg_expr(differentiate(e, var_index))
        case Pow(base=b, exponent=k):
            if k == 0:
                return Const(Fraction(0))
            return mul_expr(
                mul_expr(const(k), pow_expr(b, k - 1)),
                differentiate(b, var_index),
            )
    raise TypeError(f"not a PolyExpr node: {expr!r}")


def eval_rational(expr: PolyExpr, point: Sequence[Union[int, Fraction]]) -> Fraction:
    """Evaluate at a rational point; exact."""
    match expr:
        case Const(value=v):
            return v
        case Var(index=i):
            return Fraction(point[i])
        case Add(left=l, right=r):
            return eval_rational(l, point) + eval_rational(r, point)
        case Mul(left=l, right=r):
            return eval_rational(l, point) * eval_rational(r, point)
        case Neg(operand=e):
            return -eval_rational(e, point)
        case Pow(base=b, exponent=k):
            return eval_rational(b, point) ** k
    raise TypeError(f"not a PolyExpr node: {expr!r}")


def eval_gross(expr: PolyExpr, point: Union[GrossVector, Sequence]) -> GrossNumber:
    """Evaluate over a gross-number vector; exact (add/mul only)."""
    match expr:
        case Const(value=v):
            return as_gross(v)
        case Var(index=i):
            return as_gross(point[i])
        case Add(left=l, right=r):
            return eval_gross(l, point) + eval_gross(r, point)
        case Mul(left=l, right=r):
            return eval_gross(l, point) * eval_gross(r, point)
        case Neg(operand=e):
            return -eval_gross(e, point)
        case Pow(base=b, exponent=k):
            return eval_gross(b, point).power(k)
    raise TypeError(f"not a PolyExpr node: {expr!r}")


class _ExprReader:
    """Recursive-descent reader for the expression grammar above."""

    def __init__(self, text: str, dimension: int):
        self.text = text
        self.pos = 0
        self.dimension = dimension

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def read_uint(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an unsigned integer")
        return int(self.text[start:self.pos])

    def read_atom(self) -> PolyExpr:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.read_expr()
            self.skip_ws()
            self.expect(")")
            return inner
        if ch == "x":
            self.pos += 1
            mark = self.pos
            ordinal = self.read_uint()
            if ordinal < 1 or ordinal > self.dimension:
                self.pos = mark
                raise self.error(
                    f"variable x{ordinal} out of range (declared dimension {self.dimension})"
                )
            return Var(ordinal - 1)
        if ch.isdigit():
            numerator = self.read_uint()
            if self.peek() == "/":
                self.pos += 1
                mark = self.pos
                denominator = self.read_uint()
                if denominator == 0:
                    self.pos = mark
                    raise self.error("zero denominator")
                return Const(Fraction(numerator, denominator))
            return Const(Fraction(numerator))
        raise self.error("expected a rational, a variable, or '('")

    def read_factor(self) -> PolyExpr:
        self.skip_ws()
        negate = False
        if self.peek() == "-":
            negate = True
            self.pos += 1
        atom = self.read_atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            exponent = self.read_uint()
            atom = pow_expr(atom, exponent)
        return neg_expr(atom) if negate else atom

    def read_term(self) -> PolyExpr:
        result = self.read_factor()
        while True:
            self.skip_ws()
            if self.peek() != "*":
                return result
            self.pos += 1
            result = mul_expr(result, self.read_factor())

    def read_expr(self) -> PolyExpr:
        result = self.read_term()
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                return result
            self.pos += 1
            rhs = self.read_term()
            result = add_expr(result, neg_expr(rhs) if op == "-" else rhs)


def parse_expr(text: str, dimension: int) -> PolyExpr:
    """Parse an expression in variables x1..x<dimension>."""
    if dimension < 0:
        raise ValueError("dimension must be nonnegative")
    reader = _ExprReader(text, dimension)
    expr = reader.read_expr()
    reader.skip_ws()
    if reader.pos != len(text):
        raise reader.error("unexpected trailing input")
    return expr
