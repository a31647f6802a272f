"""Multivariate polynomials with rational coefficients.

A polynomial in x1..xn is a sparse map from exponent tuples of length n to
nonzero ``Fraction`` coefficients: ``{(2, 0): 1/2, (0, 1): -1}`` is
``1/2*x1^2 - x2``, and the zero polynomial is ``{}``.  The parser expands
every expression into this canonical form, so two texts for the same
polynomial give equal maps.  Differentiation is exact and stays in the same
form, and evaluation at points of plain rationals or of gross-numbers uses only
addition and multiplication, so it is always exact; division never appears
in the function class.

Grammar (variables are x1..xn):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := ['+'|'-'] atom ['^' uint]
    atom   := rational | 'x' uint | '(' expr ')'

The reader is ``arith._ExpressionReader``, which gross-number text
shares; parentheses nest at most 100 levels deep, and a power of
a multi-term base may have at most 500 monomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Sequence, Tuple, Union

from .arith import (
    _MAX_POWER_TERMS, ZERO, GrossNumber, Scalar, _ExpressionReader, _square_and_multiply, as_gross,
)

__all__ = [
    "PolyExpr",
    "differentiate",
    "eval_gross",
    "eval_rational",
    "parse_expr",
]

PolyExpr = Dict[Tuple[int, ...], Fraction]


def _add(a: PolyExpr, b: PolyExpr) -> PolyExpr:
    result = dict(a)
    for monomial, coefficient in b.items():
        total = result.get(monomial, 0) + coefficient
        if total:
            result[monomial] = total
        else:
            del result[monomial]
    return result


def _neg(a: PolyExpr) -> PolyExpr:
    return {m: -c for m, c in a.items()}


def _mul(a: PolyExpr, b: PolyExpr) -> PolyExpr:
    result: PolyExpr = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            monomial = tuple(i + j for i, j in zip(ma, mb))
            result[monomial] = result.get(monomial, 0) + ca * cb
    return {m: c for m, c in result.items() if c}


def differentiate(expr: PolyExpr, var_index: int) -> PolyExpr:
    """Exact partial derivative with respect to variable var_index."""
    return {
        m[:var_index] + (m[var_index] - 1,) + m[var_index + 1:]: c * m[var_index]
        for m, c in expr.items()
        if m[var_index]
    }


def eval_rational(expr: PolyExpr, point: Sequence[Union[int, Fraction]]) -> Fraction:
    """Evaluate at a rational point; exact."""
    total = Fraction(0)
    for monomial, coefficient in expr.items():
        term = coefficient
        for i, k in enumerate(monomial):
            if k:
                term = term * Fraction(point[i]) ** k
        total += term
    return total


def eval_gross(expr: PolyExpr, point: Sequence[Scalar]) -> GrossNumber:
    """Evaluate at a point of ints, Fractions or gross-numbers; exact
    (add/mul only)."""
    total = ZERO
    for monomial, coefficient in expr.items():
        term = as_gross(coefficient)
        for i, k in enumerate(monomial):
            if k:
                value = as_gross(point[i])
                term = term * (value if k == 1 else value.power(k))
        total = total + term
    return total


class _ExprReader(_ExpressionReader):
    """The expression grammar above over sparse polynomials."""

    term_operators = {"*": _mul}
    add = staticmethod(_add)
    negate = staticmethod(_neg)

    def __init__(self, text: str, dimension: int):
        super().__init__(text)
        self.dimension = dimension
        self.one: PolyExpr = {(0,) * dimension: Fraction(1)}

    def read_leaf(self) -> PolyExpr:
        ch = self.peek()
        if ch == "x":
            self.pos += 1
            mark = self.pos
            ordinal = self.read_uint()
            if ordinal < 1 or ordinal > self.dimension:
                self.pos = mark
                raise self.error(
                    f"variable x{ordinal} out of range (declared dimension {self.dimension})"
                )
            monomial = [0] * self.dimension
            monomial[ordinal - 1] = 1
            return {tuple(monomial): Fraction(1)}
        if ch.isdigit():
            value = self.read_rational()
            return {(0,) * self.dimension: value} if value else {}
        raise self.error("expected a rational, a variable, or '('")

    def power(self, base: PolyExpr, exponent: int) -> PolyExpr:
        return _square_and_multiply(base, exponent, self.one, _mul)

    @staticmethod
    def power_terms(base: PolyExpr, exponent: int) -> int:
        # A base of t > 1 terms has at most C(e + t - 1, e) >= e + 1
        # monomials in its e-th power; the binomial is formed for small e only.
        if len(base) < 2:
            return 1
        if exponent >= _MAX_POWER_TERMS:
            return exponent + 1
        return math.comb(exponent + len(base) - 1, exponent)


def parse_expr(text: str, dimension: int) -> PolyExpr:
    """Parse an expression in variables x1..x<dimension> into canonical form."""
    if dimension < 0:
        raise ValueError("dimension must be nonnegative")
    reader = _ExprReader(text, dimension)
    expr = reader.read_expr()
    reader.expect_end()
    return expr
