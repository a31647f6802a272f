"""Reference polynomial evaluation for tests: read the expression text and
evaluate it directly at a point, with no expansion into monomials.

The grammar is the one ``grossone.polyexpr`` documents:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := ['-'] atom ['^' uint]
    atom   := rational | 'x' uint | '(' expr ')'

Each node is evaluated as it is read, with the point's own ``+ - *``, so
the same code works over ``Fraction`` and over ``GrossNumber`` points.
Powers are repeated multiplication.  Nothing here calls ``polyexpr``; the
text is assumed valid (error messages are tested separately).
"""

from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(\d+(?:/\d+)?|x\d+|[-+*^()])")


def evaluate(text: str, point):
    tokens = []
    pos = 0
    while text[pos:].strip():
        match = _TOKEN.match(text, pos)
        tokens.append(match.group(1))
        pos = match.end()
    tokens.append("")
    value, end = _expr(tokens, 0, point)
    assert tokens[end] == "", f"trailing tokens in {text!r}"
    return value


def _expr(tokens, i, point):
    value, i = _term(tokens, i, point)
    while tokens[i] in ("+", "-"):
        op = tokens[i]
        rhs, i = _term(tokens, i + 1, point)
        value = value + rhs if op == "+" else value - rhs
    return value, i


def _term(tokens, i, point):
    value, i = _factor(tokens, i, point)
    while tokens[i] == "*":
        rhs, i = _factor(tokens, i + 1, point)
        value = value * rhs
    return value, i


def _factor(tokens, i, point):
    negate = tokens[i] == "-"
    if negate:
        i += 1
    value, i = _atom(tokens, i, point)
    if tokens[i] == "^":
        power = Fraction(1)
        for _ in range(int(tokens[i + 1])):
            power = power * value
        value, i = power, i + 2
    return (-value if negate else value), i


def _atom(tokens, i, point):
    token = tokens[i]
    if token == "(":
        value, i = _expr(tokens, i + 1, point)
        assert tokens[i] == ")"
        return value, i + 1
    if token.startswith("x"):
        return point[int(token[1:]) - 1], i + 1
    return Fraction(token), i + 1
