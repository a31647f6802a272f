"""Shared test helpers: seeded generators and independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Tuple

from grossone.arith import ZERO, GrossNumber
from grossone.polyexpr import PolyExpr, eval_rational
from grossone.simplex import LpStandardForm, random_degenerate_lp

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"
DATA_DIR = Path(__file__).resolve().parent / "data"


def matvec(matrix: Sequence[Sequence], vector: Sequence) -> Tuple[GrossNumber, ...]:
    """Exact matrix-vector product (add/mul only), for residual checks."""
    m, n = len(matrix), len(matrix[0])
    if len(vector) != n:
        raise ValueError(f"shape mismatch: matrix is {m}x{n}, vector has length {len(vector)}")
    return tuple(sum((matrix[i][j] * vector[j] for j in range(n)), ZERO) for i in range(m))


def nested(levels: int, atom: str) -> str:
    """``atom`` inside ``levels`` pairs of parentheses."""
    return "(" * levels + atom + ")" * levels


def random_fraction(rng: random.Random, bound: int = 100) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_ratio(rng: random.Random, bound: int = 9) -> Fraction:
    """Nonzero p/q with |p|, q <= bound."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, bound), rng.randint(1, bound))


def rational_degenerate_lp(rng: random.Random, m: int, n: int) -> LpStandardForm:
    """``random_degenerate_lp`` with each row of ``[A | b]`` and each cost
    multiplied by a random nonzero p/q.  The row scalings leave the feasible
    set unchanged (a negative one makes phase one flip that row); the cost
    scalings give a different, still bounded, objective."""
    lp = random_degenerate_lp(rng, m, n)
    a, b = [], []
    for row, bi in zip(lp.a, lp.b):
        scale = random_ratio(rng)
        a.append(tuple(v * scale for v in row))
        b.append(bi * scale)
    c = tuple(cj * random_ratio(rng) for cj in lp.c)
    return LpStandardForm(tuple(a), tuple(b), c)


def random_gross(
    rng: random.Random,
    max_terms: int = 4,
    power_low: int = -5,
    power_high: int = 5,
    bound: int = 100,
    nonzero: bool = False,
) -> GrossNumber:
    while True:
        count = rng.randint(1 if nonzero else 0, max_terms)
        value = GrossNumber(
            (rng.randint(power_low, power_high), random_fraction(rng, bound))
            for _ in range(count)
        )
        if not (nonzero and value.is_zero()):
            return value


def random_expr(rng: random.Random, dimension: int, depth: int) -> str:
    """Random expression text in x1..x<dimension>.  Operands are
    parenthesized at random, so the text also exercises precedence and
    left-to-right association."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return f"{rng.randint(0, 4)}/{rng.randint(1, 4)}"
        return f"x{rng.randrange(dimension) + 1}"

    def operand() -> str:
        text = random_expr(rng, dimension, depth - 1)
        return f"({text})" if rng.random() < 0.5 else text

    choice = rng.randrange(6)
    if choice < 2:
        return f"{operand()} {rng.choice('+-')} {operand()}"
    if choice < 4:
        return f"{operand()}*{operand()}"
    if choice == 4:
        return f"-({random_expr(rng, dimension, depth - 1)})"
    return f"({random_expr(rng, dimension, depth - 1)})^{rng.randint(0, 3)}"


def degree_bound(expr: PolyExpr) -> int:
    return max((sum(monomial) for monomial in expr), default=0)


def lagrange_at_zero(nodes, values) -> Fraction:
    total = Fraction(0)
    for k, (xk, yk) in enumerate(zip(nodes, values)):
        weight = Fraction(1)
        for j, xj in enumerate(nodes):
            if j != k:
                weight *= (-xj) / (xk - xj)
        total += yk * weight
    return total


def derivative_by_central_differences(expr: PolyExpr, point, index: int) -> Fraction:
    """Independent derivative oracle: exact extrapolation of central
    differences.  For a polynomial the central difference is a polynomial in
    the squared step, so Lagrange extrapolation to step zero is exact."""
    degree = max(degree_bound(expr), 1)
    steps = [Fraction(k) for k in range(1, degree // 2 + 2)]
    nodes = []
    values = []
    for h in steps:
        plus = list(point)
        minus = list(point)
        plus[index] += h
        minus[index] -= h
        values.append((eval_rational(expr, plus) - eval_rational(expr, minus)) / (2 * h))
        nodes.append(h * h)
    return lagrange_at_zero(nodes, values)
