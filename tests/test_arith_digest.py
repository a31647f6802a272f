"""Pinned results of series division and gross elimination.

The integer long division behind ``GrossNumber.divide``, Bareiss's exact
``//`` and ``exact_quotient`` is shared code; these digests hash the exact
terms of thousands of seeded divisions and linear solves, so any change to
a digit, to the truncation level or to an error message shows.
"""

import hashlib
import random
from fractions import Fraction

from grossone.arith import ArithConfig, GrossNumber
from grossone.linalg import SingularMatrixError, solve_linear

DIVIDE_DIGEST = "57ccf253db66176198f7cffdbb34dbe32c482ee005063b502e780602c8905806"
SOLVE_DIGEST = "68d12ece56ef35a945ea479f0d2c9ce63b339976c7cc29d63d4db105fa43145f"


def _digit(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 6))


def _dividend(rng: random.Random) -> GrossNumber:
    kind = rng.randrange(10)
    if kind == 0:
        return GrossNumber()
    count = 1 if kind == 1 else rng.randint(2, 5)
    return GrossNumber((rng.randint(-6, 6), _digit(rng)) for _ in range(count))


def _divisor(rng: random.Random) -> GrossNumber:
    """Leading term at a random grosspower, then trailing terms below it with
    gaps; about half have a term one level below the leading one."""
    top = rng.randint(-3, 3)
    terms = [(top, _digit(rng))]
    if rng.random() < 0.5:
        terms.append((top - 1, _digit(rng)))
    power = top - 1
    for _ in range(rng.randint(0 if len(terms) == 2 else 1, 3)):
        power -= rng.randint(1, 4)
        terms.append((power, _digit(rng)))
    return GrossNumber(terms)


def _text(value: GrossNumber) -> str:
    return ";".join(f"{p}:{d}" for p, d in value.terms)


def test_divide_digest():
    rng = random.Random(20240601)
    digest = hashlib.sha256()
    for call in range(4000):
        order = 1 + call % 40
        a, b = _dividend(rng), _divisor(rng)
        digest.update(f"{order}|{_text(a.divide(b, ArithConfig(order)))}\n".encode())
    assert digest.hexdigest() == DIVIDE_DIGEST


def _entry(rng: random.Random) -> GrossNumber:
    count = rng.choice((0, 1, 1, 2, 3))
    return GrossNumber((rng.randint(-2, 2), _digit(rng)) for _ in range(count))


def test_solve_linear_digest():
    rng = random.Random(20240602)
    digest = hashlib.sha256()
    for call in range(500):
        n = 1 + call % 4
        matrix = [[_entry(rng) for _ in range(n)] for _ in range(n)]
        if n > 1 and call % 7 == 0:
            matrix[-1] = list(matrix[0])
        rhs = [_entry(rng) for _ in range(n)]
        try:
            solution = solve_linear(matrix, rhs, ArithConfig(rng.randint(1, 12)))
            line = ",".join(_text(x) for x in solution)
        except SingularMatrixError as exc:
            line = f"singular: {exc}"
        digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == SOLVE_DIGEST
