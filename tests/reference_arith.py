"""Reference gross-number arithmetic for tests: expand fully, then normalize.

Every result here is built by the public ``GrossNumber(terms)`` constructor,
which merges duplicate grosspowers in a dict, drops zero digits and sorts;
nothing calls the optimized ``GrossNumber`` operators.  ``divide`` is the
expand-then-truncate series division: it forms every term of
``sum_{i < K} (-r)^i`` and of the full product, and only then drops the
terms below ``leading - K``.  The optimized operations must return equal
term tuples.
"""

from __future__ import annotations

from fractions import Fraction

from grossone.arith import DEFAULT_CONFIG, ArithConfig, GrossNumber

ONE = GrossNumber([(0, 1)])


def add(a: GrossNumber, b: GrossNumber) -> GrossNumber:
    return GrossNumber(a.terms + b.terms)


def neg(a: GrossNumber) -> GrossNumber:
    return GrossNumber((p, -d) for p, d in a.terms)


def sub(a: GrossNumber, b: GrossNumber) -> GrossNumber:
    return add(a, neg(b))


def mul(a: GrossNumber, b: GrossNumber) -> GrossNumber:
    return GrossNumber([(pa + pb, da * db) for pa, da in a.terms for pb, db in b.terms])


def power(a: GrossNumber, exponent: int) -> GrossNumber:
    """Nonnegative integer power by repeated multiplication."""
    result = ONE
    for _ in range(exponent):
        result = mul(result, a)
    return result


def divide(a: GrossNumber, b: GrossNumber, config: ArithConfig = DEFAULT_CONFIG) -> GrossNumber:
    if b.is_zero():
        raise ZeroDivisionError("gross-number division by zero")
    q, beta = b.terms[0]
    lead_reciprocal = GrossNumber([(-q, Fraction(1) / beta)])
    # r = b / (beta * G^q) - 1: strictly negative relative grosspowers.
    tail = GrossNumber((p - q, d / beta) for p, d in b.terms[1:])
    geometric = ONE
    acc = ONE
    for _ in range(config.truncation_order - 1):
        if tail.is_zero():
            break
        acc = mul(acc, neg(tail))
        if acc.is_zero():
            break
        geometric = add(geometric, acc)
    result = mul(mul(a, lead_reciprocal), geometric)
    if not tail.is_zero() and not result.is_zero():
        cutoff = result.leading_power - config.truncation_order
        result = GrossNumber((p, d) for p, d in result.terms if p >= cutoff)
    return result
