"""The optimized GrossNumber operations against the expand-then-normalize
reference in reference_arith: equal term tuples, digit for digit."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_arith as ref
from grossone.arith import ArithConfig, GrossNumber, compare

F = Fraction

rational_digits = st.fractions(min_value=F(-100), max_value=F(100), max_denominator=100)
powers = st.integers(min_value=-6, max_value=6)


def gross_numbers(digits, max_size=6):
    return st.lists(st.tuples(powers, digits), max_size=max_size).map(GrossNumber)


rational_gross = gross_numbers(rational_digits)
orders = st.integers(min_value=1, max_value=12)


@given(a=rational_gross, b=rational_gross.filter(bool), order=orders)
@settings(deadline=None, max_examples=200)
def test_divide_matches_reference(a, b, order):
    config = ArithConfig(truncation_order=order)
    assert a.divide(b, config).terms == ref.divide(a, b, config).terms


wide_digits = st.builds(
    Fraction,
    st.integers(min_value=-(2**64), max_value=2**64),
    st.integers(min_value=1, max_value=2**64),
)
nonzero_wide_digits = wide_digits.filter(bool)


@st.composite
def deep_divisions(draw):
    """(a, b, K) with K up to 40, digits up to 2^64, a multi-term divisor
    whose trailing terms leave gaps and may or may not include the level
    just below its leading one, and a dividend with terms on both sides
    of the cutoff."""
    order = draw(st.integers(min_value=1, max_value=40))
    top = draw(st.integers(-3, 3))
    depths = draw(st.sets(st.integers(min_value=1, max_value=order + 6), max_size=4))
    a = GrossNumber(
        [(top, draw(nonzero_wide_digits))] + [(top - k, draw(wide_digits)) for k in depths]
    )
    q = draw(st.integers(-3, 3))
    first = draw(st.booleans())
    gaps = draw(st.sets(st.integers(min_value=2, max_value=9), min_size=0 if first else 1, max_size=3))
    b = GrossNumber(
        [(q, draw(nonzero_wide_digits))]
        + [(q - j, draw(nonzero_wide_digits)) for j in sorted(gaps | ({1} if first else set()))]
    )
    return a, b, order


@given(case=deep_divisions())
@settings(deadline=None, max_examples=150)
def test_deep_divide_matches_reference(case):
    a, b, order = case
    config = ArithConfig(truncation_order=order)
    assert a.divide(b, config).terms == ref.divide(a, b, config).terms


@pytest.mark.parametrize(
    "dividend, order, expected",
    [
        ("1 + G^-1", 8, "1 - G^-8"),
        ("1", 1, "1"),
        ("1", 2, "1 - G^-1"),
        ("1", 8, "1 - G^-1 + G^-2 - G^-3 + G^-4 - G^-5 + G^-6 - G^-7"),
    ],
)
def test_divide_keeps_the_truncated_series_lowest_level(dividend, order, expected):
    """Level leading - K is the K-term geometric series' digit, not the
    exact quotient's: (1+G^-1)/(1+G^-1) keeps the -G^-8 that the ninth
    series term would cancel."""
    a, b = GrossNumber.parse(dividend), GrossNumber.parse("1 + G^-1")
    config = ArithConfig(truncation_order=order)
    assert str(a.divide(b, config)) == expected
    assert a.divide(b, config).terms == ref.divide(a, b, config).terms


@given(a=rational_gross, b=rational_gross)
@settings(deadline=None, max_examples=200)
def test_ring_operations_match_reference(a, b):
    assert (a + b).terms == ref.add(a, b).terms
    assert (a - b).terms == ref.sub(a, b).terms
    assert (-a).terms == ref.neg(a).terms
    assert (a * b).terms == ref.mul(a, b).terms


@given(a=rational_gross, scalar=st.one_of(st.integers(-5, 5), rational_digits))
@settings(deadline=None, max_examples=100)
def test_scalar_operands_match_reference(a, scalar):
    b = GrossNumber([(0, scalar)])
    assert (a + scalar).terms == (scalar + a).terms == ref.add(a, b).terms
    assert (scalar - a).terms == ref.sub(b, a).terms
    assert (a * scalar).terms == (scalar * a).terms == ref.mul(a, b).terms


@given(a=gross_numbers(rational_digits, max_size=3), exponent=st.integers(0, 9))
@settings(deadline=None, max_examples=100)
def test_power_matches_repeated_multiplication(a, exponent):
    assert a.power(exponent).terms == ref.power(a, exponent).terms


@pytest.mark.parametrize("order", [1, 3, 8])
@given(a=gross_numbers(rational_digits, max_size=3).filter(bool), exponent=st.integers(1, 4))
@settings(deadline=None, max_examples=40)
def test_negative_power_matches_reference_division(order, a, exponent):
    config = ArithConfig(truncation_order=order)
    expected = ref.divide(ref.ONE, ref.power(a, exponent), config)
    assert a.power(-exponent, config).terms == expected.terms


@st.composite
def overlapping_pairs(draw):
    """Pairs that often agree on a prefix of their terms, so that the walk
    in ``compare`` has to reach a lower grosspower before it decides."""
    a = draw(rational_gross)
    kept = draw(st.integers(0, len(a.terms)))
    b = GrossNumber(a.terms[:kept] + draw(gross_numbers(rational_digits, max_size=3)).terms)
    return draw(st.permutations((a, b)))


@given(pair=st.one_of(st.tuples(rational_gross, rational_gross), overlapping_pairs()))
@settings(deadline=None, max_examples=300)
def test_compare_matches_sign_of_reference_difference(pair):
    a, b = pair
    expected = ref.sub(a, b).sign()
    assert compare(a, b) == expected
    assert ((a < b), (a <= b), (a > b), (a >= b)) == (
        expected < 0, expected <= 0, expected > 0, expected >= 0
    )


@given(a=rational_gross, scalar=st.one_of(st.integers(-5, 5), rational_digits))
@settings(deadline=None, max_examples=100)
def test_compare_with_scalar_matches_reference(a, scalar):
    b = GrossNumber([(0, scalar)])
    assert compare(a, scalar) == ref.sub(a, b).sign() == -compare(scalar, a)
