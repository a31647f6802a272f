"""The optimized GrossNumber operations against the expand-then-normalize
reference in reference_arith: equal term tuples, digit for digit."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_arith as ref
from grossone.arith import ArithConfig, GrossNumber

F = Fraction

rational_digits = st.fractions(min_value=F(-100), max_value=F(100), max_denominator=100)
# Floats on a 1/1000 grid keep the series far from overflow while still
# rounding, so equal results mean equal operations in equal order.
float_digits = st.integers(min_value=-10**6, max_value=10**6).map(lambda n: n / 1000)
powers = st.integers(min_value=-6, max_value=6)


def gross_numbers(digits, max_size=6):
    return st.lists(st.tuples(powers, digits), max_size=max_size).map(GrossNumber)


rational_gross = gross_numbers(rational_digits)
mixed_gross = gross_numbers(st.one_of(rational_digits, float_digits))
orders = st.integers(min_value=1, max_value=12)
modes = st.sampled_from(["rational", "float"])


@given(a=rational_gross, b=rational_gross.filter(bool), order=orders, mode=modes)
@settings(deadline=None, max_examples=200)
def test_divide_matches_reference(a, b, order, mode):
    config = ArithConfig(truncation_order=order, digit_mode=mode)
    assert a.divide(b, config).terms == ref.divide(a, b, config).terms


@given(a=mixed_gross, b=mixed_gross.filter(bool), order=orders, mode=modes)
@settings(deadline=None, max_examples=100)
def test_divide_matches_reference_with_float_digits(a, b, order, mode):
    config = ArithConfig(truncation_order=order, digit_mode=mode)
    assert a.divide(b, config).terms == ref.divide(a, b, config).terms


@given(a=mixed_gross, b=mixed_gross)
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
