import random
from fractions import Fraction

import pytest

import reference_poly
from grossone.arith import GrossNumber, ParseError
from grossone.polyexpr import differentiate, eval_gross, eval_rational, parse_expr

from helpers import (
    derivative_by_central_differences,
    random_expr,
    random_fraction,
    random_gross,
)

F = Fraction


class TestParse:
    def test_quadratic_objective(self):
        expr = parse_expr("1/2*x1^2 + 1/6*x2^2", 2)
        assert eval_rational(expr, [F(2), F(3)]) == F(1, 2) * 4 + F(1, 6) * 9

    def test_linear_constraint(self):
        expr = parse_expr("1 - x1", 1)
        assert eval_rational(expr, [F(1, 4)]) == F(3, 4)

    def test_cancellation_gives_zero_polynomial(self):
        assert parse_expr("x1*x2 - x2*x1", 2) == {}
        assert parse_expr("0*x1 + 0", 1) == {}

    def test_canonical_form(self):
        assert parse_expr("(1+x1)^2", 1) == parse_expr("1 + 2*x1 + x1^2", 1)
        assert parse_expr(" x2*x1 - 1/2 ", 2) == {(1, 1): F(1), (0, 0): F(-1, 2)}
        assert parse_expr("(x1 - x2)^0", 2) == {(0, 0): F(1)}
        assert parse_expr("-x1^99999999", 1) == {(99999999,): F(-1)}

    def test_power_term_limit(self):
        # A base of t terms has at most C(e + t - 1, e) monomials in its e-th
        # power: 496 for (1+x1+x2)^30, 528 for the 31st power.
        assert len(parse_expr("(1+x1+x2)^30", 2)) == 496
        with pytest.raises(ParseError, match="power with more than 500 terms at position 9"):
            parse_expr("(1+x1+x2)^31", 2)
        with pytest.raises(ParseError, match="at position 6"):
            parse_expr("(1+x1)^500", 1)

    def test_precedence_power_before_unary_minus(self):
        expr = parse_expr("-x1^2", 1)
        assert eval_rational(expr, [F(3)]) == -9

    def test_precedence_mul_before_add(self):
        expr = parse_expr("1 + 2*x1", 1)
        assert eval_rational(expr, [F(5)]) == 11

    def test_parentheses(self):
        expr = parse_expr("(1 + x1)^3", 1)
        assert eval_rational(expr, [F(1)]) == 8

    def test_constant_folding(self):
        assert parse_expr("2*3 + 1/2", 1) == {(0,): F(13, 2)}

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError):
            parse_expr("x3", 2)
        with pytest.raises(ParseError):
            parse_expr("x0", 2)

    @pytest.mark.parametrize("bad", ["", "x", "1 +", "x1^-2", "x1 x2", "(x1", "1//2"])
    def test_errors_carry_position(self, bad):
        with pytest.raises(ParseError) as info:
            parse_expr(bad, 2)
        assert info.value.pos >= 0

    def test_variables(self):
        # Each monomial has one exponent per declared variable.
        assert parse_expr("x1*x3 + 2", 3) == {(1, 0, 1): F(1), (0, 0, 0): F(2)}


class TestDifferentiate:
    def test_half_square(self):
        expr = parse_expr("1/2*x1^2", 2)
        assert differentiate(expr, 0) == parse_expr("x1", 2)

    def test_sixth_square_second_variable(self):
        expr = parse_expr("1/6*x2^2", 2)
        assert differentiate(expr, 1) == parse_expr("1/3*x2", 2)

    def test_constant_derivative_is_zero(self):
        assert differentiate(parse_expr("7/3", 1), 0) == {}

    def test_other_variable_is_constant(self):
        expr = parse_expr("x1^2", 2)
        assert differentiate(expr, 1) == {}

    def test_mixed_monomial(self):
        expr = parse_expr("3*x1^2*x2 - x2", 2)
        assert differentiate(expr, 0) == parse_expr("6*x1*x2", 2)
        assert differentiate(expr, 1) == parse_expr("3*x1^2 - 1", 2)

    def test_against_central_difference_oracle(self):
        rng = random.Random(314)
        for _ in range(25):
            dimension = rng.randint(1, 3)
            expr = parse_expr(random_expr(rng, dimension, depth=3), dimension)
            index = rng.randrange(dimension)
            point = [random_fraction(rng, 5) for _ in range(dimension)]
            derivative = differentiate(expr, index)
            assert eval_rational(derivative, point) == derivative_by_central_differences(
                expr, point, index
            )


class TestAgainstReference:
    """Expanded polynomials against direct evaluation of the same text."""

    def test_eval_rational_matches_text(self):
        rng = random.Random(2024)
        for _ in range(200):
            dimension = rng.randint(1, 3)
            text = random_expr(rng, dimension, depth=4)
            point = [random_fraction(rng, 5) for _ in range(dimension)]
            assert eval_rational(parse_expr(text, dimension), point) == reference_poly.evaluate(
                text, point
            ), text

    def test_eval_gross_matches_text(self):
        rng = random.Random(4048)
        for _ in range(200):
            dimension = rng.randint(1, 3)
            text = random_expr(rng, dimension, depth=3)
            point = tuple(
                random_gross(rng, max_terms=3, power_low=-2, power_high=1, bound=5)
                for _ in range(dimension)
            )
            assert eval_gross(parse_expr(text, dimension), point) == reference_poly.evaluate(
                text, point
            ), text


class TestEvalGross:
    def test_matches_rational_on_finite_points(self):
        rng = random.Random(27)
        for _ in range(20):
            dimension = rng.randint(1, 3)
            expr = parse_expr(random_expr(rng, dimension, depth=3), dimension)
            point = [random_fraction(rng, 5) for _ in range(dimension)]
            gross_value = eval_gross(expr, point)
            assert gross_value.finite_part() == eval_rational(expr, point)
            assert all(p == 0 for p, _ in gross_value.terms)

    def test_constraint_series(self):
        expr = parse_expr("x1 + x2 - 1", 2)
        point = (
            GrossNumber([(0, F(1, 4)), (-1, F(-1, 16))]),
            GrossNumber([(0, F(3, 4)), (-1, F(-3, 16))]),
        )
        value = eval_gross(expr, point)
        assert value.finite_part() == 0
        assert value.coefficient(-1) == F(-1, 4)

    def test_bound_constraint_series(self):
        expr = parse_expr("1 - x1", 1)
        value = eval_gross(expr, (GrossNumber([(0, 1), (-1, -1)]),))
        assert value == GrossNumber([(-1, 1)])

    def test_constant(self):
        assert eval_gross(parse_expr("5/2", 1), [0]) == GrossNumber([(0, F(5, 2))])

    def test_first_order_taylor_identity(self):
        # For x = x0 + G^-1 x1 the order-0 coefficient is the value at x0 and
        # the order -1 coefficient is the directional derivative along x1.
        rng = random.Random(555)
        for _ in range(20):
            dimension = rng.randint(1, 3)
            expr = parse_expr(random_expr(rng, dimension, depth=3), dimension)
            base = [random_fraction(rng, 5) for _ in range(dimension)]
            direction = [random_fraction(rng, 5) for _ in range(dimension)]
            point = tuple(GrossNumber([(0, b), (-1, d)]) for b, d in zip(base, direction))
            value = eval_gross(expr, point)
            assert value.finite_part() == eval_rational(expr, base)
            directional = sum(
                (eval_rational(differentiate(expr, i), base) * direction[i]
                 for i in range(dimension)),
                F(0),
            )
            assert value.coefficient(-1) == directional

