import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grossone.arith import (
    ArithConfig,
    DEFAULT_CONFIG,
    GROSSONE,
    GROSSONE_INVERSE,
    GrossNumber,
    ONE,
    ParseError,
    ZERO,
    compare,
)
from grossone.cli import _GrossExprReader, main
from grossone.polyexpr import parse_expr

import reference_text
from helpers import nested, random_gross

F = Fraction
G = GROSSONE
GINV = GROSSONE_INVERSE

digits = st.fractions(min_value=F(-100), max_value=F(100), max_denominator=100)
powers = st.integers(min_value=-5, max_value=5)
gross_numbers = st.lists(st.tuples(powers, digits), max_size=4).map(GrossNumber)
nonzero_gross = gross_numbers.filter(lambda g: not g.is_zero())

# Texts of the canonical grammar of reference_text: signed terms p, p/q, G,
# pG, p/qG with optional ^k (k signed), joined by '+' or '-', spaces anywhere
# that grammar allows them.
_spaces = st.sampled_from(["", " ", "  "])
_uints = st.integers(min_value=0, max_value=10**6).map(str)
_rationals = st.one_of(_uints, st.tuples(_uints, st.integers(1, 999)).map(lambda t: f"{t[0]}/{t[1]}"))
_exponents = st.tuples(st.sampled_from(["", "+", "-"]), _uints).map("".join)
_terms = st.tuples(
    st.sampled_from(["", "+", "-"]),
    _spaces,
    st.one_of(
        _rationals,
        st.tuples(st.one_of(st.just(""), _rationals), st.one_of(st.just(""), _exponents.map("^".__add__)))
        .map(lambda t: f"{t[0]}G{t[1]}"),
    ),
).map(lambda t: t[0] + (t[1] if t[0] else "") + t[2])
canonical_texts = st.tuples(
    _spaces,
    _terms,
    st.lists(st.tuples(_spaces, st.sampled_from(["+", "-"]), _spaces, _terms).map("".join), max_size=4),
    _spaces,
).map(lambda t: t[0] + t[1] + "".join(t[2]) + t[3])


class TestNormalization:
    def test_merges_duplicate_grosspowers(self):
        assert GrossNumber([(0, 1), (0, 2)]).terms == ((0, F(3)),)

    def test_drops_zero_digits(self):
        assert GrossNumber([(1, 1), (-1, 0)]) == G

    def test_scaled_infinitesimal(self):
        assert GrossNumber([(-1, F(1, 4))]).terms == ((-1, F(1, 4)),)

    def test_sorted_strictly_descending(self):
        value = GrossNumber([(-2, 1), (3, 2), (0, 5)])
        assert value.terms == ((3, F(2)), (0, F(5)), (-2, F(1)))

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            value = random_gross(rng)
            assert GrossNumber(value.terms) == value

    def test_rejects_non_integer_grosspower(self):
        with pytest.raises(TypeError):
            GrossNumber([(F(1, 2), 1)])

    def test_rejects_non_numeric_digit(self):
        with pytest.raises(TypeError):
            GrossNumber([(0, "1")])

    def test_rejects_float_digit(self):
        with pytest.raises(TypeError):
            GrossNumber([(0, 0.5)])

    @pytest.mark.parametrize(
        "operation",
        [
            lambda: G + 0.5,
            lambda: 0.5 - G,
            lambda: G * 0.5,
            lambda: G / 0.5,
            lambda: G < 0.5,
            lambda: G.divide(0.5),
            lambda: compare(G, 0.5),
        ],
    )
    def test_rejects_float_operand(self, operation):
        with pytest.raises(TypeError):
            operation()


class TestAddition:
    def test_grossone_minus_grossone_is_zero(self):
        assert G + (-G) == ZERO
        assert G - G == ZERO

    def test_additive_identity(self):
        rng = random.Random(11)
        for _ in range(20):
            value = random_gross(rng)
            assert ZERO + value == value

    def test_termwise(self):
        assert (2 * G + 3) + (G - 3) == 3 * G


class TestMultiplication:
    def test_inverse_of_grossone(self):
        assert GINV * G == ONE
        assert G * GINV == ONE

    def test_zero_annihilates(self):
        assert ZERO * G == ZERO
        assert G * ZERO == ZERO

    def test_binomial(self):
        assert (ONE + GINV) * (ONE - GINV) == ONE - GrossNumber([(-2, 1)])


class TestDivision:
    def test_grossone_over_grossone(self):
        assert G.divide(G) == ONE

    def test_series_expansion(self):
        quotient = G.divide(ONE + 4 * G, ArithConfig(truncation_order=3))
        assert quotient.coefficient(0) == F(1, 4)
        assert quotient.coefficient(-1) == F(-1, 16)
        assert quotient.coefficient(-2) == F(1, 64)

    def test_monomial_divisor_exact(self):
        assert (6 * G + 2).divide(2) == 3 * G + ONE
        numerator = GrossNumber([(3, F(5, 7)), (0, 2), (-4, F(-1, 3))])
        divisor = GrossNumber([(-2, F(2, 9))])
        assert numerator.divide(divisor) * divisor == numerator

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            G.divide(ZERO)

    @pytest.mark.parametrize("k", [2, 8])
    def test_residual_bound_seeded(self, k):
        rng = random.Random(100 + k)
        config = ArithConfig(truncation_order=k)
        for trial in range(80):
            a = random_gross(rng)
            b = random_gross(rng, nonzero=True)
            if trial % 5 == 0:
                b = GrossNumber([b.terms[0]])
            quotient = a.divide(b, config)
            residual = a - quotient * b
            if len(b.terms) == 1:
                assert residual.is_zero()
            elif not residual.is_zero():
                assert not a.is_zero()
                assert residual.leading_power <= a.leading_power - k

    @given(a=gross_numbers, b=nonzero_gross)
    @settings(deadline=None, max_examples=150)
    def test_residual_bound_property(self, a, b):
        quotient = a.divide(b)
        residual = a - quotient * b
        if len(b.terms) == 1:
            assert residual.is_zero()
        elif not residual.is_zero():
            assert residual.leading_power <= a.leading_power - DEFAULT_CONFIG.truncation_order


class TestComparison:
    def test_grossone_exceeds_finite(self):
        assert compare(G, 10**6) == 1

    def test_infinitesimal_positive(self):
        assert compare(GINV, 0) == 1

    def test_reflexive(self):
        value = GrossNumber([(2, 3), (0, -1)])
        assert compare(value, value) == 0

    @given(a=gross_numbers, b=gross_numbers)
    @settings(deadline=None, max_examples=150)
    def test_antisymmetric(self, a, b):
        assert compare(a, b) == -compare(b, a)

    @given(a=gross_numbers, b=gross_numbers, c=gross_numbers)
    @settings(deadline=None, max_examples=150)
    def test_transitive(self, a, b, c):
        ordered = sorted([a, b, c])
        assert compare(ordered[0], ordered[1]) <= 0
        assert compare(ordered[1], ordered[2]) <= 0
        assert compare(ordered[0], ordered[2]) <= 0

    @given(a=gross_numbers, b=gross_numbers)
    @settings(deadline=None, max_examples=200)
    def test_order_oracle(self, a, b):
        # With grosspowers in [-5, 5] and digit magnitudes <= 100, a
        # substitution point of 10^9 is far beyond the dominance threshold.
        evaluated = (a - b).evaluate_at(10**9)
        expected = 0 if evaluated == 0 else (1 if evaluated > 0 else -1)
        assert compare(a, b) == expected


class TestParts:
    def test_finite_part_reads_order_zero(self):
        assert (3 * G + 5 - 2 * GINV).finite_part() == 5

    def test_finite_part_of_infinitesimal(self):
        assert GINV.finite_part() == 0

    def test_finite_part_of_series(self):
        assert (ONE - GINV).finite_part() == 1

    def test_coefficient(self):
        assert (ONE - GINV).coefficient(-1) == -1
        assert ZERO.coefficient(3) == 0
        assert ZERO.coefficient(-3) == 0
        assert G.divide(ONE + 4 * G).coefficient(-1) == F(-1, 16)


class TestEvaluateAt:
    def test_polynomial_substitution(self):
        assert (G - ONE).evaluate_at(1000) == 999

    def test_infinitesimal_substitution(self):
        assert (2 * GINV).evaluate_at(4) == F(1, 2)

    def test_requires_positive_point(self):
        with pytest.raises(ValueError):
            G.evaluate_at(0)
        with pytest.raises(ValueError):
            G.evaluate_at(-2)


class TestPower:
    def test_power_zero_is_one(self):
        assert G.power(0) == ONE
        assert ZERO.power(0) == ONE

    def test_positive_power(self):
        assert (ONE + G).power(2) == GrossNumber([(2, 1), (1, 2), (0, 1)])

    def test_negative_power_via_division(self):
        assert G.power(-1) == GINV
        assert (2 * G).power(-1) == GrossNumber([(-1, F(1, 2))])

    def test_no_division_or_power_operators(self):
        # divide and power take the truncation order explicitly; an operator
        # would truncate silently at the default.
        for operation in (lambda: G / 2, lambda: 2 / G, lambda: G ** 2):
            with pytest.raises(TypeError):
                operation()


class TestFieldIdentities:
    @given(a=gross_numbers)
    @settings(deadline=None, max_examples=150)
    def test_identities_single(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO

    @given(a=gross_numbers, b=gross_numbers, c=gross_numbers)
    @settings(deadline=None, max_examples=150)
    def test_commutativity_and_distributivity(self, a, b, c):
        assert a * b == b * a
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c


class TestText:
    def test_parse_examples(self):
        assert GrossNumber.parse("1G^1 + -1G^0") == G - ONE
        assert str(GrossNumber.parse("1G^1 + -1G^0")) == "G - 1"
        assert GrossNumber.parse("3/4") == GrossNumber([(0, F(3, 4))])
        assert GrossNumber.parse("1/4 - 1/16G^-1") == GrossNumber([(0, F(1, 4)), (-1, F(-1, 16))])

    def test_format_conventions(self):
        assert str(ZERO) == "0"
        assert str(G) == "G"
        assert str(-G) == "-G"
        assert str(3 * G) == "3G"
        assert str(GrossNumber([(2, 1)])) == "G^2"
        assert str(GrossNumber([(0, 1), (-1, -1)])) == "1 - G^-1"
        assert str(GrossNumber([(1, F(-1, 2)), (0, F(3, 4))])) == "-1/2G + 3/4"

    def test_round_trip_frozen(self):
        for text in ["G - 1", "3/4", "1/4 - 1/16G^-1", "-2G^3 + G - 7/2G^-2"]:
            assert str(GrossNumber.parse(text)) == text

    @given(value=gross_numbers)
    @settings(deadline=None, max_examples=200)
    def test_round_trip_property(self, value):
        assert GrossNumber.parse(str(value)) == value
        assert str(GrossNumber.parse(str(value))) == str(value)

    @pytest.mark.parametrize("bad", ["", "1G^", "++1", "2x", "1 2", "G^1.5", "1/0", "--3"])
    def test_parse_errors_carry_position(self, bad):
        with pytest.raises(ParseError) as info:
            GrossNumber.parse(bad)
        assert info.value.pos >= 0

    @pytest.mark.parametrize(
        "text, value",
        [
            ("2/3^2", GrossNumber([(0, F(2, 9))])),
            ("1/2*G", GrossNumber([(1, F(1, 2))])),
            ("G/2", GrossNumber([(1, F(1, 2))])),
            ("3G^2", GrossNumber([(2, 3)])),
            ("(3G)^2", GrossNumber([(2, 9)])),
            ("-2G^3", GrossNumber([(3, -2)])),
            ("1/16G^-1", GrossNumber([(-1, F(1, 16))])),
            ("+3", GrossNumber([(0, 3)])),
            ("3G ^ 2", GrossNumber([(2, 3)])),
            ("(1 + G)^2 / 2", GrossNumber([(2, F(1, 2)), (1, 1), (0, F(1, 2))])),
        ],
    )
    def test_meaning_of_the_canonical_term(self, text, value):
        # A rational binds to G only when G follows at once, and the '^'
        # after that G belongs to the term.
        assert GrossNumber.parse(text) == value

    @given(value=gross_numbers, order=st.sampled_from([1, 8, 40]))
    @settings(deadline=None, max_examples=100)
    def test_gross_eval_reads_its_own_output(self, value, order):
        out = io.StringIO()
        assert main(["gross", "eval", "--trunc", str(order), "--", str(value)], out=out) == 0
        assert out.getvalue() == str(value) + "\n"
        assert GrossNumber.parse(str(value)) == value

    @given(text=canonical_texts)
    @settings(deadline=None, max_examples=300)
    def test_parse_agrees_with_the_canonical_reader(self, text):
        assert GrossNumber.parse(text) == reference_text.parse(text)


class TestScanner:
    """Gross-number text (read by GrossNumber.parse, "gross", and by the
    calculator, "calc") and polynomials ("poly") share one expression
    reader; their messages and positions are pinned here."""

    @pytest.mark.parametrize(
        "reader, text, message",
        [
            ("gross", "1/0", "division by zero at position 1: '/0'"),
            ("gross", "1G^", "expected an unsigned integer at position 3: '<end of input>'"),
            ("gross", "2x", "unexpected trailing input at position 1: 'x'"),
            ("gross", "3 G", "unexpected trailing input at position 2: 'G'"),
            ("gross", "1/0G", "zero denominator at position 2: '0G'"),
            ("gross", "1/(1+G)", "division by more than one term is not exact at position 1: '/(1+G)'"),
            ("gross", "(1+G)^-1", "division by more than one term is not exact at position 5: '^-1'"),
            ("gross", "(G - G)^-2", "division by zero at position 7: '^-2'"),
            ("gross", "3G^2^3", "a power of a power needs parentheses at position 4: '^3'"),
            ("calc", "1/(1+G)", None),
            ("calc", "1 / (G - G)", "division by zero at position 2: '/ (G - G)'"),
            ("poly", "1/0", "zero denominator at position 2: '0'"),
            ("poly", "1//2", "expected an unsigned integer at position 2: '/2'"),
            ("poly", "(x1", "expected ')' at position 3: '<end of input>'"),
            ("poly", "x1 x2", "unexpected trailing input at position 3: 'x2'"),
            ("poly", "x3", "variable x3 out of range (declared dimension 2) at position 1: '3'"),
            ("calc", "(G", "expected ')' at position 2: '<end of input>'"),
            ("calc", "G G", "unexpected trailing input at position 2: 'G'"),
            ("calc", "2^x", "expected an unsigned integer at position 2: 'x'"),
            ("calc", "G +", "expected a number, 'G', or '(' at position 3: '<end of input>'"),
            pytest.param("poly", nested(100, "x1"), None, id="poly-nesting-100"),
            pytest.param(
                "poly", nested(101, "x1"),
                "parentheses nested deeper than 100 levels at position 100: '(x1)))))))))'",
                id="poly-nesting-101",
            ),
            pytest.param("calc", nested(100, "G"), None, id="calc-nesting-100"),
            pytest.param(
                "calc", nested(101, "G"),
                "parentheses nested deeper than 100 levels at position 100: '(G))))))))))'",
                id="calc-nesting-101",
            ),
        ],
    )
    def test_messages_and_positions(self, reader, text, message):
        read = {
            "gross": GrossNumber.parse,
            "poly": lambda t: parse_expr(t, 2),
            "calc": lambda t: _GrossExprReader(t, DEFAULT_CONFIG).read_all(),
        }[reader]
        if message is None:  # the text parses
            read(text)
            return
        with pytest.raises(ParseError) as info:
            read(text)
        assert str(info.value) == message


class TestConfig:
    def test_truncation_order_must_be_positive(self):
        with pytest.raises(ValueError):
            ArithConfig(truncation_order=0)

