"""Exact arithmetic for gross-numbers.

A gross-number is a finite signed series ``sum_p c_p * G^p`` built on the
infinite unit G (grossone): G is larger than every finite number, ``G^0 = 1``,
and ``G^-1`` is a positive infinitesimal with ``G * G^-1 = 1``.  Grosspowers
``p`` are integers; grossdigits ``c_p`` are exact rationals (``Fraction``;
ints are accepted and converted, floats are refused).  A value is finite
when its only grosspower is 0, infinite when a positive grosspower appears,
and infinitesimal when every grosspower is negative.

Addition, subtraction and multiplication are exact.  Division by a
multi-term divisor is the one truncated operation.  Writing the divisor as
``b = beta * G^q * (1 + r)``, where ``beta * G^q`` is its leading term and
``r`` collects the trailing terms divided by it, the quotient is the
geometric series

    a / b  ~  a * (1/beta) * G^-q * sum_{i < K} (-r)^i

cut to the K + 1 levels ``L .. L - K`` below and at its leading grosspower
``L = leading(a) - q``; ``K`` is ``ArithConfig.truncation_order``.  It is
computed as an integer long division (pseudo-division, Knuth TAOCP Vol. 2
4.6.1): the digits of ``a`` and ``b`` that reach those levels are scaled to
ints, the dividend is multiplied by the K + 1st power of the divisor's
integer leading digit, and each quotient digit is then one exact integer
division; one ``Fraction`` is built per output digit.  Levels
``L .. L - K + 1`` are the exact quotient's digits.  Level ``L - K`` is the
series', which is the exact digit minus ``a'_L * (-r_{-1})^K`` (the leading
term of the series power left out; ``a'_L`` is the quotient's leading digit
and ``r_{-1}`` the digit of ``r`` at ``G^-1``, 0 if absent), so
``(1 + G^-1) / (1 + G^-1)`` is ``1 - G^-8`` at K = 8.  The residual
``a - (a/b)*b`` has leading grosspower at most ``leading(a) - K``, and the
quotient is exact whenever ``b`` is a single term.  ``divide`` and ``power``
take K explicitly; there is no ``/`` or ``**`` operator to truncate silently.

Ordering is total: a nonzero gross-number takes the sign of its
highest-grosspower digit, and ``a < b`` means ``sign(a - b) < 0``.  Comparison
walks the two term tuples and stops at the first grosspower where they
differ, without forming ``a - b``.

Integer Laurent polynomials in G (``_IntPoly``) live here too: a
gross-number times the lcm of its digits' denominators, dense from its
highest grosspower.  ``linalg``'s Bareiss elimination runs on them, and one
top-down long division (``_long_division``) serves its exact ``//``, the
exact quotient it tries before a series division, and that series division.

So does the one expression reader (``_ExpressionReader``: parentheses at
most 100 deep, and a power of a multi-term base bounded to 500 terms before
it is expanded) that ``polyexpr`` and gross-number text share.  Gross-number
text has one reader, ``_GrossExprReader``: ``gross eval`` runs it with a
truncation order and ``GrossNumber.parse`` without one, refusing a division
by more than one term, so each reads what ``str`` prints.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple, Union

__all__ = [
    "ArithConfig",
    "DEFAULT_CONFIG",
    "GrossNumber",
    "ParseError",
    "ZERO",
    "ONE",
    "GROSSONE",
    "GROSSONE_INVERSE",
    "as_gross",
    "compare",
]

Scalar = Union[int, Fraction, "GrossNumber"]


class ParseError(ValueError):
    """Malformed gross-number or expression text; carries the position."""

    def __init__(self, message: str, text: str, pos: int):
        snippet = text[pos:pos + 12] or "<end of input>"
        super().__init__(f"{message} at position {pos}: {snippet!r}")
        self.text = text
        self.pos = pos


# The most decimal digits Python converts between an int and text; 0 means
# no limit, as on Pythons older than 3.10.7, which lack the function.
_str_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _decimal_int(digits: str) -> int:
    """``int(digits)`` for a string of decimal digits; one longer than
    ``_str_digit_limit`` raises ValueError before the conversion is tried."""
    limit = _str_digit_limit()
    if 0 < limit < len(digits):
        raise ValueError(f"integer of {len(digits)} digits is over the {limit}-digit limit")
    return int(digits)


def _over_str_limit(value) -> bool:
    """Whether the int or Fraction ``value`` holds an int that may have more
    decimal digits than ``_str_digit_limit``: one of b bits has at most
    floor(b log10 2) + 1, bounded here from the bit length alone."""
    limit = _str_digit_limit()
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0 < limit <= bits * 30103 // 100000


def _content_lines(text: str):
    """``(line number from 1, stripped content)`` for each line of an input
    file that holds more than whitespace and a '#' comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield line_no, stripped


def _square_and_multiply(base, exponent: int, one, multiply):
    """``base`` to the power ``exponent >= 0`` in O(log exponent) calls of
    ``multiply``, starting from ``one``; exact whenever ``multiply`` is."""
    result = one
    while exponent:
        if exponent & 1:
            result = multiply(result, base)
        exponent >>= 1
        if exponent:
            base = multiply(base, base)
    return result


# Parentheses nest at most this deep in an expression.  A level costs four
# Python frames, well inside the default recursion limit of 1000.
_MAX_NESTING = 100

# The most terms a '^' may make from a multi-term base, bounded before the
# base is expanded.  On a 2-core Xeon the expansion costs about 0.3 s for
# (1+G)^500, 1 s for (1+G)^1000 and 0.23 s for the 990 monomials of
# (1+x1+x2)^43.
_MAX_POWER_TERMS = 500


class _ExpressionReader:
    """Recursive-descent reader for the expression grammar shared by the
    polynomials of ``polyexpr`` and gross-number text (``_GrossExprReader``):

        expr   := term (('+'|'-') term)*           term := factor (op factor)*
        factor := ['+'|'-'] atom ['^' exponent]    atom := '(' expr ')' | leaf

    with whitespace allowed between tokens.  A subclass gives ``read_leaf``,
    ``read_exponent``, ``term_operators`` ({op: function of two values}),
    ``add``, ``negate``, ``power`` and ``power_terms`` (a bound on the terms
    of a power).  A power and a term operator run with the cursor at their
    '^' or operator, so an error they raise points there.  Parentheses
    nested deeper than ``_MAX_NESTING`` levels are a ParseError at the first
    '(' too many, and a power that may have more than ``_MAX_POWER_TERMS``
    terms is one at its '^'."""

    depth = 0

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")

    def read_uint(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an unsigned integer")
        try:
            return _decimal_int(self.text[start:self.pos])
        except ValueError as exc:
            self.pos = start
            raise self.error(str(exc)) from None

    read_exponent = read_uint

    def read_int(self) -> int:
        sign = 1
        if self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -1
            self.pos += 1
        return sign * self.read_uint()

    def read_rational(self) -> Fraction:
        numerator = self.read_uint()
        if self.peek() == "/":
            self.pos += 1
            mark = self.pos
            denominator = self.read_uint()
            if denominator == 0:
                self.pos = mark
                raise self.error("zero denominator")
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def read_atom(self):
        self.skip_ws()
        if self.peek() != "(":
            return self.read_leaf()
        if self.depth == _MAX_NESTING:
            raise self.error(f"parentheses nested deeper than {_MAX_NESTING} levels")
        self.depth += 1
        self.pos += 1
        inner = self.read_expr()
        self.skip_ws()
        self.expect(")")
        self.depth -= 1
        return inner

    def read_factor(self):
        self.skip_ws()
        sign = self.peek()
        if sign in ("+", "-"):
            self.pos += 1
        value = self.read_atom()
        self.skip_ws()
        if self.peek() == "^":
            caret = self.pos
            self.pos += 1
            self.skip_ws()
            exponent = self.read_exponent()
            end, self.pos = self.pos, caret
            if self.power_terms(value, exponent) > _MAX_POWER_TERMS:
                raise self.error(f"power with more than {_MAX_POWER_TERMS} terms")
            value = self.power(value, exponent)
            self.pos = end
        return self.negate(value) if sign == "-" else value

    def read_term(self):
        value = self.read_factor()
        while True:
            self.skip_ws()
            op, mark = self.peek(), self.pos
            if op not in self.term_operators:
                return value
            self.pos += 1
            rhs = self.read_factor()
            end, self.pos = self.pos, mark
            value = self.term_operators[op](value, rhs)
            self.pos = end

    def read_expr(self):
        value = self.read_term()
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                return value
            self.pos += 1
            rhs = self.read_term()
            value = self.add(value, self.negate(rhs) if op == "-" else rhs)


@dataclass(frozen=True)
class ArithConfig:
    """Knob for the one truncated operation (division).

    truncation_order: number K of geometric-series terms kept when inverting
        a multi-term divisor; must be >= 1.
    """

    truncation_order: int = 8

    def __post_init__(self) -> None:
        if self.truncation_order < 1:
            raise ValueError("truncation_order must be >= 1")


DEFAULT_CONFIG = ArithConfig()


def _coerce_digit(value) -> Fraction:
    if isinstance(value, bool):
        raise TypeError("grossdigit must be a number, not bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"grossdigit must be rational, got {type(value).__name__}")


class GrossNumber:
    """Immutable gross-number: terms sorted by strictly descending grosspower.

    Construction normalizes: duplicate grosspowers are merged, zero digits
    dropped.  Zero is the empty term list.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[Tuple[int, object]] = ()):
        acc: dict[int, Fraction] = {}
        for power, digit in terms:
            if isinstance(power, bool) or not isinstance(power, int):
                raise TypeError(f"grosspower must be a finite integer, got {power!r}")
            d = _coerce_digit(digit)
            if power in acc:
                acc[power] = acc[power] + d
            else:
                acc[power] = d
        self._terms = tuple(
            (p, acc[p]) for p in sorted(acc, reverse=True) if acc[p] != 0
        )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_terms(cls, terms: Tuple[Tuple[int, Fraction], ...]) -> "GrossNumber":
        """Wrap terms that are already normalized (strictly descending
        grosspowers, nonzero digits) without checking them."""
        value = object.__new__(cls)
        value._terms = terms
        return value

    # -- structure ------------------------------------------------------------

    @property
    def terms(self) -> Tuple[Tuple[int, Fraction], ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def leading_power(self):
        """Highest grosspower, or None for zero."""
        return self._terms[0][0] if self._terms else None

    @property
    def leading_digit(self):
        return self._terms[0][1] if self._terms else None

    def sign(self) -> int:
        if not self._terms:
            return 0
        lead = self._terms[0][1]
        return 1 if lead > 0 else -1

    def finite_part(self) -> Fraction:
        """Grossdigit at grosspower 0 (0 if absent)."""
        return self.coefficient(0)

    def coefficient(self, power: int) -> Fraction:
        for p, d in self._terms:
            if p == power:
                return d
            if p < power:
                break
        return Fraction(0)

    def evaluate_at(self, point) -> Fraction:
        """Substitute a positive finite rational for G; exact."""
        t = Fraction(point)
        if t <= 0:
            raise ValueError("substitution point must be positive")
        total = Fraction(0)
        for p, d in self._terms:
            total = total + d * t ** p
        return total

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "GrossNumber":
        other = _coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return GrossNumber._from_terms(_sum_terms(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self) -> "GrossNumber":
        return GrossNumber._from_terms(tuple((p, -d) for p, d in self._terms))

    def __sub__(self, other) -> "GrossNumber":
        other = _coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "GrossNumber":
        other = _coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "GrossNumber":
        other = _coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return GrossNumber._from_terms(_product_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def divide(self, other, config: ArithConfig = DEFAULT_CONFIG) -> "GrossNumber":
        """Truncated-series division.

        Exact (zero residual) when the divisor has a single term.  Otherwise
        the quotient has the K + 1 levels ``L .. L - K``, where
        ``L = leading(a) - leading(b)`` and K = config.truncation_order,
        built by integer long division in ``_series_quotient``.  Every level
        but ``L - K`` is the exact quotient's; ``L - K`` is the K-term
        geometric series' digit, the exact one minus ``a'_L * (-r_{-1})^K``
        (module docstring).  The residual ``a - (a/b)*b`` has leading
        grosspower at most ``leading(a) - K``.
        """
        other = as_gross(other)
        if other.is_zero():
            raise ZeroDivisionError("gross-number division by zero")
        q, beta = other._terms[0]
        if len(other._terms) == 1:
            inverse = Fraction(1) / beta
            return GrossNumber._from_terms(tuple((p - q, d * inverse) for p, d in self._terms))
        if not self._terms:
            return self
        return GrossNumber._from_terms(
            _series_quotient(self._terms, other._terms, config.truncation_order)
        )

    def power(self, exponent: int, config: ArithConfig = DEFAULT_CONFIG) -> "GrossNumber":
        """Integer power: exact square-and-multiply for n >= 0 (x^0 = 1), and
        ``ONE.divide(x^-n, config)`` for n < 0."""
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return ONE.divide(self.power(-exponent), config)
        return _square_and_multiply(self, exponent, ONE, operator.mul)

    # -- ordering -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __lt__(self, other) -> bool:
        other = _coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return _compare_terms(self._terms, other._terms) < 0

    def __le__(self, other) -> bool:
        other = _coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return _compare_terms(self._terms, other._terms) <= 0

    def __gt__(self, other) -> bool:
        other = _coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return _compare_terms(self._terms, other._terms) > 0

    def __ge__(self, other) -> bool:
        other = _coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return _compare_terms(self._terms, other._terms) >= 0

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- text -----------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for idx, (p, d) in enumerate(self._terms):
            negative = d < 0
            body = _format_term(p, -d if negative else d)
            if idx == 0:
                parts.append("-" + body if negative else body)
            else:
                parts.append((" - " if negative else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"GrossNumber({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "GrossNumber":
        """Read gross-number text such as "3G + 1", "1/4 - 1/16G^-1" or
        "(1 + G)^2 / 2": the ``gross eval`` grammar with no truncation order,
        so a division (or negative power) by more than one term is a
        ParseError."""
        return _GrossExprReader(text).read_all()


def _sum_terms(a, b) -> Tuple[Tuple[int, Fraction], ...]:
    """Normalized terms of a + b, by merging two normalized term tuples."""
    merged = []
    i = j = 0
    while i < len(a) and j < len(b):
        pa, pb = a[i][0], b[j][0]
        if pa > pb:
            merged.append(a[i])
            i += 1
        elif pa < pb:
            merged.append(b[j])
            j += 1
        else:
            d = a[i][1] + b[j][1]
            if d != 0:
                merged.append((pa, d))
            i += 1
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged)


def _compare_terms(a, b) -> int:
    """sign(a - b) for two normalized term tuples: the first grosspower at
    which they differ decides, by the digit of a - b there."""
    for (pa, da), (pb, db) in zip(a, b):
        if pa != pb:
            # The higher grosspower is present in one operand only.
            lead = da if pa > pb else -db
            return 1 if lead > 0 else -1
        if da != db:
            return 1 if da > db else -1
    if len(a) != len(b):
        lead = a[len(b)][1] if len(a) > len(b) else -b[len(a)][1]
        return 1 if lead > 0 else -1
    return 0


def _product_terms(a, b) -> Tuple[Tuple[int, Fraction], ...]:
    """Normalized terms of a * b."""
    acc: dict[int, Fraction] = {}
    for pa, da in a:
        for pb, db in b:
            p = pa + pb
            d = da * db
            if p in acc:
                acc[p] = acc[p] + d
            else:
                acc[p] = d
    return tuple((p, acc[p]) for p in sorted(acc, reverse=True) if acc[p] != 0)


class _IntPoly:
    """Laurent polynomial ``sum_k coeffs[k] * G^(top - k)`` with int
    coefficients, stored dense from its highest grosspower as a
    gross-number's terms are; the first and last coefficients are nonzero
    and zero has none.  It has what ``linalg``'s Bareiss elimination uses:
    ``*``, ``-``, unary ``-``, exact ``//``, truth and the sign test ``< 0``,
    which reads the highest-grosspower coefficient as a gross-number's sign
    does."""

    __slots__ = ("top", "coeffs")

    def __init__(self, top: int, coeffs: List[int]):
        self.top = top
        self.coeffs = coeffs

    @classmethod
    def scaled(cls, numbers, floor: Optional[int] = None) -> Tuple[int, List["_IntPoly"]]:
        """``(D, polys)``: each term tuple of ``numbers``, cut to the
        grosspowers >= ``floor`` unless it is None, times D, the lcm of the
        kept digits' denominators."""
        if floor is not None:
            numbers = [[(p, d) for p, d in terms if p >= floor] for terms in numbers]
        scale = math.lcm(*(d.denominator for terms in numbers for _, d in terms))
        polys = []
        for terms in numbers:
            top = terms[0][0] if terms else 0
            coeffs = [0] * (top - terms[-1][0] + 1) if terms else []
            for p, d in terms:
                coeffs[top - p] = d.numerator * (scale // d.denominator)
            polys.append(cls(top, coeffs))
        return scale, polys

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __lt__(self, zero) -> bool:
        return bool(self.coeffs) and self.coeffs[0] < 0

    def __neg__(self) -> "_IntPoly":
        return _IntPoly(self.top, [-c for c in self.coeffs])

    def __mul__(self, other: "_IntPoly") -> "_IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _IntPoly(0, [])
        out = [0] * (len(a) + len(b) - 1)
        width = len(b)
        for i, x in enumerate(a):
            if x:
                out[i:i + width] = [o + x * y for o, y in zip(out[i:i + width], b)]
        # The end coefficients are products of nonzero ints, so nonzero.
        return _IntPoly(self.top + other.top, out)

    def __sub__(self, other: "_IntPoly") -> "_IntPoly":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return -other
        top = max(self.top, other.top)
        out = [0] * (top - min(self.top - len(self.coeffs), other.top - len(other.coeffs)))
        start = top - self.top
        out[start:start + len(self.coeffs)] = self.coeffs
        start = top - other.top
        end = start + len(other.coeffs)
        out[start:end] = [o - c for o, c in zip(out[start:end], other.coeffs)]
        start, end = 0, len(out)
        while end and not out[end - 1]:
            end -= 1
        while start < end and not out[start]:
            start += 1
        return _IntPoly(top - start, out[start:end])

    def __floordiv__(self, other) -> "_IntPoly":
        """Exact quotient; the elimination guarantees that one exists."""
        if isinstance(other, int):
            return _IntPoly(self.top, [c // other for c in self.coeffs])
        if not self.coeffs:
            return self
        return _IntPoly(self.top - other.top, _long_division(self.coeffs, other.coeffs))

    def exact_quotient(self, other: "_IntPoly") -> Optional[GrossNumber]:
        """``self / other`` as a GrossNumber when it is a Laurent polynomial
        with rational digits, else None.  By Gauss's lemma it is one exactly
        when other over the gcd of its coefficients divides self over the
        integers."""
        if not self.coeffs:
            return ZERO
        content = math.gcd(*other.coeffs)
        quotient = _long_division(self.coeffs, [c // content for c in other.coeffs])
        if quotient is None:
            return None
        return GrossNumber(
            (self.top - other.top - k, Fraction(c, content)) for k, c in enumerate(quotient)
        )

    def gross(self) -> GrossNumber:
        return GrossNumber((self.top - k, c) for k, c in enumerate(self.coeffs))


def _long_division(dividend: List[int], divisor: List[int], size: Optional[int] = None):
    """Top-down integer long division (Knuth, TAOCP Vol. 2 4.6.1) of dense
    coefficient lists, highest power first; each quotient digit is one floor
    division by ``divisor[0] != 0``.  With ``size`` None it is exact: the
    ``len(dividend) - len(divisor) + 1`` quotient digits, or None as soon as
    a remainder is left.  With a ``size``, it makes that many digits and
    drops what the divisor would take off past the dividend's end.
    """
    work = list(dividend)
    exact = size is None
    if exact:
        size = len(work) - len(divisor) + 1
        if size < 1:
            return None
    lead, end = divisor[0], len(work)
    trailing = [(j, c) for j, c in enumerate(divisor) if j and c]
    quotient = [0] * size
    for k in range(size):
        digit, remainder = divmod(work[k], lead)
        if remainder and exact:
            return None
        if digit:
            quotient[k] = digit
            for j, c in trailing:
                if k + j >= end:
                    break
                work[k + j] -= c * digit
    if exact and any(work[size:]):
        return None
    return quotient


def _series_quotient(a, b, order: int) -> Tuple[Tuple[int, Fraction], ...]:
    """Levels ``L .. L - order`` of a / b for a nonzero a and a multi-term b,
    ``L = leading(a) - leading(b)``, by fraction-free long division.

    With the digits of a at grosspowers >= ``leading(a) - order`` as ints
    ``A_k / D_a`` and those of b at grosspowers >= ``leading(b) - order`` as
    ``B_j / D_b`` (k, j counting levels below each leading grosspower), the
    quotient has ``size = order + 1`` levels, or only the dividend's kept
    span when no trailing term of b is kept.  The dividend is multiplied by
    ``B_0^size``; then every quotient digit
    ``e_k = (A_k B_0^size - sum_(j>=1) B_j e_(k-j)) / B_0`` is an exact int
    (``_long_division``), and the quotient digit at ``L - k`` is
    ``D_b e_k / (D_a B_0^size)``; no ``Fraction`` is built before the last
    line.  The last digit then loses ``A_0 (-B_1)^order``, the leading term
    of the series power ``(-r)^order`` that a geometric series of ``order``
    terms leaves out, so the level ``L - order`` is the truncated series'
    (see ``divide``).
    """
    top, q = a[0][0], b[0][0]
    a_den, (dividend,) = _IntPoly.scaled([a], top - order)
    b_den, (divisor,) = _IntPoly.scaled([b], q - order)
    kept = len(divisor.coeffs)
    size = order + 1 if kept > 1 else len(dividend.coeffs)
    scale = divisor.coeffs[0] ** size
    work = [c * scale for c in dividend.coeffs] + [0] * (size - len(dividend.coeffs))
    digits = _long_division(work, divisor.coeffs, size)
    if kept > 1:
        digits[order] -= dividend.coeffs[0] * (-divisor.coeffs[1]) ** order
    level, denominator = top - q, a_den * scale
    return tuple(
        (level - k, Fraction(b_den * e, denominator)) for k, e in enumerate(digits) if e
    )


def _coerce_operand(value):
    if isinstance(value, GrossNumber):
        return value
    if isinstance(value, bool):
        return NotImplemented
    if isinstance(value, int):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        return NotImplemented
    return GrossNumber._from_terms(((0, value),) if value != 0 else ())


def _format_term(power: int, magnitude: Fraction) -> str:
    if power == 0:
        return str(magnitude)
    suffix = "G" if power == 1 else f"G^{power}"
    if magnitude == 1:
        return suffix
    return str(magnitude) + suffix


ZERO = GrossNumber()
ONE = GrossNumber([(0, 1)])
GROSSONE = GrossNumber([(1, 1)])
GROSSONE_INVERSE = GrossNumber([(-1, 1)])


# Digits, optionally '/' and more digits, then 'G' at once: the digit of a
# canonical term such as 3G or 1/16G^-1.
_TERM_DIGIT = re.compile(r"\d+(?:/\d+)?G")


class _GrossExprReader(_ExpressionReader):
    """The reader of gross-number text: ``_ExpressionReader`` over
    gross-numbers with term operators '*' and '/', an int exponent, and the
    leaves uint and the canonical term ``[p['/'q]]'G'['^' int]``.  A term's
    rational binds tighter than '/' only when 'G' follows it at once, and the
    '^' after that 'G' is the term's: ``3G^2`` is 3G^2, ``(3G)^2`` is 9G^2
    and ``2/3^2`` is 2/9.  With a truncation order (``gross eval``) a
    division by a multi-term divisor is the truncated series; with none
    (``GrossNumber.parse``) it is a ParseError, so every value read is
    exact."""

    add = staticmethod(operator.add)
    negate = staticmethod(operator.neg)
    read_exponent = _ExpressionReader.read_int

    def __init__(self, text: str, config: Optional[ArithConfig] = None):
        super().__init__(text)
        self.exact = config is None
        self.config = config or DEFAULT_CONFIG
        self.term_operators = {"*": operator.mul, "/": self.divide}

    def read_leaf(self) -> GrossNumber:
        digit = Fraction(1)
        if self.peek() != "G":
            if not self.peek().isdigit():
                raise self.error("expected a number, 'G', or '('")
            if not _TERM_DIGIT.match(self.text, self.pos):
                return GrossNumber([(0, self.read_uint())])
            digit = self.read_rational()
        self.pos += 1
        power = 1
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            power = self.read_int()
            self.skip_ws()
            if self.peek() == "^":
                raise self.error("a power of a power needs parentheses")
        return GrossNumber([(power, digit)])

    def check_divisor(self, divisor: GrossNumber) -> None:
        if not divisor:
            raise self.error("division by zero")
        if self.exact and len(divisor.terms) > 1:
            raise self.error("division by more than one term is not exact")

    def divide(self, a: GrossNumber, b: GrossNumber) -> GrossNumber:
        self.check_divisor(b)
        return a.divide(b, self.config)

    def power(self, base: GrossNumber, exponent: int) -> GrossNumber:
        if exponent < 0:
            self.check_divisor(base)
        return base.power(exponent, self.config)

    @staticmethod
    def power_terms(base: GrossNumber, exponent: int) -> int:
        # The levels from |e| times the top grosspower down to |e| times the
        # lowest; a negative power divides one by the positive one.
        if len(base.terms) < 2:
            return 1
        return abs(exponent) * (base.leading_power - base.terms[-1][0]) + 1

    def read_all(self) -> GrossNumber:
        value = self.read_expr()
        self.expect_end()
        return value


# -- module-level functions: as_gross and compare ------------------------------


def as_gross(value: Scalar) -> GrossNumber:
    """Coerce an int, Fraction or GrossNumber to a GrossNumber."""
    coerced = _coerce_operand(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {type(value).__name__} as a gross-number")
    return coerced


def compare(a: Scalar, b: Scalar) -> int:
    """-1, 0 or 1 as a < b, a == b or a > b, i.e. ``sign(a - b)``.

    The two term tuples are walked from the top grosspower down and the
    first difference decides; ``a - b`` is never built.
    """
    return _compare_terms(as_gross(a)._terms, as_gross(b)._terms)
