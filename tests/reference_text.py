"""Test-only reader of the canonical gross-number grammar that
``GrossNumber.parse`` once had to itself:

    number   := term (('+'|'-') term)*
    term     := [sign] (rational ['G' ['^' int]] | 'G' ['^' int])
    rational := uint ['/' uint]

with whitespace allowed around the signs and separators.  A bare 'G'
carries digit 1; a missing 'G' means grosspower 0.  ``GrossNumber.parse``
now reads the wider calculator grammar, and must give every text of this
one the value this reader gives it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from grossone.arith import GrossNumber, ParseError


class _TextReader:
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

    def read_uint(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an unsigned integer")
        return int(self.text[start:self.pos])

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

    def read_gross_term(self) -> Tuple[int, Fraction]:
        sign = 1
        if self.peek() in ("+", "-"):
            if self.text[self.pos] == "-":
                sign = -1
            self.pos += 1
            self.skip_ws()
        if self.peek() == "G":
            digit = Fraction(1)
        elif self.peek().isdigit():
            digit = self.read_rational()
        else:
            raise self.error("expected a term")
        power = 0
        if self.peek() == "G":
            self.pos += 1
            power = 1
            if self.peek() == "^":
                self.pos += 1
                power = self.read_int()
        return power, sign * digit

    def read_number(self) -> GrossNumber:
        self.skip_ws()
        terms = [self.read_gross_term()]
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                break
            separator = self.peek()
            if separator not in ("+", "-"):
                raise self.error("expected '+' or '-'")
            self.pos += 1
            self.skip_ws()
            power, digit = self.read_gross_term()
            terms.append((power, -digit if separator == "-" else digit))
        return GrossNumber(terms)


def parse(text: str) -> GrossNumber:
    """The value of ``text`` under the canonical grammar above."""
    return _TextReader(text).read_number()
