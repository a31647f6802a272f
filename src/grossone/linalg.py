"""Exact linear solvers over gross-numbers and over the rationals.

One fraction-free (Bareiss) Gauss-Jordan elimination serves every solve.
It runs on rows scaled by the lcm of their denominators, so that every entry
lies in an integral domain and every division in it is exact: the integers
for rational matrices, Laurent polynomials in G with integer coefficients
for gross-number ones.

solve_linear eliminates a gross-number system, given as plain sequences,
exactly, then makes one division per unknown and returns a tuple.  A
solution that is a Laurent polynomial in G comes out exact; any other is one
truncated series division (per ArithConfig) of two exact gross-numbers,
whose digits above the cutoff are exact.

solve_rational_columns returns integer columns over one positive
denominator, |det| of the scaled matrix, which the starting tableau of each
simplex solve adopts as it stands; solve_rational_vector divides them into
Fractions; rational_rank counts the pivots, skipping columns that have
none.  They also back the lexicographic oracle, the vertex enumeration, the
instance generator and the constraint-qualification rank checks.  Entries
are ints, Fractions or strings such as "1/3"; floats and bools are refused.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .arith import ArithConfig, DEFAULT_CONFIG, GrossNumber, Scalar, ZERO, as_gross

__all__ = [
    "SingularMatrixError",
    "solve_linear",
    "rational_rank",
    "solve_rational_columns",
    "solve_rational_vector",
]


class SingularMatrixError(ValueError):
    """No usable pivot: the matrix is singular (up to truncation)."""


def solve_linear(
    matrix: Sequence[Sequence[Scalar]],
    rhs: Sequence[Scalar],
    config: ArithConfig = DEFAULT_CONFIG,
) -> Tuple[GrossNumber, ...]:
    """Solve M x = rhs over gross-numbers: exact elimination, then one
    division per unknown.

    M is a nonempty square sequence of rows and rhs has one entry per row;
    every entry goes through ``as_gross``, so floats and bools raise
    TypeError.  Each row of ``[M | rhs]`` is scaled by the lcm of its digit
    denominators, so its entries are Laurent polynomials in G with integer
    coefficients, and ``_bareiss_gauss_jordan`` turns the rows into
    ``[d I | N]`` exactly.  Then ``x_i = N_i / d``: the exact quotient when
    d divides N_i over the rationals, so x is exact whenever the solution is
    a Laurent polynomial in G (in particular for all-rational matrices);
    otherwise ``N_i.divide(d, config)``, the only truncated operation.  The
    digits do not depend on the order of the rows, and every coefficient
    above the cutoff grosspower ``leading(x_i) - K`` is exact.
    """
    n = len(matrix)
    if not n:
        raise ValueError("matrix must have at least one row and one column")
    width = len(matrix[0])
    if any(len(row) != width for row in matrix):
        raise ValueError("matrix rows must all have the same length")
    if width != n:
        raise ValueError(f"matrix must be square, got {n}x{width}")
    if len(rhs) != n:
        raise ValueError(f"shape mismatch: matrix is {n}x{n}, rhs has length {len(rhs)}")
    rows = [_poly_row([as_gross(e) for e in row] + [as_gross(b)]) for row, b in zip(matrix, rhs)]
    rank, d = _bareiss_gauss_jordan(rows, n)
    if rank < n:
        # Pivot rows keep their order, so the first pivotless column is the
        # first c whose own row holds no pivot there.
        column = next(c for c in range(n) if c >= rank or not rows[c][c])
        raise SingularMatrixError(f"no nonzero pivot in column {column}")
    solution = []
    for row in rows:
        quotient = row[n].exact_quotient(d)
        if quotient is None:
            quotient = row[n].gross().divide(d.gross(), config)
        solution.append(quotient)
    return tuple(solution)


class _IntPoly:
    """Laurent polynomial ``sum_k coeffs[k] * G^(low + k)`` with int
    coefficients, stored dense from its lowest grosspower; the first and last
    coefficients are nonzero and zero has none.  It has what
    ``_bareiss_gauss_jordan`` uses: ``*``, ``-``, unary ``-``, exact ``//``,
    truth and the sign test ``< 0``, which reads the highest-grosspower
    coefficient as a gross-number's sign does."""

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs: List[int]):
        self.low = low
        self.coeffs = coeffs

    @classmethod
    def _trimmed(cls, low: int, coeffs: List[int]) -> "_IntPoly":
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        start = 0
        while start < end and not coeffs[start]:
            start += 1
        return cls(low + start, coeffs[start:end])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __lt__(self, zero) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] < 0

    def __neg__(self) -> "_IntPoly":
        return _IntPoly(self.low, [-c for c in self.coeffs])

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
        return _IntPoly(self.low + other.low, out)

    def __sub__(self, other: "_IntPoly") -> "_IntPoly":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return -other
        low = min(self.low, other.low)
        out = [0] * (max(self.low + len(self.coeffs), other.low + len(other.coeffs)) - low)
        start = self.low - low
        out[start:start + len(self.coeffs)] = self.coeffs
        start = other.low - low
        end = start + len(other.coeffs)
        out[start:end] = [o - c for o, c in zip(out[start:end], other.coeffs)]
        return _IntPoly._trimmed(low, out)

    def __floordiv__(self, other) -> "_IntPoly":
        """Exact quotient; the elimination guarantees that one exists."""
        if isinstance(other, int):
            return _IntPoly(self.low, [c // other for c in self.coeffs])
        if not self.coeffs:
            return self
        return _IntPoly(self.low - other.low, _divide_exactly(self.coeffs, other.coeffs))

    def exact_quotient(self, other: "_IntPoly"):
        """``self / other`` as a GrossNumber when it is a Laurent polynomial
        with rational digits, else None.  By Gauss's lemma it is one exactly
        when other over the gcd of its coefficients divides self over the
        integers."""
        if not self.coeffs:
            return ZERO
        content = math.gcd(*other.coeffs)
        quotient = _divide_exactly(self.coeffs, [c // content for c in other.coeffs])
        if quotient is None:
            return None
        return GrossNumber(
            (self.low - other.low + k, Fraction(c, content)) for k, c in enumerate(quotient)
        )

    def gross(self) -> GrossNumber:
        return GrossNumber((self.low + k, c) for k, c in enumerate(self.coeffs))


def _divide_exactly(dividend: List[int], divisor: List[int]):
    """Integer coefficients q with ``q * divisor == dividend`` (dense, both
    from their lowest power, divisor trimmed), or None when there are none.
    Long division from the highest power stops at the first digit that does
    not divide."""
    width = len(divisor)
    size = len(dividend) - width + 1
    if size < 1:
        return None
    work = list(dividend)
    top = divisor[-1]
    quotient = [0] * size
    for k in range(size - 1, -1, -1):
        digit, remainder = divmod(work[k + width - 1], top)
        if remainder:
            return None
        if digit:
            quotient[k] = digit
            work[k:k + width] = [w - digit * c for w, c in zip(work[k:k + width], divisor)]
    if any(work[:width - 1]):
        return None
    return quotient


def _poly_row(entries: Sequence[GrossNumber]) -> List[_IntPoly]:
    """A row of gross-numbers times the lcm of its digit denominators."""
    scale = math.lcm(*(d.denominator for entry in entries for _, d in entry.terms))
    row = []
    for entry in entries:
        if entry.is_zero():
            row.append(_IntPoly(0, []))
            continue
        low = entry.terms[-1][0]
        coeffs = [0] * (entry.leading_power - low + 1)
        for power, digit in entry.terms:
            coeffs[power - low] = digit.numerator * (scale // digit.denominator)
        row.append(_IntPoly(low, coeffs))
    return row


# -- exact rational elimination -------------------------------------------------


def solve_rational_columns(
    matrix: Sequence[Sequence[Fraction]],
    rhs_columns: Sequence[Sequence[Fraction]],
) -> Tuple[List[List[int]], int]:
    """Solve A X = B exactly for rational A and B; B given column by column.

    Returns ``(N, d)``: integer columns with ``X = N / d``, where
    ``d = |det(S A)| > 0`` and S scales each row of ``[A | B]`` to integers
    by the lcm of its denominators (S leaves X unchanged).  No Fraction is
    built.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    k = len(rhs_columns)
    if any(len(col) != n for col in rhs_columns):
        raise ValueError("rhs columns must match the matrix size")
    rows = [
        _integer_row([matrix[i][j] for j in range(n)] + [rhs_columns[c][i] for c in range(k)])[0]
        for i in range(n)
    ]
    rank, d = _bareiss_gauss_jordan(rows, n)
    if rank < n:
        raise SingularMatrixError(f"matrix is singular (rank {rank} < {n})")
    return [[rows[i][n + c] for i in range(n)] for c in range(k)], d


def solve_rational_vector(
    matrix: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> List[Fraction]:
    (column,), d = solve_rational_columns(matrix, [list(rhs)])
    return [Fraction(v, d) for v in column]


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix by exact row reduction."""
    if not rows:
        return 0
    work = [_integer_row(row)[0] for row in rows]
    return _bareiss_gauss_jordan(work, len(work[0]))[0]


def _bareiss_gauss_jordan(rows: List[list], columns: int) -> Tuple[int, object]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of ``rows`` of ints
    or of ``_IntPoly``s, in place, over their first ``columns`` columns;
    returns ``(rank, d)``.

    Each column with a nonzero entry below the pivot rows found so far gives
    the next pivot row, negated if that entry is negative; a column without
    one is skipped.  Every other row becomes ``(a p - f b) / d``, p the new
    pivot and d the previous one, and every division is exact.  With rank r
    the first r rows then read the last pivot d on their own pivot column
    and zero on the other pivot columns.  d > 0 (in the gross order, for
    polynomials) is |det| of the r x r block of pivot rows and columns.  So
    when the rows are ``[A | B]`` with A square and nonsingular, they end as
    ``[d I | d A^-1 B]``, whatever the order of the rows.
    """
    rank, previous = 0, 1
    for col in range(columns):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        if rows[rank][col] < 0:
            rows[rank] = [-v for v in rows[rank]]
        pivot_entries = rows[rank]
        pivot = pivot_entries[col]
        for i in range(len(rows)):
            if i != rank:
                factor = rows[i][col]
                rows[i] = [(a * pivot - factor * b) // previous for a, b in zip(rows[i], pivot_entries)]
        previous = pivot
        rank += 1
        if rank == len(rows):
            break
    return rank, previous


def _integer_row(values: Sequence) -> Tuple[List[int], int]:
    """``values`` times the lcm of their denominators, as ints, and that lcm."""
    rationals = [_as_fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in rationals))
    return [v.numerator * (scale // v.denominator) for v in rationals], scale


def _as_fraction(value) -> Fraction:
    """An int, a Fraction or a string such as "1/3" as a Fraction.  Floats
    and bools are refused, as gross-number digits are."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
        raise TypeError(f"rational entry must be an int, a Fraction or a string, got {type(value).__name__}")
    return Fraction(value)
