"""Exact linear solvers over gross-numbers and over the rationals.

This module holds the solvers only.  One fraction-free (Bareiss)
Gauss-Jordan elimination serves every solve.  It runs on rows scaled by the
lcm of their denominators, so that every entry lies in an integral domain
and every division in it is exact: the integers for rational matrices, and
for gross-number ones ``arith._IntPoly``, Laurent polynomials in G with
integer coefficients, whose division ``arith`` owns.

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

from .arith import ArithConfig, DEFAULT_CONFIG, GrossNumber, Scalar, _IntPoly, as_gross

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
    rows = [
        _IntPoly.scaled([as_gross(e).terms for e in row] + [as_gross(b).terms])[1]
        for row, b in zip(matrix, rhs)
    ]
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
    or of ``arith._IntPoly``s, in place, over their first ``columns`` columns;
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
