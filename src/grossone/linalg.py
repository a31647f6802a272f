"""Dense vectors and matrices over gross-numbers, plus exact rational solvers.

The gross-number side supplies Gaussian elimination whose divisions
truncate per ArithConfig.  Row pivoting picks the entry with the greatest
leading grosspower, then the largest leading-digit magnitude, so the
algorithm never divides by an infinitesimal while a larger-order pivot is
available.

The rational helpers are exact and share one fraction-free (Bareiss)
Gauss-Jordan elimination on integer-scaled rows.  solve_rational_columns
returns integer columns over one positive denominator, |det| of the scaled
matrix, which the starting tableau of each simplex solve adopts as it
stands; solve_rational_vector divides them into Fractions; rational_rank
counts the pivots, skipping columns that have none.  They also back the
lexicographic oracle, the vertex enumeration, the instance generator and
the constraint-qualification rank checks.  Entries are ints, Fractions or
strings such as "1/3"; floats and bools are refused.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, List, Sequence, Tuple

from .arith import ArithConfig, DEFAULT_CONFIG, GrossNumber, ZERO, as_gross

__all__ = [
    "GrossMatrix",
    "GrossVector",
    "SingularMatrixError",
    "solve_linear",
    "rational_rank",
    "solve_rational_columns",
    "solve_rational_vector",
]


class SingularMatrixError(ValueError):
    """No usable pivot: the matrix is singular (up to truncation)."""


class GrossVector:
    """Fixed-length immutable vector of gross-numbers."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable):
        self._entries = tuple(as_gross(e) for e in entries)

    @property
    def entries(self) -> Tuple[GrossNumber, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[GrossNumber]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> GrossNumber:
        return self._entries[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrossVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __add__(self, other: "GrossVector") -> "GrossVector":
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return GrossVector(a + b for a, b in zip(self._entries, other._entries))

    def __sub__(self, other: "GrossVector") -> "GrossVector":
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return GrossVector(a - b for a, b in zip(self._entries, other._entries))

    def __neg__(self) -> "GrossVector":
        return GrossVector(-a for a in self._entries)

    def finite_parts(self) -> Tuple:
        return tuple(e.finite_part() for e in self._entries)

    def __repr__(self) -> str:
        return "GrossVector([" + ", ".join(str(e) for e in self._entries) + "])"


class GrossMatrix:
    """Rectangular immutable matrix of gross-numbers, row-major."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable]):
        built = tuple(tuple(as_gross(e) for e in row) for row in rows)
        if not built or not built[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(built[0])
        if any(len(row) != width for row in built):
            raise ValueError("matrix rows must all have the same length")
        self._rows = built

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self._rows), len(self._rows[0])

    def row(self, i: int) -> Tuple[GrossNumber, ...]:
        return self._rows[i]

    def __getitem__(self, index: Tuple[int, int]) -> GrossNumber:
        i, j = index
        return self._rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrossMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"GrossMatrix({[[str(e) for e in row] for row in self._rows]})"


def _pivot_key(entry: GrossNumber):
    # Greater leading grosspower wins; ties go to the larger |leading digit|.
    return entry.leading_power, abs(entry.leading_digit)


def solve_linear(
    matrix: GrossMatrix,
    rhs: GrossVector,
    config: ArithConfig = DEFAULT_CONFIG,
) -> GrossVector:
    """Solve M x = rhs by Gaussian elimination over gross-numbers.

    Divisions truncate per ``config``; the residual M x - rhs then has each
    entry's leading grosspower at most (leading of the rhs entry) - K, and is
    exactly zero when every divisor used is a single term (in particular for
    all-rational matrices).
    """
    m, n = matrix.shape
    if m != n:
        raise ValueError(f"matrix must be square, got {m}x{n}")
    if len(rhs) != n:
        raise ValueError(f"shape mismatch: matrix is {n}x{n}, rhs has length {len(rhs)}")
    rows: List[List[GrossNumber]] = [
        list(matrix.row(i)) + [rhs[i]] for i in range(n)
    ]
    for col in range(n):
        pivot_row = None
        pivot_key = None
        for i in range(col, n):
            if rows[i][col].is_zero():
                continue
            key = _pivot_key(rows[i][col])
            if pivot_key is None or key > pivot_key:
                pivot_row, pivot_key = i, key
        if pivot_row is None:
            raise SingularMatrixError(f"no nonzero pivot in column {col}")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        for i in range(col + 1, n):
            entry = rows[i][col]
            if entry.is_zero():
                continue
            factor = entry.divide(pivot, config)
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
            # Eliminated by construction; clearing the truncation residue keeps
            # later pivot searches from picking up noise.
            rows[i][col] = ZERO
    solution: List[GrossNumber] = [ZERO] * n
    for i in range(n - 1, -1, -1):
        total = rows[i][n]
        for j in range(i + 1, n):
            total = total - rows[i][j] * solution[j]
        solution[i] = total.divide(rows[i][i], config)
    return GrossVector(solution)


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


def _bareiss_gauss_jordan(rows: List[List[int]], columns: int) -> Tuple[int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer ``rows``,
    in place, over their first ``columns`` columns; returns ``(rank, d)``.

    Each column with a nonzero entry below the pivot rows found so far gives
    the next pivot row, negated if that entry is negative; a column without
    one is skipped.  Every other row becomes ``(a p - f b) / d``, p the new
    pivot and d the previous one, and every division is exact.  With rank r
    the first r rows then read the last pivot d on their own pivot column
    and zero on the other pivot columns.  d > 0 is |det| of the r x r block
    of pivot rows and columns.  So when the rows are ``[A | B]`` with A
    square and nonsingular, they end as ``[d I | d A^-1 B]``.
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
