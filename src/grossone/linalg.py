"""Dense vectors and matrices over gross-numbers, plus exact rational solvers.

The gross-number side supplies Gaussian elimination whose divisions
truncate per ArithConfig.  Row pivoting picks the entry with the greatest
leading grosspower, then the largest leading-digit magnitude, so the
algorithm never divides by an infinitesimal while a larger-order pivot is
available.

The rational helpers are exact: solve_rational_columns and
solve_rational_vector run fraction-free elimination on integer-scaled rows,
rational_rank runs Gaussian elimination on Fraction matrices.  They build
the starting tableau of each simplex solve and back the lexicographic
oracle, the vertex enumeration, the instance generator and the
constraint-qualification rank checks.
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
) -> List[List[Fraction]]:
    """Solve A X = B exactly for Fraction matrices; B given column by column.

    Each row of ``[A | B]`` is scaled to integers by the lcm of its
    denominators, which leaves X unchanged, and reduced by fraction-free
    (Bareiss) Gauss-Jordan elimination: every division is exact and every
    entry stays an integer, so the only Fractions built are those of X.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    k = len(rhs_columns)
    if any(len(col) != n for col in rhs_columns):
        raise ValueError("rhs columns must match the matrix size")
    rows = [
        _integer_row([matrix[i][j] for j in range(n)] + [rhs_columns[c][i] for c in range(k)])
        for i in range(n)
    ]
    previous = 1
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no nonzero pivot in column {col}")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot_entries = rows[col]
        pivot = pivot_entries[col]
        for i in range(n):
            if i != col:
                factor = rows[i][col]
                rows[i] = [(a * pivot - factor * b) // previous for a, b in zip(rows[i], pivot_entries)]
        previous = pivot
    # Every row now reads ``previous`` on the diagonal and ``previous * X`` on the right.
    return [[Fraction(rows[i][n + c], previous) for i in range(n)] for c in range(k)]


def _integer_row(values: Sequence) -> List[int]:
    """``values`` as rationals, times the lcm of their denominators."""
    rationals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in rationals))
    return [v.numerator * (scale // v.denominator) for v in rationals]


def solve_rational_vector(
    matrix: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> List[Fraction]:
    return solve_rational_columns(matrix, [list(rhs)])[0]


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a Fraction matrix by exact row reduction."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return 0
    n_cols = len(work[0])
    rank = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for i in range(rank + 1, len(work)):
            if work[i][col] == 0:
                continue
            factor = work[i][col] / pivot
            work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank
