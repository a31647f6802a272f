"""Truncated Gaussian elimination over gross-numbers, for tests.

Test-only reference for ``grossone.linalg.solve_linear``, which eliminates
exactly and divides once per unknown.  This one divides at every step:
each multiplier and each back-substituted unknown is a truncated series
division per ``config``.  Row pivoting picks the entry with the greatest
leading grosspower, then the largest leading-digit magnitude, so it never
divides by an infinitesimal while a larger-order pivot is available.  Run
with a large truncation order K, its digits far above the cutoff are exact.
It uses only gross-number arithmetic and shares nothing with the solver.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from grossone.arith import ArithConfig, GrossNumber, ZERO, as_gross


class ReferenceSingularError(ValueError):
    """No nonzero pivot left in a column."""


def _pivot_key(entry: GrossNumber):
    # Greater leading grosspower wins; ties go to the larger |leading digit|.
    return entry.leading_power, abs(entry.leading_digit)


def truncated_solve(
    matrix: Sequence[Sequence], rhs: Sequence, config: ArithConfig
) -> Tuple[GrossNumber, ...]:
    n = len(matrix)
    rows: List[List[GrossNumber]] = [[as_gross(v) for v in matrix[i]] + [as_gross(rhs[i])] for i in range(n)]
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
            raise ReferenceSingularError(f"no nonzero pivot in column {col}")
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
    return tuple(solution)
