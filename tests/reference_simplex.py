"""Per-basis simplex quantities from fresh solves with the basis matrix.

Test-only reference for the tableau that ``grossone.simplex`` updates by
pivots.  Everything here is computed directly from ``(lp, basis)`` with
``solve_rational_vector`` on ``A_B`` (or its transpose, for the prices),
never from a tableau, so a faulty pivot update cannot agree with it by
construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from grossone.arith import ZERO, GrossNumber, as_gross, compare
from grossone.linalg import solve_rational_vector
from grossone.simplex import Basis, LpStandardForm


def basis_matrix(lp: LpStandardForm, basis: Basis) -> List[List[Fraction]]:
    return [[lp.a[i][j] for j in basis] for i in range(lp.m)]


def integer_scaled_basis_matrix(lp: LpStandardForm, basis: Basis) -> List[List[Fraction]]:
    """A_B with row i multiplied by the lcm of the denominators of row i of
    ``[A | b]``: the basis matrix of the integer system the tableau holds."""
    matrix = []
    for row, bi in zip(lp.a, lp.b):
        scale = 1
        for v in row + (bi,):
            scale = scale * v.denominator // gcd(scale, v.denominator)
        matrix.append([row[j] * scale for j in basis])
    return matrix


def determinant(matrix: List[List[Fraction]]) -> Fraction:
    """Rational Gaussian elimination with row swaps."""
    rows = [list(row) for row in matrix]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return det


def basic_solution(lp: LpStandardForm, basis: Basis) -> List[Fraction]:
    """x_B = A_B^-1 b."""
    return solve_rational_vector(basis_matrix(lp, basis), lp.b)


def prices(lp: LpStandardForm, basis: Basis) -> List[Fraction]:
    """y with A_B^T y = c_B."""
    transpose = [[lp.a[i][j] for i in range(lp.m)] for j in basis]
    return solve_rational_vector(transpose, [lp.c[j] for j in basis])


def reduced_costs(lp: LpStandardForm, basis: Basis) -> Dict[int, Fraction]:
    """c_j - y . A_j over the nonbasic columns (pricing vector solve)."""
    y = prices(lp, basis)
    return {
        j: lp.c[j] - sum(lp.a[i][j] * y[i] for i in range(lp.m))
        for j in basis.complement(lp.n)
    }


def tableau_rows(lp: LpStandardForm, basis: Basis) -> List[List[Fraction]]:
    """A_B^-1 [A | b], one fresh solve per column."""
    a_b = basis_matrix(lp, basis)
    columns = [solve_rational_vector(a_b, lp.column(j)) for j in range(lp.n)]
    columns.append(solve_rational_vector(a_b, lp.b))
    return [[column[i] for column in columns] for i in range(lp.m)]


def objective_row(lp: LpStandardForm, basis: Basis) -> List[Fraction]:
    """c_j - y . A_j for every column, then -y . b."""
    y = prices(lp, basis)
    row = [lp.c[j] - sum(lp.a[i][j] * y[i] for i in range(lp.m)) for j in range(lp.n)]
    row.append(-sum(lp.b[i] * y[i] for i in range(lp.m)))
    return row


def perturbed_rhs(lp: LpStandardForm, basis: Basis, base_basis: Basis) -> Tuple[GrossNumber, ...]:
    """A_B^-1 b + (A_B^-1 A_B0) e with e = (G^-1, ..., G^-m)."""
    a_b = basis_matrix(lp, basis)
    xb = solve_rational_vector(a_b, lp.b)
    carried = [solve_rational_vector(a_b, lp.column(j)) for j in base_basis]
    entries = []
    for i in range(lp.m):
        terms = [(0, xb[i])]
        terms.extend((-(k + 1), carried[k][i]) for k in range(len(base_basis)))
        entries.append(GrossNumber(terms))
    return tuple(entries)


def perturbed_objective(lp: LpStandardForm, basis: Basis, base_basis: Basis) -> GrossNumber:
    """c_B . (perturbed rhs), summed over gross-numbers."""
    rhs = perturbed_rhs(lp, basis, base_basis)
    total = ZERO
    for position, j in enumerate(basis):
        total = total + rhs[position] * as_gross(lp.c[j])
    return total


def ratio_test_plain(lp: LpStandardForm, basis: Basis, entering: int) -> Optional[int]:
    """Minimum ratio, ties to the smallest basis position."""
    direction = solve_rational_vector(basis_matrix(lp, basis), lp.column(entering))
    xb = basic_solution(lp, basis)
    best_row, best_ratio = None, None
    for i in range(lp.m):
        if direction[i] <= 0:
            continue
        ratio = xb[i] / direction[i]
        if best_ratio is None or ratio < best_ratio:
            best_row, best_ratio = i, ratio
    return best_row


def ratio_test_grossone(
    lp: LpStandardForm, basis: Basis, base_basis: Basis, entering: int
) -> Optional[int]:
    """Minimum perturbed ratio; None when no direction entry is positive."""
    direction = solve_rational_vector(basis_matrix(lp, basis), lp.column(entering))
    rhs = perturbed_rhs(lp, basis, base_basis)
    best_row, best_ratio = None, None
    for i in range(lp.m):
        if direction[i] <= 0:
            continue
        ratio = rhs[i] * as_gross(1 / direction[i])
        if best_ratio is None or compare(ratio, best_ratio) < 0:
            best_row, best_ratio = i, ratio
    return best_row
