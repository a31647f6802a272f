import math
import random
from fractions import Fraction

import pytest

from grossone.arith import ArithConfig, GROSSONE, GrossNumber, ONE, ZERO
from grossone.linalg import (
    SingularMatrixError,
    rational_rank,
    solve_linear,
    solve_rational_columns,
    solve_rational_vector,
)

from helpers import matvec, random_fraction, random_gross
from reference_linalg import truncated_solve
from reference_simplex import determinant

F = Fraction
G = GROSSONE


class TestSolveLinear:
    def test_identity_system(self):
        rhs = (G, 1 - G, GrossNumber([(-3, 5)]))
        identity = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert solve_linear(identity, rhs) == rhs

    def test_series_solution_and_residual(self):
        matrix = [[ONE + G, 0], [0, 1]]
        rhs = (G, ONE)
        k = 8
        solution = solve_linear(matrix, rhs, ArithConfig(truncation_order=k))
        assert solution[0].coefficient(0) == 1
        assert solution[0].coefficient(-1) == -1
        assert solution[0].coefficient(-2) == 1
        assert solution[1] == ONE
        for product, rhs_entry in zip(matvec(matrix, solution), rhs):
            entry = product - rhs_entry
            if not entry.is_zero():
                assert entry.leading_power <= rhs_entry.leading_power - k

    def test_exact_for_rational_matrices(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [[random_fraction(rng, 9) for _ in range(n)] for _ in range(n)]
            rhs = [random_fraction(rng, 9) for _ in range(n)]
            try:
                expected = solve_rational_vector(rows, rhs)
            except SingularMatrixError:
                continue
            solution = solve_linear(rows, rhs)
            assert [e.finite_part() for e in solution] == expected
            assert all(len(e.terms) <= 1 for e in solution)

    def test_pivots_on_largest_order(self):
        # Column one holds an infinitesimal and a finite entry; the finite row
        # must be chosen as the pivot, and the answer checks out exactly at
        # the leading orders.
        matrix = [[GrossNumber([(-1, 1)]), 1], [1, 1]]
        rhs = [ONE, 2 * ONE]
        solution = solve_linear(matrix, rhs)
        assert solution[0].coefficient(0) == 1
        assert solution[0].coefficient(-1) == 1
        assert solution[1].coefficient(0) == 1
        assert solution[1].coefficient(-1) == -1

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear([[1, 2], [2, 4]], [1, 1])

    def test_requires_square(self):
        with pytest.raises(ValueError, match="must be square, got 1x2"):
            solve_linear([[1, 2]], [1])


def random_gross_system(rng, n):
    """n x n gross matrix and rhs: grosspowers -3..2, rational digits, about
    one zero entry in four, and half the time a zero or an infinitesimal in
    the top-left corner, so that column 0 needs a row swap or has a pivot
    of lower order than the entries below it."""
    def entry():
        return ZERO if rng.random() < 0.25 else random_gross(rng, 3, -3, 2, 9, nonzero=True)

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.5:
        infinitesimal = GrossNumber([(-rng.randint(1, 3), random_fraction(rng, 9) or 1)])
        rows[0][0] = rng.choice((ZERO, infinitesimal))
    rhs = [random_gross(rng, 3, -3, 2, 9, nonzero=True) for _ in range(n)]
    return rows, rhs


class TestGrossElimination:
    """solve_linear eliminates exactly and divides once per unknown.  The
    reference is the truncated pivoted elimination it replaced, run at
    K = 40; every coefficient above divide's cutoff, leading(x_i) - K,
    must equal the reference's."""

    K = ArithConfig().truncation_order

    def test_exact_rational_quotient(self):
        # d = 2 + 2G does not divide N = 1 + G over the integers, but does
        # over the rationals.
        assert solve_linear([[2 + 2 * G]], [1 + G]) == (GrossNumber([(0, F(1, 2))]),)

    def test_exact_solution_carries_no_cutoff_noise(self):
        assert solve_linear([[1 + G, 1], [1, 1]], [2 + G, 2]) == (ONE, ONE)

    def test_laurent_polynomial_solutions_are_exact(self):
        rng = random.Random(61)
        solved = 0
        for _ in range(40):
            n = rng.randint(1, 4)
            rows, _ = random_gross_system(rng, n)
            x = tuple(random_gross(rng, 3, -3, 2, 9) for _ in range(n))
            try:
                solution = solve_linear(rows, matvec(rows, x))
            except SingularMatrixError:
                continue
            solved += 1
            assert solution == x
        assert solved > 20

    def test_matches_truncated_reference_above_cutoff(self):
        rng = random.Random(67)
        solved = series = 0
        for _ in range(30):
            n = rng.randint(1, 4)
            rows, rhs = random_gross_system(rng, n)
            try:
                solution = solve_linear(rows, rhs)
            except SingularMatrixError:
                continue
            reference = truncated_solve(rows, rhs, ArithConfig(truncation_order=40))
            solved += 1
            for x, ref in zip(solution, reference):
                if x.is_zero():
                    # The reference's own truncation noise sits near G^-40.
                    assert ref.is_zero() or ref.leading_power < -30
                    continue
                lead = x.leading_power
                series += len(x.terms) > 1
                assert ref.leading_power == lead
                assert [x.coefficient(p) for p in range(lead, lead - self.K, -1)] == [
                    ref.coefficient(p) for p in range(lead, lead - self.K, -1)
                ]
        assert solved > 20 and series > 20

    def test_row_order_and_row_scaling_do_not_change_digits(self):
        rng = random.Random(71)
        solved = 0
        for _ in range(40):
            n = rng.randint(2, 4)
            rows, rhs = random_gross_system(rng, n)
            try:
                solution = solve_linear(rows, rhs)
            except SingularMatrixError:
                continue
            solved += 1
            order = list(range(n))
            rng.shuffle(order)
            assert solve_linear([rows[i] for i in order], [rhs[i] for i in order]) == solution
            # Scaling a row by c G^k, c rational, leaves x unchanged.
            scales = [GrossNumber([(rng.randint(-2, 2), random_fraction(rng, 9) or 1)]) for _ in range(n)]
            assert solve_linear(
                [[s * v for v in row] for s, row in zip(scales, rows)],
                [s * v for s, v in zip(scales, rhs)],
            ) == solution
        assert solved > 20

    def test_singular_names_first_pivotless_column(self):
        rng = random.Random(73)
        checked = 0
        for _ in range(40):
            n = rng.randint(1, 4)
            column = rng.randrange(n)
            rows, rhs = random_gross_system(rng, n)
            # Column `column` becomes a gross combination of the ones before
            # it (the zero column when it is the first).
            weights = [random_gross(rng, 2, -2, 2, 9) for _ in range(column)]
            for row in rows:
                row[column] = sum((w * row[j] for j, w in enumerate(weights)), ZERO)
            # Independently: the columns before it are independent at G = 1000.
            point = [[v.evaluate_at(1000) for v in row[:column]] for row in rows]
            if fraction_rank(point) < column:
                continue
            with pytest.raises(SingularMatrixError) as raised:
                solve_linear(rows, rhs)
            assert str(raised.value) == f"no nonzero pivot in column {column}"
            checked += 1
        assert checked > 30


class TestRationalSolvers:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 5)
            rows = [[random_fraction(rng, 9) for _ in range(n)] for _ in range(n)]
            rhs = [random_fraction(rng, 9) for _ in range(n)]
            try:
                solution = solve_rational_vector(rows, rhs)
            except SingularMatrixError:
                assert rational_rank(rows) < n
                continue
            recovered = [
                sum(rows[i][j] * solution[j] for j in range(n)) for i in range(n)
            ]
            assert recovered == rhs

    def test_multi_rhs_matches_single(self):
        rows = [[F(2), F(1)], [F(1), F(3)]]
        cols = [[F(1), F(0)], [F(0), F(1)], [F(5), F(-7)]]
        stacked, d = solve_rational_columns(rows, cols)
        for col, solution in zip(cols, stacked):
            assert solve_rational_vector(rows, col) == [F(v, d) for v in solution]

    def test_columns_round_trip_with_swaps_and_signs(self):
        # Zero entries force row swaps and rows with a zero in the pivot
        # column; signs give negative pivots; rows mix denominators.
        rng = random.Random(9)
        solved = 0
        for _ in range(60):
            n = rng.randint(1, 6)
            rows = [
                [rng.choice((F(0), random_fraction(rng, 9))) for _ in range(n)]
                for _ in range(n)
            ]
            cols = [[random_fraction(rng, 9) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            try:
                solutions, d = solve_rational_columns(rows, cols)
            except SingularMatrixError:
                assert rational_rank(rows) < n
                continue
            solved += 1
            for col, x in zip(cols, solutions):
                assert [sum(rows[i][j] * F(x[j], d) for j in range(n)) for i in range(n)] == col
        assert solved > 20

    def test_accepts_ints_and_strings(self):
        assert solve_rational_vector([[0, 2], ["1/3", 0]], [1, -1]) == [F(-3), F(1, 2)]

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, None])
    def test_refuses_floats_and_bools(self, bad):
        with pytest.raises(TypeError):
            solve_rational_vector([[1, 0], [0, bad]], [1, 1])
        with pytest.raises(TypeError):
            solve_rational_columns([[1]], [[bad]])
        with pytest.raises(TypeError):
            rational_rank([[1, bad]])

    def test_rank(self):
        assert rational_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert rational_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
        assert rational_rank([[F(0), F(0)]]) == 0
        assert rational_rank([[F(1), F(2), F(3)]]) == 1
        assert rational_rank([[F(0), F(1), F(2)], [F(0), F(2), F(4)]]) == 1
        assert rational_rank([[F(0), F(0), F(1)], [F(0), F(0), F(3)], [F(0), F(0), F(0)]]) == 1


def scaled_matrix(matrix, columns):
    """S A, S scaling each row of [A | B] by the lcm of its denominators."""
    out = []
    for i, row in enumerate(matrix):
        scale = math.lcm(*(v.denominator for v in list(row) + [col[i] for col in columns]))
        out.append([v * scale for v in row])
    return out


def fraction_rank(rows):
    """Rank by Gaussian elimination in plain Fraction arithmetic."""
    work = [list(row) for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            factor = work[i][col] / work[rank][col]
            work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


class TestRationalKernel:
    """solve_rational_columns returns (N, d): ints with X = N/d and
    d = |det(S A)| > 0; rational_rank counts the same elimination's pivots."""

    def test_integer_columns_over_abs_det(self):
        rng = random.Random(17)
        solved = 0
        for _ in range(80):
            n = rng.randint(1, 6)
            # Zeros force row swaps, signs give negative pivots, and rows mix
            # denominators.
            rows = [
                [rng.choice((F(0), random_fraction(rng, 9))) for _ in range(n)]
                for _ in range(n)
            ]
            cols = [[random_fraction(rng, 9) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            try:
                columns, d = solve_rational_columns(rows, cols)
            except SingularMatrixError:
                assert determinant(rows) == 0
                continue
            solved += 1
            assert type(d) is int and d > 0
            assert all(type(v) is int for column in columns for v in column)
            for b, x in zip(cols, columns):
                assert [sum(rows[i][j] * x[j] for j in range(n)) for i in range(n)] == [d * v for v in b]
            assert d == abs(determinant(scaled_matrix(rows, cols)))
        assert solved > 30

    def test_swap_and_negative_pivot(self):
        # The first column needs a row swap, and its pivot (-1/3, scaled to -1)
        # is negative.
        rows = [[F(0), F(2)], [F(-1, 3), F(1)]]
        columns, d = solve_rational_columns(rows, [[F(4), F(0)]])
        assert (columns, d) == ([[12, 4]], 2)

    def test_rank_matches_fraction_elimination(self):
        rng = random.Random(23)
        deficient = 0
        for _ in range(80):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            basis = [[random_fraction(rng, 9) for _ in range(n)] for _ in range(rng.randint(1, m))]
            for row in basis:
                for j in rng.sample(range(n), rng.randint(0, n - 1)):
                    row[j] = F(0)
            rows = [
                [sum(rng.randint(-2, 2) * row[j] for row in basis) for j in range(n)]
                for _ in range(m)
            ]
            rank = fraction_rank(rows)
            deficient += rank < min(m, n)
            assert rational_rank(rows) == rank
        assert deficient > 20


class TestContainers:
    """solve_linear takes its matrix and rhs as plain sequences and checks
    their shapes and entries itself."""

    def test_matrix_must_be_rectangular(self):
        with pytest.raises(ValueError, match="same length"):
            solve_linear([[1, 2], [3]], [1, 2])

    def test_matrix_must_be_nonempty(self):
        with pytest.raises(ValueError, match="at least one row"):
            solve_linear([], [])

    def test_rhs_length_must_match(self):
        with pytest.raises(ValueError, match="rhs has length 1"):
            solve_linear([[1, 0], [0, 1]], [1])

    @pytest.mark.parametrize(
        "matrix, rhs",
        [([[1.0]], [1]), ([[1]], [0.5]), ([[True]], [1]), ([[1]], [False])],
        ids=["float-entry", "float-rhs", "bool-entry", "bool-rhs"],
    )
    def test_float_and_bool_entries_raise_type_error(self, matrix, rhs):
        with pytest.raises(TypeError):
            solve_linear(matrix, rhs)
