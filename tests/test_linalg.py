import random
from fractions import Fraction

import pytest

from grossone.arith import ArithConfig, GROSSONE, GrossNumber, ONE
from grossone.linalg import (
    GrossMatrix,
    GrossVector,
    SingularMatrixError,
    rational_rank,
    solve_linear,
    solve_rational_columns,
    solve_rational_vector,
)

from helpers import matvec, random_fraction

F = Fraction
G = GROSSONE


class TestSolveLinear:
    def test_identity_system(self):
        rhs = GrossVector([G, 1 - G, GrossNumber([(-3, 5)])])
        identity = GrossMatrix([[1 if i == j else 0 for j in range(3)] for i in range(3)])
        assert solve_linear(identity, rhs) == rhs

    def test_series_solution_and_residual(self):
        matrix = GrossMatrix([[ONE + G, 0], [0, 1]])
        rhs = GrossVector([G, ONE])
        k = 8
        solution = solve_linear(matrix, rhs, ArithConfig(truncation_order=k))
        assert solution[0].coefficient(0) == 1
        assert solution[0].coefficient(-1) == -1
        assert solution[0].coefficient(-2) == 1
        assert solution[1] == ONE
        residual = matvec(matrix, solution) - rhs
        for entry, rhs_entry in zip(residual, rhs):
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
            solution = solve_linear(GrossMatrix(rows), GrossVector(rhs))
            assert [e.finite_part() for e in solution] == expected
            assert all(len(e.terms) <= 1 for e in solution)

    def test_pivots_on_largest_order(self):
        # Column one holds an infinitesimal and a finite entry; the finite row
        # must be chosen as the pivot, and the answer checks out exactly at
        # the leading orders.
        matrix = GrossMatrix([[GrossNumber([(-1, 1)]), 1], [1, 1]])
        rhs = GrossVector([ONE, 2 * ONE])
        solution = solve_linear(matrix, rhs)
        assert solution[0].coefficient(0) == 1
        assert solution[0].coefficient(-1) == 1
        assert solution[1].coefficient(0) == 1
        assert solution[1].coefficient(-1) == -1

    def test_singular_raises(self):
        matrix = GrossMatrix([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrixError):
            solve_linear(matrix, GrossVector([1, 1]))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            solve_linear(GrossMatrix([[1, 2]]), GrossVector([1]))


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
        stacked = solve_rational_columns(rows, cols)
        for col, solution in zip(cols, stacked):
            assert solve_rational_vector(rows, col) == solution

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
                solutions = solve_rational_columns(rows, cols)
            except SingularMatrixError:
                assert rational_rank(rows) < n
                continue
            solved += 1
            for col, x in zip(cols, solutions):
                assert [sum(rows[i][j] * x[j] for j in range(n)) for i in range(n)] == col
        assert solved > 20

    def test_accepts_ints_and_strings(self):
        assert solve_rational_vector([[0, 2], ["1/3", 0]], [1, -1]) == [F(-3), F(1, 2)]

    def test_rank(self):
        assert rational_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert rational_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
        assert rational_rank([[F(0), F(0)]]) == 0
        assert rational_rank([[F(1), F(2), F(3)]]) == 1


class TestContainers:
    def test_matrix_must_be_rectangular(self):
        with pytest.raises(ValueError):
            GrossMatrix([[1, 2], [3]])

    def test_matrix_must_be_nonempty(self):
        with pytest.raises(ValueError):
            GrossMatrix([])

    def test_vector_length_mismatch_on_add(self):
        with pytest.raises(ValueError):
            GrossVector([1]) + GrossVector([1, 2])

    def test_finite_parts(self):
        v = GrossVector([3 * G + 5, GrossNumber([(-1, 7)])])
        assert v.finite_parts() == (F(5), F(0))
