"""The pivot-updated simplex tableau against fresh solves with the basis
matrix (reference_simplex), checked at every pivot of seeded solves on
integer data and on rationally scaled data."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import reference_simplex as ref
from grossone import simplex
from grossone.simplex import SolveStatus, Tableau, phase1, random_degenerate_lp, solve

from helpers import rational_degenerate_lp

GENERATORS = {"integer": random_degenerate_lp, "rational": rational_degenerate_lp}


def instances(data="integer", count=12):
    for seed in range(count):
        rng = random.Random(4100 + seed)
        m = rng.randint(2, 5)
        n = rng.randint(m + 2, 10)
        yield seed, GENERATORS[data](rng, m, n)


def tableau_values(tableau):
    """The tableau rows and the reduced-cost row as exact rationals."""
    d = tableau.denominator
    rows = [[Fraction(v, d) for v in row] for row in tableau.rows]
    objective = [Fraction(v, d * tableau.cost_scale) for v in tableau.objective]
    return rows, objective


def check_tableau(tableau):
    """Every tableau quantity against fresh solves, and the Bareiss
    invariant: integer entries over d = |det| of the integer-scaled A_B."""
    lp, basis = tableau.lp, tableau.basis
    rows, objective = tableau_values(tableau)
    assert rows == ref.tableau_rows(lp, basis)
    assert objective == ref.objective_row(lp, basis)
    x, value = tableau.point()
    assert [x[j] for j in basis] == ref.basic_solution(lp, basis)
    assert value == sum(cj * xj for cj, xj in zip(lp.c, x))
    assert all(type(v) is int for row in tableau.rows for v in row)
    assert all(type(v) is int for v in tableau.objective)
    assert tableau.denominator == abs(ref.determinant(ref.integer_scaled_basis_matrix(lp, basis)))


class FreshSolveChecker:
    """Wraps Tableau.pivot and the tableau readers that the simplex loop
    looks up by module name; each call is compared with the reference.
    ``perturbed_rhs``, which the loop does not call, is checked at every
    grossone ratio test against the same base basis."""

    def __init__(self, monkeypatch):
        self.seen = Counter()
        self.problem = None
        pivot = Tableau.pivot

        def checked_pivot(tableau, row, entering):
            check_tableau(tableau)
            pivot(tableau, row, entering)
            check_tableau(tableau)
            self.seen["aux pivots" if tableau.lp is not self.problem else "pivots"] += 1

        monkeypatch.setattr(Tableau, "pivot", checked_pivot)
        for name in ("reduced_costs", "perturbed_objective",
                     "ratio_test_plain", "ratio_test_grossone"):
            monkeypatch.setattr(simplex, name, self.checked(name, getattr(simplex, name)))

    def agree(self, name, tableau, args, result):
        assert result == getattr(ref, name)(tableau.lp, tableau.basis, *args), name
        self.seen[name] += 1
        if tableau.lp is self.problem:
            self.seen["phase two " + name] += 1

    def checked(self, name, fn):
        def wrapper(tableau, *args):
            result = fn(tableau, *args)
            self.agree(name, tableau, args, result)
            if name == "ratio_test_grossone":
                base_basis = args[0]
                rhs = simplex.perturbed_rhs(tableau, base_basis)
                self.agree("perturbed_rhs", tableau, (base_basis,), rhs)
            return result

        return wrapper


def run_checked_solves(monkeypatch, entering, leaving, data):
    checker = FreshSolveChecker(monkeypatch)
    for seed, lp in instances(data):
        checker.problem = lp
        order = random.Random(seed).sample(range(lp.n), lp.n) if entering == "fixed_order" else None
        outcome = solve(lp, entering=entering, leaving=leaving, order=order, max_iter=30)
        assert outcome.status is not SolveStatus.INFEASIBLE, f"seed {seed}"
    assert checker.seen["aux pivots"] > 0
    assert checker.seen["pivots"] > 0
    for name in ("reduced_costs", "perturbed_objective", f"ratio_test_{leaving}"):
        assert checker.seen["phase two " + name] > 0, name
    if leaving == "grossone":
        assert checker.seen["phase two perturbed_rhs"] > 0


@pytest.mark.parametrize("leaving", ["grossone", "plain"])
@pytest.mark.parametrize("entering", ["dantzig", "bland", "fixed_order"])
def test_tableau_equals_fresh_solves_at_every_pivot(monkeypatch, entering, leaving):
    run_checked_solves(monkeypatch, entering, leaving, "integer")


@pytest.mark.parametrize("leaving", ["grossone", "plain"])
@pytest.mark.parametrize("entering", ["dantzig", "bland", "fixed_order"])
def test_rational_tableau_equals_fresh_solves_at_every_pivot(monkeypatch, entering, leaving):
    run_checked_solves(monkeypatch, entering, leaving, "rational")


def test_phase_one_hands_over_the_tableau_of_the_problem():
    for data in GENERATORS:
        flipped = 0
        for seed, lp in instances(data, 30):
            tableau = phase1(lp)
            assert tableau.lp is lp
            check_tableau(tableau)
            assert all(v >= 0 for v in ref.basic_solution(lp, tableau.basis)), f"{data} seed {seed}"
            flipped += any(b < 0 for b in lp.b)
        assert flipped > 0, data


def test_pivot_matches_a_fresh_tableau():
    for data in GENERATORS:
        for seed, lp in instances(data):
            rng = random.Random(seed)
            tableau = Tableau(lp, phase1(lp).basis)
            check_tableau(tableau)
            for _ in range(6):
                candidates = [
                    (row, j)
                    for j in tableau.basis.complement(lp.n)
                    for row in range(lp.m)
                    if tableau.rows[row][j] != 0
                ]
                row, entering = rng.choice(candidates)
                tableau.pivot(row, entering)
                fresh = Tableau(lp, tableau.basis)
                assert (tableau.rows, tableau.denominator, tableau.objective) == (
                    fresh.rows, fresh.denominator, fresh.objective
                )
                check_tableau(tableau)
