"""The pivot-updated simplex tableau against fresh solves with the basis
matrix (reference_simplex), checked at every pivot of seeded solves."""

import random
from collections import Counter

import pytest

import reference_simplex as ref
from grossone import simplex
from grossone.simplex import SolveStatus, Tableau, phase1, random_degenerate_lp, solve


def instances(count=12):
    for seed in range(count):
        rng = random.Random(4100 + seed)
        m = rng.randint(2, 5)
        n = rng.randint(m + 2, 10)
        yield seed, random_degenerate_lp(rng, m, n)


class FreshSolveChecker:
    """Wraps Tableau.pivot and the tableau readers that the simplex loop
    looks up by module name; each call is compared with the reference."""

    def __init__(self, monkeypatch):
        self.seen = Counter()
        self.problem = None
        pivot = Tableau.pivot

        def checked_pivot(tableau, row, entering):
            self.check_tableau(tableau)
            pivot(tableau, row, entering)
            self.check_tableau(tableau)
            self.seen["aux pivots" if tableau.lp is not self.problem else "pivots"] += 1

        monkeypatch.setattr(Tableau, "pivot", checked_pivot)
        for name in ("reduced_costs", "perturbed_rhs", "perturbed_objective",
                     "ratio_test_plain", "ratio_test_grossone"):
            monkeypatch.setattr(simplex, name, self.checked(name, getattr(simplex, name)))

    def check_tableau(self, tableau):
        lp, basis = tableau.lp, tableau.basis
        assert tableau.rows == ref.tableau_rows(lp, basis)
        assert tableau.objective == ref.objective_row(lp, basis)

    def checked(self, name, fn):
        reference = getattr(ref, name)

        def wrapper(tableau, *args):
            result = fn(tableau, *args)
            assert result == reference(tableau.lp, tableau.basis, *args), name
            self.seen[name] += 1
            if tableau.lp is self.problem:
                self.seen["phase two " + name] += 1
            return result

        return wrapper


@pytest.mark.parametrize("leaving", ["grossone", "plain"])
@pytest.mark.parametrize("entering", ["dantzig", "bland", "fixed_order"])
def test_tableau_equals_fresh_solves_at_every_pivot(monkeypatch, entering, leaving):
    checker = FreshSolveChecker(monkeypatch)
    for seed, lp in instances():
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


def test_phase_one_hands_over_the_tableau_of_the_problem():
    flipped = 0
    for seed, lp in instances(30):
        tableau = phase1(lp)
        assert tableau.lp is lp
        assert tableau.rows == ref.tableau_rows(lp, tableau.basis), f"seed {seed}"
        assert tableau.objective == ref.objective_row(lp, tableau.basis), f"seed {seed}"
        assert all(v >= 0 for v in ref.basic_solution(lp, tableau.basis))
        flipped += any(b < 0 for b in lp.b)
    assert flipped > 0


def test_pivot_matches_a_fresh_tableau():
    for seed, lp in instances():
        rng = random.Random(seed)
        tableau = Tableau(lp, phase1(lp).basis)
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
            assert (tableau.rows, tableau.objective) == (fresh.rows, fresh.objective)
            assert tableau.objective == ref.objective_row(lp, tableau.basis)
