"""Reference Newton system of the weighted penalty, for tests.

For ``min f  s.t.  g <= 0, h = 0`` and a weight w the penalty is

    f + (w/2) * sum_i max{0, g_i}^2 + (w/2) * sum_j h_j^2

and Newton solves ``J step = -gradient`` with

    gradient_a = df/dx_a + w * (sum_{g_i > 0} g_i dg_i/dx_a + sum_j h_j dh_j/dx_a)
    J_ab = d2f/dx_a dx_b
           + w * sum_{g_i > 0} (g_i d2g_i/dx_a dx_b + dg_i/dx_a dg_i/dx_b)
           + w * sum_j (h_j d2h_j/dx_a dx_b + dh_j/dx_a dh_j/dx_b)

where g_i > 0 is the full gross-number sign.  This module assembles both
straight from those formulas at a given point: inequalities and equalities
have their own branches, and every entry differentiates afresh.  Nothing is
shared with ``grossone.penalty``.
"""

from __future__ import annotations

from grossone.arith import ZERO
from grossone.polyexpr import differentiate, eval_gross


def newton_system(problem, x, weight):
    """(gradient, Jacobian) of the penalty at x, as lists of gross-numbers."""
    n = problem.dimension

    def first(expr, a):
        return eval_gross(differentiate(expr, a), x)

    def second(expr, a, b):
        return eval_gross(differentiate(differentiate(expr, a), b), x)

    active = [g for g in problem.inequalities if eval_gross(g, x).sign() > 0]
    gradient = []
    jacobian = []
    for a in range(n):
        total = ZERO
        for g in active:
            total = total + eval_gross(g, x) * first(g, a)
        for h in problem.equalities:
            total = total + eval_gross(h, x) * first(h, a)
        gradient.append(first(problem.objective, a) + weight * total)
        row = []
        for b in range(n):
            total = ZERO
            for g in active:
                total = total + eval_gross(g, x) * second(g, a, b) + first(g, a) * first(g, b)
            for h in problem.equalities:
                total = total + eval_gross(h, x) * second(h, a, b) + first(h, a) * first(h, b)
            row.append(second(problem.objective, a, b) + weight * total)
        jacobian.append(row)
    return gradient, jacobian
