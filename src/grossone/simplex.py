"""Primal simplex for standard-form LPs with pluggable pivot rules.

Problems are ``min <c, x>  s.t.  A x = b, x >= 0`` with exact rational data.
Entering rules: Dantzig (most negative reduced cost), Bland (smallest index),
or a fixed user-supplied preference order.  Leaving rules:

* ``plain``: textbook minimum-ratio test, ties broken by smallest basis
  position.  Cycles on degenerate problems by design (it is the baseline the
  anti-cycling rules are measured against).
* ``grossone``: the right-hand side is perturbed to ``b + A_B0 @ e`` with
  ``e = (G^-1, ..., G^-m)`` and B0 the initial (phase-one terminal) ordered
  basis.  Every ratio becomes a distinct gross-number, so the minimum is
  unique and the method terminates; two equal ratios signal a broken
  invariant and raise RatioTieError.
* ``lexicographic``: the classical tie-break over successive columns of
  ``A_B^-1 A_B0``, in plain rational arithmetic.  It is the independent
  oracle: it must select the same row as the grossone rule at every pivot.

All iteration linear algebra is exact and, on the solve path, integer.  A
Tableau holds integer rows over one positive denominator d (the rows of
``[A | b]`` scaled to integers, d = |det| of the scaled basis matrix).
Phase one's starting tableau is the integer output of one fraction-free
rational solve, adopted as it stands; every later pivot, in phase one and
phase two, is a fraction-free Edmonds-Bareiss update with exact integer
division.  The grossone rule, the reduced costs and the perturbed objective
all read signs and ratios off those integers; only the lexicographic oracle
solves with the basis matrix afresh at each pivot.  The grossone rule builds
no gross-number: two perturbed ratios are compared by integer cross products
of their tableau rows, level by level, down to the first level where they
differ.  Every pivot is logged in a PivotTrace, including the perturbed
objective as a gross-number, which strictly decreases under the grossone
rule.
"""

from __future__ import annotations

import enum
import itertools
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .arith import GrossNumber, _content_lines, _decimal_int
from .linalg import (
    SingularMatrixError,
    _as_fraction,
    _integer_row,
    rational_rank,
    solve_rational_columns,
    solve_rational_vector,
)

__all__ = [
    "Basis",
    "LpFormatError",
    "LpStandardForm",
    "PhaseOneError",
    "PivotEvent",
    "PivotTrace",
    "RankDeficiencyError",
    "RatioTieError",
    "SolveOutcome",
    "SolveStatus",
    "Tableau",
    "choose_entering",
    "enumerate_vertices_oracle",
    "parse_lp",
    "perturbed_objective",
    "perturbed_rhs",
    "phase1",
    "random_degenerate_lp",
    "ratio_test_grossone",
    "ratio_test_lexicographic",
    "ratio_test_plain",
    "reduced_costs",
    "solve",
]

ENTERING_RULES = ("dantzig", "bland", "fixed_order")
LEAVING_RULES = ("plain", "grossone", "lexicographic")


class RankDeficiencyError(ValueError):
    """The constraint matrix has rank below m (detected in phase one)."""


class RatioTieError(RuntimeError):
    """Two perturbed ratios compared equal: a uniqueness invariant is broken."""


class PhaseOneError(RuntimeError):
    """The phase-one auxiliary solve stopped short of an optimum."""


class LpFormatError(ValueError):
    """Malformed LP instance text."""


_ZERO = Fraction(0)


@dataclass(frozen=True)
class LpStandardForm:
    """min <c, x>  s.t.  A x = b, x >= 0, with A of full row rank m <= n."""

    a: Tuple[Tuple[Fraction, ...], ...]
    b: Tuple[Fraction, ...]
    c: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        a = tuple(tuple(map(_as_fraction, row)) for row in self.a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", tuple(map(_as_fraction, self.b)))
        object.__setattr__(self, "c", tuple(map(_as_fraction, self.c)))
        if not a or not a[0]:
            raise ValueError("A must be nonempty")
        n = len(a[0])
        if any(len(row) != n for row in a):
            raise ValueError("rows of A must have equal length")
        if len(self.b) != len(a):
            raise ValueError("b must have one entry per row of A")
        if len(self.c) != n:
            raise ValueError("c must have one entry per column of A")
        if len(a) > n:
            raise ValueError("standard form requires m <= n")

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.a[0])

    def column(self, j: int) -> Tuple[Fraction, ...]:
        return tuple(row[j] for row in self.a)


@dataclass(frozen=True)
class Basis:
    """Ordered basis: position k corresponds to row k of the basis system.

    The order matters — it fixes which infinitesimal G^-(k+1) perturbs which
    initial basic column.
    """

    indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(self.indices))
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("basis indices must be distinct")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, j: int) -> bool:
        return j in self.indices

    def complement(self, n: int) -> Tuple[int, ...]:
        members = set(self.indices)
        return tuple(j for j in range(n) if j not in members)

    def replaced(self, position: int, j: int) -> "Basis":
        indices = list(self.indices)
        indices[position] = j
        return Basis(tuple(indices))


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"
    CYCLE_DETECTED = "cycle_detected"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class PivotEvent:
    """One pivot: the basis it starts from and the perturbed objective there."""

    iteration: int
    basis: Tuple[int, ...]
    entering: int
    leaving: int
    objective: GrossNumber


@dataclass
class PivotTrace:
    events: List[PivotEvent] = field(default_factory=list)

    def format_lines(self) -> List[str]:
        # Column indices are printed 1-based (x1..xn convention).
        return [
            f"iter={e.iteration} enter={e.entering + 1} leave={e.leaving + 1} obj={e.objective}"
            for e in self.events
        ]


@dataclass
class SolveOutcome:
    status: SolveStatus
    x: Optional[Tuple[Fraction, ...]]
    value: Optional[Fraction]
    trace: PivotTrace
    final_basis: Optional[Basis] = None
    final_objective: Optional[GrossNumber] = None


# -- the tableau ------------------------------------------------------------------


class Tableau:
    """Exact simplex tableau of an ordered basis, kept current by pivots.

    The tableau ``A_B^-1 [A | b]`` (m rows of n + 1 entries) is held as
    integer ``rows`` over one positive integer ``denominator`` d.  Each row
    of ``[A | b]`` is first scaled to integers by the lcm of its
    denominators; a row scaling S cancels, ``(S A_B)^-1 S A = A_B^-1 A``, and
    d is kept equal to ``|det(S A_B)|``, so ``rows = d A_B^-1 [A | b]`` is
    integral (Cramer's rule).  ``objective`` holds the reduced-cost row
    ``d_j = c_j - c_B . T[:, j]`` (last entry ``-c_B . x_B``) over the same
    d, with c scaled to the integers ``costs`` by ``cost_scale``, the lcm of
    its denominators: true value = ``objective[j] / (d * cost_scale)``.

    A fresh basis costs one rational solve, whose integer columns and
    denominator d the tableau adopts as they stand.  ``pivot`` is the
    Edmonds-Bareiss integer update of all m + 1 rows, whose divisions are
    exact, so no later basis is factorized afresh and no pivot normalizes an
    entry by a gcd.  Because row k belongs to basis position k, ``A_B^-1 A_B0`` is
    simply the tableau's columns at the initial basis B0.
    """

    __slots__ = ("lp", "basis", "rows", "denominator", "cost_scale", "costs", "objective")

    def __init__(
        self,
        lp: LpStandardForm,
        basis: Basis,
        rows: Optional[List[List[int]]] = None,
        denominator: int = 1,
    ):
        """Solve for the tableau of ``basis``, or adopt integer ``rows`` with
        ``rows / denominator`` already equal to it."""
        self.lp = lp
        if rows is None:
            # The solve scales each row of [A_B | A | b], that is of [A | b],
            # to integers and returns d = |det(S A_B)| with d A_B^-1 [A | b].
            a_b = [[lp.a[i][j] for j in basis] for i in range(lp.m)]
            columns, denominator = solve_rational_columns(
                a_b, [lp.column(j) for j in range(lp.n)] + [lp.b]
            )
            rows = [list(row) for row in zip(*columns)]
        self.rows = rows
        self.denominator = denominator
        self.basis = basis
        self.costs, self.cost_scale = _integer_row(lp.c + (_ZERO,))
        d = self.denominator
        objective = [d * cost for cost in self.costs]
        for position, j in enumerate(basis):
            if self.costs[j]:
                objective = [o - self.costs[j] * v for o, v in zip(objective, self.rows[position])]
        self.objective = objective

    def pivot(self, row: int, entering: int) -> None:
        """Bring column ``entering`` into basis position ``row``."""
        denominator = self.denominator
        self._eliminate(row, entering)
        self.objective = _bareiss(self.objective, self.rows[row], entering, denominator)
        self.basis = self.basis.replaced(row, entering)

    def _eliminate(self, row: int, entering: int) -> None:
        """Bareiss update of the m rows about ``p = rows[row][entering]``,
        with the pivot row negated first when p < 0; then ``d' = |p|``."""
        rows = self.rows
        if rows[row][entering] < 0:
            rows[row] = [-v for v in rows[row]]
        pivot_row = rows[row]
        for i, other in enumerate(rows):
            if i != row:
                rows[i] = _bareiss(other, pivot_row, entering, self.denominator)
        self.denominator = pivot_row[entering]

    def point(self) -> Tuple[Tuple[Fraction, ...], Fraction]:
        """The basic solution x and its objective value <c, x>.

        The value is read off the objective row, whose last entry is
        ``-d * cost_scale * c_B . x_B``, as one exact quotient.
        """
        d = self.denominator
        x = [_ZERO] * self.lp.n
        for position, j in enumerate(self.basis):
            x[j] = Fraction(self.rows[position][-1], d)
        return tuple(x), Fraction(-self.objective[-1], d * self.cost_scale)


def _bareiss(target: List[int], pivot_row: List[int], entering: int, d: int) -> List[int]:
    """``(N_ij p - N_ie N_rj) / d`` over one row, p = pivot_row[entering] > 0.

    Every division is exact.  A row with ``N_ie = 0`` still moves to the new
    denominator, ``N_ij p / d``.
    """
    p = pivot_row[entering]
    factor = target[entering]
    if not factor:
        return target if p == d else [v * p // d for v in target]
    if d == 1:
        return [v * p - factor * w for v, w in zip(target, pivot_row)]
    return [(v * p - factor * w) // d for v, w in zip(target, pivot_row)]


# -- readers of the tableau ------------------------------------------------------------


def reduced_costs(tableau: Tableau) -> Dict[int, Fraction]:
    """Exact reduced costs of the nonbasic columns."""
    scale = tableau.denominator * tableau.cost_scale
    objective = tableau.objective
    return {j: Fraction(objective[j], scale) for j in tableau.basis.complement(tableau.lp.n)}


def choose_entering(
    costs: Mapping[int, Fraction],
    rule: str = "dantzig",
    order: Optional[Sequence[int]] = None,
) -> Optional[int]:
    """Pick the entering column, or None when all reduced costs are >= 0.

    Dantzig's rule takes the most negative cost, the smallest column on a
    tie.  Costs may be ``Fraction``s or ``int``s; their sign is the sign of
    the numerator.
    """
    negatives = [j for j, c in costs.items() if c.numerator < 0]
    if not negatives:
        return None
    if rule == "dantzig":
        return min(sorted(negatives), key=costs.__getitem__)
    if rule == "bland":
        return min(negatives)
    if rule == "fixed_order":
        if order is None:
            raise ValueError("fixed_order rule needs a preference order")
        for j in order:
            if j in negatives:
                return j
        raise ValueError("preference order does not cover all candidate columns")
    raise ValueError(f"unknown entering rule {rule!r}")


def perturbed_rhs(tableau: Tableau, base_basis: Basis) -> Tuple[GrossNumber, ...]:
    """A_B^-1 b + (A_B^-1 A_B0) e with e = (G^-1, ..., G^-m).

    The finite part of each entry is exactly (A_B^-1 b)_i; the perturbation
    only adds infinitesimals.
    """
    d = tableau.denominator
    entries = []
    for row in tableau.rows:
        terms = [(0, Fraction(row[-1], d))]
        terms.extend((-(k + 1), Fraction(row[j], d)) for k, j in enumerate(base_basis))
        entries.append(GrossNumber(terms))
    return tuple(entries)


def perturbed_objective(tableau: Tableau, base_basis: Basis) -> GrossNumber:
    """Objective of the perturbed problem at the current basis, a gross-number.

    It is ``c_B . (perturbed rhs)``: the finite part ``c_B . x_B`` is minus
    the last objective-row entry, and the coefficient of G^-(k+1) is
    ``c_B . A_B^-1 A_B0[k] = c_B0[k] - d_B0[k]``.
    """
    d = tableau.denominator
    objective, costs = tableau.objective, tableau.costs
    digits = [(0, -objective[-1])]
    digits.extend((-(k + 1), d * costs[j] - objective[j]) for k, j in enumerate(base_basis))
    scale = d * tableau.cost_scale
    return GrossNumber._from_terms(
        tuple((p, Fraction(digit, scale)) for p, digit in digits if digit)
    )


# -- leaving rules ----------------------------------------------------------------


def ratio_test_plain(tableau: Tableau, entering: int) -> Optional[int]:
    """Textbook ratio test; ties go to the smallest basis position.

    Returns the leaving row, or None when the entering direction is
    nonpositive (problem unbounded below).  The tie-break deliberately
    reproduces classic cycling on degenerate instances.  The ratio of row i
    is ``N_ib / N_ie`` (d cancels), compared by cross-multiplication.
    """
    return _first_minimum(tableau.rows, entering, (-1,))


def ratio_test_grossone(
    tableau: Tableau,
    base_basis: Basis,
    entering: int,
) -> Optional[int]:
    """Ratio test on the infinitesimally perturbed right-hand side.

    Each candidate ratio is the gross-number (perturbed rhs)_i / direction_i,
    whose digits are ``N_ik / N_ie`` (the denominator d cancels) at G^0 for
    the rhs column and at G^-(k+1) for column ``base_basis[k]``.  No
    gross-number is built: two ratios are compared by integer cross
    products, level by level from G^0 down, and the first level where they
    differ decides (``_ratio_order``).  The perturbation makes all ratios
    distinct, so the minimum is attained at a unique row; an observed tie
    means the rows of A_B^-1 A_B0 were not independent and raises
    RatioTieError.
    """
    rows = tableau.rows
    columns = (-1, *base_basis)
    best_row = _first_minimum(rows, entering, columns)
    if best_row is None:
        return None
    best = rows[best_row]
    ties = [
        i for i, row in enumerate(rows)
        if i != best_row and row[entering] > 0 and _ratio_order(row, best, entering, columns) == 0
    ]
    if ties:
        raise RatioTieError(
            f"grossone ratio test: perturbed ratios tie between rows {best_row} and "
            f"{ties[0]}; rows of the carried initial basis are not independent"
        )
    return best_row


def _first_minimum(rows: List[List[int]], entering: int, columns: Sequence[int]) -> Optional[int]:
    """The first of the rows with a positive entry in column ``entering``
    whose ratio over ``columns`` (``_ratio_order``) is least, or None when
    no row has one."""
    best_row = best = None
    for i, row in enumerate(rows):
        if row[entering] > 0 and (best is None or _ratio_order(row, best, entering, columns) < 0):
            best_row, best = i, row
    return best_row


def _ratio_order(row: List[int], other: List[int], entering: int, columns: Sequence[int]) -> int:
    """Sign (-1, 0 or 1) of ``ratio(row) - ratio(other)``, where the ratio
    of a row has the digits ``row[j] / row[entering]`` for j in ``columns``,
    the leading level first.

    Both directions are positive, so at each level ``row[j] / row[e]``
    against ``other[j] / other[e]`` orders as the cross products
    ``row[j] * other[e]`` against ``other[j] * row[e]``.
    """
    e, f = row[entering], other[entering]
    for j in columns:
        left, right = row[j] * f, other[j] * e
        if left != right:
            return -1 if left < right else 1
    return 0


def ratio_test_lexicographic(
    lp: LpStandardForm,
    basis: Basis,
    base_basis: Basis,
    entering: int,
) -> Optional[int]:
    """Classical lexicographic leaving rule, rational arithmetic only.

    Minimum ratio first; surviving ties are broken column by column of
    A_B^-1 A_B0 until a single row remains.  It is the independent oracle for
    the grossone rule, so it reads no tableau: every quantity comes from
    fresh solves with the basis matrix.  The solves return integers over a
    positive denominator; within one solve it cancels from each ratio, and
    between the two solves it scales all ratios of a column alike, which
    leaves their order, the only thing compared, unchanged.
    """
    a_b = [[lp.a[i][j] for j in basis] for i in range(lp.m)]
    (direction, xb), _ = solve_rational_columns(a_b, [lp.column(entering), lp.b])
    candidate_rows = [i for i in range(lp.m) if direction[i] > 0]
    if not candidate_rows:
        return None
    survivors = _argmin_rows(candidate_rows, {i: Fraction(xb[i], direction[i]) for i in candidate_rows})
    if len(survivors) == 1:
        return survivors[0]
    carried, _ = solve_rational_columns(a_b, [lp.column(j) for j in base_basis])
    for k in range(len(base_basis)):
        survivors = _argmin_rows(
            survivors, {i: Fraction(carried[k][i], direction[i]) for i in survivors}
        )
        if len(survivors) == 1:
            return survivors[0]
    raise RatioTieError(
        "lexicographic ratio test: tie-break exhausted every column without a unique row"
    )


def _argmin_rows(rows: Sequence[int], values: Mapping[int, Fraction]) -> List[int]:
    minimum = min(values[i] for i in rows)
    return [i for i in rows if values[i] == minimum]


# -- the simplex loop --------------------------------------------------------------


def _leaving_row(tableau, base_basis, entering, rule):
    if rule == "plain":
        return ratio_test_plain(tableau, entering)
    if rule == "grossone":
        return ratio_test_grossone(tableau, base_basis, entering)
    if rule == "lexicographic":
        return ratio_test_lexicographic(tableau.lp, tableau.basis, base_basis, entering)
    raise ValueError(f"unknown leaving rule {rule!r}")


def _simplex_loop(
    tableau: Tableau,
    entering_rule: str,
    leaving_rule: str,
    order: Optional[Sequence[int]],
    max_iter: int,
) -> SolveOutcome:
    """Pivot ``tableau`` in place from its current basis, which becomes B0."""
    base_basis = tableau.basis
    trace = PivotTrace()
    visited = {base_basis.indices}

    def outcome(status: SolveStatus, point=(None, None)) -> SolveOutcome:
        return SolveOutcome(
            status, *point, trace,
            tableau.basis, perturbed_objective(tableau, base_basis),
        )

    for iteration in range(1, max_iter + 1):
        costs = reduced_costs(tableau)
        entering = choose_entering(costs, entering_rule, order)
        if entering is None:
            return outcome(SolveStatus.OPTIMAL, tableau.point())
        row = _leaving_row(tableau, base_basis, entering, leaving_rule)
        if row is None:
            return outcome(SolveStatus.UNBOUNDED)
        trace.events.append(PivotEvent(
            iteration, tableau.basis.indices, entering, tableau.basis.indices[row],
            perturbed_objective(tableau, base_basis),
        ))
        tableau.pivot(row, entering)
        if tableau.basis.indices in visited:
            return outcome(SolveStatus.CYCLE_DETECTED)
        visited.add(tableau.basis.indices)
    return outcome(SolveStatus.ITERATION_LIMIT)


def phase1(lp: LpStandardForm, max_iter: int = 10_000) -> Optional[Tableau]:
    """Find the tableau of a feasible ordered basis, or None when the LP is
    infeasible.

    Rows with negative right-hand side are sign-flipped, existing unit
    columns are reused, and artificial variables cover the remaining rows.
    The auxiliary problem runs with the grossone leaving rule, so phase one
    itself cannot cycle; if it still stops short of an optimum,
    PhaseOneError is raised.  Artificial columns still basic (at zero) after
    the auxiliary solve are pivoted out; if one cannot be, A has rank < m and
    RankDeficiencyError is raised.  The returned tableau is the auxiliary
    one without its artificial columns: the row sign flips D cancel, as
    ``(D A_B)^-1 D A = A_B^-1 A``.
    """
    m, n = lp.m, lp.n
    rows = [list(row) for row in lp.a]
    rhs = list(lp.b)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    unit_for_row: Dict[int, int] = {}
    used = set()
    for i in range(m):
        for j in range(n):
            if j in used:
                continue
            if rows[i][j] == 1 and all(rows[k][j] == 0 for k in range(m) if k != i):
                unit_for_row[i] = j
                used.add(j)
                break
    if len(unit_for_row) == m:
        return Tableau(lp, Basis(tuple(unit_for_row[i] for i in range(m))))

    artificial_rows = [i for i in range(m) if i not in unit_for_row]
    aux_rows = [
        row + [Fraction(1) if (i == k) else Fraction(0) for k in artificial_rows]
        for i, row in enumerate(rows)
    ]
    aux_c = [Fraction(0)] * n + [Fraction(1)] * len(artificial_rows)
    aux_lp = LpStandardForm(tuple(map(tuple, aux_rows)), tuple(rhs), tuple(aux_c))
    start_indices = []
    next_artificial = n
    for i in range(m):
        if i in unit_for_row:
            start_indices.append(unit_for_row[i])
        else:
            start_indices.append(next_artificial)
            next_artificial += 1
    tableau = Tableau(aux_lp, Basis(tuple(start_indices)))
    outcome = _simplex_loop(tableau, "dantzig", "grossone", None, max_iter)
    if outcome.status is not SolveStatus.OPTIMAL:
        raise PhaseOneError(
            f"phase one: auxiliary solve ended with status {outcome.status.value}"
        )
    if outcome.value > 0:
        return None

    # A pivot changes only its own position, so the snapshot stays valid.
    for position, basic in enumerate(tableau.basis.indices):
        if basic < n:
            continue
        row = tableau.rows[position]
        replacement = next(
            (j for j in range(n) if j not in tableau.basis and row[j] != 0), None
        )
        if replacement is None:
            raise RankDeficiencyError(
                "constraint matrix has linearly dependent rows (rank < m)"
            )
        tableau.pivot(position, replacement)
    return Tableau(
        lp, tableau.basis, [row[:n] + row[-1:] for row in tableau.rows], tableau.denominator
    )


def solve(
    lp: LpStandardForm,
    entering: str = "dantzig",
    leaving: str = "grossone",
    order: Optional[Sequence[int]] = None,
    max_iter: int = 1000,
) -> SolveOutcome:
    """Two-phase simplex with the selected entering and leaving rules."""
    if entering not in ENTERING_RULES:
        raise ValueError(f"unknown entering rule {entering!r}")
    if leaving not in LEAVING_RULES:
        raise ValueError(f"unknown leaving rule {leaving!r}")
    if entering == "fixed_order":
        if order is None or sorted(order) != list(range(lp.n)):
            raise ValueError("fixed_order needs a permutation of all column indices")
    tableau = phase1(lp)
    if tableau is None:
        return SolveOutcome(SolveStatus.INFEASIBLE, None, None, PivotTrace())
    return _simplex_loop(tableau, entering, leaving, order, max_iter)


def enumerate_vertices_oracle(
    lp: LpStandardForm,
) -> Optional[Tuple[Fraction, Tuple[Fraction, ...]]]:
    """Brute-force optimum over all basic feasible solutions.

    Tries every m-subset of columns, keeps the feasible basic solutions and
    minimizes <c, x>.  Valid for bounded feasible instances (unboundedness is
    not detected).  Returns (value, x), or None when no feasible basis exists.
    """
    best: Optional[Tuple[Fraction, Tuple[Fraction, ...]]] = None
    for columns in itertools.combinations(range(lp.n), lp.m):
        matrix = [[lp.a[i][j] for j in columns] for i in range(lp.m)]
        try:
            xb = solve_rational_vector(matrix, lp.b)
        except SingularMatrixError:
            continue
        if any(v < 0 for v in xb):
            continue
        x = [Fraction(0)] * lp.n
        for position, j in enumerate(columns):
            x[j] = xb[position]
        value = sum(cj * xj for cj, xj in zip(lp.c, x))
        if best is None or value < best[0]:
            best = (value, tuple(x))
    return best


# -- instance text format -----------------------------------------------------------

_RATIONAL_TOKEN = re.compile(r"^([+-]?)(\d+)(?:/(\d+))?$")


def _parse_rational_token(token: str, line_no: int) -> Fraction:
    match = _RATIONAL_TOKEN.match(token)
    if not match:
        raise LpFormatError(f"line {line_no}: bad rational {token!r} (use p/q or an integer)")
    sign, numerator, denominator = match.groups()
    try:
        value = Fraction(_decimal_int(numerator), _decimal_int(denominator or "1"))
    except ZeroDivisionError:
        raise LpFormatError(f"line {line_no}: zero denominator in {token!r}") from None
    except ValueError as exc:
        raise LpFormatError(f"line {line_no}: {exc}") from None
    return -value if sign == "-" else value


def parse_lp(text: str) -> LpStandardForm:
    """Parse the line-oriented LP format.

    Line 1: "m n".  Line 2: "c:" and n rationals.  Then m lines "A:" with n
    rationals each, and one line "b:" with m rationals.  '#' starts a
    comment; blank lines are ignored.
    """
    lines = list(_content_lines(text))
    if not lines:
        raise LpFormatError("empty LP instance")

    def tagged_rationals(entry: Tuple[int, str], tag: str, count: int) -> List[Fraction]:
        line_no, content = entry
        if not content.startswith(tag):
            raise LpFormatError(f"line {line_no}: expected a {tag!r} line")
        tokens = content[len(tag):].split()
        if len(tokens) != count:
            raise LpFormatError(
                f"line {line_no}: expected {count} rationals after {tag!r}, got {len(tokens)}"
            )
        return [_parse_rational_token(t, line_no) for t in tokens]

    line_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise LpFormatError(f"line {line_no}: expected header 'm n'")
    try:
        m, n = map(_decimal_int, parts)
    except ValueError as exc:
        raise LpFormatError(f"line {line_no}: {exc}") from None
    if len(lines) != 2 + m + 1:
        raise LpFormatError(
            f"expected {2 + m + 1} content lines for m={m}, got {len(lines)}"
        )
    c = tagged_rationals(lines[1], "c:", n)
    a = [tagged_rationals(lines[2 + i], "A:", n) for i in range(m)]
    b = tagged_rationals(lines[2 + m], "b:", m)
    try:
        return LpStandardForm(tuple(map(tuple, a)), tuple(b), tuple(c))
    except ValueError as exc:  # e.g. m > n, or an empty A
        raise LpFormatError(f"line {line_no}: {exc}") from None


# -- synthetic degenerate instances ---------------------------------------------------


def random_degenerate_lp(rng: random.Random, m: int, n: int) -> LpStandardForm:
    """Seeded bounded feasible instance with ratio-test ties built in.

    The first constraint row is all ones, so the feasible region is bounded.
    The right-hand side comes from a random basic solution whose entries
    include zeros, which makes the starting vertex degenerate and forces
    ties in the ratio test.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    while True:
        rows = [[Fraction(1)] * n]
        rows.extend(
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m - 1)
        )
        columns = rng.sample(range(n), m)
        matrix = [[rows[i][j] for j in columns] for i in range(m)]
        if rational_rank(matrix) < m:
            continue
        values = [Fraction(rng.choice((0, 0, 1, 2, 3))) for _ in range(m)]
        if all(v == 0 for v in values) and m > 1:
            values[0] = Fraction(1)
        b = [sum(matrix[i][k] * values[k] for k in range(m)) for i in range(m)]
        c = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        return LpStandardForm(tuple(map(tuple, rows)), tuple(b), tuple(c))
