import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from grossone.arith import GrossNumber, compare
from grossone.simplex import (
    Basis,
    LpFormatError,
    LpStandardForm,
    RankDeficiencyError,
    RatioTieError,
    SolveStatus,
    Tableau,
    _ratio_order,
    choose_entering,
    enumerate_vertices_oracle,
    parse_lp,
    perturbed_rhs,
    phase1,
    random_degenerate_lp,
    ratio_test_grossone,
    ratio_test_lexicographic,
    ratio_test_plain,
    reduced_costs,
    solve,
)

from helpers import INSTANCE_DIR
from reference_simplex import basic_solution

F = Fraction


def lp_from(rows, b, c):
    return LpStandardForm(tuple(map(tuple, rows)), tuple(b), tuple(c))


@pytest.fixture(scope="module")
def beale():
    return parse_lp((INSTANCE_DIR / "beale.lp").read_text())


TINY = lp_from([[1, 1]], [1], [-1, 0])

# Basis (2, 3) is the identity; columns 0 and 1 serve as the carried initial
# basis.  Entering column 4 produces the finite ratio tie 1 : 1 whose first
# perturbation coefficients are 1/2 and 1/3, so row 1 must win.
TIE_LP = lp_from(
    [[1, 0, 1, 0, 2], [1, 1, 0, 1, 3]],
    [2, 3],
    [0, 0, 0, 0, -1],
)

# Columns 0 and 1 are equal, so the carried rows are dependent and every
# candidate ratio coincides at every order: the uniqueness invariant breaks.
BROKEN_TIE_LP = lp_from(
    [[1, 1, 1, 0, 1], [2, 2, 0, 1, 2]],
    [1, 2],
    [0, 0, 0, 0, -1],
)


class TestStandardForm:
    def test_requires_m_at_most_n(self):
        with pytest.raises(ValueError):
            lp_from([[1], [1]], [1, 1], [1])

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            lp_from([[1, 2], [3]], [1, 1], [1, 2])
        with pytest.raises(ValueError):
            lp_from([[1, 2]], [1, 1], [1, 2])

    def test_column(self):
        lp = lp_from([[1, 2], [3, 4]], [1, 1], [0, 0])
        assert lp.column(1) == (F(2), F(4))

    def test_accepts_ints_fractions_and_strings(self):
        lp = lp_from([[1, F(1, 2)]], ["-3/4"], [0, "2"])
        assert lp == lp_from([[F(1), F(1, 2)]], [F(-3, 4)], [F(0), F(2)])
        assert all(type(v) is Fraction for v in lp.a[0] + lp.b + lp.c)

    @pytest.mark.parametrize("bad", [0.1, 0.5, 1.0, True, False, None])
    def test_refuses_floats_and_bools(self, bad):
        with pytest.raises(TypeError):
            lp_from([[1, bad]], [1], [0, 1])
        with pytest.raises(TypeError):
            lp_from([[1, 1]], [bad], [0, 1])
        with pytest.raises(TypeError):
            lp_from([[1, 1]], [1], [bad, 1])


class TestBasis:
    def test_replaced_keeps_order(self):
        basis = Basis((4, 5, 6))
        assert basis.replaced(1, 0).indices == (4, 0, 6)

    def test_complement(self):
        assert Basis((2, 0)).complement(4) == (1, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Basis((1, 1))


class TestPhase1:
    def test_reuses_identity_columns(self, beale):
        assert phase1(beale).basis.indices == (4, 5, 6)

    def test_simple_equality(self):
        tableau = phase1(TINY)
        assert tableau is not None
        assert len(tableau.basis) == 1

    def test_negative_rhs_rows_are_flipped(self):
        lp = lp_from([[-1, 0], [0, 1]], [-2, 1], [1, 1])
        tableau = phase1(lp)
        assert tableau is not None
        outcome = solve(lp)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.x == (F(2), F(1))

    def test_inconsistent_is_infeasible(self):
        lp = lp_from([[1, 0], [1, 0]], [-1, 2], [0, 0])
        assert phase1(lp) is None

    def test_rank_deficiency_detected(self):
        lp = lp_from([[1, 0], [1, 0]], [1, 1], [0, 0])
        with pytest.raises(RankDeficiencyError):
            phase1(lp)


class TestReducedCosts:
    def test_zero_objective(self):
        costs = reduced_costs(Tableau(TINY, Basis((0,))))
        assert costs == {1: F(1)}

    def test_hand_computed(self):
        costs = reduced_costs(Tableau(TINY, Basis((1,))))
        assert costs == {0: F(-1)}

    def test_nonnegative_at_optimum(self, beale):
        outcome = solve(beale, entering="dantzig", leaving="grossone")
        costs = reduced_costs(Tableau(beale, outcome.final_basis))
        assert all(value >= 0 for value in costs.values())


class TestChooseEntering:
    def test_none_when_all_nonnegative(self):
        assert choose_entering({3: F(0), 5: F(2)}) is None

    def test_dantzig_most_negative(self):
        costs = {3: F(-1), 5: F(-3)}
        assert choose_entering(costs, "dantzig") == 5
        assert choose_entering(costs, "bland") == 3

    def test_dantzig_tie_breaks_to_smallest_index(self):
        assert choose_entering({7: F(-2), 2: F(-2)}, "dantzig") == 2

    def test_fixed_order(self):
        costs = {0: F(-1), 2: F(-5)}
        assert choose_entering(costs, "fixed_order", order=[1, 0, 2]) == 0
        assert choose_entering(costs, "fixed_order", order=[2, 0, 1]) == 2

    def test_fixed_order_requires_order(self):
        with pytest.raises(ValueError):
            choose_entering({0: F(-1)}, "fixed_order")

    @pytest.mark.parametrize("rule", ["dantzig", "bland", "fixed_order"])
    def test_int_and_fraction_costs_pick_the_same_column(self, rule):
        rng = random.Random(11)
        ties = 0
        for _ in range(300):
            # Keys in random order, values in a small range: ties are common.
            integers = {j: rng.randint(-4, 4) for j in rng.sample(range(10), rng.randint(1, 8))}
            scale = rng.randint(1, 6)
            fractions = {j: F(v, scale) for j, v in integers.items()}
            order = rng.sample(range(10), 10)
            chosen = choose_entering(integers, rule, order)
            assert choose_entering(fractions, rule, order) == chosen
            negatives = [j for j, v in integers.items() if v < 0]
            if rule == "dantzig" and negatives:
                lowest = min(integers[j] for j in negatives)
                tied = [j for j in negatives if integers[j] == lowest]
                ties += len(tied) > 1
                assert chosen == min(tied)
        assert rule != "dantzig" or ties > 20


class TestRatioTests:
    RATIO_LP = lp_from(
        [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
        [2, 1, 3],
        [0, 0, 0, -1],
    )

    def test_plain_minimum_row(self):
        assert ratio_test_plain(Tableau(self.RATIO_LP, Basis((0, 1, 2))), 3) == 1

    def test_plain_unbounded(self):
        lp = lp_from([[1, -1]], [0], [-1, 0])
        basis = Basis((0,))
        assert ratio_test_plain(Tableau(lp, basis), 1) is None

    def test_plain_tie_smallest_position(self):
        lp = lp_from([[1, 0, 1], [0, 1, 1]], [1, 1], [0, 0, -1])
        assert ratio_test_plain(Tableau(lp, Basis((0, 1))), 2) == 0

    def test_grossone_breaks_tie_on_first_perturbation(self):
        row = ratio_test_grossone(Tableau(TIE_LP, Basis((2, 3))), Basis((0, 1)), 4)
        assert row == 1

    def test_lexicographic_matches_on_tie(self):
        row = ratio_test_lexicographic(TIE_LP, Basis((2, 3)), Basis((0, 1)), 4)
        assert row == 1

    def test_grossone_matches_plain_when_unique(self):
        basis = Basis((0, 1, 2))
        base = Basis((0, 1, 2))
        tableau = Tableau(self.RATIO_LP, basis)
        assert ratio_test_grossone(tableau, base, 3) == ratio_test_plain(tableau, 3)

    def test_broken_invariant_raises(self):
        with pytest.raises(RatioTieError):
            ratio_test_grossone(Tableau(BROKEN_TIE_LP, Basis((2, 3))), Basis((0, 1)), 4)
        with pytest.raises(RatioTieError):
            ratio_test_lexicographic(BROKEN_TIE_LP, Basis((2, 3)), Basis((0, 1)), 4)

    def test_perturbed_rhs_finite_parts(self):
        basis = Basis((2, 3))
        rhs = perturbed_rhs(Tableau(TIE_LP, basis), Basis((0, 1)))
        assert tuple(e.finite_part() for e in rhs) == (F(2), F(3))
        assert rhs[0].coefficient(-1) == 1
        assert rhs[1].coefficient(-1) == 1
        assert rhs[1].coefficient(-2) == 1


def perturbed_ratio(row, entering, columns):
    """A candidate ratio built as a gross-number: the digit
    ``row[j] / row[entering]`` at G^0 for the first column, G^-1 for the
    next, and so on."""
    return GrossNumber([(-k, F(row[j], row[entering])) for k, j in enumerate(columns)])


def ratio_pairs(rng, count):
    """Pairs of integer tableau rows with positive directions, whose ratios
    differ at any level or not at all."""
    for _ in range(count):
        n = rng.randint(2, 7)
        entering = rng.randrange(n)
        columns = (-1, *rng.sample(range(n), rng.randint(1, n)))

        def fresh():
            row = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n + 1)]
            row[entering] = rng.randint(1, 9)
            return row

        row, other = fresh(), fresh()
        kind = rng.choice(("random", "equal_leading_columns", "identical", "scaled"))
        if kind == "identical":
            other = list(row)
        elif kind == "scaled":
            factor = rng.randint(2, 5)
            other = [factor * v for v in row]
        elif kind == "equal_leading_columns":
            factor = rng.randint(1, 4)
            other[entering] = factor * row[entering]
            for j in columns[:rng.randint(1, len(columns))]:
                other[j] = factor * row[j]
        yield row, other, entering, columns


class TestRatioOrder:
    """``_ratio_order`` compares two perturbed ratios in integers; its sign
    must equal the comparison of the ratios built as gross-numbers."""

    def test_matches_gross_number_comparison(self):
        outcomes, deciding_levels = Counter(), Counter()
        for row, other, entering, columns in ratio_pairs(random.Random(2024), 3000):
            a = perturbed_ratio(row, entering, columns)
            b = perturbed_ratio(other, entering, columns)
            order = _ratio_order(row, other, entering, columns)
            assert order == compare(a, b), (row, other, entering, columns)
            outcomes[order] += 1
            if order:
                deciding_levels[(a - b).leading_power] += 1
        assert min(outcomes[-1], outcomes[0], outcomes[1]) > 300
        assert deciding_levels[0] > 300
        assert sum(deciding_levels[level] for level in range(-1, -8, -1)) > 300
        assert sum(deciding_levels[level] for level in range(-3, -8, -1)) > 50


class TestSolve:
    def test_tiny_optimal(self):
        outcome = solve(TINY)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.x == (F(1), F(0))
        assert outcome.value == F(-1)
        oracle = enumerate_vertices_oracle(TINY)
        assert oracle == (F(-1), (F(1), F(0)))

    def test_unbounded(self):
        lp = lp_from([[1, -1]], [0], [-1, 0])
        outcome = solve(lp)
        assert outcome.status is SolveStatus.UNBOUNDED

    def test_infeasible(self):
        lp = lp_from([[1, 0], [1, 0]], [-1, 2], [0, 0])
        outcome = solve(lp)
        assert outcome.status is SolveStatus.INFEASIBLE

    def test_iteration_limit(self, beale):
        outcome = solve(beale, entering="dantzig", leaving="plain", max_iter=3)
        assert outcome.status is SolveStatus.ITERATION_LIMIT

    def test_fixed_order_requires_permutation(self):
        with pytest.raises(ValueError):
            solve(TINY, entering="fixed_order", order=[0])

    def test_unknown_rules_rejected(self):
        with pytest.raises(ValueError):
            solve(TINY, entering="steepest")
        with pytest.raises(ValueError):
            solve(TINY, leaving="random")


class TestBeale:
    def test_plain_rule_cycles(self, beale):
        outcome = solve(beale, entering="dantzig", leaving="plain", max_iter=50)
        assert outcome.status is SolveStatus.CYCLE_DETECTED
        assert len(outcome.trace.events) <= 10

    def test_grossone_rule_terminates_at_oracle_optimum(self, beale):
        outcome = solve(beale, entering="dantzig", leaving="grossone")
        assert outcome.status is SolveStatus.OPTIMAL
        oracle_value, _ = enumerate_vertices_oracle(beale)
        assert outcome.value == oracle_value == F(-1, 20)

    def test_dantzig_entering_golden_first_pivot(self, beale):
        # Golden trace cross-checked against the lexicographic rule.
        outcome = solve(beale, entering="dantzig", leaving="grossone")
        first = outcome.trace.events[0]
        assert first.entering == 0
        assert first.basis == (4, 5, 6)

    def test_grossone_equals_lexicographic_trace(self, beale):
        a = solve(beale, entering="dantzig", leaving="grossone")
        b = solve(beale, entering="dantzig", leaving="lexicographic")
        assert a.status == b.status
        assert len(a.trace.events) == len(b.trace.events)
        for x, y in zip(a.trace.events, b.trace.events):
            assert (x.basis, x.entering, x.leaving) == (y.basis, y.entering, y.leaving)
            assert x.objective == y.objective


def assert_one_swap_chain(outcome):
    events = outcome.trace.events
    for previous, current in zip(events, events[1:]):
        differing = [
            position
            for position, (a, b) in enumerate(zip(previous.basis, current.basis))
            if a != b
        ]
        assert len(differing) == 1
        position = differing[0]
        assert previous.basis[position] == previous.leaving
        assert current.basis[position] == previous.entering


def assert_strict_objective_decrease(outcome):
    events = outcome.trace.events
    for previous, current in zip(events, events[1:]):
        assert compare(current.objective, previous.objective) < 0
    if events:
        assert compare(outcome.final_objective, events[-1].objective) < 0


def assert_optimality_certificate(lp, outcome):
    x = outcome.x
    assert all(v >= 0 for v in x)
    for i in range(lp.m):
        assert sum(lp.a[i][j] * x[j] for j in range(lp.n)) == lp.b[i]
    costs = reduced_costs(Tableau(lp, outcome.final_basis))
    assert all(value >= 0 for value in costs.values())


class TestRandomInstances:
    SEEDS = range(20)

    def instances(self):
        for seed in self.SEEDS:
            rng = random.Random(9000 + seed)
            m = rng.randint(2, 5)
            n = rng.randint(m + 2, 10)
            yield seed, random_degenerate_lp(rng, m, n)

    def test_grossone_matches_oracle(self):
        for seed, lp in self.instances():
            outcome = solve(lp, entering="dantzig", leaving="grossone")
            assert outcome.status is SolveStatus.OPTIMAL, f"seed {seed}"
            oracle = enumerate_vertices_oracle(lp)
            assert oracle is not None, f"seed {seed}"
            assert outcome.value == oracle[0], f"seed {seed}"

    def test_oracle_agreement_on_three_by_six(self):
        for seed in range(50):
            lp = random_degenerate_lp(random.Random(seed), 3, 6)
            outcome = solve(lp, entering="dantzig", leaving="grossone")
            assert outcome.status is SolveStatus.OPTIMAL, f"seed {seed}"
            assert outcome.value == enumerate_vertices_oracle(lp)[0], f"seed {seed}"

    @pytest.mark.parametrize("entering", ["dantzig", "bland", "fixed_order"])
    def test_grossone_equals_lexicographic(self, entering):
        for seed, lp in self.instances():
            order = None
            if entering == "fixed_order":
                order = random.Random(seed).sample(range(lp.n), lp.n)
            a = solve(lp, entering=entering, leaving="grossone", order=order)
            b = solve(lp, entering=entering, leaving="lexicographic", order=order)
            assert a.status == b.status, f"seed {seed}"
            assert len(a.trace.events) == len(b.trace.events), f"seed {seed}"
            for x, y in zip(a.trace.events, b.trace.events):
                assert (x.basis, x.entering, x.leaving) == (y.basis, y.entering, y.leaving)

    def test_grossone_never_cycles_and_decreases(self):
        for seed, lp in self.instances():
            outcome = solve(lp, entering="dantzig", leaving="grossone")
            assert outcome.status is not SolveStatus.CYCLE_DETECTED
            assert_strict_objective_decrease(outcome)
            assert_one_swap_chain(outcome)

    def test_optimality_certificates(self):
        for seed, lp in self.instances():
            outcome = solve(lp, entering="dantzig", leaving="grossone")
            assert_optimality_certificate(lp, outcome)

    def test_perturbation_only_adds_infinitesimals(self):
        for seed, lp in self.instances():
            outcome = solve(lp, entering="dantzig", leaving="grossone")
            events = outcome.trace.events
            if not events:
                continue
            base = Basis(events[0].basis)
            for event in events:
                basis = Basis(event.basis)
                rhs = perturbed_rhs(Tableau(lp, basis), base)
                assert [e.finite_part() for e in rhs] == basic_solution(lp, basis)


class TestTraceFormat:
    def test_lines_are_one_based(self, beale):
        outcome = solve(beale, entering="dantzig", leaving="grossone")
        lines = outcome.trace.format_lines()
        assert lines[0].startswith("iter=1 enter=1 leave=6 obj=")
        for event, line in zip(outcome.trace.events, lines):
            assert f"enter={event.entering + 1}" in line
            assert f"leave={event.leaving + 1}" in line
            assert f"obj={event.objective}" in line


class TestParseLp:
    def test_round_trip_of_beale(self, beale):
        assert beale.m == 3
        assert beale.n == 7
        assert beale.c[0] == F(-3, 4)
        assert beale.a[2][6] == 1
        assert beale.b == (F(0), F(0), F(1))

    def test_comments_and_blank_lines(self):
        text = "\n# heading\n1 2  # inline\nc: 1 2\nA: 1 1\nb: 3\n\n"
        lp = parse_lp(text)
        assert lp.m == 1 and lp.n == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "1\nc: 1\nA: 1\nb: 1",
            "1 2\nc: 1\nA: 1 1\nb: 1",
            "1 2\nc: 1 2\nA: 1 1\nb: 1\nb: 1",
            "1 2\nc: 1 x\nA: 1 1\nb: 1",
            "1 2\nc: 1 2\nA: 1 1\nb: 1/0",
            "1 2\nc: 1 1.5\nA: 1 1\nb: 1",
            "2 1\nc: 1\nA: 1\nA: 1\nb: 1 1",
            "0 1\nc: 1\nb:",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(LpFormatError):
            parse_lp(bad)


class TestRandomGenerator:
    def test_reproducible(self):
        a = random_degenerate_lp(random.Random(3), 3, 6)
        b = random_degenerate_lp(random.Random(3), 3, 6)
        assert a == b

    def test_first_row_bounds_the_region(self):
        lp = random_degenerate_lp(random.Random(3), 3, 6)
        assert lp.a[0] == tuple([F(1)] * lp.n)

    def test_instance_pool_is_pinned(self):
        # The seeded instances that the benchmark and the golden reports
        # draw on stay the same instances.
        digest = hashlib.sha256()
        for m, n in ((4, 8), (6, 12), (8, 16)):
            for seed in range(20):
                lp = random_degenerate_lp(random.Random(seed), m, n)
                for values in lp.a + (lp.b, lp.c):
                    digest.update((" ".join(map(str, values)) + "\n").encode())
        assert digest.hexdigest() == (
            "02ccb17c171e259dedd96295ac95fcc0a31f335fe6e1c18cc011f36c2f144f0b"
        )

    def test_feasible_by_construction(self):
        for seed in range(10):
            lp = random_degenerate_lp(random.Random(seed), 4, 8)
            assert phase1(lp) is not None
