"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is exact (zero): all arithmetic is rational.
"""

import io
import random
import time
from fractions import Fraction

from grossone.arith import (
    ArithConfig,
    GROSSONE,
    GROSSONE_INVERSE,
    GrossNumber,
    ONE,
    ZERO,
    compare,
)
from grossone.cli import main
from grossone.penalty import (
    extract_certificate,
    parse_nlp,
    sequential_penalty_baseline,
    stationary_solve,
    verify_kkt,
)
from grossone.simplex import (
    SolveStatus,
    enumerate_vertices_oracle,
    parse_lp,
    random_degenerate_lp,
    solve,
)

from helpers import INSTANCE_DIR, random_gross

F = Fraction
G = GROSSONE


def run_criterion(number, description, budget_seconds, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"[FAIL] criterion {number}: {description} (took {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
        )
    print(f"[PASS] criterion {number}: {description} ({elapsed:.3f}s)")


def run_cli(args):
    buffer = io.StringIO()
    code = main(args, out=buffer)
    return code, buffer.getvalue()


def test_criterion_1_axiom_suite():
    def body():
        rng = random.Random(20260801)
        values = [random_gross(rng) for _ in range(1000)]
        assert G - G == ZERO
        assert G.divide(G) == ONE
        assert G.power(0) == ONE
        assert G * GROSSONE_INVERSE == ONE
        assert GROSSONE_INVERSE * G == ONE
        assert ZERO * G == ZERO
        for a in values:
            assert a + ZERO == a
            assert a * ONE == a
            assert a - a == ZERO
        for a, b, c in zip(values[0::3], values[1::3], values[2::3]):
            assert a * b == b * a
            assert a + b == b + a
            assert a * (b + c) == a * b + a * c

    run_criterion(1, "gross-number axiom and field-identity suite", 1.0, body)


def test_criterion_2_division_residual():
    def body():
        rng = random.Random(20260802)
        pairs = []
        for trial in range(500):
            a = random_gross(rng)
            b = random_gross(rng, nonzero=True)
            if trial % 5 == 0:
                b = GrossNumber([b.terms[0]])
            pairs.append((a, b))
        for k in (2, 8):
            config = ArithConfig(truncation_order=k)
            for a, b in pairs:
                residual = a - a.divide(b, config) * b
                if len(b.terms) == 1:
                    assert residual.is_zero()
                elif not residual.is_zero():
                    assert residual.leading_power <= a.leading_power - k

    run_criterion(2, "division residual bound for K in {2, 8}", 1.0, body)


def test_criterion_3_order_oracle():
    def body():
        rng = random.Random(20260803)
        point = 10**9
        for _ in range(1000):
            a = random_gross(rng)
            b = random_gross(rng)
            evaluated = (a - b).evaluate_at(point)
            expected = 0 if evaluated == 0 else (1 if evaluated > 0 else -1)
            assert compare(a, b) == expected

    run_criterion(3, "ordering agrees with substitution at 10^9", 1.0, body)


def test_criterion_4_equality_example_reproduction():
    def body():
        problem = parse_nlp((INSTANCE_DIR / "quadratic_equality.nlp").read_text())
        xstar = stationary_solve(problem)
        assert xstar[0].coefficient(0) == F(1, 4)
        assert xstar[1].coefficient(0) == F(3, 4)
        assert xstar[0].coefficient(-1) == F(-1, 16)
        assert xstar[1].coefficient(-1) == F(-3, 16)
        certificate = extract_certificate(problem, xstar)
        assert certificate.x0 == (F(1, 4), F(3, 4))
        assert certificate.pi == (F(-1, 4),)
        assert verify_kkt(problem, certificate, tol=F(0)).passed
        code, out = run_cli(["nlp", "penalty", str(INSTANCE_DIR / "quadratic_equality.nlp")])
        assert code == 0
        assert "x0 = (1/4, 3/4)" in out
        assert "pi = (-1/4)" in out
        assert "KKT VERIFIED" in out

    run_criterion(4, "equality-constrained example: exact point and multiplier", 1.0, body)


def test_criterion_5_bound_example_reproduction():
    def body():
        problem = parse_nlp((INSTANCE_DIR / "linear_bound.nlp").read_text())
        xstar = stationary_solve(problem)
        assert xstar[0] == GrossNumber([(0, 1), (-1, -1)])
        certificate = extract_certificate(problem, xstar)
        assert certificate.x0 == (F(1),)
        assert certificate.mu == (F(1),)
        assert verify_kkt(problem, certificate, tol=F(0)).passed
        code, out = run_cli(["nlp", "penalty", str(INSTANCE_DIR / "linear_bound.nlp")])
        assert code == 0
        assert "x0 = (1)" in out
        assert "mu = (1)" in out
        assert "KKT VERIFIED" in out

    run_criterion(5, "bound-constrained example: exact infinitesimal solution", 1.0, body)


def test_criterion_6_anti_cycling_demonstration():
    def body():
        beale = parse_lp((INSTANCE_DIR / "beale.lp").read_text())
        plain = solve(beale, entering="dantzig", leaving="plain", max_iter=10)
        assert plain.status is SolveStatus.CYCLE_DETECTED
        assert len(plain.trace.events) <= 10
        perturbed = solve(beale, entering="dantzig", leaving="grossone")
        assert perturbed.status is SolveStatus.OPTIMAL
        oracle_value, _ = enumerate_vertices_oracle(beale)
        assert perturbed.value == oracle_value

    run_criterion(6, "cycling with the plain rule, oracle optimum with grossone", 1.0, body)


def _compare_specs():
    """The 153 rule-equivalence comparisons: Beale plus 50 seeded degenerate
    instances, for each of the three entering rules."""
    beale_path = str(INSTANCE_DIR / "beale.lp")
    specs = []
    for entering in ("dantzig", "bland", "fixed"):
        specs.append((entering, beale_path, None))
        for seed in range(50):
            m = 2 + seed % 4
            n = m + 3 + (seed // 4) % (8 - m)
            specs.append((entering, f"random:{m}x{n}", 1000 + seed))
    return specs


def test_criterion_7_rule_equivalence():
    def body():
        comparisons = 0
        for entering, path, seed in _compare_specs():
            args = ["lp", "compare", path, "--entering", entering]
            if seed is not None:
                args += ["--seed", str(seed)]
            code, out = run_cli(args)
            assert code == 0, f"compare diverged: {args}\n{out}"
            assert "IDENTICAL" in out
            comparisons += 1
        assert comparisons == 153

    run_criterion(7, "grossone and lexicographic pivots identical in 153 compares", 30.0, body)


def _bounded_instances():
    for seed in range(50):
        rng = random.Random(5000 + seed)
        m = rng.randint(2, 4)
        n = rng.randint(m + 2, 8)
        yield seed, random_degenerate_lp(rng, m, n)


def test_criterion_8_random_lp_oracle_equivalence():
    def body():
        for seed, lp in _bounded_instances():
            outcome = solve(lp, entering="dantzig", leaving="grossone")
            assert outcome.status is SolveStatus.OPTIMAL, f"seed {seed}"
            oracle = enumerate_vertices_oracle(lp)
            assert oracle is not None, f"seed {seed}"
            assert outcome.value == oracle[0], f"seed {seed}"

    run_criterion(8, "grossone optimum equals vertex enumeration on 50 instances", 30.0, body)


def test_criterion_9_strict_progress():
    def body():
        runs = []
        beale = parse_lp((INSTANCE_DIR / "beale.lp").read_text())
        runs.append(solve(beale, entering="dantzig", leaving="grossone"))
        for _, lp in _bounded_instances():
            runs.append(solve(lp, entering="dantzig", leaving="grossone"))
        for entering, path, seed in _compare_specs():
            if seed is None:
                continue
            rng = random.Random(seed)
            spec = path.split(":", 1)[1]
            m, n = (int(v) for v in spec.split("x"))
            lp = random_degenerate_lp(rng, m, n)
            order = rng.sample(range(lp.n), lp.n) if entering == "fixed" else None
            rule = "fixed_order" if entering == "fixed" else entering
            runs.append(solve(lp, entering=rule, leaving="grossone", order=order))
        checked_pivots = 0
        for outcome in runs:
            events = outcome.trace.events
            for previous, current in zip(events, events[1:]):
                assert compare(current.objective, previous.objective) < 0
                checked_pivots += 1
            if events:
                assert compare(outcome.final_objective, events[-1].objective) < 0
                checked_pivots += 1
        assert checked_pivots > 0

    run_criterion(9, "perturbed objective strictly decreases at every pivot", None, body)


def test_criterion_10_sequential_penalty_monotonicity():
    def body():
        problem = parse_nlp((INSTANCE_DIR / "quadratic_equality.nlp").read_text())
        eps = [F(1, 10**2), F(1, 10**4), F(1, 10**6), F(1, 10**8)]
        steps = sequential_penalty_baseline(problem, eps)
        phis = [s.phi_value for s in steps]
        fs = [s.f_value for s in steps]
        assert all(a >= b for a, b in zip(phis, phis[1:]))
        assert all(a <= b for a, b in zip(fs, fs[1:]))
        target = (F(1, 4), F(3, 4))
        distances = [
            sum((xi - ti) ** 2 for xi, ti in zip(step.x, target)) for step in steps
        ]
        assert all(a > b for a, b in zip(distances, distances[1:]))

    run_criterion(10, "finite-penalty sequence is monotone and converges", 1.0, body)
