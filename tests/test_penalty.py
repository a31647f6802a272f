import random
from fractions import Fraction

import pytest

import grossone.penalty
from grossone.arith import ArithConfig, GROSSONE, GrossNumber, as_gross
from grossone.linalg import SingularMatrixError
from grossone.penalty import (
    InfeasibleStationaryError,
    NewtonDivergenceError,
    NlpFormatError,
    NlpProblem,
    PenaltyConfig,
    check_constraint_qualification,
    extract_certificate,
    parse_nlp,
    sequential_penalty_baseline,
    stationary_solve,
    verify_kkt,
)
from grossone.polyexpr import eval_gross, parse_expr

from helpers import INSTANCE_DIR
from reference_linalg import truncated_solve
from reference_penalty import newton_system

F = Fraction
G = GROSSONE


@pytest.fixture(scope="module")
def quadratic_equality():
    return parse_nlp((INSTANCE_DIR / "quadratic_equality.nlp").read_text())


@pytest.fixture(scope="module")
def linear_bound():
    return parse_nlp((INSTANCE_DIR / "linear_bound.nlp").read_text())


class TestParseNlp:
    def test_reads_sections(self, quadratic_equality, linear_bound):
        assert quadratic_equality.dimension == 2
        assert len(quadratic_equality.equalities) == 1
        assert not quadratic_equality.inequalities
        assert linear_bound.dimension == 1
        assert len(linear_bound.inequalities) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "f: x1",
            "n 1\ng: x1",
            "n 1\nf: x1\nf: x1",
            "n 1\nf: x2",
            "n 1\nq: x1",
            "n one\nf: x1",
            "n 401\nf: x1",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(NlpFormatError):
            parse_nlp(bad)

    def test_dimension_at_the_limit_is_accepted(self):
        assert parse_nlp("n 400\nf: x1").dimension == 400

    def test_problem_validates_dimension(self):
        with pytest.raises(ValueError):
            NlpProblem(1, parse_expr("x1 + x2", 2))
        with pytest.raises(ValueError):
            NlpProblem(3, parse_expr("x1", 1))


class TestPenaltyGradient:
    """The penalty gradient as the solver uses it: where Newton steps, the
    right-hand side of its first system is minus the gradient at the start;
    where the gradient vanishes, the start comes back without a step."""

    @pytest.fixture
    def systems(self, monkeypatch):
        """Every (jacobian, rhs) handed to solve_linear, recorded before the
        solve so that a singular system is recorded too."""
        captured = []
        real_solve = grossone.penalty.solve_linear

        def capturing_solve(jacobian, rhs, config):
            captured.append((jacobian, rhs))
            return real_solve(jacobian, rhs, config)

        monkeypatch.setattr(grossone.penalty, "solve_linear", capturing_solve)
        return captured

    def test_equality_example_at_generic_point(self, quadratic_equality, systems):
        stationary_solve(quadratic_equality, PenaltyConfig(start=(F(2), F(3))))
        # (x1 + G*(x1+x2-1), x2/3 + G*(x1+x2-1)) at (2, 3)
        gradient = [GrossNumber([(1, 4), (0, 2)]), GrossNumber([(1, 4), (0, 1)])]
        assert systems[0][1] == [-entry for entry in gradient]

    def test_inactive_inequality_contributes_nothing(self, linear_bound, systems):
        # Only f = x1 remains, whose Hessian is zero: the system is singular.
        with pytest.raises(SingularMatrixError):
            stationary_solve(linear_bound, PenaltyConfig(start=(F(2),)))
        assert systems[0][1] == [as_gross(-1)]

    def test_active_inequality_below_bound(self, linear_bound, systems):
        stationary_solve(linear_bound, PenaltyConfig(start=(F(1, 2),)))
        # 1 - G*(1 - x) at x = 1/2
        assert systems[0][1] == [-GrossNumber([(1, F(-1, 2)), (0, 1)])]

    def test_zero_at_feasible_unconstrained_minimum(self, systems):
        problem = parse_nlp("n 2\nf: 7\nh: x1 + x2 - 1")
        start = (F(1, 2), F(1, 2))
        assert stationary_solve(problem, PenaltyConfig(start=start)) == tuple(map(as_gross, start))
        assert systems == []

    def test_activity_uses_full_gross_sign(self, linear_bound, systems):
        # g = G^-1 > 0 counts as active even though its finite part is zero.
        xstar = (GrossNumber([(0, 1), (-1, -1)]),)
        value = eval_gross(linear_bound.inequalities[0], xstar)
        assert value.finite_part() == 0 and value.sign() > 0
        assert stationary_solve(linear_bound, PenaltyConfig(start=xstar)) == xstar
        assert systems == []


class TestStationarySolve:
    def test_equality_example_series(self, quadratic_equality):
        xstar = stationary_solve(quadratic_equality)
        assert xstar[0].coefficient(0) == F(1, 4)
        assert xstar[0].coefficient(-1) == F(-1, 16)
        assert xstar[0].coefficient(-2) == F(1, 64)
        assert xstar[1].coefficient(0) == F(3, 4)
        assert xstar[1].coefficient(-1) == F(-3, 16)
        assert xstar[1].coefficient(-2) == F(3, 64)

    def test_bound_example_exact(self, linear_bound):
        xstar = stationary_solve(linear_bound)
        assert xstar[0] == GrossNumber([(0, 1), (-1, -1)])

    def test_pure_quadratic_stays_at_origin(self):
        problem = parse_nlp("n 2\nf: 1/2*x1^2 + 1/2*x2^2")
        xstar = stationary_solve(problem)
        assert all(entry.is_zero() for entry in xstar)

    def test_one_step_exactness_for_linear_systems(self, quadratic_equality):
        config = PenaltyConfig(newton_max_iter=1)
        xstar = stationary_solve(quadratic_equality, config)
        gradient = newton_system(quadratic_equality, xstar, GROSSONE)[0]
        cutoff = -config.arith.truncation_order + 1
        for entry in gradient:
            assert entry.is_zero() or entry.leading_power <= cutoff

    def test_respects_start_point(self, quadratic_equality):
        config = PenaltyConfig(start=(F(5), F(-3)))
        xstar = stationary_solve(quadratic_equality, config)
        assert xstar[0].coefficient(0) == F(1, 4)
        assert xstar[1].coefficient(0) == F(3, 4)

    def test_divergence_reported(self):
        problem = parse_nlp("n 1\nf: x1^4")
        config = PenaltyConfig(newton_max_iter=4, start=(F(1),))
        with pytest.raises(NewtonDivergenceError):
            stationary_solve(problem, config)

    def test_nonlinear_converges_with_tolerance(self):
        problem = parse_nlp("n 1\nf: x1^4")
        config = PenaltyConfig(
            newton_max_iter=60, newton_tol=F(1, 10**9), start=(F(1),)
        )
        xstar = stationary_solve(problem, config)
        assert abs(4 * xstar[0].finite_part() ** 3) <= F(1, 10**9)

    def test_singular_newton_matrix(self):
        problem = parse_nlp("n 1\nf: x1")
        with pytest.raises(SingularMatrixError):
            stationary_solve(problem)


class TestExtractCertificate:
    def test_equality_multiplier(self, quadratic_equality):
        xstar = stationary_solve(quadratic_equality)
        certificate = extract_certificate(quadratic_equality, xstar)
        assert certificate.x0 == (F(1, 4), F(3, 4))
        assert certificate.pi == (F(-1, 4),)
        assert certificate.mu == ()
        report = verify_kkt(quadratic_equality, certificate)
        assert report.stationarity == 0
        assert report.feasibility_h == 0

    def test_inequality_multiplier(self, linear_bound):
        xstar = stationary_solve(linear_bound)
        certificate = extract_certificate(linear_bound, xstar)
        assert certificate.x0 == (F(1),)
        assert certificate.mu == (F(1),)
        assert certificate.pi == ()

    def test_interior_point_gets_zero_multipliers(self):
        problem = parse_nlp("n 1\nf: x1^2\ng: x1 - 10")
        xstar = stationary_solve(problem)
        certificate = extract_certificate(problem, xstar)
        assert certificate.x0 == (F(0),)
        assert certificate.mu == (F(0),)

    def test_positivity_violation_raises(self, linear_bound):
        with pytest.raises(InfeasibleStationaryError):
            extract_certificate(linear_bound, [0])

    def test_rejects_infinite_entries(self, linear_bound):
        with pytest.raises(ValueError):
            extract_certificate(linear_bound, [G])

    def test_accepts_plain_ints_and_fractions(self, quadratic_equality):
        certificate = extract_certificate(quadratic_equality, [0, F(1, 2)])
        assert certificate == extract_certificate(quadratic_equality, (as_gross(0), as_gross(F(1, 2))))
        assert certificate.x0 == (F(0), F(1, 2))

    def test_multiplier_identity_on_feasible_series(self, quadratic_equality):
        # finite_part(G * h(x)) equals coefficient(h(x), -1) on points whose
        # finite parts satisfy the equality.
        h = quadratic_equality.equalities[0]
        rng = random.Random(17)
        for _ in range(20):
            a = F(rng.randint(-20, 20), rng.randint(1, 9))
            t = F(rng.randint(-20, 20), rng.randint(1, 9))
            s = F(rng.randint(-20, 20), rng.randint(1, 9))
            point = (
                GrossNumber([(0, a), (-1, t)]),
                GrossNumber([(0, 1 - a), (-1, s)]),
            )
            value = eval_gross(h, point)
            assert value.finite_part() == 0
            assert (G * value).finite_part() == value.coefficient(-1) == t + s


class TestConstraintQualification:
    def test_single_equality_holds(self, quadratic_equality):
        report = check_constraint_qualification(quadratic_equality, (F(1, 4), F(3, 4)))
        assert report.holds and report.rank == 1 and report.gradient_count == 1

    def test_single_bound_holds(self, linear_bound):
        report = check_constraint_qualification(linear_bound, (F(1),))
        assert report.holds
        assert report.active_inequalities == (0,)

    def test_duplicated_equality_fails(self):
        problem = parse_nlp(
            "n 2\nf: 1/2*x1^2 + 1/6*x2^2\nh: x1 + x2 - 1\nh: x1 + x2 - 1"
        )
        report = check_constraint_qualification(problem, (F(1, 4), F(3, 4)))
        assert not report.holds
        assert report.rank == 1 and report.gradient_count == 2

    def test_strictly_satisfied_inequalities_ignored(self, linear_bound):
        report = check_constraint_qualification(linear_bound, (F(5),))
        assert report.holds and report.gradient_count == 0

    def test_violated_inequality_included(self, linear_bound):
        report = check_constraint_qualification(linear_bound, (F(0),))
        assert report.gradient_count == 1


class TestVerifyKkt:
    def test_equality_example_passes_exactly(self, quadratic_equality):
        xstar = stationary_solve(quadratic_equality)
        certificate = extract_certificate(quadratic_equality, xstar)
        report = verify_kkt(quadratic_equality, certificate, tol=F(0))
        assert report.passed

    def test_bound_example_passes_exactly(self, linear_bound):
        xstar = stationary_solve(linear_bound)
        certificate = extract_certificate(linear_bound, xstar)
        assert verify_kkt(linear_bound, certificate, tol=F(0)).passed

    def test_perturbed_point_fails(self, quadratic_equality):
        xstar = stationary_solve(quadratic_equality)
        certificate = extract_certificate(quadratic_equality, xstar)
        broken = type(certificate)(
            x0=(F(1, 4) + F(1, 10), F(3, 4)),
            mu=certificate.mu,
            pi=certificate.pi,
        )
        report = verify_kkt(quadratic_equality, broken, tol=F(0))
        assert not report.passed
        assert report.stationarity > 0
        assert report.feasibility_h > 0

    def test_certificate_soundness_under_cq(self, quadratic_equality, linear_bound):
        for problem in (quadratic_equality, linear_bound):
            xstar = stationary_solve(problem)
            certificate = extract_certificate(problem, xstar)
            assert check_constraint_qualification(problem, certificate.x0).holds
            assert verify_kkt(problem, certificate, tol=F(0)).passed


class TestSequentialBaseline:
    EPS = [F(1, 100), F(1, 10**4), F(1, 10**6)]

    def test_exact_minimizer_for_first_eps(self, quadratic_equality):
        steps = sequential_penalty_baseline(quadratic_equality, [F(1, 100)])
        assert steps[0].x == (F(100, 401), F(300, 401))

    def test_monotone_sequences(self, quadratic_equality):
        steps = sequential_penalty_baseline(quadratic_equality, self.EPS)
        phis = [s.phi_value for s in steps]
        fs = [s.f_value for s in steps]
        penalties = [s.penalty_value for s in steps]
        assert all(a >= b for a, b in zip(phis, phis[1:]))
        assert all(a <= b for a, b in zip(fs, fs[1:]))
        assert all(a <= b for a, b in zip(penalties, penalties[1:]))

    def test_minimizers_approach_the_kkt_point(self, quadratic_equality):
        steps = sequential_penalty_baseline(quadratic_equality, self.EPS)
        target = (F(1, 4), F(3, 4))
        distances = [
            sum((xi - ti) ** 2 for xi, ti in zip(step.x, target))
            for step in steps
        ]
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_requires_decreasing_positive_eps(self, quadratic_equality):
        with pytest.raises(ValueError):
            sequential_penalty_baseline(quadratic_equality, [F(1, 100), F(1, 100)])
        with pytest.raises(ValueError):
            sequential_penalty_baseline(quadratic_equality, [F(0)])

    def test_bound_example_approaches_one_from_below(self, linear_bound):
        steps = sequential_penalty_baseline(linear_bound, self.EPS)
        for step in steps:
            assert step.x[0] < 1
        gaps = [1 - step.x[0] for step in steps]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestActivityCoherence:
    def test_active_set_at_stationary_point(self, linear_bound):
        xstar = stationary_solve(linear_bound)
        value = eval_gross(linear_bound.inequalities[0], xstar)
        # Finite part zero, first-order coefficient positive: active.
        assert value.finite_part() == 0
        assert value.coefficient(-1) > 0

    def test_inactive_constraint_stays_negative(self):
        problem = parse_nlp("n 1\nf: x1^2\ng: x1 - 10")
        xstar = stationary_solve(problem)
        value = eval_gross(problem.inequalities[0], xstar)
        assert value.sign() < 0
        assert value.finite_part() < 0


def _reference_problems(seed):
    """Seeded problems whose Newton systems exercise every penalty term: a
    nonlinear equality, a nonlinear inequality, and an inequality that is
    exactly 0 at the start point and active after the first step, next to
    bounds that are active or inactive there."""
    rng = random.Random(seed)

    def rational(low, high):
        return F(rng.randint(low, high), rng.randint(1, 3))

    s1, s2 = rational(-6, 6), rational(-6, 6)
    objective = (
        f"f: {rational(1, 6)}*x1^2 + {rational(1, 6)}*x2^2"
        f" + ({rational(-6, 6)})*x1 + ({rational(-6, 6)})*x2"
    )
    beyond_s1 = (
        f"f: {rational(1, 6)}*(x1 - ({s1 + rng.randint(1, 3)}))^2 + {rational(1, 6)}*x2^2"
    )
    texts = [
        f"{objective}\nh: x1^2 + x2^2 - 2",
        f"{objective}\ng: x1^2 + x1*x2 - {rational(1, 4)}\ng: x2 - 20"
        f"\nh: x1 + x2 - {rational(1, 4)}",
        f"{beyond_s1}\ng: x1 - ({s1})\ng: ({s2 + 1}) - x2\ng: x1 - 30",
    ]
    return [(parse_nlp("n 2\n" + text), (s1, s2)) for text in texts]


class TestNewtonSystemReference:
    """Every Newton system the solver builds equals the one assembled
    straight from the penalty formula at the same iterate."""

    @pytest.fixture
    def systems(self, monkeypatch):
        """Every (jacobian, rhs, step) that passes through solve_linear."""
        captured = []
        real_solve = grossone.penalty.solve_linear

        def capturing_solve(jacobian, rhs, config):
            step = real_solve(jacobian, rhs, config)
            captured.append((jacobian, rhs, step))
            return step

        monkeypatch.setattr(grossone.penalty, "solve_linear", capturing_solve)
        return captured

    @staticmethod
    def check_run(problem, start, weight, systems, run):
        """Replay the captured steps from start: each system must match the
        reference at its iterate, no step may be taken at a point where the
        gradient already vanishes at grosspowers >= -1 (the zero-tolerance
        stopping rule), and the run stops exactly where it first vanishes."""

        def settled(gradient):
            return all(power < -1 for entry in gradient for power, _ in entry.terms)

        systems.clear()
        try:
            run()
            stopped = True
        except NewtonDivergenceError:
            stopped = False
        x = tuple(map(as_gross, start))
        for jacobian, rhs, step in systems:
            gradient, expected_jacobian = newton_system(problem, x, weight)
            assert not settled(gradient)
            assert jacobian == expected_jacobian
            assert rhs == [-entry for entry in gradient]
            x = tuple(a + b for a, b in zip(x, step))
        assert settled(newton_system(problem, x, weight)[0]) == stopped

    @pytest.mark.parametrize("seed", range(4))
    def test_stationary_solve_systems(self, systems, seed):
        for problem, start in _reference_problems(seed):
            config = PenaltyConfig(newton_max_iter=3, start=start)
            self.check_run(
                problem, start, GROSSONE, systems, lambda: stationary_solve(problem, config)
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_sequential_baseline_systems(self, systems, seed):
        for problem, start in _reference_problems(seed):
            config = PenaltyConfig(
                arith=ArithConfig(truncation_order=4), newton_max_iter=3, start=start
            )
            for eps in (F(1, 10), F(1, 1000)):
                self.check_run(
                    problem, start, as_gross(1 / eps), systems,
                    lambda: sequential_penalty_baseline(problem, [eps], config),
                )


class TestStationaryPointAgainstTruncatedReference:
    """On convex QPs of the benchmark's ladder shape, min sum w_k/2 x_k^2
    s.t. sum x_k = 1 and bounds c_k - x_k <= 0, every digit of x* above
    divide's cutoff, leading(x*_k) - K, equals the run whose Newton steps
    use the truncated elimination of ``reference_linalg`` at K = 40."""

    @pytest.mark.parametrize("seed", range(2))
    def test_digits_above_cutoff(self, monkeypatch, seed):
        rng = random.Random(seed)
        k = ArithConfig().truncation_order

        def reference_solve(jacobian, rhs, config):
            return truncated_solve(jacobian, rhs, ArithConfig(truncation_order=40))

        for n in (2, 3, 4):
            objective = " + ".join(f"{rng.randint(1, 9)}/2*x{j}^2" for j in range(1, n + 1))
            bounds = "".join(
                f"g: {rng.randint(1, 4)}/{2 * n + 1} - x{j}\n"
                for j in rng.sample(range(1, n + 1), (n + 1) // 2)
            )
            total = " + ".join(f"x{j}" for j in range(1, n + 1))
            problem = parse_nlp(f"n {n}\nf: {objective}\nh: {total} - 1\n{bounds}")
            xstar = stationary_solve(problem)
            with monkeypatch.context() as patch:
                patch.setattr(grossone.penalty, "solve_linear", reference_solve)
                reference = stationary_solve(problem)
            for x, ref in zip(xstar, reference):
                lead = x.leading_power
                assert ref.leading_power == lead
                assert [x.coefficient(p) for p in range(lead, lead - k, -1)] == [
                    ref.coefficient(p) for p in range(lead, lead - k, -1)
                ]
