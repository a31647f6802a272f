"""Exact differentiable penalty solver built on the infinite weight G.

For ``min f(x)  s.t.  g(x) <= 0, h(x) = 0`` (all polynomials) the
unconstrained penalty

    f(x) + (G/2) * sum_i max{0, g_i(x)}^2 + (G/2) * sum_j h_j(x)^2

is minimized over points x, tuples of gross-numbers, by a semismooth
Newton method; each step is one ``linalg.solve_linear`` of the Jacobian
rows against the negated gradient.  Each max term counts as active exactly
when its gross-number value is > 0 (the full series sign, not just the
finite part — an active constraint can sit at an infinitesimal violation).
For quadratic objectives with affine constraints the stationarity system is
linear over gross-numbers and Newton lands on it in one step.

Every equality and every active inequality enters the penalty the same
way, as (G/2) c(x)^2.  At each Newton iterate the constraints are
evaluated once: each penalized constraint c contributes c * grad c to the
gradient and c * Hess c + grad c grad c^T to the Jacobian, both times G.

The Newton system has one owner, ``_newton_system``.  The symbolic first and
second partials of every function are taken once per solve; at each iterate
it evaluates the constraints, returns the gradient, and builds the Jacobian
only when a step is taken, that is, when the gradient is not yet within
tolerance and steps are left.

A stationary point x* encodes a KKT certificate of the original problem:
the finite parts of x* give the primal point, and the multipliers are the
finite parts of G*h_j(x*) and (for active inequalities) max{0, finite part
of G*g_i(x*)}.  The certificate holds no residuals: ``verify_kkt`` computes
them, re-checking every KKT condition at the finite point in plain rational
arithmetic with its own derivatives, so certificates are validated
independently of the gross-number path that produced them.

``sequential_penalty_baseline`` is the classical comparison: the same Newton
machinery with G replaced by 1/eps for a decreasing sequence of finite
penalty parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .arith import (
    ArithConfig, DEFAULT_CONFIG, GROSSONE, GrossNumber, Scalar, ZERO, _content_lines,
    _decimal_int, _over_str_limit, as_gross,
)
from .linalg import SingularMatrixError, rational_rank, solve_linear
from .polyexpr import (
    PolyExpr,
    differentiate,
    eval_gross,
    eval_rational,
    parse_expr,
)

__all__ = [
    "CqReport",
    "InfeasibleStationaryError",
    "KktCertificate",
    "KktReport",
    "NewtonDivergenceError",
    "NlpFormatError",
    "NlpProblem",
    "PenaltyConfig",
    "PenaltyStep",
    "check_constraint_qualification",
    "extract_certificate",
    "parse_nlp",
    "sequential_penalty_baseline",
    "stationary_solve",
    "verify_kkt",
]

# The largest n of an NlpProblem; parse_nlp refuses a larger one before
# reading any expression.  Every monomial is an n-tuple and each
# function has an n x n Hessian, so work grows with n^2 even when the objective
# uses one variable: on a 2-core Xeon, "f: x1" takes 0.2 s at n = 200, 0.5 s
# at n = 400 and 2.8 s at n = 800.
_MAX_DIMENSION = 400


def _check_dimension(dimension: int) -> None:
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    if dimension > _MAX_DIMENSION:
        raise ValueError(f"n must be at most {_MAX_DIMENSION}")


class NewtonDivergenceError(RuntimeError):
    """Newton failed to meet the residual threshold within the iteration cap."""


class InfeasibleStationaryError(RuntimeError):
    """A stationary point violates an inequality at order zero."""


class NlpFormatError(ValueError):
    """Malformed NLP instance text."""


@dataclass(frozen=True)
class NlpProblem:
    """min objective  s.t.  each inequality <= 0 and each equality = 0.

    Constraints are stored in the normalized sense: an inequality expression
    e means e(x) <= 0, an equality expression e means e(x) = 0.
    """

    dimension: int
    objective: PolyExpr
    inequalities: Tuple[PolyExpr, ...] = ()
    equalities: Tuple[PolyExpr, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        _check_dimension(self.dimension)
        everything = (self.objective,) + self.inequalities + self.equalities
        for expr in everything:
            for monomial in expr:
                if len(monomial) != self.dimension:
                    raise ValueError(
                        f"expression is in {len(monomial)} variables "
                        f"but the dimension is {self.dimension}"
                    )


@dataclass(frozen=True)
class PenaltyConfig:
    """Newton controls.  The residual threshold applies to the coefficients
    at grosspowers >= -1 only.  Each Newton step is exact in every
    coefficient of a component above its cutoff, ``leading - K`` with K the
    truncation order of ``arith``: only the cutoff level carries truncation
    noise, and nothing below it is formed."""

    arith: ArithConfig = DEFAULT_CONFIG
    newton_max_iter: int = 50
    newton_tol: Fraction = Fraction(0)
    start: Optional[Tuple[Fraction, ...]] = None

    def __post_init__(self) -> None:
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be at least 1")
        if self.newton_tol < 0:
            raise ValueError("newton_tol must be nonnegative")


@dataclass(frozen=True)
class KktCertificate:
    """Finite point and multipliers read off a stationary point; it carries
    no residuals, ``verify_kkt`` measures them from (x0, mu, pi)."""

    x0: Tuple[Fraction, ...]
    mu: Tuple[Fraction, ...]
    pi: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.mu):
            raise ValueError("inequality multipliers must be nonnegative")


@dataclass(frozen=True)
class CqReport:
    """Result of the modified-LICQ rank check."""

    holds: bool
    rank: int
    gradient_count: int
    active_inequalities: Tuple[int, ...]


@dataclass(frozen=True)
class KktReport:
    """Per-condition residuals of a certificate, re-verified in rational
    arithmetic; passed is True when every residual is within tol."""

    passed: bool
    tol: Fraction
    stationarity: Fraction
    feasibility_g: Fraction
    feasibility_h: Fraction
    multiplier_sign: Fraction
    complementarity: Fraction


@dataclass(frozen=True)
class PenaltyStep:
    eps: Fraction
    x: Tuple[Fraction, ...]
    phi_value: Fraction
    f_value: Fraction
    penalty_value: Fraction


# -- gradient / Jacobian machinery -----------------------------------------------


def _partials(expr: PolyExpr, n: int) -> tuple:
    gradient = [differentiate(expr, a) for a in range(n)]
    return gradient, [[differentiate(gradient[a], b) for b in range(n)] for a in range(n)]


def _newton_system(objective, constraints, inequality_count: int, x, weight: GrossNumber):
    """The penalty's gradient at x, and a function that builds its Jacobian.

    ``objective`` is the symbolic (gradient, Hessian) of f, and each of
    ``constraints`` is (expression, gradient, Hessian), inequalities first.
    Each constraint is evaluated once: an equality, or an inequality whose
    value is > 0, is penalized, and only then is its gradient evaluated.
    """
    grad_f, hess_f = objective
    penalized = []
    for position, (expr, gradient, hessian) in enumerate(constraints):
        value = eval_gross(expr, x)
        if position >= inequality_count or value.sign() > 0:
            penalized.append((value, [eval_gross(d, x) for d in gradient], hessian))
    entries = tuple(
        eval_gross(d, x) + weight * sum((gradient[a] * value for value, gradient, _ in penalized), ZERO)
        for a, d in enumerate(grad_f)
    )

    def second_order(a: int, b: int) -> GrossNumber:
        total = ZERO
        for value, gradient, hessian in penalized:
            total = total + value * eval_gross(hessian[a][b], x) + gradient[a] * gradient[b]
        return total

    def jacobian() -> List[List[GrossNumber]]:
        return [
            [eval_gross(d, x) + weight * second_order(a, b) for b, d in enumerate(row)]
            for a, row in enumerate(hess_f)
        ]

    return entries, jacobian


def _within_tol(gradient: Sequence[GrossNumber], tol: Fraction) -> bool:
    for entry in gradient:
        for power, digit in entry.terms:
            if power < -1:
                break
            if abs(digit) > tol:
                return False
    return True


def _newton(
    problem: NlpProblem,
    weight: GrossNumber,
    config: PenaltyConfig,
) -> Tuple[GrossNumber, ...]:
    n = problem.dimension
    objective = _partials(problem.objective, n)
    constraints = [(e,) + _partials(e, n) for e in problem.inequalities + problem.equalities]
    start = config.start or tuple(Fraction(0) for _ in range(n))
    if len(start) != n:
        raise ValueError("start point has the wrong dimension")
    x = tuple(as_gross(v) for v in start)
    for steps in range(config.newton_max_iter + 1):
        gradient, jacobian = _newton_system(objective, constraints, len(problem.inequalities), x, weight)
        if _within_tol(gradient, config.newton_tol):
            return x
        if steps < config.newton_max_iter:
            try:
                step = solve_linear(jacobian(), [-g for g in gradient], config.arith)
                x = tuple(a + b for a, b in zip(x, step))
            except SingularMatrixError as exc:
                raise SingularMatrixError(
                    f"Newton step {steps + 1}: singular Jacobian ({exc})"
                ) from None
    raise NewtonDivergenceError(
        f"no stationary point within {config.newton_max_iter} Newton steps"
    )


def stationary_solve(
    problem: NlpProblem,
    config: Optional[PenaltyConfig] = None,
) -> Tuple[GrossNumber, ...]:
    """Stationary point of the G-weighted penalty by semismooth Newton, as
    a tuple of gross-numbers.

    For quadratic objectives with affine constraints the stationarity system
    is linear over gross-numbers and one step suffices from any start.
    """
    return _newton(problem, GROSSONE, config or PenaltyConfig())


# -- certificates -----------------------------------------------------------------


def extract_certificate(problem: NlpProblem, xstar: Sequence[Scalar]) -> KktCertificate:
    """Read the KKT certificate off a stationary point, a sequence of
    ints, Fractions or gross-numbers.

    The primal point is the finite part of x*.  Equality multipliers are the
    finite parts of G*h_j(x*); inequality multipliers are zero for
    constraints negative at order zero and max{0, finite part of G*g_i(x*)}
    for constraints vanishing at order zero.  A constraint positive at order
    zero means the stationary point is infeasible where it matters and
    raises InfeasibleStationaryError.
    """
    xstar = tuple(as_gross(e) for e in xstar)
    if len(xstar) != problem.dimension:
        raise ValueError("stationary point has the wrong dimension")
    for entry in xstar:
        if entry.leading_power is not None and entry.leading_power > 0:
            raise ValueError("stationary point entries must have grosspowers <= 0")
    x0 = tuple(Fraction(e.finite_part()) for e in xstar)
    pi = tuple(
        Fraction((GROSSONE * eval_gross(h, xstar)).finite_part())
        for h in problem.equalities
    )
    mu: List[Fraction] = []
    for position, g in enumerate(problem.inequalities):
        value = eval_gross(g, xstar)
        order_zero = Fraction(value.finite_part())
        if order_zero > 0:
            shown = "too long to print" if _over_str_limit(order_zero) else order_zero
            raise InfeasibleStationaryError(
                f"inequality {position} is positive at order zero "
                f"(value {shown}); not a feasible stationary point"
            )
        if order_zero < 0:
            mu.append(Fraction(0))
        else:
            lifted = GROSSONE * value
            mu.append(max(Fraction(0), Fraction(lifted.finite_part())))
    return KktCertificate(x0, tuple(mu), pi)


def check_constraint_qualification(
    problem: NlpProblem,
    x0: Sequence[Fraction],
) -> CqReport:
    """Modified LICQ: the gradients of every equality plus every inequality
    with g_i(x0) >= 0 must be linearly independent (exact rank check)."""
    point = tuple(Fraction(v) for v in x0)
    active = tuple(
        i for i, g in enumerate(problem.inequalities)
        if eval_rational(g, point) >= 0
    )
    gradients = []
    for i in active:
        gradients.append([
            eval_rational(differentiate(problem.inequalities[i], a), point)
            for a in range(problem.dimension)
        ])
    for h in problem.equalities:
        gradients.append([
            eval_rational(differentiate(h, a), point)
            for a in range(problem.dimension)
        ])
    if not gradients:
        return CqReport(True, 0, 0, active)
    rank = rational_rank(gradients)
    return CqReport(rank == len(gradients), rank, len(gradients), active)


def verify_kkt(
    problem: NlpProblem,
    certificate: KktCertificate,
    tol: Fraction = Fraction(0),
) -> KktReport:
    """Re-check all five KKT conditions at the certificate's finite point.

    Everything is computed here in rational arithmetic from (x0, mu, pi),
    with derivatives taken afresh, independently of the Newton path.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    x0, mu, pi = certificate.x0, certificate.mu, certificate.pi
    stationarity = Fraction(0)
    for a in range(problem.dimension):
        total = eval_rational(differentiate(problem.objective, a), x0)
        for i, g in enumerate(problem.inequalities):
            total += mu[i] * eval_rational(differentiate(g, a), x0)
        for j, h in enumerate(problem.equalities):
            total += pi[j] * eval_rational(differentiate(h, a), x0)
        stationarity = max(stationarity, abs(total))
    g_values = [eval_rational(g, x0) for g in problem.inequalities]
    feasibility_g = max([Fraction(0)] + g_values)
    feasibility_h = max(
        (abs(eval_rational(h, x0)) for h in problem.equalities), default=Fraction(0)
    )
    multiplier_sign = max((max(Fraction(0), -m) for m in mu), default=Fraction(0))
    complementarity = abs(sum((m * v for m, v in zip(mu, g_values)), Fraction(0)))
    residuals = (stationarity, feasibility_g, feasibility_h, multiplier_sign, complementarity)
    return KktReport(all(value <= tol for value in residuals), tol, *residuals)


# -- classical sequential baseline ---------------------------------------------------


def sequential_penalty_baseline(
    problem: NlpProblem,
    eps_sequence: Sequence[Fraction],
    config: Optional[PenaltyConfig] = None,
) -> List[PenaltyStep]:
    """Finite-parameter penalty runs: same Newton machinery with the infinite
    weight replaced by 1/eps for each eps in a decreasing positive sequence.

    Along the sequence the constraint violation measure phi is monotonically
    non-increasing and the objective value monotonically non-decreasing.
    """
    eps_values = [Fraction(e) for e in eps_sequence]
    if any(e <= 0 for e in eps_values):
        raise ValueError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("eps sequence must be strictly decreasing")
    config = config or PenaltyConfig()
    steps = []
    for eps in eps_values:
        weight = as_gross(Fraction(1) / eps)
        minimizer = _newton(problem, weight, config)
        point = tuple(Fraction(e.finite_part()) for e in minimizer)
        phi = sum(
            (max(Fraction(0), eval_rational(g, point)) ** 2 for g in problem.inequalities),
            Fraction(0),
        ) + sum(
            (eval_rational(h, point) ** 2 for h in problem.equalities),
            Fraction(0),
        )
        f_value = eval_rational(problem.objective, point)
        steps.append(PenaltyStep(eps, point, phi, f_value, f_value + phi / (2 * eps)))
    return steps


# -- instance text format --------------------------------------------------------------


def parse_nlp(text: str) -> NlpProblem:
    """Parse the line-oriented NLP format.

    Line "n <dim>", then one "f: <expr>" line, then any number of
    "g: <expr>" (meaning g <= 0) and "h: <expr>" (meaning h = 0) lines.
    '#' starts a comment; blank lines are ignored.
    """
    dimension = None
    objective = None
    inequalities: List[PolyExpr] = []
    equalities: List[PolyExpr] = []
    for line_no, stripped in _content_lines(text):
        if dimension is None:
            parts = stripped.split()
            if len(parts) != 2 or parts[0] != "n" or not parts[1].isdecimal():
                raise NlpFormatError(f"line {line_no}: expected 'n <dimension>' first")
            try:
                dimension = _decimal_int(parts[1])
                _check_dimension(dimension)
            except ValueError as exc:
                raise NlpFormatError(f"line {line_no}: {exc}") from None
            continue
        if ":" not in stripped:
            raise NlpFormatError(f"line {line_no}: expected 'f:', 'g:' or 'h:' line")
        tag, body = stripped.split(":", 1)
        tag = tag.strip()
        try:
            expr = parse_expr(body.strip(), dimension)
        except ValueError as exc:
            raise NlpFormatError(f"line {line_no}: {exc}") from None
        if tag == "f":
            if objective is not None:
                raise NlpFormatError(f"line {line_no}: duplicate 'f:' line")
            objective = expr
        elif tag == "g":
            inequalities.append(expr)
        elif tag == "h":
            equalities.append(expr)
        else:
            raise NlpFormatError(f"line {line_no}: unknown tag {tag!r}")
    if dimension is None:
        raise NlpFormatError("missing 'n <dimension>' line")
    if objective is None:
        raise NlpFormatError("missing 'f:' line")
    return NlpProblem(dimension, objective, tuple(inequalities), tuple(equalities))
