"""Exact differentiable penalty solver built on the infinite weight G.

For ``min f(x)  s.t.  g(x) <= 0, h(x) = 0`` (all polynomials) the
unconstrained penalty

    f(x) + (G/2) * sum_i max{0, g_i(x)}^2 + (G/2) * sum_j h_j(x)^2

is minimized over gross-number vectors by a semismooth Newton method: each
max term counts as active exactly when its gross-number value is > 0 (the
full series sign, not just the finite part — an active constraint can sit at
an infinitesimal violation).  For quadratic objectives with affine
constraints the stationarity system is linear over gross-numbers and Newton
lands on it in one step.

Every equality and every active inequality enters the penalty the same
way, as (G/2) c(x)^2.  At each Newton iterate the constraints are
evaluated once: each penalized constraint c contributes c * grad c to the
gradient and c * Hess c + grad c grad c^T to the Jacobian, both times G.

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

from .arith import ArithConfig, DEFAULT_CONFIG, GROSSONE, GrossNumber, ZERO, as_gross
from .linalg import GrossMatrix, GrossVector, rational_rank, solve_linear
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
    "penalty_gradient",
    "sequential_penalty_baseline",
    "stationary_solve",
    "verify_kkt",
]


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
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
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
    at grosspowers >= -1 only; deeper series coefficients carry truncation
    noise and are never inspected."""

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
    no residuals, ``verify_kkt`` measures them from (x0, mu, pi).

    mu_next_order records the G^-1 coefficient of G*g_i(x*) for each
    inequality (0 for inactive ones); it is reported but never interpreted —
    only the finite part enters the multipliers.
    """

    x0: Tuple[Fraction, ...]
    mu: Tuple[Fraction, ...]
    pi: Tuple[Fraction, ...]
    mu_next_order: Tuple[Fraction, ...] = ()

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


class _DerivativeTables:
    """Symbolic first and second partials, computed once: grad_f and hess_f
    for the objective, and one entry (expression, gradient, Hessian) per
    constraint in ``constraints``, the inequalities first."""

    def __init__(self, problem: NlpProblem):
        self.inequality_count = len(problem.inequalities)
        self.grad_f, self.hess_f = _partials(problem.objective, problem.dimension)
        self.constraints = [
            (expr,) + _partials(expr, problem.dimension)
            for expr in problem.inequalities + problem.equalities
        ]


def _partials(expr: PolyExpr, n: int) -> tuple:
    gradient = [differentiate(expr, a) for a in range(n)]
    return gradient, [[differentiate(gradient[a], b) for b in range(n)] for a in range(n)]


def _penalized_at(tables: _DerivativeTables, x: GrossVector) -> list:
    """(value, gradient at x, Hessian) of each constraint the penalty weights
    at x: every equality, and each inequality whose value is > 0."""
    penalized = []
    for position, (expr, gradient, hessian) in enumerate(tables.constraints):
        value = eval_gross(expr, x)
        if position < tables.inequality_count and value.sign() <= 0:
            continue
        penalized.append((value, [eval_gross(d, x) for d in gradient], hessian))
    return penalized


def _gradient_at(
    tables: _DerivativeTables,
    x: GrossVector,
    weight: GrossNumber,
    penalized: list,
) -> GrossVector:
    entries = []
    for a, grad_f in enumerate(tables.grad_f):
        penalty_part = ZERO
        for value, gradient, _ in penalized:
            penalty_part = penalty_part + gradient[a] * value
        entries.append(eval_gross(grad_f, x) + weight * penalty_part)
    return GrossVector(entries)


def _jacobian_at(
    tables: _DerivativeTables,
    x: GrossVector,
    weight: GrossNumber,
    penalized: list,
) -> GrossMatrix:
    rows = []
    for a, hess_f_row in enumerate(tables.hess_f):
        row = []
        for b, hess_f in enumerate(hess_f_row):
            penalty_part = ZERO
            for value, gradient, hessian in penalized:
                penalty_part = (
                    penalty_part
                    + value * eval_gross(hessian[a][b], x)
                    + gradient[a] * gradient[b]
                )
            row.append(eval_gross(hess_f, x) + weight * penalty_part)
        rows.append(row)
    return GrossMatrix(rows)


def penalty_gradient(
    problem: NlpProblem,
    x: GrossVector,
    weight: GrossNumber = GROSSONE,
) -> GrossVector:
    """Gradient of the penalty at x: grad f + weight * (sum_i grad g_i *
    max{0, g_i} + sum_j grad h_j * h_j).  The max is decided by the
    gross-number sign of g_i(x).  Exact (no truncation)."""
    if len(x) != problem.dimension:
        raise ValueError(f"point has length {len(x)}, expected {problem.dimension}")
    tables = _DerivativeTables(problem)
    return _gradient_at(tables, x, weight, _penalized_at(tables, x))


def _within_tol(gradient: GrossVector, tol: Fraction) -> bool:
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
) -> GrossVector:
    tables = _DerivativeTables(problem)
    start = config.start or tuple(Fraction(0) for _ in range(problem.dimension))
    if len(start) != problem.dimension:
        raise ValueError("start point has the wrong dimension")
    x = GrossVector(start)
    for steps in range(config.newton_max_iter + 1):
        penalized = _penalized_at(tables, x)
        gradient = _gradient_at(tables, x, weight, penalized)
        if _within_tol(gradient, config.newton_tol):
            return x
        if steps < config.newton_max_iter:
            jacobian = _jacobian_at(tables, x, weight, penalized)
            x = x + solve_linear(jacobian, -gradient, config.arith)
    raise NewtonDivergenceError(
        f"no stationary point within {config.newton_max_iter} Newton steps"
    )


def stationary_solve(
    problem: NlpProblem,
    config: Optional[PenaltyConfig] = None,
) -> GrossVector:
    """Stationary point of the G-weighted penalty by semismooth Newton.

    For quadratic objectives with affine constraints the stationarity system
    is linear over gross-numbers and one step suffices from any start.
    """
    return _newton(problem, GROSSONE, config or PenaltyConfig())


# -- certificates -----------------------------------------------------------------


def extract_certificate(problem: NlpProblem, xstar: GrossVector) -> KktCertificate:
    """Read the KKT certificate off a stationary point.

    The primal point is the finite part of x*.  Equality multipliers are the
    finite parts of G*h_j(x*); inequality multipliers are zero for
    constraints negative at order zero and max{0, finite part of G*g_i(x*)}
    for constraints vanishing at order zero.  A constraint positive at order
    zero means the stationary point is infeasible where it matters and
    raises InfeasibleStationaryError.
    """
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
    mu_next: List[Fraction] = []
    for position, g in enumerate(problem.inequalities):
        value = eval_gross(g, xstar)
        order_zero = Fraction(value.finite_part())
        if order_zero > 0:
            raise InfeasibleStationaryError(
                f"inequality {position} is positive at order zero "
                f"(value {order_zero}); not a feasible stationary point"
            )
        if order_zero < 0:
            mu.append(Fraction(0))
            mu_next.append(Fraction(0))
        else:
            lifted = GROSSONE * value
            mu.append(max(Fraction(0), Fraction(lifted.finite_part())))
            mu_next.append(Fraction(lifted.coefficient(-1)))
    return KktCertificate(x0, tuple(mu), pi, tuple(mu_next))


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
    dimension_line = 0
    objective = None
    inequalities: List[PolyExpr] = []
    equalities: List[PolyExpr] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if dimension is None:
            parts = stripped.split()
            if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit():
                raise NlpFormatError(f"line {line_no}: expected 'n <dimension>' first")
            dimension, dimension_line = int(parts[1]), line_no
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
    try:
        return NlpProblem(dimension, objective, tuple(inequalities), tuple(equalities))
    except ValueError as exc:  # e.g. dimension 0
        raise NlpFormatError(f"line {dimension_line}: {exc}") from None
