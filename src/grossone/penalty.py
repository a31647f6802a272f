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

A stationary point x* encodes a KKT certificate of the original problem:
the finite parts of x* give the primal point, and the multipliers are the
finite parts of G*h_j(x*) and (for active inequalities) max{0, finite part
of G*g_i(x*)}.  ``verify_kkt`` re-checks every KKT condition at the finite
point in plain rational arithmetic, so certificates are validated
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
    "KktResiduals",
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
class KktResiduals:
    stationarity: Fraction
    feasibility_h: Fraction
    feasibility_g: Fraction
    complementarity: Fraction

    def __post_init__(self) -> None:
        for name in ("stationarity", "feasibility_h", "feasibility_g", "complementarity"):
            if getattr(self, name) < 0:
                raise ValueError(f"residual {name} must be nonnegative")


@dataclass(frozen=True)
class KktCertificate:
    """Finite point, multipliers, and the residuals measured at that point.

    mu_next_order records the G^-1 coefficient of G*g_i(x*) for each
    inequality (0 for inactive ones); it is reported but never interpreted —
    only the finite part enters the multipliers.
    """

    x0: Tuple[Fraction, ...]
    mu: Tuple[Fraction, ...]
    pi: Tuple[Fraction, ...]
    residuals: KktResiduals
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
    """Symbolic first and second partials of f, g, h, computed once."""

    def __init__(self, problem: NlpProblem):
        n = problem.dimension
        self.grad_f = [differentiate(problem.objective, a) for a in range(n)]
        self.hess_f = [[differentiate(self.grad_f[a], b) for b in range(n)] for a in range(n)]
        self.grad_g = [
            [differentiate(g, a) for a in range(n)] for g in problem.inequalities
        ]
        self.hess_g = [
            [[differentiate(grads[a], b) for b in range(n)] for a in range(n)]
            for grads in self.grad_g
        ]
        self.grad_h = [
            [differentiate(h, a) for a in range(n)] for h in problem.equalities
        ]
        self.hess_h = [
            [[differentiate(grads[a], b) for b in range(n)] for a in range(n)]
            for grads in self.grad_h
        ]


def _constraint_values(problem, x):
    g_values = [eval_gross(g, x) for g in problem.inequalities]
    h_values = [eval_gross(h, x) for h in problem.equalities]
    active = [v.sign() > 0 for v in g_values]
    return g_values, h_values, active


def _gradient_at(
    problem: NlpProblem,
    tables: _DerivativeTables,
    x: GrossVector,
    weight: GrossNumber,
) -> GrossVector:
    g_values, h_values, active = _constraint_values(problem, x)
    entries = []
    for a in range(problem.dimension):
        total = eval_gross(tables.grad_f[a], x)
        penalty_part = ZERO
        for i, g_value in enumerate(g_values):
            if active[i]:
                penalty_part = penalty_part + eval_gross(tables.grad_g[i][a], x) * g_value
        for j, h_value in enumerate(h_values):
            penalty_part = penalty_part + eval_gross(tables.grad_h[j][a], x) * h_value
        entries.append(total + weight * penalty_part)
    return GrossVector(entries)


def _jacobian_at(
    problem: NlpProblem,
    tables: _DerivativeTables,
    x: GrossVector,
    weight: GrossNumber,
) -> GrossMatrix:
    n = problem.dimension
    g_values, h_values, active = _constraint_values(problem, x)
    grad_g_at = [
        [eval_gross(tables.grad_g[i][a], x) for a in range(n)]
        for i in range(len(problem.inequalities))
    ]
    grad_h_at = [
        [eval_gross(tables.grad_h[j][a], x) for a in range(n)]
        for j in range(len(problem.equalities))
    ]
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            entry = eval_gross(tables.hess_f[a][b], x)
            penalty_part = ZERO
            for i, g_value in enumerate(g_values):
                if active[i]:
                    penalty_part = (
                        penalty_part
                        + g_value * eval_gross(tables.hess_g[i][a][b], x)
                        + grad_g_at[i][a] * grad_g_at[i][b]
                    )
            for j, h_value in enumerate(h_values):
                penalty_part = (
                    penalty_part
                    + h_value * eval_gross(tables.hess_h[j][a][b], x)
                    + grad_h_at[j][a] * grad_h_at[j][b]
                )
            row.append(entry + weight * penalty_part)
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
    return _gradient_at(problem, _DerivativeTables(problem), x, weight)


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
    for _ in range(config.newton_max_iter):
        gradient = _gradient_at(problem, tables, x, weight)
        if _within_tol(gradient, config.newton_tol):
            return x
        jacobian = _jacobian_at(problem, tables, x, weight)
        step = solve_linear(jacobian, -gradient, config.arith)
        x = x + step
    if _within_tol(_gradient_at(problem, tables, x, weight), config.newton_tol):
        return x
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
    residuals = _residuals_at(problem, x0, tuple(mu), pi)
    return KktCertificate(x0, tuple(mu), pi, residuals, tuple(mu_next))


def _residuals_at(
    problem: NlpProblem,
    x0: Tuple[Fraction, ...],
    mu: Tuple[Fraction, ...],
    pi: Tuple[Fraction, ...],
) -> KktResiduals:
    n = problem.dimension
    worst_stationarity = Fraction(0)
    for a in range(n):
        total = eval_rational(differentiate(problem.objective, a), x0)
        for i, g in enumerate(problem.inequalities):
            total += mu[i] * eval_rational(differentiate(g, a), x0)
        for j, h in enumerate(problem.equalities):
            total += pi[j] * eval_rational(differentiate(h, a), x0)
        worst_stationarity = max(worst_stationarity, abs(total))
    h_values = [eval_rational(h, x0) for h in problem.equalities]
    g_values = [eval_rational(g, x0) for g in problem.inequalities]
    feasibility_h = max((abs(v) for v in h_values), default=Fraction(0))
    feasibility_g = max((v for v in g_values), default=Fraction(0))
    feasibility_g = max(feasibility_g, Fraction(0))
    complementarity = abs(sum((m * v for m, v in zip(mu, g_values)), Fraction(0)))
    return KktResiduals(worst_stationarity, feasibility_h, feasibility_g, complementarity)


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

    Everything is recomputed in rational arithmetic from (x0, mu, pi); the
    residuals stored in the certificate are not trusted.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    x0, mu, pi = certificate.x0, certificate.mu, certificate.pi
    residuals = _residuals_at(problem, x0, mu, pi)
    multiplier_sign = max((max(Fraction(0), -m) for m in mu), default=Fraction(0))
    passed = all(
        value <= tol
        for value in (
            residuals.stationarity,
            residuals.feasibility_g,
            residuals.feasibility_h,
            multiplier_sign,
            residuals.complementarity,
        )
    )
    return KktReport(
        passed,
        tol,
        residuals.stationarity,
        residuals.feasibility_g,
        residuals.feasibility_h,
        multiplier_sign,
        residuals.complementarity,
    )


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
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if dimension is None:
            parts = stripped.split()
            if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit():
                raise NlpFormatError(f"line {line_no}: expected 'n <dimension>' first")
            dimension = int(parts[1])
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
