"""Exact grossone arithmetic with two optimization applications.

The arithmetic works with the infinite unit G (grossone) and its negative
powers as first-class exact numbers.  On top of it:

* a primal simplex method whose right-hand side is perturbed by the
  infinitesimal stack (G^-1, ..., G^-m), which makes every ratio-test value
  unique, reproduces the classical lexicographic pivot sequence exactly, and
  terminates on degenerate problems where the plain ratio test cycles;
* an exact differentiable penalty method for polynomial nonlinear programs:
  the constraint violation is weighted by G itself, stationary points of the
  penalty encode KKT points of the original problem, and the multipliers are
  read off the infinitesimal series.
"""

from .arith import (
    ArithConfig,
    DEFAULT_CONFIG,
    GROSSONE,
    GROSSONE_INVERSE,
    GrossNumber,
    ONE,
    ParseError,
    ZERO,
    as_gross,
    compare,
)
from .linalg import (
    GrossMatrix,
    GrossVector,
    SingularMatrixError,
    matvec,
    rational_rank,
    solve_linear,
    solve_rational_columns,
    solve_rational_vector,
)
from .polyexpr import (
    PolyExpr,
    differentiate,
    eval_gross,
    eval_rational,
    parse_expr,
)
from .simplex import (
    Basis,
    LpFormatError,
    LpStandardForm,
    PivotEvent,
    PivotTrace,
    RankDeficiencyError,
    RatioTieError,
    SolveOutcome,
    SolveStatus,
    Tableau,
    choose_entering,
    enumerate_vertices_oracle,
    parse_lp,
    perturbed_objective,
    perturbed_rhs,
    phase1,
    random_degenerate_lp,
    ratio_test_grossone,
    ratio_test_lexicographic,
    ratio_test_plain,
    reduced_costs,
    solve,
)
from .penalty import (
    CqReport,
    InfeasibleStationaryError,
    KktCertificate,
    KktReport,
    NewtonDivergenceError,
    NlpFormatError,
    NlpProblem,
    PenaltyConfig,
    PenaltyStep,
    check_constraint_qualification,
    extract_certificate,
    parse_nlp,
    penalty_gradient,
    sequential_penalty_baseline,
    stationary_solve,
    verify_kkt,
)

__version__ = "0.1.0"
