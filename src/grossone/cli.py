"""Command-line front end.

Subcommands: ``lp solve``, ``lp compare``, ``nlp penalty``, ``gross eval``.
Reports print exact rationals only (never decimals) so outputs are stable
byte for byte.  Exit codes: 0 optimal/verified/identical, 1 infeasible,
2 unbounded, 3 cycle detected, 4 iteration limit, 5 solver failure,
6 KKT not verified, 64 usage error, 65 parse error.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .arith import ArithConfig, GROSSONE, GrossNumber, ParseError, _Scanner
from .penalty import (
    InfeasibleStationaryError,
    NewtonDivergenceError,
    NlpFormatError,
    PenaltyConfig,
    check_constraint_qualification,
    extract_certificate,
    parse_nlp,
    stationary_solve,
    verify_kkt,
)
from .linalg import SingularMatrixError
from .simplex import (
    LpFormatError,
    LpStandardForm,
    RankDeficiencyError,
    SolveStatus,
    parse_lp,
    random_degenerate_lp,
    solve,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_UNBOUNDED = 2
EXIT_CYCLE = 3
EXIT_ITERATION_LIMIT = 4
EXIT_SOLVER_FAILURE = 5
EXIT_KKT_UNVERIFIED = 6
EXIT_USAGE = 64
EXIT_PARSE = 65

_STATUS_EXIT = {
    SolveStatus.OPTIMAL: EXIT_OK,
    SolveStatus.INFEASIBLE: EXIT_INFEASIBLE,
    SolveStatus.UNBOUNDED: EXIT_UNBOUNDED,
    SolveStatus.CYCLE_DETECTED: EXIT_CYCLE,
    SolveStatus.ITERATION_LIMIT: EXIT_ITERATION_LIMIT,
}

_RANDOM_SPEC = re.compile(r"^random:(\d+)x(\d+)$")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 64 instead of argparse's 2
        raise _UsageError(message)


@dataclass
class RunConfig:
    """Flags of one invocation, normalized per subcommand."""

    subcommand: str
    input_path: Optional[str] = None
    expression: Optional[str] = None
    entering: str = "dantzig"
    leaving: str = "grossone"
    truncation: int = 8
    max_iter: int = 1000
    trace: bool = False
    seed: Optional[int] = None

    def arith_config(self) -> ArithConfig:
        return ArithConfig(truncation_order=self.truncation)


def build_parser() -> _Parser:
    parser = _Parser(prog="grossone", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)

    lp = top.add_parser("lp", help="linear programming")
    lp_sub = lp.add_subparsers(dest="action", required=True)
    lp_solve = lp_sub.add_parser("solve", help="solve a standard-form LP file")
    lp_solve.add_argument("input")
    lp_solve.add_argument("--entering", choices=("dantzig", "bland", "fixed"), default="dantzig")
    lp_solve.add_argument("--leaving", choices=("plain", "grossone", "lexicographic"), default="grossone")
    lp_solve.add_argument("--max-iter", type=int, default=1000)
    lp_solve.add_argument("--trace", action="store_true")
    lp_solve.add_argument("--seed", type=int)
    lp_compare = lp_sub.add_parser(
        "compare", help="run the grossone and lexicographic leaving rules and diff the pivots"
    )
    lp_compare.add_argument("input", help="an LP file, or random:<m>x<n> with --seed")
    lp_compare.add_argument("--entering", choices=("dantzig", "bland", "fixed"), default="dantzig")
    lp_compare.add_argument("--max-iter", type=int, default=1000)
    lp_compare.add_argument("--seed", type=int)

    nlp = top.add_parser("nlp", help="nonlinear programming")
    nlp_sub = nlp.add_subparsers(dest="action", required=True)
    nlp_penalty = nlp_sub.add_parser("penalty", help="solve an NLP file by the exact penalty method")
    nlp_penalty.add_argument("input")
    nlp_penalty.add_argument("--trunc", type=int, default=8)
    nlp_penalty.add_argument("--max-iter", type=int, default=50)

    gross = top.add_parser("gross", help="gross-number arithmetic")
    gross_sub = gross.add_subparsers(dest="action", required=True)
    gross_eval = gross_sub.add_parser("eval", help="evaluate an expression over gross-numbers")
    gross_eval.add_argument("expression", help="e.g. 'G / (1 + 4*G)'; G is the infinite unit")
    gross_eval.add_argument("--trunc", type=int, default=8)
    return parser


def _run_config(namespace) -> RunConfig:
    cfg = RunConfig(subcommand=f"{namespace.group} {namespace.action}")
    cfg.input_path = getattr(namespace, "input", None)
    cfg.expression = getattr(namespace, "expression", None)
    entering = getattr(namespace, "entering", "dantzig")
    cfg.entering = "fixed_order" if entering == "fixed" else entering
    cfg.leaving = getattr(namespace, "leaving", "grossone")
    cfg.truncation = getattr(namespace, "trunc", 8)
    cfg.max_iter = getattr(namespace, "max_iter", 1000)
    cfg.trace = getattr(namespace, "trace", False)
    cfg.seed = getattr(namespace, "seed", None)
    if cfg.truncation < 1:
        raise _UsageError("--trunc must be at least 1")
    if cfg.max_iter < 1:
        raise _UsageError("--max-iter must be at least 1")
    return cfg


def _format_vector(values: Sequence) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _load_lp(cfg: RunConfig) -> tuple[LpStandardForm, random.Random | None]:
    rng = random.Random(cfg.seed) if cfg.seed is not None else None
    match = _RANDOM_SPEC.match(cfg.input_path)
    if match:
        if rng is None:
            raise _UsageError("random:<m>x<n> inputs require --seed")
        m, n = int(match.group(1)), int(match.group(2))
        try:
            return random_degenerate_lp(rng, m, n), rng
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    with open(cfg.input_path, "r", encoding="utf-8") as handle:
        return parse_lp(handle.read()), rng


def _entering_order(cfg: RunConfig, lp: LpStandardForm, rng: random.Random | None):
    if cfg.entering != "fixed_order":
        return None
    if rng is not None:
        return rng.sample(range(lp.n), lp.n)
    return list(reversed(range(lp.n)))


def cmd_lp_solve(cfg: RunConfig, out) -> int:
    lp, rng = _load_lp(cfg)
    order = _entering_order(cfg, lp, rng)
    outcome = solve(lp, entering=cfg.entering, leaving=cfg.leaving,
                    order=order, max_iter=cfg.max_iter)
    if cfg.trace:
        for line in outcome.trace.format_lines():
            print(line, file=out)
    print(f"status: {outcome.status.value}", file=out)
    print(f"pivots: {len(outcome.trace.events)}", file=out)
    if outcome.status is SolveStatus.OPTIMAL:
        print(f"x = {_format_vector(outcome.x)}", file=out)
        print(f"value = {outcome.value}", file=out)
    return _STATUS_EXIT[outcome.status]


def cmd_lp_compare(cfg: RunConfig, out) -> int:
    lp, rng = _load_lp(cfg)
    order = _entering_order(cfg, lp, rng)
    first = solve(lp, entering=cfg.entering, leaving="grossone",
                  order=order, max_iter=cfg.max_iter)
    second = solve(lp, entering=cfg.entering, leaving="lexicographic",
                   order=order, max_iter=cfg.max_iter)
    for a, b in zip(first.trace.events, second.trace.events):
        if (a.entering, a.leaving, a.basis) != (b.entering, b.leaving, b.basis):
            print(
                f"DIVERGENT at iter={a.iteration}: "
                f"grossone enter={a.entering + 1} leave={a.leaving + 1} vs "
                f"lexicographic enter={b.entering + 1} leave={b.leaving + 1}",
                file=out,
            )
            return 1
    if len(first.trace.events) != len(second.trace.events) or first.status != second.status:
        print(
            f"DIVERGENT outcome: grossone {first.status.value} after "
            f"{len(first.trace.events)} pivots vs lexicographic {second.status.value} "
            f"after {len(second.trace.events)} pivots",
            file=out,
        )
        return 1
    print(f"IDENTICAL ({len(first.trace.events)} pivots)", file=out)
    return 0


def _display_series(value: GrossNumber) -> GrossNumber:
    # Reports show the series down to grosspower -2.
    return GrossNumber((p, d) for p, d in value.terms if p >= -2)


def cmd_nlp_penalty(cfg: RunConfig, out) -> int:
    with open(cfg.input_path, "r", encoding="utf-8") as handle:
        problem = parse_nlp(handle.read())
    penalty_config = PenaltyConfig(
        arith=ArithConfig(truncation_order=cfg.truncation),
        newton_max_iter=cfg.max_iter,
    )
    xstar = stationary_solve(problem, penalty_config)
    certificate = extract_certificate(problem, xstar)
    print("stationary point:", file=out)
    for i, entry in enumerate(xstar):
        print(f"  x{i + 1} = {_display_series(entry)}", file=out)
    print(f"x0 = {_format_vector(certificate.x0)}", file=out)
    print(f"mu = {_format_vector(certificate.mu)}", file=out)
    print(f"pi = {_format_vector(certificate.pi)}", file=out)
    report = verify_kkt(problem, certificate, tol=Fraction(0))
    print(f"stationarity = {report.stationarity}", file=out)
    print(f"feasibility_h = {report.feasibility_h}", file=out)
    print(f"feasibility_g = {report.feasibility_g}", file=out)
    print(f"multiplier_sign = {report.multiplier_sign}", file=out)
    print(f"complementarity = {report.complementarity}", file=out)
    cq = check_constraint_qualification(problem, certificate.x0)
    cq_word = "holds" if cq.holds else "FAILS"
    print(f"MLICQ: {cq_word} (rank {cq.rank} of {cq.gradient_count})", file=out)
    if report.passed:
        print("KKT VERIFIED", file=out)
        return EXIT_OK
    print("KKT NOT VERIFIED", file=out)
    return EXIT_KKT_UNVERIFIED


class _GrossExprReader(_Scanner):
    """Calculator grammar over gross-number atoms.

    expr := term (('+'|'-') term)*     term := factor (('*'|'/') factor)*
    factor := ['-'] atom ['^' int]     atom := uint | 'G' | '(' expr ')'
    """

    def __init__(self, text: str, config: ArithConfig):
        super().__init__(text)
        self.config = config

    def read_atom(self) -> GrossNumber:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.read_expr()
            self.skip_ws()
            self.expect(")")
            return inner
        if ch == "G":
            self.pos += 1
            return GROSSONE
        if ch.isdigit():
            return GrossNumber([(0, self.read_uint())])
        raise self.error("expected a number, 'G', or '('")

    def read_factor(self) -> GrossNumber:
        self.skip_ws()
        negate = False
        if self.peek() == "-":
            negate = True
            self.pos += 1
        value = self.read_atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            value = value.power(self.read_int(), self.config)
        return -value if negate else value

    def read_term(self) -> GrossNumber:
        value = self.read_factor()
        while True:
            self.skip_ws()
            op = self.peek()
            if op == "*":
                self.pos += 1
                value = value * self.read_factor()
            elif op == "/":
                self.pos += 1
                value = value.divide(self.read_factor(), self.config)
            else:
                return value

    def read_expr(self) -> GrossNumber:
        value = self.read_term()
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                return value
            self.pos += 1
            rhs = self.read_term()
            value = value - rhs if op == "-" else value + rhs

    def read_all(self) -> GrossNumber:
        value = self.read_expr()
        self.expect_end()
        return value


def cmd_gross_eval(cfg: RunConfig, out) -> int:
    result = _GrossExprReader(cfg.expression, cfg.arith_config()).read_all()
    print(str(result), file=out)
    return EXIT_OK


_COMMANDS = {
    "lp solve": cmd_lp_solve,
    "lp compare": cmd_lp_compare,
    "nlp penalty": cmd_nlp_penalty,
    "gross eval": cmd_gross_eval,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
        cfg = _run_config(namespace)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[cfg.subcommand](cfg, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, LpFormatError, NlpFormatError, ZeroDivisionError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        NewtonDivergenceError,
        SingularMatrixError,
        InfeasibleStationaryError,
        RankDeficiencyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
