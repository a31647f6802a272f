"""Command-line front end.

Subcommands: ``lp solve``, ``lp compare``, ``nlp penalty``, ``gross eval``.
Reports print exact rationals only (never decimals) so outputs are stable
byte for byte.  Exit codes: 0 optimal/verified/identical, 1 infeasible,
2 unbounded, 3 cycle detected, 4 iteration limit, 5 solver failure or a
result too long to print, 6 KKT not verified, 64 usage error (such as a
random:<m>x<n> size with m*n over 10^6), 65 parse error (such as
parentheses nested deeper than 100 levels, a power of a multi-term base
with more than 500 terms, or an NLP file with n over 400).
"""

from __future__ import annotations

import argparse
import operator
import random
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .arith import (
    ArithConfig, GROSSONE, GrossNumber, ParseError, _ExpressionReader, _decimal_int,
    _over_str_limit, _str_digit_limit,
)
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
    PhaseOneError,
    RankDeficiencyError,
    RatioTieError,
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

# A division to K levels makes about K^2 digit updates on integers of about
# K words; at this bound a three-term divisor still takes well under a second.
_MAX_TRUNC = 1000

# The most matrix entries a random:<m>x<n> instance may have, checked before
# anything is generated; the largest size in the tests is 24x48.
_MAX_RANDOM_ENTRIES = 10**6


class _UsageError(Exception):
    pass


class _InputError(Exception):
    """An input file that cannot be read as UTF-8 text."""


class _UnprintableError(Exception):
    """A result holds an integer with more digits than Python prints."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 64 instead of argparse's 2
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="grossone", description=__doc__.replace("``", ""))
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


def _check_counts(args) -> None:
    if getattr(args, "trunc", 1) < 1:
        raise _UsageError("--trunc must be at least 1")
    if getattr(args, "trunc", 1) > _MAX_TRUNC:
        raise _UsageError(f"--trunc must be at most {_MAX_TRUNC}")
    if getattr(args, "max_iter", 1) < 1:
        raise _UsageError("--max-iter must be at least 1")


def _check_printable(values) -> None:
    """Raise _UnprintableError unless every int in ``values`` (ints,
    Fractions and gross-numbers, whose grosspowers and digits are read) fits
    ``_str_digit_limit`` (``_over_str_limit``)."""
    for value in values:
        if isinstance(value, GrossNumber):
            _check_printable([number for term in value.terms for number in term])
            continue
        for number in (value.numerator, value.denominator):
            if _over_str_limit(number):
                raise _UnprintableError(
                    f"result too long to print: an integer of {number.bit_length()} bits "
                    f"is over the {_str_digit_limit()}-digit limit"
                )


def _format_vector(values: Sequence) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _read_input(path: str) -> str:
    """The text of an input file; an unreadable or non-UTF-8 file is a
    parse error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(str(exc)) from None


def _load_lp(args) -> tuple[LpStandardForm, random.Random | None]:
    rng = random.Random(args.seed) if args.seed is not None else None
    match = _RANDOM_SPEC.match(args.input)
    if match:
        if rng is None:
            raise _UsageError("random:<m>x<n> inputs require --seed")
        try:
            m, n = _decimal_int(match.group(1)), _decimal_int(match.group(2))
            if m * n > _MAX_RANDOM_ENTRIES:
                raise ValueError(f"random:<m>x<n> needs m*n at most {_MAX_RANDOM_ENTRIES}")
            return random_degenerate_lp(rng, m, n), rng
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    return parse_lp(_read_input(args.input)), rng


def _entering_rule(args) -> str:
    return "fixed_order" if args.entering == "fixed" else args.entering


def _entering_order(args, lp: LpStandardForm, rng: random.Random | None):
    if args.entering != "fixed":
        return None
    if rng is not None:
        return rng.sample(range(lp.n), lp.n)
    return list(reversed(range(lp.n)))


def cmd_lp_solve(args, out) -> int:
    lp, rng = _load_lp(args)
    order = _entering_order(args, lp, rng)
    outcome = solve(lp, entering=_entering_rule(args), leaving=args.leaving,
                    order=order, max_iter=args.max_iter)
    optimal = outcome.status is SolveStatus.OPTIMAL
    _check_printable(
        [event.objective for event in outcome.trace.events if args.trace]
        + ([*outcome.x, outcome.value] if optimal else [])
    )
    if args.trace:
        for line in outcome.trace.format_lines():
            print(line, file=out)
    print(f"status: {outcome.status.value}", file=out)
    print(f"pivots: {len(outcome.trace.events)}", file=out)
    if optimal:
        print(f"x = {_format_vector(outcome.x)}", file=out)
        print(f"value = {outcome.value}", file=out)
    return _STATUS_EXIT[outcome.status]


def cmd_lp_compare(args, out) -> int:
    lp, rng = _load_lp(args)
    order = _entering_order(args, lp, rng)
    entering = _entering_rule(args)
    first = solve(lp, entering=entering, leaving="grossone",
                  order=order, max_iter=args.max_iter)
    second = solve(lp, entering=entering, leaving="lexicographic",
                   order=order, max_iter=args.max_iter)
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


def cmd_nlp_penalty(args, out) -> int:
    problem = parse_nlp(_read_input(args.input))
    penalty_config = PenaltyConfig(
        arith=ArithConfig(truncation_order=args.trunc),
        newton_max_iter=args.max_iter,
    )
    xstar = stationary_solve(problem, penalty_config)
    certificate = extract_certificate(problem, xstar)
    report = verify_kkt(problem, certificate, tol=Fraction(0))
    cq = check_constraint_qualification(problem, certificate.x0)
    series = [_display_series(entry) for entry in xstar]
    _check_printable([*series, *certificate.x0, *certificate.mu, *certificate.pi,
                      *vars(report).values()])
    print("stationary point:", file=out)
    for i, entry in enumerate(series):
        print(f"  x{i + 1} = {entry}", file=out)
    print(f"x0 = {_format_vector(certificate.x0)}", file=out)
    print(f"mu = {_format_vector(certificate.mu)}", file=out)
    print(f"pi = {_format_vector(certificate.pi)}", file=out)
    print(f"stationarity = {report.stationarity}", file=out)
    print(f"feasibility_h = {report.feasibility_h}", file=out)
    print(f"feasibility_g = {report.feasibility_g}", file=out)
    print(f"multiplier_sign = {report.multiplier_sign}", file=out)
    print(f"complementarity = {report.complementarity}", file=out)
    cq_word = "holds" if cq.holds else "FAILS"
    print(f"MLICQ: {cq_word} (rank {cq.rank} of {cq.gradient_count})", file=out)
    if report.passed:
        print("KKT VERIFIED", file=out)
        return EXIT_OK
    print("KKT NOT VERIFIED", file=out)
    return EXIT_KKT_UNVERIFIED


class _GrossExprReader(_ExpressionReader):
    """The calculator: ``arith._ExpressionReader`` over gross-numbers, with
    leaves uint and 'G', term operators '*' and '/', and an int exponent."""

    add = staticmethod(operator.add)
    negate = staticmethod(operator.neg)
    read_exponent = _ExpressionReader.read_int

    def __init__(self, text: str, config: ArithConfig):
        super().__init__(text)
        self.config = config
        self.term_operators = {"*": operator.mul, "/": lambda a, b: a.divide(b, config)}

    def read_leaf(self) -> GrossNumber:
        ch = self.peek()
        if ch == "G":
            self.pos += 1
            return GROSSONE
        if ch.isdigit():
            return GrossNumber([(0, self.read_uint())])
        raise self.error("expected a number, 'G', or '('")

    def power(self, base: GrossNumber, exponent: int) -> GrossNumber:
        return base.power(exponent, self.config)

    @staticmethod
    def power_terms(base: GrossNumber, exponent: int) -> int:
        # The levels from |e| times the top grosspower down to |e| times the
        # lowest; a negative power divides one by the positive one.
        if len(base.terms) < 2:
            return 1
        return abs(exponent) * (base.leading_power - base.terms[-1][0]) + 1

    def read_all(self) -> GrossNumber:
        value = self.read_expr()
        self.expect_end()
        return value


def cmd_gross_eval(args, out) -> int:
    result = _GrossExprReader(args.expression, ArithConfig(truncation_order=args.trunc)).read_all()
    _check_printable([result])
    print(str(result), file=out)
    return EXIT_OK


_COMMANDS = {
    ("lp", "solve"): cmd_lp_solve,
    ("lp", "compare"): cmd_lp_compare,
    ("nlp", "penalty"): cmd_nlp_penalty,
    ("gross", "eval"): cmd_gross_eval,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_counts(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.group, args.action](args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_InputError, ParseError, LpFormatError, NlpFormatError, ZeroDivisionError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        NewtonDivergenceError,
        SingularMatrixError,
        InfeasibleStationaryError,
        RankDeficiencyError,
        PhaseOneError,
        RatioTieError,
        _UnprintableError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
