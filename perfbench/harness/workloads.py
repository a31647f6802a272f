"""The three seeded workloads: generators, the timed call, and answer checks.

Each workload turns a seed into a deterministic stream of operations, made of
repeated cycles of `cycle` operations; a run takes a prefix of that stream as
its pool.  ``run`` is the only code inside
the timed region.  ``check`` uses ``checks`` and never the program's own
internals.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence

from . import checks

DEFAULT_SEED = 1
GOLDEN_FILE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "golden", "cli-small.json")


# -- lp-degenerate -------------------------------------------------------------------

LP_SIZES = ((4, 8), (6, 12), (8, 16))


@dataclass
class LpOp:
    m: int
    n: int
    lp: object


class LpDegenerate:
    name = "lp-degenerate"
    pool_size = 300
    trace_ops = 30
    cycle = len(LP_SIZES)

    def stream(self, api, seed: int) -> Iterator[LpOp]:
        rng = random.Random(f"lp-degenerate:{seed}")
        for m, n in itertools.cycle(LP_SIZES):
            yield LpOp(m, n, api.simplex.random_degenerate_lp(rng, m, n))

    def context(self, root: str, seed: int):
        return None

    def warmup(self, api) -> None:
        api.simplex.solve(api.simplex.random_degenerate_lp(random.Random(0), 4, 8))

    def run(self, api, op: LpOp):
        return api.simplex.solve(op.lp, entering="dantzig", leaving="grossone")

    def check(self, op: LpOp, outcome, ctx, position: int) -> Optional[str]:
        if outcome.status.value != "optimal":
            return f"status {outcome.status.value} on a bounded feasible LP"
        basis = outcome.final_basis.indices if outcome.final_basis is not None else None
        return checks.check_lp_optimal(op.lp.a, op.lp.b, op.lp.c, outcome.x, outcome.value, basis)


# -- nlp-ladder ------------------------------------------------------------------------

NLP_SIZES = (3, 4, 5)


@dataclass
class NlpOp:
    n: int
    weights: List[int]
    bounds: Dict[int, Fraction]
    problem: object


def nlp_text(weights: Sequence[int], bounds: Dict[int, Fraction]) -> str:
    n = len(weights)
    lines = [f"n {n}", "f: " + " + ".join(f"{w}/2*x{k + 1}^2" for k, w in enumerate(weights))]
    lines += [f"g: {bounds[k]} - x{k + 1}" for k in sorted(bounds)]
    lines.append("h: " + " + ".join(f"x{k + 1}" for k in range(n)) + " - 1")
    return "\n".join(lines) + "\n"


def nlp_instance(rng: random.Random, n: int):
    """Weights w_k in 1..9 and lower bounds c_k in {1..4}/(2n+1) on a random
    half of the variables (rounded up), drawn again until every bound is
    active at the solution with a positive multiplier.

    Knowing the active set fixes the Newton path: every bound is violated at
    the origin, so one step lands on the stationary point.  Instances of one
    size then differ in cost only through their digits, which keeps the
    seed-to-seed spread of the run low.
    """
    while True:
        weights = [rng.randint(1, 9) for _ in range(n)]
        bounded = sorted(rng.sample(range(n), (n + 1) // 2))
        bounds = {k: Fraction(rng.randint(1, 4), 2 * n + 1) for k in bounded}
        # With every bound active, x_k = c_k on the bounds and x_j = t / w_j
        # elsewhere (from h); the bound multipliers are w_k c_k - t.
        t = (1 - sum(bounds.values())) / sum(Fraction(1, weights[j]) for j in range(n) if j not in bounds)
        if all(weights[k] * c > t for k, c in bounds.items()):
            return weights, bounds


class NlpLadder:
    name = "nlp-ladder"
    pool_size = 90
    trace_ops = 6
    cycle = len(NLP_SIZES)

    def stream(self, api, seed: int) -> Iterator[NlpOp]:
        rng = random.Random(f"nlp-ladder:{seed}")
        for n in itertools.cycle(NLP_SIZES):
            weights, bounds = nlp_instance(rng, n)
            yield NlpOp(n, weights, bounds, api.penalty.parse_nlp(nlp_text(weights, bounds)))

    def context(self, root: str, seed: int):
        return None

    def warmup(self, api) -> None:
        problem = api.penalty.parse_nlp(nlp_text([1, 3], {0: Fraction(1, 2)}))
        self.run(api, NlpOp(2, [1, 3], {0: Fraction(1, 2)}, problem))

    def run(self, api, op: NlpOp):
        xstar = api.penalty.stationary_solve(op.problem)
        certificate = api.penalty.extract_certificate(op.problem, xstar)
        report = api.penalty.verify_kkt(op.problem, certificate, tol=Fraction(0))
        return certificate, report

    def check(self, op: NlpOp, result, ctx, position: int) -> Optional[str]:
        certificate, report = result
        if not report.passed:
            return "verify_kkt did not pass at tolerance 0"
        return checks.check_kkt(
            checks.ladder_nlp(op.weights, op.bounds), certificate.x0, certificate.mu, certificate.pi
        )


# -- cli-small ---------------------------------------------------------------------------

BEALE = "instances/beale.lp"
NLP_FILES = ("instances/quadratic_equality.nlp", "instances/linear_bound.nlp")
DEFAULT_TRUNCATION = 8

# (argv, documented exit code) of malformed requests.
MALFORMED = (
    (("lp", "solve"), 64),
    (("lp", "frobnicate", BEALE), 64),
    (("lp", "compare", "random:4x8"), 64),
    (("lp", "compare", "random:9x4", "--seed", "3"), 64),
    (("gross", "eval", "G", "--trunc", "0"), 64),
    (("gross", "eval", "1/0"), 65),
    (("lp", "solve", NLP_FILES[0]), 65),
    (("nlp", "penalty", BEALE), 65),
    (("lp", "solve", "instances/missing.lp"), 65),
)

# One cycle of the request mix.  "malformed" is 3 of 25.  The cheap requests
# (gross eval, malformed, the bound NLP) are 16 of 25, so the median latency
# falls inside one cluster instead of on the edge between two.
CLI_SCHEDULE = (
    "gross", "gross", "compare-4x8", "gross", "lp-beale", "gross-trunc", "malformed",
    "gross", "nlp-1", "gross", "compare-6x12", "gross", "lp-beale-plain", "gross",
    "malformed", "gross-trunc", "compare-beale", "gross", "nlp-0", "gross",
    "lp-beale-lex-trace", "compare-4x8", "gross-trunc", "lp-beale-bland", "malformed",
)


@dataclass
class CliOp:
    kind: str
    argv: tuple
    expect: int
    data: dict = field(default_factory=dict)


def _series_text(series: Dict[int, Fraction]) -> str:
    """Calculator text for a series, e.g. "3*G^2 - 5*G + 7 - 2*G^-1"."""
    pieces = []
    for power in sorted(series, reverse=True):
        digit = series[power]
        body = str(abs(digit)) if power == 0 else f"{abs(digit)}*G" + ("" if power == 1 else f"^{power}")
        if pieces:
            pieces.append((" - " if digit < 0 else " + ") + body)
        else:
            pieces.append(("-" if digit < 0 else "") + body)
    return "".join(pieces)


def _random_series(rng: random.Random, terms: int) -> Dict[int, Fraction]:
    return {p: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9)) for p in rng.sample(range(-2, 3), terms)}


def _gross_op(rng: random.Random, truncation: Optional[int]) -> CliOp:
    numerator = _random_series(rng, rng.randint(1, 3))
    divisor = _random_series(rng, rng.randint(2, 3))
    argv = ("gross", "eval", f"({_series_text(numerator)}) / ({_series_text(divisor)})")
    if truncation is not None:
        argv += ("--trunc", str(truncation))
    order = truncation or DEFAULT_TRUNCATION
    return CliOp("gross", argv, 0, {"a": numerator, "b": divisor, "order": order})


def _malformed_op(rng: random.Random) -> CliOp:
    choice = rng.randrange(len(MALFORMED) + 2)
    if choice < len(MALFORMED):
        argv, code = MALFORMED[choice]
        return CliOp("malformed", argv, code)
    text = _gross_op(rng, None).argv[2]
    if choice == len(MALFORMED):
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + "$" + text[cut:]
    else:
        text = text[:-1]  # drops the closing parenthesis
    return CliOp("malformed", ("gross", "eval", text), 65)


def cli_op(rng: random.Random, kind: str) -> CliOp:
    if kind == "gross":
        return _gross_op(rng, None)
    if kind == "gross-trunc":
        return _gross_op(rng, rng.choice((4, 12)))
    if kind.startswith("compare-"):
        target = BEALE if kind == "compare-beale" else "random:" + kind.removeprefix("compare-")
        seed_args = () if target == BEALE else ("--seed", str(rng.randrange(10**6)))
        return CliOp("compare", ("lp", "compare", target) + seed_args, 0)
    if kind == "lp-beale":
        return CliOp("lp-solve", ("lp", "solve", BEALE), 0)
    if kind == "lp-beale-plain":
        return CliOp("lp-cycle", ("lp", "solve", BEALE, "--leaving", "plain", "--max-iter", "50"), 3)
    if kind == "lp-beale-lex-trace":
        return CliOp("lp-solve", ("lp", "solve", BEALE, "--leaving", "lexicographic", "--trace"), 0)
    if kind == "lp-beale-bland":
        return CliOp("lp-solve", ("lp", "solve", BEALE, "--entering", "bland"), 0)
    if kind.startswith("nlp-"):
        return CliOp("nlp", ("nlp", "penalty", NLP_FILES[int(kind[-1])]), 0)
    if kind == "malformed":
        return _malformed_op(rng)
    raise ValueError(f"unknown request kind {kind!r}")


def output_digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode("utf-8")).hexdigest()[:12]


@dataclass
class CliContext:
    golden: List[str]
    beale: tuple
    beale_optimum: Fraction
    nlp: Dict[str, checks.NlpData]


_COMPARE = re.compile(r"IDENTICAL \((\d+) pivots\)\n")


def _check_lp_solve(op: CliOp, lines: List[str], ctx: CliContext) -> Optional[str]:
    trace = [line for line in lines if line.startswith("iter=")]
    body = lines[len(trace):]
    if len(body) != 4 or body[0] != "status: optimal" or not body[1].startswith("pivots: "):
        return "lp solve report is not an optimal report"
    if "--trace" in op.argv and len(trace) != int(body[1].removeprefix("pivots: ")):
        return "trace line count differs from the pivot count"
    x = checks.read_vector(body[2], "x")
    value = Fraction(body[3].removeprefix("value = "))
    a, b, c = ctx.beale
    if any(v < 0 for v in x) or any(sum(r * v for r, v in zip(row, x)) != bi for row, bi in zip(a, b)):
        return "printed point is infeasible"
    if sum(ci * v for ci, v in zip(c, x)) != value or value != ctx.beale_optimum:
        return f"printed value {value} is not the optimum {ctx.beale_optimum}"
    return None


def _check_nlp(op: CliOp, lines: List[str], ctx: CliContext) -> Optional[str]:
    if not lines or lines[-1] != "KKT VERIFIED":
        return "nlp report does not end in KKT VERIFIED"
    vectors = {}
    for label in ("x0", "mu", "pi"):
        line = next((ln for ln in lines if ln.startswith(f"{label} = ")), None)
        if line is None:
            return f"nlp report has no {label} line"
        vectors[label] = checks.read_vector(line, label)
    return checks.check_kkt(ctx.nlp[op.argv[2]], vectors["x0"], vectors["mu"], vectors["pi"])


class CliSmall:
    name = "cli-small"
    pool_size = 5000
    trace_ops = 250
    cycle = len(CLI_SCHEDULE)

    def stream(self, api, seed: int) -> Iterator[CliOp]:
        rng = random.Random(f"cli-small:{seed}")
        for kind in itertools.cycle(CLI_SCHEDULE):
            yield cli_op(rng, kind)

    def context(self, root: str, seed: int) -> CliContext:
        ctx = self.reference(root)
        if seed == DEFAULT_SEED:
            with open(GOLDEN_FILE, "r", encoding="utf-8") as handle:
                ctx.golden = json.load(handle)["digests"]
        return ctx

    def reference(self, root: str) -> CliContext:
        """Check data read from the shipped instances, without golden digests."""
        with open(os.path.join(root, BEALE), "r", encoding="utf-8") as handle:
            beale = checks.read_lp_text(handle.read())
        nlp = {}
        for path in NLP_FILES:
            with open(os.path.join(root, path), "r", encoding="utf-8") as handle:
                nlp[path] = checks.read_nlp_text(handle.read())
        return CliContext([], beale, checks.lp_optimum_by_vertices(*beale), nlp)

    def warmup(self, api) -> None:
        rng = random.Random(0)
        for kind in sorted(set(CLI_SCHEDULE)):
            self.run(api, cli_op(rng, kind))

    def run(self, api, op: CliOp):
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = api.cli.main(list(op.argv), out=out)
        return code, out.getvalue()

    def check(self, op: CliOp, result, ctx: CliContext, position: int) -> Optional[str]:
        code, stdout = result
        if position < len(ctx.golden) and output_digest(code, stdout) != ctx.golden[position]:
            return f"exit code or output of request {position} differs from the golden file"
        if code != op.expect:
            return f"exit code {code}, documented {op.expect}"
        lines = stdout.splitlines()
        if op.kind == "malformed":
            return "malformed request printed a report" if stdout else None
        if op.kind == "compare":
            return None if _COMPARE.fullmatch(stdout) else "lp compare did not report IDENTICAL"
        if op.kind == "lp-cycle":
            return None if lines[:1] == ["status: cycle_detected"] else "plain rule did not report a cycle"
        if op.kind == "lp-solve":
            return _check_lp_solve(op, lines, ctx)
        if op.kind == "nlp":
            return _check_nlp(op, lines, ctx)
        quotient = checks.read_series(stdout)
        return checks.check_quotient(op.data["a"], op.data["b"], quotient, op.data["order"])


WORKLOADS = {w.name: w for w in (LpDegenerate(), NlpLadder(), CliSmall())}
