"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of the six grossone modules with
wrappers that record spans (name, start, end, parent span, operation id) or
bump counters.  One private method is wrapped too: the CLI's gross-number
expression reader, so that reading text can be told apart from the divisions
it performs.  A function is replaced under every module attribute that
holds it, because modules import each other's functions by name (simplex
looks up ``solve_rational_columns`` and ``compare`` in its own namespace).
Methods are replaced on ``GrossNumber`` itself; ``__rmul__`` and ``__radd__``
are separate class attributes and get their own wrappers.  Recursive
functions (``eval_gross``, ``differentiate``, ``eval_rational``) record only
their outermost call.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

# (name, unit, exact): exact metrics are counts that must repeat between two
# traced passes over the same operations.
METRICS = (
    ("arith.divide.calls", "count", True),
    ("arith.divide.s", "s", False),
    ("arith.divide.multiterm_calls", "count", True),
    ("arith.divide.terms_out", "count", True),
    ("arith.mul.calls", "count", True),
    ("arith.add.calls", "count", True),
    ("arith.compare.calls", "count", True),
    ("arith.parse.s", "s", False),
    ("arith.digit_bits_max", "bit", True),
    ("linalg.solve_rational_columns.calls", "count", True),
    ("linalg.solve_rational_columns.s", "s", False),
    ("linalg.solve_rational_columns.rhs_columns", "count", True),
    ("linalg.solve_linear.calls", "count", True),
    ("linalg.solve_linear.s", "s", False),
    ("polyexpr.eval_gross.calls", "count", True),
    ("polyexpr.eval_gross.s", "s", False),
    ("polyexpr.differentiate.calls", "count", True),
    ("polyexpr.differentiate.s", "s", False),
    ("polyexpr.eval_rational.s", "s", False),
    ("polyexpr.parse_expr.s", "s", False),
    ("simplex.solve.s", "s", False),
    ("simplex.phase1.s", "s", False),
    ("simplex.pivots", "count", True),
    ("simplex.pivots_phase1", "count", True),
    ("simplex.s_per_pivot", "s", False),
    ("simplex.rational_solves_per_pivot", "solves/pivot", True),
    ("simplex.reduced_costs.s", "s", False),
    ("simplex.ratio_test_grossone.s", "s", False),
    ("simplex.ratio_test_lexicographic.s", "s", False),
    ("simplex.perturbed_rhs.calls", "count", True),
    ("simplex.perturbed_rhs.s", "s", False),
    ("simplex.perturbed_objective.calls", "count", True),
    ("simplex.perturbed_objective.s", "s", False),
    ("simplex.parse_lp.s", "s", False),
    ("simplex.random_degenerate_lp.s", "s", False),
    ("penalty.stationary_solve.s", "s", False),
    ("penalty.newton_steps", "count", True),
    ("penalty.s_per_newton_step", "s", False),
    ("penalty.assembly_self_s", "s", False),
    ("penalty.extract_certificate.s", "s", False),
    ("penalty.verify_kkt.s", "s", False),
    ("penalty.check_constraint_qualification.s", "s", False),
    ("penalty.iterate_terms", "count", True),
    ("penalty.parse_nlp.s", "s", False),
    ("cli.main.calls", "count", True),
    ("cli.main.s", "s", False),
    ("cli.main.self_s", "s", False),
    ("cli.output_bytes", "B", True),
)

# Span names used only to attribute time (their totals feed other metrics).
_CLI_READER = "cli.gross_expr_reader"


def digit_bits(values) -> int:
    """Largest numerator or denominator bit length among Fractions and the
    digits of gross-numbers in values."""
    best = 0
    for value in values:
        digits = [d for _, d in value.terms] if hasattr(value, "terms") else [value]
        for d in digits:
            best = max(best, d.numerator.bit_length(), d.denominator.bit_length())
    return best


class Tracer:
    def __init__(self) -> None:
        self._patches: List[tuple] = []
        self.spans: List[list] = []  # [name, start, end, parent index, op id]
        self.stack: List[int] = []
        self.depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.bits_max = 0
        self.op_id = 0

    def reset(self) -> None:
        """Forget recorded spans and counts; installed wrappers keep working."""
        self.spans.clear()
        self.stack.clear()
        self.depth.clear()
        self.counts.clear()
        self.bits_max = 0
        self.op_id = 0

    # -- wrappers ---------------------------------------------------------------

    def spanned(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """Record a span per outermost call of fn; on_result(args, result)."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.depth[name]:
                return fn(*args, **kwargs)
            tracer.depth[name] += 1
            record = [name, perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op_id]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer.stack.pop()
                tracer.depth[name] -= 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        counts = self.counts
        if on_result is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                on_result(args, kwargs, result)
                return result
        return wrapper

    # -- installation ---------------------------------------------------------------

    def _replace_function(self, api, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(module, attr)
        wrapped = make(original)
        for owner in (api.package, api.arith, api.linalg, api.polyexpr, api.simplex, api.penalty, api.cli):
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, value))
                    setattr(owner, key, wrapped)

    def _replace_method(self, cls, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def install(self, api) -> None:
        gross = api.arith.GrossNumber
        counts = self.counts

        def note_bits(values) -> None:
            self.bits_max = max(self.bits_max, digit_bits(values))

        def after_divide(args, kwargs, result) -> None:
            other = args[1]
            if isinstance(other, gross) and len(other.terms) > 1:
                counts["arith.divide.multiterm_calls"] += 1
            counts["arith.divide.terms_out"] += len(result.terms)

        def after_entering(args, kwargs, result) -> None:
            if result is not None:
                counts["simplex.pivots"] += 1
                if self.depth["simplex.phase1"]:
                    counts["simplex.pivots_phase1"] += 1

        def after_ratio_test(args, kwargs, result) -> None:
            if result is None:  # unbounded: the entering column made no pivot
                counts["simplex.pivots"] -= 1
                if self.depth["simplex.phase1"]:
                    counts["simplex.pivots_phase1"] -= 1

        def after_solve(args, kwargs, outcome) -> None:
            counts["simplex.pivots_phase2_reported"] += len(outcome.trace.events)
            note_bits(outcome.x or ())
            if outcome.final_objective is not None:
                note_bits([outcome.final_objective])

        def after_stationary(args, kwargs, xstar) -> None:
            counts["penalty.iterate_terms"] += sum(len(entry.terms) for entry in xstar)
            note_bits(xstar)

        def after_cli(args, kwargs, code) -> None:
            out = kwargs.get("out", args[1] if len(args) > 1 else None)
            if hasattr(out, "getvalue"):
                counts["cli.output_bytes"] += len(out.getvalue().encode("utf-8"))

        self._replace_method(gross, "divide", lambda f: self.spanned("arith.divide", f, after_divide))
        for attr in ("__mul__", "__rmul__"):
            self._replace_method(gross, attr, lambda f: self.counted("arith.mul.calls", f))
        for attr in ("__add__", "__radd__"):
            self._replace_method(gross, attr, lambda f: self.counted("arith.add.calls", f))
        for attr in ("__lt__", "__le__", "__gt__", "__ge__"):
            self._replace_method(gross, attr, lambda f: self.counted("arith.compare.calls", f))
        self._replace_method(gross, "parse", lambda f: self.spanned("arith.parse", f))
        self._replace_method(api.cli._GrossExprReader, "read_all", lambda f: self.spanned(_CLI_READER, f))
        self._replace_function(api, api.arith, "compare", lambda f: self.counted("arith.compare.calls", f))

        self._replace_function(
            api, api.linalg, "solve_rational_columns",
            lambda f: self.spanned(
                "linalg.solve_rational_columns", f,
                lambda a, k, r: counts.update({"linalg.solve_rational_columns.rhs_columns": len(a[1])}),
            ),
        )
        self._replace_function(
            api, api.linalg, "solve_linear",
            lambda f: self.spanned("linalg.solve_linear", f, lambda a, k, r: note_bits(r)),
        )

        for attr in ("eval_gross", "differentiate", "eval_rational", "parse_expr"):
            self._replace_function(api, api.polyexpr, attr, lambda f, a=attr: self.spanned(f"polyexpr.{a}", f))

        simplex_spans = {
            "solve": after_solve,
            "phase1": None,
            "reduced_costs": None,
            "ratio_test_grossone": after_ratio_test,
            "ratio_test_lexicographic": after_ratio_test,
            "perturbed_rhs": None,
            "perturbed_objective": None,
            "parse_lp": None,
            "random_degenerate_lp": None,
        }
        for attr, hook in simplex_spans.items():
            self._replace_function(api, api.simplex, attr, lambda f, a=attr, h=hook: self.spanned(f"simplex.{a}", f, h))
        self._replace_function(api, api.simplex, "choose_entering", lambda f: self.counted("simplex.choose_entering", f, after_entering))
        self._replace_function(api, api.simplex, "ratio_test_plain", lambda f: self.counted("simplex.ratio_test_plain", f, after_ratio_test))

        penalty_spans = {
            "stationary_solve": after_stationary,
            "extract_certificate": None,
            "verify_kkt": None,
            "check_constraint_qualification": None,
            "parse_nlp": None,
        }
        for attr, hook in penalty_spans.items():
            self._replace_function(api, api.penalty, attr, lambda f, a=attr, h=hook: self.spanned(f"penalty.{a}", f, h))

        self._replace_function(api, api.cli, "main", lambda f: self.spanned("cli.main", f, after_cli))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    # -- results ---------------------------------------------------------------------

    def consistency_error(self) -> Optional[str]:
        """Pivots counted from outside must match the pivots solve reported."""
        phase2 = self.counts["simplex.pivots"] - self.counts["simplex.pivots_phase1"]
        if phase2 != self.counts["simplex.pivots_phase2_reported"]:
            return (
                f"traced phase-two pivots {phase2} differ from the "
                f"{self.counts['simplex.pivots_phase2_reported']} pivots solve reported"
            )
        return None

    def metrics(self) -> Dict[str, float]:
        spans = self.spans
        total: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        self_time: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(spans):
            self_time[name] += end - start - child_time[index]

        def has_ancestor(index: int, name: str) -> bool:
            parent = spans[index][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        newton_time = sum(
            end - start for index, (name, start, end, _, _) in enumerate(spans)
            if name in ("linalg.solve_linear", "polyexpr.eval_gross")
            and has_ancestor(index, "penalty.stationary_solve")
        )
        newton_steps = sum(
            1 for index, span in enumerate(spans)
            if span[0] == "linalg.solve_linear" and has_ancestor(index, "penalty.stationary_solve")
        )
        simplex_solves = sum(
            1 for index, span in enumerate(spans)
            if span[0] == "linalg.solve_rational_columns" and has_ancestor(index, "simplex.solve")
        )
        pivots = self.counts["simplex.pivots"]

        values = {
            "arith.divide.calls": calls["arith.divide"],
            "arith.divide.s": total["arith.divide"],
            "arith.divide.multiterm_calls": self.counts["arith.divide.multiterm_calls"],
            "arith.divide.terms_out": self.counts["arith.divide.terms_out"],
            "arith.mul.calls": self.counts["arith.mul.calls"],
            "arith.add.calls": self.counts["arith.add.calls"],
            "arith.compare.calls": self.counts["arith.compare.calls"],
            "arith.parse.s": total["arith.parse"] + self_time[_CLI_READER],
            "arith.digit_bits_max": self.bits_max,
            "linalg.solve_rational_columns.calls": calls["linalg.solve_rational_columns"],
            "linalg.solve_rational_columns.s": total["linalg.solve_rational_columns"],
            "linalg.solve_rational_columns.rhs_columns": self.counts["linalg.solve_rational_columns.rhs_columns"],
            "linalg.solve_linear.calls": calls["linalg.solve_linear"],
            "linalg.solve_linear.s": total["linalg.solve_linear"],
            "polyexpr.eval_gross.calls": calls["polyexpr.eval_gross"],
            "polyexpr.eval_gross.s": total["polyexpr.eval_gross"],
            "polyexpr.differentiate.calls": calls["polyexpr.differentiate"],
            "polyexpr.differentiate.s": total["polyexpr.differentiate"],
            "polyexpr.eval_rational.s": total["polyexpr.eval_rational"],
            "polyexpr.parse_expr.s": total["polyexpr.parse_expr"],
            "simplex.solve.s": total["simplex.solve"],
            "simplex.phase1.s": total["simplex.phase1"],
            "simplex.pivots": pivots,
            "simplex.pivots_phase1": self.counts["simplex.pivots_phase1"],
            "simplex.s_per_pivot": total["simplex.solve"] / pivots if pivots else 0.0,
            "simplex.rational_solves_per_pivot": simplex_solves / pivots if pivots else 0.0,
            "simplex.reduced_costs.s": total["simplex.reduced_costs"],
            "simplex.ratio_test_grossone.s": total["simplex.ratio_test_grossone"],
            "simplex.ratio_test_lexicographic.s": total["simplex.ratio_test_lexicographic"],
            "simplex.perturbed_rhs.calls": calls["simplex.perturbed_rhs"],
            "simplex.perturbed_rhs.s": total["simplex.perturbed_rhs"],
            "simplex.perturbed_objective.calls": calls["simplex.perturbed_objective"],
            "simplex.perturbed_objective.s": total["simplex.perturbed_objective"],
            "simplex.parse_lp.s": total["simplex.parse_lp"],
            "simplex.random_degenerate_lp.s": total["simplex.random_degenerate_lp"],
            "penalty.stationary_solve.s": total["penalty.stationary_solve"],
            "penalty.newton_steps": newton_steps,
            "penalty.s_per_newton_step": (
                total["penalty.stationary_solve"] / newton_steps if newton_steps else 0.0
            ),
            "penalty.assembly_self_s": total["penalty.stationary_solve"] - newton_time,
            "penalty.extract_certificate.s": total["penalty.extract_certificate"],
            "penalty.verify_kkt.s": total["penalty.verify_kkt"],
            "penalty.check_constraint_qualification.s": total["penalty.check_constraint_qualification"],
            "penalty.iterate_terms": self.counts["penalty.iterate_terms"],
            "penalty.parse_nlp.s": total["penalty.parse_nlp"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.s": total["cli.main"],
            "cli.main.self_s": self_time["cli.main"],
            "cli.output_bytes": self.counts["cli.output_bytes"],
        }
        return {name: values[name] for name, _, _ in METRICS}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "op": op_id, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
