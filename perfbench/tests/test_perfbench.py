"""Tests of the benchmark itself: generators, answer checkers, tracing and
the reference kernel.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from fractions import Fraction

import pytest

import run
from harness import checks, measure, program, reference
from harness.tracing import METRICS, Tracer
from harness.workloads import WORKLOADS, CliSmall, LpDegenerate, NlpLadder

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture
def api():
    return program.load(os.path.join(ROOT, "src"))


def describe(op):
    if hasattr(op, "lp"):
        return op.m, op.n, op.lp.a, op.lp.b, op.lp.c
    if hasattr(op, "problem"):
        return op.weights, op.bounds
    return op.argv, op.expect


@pytest.mark.parametrize("name,count", [("lp-degenerate", 3), ("nlp-ladder", 6), ("cli-small", 60)])
def test_generators_are_deterministic_per_seed(api, name, count):
    workload = WORKLOADS[name]

    def prefix(seed):
        return [describe(op) for op in itertools.islice(workload.stream(api, seed), count)]

    assert prefix(3) == prefix(3)
    assert prefix(3) != prefix(4)


class CorruptLp(LpDegenerate):
    def run(self, api, op):
        outcome = super().run(api, op)
        return dataclasses.replace(outcome, value=outcome.value + Fraction(1, 7))


class CorruptNlp(NlpLadder):
    def run(self, api, op):
        certificate, report = super().run(api, op)
        if certificate.mu:
            return dataclasses.replace(certificate, mu=certificate.mu[:-1]), report
        return dataclasses.replace(certificate, pi=()), report


class CorruptCli(CliSmall):
    def run(self, api, op):
        code, stdout = super().run(api, op)
        return code + 1, stdout


@pytest.mark.parametrize("workload", [CorruptLp(), CorruptNlp(), CorruptCli()], ids=lambda w: w.name)
def test_corrupted_answers_count_as_failed(workload):
    outcome = run.plain_run(workload, ROOT, seed=2, seconds=0.05)
    assert outcome["attempted"] >= 1
    assert outcome["failed"] == outcome["attempted"]
    assert outcome["details"]["failed_ops_ratio"] == 1.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_uncorrupted_answers_pass(name):
    outcome = run.plain_run(WORKLOADS[name], ROOT, seed=2, seconds=0.05)
    assert outcome["failures"] == []
    assert outcome["details"]["failed_ops_ratio"] == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plain_run_scales_wall_times_by_the_reference(name):
    outcome = run.plain_run(WORKLOADS[name], ROOT, seed=2, seconds=0.05)
    metrics, details = outcome["metrics"], outcome["details"]
    scale = details["reference_s_per_wall_s"]
    assert scale > 0 and details["reference_rounds"] >= measure.SETUP_REPEATS
    assert metrics["ops_per_s"]["value"] == pytest.approx(details["wall_ops_per_s"] / scale)
    assert metrics["op_ms_p50"]["value"] == pytest.approx(details["wall_op_ms_p50"] * scale)
    assert metrics["op_ms_tail"]["value"] == pytest.approx(details["wall_op_ms_tail"] * scale)
    assert metrics["setup_s"]["value"] == pytest.approx(details["wall_setup_s"] * scale)
    assert outcome["attempted"] % WORKLOADS[name].cycle == 0


def test_reference_kernel_is_exact():
    solution = reference._solve()
    for k in range(2):
        column = [x[k] for x in solution]
        for row in reference._MATRIX:
            assert sum(a * v for a, v in zip(row, column)) == row[reference._SIZE + k]
    quotient = reference._divide(reference._NUMERATOR, reference._DIVISOR, reference._ORDER)
    assert checks.check_quotient(reference._NUMERATOR, reference._DIVISOR, quotient, reference._ORDER) is None


def test_speedometer_runs_rounds_in_proportion_to_time():
    assert reference.rounds_for(0.0) == 1
    assert reference.rounds_for(10 * reference.SECONDS_PER_ROUND) == 10
    speed = reference.Speedometer()
    speed.sample(3)
    assert speed.rounds == 3
    assert speed.scale() == pytest.approx(reference.NOMINAL_S * 3 / speed.seconds)


def test_lp_certificate_rejects_value_off_by_a_seventh(api):
    op = next(LpDegenerate().stream(api, 5))
    outcome = api.simplex.solve(op.lp, entering="dantzig", leaving="grossone")
    args = (op.lp.a, op.lp.b, op.lp.c, outcome.x, outcome.value, outcome.final_basis.indices)
    assert checks.check_lp_optimal(*args) is None
    wrong = args[:4] + (outcome.value + Fraction(1, 7),) + args[5:]
    assert "differs from the returned value" in checks.check_lp_optimal(*wrong)


def test_kkt_check_rejects_dropped_multiplier():
    problem = checks.ladder_nlp([2, 6], {0: Fraction(9, 10)})
    # The bound binds at x = (9/10, 1/10): 6/10 + pi = 0 and 18/10 - mu + pi = 0.
    x0, mu, pi = [Fraction(9, 10), Fraction(1, 10)], [Fraction(6, 5)], [Fraction(-3, 5)]
    assert checks.check_kkt(problem, x0, mu, pi) is None
    assert "lengths" in checks.check_kkt(problem, x0, [], pi)
    assert "stationarity" in checks.check_kkt(problem, x0, [Fraction(0)], pi)


def test_quotient_check_uses_the_residual_bound(api):
    a = {1: Fraction(1)}
    b = {0: Fraction(1), 1: Fraction(4)}
    quotient = api.arith.GrossNumber([(1, 1)]).divide(api.arith.GrossNumber([(0, 1), (1, 4)]))
    series = checks.read_series(str(quotient))
    assert checks.check_quotient(a, b, series, 8) is None
    last = min(series)
    assert checks.check_quotient(a, b, {p: d for p, d in series.items() if p != last}, 8) is not None
    assert checks.check_quotient(a, b, series, 9) is not None


def test_read_series():
    assert checks.read_series("3/2G - 1/4 + 1/8G^-1 - G^-3") == {
        1: Fraction(3, 2), 0: Fraction(-1, 4), -1: Fraction(1, 8), -3: Fraction(-1),
    }
    assert checks.read_series("-2G^3") == {3: Fraction(-2)}
    assert checks.read_series("0") == {}
    with pytest.raises(ValueError):
        checks.read_series("1 + 2G")


def test_outermost_guard_counts_recursive_eval_gross_once(api):
    expr = api.polyexpr.parse_expr("(x1 + 2)*(x1 - 1)^2 + x1", 1)
    original = api.polyexpr.eval_gross
    tracer = Tracer()
    tracer.install(api)
    try:
        value = api.polyexpr.eval_gross(expr, [api.arith.GROSSONE])
    finally:
        tracer.uninstall()
    assert api.polyexpr.eval_gross is original
    assert value == original(expr, [api.arith.GROSSONE])
    assert tracer.metrics()["polyexpr.eval_gross.calls"] == 1
    assert [s[0] for s in tracer.spans].count("polyexpr.eval_gross") == 1


def test_traced_run_repeats_its_counts(tmp_path):
    class ShortCli(CliSmall):
        trace_ops = 40

    outcome = run.traced_run(ShortCli(), ROOT, 3, str(tmp_path / "spans.jsonl"))
    assert outcome["failures"] == []
    metrics = outcome["metrics"]
    assert metrics["cli.main.calls"]["value"] == 40
    assert metrics["simplex.pivots"]["value"] > metrics["simplex.pivots_phase1"]["value"] > 0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {s["op"] for s in spans} == set(range(40))


def test_bypass_predictions(tmp_path):
    class OneLp(LpDegenerate):
        trace_ops = 1

    class OneNlp(NlpLadder):
        trace_ops = 1

    lp = run.traced_run(OneLp(), ROOT, 3, str(tmp_path / "lp.jsonl"))["metrics"]
    nlp = run.traced_run(OneNlp(), ROOT, 3, str(tmp_path / "nlp.jsonl"))["metrics"]
    assert lp["arith.divide.calls"]["value"] == 0
    assert lp["linalg.solve_rational_columns.calls"]["value"] > 0
    assert nlp["linalg.solve_rational_columns.calls"]["value"] == 0
    assert nlp["arith.divide.multiterm_calls"]["value"] > 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: unit for name, unit, _ in METRICS}
    expected.update({"trace.ops_per_s": "ops/s",
                     "trace.untraced_ops_per_s": "ops/s", "trace.overhead_ratio": "ratio"})
    assert per_layer == expected


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cli-small", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
