import io
import time

import pytest

from grossone.cli import main

from helpers import DATA_DIR, INSTANCE_DIR

BEALE = str(INSTANCE_DIR / "beale.lp")
QUADRATIC = str(INSTANCE_DIR / "quadratic_equality.nlp")
BOUND = str(INSTANCE_DIR / "linear_bound.nlp")


def run(args):
    buffer = io.StringIO()
    code = main(args, out=buffer)
    return code, buffer.getvalue()


class TestGrossEval:
    def test_cancellation(self):
        assert run(["gross", "eval", "G - G"]) == (0, "0\n")

    def test_inverse(self):
        assert run(["gross", "eval", "G^-1 * G"]) == (0, "1\n")

    def test_series_expansion(self):
        code, out = run(["gross", "eval", "G / (1 + 4*G)"])
        assert code == 0
        assert out.startswith("1/4 - 1/16G^-1 + 1/64G^-2")

    def test_truncation_flag(self):
        code, out = run(["gross", "eval", "G / (1 + 4*G)", "--trunc", "3"])
        assert code == 0
        assert out == "1/4 - 1/16G^-1 + 1/64G^-2\n"

    def test_precedence_and_powers(self):
        assert run(["gross", "eval", "(1 + G)^2 - G^2 - 2*G"]) == (0, "1\n")
        # '--' keeps argparse from reading a leading minus as a flag.
        assert run(["gross", "eval", "--", "-3/4"]) == (0, "-3/4\n")

    def test_parse_error_exit(self):
        code, _ = run(["gross", "eval", "G +"])
        assert code == 65

    def test_division_by_zero_exit(self):
        code, _ = run(["gross", "eval", "1 / (G - G)"])
        assert code == 65

    def test_huge_negative_exponent_is_fast(self):
        start = time.perf_counter()
        assert run(["gross", "eval", "G^-99999999"]) == (0, "G^-99999999\n")
        assert time.perf_counter() - start < 5

    def test_arith_flag_is_a_usage_error(self):
        code, out = run(["gross", "eval", "G / (1 + 4*G)", "--arith", "rational"])
        assert (code, out) == (64, "")


class TestLpSolve:
    def test_plain_rule_cycles(self):
        code, out = run(["lp", "solve", BEALE, "--leaving", "plain", "--max-iter", "50"])
        assert code == 3
        assert "status: cycle_detected" in out

    def test_grossone_rule_optimal(self):
        code, out = run(["lp", "solve", BEALE, "--leaving", "grossone"])
        assert code == 0
        assert "status: optimal" in out
        assert "value = -1/20" in out
        assert "x = (1/25, 0, 1, 0, 3/100, 0, 0)" in out

    def test_trace_matches_golden_file(self):
        code, out = run(["lp", "solve", BEALE, "--trace"])
        assert code == 0
        golden = (DATA_DIR / "beale_grossone_dantzig.trace").read_text()
        assert out.startswith(golden)

    @pytest.mark.parametrize(
        "name, flags, exit_code",
        [
            ("beale_grossone", [], 0),
            ("beale_lexicographic", ["--leaving", "lexicographic"], 0),
            ("beale_plain", ["--leaving", "plain", "--max-iter", "50"], 3),
            ("beale_bland", ["--entering", "bland"], 0),
        ],
    )
    def test_full_report_matches_golden_file(self, name, flags, exit_code):
        code, out = run(["lp", "solve", BEALE, "--trace"] + flags)
        assert code == exit_code
        assert out.encode() == (DATA_DIR / f"{name}.out").read_bytes()

    def test_malformed_file_exit(self, tmp_path):
        path = tmp_path / "bad.lp"
        path.write_text("1 2\nc: 1\nA: 1 1\nb: 1\n")
        code, _ = run(["lp", "solve", str(path)])
        assert code == 65

    @pytest.mark.parametrize(
        "text",
        ["3 2\nc: 1 1\nA: 1 0\nA: 0 1\nA: 1 1\nb: 1 1 2\n", "0 2\nc: 1 1\nb:\n"],
        ids=["more-rows-than-columns", "no-rows"],
    )
    def test_shape_error_exit(self, tmp_path, capsys, text):
        path = tmp_path / "shape.lp"
        path.write_text(text)
        code, out = run(["lp", "solve", str(path)])
        assert (code, out) == (65, "")
        err = capsys.readouterr().err
        assert err.startswith("parse error: line 1: ") and err.count("\n") == 1

    def test_missing_file_exit(self, tmp_path):
        code, _ = run(["lp", "solve", str(tmp_path / "nope.lp")])
        assert code == 65

    def test_usage_error_exit(self):
        code, _ = run(["lp", "solve", BEALE, "--leaving", "nonsense"])
        assert code == 64

    def test_infeasible_exit(self, tmp_path):
        path = tmp_path / "infeasible.lp"
        path.write_text("2 2\nc: 0 0\nA: 1 0\nA: 1 0\nb: -1 2\n")
        code, out = run(["lp", "solve", str(path)])
        assert code == 1
        assert "status: infeasible" in out

    def test_unbounded_exit(self, tmp_path):
        path = tmp_path / "unbounded.lp"
        path.write_text("1 2\nc: -1 0\nA: 1 -1\nb: 0\n")
        code, out = run(["lp", "solve", str(path)])
        assert code == 2
        assert "status: unbounded" in out

    def test_iteration_limit_exit(self):
        code, out = run(["lp", "solve", BEALE, "--leaving", "plain", "--max-iter", "2"])
        assert code == 4
        assert "status: iteration_limit" in out


class TestLpCompare:
    def test_beale_identical(self):
        code, out = run(["lp", "compare", BEALE])
        assert code == 0
        assert out == "IDENTICAL (2 pivots)\n"

    @pytest.mark.parametrize("entering", ["dantzig", "bland", "fixed"])
    def test_beale_identical_all_entering_rules(self, entering):
        code, out = run(["lp", "compare", BEALE, "--entering", entering])
        assert code == 0
        assert "IDENTICAL" in out

    def test_random_instances(self):
        for seed in range(5):
            code, out = run(["lp", "compare", "random:4x8", "--seed", str(seed)])
            assert code == 0
            assert "IDENTICAL" in out

    @pytest.mark.parametrize("size", ["4x8", "6x12", "8x16"])
    def test_random_report_matches_golden_file(self, size):
        code, out = run(["lp", "compare", f"random:{size}", "--seed", "1"])
        assert code == 0
        assert out.encode() == (DATA_DIR / f"compare_random_{size}_seed1.out").read_bytes()

    def test_random_requires_seed(self):
        code, _ = run(["lp", "compare", "random:4x8"])
        assert code == 64

    def test_random_rejects_bad_sizes(self):
        code, _ = run(["lp", "compare", "random:4x2", "--seed", "1"])
        assert code == 64


class TestNlpPenalty:
    @pytest.mark.parametrize("name", ["quadratic_equality", "linear_bound"])
    def test_report_matches_golden_file(self, name):
        code, out = run(["nlp", "penalty", str(INSTANCE_DIR / f"{name}.nlp")])
        assert code == 0
        assert out == (DATA_DIR / f"{name}.out").read_text()

    def test_huge_monomial_exponent_is_fast(self, tmp_path):
        path = tmp_path / "huge.nlp"
        path.write_text("n 1\nf: x1^99999999\n")
        start = time.perf_counter()
        code, out = run(["nlp", "penalty", str(path)])
        assert code == 0
        assert "x0 = (0)" in out and "KKT VERIFIED" in out
        assert time.perf_counter() - start < 5

    def test_equality_example(self):
        code, out = run(["nlp", "penalty", QUADRATIC])
        assert code == 0
        assert "x1 = 1/4 - 1/16G^-1 + 1/64G^-2" in out
        assert "x2 = 3/4 - 3/16G^-1 + 3/64G^-2" in out
        assert "x0 = (1/4, 3/4)" in out
        assert "pi = (-1/4)" in out
        assert "MLICQ: holds (rank 1 of 1)" in out
        assert "KKT VERIFIED" in out

    def test_bound_example(self):
        code, out = run(["nlp", "penalty", BOUND])
        assert code == 0
        assert "x1 = 1 - G^-1" in out
        assert "x0 = (1)" in out
        assert "mu = (1)" in out
        assert "KKT VERIFIED" in out

    def test_duplicated_equality_reports_cq_failure(self, tmp_path):
        path = tmp_path / "duplicated.nlp"
        path.write_text(
            "n 2\nf: 1/2*x1^2 + 1/6*x2^2\nh: x1 + x2 - 1\nh: x1 + x2 - 1\n"
        )
        code, out = run(["nlp", "penalty", str(path)])
        # Valid multipliers still exist, so verification passes while the
        # qualification check reports the dependency.
        assert code == 0
        assert "MLICQ: FAILS (rank 1 of 2)" in out
        assert "KKT VERIFIED" in out

    def test_inconsistent_equalities_not_verified(self, tmp_path):
        path = tmp_path / "inconsistent.nlp"
        path.write_text("n 1\nf: 0\nh: x1\nh: x1 - 1\n")
        code, out = run(["nlp", "penalty", str(path)])
        assert code == 6
        assert "KKT NOT VERIFIED" in out

    def test_divergence_exit(self, tmp_path, capsys):
        path = tmp_path / "quartic.nlp"
        path.write_text("n 1\nf: 1 + x1^4 - x1\n")
        code, out = run(["nlp", "penalty", str(path), "--max-iter", "3"])
        assert (code, out) == (5, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_singular_newton_system_exit(self, tmp_path, capsys):
        path = tmp_path / "linear.nlp"
        path.write_text("n 1\nf: x1\n")
        code, out = run(["nlp", "penalty", str(path)])
        assert (code, out) == (5, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_parse_error_exit(self, tmp_path):
        path = tmp_path / "bad.nlp"
        path.write_text("n 1\nf: x2\n")
        code, _ = run(["nlp", "penalty", str(path)])
        assert code == 65

    def test_zero_dimension_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "empty.nlp"
        path.write_text("n 0\nf: 1\n")
        code, out = run(["nlp", "penalty", str(path)])
        assert (code, out) == (65, "")
        assert capsys.readouterr().err == "parse error: line 1: dimension must be at least 1\n"


class TestUsage:
    def test_unknown_subcommand(self):
        code, _ = run(["lp", "frobnicate"])
        assert code == 64

    def test_missing_argument(self):
        code, _ = run(["lp", "solve"])
        assert code == 64

    def test_bad_trunc(self):
        code, _ = run(["gross", "eval", "G", "--trunc", "0"])
        assert code == 64

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize(
        "command",
        [["lp", "solve", BEALE], ["lp", "compare", BEALE], ["nlp", "penalty", QUADRATIC]],
        ids=["lp-solve", "lp-compare", "nlp-penalty"],
    )
    def test_max_iter_below_one_is_a_usage_error(self, capsys, command, value):
        code, out = run(command + ["--max-iter", value])
        assert (code, out) == (64, "")
        assert capsys.readouterr().err == "usage error: --max-iter must be at least 1\n"


class TestDeterminism:
    def test_identical_runs_produce_identical_bytes(self):
        first = run(["nlp", "penalty", QUADRATIC])
        second = run(["nlp", "penalty", QUADRATIC])
        assert first == second
        third = run(["lp", "solve", BEALE, "--trace"])
        fourth = run(["lp", "solve", BEALE, "--trace"])
        assert third == fourth
