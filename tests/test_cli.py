import io
import sys
import time

import pytest

from grossone import simplex
from grossone.cli import main

from helpers import DATA_DIR, INSTANCE_DIR, nested

BEALE = str(INSTANCE_DIR / "beale.lp")
QUADRATIC = str(INSTANCE_DIR / "quadratic_equality.nlp")
BOUND = str(INSTANCE_DIR / "linear_bound.nlp")

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * 5001
OVER_LIMIT = f"integer of 5001 digits is over the {DIGIT_LIMIT}-digit limit"
needs_digit_limit = pytest.mark.skipif(
    not 0 < DIGIT_LIMIT < 5001, reason="no int/str digit limit below 5001 digits"
)


def run(args):
    buffer = io.StringIO()
    code = main(args, out=buffer)
    return code, buffer.getvalue()


NESTING_ERROR = "parentheses nested deeper than 100 levels at position 100: '(((((((((((('"


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

    def test_deep_truncation_matches_golden_file(self):
        expression = "(7/3 + G^-2) / (3/7 + 2*G^-1 + 5*G^-3)"
        code, out = run(["gross", "eval", expression, "--trunc", "200"])
        assert code == 0
        assert out.encode() == (DATA_DIR / "gross_eval_deep_trunc200.out").read_bytes()

    def test_arith_flag_is_a_usage_error(self):
        code, out = run(["gross", "eval", "G / (1 + 4*G)", "--arith", "rational"])
        assert (code, out) == (64, "")

    def test_deep_nesting_is_a_parse_error(self, capsys):
        # 246 levels once overflowed the interpreter's recursion limit.
        assert run(["gross", "eval", nested(246, "G")]) == (65, "")
        assert capsys.readouterr().err == f"parse error: {NESTING_ERROR}\n"

    @pytest.mark.parametrize(
        "expression, position",
        [("(1+G)^500", 5), ("(1+G)^-500", 5), ("(1 + G^500) ^ 1", 12)],
    )
    def test_power_over_the_term_limit_is_a_parse_error(self, capsys, expression, position):
        # |e| * span + 1 = 501 levels for each.
        assert run(["gross", "eval", expression]) == (65, "")
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: power with more than 500 terms at position {position}: '^")
        assert err.count("\n") == 1

    def test_power_at_the_term_limit_is_accepted(self):
        assert run(["gross", "eval", "(1 + G^499)^1 - G^499"]) == (0, "1\n")


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

    def test_random_trace_matches_golden_file(self):
        code, out = run(["lp", "solve", "random:8x16", "--seed", "1", "--trace"])
        assert code == 0
        assert out.encode() == (DATA_DIR / "random_8x16_seed1_trace.out").read_bytes()

    def test_larger_random_trace_matches_golden_file(self):
        """24x48 reaches perturbation levels far below G^-8."""
        code, out = run(["lp", "solve", "random:24x48", "--seed", "7", "--trace"])
        assert code == 0
        assert out.encode() == (DATA_DIR / "random_24x48_seed7_trace.out").read_bytes()

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

    @pytest.mark.parametrize(
        "size", ["1x" + "9" * 4000, "1x100000000", "1000x100000"], ids=["4000-digits", "1e8", "1e3x1e5"]
    )
    def test_random_size_over_entry_limit_is_a_usage_error(self, capsys, size):
        start = time.perf_counter()
        assert run(["lp", "solve", f"random:{size}", "--seed", "1"]) == (64, "")
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert time.perf_counter() - start < 5
        if not 0 < DIGIT_LIMIT < len(size):  # past the digit limit the message names it
            assert err == "usage error: random:<m>x<n> needs m*n at most 1000000\n"


class TestLpSolverFailures:
    """Broken simplex invariants exit 5 with one line naming the phase or
    rule; each is forced by patching the step that guarantees it."""

    def assert_failure(self, capsys, args, message):
        code, out = run(args)
        assert (code, out) == (5, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_grossone_ratio_tie_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(simplex, "_ratio_order", lambda *a: 0)
        self.assert_failure(
            capsys, ["lp", "solve", BEALE], "grossone ratio test: perturbed ratios tie"
        )

    def test_lexicographic_ratio_tie_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(simplex, "_argmin_rows", lambda rows, values: list(rows))
        self.assert_failure(
            capsys,
            ["lp", "solve", BEALE, "--leaving", "lexicographic"],
            "lexicographic ratio test: tie-break exhausted",
        )

    def test_phase_one_short_of_optimum_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(simplex.phase1, "__defaults__", (1,))
        self.assert_failure(
            capsys,
            ["lp", "solve", "random:4x8", "--seed", "1"],
            "phase one: auxiliary solve ended with status iteration_limit",
        )


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

    def test_divergent_leaving_row(self, monkeypatch):
        # At Beale's first pivot (x1 enters) rows 0 and 1 both have a
        # positive direction entry; the rule picks row 1 (x6 leaves).  The
        # patched oracle picks row 0 (x5) there and agrees afterwards.
        original = simplex.ratio_test_lexicographic
        calls = []

        def first_call_takes_row_0(*args):
            calls.append(args)
            return 0 if len(calls) == 1 else original(*args)

        monkeypatch.setattr(simplex, "ratio_test_lexicographic", first_call_takes_row_0)
        assert run(["lp", "compare", BEALE]) == (
            1, "DIVERGENT at iter=1: grossone enter=1 leave=6 vs lexicographic enter=1 leave=5\n"
        )

    def test_divergent_outcome(self, monkeypatch):
        monkeypatch.setattr(simplex, "ratio_test_lexicographic", lambda *args: None)
        assert run(["lp", "compare", BEALE]) == (
            1,
            "DIVERGENT outcome: grossone optimal after 2 pivots vs "
            "lexicographic unbounded after 0 pivots\n",
        )


class TestNlpPenalty:
    @pytest.mark.parametrize("name", ["quadratic_equality", "linear_bound"])
    def test_report_matches_golden_file(self, name):
        code, out = run(["nlp", "penalty", str(INSTANCE_DIR / f"{name}.nlp")])
        assert code == 0
        assert out == (DATA_DIR / f"{name}.out").read_text()

    @pytest.mark.parametrize("trunc", ["1", "2", "3"])
    def test_low_truncation_reports_exact_digits(self, trunc):
        # The report prints x1 = G/(1 + 4G) down to G^-2; a low truncation
        # order K must not change those digits.
        code, out = run(["nlp", "penalty", QUADRATIC, "--trunc", trunc])
        assert code == 0
        assert out == (DATA_DIR / "quadratic_equality.out").read_text()

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
        assert err == "error: Newton step 1: singular Jacobian (no nonzero pivot in column 0)\n"

    def test_newton_divergence_message(self, tmp_path, capsys):
        # The Hessian 12 x1^2 + 2 is regular everywhere, so every step is
        # taken and the step budget runs out.
        path = tmp_path / "quartic.nlp"
        path.write_text("n 1\nf: x1^4 + x1^2 - x1\n")
        code, out = run(["nlp", "penalty", str(path), "--max-iter", "3"])
        assert (code, out) == (5, "")
        assert capsys.readouterr().err == "error: no stationary point within 3 Newton steps\n"

    def test_parse_error_exit(self, tmp_path):
        path = tmp_path / "bad.nlp"
        path.write_text("n 1\nf: x2\n")
        code, _ = run(["nlp", "penalty", str(path)])
        assert code == 65

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        # 247 levels once overflowed the interpreter's recursion limit.
        path = tmp_path / "deep.nlp"
        path.write_text(f"n 1\nf: {nested(247, 'x1')}\n")
        assert run(["nlp", "penalty", str(path)]) == (65, "")
        assert capsys.readouterr().err == f"parse error: line 2: {NESTING_ERROR}\n"

    @needs_digit_limit
    def test_unprintable_infeasible_value_exit(self, tmp_path, capsys):
        path = tmp_path / "huge.nlp"
        path.write_text("n 1\nf: x1^2\ng: 10^5000\n")
        assert run(["nlp", "penalty", str(path)]) == (5, "")
        assert capsys.readouterr().err == (
            "error: inequality 0 is positive at order zero (value too long to print); "
            "not a feasible stationary point\n"
        )

    def test_negative_lifted_multiplier_is_clipped_to_zero(self, tmp_path):
        # G*g(x*) = -1 at order zero: the inequality multiplier is
        # max{0, -1} = 0, not |-1|.
        path = tmp_path / "negative.nlp"
        path.write_text("n 1\nf: x1\ng: x1 - 1\nh: x1 - 1\n")
        code, out = run(["nlp", "penalty", str(path)])
        assert code == 0
        assert out.splitlines()[:4] == [
            "stationary point:", "  x1 = 1 - G^-1", "x0 = (1)", "mu = (0)",
        ]
        assert "pi = (-1)\n" in out and out.endswith("KKT VERIFIED\n")

    def test_power_over_the_term_limit_is_a_parse_error(self, tmp_path, capsys):
        # C(31 + 2, 2) = 528 monomials; (1+x1+x2)^30 has 496.
        path = tmp_path / "power.nlp"
        path.write_text("n 2\nf: (1+x1+x2)^31\n")
        assert run(["nlp", "penalty", str(path)]) == (65, "")
        assert capsys.readouterr().err == (
            "parse error: line 2: power with more than 500 terms at position 9: '^31'\n"
        )

    def test_dimension_over_the_limit_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "wide.nlp"
        path.write_text("n 401\nf: x1\n")
        assert run(["nlp", "penalty", str(path)]) == (65, "")
        assert capsys.readouterr().err == "parse error: line 1: n must be at most 400\n"

    def test_zero_dimension_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "empty.nlp"
        path.write_text("n 0\nf: 1\n")
        code, out = run(["nlp", "penalty", str(path)])
        assert (code, out) == (65, "")
        assert capsys.readouterr().err == "parse error: line 1: dimension must be at least 1\n"


class TestUnreadableInput:
    """An input that cannot be read as UTF-8 text is a parse error: exit 65
    and one line on stderr."""

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    @pytest.mark.parametrize(
        "command",
        [["lp", "solve"], ["lp", "compare"], ["nlp", "penalty"]],
        ids=["lp-solve", "lp-compare", "nlp-penalty"],
    )
    def test_parse_error_exit(self, tmp_path, capsys, command, kind):
        if kind == "directory":
            path = tmp_path
        else:
            path = tmp_path / "utf16.txt"
            path.write_bytes(b"\xff\xfe" + "n 1\nf: x1\n".encode("utf-16-le"))
        code, out = run(command + [str(path)])
        assert (code, out) == (65, "")
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestIntegerLiterals:
    """A literal past Python's int/str digit limit is a parse error naming
    its line or position (exit 65), a random: size past it a usage error
    (exit 64), and a result holding an integer too long to print exits 5;
    each prints one line on stderr and nothing on stdout."""

    @needs_digit_limit
    @pytest.mark.parametrize(
        "expression, position", [(LONG, 0), (f"2^{LONG}", 2)], ids=["literal", "exponent"]
    )
    def test_gross_eval_literal(self, capsys, expression, position):
        assert run(["gross", "eval", expression]) == (65, "")
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {OVER_LIMIT} at position {position}: ")
        assert err.count("\n") == 1

    @needs_digit_limit
    @pytest.mark.parametrize(
        "command, text, line",
        [
            (["lp", "solve"], f"{LONG} 8\nc: 1\n", 1),
            (["lp", "solve"], f"1 1\nc: {LONG}\nA: 1\nb: 1\n", 2),
            (["nlp", "penalty"], f"n {LONG}\nf: 1\n", 1),
        ],
        ids=["lp-header", "lp-entry", "nlp-dimension"],
    )
    def test_file_literal(self, tmp_path, capsys, command, text, line):
        path = tmp_path / "long.txt"
        path.write_text(text)
        assert run(command + [str(path)]) == (65, "")
        assert capsys.readouterr().err == f"parse error: line {line}: {OVER_LIMIT}\n"

    @needs_digit_limit
    def test_random_size(self, capsys):
        assert run(["lp", "solve", f"random:{LONG}x8", "--seed", "1"]) == (64, "")
        assert capsys.readouterr().err == f"usage error: {OVER_LIMIT}\n"

    @needs_digit_limit
    @pytest.mark.parametrize(
        "command, text",
        [
            (["gross", "eval", "2^20000"], None),
            (["nlp", "penalty"], "n 1\nf: 123456789123456789^600*x1^2 - x1\n"),
        ],
        ids=["gross-eval", "nlp-penalty"],
    )
    def test_unprintable_result(self, tmp_path, capsys, command, text):
        if text is not None:
            path = tmp_path / "huge.nlp"
            path.write_text(text)
            command = command + [str(path)]
        assert run(command) == (5, "")
        err = capsys.readouterr().err
        assert err.startswith("error: result too long to print: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, text",
        [(["gross", "eval", "2\u00b2"], None), (["lp", "solve"], "1 \u00b2\n"), (["nlp", "penalty"], "n \u00b2\n")],
        ids=["gross-eval", "lp-header", "nlp-dimension"],
    )
    def test_non_decimal_digit_is_a_parse_error(self, tmp_path, capsys, command, text):
        # A superscript two passes str.isdigit but not int().
        if text is not None:
            path = tmp_path / "superscript.txt"
            path.write_text(text, encoding="utf-8")
            command = command + [str(path)]
        assert run(command) == (65, "")
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and err.count("\n") == 1


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

    @pytest.mark.parametrize("value", ["1001", "100000000"])
    @pytest.mark.parametrize(
        "command",
        [["gross", "eval", "1/(1+G^-1)"], ["nlp", "penalty", QUADRATIC]],
        ids=["gross-eval", "nlp-penalty"],
    )
    def test_trunc_above_limit_is_a_usage_error(self, capsys, command, value):
        code, out = run(command + ["--trunc", value])
        assert (code, out) == (64, "")
        assert capsys.readouterr().err == "usage error: --trunc must be at most 1000\n"

    @pytest.mark.parametrize(
        "command",
        [["gross", "eval", "(7/3 + G^-2) / (3/7 + 2*G^-1 + 5*G^-3)"], ["nlp", "penalty", QUADRATIC]],
        ids=["gross-eval", "nlp-penalty"],
    )
    def test_trunc_at_limit_is_accepted_and_fast(self, command):
        start = time.perf_counter()
        code, _ = run(command + ["--trunc", "1000"])
        assert code == 0
        assert time.perf_counter() - start < 5

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


class TestHelp:
    def test_help_is_plain_text(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: grossone") and "65 parse error" in out
        assert "``" not in out


class TestDeterminism:
    def test_identical_runs_produce_identical_bytes(self):
        first = run(["nlp", "penalty", QUADRATIC])
        second = run(["nlp", "penalty", QUADRATIC])
        assert first == second
        third = run(["lp", "solve", BEALE, "--trace"])
        fourth = run(["lp", "solve", BEALE, "--trace"])
        assert third == fourth
