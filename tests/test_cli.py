"""Command-line interface: subcommand behavior, exit codes, file round
trips, and byte-level determinism of the JSON outputs."""

import json
import signal

import mpmath
import pytest

from thetaquot.catalog import catalog_ids
from thetaquot.cli import main, parse_rational, UsageError
from thetaquot.mining import MinedRelation
from thetaquot.series import PuiseuxSeries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseRational:
    def test_forms(self):
        from fractions import Fraction as F

        assert parse_rational("3/2") == F(3, 2)
        assert parse_rational("0.3") == F(3, 10)
        assert parse_rational("2") == 2

    def test_bad_input(self):
        with pytest.raises(UsageError):
            parse_rational("x/y")


class TestEval:
    def test_singular_modulus_at_one(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "k", "--r", "1", "--digits", "50")
        assert code == 0
        assert out.startswith("0.70710678118654752440")

    def test_elliptic_integral(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "K", "--x", "0", "--digits", "30")
        assert code == 0
        assert out.startswith("1.5707963267948966")

    def test_quotient_with_a_tiny_a(self, capsys):
        # the 140-digit value rounded to 60 digits: q^delta's exponent has a
        # 204-bit denominator, and the theta sum, at b/a = 1 - 5e-31, sits 30
        # digits below its largest term
        code, out, _ = run(
            capsys, "eval", "--fn", "A", "--a", "1e-30", "--p", "4", "--q", "0.5",
            "--digits", "60",
        )
        assert code == 0
        assert out == "4.79511349799342204523412527659626027246599785323328483038247e-31\n"

    def test_inverse_modulus_of_tiny_x(self, capsys):
        # the 200-digit AGM value (agm(1, x')/agm(1, x))^2 at x = 10^-40,
        # rounded to 60 digits
        code, out, _ = run(
            capsys, "eval", "--fn", "ki", "--x", f"1/{10 ** 40}", "--digits", "60"
        )
        assert code == 0
        assert out == "3542.31974942772970490065011995929699063526676943580280639336\n"

    @pytest.mark.parametrize(
        "fn, want",
        [
            ("ki", "8600289.02650043944178393680926672903941681733082334731851911\n"),
            ("K", "1.57079632679489661923132169163975144209858469968755291048747\n"),
        ],
    )
    def test_modulus_far_below_the_working_precision(self, capsys, fn, want):
        # x = 10^-2000 lies 6644 bits below 1, so the AGM's fixed point must
        # widen by that spread; the bytes are those of the mpmath-float AGM
        code, out, _ = run(
            capsys, "eval", "--fn", fn, "--x", "1e-2000", "--digits", "60"
        )
        assert code == 0
        assert out == want

    @pytest.mark.parametrize("b", ["1e-30", "1e-400"])
    def test_theta_on_a_fine_grid_keeps_every_digit(self, capsys, b):
        # the walk runs on powers near d = 10^30 or 10^400 of q^(1/d); the
        # value at 60 digits is the value at 2 * 60 + 20 digits, rounded
        argv = ["eval", "--fn", "theta", "--a", "1", "--b", b, "--q", "0.5"]
        code, out, _ = run(capsys, *argv, "--digits", "60")
        _, wide, _ = run(capsys, *argv, "--digits", "140")
        assert code == 0
        with mpmath.workdps(200):
            assert out == mpmath.nstr(mpmath.mpf(wide), 60) + "\n"
        assert out == "0.121124208002580502460849293181867505809858246820960597233901\n"

    def test_quotient_value(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "A", "--a", "1", "--p", "4", "--r", "1",
            "--digits", "40",
        )
        assert code == 0
        assert out.startswith("1.0905077326652576")

    @pytest.mark.parametrize("a, p", [("0", "4"), ("1", "1"), ("8", "4")])
    def test_quotient_vanishing_when_p_divides_a(self, capsys, a, p):
        # the product form has the factor 1 - q^0, so A is identically zero
        # (as `series --fn A` shows), not the rounding noise of its theta sum
        code, out, _ = run(
            capsys, "eval", "--fn", "A", "--a", a, "--p", p, "--r", "1"
        )
        assert code == 0
        assert out == "0.0\n"
        code, out, _ = run(
            capsys, "series", "--fn", "A", "--a", a, "--p", p, "--order", "5"
        )
        assert out.startswith("0 + O(q^")

    @pytest.mark.parametrize("a, b", [("1", "1"), ("2", "6"), ("1/2", "3/2")])
    def test_theta_vanishing_when_b_over_a_is_odd(self, capsys, a, b):
        # n and -b/a - n carry the same power of q at opposite signs, so the
        # sum is identically zero (as `series --fn theta` shows)
        code, out, _ = run(
            capsys, "eval", "--fn", "theta", "--a", a, "--b", b, "--r", "1"
        )
        assert code == 0
        assert out == "0.0\n"
        code, out, _ = run(
            capsys, "series", "--fn", "theta", "--a", a, "--b", b, "--order", "10"
        )
        assert out.startswith("0 + O(q^")

    def test_sn(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "Sn", "--n", "2", "--x", "0.3", "--digits", "40"
        )
        assert code == 0
        assert out.startswith("0.0235733")

    @pytest.mark.parametrize("x", ["5/4", "0"])
    def test_sn_outside_the_unit_interval_is_usage_error(self, capsys, x):
        # the message names S_n's argument, not the inverse modulus it calls
        code, out, err = run(capsys, "eval", "--fn", "Sn", "--n", "2", "--x", x)
        assert code == 2
        assert out == ""
        assert err == "error: S_n(x) needs 0 < x < 1\n"

    def test_missing_argument_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "k", "--digits", "40")
        assert code == 2
        assert "needs --r" in err

    def test_low_precision_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "k", "--r", "1", "--digits", "5")
        assert code == 2

    @pytest.mark.parametrize("r", ["1/10000", "1/100000", "1/1000000"])
    def test_modulus_rounding_to_one_is_usage_error(self, capsys, r):
        # near q -> 1 the theta quotient k rounds to 1 at 60 digits, so
        # k' = sqrt(1 - k^2) has no real value
        code, out, err = run(capsys, "eval", "--fn", "k", "--r", r)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: singular modulus k_r rounds to 1 at r={r} with 60 digits\n"
        )

    @pytest.mark.parametrize("r", ["1/1000", "1/3000"])
    def test_failed_modulus_certification_is_usage_error(self, capsys, r):
        # k' = sqrt(1 - k^2) cancels as k -> 1, and agm(1, k') amplifies
        # that rounding past the certification tolerance
        code, out, err = run(capsys, "eval", "--fn", "k", "--r", r)
        assert code == 2
        assert out == ""
        assert err.startswith(
            f"error: singular modulus certification failed at r={r}: residual "
        )

    @pytest.mark.parametrize("r", ["300", "1000", "10000", "100000"])
    def test_large_r_modulus_certifies(self, capsys, r):
        # the certificate agm(1, k')/agm(1, k) uses k itself, so a tiny k
        # (7.5e-216 at r = 10^5) neither cancels in sqrt(1 - k'^2) nor
        # leaves a k' that rounds to 1
        code, out, err = run(capsys, "eval", "--fn", "k", "--r", r)
        assert code == 0 and err == ""
        with mpmath.mp.workdps(80):
            want = mpmath.kfrom(q=mpmath.exp(-mpmath.pi * mpmath.sqrt(int(r))))
            # 60 printed significant digits: within one unit of the last
            assert abs(mpmath.mpf(out) - want) <= mpmath.mpf(10) ** -59 * want

    def test_bad_nome_rejected(self, capsys):
        code, _, err = run(
            capsys, "eval", "--fn", "eta", "--q", "1.5", "--digits", "40"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "q, message",
        [
            ("inf", "--q must lie in (0, 1)"),
            ("nan", "--q must lie in (0, 1)"),
            ("1/0", "'1/0' has a zero denominator"),
        ],
    )
    def test_nome_that_is_no_real_number_is_usage_error(self, capsys, q, message):
        code, out, err = run(capsys, "eval", "--fn", "eta", "--q", q)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestSeries:
    def test_modulus_text(self, capsys):
        code, out, _ = run(capsys, "series", "--fn", "m", "--order", "5")
        assert code == 0
        assert "(16)*q^(1)" in out and "(-128)*q^(2)" in out

    def test_json_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "a14.json"
        code, _, _ = run(
            capsys, "series", "--fn", "A", "--a", "1", "--p", "4",
            "--order", "9", "--json", str(path),
        )
        assert code == 0
        from thetaquot.series import A_series, ThetaSpec

        loaded = PuiseuxSeries.from_json_obj(json.loads(path.read_text()))
        assert loaded == A_series(ThetaSpec(1, 4), 9)

    def test_scale_applied(self, capsys):
        code, out, _ = run(
            capsys, "series", "--fn", "m", "--order", "4", "--scale", "2"
        )
        assert code == 0
        assert "(16)*q^(2)" in out

    def test_theta_requires_parameters(self, capsys):
        code, _, err = run(capsys, "series", "--fn", "theta", "--order", "5")
        assert code == 2

    def test_unwritable_json_path_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "m.json"
        code, _, err = run(
            capsys, "series", "--fn", "m", "--order", "5", "--json", str(path)
        )
        assert code == 2
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err


class TestMine:
    def test_writes_schema_conformant_relation(self, capsys, tmp_path):
        path = tmp_path / "rel.json"
        code, out, _ = run(
            capsys, "mine", "--a", "1", "--p", "4", "--power", "12", "--v", "m",
            "--max-degree", "3", "--digits", "60",
            "--out", str(path),
        )
        assert code == 0
        assert "relation: 16 - 32*v + 16*v^2 - u^2*v" in out
        obj = json.loads(path.read_text())
        assert set(obj) == {
            "u", "v", "poly", "validated_grid_order", "numeric_checks"
        }
        rel = MinedRelation.from_json_obj(obj)
        assert rel.v_binding == "m"
        assert rel.u_binding.power == 12

    def test_order_is_not_an_option(self, capsys):
        # mine builds its series as far as its rows need
        code, out, err = run(
            capsys, "mine", "--a", "1", "--p", "4", "--power", "12", "--v", "m",
            "--max-degree", "3", "--order", "150",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage: ") and "unrecognized arguments: --order" in err
        assert main(["mine", "--help"]) == 0
        assert "--order" not in capsys.readouterr().out

    def test_no_relation_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "mine", "--a", "1", "--p", "4", "--power", "12", "--v", "m",
            "--max-degree", "1",
        )
        assert code == 2
        assert err.startswith("error: no certified integer relation of degree <= 1")

    def test_large_p_is_built_past_its_leading_exponent(self, capsys):
        # A(1, 60; q) leads at q^(541/120), so u is built that far past the
        # order its rows need, or u^2 is zero to its bound
        code, out, err = run(
            capsys, "mine", "--a", "1", "--p", "60", "--power", "2", "--v", "m",
            "--max-degree", "2",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: no certified integer relation of degree <= 2")

    @pytest.mark.parametrize("qscale", ["0", "-1"])
    def test_non_positive_qscale_is_usage_error(self, capsys, qscale):
        code, _, err = run(
            capsys, "mine", "--a", "1", "--p", "4", "--power", "12", "--v", "m",
            "--max-degree", "3", "--qscale", qscale,
        )
        assert code == 2
        assert err == "error: qscale must be positive\n"

    @pytest.mark.parametrize(
        "a,p,power,degree", [("4", "4", "12", "3"), ("1", "1/1000", "1", "1")]
    )
    def test_identically_zero_quotient_is_usage_error(self, capsys, a, p, power, degree):
        # A(4, 4; q) and A(1, 1/1000; q) are identically zero (a/p is an
        # integer), so every product of a relation in them vanishes
        code, out, err = run(
            capsys, "mine", "--a", a, "--p", p, "--power", power, "--v", "m",
            "--max-degree", degree,
        )
        assert code == 2
        assert out == ""
        assert err == "error: relation evaluates on identically zero products\n"

    def test_negative_power_of_identically_zero_quotient_is_usage_error(self, capsys):
        # 1/A(4, 4; q) does not exist: its theta factor is zero to its bound
        code, out, err = run(
            capsys, "mine", "--a", "4", "--p", "4", "--power", "-1", "--v", "m",
            "--max-degree", "1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: cannot invert a series that is zero to its bound\n"


class TookTooLong(Exception):
    """Not an error the CLI reports, so it ends the test as a failure."""


class TestRangeGuards:
    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--fn", "A", "--a", "1e-400", "--p", "4", "--order", "10"],
            ["series", "--fn", "A", "--a", "1", "--p", "1e-400", "--order", "10"],
            ["series", "--fn", "theta", "--a", "1e-400", "--b", "0", "--order", "10"],
            ["series", "--fn", "theta", "--a", "1", "--b", "1e400", "--order", "10"],
            ["series", "--fn", "eta", "--p", "1e-400", "--order", "10"],
            ["mine", "--a", "1e-400", "--p", "4", "--power", "12", "--v", "m",
             "--max-degree", "2"],
            ["mine", "--a", "1", "--p", "1e-400", "--power", "12", "--v", "m",
             "--max-degree", "2"],
            # 1/A(4e-348, 8e381) leads at q^(p/12): its theta factor is
            # 1 - q^(4e-348) + O(q), 2.5e347 steps of the recurrence
            ["mine", "--a", "4e-348", "--p", "8e381", "--power", "-1", "--v",
             "m_q2_squared", "--max-degree", "2"],
        ],
    )
    def test_a_series_past_the_limits_is_a_usage_error(self, capsys, argv):
        # a theta series with more than MAX_TERMS terms a side, an inversion
        # of more than MAX_TERMS terms, or a product past MAX_PRODUCT_BYTES,
        # is refused at once
        def stop(*args):
            raise TookTooLong(argv)

        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            code, out, err = run(capsys, *argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestVerify:
    def test_table4_passes_with_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--entry", "table4", "--digits", "60",
            "--order", "150", "--rs", "1,2",
        )
        assert code == 0
        assert "table4: pass" in out

    def test_unknown_entry_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--entry", "zzz", "--rs", "1")
        assert code == 2
        known = ", ".join(catalog_ids())
        assert err == f"error: unknown catalog entry 'zzz'; known ids: {known}\n"

    def test_flagged_entry_alone_exits_zero(self, capsys):
        # a documented discrepancy is not an unexpected failure
        code, out, _ = run(
            capsys, "verify", "--entry", "eq15_as_printed", "--rs", "1",
            "--digits", "40",
        )
        assert code == 0
        assert "eq15_as_printed: flagged" in out

    def test_large_terms_pass_on_a_relative_residual(self, capsys):
        # at r = 1000 eq27's terms are about 3e57 and its residual 7e-18, a
        # relative 2e-75, well inside the 60-digit tolerance
        code, out, _ = run(capsys, "verify", "--entry", "eq27", "--rs", "1000,10000")
        assert code == 0
        assert out == "eq27: pass\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--entry", "eq12_s0", "--rs", "300"),
            ("--entry", "eq12_s1", "--rs", "1000"),
            ("--entry", "thm2", "--rs", "1000"),
            ("--entry", "eq45", "--digits", "20"),
            ("--all", "--digits", "20"),
        ],
        ids=["eq12_s0-r300", "eq12_s1-r1000", "thm2-r1000", "eq45-d20", "all-d20"],
    )
    def test_one_pass_rule_holds_at_large_r_and_low_digits(self, capsys, argv):
        # k21 and 2 + k - 2 sqrt(1+k) are taken in forms that do not cancel
        # as r grows, and at 20 digits no tolerance is looser than 10^-10 of
        # the terms, so neither end fails a true identity or passes a false
        # convention
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert ": fail" not in out

    def test_report_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for p in (p1, p2):
            code, _, _ = run(
                capsys, "verify", "--entry", "eq13", "--digits", "40",
                "--rs", "1,2", "--report", str(p),
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_rs_parsing(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--entry", "eq13", "--rs", "1,1/2", "--digits", "40"
        )
        assert code == 0

    def test_failed_modulus_certification_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--entry", "eq13", "--rs", "1/1000")
        assert code == 2
        assert out == ""
        assert err.startswith(
            "error: singular modulus certification failed at r=1/1000: residual "
        )

    def test_bad_rs_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--entry", "eq13", "--rs", "-1")
        assert code == 2


class TestRecognizeCommand:
    def test_quotient_power_is_rational(self, capsys):
        code, out, _ = run(
            capsys, "recognize", "--a", "1", "--p", "4", "--power", "24",
            "--r", "1", "--digits", "80", "--max-degree", "4",
        )
        assert code == 0
        assert 'polynomial "x - 8"' in out

    def test_value_literal(self, capsys):
        code, out, _ = run(
            capsys, "recognize", "--value", "0.5", "--max-degree", "2",
            "--digits", "40",
        )
        assert code == 0
        assert 'polynomial "2*x - 1"' in out

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "+INF"])
    def test_non_finite_value_is_usage_error(self, capsys, value):
        code, out, err = run(
            capsys, "recognize", f"--value={value}", "--max-degree", "2",
            "--digits", "40",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --value must be a finite real number\n"

    def test_not_found_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "recognize", "--value", "3.14159265358979323846",
            "--max-degree", "2", "--digits", "20",
        )
        assert code == 1
        assert "NotFound" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("--value", "1e-40", "--max-degree", "2"),
            ("--value", "3e-37", "--max-degree", "1"),
            # the value is 5.5e-76
            ("--a", "1", "--p", "4", "--power", "-2000", "--r", "1", "--max-degree", "2"),
        ],
        ids=["1e-40", "3e-37", "A^-2000"],
    )
    def test_a_tiny_value_is_not_certified_as_x(self, capsys, argv):
        # |x| is below 10^(-0.6 d), but P(x) = x is not small against its
        # own term x
        code, out, _ = run(capsys, "recognize", *argv)
        assert code == 1
        assert "NotFound" in out

    @pytest.mark.parametrize("degree", ["1", "2"])
    def test_zero_is_x(self, capsys, degree):
        code, out, _ = run(capsys, "recognize", "--value", "0", "--max-degree", degree)
        assert code == 0
        assert 'polynomial "x"' in out


class TestNarrowedSurface:
    """Removed spellings and --digits outside [20, 5000] exit 2 with one
    error or usage message, no traceback and nothing on stdout."""

    @staticmethod
    def assert_usage_exit(code, out, err):
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        if lines[0].startswith("usage: "):
            assert lines[-1].startswith("thetaquot") and ": error: " in lines[-1]
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--all", "--jobs", "2"),
            (
                "recognize", "--expr", "A", "--a", "1", "--p", "4", "--power",
                "24", "--r", "1", "--max-degree", "4",
            ),
            ("mine", "--v", "k"),
            ("mine", "--v", "m2sq"),
            ("mine", "--v", "eta5q4p5"),
        ],
        ids=["jobs", "expr", "v-k", "v-m2sq", "v-eta5q4p5"],
    )
    def test_removed_spelling_is_a_usage_error(self, capsys, argv):
        if argv[0] == "mine":
            argv += ("--a", "1", "--p", "4", "--power", "12", "--max-degree", "3")
        self.assert_usage_exit(*run(capsys, *argv))

    def test_recognize_without_a_value_names_the_quotient_options(self, capsys):
        code, out, err = run(capsys, "recognize", "--a", "1", "--max-degree", "2")
        self.assert_usage_exit(code, out, err)
        assert err == "error: recognize needs --value or --a --p --power --r\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--fn", "theta", "--a", "1e-400", "--b", "0", "--q", "0.5"),
            ("--fn", "eta", "--p", "1e-400", "--q", "0.5"),
            ("--fn", "A", "--a", "1", "--p", "1e400", "--q", "0.5"),
            ("--fn", "k", "--r", "1e400"),
            ("--fn", "k", "--r", "55000000000000"),
            ("--fn", "Sn", "--n", "99999999999", "--x", "0.5"),
        ],
        ids=["theta-a", "eta-p", "A-p", "k-r-1e400", "k-r-past-agm-bound", "Sn-n"],
    )
    def test_input_outside_the_float_or_agm_range(self, capsys, argv):
        # a and p leave the float range of the theta sum's window; k_r at
        # r = 5.5e13 lies just below 2^-(2^24), the AGM's bound, and
        # S_n at n = 99999999999 reaches r = 1e22
        self.assert_usage_exit(*run(capsys, "eval", *argv))

    @pytest.mark.parametrize(
        "quotient",
        [("--a", "4", "--p", "4", "--power", "-1"), ("--a", "6", "--p", "8e8", "--power", "-24")],
        ids=["zero-to-a-negative-power", "column-past-max-fixed-bits"],
    )
    def test_recognize_quotient_out_of_range(self, capsys, quotient):
        # A(4, 4) is identically zero; A(6, 8e8; q)^-24 at r = 1/3 is about
        # 10^(1.26e9), whose LLL column would be a 4e9-bit integer
        argv = ("recognize", *quotient, "--r", "1/3", "--max-degree", "1")
        self.assert_usage_exit(*run(capsys, *argv))

    def test_eval_takes_one_nome(self, capsys):
        code, out, err = run(
            capsys, "eval", "--fn", "A", "--a", "1", "--p", "4", "--r", "1",
            "--q", "0.5",
        )
        self.assert_usage_exit(code, out, err)
        assert "argument --q: not allowed with argument --r" in err

    def test_recognize_value_excludes_the_quotient(self, capsys):
        code, out, err = run(
            capsys, "recognize", "--value", "2", "--a", "1", "--p", "4",
            "--power", "24", "--r", "1", "--max-degree", "2",
        )
        self.assert_usage_exit(code, out, err)
        assert err == "error: --value excludes --a, --p, --power and --r\n"

    COMMANDS = {
        "eval": ("eval", "--fn", "k", "--r", "1"),
        "mine": (
            "mine", "--a", "1", "--p", "4", "--power", "12", "--v", "m",
            "--max-degree", "3",
        ),
        "recognize": ("recognize", "--value", "0.5", "--max-degree", "2"),
        "verify": ("verify", "--all"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "digits, message",
        [
            ("19", "at least 20"),
            ("5001", "at most 5000"),
            ("1000000000", "at most 5000"),
        ],
    )
    def test_digits_outside_the_bounds(self, capsys, command, digits, message):
        code, out, err = run(capsys, *self.COMMANDS[command], "--digits", digits)
        self.assert_usage_exit(code, out, err)
        assert err == f"error: --digits must be {message}\n"
