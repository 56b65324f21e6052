import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_funcexpr import EXPRS
from test_lixnum import lireals

from growthcalc import cli, funcexpr, lixnum
from growthcalc.lixnum import LIReal
from growthcalc.orders import Ladder


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestEval:
    def test_single_point(self, capsys):
        data = run_json(capsys, "eval", "x^2+1", "--at", "3")
        assert data["points"] == [{"x": 3.0, "value": 10.0}]

    def test_tower_literal_input(self, capsys):
        data = run_json(capsys, "eval", "xi(x)", "--at", "L7:0.25")
        assert data["points"][0]["value"] == 7.25

    def test_tower_valued_output_is_li_literal(self, capsys):
        data = run_json(capsys, "eval", "exp(exp(x))", "--at", "1e10")
        assert data["points"][0]["value"].startswith("L")

    @pytest.mark.parametrize("expr,mantissa", [
        # by mpmath: 1e616 = L4:0.684108969468046292..., 2e308 =
        # L4:0.632212360551007522...
        ("x*x", 0.684108969468046292),
        ("2*x", 0.632212360551007522),
    ])
    def test_float_product_overflow_is_a_tower(self, capsys, expr, mantissa):
        data = run_json(capsys, "eval", expr, "--at", "1e308")
        level, m = data["points"][0]["value"].split(":")
        assert level == "L4"
        assert float(m) == pytest.approx(mantissa, abs=1e-15)

    def test_power_whose_exponent_overflows_is_a_tower(self, capsys):
        # x^x at 1e308 is exp(1e308 ln 1e308); the float exponent is inf,
        # so it is formed on towers: ln ln of the value is
        # ln(1e308) + ln ln(1e308) = 715.7603408703876
        data = run_json(capsys, "eval", "x^x", "--at", "1e308")
        v = lixnum.parse_li(data["points"][0]["value"])
        assert v.level == 5
        assert float(lixnum.ln_li(lixnum.ln_li(v))) == pytest.approx(
            math.log(1e308) + math.log(math.log(1e308)), rel=1e-14)

    @pytest.mark.parametrize("expr,at,value,real", [
        ("x-3", "L0:0.5", "L-1:0.082084998623898758", -2.5),
        ("0-x", "L0:0.5", "L-1:0.60653065971263342", -0.5),
        ("-x", "L0:0.5", "L-1:0.60653065971263342", -0.5),
        ("x*(-1)", "L0:0.5", "L-1:0.60653065971263342", -0.5),
        # div's log step is a difference: ln 1 - ln x lands on level -1
        ("1/x", "L4:0.1", "L0:1.2678085621824221e-09", None),
        ("x/(2*x)", "L4:0.5", "L0:0.50000000000004174", 0.5),
    ])
    def test_difference_below_zero_lands_on_level_minus_1(self, capsys, expr, at,
                                                          value, real):
        # a difference below zero follows the sum's rule, as x+(-3) does
        data = run_json(capsys, "eval", f"--at={at}", "--", expr)
        assert data["points"][0]["value"] == value
        if real is not None:
            assert float(lixnum.parse_li(value)) == pytest.approx(real, rel=1e-12)

    @pytest.mark.parametrize("expr,at,value", [
        # a float quotient past the range promotes, as a product does
        ("x/1e-10", "1e308", "L4:0.63471059855322709"),
        ("x*1e10", "1e308", "L4:0.63471059855322709"),
        ("x/(1/x)", "1e308", "L4:0.68410896946804622"),
        ("1e300/x", "1e-300", "L4:0.68227433376996316"),
        ("1/x", "1e-310", "L4:0.6326569204584902"),
        ("1e6/x", "1e-305", "L4:0.63291718265338437"),
        # so does a float power, for every positive base
        ("0.5^x", "-2000", "L4:0.6825138366234127"),
        ("x^(-2000)", "0.5", "L4:0.6825138366234127"),
        ("2^(-x)", "-2000", "L4:0.6825138366234127"),
        ("0.5^x", "-1e200", "L5:0.59523009568196228"),
        ("2^(-x)", "-1e200", "L5:0.59523009568196228"),
    ])
    def test_float_quotient_and_power_past_the_range_are_towers(self, capsys, expr,
                                                               at, value):
        data = run_json(capsys, "eval", f"--at={at}", expr)
        assert data["points"][0]["value"] == value

    @pytest.mark.parametrize("expr,at,value,message", [
        # an even power past the range promotes through |b|, as a positive
        # base does: (-1/2000)^(-2000) = 2000^2000, (-2)^2000 = 2^2000
        ("(1/x)^x", "-2000", "L4:0.81748511933669954", None),
        ("(0-2)^x", "2000", "L4:0.6825138366234127", None),
        # an odd one is negative, and a tower has no sign
        ("(0-2)^x", "2001", None,
         "DomainError: negative tower power -2.0 ^ 2001.0: a tower has no sign"),
        # a non-integer one has no real value
        ("(1/x)^x", "-2000.5", None,
         "EvalError: complex power -0.0004998750312421895 ** -2000.5"),
        ("(0-2)^x", "3", -8.0, None),
    ])
    def test_float_power_of_a_negative_base_past_the_range(self, capsys, expr, at,
                                                           value, message):
        code, out, err = run(capsys, "eval", f"--at={at}", expr)
        if message is None:
            assert code == 0, err
            assert json.loads(out)["points"][0]["value"] == value
        else:
            assert (code, out) == (2, "")
            assert message in err

    @pytest.mark.parametrize("expr,at,value", [
        ("abs(x-3)", "L0:0.5", "L1:0.91629073187415522"),  # |-2.5|
        ("abs(x)", "L-1:0.5", "L0:0.69314718055994529"),  # |ln 0.5|
    ])
    def test_abs_of_a_level_index_value(self, capsys, expr, at, value):
        data = run_json(capsys, "eval", f"--at={at}", expr)
        assert data["points"][0]["value"] == value

    def test_ladder_values(self, capsys):
        data = run_json(capsys, "eval", "x+1", "--ladder", "geom:1:2:8")
        assert [r["value"] for r in data["points"]] == [
            1.0 + 2.0 ** i for i in range(8)]

    def test_ladder_past_the_ratio_power_overflow(self, capsys):
        # 1e10^39 overflows, the points (up to 1e90) do not
        data = run_json(capsys, "eval", "x", "--ladder", "geom:1e-300:1e10:40")
        assert len(data["points"]) == 40
        assert data["points"][-1]["value"] == pytest.approx(1e90, rel=1e-12)

    def test_sin_of_a_tower_matches_the_same_float(self, capsys):
        # L2:0.5 = exp(exp(0.5)) is the float 5.2003257647899614
        tower = run_json(capsys, "eval", "sin(x)", "--at", "L2:0.5")
        flt = run_json(capsys, "eval", "sin(x)", "--at", "5.2003257647899614")
        assert tower["points"][0]["value"] == flt["points"][0]["value"]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "--format", "text", "eval", "2*x",
                           "--at", "4")
        assert code == 0
        assert out.strip() == "4.0\t8.0"


class TestSimpleCommands:
    def test_xi(self, capsys):
        data = run_json(capsys, "xi", "--k", "2", "--at", "10")
        assert data["xi"] == pytest.approx(math.log(10.0))

    def test_xi_0_below_zero_is_level_minus_1(self, capsys):
        # xi_0(x) = x - e: e^0.5 - e = -1.0696...
        data = run_json(capsys, "xi", "--k", "0", "--at", "L1:0.5")
        assert data["xi"] == "L-1:0.34315928297426235"
        assert float(lixnum.parse_li(data["xi"])) == pytest.approx(
            math.exp(0.5) - math.e, rel=1e-14)

    def test_ack(self, capsys):
        data = run_json(capsys, "ack", "3", "2")
        assert data["value"] == 65534

    def test_ack_past_the_int_digit_limit(self, capsys):
        # A(3, 3) = 2^65536 - 2 has 19729 digits, past Python's default
        # int-to-str limit of 4300; the CLI prints it exactly and leaves
        # the limit as it found it
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "ack", "3", "3")
        assert code == 0, err
        digits = json.loads(out, parse_int=str)["value"]
        code, text, err = run(capsys, "--format", "text", "ack", "3", "3")
        assert code == 0, err
        assert text.strip() == digits and len(digits) == 19729
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        value = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i:i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == 2 ** 65536 - 2

    def test_ack_tower_value(self, capsys):
        data = run_json(capsys, "ack", "3", "4")
        assert isinstance(data["value"], str) and data["value"].startswith("L")

    def test_order_defaults_to_towers(self, capsys):
        data = run_json(capsys, "order", "--F", "xi(x)", "--f", "exp(x)")
        assert data["converged"] is True
        assert data["lambda_hat"] == 1.0

    def test_classify(self, capsys):
        data = run_json(capsys, "classify", "exp(x)")
        assert data["class"] == "2"
        assert data["witness"]

    def test_classify_unevaluable_precondition_answers(self, capsys):
        # sin has no value at exp(x)'s tower points: inconclusive, exit 0
        data = run_json(capsys, "classify", "x+3+sin(exp(x))")
        assert (data["class"], data["witness"]) == ("inconclusive", None)
        assert data["diagnostics"]["min_f_minus_x"].startswith("failed: ")

    def test_table_all_pass(self, capsys):
        code, out, _ = run(capsys, "--format", "text", "table")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 8
        assert all(ln.endswith("PASS") for ln in lines)

    def test_props(self, capsys):
        data = run_json(capsys, "props", "--F", "log(x)")
        assert set(data["conditions"]) == {"R0", "R1", "R2", "R3"}
        assert data["conditions"]["R0"]["verdict"] is True


class TestIterate:
    def test_half_iterate_twice_is_exp(self, capsys):
        data = run_json(capsys, "iterate", "--f", "exp(x)", "--lambda", "0.5",
                        "--at", "1", "--twice")
        assert data["value"] == pytest.approx(math.e, rel=1e-9)

    def test_seed_cache_roundtrip(self, capsys, tmp_path):
        cache = tmp_path / "seeds.json"
        argv = ("iterate", "--f", "2*x", "--lambda", "0.5", "--at", "3",
                "--seed-cache", str(cache))
        first = run_json(capsys, *argv)
        assert cache.exists()
        assert "2*x" in json.loads(cache.read_text())
        second = run_json(capsys, *argv)
        assert second["value"] == pytest.approx(first["value"], abs=1e-9)

    def test_seed_cache_entry_serves_only_its_base(self, capsys, tmp_path):
        # x+sqrt(x) has a different Abel solution at each base; one cache
        # file shared by two bases must answer what uncached runs answer
        argv = ("iterate", "--f", "x+sqrt(x)", "--lambda", "0.5", "--at", "50")
        cache = ("--seed-cache", str(tmp_path / "seeds.json"))
        want = {b: run_json(capsys, *argv, "--base", b)["value"] for b in ("2", "5")}
        assert want["2"] != want["5"]
        for b in ("2", "5", "2"):
            assert run_json(capsys, *argv, "--base", b, *cache)["value"] == want[b]

    def test_seed_cache_holds_the_solve_arguments(self, capsys, tmp_path):
        cache = tmp_path / "seeds.json"
        argv = ("iterate", "--f", "x+sqrt(x)", "--lambda", "0.5", "--at", "50",
                "--base", "2", "--seed-cache", str(cache))
        miss = run(capsys, *argv)
        assert json.loads(cache.read_text()) == {
            "x+sqrt(x)": {"f": "x+sqrt(x)", "A": 2.0, "seed_kind": "linear"}}
        assert run(capsys, *argv) == miss

    @pytest.mark.parametrize("content,why", [
        ("[]", "ValueError: not a JSON object of entries"),
        ('{"x+1": 5}', "TypeError: 'int' object is not subscriptable"),
        ('{"x+1": {"f": "x+1"}}', "KeyError: 'A'"),
        ('{"x+1": {"f": "x+1", "A": 0.5, "seed_kind": "table", "seed_params":'
         ' {"knots": [[0.5, 0.0], [1.5, 1.0]]}}}',
         "DomainError: unknown seed kind 'table'"),
        ("{", "JSONDecodeError: Expecting property name"),
    ], ids=["list", "number-entry", "no-base", "table-entry", "truncated"])
    def test_malformed_seed_cache_is_two(self, capsys, tmp_path, content, why):
        cache = tmp_path / "seeds.json"
        cache.write_text(content)
        code, out, err = run(capsys, "iterate", "--f", "x+1", "--lambda", "0.5",
                             "--at", "3", "--seed-cache", str(cache))
        assert (code, out) == (2, "")
        assert err.startswith("growthcalc: ") and err.count("\n") == 1
        assert f"seed cache {str(cache)!r} does not load: {why}" in err
        assert cache.read_text() == content  # left for the user to delete

    def test_non_finite_point_is_two(self, capsys):
        code, out, err = run(capsys, "iterate", "--f", "x+1", "--lambda",
                             "0.5", "--at", "nan")
        assert code == 2
        assert out == ""
        assert "finite" in err and "nan" in err

    def test_point_the_pullback_cannot_reach_is_two(self, capsys):
        # x^2 contracts on the default base's domain [0.25, 0.5], but above
        # 1 it climbs, so no pullback from 3 reaches the domain
        code, out, err = run(capsys, "iterate", "--f", "x^2", "--lambda",
                             "0.5", "--at", "3")
        assert code == 2
        assert out == ""
        assert "base" in err

    def test_unreachable_lambda_is_two_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "iterate", "--f", "2*x", "--lambda",
                             "1e9", "--at", "3")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("growthcalc: DomainError:")

    def test_inverse_just_below_the_range_start(self, capsys):
        # F(x) is 2e-13 below 1 here, so f^-1(x) = sqrt(x) is just below
        # the base 2, not the top of the domain
        data = run_json(capsys, "iterate", "--f", "x^2", "--lambda", "-1",
                        "--at", "3.9999999999996", "--base", "2")
        assert data["value"] == pytest.approx(2.0, abs=2e-12)

    def test_translation_past_the_step_cap(self, capsys):
        # 2e6 unit steps from the domain: x+1 iterates in closed form
        data = run_json(capsys, "iterate", "--f", "x+1", "--lambda", "0.5",
                        "--at", "2000000")
        assert data["value"] == 2000000.5

    def test_derived_inverse_needs_no_bisection(self, capsys, monkeypatch):
        calls = []
        bisect = funcexpr._bisect
        monkeypatch.setattr(funcexpr, "_bisect",
                            lambda *a: calls.append(a) or bisect(*a))
        data = run_json(capsys, "iterate", "--f", "2*x", "--lambda", "0.5",
                        "--at", "1e300", "--twice")
        assert data["value"] == pytest.approx(2e300, rel=1e-12)
        assert calls == []

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        # --seed-cache is the only way to name a cache file; the variable
        # that once did is ignored
        cache = tmp_path / "env-seeds.json"
        monkeypatch.setenv("GROWTHCALC_SEED_CACHE", str(cache))
        monkeypatch.chdir(tmp_path)
        run_json(capsys, "iterate", "--f", "2*x", "--lambda", "0.25",
                 "--at", "5")
        assert not hasattr(cli, "SEED_CACHE_ENV")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where,why", [
        (".", "does not load: IsADirectoryError"),
        ("nodir/seeds.json", "cannot be written: FileNotFoundError"),
    ], ids=["directory", "missing-parent"])
    def test_unusable_seed_cache_path_is_two(self, capsys, tmp_path, where, why):
        cache = tmp_path / where
        code, out, err = run(capsys, "iterate", "--f", "x+1", "--lambda",
                             "0.5", "--at", "3", "--seed-cache", str(cache))
        assert code == 2
        assert out == ""
        assert err.startswith(f"growthcalc: DomainError: seed cache {str(cache)!r} {why}")
        assert err.count("\n") == 1


class TestPlotdata:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "--format", "text", "plotdata", "x^2",
                           "--ladder", "geom:1:2:8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,f(x)"
        assert len(lines) == 9
        assert lines[1] == "1.0,1.0"

    def test_json_rows(self, capsys):
        data = run_json(capsys, "plotdata", "2*x", "--ladder", "geom:1:2:8")
        assert len(data["rows"]) == 8

    def test_rational_past_float_range_is_one_cell(self, capsys):
        argv = ("plotdata", "xi(x)*10^300", "--ladder", "geom:10:10:8")
        rows = run_json(capsys, *argv)["rows"]
        code, out, _ = run(capsys, "--format", "text", *argv)
        assert code == 0
        rows += [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 16
        for x, value in rows:
            int(value)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 1

    def test_csv_format_is_one(self, capsys):
        # --format takes json or text; plotdata's text is its x,f(x) table
        with pytest.raises(SystemExit) as exc:
            cli.main(["--format", "csv", "plotdata", "x^2"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert err.startswith("usage: ")
        assert "argument --format: invalid choice" in err

    def test_missing_required_flag_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["order", "--F", "log(x)"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv,option", [
        (["order", "--F", "log(x)", "--f", "x^2", "--tol", "nan"], "--tol"),
        (["order", "--F", "log(x)", "--f", "x^2", "--tol", "-1"], "--tol"),
        (["order", "--F", "log(x)", "--f", "x^2", "--tol", "0"], "--tol"),
        (["iterate", "--f", "2*x", "--lambda", "0.5", "--at", "3",
          "--base", "nan"], "--base"),
        (["iterate", "--f", "2*x", "--lambda", "nan", "--at", "3"],
         "--lambda"),
        (["iterate", "--f", "2*x", "--lambda", "inf", "--at", "3"],
         "--lambda"),
    ], ids=["tol-nan", "tol-negative", "tol-zero", "base-nan", "lambda-nan",
            "lambda-inf"])
    def test_bad_numeric_option_is_one(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 1
        assert out == ""
        assert f"argument {option}:" in err

    def test_parse_error_is_two(self, capsys):
        code, _, err = run(capsys, "eval", "x+")
        assert code == 2
        assert "ParseError" in err

    @pytest.mark.parametrize("argv", [("classify", "1e400*x"),
                                      ("eval", "x+1e400", "--at", "2")])
    def test_literal_past_the_float_range_is_a_parse_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "ParseError: number '1e400' is past the float range at position" in err

    def test_domain_error_is_two(self, capsys):
        code, _, err = run(capsys, "ack", "9", "1")
        assert code == 2
        assert "DomainError" in err

    @pytest.mark.parametrize("expr,at,d", [("x+x", "L-1:1e-174", "-801.2996123619279"),
                                           ("x*400", "L-1:0.01", "-1842.068074395236")])
    def test_below_level_minus_1_is_two(self, capsys, expr, at, d):
        # not L-1:0, which is ln 0
        code, out, err = run(capsys, "eval", expr, f"--at={at}")
        assert code == 2 and out == ""
        assert f"DomainError: {d} is below the level -1 range" in err

    @pytest.mark.parametrize("expr,at,d", [("log(x)", "L0:1e-310", "-713.8013788281542"),
                                           ("x", "L-1:1e-320", "-736.8272408909739")])
    def test_subnormal_level_minus_1_is_two(self, capsys, expr, at, d):
        # ln_li and parse_li keep to_li's level -1 range, where they built a
        # mantissa that had lost digits
        code, out, err = run(capsys, "eval", expr, f"--at={at}")
        assert code == 2 and out == ""
        assert f"DomainError: {d} is below the level -1 range (about -708.4)" in err

    def test_ln_0_literal_still_parses(self, capsys):
        data = run_json(capsys, "eval", "x", "--at=L-1:0")
        assert data["points"][0]["value"] == "L-1:0"

    def test_product_of_two_negatives_past_the_range_is_a_tower(self, capsys):
        at_neg = run_json(capsys, "eval", "x*x", "--at=-1e200")
        at_pos = run_json(capsys, "eval", "x*x", "--at=1e200")
        assert at_neg["points"][0]["value"] == at_pos["points"][0]["value"]
        assert at_neg["points"][0]["value"].startswith("L4:")

    @pytest.mark.parametrize("expr", ["x*(-x)", "(-x)*x"])
    def test_negative_product_past_the_range_is_two(self, capsys, expr):
        # a tower has no sign; the float product -inf used to reach the JSON
        # writer and fail there
        code, out, err = run(capsys, "eval", expr, "--at=1e200")
        assert code == 2 and out == ""
        assert "DomainError: negative tower product" in err

    def test_negative_quotient_past_the_range_is_two(self, capsys):
        code, out, err = run(capsys, "eval", "x/(-1e-10)", "--at=1e308")
        assert (code, out) == (2, "")
        assert ("DomainError: negative tower quotient 1e+308 / -1e-10: "
                "a tower has no sign") in err

    def test_negated_tower_is_two(self, capsys):
        # 2*x at 1e308 promotes to the tower L4:0.632..., which has no negative
        code, out, err = run(capsys, "eval", "--at", "1e308", "--", "-(2*x)")
        assert code == 2
        assert out == ""
        assert ("DomainError: the level-index value L4:0.63221236055100749 "
                "cannot be negated") in err

    @pytest.mark.parametrize("expr,at,message", [
        ("1/x", "L5:0.1", "sub would leave the nonnegative range"),
        ("x-1000", "L0:0.5", "-999.4999999999998 is below the level -1 range (about -708.4)"),
    ])
    def test_difference_still_refused_is_two(self, capsys, expr, at, message):
        # refused against a subtrahend above level 3, or past level -1's range
        code, out, err = run(capsys, "eval", f"--at={at}", expr)
        assert (code, out) == (2, "")
        assert f"DomainError: {message}" in err

    def test_xi_4_far_below_its_base_is_two(self, capsys):
        # xi(x) on a tower of level 10^400 is 10^400 + 1/2, past the float
        # range; its negative is below xi_4's base, and the error says so
        code, out, err = run(capsys, "eval", "xi_4(0-xi(x))",
                             "--at", f"L1{'0' * 400}:0.5")
        assert code == 2
        assert out == ""
        assert "DomainError: xi_4 argument below its base" in err

    def test_square_of_a_huge_negative_is_two_in_one_short_line(self, capsys):
        # -(10^400 + 1/2) has no tower to square through; the message names
        # its size, not its 401 digits
        code, out, err = run(capsys, "eval", "(0-xi(x))^2",
                             "--at", f"L1{'0' * 400}:0.5")
        assert (code, out) == (2, "")
        assert err == ("growthcalc: DomainError: cannot represent non-positive "
                       "Fraction with a 401-digit numerator\n")
        assert len(err.encode()) < 120

    def test_negated_zero_tower_is_zero(self, capsys):
        data = run_json(capsys, "eval", "--at", "L0:0", "--", "-x")
        assert data["points"][0]["value"] == "L0:0"

    def test_bad_ladder_spec_is_two(self, capsys):
        code, _, err = run(capsys, "eval", "x", "--ladder", "nope:1")
        assert code == 2

    def test_overflowing_geometric_ladder_is_two(self, capsys):
        code, out, err = run(capsys, "eval", "x^2", "--ladder",
                             "geom:1e10:1e100:10")
        assert code == 2
        assert out == ""
        assert "geom:1e10:1e100:10" in err
        assert "OverflowError" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["plotdata", "x"], ["eval", "x"], ["order", "--F", "log(x)", "--f", "2*x"],
        ["props", "--F", "log(x)"],
    ], ids=["plotdata", "eval", "order", "props"])
    def test_geometric_ladder_whose_last_point_is_inf_is_two(self, capsys, argv):
        # 2^1024 rounds to inf, though 1024 ln 2 equals ln(max float)
        code, out, err = run(capsys, *argv, "--ladder", "geom:1:2:1025")
        assert code == 2
        assert out == ""
        assert "bad ladder spec 'geom:1:2:1025'" in err
        assert "overflows the float range" in err and "Traceback" not in err

    @pytest.mark.parametrize("spec", ["geom:nan:2:8", "geom:1:nan:8"])
    @pytest.mark.parametrize("cmd", ["plotdata", "eval"])
    def test_geometric_ladder_with_a_nan_is_two(self, capsys, cmd, spec):
        code, out, err = run(capsys, cmd, "x", "--ladder", spec)
        assert code == 2
        assert out == ""
        assert f"bad ladder spec {spec!r}: geometric ladder needs x0 > 0 and ratio > 1" in err

    def test_geometric_ladder_up_to_the_float_max_answers(self, capsys):
        data = run_json(capsys, "eval", "x", "--ladder", "geom:1:2:1024")
        assert data["points"][-1] == {"x": 8.98846567431158e+307,
                                      "value": 8.98846567431158e+307}

    @pytest.mark.parametrize("point", ["nan", "inf", "-inf"])
    def test_non_finite_point_is_two(self, capsys, point):
        code, out, err = run(capsys, "eval", "x^2", f"--at={point}")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_deep_nesting_is_parse_error(self, capsys):
        code, out, err = run(capsys, "eval", "(" * 3000 + "x" + ")" * 3000,
                             "--at", "2")
        assert code == 2
        assert out == ""
        assert "ParseError" in err

    def test_long_flat_sum_answers(self, capsys):
        # parse builds the left-deep tree with a loop, and the compiled sum
        # runs as one loop over its terms
        code, out, err = run(capsys, "eval", "+".join(["x"] * 3000),
                             "--at", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["points"] == [{"x": 2.0, "value": 6000.0}]

    def test_zero_times_a_tower_is_exact_zero(self, capsys):
        data = run_json(capsys, "eval", "0*x", "--at", "L5:0.5")
        assert data["points"] == [{"x": "L5:0.5", "value": "L0:0"}]

    @pytest.mark.parametrize("argv,value", [
        (["eval", "log(log(x))", "--at", "L0:0.5"], "L-1:0.5"),
        (["eval", "log(x)", "--at", "L0:0"], "L0:0"),
        (["xi", "--k", "2", "--at", "L0:0"], "L0:0"),
    ])
    def test_log_of_a_non_positive_tower_is_two(self, capsys, argv, value):
        # as the float point 0.5 does for log(log(x)): no formal level -2
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"DomainError: log of non-positive value {value}" in err

    @pytest.mark.parametrize("argv,lines", [
        (["--format", "text", "eval", "x", "--ladder", "geom:1:1.001:50000"], 1),
        (["eval", "x", "--at", "2"], 0),
    ])
    def test_closed_pipe_is_two_without_traceback(self, argv, lines):
        # a reader that stops early, as `| head -n 1` does, closes the pipe
        # while main is printing, or before a short answer leaves stdout's
        # buffer; a process of its own, with stdout buffered as usual, also
        # sees the interpreter's last flush at exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from growthcalc import cli; sys.exit(cli.main())", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        for _ in range(lines):
            assert proc.stdout.readline() == "1.0\t1.0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (2, "")

    def test_long_flat_product_is_two(self, capsys):
        # only + and - chains run as a loop: a 3000-factor product still
        # compiles by recursion, and main turns its RecursionError into
        # exit 2 with a one-line message
        code, out, err = run(capsys, "eval", "*".join(["x"] * 3000),
                             "--at", "2")
        assert (code, out) == (2, "")
        assert "nested too deeply" in err and "Traceback" not in err


class TestSharedParser:
    CALLS = [
        ["--format", "text", "eval", "2*x", "--at", "4"],
        ["eval", "x^2+1", "--at", "3"],
        ["--format", "text", "plotdata", "x^2", "--ladder", "geom:1:2:8"],
        ["xi", "--k", "2", "--at", "10"],
        ["--format", "text", "ack", "3", "2"],
        ["iterate", "--f", "2*x", "--lambda", "0.5", "--at", "3",
         "--base", "0.75"],
        ["iterate", "--f", "2*x", "--lambda", "0.5", "--at", "3"],
        ["plotdata", "x+1", "--ladder", "geom:1:2:4"],  # too short: exit 2
        ["order", "--F", "xi(x)", "--f", "exp(x)", "--tol", "0.01"],
        ["order", "--F", "xi(x)", "--f", "exp(x)"],
    ]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_print_what_lone_calls_print(self, capsys):
        lone = []
        for argv in self.CALLS:
            cli.build_parser.cache_clear()
            lone.append(run(capsys, *argv))
        assert [r[0] for r in lone] == [0] * 7 + [2] + [0] * 2
        assert [run(capsys, *argv) for argv in self.CALLS] == lone

    def test_defaults_do_not_leak_between_calls(self):
        parser = cli.build_parser()
        parser.parse_args(["iterate", "--f", "x", "--lambda", "1", "--at",
                           "1", "--base", "0.75", "--twice"])
        args = parser.parse_args(["iterate", "--f", "x", "--lambda", "1",
                                  "--at", "1"])
        assert (args.base, args.twice, args.seed_cache) == (0.5, False, None)

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["order", "--F", "log(x)"])
        assert exc.value.code == 1
        capsys.readouterr()
        data = run_json(capsys, "eval", "x^2+1", "--at", "3")
        assert data["points"] == [{"x": 3.0, "value": 10.0}]


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def _outcome(argv):
    """(exit code, stdout, stderr) of cli.main(argv), argparse's exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors, and -h
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv):
    # every outcome is an answer (0), a usage error (1) or an evaluation
    # error (2); nothing escapes, and answers are strict JSON (ints read as
    # text: A(3, 3) has more digits than int() reads by default)
    code, out, err = _outcome(argv)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_not_json, parse_int=str)
    return code, out, err


FUZZ_EXPRS = EXPRS.map(funcexpr.to_text)
FUZZ_POINTS = st.one_of(
    st.floats().map(repr),
    st.builds("L{}:{!r}".format, st.integers(-3, 45), st.floats(0.0, 1.0)),
)
# classify's slow route, mu = 1 on x + c g(x), costs up to about 10 ms
FUZZ_GROWTH = st.builds("x+{!r}*{}".format, st.floats(), st.sampled_from(
    ["log(x)", "sqrt(x)", "x/log(x)", "log(x)^2", "x^0.9", "log(log(x))"]))
# short ladders keep each drawn order or props run to milliseconds
FUZZ_LADDERS = st.one_of(
    st.builds("geom:{!r}:{!r}:{}".format, st.floats(), st.floats(), st.integers(-1, 12)),
    st.builds("tower:{!r}:{}".format, st.floats(), st.integers(-1, 12)),
)


class TestEvalFuzz:
    @settings(max_examples=400)
    @given(FUZZ_EXPRS, FUZZ_POINTS)
    @example("x^-1", "0")
    def test_exit_code_contract(self, expr, point):
        _assert_contract(["--format", "json", "eval", expr, "--at", point])

    @settings(max_examples=150)
    @given(st.one_of(
        st.builds(lambda k, at: ["xi", "--k", str(k), "--at", at],
                  st.integers(-2, 10), FUZZ_POINTS),
        st.builds(lambda m, n: ["ack", str(m), str(n)],
                  st.integers(-1, 5), st.integers(-1, 12)),
        st.builds(lambda F, f, spec: ["order", "--F", F, "--f", f, "--ladder", spec],
                  FUZZ_EXPRS, FUZZ_EXPRS, FUZZ_LADDERS),
        st.builds(lambda e, spec: ["plotdata", e, "--ladder", spec],
                  FUZZ_EXPRS, FUZZ_LADDERS),
        st.builds(lambda F, spec: ["props", "--F", F, "--ladder", spec],
                  FUZZ_EXPRS, FUZZ_LADDERS),
        st.builds(lambda e: ["classify", e], st.one_of(FUZZ_EXPRS, FUZZ_GROWTH)),
    ))
    @example(["ack", "3", "3"])
    @example(["classify", "x+log(x)"])
    @example(["classify", "x+nan*sqrt(x)"])
    @example(["xi", "--k", "5", "--at", "nan"])
    def test_other_commands_keep_the_contract(self, argv):
        _assert_contract(argv)


# iterate's Abel generators, as the queries benchmark draws them, and maps
# that are not increasing; each run solves an Abel equation (up to about
# 0.2 s), so the draw stays small
FUZZ_ITERATE_F = st.one_of(
    st.builds("x+{!r}".format, st.floats(-3.0, 5.0)),
    st.builds("{!r}*x".format, st.floats(-3.0, 5.0)),
    st.builds("x^{!r}".format, st.floats(-3.0, 5.0)),
    st.sampled_from(["exp(x)", "x+sqrt(x)", "x+2*sin(x)", "x^2-3*x", "-x",
                     "1/x", "sin(x)", "x-1", "2*x-x^2"]),
)


def _finite_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


class TestIterateFuzz:
    @settings(max_examples=40, deadline=None)
    @given(FUZZ_ITERATE_F, st.floats(-3.0, 3.0),
           st.one_of(st.floats(max_value=1e3), st.floats(0.5, 1e3)),
           st.one_of(st.floats(), st.sampled_from(["0", "-1", "abc", "inf", "nan"])),
           st.booleans(), st.booleans())
    @example("x+1", 0.5, 3.0, "nan", False, True)
    @example("x^2-3*x", -2.5, 10.0, 4.0, True, True)
    @example("x+1", -1e-05, -1e+300, 0.5, False, False)
    def test_iterate_keeps_the_contract(self, f, lam, at, base, twice, joined):
        # values written as --opt=value or as --opt value; spelled apart, a
        # value that is a negative number reads as --opt=value does, and a
        # value such as -x or -inf is a usage error
        values = {"--f": f, "--lambda": repr(lam), "--at": repr(at),
                  "--base": base if isinstance(base, str) else repr(base)}
        flags = ["--twice"] if twice else []
        one_token = ["iterate", *(f"{k}={v}" for k, v in values.items()), *flags]
        if joined:
            _assert_contract(one_token)
            return
        got = _assert_contract(["iterate", *(t for kv in values.items() for t in kv), *flags])
        if all(not v.startswith("-") or _finite_number(v) for v in values.values()):
            assert got == _outcome(one_token)
        else:
            assert got[0] == 1


# a negative number in exponent form; argparse's own test reads each one
# as an option
NEGATIVE_EXPONENT_FORMS = ["-1e5", "-1.5e-3", "-1E+2", "-.5e1"]


class TestNegativeNumberValues:
    @pytest.mark.parametrize("number", NEGATIVE_EXPONENT_FORMS)
    def test_eval_at(self, capsys, number):
        data = run_json(capsys, "eval", "x+1", "--at", number)
        assert data["points"] == [{"x": float(number), "value": float(number) + 1.0}]

    @pytest.mark.parametrize("option", ["--at", "--lambda"])
    @pytest.mark.parametrize("number", NEGATIVE_EXPONENT_FORMS)
    def test_iterate(self, option, number):
        values = {"--f": "x+1", "--lambda": "0.5", "--at": "3", option: number}
        got = _outcome(["iterate", *(t for kv in values.items() for t in kv)])
        assert got[0] != 1, got[2]
        assert got == _outcome(["iterate", *(f"{k}={v}" for k, v in values.items())])

    def test_an_expression_is_still_an_option(self):
        code, out, err = _outcome(["iterate", "--f", "-x", "--lambda", "0.5", "--at", "3"])
        assert (code, out) == (1, "")
        assert "argument --f: expected one argument" in err


def _reference_main(argv):
    """main as it ran before the one-pass parse and the layout writer: the
    full parse_args and json.dumps."""
    with mock.patch.object(cli, "_parse_args", lambda a: cli.build_parser().parse_args(a)), \
            mock.patch.object(cli, "_dumps", lambda payload: json.dumps(
                payload, indent=2, default=str, allow_nan=False)):
        return _outcome(argv)


# argv pieces per subcommand: drawn in any order and any subset, so
# required flags go missing, options land before and after positionals,
# and prefixes such as --lad and --to stand for whole options; repro only
# ever meets a usage error here (a full run takes 0.2 s)
_PIECES = {
    "eval": [["x^2+1"], ["log(x)"], ["--at", "3"], ["--at=L5:0.5"],
             ["--ladder", "geom:1:2:8"], ["--lad", "tower:0.5:9"]],
    "xi": [["--k", "3"], ["--k", "5"], ["--at", "10"], ["--at", "L4:0.5"]],
    "ack": [["3"], ["2"], ["-1"]],
    "order": [["--F", "xi(x)"], ["--f", "exp(x)"], ["--f", "2*x"],
              ["--ladder", "tower:0.5:10"], ["--to", "0.01"], ["--tol", "-1"]],
    "classify": [["x^2"], ["2*x"]],
    "table": [],
    "props": [["--F", "log(x)"], ["--ladder", "geom:10:10:8"]],
    "iterate": [["--f", "2*x"], ["--lambda", "0.5"], ["--at", "3"],
                ["--base", "0.75"], ["--twice"]],
    "plotdata": [["x^2"], ["--ladder", "geom:1:2:8"]],
    "repro": [],
}
# pieces any subcommand may meet: usage errors after it, then `--` and -h
_USAGE_ERRORS = [["--format", "text"], ["--format=csv"], ["--bogus"], ["--=x"],
                 ["stray"]]
_ANY_COMMAND = _USAGE_ERRORS + [["--"], ["-h"]]
_HEADS = [[], ["--format", "text"], ["--format", "csv"], ["--format=json"],
          ["--form", "text"], ["--format"], ["-h"]]


@st.composite
def _argvs(draw):
    head = draw(st.sampled_from(_HEADS))
    command = draw(st.sampled_from([*_PIECES, "nope", ""]))
    pieces = draw(st.lists(st.sampled_from(_PIECES.get(command) or [[]]),
                           max_size=4, unique_by=tuple))
    if command == "repro":
        pieces.append(draw(st.sampled_from(_USAGE_ERRORS)))
    else:
        pieces += draw(st.lists(st.sampled_from(_ANY_COMMAND), max_size=1))
    pieces = draw(st.permutations(pieces))
    return head + ([command] if command else []) + [t for p in pieces for t in p]


class TestOnePassParse:
    @settings(max_examples=150)
    @given(_argvs())
    @example(["eval", "--at", "1e308", "--", "-(2*x)"])
    @example(["eval", "x", "--at", "3", "--format", "text"])
    @example(["order", "--F", "log(x)"])
    @example(["--format", "text", "eval", "2*x", "--at", "4"])
    @example(["props", "--F", "xi(x)"])
    def test_same_outcome_as_the_full_parse(self, argv):
        assert _outcome(argv) == _reference_main(argv)

    def test_subcommand_first_skips_the_top_level_pass(self):
        with mock.patch.object(cli.build_parser(), "parse_args",
                               side_effect=AssertionError("full pass")):
            args = cli._parse_args(["eval", "x", "--lad", "geom:1:2:8"])
        assert vars(args) == {"format": "json", "command": "eval",
                              "expr": "x", "at": None, "ladder": "geom:1:2:8",
                              "fn": cli.cmd_eval}


# what _dumps may meet: every JSON scalar, the floats json refuses, huge
# ints (one past the int-to-str digit limit), non-ASCII text, and objects
# json writes through str (towers, rationals)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10 ** 400, 10 ** 400),
    st.just(4400).map(lambda n: 10 ** n), st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-310, 1e308, 1.7976931348623157e308]),
    st.text(), st.sampled_from(["é", "\u2028", "\x00\"", "😀"]),
    st.fractions(), lireals(st.integers(-1, 50), st.floats(0.0, 1.0, exclude_max=True)),
)
# keys json takes (str, int, float, bool, None) and one it refuses
_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
                  st.tuples(st.integers()))
_PAYLOADS = st.recursive(
    st.one_of(_SCALARS,
              st.lists(st.one_of(st.integers(), st.floats()), max_size=30),
              st.builds(Ladder.tower, st.floats(0.1, 0.9), st.integers(8, 10)),
              st.builds(Ladder.geometric, st.floats(1.0, 10.0), st.floats(1.5, 10.0),
                        st.integers(8, 10))),
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=5).map(tuple),
                               st.dictionaries(_KEYS, children, max_size=5)),
    max_leaves=8,
)


def _text_or_error(dumps, payload):
    try:
        return "text", dumps(payload)
    except Exception as exc:  # the type and message are the outcome
        return "raises", type(exc), str(exc)


class TestStrictJson:
    def test_emit_refuses_nan(self, capsys):
        args = cli.build_parser().parse_args(["eval", "x"])
        with pytest.raises(ValueError):
            cli._emit(args, {"value": math.nan})
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("payload,value", [
        ({"value": math.nan}, "nan"),
        ({"margins": [0.5, 1, math.nan, 2.0]}, "nan"),
        ({"R0": {"margins": [0.5, -math.inf]}}, "-inf"),
    ])
    def test_emit_names_the_refused_float(self, capsys, payload, value):
        args = cli.build_parser().parse_args(["eval", "x"])
        with pytest.raises(ValueError) as exc:
            cli._emit(args, payload)
        assert str(exc.value) == f"Out of range float values are not JSON compliant: {value}"
        assert capsys.readouterr().out == ""

    def test_answer_past_the_float_range_is_two(self, capsys):
        # x+x at 1e308 is the float inf, which strict JSON cannot hold
        assert run(capsys, "eval", "x+x", "--at", "1e308") == (
            2, "", "growthcalc: ValueError: Out of range float values are not "
                   "JSON compliant: inf\n")

    @settings(max_examples=120)
    @given(_PAYLOADS)
    @example({"x": Fraction(1, 3), "points": (1, 2.5, -0.0), "": {}, "l": []})
    @example({1.5: [float("nan")], None: True})
    def test_same_text_as_json_dumps(self, payload):
        assert _text_or_error(cli._dumps, payload) == _text_or_error(
            lambda p: json.dumps(p, indent=2, default=str, allow_nan=False), payload)


def test_import_loads_no_numeric_stack():
    # growthcalc has no runtime dependencies; importing it stays cheap
    code = ("import sys, growthcalc; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'numpy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
