import json
import math
import subprocess
import sys

import pytest

from growthcalc import cli, funcexpr


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
        cache = tmp_path / "env-seeds.json"
        monkeypatch.setenv(cli.SEED_CACHE_ENV, str(cache))
        run_json(capsys, "iterate", "--f", "2*x", "--lambda", "0.25",
                 "--at", "5")
        assert cache.exists()


class TestPlotdata:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "plotdata", "x^2",
                           "--ladder", "geom:1:2:8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,f(x)"
        assert len(lines) == 9
        assert lines[1] == "1.0,1.0"

    def test_json_rows(self, capsys):
        data = run_json(capsys, "plotdata", "2*x", "--ladder", "geom:1:2:8")
        assert len(data["rows"]) == 8


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 1

    def test_missing_required_flag_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["order", "--F", "log(x)"])
        assert exc.value.code == 1

    def test_parse_error_is_two(self, capsys):
        code, _, err = run(capsys, "eval", "x+")
        assert code == 2
        assert "ParseError" in err

    def test_domain_error_is_two(self, capsys):
        code, _, err = run(capsys, "ack", "9", "1")
        assert code == 2
        assert "DomainError" in err

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

    def test_long_flat_sum_is_two(self, capsys):
        # parses with a loop, but evaluate recurses once per term
        code, out, err = run(capsys, "eval", "+".join(["x"] * 3000),
                             "--at", "2")
        assert code == 2
        assert out == ""
        assert "nested too deeply" in err
        assert "Traceback" not in err


class TestStrictJson:
    def test_emit_refuses_nan(self, capsys):
        args = cli.build_parser().parse_args(["eval", "x"])
        with pytest.raises(ValueError):
            cli._emit(args, {"value": math.nan})
        assert capsys.readouterr().out == ""


def test_import_loads_no_numeric_stack():
    # growthcalc has no runtime dependencies; importing it stays cheap
    code = ("import sys, growthcalc; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'numpy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
