import math
from fractions import Fraction

import pytest

from growthcalc import classify, funcexpr, lixnum
from growthcalc.classify import (
    catalog, classify_expr, inverse_derivative_ratio, sandwich_bracket_report,
    scaled_xi_increment, staircase_class0, staircase_class1, verify_chain,
    wobbly_log_derivative,
)
from growthcalc.funcexpr import EvalError
from growthcalc.lixnum import DomainError, LIReal
from growthcalc.xihier import default_hierarchy


ROWS = {e.name: e for e in catalog()}


class TestCatalog:
    def test_all_rows_present(self):
        assert set(ROWS) == {"x+2", "x+sqrt(x)", "x+x/log(x)", "2*x",
                             "x^2", "exp(x)", "exp(exp(x))", "xi_inv(x)"}

    def test_declared_classes(self):
        assert ROWS["x+2"].declared_class == 0
        assert ROWS["2*x"].declared_class == 1
        assert ROWS["exp(x)"].declared_class == 2
        assert ROWS["xi_inv(x)"].declared_class == 3

    def test_top_row_is_callable(self):
        entry = ROWS["xi_inv(x)"]
        assert callable(entry.f0)
        assert entry.f0.text == "xi_inv(x)"

    def test_chains_have_five_scales(self):
        assert all(len(e.chain) == 5 for e in ROWS.values())


class TestVerifyChain:
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_row_verifies(self, name):
        rep = verify_chain(ROWS[name])
        bad = [p for p in rep["pairs"] if not p["ok"]]
        assert rep["ok"], f"failing pairs: {bad}, inverse: {rep['inverse_check']}"


class TestClassifier:
    @pytest.mark.parametrize("text,expected", [
        ("x+2", "0"),
        ("x+3", "0"),
        ("x+sqrt(x)", "0"),
        ("2*x", "1"),
        ("x^2", "1"),
        ("x^2+x", "1"),
        ("x+x/log(x)", "1"),
        ("exp(x)", "2"),
        ("exp(exp(x))", "2"),
    ])
    def test_verdicts(self, text, expected):
        rep = classify_expr(text)
        assert rep.verdict == expected, rep.reason
        assert rep.witness
        assert any(c["ok"] for c in rep.order_checks)

    def test_report_serializes(self):
        data = classify_expr("2*x").to_json()
        for key in ("class", "witness", "diagnostics", "order_checks",
                    "reason"):
            assert key in data

    def test_nongrowing_input_is_inconclusive_not_wrong(self):
        rep = classify_expr("log(x)")
        assert rep.verdict == "inconclusive"
        assert rep.reason

    @pytest.mark.parametrize("text,verdict,witness", [
        ("2*x+sin(x)", "1", "log(x)/0.69314718056"),
        ("x^2+sin(x)", "1", "log_2(x)/0.69314718056"),
        ("x+2+sin(x)", "inconclusive", None),
    ])
    def test_super_log_order_that_fails_goes_on_to_the_mu_scan(self, text, verdict, witness):
        # sin has no value at the tower points of the k-scan; the failure
        # is recorded as the mu-scan records its own
        rep = classify_expr(text)
        assert (rep.verdict, rep.witness) == (verdict, witness)
        assert rep.diagnostics["k_hat"] == (
            "failed: evaluation failed at ladder point L5:0.5: sin needs a float "
            "argument (L5:0.5 exceeds float range): argument reduction is meaningless")
        assert "mu_scan" in rep.diagnostics

    def test_growth_precondition_that_fails_is_inconclusive(self):
        # the 12-point sample reaches 9.5e4, where exp(x) is a tower and sin
        # has no value
        rep = classify_expr("x+3+sin(exp(x))")
        assert (rep.verdict, rep.witness) == ("inconclusive", None)
        assert rep.reason == "f(x) >= x + 1 + delta cannot be evaluated on the sample"
        assert rep.diagnostics["min_f_minus_x"].startswith(
            "failed: sin needs a float argument (L4:0.657")
        assert "k_hat" not in rep.diagnostics

    def test_no_stabilizing_exponent(self):
        rep = classify_expr("x^(2+sin(log(x)))")
        assert (rep.verdict, rep.witness) == ("inconclusive", None)
        assert rep.reason == "no stabilizing exponent found in the n-scan"
        assert "n" not in rep.diagnostics
        assert len(rep.diagnostics["mu_scan"]) == classify._N_MAX - classify._N_MIN + 1

    def test_failed_c_scan_is_recorded(self):
        # x^2 is a tower past the float range, where sin has no value: the
        # mu-scan reaches mu = 1 at n = 0 on its wide ladder, and h fails on
        # the deeper points of the c-scan
        rep = classify_expr("x+3+sin(x^2)")
        assert (rep.verdict, rep.diagnostics["n"]) == ("inconclusive", 0)
        assert rep.diagnostics["mu_scan"][-1].startswith("failed: sin needs a float argument")
        assert rep.diagnostics["c_scan"].startswith("failed: sin needs a float argument")
        assert "c_hat" not in rep.diagnostics

    def test_failed_point_raises_again_from_the_memo(self):
        calls = []

        def f(x):
            calls.append(x)
            raise EvalError(f"no value at {x}")

        fv = classify._float_values(f)
        for _ in range(2):
            with pytest.raises(EvalError, match="no value at 3.0"):
                fv(3.0)
        assert calls == [3.0]

    def test_h_is_evaluated_once_per_scan_point(self, monkeypatch):
        # the c-scan and every (k, r) scan of the mu = 1 route read h at
        # the same points
        calls = {}
        compile_expr = funcexpr.compile_expr

        def counting(expr):
            text, f = funcexpr.to_text(expr), compile_expr(expr)

            def value(x):
                calls[text, x] = calls.get((text, x), 0) + 1
                return f(x)
            return value

        monkeypatch.setattr(funcexpr, "compile_expr", counting)
        rep = classify_expr("x+log(x)")
        h = rep.diagnostics["h"]
        h_calls = [n for (text, _), n in calls.items() if text == h]
        assert len(h_calls) >= len(classify._FRAC_DEEP)
        assert max(h_calls) == 1

    @pytest.mark.parametrize("text", ["x+log(x)", "x^2", "exp(x)"])
    def test_f_is_compiled_once(self, monkeypatch, text):
        # the precondition, the k-order, the mu-scan and every witness
        # self-check call the one compile of f that its Fn holds
        compiled = []
        compile_expr = funcexpr.compile_expr

        def counting(expr):
            compiled.append(funcexpr.to_text(expr))
            return compile_expr(expr)

        monkeypatch.setattr(funcexpr, "compile_expr", counting)
        rep = classify_expr(text)
        assert rep.order_checks
        assert compiled.count(rep.diagnostics["f"]) == 1

    def test_mu_scan_evaluates_f_once_per_point(self, monkeypatch):
        # x*log(x) reaches n = 1, so the wide ladder serves n = 0 and n = 1;
        # the scan reads f there through one value memo
        calls, scanning = {}, []
        compile_expr, mu_estimate = funcexpr.compile_expr, classify._mu_estimate

        def counting(expr):
            f = compile_expr(expr)
            if funcexpr.to_text(expr) != "x*log(x)":
                return f

            def value(x):
                if scanning:
                    calls[x] = calls.get(x, 0) + 1
                return f(x)
            return value

        def in_scan(fv, n):
            scanning.append(n)
            try:
                return mu_estimate(fv, n)
            finally:
                scanning.pop()

        monkeypatch.setattr(funcexpr, "compile_expr", counting)
        monkeypatch.setattr(classify, "_mu_estimate", in_scan)
        rep = classify_expr("x*log(x)")
        assert rep.diagnostics["n"] == 1
        wide = set(classify._MU_LADDER_WIDE)
        assert wide <= set(calls)
        assert max(n for x, n in calls.items() if x in wide) == 1


class TestSandwich:
    def test_class1_bounds_bracket_the_unit_scaling(self):
        rep = sandwich_bracket_report()
        assert rep["ok"]
        assert rep["g_shift"] == 0.5
        assert rep["h_shift"] == 2.0
        nus = [r["nu_f1"] for r in rep["points"]]
        assert all(0.5 < v < 2.0 for v in nus)
        # the normalized increment settles at its limit value 1
        assert nus[-1] == pytest.approx(1.0, abs=1e-6)

    def test_increment_needs_scaling_factor(self):
        with pytest.raises(DomainError):
            scaled_xi_increment(1.0, 100.0)

    @pytest.mark.parametrize("x", [-5.0, 0.0, LIReal(-1, 0.5)], ids=str)
    def test_increment_needs_a_positive_point(self, x):
        # ln x is refused before the limit value 1 could stand in for it
        with pytest.raises(DomainError, match="x > 0"):
            scaled_xi_increment(math.e, x)

    def test_increment_limit_at_towers(self):
        assert scaled_xi_increment(math.e, LIReal(20, 0.5)) == 1.0


class TestSeparation:
    def test_inverse_derivative_ratio_oracle(self):
        # f = 2x, g = x^2: (g^-1)'/(f^-1)' = (1/(2 sqrt x)) / (1/2)
        r = inverse_derivative_ratio("2*x", "x^2", 100.0)
        assert r == pytest.approx(0.1, rel=1e-9)


class TestStaircases:
    def test_class1_returns_to_x_plus_one_exactly(self):
        F, f = staircase_class1()
        for k in range(1, 31):
            assert f(2 ** k - 1) == 2 ** k

    def test_class1_is_exact_rational(self):
        F, f = staircase_class1()
        assert isinstance(F(Fraction(5, 2)), Fraction)

    def test_class0_doubles_at_knots(self):
        F, f = staircase_class0()
        for k in range(1, 5):
            ak = 2 ** (2 ** k)
            assert f(ak) == 2 * ak

    def test_class0_is_shiftlike_between_knots(self):
        F, f = staircase_class0()
        # slope-1/2 stretch between 32 and 256
        for n in (40, 100, 200):
            assert f(n) == n + 2

    def test_class0_scale_stays_sublinear(self):
        F, f = staircase_class0()
        for x in (4, 64, 4096, 65536):
            assert 0 < F(x) / x < 1


class TestWobbly:
    def test_float_value_matches_formula(self):
        hier = default_hierarchy()
        x = 500.0
        xi = float(hier.xi_k(3, x))
        chi = float(hier.chi(x))
        expected = 1.0 + math.cos(xi) * x / ((3.0 + math.sin(xi)) * chi)
        assert wobbly_log_derivative(x) == pytest.approx(expected, rel=1e-12)

    def test_tends_to_one_on_towers(self):
        vals = [wobbly_log_derivative(LIReal(j, 0.5)) for j in range(6, 16)]
        assert all(abs(v - 1.0) < 0.05 for v in vals)

    def test_deep_tower_underflows_to_exactly_one(self):
        assert wobbly_log_derivative(LIReal(30, 0.5)) == 1.0
