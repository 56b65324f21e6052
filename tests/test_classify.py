import math
from fractions import Fraction

import pytest

from growthcalc import classify, lixnum
from growthcalc.classify import (
    BetweenClassFn, Staircase, catalog, classify_expr, gallery,
    inverse_derivative_ratio, sandwich_bounds, sandwich_bracket_report,
    scaled_xi_increment, separation_check, staircase_class0,
    staircase_class1, verify_chain, wobbly_log_derivative,
)
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

    def test_unknown_row_needs_explicit_ladders(self):
        entry = ROWS["2*x"]
        renamed = type(entry)(name="nope", declared_class=1,
                              f0=entry.f0, chain=entry.chain)
        with pytest.raises(ValueError):
            verify_chain(renamed)


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


class TestBetweenClass:
    def test_m2_matches_closed_form(self):
        f = BetweenClassFn("log(x)", m=2, c=1.0)
        # xi_2 = log and H_2 = id, so f(x) = x * e^(1/log x)
        assert f(100.0) == pytest.approx(100.0 * math.exp(1.0 / math.log(100.0)),
                                         rel=1e-12)

    def test_forward_inverse_roundtrip(self):
        f = BetweenClassFn("log(x)", m=2, c=1.0)
        for x in (10.0, 300.0, 1e5):
            assert f.inverse(f(x)) == pytest.approx(x, rel=1e-9)

    def test_inverse_form_roundtrip(self):
        f = BetweenClassFn("log(x)", m=3, c=0.5, inverse_form=True)
        for x in (50.0, 1e4):
            assert f.inverse(f(x)) == pytest.approx(x, rel=1e-7)

    def test_guards(self):
        with pytest.raises(DomainError):
            BetweenClassFn("log(x)", m=1)
        with pytest.raises(DomainError):
            BetweenClassFn("log(x)", m=2, c=0.0)

    def test_describe_mentions_levels(self):
        assert "xi_2" in BetweenClassFn("log(x)", m=2).describe()


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

    def test_class0_has_upper_bound_only(self):
        g, h = sandwich_bounds(0, 4)
        assert g is None
        assert h.c == 2.0
        with pytest.raises(DomainError):
            sandwich_bounds(0, 1)

    def test_handle_values_pinned(self):
        g, h = sandwich_bounds(1, 1)
        assert h(10.0) == 1865.1193669519116
        assert g(10.0) == 17.5462202454995
        assert h(1e4) == 105912.38886799965
        assert g(1e4) == 16825.815233873425
        assert (g.c, h.c) == (0.5, 2.0)

    def test_nested_description_pinned(self):
        assert sandwich_bounds(0, 4)[1].describe() == (
            "xi_3-shift by 2.0/H_3(inverse[xi_4-shift by 2.0/H_4(inverse["
            "xi_5-shift by 2.0/H_5(inverse[xi_6-shift by 2.0/H_6(inverse["
            "xi_6-shift by 2.0/H_6(xi_5)])])])])")

    def test_layer_range_guard(self):
        with pytest.raises(DomainError):
            sandwich_bounds(1, 5)
        with pytest.raises(DomainError):
            sandwich_bounds(-1, 1)

    def test_handles_are_increasing(self):
        g, h = sandwich_bounds(1, 1)
        xs = [10.0, 100.0, 1e4]
        for fn in (g, h):
            vals = [fn(x) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        # g lies below the scaling e*x, h above it
        for x in xs:
            assert g(x) < math.e * x < h(x)

    def test_increment_needs_scaling_factor(self):
        with pytest.raises(DomainError):
            scaled_xi_increment(1.0, 100.0)

    def test_increment_limit_at_towers(self):
        assert scaled_xi_increment(math.e, LIReal(20, 0.5)) == 1.0


class TestSeparation:
    def test_inverse_derivative_ratio_oracle(self):
        # f = 2x, g = x^2: (g^-1)'/(f^-1)' = (1/(2 sqrt x)) / (1/2)
        r = inverse_derivative_ratio("2*x", "x^2", 100.0)
        assert r == pytest.approx(0.1, rel=1e-9)

    def test_adjacent_classes_separate(self):
        rep = separation_check("2*x", "x^2", 1, 2)
        assert rep["in_scope"]
        assert rep["ok"]
        assert rep["final_ratio"] < rep["ratios"][0]

    def test_class_zero_out_of_scope(self):
        rep = separation_check("x+2", "2*x", 0, 1)
        assert not rep["in_scope"]
        assert "reason" in rep


class TestStaircases:
    def test_knot_validation(self):
        with pytest.raises(ValueError):
            Staircase([(1, 1)])
        with pytest.raises(ValueError):
            Staircase([(1, 1), (2, 1)])
        with pytest.raises(ValueError):
            Staircase([(2, 1), (2, 2)])

    def test_class1_returns_to_x_plus_one_exactly(self):
        F, f = staircase_class1()
        for k in range(1, 31):
            assert f(2 ** k - 1) == 2 ** k

    def test_class1_is_exact_rational(self):
        F, f = staircase_class1()
        assert isinstance(F(Fraction(5, 2)), Fraction)

    def test_class1_spacing_guard(self):
        with pytest.raises(ValueError):
            staircase_class1(a=[2, 3])

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

    def test_gallery_entries(self):
        g = gallery()
        assert set(g) >= {"wobbly_linear", "wobbly_power",
                          "staircase_class1", "staircase_class0"}
        assert g["wobbly_linear"]["class"] == 1
        assert callable(g["staircase_class0"]["builder"])
