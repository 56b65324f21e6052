import gc
import json
import math
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from growthcalc import abel, ackermann, cli, funcexpr, lixnum, orders
from growthcalc.funcexpr import (
    Binary, Call, Compose, Const, EvalError, NamedConst, Neg, ParseError,
    PrecisionError, Var, evaluate, parse, to_text,
)
from growthcalc.lixnum import DomainError, LIReal
from growthcalc.orders import Ladder
from growthcalc.xihier import HIER, XiHierarchy, default_hierarchy
from test_lixnum import lireals


def ev(text, x):
    return evaluate(parse(text), x)


class TestParsing:
    @pytest.mark.parametrize("text", [
        "x", "x+2", "2*x", "x^2", "exp(x)", "log(x)", "log_3(x)",
        "sqrt(x)+x/log(x)", "x*(3+sin(xi(x)))", "log(x) @ exp(x)",
        "-x+e", "xi_4(x)/2", "2^x^2",
    ])
    def test_roundtrip_through_text(self, text):
        e = parse(text)
        assert parse(to_text(e)) == e

    def test_equal_subtrees_are_one_object(self):
        e = parse("log(x+1)*log(x + 1) - (x+1)")
        assert e.left.left is e.left.right
        assert e.right is e.left.left.arg
        assert e == Binary("-", Binary("*", Call("log", parse("x+1")), Call("log", parse("x+1"))),
                           parse("x+1"))

    def test_power_is_right_associative(self):
        assert ev("2^3^2", 1.0) == pytest.approx(512.0)

    def test_composition_operator(self):
        # log @ exp is the identity
        assert ev("log(x) @ exp(x)", 3.7) == pytest.approx(3.7)

    def test_unknown_function_rejected(self):
        with pytest.raises(ParseError):
            parse("sinh(x)")

    def test_trailing_whitespace_is_skipped(self):
        assert parse("x ") == Var()

    @pytest.mark.parametrize("text,char,pos", [
        ("x $ 2", "$", 2), ("$", "$", 0), ("x\t #", "#", 3), ("  ?", "?", 2)])
    def test_unexpected_character_is_named_past_the_blanks(self, text, char, pos):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"unexpected character {char!r} at position {pos}"
        assert info.value.pos == pos

    @pytest.mark.parametrize("text,literal,pos", [
        ("1e400*x", "1e400", 0), ("x+1e400", "1e400", 2), ("x^ 2.5e308", "2.5e308", 3)])
    def test_literal_past_the_float_range_is_named(self, text, literal, pos):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"number {literal!r} is past the float range at position {pos}"
        assert info.value.pos == pos

    def test_largest_literals_parse(self):
        assert parse("1e308") == Const(1e308)
        assert parse("1.7976931348623157e308*x").left == Const(sys.float_info.max)

    def test_dangling_expression_rejected(self):
        with pytest.raises(ParseError):
            parse("x+")

    def test_deep_nesting_rejected(self):
        with pytest.raises(ParseError):
            parse("(" * 3000 + "x" + ")" * 3000)
        with pytest.raises(ParseError):
            parse("-" * 3000 + "x")

    def test_named_constants(self):
        assert ev("e", 0.0) == pytest.approx(math.e)
        assert ev("pi", 0.0) == pytest.approx(math.pi)


class TestEvaluation:
    @given(st.floats(min_value=0.5, max_value=50.0))
    def test_polynomial(self, x):
        assert ev("x^2+3*x+1", x) == pytest.approx(x * x + 3 * x + 1)

    def test_log_k_iterates(self):
        x = 1e10
        assert ev("log_2(x)", x) == pytest.approx(math.log(math.log(x)))

    def test_exp_overflow_promotes_to_tower(self):
        v = ev("exp(x)", 1e5)
        assert isinstance(v, LIReal)
        assert float(lixnum.ln_li(v)) == pytest.approx(1e5)

    def test_power_overflow_promotes(self):
        v = ev("x^x", 400.0)
        assert isinstance(v, LIReal)
        assert float(lixnum.ln_li(v)) == pytest.approx(400 * math.log(400))

    def test_product_overflow_promotes(self):
        assert ev("x*x", 1e308) == ev("x^2", 1e308)
        v = ev("2*x", 1e308)
        assert isinstance(v, LIReal)
        assert float(lixnum.ln_li(v)) == pytest.approx(
            math.log(2.0) + math.log(1e308), rel=1e-15)
        # a tower holds no sign: a negative product past the range is refused,
        # as -(2*x) is, and a positive one promotes through the magnitudes
        with pytest.raises(DomainError, match=r"^negative tower product -2\.0 \* 1e\+308"):
            ev("-2*x", 1e308)
        assert ev("(-2)*(-x)", 1e308) == ev("2*x", 1e308)

    def test_quotient_overflow_promotes(self):
        # as a product does, through the magnitudes of the operands
        assert ev("x/1e-10", 1e308) == ev("x*1e10", 1e308)
        assert ev("x/(1/x)", 1e308) == ev("x*x", 1e308)
        assert ev("(-x)/(-1e-10)", 1e308) == ev("x/1e-10", 1e308)
        with pytest.raises(DomainError, match=r"^negative tower quotient 1e\+308 / -1e-10: "
                                              r"a tower has no sign$"):
            ev("x/(-1e-10)", 1e308)
        # both operands at or below level 3: lixnum.div's float branch
        # takes the log step, and Fn.float reads inf
        for a, x in [(1.0, 1e-310), (1e6, 1e-305)]:
            v = ev(f"{a!r}/x", x)
            assert float(lixnum.ln_li(v)) == pytest.approx(math.log(a) - math.log(x),
                                                           rel=1e-12)
            assert funcexpr.Fn(f"{a!r}/x").float(x) == math.inf

    @pytest.mark.parametrize("below_1,above_1,x", [
        ("0.5^x", "2^(-x)", -2000.0),
        ("0.5^x", "2^(-x)", -1e200),
        # the exponent itself overflows and is formed on towers
        ("1e-10^x", "1e10^(-x)", -1e308),
    ])
    def test_power_overflow_promotes_for_a_base_below_1(self, below_1, above_1, x):
        v = ev(below_1, x)
        assert isinstance(v, LIReal) and v == ev(above_1, x)

    def test_tower_input_stays_exact_through_xi(self):
        x = LIReal(40, 0.25)
        assert ev("xi(x)", x) == Fraction(40) + Fraction(0.25)

    def test_fraction_arithmetic_is_exact(self):
        big = Fraction(10) ** 40
        v = ev("x+1", big)
        assert v == big + 1

    def test_fraction_log_near_one_keeps_digits(self):
        ratio = 1 + Fraction(1, 10 ** 30)
        v = ev("log(x)", ratio)
        assert v == pytest.approx(1e-30, rel=1e-12)

    @pytest.mark.parametrize("v", [
        Fraction(1, 2), Fraction(2),
        1 + Fraction(1, 2 ** 60), 1 - Fraction(1, 2 ** 60),
        # one step inside and one outside each end of 1/2 < v < 2
        Fraction(2 ** 60 + 1, 2 ** 61 + 1), Fraction(2 ** 60, 2 ** 61 + 1),
        Fraction(2 ** 62 + 1, 2 ** 61 + 1), Fraction(2 ** 62 + 3, 2 ** 61 + 1),
        Fraction(3, 7), Fraction(10 ** 30 + 7, 10 ** 30),
        Fraction(10) ** 400 + Fraction(1, 3), -Fraction(10) ** 400 - Fraction(1, 3),
        Fraction(0), Fraction(-3, 7),
    ])
    def test_fraction_log_is_the_fraction_formula(self, v):
        def formula(v):  # on Fraction comparisons and float()
            if Fraction(1, 2) < v < 2:
                return math.log1p(float(v - 1))
            try:
                x = float(v)
            except OverflowError:  # the logs of numerator and denominator
                if v > 0:
                    return math.log(v.numerator) - math.log(v.denominator)
                x = -math.inf
            if x <= 0:
                raise EvalError(f"log of non-positive value {x!r}")
            return math.log(x)

        assert _outcome(funcexpr._log, v) == _outcome(formula, v)

    def test_sin_on_deep_tower_is_precision_error(self):
        with pytest.raises(PrecisionError):
            ev("sin(x)", LIReal(5, 0.5))

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1/(x-x)", 3.0)

    def test_log_of_negative(self):
        with pytest.raises(EvalError):
            ev("log(x-4)", 3.0)


# an exact rational past the float range: xi at the tower L(10^400):0.5
_HUGE = Fraction(10) ** 400 + Fraction(1, 2)


class TestPastTheFloatRange:
    """An int or Fraction that float() cannot hold is taken as its tower,
    and its log is the one to_li takes: log numerator - log denominator."""

    @pytest.mark.parametrize("v", [_HUGE, 10 ** 400, Fraction(3 ** 1000, 7)])
    def test_log_is_the_log_of_numerator_and_denominator(self, v):
        want = math.log(v.numerator) - math.log(v.denominator)
        assert ev("log(x)", v) == want
        assert ev("xi_2(x)", v) == want
        assert ev("log_2(x)", v) == math.log(want)

    def test_cli_answers_log_of_xi(self, capsys):
        code = cli.main(["eval", "log(xi(x))", "--at", f"L{10 ** 400}:0.5"])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert json.loads(out)["points"][0]["value"] == 921.0340371976183

    @pytest.mark.parametrize("text", ["exp(x)", "sqrt(x)", "x^2", "2^x", "xi_0(x)",
                                      "xi_1(x)", "xi(x)", "chi(x)"])
    def test_tower_functions_answer_as_on_the_tower(self, text):
        assert ev(text, _HUGE) == ev(text, lixnum.to_li(_HUGE))

    def test_power_past_the_range_is_not_a_finite_exp(self):
        # 2^1024 = exp(1024 log 2) as a tower, though math.exp of that
        # rounded product is the finite 1.7976931348622732e308
        assert evaluate(parse("2^x"), 1024.0) == LIReal(4, 0.6322001994373889)

    def test_exp_of_a_huge_negative_is_zero(self):
        assert ev("exp(x)", -_HUGE) == 0.0

    @pytest.mark.parametrize("text", ["log(x)", "sqrt(x)"])
    def test_non_positive_keeps_its_error(self, text):
        with pytest.raises(EvalError):
            ev(text, -_HUGE)

    @pytest.mark.parametrize("v", [_HUGE, -_HUGE])
    def test_sin_is_a_precision_error(self, v):
        with pytest.raises(PrecisionError):
            ev("sin(x)", v)

    def test_low_inverses_answer_on_the_tower(self):
        t = lixnum.to_li(_HUGE)
        assert HIER.xi_k_inv(0, _HUGE) == lixnum.add(t, lixnum.to_li(math.e))
        assert HIER.xi_k_inv(1, _HUGE) == lixnum.mul(t, lixnum.to_li(math.e))
        assert HIER.xi_k_inv(2, _HUGE) == lixnum.exp_li(t)


class TestDifferentiation:
    @pytest.mark.parametrize("text,x,expected", [
        ("x^2", 3.0, 6.0),
        ("exp(x)", 2.0, math.exp(2.0)),
        ("log(x)", 5.0, 0.2),
        ("sqrt(x)", 4.0, 0.25),
        ("x*log(x)", math.e, 2.0),
        ("log_2(x)", 20.0, 1.0 / (20.0 * math.log(20.0))),
    ])
    def test_symbolic_derivative_oracles(self, text, x, expected):
        d = funcexpr.differentiate(parse(text))
        assert evaluate(d, x) == pytest.approx(expected)

    @pytest.mark.parametrize("text,value", [
        ("2*x+3*x", 5.0),  # _add folds two constants
        ("3*(2*x)", 6.0),  # _mul folds two constants
        ("x+1/3", 1.0),  # the derivative of 1/3 has a zero numerator
    ])
    def test_constant_derivatives_fold(self, text, value):
        assert funcexpr.differentiate(parse(text)) == Const(value)

    def test_xi_derivative_is_reciprocal_chi(self):
        hier = default_hierarchy()
        d = funcexpr.differentiate(parse("xi(x)"))
        x = 50.0
        assert evaluate(d, x) == pytest.approx(
            1.0 / float(hier.chi(x)))

    @pytest.mark.parametrize("k", [4, 5, 6])
    @pytest.mark.parametrize("x", [10.0, 50.0, 1e3, 1e6])
    def test_dxi_k_matches_central_difference(self, k, x):
        # the chain-rule product against an independent difference of xi_k,
        # at points whose stencil stays clear of the pullback seams
        d = funcexpr.differentiate(parse(f"xi_{k}(x)"))
        h = 1e-6 * x
        num = (float(HIER.xi_k(k, x + h)) - float(HIER.xi_k(k, x - h))) / (2 * h)
        assert evaluate(d, x) == pytest.approx(num, rel=1e-6)

    @pytest.mark.parametrize("text,k", [("xi(x)", 3)] + [(f"xi_{k}(x)", k) for k in range(9)])
    def test_every_xi_level_differentiates_to_a_dxi_node(self, text, k):
        # xihier holds the derivative of every level; differentiate none
        assert funcexpr.differentiate(parse(text)) == Call("dxi_k", Var(), param=k)

    # ln (level 2) has no value below 0
    @pytest.mark.parametrize("k,x", [(k, x) for k in range(4) for x in (-2.0, 0.5, 2.5, 50.0)
                                     if k != 2 or x > 0])
    def test_low_levels_match_central_difference(self, k, x):
        h = 1e-6 * max(1.0, abs(x))
        num = (float(HIER.xi_k(k, x + h)) - float(HIER.xi_k(k, x - h))) / (2 * h)
        assert funcexpr.Fn(f"xi_{k}(x)").derivative(x) == pytest.approx(num, rel=1e-6)

    def test_xi_derivative_below_zero(self):
        # xi(x) = e^x - 1 below 0, so xi'(x) = e^x
        assert funcexpr.Fn("xi(x)").derivative(-2.0) == math.exp(-2.0)

    def test_ln_level_derivative_has_no_value_where_ln_has_none(self):
        with pytest.raises(lixnum.DomainError, match="^log of non-positive value -1.0$"):
            funcexpr.Fn("xi_2(x)").derivative(-1.0)

    def test_composition_by_the_chain_rule(self):
        assert funcexpr.Fn("log(x) @ x^2").derivative(3.0) == pytest.approx(2 / 3)

    def test_log_0_is_the_identity(self):
        assert funcexpr.differentiate(parse("log_0(x)")) == Const(1.0)
        assert funcexpr.Fn("log_0(x)").derivative(7.0) == 1.0

    @pytest.mark.parametrize("x", [0.3, 2.5, 40.0])
    def test_chi_derivative_matches_central_difference(self, x):
        # chi(2x)' = 2 chi'(2x); chi' is itself a difference, of step 1e-5
        h = 1e-7 * max(1.0, x)
        num = (float(HIER.chi(2 * (x + h))) - float(HIER.chi(2 * (x - h)))) / (2 * h)
        assert funcexpr.Fn("chi(2*x)").derivative(x) == pytest.approx(num, rel=1e-6)

    @given(st.floats(min_value=1.5, max_value=30.0))
    def test_derivative_matches_central_difference(self, x):
        d = funcexpr.differentiate(parse("x^2+x/log(x)"))
        h = 1e-6 * x
        num = (ev("x^2+x/log(x)", x + h) - ev("x^2+x/log(x)", x - h)) / (2 * h)
        assert evaluate(d, x) == pytest.approx(num, rel=1e-5)


class TestInversion:
    @pytest.mark.parametrize("text,y,expected", [
        ("exp(x)", 100.0, math.log(100.0)),
        ("x^2", 49.0, 7.0),
        ("2*x", 9.0, 4.5),
    ])
    def test_invert_at_oracles(self, text, y, expected):
        x = funcexpr.invert_at(parse(text), y)
        assert x == pytest.approx(expected, rel=1e-10)

    def test_invert_survives_overflowing_probe(self):
        # bracket expansion will evaluate exp far past the float range
        x = funcexpr.invert_at(parse("exp(x)"), 1e6, bracket_hint=(1.0, 1e6))
        assert x == pytest.approx(math.log(1e6), rel=1e-10)

    @pytest.mark.parametrize("text,y", [
        ("exp(x)", 1e100), ("x^2", 1e3), ("2^x", 5.0), ("log_2(x)", 5.0),
        ("x/3+1", -7.0),
    ])
    def test_uses_the_derived_inverse(self, text, y):
        e = parse(text)
        assert funcexpr.invert_at(e, y) == evaluate(funcexpr.invert(e), y)

    def test_bisection_fallback_without_derivative(self):
        # abs has no symbolic derivative, so no Newton step; the second
        # function also decreases on the bracket
        assert funcexpr.invert_at(parse("abs(x)^3"), 27.0) == pytest.approx(
            3.0, rel=1e-12)
        x = funcexpr.invert_at(parse("abs(1/x)"), 0.25, bracket_hint=(1.0, 10.0))
        assert x == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("text,ys", [
        ("x^2", (49.0, 1e6)),  # through the derived inverse
        ("x+log(x)", (5.0, 1e3)),  # no inverse: Newton and bisection on f'
    ])
    def test_fn_spec_derives_once_and_answers_as_text(self, monkeypatch, text, ys):
        # an Fn is used as it is, so its inverse and derivative are derived
        # on the first call and kept for the next
        calls = {"invert": 0, "differentiate": 0}

        def counted(name):
            real = getattr(funcexpr, name)

            def wrapper(expr):
                calls[name] += 1
                return real(expr)
            return wrapper

        want = [funcexpr.invert_at(text, y) for y in ys]
        for name in calls:
            monkeypatch.setattr(funcexpr, name, counted(name))
        fn = funcexpr.Fn(text)
        got = [funcexpr.invert_at(fn, ys[0])]
        assert calls["invert"] == 1
        calls.update(invert=0, differentiate=0)
        got.append(funcexpr.invert_at(fn, ys[1]))
        assert got == want
        assert calls == {"invert": 0, "differentiate": 0}

    @pytest.mark.parametrize("text,y,expected", [
        ("x^3+x", -10.0, -2.0),
        ("x^3+x", 0.0, 0.0),
        ("x+log(x)", -10.0, 4.539786874921537e-05),
        ("abs(x)^3", 0.125, 0.5),
    ])
    def test_default_bracket_reaches_roots_near_and_below_zero(self, text, y, expected):
        # from [1, 2], lo steps through 0 for x^3+x; log is undefined and
        # abs(x)^3 is no lower below 0, so lo is quartered there instead
        x = funcexpr.invert_at(parse(text), y)
        assert x == pytest.approx(expected, rel=1e-12, abs=1e-300)
        if text == "x+log(x)":
            assert x > 0


# (text, lo, hi): x is drawn log-uniformly from [lo, hi]
_INVERTIBLE = [
    ("x+2", 1.0, 1e6),
    ("2*x", 1e-6, 1e300),
    ("2^x", 0.5, 1000.0),
    ("x^1.5", 1e-3, 1e200),
    ("exp(x)", 1.0, 700.0),
    ("log(x)", 1e-300, 1e300),
    ("log_2(x)", 1.5, 1e300),
    ("exp(x)/2+1", 0.5, 700.0),
    ("(x+1) @ (2*x)", 1.0, 1e6),
    ("sqrt(x)+3", 1.0, 1e200),
]


class TestSymbolicInversion:
    @pytest.mark.parametrize("text,lo,hi", _INVERTIBLE)
    @given(u=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40)
    def test_round_trip(self, text, lo, hi, u):
        f = parse(text)
        inv = funcexpr.invert(f)
        x = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        assert evaluate(inv, evaluate(f, x)) == pytest.approx(x, rel=1e-12)

    @pytest.mark.parametrize("text,expected", [
        ("x+2", "x-2"),
        ("2*x", "x/2"),
        ("2^x", "log(x)/log(2)"),
    ])
    def test_paper_generators(self, text, expected):
        assert to_text(funcexpr.invert(parse(text))) == expected

    @pytest.mark.parametrize("text", ["x+sqrt(x)", "x*log(x)", "sin(x)", "xi(x)", "-2*x", "x^3",
                                      "sin(x) @ (x+1)"])
    def test_not_invertible(self, text):
        assert funcexpr.invert(parse(text)) is None

    @pytest.mark.parametrize("text", ["x+log(2^1e300)", "x*log(1e300*1e300)"])
    def test_tower_constant_is_not_folded(self, text):
        # the compiled map keeps log(2^1e300) as a tower, whose sum with x
        # need not be the float sum
        assert funcexpr.invert(parse(text)) is None
        assert funcexpr.affine_step(parse(text)) is None


# subtrees without x, x@c among them (x@c is the constant c)
_CONSTS = st.recursive(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-300, 1e300]).map(Const),
              st.sampled_from([NamedConst("e"), NamedConst("pi")])),
    lambda c: st.one_of(
        c.map(Neg),
        st.builds(Binary, st.sampled_from("+-*/^"), c, c),
        st.builds(Call, st.sampled_from(["exp", "log", "sqrt"]), c),
        st.builds(Compose, st.just(Var()), c),
    ),
    max_leaves=4,
)


class TestAffineStep:
    @pytest.mark.parametrize("text,step", [
        ("x+2.5", ("+", 2.5)),
        ("log(2)+x", ("+", 0.6931471805599453)),
        ("x-(0-2)", ("+", 2.0)),
        ("x-(x@2)", ("+", -2.0)),  # x@2 is the constant 2
        ("2.5*x", ("*", 2.5)),
        ("x*pi", ("*", math.pi)),
        ("x/pi", ("*", 0.3183098861837907)),
        ("2-x", None),
        ("x*(0-2)", None),
        ("x/0", None),
        ("x+x", None),
        ("2^x", None),
        ("x+sqrt(x)", None),
    ])
    def test_step(self, text, step):
        assert funcexpr.affine_step(parse(text)) == step

    @pytest.mark.parametrize("text", ["x+0", "x-0", "0+x", "x*1", "1*x", "x/1", "x+(1-1)"])
    def test_identity_map_has_no_step(self, text):
        # invert simplifies the inverse of an identity map to x
        assert to_text(funcexpr.invert(parse(text))) == "x"
        assert funcexpr.affine_step(parse(text)) is None

    @given(st.sampled_from("+-*/^"), _CONSTS, st.booleans(), st.floats(1.0, 1e6))
    @example("+", Call("log", Binary("^", Const(2.0), Const(1e300))), False, 1.0)
    @example("*", Call("log", Binary("*", Const(1e300), Const(1e300))), False, 1.0)
    def test_step_is_the_map(self, op, c, x_left, t):
        e = Binary(op, Var(), c) if x_left else Binary(op, c, Var())
        step = funcexpr.affine_step(e)
        if step is None:
            return
        kind, s = step
        if kind == "+":
            assert evaluate(e, t) == t + s
        else:
            assume(1e-100 < s < 1e100)
            assert abs(evaluate(e, t) - s * t) <= 2 * math.ulp(s * t)


class TestLogAtLevelOne:
    @pytest.mark.parametrize("u", ["x", "x+3", "exp(x)"])
    def test_log_is_log_1(self, u):
        log, log1 = parse(f"log({u})"), parse(f"log_1({u})")
        d, d1 = funcexpr.differentiate(log), funcexpr.differentiate(log1)
        inv, inv1 = funcexpr.invert(log), funcexpr.invert(log1)
        assert to_text(d) == to_text(d1)
        assert to_text(inv) == to_text(inv1)
        for x in (0.5, 2.0, 1e5, LIReal(3, 0.5)):
            assert evaluate(log, x) == evaluate(log1, x)
            assert evaluate(d, x) == evaluate(d1, x)
            assert evaluate(inv, x) == evaluate(inv1, x)


def _bad_fp(kind):
    def fp(x):
        if kind == "raises":
            raise EvalError("no derivative here")
        return {"zero": 0.0, "nan": math.nan, "negative": -1.0, "huge": 1e300}[kind]
    return fp


class TestNewtonBisection:
    @pytest.mark.parametrize("text", ["x+sqrt(x)", "x^1.5", "x+log(x)"])
    @given(y=st.floats(min_value=2.0, max_value=1e200))
    @settings(max_examples=60)
    def test_same_floats_as_plain_bisection(self, text, y):
        e = parse(text)
        fn = lambda t: float(evaluate(e, t))  # noqa: E731
        plain = funcexpr._bisect(fn, y, 1.0, y)
        assert funcexpr._bisect(fn, y, 1.0, y, funcexpr.Fn(e).derivative) == plain
        # a bracket whose lower end is nearer y starts Newton there
        lo = plain * (1 - 1e-6)
        assert (funcexpr._bisect(fn, y, lo, 2 * y, funcexpr.Fn(e).derivative)
                == funcexpr._bisect(fn, y, lo, 2 * y))
        # start brackets wholly below and wholly above the root are widened
        for lo, hi in [(plain / 8, plain / 4), (2 * y + 1, 4 * y + 4)]:
            assert funcexpr._bisect(fn, y, lo, hi) == plain
            assert funcexpr._bisect(fn, y, lo, hi, funcexpr.Fn(e).derivative) == plain

    @given(y=st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=60)
    def test_widening_through_zero(self, y):
        e = parse("x+2")
        fn = lambda t: float(evaluate(e, t))  # noqa: E731
        fp = funcexpr.Fn(e).derivative
        plain = funcexpr._bisect(fn, y, y - 3, y - 1)
        for lo, hi in [(-8.0, 0.0), (-1e7, -1e7 + 1)]:
            assert funcexpr._bisect(fn, y, lo, hi) == plain
            assert funcexpr._bisect(fn, y, lo, hi, fp) == plain

    def test_unbracketable_target_raises(self):
        with pytest.raises(EvalError, match="could not bracket y=1"):
            funcexpr._bisect(lambda t: -1 / t, 1.0, 1.0, 2.0)

    @pytest.mark.parametrize("kind", ["raises", "zero", "nan", "negative", "huge"])
    @given(y=st.floats(min_value=2.0, max_value=1e12))
    @settings(max_examples=20)
    def test_wrong_derivative_changes_nothing(self, kind, y):
        e = parse("x+sqrt(x)")
        fn = lambda t: float(evaluate(e, t))  # noqa: E731
        assert funcexpr._bisect(fn, y, 1.0, y, _bad_fp(kind)) == funcexpr._bisect(fn, y, 1.0, y)


_SPEC_FORMS = {"text": str, "FuncExpr": parse, "Fn": funcexpr.Fn}


def _through_every_layer(form):
    ladder = Ladder.geometric(10.0, 10.0, 12)
    return [
        orders.order_of(form("log(x)"), form("2*x"), ladder).residuals,
        orders.check_R(("R1",), form("log(x)"), ladder)[0].margins,
        abel.solve_abel(form("2*x"), A=1.0).eval(37.0),
        funcexpr.invert_at(form("x+sqrt(x)"), 12.0),
        ackermann.op_L(form("2*x"))(5.0),
    ]


class _Doubling:
    """A callable with a method named inverse, which Fn does not read."""

    def __call__(self, x):
        return 2.0 * x

    def inverse(self, y):
        return y / 2.0


class TestFn:
    @pytest.mark.parametrize("form", sorted(_SPEC_FORMS))
    def test_every_spec_form_gives_the_same_results(self, form):
        got = _through_every_layer(_SPEC_FORMS[form])
        assert got == _through_every_layer(str)
        residuals, margins, F, root, lowered = got
        assert residuals[-1] == pytest.approx(math.log(2.0), rel=1e-12)
        assert margins[-1] < 1e-9
        assert F == 5.15625  # 37 = 2^5 * 1.15625, linear seed on [1, 2]
        assert root == 9.0
        assert lowered == 7.0

    def test_inverse_order(self):
        # a given inverse first, even over the derived
        assert funcexpr.Fn("2*x", inverse="x/3").inverse.text == "x/3"
        assert funcexpr.Fn(_Doubling(), inverse=lambda y: -y).inverse(8.0) == -8.0
        # a callable's own .inverse is not an inverse: Fn(f, inverse=...) is
        # the one way to attach one, and an Fn copy keeps it
        assert funcexpr.Fn(_Doubling()).inverse is None
        doubling = funcexpr.Fn(_Doubling(), inverse=_Doubling().inverse)
        assert funcexpr.Fn(doubling, text="double").inverse(8.0) == 4.0
        # then the exact inverse derived from the expression
        assert funcexpr.Fn(parse("2*x")).inverse.text == "x/2"
        # then none
        assert funcexpr.Fn("x+sqrt(x)").inverse is None
        assert funcexpr.Fn(lambda x: 2.0 * x).inverse is None

    def test_fn_of_fn_keeps_fields_and_takes_overrides(self):
        inner = funcexpr.Fn("2*x")
        outer = funcexpr.Fn(inner, text="double")
        assert (outer.text, inner.text) == ("double", "2*x")
        assert outer.expr is inner.expr and outer.raw is inner.raw
        assert outer.inverse.text == "x/2"

    def test_raw_and_float_values(self):
        fn = funcexpr.Fn("exp(exp(x))")
        assert isinstance(fn.raw(10.0), LIReal)
        assert fn.float(10.0) == math.inf
        assert fn(1.0) == fn.raw(1.0) == fn.float(1.0)

    @pytest.mark.parametrize("spec,x,want", [
        ("exp(exp(x))", 1e3, math.inf),
        ("x", LIReal(-1, 0.0), -math.inf),  # ln 0
        ("x", -Fraction(10) ** 400, -math.inf),
        ("x", Fraction(10) ** 400 + Fraction(1, 3), math.inf),
    ])
    def test_float_maps_a_value_past_the_range_by_its_sign(self, spec, x, want):
        assert funcexpr.Fn(spec).float(x) == want

    @pytest.mark.parametrize("spec,x,message", [
        ("-(x*x)", 1e200, "cannot be negated"),
        ("x*(-x)", 1e200, "negative tower product"),
        ("xi_4(x)", 1.0, "below its base"),
    ])
    def test_float_lets_an_evaluation_error_through(self, spec, x, message):
        with pytest.raises(DomainError, match=message):
            funcexpr.Fn(spec).float(x)

    def test_derivative(self):
        assert funcexpr.Fn("x^2").derivative(3.0) == 6.0
        assert funcexpr.Fn(lambda x: x * x).derivative(3.0) == pytest.approx(6.0, rel=1e-9)
        with pytest.raises(EvalError):
            funcexpr.Fn("abs(x)").derivative

    def test_not_a_spec(self):
        with pytest.raises(TypeError):
            funcexpr.Fn(3.0)


def reference_evaluate(expr, x):
    """The recursive tree walker the library evaluated with before
    compile_expr: one isinstance dispatch per node per call, on the same
    _binary, _pow, _exp and _log helpers."""
    if isinstance(expr, Var):
        return x
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Binary):
        a, b = reference_evaluate(expr.left, x), reference_evaluate(expr.right, x)
        return funcexpr._pow(a, b) if expr.op == "^" else funcexpr._binary(expr.op, a, b)
    if isinstance(expr, Call):
        v = reference_evaluate(expr.arg, x)
        fn = expr.fn
        if fn == "exp":
            return funcexpr._exp(v)
        if fn == "log":
            return funcexpr._log(v)
        if fn == "log_k":
            for _ in range(expr.param):
                v = funcexpr._log(v)
            return v
        if fn == "sqrt":
            if not isinstance(v, LIReal):
                try:
                    float(v)
                except OverflowError:  # past the float range: a tower
                    v = lixnum.to_li(v) if v > 0 else -math.inf
            if isinstance(v, LIReal):
                return funcexpr._pow(v, 0.5)
            vf = float(v)
            if vf < 0:
                raise EvalError(f"sqrt of negative value {vf!r}")
            return math.sqrt(vf)
        if fn == "sin":
            try:
                return math.sin(float(v))
            except (lixnum.DomainError, OverflowError) as exc:
                raise PrecisionError(f"sin needs a float argument ({exc}): "
                                     "argument reduction is meaningless") from None
        if fn == "abs":
            if isinstance(v, LIReal):
                if v.level == -1:
                    return lixnum.to_li(-float(v))
                return v
            return abs(v)
        if fn == "xi":
            return HIER.xi_k(3, v)
        if fn == "xi_k":
            return HIER.xi_k(expr.param, v)
        if fn == "chi":
            return HIER.chi(v)
        if fn == "dxi_k":
            return HIER._xi_k_deriv(expr.param, float(v))
        if fn == "dchi":
            return funcexpr._numdiff(HIER.chi, float(v))
        raise EvalError(f"unknown function {fn!r}")
    if isinstance(expr, NamedConst):
        return math.e if expr.name == "e" else math.pi
    if isinstance(expr, Neg):
        v = reference_evaluate(expr.arg, x)
        if isinstance(v, LIReal):
            if v.level > lixnum.EXACT_ARITH_MAX_LEVEL:
                raise lixnum.DomainError(f"the level-index value {lixnum.format_li(v)} "
                                         "cannot be negated")
            return lixnum.sub(LIReal(0, 0.0), v)
        return -v
    if isinstance(expr, Compose):
        return reference_evaluate(expr.outer, reference_evaluate(expr.inner, x))
    raise TypeError(f"not a FuncExpr: {expr!r}")


# expressions drawn from the DSL grammar: every call name, unary minus, @
# and constants, including the zero and negative constants that reach the
# edges of log, sqrt and ^
_PLAIN_CALLS = ("exp", "log", "sqrt", "sin", "abs", "xi", "chi", "dchi")
_LEAVES = st.one_of(
    st.just(Var()),
    st.just(Var()),  # x twice as often as each constant kind
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-300, 710.0, 1e308]).map(Const),
    st.sampled_from([NamedConst("e"), NamedConst("pi")]),
)


def _nodes(children):
    return st.one_of(
        children.map(Neg),
        st.builds(Binary, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(_PLAIN_CALLS), children),
        st.builds(Call, st.just("log_k"), children, st.integers(0, 3)),
        st.builds(Call, st.just("xi_k"), children, st.integers(0, 6)),
        st.builds(Call, st.just("dxi_k"), children, st.integers(0, 5)),
        st.builds(Compose, children, children),
    )


EXPRS = st.recursive(_LEAVES, _nodes, max_leaves=8)
POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -2.5, -1e300, 1e-300, 0.5, 2.0, 1e154,
                     1e308]),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=700.0, max_value=710.0),
    st.integers(-5, 10 ** 6),
    st.just(10 ** 400),
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    st.just(Fraction(10) ** 400 + Fraction(1, 3)),
    lireals(st.integers(-1, 6), st.floats(0.0, 0.99)),
    st.builds(LIReal, st.just(40), st.floats(0.0, 0.99)),
)


SUBTREES = EXPRS.filter(lambda e: not isinstance(e, (Var, Const, NamedConst)))


class TestParseTrees:
    X = Var()

    @pytest.mark.parametrize("text,tree", [
        ("x-2-3", Binary("-", Binary("-", X, Const(2.0)), Const(3.0))),
        ("x/2/3", Binary("/", Binary("/", X, Const(2.0)), Const(3.0))),
        ("x-2*3", Binary("-", X, Binary("*", Const(2.0), Const(3.0)))),
        ("2*x+1 @ log(x)", Compose(Binary("+", Binary("*", Const(2.0), X), Const(1.0)), Call("log", X))),
        ("log(x) @ exp(x) @ x", Compose(Compose(Call("log", X), Call("exp", X)), X)),
        ("-x^2", Neg(Binary("^", X, Const(2.0)))),
        ("2^-x", Binary("^", Const(2.0), Neg(X))),
        ("2^3^2", Binary("^", Const(2.0), Binary("^", Const(3.0), Const(2.0)))),
        ("-2*x", Binary("*", Neg(Const(2.0)), X)),
    ])
    def test_associativity_and_levels(self, text, tree):
        assert parse(text) == tree

    @settings(max_examples=300)
    @given(st.recursive(
        st.one_of(_LEAVES, st.floats(min_value=0.0, allow_infinity=False).map(Const)),
        _nodes, max_leaves=12))
    def test_text_round_trip(self, tree):
        # every binary operator, @, Neg, Call and non-negative finite constants
        assert parse(to_text(tree)) == tree

    def test_parenthesised_x_nested_120_deep_parses(self):
        # each parenthesis level costs the parser a few Python frames: a
        # parser that spends many more a level fails here inside pytest
        assert parse("(" * 120 + "x" + ")" * 120) == Var()


@st.composite
def _planted(draw):
    """One drawn non-leaf subtree, one object, at 2-4 sites, each site
    under + - * / ^, log_k, xi_k or @ with a drawn other side."""
    sub = draw(SUBTREES)

    def site():
        kind = draw(st.sampled_from(["+", "-", "*", "/", "^", "log_k", "xi_k", "@", ""]))
        if kind in ("log_k", "xi_k"):
            return Call(kind, sub, draw(st.integers(0, 3 if kind == "log_k" else 6)))
        if not kind:
            return sub
        other = draw(EXPRS)
        a, b = (sub, other) if draw(st.booleans()) else (other, sub)
        return Compose(a, b) if kind == "@" else Binary(kind, a, b)

    e = site()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from("+-*/^@"))
        e = Compose(e, site()) if op == "@" else Binary(op, e, site())
    return e


def _outcome(f, *args):
    try:
        v = f(*args)
    except Exception as exc:  # the type and message are the outcome
        return "raises", type(exc), str(exc)
    return "value", type(v), repr(v)


class TestCompiledEvaluation:
    @settings(max_examples=400)
    @given(EXPRS, POINTS)
    @example(parse("x*2"), 1e308)  # a float product past the range promotes
    @example(parse("exp(x)"), 709.9)  # so does exp just below 710
    @example(parse("(x+x)^2"), 1e308)  # inf^2 is a DomainError, not inf
    def test_matches_the_reference_walker(self, expr, x):
        assert _outcome(evaluate, expr, x) == _outcome(reference_evaluate, expr, x)

    @given(st.lists(st.sampled_from("+-"), min_size=1, max_size=40), POINTS)
    def test_flat_sums_match_the_reference_walker(self, ops, x):
        text = "x" + "".join(f"{op}sqrt(x)" if i % 2 else f"{op}{i}"
                             for i, op in enumerate(ops))
        e = parse(text)
        assert _outcome(evaluate, e, x) == _outcome(reference_evaluate, e, x)

    @settings(max_examples=300)
    @given(_planted(), POINTS)
    @example(parse("log(x+1)*log(x+1)"), -1.0)  # both sites would raise
    @example(parse("(x-x)/(x-x) @ log(x)"), 1.0)
    @example(parse("xi_4(x/3) + log_2(x/3) ^ (x/3)"), Fraction(9))
    def test_repeated_subtrees_match_the_reference_walker(self, expr, x):
        assert _outcome(evaluate, expr, x) == _outcome(reference_evaluate, expr, x)

    @settings(max_examples=25)
    @given(SUBTREES, st.sets(st.integers(0, 2999), min_size=2, max_size=4), POINTS)
    def test_repeated_subtree_in_a_long_flat_sum(self, sub, sites, x):
        terms = [sub if i in sites else Var() if i % 2 else Const(float(i))
                 for i in range(3000)]
        ops = ["-" if i % 3 == 0 else "+" for i in range(3000)]
        e = terms[0]
        for op, t in zip(ops[1:], terms[1:]):
            e = Binary(op, e, t)

        def reference(x):
            # the walker's left-to-right order, one term at a time: on the
            # whole sum it would recurse 3,000 deep
            acc = reference_evaluate(terms[0], x)
            for op, t in zip(ops[1:], terms[1:]):
                acc = funcexpr._binary(op, acc, reference_evaluate(t, x))
            return acc

        assert _outcome(evaluate, e, x) == _outcome(reference, x)

    @pytest.mark.parametrize("text,per_point", [
        ("chi(x) + log(chi(x)) * chi(x)^2", 1),
        ("(x+chi(x)+1) * (x+chi(x)+1-2)", 1),  # a link of a + chain
        ("xi_4(chi(x)) - 1/xi_4(chi(x))", 1),
        ("(chi(x)+chi(x)) @ (2*chi(x))", 2),  # two arguments: x and 2 chi(x)
    ])
    def test_a_repeated_subtree_runs_once_a_point(self, monkeypatch, text, per_point):
        calls = []
        chi = XiHierarchy.chi
        monkeypatch.setattr(XiHierarchy, "chi", lambda self, v: calls.append(v) or chi(self, v))
        e = parse(text)
        f = funcexpr.compile_expr(e)
        for x in (3.0, 10.0, Fraction(7, 2), LIReal(3, 0.5), 3.0):
            calls.clear()
            got = f(x)
            assert len(calls) == per_point and calls[0] is x
            calls.clear()
            assert _outcome(lambda: got) == _outcome(reference_evaluate, e, x)
            assert len(calls) > per_point

    def test_the_slot_matches_the_argument_object(self):
        # equal arguments of another type are evaluated again
        f = funcexpr.compile_expr(parse("(x/3) * (x/3)"))
        assert [f(3.0), f(Fraction(3)), f(3), f(3.0)] == [1.0, 1, 1, 1.0]
        assert [type(f(v)) for v in (3.0, Fraction(3), 3.0)] == [float, Fraction, float]

    def test_long_flat_sum_needs_no_recursion(self):
        assert ev("+".join(["x"] * 3000), 2.0) == 6000.0

    def test_fn_compiles_once_when_built(self, monkeypatch):
        calls = []
        compile_expr = funcexpr.compile_expr
        monkeypatch.setattr(funcexpr, "compile_expr",
                            lambda e: calls.append(e) or compile_expr(e))
        fn = funcexpr.Fn("x+sqrt(x)")
        assert calls == [fn.expr]
        for i in range(10):
            (fn.float, fn.raw, fn)[i % 3](float(i))
        assert calls == [fn.expr]

    def test_copies_share_the_one_compile(self, monkeypatch):
        calls = []
        compile_expr = funcexpr.compile_expr
        monkeypatch.setattr(funcexpr, "compile_expr",
                            lambda e: calls.append(e) or compile_expr(e))
        fn = funcexpr.Fn("x+sqrt(x)")
        copy = funcexpr.Fn(fn, text="f")
        assert [copy(4.0), fn.float(4.0), copy.float(9.0), fn.raw(9.0)] == [6.0, 6.0, 12.0, 12.0]
        assert calls == [fn.expr]

    @pytest.mark.parametrize("calls", [0, 1])
    def test_an_fn_is_freed_without_the_cyclic_collector(self, calls):
        # its closures refer neither to the Fn nor to themselves
        fn = funcexpr.Fn("x+sqrt(x)")
        copy = funcexpr.Fn(fn)
        for _ in range(calls):
            fn(4.0), copy.float(4.0)
        refs = [weakref.ref(fn), weakref.ref(fn.raw), weakref.ref(copy)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del fn, copy
            assert [r() for r in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()

    def test_derivative_compiles_once(self, monkeypatch):
        calls = []
        compile_expr = funcexpr.compile_expr
        monkeypatch.setattr(funcexpr, "compile_expr",
                            lambda e: calls.append(e) or compile_expr(e))
        fn = funcexpr.Fn("x+sqrt(x)")
        assert calls == [fn.expr]  # f's own compile, when the Fn is built
        d = fn.derivative
        assert [d(float(x)) for x in (1, 4)] == [1.5, 1.25]
        assert calls == [fn.expr, funcexpr.differentiate(fn.expr)]


class TestZeroPower:
    # 0^p reads the same on floats and on towers: an error for p < 0, 1 for
    # p = 0 and 0 for p > 0
    ZERO = LIReal(0, 0.0)

    def test_negative_power_is_an_eval_error(self, capsys):
        for x in (0.0, -0.0, self.ZERO):
            with pytest.raises(EvalError, match="zero to the negative power"):
                ev("x^-1", x)
        assert cli.main(["eval", "x^-1", "--at", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "growthcalc: EvalError: zero to the negative power -1.0\n"

    def test_zero_power_is_one(self):
        assert ev("x^0", 0.0) == 1.0
        assert ev("x^0", self.ZERO) == LIReal(1, 0.0)

    def test_positive_power_is_zero(self):
        assert ev("x^2", 0.0) == ev("x^0.5", -0.0) == 0.0
        assert ev("x^2", self.ZERO) == ev("x^exp(x)", self.ZERO) == self.ZERO
