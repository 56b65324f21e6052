import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcalc import abel, ackermann, funcexpr, lixnum, orders
from growthcalc.classify import BetweenClassFn
from growthcalc.funcexpr import (
    EvalError, ParseError, PrecisionError, evaluate, parse, to_text,
)
from growthcalc.lixnum import LIReal
from growthcalc.orders import Ladder
from growthcalc.xihier import HIER, default_hierarchy


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

    def test_power_is_right_associative(self):
        assert ev("2^3^2", 1.0) == pytest.approx(512.0)

    def test_composition_operator(self):
        # log @ exp is the identity
        assert ev("log(x) @ exp(x)", 3.7) == pytest.approx(3.7)

    def test_unknown_function_rejected(self):
        with pytest.raises(ParseError):
            parse("sinh(x)")

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
        assert lixnum.to_real(lixnum.ln_li(v)) == pytest.approx(1e5)

    def test_power_overflow_promotes(self):
        v = ev("x^x", 400.0)
        assert isinstance(v, LIReal)
        assert lixnum.to_real(lixnum.ln_li(v)) == pytest.approx(400 * math.log(400))

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

    def test_sin_on_deep_tower_is_precision_error(self):
        with pytest.raises(PrecisionError):
            ev("sin(x)", LIReal(5, 0.5))

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1/(x-x)", 3.0)

    def test_log_of_negative(self):
        with pytest.raises(EvalError):
            ev("log(x-4)", 3.0)


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

    def test_xi_derivative_is_reciprocal_chi(self):
        hier = default_hierarchy()
        d = funcexpr.differentiate(parse("xi(x)"))
        x = 50.0
        assert evaluate(d, x) == pytest.approx(
            1.0 / float(hier.chi(x)))

    @pytest.mark.parametrize("x", [10.0, 50.0, 1e3, 1e6])
    def test_dxi_k_is_reciprocal_of_H_k(self, x):
        d = funcexpr.differentiate(parse("xi_4(x)"))
        assert abs(evaluate(d, x) * HIER.H_k(4, x) - 1.0) <= 1e-15

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

    @pytest.mark.parametrize("text", ["x+sqrt(x)", "x*log(x)", "sin(x)", "xi(x)", "-2*x", "x^3"])
    def test_not_invertible(self, text):
        assert funcexpr.invert(parse(text)) is None


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
        orders.check_R("R1", form("log(x)"), ladder).margins,
        abel.solve_abel(form("2*x"), A=1.0).eval(37.0),
        funcexpr.invert_at(form("x+sqrt(x)"), 12.0),
        ackermann.op_L(form("2*x"))(5.0),
        BetweenClassFn(form("log(x)"), m=2)(50.0),
        BetweenClassFn(form("log(x)"), m=2).describe(),
    ]


class _Doubling:
    """A callable with its own .inverse."""

    def __call__(self, x):
        return 2.0 * x

    def inverse(self, y):
        return y / 2.0


class TestFn:
    @pytest.mark.parametrize("form", sorted(_SPEC_FORMS))
    def test_every_spec_form_gives_the_same_results(self, form):
        got = _through_every_layer(_SPEC_FORMS[form])
        assert got == _through_every_layer(str)
        residuals, margins, F, root, lowered, between, text = got
        assert residuals[-1] == pytest.approx(math.log(2.0), rel=1e-12)
        assert margins[-1] < 1e-9
        assert F == 5.15625  # 37 = 2^5 * 1.15625, linear seed on [1, 2]
        assert root == 9.0
        assert lowered == 7.0
        assert between > 50.0 and text == "xi_2-shift by 1.0/H_2(log(x))"

    def test_inverse_order(self):
        # a given inverse first, even over the callable's own and the derived
        assert funcexpr.Fn("2*x", inverse="x/3").inverse.text == "x/3"
        assert funcexpr.Fn(_Doubling(), inverse=lambda y: -y).inverse(8.0) == -8.0
        # then the callable's own .inverse
        assert funcexpr.Fn(_Doubling()).inverse(8.0) == 4.0
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

    def test_derivative(self):
        assert funcexpr.Fn("x^2").derivative(3.0) == 6.0
        assert funcexpr.Fn(lambda x: x * x).derivative(3.0) == pytest.approx(6.0, rel=1e-9)
        with pytest.raises(EvalError):
            funcexpr.Fn("abs(x)").derivative

    def test_not_a_spec(self):
        with pytest.raises(TypeError):
            funcexpr.Fn(3.0)
