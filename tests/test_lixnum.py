import copy
import json
import math
import operator
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from growthcalc import lixnum
from growthcalc.funcexpr import evaluate, parse
from growthcalc.lixnum import DomainError, LIReal


mantissas = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                      allow_nan=False)
levels = st.integers(min_value=0, max_value=100)


def is_a_pair(level, m):
    """Whether LIReal takes (level, m) for a level >= -1 and an m in [0, 1):
    at level -1 only m = 0.0 (ln 0) or a normal float."""
    return level >= 0 or not 0.0 < m < sys.float_info.min


def lireals(levels, mantissas, *flags):
    """LIReal(level, mantissa[, absorbed]) from the draws, those LIReal
    refuses (a subnormal level -1 mantissa) left out."""
    return (st.tuples(levels, mantissas, *flags)
            .filter(lambda t: is_a_pair(t[0], t[1])).map(lambda t: LIReal(*t)))


class TestRepresentation:
    """to_li is the conversion from a real, float() the one back to it."""

    def test_mantissa_range_enforced(self):
        with pytest.raises(DomainError):
            LIReal(2, 1.0)
        with pytest.raises(DomainError):
            LIReal(2, -0.1)

    def test_level_floor_enforced(self):
        with pytest.raises(DomainError):
            LIReal(-3, 0.5)

    def test_from_real_small_values(self):
        v = lixnum.to_li(0.25)
        assert v.level == 0 and v.mantissa == 0.25

    def test_from_real_log_chain(self):
        # 10 -> ln 10 = 2.302.. -> ln(2.302..) = 0.834..: level 2
        v = lixnum.to_li(10.0)
        assert v.level == 2
        assert v.mantissa == pytest.approx(math.log(math.log(10.0)))

    def test_to_li_rejects_non_finite(self):
        for d in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                lixnum.to_li(d)

    @pytest.mark.parametrize("d", [-708.4, -740.0, -1000.0, -sys.float_info.max])
    def test_to_li_refuses_a_subnormal_level_minus_1_mantissa(self, d):
        # exp(d) below the normal floats loses digits, or is 0 (ln 0)
        with pytest.raises(DomainError, match=f"^{re.escape(repr(d))} is below the level -1 range"):
            lixnum.to_li(d)

    def test_to_li_keeps_the_bottom_of_level_minus_1(self):
        v = lixnum.to_li(-708.39)
        assert v.mantissa >= sys.float_info.min and float(v) == pytest.approx(-708.39)

    @pytest.mark.parametrize("v,name", [(-10 ** 400, "int"),
                                        (Fraction(-2 * 10 ** 400 - 1, 2), "Fraction")])
    def test_to_li_names_a_huge_negative_in_one_short_line(self, v, name):
        # the type and the digit count of the numerator, not its 401 digits
        with pytest.raises(DomainError) as exc:
            lixnum.to_li(v)
        msg = str(exc.value)
        assert msg == f"cannot represent non-positive {name} with a 401-digit numerator"
        assert "\n" not in msg and len(msg.encode()) < 120

    @pytest.mark.parametrize("digits", [310, 400, 513, 5000])  # log10 reads 10^512 low
    def test_to_li_counts_the_digits_next_to_a_power_of_ten(self, digits):
        for v in (-(10 ** (digits - 1)), -(10 ** digits - 1)):
            with pytest.raises(DomainError, match=f" a {digits}-digit numerator"):
                lixnum.to_li(v)

    def test_to_li_negative_goes_level_minus_one(self):
        v = lixnum.to_li(-2.0)
        assert v.level == -1
        assert float(v) == pytest.approx(-2.0)

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_roundtrip(self, d):
        assert float(lixnum.to_li(d)) == pytest.approx(d, rel=1e-12)

    def test_to_real_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            float(LIReal(7, 0.5))

    def test_formal_level_has_no_value(self):
        # level -2 once stood for the log of a negative real; it is refused
        with pytest.raises(DomainError):
            LIReal(-2, 0.5)
        with pytest.raises(DomainError):
            lixnum.parse_li("L-2:0.5")


class TestLIRealContract:
    """A level-index number is an immutable value: equal by (level, mantissa)
    whatever its absorbed flag, never equal to a tuple, and kept intact by
    pickle, copy and JSON's str fallback."""

    def test_equality_and_hash_ignore_absorbed(self):
        a, b = LIReal(1, 0.5), LIReal(1, 0.5, True)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert LIReal(1, 0.5) != LIReal(1, 0.25) and LIReal(1, 0.5) != LIReal(2, 0.5)

    def test_not_equal_to_a_tuple(self):
        assert LIReal(1, 0.5) != (1, 0.5, False)
        assert LIReal(1, 0.5) != (1, 0.5)
        assert not isinstance(LIReal(1, 0.5), tuple)

    @pytest.mark.parametrize("name", ["level", "mantissa", "absorbed", "other"])
    def test_attributes_cannot_be_set_or_deleted(self, name):
        v = LIReal(1, 0.5)
        with pytest.raises(AttributeError):
            setattr(v, name, 0)
        with pytest.raises(AttributeError):
            delattr(v, name)
        assert (v.level, v.mantissa, v.absorbed) == (1, 0.5, False)

    @pytest.mark.parametrize("v", [LIReal(1, 0.5), LIReal(10 ** 40, 0.25, True),
                                   LIReal(-1, 0.0), LIReal(-1, sys.float_info.min)])
    def test_pickle_and_copy_round_trip(self, v):
        for w in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(w) is LIReal
            assert (w.level, w.mantissa, w.absorbed) == (v.level, v.mantissa, v.absorbed)

    @pytest.mark.parametrize("v", [LIReal(1, 0.5), LIReal(10 ** 40, 0.25, True),
                                   LIReal(0, 0.75), LIReal(-1, 0.0)], ids=str)
    def test_shifted_values_keep_the_contract(self, v):
        # exp_li and ln_li build their result without LIReal()'s checks
        shifted = [lixnum.exp_li(v)] + ([lixnum.ln_li(v)] if v.level > -1 else [])
        for w, step in zip(shifted, (1, -1)):
            assert type(w) is LIReal
            assert (w.level, w.mantissa, w.absorbed) == (v.level + step, v.mantissa, v.absorbed)
            plain = LIReal(v.level + step, v.mantissa)
            assert w == plain and hash(w) == hash(plain) and len({w, plain}) == 1
            for name in ("level", "mantissa", "absorbed"):
                with pytest.raises(AttributeError):
                    setattr(w, name, 0)
                with pytest.raises(AttributeError):
                    delattr(w, name)
            for u in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
                assert type(u) is LIReal
                assert (u.level, u.mantissa, u.absorbed) == (w.level, w.mantissa, w.absorbed)

    def test_json_falls_back_to_the_literal(self):
        assert json.dumps({"v": LIReal(1, 0.5)}, default=str) == '{"v": "L1:0.5"}'

    def test_text_forms(self):
        assert repr(LIReal(1, 0.5)) == "LIReal(1, 0.5)"
        assert repr(LIReal(4, 0.5, True)) == "LIReal(4, 0.5, absorbed)"
        assert str(LIReal(1, 0.5)) == "L1:0.5"
        assert float(LIReal(1, 0.5)) == math.exp(0.5)

    def test_keyword_construction(self):
        v = LIReal(level=3, mantissa=0.25, absorbed=True)
        assert (v.level, v.mantissa, v.absorbed) == (3, 0.25, True)
        assert LIReal(2, mantissa=0.5).absorbed is False

    def test_domain_error_messages(self):
        with pytest.raises(DomainError, match=r"^mantissa 1\.0 not in \[0, 1\)$"):
            LIReal(2, 1.0)
        with pytest.raises(DomainError, match="^level -2 below supported minimum -1$"):
            LIReal(-2, 0.5)


class TestExpLog:
    @given(levels, mantissas)
    def test_exp_is_exact_level_shift(self, k, m):
        v = LIReal(k, m)
        w = lixnum.exp_li(v)
        assert (w.level, w.mantissa) == (k + 1, m)

    @given(levels, mantissas)
    def test_ln_inverts_exp(self, k, m):
        v = LIReal(k, m)
        assert lixnum.ln_li(lixnum.exp_li(v)) == v

    def test_ln_stops_at_formal_floor(self):
        # ln of zero or of a negative value would reach the deleted level -2:
        # refused, naming the value, as the float log refuses it
        for v in (LIReal(0, 0.0), LIReal(0, -0.0), LIReal(-1, 0.5), LIReal(-1, 0.0)):
            with pytest.raises(DomainError, match=f"non-positive value {v}"):
                lixnum.ln_li(v)

    @pytest.mark.parametrize("m", [sys.float_info.min / 2, 5e-324, 1e-310])
    def test_ln_refuses_a_subnormal_level_minus_1_mantissa(self, m):
        # the level -1 range of to_li: ln of L0:m would keep a mantissa
        # that has lost digits
        with pytest.raises(DomainError, match=f"^{re.escape(repr(math.log(m)))} is below "
                                              r"the level -1 range \(about -708\.4\)$"):
            lixnum.ln_li(LIReal(0, m))

    @pytest.mark.parametrize("m", [5e-324, 1e-310])
    def test_constructor_refuses_a_subnormal_level_minus_1_mantissa(self, m):
        with pytest.raises(DomainError, match=f"^{re.escape(repr(math.log(m)))} is below "
                                              r"the level -1 range \(about -708\.4\)$"):
            LIReal(-1, m)

    def test_tower_log_step_takes_a_subnormal_operand_by_its_float_log(self):
        # the log step adds bare pairs, so L0:m with a subnormal m enters as
        # the float ln m; only a result below level -1's range is refused
        tower, e_e = LIReal(4, 0.0), math.exp(math.e)  # ln L4:0 is e^e
        tiny = LIReal(0, 1e-310)
        assert float(lixnum.mul(tiny, tower)) == pytest.approx(1e-310 * math.exp(e_e), rel=1e-12)
        assert float(lixnum.ln_li(lixnum.div(tower, tiny))) == pytest.approx(
            e_e - math.log(1e-310), rel=1e-12)
        log_product = e_e + math.log(5e-324)
        with pytest.raises(DomainError, match=f"^{re.escape(repr(log_product))} is below"):
            lixnum.mul(LIReal(0, 5e-324), tower)
        # below the cutoff, a quotient by a subnormal past the float range
        # takes the same step; a negative one is still refused
        for a in (1.0, 0.5, 1e6):
            q = lixnum.div(lixnum.to_li(a), tiny)
            assert float(lixnum.ln_li(q)) == pytest.approx(math.log(a) - math.log(1e-310),
                                                           rel=1e-12)
        with pytest.raises(DomainError, match="^to_li requires a finite value, got -inf$"):
            lixnum.div(lixnum.to_li(-1.0), tiny)

    def test_ln_keeps_the_bottom_of_level_minus_1(self):
        m = sys.float_info.min
        assert lixnum.ln_li(LIReal(0, m)) == LIReal(-1, m)

    def test_ln_of_a_small_positive_is_negative(self):
        v = lixnum.ln_li(LIReal(0, 0.5))
        assert v == LIReal(-1, 0.5)
        assert float(v) == math.log(0.5)

    def test_exp_matches_float_exp_in_range(self):
        v = lixnum.to_li(3.0)
        assert float(lixnum.exp_li(v)) == pytest.approx(math.exp(3.0))


class TestXiShift:
    @given(levels, mantissas)
    def test_shift_identity_exact(self, k, m):
        v = LIReal(k, m)
        assert lixnum.xi_exact(lixnum.exp_li(v)) - lixnum.xi_exact(v) == 1

    @given(levels, mantissas)
    def test_xi_inv_roundtrip_exact(self, k, m):
        v = LIReal(k, m)
        assert lixnum.xi_inv_exact(lixnum.xi_exact(v)) == v

    def test_huge_levels_stay_exact(self):
        v = LIReal(10 ** 500, 0.5)
        t = lixnum.xi_exact(v)
        assert t == Fraction(10 ** 500) + Fraction(0.5)
        assert lixnum.xi_inv_exact(t) == v

    def test_value_of_e_is_two(self):
        assert lixnum.xi_exact(lixnum.to_li(math.e)) == 2


class TestOrdering:
    @given(levels, mantissas, levels, mantissas)
    def test_order_is_lexicographic(self, k1, m1, k2, m2):
        a, b = LIReal(k1, m1), LIReal(k2, m2)
        assert (a < b) == ((k1, m1) < (k2, m2))

    def test_compare_against_floats(self):
        assert LIReal(2, 0.5) > 4.0
        assert LIReal(0, 0.25) < 1.0
        assert lixnum.to_li(7.0) <= 7.0

    def test_compare_against_a_string_is_a_type_error(self):
        with pytest.raises(TypeError, match="'<' not supported"):
            LIReal(1, 0.5) < "a"

    def test_compare_against_numbers_past_float_range(self):
        # 10**400 lies between L3:0.5 (about 1.8e2) and L5:0.5
        assert LIReal(5, 0.5) > 10 ** 400
        assert LIReal(3, 0.5) < 10 ** 400
        assert LIReal(3, 0.5) < Fraction(10 ** 400, 3)

    @pytest.mark.parametrize("v", [-10 ** 400, Fraction(-10 ** 400, 3), -740.0, -1e300])
    def test_compare_against_negatives_past_float_range(self, v):
        # below level -1's range (about -708.4) a number orders as ln 0
        for a in (LIReal(1, 0.5), LIReal(0, 0.0), LIReal(-1, 0.5)):
            assert a > v
            assert a >= v
            assert not a < v
            assert not a <= v

    @given(lireals(st.integers(-1, 50), mantissas),
           st.sampled_from([math.inf, -math.inf, math.nan]))
    def test_compare_against_non_finite_floats_as_zero_does(self, v, o):
        # every level-index value is finite, so it orders against inf, -inf
        # and NaN as any finite number, 0.0 among them, does
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            assert op(v, o) == op(0.0, o)
            assert op(o, v) == op(o, 0.0)


class TestArithmetic:
    def test_small_level_add_is_float_exact(self):
        a, b = lixnum.to_li(5.0), lixnum.to_li(3.0)
        assert float(lixnum.add(a, b)) == pytest.approx(8.0)
        assert not lixnum.add(a, b).absorbed

    def test_small_level_sub_mul_div(self):
        a, b = lixnum.to_li(12.0), lixnum.to_li(3.0)
        assert float(lixnum.sub(a, b)) == pytest.approx(9.0)
        assert float(lixnum.mul(a, b)) == pytest.approx(36.0)
        assert float(lixnum.div(a, b)) == pytest.approx(4.0)

    def test_sub_below_zero_rejected(self):
        # below zero a difference follows the sum's rule: level -1, refused
        # past its range; and refused outright against a tower above
        # EXACT_ARITH_MAX_LEVEL
        one = lixnum.to_li(1.0)
        assert lixnum.sub(one, lixnum.to_li(2.0)) == lixnum.to_li(-1.0)
        assert lixnum.sub(one, lixnum.to_li(2.0)) == lixnum.add(one, lixnum.to_li(-2.0))
        with pytest.raises(DomainError, match="below the level -1 range"):
            lixnum.sub(one, lixnum.to_li(1000.0))
        with pytest.raises(DomainError, match="sub would leave the nonnegative range"):
            lixnum.sub(one, LIReal(4, 0.5))

    def test_deep_add_absorbs(self):
        big = LIReal(9, 0.3)
        out = lixnum.add(big, lixnum.to_li(1e10))
        assert out.level == 9 and out.mantissa == 0.3
        assert out.absorbed

    def test_tiny_relative_term_absorbs_even_at_low_level(self):
        a = lixnum.to_li(1e40)
        b = lixnum.to_li(1.0)
        out = lixnum.add(a, b)
        assert out.absorbed
        assert float(out) == pytest.approx(1e40)

    @given(level=st.integers(1, 3), m=st.floats(0.0, 1.0, exclude_max=True),
           c=st.floats(1e-3, 0.9))
    @example(level=3, m=0.5, c=0.3)
    def test_negative_term_is_not_absorbed(self, level, m, c):
        # x+(-c) is x-c, and x-(-c) is x+c, at tower points x >= 1 > c; the
        # size test compares |c| with x, so a negative term is not taken as
        # below ABSORB_REL of x
        x = LIReal(level, m)
        neg, pos = lixnum.to_li(-c), lixnum.to_li(c)
        for got, want in ((evaluate(parse(f"x+(-{c!r})"), x), evaluate(parse(f"x-{c!r}"), x)),
                          (lixnum.sub(x, neg), lixnum.add(x, pos))):
            assert not got.absorbed and not want.absorbed
            assert float(got) == pytest.approx(float(want), rel=1e-14)

    def test_deep_mul_is_log_drop(self):
        # e^1000 * e^5: one log drop adds the exponents exactly in floats
        a = lixnum.exp_li(lixnum.to_li(1000.0))
        b = lixnum.exp_li(lixnum.to_li(5.0))
        out = lixnum.mul(a, b)
        assert float(lixnum.ln_li(out)) == pytest.approx(1005.0)

    def test_div_by_zero_rejected(self):
        with pytest.raises(DomainError):
            lixnum.div(lixnum.to_li(1.0), lixnum.to_li(0.0))

    @given(lireals(st.integers(-1, 3), mantissas))
    def test_neg_is_sub_from_zero_up_to_level_3(self, v):
        def outcome(f, *args):  # the value, or the refusal's message
            try:
                return f(*args)
            except DomainError as exc:
                return str(exc)
        assert outcome(lixnum.neg, v) == outcome(lixnum.sub, LIReal(0, 0.0), v)

    def test_neg_refuses_a_tower_above_level_3(self):
        # -e^e^0.25 is a level -1 value; no value holds minus a level-4 tower
        assert float(lixnum.neg(LIReal(2, 0.25))) == -3.611146878218102
        with pytest.raises(DomainError, match=r"^the level-index value L4:0\.5 "
                                              r"cannot be negated$"):
            lixnum.neg(LIReal(4, 0.5))


_TOWER, _ZERO = LIReal(5, 0.5), LIReal(0, 0.0)


class TestTowerZeroAndSign:
    """Above level 3 mul and div go through one log, which zero and the
    negatives do not have: zero is exact, a negative operand is refused."""

    def test_zero_times_tower_is_exact_zero(self):
        for out in (lixnum.mul(_ZERO, _TOWER), lixnum.mul(_TOWER, _ZERO),
                    lixnum.mul(LIReal(0, -0.0), _TOWER)):
            assert (out.level, out.mantissa, out.absorbed) == (0, 0.0, False)

    def test_zero_over_tower_is_exact_zero(self):
        out = lixnum.div(_ZERO, _TOWER)
        assert (out.level, out.mantissa, out.absorbed) == (0, 0.0, False)

    def test_tower_over_zero_rejected(self):
        with pytest.raises(DomainError, match="division by zero"):
            lixnum.div(_TOWER, _ZERO)

    @pytest.mark.parametrize("neg", [LIReal(-1, 0.5), LIReal(-1, 0.0)], ids=str)
    def test_negative_operand_against_a_tower_rejected(self, neg):
        for op, a, b in ((lixnum.mul, _TOWER, neg), (lixnum.mul, neg, _TOWER),
                         (lixnum.div, _TOWER, neg), (lixnum.div, neg, _TOWER)):
            with pytest.raises(DomainError, match=f"negative operand {neg}"):
                op(a, b)


def _assert_ordinary_fraction(k, m):
    # xi_exact fills the Fraction's slots with no gcd: the pair must already
    # be in lowest terms, and the value must act as the constructor's does
    t, want = lixnum.xi_exact(LIReal(k, m)), Fraction(k) + Fraction(m)
    assert type(t) is Fraction
    assert t.denominator > 0 and math.gcd(t.numerator, t.denominator) == 1
    assert (t.numerator, t.denominator) == (want.numerator, want.denominator)
    assert t == want and hash(t) == hash(want)
    assert t - Fraction(1, 3) == want - Fraction(1, 3)
    assert t + 1 == want + 1 and t - t == 0
    assert float(t) == float(want)


class TestXiExact:
    @given(st.one_of(st.integers(min_value=-1, max_value=100),
                     st.integers(min_value=2 ** 53 - 2, max_value=2 ** 53 + 2),
                     st.integers(min_value=10 ** 60, max_value=10 ** 300)),
           st.one_of(st.just(0.0), mantissas))
    @example(0, 5e-324)
    def test_one_fraction_is_the_sum(self, k, m):
        assume(is_a_pair(k, m))
        _assert_ordinary_fraction(k, m)

    @pytest.mark.parametrize("k,m", [(-1, 0.0), (-1, 0.5), (0, 0.0),
                                     (7, 0.25), (10 ** 300, 0.0),
                                     (10 ** 300, math.nextafter(1.0, 0.0))])
    def test_edge_values(self, k, m):
        _assert_ordinary_fraction(k, m)

    def test_fraction_slot_layout(self):
        # xi_exact writes Fraction's two slots directly; a Python whose
        # Fraction keeps other state would fail here, by name
        assert Fraction.__slots__ == ("_numerator", "_denominator")
        t = lixnum.xi_exact(LIReal(57, 0.125))
        assert t == Fraction(57 * 8 + 1, 8)
        assert repr(t) == repr(Fraction(457, 8)) and str(t) == "457/8"
        assert pickle.loads(pickle.dumps(t)) == t and copy.deepcopy(t) == t


class TestText:
    @given(levels, mantissas)
    @settings(max_examples=50)
    def test_format_parse_roundtrip(self, k, m):
        v = LIReal(k, m)
        assert lixnum.parse_li(lixnum.format_li(v)) == v

    @pytest.mark.parametrize("m", [5e-324, 1e-320, sys.float_info.min / 2])
    def test_parse_refuses_a_subnormal_level_minus_1_mantissa(self, m):
        with pytest.raises(DomainError, match=f"^{re.escape(repr(math.log(m)))} is below "
                                              r"the level -1 range \(about -708\.4\)$"):
            lixnum.parse_li(f"L-1:{m!r}")

    def test_parse_keeps_ln_0_and_the_bottom_of_level_minus_1(self):
        assert lixnum.parse_li("L-1:0") == LIReal(-1, 0.0)
        m = sys.float_info.min
        assert lixnum.parse_li(f"L-1:{m!r}") == LIReal(-1, m)
        # level 0 holds the subnormals: they are values in [0, 1)
        assert lixnum.parse_li("L0:1e-320") == LIReal(0, 1e-320)

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            lixnum.parse_li("3:0.5")
        with pytest.raises(DomainError):
            lixnum.parse_li("Lx:y")
