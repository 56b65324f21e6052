"""lixnum's pair kernel and the chi that loops on it, against the
LIReal-based code they replaced.

The reference functions below are that earlier code, apart from names, the
one conversion each way (to_li, float()) and the later rules for zero and
negative values (ln refuses them; a tower product or quotient takes zero
exactly and refuses a negative operand; a sum or difference absorbs a
negative term only when its magnitude is below ABSORB_REL of the larger
term; to_li refuses a negative whose exp is below the normal floats and
answers 0 for one whose exp rounds to 1; a difference below zero follows
the sum's rule, and is refused only where the subtrahend is above
EXACT_ARITH_MAX_LEVEL): every step builds an LIReal, but for the log
step of a tower product or quotient, which adds bare pairs.  The new code must
give the same type, the same bits and the same absorbed flag, or raise the
same exception type with the same message.  chi of a float above 1 whose
float product x ln x ln ln x ... is finite is that product now, and is held
to mpmath instead (test_xihier's bound); towers, ints and Fractions past
the float range, and floats past the product's range keep the pair sum.
"""

import math
import sys
from collections import namedtuple
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthcalc import lixnum
from growthcalc.funcexpr import evaluate, parse
from growthcalc.lixnum import ABSORB_REL, EXACT_ARITH_MAX_LEVEL, DomainError, LIReal
from growthcalc.xihier import HIER
from test_lixnum import lireals
from test_xihier import CHI_ULPS, chi_ulps, on_float_path

# -- the reference: LIReal-based conversions, arithmetic and chi ------------

Pair = namedtuple("Pair", "level mantissa")  # ordered as LIReal: level, then mantissa


def ref_to_li(d):
    if not math.isfinite(d):
        raise DomainError(f"to_li requires a finite value, got {d!r}")
    if d < 0:
        if math.exp(d) < sys.float_info.min:
            raise DomainError(f"{d!r} is below the level -1 range (about -708.4)")
        if math.exp(d) == 1.0:
            return LIReal(0, 0.0)
        return LIReal(-1, math.exp(d))
    level = 0
    x = float(d)
    while x >= 1.0:
        x = math.log(x)
        level += 1
    if x < 0.0:
        x = 0.0
    return LIReal(level, x)


def ref_to_real(v):
    if v.level == -1:
        if v.mantissa == 0.0:
            raise DomainError("ln 0 is not a real value")
        return math.log(v.mantissa)
    x = v.mantissa
    try:
        for _ in range(v.level):
            x = math.exp(x)
    except OverflowError:
        raise DomainError(f"{v} exceeds float range") from None
    if math.isinf(x):
        raise DomainError(f"{v} exceeds float range")
    return x


def ref_exp_li(v):
    return LIReal(v.level + 1, v.mantissa, v.absorbed)


ZERO = LIReal(0, 0.0)


def ref_ln_li(v):
    if v <= ZERO:
        raise DomainError(f"log of non-positive value {v}")
    return LIReal(v.level - 1, v.mantissa, v.absorbed)


def ref_absorb(larger):
    return LIReal(larger.level, larger.mantissa, absorbed=True)


def ref_add(a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    if hi.level >= EXACT_ARITH_MAX_LEVEL + 1:
        return ref_absorb(hi)
    va, vb = ref_to_real(hi), ref_to_real(lo)
    if va > 0 and abs(vb) / va < ABSORB_REL:
        return ref_absorb(hi)
    return ref_to_li(va + vb)


def ref_sub(a, b):
    if b > a and b.level >= EXACT_ARITH_MAX_LEVEL + 1:
        raise DomainError("sub would leave the nonnegative range")
    if a.level >= EXACT_ARITH_MAX_LEVEL + 1:
        return ref_absorb(a)
    va, vb = ref_to_real(a), ref_to_real(b)
    if va > 0 and abs(vb) / va < ABSORB_REL:
        return ref_absorb(a)
    return ref_to_li(va - vb)


def ref_check_sign(v):
    if v < ZERO:
        raise DomainError(f"negative operand {v} in a tower product or quotient")


def ref_ln_pair(v):
    """ln of a positive tower operand as a bare (level, mantissa) pair, as
    the log step takes it: at level 0 that is (-1, m), whose value
    ref_to_real reads as the float ln m, even for a subnormal m, which an
    LIReal at level -1 refuses."""
    return Pair(v.level - 1, v.mantissa)


def ref_mul(a, b):
    if max(a.level, b.level) >= EXACT_ARITH_MAX_LEVEL + 1:
        ref_check_sign(a)
        ref_check_sign(b)
        if ZERO in (a, b):
            return ZERO
        return ref_exp_li(ref_add(ref_ln_pair(a), ref_ln_pair(b)))
    return ref_to_li(ref_to_real(a) * ref_to_real(b))


def ref_div(a, b):
    if max(a.level, b.level) >= EXACT_ARITH_MAX_LEVEL + 1:
        ref_check_sign(b)
        if b == ZERO:
            raise DomainError("division by zero")
        ref_check_sign(a)
        if a == ZERO:
            return ZERO
        return ref_exp_li(ref_sub(ref_ln_pair(a), ref_ln_pair(b)))
    vb = ref_to_real(b)
    if vb == 0.0:
        raise DomainError("division by zero")
    q = ref_to_real(a) / vb
    if q == math.inf:  # a subnormal divisor: the quotient is a tower
        return ref_exp_li(ref_sub(ref_ln_pair(a), ref_ln_pair(b)))
    return ref_to_li(q)


def ref_chi(x):
    if not isinstance(x, LIReal):
        xf = float(x)
        if xf < 0:
            raise DomainError(f"chi needs a nonnegative argument, got {xf!r}")
        if xf <= 1.0:
            return 1.0
        x = ref_to_li(xf)
    acc = ref_to_li(0.0)
    v = x
    one = LIReal(1, 0.0)
    while v > one:
        term = ref_ln_li(v)
        acc = ref_add(acc, term)
        v = term
    result = ref_exp_li(acc)
    try:
        return ref_to_real(result)
    except DomainError:
        return result


# -- outcomes and inputs -----------------------------------------------------


def _outcome(f, *args):
    """What f(*args) gives, down to the bits of every float."""
    try:
        v = f(*args)
    except Exception as exc:  # the type and message are the outcome
        return "raises", type(exc), str(exc)
    if isinstance(v, LIReal):
        return "value", LIReal, v.level, v.mantissa.hex(), v.absorbed
    if isinstance(v, float):
        return "value", float, v.hex()
    return "value", type(v), v


_E = [0.0]  # the band edges e_k(0) that fit in a float
while _E[-1] < 709.0:
    _E.append(math.exp(_E[-1]))
EDGES = [y for x in _E for y in (x, math.nextafter(x, -1.0), math.nextafter(x, 2e308))
         if y >= 0.0] + [math.e, sys.float_info.max, 5e-324]

FLOATS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=sys.float_info.max),
)
MANTISSAS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, math.e - 2, math.nextafter(1.0, 0.0)]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
TOWERS = st.one_of(
    lireals(st.integers(-1, 60), MANTISSAS),
    lireals(st.integers(-1, 5), MANTISSAS, st.booleans()),
    FLOATS.map(lixnum.to_li),
)
NUMBERS = st.one_of(
    FLOATS,
    st.integers(-10, 10 ** 6),
    st.sampled_from([10 ** 308, 10 ** 400, -10 ** 400]),
    st.fractions(min_value=0, max_value=100, max_denominator=1000),
    st.builds(Fraction, st.integers(1, 10 ** 400), st.integers(1, 10 ** 30)),
)
REALS = st.one_of(
    FLOATS,
    FLOATS.map(lambda d: -d),
    st.sampled_from([math.inf, -math.inf, math.nan, -5e-324, -1e-17]),
)


# -- the tests ---------------------------------------------------------------


class TestArithmetic:
    @settings(max_examples=600)
    @given(TOWERS, TOWERS)
    @example(LIReal(-1, 0.5), lixnum.to_li(math.log(2.0)))  # exp(-tiny) = 1.0
    @example(LIReal(5, -0.0), LIReal(5, 0.0))  # the tie keeps the later bits
    @example(LIReal(-1, 0.5), LIReal(6, 0.5))  # a negative against a tower
    @example(LIReal(0, -0.0), LIReal(6, 0.5))  # zero against a tower
    @example(LIReal(0, 5e-324), LIReal(4, 0.0))  # a product below level -1's range
    @example(LIReal(0, 1e-310), LIReal(4, 0.0))  # a subnormal operand: L0:~3.8e-304
    @example(LIReal(1, 0.0), LIReal(0, 1e-310))  # 1 / 1e-310 passes the float range
    def test_same_as_the_lireal_code(self, a, b):
        for new, ref in ((lixnum.add, ref_add), (lixnum.sub, ref_sub),
                         (lixnum.mul, ref_mul), (lixnum.div, ref_div)):
            assert _outcome(new, a, b) == _outcome(ref, a, b), new.__name__

    @settings(max_examples=300)
    @given(REALS)
    def test_conversions(self, d):
        assert _outcome(lixnum.to_li, d) == _outcome(ref_to_li, d)

    @given(TOWERS)
    def test_to_real(self, v):
        assert _outcome(float, v) == _outcome(ref_to_real, v)


class TestChi:
    @settings(max_examples=400)
    @given(st.one_of(NUMBERS, TOWERS))
    @example(10 ** 400)
    @example(Fraction(10 ** 400, 3))
    @example(LIReal(60, 0.5))
    def test_same_as_the_lireal_code(self, x):
        if on_float_path(x):
            # the float product: held to mpmath, which the reference's own
            # pair sum misses by up to 11,633 units of 2^-52
            got = HIER.chi(x)
            assert type(got) is float and chi_ulps(got, x) <= CHI_ULPS
            return
        want = _outcome(ref_chi, x)
        if want[:2] == ("raises", OverflowError):
            # the reference failed on an int or Fraction past the float
            # range; the answer is chi at that value as a tower
            want = _outcome(lambda: ref_chi(lixnum.to_li(x)))
        assert _outcome(HIER.chi, x) == want

    def test_past_the_float_range(self):
        out = HIER.chi(10 ** 400)
        assert isinstance(out, LIReal)
        assert out == HIER.chi(lixnum.to_li(10 ** 400))
        assert out > lixnum.to_li(10 ** 400)
        x = Fraction(10 ** 400, 3)
        assert evaluate(parse("chi(x)"), x) == HIER.chi(lixnum.to_li(x))
