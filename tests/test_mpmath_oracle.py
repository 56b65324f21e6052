"""lixnum's sum and difference against mpmath at 50 digits.

Answers are compared in xi-coordinates, level + mantissa, where a value
below zero reads -1 + e^r and one at or above 1 reads 1 + xi(ln r).  That
map is continuous, and its slope is at most 1 everywhere (e^r below zero,
1 on [0, 1), xi'(ln r)/r above), so an absolute error in the float result
r moves the answer by at most that error times the largest slope nearby.

The bound is derived from the float steps of the pair kernel, one rounding
of u = 2^-53 (relative) each, to first order:
- each operand's value: an exp chain, each exp multiplying the error so
  far by its result and adding its own rounding (ln m at level -1: |ln m| u);
- the sum itself: |r| u, and the dropped term where the answer is absorbed;
- normalizing r into a pair: |y| u for each log y of the chain (later logs
  have slope at most 1), or e^r u for the exp of a value below zero.
The test allows twice that, for second-order terms, plus 1e-40 for the
50-digit reference.  A tower quotient is the same kernel one level down:
its answer in xi-coordinates is 1 + xi of the difference of the logs.
"""

import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthcalc import lixnum
from growthcalc.lixnum import DomainError, LIReal

U = 2.0 ** -53
LN_MIN = math.log(sys.float_info.min)  # the floor of level -1, about -708.4


def _value(level, m):
    """The pair's exact value, at 50 digits."""
    with mpmath.workdps(50):
        if level < 0:
            return mpmath.log(mpmath.mpf(m))
        x = mpmath.mpf(m)
        for _ in range(level):
            x = mpmath.exp(x)
        return x


def _xi(r):
    """xi-coordinates of the real r, at 50 digits."""
    with mpmath.workdps(50):
        if r < 0:
            return mpmath.exp(r) - 1
        k = 0
        while r >= 1:
            r, k = mpmath.log(r), k + 1
        return k + r


def _slope(r):
    """xi'(r) as a float: rising below zero, 1 on [0, 1), falling above."""
    if r < 0:
        return math.exp(r)
    return 1.0 if r < 1 else _slope(math.log(r)) / r


def _largest_slope(lo, hi):
    """The largest xi' on [lo, hi]."""
    if hi < 0:
        return _slope(hi)
    return _slope(lo) if lo >= 1 else 1.0


def _value_error(level, m):
    """First-order bound on the error of the float value of (level, m)."""
    if level < 0:
        return abs(math.log(m)) * U
    err, x = 0.0, m
    for _ in range(level):
        x = math.exp(x)
        err = x * (err + U)
    return err


def _normalize_error(r):
    """First-order bound, in xi-coordinates, on normalizing the float r."""
    if r < 0:
        return math.exp(r) * U
    err = 0.0
    while r >= 1.0:
        r = math.log(r)
        err += abs(r) * U
    return err


def _kernel_error(a, b, sign, extra=0.0):
    """Error bound on the float a + sign*b of the kernel, for pairs a, b."""
    va, vb = float(_value(*a)), float(_value(*b))
    return _value_error(*a) + _value_error(*b) + abs(va + sign * vb) * U + extra


def _check(run, exact, err, shift=0, dropped=0.0):
    """run() against the exact result in the kernel's coordinates (its log
    for a tower product or quotient, shift 1), within the bound of err,
    plus the dropped term where the answer is absorbed; a refusal is right
    only where the result is below level -1's floor."""
    r = float(exact)
    lo, hi = r - 2 * err, r + 2 * err
    try:
        got = run()
    except DomainError as exc:
        assert lo < LN_MIN, f"{exc} (exact result {r!r})"
        assert "is below the level -1 range (about -708.4)" in str(exc)
        return None
    assert hi >= LN_MIN, f"{got} for an exact result {r!r} below the floor"
    if got.absorbed:  # only a term below ABSORB_REL of the answer is dropped
        assert dropped <= lixnum.ABSORB_REL * abs(r), (got, r, dropped)
        err += dropped
    bound = 2 * (_largest_slope(lo, hi) * err + _normalize_error(r)) + 1e-40
    with mpmath.workdps(50):
        off = abs(got.level + mpmath.mpf(got.mantissa) - (shift + _xi(exact)))
    assert off <= bound, (got, r, float(off), bound)
    return got


MANTISSAS = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
PAIRS = st.one_of(
    st.tuples(st.integers(0, 3), MANTISSAS),
    # level -1 below zero, ln 0 (m = 0.0) included
    st.tuples(st.just(-1), st.one_of(st.just(0.0),
                                     st.floats(sys.float_info.min, 1.0, exclude_max=True))),
)
OPERANDS = st.one_of(st.tuples(PAIRS, PAIRS), PAIRS.map(lambda p: (p, p)))  # ties


class TestSumAndDifference:
    @settings(max_examples=400, deadline=2000)
    @given(OPERANDS)
    @example(((0, 0.5), (2, 0.25)))  # x - 3 at L0:0.5, below zero
    @example(((0, 0.0), (0, 0.5)))  # 0 - x
    @example(((3, 0.7), (3, 0.7)))  # a tie: exactly 0
    @example(((0, 0.5), (3, 0.9)))  # below level -1's floor
    @example(((0, 0.49999999999999994), (0, 0.5)))  # -2^-54: exp rounds to 1
    @example(((2, 0.5), (0, 1.5e-13)))  # a term about 2^-45 of the sum: kept
    def test_within_the_float_bound(self, operands):
        a, b = operands
        for op, sign in ((lixnum.add, 1), (lixnum.sub, -1)):
            run = lambda: op(LIReal(*a), LIReal(*b))  # noqa: E731
            if (-1, 0.0) in (a, b):  # ln 0 has no real value
                with pytest.raises(DomainError, match="^ln 0 is not a real value$"):
                    run()
                continue
            with mpmath.workdps(50):
                va, vb = _value(*a), _value(*b)
                exact = va + sign * vb
            _check(run, exact, _kernel_error(a, b, sign), dropped=float(min(abs(va), abs(vb))))


class TestTowerQuotientBelowOne:
    """1/x and x/(2*x) at level 4: ln 1 - ln x and ln x - ln(2x) one level
    down, where the difference is below zero."""

    @settings(max_examples=100, deadline=2000)
    @given(st.floats(0.0, 1.0, exclude_max=True))
    @example(0.1)
    @example(0.63)  # ln(1/x) about -690: just above the floor
    @example(0.9)  # ln(1/x) about -1.2e5: refused
    def test_reciprocal(self, m):
        x = LIReal(4, m)
        with mpmath.workdps(50):
            exact = -_value(3, m)  # ln(1/x)
        _check(lambda: lixnum.div(lixnum.to_li(1.0), x), exact,
               _kernel_error((0, 0.0), (3, m), -1), shift=1)

    @settings(max_examples=100, deadline=2000)
    @given(st.floats(0.0, 1.0, exclude_max=True))
    @example(0.5)
    @example(0.9999999999999998)  # ln(2x) at level 4
    def test_half(self, m):
        x = LIReal(4, m)
        two = lixnum.to_li(2.0)
        with mpmath.workdps(50):
            ln2, ln_x = mpmath.log(2), _value(3, m)
            # the log step of 2*x starts from the float ln 2 of to_li(2.0)
            ln2_off = float(abs(_value(two.level - 1, two.mantissa) - ln2))
        double = _check(lambda: lixnum.mul(two, x), ln2 + ln_x,
                        _kernel_error((two.level - 1, two.mantissa), (3, m), 1, ln2_off),
                        shift=1)
        # the quotient's error: its own kernel step, plus how far the pair
        # of ln(2x) that the product left is from the exact ln(2x)
        ln_double = (double.level - 1, double.mantissa)
        if ln_double[0] > lixnum.EXACT_ARITH_MAX_LEVEL:
            # ln(2x) passed e^e^e (m within about 4e-9 of 1): a difference
            # from a subtrahend above that level is still refused (no
            # cancellation there yet)
            with pytest.raises(DomainError, match="^sub would leave the nonnegative range$"):
                lixnum.div(x, double)
            return
        with mpmath.workdps(50):
            double_off = float(abs(_value(*ln_double) - (ln2 + ln_x)))
        _check(lambda: lixnum.div(x, double), -ln2,
               _kernel_error((3, m), ln_double, -1, double_off), shift=1)
