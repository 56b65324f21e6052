"""Level-index arithmetic.

A nonnegative real is stored as a pair (level, mantissa) with mantissa in
[0, 1), standing for the level-fold exponential of the mantissa:

    value(0, m) = m,   value(k + 1, m) = exp(value(k, m)).

Level bands: level 0 holds [0, 1), level 1 holds [1, e), level k holds
[e_{k-1}(0), e_k(0)).  In this form exp and log are exact level shifts and
the super-logarithm of (k, m) is exactly k + m.

Level -1 holds the negative reals down to about -708.4: (-1, m) stands for
ln m, the log of a level-0 value; LIReal refuses an m below the normal
floats, as do ln_li and the log step of a tower product or quotient.
Every pair has a real value (ln 0 aside, the bottom of the order), so
ln_li refuses zero and the negatives, as the float log does.

to_li is the one way into a tower, from a float, int or Fraction, and the
builtin float() the one way out.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction

__all__ = [
    "LIReal",
    "DomainError",
    "to_li",
    "exp_li",
    "ln_li",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "xi_exact",
    "xi_inv_exact",
    "format_li",
    "parse_li",
]


class DomainError(ValueError):
    """Input outside the representable / mathematically defined range."""


MIN_LEVEL = -1
_MIN_MANTISSA = sys.float_info.min  # of level -1: the smallest normal float

# Same-level relative gap below which addition cannot move the mantissa.
ABSORB_REL = 2.0 ** -50

# Levels at or above this: add/sub always absorb, mul/div go through one
# log-level drop.  All values of level <= 3 are < e^e, so plain float
# arithmetic below the cutoff is exact to rounding.
EXACT_ARITH_MAX_LEVEL = 3


def _ordering(op):
    """LIReal's order method for op (operator.lt, le, gt or ge):
    lexicographic (level, mantissa) agrees with the value order.  Every
    level-index value is finite, so against a float inf or NaN it answers
    as 0.0 does."""
    def compare(self, other):
        if other.__class__ is not LIReal:
            if not isinstance(other, (int, float, Fraction)):
                return NotImplemented
            if isinstance(other, float) and not math.isfinite(other):
                return op(0.0, other)
            try:
                other = to_li(other)
            except DomainError:
                # to_li refuses only a negative: one below level -1's range,
                # the float range included, orders as ln 0, below every
                # value to_li gives
                other = _LN_ZERO
        return op((self.level, self.mantissa), (other.level, other.mantissa))
    return compare


class LIReal:
    """Immutable level-index number; totally ordered like the reals it encodes.
    Equality and hash read (level, mantissa), not the absorbed flag."""

    __slots__ = ("level", "mantissa", "absorbed")

    def __new__(cls, level: int, mantissa: float, absorbed: bool = False):
        if not (0.0 <= mantissa < 1.0):
            raise DomainError(f"mantissa {mantissa!r} not in [0, 1)")
        if level < 0:
            if level < MIN_LEVEL:
                raise DomainError(f"level {level} below supported minimum {MIN_LEVEL}")
            if 0.0 < mantissa < _MIN_MANTISSA:
                raise _below_level_minus_1(math.log(mantissa))
        self = _new(cls)
        _set_level(self, level)
        _set_mantissa(self, mantissa)
        _set_absorbed(self, absorbed)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return LIReal, (self.level, self.mantissa, self.absorbed)

    def __eq__(self, other):
        if other.__class__ is not LIReal:
            return NotImplemented
        return (self.level, self.mantissa) == (other.level, other.mantissa)

    def __hash__(self) -> int:
        return hash((self.level, self.mantissa))

    __lt__, __le__ = _ordering(operator.lt), _ordering(operator.le)
    __gt__, __ge__ = _ordering(operator.gt), _ordering(operator.ge)

    def __float__(self) -> float:
        return _real(self.level, self.mantissa)

    def __repr__(self) -> str:
        flag = ", absorbed" if self.absorbed else ""
        return f"LIReal({self.level}, {self.mantissa!r}{flag})"

    def __str__(self) -> str:
        return format_li(self)


_new = object.__new__
_set_level = LIReal.level.__set__
_set_mantissa = LIReal.mantissa.__set__
_set_absorbed = LIReal.absorbed.__set__
_set_numerator = Fraction._numerator.__set__
_set_denominator = Fraction._denominator.__set__

_ZERO = LIReal(0, 0.0)
_LN_ZERO = LIReal(-1, 0.0)


def to_li(v) -> LIReal:
    """v as a level-index number: the one way into a tower, as float() is
    the one way out.  An LIReal passes through; a float, int or Fraction
    is converted, also past the float range, where one exact log of its
    numerator and denominator brings it back.
    """
    if isinstance(v, LIReal):
        return v
    try:
        return LIReal(*_pair_any(float(v)))
    except OverflowError:
        pass
    p, q = v.numerator, v.denominator
    if p <= 0:
        # v is past the float range: name its size, not its digits
        d = int(math.log10(-p)) + 1
        d += (-p >= 10 ** d) - (-p < 10 ** (d - 1))  # log10 may be off by one
        raise DomainError(f"cannot represent non-positive {type(v).__name__} "
                          f"with a {d}-digit numerator")
    return exp_li(to_li(math.log(p) - math.log(q)))


# -- the pair kernel ---------------------------------------------------------
# The conversions and the arithmetic below work on bare (level, mantissa)
# pairs; the public functions wrap them and build one LIReal, for the
# result.  Callers that chain many steps (xihier.chi and the xi_4 pullback)
# loop on the pairs.


def _pair_any(d) -> tuple:
    """(level, mantissa) of a finite float d: the log chain of to_li for
    d >= 0, and (-1, exp(d)) for d < 0 (0 where exp(d) rounds to 1), while
    exp(d) is a normal float (d above about -708.4): a subnormal mantissa
    loses digits and 0 is ln 0, so below that d is refused."""
    if not math.isfinite(d):
        raise DomainError(f"to_li requires a finite value, got {d!r}")
    if d < 0:
        m = math.exp(d)
        if m < _MIN_MANTISSA:
            raise _below_level_minus_1(d)
        return (-1, m) if m < 1.0 else (0, 0.0)
    level, x = 0, d
    while x >= 1.0:
        x = math.log(x)
        level += 1
    return level, x


def _below_level_minus_1(d: float) -> DomainError:
    return DomainError(f"{d!r} is below the level -1 range (about -708.4)")


def _real(level: int, m: float) -> float:
    """The value of the pair (level, m): the exp chain of float()."""
    if level < 0:
        if m == 0.0:
            raise DomainError("ln 0 is not a real value")
        return math.log(m)
    x, k = m, level
    try:
        while k:
            x = math.exp(x)
            k -= 1
    except OverflowError:
        raise DomainError(f"L{level}:{m:.17g} exceeds float range") from None
    return x


def _add_pair(la: int, ma: float, lb: int, mb: float, sign: float = 1.0) -> tuple:
    """(level, mantissa, absorbed) of a + sign*b, sign 1.0 or -1.0.

    A sum puts the larger pair first (b on a tie); a difference keeps its
    order, refusing b > a only for a b above EXACT_ARITH_MAX_LEVEL.  An a
    above that level, or a b below ABSORB_REL of a in magnitude, leaves a,
    absorbed; otherwise the float result is normalized again: below zero
    to level -1, or refused past it, for a sum and a difference alike."""
    if la < lb or (la == lb and ma <= mb):
        if sign > 0:
            la, ma, lb, mb = lb, mb, la, ma
        elif lb > EXACT_ARITH_MAX_LEVEL and (la < lb or ma < mb):
            raise DomainError("sub would leave the nonnegative range")
    if la > EXACT_ARITH_MAX_LEVEL:
        return la, ma, True
    va, vb = _real(la, ma), _real(lb, mb)
    if va > 0 and abs(vb) / va < ABSORB_REL:
        return la, ma, True
    level, m = _pair_any(va + sign * vb)
    return level, m, False


def _shifted(v: LIReal, level: int) -> LIReal:
    """v's mantissa and flag at another level, built without the range
    checks of LIReal(): they hold for the pair v already is."""
    w = _new(LIReal)
    _set_level(w, level)
    _set_mantissa(w, v.mantissa)
    _set_absorbed(w, v.absorbed)
    return w


def exp_li(v: LIReal) -> LIReal:
    """Exact level increment: exp of the represented value."""
    return _shifted(v, v.level + 1)


def ln_li(v: LIReal) -> LIReal:
    """Exact level decrement: ln of the represented value, which must be
    positive, and at level 0 no smaller than the level -1 range allows."""
    if v.level < 1:
        if v.level < 0 or v.mantissa == 0.0:
            raise DomainError(f"log of non-positive value {v}")
        if v.mantissa < _MIN_MANTISSA:
            raise _below_level_minus_1(math.log(v.mantissa))
    return _shifted(v, v.level - 1)


def xi_exact(v: LIReal) -> Fraction:
    """Super-logarithm of v, exactly level + mantissa.

    Returned as an exact rational so that the shift identity
    xi_exact(exp_li(v)) - xi_exact(v) == 1 holds with no rounding.  The
    mantissa is n/d in lowest terms with d a power of two, so n is odd
    where d > 1 and (level*d + n)/d is the sum in lowest terms: the
    Fraction is built from it directly, with no gcd.
    """
    n, d = v.mantissa.as_integer_ratio()
    t = _new(Fraction)
    _set_numerator(t, v.level * d + n)
    _set_denominator(t, d)
    return t


def xi_inv_exact(t) -> LIReal:
    """Inverse of xi_exact: a finite t >= 0 maps to (floor(t), frac(t))."""
    try:
        k = math.floor(t)
    except (ValueError, OverflowError):  # NaN or inf
        k = -1
    if k < 0:
        raise DomainError(f"xi_inv_exact requires a finite t >= 0, got {t!r}")
    return LIReal(int(k), float(t - k))


def add(a: LIReal, b: LIReal) -> LIReal:
    return LIReal(*_add_pair(a.level, a.mantissa, b.level, b.mantissa))


def sub(a: LIReal, b: LIReal) -> LIReal:
    return LIReal(*_add_pair(a.level, a.mantissa, b.level, b.mantissa, -1.0))


def _log_step(a: LIReal, b: LIReal, sign: float) -> LIReal:
    """a * b (sign 1.0) or a / b (-1.0) for a, b > 0: exp(ln a + sign ln b),
    the inner add applying its own absorption rules."""
    level, m, absorbed = _add_pair(a.level - 1, a.mantissa, b.level - 1, b.mantissa, sign)
    return LIReal(level + 1, m, absorbed)


def _tower_operand(v: LIReal) -> bool:
    """True for a positive v, False for zero; a negative v is refused."""
    if v.level < 0:
        raise DomainError(f"negative operand {v} in a tower product or quotient")
    return v.level > 0 or v.mantissa > 0.0


def mul(a: LIReal, b: LIReal) -> LIReal:
    if a.level > EXACT_ARITH_MAX_LEVEL or b.level > EXACT_ARITH_MAX_LEVEL:
        if not (_tower_operand(a) and _tower_operand(b)):
            return _ZERO
        return _log_step(a, b, 1.0)
    return LIReal(*_pair_any(_real(a.level, a.mantissa) * _real(b.level, b.mantissa)))


def div(a: LIReal, b: LIReal) -> LIReal:
    if a.level > EXACT_ARITH_MAX_LEVEL or b.level > EXACT_ARITH_MAX_LEVEL:
        if not _tower_operand(b):
            raise DomainError("division by zero")
        if not _tower_operand(a):
            return _ZERO
        return _log_step(a, b, -1.0)
    vb = _real(b.level, b.mantissa)
    if vb == 0.0:
        raise DomainError("division by zero")
    r = _real(a.level, a.mantissa) / vb
    if r == math.inf:  # by a subnormal divisor; no float product here overflows
        return _log_step(a, b, -1.0)
    return LIReal(*_pair_any(r))


def neg(v: LIReal) -> LIReal:
    """-v, which is sub(0, v): refused for a v above EXACT_ARITH_MAX_LEVEL,
    whose negative no level-index value holds."""
    if v.level > EXACT_ARITH_MAX_LEVEL:
        raise DomainError(f"the level-index value {format_li(v)} cannot be negated")
    return sub(_ZERO, v)


def format_li(v: LIReal) -> str:
    """Textual form "L<level>:<mantissa>" with 17 significant digits."""
    return f"L{v.level}:{v.mantissa:.17g}"


def parse_li(text: str) -> LIReal:
    s = text.strip()
    if not s.startswith("L") or ":" not in s:
        raise DomainError(f"not a level-index literal: {text!r}")
    level_s, _, mant_s = s[1:].partition(":")
    try:
        level, m = int(level_s), float(mant_s)
        if level != MIN_LEVEL or not 0.0 < m < 1.0:
            return LIReal(level, m)
    except ValueError as exc:
        raise DomainError(f"bad level-index literal {text!r}: {exc}") from None
    return LIReal(level, m)  # refuses a subnormal m in the words of to_li
