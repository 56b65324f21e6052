"""The concrete super-logarithm hierarchy and companions.

Level map:

    xi_0(x) = x - e
    xi_1(x) = x / e
    xi_2(x) = ln x
    xi_3(x) = the super-logarithm (exact on level-index numbers: level + mantissa)
    xi_k, k >= 4: an Abel function of the inverse of xi_{k-1}, computed by
        applying xi_{k-1} until the value drops into the fundamental domain
        [2, xi_{k-1}^{-1}(2)] and counting the steps; linear seed there.

xi_3 returns an exact Fraction only when called at top level (order_of's
exact residual on deep towers needs it).  For k >= 5 the first pullback
step is xi_{k-1} of any input, which answers a float; every later step
runs in one float loop that never re-enters the public xi_k.  Each xi_3
step of the xi_4 pullback is a pair (L, m): L + m >= e is exact on it, and
the next pair comes from the float L + m, which rounds as the Fraction would.

The base point for levels >= 4 is 2, not 1: the super-logarithm fixes 1
(xi_3(1) = 1), so a fundamental domain anchored at 1 would be degenerate.
Levels >= 4 are normalized by xi_k(2) = 1 and xi_k(e) = 2.  That choice
makes [2, e] the fundamental domain of every level at once (xi_{k-1}(e) = 2
closes the recursion, just as xi_3(e) = 2 does at the bottom) and keeps
each xi_k at least 0.7 below the diagonal, so the step-counting pullback
terminates quickly and no level acquires a fixed point above the base.

There is one hierarchy, levels 0..MAX_LEVEL; it holds no state, so the
module instance HIER serves every caller.

Companions: chi, the reciprocal of xi_3', defined by chi = 1 on [0, 1] and
chi(x) = x * chi(ln x).  Of a float it is the float product
x * ln x * ln ln x * ..., to within a few units of 2^-52, while that product
is finite.  The pair sum is for towers, and for the few inputs past the
product's range: its log, ln x + ln ln x + ..., is summed on level-index
pairs by lixnum's addition, so towers never overflow.  xi_k' follows from
chi and the seed slope by the chain rule, with no differencing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from . import lixnum
from .lixnum import DomainError, LIReal

__all__ = ["XiHierarchy", "HIER", "MAX_LEVEL", "default_hierarchy", "BASE", "BASE_XI"]

Value = Union[float, Fraction, LIReal]

_E = math.e
_LI_E = lixnum.to_li(_E)

BASE = 2.0            # base point of the level >= 4 fundamental domains
TOP = math.e          # right end: xi_{k-1}(e) = 2 exactly, for every k >= 4
BASE_XI = 1.0         # xi_k(2) for every k >= 4

MAX_LEVEL = 8

_MAX_STEPS = 10 ** 6

# L + m >= e exactly iff L >= 3 or (L == 2 and m >= e - 2); the float
# e - 2 is exact (Sterbenz)
_E_MINUS_2 = _E - 2.0
_EXACT_INT = 2 ** 53  # integers below this are exact floats
# _at_least's float bounds as exact rationals, built once: Fraction >= float
# would build the same Fraction on every call
_EXACT_BOUNDS = {top: Fraction(top) for top in (TOP, BASE - 1e-9)}


class XiHierarchy:
    """Levels 0..MAX_LEVEL of the hierarchy; callers use the instance HIER."""

    # -- the shared [2, e] fundamental domain for levels >= 4 ----------------

    @staticmethod
    def _seed(x: float) -> float:
        return BASE_XI + (x - BASE) / (TOP - BASE)

    @staticmethod
    def _seed_inv(t: float) -> float:
        return BASE + (t - BASE_XI) * (TOP - BASE)

    # -- the hierarchy ------------------------------------------------------

    def xi_k(self, k: int, x):
        """xi_k(x); returns an exact Fraction for k = 3 on LIReal input."""
        if not 0 <= k <= MAX_LEVEL:
            raise DomainError(f"level {k} outside 0..{MAX_LEVEL}")
        if k <= 2 and not isinstance(x, LIReal):
            try:
                x = float(x)
            except OverflowError:  # an int or Fraction past the float range
                if k == 2 and x > 0:  # the log to_li takes of it
                    return math.log(x.numerator) - math.log(x.denominator)
                x = lixnum.to_li(x)
        if k == 0:
            return lixnum.sub(x, _LI_E) if isinstance(x, LIReal) else x - _E
        if k == 1:
            return lixnum.div(x, _LI_E) if isinstance(x, LIReal) else x / _E
        if k == 2:
            if isinstance(x, LIReal):
                w = lixnum.ln_li(x)
                try:
                    return float(w)
                except DomainError:
                    return w
            if x <= 0:
                raise DomainError(f"log of non-positive value {x!r}")
            return math.log(x)
        if k == 3:
            return lixnum.xi_exact(lixnum.to_li(x))
        # k >= 4: pull back with xi_{k-1} until inside [2, e)
        if type(x) is float:
            return _xi_float(k, x)
        if not self._at_least(x, TOP):
            # exact base test: a negative int past the float range has no
            # float, and a Fraction just under the base may round onto it
            return _seeded(k, 0, float(x) if self._at_least(x, BASE - 1e-9) else -math.inf)
        if k == 4:
            v = lixnum.to_li(x)
            return _xi_4_pairs(v.level, v.mantissa)
        return _xi_float(k, self.xi_k(k - 1, x), 1)

    @staticmethod
    def _at_least(y, top: float) -> bool:
        if isinstance(y, LIReal):
            if y.level >= 4:
                return True  # any tower dwarfs the float-sized domain top
            return float(y) >= top
        if isinstance(y, (int, Fraction)):
            return y >= _EXACT_BOUNDS[top]  # exact; no float of a big rational
        return float(y) >= top

    def xi_k_inv(self, k: int, t) -> LIReal:
        """xi_k^{-1}(t); exact on a tower for k = 2, on a Fraction for k = 3."""
        if k == 2:
            return lixnum.exp_li(lixnum.to_li(t))
        if k <= 1 and not isinstance(t, LIReal):
            try:
                t = float(t)
            except OverflowError:  # an int or Fraction past the float range
                return (lixnum.add if k == 0 else lixnum.mul)(lixnum.to_li(t), _LI_E)
        if k != 3 or isinstance(t, LIReal):
            t = float(t)
        if k == 0:
            return lixnum.to_li(t + _E)
        if k == 1:
            return lixnum.to_li(t * _E)
        if k == 3:
            return lixnum.xi_inv_exact(t)
        if not 4 <= k <= MAX_LEVEL:
            raise DomainError(f"level {k} outside 0..{MAX_LEVEL}")
        if not BASE_XI - 1e-12 <= t < math.inf:
            raise DomainError(f"xi_{k}_inv needs a finite t >= {BASE_XI}, got {t!r}")
        n = max(0, math.floor(t - BASE_XI))  # the slack below takes no step
        frac = t - n
        z: Value = self._seed_inv(frac)
        for _ in range(n):
            # xi_{k-1}^{-1} applied to the value z (overflows honestly
            # once the tower outgrows the level-index float range)
            z = self.xi_k_inv(k - 1, float(z))
        return lixnum.to_li(z)

    # -- companions ---------------------------------------------------------

    def chi(self, x):
        """chi(x) = x * chi(ln x), chi = 1 on [0, 1]; LIReal for tower output.

        A float x > 1 answers the float product x * ln x * ln ln x * ...,
        each iterate above 1 multiplied in, while the product stays finite
        (to about 2.08e304).  A tower, an int or Fraction past the float
        range and a float whose product overflows take the log instead:
        ln chi(x) = ln x + ln ln x + ... down to the [0, 1] band.  For
        x = (L, m) the terms are the pairs (L - 1, m), (L - 2, m), ..., and
        the sum runs on (level, mantissa) pairs through lixnum's own
        addition, so towers never overflow and no step builds an LIReal.
        """
        if isinstance(x, LIReal):
            level, m = x.level, x.mantissa
        else:
            try:
                xf = float(x)
            except OverflowError:
                # an int or Fraction past the float range, read as xi reads it
                x = lixnum.to_li(x)
                level, m = x.level, x.mantissa
            else:
                if xf < 0:
                    raise DomainError(f"chi needs a nonnegative argument, got {xf!r}")
                if xf <= 1.0:
                    return 1.0
                if xf < math.inf:  # inf and NaN go on to _pair_any, which names them
                    p, t = xf, math.log(xf)
                    while t > 1.0:
                        p *= t
                        t = math.log(t)
                    if p < math.inf:
                        return p
                level, m = lixnum._pair_any(xf)
        # terms (level - 1, m) down to (0, m), or to (1, m) if m = 0.  The
        # sum starts at the first, flagged absorbed as 0 + ln x is; past an
        # absorbed addition every term is smaller, so absorbed too.
        last = 0 if m > 0.0 else 1
        al, am, absorbed = (level - 1, m, True) if level > last else (0, 0.0, False)
        for lb in range(level - 2, last - 1, -1):
            al, am, absorbed = lixnum._add_pair(al, am, lb, m)
            if absorbed:
                break
        try:
            return lixnum._real(al + 1, am)
        except DomainError:
            return LIReal(al + 1, am, absorbed)

    def _xi_k_deriv(self, k: int, x: float) -> float:
        """xi_k'(x): closed forms up to k = 3; above, by the chain rule on
        xi_k(x) = xi_k(xi_{k-1}(x)) + 1 along the pullback orbit."""
        if not 0 <= k <= MAX_LEVEL:
            raise DomainError(f"level {k} outside 0..{MAX_LEVEL}")
        if k <= 1:
            return _E ** -k  # xi_0 = x - e, xi_1 = x / e
        if k == 2:
            if x <= 0:
                raise DomainError(f"log of non-positive value {x!r}")
            return 1.0 / x
        if k == 3:
            if x < 0:
                return math.exp(x)  # xi_3(x) = e^x - 1 below 0
            c = self.chi(x)
            if isinstance(c, LIReal):
                return math.exp(-float(lixnum.ln_li(c)))  # subnormal or 0
            return 1.0 / c
        slope = 1.0
        while x >= TOP:
            slope *= self._xi_k_deriv(k - 1, x)
            x = float(self.xi_k(k - 1, x))
        if not x >= BASE - 1e-9:
            # _seeded raises: below the base, or non-finite for a NaN
            _seeded(k, 0, x if type(x) is float else -math.inf)
        return slope / (TOP - BASE)


def _xi_4_pairs(level: int, m: float) -> float:
    """xi_4 of a pair at or above e, stepped by xi_3 on bare (L, m) pairs:
    no step builds an LIReal or a Fraction, and while L is an exact float,
    L + m rounds as float(Fraction(L) + Fraction(m)) does."""
    n = 1
    while level >= 3 or (level == 2 and m >= _E_MINUS_2):
        if level < _EXACT_INT:
            level, m = lixnum._pair_any(level + m)
        else:
            v = lixnum.to_li(level + Fraction(m))
            level, m = v.level, v.mantissa
        n += 1
        if n > _MAX_STEPS:
            raise DomainError("xi_4 pullback failed to terminate")
    return _seeded(4, n, level + m)


def _xi_float(k: int, y: float, n: int = 0) -> float:
    """xi_k(y), k >= 4, of a float y reached after n pullback steps: the
    one pullback loop, whose xi_4 steps are _pair_any log chains."""
    if k == 4:
        if y >= TOP:
            return _xi_4_pairs(*lixnum._pair_any(y))
    else:
        while y >= TOP:
            y = _xi_float(k - 1, y)
            n += 1
    return _seeded(k, n, y)


def _seeded(k: int, n: int, y: float) -> float:
    """n + the [2, e] seed at y, the float left after n pullback steps."""
    if not y >= BASE - 1e-9:
        if y != y:
            lixnum._pair_any(y)  # NaN is below nothing: name it non-finite
        raise DomainError(f"xi_{k} argument below its base {BASE}")
    return n + XiHierarchy._seed(min(max(y, BASE), TOP))


HIER = XiHierarchy()


def default_hierarchy() -> XiHierarchy:
    """The one hierarchy, HIER."""
    return HIER
