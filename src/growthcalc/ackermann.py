"""Ackermann levels, their real extensions, and the level-lowering operator.

The two-variable recursion here is the base-2 variant

    A(m, 0) = 2,  A(0, n) = n + 2,  A(m+1, n+1) = A(m, A(m+1, n)),

so A(1, n) = 2n + 2, A(2, n) = 2^(n+2) - 2, and A(3, .) climbs a tower of
twos: each rung is the n-fold iterate of the one below, started at 2.  One
table holds the closed forms through m = 2, and A(3, .) and A(4, .) are
iterates of A(2, .).  Values stay exact integers while feasible and spill
into level-index numbers beyond that.  G(m, .) is the real inverse of
A(m, .) in the second argument: the table's inverses through m = 2, an
Abel-equation solution for m = 3.

op_L is the operator f -> f(f^{-1} + 1).  It lowers each growth class by
one and walks down both ladders: op_L of the inverse super-logarithm at
level k+1 gives level k, and op_L(A_real(m+1, .)) meets A_real(m, .) at the
integer anchors.
"""

from __future__ import annotations

import functools
import math
from typing import Union

from . import abel, funcexpr, lixnum
from .lixnum import DomainError, LIReal
from .xihier import HIER

__all__ = [
    "ack",
    "G_real",
    "A_real",
    "op_L",
    "xi_inv_handle",
    "supported_envelope",
]

_LI_TWO, _LI_LN2 = lixnum.to_li(2.0), lixnum.to_li(math.log(2.0))

# largest n per m for exact evaluation; beyond (up to _N_MAX) the value is
# returned as a level-index tower
_N_EXACT = {3: 3, 4: 1}
_N_MAX = {0: None, 1: None, 2: 10 ** 4, 3: 6, 4: 2}
_M_MAX = 4


def _a2_inv(y):
    """G(2, y), the inverse of A(2, .), on floats and on exact ints."""
    if y <= -2:
        raise DomainError(f"A(2, .) inverse needs y > -2, got {y!r}")
    return math.log2(y + 2) - 2


# A(m, .) for m <= 2 in closed form, exact on ints and real on floats, and
# its inverse G(m, .)
_CLOSED = (lambda n: n + 2, lambda n: 2 * n + 2, lambda n: 2 ** (n + 2) - 2)
_CLOSED_INV = (lambda y: y - 2, lambda y: y / 2 - 1, _a2_inv)


def supported_envelope() -> dict:
    """The (m, n) region ack accepts, and where values go tower-valued."""
    return {"m_max": _M_MAX, "n_max": dict(_N_MAX), "n_exact": dict(_N_EXACT)}


def _check_range(m: int, n: int) -> None:
    if not (0 <= m <= _M_MAX):
        raise DomainError(f"ack supports 0 <= m <= {_M_MAX}, got m={m!r}")
    if n < 0:
        raise DomainError(f"ack needs n >= 0, got n={n!r}")
    cap = _N_MAX[m]
    if cap is not None and n > cap:
        raise DomainError(f"ack(m={m}) supports n <= {cap}, got n={n!r}")


def _a2_step(v: Union[int, LIReal]) -> Union[int, LIReal]:
    """One application of A(2, .): v -> 2^(v+2) - 2."""
    if isinstance(v, int):
        if v <= 10 ** 5:
            return _CLOSED[2](v)
        v = lixnum.to_li(v)
    # tower scale: the -2 and +2 are far below representable resolution
    return lixnum.exp_li(lixnum.mul(lixnum.add(v, _LI_TWO), _LI_LN2))


def _a2_iterate(v: Union[int, LIReal], count: int) -> Union[int, LIReal]:
    """count applications of A(2, .) to v.

    High enough up, a step is an exact level increment: add absorbs the
    +2, and mul's inner add absorbs ln ln 2 one level down, so the mantissa
    stays and the result is flagged absorbed.  Once a step has returned
    such an absorbed tower, the remaining steps are one level jump.
    """
    for done in range(count):
        if isinstance(v, LIReal) and v.absorbed:
            return LIReal(v.level + count - done, v.mantissa, absorbed=True)
        v = _a2_step(v)
    return v


def ack(m: int, n: int) -> Union[int, LIReal]:
    """A(m, n): exact integer while feasible, level-index tower beyond."""
    _check_range(m, n)
    if n == 0:
        return 2
    if m <= 2:
        return _CLOSED[m](n)
    if m == 3:
        return _a3(n)
    v = 2  # A(4, n) = A(3, A(4, n - 1)) from A(4, 0) = 2
    for _ in range(n):
        v = _a3(v)
    return v


# A(3, n) for every n asked so far, and A(3, 0)
_A3 = {0: 2}


def _a3(n: int) -> Union[int, LIReal]:
    """A(3, n), the n-fold iterate of A(2, .) from 2: n - j more steps from
    the highest A(3, j) with j < n already known.  One loop, whatever n:
    A(4, 2) asks for A(3, 65534)."""
    v = _A3.get(n)
    if v is None:
        j = max(k for k in _A3 if k < n)
        v = _A3[n] = _a2_iterate(_A3[j], n - j)
    return v


# ---------------------------------------------------------------------------
# Real extensions


@functools.cache
def _g3() -> abel.AbelSolution:
    """Abel solution G(3, .) of the step A(2, .), anchored so that
    G(3, A(3, n)) = n: smooth seed on the fundamental domain [2, 14]."""
    return abel.solve_abel(_CLOSED[2], A=2.0, seed_kind="smooth_c1",
                           f_inv=_CLOSED_INV[2])


def G_real(m: int, x) -> float:
    """G(m, x), the real inverse of A(m, .): G(m, A(m, n)) = n."""
    if not 0 <= m <= 3:
        raise DomainError(f"G_real supports 0 <= m <= 3, got m={m!r}")
    if m < 3:
        return _CLOSED_INV[m](float(x))
    if isinstance(x, int) and x >= 2 ** 1024:
        # exact pullback through powers of two keeps huge anchors exact
        return _g3().eval(_a2_inv(x)) + 1
    return _g3().eval(float(x))


def A_real(m: int, t: float) -> float:
    """The inverse of G_real(m, .): a strictly increasing interpolation of
    n -> A(m, n) through the integer anchors."""
    if not 0 <= m <= 3:
        raise DomainError(f"A_real supports 0 <= m <= 3, got m={m!r}")
    t = float(t)
    return _CLOSED[m](t) if m < 3 else _g3().inverse(t)


# ---------------------------------------------------------------------------
# The level-lowering operator


def op_L(f, f_inv=None) -> funcexpr.Fn:
    """The operator f -> f(f^{-1} + 1) for a strictly increasing f with
    f(x) > x; exact identities include op_L(exp) = e x, op_L(e x) = x + e,
    and one step down the inverse-super-logarithm ladder.  f^{-1} is
    funcexpr.Fn(f, inverse=f_inv).inverse, else for an expression the
    numeric funcexpr.invert_at."""
    fn = funcexpr.Fn(f, inverse=f_inv)
    if fn.inverse is not None:
        inv = fn.inverse.raw
    elif fn.expr is not None:
        inv = lambda y: funcexpr.invert_at(fn, float(y))  # noqa: E731
    else:
        raise DomainError("op_L needs an inverse: pass f_inv or an Fn with one")
    f_raw = fn.raw
    # an expression inverse can return a level-index number; the unit
    # shift needs a float
    return funcexpr.Fn(lambda x: f_raw(float(inv(x)) + 1),
                       text=fn.text and f"L[{fn.text}]")


def xi_inv_handle(k: int) -> funcexpr.Fn:
    """The inverse of xi_k, with xi_k as its exact inverse."""
    return funcexpr.Fn(lambda t: HIER.xi_k_inv(k, t), text=f"xi_{k}_inv",
                       inverse=lambda v: float(HIER.xi_k(k, v)))
