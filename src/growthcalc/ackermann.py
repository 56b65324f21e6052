"""Ackermann levels, their real extensions, and the level-lowering operator.

The two-variable recursion here is the base-2 variant

    A(m, 0) = 2,  A(0, n) = n + 2,  A(m+1, n+1) = A(m, A(m+1, n)),

so A(1, n) = 2n + 2, A(2, n) = 2^(n+2) - 2, and A(3, .) climbs a tower of
twos.  Values stay exact integers while feasible and spill into level-index
numbers beyond that.  G(m, .) is the real inverse of A(m, .) in the second
argument: closed forms through m = 2, an Abel-equation solution for m = 3.

op_L is the operator f -> f(f^{-1} + 1).  It lowers each growth class by
one and walks down both ladders: op_L of the inverse super-logarithm at
level k+1 gives level k, and op_L(A_real(m+1, .)) meets A_real(m, .) at the
integer anchors.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from . import abel, funcexpr, lixnum
from .lixnum import DomainError, LIReal
from .xihier import HIER

__all__ = [
    "ack",
    "ack_closed_form",
    "G_real",
    "A_real",
    "op_L",
    "xi_inv_handle",
    "supported_envelope",
]

_LN2 = math.log(2.0)

# largest n per m for exact evaluation; beyond (up to _N_MAX) the value is
# returned as a level-index tower
_N_EXACT = {3: 3, 4: 1}
_N_MAX = {0: None, 1: None, 2: 10 ** 4, 3: 6, 4: 2}
_M_MAX = 4

_memo: dict = {(0, 0): 2}


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
            return 2 ** (v + 2) - 2
        v = lixnum.to_li(v)
    # tower scale: the -2 and +2 are far below representable resolution
    return lixnum.exp_li(lixnum.mul(lixnum.add(v, lixnum.from_real(2.0)),
                                    lixnum.from_real(_LN2)))


def ack(m: int, n: int) -> Union[int, LIReal]:
    """A(m, n): exact integer while feasible, level-index tower beyond."""
    _check_range(m, n)
    key = (m, n)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    if n == 0:
        val: Union[int, LIReal] = 2
    elif m == 0:
        val = n + 2
    elif m == 1:
        val = 2 * n + 2
    elif m == 2:
        val = 2 ** (n + 2) - 2
    elif m == 3:
        val = _a2_step(ack(3, n - 1))
    else:  # m == 4: A(4, n+1) = A(3, A(4, n)), and A(4, 1) = A(3, 2)
        inner = ack(4, n - 1)
        if not isinstance(inner, int):
            raise DomainError("ack(4, n) needs an integer inner height")
        # A(3, inner): iterate the A(2, .) step from A(3, 0) = 2
        val = 2
        for _ in range(inner):
            val = _a2_step(val)
    _memo[key] = val
    return val


def ack_closed_form(m: int, n: int) -> int:
    """The m <= 2 closed forms, kept separate as an independent cross-check."""
    if m == 0:
        return n + 2
    if m == 1:
        return 2 * n + 2
    if m == 2:
        return 2 ** (n + 2) - 2
    raise DomainError(f"no closed form for m={m!r}")


# ---------------------------------------------------------------------------
# Real extensions


def _a2_real(x: float) -> float:
    return 2.0 ** (x + 2.0) - 2.0


def _a2_real_inv(y: float) -> float:
    if y <= -2.0:
        raise DomainError(f"A(2, .) inverse needs y > -2, got {y!r}")
    return math.log2(y + 2.0) - 2.0


_g3_solution: Optional[abel.AbelSolution] = None


def _g3() -> abel.AbelSolution:
    """Abel solution G(3, .) of the step A(2, .), anchored so that
    G(3, A(3, n)) = n: smooth seed on the fundamental domain [2, 14]."""
    global _g3_solution
    if _g3_solution is None:
        _g3_solution = abel.solve_abel(_a2_real, A=2.0, seed_kind="smooth_c1",
                                       f_inv=_a2_real_inv)
    return _g3_solution


def G_real(m: int, x) -> float:
    """G(m, x), the real inverse of A(m, .): G(m, A(m, n)) = n."""
    if not 0 <= m <= 3:
        raise DomainError(f"G_real supports 0 <= m <= 3, got m={m!r}")
    if m == 3:
        shift = 0
        if isinstance(x, int) and x >= 2 ** 1024:
            # exact pullback through powers of two keeps huge anchors exact
            x = math.log2(x + 2) - 2.0
            shift = 1
        return _g3().eval(float(x)) + shift
    xf = float(x)
    if m == 0:
        return xf - 2.0
    if m == 1:
        return xf / 2.0 - 1.0
    return _a2_real_inv(xf)


def A_real(m: int, t: float) -> float:
    """The inverse of G_real(m, .): a strictly increasing interpolation of
    n -> A(m, n) through the integer anchors."""
    if not 0 <= m <= 3:
        raise DomainError(f"A_real supports 0 <= m <= 3, got m={m!r}")
    t = float(t)
    if m == 0:
        return t + 2.0
    if m == 1:
        return 2.0 * t + 2.0
    if m == 2:
        return _a2_real(t)
    return _g3().inverse(t)


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
        raise DomainError("op_L needs an inverse: pass f_inv or a handle with .inverse")
    f_raw = fn.raw
    # an expression inverse can return a level-index number; the unit
    # shift needs a float
    return funcexpr.Fn(lambda x: f_raw(float(inv(x)) + 1),
                       text=fn.text and f"L[{fn.text}]")


def xi_inv_handle(k: int) -> funcexpr.Fn:
    """The inverse of xi_k, with xi_k as its exact inverse."""

    def xi_inv(t):
        if isinstance(t, LIReal) and k == 2:
            return lixnum.exp_li(t)
        return HIER.xi_k_inv(k, float(t))

    return funcexpr.Fn(xi_inv, text=f"xi_{k}_inv",
                       inverse=lambda v: float(HIER.xi_k(k, v)))
