"""Order-of-growth estimation along ladders.

The central quantity is the order of f with respect to F,

    O_F(f) = lim F(f(x)) - F(x)  as x -> oo,

estimated by evaluating the residual F(f(x)) - F(x) along a ladder of
sample points and applying a Cauchy criterion to the tail.  The module
also houses the regularity testers R0-R3.

Limits here can converge logarithmically, so there is no extrapolation
by default: an estimate that has not settled is returned with
converged=False and the caller decides what to do with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence

from . import funcexpr
from .funcexpr import EvalError
from .lixnum import DomainError, LIReal

__all__ = [
    "Ladder",
    "OrderEstimate",
    "RegReport",
    "order_of",
    "check_R",
]

# ---------------------------------------------------------------------------
# Ladders


class Ladder(tuple):
    """A strictly increasing sequence of sample points, built once, and the
    description to_json() returns.

    Ladder(points) holds any sequence of at least MIN_COUNT strictly
    increasing points (a Ladder is returned as it is); geometric(x0, ratio,
    count) holds the floats x0 * ratio^i; tower(m, levels) holds the
    level-index points e_1(m), ..., e_levels(m), which is where
    super-logarithm-scale limits actually turn on.
    """

    MIN_COUNT = 8

    def __new__(cls, points):
        if isinstance(points, Ladder):
            return points
        pts = tuple(points)
        if len(pts) < cls.MIN_COUNT or any(not a < b for a, b in zip(pts, pts[1:])):
            raise ValueError(f"a ladder needs at least {cls.MIN_COUNT} "
                             "strictly increasing points")
        return cls._described(pts, {"kind": "points", "count": len(pts),
                                    "first": str(pts[0]), "last": str(pts[-1])})

    @classmethod
    def _described(cls, points, desc: dict) -> "Ladder":
        self = tuple.__new__(cls, points)
        self._desc = desc
        return self

    @classmethod
    def geometric(cls, x0: float, ratio: float, count: int) -> "Ladder":
        if not (x0 > 0 and ratio > 1):  # refuses NaN too
            raise ValueError("geometric ladder needs x0 > 0 and ratio > 1")
        if count < cls.MIN_COUNT:
            raise ValueError(f"ladder needs at least {cls.MIN_COUNT} points")
        x0, ratio, count = float(x0), float(ratio), int(count)
        # the last point as the ladder computes it: a log test passes at
        # equality, where 2^1024 rounds to inf
        if math.isinf(funcexpr._times_power(x0, ratio, count - 1)):
            raise ValueError(f"geometric ladder x0={x0!r}, ratio={ratio!r}, "
                             f"count={count} overflows the float range")
        # one log for the ladder: up to |i log ratio| = 700, where it splits
        # k, _times_power is the product x0 * ratio^i
        log_r = math.log(ratio)
        return cls._described(
            (x0 * ratio ** i if abs(i * log_r) <= 700.0
             else funcexpr._times_power(x0, ratio, i) for i in range(count)),
            {"kind": "geometric", "x0": x0, "ratio": ratio, "count": count})

    @classmethod
    def tower(cls, mantissa: float, levels: int) -> "Ladder":
        if not 0.0 <= mantissa < 1.0:
            raise ValueError("tower mantissa must lie in [0, 1)")
        if levels < cls.MIN_COUNT:
            raise ValueError(f"ladder needs at least {cls.MIN_COUNT} points")
        mantissa, levels = float(mantissa), int(levels)
        return cls._described((LIReal(j, mantissa) for j in range(1, levels + 1)),
                              {"kind": "tower", "mantissa": mantissa, "levels": levels})

    def to_json(self) -> dict:
        return dict(self._desc)

    @classmethod
    def from_spec(cls, spec: str) -> "Ladder":
        """Parse "geom:<x0>:<ratio>:<count>" or "tower:<mantissa>:<levels>"."""
        parts = spec.split(":")
        try:
            if parts[0] == "geom" and len(parts) == 4:
                return cls.geometric(float(parts[1]), float(parts[2]), int(parts[3]))
            if parts[0] == "tower" and len(parts) == 3:
                return cls.tower(float(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise ValueError(f"bad ladder spec {spec!r}: {exc}") from None
        raise ValueError(f"bad ladder spec {spec!r}; want geom:x0:ratio:count "
                         f"or tower:mantissa:levels")


# ---------------------------------------------------------------------------
# Sample plumbing


def _residual(a, b) -> float:
    # exact when both sides are exact rationals (the super-logarithm path):
    # float(a - b) as one correctly rounded int division, with no Fraction
    # built for the difference
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return ((a.numerator * b.denominator - b.numerator * a.denominator)
                / (a.denominator * b.denominator))
    return float(a) - float(b)


def _tail(seq: Sequence) -> list:
    """The window a limit is read from: the last third, at least two items."""
    return seq[-max(2, math.ceil(len(seq) / 3)):]


def _mean(tail: Sequence) -> float:
    """The mean, summed left to right: sum() of floats is compensated from
    Python 3.12 on, which moves last digits the goldens hold."""
    total = 0.0
    for v in tail:
        total += v
    return total / len(tail)


def _point_repr(x) -> str:
    return str(x) if isinstance(x, LIReal) else repr(float(x))


# ---------------------------------------------------------------------------
# Order estimation


@dataclass
class OrderEstimate:
    lambda_hat: float
    residuals: List[float]
    converged: bool
    tail_spread: float
    tol: float
    window: int

    def to_json(self) -> dict:
        return dict(vars(self))  # the fields, in field order


def order_of(F, f, ladder, tol: float = 1e-3) -> OrderEstimate:
    """Estimate O_F(f) = lim F(f(x)) - F(x) along the ladder.

    The estimate is the mean of the last-window residuals; converged means
    the tail is Cauchy within tol.  Non-convergence is a result, not an
    error; evaluation failures are errors and name the offending point.
    Any sequence Ladder() accepts serves as the ladder.
    """
    Ffn, ffn = funcexpr.Fn(F).raw, funcexpr.Fn(f).raw
    residuals = []
    for x in Ladder(ladder):
        try:
            fx = ffn(x)
            residuals.append(_residual(Ffn(fx), Ffn(x)))
        except (DomainError, EvalError, OverflowError, ValueError) as exc:
            raise EvalError(f"evaluation failed at ladder point {_point_repr(x)}: "
                            f"{exc}") from exc
    tail = _tail(residuals)
    spread = max(tail) - min(tail)
    return OrderEstimate(lambda_hat=_mean(tail),
                         residuals=residuals,
                         converged=spread <= tol,
                         tail_spread=spread, tol=tol, window=len(tail))


# ---------------------------------------------------------------------------
# Regularity testers


@dataclass
class RegReport:
    condition: str
    samples: List[float]
    margins: List[float]
    verdict: bool
    tol: float
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return dict(vars(self))  # the fields, in field order


def _float_points(ladder) -> List[float]:
    pts = []
    for x in Ladder(ladder):
        try:
            pts.append(float(x))
        except DomainError as exc:
            raise EvalError(f"ladder point {_point_repr(x)} not usable for a "
                            f"float-range check: {exc}") from exc
    return pts


def _sublinear_probe(x: float) -> float:
    # the canonical o(x) perturbation; strong enough to catch (log x)^2
    return x / max(math.log(x), 2.0)


_R_TOL = 5e-2  # a condition holds when every tail margin is at most this
_SHIFTS = {"R1": (1.0, 2.0, 4.0), "R3": (0.25, 0.5, 2.0, 4.0)}


def check_R(conditions, F, ladder) -> List[RegReport]:
    """Sample regularity conditions R0-R3 along the ladder: one report per
    condition, in the given order.

    R0: F(x + o(x)) = F(x) + o(1)        margin |F(x+p) - F(x)|, p = x/log x
    R1: F'(x + c) ~ F'(x), c constant    margin |F'(x+c)/F'(x) - 1|
    R2: F'(x + o(x)) ~ F'(x)             margin with the same probe as R0
    R3: F'(cx) ~ (1/c) F'(x)             margin |c F'(cx)/F'(x) - 1|

    The conditions share F and F' values: each is evaluated once per
    distinct point, in caches that live as long as this call.
    """
    conds = [c.upper() for c in conditions]
    for c in conds:
        if c not in ("R0", "R1", "R2", "R3"):
            raise ValueError(f"unknown regularity condition {c!r}")
    xs = _float_points(ladder)
    F = funcexpr.Fn(F)
    Fx = functools.cache(F.raw)
    dF = None
    reports = []
    for cond in conds:
        margins = []
        if cond == "R0":
            for x in xs:
                margins.append(abs(_residual(Fx(x + _sublinear_probe(x)), Fx(x))))
        else:
            if dF is None:
                dF = functools.cache(F.derivative)
            for x in xs:
                base = dF(x)
                if base == 0:
                    raise EvalError(f"F' vanished at {x!r}")
                if cond == "R1":
                    m = max(abs(dF(x + c) / base - 1.0) for c in _SHIFTS["R1"])
                elif cond == "R2":
                    m = abs(dF(x + _sublinear_probe(x)) / base - 1.0)
                else:
                    m = max(abs(lam * dF(lam * x) / base - 1.0) for lam in _SHIFTS["R3"])
                margins.append(m)
        tail = _tail(margins)
        reports.append(RegReport(condition=cond, samples=list(xs), margins=margins,
                                 verdict=max(tail) <= _R_TOL, tol=_R_TOL,
                                 extra={"window": len(tail)}))
    return reports
