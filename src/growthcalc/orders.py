"""Order-of-growth estimation along ladders.

The central quantity is the order of f with respect to F,

    O_F(f) = lim F(f(x)) - F(x)  as x -> oo,

estimated by evaluating the residual F(f(x)) - F(x) along a ladder of
sample points and applying a Cauchy criterion to the tail.  The module
also houses the regularity testers R0-R3, membership tests for the
classes B_F ((F o f)' ~ F') and B'_F (same with bounded ratios), and a
numeric cross-check of the order/derivative duality theorem.

Limits here can converge logarithmically, so there is no extrapolation
by default: an estimate that has not settled is returned with
converged=False and the caller decides what to do with it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence

from . import abel, funcexpr
from .funcexpr import EvalError
from .lixnum import DomainError, LIReal

__all__ = [
    "Ladder",
    "OrderEstimate",
    "RegReport",
    "order_of",
    "check_R",
    "in_B_F",
    "in_Bprime_F",
    "check_theorem_1_3",
]

# ---------------------------------------------------------------------------
# Ladders

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class Ladder:
    """A strictly increasing sequence of sample points.

    geometric(x0, ratio, count) emits floats x0 * ratio^i; tower(m, levels)
    emits the level-index points e_1(m), ..., e_levels(m), which is where
    super-logarithm-scale limits actually turn on.
    """

    kind: str
    x0: float = 0.0
    ratio: float = 0.0
    count: int = 0
    mantissa: float = 0.0

    MIN_COUNT = 8

    @classmethod
    def geometric(cls, x0: float, ratio: float, count: int) -> "Ladder":
        if x0 <= 0 or ratio <= 1:
            raise ValueError("geometric ladder needs x0 > 0 and ratio > 1")
        if count < cls.MIN_COUNT:
            raise ValueError(f"ladder needs at least {cls.MIN_COUNT} points")
        if math.log(x0) + (count - 1) * math.log(ratio) > _LOG_FLOAT_MAX:
            raise ValueError(f"geometric ladder x0={x0!r}, ratio={ratio!r}, "
                             f"count={count} overflows the float range")
        return cls(kind="geometric", x0=float(x0), ratio=float(ratio), count=int(count))

    @classmethod
    def tower(cls, mantissa: float, levels: int) -> "Ladder":
        if not 0.0 <= mantissa < 1.0:
            raise ValueError("tower mantissa must lie in [0, 1)")
        if levels < cls.MIN_COUNT:
            raise ValueError(f"ladder needs at least {cls.MIN_COUNT} points")
        return cls(kind="tower", mantissa=float(mantissa), count=int(levels))

    def points(self) -> list:
        if self.kind == "geometric":
            return [_geometric_point(self.x0, self.ratio, i) for i in range(self.count)]
        return [LIReal(j, self.mantissa) for j in range(1, self.count + 1)]

    def to_json(self) -> dict:
        if self.kind == "geometric":
            return {"kind": "geometric", "x0": self.x0, "ratio": self.ratio,
                    "count": self.count}
        return {"kind": "tower", "mantissa": self.mantissa, "levels": self.count}

    @classmethod
    def from_spec(cls, spec: str) -> "Ladder":
        """Parse "geom:<x0>:<ratio>:<count>" or "tower:<mantissa>:<levels>"."""
        parts = spec.split(":")
        try:
            if parts[0] in ("geom", "geometric") and len(parts) == 4:
                return cls.geometric(float(parts[1]), float(parts[2]), int(parts[3]))
            if parts[0] == "tower" and len(parts) == 3:
                return cls.tower(float(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise ValueError(f"bad ladder spec {spec!r}: {exc}") from None
        raise ValueError(f"bad ladder spec {spec!r}; want geom:x0:ratio:count "
                         f"or tower:mantissa:levels")


def _geometric_point(x0: float, ratio: float, i: int) -> float:
    """x0 * ratio**i; where ratio**i alone overflows, the power is split in
    halves, each step of which stays below the (representable) result."""
    try:
        return x0 * ratio ** i
    except OverflowError:
        h = i // 2
        return _geometric_point(_geometric_point(x0, ratio, h), ratio, i - h)


# ---------------------------------------------------------------------------
# Sample plumbing


def _residual(a, b) -> float:
    # exact when both sides are exact rationals (the super-logarithm path)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return float(a - b)
    return float(a) - float(b)


def _tail(seq: Sequence) -> list:
    """The window a limit is read from: the last third, at least two items."""
    return seq[-max(2, math.ceil(len(seq) / 3)):]


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
        return {"lambda_hat": self.lambda_hat, "residuals": self.residuals,
                "converged": self.converged, "tail_spread": self.tail_spread,
                "tol": self.tol, "window": self.window}


def _aitken(seq: Sequence[float]) -> List[float]:
    out = []
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        d = (c - b) - (b - a)
        out.append(c if d == 0 else c - (c - b) ** 2 / d)
    return out or list(seq)


def order_of(F, f, ladder, tol: float = 1e-3,
             accelerate: bool = False) -> OrderEstimate:
    """Estimate O_F(f) = lim F(f(x)) - F(x) along the ladder.

    The estimate is the mean of the last-window residuals; converged means
    the tail is Cauchy within tol.  Non-convergence is a result, not an
    error; evaluation failures are errors and name the offending point.
    A plain increasing sequence of points is accepted in place of a Ladder.
    """
    Ffn, ffn = funcexpr.Fn(F).raw, funcexpr.Fn(f).raw
    pts = ladder.points() if hasattr(ladder, "points") else list(ladder)
    residuals = []
    for x in pts:
        try:
            fx = ffn(x)
            residuals.append(_residual(Ffn(fx), Ffn(x)))
        except (DomainError, EvalError, OverflowError, ValueError) as exc:
            raise EvalError(f"evaluation failed at ladder point {_point_repr(x)}: "
                            f"{exc}") from exc
    tail = _tail(_aitken(residuals) if accelerate else residuals)
    spread = max(tail) - min(tail)
    return OrderEstimate(lambda_hat=sum(tail) / len(tail),
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
        return {"condition": self.condition, "samples": self.samples,
                "margins": self.margins, "verdict": self.verdict,
                "tol": self.tol, "extra": self.extra}


def _float_points(ladder: Ladder) -> List[float]:
    pts = []
    for x in ladder.points():
        try:
            pts.append(float(x))
        except DomainError as exc:
            raise EvalError(f"ladder point {_point_repr(x)} not usable for a "
                            f"float-range check: {exc}") from exc
    return pts


def _sublinear_probe(x: float) -> float:
    # the canonical o(x) perturbation; strong enough to catch (log x)^2
    return x / max(math.log(x), 2.0)


def check_R(condition: str, F, ladder: Ladder, tol: float = 5e-2) -> RegReport:
    """Sample one of the regularity conditions R0-R3 along the ladder.

    R0: F(x + o(x)) = F(x) + o(1)        margin |F(x+p) - F(x)|, p = x/log x
    R1: F'(x + c) ~ F'(x), c constant    margin |F'(x+c)/F'(x) - 1|
    R2: F'(x + o(x)) ~ F'(x)             margin with the same probe as R0
    R3: F'(cx) ~ (1/c) F'(x)             margin |c F'(cx)/F'(x) - 1|
    """
    cond = condition.upper()
    if cond not in ("R0", "R1", "R2", "R3"):
        raise ValueError(f"unknown regularity condition {condition!r}")
    xs = _float_points(ladder)
    F = funcexpr.Fn(F)
    margins = []
    if cond == "R0":
        for x in xs:
            margins.append(abs(_residual(F.raw(x + _sublinear_probe(x)), F.raw(x))))
    else:
        dF = F.derivative
        shifts = {"R1": (1.0, 2.0, 4.0), "R3": (0.25, 0.5, 2.0, 4.0)}
        for x in xs:
            base = dF(x)
            if base == 0:
                raise EvalError(f"F' vanished at {x!r}")
            if cond == "R1":
                m = max(abs(dF(x + c) / base - 1.0) for c in shifts["R1"])
            elif cond == "R2":
                m = abs(dF(x + _sublinear_probe(x)) / base - 1.0)
            else:
                m = max(abs(lam * dF(lam * x) / base - 1.0) for lam in shifts["R3"])
            margins.append(m)
    tail = _tail(margins)
    return RegReport(condition=cond, samples=xs, margins=margins,
                     verdict=max(tail) <= tol, tol=tol,
                     extra={"window": len(tail)})


def _b_ratios(f, F, xs: List[float]) -> List[float]:
    # (F o f)' / F' = f'(x) F'(f(x)) / F'(x)
    f = funcexpr.Fn(f)
    df, dF = f.derivative, funcexpr.Fn(F).derivative
    out = []
    for x in xs:
        denom = dF(x)
        if denom == 0:
            raise EvalError(f"F' vanished at {x!r}")
        out.append(df(x) * dF(float(f.raw(x))) / denom)
    return out


def in_B_F(f, F, ladder: Ladder, tol: float = 5e-2) -> RegReport:
    """Test f in B_F, i.e. (F o f)' ~ F' (equivalently f' ~ L(f)/L, L = 1/F')."""
    xs = _float_points(ladder)
    ratios = _b_ratios(f, F, xs)
    margins = [abs(r - 1.0) for r in ratios]
    tail = _tail(margins)
    return RegReport(condition="B_F", samples=xs, margins=margins,
                     verdict=max(tail) <= tol, tol=tol,
                     extra={"ratios": ratios, "window": len(tail)})


def in_Bprime_F(f, F, ladder: Ladder, c_bound: float = 16.0) -> RegReport:
    """Test f in B'_F: the derivative ratio stays inside [1/c, c]."""
    xs = _float_points(ladder)
    ratios = _b_ratios(f, F, xs)
    tail = _tail(ratios)
    c = max(max(r, 1.0 / r) if r > 0 else math.inf for r in tail)
    verdict = math.isfinite(c) and c <= c_bound
    return RegReport(condition="BprimeF", samples=xs,
                     margins=[abs(r - 1.0) for r in ratios],
                     verdict=verdict, tol=c_bound,
                     extra={"ratios": ratios, "c": c, "window": len(tail)})


# ---------------------------------------------------------------------------
# Order/derivative duality cross-check


_DUALITY_TOL = 5e-2
_ABEL_BASE = 0.5
_ABEL_LADDER = Ladder.geometric(1.0, 1.2, 10)
# membership needs samples where g(x) is still a float (g may be exp-like)
_B_LADDER = Ladder.geometric(2.0, 1.4, 16)


def check_theorem_1_3(F, g, f, ladder: Ladder) -> dict:
    """Cross-check the order of f measured in g-units two independent ways.

    Direct side: O_F(f) / O_F(g) along the ladder.  Abel side: O_G(f)
    where G is a freshly solved Abel function of g (its own normalization,
    so agreement is a genuine consistency check, not an identity).
    Requires g in B_F; if that precondition fails the report is vacuous.
    """
    b = in_B_F(g, F, _B_LADDER)
    report = {"b_membership": b.to_json(), "vacuous": False,
              "lambda_direct": None, "lambda_abel": None, "agree": None,
              "tol": _DUALITY_TOL}
    if not b.verdict:
        report["vacuous"] = True
        report["reason"] = "g not in B_F on this ladder"
        return report
    est_f = order_of(F, f, ladder)
    est_g = order_of(F, g, ladder)
    report["order_f"] = est_f.to_json()
    report["order_g"] = est_g.to_json()
    if not (est_f.converged and est_g.converged) or abs(est_g.lambda_hat) < 1e-9:
        report["vacuous"] = True
        report["reason"] = "orders along the ladder did not converge"
        return report
    lam_direct = est_f.lambda_hat / est_g.lambda_hat

    G = abel.solve_abel(g, _ABEL_BASE)
    est_abel = order_of(G, f, _ABEL_LADDER)
    report["order_abel"] = est_abel.to_json()
    lam_abel = est_abel.lambda_hat

    report["lambda_direct"] = lam_direct
    report["lambda_abel"] = lam_abel
    report["agree"] = est_abel.converged and abs(lam_direct - lam_abel) <= _DUALITY_TOL
    return report
