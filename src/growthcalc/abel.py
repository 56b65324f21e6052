"""Abel functional equation solver.

Solves F(f(x)) = F(x) + 1 for strictly increasing f with f(x) > x by the
classical fundamental-domain construction: pick a monotone seed S on
[A, f(A)] with S(f(A)) = S(A) + 1, then extend by the recursion.  For a
contracting map (f(x) < x, e.g. log) the orientation flips: the solved F
satisfies F(f(x)) = F(x) - 1 and is still increasing.

Solutions give fractional iterates f_lambda = F^{-1}(F + lambda).
A separate regularized construction (for contracting maps whose second
derivative behaves like -f'/x) produces a solution with the smoothness
-x F''/F' -> 1, built by extending an auxiliary function H through
H = delta + eta * H(f) and integrating log F'.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from scipy.integrate import quad

from . import funcexpr
from .lixnum import DomainError

__all__ = [
    "AbelSolution",
    "RegularizedSolution",
    "HypothesisError",
    "solve_abel",
    "solve_abel_regularized",
    "solution_to_json",
    "solution_from_json",
]

MAX_PULLBACK_STEPS = 10 ** 6


class HypothesisError(ValueError):
    """A numeric precondition scan failed; carries the measured report."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Seeds


class LinearSeed:
    kind = "linear"

    def __init__(self, x0: float, x1: float, y0: float):
        self.x0, self.x1, self.y0 = x0, x1, y0
        self.slope = 1.0 / (x1 - x0)

    def __call__(self, x: float) -> float:
        return self.y0 + (x - self.x0) * self.slope

    def inv(self, t: float) -> float:
        return self.x0 + (t - self.y0) / self.slope

    def params(self) -> dict:
        return {"x0": self.x0, "x1": self.x1, "y0": self.y0}


class CubicSeed:
    """Hermite cubic on [x0, x1] from y0 to y0+1, slope ratio m1 = m0 / fpA.

    The slope condition makes the extended solution C^1 across the domain
    boundary.  m0 is fixed so the mean slope matches the secant.
    """

    kind = "smooth_c1"

    def __init__(self, x0: float, x1: float, y0: float, fpA: float):
        if fpA <= 0:
            raise DomainError(f"f'(A) must be positive, got {fpA!r}")
        self.x0, self.x1, self.y0, self.fpA = x0, x1, y0, fpA
        d = x1 - x0
        self.m0 = 2.0 / (d * (1.0 + 1.0 / fpA))
        self.m1 = self.m0 / fpA

    def __call__(self, x: float) -> float:
        d = self.x1 - self.x0
        t = (x - self.x0) / d
        h00 = 2 * t ** 3 - 3 * t ** 2 + 1
        h10 = t ** 3 - 2 * t ** 2 + t
        h01 = -2 * t ** 3 + 3 * t ** 2
        h11 = t ** 3 - t ** 2
        return (h00 * self.y0 + h10 * d * self.m0
                + h01 * (self.y0 + 1.0) + h11 * d * self.m1)

    def inv(self, t: float) -> float:
        lo, hi = self.y0, self.y0 + 1.0
        if not lo - 1e-12 <= t <= hi + 1e-12:
            raise DomainError(f"seed inverse target {t!r} outside [{lo!r}, {hi!r}]")
        if t <= lo:
            return self.x0
        if t >= hi:
            return self.x1
        return funcexpr._bisect(self, t, self.x0, self.x1)

    def params(self) -> dict:
        return {"x0": self.x0, "x1": self.x1, "y0": self.y0, "fpA": self.fpA}


class TableSeed:
    kind = "table"

    def __init__(self, knots: Sequence[tuple]):
        xs = [float(x) for x, _ in knots]
        ys = [float(y) for _, y in knots]
        if sorted(xs) != xs or sorted(ys) != ys or len(xs) < 2:
            raise DomainError("table seed knots must be increasing in both coordinates")
        if not math.isclose(ys[-1], ys[0] + 1.0, rel_tol=0, abs_tol=1e-12):
            raise DomainError("table seed must gain exactly 1 across the fundamental domain")
        self.xs, self.ys = xs, ys

    def __call__(self, x: float) -> float:
        i = bisect.bisect_right(self.xs, x) - 1
        i = min(max(i, 0), len(self.xs) - 2)
        x0, x1 = self.xs[i], self.xs[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        return y0 + (x - x0) * (y1 - y0) / (x1 - x0)

    def inv(self, t: float) -> float:
        i = bisect.bisect_right(self.ys, t) - 1
        i = min(max(i, 0), len(self.ys) - 2)
        x0, x1 = self.xs[i], self.xs[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        return x0 + (t - y0) * (x1 - x0) / (y1 - y0)

    def params(self) -> dict:
        return {"knots": list(zip(self.xs, self.ys))}


# ---------------------------------------------------------------------------
# Solutions


def _float_fn(f, hier=None):
    """(fn, text) for a function spec, with fn returning floats; values past
    the float range become inf, as they only ever feed comparisons here."""
    raw, text = funcexpr.callable_of(f, hier)

    def fn(x):
        v = raw(x)
        try:
            return float(v)
        except DomainError:
            return math.inf

    return fn, text


@dataclass
class AbelSolution:
    f: Callable[[float], float]
    A: float
    seed: object
    direction: str  # 'expanding' | 'contracting'
    f_inv: Optional[Callable[[float], float]] = None
    f_text: Optional[str] = None
    seed_kind: str = "linear"

    @property
    def expr_text(self) -> Optional[str]:
        return self.f_text and f"abel[{self.f_text}]"

    @property
    def domain_lo(self) -> float:
        return min(self.A, self.f(self.A))

    @property
    def domain_hi(self) -> float:
        return max(self.A, self.f(self.A))

    def _inverse_step(self, y: float) -> float:
        if self.f_inv is not None:
            return self.f_inv(y)
        width = max(abs(y), 1.0)
        if self.f(y) >= y:
            # root below y; the pullback never drops under the domain start
            hi = y
            lo = max(self.domain_lo, y - width)
            for _ in range(200):
                if self.f(lo) <= y:
                    break
                if lo <= self.domain_lo:
                    break
                width *= 2
                lo = max(self.domain_lo, y - width)
            else:
                raise DomainError(f"could not bracket f^-1({y!r})")
        else:
            lo = y
            hi = y + width
            for _ in range(200):
                if self.f(hi) >= y:
                    break
                width *= 2
                hi = y + width
            else:
                raise DomainError(f"could not bracket f^-1({y!r})")
        return funcexpr._bisect(self.f, y, lo, hi)

    def _pull_into_domain(self, x: float):
        """Return (y, n) with y in the fundamental domain and x = step^n(y)."""
        lo, hi = self.domain_lo, self.domain_hi
        if x < lo - 1e-12 * max(1.0, abs(lo)):
            raise DomainError(f"{x!r} below the solution base {lo!r}")
        edge = hi + 1e-12 * max(1.0, abs(hi))
        back = (self._inverse_step if self.direction == "expanding" else self.f)
        y, n = x, 0
        while y > edge:
            if n >= MAX_PULLBACK_STEPS:
                raise DomainError("pullback failed to enter the fundamental domain")
            y = back(y)
            n += 1
        return min(y, hi), n

    def eval(self, x) -> float:
        y, n = self._pull_into_domain(float(x))
        return n + self.seed(y)

    __call__ = eval

    def inverse(self, t: float) -> float:
        s_lo = self.seed(self.domain_lo)
        if t < s_lo - 1e-12:
            raise DomainError(f"{t!r} below the solution range start {s_lo!r}")
        n = int(math.floor(t - s_lo))
        frac = t - n
        if frac > self.seed(self.domain_hi):
            n += 1
            frac = t - n
        y = self.seed.inv(frac)
        fwd = self.f if self.direction == "expanding" else self._inverse_step
        for _ in range(n):
            y = fwd(y)
        return y

    def fractional_iterate(self, lam: float, x) -> float:
        return self.inverse(self.eval(x) + lam)


def solve_abel(f, A: float, seed_kind: Union[str, Sequence] = "linear",
               f_inv: Optional[Callable[[float], float]] = None,
               hier=None) -> AbelSolution:
    fn, f_text = _float_fn(f, hier)
    A = float(A)
    fA = fn(A)
    if fA == A:
        raise DomainError(f"f has a fixed point at the base A={A!r}")
    direction = "expanding" if fA > A else "contracting"
    lo, hi = (A, fA) if direction == "expanding" else (fA, A)

    # quick monotonicity scan over the fundamental domain
    prev = None
    for i in range(17):
        t = lo + (hi - lo) * i / 16
        v = fn(t)
        if prev is not None and v <= prev:
            raise DomainError(f"f is not strictly increasing near {t!r}")
        prev = v

    if seed_kind == "linear":
        seed = LinearSeed(lo, hi, 0.0)
        kind = "linear"
    elif seed_kind == "smooth_c1":
        h = 1e-6 * max(1.0, abs(A))
        fpA = (fn(A + h) - fn(A - h)) / (2 * h)
        seed = CubicSeed(lo, hi, 0.0, fpA)
        kind = "smooth_c1"
    else:
        seed = TableSeed(seed_kind)
        kind = "table"

    return AbelSolution(f=fn, A=A, seed=seed, direction=direction,
                        f_inv=f_inv, f_text=f_text, seed_kind=kind)


# ---------------------------------------------------------------------------
# Serialization (seed-cache files)


def solution_to_json(sol: AbelSolution) -> dict:
    if sol.f_text is None:
        raise DomainError("only solutions built from expression text are serializable")
    return {
        "f": sol.f_text,
        "A": sol.A,
        "seed_kind": sol.seed.kind,
        "seed_params": sol.seed.params(),
    }


def solution_from_json(data: dict, hier=None) -> AbelSolution:
    kind = data["seed_kind"]
    fn, f_text = _float_fn(data["f"], hier)
    A = float(data["A"])
    p = data["seed_params"]
    if kind == "linear":
        seed = LinearSeed(p["x0"], p["x1"], p["y0"])
    elif kind == "smooth_c1":
        seed = CubicSeed(p["x0"], p["x1"], p["y0"], p["fpA"])
    elif kind == "table":
        seed = TableSeed([tuple(k) for k in p["knots"]])
    else:
        raise DomainError(f"unknown seed kind {kind!r}")
    fA = fn(A)
    direction = "expanding" if fA > A else "contracting"
    return AbelSolution(f=fn, A=A, seed=seed, direction=direction,
                        f_text=f_text, seed_kind=kind)


# ---------------------------------------------------------------------------
# Regularized construction for contracting maps


@dataclass
class RegularizedSolution:
    f: Callable[[float], float]
    A: float
    hypothesis: dict
    _seed_lo: float = 0.0
    _scale: Optional[float] = None

    def eta(self, x: float) -> float:
        h = 1e-5 * max(1.0, abs(x))
        fp = (self.f(x + h) - self.f(x - h)) / (2 * h)
        return x * fp / self.f(x)

    def delta(self, x: float) -> float:
        h = 1e-4 * max(1.0, abs(x))
        fp = (self.f(x + h) - self.f(x - h)) / (2 * h)
        fpp = (self.f(x + h) - 2 * self.f(x) + self.f(x - h)) / (h * h)
        return 1.0 + x * fpp / fp - self.eta(x)

    def H(self, x: float) -> float:
        # H = delta + eta * H(f); the recursion contracts into [f(A), A]
        if x <= self.A:
            if x < self._seed_lo - 1e-9:
                raise DomainError(f"{x!r} below the regularized seed interval")
            # linear seed pinned so that (A2) at A gives H(A) = 0
            eA = self.eta(self.A)
            h_lo = -self.delta(self.A) / eA if eA != 0 else 0.0
            lo = self._seed_lo
            if self.A == lo:
                return 0.0
            return h_lo * (self.A - x) / (self.A - lo)
        for _ in range(MAX_PULLBACK_STEPS):
            if x <= self.A:
                return self.H(x)
            d, e = self.delta(x), self.eta(x)
            return d + e * self.H(self.f(x))
        raise DomainError("regularized recursion failed to terminate")

    def log_F_prime(self, x: float) -> float:
        with warnings.catch_warnings():
            # H has kinks at iterated images of the seed interval; quad
            # flags them as roundoff but the value is fine at our tolerance
            warnings.simplefilter("ignore")
            val, _ = quad(lambda t: (self.H(t) + 1.0) / t, self.A, x,
                          epsrel=1e-10, limit=400)
        return -val

    def F_prime(self, x: float) -> float:
        return math.exp(self.log_F_prime(x))

    def _raw_F(self, x: float) -> float:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val, _ = quad(self.F_prime, self.A, x, epsrel=1e-8, limit=400)
        return val

    def F(self, x: float) -> float:
        # normalize once so the Abel step F - F(f) is 1 at a reference point;
        # the construction itself only fixes F up to scale
        if self._scale is None:
            ref = max(self.A, 1.0) * 1e3
            step = self._raw_F(ref) - self._raw_F(self.f(ref))
            self._scale = 1.0 / step if step > 0 else 1.0
        return self._scale * self._raw_F(x)

    __call__ = F

    def regularity_ratio(self, x: float) -> float:
        """Numerically measured -x F''/F' (should tend to 1)."""
        h = 0.01 * x
        slope = (self.log_F_prime(x + h) - self.log_F_prime(x - h)) / (2 * h)
        return -x * slope


def solve_abel_regularized(f, A: float, hier=None, span: float = 1e6) -> RegularizedSolution:
    fn, _ = _float_fn(f, hier)
    A = float(A)
    fA = fn(A)
    if not fA < A:
        raise HypothesisError("regularized mode needs a contracting map (f(x) < x)",
                              {"A": A, "f(A)": fA})

    sol = RegularizedSolution(f=fn, A=A, hypothesis={}, _seed_lo=fA)

    # scan f'' ~ -f'/x and |eta| < 1 on [A, A*span]
    ratios, etas = [], []
    x = max(A, 1.0) * 2.0
    top = max(A, 1.0) * span
    while x <= top:
        h = 1e-4 * x
        fp = (fn(x + h) - fn(x - h)) / (2 * h)
        fpp = (fn(x + h) - 2 * fn(x) + fn(x - h)) / (h * h)
        if fp <= 0:
            raise HypothesisError("f is not increasing on the scan range", {"x": x, "f'": fp})
        ratios.append(-x * fpp / fp)
        etas.append(x * fp / fn(x))
        x *= 10.0
    report = {"A": A, "span": span, "curvature_ratios": ratios, "etas": etas}
    sol.hypothesis = report
    if any(abs(e) >= 1.0 - 1e-9 for e in etas):
        raise HypothesisError("contraction check failed: |eta| >= 1 on the scan range", report)
    tail = ratios[-3:] if len(ratios) >= 3 else ratios
    if any(not (0.5 <= r <= 1.5) for r in tail):
        raise HypothesisError("curvature hypothesis f'' ~ -f'/x failed", report)
    return sol
