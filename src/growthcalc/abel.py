"""Abel functional equation solver.

Solves F(f(x)) = F(x) + 1 for strictly increasing f with f(x) > x by the
classical fundamental-domain construction: pick a monotone seed S on
[A, f(A)] with S(f(A)) = S(A) + 1, then extend by the recursion.  For a
contracting map (f(x) < x, e.g. log) the orientation flips: the solved F
satisfies F(f(x)) = F(x) - 1 and is still increasing.  Evaluating F pulls
x back into the fundamental domain one step at a time; a backward step
uses the caller's f_inv, else the exact inverse funcexpr.invert derives
from an expression, else a bisection narrowed by Newton steps on f'.

Solutions give fractional iterates f_lambda = F^{-1}(F + lambda).
A separate regularized construction (for contracting maps whose second
derivative behaves like -f'/x) produces a solution with the smoothness
-x F''/F' -> 1: log F' in closed form and F as one Gauss-Legendre table
on the fundamental domain, carried to larger x by the functional equations.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

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


def _expr_fns(f, f_inv):
    """(fn, text, f_inv, fp) for solve_abel and solution_from_json, parsing
    expression text once.

    An expression spec without an explicit f_inv gets funcexpr.invert's
    exact inverse; one it cannot invert gets its symbolic derivative fp
    instead, for Newton steps in the pullback's bisection.  Plain
    callables get neither.
    """
    expr = funcexpr.parse(f) if isinstance(f, str) else f
    fn, text = funcexpr._float_fn(expr)
    if isinstance(f, str):
        text = f
    fp = None
    if f_inv is None and funcexpr.is_expr(expr):
        inv = funcexpr.invert(expr)
        if inv is not None:
            f_inv, _ = funcexpr._float_fn(inv)
        else:
            try:
                fp = funcexpr.derivative(expr)
            except funcexpr.EvalError:
                pass
    return fn, text, f_inv, fp


@dataclass
class AbelSolution:
    f: Callable[[float], float]
    A: float
    seed: object
    direction: str  # 'expanding' | 'contracting'
    f_inv: Optional[Callable[[float], float]] = None
    f_text: Optional[str] = None
    seed_kind: str = "linear"
    fp: Optional[Callable[[float], float]] = None  # f', for Newton steps without f_inv

    @property
    def expr_text(self) -> Optional[str]:
        return self.f_text and f"abel[{self.f_text}]"

    def __post_init__(self):
        fA = self.f(self.A)
        self.domain_lo, self.domain_hi = min(self.A, fA), max(self.A, fA)

    def _inverse_step(self, y: float) -> float:
        if self.f_inv is not None:
            return self.f_inv(y)
        # the pullback only steps from y > domain_hi = f(domain_lo)
        return funcexpr._bisect(self.f, y, self.domain_lo, y, self.fp)

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
            prev, y = y, back(y)
            n += 1
            if not y < prev:
                raise DomainError(
                    f"the pullback of {x!r} does not approach the fundamental "
                    f"domain [{lo!r}, {hi!r}] of base A={self.A!r} (a step "
                    f"from {prev!r} gave {y!r})")
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
               f_inv: Optional[Callable[[float], float]] = None) -> AbelSolution:
    fn, f_text, f_inv, fp = _expr_fns(f, f_inv)
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
        seed = CubicSeed(lo, hi, 0.0, funcexpr._numdiff(fn, A))
        kind = "smooth_c1"
    else:
        seed = TableSeed(seed_kind)
        kind = "table"

    return AbelSolution(f=fn, A=A, seed=seed, direction=direction,
                        f_inv=f_inv, f_text=f_text, seed_kind=kind, fp=fp)


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


def solution_from_json(data: dict) -> AbelSolution:
    kind = data["seed_kind"]
    fn, f_text, f_inv, fp = _expr_fns(data["f"], None)
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
                        f_inv=f_inv, f_text=f_text, seed_kind=kind, fp=fp)


# ---------------------------------------------------------------------------
# Regularized construction for contracting maps
#
# With H = -x F''/F' - 1, differentiating F(x) = F(f(x)) + 1 twice gives
#     H(x) = delta(x) + eta(x) * H(f(x)),
#     eta = x f'/f,  delta = eta - 1 - x f''/f'.
# H is linear on the fundamental domain D = [f(A), A].  Its two
# coefficients come from continuity at A, H(A) = delta(A) + eta(A) H(f(A)),
# and from compatibility, int_D (H + 1)/t dt = -log f'(A); together they
# make F' and F'' continuous across A.  On D, log F' then has a closed form
# and F is one cumulative Gauss-Legendre table on a geometric grid; past A
# the functional equations pull x down into D with f.

_GL_POINTS = 8
_PANELS = 32


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    by Newton iteration on the Legendre polynomial P_n."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) < 1e-16:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(zip(nodes, weights))


_GL_RULE = _gauss_legendre(_GL_POINTS)


def _derivatives(f):
    """(f', f'') as float functions for the spec f: symbolic for expression
    text or a FuncExpr, central differences for a plain callable and for an
    f' with no symbolic derivative."""
    if isinstance(f, str):
        f = funcexpr.parse(f)
    fp = funcexpr.derivative(f)
    if funcexpr.is_expr(f):
        try:
            return fp, funcexpr.derivative(funcexpr.differentiate(f))
        except funcexpr.EvalError:
            pass
    return fp, funcexpr.derivative(fp)


class RegularizedSolution:
    """The regular solution of F(f(x)) = F(x) - 1 for a contracting f, with
    F(A) = 0 and F(f(A)) = -1, defined for x >= f(A)."""

    def __init__(self, f, fp, fpp, A: float, hypothesis: dict):
        self.f, self.fp, self.fpp, self.A = f, fp, fpp, A
        self.hypothesis = hypothesis
        lo = self._lo = f(A)
        if not 0.0 < lo < A:
            raise DomainError(f"fundamental domain [{lo!r}, {A!r}] must be positive")
        w = self._w = A - lo
        L = math.log(A / lo)
        # H = p + q (t - lo)/w on D; continuity at A and compatibility:
        #   (1 - eta(A)) p + q = delta(A)
        #   L p + (1 - lo L / w) q = -log f'(A) - L
        a11, a12, b1 = 1.0 - self.eta(A), 1.0, self.delta(A)
        a21, a22, b2 = L, 1.0 - lo * L / w, -math.log(fp(A)) - L
        det = a11 * a22 - a12 * a21
        if det == 0.0:
            raise DomainError("the seed conditions for H are singular at this A")
        self._p = (b1 * a22 - a12 * b2) / det
        self._q = (a11 * b2 - a21 * b1) / det
        # on D, -(log F')' = (H + 1)/t integrates to alpha log(t/lo) + q (t-lo)/w
        self._alpha = self._p + 1.0 - self._q * lo / w
        self._log_scale = 0.0  # the table is integrated unscaled, then scaled
        grid = [lo * (A / lo) ** (i / _PANELS) for i in range(_PANELS)] + [A]
        cum = [0.0]
        for a, b in zip(grid, grid[1:]):
            cum.append(cum[-1] + self._integral(a, b))
        # scale F' so that F gains exactly 1 across D
        self._log_scale = -math.log(cum[-1])
        self._grid = grid
        self._cum = [c / cum[-1] for c in cum]

    def eta(self, x: float) -> float:
        return x * self.fp(x) / self.f(x)

    def delta(self, x: float) -> float:
        return self.eta(x) - 1.0 - x * self.fpp(x) / self.fp(x)

    def _pull(self, x):
        """(path, y): the points x, f(x), f(f(x)), ... above A, and y, the
        first point of the orbit in D."""
        x = float(x)
        if not math.isfinite(x):
            raise DomainError(f"the regularized solution is not defined at {x!r}")
        if x < self._lo:
            raise DomainError(f"{x!r} below the regularized seed interval")
        path = []
        while x > self.A:
            if len(path) >= MAX_PULLBACK_STEPS:
                raise DomainError("pullback failed to enter the fundamental domain")
            path.append(x)
            x = self.f(x)
        return path, x

    def _log_F_prime_D(self, t: float) -> float:
        return (self._log_scale - self._alpha * math.log(t / self._lo)
                - self._q * (t - self._lo) / self._w)

    def _integral(self, a: float, b: float) -> float:
        """Gauss-Legendre integral of F' over [a, b] inside D."""
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        return half * sum(w * math.exp(self._log_F_prime_D(mid + half * u))
                          for u, w in _GL_RULE)

    def H(self, x: float) -> float:
        path, y = self._pull(x)
        h = self._p + self._q * (y - self._lo) / self._w
        for t in reversed(path):
            h = self.delta(t) + self.eta(t) * h
        return h

    def log_F_prime(self, x: float) -> float:
        path, y = self._pull(x)
        return self._log_F_prime_D(y) + sum(math.log(self.fp(t)) for t in path)

    def F(self, x: float) -> float:
        path, y = self._pull(x)
        i = bisect.bisect_right(self._grid, y) - 1
        return self._cum[i] + self._integral(self._grid[i], y) - 1.0 + len(path)

    __call__ = F

    def regularity_ratio(self, x: float) -> float:
        """Numerically measured -x F''/F' (should tend to 1)."""
        h = 1e-4 * x
        slope = (self.log_F_prime(x + h) - self.log_F_prime(x - h)) / (2 * h)
        return -x * slope


def solve_abel_regularized(f, A: float, span: float = 1e6) -> RegularizedSolution:
    fn, _ = funcexpr._float_fn(f)
    A = float(A)
    fA = fn(A)
    if not fA < A:
        raise HypothesisError("regularized mode needs a contracting map (f(x) < x)",
                              {"A": A, "f(A)": fA})
    fp, fpp = _derivatives(f)

    # scan f'' ~ -f'/x and |eta| < 1 on [A, A*span]
    ratios, etas = [], []
    x = max(A, 1.0) * 2.0
    top = max(A, 1.0) * span
    while x <= top:
        d1 = fp(x)
        if d1 <= 0:
            raise HypothesisError("f is not increasing on the scan range", {"x": x, "f'": d1})
        ratios.append(-x * fpp(x) / d1)
        etas.append(x * d1 / fn(x))
        x *= 10.0
    report = {"A": A, "span": span, "curvature_ratios": ratios, "etas": etas}
    if any(abs(e) >= 1.0 - 1e-9 for e in etas):
        raise HypothesisError("contraction check failed: |eta| >= 1 on the scan range", report)
    tail = ratios[-3:] if len(ratios) >= 3 else ratios
    if any(not (0.5 <= r <= 1.5) for r in tail):
        raise HypothesisError("curvature hypothesis f'' ~ -f'/x failed", report)
    return RegularizedSolution(fn, fp, fpp, A, report)
