"""Abel functional equation solver.

Solves F(f(x)) = F(x) + 1 for strictly increasing f with f(x) > x by the
classical fundamental-domain construction: a linear or smooth C^1 seed that
maps [A, f(A)] onto [0, 1], extended by the recursion, so f, A and the
seed kind fix a solution (and are all its JSON holds).  For a
contracting map (f(x) < x, e.g. log) the orientation flips: the solved F
satisfies F(f(x)) = F(x) - 1 and is still increasing.  Evaluating F pulls
x back into the fundamental domain.  For a translation or a scaling
(funcexpr.affine_step) the pullback and the push of the inverse are one
closed-form iterate, x + k*d or x * m^k, in O(1) at any distance.  Other
maps step once per unit of F, at most MAX_PULLBACK_STEPS times; a
backward step uses the inverse funcexpr.Fn resolves (the caller's f_inv
or the exact inverse of an expression), else a bisection narrowed by
Newton steps on f'.  AbelSolution's constructor solves and binds that
choice, its direction and a linear seed's line, so eval and inverse each run
one loop; solve_abel builds one.

Solutions give fractional iterates f_lambda = F^{-1}(F + lambda).
A separate regularized construction (for contracting maps whose second
derivative behaves like -f'/x) gives -x F''/F' = 1 + H -> 1, H exact by its
recursion: log F' in closed form and F as one Gauss-Legendre table on the
fundamental domain, carried to larger x by the functional equations.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Optional, Sequence

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


class CubicSeed:
    """Hermite cubic on [x0, x1] from 0 to 1, slope ratio m1 = m0 / fpA.

    The slope condition makes the extended solution C^1 across the domain
    boundary.  m0 is fixed so the mean slope matches the secant.
    """

    def __init__(self, x0: float, x1: float, fpA: float):
        if fpA <= 0:
            raise DomainError(f"f'(A) must be positive, got {fpA!r}")
        self.x0, self.x1 = x0, x1
        d = x1 - x0
        self.m0 = 2.0 / (d * (1.0 + 1.0 / fpA))
        self.m1 = self.m0 / fpA

    def __call__(self, x: float) -> float:
        d = self.x1 - self.x0
        t = (x - self.x0) / d
        h10 = t ** 3 - 2 * t ** 2 + t
        h01 = -2 * t ** 3 + 3 * t ** 2
        h11 = t ** 3 - t ** 2
        return h10 * d * self.m0 + h01 + h11 * d * self.m1

    def inv(self, t: float) -> float:
        if not -1e-12 <= t <= 1.0 + 1e-12:
            raise DomainError(f"seed inverse target {t!r} outside [0.0, 1.0]")
        if t <= 0.0:
            return self.x0
        if t >= 1.0:
            return self.x1
        return funcexpr._bisect(self, t, self.x0, self.x1)


class TableSeed:
    """The piecewise-linear interpolant through knots strictly increasing in
    both coordinates, and its inverse, extended past the end knots.  Knots
    keep their type: Fraction knots and arguments give exact Fractions."""

    def __init__(self, knots: Sequence[tuple]):
        xs = [x for x, _ in knots]
        ys = [y for _, y in knots]
        if len(xs) < 2 or any(not (x0 < x1 and y0 < y1) for x0, x1, y0, y1
                              in zip(xs, xs[1:], ys, ys[1:])):
            raise DomainError("table knots must be at least two, strictly "
                              "increasing in both coordinates")
        self.xs, self.ys = xs, ys

    @staticmethod
    def _interp(grid, out, v):
        i = bisect.bisect_right(grid, v) - 1
        i = min(max(i, 0), len(grid) - 2)
        x0, x1 = grid[i], grid[i + 1]
        y0, y1 = out[i], out[i + 1]
        return y0 + (v - x0) * (y1 - y0) / (x1 - x0)

    def __call__(self, x):
        return self._interp(self.xs, self.ys, x)

    def inv(self, t):
        return self._interp(self.ys, self.xs, t)


# ---------------------------------------------------------------------------
# Solutions


class AbelSolution:
    """The Abel solution of f at base A, solved when it is built.

    seed_kind: "linear" (the two-knot table 0 -> 1 across the domain) or
    "smooth_c1" (the Hermite cubic); each maps the domain onto [0, 1].  The
    backward step is funcexpr.Fn(f, inverse=f_inv).inverse (an Fn given with
    no f_inv is used as it is); without one, an expression gives f' for
    Newton steps in the bisection and a callable gives none.  The
    constructor binds the evaluation path: _pull for eval and _push for
    inverse hold the domain ends with their rounding slack, a linear seed's
    line, and an affine step's constants or the step map (None: the
    bisected pre-image of f, which reads f and fp at each step).
    """

    def __init__(self, f, A: float, seed_kind: str = "linear",
                 f_inv: Optional[Callable[[float], float]] = None):
        if isinstance(f, funcexpr.Fn) and f_inv is None:
            fn = f  # used as it is: the f' it derives stays on it
        else:
            fn = funcexpr.Fn(f, inverse=f_inv)
        inv, fp = fn.inverse, None
        if inv is not None:
            # a callable inverse runs as given; an expression's returns floats
            inv = inv.raw if inv.expr is None else inv.float
        elif fn.expr is not None:
            try:
                fp = fn.derivative
            except funcexpr.EvalError:
                pass
        A = float(A)
        fA = fn.float(A)
        if fA == A:
            raise DomainError(f"f has a fixed point at the base A={A!r}")
        toward = -1 if fA > A else 1  # the direction of a step into the domain
        lo, hi = (A, fA) if toward < 0 else (fA, A)

        # quick monotonicity scan over the fundamental domain, ends included
        # exactly; f(A) is already known
        prev = None
        for i in range(17):
            t = hi if i == 16 else lo + (hi - lo) * i / 16
            v = fA if t == A else fn.float(t)
            if prev is not None and v <= prev:
                raise DomainError(f"f is not strictly increasing near {t!r}")
            prev = v

        line = None  # y0 + (y - x0) * (y1 - y0) / (x1 - x0), as TableSeed
        if seed_kind == "linear":
            seed = TableSeed([(lo, 0.0), (hi, 1.0)])
            (x0, x1), (y0, y1) = seed.xs, seed.ys
            line = (x0, y0, x1 - x0, y1 - y0)
        elif seed_kind == "smooth_c1":
            seed = CubicSeed(lo, hi, funcexpr._numdiff(fn.float, A))
        else:
            raise DomainError(f"unknown seed kind {seed_kind!r}")

        affine = None if fn.expr is None else funcexpr.affine_step(fn.expr)
        if affine is not None and affine[0] == "*" and lo <= 0:
            affine = None  # a scaling's closed form reads n off log(x) - log(edge)
        self.f, self.A, self.seed, self.seed_kind = fn.float, A, seed, seed_kind
        self.direction = "expanding" if toward < 0 else "contracting"
        self.domain_lo, self.domain_hi = lo, hi
        self.f_inv, self.f_text, self.fp, self.affine = inv, fn.text, fp, affine

        tol = 1e-12 * (hi - lo)  # rounding slack, scaled to the domain's width
        edge = hi + tol
        step = None  # (plus, s, toward, n's origin, n's unit)
        if affine is not None:
            op, s = affine
            step = ((True, s, toward, edge, abs(s)) if op == "+" else
                    (False, s, toward, math.log(edge), abs(math.log(s))))
        back, fwd = (inv, self.f) if toward < 0 else (self.f, inv)
        self._pull = (lo - tol, edge, lo, hi, line, step, back)
        self._push = (line, step, fwd)

    def _inverse_step(self, y: float) -> float:
        # the pullback only steps from y > domain_hi = f(domain_lo)
        return funcexpr._bisect(self.f, y, self.domain_lo, y, self.fp)

    def eval(self, x) -> float:
        """n + seed(y), where n steps toward the domain take x to y in it."""
        x = float(x)
        if not math.isfinite(x):
            raise DomainError(f"the Abel solution is not defined at {x!r}")
        floor, edge, lo, hi, line, affine, back = self._pull
        if x < floor:
            raise DomainError(f"{x!r} below the solution base {lo!r}")
        y, n = x, 0
        if affine is not None and x > edge:
            # the least n that takes x to at most edge, read off in closed
            # form; rounding there moves it by a step or two
            plus, s, toward, origin, unit = affine
            est = ((x if plus else math.log(x)) - origin) / unit
            if not math.isfinite(est):
                raise DomainError(f"the pullback of {x!r} overflows its step count")
            n = math.ceil(est) if est > 1 else 1
            for _ in range(3):
                y = x + toward * n * s if plus else funcexpr._times_power(x, s, toward * n)
                if y > edge:
                    n += 1
                elif n > 1 and (x + toward * (n - 1) * s if plus else
                                funcexpr._times_power(x, s, toward * (n - 1))) <= edge:
                    n -= 1
                else:
                    break
            else:
                raise DomainError(
                    f"the pullback of {x!r} into the fundamental domain "
                    f"[{lo!r}, {hi!r}] is lost in float rounding: "
                    f"one step of f does not change a number of that size")
            if y < lo:
                y = lo
        else:
            back = back or self._inverse_step
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
        if y > hi:
            y = hi
        if line is None:
            return n + self.seed(y)
        x0, y0, dx, dy = line
        return n + (y0 + (y - x0) * dy / dx)

    __call__ = eval

    def inverse(self, t: float) -> float:
        """The seed's inverse at t - n, pushed n steps out of the domain."""
        if not math.isfinite(t):
            raise DomainError(f"the Abel solution's inverse is not defined at {t!r}")
        line, affine, fwd = self._push
        if t < -1e-12:
            raise DomainError(f"{t!r} below the solution range start 0.0")
        n = max(0, math.floor(t))  # the slack below 0 takes no step
        if n > MAX_PULLBACK_STEPS and affine is None:
            raise DomainError(f"{t!r} needs more than {MAX_PULLBACK_STEPS} steps "
                              "from the fundamental domain")
        frac = t - n  # in [0, 1): the seed's range
        if line is None:
            y = self.seed.inv(frac)
        else:
            x0, y0, dx, dy = line
            y = x0 + (frac - y0) * dx / dy
        if affine is not None:
            plus, s, toward, _, _ = affine
            k = -toward * n
            y = y + k * s if plus else funcexpr._times_power(y, s, k)
            if not math.isfinite(y):
                raise DomainError(f"the inverse at {t!r} leaves the float range")
            return y
        fwd = fwd or self._inverse_step
        for _ in range(n):
            y = fwd(y)
            if not math.isfinite(y):
                raise DomainError(f"the inverse at {t!r} leaves the float range")
        return y

    def fractional_iterate(self, lam: float, x) -> float:
        return self.inverse(self.eval(x) + lam)


def solve_abel(f, A: float, seed_kind: str = "linear",
               f_inv: Optional[Callable[[float], float]] = None) -> AbelSolution:
    """AbelSolution(f, A, seed_kind, f_inv): the solve under its own name."""
    return AbelSolution(f, A, seed_kind, f_inv)


# ---------------------------------------------------------------------------
# Serialization (seed-cache files)


def solution_to_json(sol: AbelSolution) -> dict:
    """The arguments of the solve: {"f": text, "A": A, "seed_kind": kind}."""
    if sol.f_text is None:
        raise DomainError("only solutions built from expression text are serializable")
    return {"f": sol.f_text, "A": sol.A, "seed_kind": sol.seed_kind}


def solution_from_json(data: dict) -> AbelSolution:
    """Solve a solution_to_json entry again, with the same checks on f as a
    fresh solve; any other key is ignored."""
    return solve_abel(data["f"], data["A"], data["seed_kind"])


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
_SCAN_SPAN = 1e6


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


class RegularizedSolution:
    """The regular solution of F(f(x)) = F(x) - 1 for a contracting f, with
    F(A) = 0 and F(f(A)) = -1, defined for x >= f(A)."""

    def __init__(self, f, fp, fpp, A: float, fA: float, hypothesis: dict):
        self.f, self.fp, self.fpp, self.A = f, fp, fpp, A
        self.hypothesis = hypothesis
        lo = self._lo = fA
        if not 0.0 < lo < A:
            raise DomainError(f"fundamental domain [{lo!r}, {A!r}] must be positive")
        w = self._w = A - lo
        L = math.log(A / lo)
        # H = p + q (t - lo)/w on D; continuity at A and compatibility:
        #   (1 - eta(A)) p + q = delta(A)
        #   L p + (1 - lo L / w) q = -log f'(A) - L
        fpA = fp(A)
        eta_A = A * fpA / lo
        a11, a12, b1 = 1.0 - eta_A, 1.0, eta_A - 1.0 - A * fpp(A) / fpA
        a21, a22, b2 = L, 1.0 - lo * L / w, -math.log(fpA) - L
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
        """-x F''/F' - 1, exactly: linear on D, then by its recursion."""
        path, y = self._pull(x)
        h = self._p + self._q * (y - self._lo) / self._w
        for t in reversed(path):
            h = self.delta(t) + self.eta(t) * h
        return h

    def F(self, x: float) -> float:
        path, y = self._pull(x)
        i = bisect.bisect_right(self._grid, y) - 1
        return self._cum[i] + self._integral(self._grid[i], y) - 1.0 + len(path)

    __call__ = F

    def regularity_ratio(self, x: float) -> float:
        """-x F''/F', exactly 1 + H (it tends to 1)."""
        return 1.0 + self.H(x)


def solve_abel_regularized(f, A: float) -> RegularizedSolution:
    fn = funcexpr.Fn(f)
    A = float(A)
    fA = fn.float(A)
    if not fA < A:
        raise HypothesisError("regularized mode needs a contracting map (f(x) < x)",
                              {"A": A, "f(A)": fA})
    # f' is one Fn: symbolic for an expression, a central difference of a
    # callable; f'' is its derivative, a central difference of fp where f'
    # has no symbolic derivative
    dfn = funcexpr.Fn(fn.derivative if fn.expr is None else funcexpr.differentiate(fn.expr))
    d = dfn.raw

    def fp(x):
        return float(d(x))

    try:
        fpp = dfn.derivative
    except funcexpr.EvalError:
        fpp = funcexpr.Fn(fp).derivative

    # scan f'' ~ -f'/x and |eta| < 1 on [A, A * _SCAN_SPAN]
    ratios, etas = [], []
    x = max(A, 1.0) * 2.0
    top = max(A, 1.0) * _SCAN_SPAN
    while x <= top:
        d1 = fp(x)
        if d1 <= 0:
            raise HypothesisError("f is not increasing on the scan range", {"x": x, "f'": d1})
        ratios.append(-x * fpp(x) / d1)
        etas.append(x * d1 / fn.float(x))
        x *= 10.0
    report = {"A": A, "span": _SCAN_SPAN, "curvature_ratios": ratios, "etas": etas}
    if any(abs(e) >= 1.0 - 1e-9 for e in etas):
        raise HypothesisError("contraction check failed: |eta| >= 1 on the scan range", report)
    tail = ratios[-3:] if len(ratios) >= 3 else ratios
    if any(not (0.5 <= r <= 1.5) for r in tail):
        raise HypothesisError("curvature hypothesis f'' ~ -f'/x failed", report)
    return RegularizedSolution(fn.float, fp, fpp, A, fA, report)
