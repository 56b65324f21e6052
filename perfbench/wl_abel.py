"""The `abel` workload: Abel questions through the library API.

An op solves a generator from {x+c, c*x, x^p, exp(x), x+sqrt(x)} at a base
A, then evaluates F(x), F^{-1}(t) or f^lambda(x) once, with a pullback
depth from a few steps to about 10^3.  A third of the solutions get their
exact inverse, a third none, and a third go through solution_to_json /
solution_from_json, which drops the inverse: only those without an
inverse pay the pullback bisection.  Each run also opens with one
regularized op, solve_abel_regularized("log(x)", 2) evaluated at a few
points in [3, 50]; the run's `--seconds` are measured after it.

Oracles: the linear-seed Abel function computed independently in mpmath
with the generator's exact inverse (for x + c and c * x these are the
closed forms; matching it at x and f(x) implies the Abel residual and the
group law), and for the regularized solution F(x) - F(log x) = 1.
"""

from __future__ import annotations

import math

import mpmath

import oracles as orc
from core import Draw, Op
from oracles import mpf

RTOL = 1e-9
F_ATOL = 1e-8
REG_A = 2.0
REG_POINTS = (3.0, 7.0, 20.0)
REG_ATOL = 1e-6
BISECT_OVERFLOW = 1e154
# pullback depths, cycled per cell: each run holds the same mix of cheap and
# deep evaluations, so the median and the tail land on the same kind of op
DEPTHS = (1, 3, 10, 30, 100, 300, 1000)
MODES = ("inverse", "none", "json")
KINDS = ("F", "F_inv", "iterate")


class Gen:
    """A generator family: text, base, float and mpmath maps and inverses."""

    def __init__(self, name, lo, hi, base, text, f, f_inv, f_mp, f_inv_mp):
        self.name, self.lo, self.hi, self.base = name, lo, hi, base
        self.text, self.f, self.f_inv = text, f, f_inv
        self.f_mp, self.f_inv_mp = f_mp, f_inv_mp

    def max_depth(self, c) -> int:
        """Largest n with f^(n+1)(A) < 1e300: every op input stays a float."""
        f, y, n = self.f(c), self.base, -1
        while n < 1000:
            try:
                y = f(y)
            except OverflowError:
                break
            if not y < 1e300:
                break
            n += 1
        return max(n, 1)


GENS = [
    Gen("x+c", 0.5, 3.0, 1.0, lambda c: f"x+{c:.4g}",
        lambda c: (lambda y: y + c), lambda c: (lambda y: y - c),
        lambda c: (lambda y: y + c), lambda c: (lambda y: y - c)),
    Gen("c*x", 1.2, 3.0, 1.0, lambda c: f"{c:.4g}*x",
        lambda c: (lambda y: c * y), lambda c: (lambda y: y / c),
        lambda c: (lambda y: c * y), lambda c: (lambda y: y / c)),
    Gen("x^p", 1.5, 3.0, 2.0, lambda p: f"x^{p:.4g}",
        lambda p: (lambda y: y ** p), lambda p: (lambda y: y ** (1.0 / p)),
        lambda p: (lambda y: y ** p), lambda p: (lambda y: y ** (1 / mpf(p)))),
    Gen("exp", 0.0, 0.0, 0.5, lambda c: "exp(x)",
        lambda c: math.exp, lambda c: math.log,
        lambda c: mpmath.exp, lambda c: mpmath.log),
    Gen("x+sqrt(x)", 0.0, 0.0, 1.0, lambda c: "x+sqrt(x)",
        lambda c: (lambda y: y + math.sqrt(y)),
        lambda c: (lambda y: ((math.sqrt(1 + 4 * y) - 1) / 2) ** 2),
        lambda c: (lambda y: y + mpmath.sqrt(y)),
        lambda c: (lambda y: ((mpmath.sqrt(1 + 4 * y) - 1) / 2) ** 2)),
]


class Workload:
    name = "abel"
    lead = 1  # the regularized op; the timed seconds start after it
    # every cell (generator, mode, kind) meets every pullback depth once
    cycle = len(DEPTHS) * len(GENS) * len(MODES) * len(KINDS)
    # the mix: one regularized op per two cycles of ordinary ops
    ratio_ops = 1 + 2 * cycle

    def __init__(self, seed: int, tmpdir):
        from growthcalc import abel
        self.abel = abel
        self.seed = seed

    def op(self, d: Draw, gen: Gen, mode: str, kind: str) -> Op:
        cell = f"{gen.name}/{mode}/{kind}"
        c = round(gen.lo + (gen.hi - gen.lo) * d.u(cell + ".c"), 3)
        text, A = gen.text(c), gen.base
        f, f_inv = gen.f(c), gen.f_inv(c)
        # f^lambda(x) lies below f(x), which must stay a float too
        dmax = max(1, gen.max_depth(c) - (kind == "iterate"))
        depth = min(dmax, d.pick(cell + ".depth", DEPTHS))
        v = 0.05 + 0.9 * d.u(cell + ".v")
        lam = round(0.05 + 0.9 * d.u(cell + ".lam"), 4)
        y = A + v * (f(A) - A)
        for _ in range(depth):
            y = f(y)
        x, t = y, depth + v
        oracle = orc.LinearSeedAbel(gen.f_mp(c), gen.f_inv_mp(c), A)
        abel = self.abel

        def solve():
            if mode == "none":
                return abel.solve_abel(text, A=A)
            sol = abel.solve_abel(text, A=A, f_inv=f_inv)
            if mode == "json":
                sol = abel.solution_from_json(abel.solution_to_json(sol))
            return sol

        if kind == "F":
            def call():
                return solve().eval(x)

            def check(got):
                orc.close_abs(got, oracle.F(x), F_ATOL, f"F({x!r}) for {text}")
        elif kind == "F_inv":
            def call():
                return solve().inverse(t)

            def check(got):
                orc.close(got, oracle.F_inv(t), RTOL, f"F^-1({t!r}) for {text}")
        else:
            def call():
                return solve().fractional_iterate(lam, x)

            def check(got):
                orc.close(got, oracle.iterate(lam, x), RTOL, f"f^{lam}({x!r}) for {text}")
        # past sqrt(max float) growthcalc's geometric bisection midpoint
        # sqrt(lo * hi) overflows, and pullbacks without an inverse go wrong
        overflow = mode != "inverse" and kind != "F_inv" and x > BISECT_OVERFLOW
        return Op(kind=f"abel.{kind}", key=f"{text}@{A}/{mode}/{kind}:{x!r}:{lam}",
                  call=call, check=check, abel_mode=mode, depth=depth,
                  defect="bisection-overflow" if overflow else None)

    def regularized(self) -> Op:
        abel = self.abel

        def call():
            sol = abel.solve_abel_regularized("log(x)", REG_A)
            return sol, [sol.F(x) for x in REG_POINTS]

        return Op(kind="abel.regularized", key=f"regularized log(x) @ {REG_A}",
                  call=call, check=check_regularized, defect="regularized-step")

    def block(self, d: Draw) -> list:
        return d.shuffled([self.op(d, g, m, kind)
                           for g in GENS for m in MODES for kind in KINDS])

    def stream(self):
        yield self.regularized()
        d = Draw(self.seed, "abel")
        while True:
            yield from self.block(d)

    def warmup(self) -> list:
        d = Draw(self.seed, "abel-warmup")
        return [self.op(d, g, "inverse", "F") for g in GENS]

    def sample(self) -> list:
        d = Draw(self.seed, "abel-sample")
        return [self.op(d, g, m, kind) for g in GENS for m in ("inverse", "json")
                for kind in KINDS]


def check_regularized(ans) -> None:
    """F(x) - F(log x) = 1 at points away from the normalization point."""
    sol, values = ans
    for x, fx in zip(REG_POINTS, values):
        step = fx - sol.F(math.log(x))
        orc.close_abs(step, 1, REG_ATOL, f"regularized F({x}) - F(log {x})")
