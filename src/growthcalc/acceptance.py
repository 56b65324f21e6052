"""End-to-end verification suite.

Eleven independent checks covering the whole surface: exact super-logarithm
arithmetic, the half-exponential, the growth-catalog chains, Abel solutions,
Ackermann levels, the level-lowering operator, regularity testers, the
classifier, staircase constructions, class separation with the sandwich
bracket, and the wobbly boundary example.  Each check returns a small
report dict; run_all collects them.  The test suite asserts on these, and
the command line exposes them as `growthcalc repro`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Dict, List

from . import abel, ackermann, classify, lixnum, orders
from .lixnum import LIReal
from .orders import Ladder
from .xihier import HIER

__all__ = ["CRITERIA", "run_all", "run_one"]


def _report(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


# 1 -------------------------------------------------------------------------


def check_xi_exactness(rng_seed: int = 20240817) -> dict:
    """xi(exp(v)) - xi(v) = 1 exactly for random level-index numbers."""
    rng = random.Random(rng_seed)
    bad = 0
    for _ in range(10 ** 4):
        v = LIReal(rng.randint(0, 100), rng.random())
        a, b = lixnum.xi_exact(lixnum.exp_li(v)), lixnum.xi_exact(v)
        # a - 1 == b by cross-multiplication: the same exact predicate as
        # a - b == 1, with no Fraction built for either side
        if (a.numerator - a.denominator) * b.denominator != b.numerator * a.denominator:
            bad += 1
    return _report("xi exactness", bad == 0,
                   f"{bad} failures out of 10000 random level-index values")


# 2 -------------------------------------------------------------------------


def check_half_exponential() -> dict:
    """The half-iterate of exp, xi^-1(xi + 1/2), squares to exp."""
    half = Fraction(1, 2)

    def phi(v: LIReal) -> LIReal:
        return lixnum.xi_inv_exact(lixnum.xi_exact(v) + half)

    worst = 0.0
    for i in range(100):
        x = 0.1 + (5.0 - 0.1) * i / 99
        y = float(phi(phi(lixnum.to_li(x))))
        worst = max(worst, abs(y / math.exp(x) - 1.0))
    at_one = phi(phi(lixnum.to_li(1.0)))
    exact_e = (lixnum.xi_exact(at_one) ==
               lixnum.xi_exact(lixnum.to_li(math.e)) == 2)
    ok = worst <= 1e-8 and exact_e
    return _report("half-exponential", ok,
                   f"max rel err {worst:.2e}; phi(phi(1)) = e exactly in "
                   f"xi-coordinates: {exact_e}")


# 3 -------------------------------------------------------------------------


def check_catalog_chains() -> dict:
    """All catalog rows: O_F1(f0) -> 1 and each chain step -> -1."""
    fails: List[str] = []
    worst_spread = 0.0
    rows = classify.catalog()
    for rep in classify.verify_rows(rows):
        for pair in rep["pairs"]:
            worst_spread = max(worst_spread, pair["tail_spread"])
            if not pair["ok"]:
                fails.append(f"{rep['name']}: O[{pair['F']}]({pair['f']}) = "
                             f"{pair['lambda_hat']:.6f}")
        if not rep["inverse_check"]["ok"]:
            fails.append(f"{rep['name']}: inverse check")
    return _report("growth-catalog chains", not fails,
                   f"{len(rows)} rows, worst tail spread {worst_spread:.2e}"
                   + (f"; failures: {fails}" if fails else ""))


# 4 -------------------------------------------------------------------------


def _geomspace(lo: float, hi: float, count: int) -> Ladder:
    return Ladder.geometric(lo, (hi / lo) ** (1.0 / (count - 1)), count)


def check_abel_solver() -> dict:
    """Abel residual 1e-9 on 1000 points for four generators; group law;
    the half-iterate of x+2 is x+1."""
    cases = [
        ("x+2", 1.0, lambda y: y - 2.0, _geomspace(1.0, 4000.0, 1000)),
        ("2*x", 1.0, lambda y: y / 2.0, _geomspace(1.01, 1e12, 1000)),
        ("x^2", 2.0, math.sqrt, _geomspace(2.0, 1e150, 1000)),
        # exp caps at x ~ 700 so f(x) is still a float
        ("exp(x)", 0.5, math.log, _geomspace(0.55, 700.0, 1000)),
    ]
    worst = 0.0
    sols: Dict[str, abel.AbelSolution] = {}
    for text, base, inv, pts in cases:
        sol = abel.solve_abel(text, A=base, f_inv=inv)
        sols[text] = sol
        for x in pts:
            worst = max(worst, abs(sol.eval(sol.f(x)) - sol.eval(x) - 1.0))
    group_worst = 0.0
    for text in ("2*x", "exp(x)"):
        sol = sols[text]
        for x in _geomspace(1.5, 40.0, 25):
            a = sol.fractional_iterate(0.3, sol.fractional_iterate(0.7, x))
            b = sol.f(x)
            group_worst = max(group_worst, abs(a / b - 1.0))
    half_worst = max(abs(sols["x+2"].fractional_iterate(0.5, x) - (x + 1.0))
                     for x in _geomspace(1.0, 4000.0, 200))
    ok = worst <= 1e-9 and group_worst <= 1e-9 and half_worst <= 1e-12
    return _report("Abel solver", ok,
                   f"max residual {worst:.2e}; group law {group_worst:.2e}; "
                   f"half-iterate of x+2 vs x+1: {half_worst:.2e}")


# 5 -------------------------------------------------------------------------


def _ack_oracle(m: int, n: int) -> int:
    # independent brute-force recursion, no closed forms
    if m == 0:
        return n + 2
    v = 2
    for _ in range(n):
        v = _ack_oracle(m - 1, v)
    return v


def check_ackermann() -> dict:
    fails: List[str] = []
    for n in range(17):
        if ackermann.ack(1, n) != 2 * n + 2:
            fails.append(f"A(1,{n})")
        if ackermann.ack(2, n) != 2 ** (n + 2) - 2:
            fails.append(f"A(2,{n})")
    if ackermann.ack(3, 2) != 65534 or _ack_oracle(3, 2) != 65534:
        fails.append("A(3,2)")
    worst_g = 0.0
    for m in range(4):
        for n in range(4):
            a = ackermann.ack(m, n)
            worst_g = max(worst_g, abs(ackermann.G_real(m, a) - n))
    if worst_g > 1e-9:
        fails.append(f"G anchors ({worst_g:.2e})")
    # ln ln A(3, 4) = 65536 ln 2 + ln ln 2, and every later A(3, n) and
    # A(4, 2) keep its mantissa to far below float resolution
    mantissa = lixnum.to_li(65536 * math.log(2.0) + math.log(math.log(2.0))).mantissa
    for m, n, level in ((3, 4, 5), (3, 5, 6), (3, 6, 7), (4, 2, 65535)):
        a = ackermann.ack(m, n)
        if not (isinstance(a, LIReal) and (a.level, a.mantissa) == (level, mantissa)):
            fails.append(f"A({m},{n}) tower")
    L3 = ackermann.op_L(lambda t: ackermann.A_real(3, t),
                        f_inv=lambda y: ackermann.G_real(3, y))
    for n in (0, 1):
        # A(3, n+1) = A(2, A(3, n)): op_L of level 3 meets level 2 here
        x = float(ackermann.ack(3, n))
        if L3(x) != ackermann.A_real(2, x):
            fails.append(f"op_L anchor n={n}")
    return _report("Ackermann levels", not fails,
                   f"closed forms n<=16, recursion oracle, G anchors to "
                   f"{worst_g:.2e}" + (f"; failures: {fails}" if fails else ""))


# 6 -------------------------------------------------------------------------


def check_op_L_chain() -> dict:
    worst_chain = 0.0
    for k in (2, 3):
        lowered = ackermann.op_L(ackermann.xi_inv_handle(k + 1))
        for i in range(21):
            t = 2.0 + 0.5 * i
            a = lowered(t)
            b = HIER.xi_k_inv(k, t)
            a = lixnum.to_li(a)
            diff = abs(float(lixnum.xi_exact(a) - lixnum.xi_exact(b)))
            worst_chain = max(worst_chain, diff)
    Lexp = ackermann.op_L("exp(x)", f_inv="log(x)")
    Llin = ackermann.op_L("e*x", f_inv="x/e")
    worst_closed = 0.0
    for x in _geomspace(1.0, 100.0, 40):
        worst_closed = max(worst_closed,
                           abs(Lexp(x) / (math.e * x) - 1.0),
                           abs(Llin(x) - (x + math.e)) / max(1.0, x))
    ok = worst_chain <= 1e-9 and worst_closed <= 1e-12
    return _report("level-lowering operator", ok,
                   f"xi-chain max err {worst_chain:.2e} (xi-coordinates); "
                   f"closed forms {worst_closed:.2e}")


# 7 -------------------------------------------------------------------------


def check_regularity() -> dict:
    ladder = Ladder.geometric(10.0, 1e12, 24)  # reaches ~1e277
    fails: List[str] = []
    for F in ("log(x)", "xi(x)"):
        for rep in orders.check_R(("R0", "R3"), F, ladder):
            if not rep.verdict:
                fails.append(f"{F} {rep.condition}")
    r0, r3 = orders.check_R(("R0", "R3"), "log(x)^2", ladder)
    if not r3.verdict:
        fails.append("log^2 R3")
    growing = all(b >= a - 1e-9 for a, b in zip(r0.margins, r0.margins[1:]))
    if r0.verdict or not growing or r0.margins[-1] < 1.0:
        fails.append("log^2 R0 should fail with growing margin")
    return _report("regularity testers", not fails,
                   f"log/xi pass R0+R3; log^2 fails R0 with margin -> "
                   f"{r0.margins[-1]:.3f}"
                   + (f"; failures: {fails}" if fails else ""))


# 8 -------------------------------------------------------------------------


def check_classifier() -> dict:
    expected = {"exp(x)": "2", "x^2": "1", "2*x": "1", "x+2": "0"}
    fails: List[str] = []
    details: List[str] = []
    for text, want in expected.items():
        rep = classify.classify_expr(text)
        witness_ok = any(c["ok"] for c in rep.order_checks)
        if rep.verdict != want or not witness_ok:
            fails.append(f"{text} -> {rep.verdict} (witness ok: {witness_ok})")
        details.append(f"{text}:{rep.verdict}")
    return _report("classifier", not fails, ", ".join(details)
                   + (f"; failures: {fails}" if fails else ""))


# 9 -------------------------------------------------------------------------


def check_staircases() -> dict:
    _, f1 = classify.staircase_class1()
    exact = all(f1(2 ** k - 1) == 2 ** k and f1(2 ** k) == 2 ** (k + 1) - 1
                for k in range(1, 31))
    F0, _ = classify.staircase_class0()
    a = [2 ** (2 ** k) for k in range(1, 5)]
    ratios = []
    for t in _geomspace(float(a[0]), float(a[3]), 60):
        x = Fraction(int(t))
        ratios.append(float(F0(x) / x))
    in_band = all(0.2 <= r < 1.0 for r in ratios)
    return _report("staircases", exact and in_band,
                   f"unit-step identity exact for k<=30: {exact}; F(x)/x in "
                   f"[{min(ratios):.3f}, {max(ratios):.3f}] on [a1, a4]")


# 10 ------------------------------------------------------------------------


def check_separation_sandwich() -> dict:
    worst = 0.0
    for x in _geomspace(10.0, 1e6, 25):
        r = classify.inverse_derivative_ratio("x^2", "exp(x)", x)
        worst = max(worst, abs(r - 2.0 / math.sqrt(x)))
    small = all(classify.inverse_derivative_ratio("x^2", "exp(x)", x) <= 0.01 + 1e-12
                for x in (4e4, 1e5, 1e6))
    bracket = classify.sandwich_bracket_report()
    ok = worst <= 1e-12 and small and bracket["ok"]
    return _report("separation and sandwich", ok,
                   f"ratio vs 2/sqrt(x): {worst:.2e}; <=0.01 beyond 4e4: "
                   f"{small}; sandwich brackets e*x at every tower point: "
                   f"{bracket['ok']}")


# 11 ------------------------------------------------------------------------


def check_wobbly() -> dict:
    pts = [LIReal(j, 0.5) for j in range(2, 42)]
    tail = pts[-14:]
    derivs = [classify.wobbly_log_derivative(x) for x in tail]
    deriv_ok = all(0.95 <= d <= 1.05 for d in derivs)
    ratios = [3.0 + math.sin(float(HIER.xi_k(3, x))) for x in pts]
    in_band = all(2.0 <= r <= 4.0 for r in ratios)
    oscillates = min(ratios) < 2.2 and max(ratios) > 3.8
    ok = deriv_ok and in_band and oscillates
    return _report("wobbly example", ok,
                   f"x f'/f in [{min(derivs):.3f}, {max(derivs):.3f}] at the "
                   f"tower tail; f/x spans [{min(ratios):.2f}, "
                   f"{max(ratios):.2f}] inside [2, 4]")


CRITERIA: Dict[int, Callable[[], dict]] = {
    1: check_xi_exactness,
    2: check_half_exponential,
    3: check_catalog_chains,
    4: check_abel_solver,
    5: check_ackermann,
    6: check_op_L_chain,
    7: check_regularity,
    8: check_classifier,
    9: check_staircases,
    10: check_separation_sandwich,
    11: check_wobbly,
}


def run_one(n: int) -> dict:
    rep = CRITERIA[n]()
    rep["id"] = n
    return rep


def run_all() -> List[dict]:
    return [run_one(n) for n in sorted(CRITERIA)]
