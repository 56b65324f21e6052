"""Growth-class machinery.

The module houses the catalog of reference growth rates with their
slow-function chains, a numeric class-0/1/2 decision procedure with
re-checkable witnesses, constructors for functions sitting strictly between
classes, sandwich bounds, inverse-derivative separation checks, and a small
gallery of boundary examples (wobbly functions and staircases).

Classes: a function f of class n admits an Abel-type scale F with
O_F(f) = 1 whose inverse grows one class higher; x+2 is class 0, 2x and
x^2 are class 1, exp is class 2, the inverse super-logarithm is class 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from . import funcexpr, lixnum
from .abel import TableSeed
from .funcexpr import Call, Binary, Const, EvalError, Var, evaluate
from .lixnum import DomainError, LIReal
from .orders import Ladder, _tail, order_of
from .xihier import HIER

__all__ = [
    "CatalogEntry",
    "ClassReport",
    "catalog",
    "verify_chain",
    "classify_expr",
    "BetweenClassFn",
    "sandwich_bounds",
    "sandwich_bracket_report",
    "scaled_xi_increment",
    "separation_check",
    "inverse_derivative_ratio",
    "Staircase",
    "staircase_class1",
    "staircase_class0",
    "gallery",
    "wobbly_log_derivative",
]

_CATALOG_PATH = Path(__file__).with_name("catalog.txt")
_CHAIN_TOL = 1e-3  # each catalog chain limit must sit this close to its target


# ---------------------------------------------------------------------------
# Catalog


@dataclass(frozen=True)
class CatalogEntry:
    """One table row: f0 and its chain F0..F4 of progressively slower scales."""

    name: str
    declared_class: int
    f0: object  # expression text or a funcexpr.Fn
    chain: Tuple[object, ...]  # (F0, F1, F2, F3, F4)


def _xi_inverse(t):
    if isinstance(t, LIReal):
        t = lixnum.to_real(t)
    return lixnum.xi_inv_exact(t)


_XI_INVERSE = funcexpr.Fn(_xi_inverse, text="xi_inv(x)")


def catalog() -> List[CatalogEntry]:
    entries = []
    for line in _CATALOG_PATH.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, cls, f0, *chain = line.split("|")
        f0_obj = _XI_INVERSE if f0 == _XI_INVERSE.text else f0
        entries.append(CatalogEntry(name=name, declared_class=int(cls),
                                    f0=f0_obj, chain=tuple(chain)))
    return entries


# Sample ladders.  Which regime a pair's limit settles in varies wildly:
# log-power residuals need huge float arguments, super-logarithm-scale
# residuals become exact on modest towers, and pairs comparing xi_4 against
# a rescaled xi only converge once the xi-value itself is astronomically
# large -- hence towers whose integer level is itself huge.
_GEOM_SMALL = Ladder.geometric(10.0, 10.0, 12)
_GEOM_TINY = Ladder.geometric(2.5, 1.35, 12)
_GEOM_DEEP = Ladder.geometric(1e180, 1e6, 20)
_SEPARATION_LADDER = Ladder.geometric(64.0, 2.0, 16)


def _tower_points(lo: int = 2, hi: int = 41, mantissa: float = 0.5) -> list:
    return [LIReal(j, mantissa) for j in range(lo, hi + 1)]


def _deep_tower_points(count: int = 12, mantissa: float = 0.5) -> list:
    return [LIReal(10 ** (60 + 60 * i), mantissa) for i in range(count)]


def _band_points(level: int = 4, count: int = 12) -> list:
    # large mantissas: the residual error of sub-tower structure at this
    # level decays like 1/log x, so stay near the top of the band
    return [LIReal(level, 0.90 + 0.085 * i / (count - 1)) for i in range(count)]


def _default_pair_ladders(name: str) -> list:
    tower = _tower_points()
    deep = _deep_tower_points()
    table = {
        "x+2": [_GEOM_SMALL, _GEOM_SMALL, tower, tower],
        "x+sqrt(x)": [_GEOM_SMALL, _band_points(), tower, deep],
        "x+x/log(x)": [_GEOM_DEEP, tower, tower, tower],
        "2*x": [_GEOM_SMALL, tower, tower, tower],
        "x^2": [_GEOM_SMALL, tower, deep, tower],
        "exp(x)": [tower, tower, tower, tower],
        "exp(exp(x))": [tower, deep, tower, tower],
        "xi_inv(x)": [_GEOM_TINY, tower, tower, tower],
    }
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"no default ladders for catalog row {name!r}") from None


def _ladder_desc(ladder) -> dict:
    if isinstance(ladder, Ladder):
        return ladder.to_json()
    pts = list(ladder)
    return {"kind": "points", "count": len(pts),
            "first": str(pts[0]), "last": str(pts[-1])}


def _inverse_check(f0: funcexpr.Fn, F0: funcexpr.Fn) -> dict:
    """F0 inverts f0: f0(F0(x))/x -> 1 (exact super-log coordinates for the
    callable top row, floats for the expression rows)."""
    errs = []
    if f0.expr is None:
        for x in _tower_points(4, 9):
            y = f0.raw(F0.raw(x))
            errs.append(abs(float(lixnum.xi_exact(y)) - float(lixnum.xi_exact(x))))
    else:
        for x in (1e50, 1e120, 1e200):
            y = float(f0.raw(F0.raw(x)))
            errs.append(abs(y / x - 1.0))
    max_err = max(errs)
    return {"errors": errs, "max_err": max_err, "ok": max_err <= 1e-3}


def verify_chain(entry: CatalogEntry) -> dict:
    """Check O_{F1}(f0) -> 1 and O_{F_{k+1}}(F_k) -> -1 for the row."""
    ladders = _default_pair_ladders(entry.name)
    f0, *chain = (funcexpr.Fn(spec) for spec in (entry.f0, *entry.chain))
    pairs = [(chain[1], f0, 1.0)]
    for k in range(1, 4):
        pairs.append((chain[k + 1], chain[k], -1.0))
    rows = []
    for (F, f, target), ladder in zip(pairs, ladders):
        est = order_of(F, f, ladder, tol=_CHAIN_TOL)
        rows.append({
            "F": F.text, "f": f.text, "target": target,
            "lambda_hat": est.lambda_hat, "tail_spread": est.tail_spread,
            "converged": est.converged,
            "ok": est.converged and abs(est.lambda_hat - target) <= _CHAIN_TOL,
            "ladder": _ladder_desc(ladder),
        })
    inv = _inverse_check(f0, chain[0])
    return {
        "name": entry.name,
        "declared_class": entry.declared_class,
        "pairs": rows,
        "inverse_check": inv,
        "ok": inv["ok"] and all(r["ok"] for r in rows),
    }


# ---------------------------------------------------------------------------
# Classifier


@dataclass
class ClassReport:
    verdict: str  # "0" | "1" | "2" | "inconclusive"
    witness: Optional[str]
    diagnostics: dict
    order_checks: List[dict] = field(default_factory=list)
    reason: str = ""

    def to_json(self) -> dict:
        return {"class": self.verdict, "witness": self.witness,
                "diagnostics": self.diagnostics,
                "order_checks": self.order_checks, "reason": self.reason}


_K_LADDER_LO, _K_LADDER_HI = 2, 33
_N_MIN, _N_MAX, _R_MAX = -2, 6, 6  # scan ranges of the log depth n and of r
_MU_BAND, _MU_TOL, _ORDER_TOL = 0.05, 1e-2, 1e-3
_MU_LADDERS = {
    -2: Ladder.geometric(8.0, 2.0, 14),
    -1: Ladder.geometric(1e8, 1e18, 14),
}
_MU_LADDER_WIDE = Ladder.geometric(1e6, 1e4, 14)
_CHECK_LADDER = Ladder.geometric(1e4, 10.0, 16)
# exact rational points: f(x)/x survives where the float quotient rounds to 1
_FRAC_DEEP = [Fraction(10) ** k for k in range(30, 90, 5)]
_FRAC_MID = [Fraction(10) ** k for k in range(5, 17)]


def _mu_estimate(fexpr, n: int, tol: float):
    """mu in log_n f = (log_n x)^mu, via log_{n+1} f / log_{n+1} x
    (iterated exp when n+1 < 0, so n = -2 probes f - x directly)."""
    ladder = _MU_LADDERS.get(n, _MU_LADDER_WIDE)
    vals = []
    for x in ladder.points():
        fx = float(evaluate(fexpr, x))
        if n == -2:
            diff = fx - x
            vals.append(math.exp(diff) if diff < 700 else math.inf)
        elif n == -1:
            vals.append(fx / x)
        else:
            a, b = fx, x
            for _ in range(n + 1):
                if a <= 0 or b <= 0:
                    raise EvalError("iterated log left the domain")
                a, b = math.log(a), math.log(b)
            if b == 0:
                raise EvalError("iterated log hit zero")
            vals.append(a / b)
    tail = _tail(vals)
    finite = all(math.isfinite(v) for v in tail)
    spread = (max(tail) - min(tail)) if finite else math.inf
    mean = sum(tail) / len(tail) if finite else math.inf
    converged = finite and spread <= tol * max(1.0, abs(mean))
    return mean, converged, vals


def _logk_expr(e, k: int):
    if k <= 0:
        return e
    if k == 1:
        return Call("log", e)
    return Call("log_k", e, param=k)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _growth_precondition(fexpr) -> Tuple[bool, float]:
    worst = math.inf
    for x in Ladder.geometric(4.0, 2.5, 12).points():
        fx = evaluate(fexpr, x)
        if isinstance(fx, LIReal) and fx.level >= 2:
            continue  # far beyond x + 1 already
        worst = min(worst, float(fx) - x)
    return worst > 1.0, worst


def _self_check(witness_text: str, fexpr, ladder, tol: float) -> dict:
    est = order_of(witness_text, fexpr, ladder, tol=tol)
    return {"witness": witness_text, "lambda_hat": est.lambda_hat,
            "tail_spread": est.tail_spread, "converged": est.converged,
            "ok": est.converged and abs(est.lambda_hat - 1.0) <= tol}


def classify_expr(f) -> ClassReport:
    """Class-0/1/2 decision tree with a re-checkable witness scale.

    Route: the super-logarithm order k = O_xi(f) >= 1 sends f to class 2;
    otherwise scan n for a stabilizing exponent mu with
    log_n f = (log_n x)^{mu + o(1)}; mu > 1 gives class 1 (class 0 on the
    n = -2 branch); mu near 1 falls through to the slow-correction
    analysis.  Every verdict carries a converged order check of the
    witness; anything that fails to converge is reported inconclusive.
    """
    fexpr = funcexpr.Fn(f).expr
    if fexpr is None:
        raise TypeError(f"classify_expr needs a DSL expression, got {f!r}")
    ftext = funcexpr.to_text(fexpr)
    diags: dict = {"f": ftext}

    ok, margin = _growth_precondition(fexpr)
    diags["min_f_minus_x"] = margin
    if not ok:
        return ClassReport("inconclusive", None, diags,
                           reason="f(x) >= x + 1 + delta fails on the sample")

    # super-logarithm order first: positive k means class 2
    k_est = order_of("xi(x)", fexpr, _tower_points(_K_LADDER_LO, _K_LADDER_HI),
                     tol=_ORDER_TOL)
    diags["k_hat"] = k_est.lambda_hat
    checks = []
    if k_est.converged and k_est.lambda_hat >= 0.9:
        k = round(k_est.lambda_hat)
        witness = "xi(x)" if k == 1 else f"xi(x)/{k}"
        chk = _self_check(witness, fexpr,
                          _tower_points(_K_LADDER_LO, _K_LADDER_HI),
                          _ORDER_TOL)
        checks.append(chk)
        if chk["ok"]:
            return ClassReport("2", witness, diags, checks)
        return ClassReport("inconclusive", witness, diags, checks,
                           reason="class-2 witness order check did not converge to 1")

    mu_scan = {}
    for n in range(_N_MIN, _N_MAX + 1):
        try:
            mu, converged, _ = _mu_estimate(fexpr, n, _MU_TOL)
        except (EvalError, DomainError, ValueError, OverflowError) as exc:
            mu_scan[n] = f"failed: {exc}"
            continue
        mu_scan[n] = {"mu_hat": mu if math.isfinite(mu) else "inf",
                      "converged": converged}
        if not converged:
            continue
        diags["n"] = n
        diags["mu_hat"] = mu
        diags["mu_scan"] = mu_scan
        if mu > 1.0 + _MU_BAND:
            log_mu = math.log(mu)
            if n == -2:
                # additive shift: check on small points, large x cancels
                witness, cls, lad = f"x/{_fmt(log_mu)}", "0", _MU_LADDERS[-2]
            elif n == -1:
                witness, cls, lad = f"log(x)/{_fmt(log_mu)}", "1", _CHECK_LADDER
            else:
                witness, cls, lad = (f"log_{n + 2}(x)/{_fmt(log_mu)}", "1",
                                     _CHECK_LADDER)
            chk = _self_check(witness, fexpr, lad, _ORDER_TOL)
            checks.append(chk)
            if chk["ok"]:
                return ClassReport(cls, witness, diags, checks)
            return ClassReport("inconclusive", witness, diags, checks,
                               reason="witness order check did not converge to 1")
        if abs(mu - 1.0) <= _MU_BAND:
            return _classify_mu_one(fexpr, n, diags, checks)
        mu_scan[n]["note"] = "mu < 1: not a growth scale at this depth"
    diags["mu_scan"] = mu_scan
    return ClassReport("inconclusive", None, diags, checks,
                       reason="no stabilizing exponent found in the n-scan")


def _classify_mu_one(fexpr, n: int, diags, checks) -> ClassReport:
    """The mu = 1 subcases: write log_{n+2} f = log_{n+2} x + 1/h and build
    the witness from h's own growth depth."""
    if n == -1:
        # same function, written as 1/log(f/x): with exact rational sample
        # points the quotient keeps digits that the float difference of the
        # two logs has already thrown away
        h_expr = Binary("/", Const(1.0),
                        Call("log", Binary("/", fexpr, Var())))
        scan_pts: Sequence = _FRAC_DEEP
    else:
        h_expr = Binary("/", Const(1.0),
                        Binary("-", _logk_expr(fexpr, n + 2),
                               _logk_expr(Var(), n + 2)))
        scan_pts = _GEOM_DEEP.points()
    diags["h"] = funcexpr.to_text(h_expr)

    # subcase: log h ~ c log_{n+3} x with finite c  =>  F = h log_{n+2} x / (c+1)
    c_vals = []
    try:
        for x in scan_pts:
            hv = float(evaluate(h_expr, x))
            top = x
            for _ in range(n + 3):
                top = math.log(top)
            c_vals.append(math.log(hv) / top)
    except (EvalError, DomainError, ValueError, OverflowError) as exc:
        diags["c_scan"] = f"failed: {exc}"
        c_vals = []
    if c_vals:
        tail = _tail(c_vals)
        spread = max(tail) - min(tail)
        c_hat = sum(tail) / len(tail)
        diags["c_hat"] = c_hat
        diags["c_spread"] = spread
        if spread <= _MU_TOL * max(1.0, abs(c_hat)):
            F = Binary("/", Binary("*", h_expr, _logk_expr(Var(), n + 2)),
                       Const(c_hat + 1.0))
            witness = funcexpr.to_text(F)
            chk = _self_check(witness, fexpr, _GEOM_DEEP, _ORDER_TOL)
            checks.append(chk)
            if chk["ok"]:
                return ClassReport("1", witness, diags, checks)

    # subcase: log h outgrows log_{n+3} x; find r with log_r h ~ log_{r+k} x
    r_table = {}
    check_pts = _FRAC_MID if n == -1 else _GEOM_DEEP
    for k in (n + 1, n + 2):
        for r in range(1, _R_MAX + 1):
            if r + k < 1:
                continue
            try:
                ratios = []
                for x in scan_pts:
                    hv = float(evaluate(h_expr, x))
                    a, b = hv, float(x)
                    for _ in range(r):
                        a = math.log(a)
                    for _ in range(r + k):
                        b = math.log(b)
                    ratios.append(a / b)
            except (EvalError, DomainError, ValueError, OverflowError):
                continue
            tail = _tail(ratios)
            r_table[(k, r)] = tail[-1]
            if abs(tail[-1] - 1.0) <= 0.2 and (max(tail) - min(tail)) <= 0.1:
                num = h_expr
                for i in range(n + 2, r + k):
                    num = Binary("*", num, _logk_expr(Var(), i))
                den = None
                for j in range(1, r):
                    t = _logk_expr(h_expr, j)
                    den = t if den is None else Binary("*", den, t)
                F = num if den is None else Binary("/", num, den)
                witness = funcexpr.to_text(F)
                chk = _self_check(witness, fexpr, check_pts, _ORDER_TOL)
                checks.append(chk)
                diags["r"] = r
                diags["k_of_h"] = k
                if chk["ok"]:
                    # k = 0 at the f/x level: h (hence the scale) is a power
                    # of x, the class-0 signature; extra logs mean class 1
                    cls = "0" if (n == -1 and k == 0) else "1"
                    return ClassReport(cls, witness, diags, checks)
    diags["r_scan"] = {f"k={k},r={r}": v for (k, r), v in r_table.items()}
    return ClassReport("inconclusive", None, diags, checks,
                       reason="mu = 1 subcase estimates did not stabilize")


# ---------------------------------------------------------------------------
# Between-class constructions


class BetweenClassFn:
    """f = Xi_m^{-1}(Xi_m + c / H_m(F)): sits strictly between the class of
    F^{-1} minus one and that class, for suitable F.

    inverse_form=True instead defines f through its inverse
    f^{-1} = Xi_m^{-1}(Xi_m - c / H_m(F)), which is guaranteed strictly
    increasing; __call__ then inverts numerically.
    """

    def __init__(self, F, m: int, c: float = 1.0, inverse_form: bool = False):
        if m < 2:
            raise DomainError("H_m is undefined below level 2")
        if c <= 0:
            raise DomainError("the between-class offset c must be positive")
        fn = funcexpr.Fn(F)
        self.F, self.F_text = fn.raw, fn.text or repr(F)
        self.m = m
        self.c = float(c)
        self.inverse_form = inverse_form

    def describe(self) -> str:
        side = "inverse of " if self.inverse_form else ""
        return (f"{side}xi_{self.m}-shift by {self.c}/H_{self.m}"
                f"({self.F_text})")

    def _shift(self, x: float) -> float:
        H = HIER.H_k(self.m, self.F(x))
        try:
            H = float(H)
        except DomainError:
            return 0.0  # H beyond float range: the shift underflows
        return self.c / H

    def _forward(self, x: float) -> float:
        base = float(HIER.xi_k(self.m, x))
        return lixnum.to_real(HIER.xi_k_inv(self.m, base + self._shift(x)))

    def inverse(self, y: float) -> float:
        if self.inverse_form:
            base = float(HIER.xi_k(self.m, y))
            return lixnum.to_real(
                HIER.xi_k_inv(self.m, base - self._shift(y)))
        return funcexpr._bisect(self._forward, y, y / 4.0, y * 4.0 + 4.0)

    def __call__(self, x: float) -> float:
        if not self.inverse_form:
            return self._forward(x)
        return funcexpr._bisect(self.inverse, x, x / 4.0, x * 4.0 + 4.0)


# ---------------------------------------------------------------------------
# Sandwich bounds


def sandwich_bounds(n: int, m: int = 1
                    ) -> Tuple[Optional[BetweenClassFn], BetweenClassFn]:
    """(g, h) with g below and h above every member of the m-th layer of
    class n: between-class maps with c = 1/2 (g) and c = 2 (h).  g needs
    n >= 1, and n = 0 supports only the upper bound with m >= 4 (g is
    returned as None there)."""
    if m < 1 or m > 4:
        raise DomainError("sandwich bounds are constructed for 1 <= m <= 4")
    if n < 0:
        raise DomainError("class index must be nonnegative")
    if n == 0:
        if m < 4:
            raise DomainError(
                "no sandwich below class 0 layers; the upper bound needs m >= 4")
        return None, _sandwich_recurse(0, m + 1, 2.0)  # over class 1, m layers
    return _sandwich_recurse(n, m, 0.5), _sandwich_recurse(n, m, 2.0)


def _sandwich_recurse(n: int, m: int, c: float) -> BetweenClassFn:
    if m == 1:
        return BetweenClassFn(funcexpr.Fn(lambda x: HIER.xi_k(n + 1, x),
                                          text=f"xi_{n + 1}"), n + 2, c)
    # the inverse of the one-class-up bound is a slow scale
    prev = _sandwich_recurse(n + 1, m - 1, c)
    return BetweenClassFn(funcexpr.Fn(prev.inverse,
                                      text=f"inverse[{prev.describe()}]"),
                          n + 3, c)


def scaled_xi_increment(a: float, x) -> float:
    """H_{3}-normalized super-log increment of x -> a*x at the point x:
    chi(log x) * (xi(a x) - xi(x)), equal to xi(u + log a) - xi(u) scaled
    by chi(u) with u = log x.  Beyond the float range the correction
    factors fall below double precision and the limit value 1 is returned
    (the true value differs from it by less than 1/log x)."""
    if a <= 1.0:
        raise DomainError("needs a scaling factor a > 1")
    if not isinstance(x, LIReal):
        x = lixnum.from_real(float(x))
    try:
        uf = float(lixnum.ln_li(x))
    except DomainError:
        return 1.0
    if uf > 1e6:
        # the increment xi(u + delta) - xi(u) falls below float resolution;
        # the limit value is exact to double precision here
        return 1.0
    delta = math.log(a)
    lo = float(HIER.xi_k(3, uf))
    hi = float(HIER.xi_k(3, uf + delta))
    chi = HIER.chi(uf)
    if isinstance(chi, LIReal):
        return 1.0
    return float(chi) * (hi - lo)


def sandwich_bracket_report() -> dict:
    """The n = 1, m = 1 sandwich against the canonical class-1 member
    f1 = e*x (unit translation in log coordinates), compared point by point
    in H_3-normalized super-log increments on the towers L2..L21: g carries
    1/2, f1 carries chi(log x)(xi(e x) - xi(x)) -> 1, h carries 2."""
    g, h = sandwich_bounds(1, 1)
    rows = []
    for x in _tower_points(2, 21):
        nu = scaled_xi_increment(math.e, x)
        rows.append({"x": str(x), "nu_f1": nu, "ok": g.c < nu < h.c})
    return {"g_shift": g.c, "h_shift": h.c,
            "points": rows, "ok": all(r["ok"] for r in rows)}


# ---------------------------------------------------------------------------
# Separation


def inverse_derivative_ratio(f, g, x: float) -> float:
    """(g^{-1})'(x) / (f^{-1})'(x) via numeric inversion plus the symbolic
    derivative: (q^{-1})'(x) = 1 / q'(q^{-1}(x))."""

    def inv_prime(spec) -> float:
        fn = funcexpr.Fn(spec)
        y = funcexpr.invert_at(fn, float(x), bracket_hint=(1.0, float(x) + 2.0))
        d = fn.derivative(y)
        if d == 0:
            raise EvalError("zero derivative at the inverse point")
        return 1.0 / d

    return inv_prime(g) / inv_prime(f)


def separation_check(f, g, class_f: int, class_g: int) -> dict:
    """Class separation: for f of class n >= 1 and g one class up, the
    inverse-derivative ratio (g^{-1})'/(f^{-1})' must fall to 0."""
    report = {"f": funcexpr.Fn(f).text or repr(f),
              "g": funcexpr.Fn(g).text or repr(g),
              "class_f": class_f, "class_g": class_g}
    if class_f < 1:
        report["in_scope"] = False
        report["reason"] = "separation of inverse derivatives needs class >= 1"
        return report
    report["in_scope"] = True
    ratios = [inverse_derivative_ratio(f, g, x) for x in _SEPARATION_LADDER.points()]
    tail = _tail(ratios)
    decreasing = all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))
    report["ratios"] = ratios
    report["final_ratio"] = ratios[-1]
    report["decreasing_tail"] = decreasing
    report["ok"] = decreasing and ratios[-1] < 0.5 * max(ratios)
    return report


# ---------------------------------------------------------------------------
# Staircase gallery


class Staircase:
    """A piecewise-linear scale F through exact rational knots, with its
    unit-step function f = F^{-1}(F + 1); all arithmetic is exact."""

    def __init__(self, knots: Sequence[Tuple]):
        self.knots = [(Fraction(x), Fraction(y)) for x, y in knots]
        self._table = TableSeed(self.knots)

    def F(self, x) -> Fraction:
        return self._table(Fraction(x))

    def F_inv(self, y) -> Fraction:
        return self._table.inv(Fraction(y))

    def f(self, x) -> Fraction:
        return self.F_inv(self.F(x) + 1)


def staircase_class1(a: Optional[Sequence[int]] = None,
                     count: int = 34) -> Tuple[Callable, Callable]:
    """A scale F with F(a_k) = 2k and F(a_k - 1) = 2k - 1 (default
    a_k = 2^k), so f = F^{-1}(F+1) satisfies f(a_k - 1) = a_k exactly:
    a class-1 function that keeps returning to x + 1."""
    if a is None:
        a = [2 ** k for k in range(1, count + 1)]
    a = list(a)
    for prev, nxt in zip(a, a[1:]):
        if nxt <= prev + 1:
            raise ValueError("staircase spacing needs a_{k+1} > a_k + 1")
    knots = []
    for k, ak in enumerate(a, start=1):
        knots.append((ak - 1, 2 * k - 1))
        knots.append((ak, 2 * k))
    stair = Staircase(knots)
    return stair.F, stair.f


def staircase_class0(levels: int = 6) -> Tuple[Callable, Callable]:
    """A scale with F(2 a_k) = F(a_k) + 1 and slope 1/2 between doubling
    points, a_k = 2^(2^k): f = F^{-1}(F+1) has f(a_k) = 2 a_k yet
    f(n) = n + 2 along the flat stretches, and F(x)/x stays inside (0, 1):
    a class-0 function that keeps doubling."""
    a = [2 ** (2 ** k) for k in range(1, levels + 1)]
    knots = [(a[0], Fraction(2))]
    for k in range(len(a) - 1):
        x0, y0 = knots[-1]
        knots.append((2 * a[k], y0 + 1))
        knots.append((a[k + 1], y0 + 1 + Fraction(a[k + 1] - 2 * a[k], 2)))
    stair = Staircase(knots)
    return stair.F, stair.f


def wobbly_log_derivative(x) -> float:
    """x f'(x)/f(x) for the wobbly f(x) = x (3 + sin xi(x)).

    Exact chain rule with xi' = 1/chi gives
    1 + cos(xi(x)) x / ((3 + sin xi(x)) chi(x)); the correction term's
    denominator outgrows every float already at small towers, where the
    reciprocal honestly underflows to 0.
    """
    xi = float(HIER.xi_k(3, x))
    try:
        chi = float(HIER.chi(x))
    except DomainError:
        return 1.0
    return 1.0 + math.cos(xi) * float(x) / ((3.0 + math.sin(xi)) * chi)


def gallery() -> dict:
    """Named boundary examples: functions with ragged local behavior whose
    class is nevertheless well defined."""
    return {
        "wobbly_linear": {
            "expr": "x*(3+sin(xi(x)))",
            "class": 1,
            "note": "f(x)/x oscillates across [2, 4] yet x f'/f -> 1",
        },
        "wobbly_power": {
            "expr": "x^(3+sin(xi(x)))",
            "class": 1,
            "note": "wobbles between x^2 and x^4",
        },
        "staircase_class1": {
            "builder": staircase_class1,
            "class": 1,
            "note": "f(2^k - 1) = 2^k exactly; f returns to x+1 infinitely often",
        },
        "staircase_class0": {
            "builder": staircase_class0,
            "class": 0,
            "note": "f(a_k) = 2 a_k yet f = x + 2 on long stretches",
        },
    }
