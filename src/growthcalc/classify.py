"""Growth-class machinery.

The module holds the growth catalog as one table: each row is a reference
growth rate with its chain of slower scales and the sample points each
order pair of the chain is checked on.  Beside it sit a numeric
class-0/1/2 decision procedure with re-checkable witnesses, the sandwich
bracket of the class-1 member e*x, the inverse-derivative ratio, and two
boundary examples: the exact staircases and the wobbly log-derivative.

Classes: a function f of class n admits an Abel-type scale F with
O_F(f) = 1 whose inverse grows one class higher; x+2 is class 0, 2x and
x^2 are class 1, exp is class 2, the inverse super-logarithm is class 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import ackermann, funcexpr, lixnum
from .abel import TableSeed
from .funcexpr import Call, Binary, Const, EvalError, Var
from .lixnum import DomainError, LIReal
from .orders import Ladder, _mean, _tail, order_of
from .xihier import HIER

__all__ = [
    "CatalogEntry",
    "ClassReport",
    "catalog",
    "verify_chain",
    "verify_rows",
    "classify_expr",
    "sandwich_bracket_report",
    "scaled_xi_increment",
    "inverse_derivative_ratio",
    "staircase_class1",
    "staircase_class0",
    "wobbly_log_derivative",
]

_CHAIN_TOL = 1e-3  # each catalog chain limit must sit this close to its target


# ---------------------------------------------------------------------------
# Catalog


# Sample ladders.  Which regime a pair's limit settles in varies wildly:
# log-power residuals need huge float arguments, super-logarithm-scale
# residuals become exact on modest towers, and pairs comparing xi_4 against
# a rescaled xi only converge once the xi-value itself is astronomically
# large -- hence towers whose integer level is itself huge.
_GEOM_SMALL = Ladder.geometric(10.0, 10.0, 12)
_GEOM_TINY = Ladder.geometric(2.5, 1.35, 12)
_GEOM_DEEP = Ladder.geometric(1e180, 1e6, 20)


def _tower_points(lo: int, hi: int) -> tuple:
    return tuple(LIReal(j, 0.5) for j in range(lo, hi + 1))


_TOWER = Ladder(_tower_points(2, 41))
_DEEP_TOWER = Ladder(LIReal(10 ** (60 + 60 * i), 0.5) for i in range(12))
# large mantissas: the residual error of sub-tower structure at level 4
# decays like 1/log x, so stay near the top of the band
_BAND = Ladder(LIReal(4, 0.90 + 0.085 * i / 11) for i in range(12))


@dataclass(frozen=True)
class CatalogEntry:
    """One table row: f0, its chain F0..F4 of progressively slower scales,
    and the sample points of each pair (F1, f0), (F2, F1), (F3, F2),
    (F4, F3) that verify_chain checks."""

    name: str
    declared_class: int
    f0: object  # expression text or a funcexpr.Fn
    chain: Tuple[str, ...]  # (F0, F1, F2, F3, F4)
    ladders: Tuple[Ladder, ...]  # one per pair


# a = 2 wherever a row's family has a parameter (x+a, a*x, x^a)
_CATALOG = (
    CatalogEntry("x+2", 0, "x+2",
                 ("x-2", "x/2", "log(x)/log(2)", "xi(x)", "xi_4(x)"),
                 (_GEOM_SMALL, _GEOM_SMALL, _TOWER, _TOWER)),
    CatalogEntry("x+sqrt(x)", 0, "x+sqrt(x)",
                 ("x-sqrt(x)", "2*sqrt(x)", "log_2(x)/log(2)", "xi(x)/2",
                  "xi_4(x)"),
                 (_GEOM_SMALL, _BAND, _TOWER, _DEEP_TOWER)),
    CatalogEntry("x+x/log(x)", 1, "x+x/log(x)",
                 ("x-x/log(x)", "log(x)^2/2", "xi(x)", "xi_4(x)", "xi_5(x)"),
                 (_GEOM_DEEP, _TOWER, _TOWER, _TOWER)),
    CatalogEntry("2*x", 1, "2*x",
                 ("x/2", "log(x)/log(2)", "xi(x)", "xi_4(x)", "xi_5(x)"),
                 (_GEOM_SMALL, _TOWER, _TOWER, _TOWER)),
    CatalogEntry("x^2", 1, "x^2",
                 ("sqrt(x)", "log_2(x)/log(2)", "xi(x)/2", "xi_4(x)",
                  "xi_5(x)"),
                 (_GEOM_SMALL, _TOWER, _DEEP_TOWER, _TOWER)),
    CatalogEntry("exp(x)", 2, "exp(x)",
                 ("log(x)", "xi(x)", "xi_4(x)", "xi_5(x)", "xi_6(x)"),
                 (_TOWER, _TOWER, _TOWER, _TOWER)),
    CatalogEntry("exp(exp(x))", 2, "exp(exp(x))",
                 ("log_2(x)", "xi(x)/2", "xi_4(x)", "xi_5(x)", "xi_6(x)"),
                 (_TOWER, _DEEP_TOWER, _TOWER, _TOWER)),
    CatalogEntry("xi_inv(x)", 3,
                 funcexpr.Fn(ackermann.xi_inv_handle(3), text="xi_inv(x)"),
                 ("xi(x)", "xi_4(x)", "xi_5(x)", "xi_6(x)", "xi_7(x)"),
                 (_GEOM_TINY, _TOWER, _TOWER, _TOWER)),
)


def catalog() -> List[CatalogEntry]:
    """The catalog rows, slowest growth first."""
    return list(_CATALOG)


def _order_check(F, f, ladder, target: float, tol: float) -> dict:
    """O_F(f) estimated on ladder; ok when it converged to within tol of
    target."""
    est = order_of(F, f, ladder, tol=tol)
    return {"lambda_hat": est.lambda_hat, "tail_spread": est.tail_spread,
            "converged": est.converged,
            "ok": est.converged and abs(est.lambda_hat - target) <= tol}


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
    return _verify_row(entry, {})


def verify_rows(entries: Sequence[CatalogEntry]) -> List[dict]:
    """verify_chain of each row.  Rows whose chains share a pair (the same
    F and f texts on the same ladder, toward the same target) share its
    order estimate, computed once per call."""
    checks = {}
    return [_verify_row(entry, checks) for entry in entries]


def _verify_row(entry: CatalogEntry, checks: dict) -> dict:
    """verify_chain, taking each pair's order check from checks when it is
    there and storing it there when it is not."""
    f0, *chain = (funcexpr.Fn(spec) for spec in (entry.f0, *entry.chain))
    pairs = [(chain[1], f0, 1.0)]
    for k in range(1, 4):
        pairs.append((chain[k + 1], chain[k], -1.0))
    rows = []
    for (F, f, target), ladder in zip(pairs, entry.ladders):
        key = (F.text, f.text, id(ladder), target)
        if key not in checks:
            checks[key] = _order_check(F, f, ladder, target, _CHAIN_TOL)
        rows.append({"F": F.text, "f": f.text, "target": target, **checks[key],
                     "ladder": ladder.to_json()})
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


_K_TOWER = Ladder(_tower_points(2, 33))  # super-log order ladder
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


# what a failed scan raises; the scans skip or report it and go on
_SCAN_ERRORS = (EvalError, DomainError, ValueError, OverflowError)


def _float_values(f: Callable) -> Callable:
    """x -> f(x) as a float, or an LIReal if a tower, evaluated at most
    once per point; a point whose evaluation failed raises it again."""
    memo = {}

    def value(x):
        if x not in memo:
            try:
                v = f(x)
                memo[x] = v if isinstance(v, LIReal) else float(v)
            except _SCAN_ERRORS as exc:
                memo[x] = exc
        got = memo[x]
        if isinstance(got, Exception):
            raise got
        return got

    return value


def _log_ratios(h: Callable, pts, r: int, s: int) -> list:
    """log_r h(x) / log_s x at each x of pts, for h as _float_values gives,
    whose towers take their logs exactly (funcexpr._log); EvalError where a
    log leaves its domain (DomainError for a tower) or the denominator is 0."""

    def log_n(v, n: int) -> float:
        for _ in range(n):
            v = funcexpr._log(v)
        return float(v)

    out = []
    for x in pts:
        a, b = log_n(h(x), r), log_n(float(x), s)
        if b == 0:
            raise EvalError("iterated log hit zero")
        out.append(a / b)
    return out


def _settle(vals, tol: float):
    """(mean, spread, settled) of the tail of vals; a non-finite tail reads
    (inf, inf, False)."""
    tail = _tail(vals)
    if not all(math.isfinite(v) for v in tail):
        return math.inf, math.inf, False
    mean, spread = _mean(tail), max(tail) - min(tail)
    return mean, spread, spread <= tol * max(1.0, abs(mean))


def _mu_estimate(fv: Callable, n: int):
    """mu in log_n f = (log_n x)^mu, via log_{n+1} f / log_{n+1} x
    (iterated exp when n+1 < 0, so n = -2 probes f - x directly), for f
    as _float_values gives it."""
    pts = _MU_LADDERS.get(n, _MU_LADDER_WIDE)
    if n == -2:
        vals = []
        for x in pts:
            diff = float(fv(x)) - x
            vals.append(math.exp(diff) if diff < 700 else math.inf)
    else:
        vals = _log_ratios(fv, pts, n + 1, n + 1)
    mean, _, settled = _settle(vals, _MU_TOL)
    return mean, settled


def _logk_expr(e, k: int):
    if k <= 0:
        return e
    if k == 1:
        return Call("log", e)
    return Call("log_k", e, param=k)


def _growth_precondition(f: Callable) -> Tuple[bool, float]:
    worst = math.inf
    for x in Ladder.geometric(4.0, 2.5, 12):
        fx = f(x)
        if isinstance(fx, LIReal) and fx.level >= 2:
            continue  # far beyond x + 1 already
        worst = min(worst, float(fx) - x)
    return worst > 1.0, worst


def _self_check(witness: str, f: Callable, ladder, checks: list) -> bool:
    """Append the order check O_witness(f) -> 1 on ladder; True if it passed."""
    checks.append({"witness": witness,
                   **_order_check(witness, f, ladder, 1.0, _ORDER_TOL)})
    return checks[-1]["ok"]


def classify_expr(f) -> ClassReport:
    """Class-0/1/2 decision tree with a re-checkable witness scale.

    Route: the super-logarithm order k = O_xi(f) >= 1 sends f to class 2;
    otherwise scan n for a stabilizing exponent mu with
    log_n f = (log_n x)^{mu + o(1)}; mu > 1 gives class 1 (class 0 on the
    n = -2 branch); mu near 1 falls through to the slow-correction
    analysis.  Every verdict carries a converged order check of the
    witness; anything that fails to converge is reported inconclusive.
    """
    fn = funcexpr.Fn(f)
    fexpr, fc = fn.expr, fn.raw  # the one compile: every scan and check calls fc
    if fexpr is None:
        raise TypeError(f"classify_expr needs a DSL expression, got {f!r}")
    diags: dict = {"f": funcexpr.to_text(fexpr)}

    try:
        ok, margin = _growth_precondition(fc)
    except _SCAN_ERRORS as exc:  # e.g. sin at a tower point
        diags["min_f_minus_x"] = f"failed: {exc}"
        return ClassReport("inconclusive", None, diags,
                           reason="f(x) >= x + 1 + delta cannot be evaluated on the sample")
    diags["min_f_minus_x"] = margin
    if not ok:
        return ClassReport("inconclusive", None, diags,
                           reason="f(x) >= x + 1 + delta fails on the sample")

    # super-logarithm order first: positive k means class 2
    checks = []
    try:
        k_est = order_of("xi(x)", fc, _K_TOWER, tol=_ORDER_TOL)
    except _SCAN_ERRORS as exc:  # e.g. sin at a tower point: go on to the mu-scan
        diags["k_hat"] = f"failed: {exc}"
    else:
        diags["k_hat"] = k_est.lambda_hat
        if k_est.converged and k_est.lambda_hat >= 0.9:
            k = round(k_est.lambda_hat)
            witness = "xi(x)" if k == 1 else f"xi(x)/{k}"
            if _self_check(witness, fc, _K_TOWER, checks):
                return ClassReport("2", witness, diags, checks)
            return ClassReport("inconclusive", witness, diags, checks,
                               reason="class-2 witness order check did not converge to 1")

    mu_scan, fv = {}, _float_values(fc)  # one value memo for every depth n
    for n in range(_N_MIN, _N_MAX + 1):
        try:
            mu, converged = _mu_estimate(fv, n)
        except _SCAN_ERRORS as exc:
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
            # log_{n+2} x / log mu; an additive shift (n = -2) is checked on
            # small points, where large x cancels
            witness = (funcexpr.to_text(_logk_expr(Var(), n + 2)) + "/"
                       + f"{math.log(mu):.12g}")
            cls, lad = ("0", _MU_LADDERS[-2]) if n == -2 else ("1", _CHECK_LADDER)
            if _self_check(witness, fc, lad, checks):
                return ClassReport(cls, witness, diags, checks)
            return ClassReport("inconclusive", witness, diags, checks,
                               reason="witness order check did not converge to 1")
        if abs(mu - 1.0) <= _MU_BAND:
            return _classify_mu_one(fexpr, fc, n, diags, checks)
        mu_scan[n]["note"] = "mu < 1: not a growth scale at this depth"
    diags["mu_scan"] = mu_scan
    return ClassReport("inconclusive", None, diags, checks,
                       reason="no stabilizing exponent found in the n-scan")


def _classify_mu_one(fexpr, fc: Callable, n: int, diags, checks) -> ClassReport:
    """The mu = 1 subcases: write log_{n+2} f = log_{n+2} x + 1/h and build
    the witness from h's own growth depth; fc is f compiled."""
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
        scan_pts = _GEOM_DEEP
    diags["h"] = funcexpr.to_text(h_expr)
    h = _float_values(funcexpr.Fn(h_expr).raw)  # read by the c- and (k, r) scans

    # subcase: log h ~ c log_{n+3} x with finite c  =>  F = h log_{n+2} x / (c+1)
    try:
        c_hat, spread, settled = _settle(
            _log_ratios(h, scan_pts, 1, n + 3), _MU_TOL)
    except _SCAN_ERRORS as exc:
        diags["c_scan"] = f"failed: {exc}"
    else:
        diags["c_hat"] = c_hat
        diags["c_spread"] = spread
        if settled:
            F = Binary("/", Binary("*", h_expr, _logk_expr(Var(), n + 2)),
                       Const(c_hat + 1.0))
            witness = funcexpr.to_text(F)
            if _self_check(witness, fc, _GEOM_DEEP, checks):
                return ClassReport("1", witness, diags, checks)

    # subcase: log h outgrows log_{n+3} x; find r with log_r h ~ log_{r+k} x
    r_table = {}
    check_pts = _FRAC_MID if n == -1 else _GEOM_DEEP
    for k in (n + 1, n + 2):
        for r in range(1, _R_MAX + 1):
            if r + k < 1:
                continue
            try:
                ratios = _log_ratios(h, scan_pts, r, r + k)
            except _SCAN_ERRORS:
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
                ok = _self_check(witness, fc, check_pts, checks)
                diags["r"] = r
                diags["k_of_h"] = k
                if ok:
                    # k = 0 at the f/x level: h (hence the scale) is a power
                    # of x, the class-0 signature; extra logs mean class 1
                    cls = "0" if (n == -1 and k == 0) else "1"
                    return ClassReport(cls, witness, diags, checks)
    diags["r_scan"] = {f"k={k},r={r}": v for (k, r), v in r_table.items()}
    return ClassReport("inconclusive", None, diags, checks,
                       reason="mu = 1 subcase estimates did not stabilize")


# ---------------------------------------------------------------------------
# Sandwich bracket


_G_SHIFT, _H_SHIFT = 0.5, 2.0


def scaled_xi_increment(a: float, x) -> float:
    """The chi-normalized super-log increment of x -> a*x at the point x:
    chi(log x) * (xi(a x) - xi(x)), equal to xi(u + log a) - xi(u) scaled
    by chi(u) with u = log x.  Beyond the float range the correction
    factors fall below double precision and the limit value 1 is returned
    (the true value differs from it by less than 1/log x)."""
    if a <= 1.0:
        raise DomainError("needs a scaling factor a > 1")
    x = lixnum.to_li(x)
    if not x > 0:
        raise DomainError(f"needs a point x > 0, got {x}")
    try:
        uf = float(lixnum.ln_li(x))
    except DomainError:
        return 1.0
    if uf > 1e6:
        return 1.0
    delta = math.log(a)
    lo = float(HIER.xi_k(3, uf))
    hi = float(HIER.xi_k(3, uf + delta))
    return float(HIER.chi(uf)) * (hi - lo)


def sandwich_bracket_report() -> dict:
    """The class-1 sandwich against the canonical member f1 = e*x (unit
    translation in log coordinates), compared point by point in
    chi-normalized super-log increments on the towers L2..L21: the lower
    bound carries 1/2, f1 chi(log x)(xi(e x) - xi(x)) -> 1, the upper 2."""
    rows = []
    for x in _tower_points(2, 21):
        nu = scaled_xi_increment(math.e, x)
        rows.append({"x": str(x), "nu_f1": nu, "ok": _G_SHIFT < nu < _H_SHIFT})
    return {"g_shift": _G_SHIFT, "h_shift": _H_SHIFT,
            "points": rows, "ok": all(r["ok"] for r in rows)}


# ---------------------------------------------------------------------------
# Inverse-derivative ratio


def inverse_derivative_ratio(f, g, x: float) -> float:
    """(g^{-1})'(x) / (f^{-1})'(x) via numeric inversion plus the symbolic
    derivative: (q^{-1})'(x) = 1 / q'(q^{-1}(x)).  f and g are function
    specs; an Fn is used as it is, so a caller that passes the same Fn at
    many x derives its inverse and derivative once."""

    def inv_prime(spec) -> float:
        fn = spec if isinstance(spec, funcexpr.Fn) else funcexpr.Fn(spec)
        y = funcexpr.invert_at(fn, float(x), bracket_hint=(1.0, float(x) + 2.0))
        d = fn.derivative(y)
        if d == 0:
            raise EvalError("zero derivative at the inverse point")
        return 1.0 / d

    return inv_prime(g) / inv_prime(f)


# ---------------------------------------------------------------------------
# Boundary examples


def _unit_step_scale(knots) -> Tuple[Callable, Callable]:
    """The piecewise-linear scale F through exact rational knots and its
    unit-step function f = F^{-1}(F + 1); all arithmetic is exact."""
    table = TableSeed([(Fraction(x), Fraction(y)) for x, y in knots])

    def F(x) -> Fraction:
        return table(Fraction(x))

    return F, lambda x: table.inv(F(x) + 1)


_STAIRCASE1_STEPS = 34  # a_k = 2^k for k = 1..34
_STAIRCASE0_LEVELS = 6  # a_k = 2^(2^k) for k = 1..6


def staircase_class1() -> Tuple[Callable, Callable]:
    """A scale F with F(a_k) = 2k and F(a_k - 1) = 2k - 1, a_k = 2^k, so
    f = F^{-1}(F+1) satisfies f(a_k - 1) = a_k exactly: a class-1 function
    that keeps returning to x + 1."""
    return _unit_step_scale([(2 ** k - d, 2 * k - d)
                             for k in range(1, _STAIRCASE1_STEPS + 1) for d in (1, 0)])


def staircase_class0() -> Tuple[Callable, Callable]:
    """A scale with F(2 a_k) = F(a_k) + 1 and slope 1/2 between doubling
    points, a_k = 2^(2^k): f = F^{-1}(F+1) has f(a_k) = 2 a_k yet
    f(n) = n + 2 along the flat stretches, and F(x)/x stays inside (0, 1):
    a class-0 function that keeps doubling."""
    a = [2 ** (2 ** k) for k in range(1, _STAIRCASE0_LEVELS + 1)]
    knots = [(a[0], Fraction(2))]
    for k in range(len(a) - 1):
        x0, y0 = knots[-1]
        knots.append((2 * a[k], y0 + 1))
        knots.append((a[k + 1], y0 + 1 + Fraction(a[k + 1] - 2 * a[k], 2)))
    return _unit_step_scale(knots)


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
