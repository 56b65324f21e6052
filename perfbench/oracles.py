"""Independent oracles for the benchmark's answer checks.

Nothing here imports growthcalc.  Values are recomputed with mpmath at 50
digits, with closed forms, or with exact identities taken from the
package's documented definitions (the README and the module docstrings),
never from output captured from the program.
"""

from __future__ import annotations

import sys

import mpmath

DPS = 50
mpmath.mp.dps = DPS
mpf = mpmath.mpf

E = mpmath.e


class Mismatch(Exception):
    """An answer that disagrees with its oracle; the message says how."""


class Sites:
    """Which comparisons (expect call sites) were reached, and which failed."""

    def __init__(self):
        self.reached: set = set()
        self.failed: set = set()


RECORD = None  # a Sites while the self-check runs


def _site() -> str:
    """The expect call and the caller chain up to the first frame outside
    this module, e.g. "oracles.py:95 < wl_abel.py:140"."""
    f, parts = sys._getframe(2), []
    while f is not None:
        parts.append(f"{f.f_code.co_filename.rsplit('/', 1)[-1]}:{f.f_lineno}")
        if f.f_code.co_filename != __file__:
            break
        f = f.f_back
    return " < ".join(parts)


def expect(cond: bool, why: str) -> None:
    """One comparison of a program answer against its oracle."""
    if RECORD is not None:
        site = _site()
        RECORD.reached.add(site)
        if not cond:
            RECORD.failed.add(site)
    if not cond:
        raise Mismatch(why)


# ---------------------------------------------------------------------------
# Level-index numbers: "L<level>:<mantissa>" is the level-fold exponential of
# the mantissa, and its super-logarithm is level + mantissa.


def parse_li(text: str):
    s = text.strip()
    if not s.startswith("L") or ":" not in s:
        raise Mismatch(f"not a level-index literal: {text!r}")
    level, _, mant = s[1:].partition(":")
    m = float(mant)
    expect(0.0 <= m < 1.0, f"{text}: mantissa outside [0, 1)")
    return int(level), m


def li_text(level: int, mantissa: float) -> str:
    return f"L{level}:{mantissa!r}"


def li_value(level: int, mantissa) -> mpf:
    """The real value of L<level>:<mantissa> (levels up to 4 or so)."""
    if level == -1:
        return mpmath.log(mantissa)
    v = mpf(mantissa)
    for _ in range(level):
        v = mpmath.exp(v)
    return v


def super_log(v) -> mpf:
    """level + mantissa of a nonnegative mpf: count logs down to [0, 1)."""
    v = mpf(v)
    if v < 0:
        raise ValueError(f"super-log of negative value {v}")
    level = 0
    while v >= 1:
        v = mpmath.log(v)
        level += 1
    return level + v


def to_mpf(cell):
    """A rendered program value (float, int or L-literal string) as an mpf."""
    if isinstance(cell, str):
        if cell.startswith("L"):
            level, m = parse_li(cell)
            expect(level <= 4, f"{cell} is past the comparable range")
            return li_value(level, m)
        return mpf(float(cell))
    if isinstance(cell, bool) or not isinstance(cell, (int, float)):
        raise Mismatch(f"not a number: {cell!r}")
    return mpf(cell)


def close(got, want, rtol: float, what: str = "value") -> None:
    """got agrees with want to rtol relative (exact when want is 0)."""
    got, want = mpf(got), mpf(want)
    if want == 0:
        expect(got == 0, f"{what}: got {mpmath.nstr(got, 17)}, want exactly 0")
        return
    err = abs(got / want - 1)
    expect(err <= rtol, f"{what}: got {mpmath.nstr(got, 17)}, want "
                        f"{mpmath.nstr(want, 17)} (rel err {mpmath.nstr(err, 3)})")


def close_abs(got, want, atol: float, what: str = "value") -> None:
    err = abs(mpf(got) - mpf(want))
    expect(err <= atol, f"{what}: got {mpmath.nstr(mpf(got), 17)}, want "
                        f"{mpmath.nstr(mpf(want), 17)} (abs err {mpmath.nstr(err, 3)})")


# ---------------------------------------------------------------------------
# The super-logarithm hierarchy, from its definition: xi_3 is level + mantissa;
# for k >= 4, xi_k(2) = 1 and xi_k(e) = 2 with a linear seed on [2, e], and
# xi_k^{-1}(t) applies xi_{k-1}^{-1} floor(t - 1) times to the seed inverse.


def xi_inv(k: int, t):
    """xi_k^{-1}(t) as ("real", mpf) or ("li", level, mantissa); None when an
    intermediate value is a tower too tall to feed the next level down."""
    t = mpf(t)
    if k == 3:
        level = int(mpmath.floor(t))
        m = t - level
        if level <= 3:
            return ("real", li_value(level, m))
        return ("li", level, float(m))
    n = int(mpmath.floor(t - 1))
    z = 2 + (t - n - 1) * (E - 2)
    out = ("real", z)
    for i in range(n):
        if out[0] != "real":
            return None
        out = xi_inv(k - 1, out[1])
        if out is None:
            return None
    return out


# ---------------------------------------------------------------------------
# Ackermann, base-2 variant: A(m, 0) = 2, A(0, n) = n + 2,
# A(m+1, n+1) = A(m, A(m+1, n)).

_ack_memo: dict = {}


def ack_closed(m: int, n: int) -> int:
    if m == 0:
        return n + 2
    if m == 1:
        return 2 * n + 2
    if m == 2:
        return 2 ** (n + 2) - 2
    raise ValueError(m)


def ack_recursive(m: int, n: int) -> int:
    """Brute-force recursion (iterated, no closed forms); small values only."""
    key = (m, n)
    if key in _ack_memo:
        return _ack_memo[key]
    if m == 0:
        v = n + 2
    else:
        v = 2
        for _ in range(n):
            v = ack_recursive(m - 1, v)
    _ack_memo[key] = v
    return v


def ack_tower_super_log(m: int, n: int) -> mpf:
    """Super-log of a tower-valued A(m, n), from A(3, n) + 2 = 2^(A(3, n-1) + 2).

    With B(n) = A(3, n) + 2: B(3) = 2^65536, B(n) = 2^B(n-1), so
    ln ln B(n) = ln ln 2 + ln 2 * B(n-2).  The -2 is far below the
    resolution of a tower.  A(4, 2) = A(3, 65534); the super-log of A(3, n)
    minus n settles within double precision long before n = 6.
    """
    if (m, n) == (4, 2):
        return ack_tower_super_log(3, 6) + (ack_recursive(3, 2) - 6)
    if not (m == 3 and 4 <= n <= 6):
        raise ValueError(f"A({m}, {n}) is not tower-valued")
    ln2 = mpmath.log(2)
    # ln ln B(n) = ln ln 2 + ln 2 * B(n-2); past n = 5 each level adds
    # exactly one to the super-log, since ln(ln 2 * B + ln ln 2) differs from
    # ln ln 2 + ln B(n-1) by less than 2^-(2^65536)
    b = mpf(65536) if n == 4 else mpmath.ldexp(1, 65536)
    return 2 + super_log(mpmath.log(ln2) + ln2 * b) + max(0, n - 5)


# ---------------------------------------------------------------------------
# Abel functions with a linear seed: F(x) = n + (y - A) / (f(A) - A), where
# y = f^{-n}(x) is the first pullback inside [A, f(A)] (expanding f).  For
# x + c this is (x - A) / c; for c * x it is the piecewise-linear log form.


class LinearSeedAbel:
    def __init__(self, f, f_inv, A):
        self.f, self.f_inv = f, f_inv
        self.lo = mpf(A)
        self.hi = f(self.lo)
        if not self.hi > self.lo:
            raise ValueError("oracle needs an expanding generator")

    def F(self, x) -> mpf:
        y, n = mpf(x), 0
        while y > self.hi:
            y = self.f_inv(y)
            n += 1
        return n + (y - self.lo) / (self.hi - self.lo)

    def F_inv(self, t) -> mpf:
        t = mpf(t)
        n = int(mpmath.floor(t))
        y = self.lo + (t - n) * (self.hi - self.lo)
        for _ in range(n):
            y = self.f(y)
        return y

    def iterate(self, lam, x) -> mpf:
        return self.F_inv(self.F(x) + lam)

