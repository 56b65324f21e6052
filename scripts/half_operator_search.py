"""Numeric search for a functional square root of the level-lowering operator.

The operator L maps f to f(f^-1 + 1) and steps each growth class down by
one.  Whether some operator H with H(H(f)) = L(f) exists on the increasing
functions is open.  This script does not settle anything: it measures how
far the naive half-shift family H_s(f) = f(f^-1 + s) is from being such a
square root.  Applying H_s twice means inverting H_s(f) itself, which is
done here by bisection, so the residuals are honest operator compositions,
not algebraic shortcuts.

Run from the repository root with the package importable, either
installed or through the source tree:

    PYTHONPATH=src python scripts/half_operator_search.py
"""

import math

from growthcalc.funcexpr import _bisect

GRID = [2.0 + 0.5 * i for i in range(12)]

SAMPLES = [
    ("exp", math.exp, math.log),
    ("2x", lambda x: 2 * x, lambda y: y / 2),
    ("x^2 + 1", lambda x: x * x + 1, lambda y: math.sqrt(y - 1)),
]


def bisect_inverse(fn, y, lo=1e-9, hi=1e6):
    for _ in range(60):
        if fn(hi) >= y:
            break
        hi *= 4

    def defined_fn(x):
        try:
            return fn(x)
        except ValueError:  # left of the domain of fn (x^2 + 1 starts at 1)
            return -math.inf

    return _bisect(defined_fn, y, lo, hi)


def half_shift(fn, inv, s):
    def g(x):
        return fn(inv(x) + s)

    def g_inv(y):
        return bisect_inverse(g, y)

    return g, g_inv


def residual(fn, inv, s):
    g, g_inv = half_shift(fn, inv, s)
    gg, _ = half_shift(g, g_inv, s)
    worst = 0.0
    for x in GRID:
        try:
            a = gg(x)
            b = fn(inv(x) + 1.0)  # L(f)(x)
        except (ValueError, OverflowError):
            continue
        worst = max(worst, abs(a / b - 1.0))
    return worst


def main():
    print("candidate H_s(f) = f(f^-1 + s); residual of H_s(H_s(f)) vs L(f)")
    for name, fn, inv in SAMPLES:
        scan = [(residual(fn, inv, 0.30 + 0.04 * i), 0.30 + 0.04 * i)
                for i in range(11)]
        best_r, best_s = min(scan)
        at_half = next(r for r, s in scan if abs(s - 0.50) < 1e-9)
        print(f"  f = {name:9s} s = 0.50 residual = {at_half:.3e}; "
              f"best s = {best_s:.2f} residual = {best_r:.3e}")
    print("no s in the scan drives the residual to zero (for f = 2x the")
    print("composite is x + s while L gives x + 2, so the family misses by")
    print("construction); the square-root-of-L question stays open here.")


if __name__ == "__main__":
    main()
