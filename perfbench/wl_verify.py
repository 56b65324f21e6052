"""The `verify` workload: `growthcalc repro` plus `table`, as single ops.

An op is one acceptance criterion (1-11) or one verify_chain over a
catalog row (8 rows): 19 ops per pass, each pass in a fresh seeded order.
The seed also sets criterion 1's rng_seed.  Inputs repeat every pass, so
the ack memo and the H_k cache are warm after the warm-up pass.

Oracle: the thresholds the spec states for each criterion, read off the
figures the criterion reports, and each catalog row's order limits within
tol of +1 (first pair) and -1 (the chain steps).  The criterion's own ok
flag must agree.
"""

from __future__ import annotations

import re

from core import Draw, Op
from oracles import Mismatch, expect

ORDER_TOL = 1e-3
SPEC_CLASSES = {"exp(x)": "2", "x^2": "1", "2*x": "1", "x+2": "0"}
NUM = r"([-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)"
# criteria whose inputs are level-index numbers (random towers, tower ladders)
LI_CRITERIA = {1, 2, 3, 6, 10, 11}


def _num(pattern: str, detail: str, group: int = 1) -> float:
    m = re.search(pattern, detail)
    if m is None:
        raise Mismatch(f"report lacks {pattern!r}: {detail!r}")
    return float(m.group(group))


def _flag(label: str, detail: str) -> None:
    m = re.search(re.escape(label) + r"\s*(True|False)", detail)
    expect(m is not None and m.group(1) == "True", f"{label!r} is not True in {detail!r}")


def _no_failures(detail: str) -> None:
    expect("failures:" not in detail, f"reported failures: {detail!r}")


def _crit01(d):
    expect(_num(r"(\d+) failures out of", d) == 0,
           f"xi(exp v) - xi(v) = 1 must hold for every value: {d!r}")
    expect(_num(r"failures out of (\d+)", d) == 10000, f"not all 10000 values: {d!r}")


def _crit02(d):
    expect(_num(r"max rel err " + NUM, d) <= 1e-8, f"half-exp error > 1e-8: {d!r}")
    _flag("xi-coordinates:", d)


def _crit03(d):
    expect(_num(r"(\d+) rows", d) == 8, f"not all 8 rows: {d!r}")
    expect(_num(r"worst tail spread " + NUM, d) <= ORDER_TOL, f"tail spread > tol: {d!r}")
    _no_failures(d)


def _crit04(d):
    expect(_num(r"max residual " + NUM, d) <= 1e-9, f"Abel residual > 1e-9: {d!r}")
    expect(_num(r"group law " + NUM, d) <= 1e-9, f"group law > 1e-9: {d!r}")
    expect(_num(r"x\+1: " + NUM, d) <= 1e-12, f"half-iterate of x+2 off: {d!r}")


def _crit05(d):
    expect(_num(r"G anchors to " + NUM, d) <= 1e-9, f"G anchors > 1e-9: {d!r}")
    _no_failures(d)


def _crit06(d):
    expect(_num(r"xi-chain max err " + NUM, d) <= 1e-9, f"op_L chain > 1e-9: {d!r}")
    expect(_num(r"closed forms " + NUM, d) <= 1e-12, f"op_L closed forms > 1e-12: {d!r}")


def _crit07(d):
    expect(_num(r"margin -> " + NUM, d) >= 1.0, f"log^2 R0 margin < 1: {d!r}")
    _no_failures(d)


def _crit08(d):
    got = dict(re.findall(r"([^\s,:]+):(\d|inconclusive)", d.split(";")[0]))
    expect(got == SPEC_CLASSES, f"classes {got} != {SPEC_CLASSES}")


def _crit09(d):
    _flag("k<=30:", d)
    lo = _num(r"F\(x\)/x in \[" + NUM, d)
    hi = _num(r"F\(x\)/x in \[" + NUM + r", " + NUM, d, 2)
    expect(0.2 <= lo, f"staircase ratio below 0.2: {d!r}")
    expect(hi < 1.0, f"staircase ratio not below 1: {d!r}")


def _crit10(d):
    expect(_num(r"2/sqrt\(x\): " + NUM, d) <= 1e-12, f"ratio vs 2/sqrt(x) > 1e-12: {d!r}")
    _flag("beyond 4e4:", d)
    _flag("tower point:", d)


def _crit11(d):
    lo = _num(r"x f'/f in \[" + NUM, d)
    hi = _num(r"x f'/f in \[" + NUM + r", " + NUM, d, 2)
    a = _num(r"spans \[" + NUM, d)
    b = _num(r"spans \[" + NUM + r", " + NUM, d, 2)
    expect(0.95 <= lo, f"x f'/f below 0.95: {d!r}")
    expect(lo <= hi <= 1.05, f"x f'/f above 1.05: {d!r}")
    expect(2.0 <= a < 2.2, f"f/x band does not start in [2, 2.2): {d!r}")
    expect(3.8 < b <= 4.0, f"f/x band does not end in (3.8, 4]: {d!r}")


CRITERION_ORACLES = {1: _crit01, 2: _crit02, 3: _crit03, 4: _crit04, 5: _crit05,
                     6: _crit06, 7: _crit07, 8: _crit08, 9: _crit09, 10: _crit10,
                     11: _crit11}


def check_criterion(n: int):
    def check(rep) -> None:
        detail = rep["detail"]
        CRITERION_ORACLES[n](detail)
        expect(rep["ok"] is True, f"criterion {n} says not ok: {detail!r}")
    return check


def check_row(rep) -> None:
    pairs = rep["pairs"]
    expect(len(pairs) == 4, f"{rep['name']}: {len(pairs)} pairs, want 4")
    for i, pair in enumerate(pairs):
        want = 1.0 if i == 0 else -1.0
        lam = pair["lambda_hat"]
        what = f"{rep['name']}: O[{pair['F']}]({pair['f']})"
        expect(pair["converged"] is True, f"{what} did not converge")
        expect(abs(lam - want) <= ORDER_TOL, f"{what} = {lam!r}, want {want}")
    inv = rep["inverse_check"]["max_err"]
    expect(inv <= 1e-3, f"{rep['name']}: inverse check error {inv!r}")
    expect(rep["ok"] is True, f"{rep['name']}: row says not ok")


class Workload:
    name = "verify"
    lead = 0
    cycle = 19  # one pass
    ratio_ops = 20 * cycle

    def __init__(self, seed: int, tmpdir):
        from growthcalc import acceptance, classify
        self.acceptance, self.classify = acceptance, classify
        self.seed = seed
        self.rng_seed = Draw(seed, "verify-rng").rng.randrange(2 ** 31)
        self.fn_names = {n: fn.__name__ for n, fn in acceptance.CRITERIA.items()}
        self.rows = classify.catalog()

    def _criterion_op(self, n: int) -> Op:
        acc, name = self.acceptance, self.fn_names[n]
        if n == 1:
            rng_seed = self.rng_seed

            def call():
                return getattr(acc, name)(rng_seed=rng_seed)
        else:
            def call():
                return getattr(acc, name)()
        return Op(kind=f"crit{n:02d}", key=f"crit{n:02d}", call=call,
                  check=check_criterion(n), li_input=n in LI_CRITERIA)

    def _row_op(self, entry) -> Op:
        cls = self.classify
        return Op(kind="row", key=f"row:{entry.name}",
                  call=lambda: cls.verify_chain(entry), check=check_row,
                  li_input=True)

    def one_pass(self) -> list:
        return ([self._criterion_op(n) for n in sorted(self.fn_names)]
                + [self._row_op(e) for e in self.rows])

    def warmup(self) -> list:
        return self.one_pass()

    def stream(self):
        draw = Draw(self.seed, "verify-order")
        while True:
            yield from draw.shuffled(self.one_pass())

    def sample(self) -> list:
        """One op of each kind, for the self-check."""
        return self.one_pass()
