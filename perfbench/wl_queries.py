"""The `queries` workload: the interactive user of the command line.

An op is one seeded one-shot question sent through cli.main(argv)
in-process, with stdout captured and parsed.  A block holds a fixed
number of questions of each type (BLOCK) in seeded order; points are
fresh, so caches mostly miss.
`iterate --seed-cache` writes its cache file the first time a generator
is asked for and reads it afterwards.  `--parallel` is never used.

Oracles: mpmath at 50 digits for float points and levels <= 3; exact
identities on towers; Ackermann closed forms and a brute-force recursion;
known growth classes (an "inconclusive" verdict is not wrong); order
limits known in closed form; the R0/R3 verdicts the spec states; Abel
closed forms for x + c and c * x with a linear seed, and
iterate --lambda 0.5 --twice against f(x).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath

import oracles as orc
from core import CliAnswer, Draw, Op, cli_op
from oracles import expect, mpf

FLOAT_RTOL = 1e-10
LOG_RTOL = 1e-12
XI_ATOL = 1e-9
ORDER_TOL = 1e-3
TOWER_5 = math.exp(math.exp(math.e))  # exp of this is a level-5 tower

# expression pool for float points and towers of level <= 3, with mpmath twins
FLOAT_POOL = [
    ("x^2+1", lambda x: x ** 2 + 1),
    ("x+x/log(x)", lambda x: x + x / mpmath.log(x)),
    ("x*log(x)", lambda x: x * mpmath.log(x)),
    ("sqrt(x)+log(x)", lambda x: mpmath.sqrt(x) + mpmath.log(x)),
    ("x^3/(x+1)", lambda x: x ** 3 / (x + 1)),
    ("exp(sqrt(x))", lambda x: mpmath.exp(mpmath.sqrt(x))),
    ("log(log(x+3))", lambda x: mpmath.log(mpmath.log(x + 3))),
    ("exp(x)/x", lambda x: mpmath.exp(x) / x),
    ("xi(x)", orc.super_log),
    ("x-x", lambda x: mpf(0)),
    ("x/x", lambda x: mpf(1)),
    ("(x+x)/x", lambda x: mpf(2)),
    ("2*x/x", lambda x: mpf(2)),
]
# identities that hold exactly on towers of any level
ABSORBING = {"x-x": 0, "x/x": 1, "(x+x)/x": 2, "2*x/x": 2}
TOWER_POOL = ["x-x", "x/x", "(x+x)/x", "2*x/x", "xi(exp(x))-xi(x)", "exp(x)", "log(x)"]

# pairs (F, f, O_F(f)) with the ladder kind they converge on
ORDER_POOL = [
    ("xi(x)", "exp(x)", 1.0, "tower"),
    ("xi(x)", "exp(exp(x))", 2.0, "tower"),
    ("xi(x)", "log(x)", -1.0, "tower"),
    ("xi(x)/2", "exp(exp(x))", 1.0, "tower"),
    ("xi(x)", "x^2", 0.0, "tower"),
    ("xi(x)", "2*x", 0.0, "tower"),
    ("log(x)/log(2)", "2*x", 1.0, "geom"),
    ("x/2", "x+2", 1.0, "geom"),
    ("log(log(x))", "x^2", math.log(2.0), "geom"),
]

# known classes; the wobbly gallery entries and x*log(x), x+log(x) are the
# parked expressions the classifier answers "inconclusive"
CLASS_POOL = [
    ("x+2", "0"), ("x+sqrt(x)", "0"), ("x+x/log(x)", "1"), ("2*x", "1"),
    ("x^2", "1"), ("exp(x)", "2"), ("exp(exp(x))", "2"), ("x*log(x)", "1"),
    ("x+log(x)", "0"), ("x*(3+sin(xi(x)))", "1"), ("x^(3+sin(xi(x)))", "1"),
    ("x+2*sqrt(x)", "0"),
]
CLASS_FAMILIES = [("x+{:.3f}", 1.0, 5.0, "0"), ("{:.3f}*x", 1.2, 5.0, "1"),
                  ("x^{:.3f}", 1.2, 4.0, "1"), ("exp({:.3f}*x)", 0.5, 3.0, "2")]

# R0 and R3 verdicts the spec states (acceptance criterion 7)
PROPS_POOL = [("log(x)", True, True), ("xi(x)", True, True), ("log(x)^2", False, True)]

# Abel generators for iterate: text, base, f and its exact inverse (mpmath),
# and whether the linear-seed closed form is used for any lambda
ITERATE_GENS = [
    ("x+{}", (0.5, 1.0, 1.5, 2.5), 0.5, lambda c: (lambda y: y + c), lambda c: (lambda y: y - c), True),
    ("{}*x", (1.5, 2.0, 3.0), 0.5, lambda c: (lambda y: c * y), lambda c: (lambda y: y / c), True),
    ("exp(x)", (None,), 0.5, lambda c: mpmath.exp, lambda c: mpmath.log, False),
    ("x^{}", (1.5, 2.0, 3.0), 2.0, lambda p: (lambda y: y ** p), lambda p: (lambda y: y ** (1 / mpf(p))), False),
    ("x+sqrt(x)", (None,), 0.5, lambda c: (lambda y: y + mpmath.sqrt(y)),
     lambda c: (lambda y: ((mpmath.sqrt(1 + 4 * y) - 1) / 2) ** 2), False),
]
# points stay small: the solve (whose quality scan pulls back from up to
# ~300) dominates each iterate, so its cost varies little with the point
ITERATE_X = {"x+{}": (1.0, 30.0), "{}*x": (1.0, 100.0), "exp(x)": (0.6, 20.0),
             "x^{}": (2.1, 100.0), "x+sqrt(x)": (1.0, 30.0)}


def _payload(ans: CliAnswer) -> dict:
    return json.loads(ans.out)


def same_value(cell, want, what: str = "value") -> None:
    """A rendered value (float, int or L-literal) against an mpmath value."""
    want = mpf(want)
    if isinstance(cell, str) and cell.startswith("L"):
        level, m = orc.parse_li(cell)
        if want == 0:
            expect(level == 0, f"{what}: got {cell}, want exactly 0")
            expect(m == 0.0, f"{what}: got {cell}, want exactly 0")
            return
        if level <= 0:
            orc.close(orc.li_value(level, m), want, FLOAT_RTOL, what)
            return
        expect(level <= 5, f"{what}: got {cell}, past the comparable range")
        # compare logarithms: a tower's value is only meaningful to its log
        # (a tower answer for a want below 1 fails here, as logs of opposite sign)
        orc.close(orc.li_value(level - 1, m), mpmath.log(want), LOG_RTOL, what)
        return
    orc.close(orc.to_mpf(cell), want, FLOAT_RTOL, what)


def _geom_top(spec: str) -> float:
    _, x0, ratio, count = spec.split(":")
    return float(x0) * float(ratio) ** (int(count) - 1)


# questions of each type in a block.  An iterate solves an Abel equation
# (about 20 ms on a 2-vCPU VM), props and classify scan ladders (4-5 ms),
# the rest take about 2 ms.  The weights put most of the op time into
# parse, evaluate, tower lixnum ops and JSON output (eval, xi, ack, order,
# plotdata), as the interactive user is described; measured time shares
# are printed with every run under "time_share".
BLOCK = (("eval_float", 8), ("eval_li", 8), ("xi", 6), ("ack", 4), ("order", 4),
         ("plotdata", 4), ("classify", 2), ("props", 2), ("iterate", 1),
         ("iterate_cache", 1))
BLOCK_OPS = sum(n for _, n in BLOCK)


class Workload:
    name = "queries"
    lead = 0
    cycle = BLOCK_OPS
    ratio_ops = 25 * BLOCK_OPS

    def __init__(self, seed: int, tmpdir):
        from growthcalc import cli
        self.cli = cli
        self.seed = seed
        self.tmpdir = Path(tmpdir)
        self.cache = self.tmpdir / "seedcache-warmup.json"

    # -- op builders ------------------------------------------------------

    def _cli(self, kind, argv, check, li=False, defect=None) -> Op:
        return Op(kind=kind, key=" ".join(argv), call=cli_op(self.cli, argv),
                  check=check, li_input=li, defect=defect)

    def eval_float(self, d: Draw) -> Op:
        text, fn = d.pick("eval_float.expr", FLOAT_POOL)
        x = float(f"{d.log_uniform(f'eval_float.x.{text}', 1.5, 1e6):.6g}")

        def check(ans):
            pts = _payload(ans)["points"]
            expect(len(pts) == 1, f"{len(pts)} points")
            same_value(pts[0]["value"], fn(mpf(x)), f"{text} at {x!r}")
        return self._cli("eval_float", ["eval", text, "--at", repr(x)], check)

    def eval_li(self, d: Draw) -> Op:
        level = d.pick("eval_li.level", range(1, 17))
        m = round(0.05 + 0.9 * d.u(f"eval_li.m{level}"), 6)
        lit = orc.li_text(level, m)
        if level <= 3:
            text, fn = d.pick("eval_li.low", FLOAT_POOL)
            x = orc.li_value(level, m)

            def check(ans):
                got = _payload(ans)["points"][0]["value"]
                same_value(got, fn(x), f"{text} at {lit}")
            # on a tower input x^2 is itself a tower past level 3 once
            # x > e^(e^e / 2), and lixnum's addition there drops the +1
            absorbs = text == "x^2+1" and x * x >= TOWER_5
            return self._cli("eval_li", ["eval", text, "--at", lit], check, li=True,
                             defect="tower-absorption" if absorbs else None)
        text = d.pick("eval_li.tower", TOWER_POOL)

        def check(ans):
            got = _payload(ans)["points"][0]["value"]
            if text in ABSORBING:
                want = ABSORBING[text]
                if isinstance(got, str) and got.startswith("L"):
                    lv, mm = orc.parse_li(got)
                    expect(lv <= 1, f"{text} at {lit}: got {got}, want {want}")
                    got = orc.li_value(lv, mm)
                orc.close(got, want, FLOAT_RTOL, f"{text} at {lit}")
            elif text == "xi(exp(x))-xi(x)":
                expect(got == 1, f"{text} at {lit}: got {got!r}, want exactly 1")
            else:
                lv, mm = orc.parse_li(got)
                shift = 1 if text == "exp(x)" else -1
                why = f"{text} at {lit}: got {got}, want L{level + shift}:{m!r}"
                expect(lv == level + shift, why)
                expect(mm == m, why)
        return self._cli("eval_li", ["eval", text, "--at", lit], check, li=True,
                         defect="tower-absorption" if text in ABSORBING else None)

    def xi(self, d: Draw) -> Op:
        level = d.pick("xi.k", (3, 4, 5, 6))
        hi = {3: 40.0, 4: 4.4, 5: 3.9, 6: 3.3}[level]
        t = 1.05 + (hi - 1.05) * d.u(f"xi.t{level}")
        point = orc.xi_inv(level, t)
        while point is None:  # a tower too tall to feed the level below
            t = 1.0 + (t - 1.0) / 2
            point = orc.xi_inv(level, t)
        if point[0] == "li":
            at, li = orc.li_text(point[1], point[2]), True
        else:
            at, li = repr(float(point[1])), False
        t = mpf(t)

        def check(ans):
            orc.close_abs(_payload(ans)["xi"], t, XI_ATOL, f"xi_{level}({at})")
        return self._cli("xi", ["xi", "--k", str(level), "--at", at], check, li=li)

    def ack(self, d: Draw, m=None, n=None) -> Op:
        if m is None:
            m = d.pick("ack.m", range(5))
            if m <= 1:
                n = int(d.log_uniform(f"ack.n{m}", 1, 1e6)) - 1
            elif m == 2:
                n = int(d.u("ack.n2") * 10 ** 4)
            elif m == 3:
                # A(3, 3) = 2^65536 - 2 has 19729 digits: the CLI cannot
                # print it (exit 2), so it runs as an untimed probe instead
                n = d.pick("ack.n3", (0, 1, 2, 4, 5, 6))
            else:
                n = d.pick("ack.n4", (0, 1, 2))
        tower = (m == 3 and n >= 4) or (m == 4 and n == 2)

        def check(ans):
            got = _payload(ans)["value"]
            if tower:
                lv, mm = orc.parse_li(got)
                orc.close_abs(lv + mpf(mm), orc.ack_tower_super_log(m, n), XI_ATOL,
                              f"super-log of A({m}, {n})")
            else:
                want = orc.ack_closed(m, n) if m <= 2 else orc.ack_recursive(m, n)
                expect(got == want, f"A({m}, {n}) = {got!r}, want {want}")
        # ackermann's tower step adds ln ln 2 < 0 to a level-3 value, and its
        # addition absorbs any negative term
        return self._cli("ack", ["ack", str(m), str(n)], check,
                         defect="ack-tower-lnln2" if tower else None)

    def order(self, d: Draw) -> Op:
        F, f, want, kind = d.pick("order.pair", ORDER_POOL)
        if kind == "tower":
            lad = (f"tower:{0.05 + 0.9 * d.u(f'order.m.{F}.{f}'):.4f}:"
                   f"{d.pick(f'order.levels.{F}.{f}', range(16, 41))}")
        else:
            lad = (f"geom:{d.log_uniform(f'order.x0.{F}', 2, 100):.4g}:"
                   f"{d.log_uniform(f'order.ratio.{F}', 2, 1e3):.4g}:"
                   f"{d.pick(f'order.count.{F}', range(8, 25))}")

        def check(ans):
            p = _payload(ans)
            lam = p["lambda_hat"]
            expect(p["converged"] is True, f"O[{F}]({f}) on {lad} did not converge")
            expect(abs(lam - want) <= ORDER_TOL, f"O[{F}]({f}) on {lad} = {lam!r}, want {want}")
        # past ~1e12 the float residual (x+2)/2 - x/2 rounds to 0, and the
        # order_of reports that as a converged order 0
        cancels = F == "x/2" and kind == "geom" and _geom_top(lad) > 1e12
        return self._cli("order", ["order", "--F", F, "--f", f, "--ladder", lad],
                         check, li=kind == "tower",
                         defect="float-cancellation" if cancels else None)

    def classify(self, d: Draw) -> Op:
        if d.pick("classify.source", (False, True)):
            text, want = d.pick("classify.fixed", CLASS_POOL)
        else:
            fmt, lo, hi, want = d.pick("classify.family", CLASS_FAMILIES)
            text = fmt.format(lo + (hi - lo) * d.u(f"classify.{fmt}"))

        def check(ans):
            got = _payload(ans)["class"]
            expect(got in (want, "inconclusive"), f"class of {text}: {got!r}, want {want}")
        return self._cli("classify", ["classify", text], check)

    def props(self, d: Draw) -> Op:
        F, r0, r3 = d.pick("props.F", PROPS_POOL)

        def check(ans):
            cond = _payload(ans)["conditions"]
            for name, want in (("R0", r0), ("R3", r3)):
                got = cond[name]["verdict"]
                expect(got is want, f"props {F}: {name} {got}, want {want}")
        return self._cli("props", ["props", "--F", F], check)

    def plotdata(self, d: Draw) -> Op:
        text, fn = d.pick("plotdata.expr", FLOAT_POOL)
        x0 = float(f"{d.log_uniform(f'plotdata.x0.{text}', 1.5, 10):.4g}")
        ratio = float(f"{d.log_uniform(f'plotdata.ratio.{text}', 1.2, 3):.4g}")
        count = d.pick(f"plotdata.count.{text}", range(8, 25))

        def check(ans):
            rows = _payload(ans)["rows"]
            expect(len(rows) == count, f"{len(rows)} rows, want {count}")
            for i, (xc, vc) in enumerate(rows):
                x = x0 * ratio ** i
                expect(float(xc) == x, f"row {i}: x = {xc}, want {x!r}")
                same_value(vc, fn(mpf(x)), f"{text} at {xc}")
        # exp(x) at x >= e^e^e is a level-5 tower, and lixnum's division
        # at level >= 4 absorbs the /x
        absorbs = text == "exp(x)/x" and x0 * ratio ** (count - 1) >= TOWER_5
        return self._cli("plotdata", ["plotdata", text, "--ladder",
                                      f"geom:{x0!r}:{ratio!r}:{count}"], check,
                         defect="tower-absorption" if absorbs else None)

    def iterate_cache(self, d: Draw) -> Op:
        return self.iterate(d, cached=True)

    def iterate(self, d: Draw, cached: bool = False) -> Op:
        tag = "iterate_cache" if cached else "iterate"
        fmt, params, base, f_of, inv_of, closed = d.pick(f"{tag}.gen", ITERATE_GENS)
        c = d.pick(f"{tag}.{fmt}", params)
        text = fmt.format(c)
        f, f_inv = f_of(c), inv_of(c)
        lo, hi = ITERATE_X[fmt]
        x = float(f"{d.log_uniform(f'{tag}.x.{text}', lo, hi):.6g}")
        if closed:
            lam = round(0.1 + 0.8 * d.u(f"{tag}.lam.{text}"), 4)
            twice = d.pick(f"{tag}.twice.{text}", (False, True))
        else:
            lam, twice = 0.5, True
        argv = ["iterate", "--f", text, "--lambda", repr(lam), "--at", repr(x),
                "--base", repr(base)]
        argv += ["--twice"] if twice else []
        if cached:
            argv += ["--seed-cache", str(self.cache)]

        def check(ans):
            got = _payload(ans)["value"]
            if closed:
                sol = orc.LinearSeedAbel(f, f_inv, base)
                want = sol.iterate(lam, x)
                if twice:
                    want = sol.iterate(lam, want)
            else:
                want = f(mpf(x))
            orc.close(got, want, 1e-9, f"{text}^{lam}{'^2' if twice else ''}({x!r})")
        return self._cli(tag, argv, check)

    # -- streams ------------------------------------------------------------

    def block(self, d: Draw) -> list:
        return d.shuffled([getattr(self, kind)(d) for kind, n in BLOCK for _ in range(n)])

    def stream(self):
        self.cache = self.tmpdir / "seedcache.json"
        d = Draw(self.seed, "queries")
        while True:
            yield from self.block(d)

    def warmup(self) -> list:
        # the ack memo holds each value once computed; the tower entries
        # (A(4, 2) alone takes ~0.5 s) are filled here, not in a timed op
        d = Draw(self.seed, "queries-warmup")
        towers = [self.ack(d, m, n) for m, n in ((3, 4), (3, 5), (3, 6), (4, 2))]
        return self.block(d) + towers

    def sample(self) -> list:
        self.cache = self.tmpdir / "seedcache-sample.json"
        d = Draw(self.seed, "queries-sample")
        return self.block(d)

    def probes(self) -> list:
        """Untimed: inputs inside the supported envelope that growthcalc 0.1.0 fails."""
        want = orc.ack_closed(2, 65534)

        def check(ans):
            expect(_payload(ans)["value"] == want, "A(3, 3) != 2^65536 - 2")
        return [self._cli("ack", ["ack", "3", "3"], check)]
