"""Self-check: every comparison the oracles make must be able to fail.

A small sample of the workload's ops runs for real, and each answer is
checked; every `oracles.expect` call reached on the way is a comparison
site.  Then each answer is fed back with one field changed at a time:

  number  one number, in the answer or inside its text, pushed far up
          (|v| * 1e9 + 1) or far down (-(|v| * 1e9 + 1)), so that it
          crosses any threshold on either side, or nudged (an int by 1, in
          text also by 0.001, a float by 0.1% + 0.001), so that it stays in
          range but is off
  flag    one True/False flipped, in the answer or inside its text
  label   one word label (such as "inconclusive") replaced
  text    a report line given the "; failures: ..." clause growthcalc
          appends when one of its own checks fails
  shape   one list shortened by its last item

Each changed answer goes through the same accounting as a timed op.  The
check passes when every site reached on a real answer failed for at least
one single change (a site that never fails is a check that cannot fail)
and every op was counted wrong under at least one change.  One op is then
forced to raise and one CLI op to exit 2; both must be counted in
fail_ratio.  Ops whose real answer is already wrong (known defects) are
skipped, since a wrong answer stays wrong.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from fractions import Fraction

import oracles
from core import CliAnswer, Op, Tally, execute

_TOKEN = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|True|False")
_LABEL = re.compile(r"[A-Za-z_]+")


def _far(v, up: bool):
    big = abs(v) * 10 ** 9 + 1 if isinstance(v, (int, Fraction)) else abs(v) * 1e9 + 1.0
    return big if up else -big


def _numbers(v):
    if not isinstance(v, float) or math.isfinite(v):
        yield _far(v, True)
        yield _far(v, False)
        yield v + 1 if isinstance(v, (int, Fraction)) else v * 1.001 + 0.001
    else:
        yield 1.0


def _text_mutants(s: str):
    if _LABEL.fullmatch(s):
        yield "label", s + "_changed"
    elif " " in s:  # a report line: the clause growthcalc adds when a check fails
        yield "text", s + "; failures: [1]"
    for m in _TOKEN.finditer(s):
        tok = m.group(0)
        if tok in ("True", "False"):
            subs = [("flag", "False" if tok == "True" else "True")]
        elif re.fullmatch(r"[-+]?\d+", tok):
            # an int in text may be a float printed short (mantissa "0")
            subs = [("number", str(x)) for x in _numbers(int(tok))]
            subs.append(("number", tok + ".001"))
        else:
            subs = [("number", repr(x)) for x in _numbers(float(tok))]
        for kind, sub in subs:
            yield kind, s[:m.start()] + sub + s[m.end():]


def mutants(v):
    """(kind, answer) pairs: the answer with exactly one field changed."""
    if isinstance(v, bool):
        yield "flag", not v
    elif isinstance(v, (int, float, Fraction)):
        for x in _numbers(v):
            yield "number", x
    elif isinstance(v, str):
        yield from _text_mutants(v)
    elif isinstance(v, CliAnswer):
        for kind, m in mutants(json.loads(v.out)):
            yield kind, CliAnswer(v.rc, json.dumps(m))
    elif isinstance(v, dict):
        for key, x in v.items():
            for kind, m in mutants(x):
                yield kind, {**v, key: m}
    elif isinstance(v, (list, tuple)):
        for i, x in enumerate(v):
            for kind, m in mutants(x):
                yield kind, type(v)([*v[:i], m, *v[i + 1:]])
        if v and isinstance(v, list):
            yield "shape", v[:-1]
    # solution objects and other handles are left as they are


class _FakeRegularized:
    """A stand-in with F(log x) = log x, so the step check can pass or fail."""

    def F(self, x):
        return x


def _answers(wl):
    """(op, real answer) for the sample; the regularized op is represented by
    a stand-in that passes its check, since the real one is a known defect."""
    for op in wl.sample():
        yield op, op.call()
    if wl.name == "abel":
        from wl_abel import REG_POINTS, check_regularized
        fake = (_FakeRegularized(), [math.log(x) + 1 for x in REG_POINTS])
        yield Op(kind="abel.regularized", key="stand-in", call=lambda: fake,
                 check=check_regularized), fake


def run(wl) -> dict:
    real_sites, failed_sites = oracles.Sites(), oracles.Sites()
    fed, caught = Counter(), Counter()
    ops = skipped = 0
    missed = []
    try:
        for op, real in _answers(wl):
            if isinstance(real, CliAnswer) and real.rc != 0:
                skipped += 1
                continue
            oracles.RECORD = sites = oracles.Sites()
            t = Tally()
            execute(Op(kind=op.kind, key=op.key, call=lambda r=real: r, check=op.check), t)
            if t.wrong:
                skipped += 1  # already wrong at this commit: a known defect
                continue
            real_sites.reached |= sites.reached
            ops += 1
            oracles.RECORD = failed_sites
            op_caught = 0
            for kind, bad in mutants(real):
                t = Tally()
                execute(Op(kind=op.kind, key=op.key, call=lambda b=bad: b,
                           check=op.check), t)
                fed[kind] += 1
                caught[kind] += t.wrong
                op_caught += t.wrong
            if not op_caught:
                missed.append(op.key)
    finally:
        oracles.RECORD = None
    uncovered = sorted(real_sites.reached - failed_sites.failed)

    def boom():
        raise RuntimeError("forced failure")

    t = Tally()
    execute(Op(kind="forced", key="raise", call=boom, check=lambda a: None), t)
    execute(Op(kind="forced", key="exit2", call=lambda: CliAnswer(2, ""),
               check=lambda a: None), t)
    fails_counted = t.failed == 2 and t.attempted == 2 and t.wrong == 0
    return {"ops": ops, "skipped": skipped, "sites": len(real_sites.reached),
            "uncovered": uncovered, "fed": dict(fed), "caught": dict(caught),
            "missed": missed[:5], "fails_counted": fails_counted,
            "ok": (ops > 0 and bool(real_sites.reached) and not uncovered
                   and not missed and fails_counted)}
