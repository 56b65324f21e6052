"""Closed-loop op execution, answer accounting and end-to-end statistics.

One client, one thread: each op is called only after the previous one has
returned and been checked.  Only the call itself is timed; oracle checks
run between ops, outside the timed call and with tracing paused.

Machine speed: on the 2-vCPU VMs this was built on, pure-Python code runs
up to 60% slower for seconds to minutes at a time, on every CPU at once,
so the same work timed in two runs can differ by a third.  A fixed
reference kernel that does not use growthcalc is therefore timed between
ops, every PROBE_EVERY_S, and the end-to-end times are reported at the
speed at which that kernel takes REF_KERNEL_MS: each op's time is scaled
by REF_KERNEL_MS over the kernel's time interpolated at the op.  The raw
figures are printed beside them.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional

from oracles import Mismatch

PHI = (math.sqrt(5.0) - 1.0) / 2.0
TAIL_BEYOND = 10
REF_KERNEL_MS = 6.0
PROBE_EVERY_S = 0.5
DEPTH_BUCKETS = ((1, 3), (4, 10), (11, 30), (31, 100), (101, 300), (301, 1000),
                 (1001, None))


@dataclass
class Op:
    kind: str                      # op type, e.g. "eval_li", "crit04", "abel.F"
    key: str                       # (command, input) identity
    call: Callable[[], Any]        # the timed call into growthcalc
    check: Callable[[Any], None]   # raises Mismatch when the answer is wrong
    li_input: bool = False         # the input is a level-index number
    defect: Optional[str] = None   # known defect this op can show
    abel_mode: Optional[str] = None  # "inverse" | "none" | "json"
    depth: Optional[int] = None    # pullback depth of an Abel evaluation


@dataclass
class CliAnswer:
    rc: int
    out: str


def cli_op(cli, argv: List[str]) -> Callable[[], CliAnswer]:
    """A call of cli.main(argv) in-process with stdout and stderr captured;
    main is looked up at call time, so a traced run sees its wrapper."""
    def call() -> CliAnswer:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return CliAnswer(rc, out.getvalue())
    return call


class Draw:
    """Seeded, stratified draws.  Each named quantity has its own sequence:
    the n-th draw of a number walks a golden-ratio sequence from a seeded
    offset, and the n-th pick cycles through a seeded permutation.  Every
    seed thus sees nearly the same spread of inputs, so medians and tails
    stay comparable from seed to seed."""

    def __init__(self, seed: int, salt: str):
        self.rng = random.Random(f"{salt}:{seed}")
        self._off: dict = {}
        self._perm: dict = {}
        self._n: Counter = Counter()

    def _next(self, name: str) -> int:
        n = self._n[name]
        self._n[name] = n + 1
        return n

    def u(self, name: str) -> float:
        off = self._off.setdefault(name, self.rng.random())
        return (off + self._next(name) * PHI) % 1.0

    def pick(self, name: str, items):
        perm = self._perm.get(name)
        if perm is None:
            perm = list(range(len(items)))
            self.rng.shuffle(perm)
            self._perm[name] = perm
        return items[perm[self._next(name) % len(items)]]

    def log_uniform(self, name: str, lo: float, hi: float) -> float:
        return lo * (hi / lo) ** self.u(name)

    def shuffled(self, items: list) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def reference_kernel() -> float:
    """Fixed interpreter work of the kinds growthcalc does: dicts, lists,
    strings, float arithmetic, recursive calls and JSON."""
    d = {}
    for i in range(2000):
        k = str(i)
        d[k] = [float(i) * 1.5, {"a": i, "b": k}]
    json.loads(json.dumps(d))
    x = 0.0
    for v in d.values():
        x += v[0] ** 0.5
    return x + _fib(14)


def kernel_ms() -> float:
    """The better of two timings of the reference kernel, in ms."""
    best = math.inf
    for _ in range(2):
        t = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t)
    return best * 1e3


@dataclass
class Tally:
    latencies: List[float] = field(default_factory=list)
    mids: List[float] = field(default_factory=list)     # perf_counter at each op's middle
    probes: List[tuple] = field(default_factory=list)   # (perf_counter, kernel ms)
    probe_s: float = 0.0  # time spent timing the reference kernel
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    wrong_unexpected: int = 0
    wrong_by_defect: Counter = field(default_factory=Counter)
    kinds: Counter = field(default_factory=Counter)
    kind_s: Counter = field(default_factory=Counter)
    repeated: int = 0
    li_ops: int = 0
    abel_modes: Counter = field(default_factory=Counter)
    depths: List[int] = field(default_factory=list)
    examples: List[str] = field(default_factory=list)
    busy_s: float = 0.0
    gen_s: float = 0.0    # time spent drawing the next op from the stream
    check_s: float = 0.0  # time spent judging answers, between the timed calls
    prefix: Optional[dict] = None  # failed/wrong counts over a fixed first stretch
    mix: int = 0        # ops in the workload's mix, lead ops included
    lead_n: int = 0     # lead ops: run once per mix, before the timed seconds
    lead_s: float = 0.0
    wall_s: float = 0.0
    _seen: set = field(default_factory=set)

    def _note(self, text: str) -> None:
        if len(self.examples) < 12:
            self.examples.append(text)

    def record(self, op: Op, seconds: float, mid: float) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.mids.append(mid)
        self.busy_s += seconds
        self.kinds[op.kind] += 1
        self.kind_s[op.kind] += seconds
        if op.key in self._seen:
            self.repeated += 1
        else:
            self._seen.add(op.key)
        self.li_ops += op.li_input
        if op.abel_mode:
            self.abel_modes[op.abel_mode] += 1
        if op.depth is not None:
            self.depths.append(op.depth)

    def fail(self, op: Op, why: str) -> None:
        self.failed += 1
        self._note(f"FAILED {op.kind} {op.key}: {why}")

    def mismatch(self, op: Op, why: str) -> None:
        self.wrong += 1
        self.wrong_by_defect[op.defect or "unexpected"] += 1
        if op.defect is None:
            self.wrong_unexpected += 1
            self._note(f"WRONG {op.kind} {op.key}: {why}")

    # -- end-to-end figures ------------------------------------------------

    def kernel_at_ops(self) -> List[float]:
        """The reference kernel's time at each op's middle, interpolated
        linearly between the probes before and after it."""
        ts = [t for t, _ in self.probes]
        ks = [k for _, k in self.probes]
        out = []
        for t in self.mids:
            i = bisect.bisect_right(ts, t)
            if i == 0 or i == len(ts):
                out.append(ks[min(i, len(ks) - 1)])
            else:
                w = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
                out.append(ks[i - 1] + w * (ks[i] - ks[i - 1]))
        return out

    def times(self, scaled: bool) -> List[float]:
        """Op latencies in seconds, raw or at the reference speed."""
        if not scaled:
            return self.latencies
        return [dt * REF_KERNEL_MS / k for dt, k in zip(self.latencies, self.kernel_at_ops())]

    def ops_per_s(self, scaled: bool = True) -> float:
        lat = self.times(scaled)
        busy = sum(lat)
        if not self.lead_n:
            return self.attempted / busy
        # the lead ops are a fixed share of the mix: once per `mix` ops, the
        # rest at the mean latency measured on the stream that followed them
        lead = sum(lat[:self.lead_n])
        rest = (busy - lead) / (self.attempted - self.lead_n)
        return self.mix / (lead + (self.mix - self.lead_n) * rest)

    def rest_ms(self) -> float:
        """Mean latency of the ops after the lead ones, at the reference speed."""
        return statistics.fmean(self.times(True)[self.lead_n:]) * 1e3

    def p50_ms(self, scaled: bool = True) -> float:
        return statistics.median(self.times(scaled)) * 1e3

    def tail(self, scaled: bool = True):
        """(percentile, latency ms, samples beyond) at the highest percentile
        with at least TAIL_BEYOND samples beyond it."""
        lat = self.times(scaled)
        n = len(lat)
        if n <= TAIL_BEYOND:
            return 0.0, max(lat) * 1e3, 0
        s = sorted(lat)
        return 100.0 * (n - TAIL_BEYOND) / n, s[n - TAIL_BEYOND - 1] * 1e3, TAIL_BEYOND

    def properties(self) -> dict:
        """Input properties: how much of the workload a cache or an inverse can help."""
        n = max(self.attempted, 1)
        depth = {}
        if len(self.depths) > 1:
            qs = statistics.quantiles(self.depths, n=4)
            depth = {"min": min(self.depths), "q1": qs[0], "median": qs[1],
                     "q3": qs[2], "max": max(self.depths), "buckets": {}}
            for lo, hi in DEPTH_BUCKETS:
                count = sum(lo <= d and (hi is None or d <= hi) for d in self.depths)
                if count:
                    depth["buckets"][f"{lo}-{hi}" if hi else f">{lo - 1}"] = count
        return {
            "ops": self.attempted,
            "repeated_input_share": self.repeated / n,
            "li_input_share": self.li_ops / n,
            "abel_inverse_share": self.abel_modes["inverse"] / n,
            "abel_no_inverse_share": self.abel_modes["none"] / n,
            "abel_from_json_share": self.abel_modes["json"] / n,
            "pullback_depth": depth,
            "op_mix": dict(sorted(self.kinds.items())),
            "time_share": {k: round(v / self.busy_s, 4)
                           for k, v in sorted(self.kind_s.items())},
        }


def execute(op: Op, tally: Tally, tracer=None) -> None:
    """Run one op, time the call, then judge the answer against its oracle."""
    span = tracer.root() if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            ans = op.call()
        err = None
    except Exception as exc:  # any raise is a failed op, never a crash
        ans, err = None, exc
    dt = time.perf_counter() - t0
    tally.record(op, dt, t0 + dt / 2)
    if err is not None:
        tally.fail(op, f"raised {type(err).__name__}: {err}")
        return
    if isinstance(ans, CliAnswer) and ans.rc != 0:
        tally.fail(op, f"exit code {ans.rc}")
        return
    t1 = time.perf_counter()
    try:
        op.check(ans)
    except Mismatch as exc:
        tally.mismatch(op, str(exc))
    except Exception as exc:  # an unreadable answer disagrees with the oracle
        tally.mismatch(op, f"unreadable answer: {type(exc).__name__}: {exc}")
    tally.check_s += time.perf_counter() - t1


def run_phase(stream: Iterator[Op], seconds: float, tally: Tally, lead: int = 0,
              cycle: int = 1, min_ops: int = 0, tracer=None) -> None:
    """Closed loop over the stream until `seconds` of wall time have passed
    since the end of the first `lead` ops, and at least `min_ops` ran.  It
    stops at the end of a whole cycle (ops after the lead ones in which each
    op kind and input class comes up equally often), so every run measures
    the same mix.  The failed and wrong counts of the first `min_ops` ops
    are kept apart: they depend on the seed alone, not on how fast the run
    went.  The reference kernel is timed before the first op, then before
    any op that starts PROBE_EVERY_S after the last timing, and at the end."""
    start = time.perf_counter()
    clock = start
    done = 0
    last_probe = -math.inf
    while True:
        t = time.perf_counter()
        if t - last_probe >= PROBE_EVERY_S:
            _probe(tally)
            last_probe = t
            t = time.perf_counter()
        op = next(stream)
        tally.gen_s += time.perf_counter() - t
        execute(op, tally, tracer)
        done += 1
        now = time.perf_counter()
        if done == lead:
            clock = now
            tally.lead_n, tally.lead_s = lead, tally.busy_s
        if done == min_ops:
            tally.prefix = {"ops": done, "failed": tally.failed, "wrong": tally.wrong}
        if (done >= lead and done >= min_ops and now - clock >= seconds
                and (done - lead) % cycle == 0):
            break
    _probe(tally)
    tally.wall_s = time.perf_counter() - start


def _probe(tally: Tally) -> None:
    t = time.perf_counter()
    k = kernel_ms()
    tally.probes.append((t, k))
    tally.probe_s += time.perf_counter() - t
