"""One workload process: set up, warm up, run the closed loop, check answers.

Started by run.py in a fresh interpreter with the checkout's src/ on
PYTHONPATH, in one of three modes: --mode setup stops after the set-up,
--mode measure runs the untraced timed phase, the untimed probes and the
self-check, and --mode trace runs the same stream with every public
growthcalc function wrapped.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def _bench_imports():
    """Benchmark-only modules; their import time is kept out of setup_s."""
    t = time.monotonic()
    import wl_abel
    import wl_queries
    import wl_verify
    workloads = {"verify": wl_verify.Workload, "queries": wl_queries.Workload,
                 "abel": wl_abel.Workload}
    return workloads, time.monotonic() - t


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() just before this interpreter was spawned")
    p.add_argument("--tmp", required=True)
    p.add_argument("--spans", help="where a traced run writes its spans")
    args = p.parse_args(argv)

    workloads, bench_s = _bench_imports()

    # -- set-up: what a user pays before the first answer --------------------
    import growthcalc
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(growthcalc.__file__).startswith(src + os.sep):
        print(f"perfbench: growthcalc imported from {growthcalc.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    growthcalc.default_hierarchy()
    growthcalc.catalog()
    t = time.monotonic()
    wl = workloads[args.workload](args.seed, args.tmp)
    warm = wl.warmup()
    bench_s += time.monotonic() - t
    for op in warm:
        op.call()
    setup_s = time.monotonic() - args.t0 - bench_s
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    from core import Tally, execute, run_phase

    if args.mode == "trace":
        from tracer import Tracer
        stream, traced = wl.stream(), Tally(mix=wl.ratio_ops)
        # the lead ops (abel's regularized solve and F) run before the
        # wrappers go in: wrapped, their millions of calls would take minutes
        for _ in range(wl.lead):
            execute(next(stream), traced)
        traced.lead_n, traced.lead_s = wl.lead, traced.busy_s
        tracer = Tracer()
        tracer.install()
        run_phase(stream, args.seconds, traced, cycle=wl.cycle, tracer=tracer)
        out["tally"] = summarize(traced)
        out["layers"] = tracer.layer_metrics()
        out["layers"]["abel.regularized_s"] = traced.lead_s
        out["layers"]["cli.seed_cache_hit_ratio"] = (
            tracer.extra["seed_cache_hits"] / traced.kinds["iterate_cache"]
            if traced.kinds["iterate_cache"] else 0.0)
        # the root spans wrap the timed calls; the rest of the phase is
        # drawing ops, checking answers and timing the reference kernel,
        # all untraced, and bookkeeping
        out["root_cover"] = tracer.root_s / (traced.wall_s - traced.check_s
                                             - traced.gen_s - traced.probe_s)
        out["layer_cover"] = tracer.coverage()
        tracer.write(args.spans)
        print(json.dumps(out))
        return 0

    import selfcheck

    tally = Tally(mix=wl.ratio_ops)
    run_phase(wl.stream(), args.seconds, tally, lead=wl.lead, cycle=wl.cycle,
              min_ops=wl.ratio_ops)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["tally"] = summarize(tally)

    probes = getattr(wl, "probes", lambda: [])()
    if probes:
        pt = Tally()
        for op in probes:
            execute(op, pt)
        out["probes"] = {"attempted": pt.attempted, "failed": pt.failed,
                         "wrong": pt.wrong, "examples": pt.examples}

    out["selfcheck"] = selfcheck.run(wl)
    print(json.dumps(out))
    return 0


def summarize(t) -> dict:
    from core import REF_KERNEL_MS
    pct, tail_ms, beyond = t.tail()
    return {
        "raw_ops_per_s": t.ops_per_s(scaled=False), "raw_op_p50_ms": t.p50_ms(scaled=False),
        "raw_op_tail_ms": t.tail(scaled=False)[1],
        "ref_kernel_ms": REF_KERNEL_MS, "probes": len(t.probes), "rest_ms": t.rest_ms(),
        "kernel_ms": statistics.median(k for _, k in t.probes),
        "attempted": t.attempted, "failed": t.failed, "wrong": t.wrong,
        "wrong_unexpected": t.wrong_unexpected,
        "wrong_by_defect": dict(t.wrong_by_defect),
        "ops_per_s": t.ops_per_s(), "op_p50_ms": t.p50_ms(),
        "op_tail_ms": tail_ms, "tail_pct": pct, "tail_beyond": beyond,
        "busy_s": t.busy_s, "wall_s": t.wall_s, "prefix": t.prefix,
        "mix": t.mix, "lead_n": t.lead_n, "lead_s": t.lead_s,
        "properties": t.properties(), "examples": t.examples,
    }


if __name__ == "__main__":
    sys.exit(main())
