"""growthcalc benchmark: one seeded workload, checked answers, end-to-end metrics.

    python3 perfbench/run.py --workload verify|queries|abel --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; growthcalc is imported from ./src.  The
workload runs as a closed loop with one client (one process, one thread,
each call waits for the previous answer).  setup_s is the median of
several fresh-interpreter set-ups.  With --trace 1 the run also replays
the stream in another fresh interpreter with every public growthcalc
function wrapped and prints the per-layer metrics and the tracing overhead.
The last stdout line is one JSON object: correct, attempted, failed and
metrics, each metric with the unit BENCHMARK.json gives it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify", "queries", "abel")
SETUP_PROBES = 2          # fresh set-ups besides the measured run's own
IMPORT_PROBES = 3
# seconds a workload's lead ops take before its timed seconds start (abel
# opens with one regularized op), and seconds its minimum run of ops takes,
# on a 2-vCPU VM with growthcalc 0.1.0
LEAD_S = {"abel": 25.0}
MIN_RUN_S = {"verify": 15.0, "queries": 5.0, "abel": 15.0}
TRACE_SLOWDOWN = 3.0      # a traced phase runs up to this much slower
TRACED_SHARE = 0.5        # the traced phase measures this share of --seconds
# a traced run is wrong when less of its time than this is covered by spans
ROOT_COVER_FLOOR = 0.95   # root spans / phase time spent in calls
LAYER_COVER_FLOOR = 0.90  # growthcalc layer spans / root spans


def _spawn(args, env, timeout):
    """Run a child to completion; return its last stdout line as JSON."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{args[1:3]} timed out after {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{args[1:3]} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _timeout(a, mode: str) -> float:
    """A generous limit for one worker: set-up, lead ops, the timed run,
    answer checks and the self-check, at a third of the usual speed."""
    lead = LEAD_S.get(a.workload, 0.0)
    if mode == "setup":
        work = 0.0
    elif mode == "measure":
        work = lead + max(a.seconds, MIN_RUN_S[a.workload])
    else:
        work = (lead + a.seconds * TRACED_SHARE) * TRACE_SLOWDOWN
    return 30.0 + 3.0 * work


def _worker(env, tmp, a, mode: str):
    tmp = tmp / f"worker-{time.monotonic_ns()}"
    tmp.mkdir()
    seconds = a.seconds * (TRACED_SHARE if mode == "trace" else 1.0)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", repr(seconds), "--mode", mode,
           "--tmp", str(tmp), "--spans", str(_spans_path(a)),
           "--t0", repr(time.monotonic())]
    return _spawn(cmd, env, _timeout(a, mode))


def _metric_specs(trace: int) -> list:
    """The metrics a run prints, with their units, as BENCHMARK.json lists them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _spans_path(a) -> Path:
    return Path.cwd() / ".perfbench" / f"spans-{a.workload}-seed{a.seed}.json"


def _import_time(env, module: str) -> float:
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                              capture_output=True, timeout=60, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "growthcalc" / "__init__.py").is_file():
        print(f"perfbench: no growthcalc sources under {src}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(src), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    specs = _metric_specs(a.trace)

    tmp = root / ".perfbench" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    try:
        setups = [_worker(env, tmp, a, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
        res = _worker(env, tmp, a, "measure")
        setups.append(res["setup_s"])
        if a.trace:
            res["traced"] = _worker(env, tmp, a, "trace")
            res["import_s"] = _import_time(env, "growthcalc")
            res["scipy_import_s"] = _import_time(env, "scipy.integrate, scipy.optimize")
    except (RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report(a, res, statistics.median(setups), setups, specs)
    return 0


def report(a, res, setup_s, setups, specs) -> None:
    t = res["tally"]
    n = t["attempted"]
    e2e = {"setup_s": setup_s, "ops_per_s": t["ops_per_s"],
           "op_p50_ms": t["op_p50_ms"], "op_tail_ms": t["op_tail_ms"],
           "peak_rss_mb": res["peak_rss_mb"]}
    pre = t["prefix"]
    fail_ratio, wrong_ratio = pre["failed"] / pre["ops"], pre["wrong"] / pre["ops"]
    sc = res["selfcheck"]
    correct = t["wrong_unexpected"] == 0 and sc["ok"]

    print(f"workload {a.workload}  seed {a.seed}  seconds {a.seconds:g}  "
          f"closed loop, 1 client")
    print(f"  setup_s      {setup_s:.4f} s   (median of {len(setups)}: "
          + ", ".join(f"{s:.3f}" for s in setups) + ")")
    print(f"  times at the reference speed (kernel {t['ref_kernel_ms']} ms; it took "
          f"{t['kernel_ms']:.3f} ms, median of {t['probes']} timings); raw in brackets")
    print(f"  ops_per_s    {t['ops_per_s']:.3f} op/s   [{t['raw_ops_per_s']:.3f}] ({n} ops "
          f"in {t['busy_s']:.2f} s busy, {t['wall_s']:.2f} s wall"
          + (f"; mix of {t['lead_n']} lead op(s), {t['lead_s']:.2f} s, per "
             f"{t['mix']} ops" if t["lead_n"] else "") + ")")
    print(f"  op_p50_ms    {t['op_p50_ms']:.4f} ms   [{t['raw_op_p50_ms']:.4f}]")
    print(f"  op_tail_ms   {t['op_tail_ms']:.4f} ms   [{t['raw_op_tail_ms']:.4f}] "
          f"(p{t['tail_pct']:.2f}, {t['tail_beyond']} of {n} samples beyond)")
    print(f"  fail_ratio   {fail_ratio:.6f} ratio   ({pre['failed']} of the first "
          f"{pre['ops']} ops; {t['failed']} of all {n})")
    print(f"  wrong_ratio  {wrong_ratio:.6f} ratio   ({pre['wrong']} of the first "
          f"{pre['ops']} ops; {t['wrong']} of all {n}, by known defect: "
          f"{t['wrong_by_defect'] or 'none'})")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:.2f} MiB")
    print("  inputs       " + json.dumps(t["properties"]))
    for ex in t["examples"]:
        print("  ! " + ex)
    if "probes" in res:
        pr = res["probes"]
        print(f"  probes       {pr['attempted']} untimed envelope probe(s): "
              f"{pr['failed']} failed, {pr['wrong']} wrong " + "; ".join(pr["examples"]))
    print(f"  selfcheck    {'ok' if sc['ok'] else 'FAILED'}: {sc['ops']} answers, "
          f"{sc['skipped']} skipped as known defects; one field changed at a time, "
          f"counted wrong: " + ", ".join(f"{k} {sc['caught'].get(k, 0)}/{fed}"
                                         for k, fed in sc["fed"].items())
          + f"; {sc['sites']} comparison sites, all able to fail: {not sc['uncovered']}; "
          f"forced failures counted: {sc['fails_counted']}")
    for what in ("uncovered", "missed"):
        if sc[what]:
            print(f"  selfcheck    {what}: {sc[what]}")

    if a.trace:
        tr = res["traced"]
        tt = tr["tally"]
        metrics = dict(tr["layers"])
        metrics["setup.import_s"] = res["import_s"]
        metrics["setup.scipy_import_s"] = res["scipy_import_s"]
        # over the ops after the lead ones, which run untraced in both phases
        metrics["trace.overhead"] = tt["rest_ms"] / t["rest_ms"] - 1.0
        metrics["trace.coverage"] = tr["layer_cover"]
        metrics["fail_ratio"] = fail_ratio
        metrics["wrong_ratio"] = wrong_ratio
        metrics["speed.kernel_ms"] = t["kernel_ms"]
        for k in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
            metrics[f"raw.{k}"] = t[f"raw_{k}"]
        covered = (tr["root_cover"] >= ROOT_COVER_FLOOR
                   and tr["layer_cover"] >= LAYER_COVER_FLOOR)
        correct = correct and covered and tt["wrong_unexpected"] == 0
        print(f"  traced       {tt['attempted']} ops in a fresh interpreter, "
              f"{tt['ops_per_s']:.3f} op/s (lead ops untraced); overhead "
              f"{metrics['trace.overhead']:.1%}; "
              f"root spans cover {tr['root_cover']:.1%} of the phase's time in calls "
              f"(floor {ROOT_COVER_FLOOR:.0%}), layer spans {tr['layer_cover']:.1%} of "
              f"root time (floor {LAYER_COVER_FLOOR:.0%})"
              + ("" if covered else "  LOW: time uncounted"))
        print(f"  spans        {_spans_path(a)}")
        for k in sorted(metrics):
            print(f"    {k:34s} {metrics[k]:.6g}")
    else:
        metrics = e2e
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs}
    print(json.dumps({"correct": correct, "attempted": n, "failed": t["failed"],
                      "metrics": out}))


if __name__ == "__main__":
    sys.exit(main())
