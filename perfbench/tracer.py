"""Per-layer tracing from outside the package.

Every public function of each growthcalc module is wrapped at every name it
is bound under (order_of is both orders.order_of and classify.order_of);
public methods are wrapped on their class.  Every call is counted.  A span
opens only where a call crosses from one module into another, so recursive
calls such as evaluate or xi_k are counted but get no span of their own.
Each op is a root span; a layer's self time is its span time minus the
time of the spans it caused.  Spans stay in memory (up to SPAN_CAP) and
are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time
import warnings
from collections import Counter, defaultdict

LAYERS = ("lixnum", "funcexpr", "abel", "xihier", "orders", "classify",
          "ackermann", "acceptance", "cli")
SPAN_CAP = 50_000
ARITH = {"lixnum.add", "lixnum.sub", "lixnum.mul", "lixnum.div"}
ABEL_EVAL = {"abel.AbelSolution.eval", "abel.AbelSolution.inverse",
             "abel.AbelSolution.fractional_iterate"}
ABEL_SOLVE = {"abel.solve_abel", "abel.solve_abel_regularized"}


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = Counter()      # qualified name -> every call
        self.entries = Counter()    # qualified name -> calls that opened a span
        self.time_in = Counter()    # qualified name -> seconds in its spans
        self.self_s = Counter()     # layer -> span seconds minus child spans
        self.extra = Counter()      # counters read off arguments and results
        self.durations = defaultdict(list)  # qualified name -> span seconds
        self.stack: list = []
        self.spans: list = []
        self.ops = 0
        self.root_s = 0.0
        self.root_child_s = 0.0
        self.criterion_of: dict = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("growthcalc")
        mods = {name: importlib.import_module(f"growthcalc.{name}") for name in LAYERS}
        self.criterion_of = {fn.__name__: n for n, fn in mods["acceptance"].CRITERIA.items()}
        wrapped = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        # rebind every module-level name that refers to a wrapped function
        for mod in [pkg, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_methods(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            q = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, q))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(attr.__func__, layer, q)))

    def _wrap(self, fn, layer: str, q: str):
        tr = self
        calls = self.calls
        hook = self._hook_for(q)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            calls[q] += 1
            st = tr.stack
            parent = st[-1]
            if parent[0] == layer:
                res = fn(*args, **kwargs)
                if hook is not None:
                    hook(res, args)
                return res
            if q == "funcexpr.evaluate" and parent[1] in ABEL_EVAL:
                tr.extra["f_evals_in_abel_eval"] += 1
            frame = [layer, q, perf(), 0.0]
            st.append(frame)
            try:
                res = fn(*args, **kwargs)
            finally:
                end = perf()
                st.pop()
                dur = end - frame[2]
                tr.self_s[layer] += dur - frame[3]
                tr.entries[q] += 1
                tr.time_in[q] += dur
                parent[3] += dur
                if layer == "acceptance":
                    tr.durations[q].append(dur)
                if q == "abel.solution_from_json" and parent[0] == "cli":
                    tr.extra["seed_cache_hits"] += 1
                if len(tr.spans) < SPAN_CAP:
                    tr.spans.append((tr.ops, layer, q, frame[2], end, len(st)))
            if hook is not None:
                hook(res, args)
            return res

        return traced

    def _hook_for(self, q: str):
        extra = self.extra
        if q in ARITH:
            def hook(res, args):
                extra["arith"] += 1
                extra["absorbed"] += bool(getattr(res, "absorbed", False))
            return hook
        if q == "xihier.XiHierarchy.xi_k":
            def hook(res, args):
                extra["xi_k_high"] += args[1] >= 4
            return hook
        if q == "orders.order_of":
            def hook(res, args):
                extra["ladder_points"] += len(res.residuals)
                extra["converged"] += bool(res.converged)
            return hook
        if q == "classify.classify_expr":
            def hook(res, args):
                extra["inconclusive"] += res.verdict == "inconclusive"
            return hook
        if q == "cli.main":
            def hook(res, args):
                extra["exit2"] += res == 2
            return hook
        return None

    # -- one op ---------------------------------------------------------------

    @contextlib.contextmanager
    def root(self):
        """The op's root span; warnings raised inside it are counted."""
        frame = ["bench", "op", time.perf_counter(), 0.0]
        self.stack = [frame]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.active = True
            try:
                yield
            finally:
                self.active = False
                self.root_s += time.perf_counter() - frame[2]
                self.root_child_s += frame[3]
                self.ops += 1
                self.extra["warnings"] += len(caught)

    # -- results --------------------------------------------------------------

    def _sum(self, table: Counter, names) -> float:
        return sum(table[n] for n in names)

    def layer_metrics(self) -> dict:
        ops = max(self.ops, 1)
        c, e, t, x = self.calls, self.entries, self.time_in, self.extra

        def per_op(v):
            return v / ops

        def ratio(a, b):
            return a / b if b else 0.0

        def layer_calls(layer):
            return sum(v for k, v in c.items() if k.startswith(layer + "."))

        eval_entries = self._sum(e, ABEL_EVAL)
        m = {
            "lixnum.calls": per_op(layer_calls("lixnum")),
            "lixnum.self_s": per_op(self.self_s["lixnum"]),
            "lixnum.arith_calls": per_op(x["arith"]),
            "lixnum.absorbed_ratio": ratio(x["absorbed"], x["arith"]),
            "lixnum.xi_exact_calls": per_op(c["lixnum.xi_exact"]),
            "funcexpr.parse_calls": per_op(c["funcexpr.parse"]),
            "funcexpr.parse_s": per_op(t["funcexpr.parse"]),
            "funcexpr.evaluate_calls": per_op(e["funcexpr.evaluate"]),
            "funcexpr.evaluate_nodes": per_op(c["funcexpr.evaluate"]),
            "funcexpr.invert_calls": per_op(c["funcexpr.invert_at"]),
            "funcexpr.self_s": per_op(self.self_s["funcexpr"]),
            "abel.solve_calls": per_op(self._sum(c, ABEL_SOLVE)),
            "abel.solve_s": per_op(self._sum(t, ABEL_SOLVE)),
            "abel.eval_calls": per_op(eval_entries),
            "abel.eval_s": per_op(self._sum(t, ABEL_EVAL)),
            "abel.f_evals_per_eval": ratio(x["f_evals_in_abel_eval"], eval_entries),
            "abel.seed_warnings": per_op(x["warnings"]),
            "abel.self_s": per_op(self.self_s["abel"]),
            "xihier.xi_k_calls": per_op(c["xihier.XiHierarchy.xi_k"]),
            "xihier.xi_k_high_calls": per_op(x["xi_k_high"]),
            "xihier.chi_calls": per_op(c["xihier.XiHierarchy.chi"]),
            "xihier.H_k_calls": per_op(c["xihier.XiHierarchy.H_k"]),
            "xihier.self_s": per_op(self.self_s["xihier"]),
            "orders.order_of_calls": per_op(c["orders.order_of"]),
            "orders.ladder_points": per_op(x["ladder_points"]),
            "orders.converged_ratio": ratio(x["converged"], c["orders.order_of"]),
            "orders.check_R_calls": per_op(c["orders.check_R"]),
            "orders.self_s": per_op(self.self_s["orders"]),
            "classify.classify_calls": per_op(c["classify.classify_expr"]),
            "classify.inconclusive_ratio": ratio(x["inconclusive"], c["classify.classify_expr"]),
            "classify.verify_chain_calls": per_op(c["classify.verify_chain"]),
            "classify.verify_chain_s": per_op(t["classify.verify_chain"]),
            "classify.self_s": per_op(self.self_s["classify"]),
            "ackermann.calls": per_op(layer_calls("ackermann")),
            "ackermann.op_L_calls": per_op(c["ackermann.op_L"]),
            "ackermann.self_s": per_op(self.self_s["ackermann"]),
            "cli.main_calls": per_op(c["cli.main"]),
            "cli.self_s": per_op(self.self_s["cli"]),
            "cli.exit2_count": float(x["exit2"]),
        }
        for name, n in sorted(self.criterion_of.items(), key=lambda kv: kv[1]):
            d = self.durations.get(f"acceptance.{name}")
            m[f"acceptance.crit{n:02d}_s"] = statistics.median(d) if d else 0.0
        return m

    def coverage(self) -> float:
        """Share of root-span time spent inside some growthcalc layer."""
        return self.root_child_s / self.root_s if self.root_s else 0.0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["op", "layer", "name", "start", "end", "depth"],
                       "dropped": max(0, sum(self.entries.values()) - len(self.spans)),
                       "spans": self.spans}, fh)
