"""Command-line front end.

Subcommands evaluate expressions, query the super-logarithm hierarchy and
Ackermann levels, estimate orders of growth, classify growth rates, verify
the growth catalog, test regularity conditions, compute fractional
iterates, dump plot data, and rerun the whole verification suite.

Outputs are JSON by default (`--format text` for summaries and the plotdata
table).  Tower-valued numbers appear as "L<level>:<mantissa>" literals, and
the same syntax is accepted for inputs.  Exit codes: 0 for data-bearing
runs, 1 for usage errors, 2 for evaluation errors.

JSON on stdout is the text json.dumps(payload, indent=2, default=str,
allow_nan=False) writes, byte for byte.  _dumps writes it itself and hands
each list of plain numbers to json's C encoder, which json.dumps leaves
unused whenever indent is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import abel, acceptance, ackermann, classify, funcexpr, lixnum, orders
from .funcexpr import EvalError, ParseError
from .lixnum import DomainError, LIReal
from .orders import Ladder
from .xihier import HIER

# the magnitude from which an exact rational prints as its digits, not a float
_FLOAT_LIMIT = 10 ** 300
# lists holding only these types go through json's C encoder in one call
_PLAIN_NUMBERS = frozenset((int, float))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1e5 and -.5e1 are values, as -3 and -1.5 are, not options:
        # argparse's own test misses them, and it differs between versions
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_point(text: str):
    if text.lstrip().startswith("L"):
        return lixnum.parse_li(text)
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"point must be finite, got {text!r}")
    return x


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _positive_float(text: str) -> float:
    x = _finite_float(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return x


def _render_value(v):
    if isinstance(v, LIReal):
        return lixnum.format_li(v)
    if isinstance(v, Fraction):
        return float(v) if abs(v) < _FLOAT_LIMIT else str(v)
    return v


@functools.cache
def _number_list(pad: str):
    """json's C encoder, writing list items apart by a comma and pad."""
    return json.JSONEncoder(allow_nan=False, separators=("," + pad, ": ")).encode


def _write(o, pad: str) -> str:
    """o as json.dumps(o, indent=2, default=str, allow_nan=False) writes it
    after the newline and indent pad; a value json refuses raises TypeError
    or ValueError, with no message of json's."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(o)
        return float.__repr__(o)
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if _PLAIN_NUMBERS.issuperset(map(type, o)):
            items = _number_list(inner)(o)[1:-1]
        else:
            items = ("," + inner).join([_write(v, inner) for v in o])
        return "[" + inner + items + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = []
        for k, v in o.items():
            if not isinstance(k, str):
                if not (k is None or isinstance(k, (int, float))):
                    raise TypeError(k)
                k = _write(k, pad)
            items.append(encode_basestring_ascii(k) + ": " + _write(v, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return encode_basestring_ascii(str(o))


def _dumps(payload) -> str:
    """json.dumps(payload, indent=2, default=str, allow_nan=False), byte for
    byte.  indent selects json's pure-Python encoder, which walks every
    float of a long list; _write lays the text out instead.  What json
    refuses (NaN, inf, a key of another type) json.dumps then refuses
    itself, with its own error and message."""
    try:
        return _write(payload, "\n")
    except (TypeError, ValueError):
        return json.dumps(payload, indent=2, default=str, allow_nan=False)


def _emit(args, payload: dict, text_lines=None):
    if args.format == "text" and text_lines is not None:
        for line in text_lines:
            print(line)
    else:
        print(_dumps(payload))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_eval(args) -> int:
    f = funcexpr.Fn(args.expr).raw
    if args.at is not None:
        pts = [_parse_point(args.at)]
    else:
        pts = Ladder.from_spec(args.ladder)
    vals = [f(x) for x in pts]
    rows = [{"x": _render_value(x if isinstance(x, LIReal) else float(x)),
             "value": _render_value(v)} for x, v in zip(pts, vals)]
    _emit(args, {"expr": args.expr, "points": rows},
          [f"{r['x']}\t{r['value']}" for r in rows])
    return 0


def cmd_xi(args) -> int:
    x = _parse_point(args.at)
    v = HIER.xi_k(args.k, x)
    _emit(args, {"k": args.k, "x": _render_value(x), "xi": _render_value(v)},
          [f"xi_{args.k}({_render_value(x)}) = {_render_value(v)}"])
    return 0


def cmd_ack(args) -> int:
    v = ackermann.ack(args.m, args.n)
    out = lixnum.format_li(v) if isinstance(v, LIReal) else v
    # exact values such as A(3, 3) = 2^65536 - 2 pass Python's int-to-str
    # digit limit, lifted only while they are printed
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    set_limit(0)
    try:
        _emit(args, {"m": args.m, "n": args.n, "value": out,
                     "envelope": ackermann.supported_envelope()},
              [str(out)])
    finally:
        set_limit(limit)
    return 0


def cmd_order(args) -> int:
    est = orders.order_of(args.F, args.f, Ladder.from_spec(args.ladder),
                          tol=args.tol)
    payload = est.to_json()
    payload.update({"F": args.F, "f": args.f})
    _emit(args, payload,
          [f"lambda = {est.lambda_hat:.9g} (converged: {est.converged}, "
           f"tail spread {est.tail_spread:.3g})"])
    return 0


def cmd_classify(args) -> int:
    rep = classify.classify_expr(args.expr)
    _emit(args, rep.to_json(),
          [f"class {rep.verdict}; witness: {rep.witness}"
           + (f"; {rep.reason}" if rep.reason else "")])
    return 0


def cmd_table(args) -> int:
    reports = classify.verify_rows(classify.catalog())
    lines = [f"{r['name']:14s} {'PASS' if r['ok'] else 'FAIL'}"
             for r in reports]
    _emit(args, {"rows": reports, "ok": all(r["ok"] for r in reports)}, lines)
    return 0


def cmd_props(args) -> int:
    reports = orders.check_R(("R0", "R1", "R2", "R3"), args.F,
                             Ladder.from_spec(args.ladder))
    out = {r.condition: r.to_json() for r in reports}
    _emit(args, {"F": args.F, "conditions": out},
          [f"{c}: {'pass' if out[c]['verdict'] else 'fail'} "
           f"(last margin {out[c]['margins'][-1]:.3g})" for c in out])
    return 0


def _load_cache(cache: Path, args):
    """(entries, the solution stored for args.f at args.base or None); a
    file that cannot be read or is not a JSON object of entries, or an
    entry that does not load, is a DomainError naming the file."""
    try:
        store = json.loads(cache.read_text())
        if not isinstance(store, dict):
            raise ValueError("not a JSON object of entries")
        entry = store.get(args.f)
        # an entry serves only the base it was solved at
        if entry is None or entry["A"] != args.base:
            return store, None
        return store, abel.solution_from_json(entry)
    except (KeyError, OSError, TypeError, ValueError) as exc:  # DomainError included
        raise DomainError(f"seed cache {str(cache)!r} does not load: "
                          f"{type(exc).__name__}: {exc}") from None


def _save_cache(cache: Path, store: dict) -> None:
    try:
        cache.write_text(json.dumps(store, indent=2, allow_nan=False))
    except OSError as exc:
        raise DomainError(f"seed cache {str(cache)!r} cannot be written: "
                          f"{type(exc).__name__}: {exc}") from None


def cmd_iterate(args) -> int:
    cache = args.seed_cache and Path(args.seed_cache)
    store, sol = _load_cache(cache, args) if cache and cache.exists() else ({}, None)
    if sol is None:
        sol = abel.solve_abel(args.f, A=args.base)
        if cache:
            store[args.f] = abel.solution_to_json(sol)
            _save_cache(cache, store)
    x = float(_parse_point(args.at))
    y = sol.fractional_iterate(args.lam, x)
    if args.twice:
        y = sol.fractional_iterate(args.lam, y)
    _emit(args, {"f": args.f, "lambda": args.lam, "x": x, "value": y,
                 "twice": args.twice}, [f"{y!r}"])
    return 0


def cmd_plotdata(args) -> int:
    f = funcexpr.Fn(args.expr).raw
    pts = Ladder.from_spec(args.ladder)
    vals = [f(x) for x in pts]
    lines = ["x,f(x)"] + [f"{_render_value(x)},{_render_value(v)}"
                          for x, v in zip(pts, vals)]
    if args.format == "json":
        print(json.dumps({"expr": args.expr,
                          "rows": [ln.split(",") for ln in lines[1:]]},
                         allow_nan=False))
    else:
        for ln in lines:
            print(ln)
    return 0


def cmd_repro(args) -> int:
    reports = acceptance.run_all()
    lines = [f"{r['id']:2d} {'PASS' if r['ok'] else 'FAIL'}  {r['name']}: "
             f"{r['detail']}" for r in reports]
    ok = all(r["ok"] for r in reports)
    lines.append(f"=> {sum(r['ok'] for r in reports)}/{len(reports)} passed")
    _emit(args, {"criteria": reports, "ok": ok}, lines)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built on first use and shared by every main call:
    it keeps no per-call state, parse_args returns a fresh Namespace."""
    p = _Parser(prog="growthcalc",
                description="Growth-rate calculus: super-logarithm arithmetic, "
                            "Abel equations, orders of growth, and the "
                            "class hierarchy.")
    p.add_argument("--format", choices=("json", "text"),
                   default="json", help="output format (default json)")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices  # each subcommand's parser, by name

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("eval", cmd_eval, "evaluate an expression at a point or ladder")
    sp.add_argument("expr")
    sp.add_argument("--at", help="point: float or L<level>:<mantissa>")
    sp.add_argument("--ladder", default="geom:10:10:8",
                    help="geom:x0:ratio:count or tower:m:levels")

    sp = add("xi", cmd_xi, "evaluate a hierarchy level xi_k")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--at", required=True)

    sp = add("ack", cmd_ack, "Ackermann value A(m, n)")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)

    sp = add("order", cmd_order, "order of f on the scale F along a ladder")
    sp.add_argument("--F", required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--ladder", default="tower:0.5:30")
    sp.add_argument("--tol", type=_positive_float, default=1e-3)

    sp = add("classify", cmd_classify, "growth-class decision with witness")
    sp.add_argument("expr")

    add("table", cmd_table, "verify the whole growth catalog")

    sp = add("props", cmd_props, "regularity conditions R0-R3 for a scale")
    sp.add_argument("--F", required=True)
    sp.add_argument("--ladder", default="geom:10:1e12:24")

    sp = add("iterate", cmd_iterate, "fractional iterate via an Abel solution")
    sp.add_argument("--f", required=True)
    sp.add_argument("--lambda", dest="lam", type=_finite_float,
                    required=True)
    sp.add_argument("--at", required=True)
    sp.add_argument("--base", type=_finite_float, default=0.5,
                    help="fundamental-domain base for the Abel solution")
    sp.add_argument("--twice", action="store_true",
                    help="apply the iterate twice")
    sp.add_argument("--seed-cache", help="solution cache path")

    sp = add("plotdata", cmd_plotdata, "emit x,f(x) sample data")
    sp.add_argument("expr")
    sp.add_argument("--ladder", default="geom:1:2:24")

    add("repro", cmd_repro, "run the full verification suite")
    return p


def _parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv).  When argv opens with a subcommand,
    the top-level pass is skipped: it would hand every later token to that
    subcommand's parser, on top of its own defaults.  An argv the top-level
    parser reads more of takes the full pass, so namespaces, usage errors
    and exit codes are the same either way: an option or no subcommand
    first, a `--=...` token (ambiguous between its own --help and
    --format), or a token the subcommand leaves over (which it refuses)."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None and not any(t.startswith("--=") for t in argv):
        top = argparse.Namespace(format=parser.get_default("format"),
                                 command=argv[0])
        args, rest = sub.parse_known_args(argv[1:], top)
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (DomainError, EvalError, ParseError, ValueError, OverflowError) as exc:
        print(f"growthcalc: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("growthcalc: expression nested too deeply", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): send what is left, and
        # the interpreter's final flush, to the null device, not a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
