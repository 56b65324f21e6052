"""A small expression DSL for the functions the library manipulates.

Grammar (whitespace-insensitive)::

    expr    := comp
    comp    := sum ('@' sum)*          # f @ g is composition f(g(x)), lowest precedence
    sum     := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?       # right associative, binds tighter than unary '-'
    atom    := NUMBER | 'x' | 'e' | 'pi' | NAME '(' expr ')' | '(' expr ')'

comp, sum and term are one parser rule read off _PREC, which to_text prints by.

Function names, each one row of _FUNCS, which the parser, compile_expr,
differentiate and invert read: exp, log, log_<k>, sqrt, sin, abs, xi,
xi_<k>, chi, plus the derivative forms dxi_<k> (exact, by the chain rule)
and dchi (a central difference) emitted by differentiate().
parse(text) keeps the trees of the texts it read last, so a text asked
about again is not read again.
compile_expr(expr), the one evaluator, turns an expression into closures
with float fast paths that also take Fractions or level-index numbers
(LIReal), where exp/log become exact level shifts.  The xi, xi_k, chi and
dxi_k nodes read the one fixed hierarchy, xihier.HIER.
invert(expr) builds the exact inverse of an increasing expression from the
invertible fragment (x+c, c*x, x^c, c^x, @, and the calls whose row has an
inverse rule: exp, log, log_k, sqrt).
Fn resolves a function spec (text, a FuncExpr, a callable) once; every
layer takes its functions through it.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from . import lixnum
from .lixnum import DomainError, LIReal
from .xihier import HIER

__all__ = [
    "FuncExpr",
    "Var",
    "Const",
    "NamedConst",
    "Neg",
    "Binary",
    "Call",
    "Compose",
    "ParseError",
    "EvalError",
    "PrecisionError",
    "parse",
    "to_text",
    "evaluate",
    "compile_expr",
    "differentiate",
    "invert",
    "affine_step",
    "Fn",
    "invert_at",
]

Value = Union[float, Fraction, LIReal]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, expected=()):
        super().__init__(f"{message} at position {pos}" + (f" (expected {', '.join(sorted(expected))})" if expected else ""))
        self.pos = pos
        self.expected = frozenset(expected)


class EvalError(ValueError):
    pass


class PrecisionError(EvalError):
    """The requested operation is meaningless at the argument's scale."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class NamedConst:
    name: str  # 'e' or 'pi'


@dataclass(frozen=True)
class Neg:
    arg: "FuncExpr"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "FuncExpr"
    param: Optional[int] = None  # the k of log_k / xi_k / dxi_k


@dataclass(frozen=True)
class Compose:
    outer: "FuncExpr"
    inner: "FuncExpr"


FuncExpr = Union[Var, Const, NamedConst, Neg, Binary, Call, Compose]

_NODE_TYPES = (Var, Const, NamedConst, Neg, Binary, Call, Compose)

# the leaves every parse shares
_X = Var()
_NAMED = {"e": NamedConst("e"), "pi": NamedConst("pi")}


# ---------------------------------------------------------------------------
# Parsing

# how tightly each operator binds, @ loosest: the parser and to_text read it
_PREC = {"@": 0, "+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()@,]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()  # the blanks _TOKEN_RE would skip
            if rest == "":
                break
            pos = len(text) - len(rest)
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        num, name, sym = m.groups()
        if num is not None:
            tokens.append(("num", num, m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        else:
            tokens.append(("sym", sym, m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        # node(key, n) is n, or the equal node this parse built before:
        # key is n's class and fields, a child by its id, which stands for
        # its structure since every child is such a node too.  So a subtree
        # that occurs twice is one object, and compile_expr evaluates it
        # once a point
        self.node = {}.setdefault

    def peek(self):
        # its text alone tells a symbol token: no number, name or end of
        # input has the text of one
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        kind, val, pos = self.peek()
        if kind != "sym" or val != sym:
            raise ParseError(f"got {val!r}", pos, expected={sym})
        return self.next()

    def parse(self) -> FuncExpr:
        e = self.binary(0)
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos, expected={"end of input"})
        return e

    def binary(self, level: int) -> FuncExpr:
        # _PREC level 0 (@), 1 (+ -) or 2 (* /), left associative; a name
        # token "neg" or "atom" reads 3 or 5, no level, so atom takes it
        e = self.unary() if level == 2 else self.binary(level + 1)
        while _PREC.get(self.peek()[1]) == level:
            op = self.next()[1]
            r = self.unary() if level == 2 else self.binary(level + 1)
            if op == "@":
                e = self.node((Compose, id(e), id(r)), Compose(e, r))
            else:
                e = self.node((Binary, op, id(e), id(r)), Binary(op, e, r))
        return e

    def unary(self) -> FuncExpr:
        if self.peek()[1] == "-":
            self.next()
            a = self.unary()
            return self.node((Neg, id(a)), Neg(a))
        base = self.atom()  # then its '^' exponent: right associative, tighter than '-'
        if self.peek()[1] != "^":
            return base
        self.next()
        p = self.unary()
        return self.node((Binary, "^", id(base), id(p)), Binary("^", base, p))

    def atom(self) -> FuncExpr:
        kind, val, pos = self.next()
        if kind == "num":
            c = float(val)
            if c == math.inf:
                raise ParseError(f"number {val!r} is past the float range", pos)
            return self.node((Const, c), Const(c))
        if kind == "name":
            if self.peek()[1] == "(":
                self.next()
                arg = self.binary(0)
                self.expect_sym(")")
                return self._call(val, arg, pos)
            if val == "x":
                return _X
            if val in ("e", "pi"):
                return _NAMED[val]
            raise ParseError(f"unknown identifier {val!r}", pos, expected={"x", "e", "pi", "function call"})
        if kind == "sym" and val == "(":
            e = self.binary(0)
            self.expect_sym(")")
            return e
        raise ParseError(f"got {val!r}", pos, expected={"number", "identifier", "("})

    def _call(self, name: str, arg: FuncExpr, pos: int) -> FuncExpr:
        if name in _FUNCS and not name.endswith("_k"):
            return self.node((Call, name, id(arg)), Call(name, arg))
        base, _, k = name.rpartition("_")
        fn = base + "_k"
        if k.isdigit() and fn in _FUNCS:  # log_2: a _k row at level 2
            k = int(k)
            return self.node((Call, fn, id(arg), k), Call(fn, arg, param=k))
        raise ParseError(f"unknown function {name!r}", pos,
                         expected={n for n in _FUNCS if not n.endswith("_k")})


# texts parse has read, each to its tree, oldest first; a tree is immutable
# and so can be handed to every caller of its text
_PARSE_CAP = 512
_parsed: dict = {}


def parse(text: str) -> FuncExpr:
    """The tree of an expression text (see the module docstring's grammar).

    Equal subtrees within one text are one object.  The last _PARSE_CAP
    texts parsed are kept with their trees, so a text parsed again gets
    back the same tree object, with no second read; a new text past the
    cap drops the oldest.  A text that fails to parse is not kept, and
    raises the same ParseError each time.
    """
    e = _parsed.get(text)
    if e is None:
        try:
            e = _Parser(text).parse()
        except RecursionError:
            raise ParseError("expression nested too deeply", 0) from None
        if len(_parsed) >= _PARSE_CAP:
            del _parsed[next(iter(_parsed))]
        _parsed[text] = e
    return e


# ---------------------------------------------------------------------------
# Printing (structure-preserving: parse(to_text(e)) == e)

def _prec(e: FuncExpr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    if isinstance(e, Compose):
        return _PREC["@"]
    return _PREC["atom"]


def _child(e: FuncExpr, parent_prec: int, strict: bool) -> str:
    s = to_text(e)
    p = _prec(e)
    if p < parent_prec or (strict and p == parent_prec):
        return f"({s})"
    return s


def to_text(e: FuncExpr) -> str:
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Const):
        if e.value == int(e.value) and abs(e.value) < 1e15:
            return str(int(e.value))
        return repr(e.value)
    if isinstance(e, NamedConst):
        return e.name
    if isinstance(e, Neg):
        return "-" + _child(e.arg, _PREC["neg"], strict=False)
    if isinstance(e, Binary):
        p = _PREC[e.op]
        if e.op == "^":
            # right-assoc; left operand must bind tighter than ^
            return _child(e.left, p, strict=True) + "^" + _child(e.right, p, strict=False)
        return _child(e.left, p, strict=False) + e.op + _child(e.right, p, strict=True)
    if isinstance(e, Call):  # a _k name prints with its level: log_2(u)
        name = e.fn if e.param is None else f"{e.fn[:-2]}_{e.param}"
        return f"{name}({to_text(e.arg)})"
    if isinstance(e, Compose):
        p = _PREC["@"]
        return _child(e.outer, p, strict=False) + " @ " + _child(e.inner, p, strict=True)
    raise TypeError(f"not a FuncExpr: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation


_INF = math.inf


def _exp(v: Value) -> Value:
    if isinstance(v, LIReal):
        return lixnum.exp_li(v)
    try:
        x = float(v)
    except OverflowError:  # an int or Fraction past the float range
        return lixnum.exp_li(lixnum.to_li(v)) if v > 0 else 0.0
    try:
        r = math.exp(x)
    except OverflowError:
        r = math.inf
    if math.isinf(r):
        # promote instead of overflowing; x > 0 here necessarily
        return lixnum.exp_li(lixnum.to_li(x))
    return r


def _log(v: Value) -> Value:
    if isinstance(v, LIReal):
        return lixnum.ln_li(v)
    try:
        if type(v) is Fraction:
            # on the integers p/q (q > 0, in lowest terms), each float one
            # correctly rounded division, as float() of a Fraction is
            p, q = v.numerator, v.denominator
            if q < 2 * p < 4 * q:
                # 1/2 < v < 2: keep precision when v is a hair away from 1
                return math.log1p((p - q) / q)
            x = p / q
        else:
            x = float(v)
    except OverflowError:
        # an int or Fraction past the float range: the log to_li takes of it
        if v > 0:
            return math.log(v.numerator) - math.log(v.denominator)
        x = -_INF
    if x <= 0:
        raise EvalError(f"log of non-positive value {x!r}")
    return math.log(x)


def _pow(b: Value, p: Value) -> Value:
    tower = isinstance(b, LIReal) or isinstance(p, LIReal)
    if not tower:
        try:
            bf, pf = float(b), float(p)
        except OverflowError:  # an int or Fraction past the float range
            tower = True
    if tower:
        bl = lixnum.to_li(b)
        if bl.level == 0 and bl.mantissa == 0.0:
            if p < 0:
                raise EvalError(f"zero to the negative power {p!r}")
            return lixnum.exp_li(bl) if p <= 0 else bl  # 0^0 = e^0 = 1
        return lixnum.exp_li(lixnum.mul(lixnum.ln_li(bl), lixnum.to_li(p)))
    if bf == 0.0 and pf < 0.0:
        raise EvalError(f"zero to the negative power {pf!r}")
    try:
        r = bf ** pf
    except OverflowError:
        r = math.inf
    if isinstance(r, complex) or (math.isinf(r) and bf < 0 and not pf.is_integer()):
        raise EvalError(f"complex power {bf!r} ** {pf!r}")
    if math.isinf(r) and bf < 0:
        # an even power promotes through |b|; an odd one is negative, and a tower has no sign
        if pf % 2:
            raise DomainError(f"negative tower power {bf!r} ^ {pf!r}: a tower has no sign")
        bf = -bf
    if math.isinf(r) and bf > 0:
        # exp(p log b), the product promoted as _binary does; not through
        # _exp, as math.exp(1024 * log 2) is finite where 2.0 ** 1024 is not
        return lixnum.exp_li(lixnum.to_li(_binary("*", pf, math.log(bf))))
    return r


def _truediv(a, b):
    if b == 0:
        raise EvalError("division by zero")
    return a / b


# each operator once: its float/Fraction operation and its lixnum function
_OPS = {"+": (operator.add, lixnum.add), "-": (operator.sub, lixnum.sub),
        "*": (operator.mul, lixnum.mul), "/": (_truediv, lixnum.div)}


def _binary(op: str, a: Value, b: Value) -> Value:
    """a op b for + - * / where the compiled float fast path does not apply."""
    num, li = _OPS[op]
    if isinstance(a, LIReal) or isinstance(b, LIReal):
        return li(lixnum.to_li(a), lixnum.to_li(b))
    a_exact, b_exact = isinstance(a, Fraction), isinstance(b, Fraction)
    if a_exact != b_exact:
        # keep rational arithmetic exact; super-logarithm values can hold
        # integers far past the float range
        try:
            if a_exact:
                b = Fraction(b)
            else:
                a = Fraction(a)
        except (ValueError, OverflowError):
            pass
    r = num(a, b)
    if (op in "*/" and type(a) is float and type(b) is float and abs(r) == _INF
            and abs(a) < _INF and abs(b) < _INF):
        # a float product or quotient past the range (_pow's p log b among
        # them) promotes through the operands' magnitudes; a tower has no sign
        if r < 0.0:
            name = "product" if op == "*" else "quotient"
            raise DomainError(f"negative tower {name} {a!r} {op} {b!r}: "
                              "a tower has no sign")
        return li(lixnum.to_li(abs(a)), lixnum.to_li(abs(b)))
    return r


_NUMDIFF_STEP = 1e-5


def _numdiff(f, x: float) -> float:
    h = _NUMDIFF_STEP * max(1.0, abs(x))
    return (float(f(x + h)) - float(f(x - h))) / (2 * h)


# past ln(max float / min subnormal) = 1453.6, x * m^k has no float value
_LOG_FLOAT_SPAN = 1500.0


def _times_power(x: float, m: float, k: int) -> float:
    """x * m^k, splitting k while m^k alone would leave the normal float
    range; inf or 0.0 once |k log m| rules out a float product."""
    e = k * math.log(m)
    if abs(e) > _LOG_FLOAT_SPAN:
        return math.inf if e > 0 else 0.0
    if abs(e) > 700.0:
        h = k // 2
        return _times_power(_times_power(x, m, h), m, k - h)
    return x * m ** k


def _log_k(k: int, v: Value) -> Value:
    for _ in range(k):
        v = _log(v)
    return v


def _sqrt(k, v: Value) -> Value:
    try:
        vf = v if isinstance(v, LIReal) else float(v)
    except OverflowError:  # an int or Fraction past the float range
        vf = lixnum.to_li(v) if v > 0 else -_INF
    if isinstance(vf, LIReal):
        return _pow(vf, 0.5)
    if vf < 0:
        raise EvalError(f"sqrt of negative value {vf!r}")
    return math.sqrt(vf)


def _sin(k, v: Value) -> Value:
    try:
        return math.sin(float(v))
    except (DomainError, OverflowError) as exc:  # a tower, or past the float range
        raise PrecisionError(f"sin needs a float argument ({exc}): "
                             "argument reduction is meaningless") from None


def _abs(k, v: Value) -> Value:
    if isinstance(v, LIReal):
        if v.level == -1:
            return lixnum.to_li(-float(v))
        return v
    return abs(v)


def _binary_node(op: str, a, b):
    """The closure for a op b; an overflow leaves the float fast path and
    promotes in _binary or _pow."""
    if op == "+":
        def node(x):
            u, v = a(x), b(x)
            if type(u) is float and type(v) is float:
                return u + v
            return _binary("+", u, v)
    elif op == "-":
        def node(x):
            u, v = a(x), b(x)
            if type(u) is float and type(v) is float:
                return u - v
            return _binary("-", u, v)
    elif op == "*":
        def node(x):
            u, v = a(x), b(x)
            if type(u) is float and type(v) is float:
                r = u * v
                if -_INF < r < _INF:
                    return r
            return _binary("*", u, v)
    elif op == "/":
        def node(x):
            u, v = a(x), b(x)
            if type(u) is float and type(v) is float and v != 0.0:
                r = u / v
                if -_INF < r < _INF:
                    return r
            return _binary("/", u, v)
    else:
        def node(x):
            u, p = a(x), b(x)
            if type(u) is float and type(p) is float and u > 0.0:
                try:
                    r = u ** p
                except OverflowError:
                    r = _INF
                if r < _INF:
                    return r
            return _pow(u, p)
    return node


def _sum_chain(expr: Binary, memo: dict, shared: set):
    """A left-deep chain t0 ± t1 ± ... ± tn as one loop over its terms,
    combined left to right as the nested nodes would be."""
    terms = []
    while isinstance(expr, Binary) and expr.op in "+-":
        terms.append((expr.op, _compile(expr.right, memo, shared)))
        expr = expr.left
    terms.reverse()
    first = _compile(expr, memo, shared)

    def total(x):
        acc = first(x)
        for op, term in terms:
            v = term(x)
            if type(acc) is float and type(v) is float:
                acc = acc + v if op == "+" else acc - v
            else:
                acc = _binary(op, acc, v)
        return acc
    return total


def _slotted(f):
    """f with one (argument, value) slot: called again with the argument
    of its last call, that same object, it returns the last value."""
    slot = (_slotted, None)  # matches no argument

    def shared(x):
        nonlocal slot
        arg, v = slot
        if arg is x:
            return v
        v = f(x)
        slot = (x, v)  # one store: a reader sees an argument with its value
        return v
    return shared


def compile_expr(expr: FuncExpr) -> Callable[[Value], Value]:
    """expr as a function of x: nested closures, one per node.

    Each closure takes a float fast path for + - * /, ^, unary minus and
    the calls whose _FUNCS row has one (sqrt, log and exp), and otherwise
    falls back to _binary, _pow and the value function of the call's row
    (looked up once a node, while compiling),
    so Fractions, towers, overflow promotion and errors are the same on
    both paths.  A left-deep chain of + and - is one loop, so a long flat
    sum needs no recursion.  Compile an expression once and
    call the result at every point.

    A non-leaf subtree that occurs more than once, as one object (parse
    makes equal subtrees one object), is one closure with one (argument,
    value) slot: at one point it is evaluated once, and its other
    occurrences read the slot.  The slot lives as long as the compiled
    function.  The values, exceptions and messages are those of evaluating
    every occurrence, since a subtree's value depends on its argument
    only and an exception ends the whole evaluation.  Repeats are found
    while compiling; only an expression that has one is compiled twice.
    """
    shared: set = set()
    f = _compile(expr, {}, shared)
    return _compile(expr, {}, shared) if shared else f


def _identity(x):
    return x


def _compile(expr: FuncExpr, memo: dict, shared: set) -> Callable[[Value], Value]:
    # recursion stays off the public name: one compile is one compile_expr
    # call, and a tracer that wraps public functions wraps no node.  memo
    # maps the id of each non-leaf node compiled so far to its closure; a
    # node met again joins shared, and on the second pass each node in
    # shared is slotted
    t = type(expr)
    if t is Var:
        return _identity
    if t is Const or t is NamedConst:
        c = expr.value if t is Const else math.e if expr.name == "e" else math.pi
        return lambda x: c
    key = id(expr)
    if key in memo:
        shared.add(key)
        return memo[key]
    if t is Binary:
        if expr.op in "+-" and isinstance(expr.left, Binary) and expr.left.op in "+-":
            f = _sum_chain(expr, memo, shared)
        else:
            f = _binary_node(expr.op, _compile(expr.left, memo, shared),
                             _compile(expr.right, memo, shared))
    elif t is Call:
        arg, row = _compile(expr.arg, memo, shared), _FUNCS.get(expr.fn)
        if row is None:  # a hand-built name: an error when evaluated, not now
            row = _Func(_raises(f"unknown function {expr.fn!r}"), None, None, None, None)
        value, k = row.value, row.level or expr.param
        if row.fast is None:
            f = lambda x: value(k, arg(x))  # noqa: E731
        else:
            fn, lo, hi = row.fast

            def f(x):
                v = arg(x)
                if type(v) is float and lo < v < hi:
                    return fn(v)
                return value(k, v)
    elif t is Neg:
        arg = _compile(expr.arg, memo, shared)

        def f(x):
            v = arg(x)
            return lixnum.neg(v) if isinstance(v, LIReal) else -v
    elif t is Compose:
        outer, inner = _compile(expr.outer, memo, shared), _compile(expr.inner, memo, shared)
        f = lambda x: outer(inner(x))  # noqa: E731
    else:
        raise TypeError(f"not a FuncExpr: {expr!r}")
    if key in shared:
        f = _slotted(f)
    memo[key] = f
    return f


def evaluate(expr: FuncExpr, x: Value) -> Value:
    """expr at x, compiled for this one call; see compile_expr."""
    return compile_expr(expr)(x)


# ---------------------------------------------------------------------------
# Differentiation

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _c(e: FuncExpr):
    if isinstance(e, Const):
        return e.value
    return None


def _add(a, b):
    if _c(a) == 0:
        return b
    if _c(b) == 0:
        return a
    if _c(a) is not None and _c(b) is not None:
        return Const(_c(a) + _c(b))
    return Binary("+", a, b)


def _sub(a, b):
    if _c(b) == 0:
        return a
    if _c(a) is not None and _c(b) is not None:
        return Const(_c(a) - _c(b))
    return Binary("-", a, b)


def _mul(a, b):
    if _c(a) == 0 or _c(b) == 0:
        return _ZERO
    if _c(a) == 1:
        return b
    if _c(b) == 1:
        return a
    if _c(a) is not None and _c(b) is not None:
        return Const(_c(a) * _c(b))
    return Binary("*", a, b)


def _div(a, b):
    if _c(a) == 0:
        return _ZERO
    if _c(b) == 1:
        return a
    return Binary("/", a, b)


# ---------------------------------------------------------------------------
# The function table


def _dlog(e: Call, k: int, du: FuncExpr) -> FuncExpr:
    # 1 / (u * log u * ... * log_{k-1} u); log_0 is the identity
    denom = e.arg
    for j in range(1, k):
        denom = _mul(denom, Call("log_k", e.arg, param=j))
    return _div(du, denom) if k else du


def _raises(message: str):
    def raises(*args):
        raise EvalError(message)
    return raises


def _exp_k(k: int, acc: FuncExpr) -> FuncExpr:
    for _ in range(k):
        acc = Call("exp", acc)
    return acc


# a row of _FUNCS: value(k, v), the call at level k (the row's level, else
# the node's param) on its argument's value v; fast, (fn, lo, hi) with fn for
# floats strictly inside (lo, hi), or None; deriv(e, k, du), the call node e's
# derivative, du its argument's; inv(k, acc), the call undone on acc, or None
_Func = namedtuple("_Func", "value fast deriv inv level")

# each function name once.  HIER's methods are looked up at each call, so
# a tracer or a test that rebinds one is seen; exp stays finite below 709
_FUNCS = {
    "exp": _Func(lambda k, v: _exp(v), (math.exp, -_INF, 709.0),
                 lambda e, k, du: _mul(e, du), lambda k, acc: Call("log", acc), None),
    "log_k": _Func(_log_k, None, _dlog, _exp_k, None),
    "log": _Func(lambda k, v: _log(v), (math.log, 0.0, _INF), _dlog, _exp_k, 1),  # log_1 in one step
    "sqrt": _Func(_sqrt, (math.sqrt, 0.0, _INF),
                  lambda e, k, du: _div(du, _mul(Const(2.0), e)),
                  lambda k, acc: Binary("^", acc, Const(2.0)), None),
    # no cos node in the DSL; sin(pi/2 - u) is cos(u)
    "sin": _Func(_sin, None, lambda e, k, du: _mul(Call(
        "sin", _sub(_div(NamedConst("pi"), Const(2.0)), e.arg)), du), None, None),
    "abs": _Func(_abs, None, _raises("abs is not differentiable"), None, None),
    "xi_k": _Func(lambda k, v: HIER.xi_k(k, v), None,
                  lambda e, k, du: _mul(Call("dxi_k", e.arg, param=k), du), None, None),
    "chi": _Func(lambda k, v: HIER.chi(v), None,
                 lambda e, k, du: _mul(Call("dchi", e.arg), du), None, None),
    "dxi_k": _Func(lambda k, v: HIER._xi_k_deriv(k, float(v)), None, _raises(
        "dxi_k (a derivative node) cannot be differentiated again"), None, None),
    "dchi": _Func(lambda k, v: _numdiff(HIER.chi, float(v)), None, _raises(
        "dchi (a derivative node) cannot be differentiated again"), None, None),
}
_FUNCS["xi"] = _FUNCS["xi_k"]._replace(level=3)  # xi is xi_k at level 3


def differentiate(expr: FuncExpr) -> FuncExpr:
    """Symbolic derivative with respect to x; a call's by its _FUNCS row.

    xi and every xi_k differentiate to a dxi_k node (xi as k = 3), which
    reads xihier's exact derivative of that level, and chi to a dchi node,
    the one numeric derivative.  Neither node is differentiated again.
    """
    if isinstance(expr, Var):
        return _ONE
    if isinstance(expr, (Const, NamedConst)):
        return _ZERO
    if isinstance(expr, Neg):
        return Neg(differentiate(expr.arg))
    if isinstance(expr, Compose):
        return _mul(Compose(differentiate(expr.outer), expr.inner), differentiate(expr.inner))
    if isinstance(expr, Binary):
        u, v = expr.left, expr.right
        du, dv = differentiate(u), differentiate(v)
        if expr.op == "+":
            return _add(du, dv)
        if expr.op == "-":
            return _sub(du, dv)
        if expr.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if expr.op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), Binary("^", v, Const(2.0)))
        if expr.op == "^":
            c = _c(v)
            if c is not None:
                # d(u^c) = c * u^(c-1) * u'
                return _mul(_mul(Const(c), Binary("^", u, Const(c - 1.0))), du)
            # general: u^v = exp(v log u)
            inner = _add(_mul(dv, Call("log", u)), _mul(v, _div(du, u)))
            return _mul(expr, inner)
    if isinstance(expr, Call):
        du, row = differentiate(expr.arg), _FUNCS.get(expr.fn)
        if row is not None:
            return row.deriv(expr, row.level or expr.param, du)
    raise TypeError(f"not a FuncExpr: {expr!r}")


# ---------------------------------------------------------------------------
# Symbolic inversion


def _has_x(e: FuncExpr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, Neg):
        return _has_x(e.arg)
    if isinstance(e, Binary):
        return _has_x(e.left) or _has_x(e.right)
    if isinstance(e, Call):
        return _has_x(e.arg)
    if isinstance(e, Compose):
        return _has_x(e.outer) and _has_x(e.inner)
    return False


def _const_value(e: FuncExpr) -> Optional[float]:
    """The finite float value of a subtree without x, or None; also None
    for a tower, which the compiled map keeps as one."""
    try:
        v = e.value if isinstance(e, Const) else evaluate(e, 0.0)
        c = float(v)
    except (ValueError, ArithmeticError):
        return None
    return c if math.isfinite(c) and not isinstance(v, LIReal) else None


def _invert_into(e: FuncExpr, acc: FuncExpr) -> Optional[FuncExpr]:
    """e^-1 applied to acc, undoing e's outermost operation first."""
    while not isinstance(e, Var):
        if isinstance(e, Compose):
            acc = _invert_into(e.outer, acc)
            if acc is None:
                return None
            e = e.inner
        elif isinstance(e, Binary):
            left_x = _has_x(e.left)
            if left_x == _has_x(e.right):
                return None
            arg, c = (e.left, _const_value(e.right)) if left_x else (e.right, _const_value(e.left))
            if c is None:
                return None
            if e.op == "+":
                acc = _sub(acc, Const(c))
            elif e.op == "-" and left_x:
                acc = _add(acc, Const(c))
            elif e.op == "*" and c > 0:
                acc = _div(acc, Const(c))
            elif e.op == "/" and left_x and c > 0:
                acc = _mul(acc, Const(c))
            elif e.op == "^" and left_x and c > 0 and not (c.is_integer() and c % 2 == 1):
                # an odd power also increases on x < 0, where y^(1/c) is undefined
                acc = Binary("^", acc, Const(1.0 / c))
            elif e.op == "^" and not left_x and c > 1:
                acc = _div(Call("log", acc), Call("log", Const(c)))
            else:
                return None  # c - x, c / x, a decreasing factor or base
            e = arg
        else:
            row = _FUNCS.get(e.fn) if isinstance(e, Call) else None
            if row is None or row.inv is None:
                return None
            acc, e = row.inv(row.level or e.param, acc), e.arg
    return acc


def invert(expr: FuncExpr) -> Optional[FuncExpr]:
    """The exact inverse of an increasing expression, or None.

    Covers x, x+c, x-c, c+x, c*x, x*c, x/c (c > 0), x^c (c > 0, not an
    odd integer), c^x (c > 1), the calls whose _FUNCS row has an inverse
    rule (exp, log, log_k, sqrt), and their nesting and @ composition,
    where c is any subtree without x, evaluated once.  Everything else (x
    in two places, sin, xi, a decreasing map, x^3, ...) gives None.
    """
    return _invert_into(expr, Var())


def affine_step(expr: FuncExpr) -> Optional[tuple]:
    """The unit step of a translation or a scaling, or None.

    For x+c, c+x, x-c, c*x, x*c or x/c, read off invert: an inverse x-d or
    x+d gives ("+", d) or ("+", -d), f(x) = x + d; x/m or x*m gives ("*", m)
    or ("*", 1/m), f(x) = m*x.  Then f^k(x) is x + k*d or x * m^k for every
    integer k.  An identity map gives None: its inverse simplifies to x.
    """
    inv = invert(expr) if isinstance(expr, Binary) and _X in (expr.left, expr.right) else None
    if isinstance(inv, Binary) and inv.left == _X and isinstance(inv.right, Const):
        d = inv.right.value
        return {"-": ("+", d), "+": ("+", -d), "/": ("*", d), "*": ("*", 1.0 / d)}.get(inv.op)
    return None


# ---------------------------------------------------------------------------
# Function specs

_DERIVE = object()  # Fn._inverse before the inverse is derived


class Fn:
    """A function spec resolved once: expression text, a FuncExpr, a
    callable, or another Fn: Fn(fn) is fn itself, so what it derives stays
    on it; given a text or an inverse too, a copy of fn's fields.

    raw(x) returns raw values: floats, Fractions or level-index numbers.
    float(x) returns floats: a value past the float range is inf or -inf
    by its sign (ln 0 is -inf), as they only ever feed comparisons.  Both
    are closures stored on the instance, not methods: perfbench's tracer
    wraps public methods, and a wrapper on every per-point call would move
    its per-layer counters.
    An expression is compiled (compile_expr) once, when the Fn is built.
    A text is parsed through parse, so Fns built from one text share one
    tree, the one parse keeps; each still compiles its own closures, and
    derives its own inverse and derivative.
    text is the given text, else the expression text, else None; expr is
    the FuncExpr, or None for a callable.  inverse and derivative are
    derived on first use.
    """

    def __new__(cls, spec, text: Optional[str] = None, inverse=None):
        # __init__ then copies fn's fields onto fn itself, which is no change
        same = isinstance(spec, Fn) and text is None and inverse is None
        return spec if same else object.__new__(cls)

    def __init__(self, spec, text: Optional[str] = None, inverse=None):
        if isinstance(spec, Fn):
            self.__dict__.update(spec.__dict__)
        else:
            if isinstance(spec, str):
                expr, self.text = parse(spec), spec
            elif isinstance(spec, _NODE_TYPES):
                expr, self.text = spec, to_text(spec)
            elif callable(spec):
                expr, self.text = None, None
            else:
                raise TypeError(f"not a function spec: {spec!r}")
            # no closure refers to self or to itself (an unused Fn needs no
            # cyclic collection); copies share the closures and one compile
            raw = spec if expr is None else compile_expr(expr)

            def flt(x):
                v = raw(x)
                try:
                    return float(v)
                except (DomainError, OverflowError):
                    return math.inf if v > 0 else -math.inf

            self.expr, self.raw, self.float = expr, raw, flt
            self._inverse, self._derivative = _DERIVE, None
        if text is not None:
            self.text = text
        if inverse is not None:
            self._inverse = Fn(inverse)

    def __call__(self, x):
        return self.raw(x)

    @property
    def inverse(self) -> Optional["Fn"]:
        """The given inverse, else the exact inverse invert() derives from
        the expression, else None."""
        if self._inverse is _DERIVE:
            inv = None if self.expr is None else invert(self.expr)
            self._inverse = None if inv is None else Fn(inv)
        return self._inverse

    @property
    def derivative(self) -> Callable[[float], float]:
        """f' as a float function: the symbolic derivative of the expression
        (EvalError where there is none), a central difference of a callable."""
        if self._derivative is None:
            if self.expr is None:
                raw = self.raw
                self._derivative = lambda x: _numdiff(raw, x)
            else:
                d = compile_expr(differentiate(self.expr))
                self._derivative = lambda x: float(d(x))
        return self._derivative


# ---------------------------------------------------------------------------
# Numeric inversion

_INVERT_RTOL = 1e-12
_MAX_EXPANSIONS = 200


_NEWTON_STEPS = 8
_NEWTON_ULPS = 4


def _newton_narrow(fn, fp, y: float, lo: float, hi: float, flo: float, fhi: float):
    """Narrow the bisection bracket [lo, hi] for fn(x) = y by safeguarded
    Newton steps on the derivative fp; flo and fhi are fn at the ends.

    Newton starts at the end of the bracket nearer to y, where a pullback
    step starts, and a step is taken only if it lands strictly inside the
    bracket.  Each point it lands on moves lo (fn < y) or hi (fn >= y), the
    same sign test the bisection uses, so the bisection on the narrowed
    bracket ends on the same adjacent floats.  An exception from fp, or an
    f' that is non-finite or <= 0, ends the Newton phase.  Once a step
    moves no more than a few ulps, probes at 1, 4, 16, ... ulps outward
    find the other side of the root.
    """
    x, fx = (lo, flo) if abs(lo - y) < abs(hi - y) else (hi, fhi)
    for _ in range(_NEWTON_STEPS):
        try:
            d = fp(x)
        except (ValueError, ArithmeticError):
            return lo, hi
        if not 0.0 < d < math.inf:
            return lo, hi
        nx = x - (fx - y) / d
        if nx == x:
            break
        if not lo < nx < hi:
            return lo, hi
        done = abs(nx - x) <= _NEWTON_ULPS * math.ulp(x)
        x, fx = nx, fn(nx)
        if fx < y:
            lo = x
        else:
            hi = x
        if done:
            break
    else:
        return lo, hi
    up = fx < y
    k = math.ulp(x)
    while True:
        t = x + k if up else x - k
        if not lo < t < hi:
            return lo, hi
        if fn(t) < y:
            lo = t
            if not up:
                return lo, hi
        else:
            hi = t
            if up:
                return lo, hi
        k *= 4


def _bisect(fn, y: float, lo: float, hi: float, fp=None) -> float:
    """Solve fn(x) = y for an increasing fn, starting from [lo, hi]; returns
    the midpoint of the last bracket of the bisection to adjacent floats.

    This is the library's one root finder.  A start bracket that does not
    straddle y is widened first: hi steps up while fn(hi) < y, and lo steps
    down while fn(lo) >= y.  A positive lo steps through 0 only where fn is
    defined and lower there; otherwise it is quartered, so log and sqrt
    domains are kept.  EvalError if no bracket is found after
    _MAX_EXPANSIONS widenings.

    Only the sign of fn(x) - y is used, so fn may overflow to inf inside
    the bracket.  The midpoint is geometric while the bracket spans more
    than a factor of 4 above 0, so brackets over hundreds of orders of
    magnitude close in a few dozen steps; sqrt(lo) * sqrt(hi) cannot
    overflow where sqrt(lo * hi) would.  With the derivative fp, Newton
    steps narrow the bracket first (_newton_narrow).  For an fn monotone in
    floats the answer is the same bit for bit whatever the start bracket
    and whether fp is given.
    """
    flo, fhi = fn(lo), fn(hi)
    for _ in range(_MAX_EXPANSIONS):
        if fhi < y:
            lo, flo, hi = hi, fhi, hi + 2 * max(hi - lo, abs(hi), 1.0)
            fhi = fn(hi)
        elif flo >= y:
            hi, fhi, lo = lo, flo, lo - 2 * max(hi - lo, abs(lo), 1.0)
            if hi > 0:
                # through 0 only where fn is defined and lower, else quarter
                try:
                    flo = fn(lo)
                except (ValueError, ArithmeticError):
                    flo = math.nan
                if not flo < fhi:
                    lo, flo = hi / 4, fn(hi / 4)
            else:
                flo = fn(lo)
        else:
            break
    else:
        raise EvalError(f"could not bracket y={y!r} after {_MAX_EXPANSIONS} widenings")
    if fp is not None:
        lo, hi = _newton_narrow(fn, fp, y, lo, hi, flo, fhi)
    while True:
        if lo > 0 and hi / lo > 4.0:
            mid = math.sqrt(lo) * math.sqrt(hi)
        else:
            mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return 0.5 * (lo + hi)
        if fn(mid) < y:
            lo = mid
        else:
            hi = mid


def invert_at(spec, y: float, bracket_hint=None) -> float:
    """Solve f(x) == y for a strictly monotone function spec f.

    Fn(spec).inverse when there is one; otherwise _bisect on sign*f (sign
    -1 for a decreasing f) from bracket_hint (default [1, 2]), which
    _bisect widens as needed, narrowed by Newton steps on f' where the
    spec has one.  An Fn spec keeps what it derives here for the next call.
    EvalError if f(x) misses y by more than a relative 1e-12.
    """
    fn = Fn(spec)
    f = fn.float
    if fn.inverse is not None:
        x = float(fn.inverse.raw(y))
    else:
        a, b = sorted(map(float, bracket_hint or (1.0, 2.0)))
        sign = 1.0 if f(b) >= f(a) else -1.0
        try:
            d = fn.derivative
            fp = lambda t: sign * d(t)  # noqa: E731
        except EvalError:
            fp = None
        x = _bisect(lambda t: sign * f(t), sign * y, a, b, fp)
    fx = f(x)
    if abs(fx - y) <= _INVERT_RTOL * max(1.0, abs(y)):
        return x
    raise EvalError(f"inversion did not converge: f({x!r}) = {fx!r}, target {y!r}")
