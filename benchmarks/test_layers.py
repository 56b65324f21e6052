"""Per-layer timings (pytest-benchmark), one row per layer path.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py

Add --benchmark-disable to run each row once as a plain test.  The file
is outside the tier-1 testpaths, so the test suite does not collect it.
"""

import io
import json
import math
import operator
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from growthcalc import abel, acceptance, classify, cli, lixnum
from growthcalc.funcexpr import Fn, compile_expr, evaluate, parse
from growthcalc.lixnum import LIReal, parse_li
from growthcalc.orders import Ladder, order_of
from growthcalc.xihier import HIER

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"

# the r = 5 witness classify_expr("x+log(x)") self-checks: h = 1/log(f/x)
# at five sites
_H = "1/log((x+log(x))/x)"
R5_WITNESS = (f"{_H}*log(x)*log_2(x)*log_3(x)*log_4(x)/"
              f"(log({_H})*log_2({_H})*log_3({_H})*log_4({_H}))")


def test_parse(benchmark):
    benchmark(parse, "x+x/log(x)")


def test_evaluate_float(benchmark):
    e = parse("x+x/log(x)")
    assert benchmark(evaluate, e, 2.5) == 2.5 + 2.5 / math.log(2.5)


def test_evaluate_tower(benchmark):
    e, x = parse("x+x/log(x)"), parse_li("L5:0.5")
    assert benchmark(evaluate, e, x).level == 5


def test_float_power_past_the_range(benchmark):
    # the float power overflows: exp(p log b) promotes to a tower
    f = compile_expr(parse("x^2.5"))
    assert benchmark(f, 1e200) == LIReal(4, 0.6692820438836723)


def test_compile_small(benchmark):
    e = parse("x+sqrt(x)")
    assert benchmark(compile_expr, e)(4.0) == 6.0


def test_compile_witness(benchmark):
    e = parse(R5_WITNESS)
    benchmark(compile_expr, e)


def test_classify_inconclusive(benchmark):
    # the mu = 1 route's slowest answer: every witness self-check runs
    assert benchmark(classify.classify_expr, "x+log(x)").verdict == "inconclusive"


def test_classify_scaled_sqrt(benchmark):
    assert benchmark(classify.classify_expr, "x+2*sqrt(x)").verdict == "inconclusive"


def test_solve_abel(benchmark):
    sol = benchmark(abel.solve_abel, "x+sqrt(x)", 1.0)
    assert sol.domain_hi == 2.0


def test_solve_abel_scaling(benchmark):
    # funcexpr.affine_step reads the step off the inverse x/2.5
    sol = benchmark(abel.solve_abel, "2.5*x", 1.0)
    assert sol.affine == ("*", 2.5)


def test_abel_cubic_seed(benchmark):
    # the smooth C^1 seed: f'(A) by central difference, then the cubic's
    # inverse by bisection and a stepwise push through f
    def solve_and_invert():
        return abel.solve_abel("x^2", 2.0, seed_kind="smooth_c1").inverse(3.7)

    assert benchmark(solve_and_invert) == 8599.481195174716


def test_abel_eval_stepwise(benchmark):
    # no inverse and no affine step: each pullback step bisects f
    sol, x = abel.solve_abel("x+sqrt(x)", 2.0), 1e4
    F = benchmark(sol.eval, x)
    assert sol.eval(x + math.sqrt(x)) - F == pytest.approx(1.0, abs=1e-9)


def test_abel_eval_closed_form(benchmark):
    # a scaling: the step count is read off in closed form; the linear seed
    # on [1, 2] is y - 1
    sol = abel.solve_abel("2*x", 1.0)
    assert benchmark(sol.eval, 1e300) == pytest.approx(996 + 1e300 / 2 ** 996 - 1, abs=1e-9)


def test_fn_build(benchmark):
    # parse and the one compile
    assert benchmark(Fn, "x+sqrt(x)")(4.0) == 6.0


def test_cli_eval_in_process(benchmark):
    def eval_once():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["eval", "x^2+1", "--at", "3"])
        return code, out.getvalue()

    code, out = benchmark(eval_once)
    assert code == 0 and json.loads(out)["points"] == [{"x": 3.0, "value": 10.0}]


def test_acceptance_run_all(benchmark):
    reports = benchmark(acceptance.run_all)
    assert len(reports) == 11 and all(r["ok"] for r in reports)


def test_xi_exactness(benchmark):
    # criterion 1: 10^4 exact identities xi(exp v) - xi(v) = 1
    rep = benchmark(acceptance.check_xi_exactness)
    assert rep["ok"] and rep["detail"].startswith("0 failures out of 10000")


def test_catalog_chains(benchmark):
    # criterion 3: one catalog pass, each shared order estimate once
    rep = benchmark(acceptance.check_catalog_chains)
    assert rep["ok"] and rep["detail"].startswith("8 rows,")


def test_xi_4_of_a_rational(benchmark):
    # xi(x) of a catalog row is an exact Fraction; xi_4 tests it against
    # the domain bounds exactly before the pullback
    assert benchmark(HIER.xi_k, 4, Fraction(61, 2)) == 3.212716210917452


def test_separation_sandwich(benchmark):
    # criterion 10: 28 numeric inversions of x^2 and exp(x), then the bracket
    rep = benchmark(acceptance.check_separation_sandwich)
    assert rep["ok"] and rep["detail"] == (
        "ratio vs 2/sqrt(x): 2.22e-16; <=0.01 beyond 4e4: True; "
        "sandwich brackets e*x at every tower point: True")


def test_ack_oracle(benchmark):
    # criterion 5's brute-force recursion: A(3, 2) one unit step at a time
    assert benchmark(acceptance._ack_oracle, 3, 2) == 65534


def test_geometric_ladder(benchmark):
    # one of criterion 4's 1,000-point ladders, 2 to 1e150
    ratio = (1e150 / 2.0) ** (1.0 / 999)
    lad = benchmark(Ladder.geometric, 2.0, ratio, 1000)
    assert len(lad) == 1000 and lad[-1] == 1.0000000000000505e+150


def test_cli_table_in_process(benchmark):
    def table_once():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["table"])
        return code, out.getvalue()

    code, out = benchmark(table_once)
    assert code == 0 and out == (GOLDEN / "table.json").read_text()


def test_cli_props_xi_in_process(benchmark):
    # check_R's R0-R3 on F = xi, whose F' is xihier's dxi_3
    def props_once():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["props", "--F", "xi(x)"])
        return code, out.getvalue()

    code, out = benchmark(props_once)
    golden = json.loads((GOLDEN / "props.json").read_text())
    assert code == 0 and out == golden["--F xi(x)"]


def test_dxi_6_derivative(benchmark):
    # the chain rule along the pullback, against a central difference
    d, x = Fn("xi_6(x)").derivative, 1e3
    h = 1e-6 * x
    num = (HIER.xi_k(6, x + h) - HIER.xi_k(6, x - h)) / (2 * h)
    assert benchmark(d, x) == pytest.approx(num, rel=1e-6)


def test_lixnum_add_level_2(benchmark):
    a, b = LIReal(2, 0.5), LIReal(2, 0.25)
    assert float(benchmark(lixnum.add, a, b)) == float(a) + float(b)


def test_lixnum_sub_below_zero(benchmark):
    # e^e^0.25 - e^e^0.7 is about -3.88: a level -1 answer, ln of its mantissa
    a, b = LIReal(2, 0.25), LIReal(2, 0.7)
    w = benchmark(lixnum.sub, a, b)
    assert w.level == -1
    assert math.log(w.mantissa) == pytest.approx(
        math.exp(math.exp(0.25)) - math.exp(math.exp(0.7)), rel=1e-15)


def test_lixnum_div_towers_below_one(benchmark):
    # the log step subtracts ln b > ln a one level down: the quotient is
    # e^(e^e^e^0.5 - e^e^e^0.6), about e^-302, at level 0
    a, b = LIReal(4, 0.5), LIReal(4, 0.6)
    w = benchmark(lixnum.div, a, b)
    assert w.level == 0
    assert math.log(w.mantissa) == pytest.approx(
        math.exp(math.exp(math.exp(0.5))) - math.exp(math.exp(math.exp(0.6))), rel=1e-14)


def test_lixnum_mul_towers(benchmark):
    # the log step adds ln b = L3:0.3 (about 47) to ln a = L4:0.5 one level
    # down, where level 4 absorbs it: the product is L5:0.5, flagged
    w = benchmark(lixnum.mul, LIReal(5, 0.5), LIReal(4, 0.3))
    assert (w.level, w.mantissa, w.absorbed) == (5, 0.5, True)


def test_lixnum_neg(benchmark):
    # -e^e^0.25, one sub from zero: a level -1 answer
    w = benchmark(lixnum.neg, LIReal(2, 0.25))
    assert float(w) == -3.611146878218102


def test_lireal_lt_lireal(benchmark):
    assert benchmark(operator.lt, LIReal(5, 0.5), LIReal(5, 0.6)) is True


def test_lireal_lt_float(benchmark):
    # the float enters through to_li, as L2:0.0940...
    assert benchmark(operator.lt, LIReal(5, 0.5), 3.0) is False


def test_lixnum_xi_exact(benchmark):
    # level + mantissa as one Fraction, already in lowest terms
    m = 0.123456789
    t = benchmark(lixnum.xi_exact, LIReal(57, m))
    assert t == 57 + Fraction(m) and math.gcd(t.numerator, t.denominator) == 1


def test_lixnum_exp_li(benchmark):
    v = LIReal(57, 0.123456789, True)
    w = benchmark(lixnum.exp_li, v)
    assert (w.level, w.mantissa, w.absorbed) == (58, v.mantissa, True)


@pytest.mark.parametrize("x", [1e6, "L7:0.5"])
@pytest.mark.parametrize("k", [4, 5, 6])
def test_xi_k_high(benchmark, k, x):
    x = parse_li(x) if isinstance(x, str) else x
    # the Abel equation of the level below: xi_k(x) = xi_k(xi_{k-1}(x)) + 1
    want = float(HIER.xi_k(k, HIER.xi_k(k - 1, x))) + 1.0
    assert benchmark(HIER.xi_k, k, x) == want


def test_chi_tower(benchmark):
    x = parse_li("L30:0.5")
    chi = benchmark(HIER.chi, x)
    assert chi.level == 30 and chi >= x


@pytest.mark.parametrize("x", [1e10, 1e200])
def test_chi_float(benchmark, x):
    chi = benchmark(HIER.chi, x)
    with mpmath.workdps(50):  # x ln x ln ln x ... at 50 digits
        p = mpmath.mpf(x)
        t = mpmath.log(p)
        while t > 1:
            p *= t
            t = mpmath.log(t)
        assert type(chi) is float and abs(chi - p) <= 4 * 2.0 ** -52 * p


def test_order_of_tower_ladder(benchmark):
    est = benchmark(order_of, "xi(x)", "exp(x)", Ladder.tower(0.5, 30))
    assert est.converged and est.lambda_hat == 1.0


def test_verify_chain_catalog(benchmark):
    reports = benchmark(lambda: [classify.verify_chain(e) for e in classify.catalog()])
    assert all(r["ok"] for r in reports)


def test_classify_power(benchmark):
    # the mu > 1 route at depth n = 0: witness log_2(x)/log(2)
    rep = benchmark(classify.classify_expr, "x^2")
    assert (rep.verdict, rep.witness) == ("1", "log_2(x)/0.69314718056")


def test_regularized_F(benchmark):
    def solve_and_eval():
        sol = abel.solve_abel_regularized("log(x)", 2)
        return sol, sol.F(500.0)

    sol, F500 = benchmark(solve_and_eval)
    assert F500 - sol.F(math.log(500.0)) == pytest.approx(1.0, abs=1e-9)
