"""Per-layer timings (pytest-benchmark), one row per layer path.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py

Add --benchmark-disable to run each row once as a plain test.  The file
is outside the tier-1 testpaths, so the test suite does not collect it.
"""

import math

from growthcalc import abel, classify
from growthcalc.funcexpr import compile_expr, evaluate, parse
from growthcalc.lixnum import parse_li

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
