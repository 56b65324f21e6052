"""End-to-end verification: one test per acceptance criterion.

Each test prints a single PASS/FAIL line with the measured detail, so the
whole table is visible in the pytest output (run with -s or look at the
captured stdout of a failing test).
"""

import math

import pytest

from growthcalc import abel, acceptance, ackermann, classify, lixnum


@pytest.mark.parametrize("n", sorted(acceptance.CRITERIA))
def test_criterion(n):
    rep = acceptance.run_one(n)
    status = "PASS" if rep["ok"] else "FAIL"
    print(f"criterion {n:2d} {status}  {rep['name']}: {rep['detail']}")
    assert rep["ok"], f"criterion {n} ({rep['name']}): {rep['detail']}"


def test_catalog_criterion_counts_its_rows(monkeypatch):
    rows = classify.catalog()[:7]
    monkeypatch.setattr(classify, "catalog", lambda: rows)
    assert acceptance.check_catalog_chains()["detail"].startswith("7 rows,")


@pytest.mark.parametrize("attr,mutant", [
    ("scaled_xi_increment", lambda a, x: 0.5),
    ("scaled_xi_increment", lambda a, x: 2.0),
    ("inverse_derivative_ratio", lambda f, g, x: 2.0 / math.sqrt(x) * (1 + 1e-9)),
], ids=["increment-at-lower-shift", "increment-at-upper-shift", "ratio-off-by-1e-9"])
def test_separation_criterion_can_fail(monkeypatch, attr, mutant):
    # the sandwich bracket is strict at both shifts, and the ratio is held
    # to 2/sqrt(x) within 1e-12
    monkeypatch.setattr(classify, attr, mutant)
    assert not acceptance.run_one(10)["ok"]


class _ShortLinearSeed(abel.TableSeed):
    """The linear seed with its upper knot 1e-6 short of a gain of 1."""

    def __init__(self, knots):
        (x0, y0), (x1, y1) = knots
        super().__init__([(x0, y0), (x1, y1 - 1e-6)])


def _scaled(method):
    return lambda self, v: method(self, v) * (1.0 + 1e-9)


@pytest.mark.parametrize("target,mutant", [
    ("growthcalc.abel.TableSeed", _ShortLinearSeed),
    ("growthcalc.abel.AbelSolution.inverse", _scaled(abel.AbelSolution.inverse)),
    ("growthcalc.abel.AbelSolution.eval", _scaled(abel.AbelSolution.eval)),
], ids=["seed-gains-1-minus-1e-6", "inverse-off-by-1e-9", "eval-off-by-1e-9"])
def test_abel_criterion_can_fail(monkeypatch, target, mutant):
    # no solve checks that a seed gains exactly 1 across its domain; the
    # residual and group-law bounds of criterion 4 must catch one that does not
    monkeypatch.setattr(target, mutant)
    assert not acceptance.run_one(4)["ok"]


@pytest.fixture
def fresh_ack_cache(monkeypatch):
    # a mutant's tower values must not outlive it in ack's cache
    monkeypatch.setattr(ackermann, "_A3", {0: 2})


def _one_level_high(iterate):
    # the height-65534 iterate behind A(4, 2) takes one step too many
    return lambda v, count: iterate(v, count + 1 if count > 6 else count)


@pytest.mark.parametrize("attr,mutant", [
    ("_LI_LN2", lixnum.to_li(0.7)),
    ("_a2_iterate", _one_level_high(ackermann._a2_iterate)),
], ids=["tower-step-times-0.7", "a4-2-one-level-high"])
def test_ackermann_criterion_can_fail(monkeypatch, fresh_ack_cache, attr, mutant):
    # the closed forms, G anchors and op_L anchors read no tower value; the
    # ln ln A(3, 4) identity must catch a wrong one
    monkeypatch.setattr(ackermann, attr, mutant)
    assert not acceptance.run_one(5)["ok"]


@pytest.mark.parametrize("lo,hi,count", [
    (1.0, 4000.0, 1000), (1.01, 1e12, 1000), (2.0, 1e150, 1000),
    (0.55, 700.0, 1000), (1.5, 40.0, 25), (1.0, 4000.0, 200),
    (1.0, 100.0, 40), (4.0, 65536.0, 60), (10.0, 1e6, 25),
])
def test_geomspace_is_the_plain_formula(lo, hi, count):
    # the sample points of criteria 4, 6, 9 and 10, bit for bit
    r = (hi / lo) ** (1.0 / (count - 1))
    assert list(acceptance._geomspace(lo, hi, count)) == [lo * r ** i for i in range(count)]
