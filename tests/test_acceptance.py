"""End-to-end verification: one test per acceptance criterion.

Each test prints a single PASS/FAIL line with the measured detail, so the
whole table is visible in the pytest output (run with -s or look at the
captured stdout of a failing test).
"""

import dataclasses
import math
from fractions import Fraction

import pytest

from growthcalc import abel, acceptance, ackermann, classify, lixnum, orders


@pytest.mark.parametrize("n", sorted(acceptance.CRITERIA))
def test_criterion(n):
    rep = acceptance.run_one(n)
    status = "PASS" if rep["ok"] else "FAIL"
    print(f"criterion {n:2d} {status}  {rep['name']}: {rep['detail']}")
    assert rep["ok"], f"criterion {n} ({rep['name']}): {rep['detail']}"


def _exp_li_mantissa_up(exp_li):
    def mutant(v):
        r = exp_li(v)
        return lixnum.LIReal(r.level, r.mantissa + 1e-9, r.absorbed)
    return mutant


def _xi_exact_high_levels_up(xi_exact):
    # 2^-80 is far below float resolution at level 50 and up, so a float
    # comparison of the two sides would not see it
    return lambda v: xi_exact(v) + (Fraction(1, 2 ** 80) if v.level >= 50 else 0)


@pytest.mark.parametrize("attr,mutant", [
    ("exp_li", _exp_li_mantissa_up(lixnum.exp_li)),
    ("xi_exact", _xi_exact_high_levels_up(lixnum.xi_exact)),
], ids=["exp-mantissa-plus-1e-9", "xi-plus-2^-80-from-level-50"])
def test_xi_exactness_criterion_can_fail(monkeypatch, attr, mutant):
    monkeypatch.setattr(lixnum, attr, mutant)
    assert not acceptance.run_one(1)["ok"]


def test_catalog_pass_matches_verify_chain():
    rows = classify.catalog()
    assert classify.verify_rows(rows) == [classify.verify_chain(e) for e in rows]


def test_catalog_criterion_estimates_each_shared_pair_once(monkeypatch):
    # 32 pairs over 8 rows, 18 of them distinct: the rows' chains end in
    # the same xi_4 -> xi_5 -> xi_6 tail
    calls = []
    order_of = classify.order_of

    def counting(F, f, ladder, tol):
        calls.append((F.text, f.text))
        return order_of(F, f, ladder, tol=tol)

    monkeypatch.setattr(classify, "order_of", counting)
    assert acceptance.check_catalog_chains()["ok"]
    assert len(calls) == 18 == len(set(calls))


def _per_row_detail(rows) -> str:
    """Criterion 3's detail as one verify_chain a row would build it."""
    fails, worst = [], 0.0
    for rep in (classify.verify_chain(e) for e in rows):
        for pair in rep["pairs"]:
            worst = max(worst, pair["tail_spread"])
            if not pair["ok"]:
                fails.append(f"{rep['name']}: O[{pair['F']}]({pair['f']}) = "
                             f"{pair['lambda_hat']:.6f}")
        if not rep["inverse_check"]["ok"]:
            fails.append(f"{rep['name']}: inverse check")
    return (f"{len(rows)} rows, worst tail spread {worst:.2e}"
            + (f"; failures: {fails}" if fails else ""))


def test_catalog_criterion_fails_every_row_of_a_shared_pair(monkeypatch):
    # a miss on O[xi_5](xi_4) over the 40-rung tower is named once for each
    # of the six rows that hold the pair
    order_check = classify._order_check

    def mutant(F, f, ladder, target, tol):
        got = order_check(F, f, ladder, target, tol)
        if (F.text, f.text) == ("xi_5(x)", "xi_4(x)") and ladder is classify._TOWER:
            got = {**got, "lambda_hat": target + 0.5, "ok": False}
        return got

    monkeypatch.setattr(classify, "_order_check", mutant)
    rep = acceptance.run_one(3)
    assert not rep["ok"]
    assert rep["detail"] == _per_row_detail(classify.catalog())
    named = [e.name for e in classify.catalog() if "xi_5(x)" in e.chain]
    assert len(named) == 6
    for name in named:
        assert f"'{name}: O[xi_5(x)](xi_4(x))" in rep["detail"]


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


def _check_R_altered(check_R, F_text, condition, change):
    """check_R with the report of one condition for one F replaced by
    dataclasses.replace(report, **change(report))."""
    def mutant(conditions, F, ladder):
        return [dataclasses.replace(r, **change(r)) if (F, r.condition) == (F_text, condition)
                else r for r in check_R(conditions, F, ladder)]
    return mutant


def _swap_two_tail_margins(r):
    # one step down in the middle of a rising sequence: R0 still fails and
    # its last margin is kept, so only the growth test can see it
    m = r.margins
    return {"margins": m[:10] + [m[11], m[10]] + m[12:]}


@pytest.mark.parametrize("F,condition,change,named", [
    ("xi(x)", "R3", lambda r: {"verdict": False}, "'xi(x) R3'"),
    ("log(x)^2", "R3", lambda r: {"verdict": False}, "'log^2 R3'"),
    ("log(x)^2", "R0", _swap_two_tail_margins, "'log^2 R0 should fail with growing margin'"),
], ids=["xi-R3-fails", "log2-R3-fails", "log2-R0-margins-not-growing"])
def test_regularity_criterion_can_fail(monkeypatch, F, condition, change, named):
    # each and-ed sub-check of criterion 7 on its own, named in the detail
    monkeypatch.setattr(orders, "check_R",
                        _check_R_altered(orders.check_R, F, condition, change))
    rep = acceptance.run_one(7)
    assert not rep["ok"]
    assert rep["detail"].endswith(f"; failures: [{named}]")


def _classify_altered(classify_expr, change, only=None):
    """classify_expr with its report replaced by
    dataclasses.replace(report, **change(report)), for one text or all."""
    def mutant(text):
        rep = classify_expr(text)
        return dataclasses.replace(rep, **change(rep)) if only in (None, text) else rep
    return mutant


@pytest.mark.parametrize("change,only,named", [
    (lambda rep: {"verdict": "1"}, "exp(x)", ["exp(x) -> 1 (witness ok: True)"]),
    (lambda rep: {"order_checks": [{**c, "ok": False} for c in rep.order_checks]}, None,
     [f"{t} -> {c} (witness ok: False)" for t, c in
      (("exp(x)", "2"), ("x^2", "1"), ("2*x", "1"), ("x+2", "0"))]),
], ids=["exp-answers-class-1", "no-witness-check-ok"])
def test_classifier_criterion_can_fail(monkeypatch, change, only, named):
    monkeypatch.setattr(classify, "classify_expr",
                        _classify_altered(classify.classify_expr, change, only))
    rep = acceptance.run_one(8)
    assert not rep["ok"]
    assert rep["detail"].endswith(f"; failures: {named}")


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
