"""End-to-end verification: one test per acceptance criterion.

Each test prints a single PASS/FAIL line with the measured detail, so the
whole table is visible in the pytest output (run with -s or look at the
captured stdout of a failing test).
"""

import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest

from growthcalc import abel, acceptance, ackermann, classify, funcexpr, lixnum, orders


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


@pytest.mark.parametrize("seed", [0, 1, 44, 20240817])
def test_level_draw_is_randint_s_stream(seed):
    # criterion 1 draws its levels with randrange(101), the one
    # _randbelow(101) draw that randint(0, 100) makes
    a, b = random.Random(seed), random.Random(seed)
    assert ([(a.randrange(101), a.random()) for _ in range(2000)]
            == [(b.randint(0, 100), b.random()) for _ in range(2000)])


def _figures(pattern, detail):
    """The figures of a criterion's detail: floats, and True/False as bools."""
    m = re.fullmatch(pattern, detail)
    assert m, detail
    return [g == "True" if g in ("True", "False") else float(g) for g in m.groups()]


def _xi_inv_mantissa_scaled(xi_inv_exact, factor, min_level):
    def mutant(t):
        v = xi_inv_exact(t)
        if v.level < min_level:
            return v
        return lixnum.LIReal(v.level, v.mantissa * factor, v.absorbed)
    return mutant


_HALF_EXP = (r"max rel err (\S+); phi\(phi\(1\)\) = e exactly in "
             r"xi-coordinates: (True|False)")


@pytest.mark.parametrize("factor,min_level,worst_ok,exact", [
    # a relative 1e-12 moves phi(phi(1)) off xi = 2, far inside 1e-8
    (1 + 1e-12, 0, True, False),
    # 1e-6 from level 2 up misses exp by far more than 1e-8, and leaves
    # phi(phi(1)) = L2:0 exact
    (1 + 1e-6, 2, False, True),
], ids=["inverse-off-by-1e-12", "inverse-off-by-1e-6-from-level-2"])
def test_half_exponential_criterion_can_fail(monkeypatch, factor, min_level, worst_ok, exact):
    monkeypatch.setattr(lixnum, "xi_inv_exact",
                        _xi_inv_mantissa_scaled(lixnum.xi_inv_exact, factor, min_level))
    rep = acceptance.run_one(2)
    assert not rep["ok"]
    worst, got_exact = _figures(_HALF_EXP, rep["detail"])
    assert (worst <= 1e-8, got_exact) == (worst_ok, exact)


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


def test_catalog_criterion_fails_on_one_row_s_inverse_check(monkeypatch):
    inverse_check = classify._inverse_check

    def mutant(f0, F0):
        got = inverse_check(f0, F0)
        return {**got, "max_err": 2e-3, "ok": False} if f0.text == "x+sqrt(x)" else got

    monkeypatch.setattr(classify, "_inverse_check", mutant)
    rep = acceptance.run_one(3)
    assert not rep["ok"]
    assert rep["detail"].endswith("; failures: ['x+sqrt(x): inverse check']")


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


def _ack_changed_at(ack, m0, n0, change):
    return lambda m, n: change(ack(m, n)) if (m, n) == (m0, n0) else ack(m, n)


def _op_L_scaled(op_L, texts_only):
    """op_L with its result off by a relative 1e-12: for every f, or only
    for an f given as expression text."""
    def mutant(f, f_inv=None):
        L = op_L(f, f_inv)
        if texts_only and not isinstance(f, str):
            return L
        return funcexpr.Fn(lambda x: L.raw(x) * (1 + 1e-12), text=L.text)
    return mutant


@pytest.mark.parametrize("attr,mutant,named", [
    ("ack", _ack_changed_at(ackermann.ack, 1, 16, lambda a: a + 1), "'A(1,16)'"),
    ("ack", _ack_changed_at(ackermann.ack, 2, 16, lambda a: a + 1), "'A(2,16)'"),
    # a tower one rung early: the G anchors read only exact integers
    ("ack", _ack_changed_at(ackermann.ack, 3, 2, lixnum.to_li), "'A(3,2)'"),
    ("G_real", lambda m, x, G=ackermann.G_real: G(m, x) + (1e-8 if m == 2 else 0.0),
     "'G anchors (1.00e-08)'"),
    ("op_L", _op_L_scaled(ackermann.op_L, False), "'op_L anchor n=0', 'op_L anchor n=1'"),
], ids=["A1-16-plus-1", "A2-16-plus-1", "A3-2-a-tower", "G2-plus-1e-8", "op_L-off-by-1e-12"])
def test_each_ackermann_sub_check_can_fail(monkeypatch, fresh_ack_cache, attr, mutant, named):
    # each and-ed sub-check of criterion 5 on its own, named in the detail
    monkeypatch.setattr(ackermann, attr, mutant)
    rep = acceptance.run_one(5)
    assert not rep["ok"]
    assert rep["detail"].endswith(f"; failures: [{named}]")


def test_ackermann_criterion_checks_its_own_oracle(monkeypatch):
    # the oracle's level 1 one step of 2 long: A(3, 2) from the brute-force
    # recursion then misses 65534, while every library value is right
    oracle = acceptance._ack_oracle
    monkeypatch.setattr(acceptance, "_ack_oracle",
                        lambda m, n: oracle(m, n) + (2 if m == 1 else 0))
    rep = acceptance.run_one(5)
    assert not rep["ok"]
    assert rep["detail"].endswith("; failures: ['A(3,2)']")


def _handle_inverse_off(xi_inv_handle):
    # the xi_k handle's own inverse 1e-6 high, as op_L reads it
    def mutant(k):
        h = xi_inv_handle(k)
        return funcexpr.Fn(h.raw, text=h.text, inverse=lambda v: h.inverse.raw(v) + 1e-6)
    return mutant


@pytest.mark.parametrize("attr,mutant,chain_ok,closed_ok", [
    ("xi_inv_handle", _handle_inverse_off(ackermann.xi_inv_handle), False, True),
    ("op_L", _op_L_scaled(ackermann.op_L, True), True, False),
], ids=["handle-inverse-off-by-1e-6", "expression-op_L-off-by-1e-12"])
def test_op_L_criterion_can_fail(monkeypatch, attr, mutant, chain_ok, closed_ok):
    monkeypatch.setattr(ackermann, attr, mutant)
    rep = acceptance.run_one(6)
    assert not rep["ok"]
    chain, closed = _figures(r"xi-chain max err (\S+) \(xi-coordinates\); closed forms (\S+)",
                             rep["detail"])
    assert (chain <= 1e-9, closed <= 1e-12) == (chain_ok, closed_ok)


def _staircase1_off_at_k20(staircase_class1):
    def mutant():
        F, f1 = staircase_class1()
        return F, lambda x: f1(x) + (x == 2 ** 20 - 1)
    return mutant


def _staircase0_scaled(staircase_class0):
    def mutant():
        F0, f0 = staircase_class0()
        return (lambda x: 2 * F0(x)), f0
    return mutant


@pytest.mark.parametrize("attr,mutant,exact,in_band", [
    ("staircase_class1", _staircase1_off_at_k20(classify.staircase_class1), False, True),
    ("staircase_class0", _staircase0_scaled(classify.staircase_class0), True, False),
], ids=["class-1-step-off-at-k-20", "class-0-scale-doubled"])
def test_staircase_criterion_can_fail(monkeypatch, attr, mutant, exact, in_band):
    monkeypatch.setattr(classify, attr, mutant)
    rep = acceptance.run_one(9)
    assert not rep["ok"]
    got_exact, lo, hi = _figures(r"unit-step identity exact for k<=30: (True|False); "
                                 r"F\(x\)/x in \[(\S+), (\S+)\] on \[a1, a4\]", rep["detail"])
    assert (got_exact, 0.2 <= lo and hi < 1.0) == (exact, in_band)


def test_wobbly_criterion_can_fail(monkeypatch):
    # a log derivative of 1.1 is outside [0.95, 1.05]; one of exactly 1.0,
    # the value the tower tail reads today, would still pass
    monkeypatch.setattr(classify, "wobbly_log_derivative", lambda x: 1.1)
    rep = acceptance.run_one(11)
    assert not rep["ok"]
    lo, hi, r_lo, r_hi = _figures(r"x f'/f in \[(\S+), (\S+)\] at the tower tail; f/x "
                                  r"spans \[(\S+), (\S+)\] inside \[2, 4\]", rep["detail"])
    assert (lo, hi) == (1.1, 1.1)
    assert 2.0 <= r_lo < 2.2 and 3.8 < r_hi <= 4.0


class _ConstantXi:
    def xi_k(self, k, x):
        return 0.5


def test_wobbly_oscillation_check_can_fail(monkeypatch):
    # a xi that stands still leaves f/x at 3 + sin(0.5) at every point; the
    # log derivative, which classify computes on its own, still passes
    monkeypatch.setattr(acceptance, "HIER", _ConstantXi())
    rep = acceptance.run_one(11)
    assert not rep["ok"]
    lo, hi, r_lo, r_hi = _figures(r"x f'/f in \[(\S+), (\S+)\] at the tower tail; f/x "
                                  r"spans \[(\S+), (\S+)\] inside \[2, 4\]", rep["detail"])
    assert 0.95 <= lo <= hi <= 1.05
    assert (r_lo, r_hi) == (3.48, 3.48)


@pytest.mark.parametrize("lo,hi,count", [
    (1.0, 4000.0, 1000), (1.01, 1e12, 1000), (2.0, 1e150, 1000),
    (0.55, 700.0, 1000), (1.5, 40.0, 25), (1.0, 4000.0, 200),
    (1.0, 100.0, 40), (4.0, 65536.0, 60), (10.0, 1e6, 25),
])
def test_geomspace_is_the_plain_formula(lo, hi, count):
    # the sample points of criteria 4, 6, 9 and 10, bit for bit
    r = (hi / lo) ** (1.0 / (count - 1))
    assert list(acceptance._geomspace(lo, hi, count)) == [lo * r ** i for i in range(count)]
