import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from growthcalc import cli, funcexpr, orders
from growthcalc.funcexpr import EvalError
from growthcalc.lixnum import LIReal
from growthcalc.orders import Ladder, check_R, order_of
from growthcalc.xihier import XiHierarchy


DEEP = Ladder.geometric(10.0, 1e12, 24)  # the props default
PROPS_GOLDEN = json.loads(
    (Path(__file__).with_name("golden") / "props.json").read_text())


class TestLadder:
    def test_geometric_points(self):
        pts = Ladder.geometric(2.0, 3.0, 8)
        assert list(pts) == [2.0 * 3.0 ** i for i in range(8)]

    def test_library_ladders_unchanged(self):
        # every ladder the catalog, the classifier and the CLI default to
        # keeps the points of the plain formula, bit for bit
        from growthcalc import classify
        ladders = [lad for row in classify.catalog() for lad in row.ladders
                   if lad.to_json()["kind"] == "geometric"]
        ladders += list(classify._MU_LADDERS.values()) + [
            classify._MU_LADDER_WIDE, classify._CHECK_LADDER, DEEP]
        ladders += [Ladder.geometric(*a) for a in [
            (10.0, 10.0, 8), (1.0, 2.0, 24), (4.0, 2.5, 12), (64.0, 2.0, 16),
            (2.0, 1.4, 16), (1.0, 1.2, 10)]]
        for lad in ladders:
            desc = lad.to_json()
            x0, ratio, count = desc["x0"], desc["ratio"], desc["count"]
            assert list(lad) == [x0 * ratio ** i for i in range(count)]

    def test_points_match_the_plain_formula_below_700(self):
        # x0 * ratio**i, bit for bit, wherever i ln(ratio) <= 700: a grid
        # over the ladders of the goldens, the tests, the CLI defaults and
        # perfbench (x0 from 1e-300 to 1e180, ratio from 1.001 to 1e18)
        ratios = [1.001, 1.2, 1.35, 1.4, 2.5, 3.0] + [10 ** (j / 8) for j in range(1, 145)]
        for x0 in (1e-300, 1e-10, 0.55, 1.0, 1.5, 2.0, 7.3, 10.0, 100.0, 1e8, 1e180):
            for ratio in ratios:
                # the longest ladder, up to 60 points, that fits in floats
                room = (math.log(sys.float_info.max) - math.log(x0)) / math.log(ratio)
                count = min(60, int(room - 1e-9) + 1)
                if count < Ladder.MIN_COUNT:
                    continue
                pts = Ladder.geometric(x0, ratio, count)
                for i, p in enumerate(pts):
                    if i * math.log(ratio) <= 700:
                        assert p == x0 * ratio ** i, (x0, ratio, i)

    def test_split_ladder_is_exact_to_rounding(self):
        # 1e10^i alone overflows from i = 31 on; the points (up to 1e290) do not
        lad = Ladder.from_spec("geom:1e-300:1e10:60")
        pts = list(lad)
        assert len(pts) == 60
        assert all(math.isfinite(p) for p in pts)
        assert all(b > a for a, b in zip(pts, pts[1:]))
        desc = lad.to_json()
        x0, ratio = Fraction(desc["x0"]), Fraction(desc["ratio"])
        for i, p in enumerate(pts):
            exact = x0 * ratio ** i
            assert abs(Fraction(p) - exact) <= Fraction(1, 10 ** 14) * exact, i

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-300, 1e300), st.floats(1.0, 1e12, exclude_min=True),
           st.integers(Ladder.MIN_COUNT, 400))
    @example(1e-300, 1e10, 61)
    @example(1.0, 2.0, 1024)
    def test_points_are_times_power_bit_for_bit(self, x0, ratio, count):
        # the plain product below the split and _times_power past it (tiny
        # x0 with |i log ratio| > 700) give _times_power's bits at every point
        room = (math.log(sys.float_info.max) - math.log(x0)) / math.log(ratio)
        count = min(count, int(room) + 1)  # at most the longest ladder that fits
        assume(count >= Ladder.MIN_COUNT)
        try:
            pts = Ladder.geometric(x0, ratio, count)
        except ValueError:  # the last point rounds to inf
            return
        want = [funcexpr._times_power(x0, ratio, i) for i in range(count)]
        assert [p.hex() for p in pts] == [w.hex() for w in want]

    def test_split_ladder_reaches_its_last_point(self):
        assert Ladder.geometric(1e-300, 1e10, 61)[-1] == 1e300

    @pytest.mark.parametrize("spec", ["geom:1:2:1025", "geom:0.5:2:1026"])
    def test_last_point_that_rounds_to_inf_is_refused(self, spec):
        # 1024 ln 2 equals ln(max float) in floats, so the log test passes
        # while 2^1024 rounds to inf
        with pytest.raises(ValueError, match="overflows the float range"):
            Ladder.from_spec(spec)

    def test_tower_points_are_li(self):
        pts = Ladder.tower(0.5, 10)
        assert all(isinstance(p, LIReal) for p in pts)
        assert [p.level for p in pts] == list(range(1, 11))

    def test_from_spec(self):
        lad = Ladder.from_spec("geom:2:3:8")
        assert lad == Ladder.geometric(2.0, 3.0, 8)
        assert Ladder.from_spec("tower:0.25:9") == Ladder.tower(0.25, 9)

    @pytest.mark.parametrize("spec", [
        "geom:2:3", "tower:0.5", "geom:2:x:8", "arith:1:2:8", "geom:0:2:8",
        "geometric:2:3:8", "geom:nan:2:8", "geom:1:nan:8",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            Ladder.from_spec(spec)

    def test_min_count(self):
        with pytest.raises(ValueError):
            Ladder.geometric(1.0, 2.0, 3)
        with pytest.raises(ValueError):
            Ladder.tower(0.5, 2)

    def test_json_shape(self):
        assert Ladder.tower(0.5, 9).to_json() == {
            "kind": "tower", "mantissa": 0.5, "levels": 9}

    def test_points_ladder(self):
        pts = [LIReal(j, 0.25) for j in range(3, 11)]
        lad = Ladder(iter(pts))
        assert list(lad) == pts
        assert lad.to_json() == {"kind": "points", "count": 8,
                                 "first": str(pts[0]), "last": str(pts[-1])}
        # a Ladder is already checked and described: it is returned as it is
        geom = Ladder.geometric(2.0, 3.0, 8)
        assert Ladder(geom) is geom
        assert Ladder(lad) is lad

    def test_ladder_is_immutable(self):
        lad = Ladder.geometric(2.0, 3.0, 8)
        with pytest.raises(TypeError):
            lad[0] = 1.0
        desc = lad.to_json()
        desc["x0"] = 5.0
        assert lad.to_json()["x0"] == 2.0


def _difference(f, a, b):
    """f(a, b) to the bit (float.hex tells -0.0 from 0.0), or its overflow."""
    try:
        return "value", f(a, b).hex()
    except OverflowError as exc:
        return "raises", str(exc)


# exact values as the super-logarithm path makes them, a level plus a float
# mantissa, with levels near 10^780; and rationals whose difference is past
# the float range as often as not
_LEVELS = st.integers(10 ** 780 - 10 ** 6, 10 ** 780 + 10 ** 6)
_EXACT = st.one_of(
    st.builds(lambda level, m: level + Fraction(m), _LEVELS,
              st.floats(0.0, 1.0, exclude_max=True)),
    st.builds(Fraction, st.integers(-10 ** 800, 10 ** 800), st.integers(1, 10 ** 800)),
    st.fractions(max_denominator=10 ** 6),
)


class TestResidual:
    @settings(max_examples=150)
    @given(_EXACT, _EXACT)
    @example(10 ** 780 + Fraction(0.75), 10 ** 780 + Fraction(0.25))
    @example(10 ** 780 + Fraction(0.25), 10 ** 780 + Fraction(0.25))
    def test_fractions_round_as_their_difference(self, a, b):
        assert (_difference(orders._residual, a, b)
                == _difference(lambda a, b: float(a - b), a, b))


class TestOrderOf:
    def test_exp_has_xi_order_one_exactly(self):
        est = order_of("xi(x)", "exp(x)", Ladder.tower(0.5, 12))
        assert est.converged
        assert est.lambda_hat == 1.0
        assert est.tail_spread == 0.0

    def test_log_has_xi_order_minus_one(self):
        est = order_of("xi(x)", "log(x)", Ladder.tower(0.5, 12))
        assert est.converged
        assert est.lambda_hat == -1.0

    def test_scaling_has_log_order(self):
        est = order_of("log(x)", "e*x", Ladder.geometric(2.0, 10.0, 12))
        assert est.converged
        assert est.lambda_hat == pytest.approx(1.0, abs=1e-9)

    def test_divergent_order_is_not_an_error(self):
        # log(x^2) - log(x) = log x grows without bound
        est = order_of("log(x)", "x^2", Ladder.geometric(2.0, 10.0, 12))
        assert not est.converged

    def test_plain_point_list_accepted(self):
        pts = [10.0 * 4.0 ** i for i in range(12)]
        est = order_of("log_2(x)", "x^2", pts)
        assert est.converged
        assert est.lambda_hat == pytest.approx(math.log(2.0), abs=1e-3)

    def test_point_list_reads_as_its_ladder(self):
        for pts in ([10.0 * 4.0 ** i for i in range(12)],
                    [LIReal(j, 0.5) for j in range(2, 14)]):
            assert (order_of("xi(x)", "x^2", pts).to_json()
                    == order_of("xi(x)", "x^2", Ladder(pts)).to_json())

    @pytest.mark.parametrize("pts", [
        [], [10.0], [10.0 * 4.0 ** i for i in range(7)], [10, 1e300, 5],
        [10.0 * 4.0 ** i for i in range(11)] + [10.0],
        [10.0 * 4.0 ** min(i, 8) for i in range(12)],
        [10.0 * 4.0 ** i for i in range(11)] + [math.nan],
    ], ids=["empty", "one", "seven", "unordered", "step-back", "repeated", "nan"])
    def test_plain_points_need_a_ladder_worth(self, pts):
        # order_of and Ladder refuse them with the one message
        msg = "^a ladder needs at least 8 strictly increasing points$"
        with pytest.raises(ValueError, match=msg):
            order_of("log(x)", "x^2", pts)
        with pytest.raises(ValueError, match=msg):
            Ladder(pts)

    def test_failure_names_the_point(self):
        with pytest.raises(EvalError, match="ladder point"):
            order_of("log(x)", "x-100", Ladder.geometric(2.0, 2.0, 8))

    def test_json_fields(self):
        est = order_of("xi(x)", "exp(x)", Ladder.tower(0.5, 12))
        data = est.to_json()
        for key in ("lambda_hat", "residuals", "converged", "tail_spread",
                    "tol", "window"):
            assert key in data


class TestRegularity:
    def test_log_satisfies_r0_and_r3(self):
        r0, r3 = check_R(("R0", "R3"), "log(x)", DEEP)
        assert r0.verdict
        assert r3.verdict

    def test_xi_satisfies_r0(self):
        assert check_R(("R0",), "xi(x)", DEEP)[0].verdict

    def test_log_squared_splits_r0_from_r3(self):
        r3, rep = check_R(("R3", "R0"), "log(x)^2", DEEP)
        assert r3.verdict
        assert not rep.verdict
        # the R0 margin for log^2 tends to 2 log log x / log x * log x = 2
        assert rep.margins[-1] == pytest.approx(2.0, rel=2e-2)

    def test_identity_fails_r0(self):
        assert not check_R(("R0",), "x", DEEP)[0].verdict

    def test_unknown_condition(self):
        with pytest.raises(ValueError):
            check_R(("R9",), "log(x)", DEEP)
        with pytest.raises(ValueError, match="unknown regularity condition 'R9'"):
            check_R(("R0", "R9"), "log(x)", DEEP)

    def test_bare_string_is_not_a_condition_list(self):
        # "R0" iterates to "R" and "0"
        with pytest.raises(ValueError, match="unknown regularity condition 'R'"):
            check_R("R0", "log(x)", DEEP)

    def test_tower_ladder_point_is_refused(self, capsys):
        with pytest.raises(EvalError, match="ladder point L5:0.5 not usable for a "
                                            "float-range check"):
            check_R(("R0",), "log(x)", Ladder.tower(0.5, 10))
        assert cli.main(["props", "--F", "log(x)", "--ladder", "tower:0.5:10"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("growthcalc: EvalError: ladder point L5:0.5 not usable")

    def test_vanishing_derivative_is_an_error(self):
        with pytest.raises(EvalError, match="F' vanished at 10.0"):
            check_R(("R1",), "3", DEEP)

    def test_report_json(self):
        (rep,) = check_R(("R1",), "log(x)", DEEP)
        data = rep.to_json()
        assert data["condition"] == "R1"
        assert len(data["margins"]) == len(data["samples"])
        assert list(data) == ["condition", "samples", "margins", "verdict",
                              "tol", "extra"]

    @pytest.mark.parametrize("F", ["log(x)", "xi(x)", "log(x)^2"])
    def test_all_conditions_at_once_match_one_at_a_time(self, F):
        conds = ("R0", "R1", "R2", "R3")
        together = check_R(conds, F, DEEP)
        assert [r.condition for r in together] == list(conds)
        alone = [check_R((c,), F, DEEP)[0] for c in conds]
        assert [r.to_json() for r in together] == [r.to_json() for r in alone]
        # in any order, report for report
        backwards = check_R(conds[::-1], F, DEEP)
        assert [r.to_json() for r in backwards[::-1]] == [r.to_json() for r in alone]

    def test_props_evaluates_chi_once_per_point(self, monkeypatch, capsys):
        # F = xi has F' = 1/chi; R1-R3 share F' at their 150 distinct points
        # (96 + 48 + 120 = 264 evaluations, one call per point counted here)
        calls = []
        chi = XiHierarchy.chi
        monkeypatch.setattr(XiHierarchy, "chi",
                            lambda self, x: calls.append(x) or chi(self, x))
        assert cli.main(["props", "--F", "xi(x)"]) == 0
        capsys.readouterr()
        assert len(calls) == len(set(calls)) == 150

    @pytest.mark.parametrize("F", ["log(x)", "xi(x)", "log(x)^2"])
    def test_check_r_alone_matches_the_props_golden(self, F):
        # the props golden holds each condition's report as check_R made it
        # when it ran once per condition, with no values shared
        golden = json.loads(PROPS_GOLDEN[f"--F {F}"])["conditions"]
        for cond in ("R0", "R1", "R2", "R3"):
            assert check_R((cond,), F, DEEP)[0].to_json() == golden[cond]
