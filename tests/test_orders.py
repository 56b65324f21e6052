import math

import pytest

from growthcalc import orders
from growthcalc.funcexpr import EvalError
from growthcalc.lixnum import LIReal
from growthcalc.orders import Ladder, check_R, in_B_F, in_Bprime_F, order_of


DEEP = Ladder.geometric(10.0, 1e12, 24)


class TestLadder:
    def test_geometric_points(self):
        pts = Ladder.geometric(2.0, 3.0, 8).points()
        assert pts == [2.0 * 3.0 ** i for i in range(8)]

    def test_library_ladders_unchanged(self):
        # every ladder the catalog, the classifier and the CLI default to
        # keeps the points of the plain formula, bit for bit
        from growthcalc import classify
        ladders = [lad for row in classify.catalog()
                   for lad in classify._default_pair_ladders(row.name)
                   if isinstance(lad, Ladder)]
        ladders += list(classify._MU_LADDERS.values()) + [
            classify._MU_LADDER_WIDE, classify._CHECK_LADDER, DEEP]
        ladders += [Ladder.geometric(*a) for a in [
            (10.0, 10.0, 8), (1.0, 2.0, 24), (4.0, 2.5, 12), (64.0, 2.0, 16),
            (2.0, 1.4, 16), (1.0, 1.2, 10)]]
        for lad in ladders:
            assert lad.points() == [lad.x0 * lad.ratio ** i for i in range(lad.count)]

    def test_tower_points_are_li(self):
        pts = Ladder.tower(0.5, 10).points()
        assert all(isinstance(p, LIReal) for p in pts)
        assert [p.level for p in pts] == list(range(1, 11))

    def test_from_spec(self):
        lad = Ladder.from_spec("geom:2:3:8")
        assert lad == Ladder.geometric(2.0, 3.0, 8)
        assert Ladder.from_spec("tower:0.25:9") == Ladder.tower(0.25, 9)

    @pytest.mark.parametrize("spec", [
        "geom:2:3", "tower:0.5", "geom:2:x:8", "arith:1:2:8", "geom:0:2:8",
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

    def test_acceleration_tightens_a_slow_tail(self):
        lad = Ladder.geometric(4.0, 2.0, 16)
        plain = order_of("log(x)", "x+x/log(x)", lad, tol=1e-6)
        fast = order_of("log(x)", "x+x/log(x)", lad, tol=1e-6,
                        accelerate=True)
        assert fast.tail_spread < plain.tail_spread

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
        assert check_R("R0", "log(x)", DEEP).verdict
        assert check_R("R3", "log(x)", DEEP).verdict

    def test_xi_satisfies_r0(self):
        assert check_R("R0", "xi(x)", DEEP).verdict

    def test_log_squared_splits_r0_from_r3(self):
        assert check_R("R3", "log(x)^2", DEEP).verdict
        rep = check_R("R0", "log(x)^2", DEEP)
        assert not rep.verdict
        # the R0 margin for log^2 tends to 2 log log x / log x * log x = 2
        assert rep.margins[-1] == pytest.approx(2.0, rel=2e-2)

    def test_identity_fails_r0(self):
        assert not check_R("R0", "x", DEEP).verdict

    def test_unknown_condition(self):
        with pytest.raises(ValueError):
            check_R("R9", "log(x)", DEEP)

    def test_report_json(self):
        data = check_R("R1", "log(x)", DEEP).to_json()
        assert data["condition"] == "R1"
        assert len(data["margins"]) == len(data["samples"])


class TestBClasses:
    def test_scaling_in_b_log(self):
        assert in_B_F("2*x", "log(x)", DEEP).verdict

    def test_square_outside_b_log_but_in_bprime(self):
        # keep x^2 inside the float range
        lad = Ladder.geometric(10.0, 1e6, 24)
        rep = in_B_F("x^2", "log(x)", lad)
        assert not rep.verdict
        # ratio is exactly 2: bounded, so B'_F still accepts it
        assert in_Bprime_F("x^2", "log(x)", lad).verdict

    def test_exp_outside_bprime_log(self):
        lad = Ladder.geometric(2.0, 1.6, 10)
        rep = in_Bprime_F("exp(x)", "log(x)", lad, c_bound=16.0)
        assert not rep.verdict


class TestDualityCrossCheck:
    def test_direct_and_abel_orders_agree(self):
        rep = orders.check_theorem_1_3(
            "log(x)", "2*x", "8*x", Ladder.geometric(2.0, 10.0, 12))
        assert not rep["vacuous"]
        assert rep["agree"]
        assert rep["lambda_direct"] == pytest.approx(3.0, abs=1e-6)
        assert rep["lambda_abel"] == pytest.approx(3.0, abs=1e-6)

    def test_vacuous_when_g_leaves_b_f(self):
        rep = orders.check_theorem_1_3(
            "log(x)", "x^2", "x^4", Ladder.geometric(2.0, 10.0, 12))
        assert rep["vacuous"]
        assert rep["agree"] is None
