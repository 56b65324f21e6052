import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcalc import abel, funcexpr
from growthcalc.lixnum import DomainError


@pytest.fixture(scope="module")
def sol_double():
    return abel.solve_abel("2*x", A=1.0, f_inv=lambda y: y / 2.0)


@pytest.fixture(scope="module")
def sol_shift():
    return abel.solve_abel("x+2", A=1.0, f_inv=lambda y: y - 2.0)


class TestAbelEquation:
    def test_residual_along_ladder(self, sol_double):
        x = 1.3
        for _ in range(40):
            assert sol_double.eval(2 * x) - sol_double.eval(x) == pytest.approx(
                1.0, abs=1e-11)
            x *= 3.1

    def test_linear_seed_gives_log2(self, sol_double):
        # F(x) = log2(x) exactly with the linear seed on [1, 2]
        for x in (1.0, 2.0, 8.0, 4096.0):
            assert sol_double.eval(x) == pytest.approx(math.log2(x), abs=1e-12)

    def test_shift_solution_is_half_x(self, sol_shift):
        for x in (1.0, 7.0, 1001.0):
            assert sol_shift.eval(x) == pytest.approx((x - 1.0) / 2.0, abs=1e-12)

    def test_below_domain_rejected(self, sol_double):
        with pytest.raises(DomainError):
            sol_double.eval(0.5)

    def test_pullback_moving_away_rejected(self):
        # contracting below 1, expanding above it: f carries 0.9 down into
        # [0.25, 0.5] but 3 upward
        sol = abel.solve_abel("x^2", A=0.5)
        assert sol.eval(0.9) == pytest.approx(sol.eval(0.81) + 1.0)
        with pytest.raises(DomainError, match=r"3\.0 .*\[0\.25, 0\.5\].*A=0\.5"):
            sol.eval(3.0)

    def test_fixed_point_at_base_rejected(self):
        with pytest.raises(DomainError):
            abel.solve_abel("x^2", A=1.0)

    def test_pullback_without_inverse_past_sqrt_of_float_max(self):
        # the bisected pullback bracket starts above 1e154, where lo * hi
        # overflows; its geometric midpoint must still be finite (a plain
        # callable, since text would get the derived inverse y/1.5)
        x = 1.2 * 1.5 ** 1000
        bisected = abel.solve_abel(lambda y: 1.5 * y, A=1.0).eval(x)
        exact = abel.solve_abel("1.5*x", A=1.0, f_inv=lambda y: y / 1.5).eval(x)
        assert bisected == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("f,A", [(lambda x: 2.0 * x, 1.0),
                                     (lambda x: x / 2.0, 8.0)],
                             ids=["expanding", "contracting"])
    def test_solve_evaluates_f_17_times(self, f, A):
        # f(A) once, then the 16 other points of the monotonicity scan; the
        # domain ends and the scan point A reuse f(A)
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        abel.solve_abel(counted, A=A)
        assert len(calls) == 17
        assert calls.count(A) == 1

    def test_contracting_direction(self):
        sol = abel.solve_abel("sqrt(x)", A=16.0)
        # fundamental domain [4, 16]; orientation flips for a contracting
        # step, so F drops by one under f while staying increasing in x
        for x in (256.0, 1e6, 1e12):
            assert sol.eval(x) - sol.eval(math.sqrt(x)) == pytest.approx(
                1.0, abs=1e-9)


class TestInverseAndIteration:
    @given(st.floats(min_value=0.0, max_value=25.0))
    @settings(max_examples=40)
    def test_inverse_roundtrip(self, t):
        sol = abel.solve_abel("2*x", A=1.0, f_inv=lambda y: y / 2.0)
        assert sol.eval(sol.inverse(t)) == pytest.approx(t, abs=1e-9)

    def test_half_iterate_of_shift(self, sol_shift):
        for x in (1.0, 2.5, 90.0):
            assert sol_shift.fractional_iterate(0.5, x) == pytest.approx(
                x + 1.0, abs=1e-12)

    def test_group_law(self, sol_double):
        x = 3.7
        once = sol_double.fractional_iterate(
            0.25, sol_double.fractional_iterate(0.75, x))
        assert once == pytest.approx(2 * x, rel=1e-11)

    def test_negative_iterate_is_inverse_step(self, sol_double):
        x = 12.0
        assert sol_double.fractional_iterate(-1.0, x) == pytest.approx(
            6.0, rel=1e-11)

    def test_exp_half_iterate_squares_to_exp(self):
        sol = abel.solve_abel("exp(x)", A=0.5, f_inv=math.log)
        for x in (1.0, 2.0, 3.0):
            y = sol.fractional_iterate(0.5, sol.fractional_iterate(0.5, x))
            assert y == pytest.approx(math.exp(x), rel=1e-9)


class TestSeeds:
    def test_smooth_seed_still_solves_equation(self):
        sol = abel.solve_abel("2*x", A=1.0, seed_kind="smooth_c1",
                              f_inv=lambda y: y / 2.0)
        for x in (1.5, 77.0, 1e9):
            assert sol.eval(2 * x) - sol.eval(x) == pytest.approx(1.0, abs=1e-9)

    def test_table_seed(self):
        knots = [(1.0, 0.0), (1.5, 0.6), (2.0, 1.0)]
        sol = abel.solve_abel("2*x", A=1.0, seed_kind=knots,
                              f_inv=lambda y: y / 2.0)
        assert sol.eval(1.5) == pytest.approx(0.6, abs=1e-12)
        assert sol.eval(3.0) == pytest.approx(1.6, abs=1e-12)

    @pytest.mark.parametrize("knots", [
        [(1.0, 0.0), (1.0, 0.5), (2.0, 1.0)],
        [(1.0, 0.0), (1.5, 0.5), (2.0, 0.5), (2.5, 1.0)],
        [(1.0, 0.0), (2.0, 1.0), (1.5, 0.5)],
        [(1.0, 0.0)],
    ])
    def test_table_knots_must_strictly_increase(self, knots):
        with pytest.raises(DomainError, match="strictly increasing"):
            abel.solve_abel("2*x", A=1.0, seed_kind=knots)

    def test_table_must_gain_one(self):
        with pytest.raises(DomainError, match="gain exactly 1"):
            abel.solve_abel("2*x", A=1.0, seed_kind=[(1.0, 0.0), (2.0, 0.9)])

    def test_unknown_seed_kind(self):
        with pytest.raises(DomainError, match="unknown seed kind"):
            abel.solve_abel("2*x", A=1.0, seed_kind="cubic")


# seed-cache entries as written before linear seeds became two-knot tables
_OLD_CACHE_ENTRIES = [
    ({"f": "x+sqrt(x)", "A": 1.0, "seed_kind": "linear",
      "seed_params": {"x0": 1.0, "x1": 2.0, "y0": 0.0}}, "linear"),
    ({"f": "2*x", "A": 1.0, "seed_kind": "table",
      "seed_params": {"knots": [[1.0, 0.0], [1.25, 0.4], [2.0, 1.0]]}},
     [(1.0, 0.0), (1.25, 0.4), (2.0, 1.0)]),
    ({"f": "x+sqrt(x)", "A": 1.0, "seed_kind": "smooth_c1",
      "seed_params": {"x0": 1.0, "x1": 2.0, "y0": 0.0,
                      "fpA": 1.5000000000098266}}, "smooth_c1"),
]


class TestSerialization:
    @pytest.mark.parametrize("data,seed_kind", _OLD_CACHE_ENTRIES)
    def test_older_cache_entries_match_a_fresh_solve(self, data, seed_kind):
        back = abel.solution_from_json(data)
        fresh = abel.solve_abel(data["f"], data["A"], seed_kind)
        for x in (1.0, 1.7, 2.0, 40.0, 1e4):
            assert back.eval(x) == fresh.eval(x)
        for t in (0.0, 0.3, 2.5, 7.0):
            assert back.inverse(t) == fresh.inverse(t)

    def test_older_cache_entries_keep_their_values(self):
        # table and smooth seeds evaluate as they did before the change
        table = abel.solution_from_json(_OLD_CACHE_ENTRIES[1][0])
        assert [table.eval(x) for x in (1.7, 40.0, 1e4)] == [
            0.76, 5.4, 13.353125]
        assert table.inverse(2.5) == 5.5
        smooth = abel.solution_from_json(_OLD_CACHE_ENTRIES[2][0])
        assert [smooth.eval(x) for x in (1.7, 40.0, 1e4)] == [
            0.7420000000006602, 11.568266997396384, 200.29516600968734]
        assert smooth.inverse(2.5) == 4.284225286766327

    def test_from_json_checks_f(self):
        data = {"f": "x", "A": 1.0, "seed_kind": "table",
                "seed_params": {"knots": [[1.0, 0.0], [2.0, 1.0]]}}
        with pytest.raises(DomainError, match="fixed point"):
            abel.solution_from_json(data)
        data["f"] = "2*x+sin(8*x)"
        with pytest.raises(DomainError, match="not strictly increasing"):
            abel.solution_from_json(data)
        data["seed_kind"] = "spline"
        with pytest.raises(DomainError, match="unknown seed kind"):
            abel.solution_from_json(data)

    def test_json_roundtrip_preserves_values(self, sol_shift):
        data = abel.solution_to_json(sol_shift)
        back = abel.solution_from_json(data)
        # the explicit inverse is not serialized; the rebuilt solution
        # derives x-2 from "f", which may round differently
        for x in (1.0, 5.25, 333.0):
            assert back.eval(x) == pytest.approx(sol_shift.eval(x), abs=1e-9)

    def test_roundtrip_of_table_seed(self):
        knots = [(1.0, 0.0), (2.0, 1.0)]
        sol = abel.solve_abel("2*x", A=1.0, seed_kind=knots)
        back = abel.solution_from_json(abel.solution_to_json(sol))
        assert back.eval(7.7) == pytest.approx(sol.eval(7.7), abs=1e-12)


def _count_bisections(monkeypatch):
    calls = []
    bisect = funcexpr._bisect

    def counting(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(funcexpr, "_bisect", counting)
    return calls


class TestDerivedInverse:
    def test_text_and_json_get_the_inverse(self, monkeypatch):
        sol = abel.solve_abel("x+2", A=1)
        back = abel.solution_from_json(abel.solution_to_json(sol))
        assert sol.f_inv is not None and back.f_inv is not None
        calls = _count_bisections(monkeypatch)
        x = 1.5 + 2 * 1000
        assert sol.eval(x) == pytest.approx(1000.25, abs=1e-9)
        assert back.eval(x) == pytest.approx(1000.25, abs=1e-9)
        assert calls == []

    def test_odd_power_on_negative_domain(self):
        # x^3 rises on x < 0 too, where the root y^(1/3) is undefined; it
        # is bisected, so the pullback from -0.01 reaches [-0.5, -0.125]
        sol = abel.solve_abel("x^3", A=-0.5)
        assert sol.f_inv is None
        y = sol.eval(-0.01)
        assert sol.eval((-0.01) ** 3) == pytest.approx(y + 1.0, abs=1e-9)

    def test_explicit_inverse_is_kept(self):
        inv = lambda y: y - 2.0  # noqa: E731
        assert abel.solve_abel("x+2", A=1, f_inv=inv).f_inv is inv

    def test_newton_pullback_cost(self):
        # x+sqrt(x) has no derived inverse; each pre-image is bisected
        # after Newton steps on f' (plain bisection: about 58 evaluations)
        sol = abel.solve_abel("x+sqrt(x)", A=1.0)
        assert sol.f_inv is None and sol.fp is not None
        exact = abel.solve_abel("x+sqrt(x)", A=1.0,
                                f_inv=lambda y: ((math.sqrt(1 + 4 * y) - 1) / 2) ** 2)
        counts = {"f": 0, "fp": 0}
        f, fp = sol.f, sol.fp

        def counted(name, fn):
            def wrapper(t):
                counts[name] += 1
                return fn(t)
            return wrapper

        x = 1.5
        for _ in range(2000):
            x = f(x)
        sol.f, sol.fp = counted("f", f), counted("fp", fp)
        assert sol.eval(x) == pytest.approx(exact.eval(x), abs=1e-9)
        steps = 2000
        assert (counts["f"] + counts["fp"]) / steps <= 12
        assert counts["fp"] / steps <= 5
        # the domain ends are computed once, and Newton starts from the
        # fn value _bisect already has at the bracket end (about 5.2)
        assert counts["f"] / steps <= 5.5

    # x+sqrt(x) is monotone in floats, so each bisected pre-image is the
    # same adjacent-float root whatever bracket the step starts from
    @pytest.mark.parametrize("x,expected", [
        (10.0, 4.8781503931705),
        (1e3, 62.96256519666419),
        (1e6, 2001.4004870144868),
        (1e9, 63248.69047808329),
    ])
    def test_bisected_pullback_values_pinned(self, x, expected):
        assert abel.solve_abel("x+sqrt(x)", A=1.0).eval(x) == expected


@pytest.fixture(scope="module")
def reg_log():
    return abel.solve_abel_regularized("log(x)", A=2.0)


def _central_log_F_prime(F, x):
    h = 1e-5 * x
    return math.log((F(x + h) - F(x - h)) / (2 * h))


class TestRegularized:
    def test_needs_contracting_map(self):
        with pytest.raises(abel.HypothesisError):
            abel.solve_abel_regularized("2*x", A=1.0)

    def test_log_step_at_reference(self, reg_log):
        # 2000 was the point where the old construction was rescaled; the
        # step is 1 there and everywhere else
        for x in (2000.0, 3.0, 7.0, 20.0, 500.0, 1e8):
            assert reg_log.F(x) - reg_log.F(math.log(x)) == pytest.approx(
                1.0, abs=1e-12)

    def test_F_prime_satisfies_differentiated_equation(self, reg_log):
        # F' from central differences of F, independent of how F is built:
        # log F'(x) = log F'(log x) + log f'(x) with f'(x) = 1/x
        for x in (3.0, 10.0, 1e3, 1e5, 1e8):
            res = (_central_log_F_prime(reg_log.F, x)
                   - _central_log_F_prime(reg_log.F, math.log(x)) + math.log(x))
            assert abs(res) <= 1e-8, (x, res)

    def test_F_is_smooth_across_domain_edge(self, reg_log):
        A, h = 2.0, 1e-7
        left = (reg_log.F(A) - reg_log.F(A - h)) / h
        right = (reg_log.F(A + h) - reg_log.F(A)) / h
        assert right == pytest.approx(left, rel=1e-6)

    def test_regularity_ratio_matches_H(self, reg_log):
        for x in (1.5, 3.0, 10.0, 1e3, 1e5, 1e8):
            assert reg_log.regularity_ratio(x) == pytest.approx(
                reg_log.H(x) + 1.0, abs=1e-5)

    def test_derivative_ratio_tends_to_one(self, reg_log):
        # H(x) = (1 + H(log x)) / log x: -x F''/F' decreases toward 1
        ratios = [reg_log.regularity_ratio(x) for x in (1e3, 1e5, 1e7, 1e9)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) < 0.1

    def test_domain(self, reg_log):
        assert reg_log.F(2.0) == 0.0
        assert reg_log.F(math.log(2.0)) == -1.0
        with pytest.raises(DomainError):
            reg_log.F(0.5)
