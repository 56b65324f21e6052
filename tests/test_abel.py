import math
import time
from fractions import Fraction

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

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, sol_double, v):
        with pytest.raises(DomainError, match=f"not defined at {v!r}"):
            sol_double.eval(v)
        with pytest.raises(DomainError, match=f"not defined at {v!r}"):
            sol_double.inverse(v)

    def test_inverse_caps_its_forward_push(self, sol_double):
        # x^2 has no closed-form iterate, so its push steps
        stepwise = abel.solve_abel("x^2", A=2.0)
        assert stepwise.affine is None
        with pytest.raises(DomainError, match="more than 1000000 steps"):
            stepwise.inverse(1e7)
        with pytest.raises(DomainError, match="leaves the float range"):
            stepwise.inverse(2000.0)
        # 2*x pushes in closed form, with no step cap, and still overflows
        for t in (2000.0, 1e7):
            with pytest.raises(DomainError, match="leaves the float range"):
                sol_double.inverse(t)

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
        seed = abel.TableSeed([(1.0, 0.0), (1.5, 0.6), (2.0, 1.0)])
        assert seed(1.5) == 0.6 and seed.inv(0.6) == 1.5
        assert seed(1.25) == pytest.approx(0.3, abs=1e-15)
        # extended past the end knots along the end segments
        assert seed(3.0) == pytest.approx(1.8, abs=1e-15)
        assert seed.inv(1.8) == pytest.approx(3.0, abs=1e-15)
        exact = abel.TableSeed([(Fraction(1), Fraction(0)), (Fraction(3), Fraction(1))])
        assert exact(Fraction(2)) == Fraction(1, 2)

    @pytest.mark.parametrize("knots", [
        [(1.0, 0.0), (1.0, 0.5), (2.0, 1.0)],
        [(1.0, 0.0), (1.5, 0.5), (2.0, 0.5), (2.5, 1.0)],
        [(1.0, 0.0), (2.0, 1.0), (1.5, 0.5)],
        [(1.0, 0.0)],
    ])
    def test_table_knots_must_strictly_increase(self, knots):
        with pytest.raises(DomainError, match="strictly increasing"):
            abel.TableSeed(knots)

    def test_unknown_seed_kind(self):
        for kind in ("cubic", "table"):
            with pytest.raises(DomainError, match="unknown seed kind"):
                abel.solve_abel("2*x", A=1.0, seed_kind=kind)

    @pytest.mark.parametrize("knots", [
        [(1.0, 0.0), (2.0, 1.0)], [(1.0, 0.0), (1.5, 0.6), (2.0, 1.0)]])
    def test_knot_list_is_no_seed_kind(self, knots):
        # not even the linear seed's own knots, which gain exactly 1
        with pytest.raises(DomainError, match=r"unknown seed kind \[\("):
            abel.solve_abel("2*x", A=1.0, seed_kind=knots)


# seed-cache entries as written before they held only the solve arguments
_OLD_CACHE_ENTRIES = [
    ({"f": "x+sqrt(x)", "A": 1.0, "seed_kind": "linear",
      "seed_params": {"x0": 1.0, "x1": 2.0, "y0": 0.0}}, "linear"),
    ({"f": "x+sqrt(x)", "A": 1.0, "seed_kind": "smooth_c1",
      "seed_params": {"x0": 1.0, "x1": 2.0, "y0": 0.0,
                      "fpA": 1.5000000000098266}}, "smooth_c1"),
]
_OLD_TABLE_ENTRY = {"f": "2*x", "A": 1.0, "seed_kind": "table",
                    "seed_params": {"knots": [[1.0, 0.0], [1.25, 0.4], [2.0, 1.0]]}}

# (f, A, seed kind) of the solutions whose JSON round trip is checked
_ROUNDTRIP_SOLVES = [("x+sqrt(x)", 1.0, "linear"), ("x+sqrt(x)", 1.0, "smooth_c1"),
                     ("2*x", 1.0, "linear"), ("x^2", 2.0, "linear")]


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
        # a smooth seed evaluates as it did when the entry was written
        smooth = abel.solution_from_json(_OLD_CACHE_ENTRIES[1][0])
        assert [smooth.eval(x) for x in (1.7, 40.0, 1e4)] == [
            0.7420000000006602, 11.568266997396384, 200.29516600968734]
        assert smooth.inverse(2.5) == 4.284225286766327

    def test_older_table_entries_are_refused(self):
        with pytest.raises(DomainError, match="unknown seed kind 'table'"):
            abel.solution_from_json(_OLD_TABLE_ENTRY)

    def test_from_json_checks_f(self):
        data = {"f": "x", "A": 1.0, "seed_kind": "linear"}
        with pytest.raises(DomainError, match="fixed point"):
            abel.solution_from_json(data)
        data["f"] = "2*x+sin(8*x)"
        with pytest.raises(DomainError, match="not strictly increasing"):
            abel.solution_from_json(data)
        data["f"], data["seed_kind"] = "2*x", "spline"
        with pytest.raises(DomainError, match="unknown seed kind"):
            abel.solution_from_json(data)

    def test_json_roundtrip_preserves_values(self, sol_shift):
        data = abel.solution_to_json(sol_shift)
        back = abel.solution_from_json(data)
        # the explicit inverse is not serialized; the rebuilt solution
        # derives x-2 from "f", which may round differently
        for x in (1.0, 5.25, 333.0):
            assert back.eval(x) == pytest.approx(sol_shift.eval(x), abs=1e-9)

    @pytest.mark.parametrize("f,A,seed_kind", _ROUNDTRIP_SOLVES)
    def test_json_is_the_solve_arguments(self, f, A, seed_kind):
        sol = abel.solve_abel(f, A, seed_kind)
        data = abel.solution_to_json(sol)
        assert data == {"f": f, "A": A, "seed_kind": seed_kind}
        back = abel.solution_from_json(data)
        for x in (1.0, 1.7, 2.0, 40.0, 1e4):
            if x < sol.domain_lo:  # x^2 at A = 2 starts at 2
                with pytest.raises(DomainError, match="below the solution base"):
                    back.eval(x)
            else:
                assert back.eval(x) == sol.eval(x)
        for t in (0.0, 0.3, 2.5, 7.0):
            assert back.inverse(t) == sol.inverse(t)

    def test_roundtrip_of_table_seed(self):
        # the linear seed is the two-knot table [(1, 0), (2, 1)] here
        sol = abel.solve_abel("2*x", A=1.0)
        assert (sol.seed.xs, sol.seed.ys) == ([1.0, 2.0], [0.0, 1.0])
        back = abel.solution_from_json(abel.solution_to_json(sol))
        assert back.eval(7.7) == sol.eval(7.7)

    def test_roundtrip_of_smooth_seed(self):
        sol = abel.solve_abel("2*x", A=1.0, seed_kind="smooth_c1")
        data = abel.solution_to_json(sol)
        assert data["seed_kind"] == "smooth_c1"
        back = abel.solution_from_json(data)
        assert isinstance(back.seed, abel.CubicSeed)
        assert back.eval(7.7) == sol.eval(7.7)
        assert back.inverse(3.3) == sol.inverse(3.3)


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
        # the pullback reads f and f' off the solution at each step, so
        # the swapped-in counters see every evaluation
        assert counts["f"] > 0 and counts["fp"] > 0
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


def _exact_linear_F(sol, x):
    """The linear-seed F of sol at x in exact Fraction arithmetic: the same
    float step, domain and x, with the least n that takes x into the domain."""
    op, s = sol.affine
    lo, hi, X, S = (Fraction(v) for v in (sol.domain_lo, sol.domain_hi, x, s))
    toward = -1 if sol.direction == "expanding" else 1

    def pull(k):
        return X + toward * k * S if op == "+" else X * S ** (toward * k)

    n = 0
    if X > hi:
        n = max(0, math.floor(float((X - hi) / abs(S)) if op == "+" else
                              (math.log(x) - math.log(sol.domain_hi))
                              / abs(math.log(s))))
        while pull(n) > hi:
            n += 1
        while n > 0 and pull(n - 1) <= hi:
            n -= 1
    return n + (pull(n) - lo) / (hi - lo)


def _stepwise(sol, back, fwd):
    """Reference eval and inverse of a linear-seed solution that step once
    per unit of F with the given pullback and push maps."""
    lo, hi = sol.domain_lo, sol.domain_hi
    edge = hi + 1e-12 * (hi - lo)

    def F(x):
        y, n = x, 0
        while y > edge:
            y, n = back(y), n + 1
        return n + sol.seed(min(y, hi))

    def F_inv(t):
        n = max(0, math.floor(t))
        y = sol.seed.inv(t - n)
        for _ in range(n):
            y = fwd(y)
        return y

    return F, F_inv


class TestClosedForm:
    def test_affine_maps_get_the_closed_form(self):
        assert abel.solve_abel("x+2", A=1.0).affine == ("+", 2.0)
        assert abel.solve_abel("x-2", A=5.0).affine == ("+", -2.0)
        assert abel.solve_abel("2*x", A=1.0).affine == ("*", 2.0)
        assert abel.solve_abel("x/2", A=8.0).affine == ("*", 0.5)
        # an explicit inverse and a JSON round trip keep it
        sol = abel.solve_abel("x+2", A=1.0, f_inv=lambda y: y - 2.0)
        assert sol.affine == ("+", 2.0)
        back = abel.solution_from_json(abel.solution_to_json(sol))
        assert back.affine == ("+", 2.0)
        assert abel.solve_abel(lambda y: y + 2.0, A=1.0).affine is None

    def test_far_point_is_refused_at_once(self):
        sol = abel.solve_abel("x+1", A=1.0)
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"1e\+300"):
            sol.eval(1e300)
        assert time.perf_counter() - start < 0.01

    def test_past_the_step_cap(self):
        sol = abel.solve_abel("x+1", A=1.0)
        assert sol.eval(2e6) == 1999999.0
        assert sol.inverse(1999999.0) == 2e6

    def test_scaling_to_the_end_of_the_float_range(self):
        # 2^1030 alone overflows, 0.015 * 2^1030 does not
        sol = abel.solve_abel("2*x", A=0.01)
        x = sol.inverse(1030.5)
        assert x == pytest.approx(0.015 * 2.0 ** 500 * 2.0 ** 530, rel=1e-15)
        assert sol.eval(x) == pytest.approx(1030.5, abs=1e-12)

    def test_scaling_on_a_non_positive_domain_steps(self):
        # 0.25*x at -3 expands on [-3, -0.75]: the closed form reads n off
        # a log, so this solution keeps the stepwise pullback
        sol = abel.solve_abel("0.25*x", A=-3.0)
        assert sol.affine is None
        ref = abel.solve_abel(lambda y: 0.25 * y, A=-3.0,
                              f_inv=lambda y: y / 0.25)
        for x in (-3.0, -1.0, -0.5, -0.01):
            assert sol.eval(x) == ref.eval(x)
        for t in (0.0, 0.5, 1.5, 3.25):
            assert sol.inverse(t) == ref.inverse(t)
        with pytest.raises(DomainError, match="does not approach"):
            sol.eval(1.0)

    @given(c=st.floats(min_value=0.1, max_value=10.0),
           A=st.floats(min_value=-10.0, max_value=10.0),
           u=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_translation_matches_exact_arithmetic(self, c, A, u):
        sol = abel.solve_abel(f"x+{c!r}", A=A)
        x = A + u * (1e6 - A)
        assert sol.eval(x) == pytest.approx(_exact_linear_F(sol, x), abs=1e-8)

    @given(m=st.floats(min_value=1.1, max_value=10.0),
           A=st.floats(min_value=0.1, max_value=10.0),
           e=st.floats(min_value=0.0, max_value=1.0),
           contracting=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_scaling_matches_exact_arithmetic(self, m, A, e, contracting):
        text = f"x/{m!r}" if contracting else f"{m!r}*x"
        sol = abel.solve_abel(text, A=A)
        x = A * (1e300 / A) ** e
        assert sol.eval(x) == pytest.approx(_exact_linear_F(sol, x), abs=1e-9)

    @pytest.mark.parametrize("text,A,back,fwd,top", [
        ("x+2", 1.0, lambda y: y - 2.0, lambda y: y + 2.0, 1e6),
        ("2*x", 1.0, lambda y: y / 2.0, lambda y: 2.0 * y, 1.7e308),
        ("x/2", 8.0, lambda y: y / 2.0, lambda y: 2.0 * y, 1.7e308),
    ])
    @given(u=st.floats(min_value=0.0, max_value=1.0),
           t=st.floats(min_value=0.0, max_value=1020.0))
    @settings(max_examples=100, deadline=None)
    def test_powers_of_two_match_stepping_bit_for_bit(self, text, A, back,
                                                      fwd, top, u, t):
        sol = abel.solve_abel(text, A=A)
        F, F_inv = _stepwise(sol, back, fwd)
        x = sol.domain_lo * (top / sol.domain_lo) ** u
        assert sol.eval(x) == F(x)
        assert sol.inverse(t) == F_inv(t)


def _bisected(sol):
    """The no-inverse pullback step of sol, as the solve binds it."""
    return lambda y: funcexpr._bisect(sol.f, y, sol.domain_lo, y, sol.fp)


def _own(name):
    return lambda sol: getattr(sol, name)


# (f, A, seed kind, f_inv, pullback, push, top of the x range): one
# solution on each evaluation path a solve can bind; the pullback and push
# maps take the solution, so a derived inverse and bisection are its own.
# Domains of non-dyadic width keep the seed's rounding visible.
_PATHS = [
    # affine with dyadic steps, where the closed form is stepping exactly
    ("x+2", 1.0, "linear", None, lambda s: lambda y: y - 2.0,
     lambda s: lambda y: y + 2.0, 1e6),
    ("2*x", 1.0, "linear", None, lambda s: lambda y: y / 2.0,
     lambda s: lambda y: 2.0 * y, 1e300),
    ("x/2", 8.0, "linear", None, lambda s: lambda y: y / 2.0,
     lambda s: lambda y: 2.0 * y, 1e300),
    ("2*x", 1.0, "smooth_c1", None, lambda s: lambda y: y / 2.0,
     lambda s: lambda y: 2.0 * y, 1e300),
    # stepping with a given inverse, and a contracting map's derived one
    ("x^2", 3.0, "linear", math.sqrt, _own("f_inv"), _own("f"), 1e150),
    ("exp(x)", 0.5, "linear", math.log, _own("f_inv"), _own("f"), 700.0),
    ("sqrt(x)", 16.0, "linear", None, _own("f"), _own("f_inv"), 1e150),
    # bisection without an inverse, on both seeds
    ("x+sqrt(x)", 1.3, "linear", None, _bisected, _own("f"), 1e5),
    ("x+sqrt(x)", 1.3, "smooth_c1", None, _bisected, _own("f"), 1e5),
]


class TestBoundPaths:
    """eval, inverse and fractional_iterate run the path that the solve
    bound; on each path they give the stepwise reference's floats bit for
    bit, and so does the solution a JSON round trip solves again."""

    @pytest.mark.parametrize("text,A,seed_kind,f_inv,back,fwd,top", _PATHS,
                             ids=[f"{p[0]}-{p[2]}" for p in _PATHS])
    @given(u=st.floats(min_value=0.0, max_value=1.0),
           lam=st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=25, deadline=None)
    def test_same_floats_as_stepping(self, text, A, seed_kind, f_inv, back,
                                     fwd, top, u, lam):
        sol = abel.solve_abel(text, A, seed_kind, f_inv=f_inv)
        for s in (sol, abel.solution_from_json(abel.solution_to_json(sol))):
            F, F_inv = _stepwise(s, back(s), fwd(s))
            x = s.domain_lo * (top / s.domain_lo) ** u
            t = F(x)
            assert s.eval(x) == t
            assert s.inverse(t) == F_inv(t)
            if t + lam >= 0.0:
                assert s.fractional_iterate(lam, x) == F_inv(t + lam)

    @pytest.mark.parametrize("f,A,f_inv,method,arg,message", [
        ("2*x", 1.0, None, "eval", math.nan, "the Abel solution is not defined at nan"),
        ("x^2", 2.0, None, "eval", -math.inf,
         "the Abel solution is not defined at -inf"),
        ("2*x", 1.0, None, "inverse", math.inf,
         "the Abel solution's inverse is not defined at inf"),
        ("x+sqrt(x)", 1.0, None, "eval", 0.5, "0.5 below the solution base 1.0"),
        ("x^2", 2.0, None, "inverse", -0.5, "-0.5 below the solution range start 0.0"),
        ("x^2", 0.5, None, "eval", 3.0,
         "the pullback of 3.0 does not approach the fundamental domain "
         "[0.25, 0.5] of base A=0.5 (a step from 3.0 gave 9.0)"),
        (lambda y: y + 1.0, 1.0, lambda y: y - 1.0, "eval", 3e6,
         "pullback failed to enter the fundamental domain"),
        ("x^2", 2.0, None, "inverse", 1e7,
         "10000000.0 needs more than 1000000 steps from the fundamental domain"),
        ("x+1", 1.0, None, "eval", 1e300,
         "the pullback of 1e+300 into the fundamental domain [1.0, 2.0] is lost "
         "in float rounding: one step of f does not change a number of that size"),
        ("x+1e-13", 0.5, None, "eval", 1e308,
         "the pullback of 1e+308 overflows its step count"),
        ("x^2", 2.0, None, "inverse", 2000.0,
         "the inverse at 2000.0 leaves the float range"),
        ("2*x", 1.0, None, "inverse", 1030.0,
         "the inverse at 1030.0 leaves the float range"),
    ], ids=["nan", "-inf", "inverse-inf", "below-base", "below-range",
            "no-approach", "step-cap", "inverse-step-cap", "rounding-loss",
            "step-count-overflow", "push-overflow", "closed-form-overflow"])
    def test_errors_keep_their_messages(self, f, A, f_inv, method, arg, message):
        sol = abel.solve_abel(f, A, f_inv=f_inv)
        with pytest.raises(DomainError) as err:
            getattr(sol, method)(arg)
        assert str(err.value) == message


# every path of _PATHS, plus a callable with a callable inverse
_SLACK_PATHS = [p[:4] for p in _PATHS] + [(lambda y: y * y, 3.0, "linear", math.sqrt)]


class TestRangeStartSlack:
    """A target in the rounding slack just below the range start takes no
    step: the seed's inverse answers near the domain's lower end, as eval
    answers the seed's value in the slack past the domain's ends."""

    @pytest.mark.parametrize("f,A,seed_kind,f_inv", _SLACK_PATHS,
                             ids=[f"{p[0]}-{p[2]}" for p in _PATHS] + ["callable"])
    def test_inverse_answers_the_domain_start(self, f, A, seed_kind, f_inv):
        sol = abel.solve_abel(f, A, seed_kind, f_inv=f_inv)
        lo, hi = sol.domain_lo, sol.domain_hi
        assert sol.inverse(0.0) == lo
        for t in (-1e-13, -5e-13, -9e-13):
            assert abs(sol.inverse(t) - lo) <= 1e-12 * (hi - lo) + 4 * math.ulp(lo), t


# points just past the end of a wide domain, and on domains far narrower
# than 1e-12 (exact F: 5.5, about 50, about 332.1 and 1993.1), with f and
# f^-1 as callables for the stepwise path, and the tolerances of the closed
# form and of stepping: a step of 1e-13 at 0.5 rounds by up to 5.6e-4 of
# itself, and the stepwise pullback pays that once a step, 50 times
_EDGE_CASES = [
    ("x+1", lambda y: y + 1.0, lambda y: y - 1.0, 1e13, (1e13 + 5.5,),
     1e-9, 1e-9),
    ("x+1e-13", lambda y: y + 1e-13, lambda y: y - 1e-13, 0.5, (0.5 + 5e-12,),
     1e-2, 5e-2),
    ("2*x", lambda y: 2.0 * y, lambda y: y / 2.0, 1e-300, (1e-200, 1e300),
     1e-9, 1e-9),
]


class TestDomainEdgeTolerance:
    """The slack at the domain ends is a fraction of the domain's width, so
    such points are pulled back, not clamped to the domain's upper end."""

    @pytest.mark.parametrize("text,f,f_inv,A,xs,tol,step_tol", _EDGE_CASES,
                             ids=[case[0] for case in _EDGE_CASES])
    def test_matches_exact_arithmetic(self, text, f, f_inv, A, xs, tol,
                                      step_tol):
        closed = abel.solve_abel(text, A=A)
        stepwise = abel.solve_abel(f, A=A, f_inv=f_inv)
        assert closed.affine is not None and stepwise.affine is None
        for x in xs:
            exact = _exact_linear_F(closed, x)
            assert closed.eval(x) == pytest.approx(exact, abs=tol)
            assert stepwise.eval(x) == pytest.approx(exact, abs=step_tol)

    def test_below_a_tiny_base_rejected(self):
        sol = abel.solve_abel("2*x", A=1e-300)
        for x in (0.0, 0.5e-300):
            with pytest.raises(DomainError, match="below the solution base"):
                sol.eval(x)


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

    def test_solve_evaluates_f_once_at_A(self):
        calls = []

        def counted(x):
            calls.append(x)
            return math.log(x)

        abel.solve_abel_regularized(counted, A=2.0)
        assert calls.count(2.0) == 1
        assert len(calls) == 49

    def test_f_and_each_derivative_compiled_once(self, monkeypatch):
        # f' is compiled once: it is fp, and f'' is its derivative
        compiled = []
        compile_expr = funcexpr.compile_expr

        def counting(expr):
            compiled.append(funcexpr.to_text(expr))
            return compile_expr(expr)

        monkeypatch.setattr(funcexpr, "compile_expr", counting)
        abel.solve_abel_regularized("log(x)", A=2.0)
        assert compiled == ["log(x)", "1/x", "-1/x^2"]

    def test_second_derivative_falls_back_to_numeric(self):
        # f' of xi_4 is a dxi_4 node, which has no symbolic derivative:
        # f'' is the central difference of f'
        sol = abel.solve_abel_regularized("xi_4(x)", A=10.0)
        for x in (10.0, 20.0, 1e3):
            assert sol.fp(x) == funcexpr.Fn("xi_4(x)").derivative(x)
            assert sol.fpp(x) == funcexpr._numdiff(sol.fp, x)

    def test_callable_derivatives_are_central_differences(self):
        # a callable's f' is Fn's central difference, and f'' one of f'
        sol = abel.solve_abel_regularized(math.log, A=2.0)
        fp = funcexpr.Fn(math.log).derivative
        for x in (3.0, 20.0, 1e3):
            assert sol.fp(x) == fp(x)
            assert sol.fpp(x) == funcexpr._numdiff(fp, x)

    def test_f_without_symbolic_derivative_rejected(self):
        with pytest.raises(funcexpr.EvalError, match="abs is not differentiable"):
            abel.solve_abel_regularized("abs(log(x))", A=3.0)

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

    def test_regularity_ratio_matches_numeric_log_F_prime(self, reg_log):
        # -x (log F')' by a central difference of log F', itself a central
        # difference of F: independent of H and of how F is built
        for x in (1.5, 3.0, 10.0, 1e3, 1e5, 1e8):
            h = 1e-3 * x
            slope = (_central_log_F_prime(reg_log.F, x + h)
                     - _central_log_F_prime(reg_log.F, x - h)) / (2 * h)
            assert reg_log.regularity_ratio(x) == pytest.approx(-x * slope, abs=1e-5)
            assert reg_log.regularity_ratio(x) == 1.0 + reg_log.H(x)

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
