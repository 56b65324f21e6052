import functools
import importlib
import inspect
import math
import pkgutil
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import growthcalc
from growthcalc import abel, lixnum
from growthcalc.funcexpr import evaluate, parse
from growthcalc.lixnum import DomainError, LIReal
from growthcalc.xihier import BASE, BASE_XI, HIER, TOP, default_hierarchy
from test_lixnum import lireals


@pytest.fixture(scope="module")
def hier():
    return default_hierarchy()


class TestLowLevels:
    def test_level_0_1_2(self, hier):
        assert hier.xi_k(0, 10.0) == pytest.approx(10.0 - math.e)
        assert hier.xi_k(1, 10.0) == pytest.approx(10.0 / math.e)
        assert hier.xi_k(2, 10.0) == pytest.approx(math.log(10.0))

    def test_level_3_is_exact_super_logarithm(self, hier):
        assert hier.xi_k(3, LIReal(7, 0.25)) == Fraction(7) + Fraction(0.25)

    def test_inverses_roundtrip(self, hier):
        for k in range(0, 7):
            t = 2.3
            v = hier.xi_k_inv(k, t)
            assert float(hier.xi_k(k, v)) == pytest.approx(t, abs=1e-9)

    def test_inverse_refuses_a_level_past_the_top(self):
        with pytest.raises(DomainError, match="level 9 outside 0..8"):
            HIER.xi_k_inv(9, 2.0)

    @pytest.mark.parametrize("k", range(9))
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_inverse_names_a_non_finite_target(self, k, t):
        with pytest.raises(DomainError, match=f"got {t!r}$"):
            HIER.xi_k_inv(k, t)


class TestNormalization:
    def test_base_point(self, hier):
        for k in range(4, 8):
            assert float(hier.xi_k(k, BASE)) == pytest.approx(BASE_XI)

    def test_top_of_fundamental_domain(self, hier):
        # xi_k(e) = 2 for every level >= 4: one pullback step lands on 2
        for k in range(4, 8):
            assert float(hier.xi_k(k, math.e)) == pytest.approx(2.0, abs=1e-12)

    def test_below_base_rejected(self, hier):
        with pytest.raises(DomainError):
            hier.xi_k(4, 1.5)

    def test_strictly_increasing_across_domain_seam(self, hier):
        xs = [2.0 + 0.2 * i for i in range(30)]
        vals = [float(hier.xi_k(4, x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_level_5_on_level_4_value(self, hier):
        # xi_5(xi_4^{-1}(t)) = xi_5(x) + ... counts xi_4 steps
        x = hier.xi_k_inv(4, 3.25)
        assert float(hier.xi_k(4, x)) == pytest.approx(3.25, abs=1e-9)

    @pytest.mark.parametrize("k", range(4, 9))
    def test_inverse_in_the_slack_below_the_base(self, hier, k):
        # t just below BASE_XI takes no step: the seed's inverse is near 2
        assert float(hier.xi_k_inv(k, BASE_XI - 1e-13)) == pytest.approx(BASE, abs=1e-12)

    @pytest.mark.parametrize("x,want", [
        (Fraction(math.e), 2.0),
        (Fraction(math.e) - Fraction(1, 10 ** 40), 2.0),
        (Fraction(math.e) + Fraction(1, 10 ** 40), 2.0),
        (Fraction(2.0 - 1e-9), 1.0),
        (Fraction(2.0 - 1e-9) - Fraction(1, 10 ** 40), "below its base 2.0"),
        (Fraction(2.0 - 1e-9) + Fraction(1, 10 ** 40), 1.0),
        (2, 1.0),
        (3, 2.1309344381138846),
    ])
    def test_exact_rationals_at_the_domain_bounds(self, hier, x, want):
        # an int or a Fraction is tested exactly against the float bounds e
        # and 2 - 1e-9, on either side of each to 1e-40
        if isinstance(want, str):
            with pytest.raises(DomainError, match=want):
                hier.xi_k(4, x)
        else:
            assert hier.xi_k(4, x) == want

    def test_tower_argument(self, hier):
        v = float(hier.xi_k(4, LIReal(30, 0.5)))
        # xi(tower of level 30) = 30.5, and xi_4 of a value with xi = t
        # is 1 + xi_4 of t pulled down; just pin monotonicity + range
        w = float(hier.xi_k(4, LIReal(60, 0.5)))
        assert w > v > 2.0

    def test_huge_integer_level_argument(self, hier):
        # levels far past the float range flow through the exact branch
        v = float(hier.xi_k(4, LIReal(10 ** 120, 0.5)))
        w = float(hier.xi_k(4, LIReal(10 ** 240, 0.5)))
        assert w > v > 2.0


def _fraction_xi_k(k, x):
    """xi_k for k >= 4 with every xi_3 step an exact Fraction, compared with
    e as a Fraction and rounded to a float only at the end."""
    y, n = x, 0
    while HIER._at_least(y, TOP):
        if k == 4:
            v = lixnum.to_li(y)
            y = Fraction(v.level) + Fraction(v.mantissa)
        else:
            y = _fraction_xi_k(k - 1, y)
        n += 1
        if n > 10 ** 6:
            raise DomainError(f"xi_{k} pullback failed to terminate")
    if not HIER._at_least(y, BASE - 1e-9):
        raise DomainError(f"xi_{k} argument below its base {BASE}")
    return n + HIER._seed(min(max(float(y), BASE), TOP))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # the exception type and message are the outcome
        return f"{type(exc).__name__}: {exc}"


_E_MINUS_2 = math.e - 2.0
# around the last exact float integer, and past the float range
_BIG_LEVELS = (2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 10 ** 60, 10 ** 300, 10 ** 400)
_EDGE_ARGS = [
    LIReal(2, _E_MINUS_2),
    LIReal(2, math.nextafter(_E_MINUS_2, 0.0)),
    LIReal(2, math.nextafter(_E_MINUS_2, 1.0)),
    math.e,
    math.nextafter(math.e, 0.0),
    Fraction(math.e),
    *[LIReal(k, m) for k in _BIG_LEVELS for m in (0.0, 0.5, math.nextafter(1.0, 0.0))],
    LIReal(-1, 0.5), LIReal(-1, 0.0),
    Fraction(10 ** 400, 3), Fraction(-(10 ** 400), 3), -(10 ** 400),
    2.0, 1.5, 1e300, LIReal(7, 0.0), LIReal(4, 0.9),
]


class TestXi4PullbackMatchesFractions:
    """xi_k for k >= 4 gives the same float, or the same exception, as the
    pullback that steps on exact Fractions."""

    @pytest.mark.parametrize("x", _EDGE_ARGS, ids=lambda x: repr(x)[:40])
    def test_edge_arguments(self, x):
        for k in range(4, 9):
            assert _outcome(HIER.xi_k, k, x) == _outcome(_fraction_xi_k, k, x)

    @given(st.one_of(
        st.floats(min_value=1.9, max_value=1e300),
        lireals(st.integers(min_value=-1, max_value=60),
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        st.builds(Fraction, st.integers(min_value=1, max_value=10 ** 400),
                  st.integers(min_value=1, max_value=10 ** 30)),
    ))
    @settings(max_examples=150)
    def test_drawn_arguments(self, x):
        for k in range(4, 9):
            assert _outcome(HIER.xi_k, k, x) == _outcome(_fraction_xi_k, k, x)


_LI_E = lixnum.to_li(math.e)


def _reference_xi_k(k, x):
    """xi_k as it was computed before the float loop: each nested pullback
    step re-enters xi_k, and only the xi_4 steps run on (L, m) pairs."""
    if not 0 <= k <= 8:
        raise DomainError(f"level {k} outside 0..8")
    if k <= 2 and not isinstance(x, LIReal):
        try:
            float(x)
        except OverflowError:  # past the float range: a tower, or its log
            if k == 2 and x > 0:
                return math.log(x.numerator) - math.log(x.denominator)
            x = lixnum.to_li(x)
    if k == 0:
        return lixnum.sub(x, _LI_E) if isinstance(x, LIReal) else float(x) - math.e
    if k == 1:
        return lixnum.div(x, _LI_E) if isinstance(x, LIReal) else float(x) / math.e
    if k == 2:
        if isinstance(x, LIReal):
            w = lixnum.ln_li(x)
            try:
                return float(w)
            except DomainError:
                return w
        xf = float(x)
        if xf <= 0:
            raise DomainError(f"log of non-positive value {xf!r}")
        return math.log(xf)
    if k == 3:
        return lixnum.xi_exact(lixnum.to_li(x))
    n, y = 0, x
    if k == 4 and HIER._at_least(x, TOP):
        v = lixnum.to_li(x)
        level, m, n = v.level, v.mantissa, 1
        while level >= 3 or (level == 2 and m >= _E_MINUS_2):
            if level < 2 ** 53:
                level, m = lixnum._pair_any(level + m)
            else:
                v = lixnum.to_li(level + Fraction(m))
                level, m = v.level, v.mantissa
            n += 1
        y = level + m
    while k > 4 and HIER._at_least(y, TOP):
        y = _reference_xi_k(k - 1, y)
        n += 1
    if not HIER._at_least(y, BASE - 1e-9):
        raise DomainError(f"xi_{k} argument below its base {BASE}")
    return n + HIER._seed(min(max(float(y), BASE), TOP))


def _reference_xi_k_deriv(k, x):
    """xi_k' as it was computed before the float loop: the orbit steps
    through _reference_xi_k."""
    if not 0 <= k <= 8:
        raise DomainError(f"level {k} outside 0..8")
    if k <= 1:
        return math.e ** -k
    if k == 2:
        if x <= 0:
            raise DomainError(f"log of non-positive value {x!r}")
        return 1.0 / x
    if k == 3:
        if x < 0:
            return math.exp(x)
        c = HIER.chi(x)
        if isinstance(c, LIReal):
            return math.exp(-float(lixnum.ln_li(c)))
        return 1.0 / c
    slope = 1.0
    while x >= TOP:
        slope *= _reference_xi_k_deriv(k - 1, x)
        x = float(_reference_xi_k(k - 1, x))
    if not x >= BASE - 1e-9:
        raise DomainError(f"xi_{k} argument below its base {BASE}")
    return slope / (TOP - BASE)


_REF_GRID = [
    -1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.0 + 1e-9, 2.0 - 1e-9, math.e,
    math.nextafter(math.e, 0.0), math.nextafter(math.e, 3.0), 3.0, 15.15,
    1e8, 1e300, 1.7976931348623157e308, math.inf, -math.inf,
    1, 2, 3, 10 ** 6, 10 ** 400, -(10 ** 400), Fraction(10 ** 400, 3),
    Fraction(-(10 ** 400), 3), Fraction(math.e), Fraction(7, 3),
    # exactly below the base and below e, but rounding onto them as floats
    Fraction(2.0 - 1e-9) - Fraction(1, 10 ** 30), Fraction(math.e) - Fraction(1, 10 ** 30),
    *[LIReal(level, m) for level in range(-1, 61)
      for m in (0.0, 0.25, 0.5, _E_MINUS_2, math.nextafter(_E_MINUS_2, 0.0),
                math.nextafter(1.0, 0.0))],
    *[LIReal(10 ** k, 0.5) for k in range(0, 400, 25)],
    *[LIReal(2 ** 53 + d, 0.5) for d in (-1, 0, 1)],
]


class TestFloatLoopMatchesReference:
    """xi_k and xi_k', k = 0..8, give the same repr, or the same exception
    and message, as the pullback that re-enters xi_k at every step."""

    @staticmethod
    def _check(x):
        for k in range(9):
            assert _outcome(HIER.xi_k, k, x) == _outcome(_reference_xi_k, k, x), (k, x)
            assert (_outcome(HIER._xi_k_deriv, k, x)
                    == _outcome(_reference_xi_k_deriv, k, x)), (k, x)

    def test_grid(self):
        for x in _REF_GRID:
            self._check(x)

    @given(st.one_of(
        st.floats(min_value=-1.0, max_value=1.8e308),
        st.integers(min_value=2 ** 1024, max_value=10 ** 700),
        st.builds(Fraction, st.integers(min_value=2 ** 1040, max_value=10 ** 700),
                  st.integers(min_value=1, max_value=10 ** 6)),
        lireals(st.integers(min_value=-1, max_value=60),
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        st.builds(LIReal, st.integers(min_value=0, max_value=400).map(lambda k: 10 ** k),
                  st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    ))
    @settings(max_examples=300)
    def test_drawn(self, x):
        self._check(x)

    @pytest.mark.parametrize("k", range(4, 9))
    def test_nan_names_the_non_finite_argument(self, k):
        # NaN is below nothing; the reference called it below the base
        with pytest.raises(DomainError, match="^to_li requires a finite value, got nan$"):
            HIER.xi_k(k, math.nan)


_CHI_MANTISSAS = (0.0, 1e-12, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999999)


def _finite_float(fn, *args):
    """float(fn(*args)), or None where it is past the float range."""
    try:
        v = float(fn(*args))
    except (DomainError, OverflowError):
        return None
    return v if math.isfinite(v) else None


class TestAbelOfTheLevelBelow:
    """xi_k, k >= 4, is BASE_XI plus the linear-seed Abel solution of
    f = xi_{k-1}^{-1} with base 2 and f^-1 = xi_{k-1}: the same [2, e)
    domain, seed and step count, reached by the separate abel solver."""

    @pytest.mark.parametrize("k", range(4, 9))
    def test_same_values_as_the_abel_solver(self, k):
        sol = abel.solve_abel(lambda t: float(HIER.xi_k_inv(k - 1, t)), BASE,
                              f_inv=lambda y: float(HIER.xi_k(k - 1, y)))
        assert (sol.domain_lo, sol.domain_hi) == (BASE, TOP)
        for i in range(12):
            x = BASE * (1e300 / BASE) ** (i / 11)
            want = HIER.xi_k(k, x)
            assert abs(BASE_XI + sol.eval(x) - want) <= math.ulp(want), x
        compared = 0
        for t in (BASE_XI - 1e-13, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.75, 4.5, 5.5):
            want = _finite_float(HIER.xi_k_inv, k, t)
            got = _finite_float(sol.inverse, t - BASE_XI)
            if want is not None and got is not None:
                assert got == want, t
                compared += 1
        assert compared >= 7


def _chi_by_every_term(x):
    """chi summed over every term of ln x + ln ln x + ..., the flag of the
    last addition kept: the loop before the early stop."""
    if isinstance(x, LIReal):
        level, m = x.level, x.mantissa
    else:
        try:
            xf = float(x)
        except OverflowError:
            x = lixnum.to_li(x)
            level, m = x.level, x.mantissa
        else:
            if xf <= 1.0:
                return 1.0
            level, m = lixnum._pair_any(xf)
    al, am, absorbed = 0, 0.0, False
    while level > 1 or (level == 1 and m > 0.0):
        level -= 1
        al, am, absorbed = lixnum._add_pair(al, am, level, m)
    try:
        return lixnum._real(al + 1, am)
    except DomainError:
        return LIReal(al + 1, am, absorbed)


CHI_ULPS = 4  # chi of a float against mpmath, in units of 2^-52 (relative)


def _float_product(x: float) -> float:
    """x * ln x * ln ln x * ..., each iterate above 1, in floats."""
    p, t = x, math.log(x)
    while t > 1.0:
        p *= t
        t = math.log(t)
    return p


@functools.cache
def last_finite_product() -> float:
    """The largest float whose float product is finite (about 2.08e304)."""
    lo, hi = 1e304, 1e305
    while math.nextafter(lo, math.inf) < hi:
        mid = lo + (hi - lo) / 2
        lo, hi = (mid, hi) if _float_product(mid) < math.inf else (lo, mid)
    return lo


def on_float_path(x) -> bool:
    """Whether chi(x) is the float product: x is no tower, and float(x) is
    above 1 and at most the last float whose product is finite."""
    if isinstance(x, LIReal):
        return False
    try:
        return 1.0 < float(x) <= last_finite_product()
    except OverflowError:  # an int or Fraction past the float range
        return False


def chi_ulps(got: float, x) -> float:
    """The relative error of got as chi(float(x)), in units of 2^-52, against
    the product at 50 digits."""
    with mpmath.workdps(50):
        p = mpmath.mpf(float(x))
        t = mpmath.log(p)
        while t > 1:
            p *= t
            t = mpmath.log(t)
        return float(abs(mpmath.mpf(got) - p) / p) / 2.0 ** -52


class TestChi:
    def test_band_value(self, hier):
        assert hier.chi(0.5) == 1.0

    @given(st.floats(min_value=1.2, max_value=500.0))
    @settings(max_examples=60)
    def test_recursion_property(self, x):
        hier = default_hierarchy()
        assert hier.chi(x) == pytest.approx(x * hier.chi(math.log(x)),
                                            rel=1e-12)

    def test_recursion_samples(self, hier):
        for x in (1.5, 3.0, 10.0, 200.0, 1e5, 1e12):
            assert hier.chi(x) == pytest.approx(x * hier.chi(math.log(x)),
                                                rel=1e-12)

    def test_matches_explicit_product(self, hier):
        # chi(x) = x log x log_2 x ... down into [0, 1]
        x = 1e8
        explicit, t = x, math.log(x)
        while t > 1.0:
            explicit *= t
            t = math.log(t)
        assert hier.chi(x) == pytest.approx(explicit, rel=1e-12)

    def test_tower_output_is_li(self, hier):
        out = hier.chi(LIReal(8, 0.5))
        assert isinstance(out, LIReal)

    def test_negative_rejected(self, hier):
        with pytest.raises(DomainError):
            hier.chi(-1.0)

    def test_early_stop_matches_every_term(self):
        # the sum stops at its first absorbed addition; summing every term
        # gives the same value and the same absorbed flag.  A point on the
        # float product's path is held to mpmath instead
        points = [LIReal(level, m) for level in range(61) for m in _CHI_MANTISSAS]
        points += [LIReal(-1, 0.5), 0.0, 0.5, 1.0, 1.0000001, 1.5, math.e,
                   15.15, 1e8, 1e300, 1.7e308, 1, 2, 3, 10 ** 6, 10 ** 400,
                   Fraction(7, 3), Fraction(10 ** 400, 3)]
        for x in points:
            got = HIER.chi(x)
            if on_float_path(x):
                assert type(got) is float and chi_ulps(got, x) <= CHI_ULPS, x
                continue
            want = _chi_by_every_term(x)
            if isinstance(want, LIReal):
                assert isinstance(got, LIReal), x
                assert ((got.level, got.mantissa, got.absorbed)
                        == (want.level, want.mantissa, want.absorbed)), x
            else:
                assert got == want and not isinstance(got, LIReal), x

    @settings(max_examples=300)
    @given(st.floats(min_value=1.0, max_value=2.08e304, exclude_min=True))
    @example(math.nextafter(1.0, 2.0))
    @example(math.e)
    @example(1e10)
    @example(1.33e253)  # the pair sum's worst draw: 11,633 units off
    def test_float_is_within_the_bound_of_mpmath(self, x):
        got = HIER.chi(x)
        assert type(got) is float
        assert chi_ulps(got, x) <= CHI_ULPS

    def test_switch_to_the_pair_sum_is_continuous(self):
        # the last float whose product is finite, and the float after it;
        # the pair sum is off by about 2.5e-12 there, so the bound is 1e-11
        last = last_finite_product()
        below, above = HIER.chi(last), HIER.chi(math.nextafter(last, math.inf))
        assert type(below) is float and isinstance(above, LIReal)
        # |ln a - ln b| is the relative difference, to first order
        assert abs(math.log(below) - float(lixnum.ln_li(above))) <= 1e-11
        assert lixnum.to_li(below) <= above

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_non_finite_is_refused(self, x):
        with pytest.raises(DomainError, match=f"^to_li requires a finite value, got {x!r}$"):
            HIER.chi(x)

    def test_high_tower_is_prompt(self, capsys):
        # the early stop makes chi independent of the level past the first
        # absorbed term; summing all 1e20 terms would not finish
        from growthcalc import cli
        assert cli.main(["eval", "chi(x)", "--at", "L99999999999999999999:0.5"]) == 0
        out = capsys.readouterr().out
        assert '"value": "L99999999999999999999:0.5"' in out


class TestDerivative:
    @pytest.mark.parametrize("x", [2.0005, 2.001, 2.5])
    def test_seed_slope_on_the_fundamental_domain(self, x):
        # xi_4 is the linear seed on [2, e); a stencil there would reach
        # below the base 2
        assert evaluate(parse("dxi_4(x)"), x) == 1.0 / (math.e - 2.0)

    def test_dxi_4_matches_central_difference(self, hier):
        x = 50.0
        h = 1e-4 * x
        d = (float(hier.xi_k(4, x + h)) - float(hier.xi_k(4, x - h))) / (2 * h)
        assert evaluate(parse("dxi_4(x)"), x) == pytest.approx(d, rel=1e-3)

    def test_level_3_closed_form_at_both_ends(self):
        # xi_3(x) = e^x - 1 below 0; past about 1e304, chi leaves the float
        # range and 1/chi(x) = exp(-(ln x + ln ln x + ...)) is subnormal
        assert evaluate(parse("dxi_3(x)"), -2.0) == pytest.approx(math.exp(-2.0))
        log_chi, t = 0.0, 1e308
        while t > 1.0:
            t = math.log(t)
            log_chi += t
        assert evaluate(parse("dxi_3(x)"), 1e308) == pytest.approx(
            math.exp(-log_chi), rel=1e-9)

    @pytest.mark.parametrize("k", range(4, 9))
    def test_nan_names_the_non_finite_argument(self, k):
        # as xi_k does: NaN is below nothing, so not below the base either
        with pytest.raises(DomainError, match="^to_li requires a finite value, got nan$"):
            evaluate(parse(f"dxi_{k}(x)"), math.nan)

    @pytest.mark.parametrize("text,x", [("dxi_4(x)", 1.5), ("dxi_9(x)", 10.0),
                                        ("dxi_2(x)", 0.0), ("dxi_2(x)", -1.0)])
    def test_domain_errors(self, text, x):
        with pytest.raises(DomainError):
            evaluate(parse(text), x)


class TestConstruction:
    def test_level_out_of_range(self, hier):
        with pytest.raises(DomainError):
            hier.xi_k(99, 5.0)

    def test_default_is_shared(self):
        assert default_hierarchy() is default_hierarchy()


def _public_callables():
    """(qualified name, routine) for every public function of every
    growthcalc module, and for __init__ and the public methods of its
    public classes."""
    for info in pkgutil.iter_modules(growthcalc.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"growthcalc.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr in vars(obj):
                    meth = getattr(obj, attr)
                    if ((attr == "__init__" or not attr.startswith("_"))
                            and inspect.isroutine(meth)):
                        yield f"{mod.__name__}.{name}.{attr}", meth
            elif inspect.isroutine(obj):
                yield f"{mod.__name__}.{name}", obj


@pytest.mark.parametrize("module", sorted(
    ["growthcalc"] + [f"growthcalc.{info.name}"
                      for info in pkgutil.iter_modules(growthcalc.__path__)]))
def test_star_import_finds_every_exported_name(module):
    # a name left in __all__ after its definition is deleted fails here
    exec(f"from {module} import *", {})


class TestOneHierarchy:
    def test_no_public_callable_selects_a_hierarchy(self):
        found = list(_public_callables())
        assert len(found) > 100
        takers = [q for q, fn in found
                  if {"hier", "max_level"} & set(inspect.signature(fn).parameters)]
        assert takers == []

    def test_xi_node_reads_the_fixed_hierarchy(self):
        assert default_hierarchy() is HIER
        assert evaluate(parse("xi(x)"), 3.0) == HIER.xi_k(3, 3.0)
