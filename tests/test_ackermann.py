import math

import pytest

from growthcalc import ackermann, lixnum
from growthcalc.ackermann import (
    A_real, G_real, ack, op_L, supported_envelope,
    xi_inv_handle,
)
from growthcalc.lixnum import DomainError, LIReal
from growthcalc.xihier import default_hierarchy


def ack_closed_form(m: int, n: int) -> int:
    """The m <= 2 closed forms, an oracle independent of ack."""
    if m == 0:
        return n + 2
    if m == 1:
        return 2 * n + 2
    if m == 2:
        return 2 ** (n + 2) - 2
    raise DomainError(f"no closed form for m={m!r}")


def brute(m, n):
    # direct recursion, no closed forms: an independent oracle
    if n == 0:
        return 2
    if m == 0:
        return n + 2
    return brute(m - 1, brute(m, n - 1))


class TestExactValues:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(3)
                                     for n in range(4)] + [(3, 0), (3, 1)])
    def test_matches_direct_recursion(self, m, n):
        # (3, 2) and beyond blow the Python stack in the direct recursion
        assert ack(m, n) == brute(m, n)

    def test_closed_forms(self):
        for n in range(0, 50):
            assert ack(0, n) == ack_closed_form(0, n) == n + 2
            assert ack(1, n) == ack_closed_form(1, n) == 2 * n + 2
            assert ack(2, n) == ack_closed_form(2, n) == 2 ** (n + 2) - 2

    def test_no_closed_form_above_two(self):
        with pytest.raises(DomainError):
            ack_closed_form(3, 1)

    def test_tower_anchors(self):
        assert ack(3, 0) == 2
        assert ack(3, 1) == 14
        assert ack(3, 2) == 65534
        assert ack(3, 3) == 2 ** 65536 - 2
        assert ack(4, 0) == 2
        assert ack(4, 1) == 65534

    def test_values_past_exact_range_are_towers(self):
        v = ack(3, 4)
        assert isinstance(v, LIReal)
        w = ack(3, 5)
        assert isinstance(w, LIReal) and w > v
        assert isinstance(ack(4, 2), LIReal)

    def test_a4_2_pinned(self):
        # the value 65,534 plain A(2, .) steps give; the level jump must
        # keep it, absorbed flag included
        assert repr(ack(4, 2)) == "LIReal(65535, 0.863931071912917, absorbed)"

    @pytest.mark.parametrize("m,n,level", [(3, 4, 5), (3, 5, 6), (3, 6, 7), (4, 2, 65535)])
    def test_tower_mantissa_matches_mpmath(self, m, n, level):
        # by mpmath at 50 digits, A(3, 4) = 2^(2^65536) - 2 is
        # L5:0.86393107191291692300601183890...; every later A(3, n) has
        # that mantissa to better than 10^-19000, as the step's -2 and
        # ln ln 2 shift it by less.  A step that drops ln ln 2 at level 3
        # reads 0.8639313890411017, the mantissa of A(3, 3).
        v = ack(m, n)
        assert (v.level, v.mantissa) == (level, 0.86393107191291692300601183890)

    def test_level_jump_matches_plain_stepping(self):
        def key(v):
            if isinstance(v, LIReal):
                return (v.level, v.mantissa, v.absorbed)
            return v

        v = 2
        for count in range(300):
            assert key(ackermann._a2_iterate(2, count)) == key(v), count
            v = ackermann._a2_step(v)

    def test_tower_cache_holds_only_towers(self):
        for m in range(3, 5):
            for n in range(3):
                ack(m, n)
        size = len(ackermann._A3)
        assert size > 1
        for m in range(3):
            for n in range(40):
                ack(m, n)
        assert len(ackermann._A3) == size

    def test_each_rung_steps_from_the_highest_one_known(self, monkeypatch):
        # in a fresh process: 4 steps to A(3, 4) and 1 more to A(3, 5),
        # whose absorbed tower reaches A(3, 6) by a level jump; A(4, 2)
        # takes 2 steps to A(3, 2) = A(4, 1) and jumps from A(3, 6) to
        # A(3, 65534).  Each built from 2, they took 4 + 5 + 5 + 2 + 5
        monkeypatch.setattr(ackermann, "_A3", {0: 2})
        steps = []
        step = ackermann._a2_step
        monkeypatch.setattr(ackermann, "_a2_step", lambda v: steps.append(1) or step(v))
        want = [ack(3, n) for n in (4, 5, 6)] + [ack(4, 2)]
        assert len(steps) == 7
        assert [(v.level, v.mantissa, v.absorbed) for v in want] == [
            (v.level, v.mantissa, v.absorbed)
            for v in (ackermann._a2_iterate(2, n) for n in (4, 5, 6, 65534))]
        assert sorted(ackermann._A3) == [0, 2, 4, 5, 6, 65534]

    def test_range_guards(self):
        with pytest.raises(DomainError):
            ack(5, 0)
        with pytest.raises(DomainError):
            ack(3, 7)
        with pytest.raises(DomainError):
            ack(0, -1)

    def test_envelope_shape(self):
        env = supported_envelope()
        assert env["m_max"] == 4
        assert env["n_max"][3] == 6


class TestRealExtensions:
    @pytest.mark.parametrize("m", range(4))
    def test_g_hits_integer_anchors(self, m):
        for n in range(4):
            v = ack(m, n)
            if isinstance(v, LIReal):
                continue
            assert G_real(m, v) == pytest.approx(float(n), abs=1e-9)

    def test_g3_huge_anchor(self):
        assert G_real(3, 2 ** 65536 - 2) == pytest.approx(3.0, abs=1e-9)

    def test_a_real_inverts_g_real(self):
        for m in range(4):
            for t in (0.0, 0.5, 1.7):
                assert G_real(m, A_real(m, t)) == pytest.approx(t, abs=1e-8)

    def test_a3_interpolates_monotonically(self):
        v = A_real(3, 1.5)
        assert 14.0 < v < 65534.0
        assert A_real(3, 1.6) > v

    def test_level_guards(self):
        with pytest.raises(DomainError):
            G_real(4, 100.0)
        with pytest.raises(DomainError):
            A_real(-1, 1.0)


class TestOpL:
    def test_exp_lowers_to_scaling(self):
        L = op_L("exp(x)", f_inv="log(x)")
        for x in (1.0, 3.0, 40.0):
            assert L(x) == pytest.approx(math.e * x, rel=1e-12)

    def test_scaling_lowers_to_shift(self):
        L = op_L("e*x", f_inv="x/e")
        assert L(5.0) == pytest.approx(5.0 + math.e, rel=1e-12)

    def test_numeric_inverse_fallback(self):
        L = op_L("x^2")
        # f^-1(9) = 3, f(4) = 16
        assert L(9.0) == pytest.approx(16.0, rel=1e-8)

    def test_missing_inverse_rejected(self):
        with pytest.raises(DomainError):
            op_L(lambda x: 2 * x)

    def test_xi_ladder_steps_down_one_level(self):
        hier = default_hierarchy()
        for k in (2, 3):
            L = op_L(xi_inv_handle(k + 1))
            for t in (2.0, 4.5, 9.0):
                got = L(t)
                want = hier.xi_k_inv(k, t)
                diff = abs(float(lixnum.xi_exact(lixnum.to_li(got)) - lixnum.xi_exact(want)))
                assert diff <= 1e-9

    def test_ackermann_anchor_identity(self):
        # A(3, n+1) = A(2, A(3, n)): op_L of the level-3 extension meets
        # the level-2 extension at the anchors
        L3 = op_L(lambda t: A_real(3, t), f_inv=lambda y: G_real(3, y))
        for n in (0, 1):
            x = float(ack(3, n))
            assert L3(x) == A_real(2, x)

    def test_handle_text(self):
        assert op_L("exp(x)", f_inv="log(x)").text == "L[exp(x)]"
