import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import delaylyap as dl
from delaylyap import rational_approx
from delaylyap.errors import NonFiniteInput, OrderUnavailable

from conftest import assert_bits_equal

# The public continued-fraction API that rational_approx._convergent
# replaced, kept verbatim as the reference the property test compares
# against.
MAX_TERMS = 64


@dataclass(frozen=True)
class ContinuedFraction:
    """Expansion x = c0 + 1/(c1 + 1/(c2 + ...)).  c0 >= 0 and all later
    coefficients are >= 1.  exact means the expansion terminated on its
    own rather than being cut at the term cap; floats are expanded through
    their exact binary value, so every float input terminates eventually.
    """

    coefficients: tuple
    value: float
    exact: bool

    def __len__(self) -> int:
        return len(self.coefficients)


def continued_fraction(x, max_terms: int = MAX_TERMS) -> ContinuedFraction:
    """Expand a positive real (float or Fraction) by the Euclidean
    algorithm on its exact rational value."""
    if isinstance(x, float) and not math.isfinite(x):
        raise NonFiniteInput(f"cannot expand {x!r}")
    if x <= 0:
        raise ValueError(f"expansion needs a positive value, got {x}")
    frac = x if isinstance(x, Fraction) else Fraction(x)
    coeffs = []
    exact = False
    for _ in range(max_terms):
        q = frac.numerator // frac.denominator
        coeffs.append(int(q))
        rem = frac - q
        if rem == 0:
            exact = True
            break
        frac = 1 / rem
    return ContinuedFraction(coefficients=tuple(coeffs), value=float(x), exact=exact)


def convergent(cf: ContinuedFraction, order: int) -> Fraction:
    """Order-s convergent p_s/q_s by the standard three-term recurrence.
    Successive convergents alternate around the value and satisfy
    |x - p_s/q_s| <= 1/q_s^2."""
    if order < 0 or order >= len(cf.coefficients):
        raise OrderUnavailable(
            f"expansion has orders 0..{len(cf.coefficients) - 1}, requested {order}"
        )
    p_prev, p = 1, cf.coefficients[0]
    q_prev, q = 0, 1
    for c in cf.coefficients[1:order + 1]:
        p_prev, p = p, c * p + p_prev
        q_prev, q = q, c * q + q_prev
    return Fraction(p, q)


def reference_convergent(x, order: int) -> Fraction:
    """Order-s convergent, or the last one if the expansion ends sooner;
    the expansion runs to s + 1 terms, so no term cap cuts it."""
    cf = continued_fraction(x, order + 1)
    return convergent(cf, min(order, len(cf) - 1))


log_uniform_floats = st.floats(-30.0, 30.0).map(lambda e: 10.0**e)
positive_fractions = st.fractions(min_value=Fraction(1, 10**9), max_value=10**9, max_denominator=10**12)


class TestContinuedFraction:
    def test_sqrt2_pattern(self):
        # the ideal expansion is all 2s, so the convergents follow the Pell
        # recurrence; the float input keeps to it until its own binary
        # precision runs out around term 21
        p_prev, p, q_prev, q = 1, 1, 0, 1
        for s in range(20):
            assert rational_approx._convergent(math.sqrt(2.0), s) == Fraction(p, q)
            p_prev, p = p, 2 * p + p_prev
            q_prev, q = q, 2 * q + q_prev

    def test_golden_ratio_pattern(self):
        # all 1s: ratios of successive Fibonacci numbers
        fib = [1, 1]
        while len(fib) < 14:
            fib.append(fib[-1] + fib[-2])
        for s in range(12):
            got = rational_approx._convergent((1 + math.sqrt(5.0)) / 2, s)
            assert got == Fraction(fib[s + 1], fib[s])

    def test_exact_rational_terminates(self):
        assert rational_approx._convergent(Fraction(3, 2), 0) == 1
        for s in (1, 2, 7):
            assert rational_approx._convergent(Fraction(3, 2), s) == Fraction(3, 2)


class TestConvergents:
    def test_sqrt2_key_orders(self):
        x = math.sqrt(2.0)
        assert rational_approx._convergent(x, 1) == Fraction(3, 2)
        assert rational_approx._convergent(x, 4) == Fraction(41, 29)
        assert rational_approx._convergent(x, 7) == Fraction(577, 408)

    @settings(max_examples=200, deadline=None)
    @given(x=st.one_of(log_uniform_floats, positive_fractions), order=st.integers(0, 80))
    def test_matches_reference(self, x, order):
        assert rational_approx._convergent(x, order) == reference_convergent(x, order)

    def test_matches_reference_on_exact_inputs(self):
        for x in (Fraction(3, 2), Fraction(7), Fraction(355, 113), 1.5, 2.0, 0.3):
            for order in range(8):
                assert rational_approx._convergent(x, order) == reference_convergent(x, order)

    def test_order_out_of_range(self, ex3):
        # a float system has no convergent of negative order; the message
        # names the order, not some delay's expansion
        with pytest.raises(dl.OrderUnavailable, match="requested -1"):
            dl.approximate_system(ex3, -1)

    def test_rational_system_passes_through_any_order(self, ex2a):
        form = dl.approximate_system(ex2a, -1)
        assert (form.h, form.m) == (Fraction(1, 2), 3)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False))
    def test_quadratic_approximation_quality(self, x):
        for s in range(20):
            frac = rational_approx._convergent(x, s)
            err = abs(x - float(frac))
            assert err <= 1.0 / frac.denominator**2 + 1e-15

    @settings(max_examples=30, deadline=None)
    @given(x=st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False))
    def test_exact_recovery_of_floats(self, x):
        # floats are rationals with denominators below 2^60, whose
        # expansions end within 90 terms, so a high order recovers them
        assert rational_approx._convergent(x, 200) == Fraction(x)


class TestApproximateSystem:
    def test_ladder_geometry(self, ex3):
        for order, h, m in ((1, Fraction(1, 2), 3), (4, Fraction(1, 29), 41), (7, Fraction(1, 408), 577)):
            form = dl.approximate_system(ex3, order)
            assert form.h == h
            assert form.m == m

    def test_exact_delay_kept_verbatim(self, ex3):
        form = dl.approximate_system(ex3, 4)
        back = form.to_system()
        assert back.delays[0] == Fraction(1)
        assert back.delays[1] == Fraction(41, 29)

    def test_rational_system_passthrough(self, ex2a):
        for order in (1, 3, 9):
            form = dl.approximate_system(ex2a, order)
            assert form.h == Fraction(1, 2)
            assert form.m == 3

    def test_collision_merges_coefficients(self):
        a1 = np.array([[0.2]])
        a2 = np.array([[0.3]])
        vsys = dl.validate(dl.DelaySystem(1, [
            (math.sqrt(2.0), a1), (Fraction(3, 2), a2),
        ]))
        form = dl.approximate_system(vsys, 1)
        back = form.to_system()
        assert back.delays == (Fraction(3, 2),)
        np.testing.assert_allclose(back.matrices[0], a1 + a2)

    def test_m_cap(self, ex3, monkeypatch):
        monkeypatch.setattr(rational_approx, "BASIC_DELAY_CAP", 100)
        with pytest.raises(dl.SizeExceeded):
            dl.approximate_system(ex3, 7)

    def test_shipped_m_cap(self, ex3):
        # order 13 of sqrt(2) is 114243/80782: m = 114243 passes the
        # rewrite's cap (MAX_UNKNOWNS // 2) and meets BASIC_DELAY_CAP = 10^5;
        # at order 14, m = 275807 meets the rewrite's cap first
        with pytest.raises(dl.SizeExceeded, match="rationalized delays need m = 114243 basic steps, cap is 100000"):
            dl.approximate_system(ex3, 13)
        with pytest.raises(dl.SizeExceeded, match="commensurate rewrite needs m = 275807 basic steps"):
            dl.approximate_system(ex3, 14)

    def test_zero_convergent_is_an_unavailable_order(self):
        vsys = dl.validate(dl.DelaySystem(1, [(0.3, np.array([[0.2]])), (math.sqrt(0.5), np.array([[0.3]]))]))
        with pytest.raises(dl.OrderUnavailable, match="order-0 convergent of delay 0.3 is 0"):
            dl.approximate_system(vsys, 0)
        assert dl.approximate_system(vsys, 1).to_system().delays == (Fraction(1, 3), Fraction(1, 1))

    def test_high_order_clamped_to_expansion(self, ex2a_half):
        # asking past the last term of an exact expansion must not blow up
        vsys = dl.validate(dl.DelaySystem(1, [(1.5, np.array([[0.4]]))]))
        form = dl.approximate_system(vsys, 50)
        assert form.to_system().delays == (Fraction(3, 2),)

    @pytest.mark.parametrize("delay", [math.sqrt(2.0), Fraction(7, 5)])
    def test_lone_delay_passes_through(self, delay):
        # a lone delay is already commensurate: every order gives the exact
        # rewrite, never a convergent
        vsys = dl.validate(dl.DelaySystem.single([[0.3, -0.4], [0.2, 0.5]], delay))
        want = dl.to_commensurate(vsys)
        assert (want.h, want.m) == (Fraction(delay), 1)
        for order in (0, 1, 7):
            form = dl.approximate_system(vsys, order)
            assert (form.h, form.m, form.n) == (want.h, want.m, want.n)
            ((j, c),) = form.steps
            assert j == 1 and c is vsys.matrices[0]


class TestUSequence:
    def test_lone_float_delay_rungs_are_the_exact_build(self, w2):
        vsys = dl.validate(dl.DelaySystem.single([[0.3, -0.4], [0.2, 0.5]], math.sqrt(2.0)))
        u = dl.build_single_delay(vsys, w2)
        steps = dl.u_sequence(vsys, w2, [0, 3, 7])
        assert [s.sup_diff_prev for s in steps] == [None, 0.0, 0.0]
        for step in steps:
            assert (step.delays, step.m) == ((Fraction(math.sqrt(2.0)),), 1)
            assert_bits_equal(step.u.coeffs, u.coeffs)
            assert_bits_equal(step.u.slopes, u.slopes)

    def test_ladder_on_irrational_pair(self, ex3, w2):
        steps = dl.u_sequence(ex3, w2, [1, 4])
        assert steps[0].sup_diff_prev is None
        assert steps[1].sup_diff_prev is not None
        assert math.isfinite(steps[1].sup_diff_prev)
        for step in steps:
            assert step.stability_verdict == "unstable"
            rep = dl.residuals(step.u, step.system, w2)
            assert rep.passed(1e-8)

    def test_lower_bound_radius_is_labelled(self, ex3, w2):
        # orders 4 and 7 take the companion screen, which stops at its first
        # Newton disk past 1 + EXACT_MARGIN: their radius is a certified lower
        # bound and the rung says so; order 1 has the full radius, and no reason
        steps = dl.u_sequence(ex3, w2, [1, 4, 7])
        reason = "spectral radius is a certified lower bound: a Newton disk of det P lies past 1 + EXACT_MARGIN"
        assert [s.stability_reason for s in steps] == [None, reason, reason]
        assert "stability_reason" not in steps[0].to_dict()
        for step in steps[1:]:
            d = step.to_dict()
            assert (d["stability_verdict"], d["stability_reason"]) == ("unstable", reason)
            assert d["spectral_radius"] == dl.stability_check(step.system, with_decay=False).spectral_radius

    def test_rational_input_is_order_independent(self, ex2a, w2):
        steps = dl.u_sequence(ex2a, w2, [1, 2, 5])
        assert steps[1].sup_diff_prev <= 1e-12
        assert steps[2].sup_diff_prev <= 1e-12

    def test_step_dict_fields(self, ex3, w2):
        step = dl.u_sequence(ex3, w2, [1])[0]
        d = step.to_dict()
        for key in ("order", "delays", "h", "m", "unknowns", "solver",
                    "factor", "factor_entries", "condition_estimate",
                    "stability_verdict", "spectral_radius", "sup_diff_prev"):
            assert key in d
        assert d["unknowns"] == 2 * 3 * 4
        # only the band path reports a bandwidth
        assert (d["factor"], d["factor_entries"], "bandwidth" in d) == ("dense", 24**2, False)
        assert d["delays"][1] == {"num": 3, "den": 2}
