import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import delaylyap as dl
from delaylyap import rational_approx


class TestContinuedFraction:
    def test_sqrt2_pattern(self):
        cf = dl.continued_fraction(math.sqrt(2.0))
        assert cf.coefficients[0] == 1
        # the ideal expansion is all 2s; the float input follows it until
        # its own binary precision runs out around term 21
        assert all(c == 2 for c in cf.coefficients[1:20])

    def test_golden_ratio_pattern(self):
        cf = dl.continued_fraction((1 + math.sqrt(5.0)) / 2)
        assert all(c == 1 for c in cf.coefficients[:12])

    def test_exact_rational_terminates(self):
        cf = dl.continued_fraction(Fraction(3, 2))
        assert cf.exact
        assert cf.coefficients == (1, 2)

    def test_term_cap(self):
        cf = dl.continued_fraction(math.sqrt(2.0), max_terms=5)
        assert len(cf) == 5

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            dl.continued_fraction(0.0)
        with pytest.raises(ValueError):
            dl.continued_fraction(-1.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(dl.NonFiniteInput):
            dl.continued_fraction(float("nan"))
        with pytest.raises(dl.NonFiniteInput):
            dl.continued_fraction(float("inf"))


class TestConvergents:
    def test_sqrt2_key_orders(self):
        cf = dl.continued_fraction(math.sqrt(2.0))
        assert dl.convergent(cf, 1) == Fraction(3, 2)
        assert dl.convergent(cf, 4) == Fraction(41, 29)
        assert dl.convergent(cf, 7) == Fraction(577, 408)

    def test_order_out_of_range(self):
        cf = dl.continued_fraction(Fraction(3, 2))
        with pytest.raises(dl.OrderUnavailable):
            dl.convergent(cf, 2)
        with pytest.raises(dl.OrderUnavailable):
            dl.convergent(cf, -1)

    def test_list_matches_scalar_calls(self):
        cf = dl.continued_fraction(math.pi, max_terms=10)
        seq = dl.convergents(cf)
        assert seq == [dl.convergent(cf, k) for k in range(len(cf))]

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False))
    def test_quadratic_approximation_quality(self, x):
        cf = dl.continued_fraction(x, max_terms=20)
        for frac in dl.convergents(cf):
            err = abs(x - float(frac))
            assert err <= 1.0 / frac.denominator**2 + 1e-15

    @settings(max_examples=30, deadline=None)
    @given(x=st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False))
    def test_exact_recovery_of_floats(self, x):
        # floats are rationals, so untruncated expansions recover them
        cf = dl.continued_fraction(x, max_terms=64)
        if cf.exact:
            assert float(dl.convergents(cf)[-1]) == x


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


class TestUSequence:
    def test_ladder_on_irrational_pair(self, ex3, w2):
        steps = dl.u_sequence(ex3, w2, [1, 4])
        assert steps[0].sup_diff_prev is None
        assert steps[1].sup_diff_prev is not None
        assert math.isfinite(steps[1].sup_diff_prev)
        for step in steps:
            assert step.stability_verdict == "unstable"
            rep = dl.residuals(step.u, step.system, w2)
            assert rep.passed(1e-8)

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
