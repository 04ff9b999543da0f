"""The stability module's decay envelope, and system_model's view of its
names.  The screens and the decay fit are tested in test_system_model.py."""

import math
from fractions import Fraction

import numpy as np
import pytest

import delaylyap as dl
from delaylyap import stability, system_model

# a few roundings apart: the envelope groups the products of the closed
# forms below in another order
REL = 16 * np.finfo(float).eps


def close(got, want):
    return abs(got - want) <= REL * abs(want)


class TestOldHome:
    def test_stability_check_resolves_to_the_same_function(self):
        assert system_model.stability_check is stability.stability_check is dl.stability_check

    @pytest.mark.parametrize("name", ["EXACT_MARGIN", "COMPANION_CAP", "RHO_FLOOR", "require_stable", "StabilityReport"])
    def test_moved_names_are_gone(self, name):
        # setting system_model.EXACT_MARGIN would silently do nothing
        assert hasattr(stability, name)
        assert not hasattr(system_model, name)


class TestVerdictMargins:
    """An exact radius within EXACT_MARGIN of 1 decides nothing."""

    @pytest.mark.parametrize("a, verdict", [
        (1.0 - 2e-9, "stable"),
        (1.0 - 1e-10, "inconclusive"),
        (1.0 + 1e-10, "inconclusive"),
        (1.0 + 2e-9, "unstable"),
    ])
    def test_single_delay_near_one(self, a, verdict):
        report = dl.stability_check(dl.DelaySystem.single([[a]], 1), with_decay=False)
        assert (report.spectral_radius, report.verdict) == (a, verdict)


class TestDecayEnvelope:
    """Each tail bound the oracles and series print against its closed
    form in (gamma, sigma) and ||W|| ||K0||^2."""

    @pytest.fixture()
    def case(self, ex2a_half, report_ex2a_half):
        w = dl.WeightMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        gamma, sigma = report_ex2a_half.decay_gain, report_ex2a_half.decay_rate
        k0n = float(np.linalg.norm(dl.k0(ex2a_half), 2))
        return ex2a_half, w, report_ex2a_half, gamma, sigma, float(np.linalg.norm(w.matrix, 2)) * k0n**2

    def test_envelope_fields(self, case):
        vsys, _, rep, gamma, sigma, _ = case
        env = rep.envelope(vsys)
        assert env.report is rep and env.horizon == dl.default_horizon(vsys, rep)
        assert env.k0_norm == float(np.linalg.norm(dl.k0(vsys), 2))
        assert close(env.bound(2.5), gamma * env.k0_norm * math.exp(-2.5 * sigma))
        assert env.bound(0.0) == gamma * env.k0_norm

    @pytest.mark.parametrize("tau", [0.0, 0.75, -1.25])
    def test_u_integral_tail(self, case, tau):
        vsys, w, rep, gamma, sigma, scale = case
        horizon = 20.0
        got = dl.u_integral_oracle(vsys, w, tau, horizon, report=rep).tail_bound
        want = gamma * scale * math.exp(-sigma * tau) * (
            math.exp(-sigma * horizon) / sigma + gamma * math.exp(-2.0 * sigma * horizon) / (2.0 * sigma)
        )
        assert close(got, want)

    def test_p_integral_tail(self, case):
        vsys, w, rep, gamma, sigma, scale = case
        got = dl.p_integral_oracle(vsys, w, 20.0, report=rep).tail_bound
        assert close(got, 2.0 * gamma * scale * math.exp(-sigma * 20.0) / sigma)

    @pytest.mark.parametrize("tau", [0.0, 0.5, -1.5])
    def test_jump_series_tail(self, case, tau):
        vsys, w, rep, gamma, sigma, scale = case
        horizon = 20.0
        series = dl.delta_u_prime(vsys, w, tau, horizon, report=rep)
        gap = dl.delta_k(vsys, horizon + max(tau, 0.0) + vsys.h_min, drop_tol=0.0).min_gap()
        want = 4.0 * gamma**2 * scale * math.exp(-sigma * tau) * math.exp(-2.0 * sigma * horizon)
        assert close(series.tail_bound, want / (1.0 - math.exp(-2.0 * sigma * gap)))

    @pytest.mark.parametrize("tau", [0.25, -0.75])
    def test_derivative_series_tail(self, case, tau):
        vsys, w, rep, gamma, sigma, scale = case
        horizon = 20.0
        got = dl.u_prime_series(vsys, w, tau, horizon, report=rep).tail_bound
        gap = dl.delta_k(vsys, horizon + vsys.h_min, drop_tol=0.0).min_gap()
        want = 2.0 * gamma * scale * (
            gamma * math.exp(sigma * tau) * math.exp(-2.0 * sigma * horizon) / (1.0 - math.exp(-2.0 * sigma * gap))
            + math.exp(-sigma * horizon) / (1.0 - math.exp(-sigma * gap))
        )
        assert close(got, want)

    def test_sums_are_geometric_series(self, case):
        vsys, _, rep, _, sigma, _ = case
        env = rep.envelope(vsys)
        start, gap, shift = 3.0, 0.5, -0.25
        points = start + gap * np.arange(4000)
        assert close(env.lattice_sum(start, gap), sum(env.bound(t) for t in points.tolist()))
        pairs = sum(env.bound(t) * env.bound(t + shift) for t in points.tolist())
        assert close(env.lattice_sum(start, gap, shift), pairs)
        assert close(env.integral(start), env.bound(start) / sigma)
        assert close(env.integral(start, shift), env.bound(start) * env.bound(start + shift) / (2.0 * sigma))


class TestFastDecay:
    def test_fit_stays_finite_past_the_decay_depth(self):
        # radius 2.1e-6 per step of 1/2, just above RHO_FLOOR: K decays to
        # 1e-13 within 1.2, but the fit runs to 3 h_max = 48, where
        # exp(sigma t) at the full rate overflowed
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(1, 2), [[0.0]]), (Fraction(16), [[3.506353898551222e-182]])]))
        rep = dl.stability_check(vsys)
        assert rep.verdict == "stable" and rep.spectral_radius > stability.RHO_FLOOR
        assert math.isfinite(rep.decay_gain) and rep.decay_rate * 48.0 <= 0.9 * 200 * math.log(10) * (1 + 1e-12)
        env = rep.envelope(vsys)
        kfun = dl.fundamental_matrix(vsys, 48.0)
        ends = np.append(kfun.breakpoints[1:], kfun.horizon).tolist()
        norms = np.linalg.norm(kfun.values, 2, axis=(1, 2)).tolist()
        assert all(v <= env.bound(t) for v, t in zip(norms, ends))
        assert math.isfinite(dl.p_integral_oracle(vsys, dl.WeightMatrix.identity(1), report=rep).tail_bound)


def near_nilpotent(seed):
    """x(t) = S (c J) S^-1 x(t - 1): J the n x n shift, n = 4 for even
    seeds and 6 for odd ones.  Nilpotent in exact arithmetic, its
    computed radius is about 1e-3, above RHO_FLOOR."""
    rng = np.random.default_rng(seed)
    n = 4 if seed % 2 == 0 else 6
    s = rng.standard_normal((n, n))
    c = rng.uniform(0.5, 12)
    return dl.validate(dl.DelaySystem.single(s @ (c * np.eye(n, k=1)) @ np.linalg.inv(s), Fraction(1)))


@pytest.mark.parametrize("seed", [7, 87, 137, 191, 231, 247, 259, 277, 341, 349])
def test_near_nilpotent_envelope_covers_k(seed):
    # the stable seeds below 400 at which ||K|| beat the fitted envelope
    # before n h_max + step while the fit horizon could stop short of it:
    # at seeds 7 and 231, ||K|| on [4, 5) was 0.170 and 1.07 against an
    # envelope of 0.024 and 0.049 at 5
    vsys = near_nilpotent(seed)
    rep = dl.stability_check(vsys)
    assert rep.verdict == "stable"
    env = rep.envelope(vsys)
    kfun = dl.fundamental_matrix(vsys, vsys.n * vsys.h_max + rep.rate_step)
    # K is constant on each piece and the envelope falls, so each piece
    # is checked at its right end
    ends = np.append(kfun.breakpoints[1:], kfun.horizon).tolist()
    norms = np.linalg.norm(kfun.values, 2, axis=(1, 2)).tolist()
    assert all(v <= env.bound(t) for v, t in zip(norms, ends))
