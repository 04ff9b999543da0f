from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import delaylyap as dl
from delaylyap import fundamental, oracle_verify
from delaylyap.oracle_verify import _u_sum_from_k

from conftest import assert_bits_equal, certificate, gamma, random_stable_single, two_route_cases


def reference_u_sum(kfun, base, w, tau, horizon):
    """The U integral by the per-cell loop, the reference for the
    vectorised sum."""
    cuts = kfun.breakpoints[kfun.breakpoints <= horizon]
    shifted = kfun.breakpoints - tau
    shifted = shifted[(shifted > 0.0) & (shifted < horizon)]
    pts = np.unique(np.concatenate([cuts, shifted, [0.0, horizon]]))
    acc = np.zeros_like(base)
    for mid, width in zip(0.5 * (pts[:-1] + pts[1:]), np.diff(pts)):
        if width <= 0.0:
            continue
        acc += width * (kfun.value(mid) - base).T @ w @ kfun.value(mid + tau)
    return acc


def u_sum_rounding_bound(kfun, base, w, tau, horizon):
    """Entrywise bound on |_u_sum_from_k - reference_u_sum| at one shift,
    in the form gamma_N sum |terms|.

    Let L = (K - K0)^T W and V(s) = |K(0-)| + sum over b_k <= s of |dK_k|,
    which is at least |K(s)|.  Over the loop's cells,
    M = sum width |K - K0|^T |W| V(right end + tau) bounds the absolute
    terms of the loop and, swapping the sums, those of the sum over jumps,
    sum_k |Lambda(s_k)| |dK_k|.  A cut s_k = b_k - tau is off by at most
    gamma_N (|b_k| + |tau|): its own rounding and that of the lattice sum
    behind b_k.  That moves either route by at most that much times
    Lmax |dK_k|, with Lmax the largest |L| of a cell.  Each route is
    within gamma_N (M + moves) of the exact integral, for N counting its
    longest chain of operations: the cells and 2n + 2 for the loop; the
    cells, n + 5 and (B + 1) n for the sum over B breakpoints."""
    cuts = kfun.breakpoints[kfun.breakpoints <= horizon]
    shifted = kfun.breakpoints - tau
    shifted = shifted[(shifted > 0.0) & (shifted < horizon)]
    pts = np.unique(np.concatenate([cuts, shifted, [0.0, horizon]]))
    jumps = np.abs(np.concatenate([kfun.pre_value[None], kfun.jumps()]))
    points = np.append(-np.inf, kfun.breakpoints)
    absl = np.matmul(np.abs(np.swapaxes(kfun.value_many(0.5 * (pts[:-1] + pts[1:])) - base, 1, 2)), np.abs(w))
    var = np.cumsum(jumps, axis=0)[np.searchsorted(points, pts[1:] + tau, side="right") - 1]
    total = np.sum(np.diff(pts)[:, None, None] * np.matmul(absl, var), axis=0)
    lmax = np.max(absl, axis=0, initial=0.0)
    moves = np.sum((np.abs(kfun.breakpoints) + abs(tau))[:, None, None] * np.matmul(lmax, jumps[1:]), axis=0)
    n = len(base)
    return 2.0 * gamma(len(pts) + (len(points) + 2) * n + 5) * (total + moves)


def assert_u_sums_within_rounding(got, kfun, base, w, taus, horizon):
    """Each shift's sum within u_sum_rounding_bound of the per-cell loop."""
    for tau, value in zip(np.asarray(taus, dtype=float).ravel().tolist(), got.reshape(-1, *base.shape)):
        gap = np.abs(value - reference_u_sum(kfun, base, w, tau, horizon))
        assert np.all(gap <= u_sum_rounding_bound(kfun, base, w, tau, horizon))


def random_u(vsys, seed, m=5):
    """A piecewise affine U on [-h_max, h_max] with random segments; the
    cross check only subtracts U, so it need not be built."""
    rng = np.random.default_rng(seed)
    n = vsys.n
    return dl.PiecewiseAffineMatrixFunction(
        h_exact=Fraction(vsys.h_max) / m,
        m=m,
        n=n,
        coeffs=rng.uniform(-1.0, 1.0, size=(2 * m, n, n)),
        slopes=rng.uniform(-1.0, 1.0, size=(2 * m, n, n)),
        condition_estimate=1.0,
        factor="dense",
        factor_entries=(2 * m * n * n) ** 2,
    )


def two_route_grid(vsys, hz):
    """Lattice points and their negatives, off-lattice points, and +-hz."""
    instants = np.array(dl.discontinuity_instants(vsys, hz))
    return np.concatenate([instants, -instants, [0.37 * vsys.h_min, -0.61 * hz, 0.5 * hz + 1e-3, hz, -hz]])


def reference_p_sum(kfun, base, w, horizon):
    """The P integral by the per-cell loop."""
    pts = np.unique(np.concatenate([kfun.breakpoints[kfun.breakpoints <= horizon], [0.0, horizon]]))
    acc = np.zeros_like(base)
    wk = w @ base
    for mid, width in zip(0.5 * (pts[:-1] + pts[1:]), np.diff(pts)):
        if width <= 0.0:
            continue
        kv = kfun.value(mid)
        acc += width * (kv.T @ wk - wk.T @ kv)
    return acc


@pytest.fixture(scope="module")
def scalar_report(scalar_half):
    return dl.stability_check(scalar_half)


class TestUIntegralOracle:
    def test_scalar_frozen_values(self, scalar_half, w1, scalar_report):
        for tau, want in ((0.0, -8 / 3), (0.5, -2.0), (1.0, -4 / 3), (-1.0, -16 / 3)):
            est = dl.u_integral_oracle(scalar_half, w1, tau, report=scalar_report)
            assert est.tail_bound < 1e-9
            assert est.value[0, 0] == pytest.approx(want, abs=est.tail_bound + 1e-12)

    def test_unstable_rejected(self, ex2b, ex1, w2):
        for vsys in (ex2b, ex1):
            with pytest.raises(dl.NotStable, match="^integral oracle needs a verified stable system"):
                dl.u_integral_oracle(vsys, w2, 0.0)

    def test_horizon_shorter_than_shift_rejected(self, scalar_half, w1, scalar_report):
        with pytest.raises(ValueError):
            dl.u_integral_oracle(scalar_half, w1, -5.0, 3.0, report=scalar_report)

    def test_tail_shrinks_with_horizon(self, scalar_half, w1, scalar_report):
        short = dl.u_integral_oracle(scalar_half, w1, 0.0, 10.0, report=scalar_report)
        long = dl.u_integral_oracle(scalar_half, w1, 0.0, 20.0, report=scalar_report)
        assert long.tail_bound < short.tail_bound
        # value converges onto the known limit as the bound tightens
        assert abs(long.value[0, 0] + 8 / 3) <= long.tail_bound

    def test_truncation_error_within_stated_bound(self, scalar_half, w1, scalar_report):
        for horizon in (5.0, 8.0, 12.0):
            est = dl.u_integral_oracle(scalar_half, w1, 0.5, horizon, report=scalar_report)
            assert abs(est.value[0, 0] + 2.0) <= est.tail_bound

    def test_linearity_in_weight(self, ex2a_half, report_ex2a_half):
        w_a = dl.WeightMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        w_b = dl.WeightMatrix(np.array([[1.0, -0.25], [-0.25, 3.0]]))
        w_sum = dl.WeightMatrix(w_a.matrix + w_b.matrix)
        kwargs = {"report": report_ex2a_half}
        ea = dl.u_integral_oracle(ex2a_half, w_a, 0.7, 30.0, **kwargs)
        eb = dl.u_integral_oracle(ex2a_half, w_b, 0.7, 30.0, **kwargs)
        es = dl.u_integral_oracle(ex2a_half, w_sum, 0.7, 30.0, **kwargs)
        assert np.max(np.abs(es.value - (ea.value + eb.value))) <= 1e-12


class TestDefaultHorizon:
    def test_floor_of_three_periods(self):
        fast = dl.validate(dl.DelaySystem.single(1e-6, 1))
        rep = dl.stability_check(fast)
        assert dl.default_horizon(fast, rep) >= 3.0

    def test_series_horizon_is_the_same_function(self, scalar_half, w1, scalar_report):
        # one horizon rule: the oracles and the series default to the
        # horizon of the decay envelope, and the old aliases are gone
        assert not hasattr(dl.jump_analysis, "default_series_horizon")
        assert not hasattr(dl.oracle_verify, "default_horizon")
        t = dl.default_horizon(scalar_half, scalar_report)
        assert scalar_report.envelope(scalar_half).horizon == t
        for est in (
            dl.u_integral_oracle(scalar_half, w1, 0.0, report=scalar_report),
            dl.p_integral_oracle(scalar_half, w1, report=scalar_report),
            dl.delta_u_prime(scalar_half, w1, 0.0, report=scalar_report),
            dl.check_jump_properties(scalar_half, w1, report=scalar_report),
        ):
            assert est.horizon == t

    def test_scalar_depth(self, scalar_half, scalar_report):
        # 0.5^T reaches 1e-12 around T = 40
        t = dl.default_horizon(scalar_half, scalar_report)
        assert 35.0 <= t <= 45.0


class TestPIntegralOracle:
    def test_matches_algebraic_p(self, ex2a, w2):
        rep = dl.stability_check(ex2a)
        est = dl.p_integral_oracle(ex2a, w2, report=rep)
        gap = np.max(np.abs(est.value - dl.p_matrix(ex2a, w2)))
        assert gap <= est.tail_bound + 1e-8

    def test_estimate_antisymmetric(self, ex2a_half, w2, report_ex2a_half):
        est = dl.p_integral_oracle(ex2a_half, w2, report=report_ex2a_half)
        asym = np.max(np.abs(est.value + est.value.T))
        assert asym <= 2 * est.tail_bound + 1e-10

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_algebraic_p_random(self, seed):
        vsys = random_stable_single(seed)
        w = dl.WeightMatrix.identity(vsys.n)
        est = dl.p_integral_oracle(vsys, w)
        assert np.max(np.abs(est.value - dl.p_matrix(vsys, w))) <= est.tail_bound + 1e-8


class TestCrossCheck:
    def test_commensurate_build(self, u_ex2a, ex2a, w2):
        rep = dl.cross_check(u_ex2a, ex2a, w2)
        assert rep.passed
        assert rep.max_error <= rep.max_bound + rep.slack
        assert len(rep.grid) == 101
        # per-point errors never exceed their own bounds plus slack
        assert np.all(rep.errors <= rep.bounds + rep.slack)

    def test_single_build(self, u_scalar, scalar_half, w1):
        rep = dl.cross_check(u_scalar, scalar_half, w1)
        assert rep.passed
        assert rep.max_error < 1e-9

    def test_explicit_grid(self, u_scalar, scalar_half, w1):
        rep = dl.cross_check(u_scalar, scalar_half, w1, grid=[-1.0, -0.25, 0.0, 0.25, 1.0])
        assert rep.passed
        assert len(rep.grid) == 5

    def test_unstable_rejected(self, u_ex2b, ex2b, w2):
        with pytest.raises(dl.NotStable):
            dl.cross_check(u_ex2b, ex2b, w2)

    def test_empty_grid_rejected_before_k(self, u_ex2a, ex2a, w2, monkeypatch):
        def no_k(*args, **kwargs):
            raise AssertionError("K built for an empty grid")

        monkeypatch.setattr(oracle_verify, "fundamental_matrix", no_k)
        with pytest.raises(ValueError, match="empty"):
            dl.cross_check(u_ex2a, ex2a, w2, grid=[])

    def test_report_dict(self, u_ex2a, ex2a, w2):
        d = dl.cross_check(u_ex2a, ex2a, w2).to_dict()
        for key in ("grid_points", "max_error", "max_bound", "horizon", "slack", "passed"):
            assert key in d


class TestVectorisedSums:
    """The U sum over K's jumps agrees with the per-cell loop within the
    rounding bound of both; the P sum keeps the loop's bits."""

    @settings(max_examples=25, deadline=None)
    @given(case=two_route_cases())
    def test_sums_equal_reference_loops(self, case):
        vsys, weight = case
        w, base = weight.matrix, dl.k0(vsys)
        horizon = 3.0 * vsys.h_max
        kfun = dl.fundamental_matrix(vsys, 2.0 * horizon + vsys.h_min)
        taus = [0.0, vsys.h_min, -vsys.h_max, 0.37 * vsys.h_max, -horizon, horizon]
        for tau in taus:
            assert_u_sums_within_rounding(_u_sum_from_k(kfun, base, w, tau, horizon), kfun, base, w, tau, horizon)
        est = dl.p_integral_oracle(vsys, weight, horizon, report=certificate(vsys))
        want = reference_p_sum(dl.fundamental_matrix(vsys, horizon + vsys.h_min), base, w, horizon)
        np.testing.assert_array_equal(est.value, want)

    def test_cross_check_values_equal_reference(self, u_ex2a_half, ex2a_half, w2, report_ex2a_half):
        rep = dl.cross_check(u_ex2a_half, ex2a_half, w2, grid=[-1.5, -0.2, 0.0, 0.5, 1.5], report=report_ex2a_half)
        kfun = dl.fundamental_matrix(ex2a_half, rep.horizon + 1.5 + ex2a_half.h_min)
        base = dl.k0(ex2a_half)
        for tau, err in zip(rep.grid.tolist(), rep.errors.tolist()):
            want = reference_u_sum(kfun, base, w2.matrix, tau, rep.horizon)
            bound = u_sum_rounding_bound(kfun, base, w2.matrix, tau, rep.horizon)
            assert abs(err - float(np.max(np.abs(u_ex2a_half.evaluate(tau) - want)))) <= np.max(bound)


class TestBatchedCrossCheck:
    """The batched U integral gives each shift the bits of its own call,
    within rounding of the per-cell loop."""

    @settings(max_examples=20, deadline=None)
    @given(case=two_route_cases(), seed=st.integers(0, 2**32 - 1))
    def test_errors_equal_per_shift_reference(self, case, seed):
        vsys, weight = case
        w, base = weight.matrix, dl.k0(vsys)
        u = random_u(vsys, seed)
        hz = u.horizon
        grid = two_route_grid(vsys, hz)
        # under h_min a shift whose K(t + tau) does not jump inside the
        # horizon has a single cell
        for horizon in (0.5 * vsys.h_min, 3.0 * vsys.h_max):
            rep = dl.cross_check(u, vsys, weight, grid=grid, horizon=horizon, report=certificate(vsys))
            kfun = dl.fundamental_matrix(vsys, horizon + hz + vsys.h_min)
            sums = _u_sum_from_k(kfun, base, w, grid, horizon)
            assert_bits_equal(sums, [_u_sum_from_k(kfun, base, w, tau, horizon) for tau in grid.tolist()])
            assert_bits_equal(rep.errors, np.max(np.abs(u.evaluate_many(grid) - sums), axis=(1, 2)))
            assert_u_sums_within_rounding(sums, kfun, base, w, grid, horizon)

    def test_shapes(self, ex2a_half):
        kfun = dl.fundamental_matrix(ex2a_half, 12.0)
        base, w = dl.k0(ex2a_half), np.eye(2)
        assert _u_sum_from_k(kfun, base, w, 0.5, 8.0).shape == (2, 2)
        assert _u_sum_from_k(kfun, base, w, np.zeros((2, 3)), 8.0).shape == (2, 3, 2, 2)
        assert _u_sum_from_k(kfun, base, w, [], 8.0).shape == (0, 2, 2)
        assert_bits_equal(_u_sum_from_k(kfun, base, w, 0.0, 0.0), np.zeros((2, 2)))

    def test_tiny_chunks(self, ex2a_half, w2, monkeypatch):
        kfun = dl.fundamental_matrix(ex2a_half, 12.0)
        base, w = dl.k0(ex2a_half), w2.matrix
        horizon = 0.4
        grid = np.array([0.0, 0.8, 1.3, -0.3, 1.5, 0.05, -1.5])
        whole = _u_sum_from_k(kfun, base, w, grid, horizon)
        chunks = []

        def spy(rows, row_entries):
            got = list(fundamental.row_chunks(rows, row_entries))
            chunks.extend(got)
            return got

        monkeypatch.setattr(fundamental, "CHUNK_ENTRIES", 3 * (len(kfun.breakpoints) + 1) * 4)
        monkeypatch.setattr(oracle_verify, "row_chunks", spy)
        # a shift's value does not depend on the chunk it falls in
        assert_bits_equal(_u_sum_from_k(kfun, base, w, grid, horizon), whole)
        assert [c.stop - c.start for c in chunks] == [3, 3, 1]
        assert_u_sums_within_rounding(whole, kfun, base, w, grid, horizon)
