import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import delaylyap as dl
from delaylyap import fundamental, jump_analysis

from conftest import assert_bits_equal, certificate, commensurate_systems, gamma, two_route_cases


def reference_delta_series(table, w, tau, horizon):
    """The jump series of U' by the per-instant loop, the reference for
    the vectorised sum."""
    acc = np.zeros((table.n, table.n))
    for tq, dk in table.pairs():
        if tq > horizon + table.tol:
            break
        other = table.jump_at(tq + tau)
        if other is not None:
            acc -= dk.T @ w @ other
    return acc


def series_rounding_bound(table, w, tau, horizon):
    """Entrywise bound on |delta_u_prime - reference_delta_series| at one
    shift, in the form gamma_N sum |terms|.  Both add the same terms
    dK(t_q)^T W dK(t_q + tau), in different orders, so each is within
    gamma_N sum |dK(t_q)|^T |W| |dK(t_q + tau)| of the exact sum, for
    N = count n + 2n + 2 covering the longer chain (the stacked matmul
    adds count n products)."""
    count = int(np.searchsorted(table.times, horizon + table.tol, side="right"))
    other = table.index_many(table.times[:count] + tau)
    hit = other >= 0
    terms = np.abs(np.swapaxes(table.jumps[:count][hit], 1, 2)) @ np.abs(w) @ np.abs(table.jumps[other[hit]])
    return 2.0 * gamma((count + 2) * table.n + 2) * np.sum(terms, axis=0)


def assert_series_within_rounding(value, table, w, tau, horizon):
    gap = np.abs(value - reference_delta_series(table, w, tau, horizon))
    assert np.all(gap <= series_rounding_bound(table, w, tau, horizon))


def reference_delta_one(vsys, weight, tau, horizon, report, table):
    """The jump series of U' at one shift by its own delta_u_prime call,
    and its tail bound from the decay envelope, 4 ||W|| times the lattice
    sum of bound(t_q) bound(t_q + tau) from the horizon: the bitwise
    reference, signs of zeros included, for the batched rows, since a
    shift's chunk does not change its value.  Returns (value, tail bound)."""
    value = dl.delta_u_prime(vsys, weight, tau, horizon, report=report, table=table).value
    envelope = report.envelope(vsys)
    tail = 4.0 * float(np.linalg.norm(weight.matrix, 2)) * envelope.lattice_sum(horizon, table.min_gap(), tau)
    return value, tail


def reference_jump_properties(vsys, weight, tau_grid, horizon, report):
    """check_jump_properties with its lazy per-shift cache, as it once
    ran, each shift summed by its own delta_u_prime call: the bitwise
    reference for the batched pass and its key sharing."""
    hmax = vsys.h_max
    max_shift = float(np.max(np.abs(tau_grid))) if tau_grid.size else 0.0
    horizon = max(horizon, max_shift + 2.0 * hmax + vsys.h_min)
    table = dl.delta_k(vsys, horizon + max_shift + 2.0 * hmax + vsys.h_min, drop_tol=0.0)
    delays = [float(d) for d in vsys.delays]
    mats = list(vsys.matrices)
    w = weight.matrix
    scale = max_shift + 2.0 * hmax
    cache = {}

    def du(tau):
        key = round(tau / (1e-12 * scale))
        if key not in cache:
            cache[key] = reference_delta_one(vsys, weight, tau, horizon, report, table)
        return cache[key][0]

    sym = dyn = alg = 0.0
    for tau in tau_grid:
        tau = float(tau)
        here = du(tau)
        if tau >= 0.0:
            sym = max(sym, float(np.max(np.abs(du(-tau) - here.T))))
            dk = table.jump_at(tau)
            dk = np.zeros_like(w) if dk is None else dk
            acc = -here - w @ dk
            for hi, ai in zip(delays, mats):
                for hj, aj in zip(delays, mats):
                    acc = acc + ai.T @ du(tau + hi - hj) @ aj
            alg = max(alg, float(np.max(np.abs(acc))))
        if tau > 0.0:
            acc = -here
            for hj, aj in zip(delays, mats):
                acc = acc + du(tau - hj) @ aj
            dyn = max(dyn, float(np.max(np.abs(acc))))
        elif tau < 0.0:
            acc = -here
            for hj, aj in zip(delays, mats):
                acc = acc + aj.T @ du(tau + hj)
            dyn = max(dyn, float(np.max(np.abs(acc))))
    at_zero = du(0.0) + w
    nsd = float(np.max(np.linalg.eigvalsh(0.5 * (at_zero + at_zero.T))))
    worst_tail = max(tail for _, tail in cache.values())
    return {
        "symmetry": sym,
        "dynamic": dyn,
        "algebraic": alg,
        "nsd_max_eigenvalue": nsd,
        "tail_bound": worst_tail,
        "horizon": float(horizon),
        "grid_points": int(tau_grid.size),
    }


def reference_u_prime_series(table, kfun, base, w, tau, horizon):
    """The series for U' by the per-instant loop."""
    acc = np.zeros_like(base)
    for tq, dk in table.pairs():
        if tq > horizon + table.tol:
            break
        acc += (kfun.value(float(tq) - tau) - base).T @ w @ dk
    return acc


THREE_DELAYS = (Fraction(1), Fraction(13, 10), Fraction(17, 10))


def fixed_case(seed, n, delays, scale=None):
    """(system, weight) with seeded random coefficients: their 2-norms sum
    to 0.6, or they take the one common factor scale; the weight is a
    random symmetric matrix."""
    rng = np.random.default_rng(seed)
    mats = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in delays]
    scale = 0.6 / sum(np.linalg.norm(a, 2) for a in mats) if scale is None else scale
    half = rng.uniform(-1.0, 1.0, size=(n, n))
    vsys = dl.validate(dl.DelaySystem(n, [(d, scale * a) for d, a in zip(delays, mats)]))
    return vsys, dl.WeightMatrix(half + half.T)


def two_route_shaped(seed):
    """A system shaped like the benchmark's commensurate ones: n = 2 on
    delays 1, 13/10 and 17/10, scaled by bisection to a companion radius
    of 0.95 per step of 1/10."""
    lo, hi = 0.0, 4.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        vsys, _ = fixed_case(seed, 2, THREE_DELAYS, mid)
        if dl.stability_check(vsys, with_decay=False).spectral_radius <= 0.95:
            lo = mid
        else:
            hi = mid
    return fixed_case(seed, 2, THREE_DELAYS, lo)


@pytest.fixture(scope="module")
def scalar_report(scalar_half):
    return dl.stability_check(scalar_half)


class TestDeltaUPrime:
    """Derivative jumps of the scalar case sum to closed-form values."""

    def test_origin(self, scalar_half, w1, scalar_report):
        est = dl.delta_u_prime(scalar_half, w1, 0.0, report=scalar_report)
        assert est.value[0, 0] == pytest.approx(-4 / 3, abs=1e-10)
        assert est.tail_bound < 1e-9

    def test_first_lattice_point(self, scalar_half, w1, scalar_report):
        est = dl.delta_u_prime(scalar_half, w1, 1.0, report=scalar_report)
        assert est.value[0, 0] == pytest.approx(-2 / 3, abs=1e-10)

    def test_off_lattice_is_exact_zero(self, scalar_half, w1, scalar_report):
        est = dl.delta_u_prime(scalar_half, w1, 0.3, report=scalar_report)
        assert est.value[0, 0] == 0.0

    def test_negative_shift_transposes(self, scalar_half, w1, scalar_report):
        fwd = dl.delta_u_prime(scalar_half, w1, 1.0, report=scalar_report)
        bwd = dl.delta_u_prime(scalar_half, w1, -1.0, report=scalar_report)
        tol = fwd.tail_bound + bwd.tail_bound + 1e-12
        assert abs(bwd.value[0, 0] - fwd.value.T[0, 0]) <= tol

    def test_explicit_horizon_not_extended(self, scalar_half, w1, scalar_report):
        # sum over t <= 3 of 0.5^t * 0.5^(t+12), four aligned terms
        est = dl.delta_u_prime(scalar_half, w1, 12.0, 3.0, report=scalar_report)
        assert est.horizon == 3.0
        assert est.value[0, 0] == pytest.approx(-85 / 262144, abs=1e-16)

    def test_unstable_rejected(self, ex2b, w2):
        with pytest.raises(dl.NotStable):
            dl.delta_u_prime(ex2b, w2, 0.0)


class TestUPrimeSeries:
    def test_scalar_interior_slopes(self, scalar_half, w1, scalar_report):
        up = dl.u_prime_series(scalar_half, w1, 0.5, report=scalar_report)
        assert up.value[0, 0] == pytest.approx(4 / 3, abs=1e-9)
        down = dl.u_prime_series(scalar_half, w1, -0.5, report=scalar_report)
        assert down.value[0, 0] == pytest.approx(8 / 3, abs=1e-9)

    def test_matches_segment_slopes(self, ex2a_half, u_ex2a_half, w2, report_ex2a_half):
        h = float(u_ex2a_half.h)
        for k in range(-u_ex2a_half.m, u_ex2a_half.m):
            mid = (k + 0.5) * h
            est = dl.u_prime_series(ex2a_half, w2, mid, report=report_ex2a_half)
            slope = u_ex2a_half.segment(k)[1]
            assert np.max(np.abs(est.value - slope)) <= est.tail_bound + 1e-8

    def test_horizon_shorter_than_shift_rejected(self, ex2a_half, w2, report_ex2a_half):
        # at horizon 0.5 the only term, t_q = 0, reads K(-1.2) = K0, so the
        # series would be zero, under a tail bound derived for horizon >= |tau|
        with pytest.raises(ValueError, match=r"horizon 0.5 must be at least \|tau\| = 1.2"):
            dl.u_prime_series(ex2a_half, w2, 1.2, 0.5, report=report_ex2a_half)
        with pytest.raises(ValueError, match=r"must be at least \|tau\| = 1.2"):
            dl.u_prime_series(ex2a_half, w2, -1.2, 0.5, report=report_ex2a_half)


class TestJumpsFromSegments:
    @pytest.mark.parametrize("name", ["u_scalar", "u_ex1", "u_ex2a", "u_ex2a_half"])
    def test_equals_per_knot_loop(self, name, request):
        u = request.getfixturevalue(name)
        knots, taus, jumps = u.knots(), [], []
        for p in range(1, 2 * u.m):
            jump = u.slopes[p] - u.slopes[p - 1]
            if float(np.max(np.abs(jump))) > jump_analysis.SPECTRUM_DROP_TOL:
                taus.append(float(knots[p]))
                jumps.append(jump)
        spectrum = dl.jumps_from_segments(u)
        assert_bits_equal(spectrum.taus, taus)
        assert_bits_equal(spectrum.jumps, np.array(jumps).reshape(len(taus), u.n, u.n))

    def test_scalar_spectrum(self, u_scalar):
        spectrum = dl.jumps_from_segments(u_scalar)
        assert [float(t) for t in spectrum.taus] == [0.0]
        assert spectrum.jump_at(0.0)[0, 0] == pytest.approx(-4 / 3, abs=1e-10)

    def test_commensurate_interior_knots(self, u_ex2a_half):
        spectrum = dl.jumps_from_segments(u_ex2a_half)
        got = [float(t) for t in spectrum.taus]
        assert 0.0 in got
        assert set(got) <= {-1.0, -0.5, 0.0, 0.5, 1.0}

    def test_jump_at_tolerance(self, u_scalar):
        spectrum = dl.jumps_from_segments(u_scalar)
        assert spectrum.jump_at(1e-10) is not None
        assert spectrum.jump_at(0.2) is None
        # one snapped lookup with the jump table: NaN is outside the domain
        with pytest.raises(dl.OutOfDomain, match="got nan"):
            spectrum.jump_at(math.nan)

    def test_constant_slope_gives_empty_spectrum(self):
        flat = dl.PiecewiseAffineMatrixFunction(
            h_exact=Fraction(1),
            m=1,
            n=1,
            coeffs=np.array([[[0.0]], [[1.0]]]),
            slopes=np.array([[[1.0]], [[1.0]]]),
            condition_estimate=1.0,
            factor="dense",
            factor_entries=16,
        )
        spectrum = dl.jumps_from_segments(flat)
        assert len(spectrum.taus) == 0

    def test_csv(self, u_ex2a_half):
        spectrum = dl.jumps_from_segments(u_ex2a_half)
        buf = io.StringIO()
        spectrum.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == "tau,dU11,dU12,dU21,dU22,bound"

    def test_drop_tolerance_boundary(self):
        # slope steps of 5e-15 at -h (below SPECTRUM_DROP_TOL = 1e-14,
        # dropped), 0 at 0 and 2e-14 at h (kept)
        slopes = np.array([0.0, 5e-15, 5e-15, 2.5e-14]).reshape(4, 1, 1)
        u = dl.PiecewiseAffineMatrixFunction(
            h_exact=Fraction(1, 2), m=2, n=1, coeffs=np.zeros((4, 1, 1)), slopes=slopes,
            condition_estimate=1.0, factor="dense", factor_entries=64,
        )
        spectrum = dl.jumps_from_segments(u)
        assert spectrum.taus.tolist() == [0.5]
        assert spectrum.jumps[0, 0, 0] == 2.5e-14 - 5e-15

    def test_jump_at_snaps_within_a_relative_slack(self, w1):
        # delays 1e-12 and 1.5e-12 put the knots 5e-13 apart: each shift
        # reads its own jump only under a snap narrower than that, here
        # 1e-9 H = 1.5e-21
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(1, 10**12), [[0.3]]), (Fraction(3, 2 * 10**12), [[0.2]])]))
        u = dl.build_commensurate(dl.to_commensurate(vsys), w1)
        spectrum = dl.jumps_from_segments(u)
        assert spectrum.horizon == u.horizon == 1.5e-12
        assert spectrum.taus.tolist() == (u.knots()[1:-1]).tolist()
        for tau, jump in zip(spectrum.taus.tolist(), spectrum.jumps):
            assert_bits_equal(spectrum.jump_at(tau), jump)
            assert_bits_equal(spectrum.jump_at(tau * (1 + 1e-10) + 1e-22), jump)
        assert spectrum.jump_at(2.5e-13) is None
        assert not np.array_equal(spectrum.jump_at(5e-13), spectrum.jump_at(0.0))


class TestExactRescale:
    @settings(max_examples=25, deadline=None)
    @given(vsys=commensurate_systems(delays=st.integers(1, 3)))
    def test_delays_scaled_by_a_power_of_two(self, vsys):
        # delays scaled by s give U_s(s tau) = s U(tau).  For s = 2^-40 every
        # float the build forms from a delay scales exactly, and the block
        # operator does not change: knots and values scale bit for bit,
        # slopes and jumps stay, and both snaps scale with H
        s = 2.0**-40
        scaled = dl.validate(dl.DelaySystem(vsys.n, [(d * Fraction(s), a) for d, a in vsys.entries]))
        w = dl.WeightMatrix.identity(vsys.n)
        u = dl.build_commensurate(dl.to_commensurate(vsys), w)
        us = dl.build_commensurate(dl.to_commensurate(scaled), w)
        assert us.horizon == s * u.horizon
        assert_bits_equal(us.knots(), s * u.knots())
        assert_bits_equal(us.coeffs, s * u.coeffs)
        assert_bits_equal(us.slopes, u.slopes)
        taus = np.linspace(-u.horizon, u.horizon, 41)
        assert_bits_equal(us.evaluate_many(s * taus), s * u.evaluate_many(taus))
        spectrum, spectrum_s = dl.jumps_from_segments(u), dl.jumps_from_segments(us)
        assert_bits_equal(spectrum_s.taus, s * spectrum.taus)
        assert_bits_equal(spectrum_s.jumps, spectrum.jumps)
        for tau, jump in zip(spectrum.taus.tolist(), spectrum.jumps):
            assert_bits_equal(spectrum_s.jump_at(s * tau), jump)
        with pytest.raises(dl.OutOfDomain):
            us.evaluate(1.5 * us.horizon)


class TestCheckJumpProperties:
    def test_scalar(self, scalar_half, w1, scalar_report):
        rep = dl.check_jump_properties(scalar_half, w1, report=scalar_report)
        assert rep.max_residual() <= 1e-10
        assert rep.nsd_max_eigenvalue == pytest.approx(-1 / 3, abs=1e-9)

    def test_two_delay(self, ex2a_half, w2, report_ex2a_half):
        # deepen the truncation until the bound clears float noise by a
        # wide margin, then demand residuals inside 10x the bound
        t = 12.0
        while True:
            rep = dl.check_jump_properties(
                ex2a_half, w2, horizon=t, report=report_ex2a_half
            )
            if rep.tail_bound <= 1e-9:
                break
            t += 0.5
        assert rep.max_residual() <= 10 * rep.tail_bound
        assert rep.nsd_max_eigenvalue <= 1e-10
        assert rep.grid_points >= 5

    def test_report_dict(self, scalar_half, w1, scalar_report):
        d = dl.check_jump_properties(scalar_half, w1, report=scalar_report).to_dict()
        for key in ("symmetry", "dynamic", "algebraic", "nsd_max_eigenvalue",
                    "tail_bound", "horizon", "grid_points"):
            assert key in d

    def test_unstable_rejected(self, ex2b, w2):
        with pytest.raises(dl.NotStable):
            dl.check_jump_properties(ex2b, w2)

    def test_hands_back_its_jump_table(self, ex2a_half, w2, report_ex2a_half):
        rep = dl.check_jump_properties(ex2a_half, w2, report=report_ex2a_half)
        assert "table" not in rep.to_dict()
        assert rep.table.horizon >= rep.horizon + ex2a_half.h_max + ex2a_half.h_min
        for tau in (-1.5, 0.0, 0.5, 1.5):
            shared = dl.delta_u_prime(
                ex2a_half, w2, tau, rep.horizon, report=report_ex2a_half, table=rep.table
            )
            fresh = dl.delta_u_prime(ex2a_half, w2, tau, rep.horizon, report=report_ex2a_half)
            np.testing.assert_array_equal(shared.value, fresh.value)

    def test_default_grid_is_the_knots_of_u(self, w2, monkeypatch):
        # U's knots k h come from exact_multiples; for h = 1/10 a plain
        # k * float(h) differs from them at 12 of the 35 shifts
        vsys, _ = two_route_shaped(3)
        u = dl.build_commensurate(dl.to_commensurate(vsys), w2)
        report = dl.stability_check(vsys)
        grids, finite_shifts = [], jump_analysis.finite_shifts

        def recording(tau):
            grids.append(finite_shifts(tau))
            return grids[-1]

        monkeypatch.setattr(jump_analysis, "finite_shifts", recording)
        got = dl.check_jump_properties(vsys, w2, report=report)
        assert_bits_equal(grids[0], u.knots())
        assert got == dl.check_jump_properties(vsys, w2, tau_grid=u.knots(), report=report)

    def test_irrational_lattice_with_supplied_certificate(self, w1):
        # the torus screen cannot certify stability, so a caller-supplied
        # decay certificate is the only way in for irrational delays;
        # gain/rate cover sum_k (2 * 0.15)^k composition growth
        tiny = dl.validate(dl.DelaySystem(1, [
            (1.0, np.array([[0.1]])), (math.sqrt(2.0), np.array([[0.05]])),
        ]))
        cert = dl.StabilityReport(
            method="external_certificate",
            spectral_radius=0.15,
            verdict="stable",
            rate_step=math.sqrt(2.0),
            decay_gain=2.0,
            decay_rate=0.5,
            grid_points=None,
        )
        rep = dl.check_jump_properties(tiny, w1, report=cert)
        assert rep.max_residual() <= 10 * max(rep.tail_bound, 1e-12)
        assert rep.grid_points >= 3


class TestSegmentSeriesAgreement:
    def test_every_knot(self, ex2a_half, u_ex2a_half, w2, report_ex2a_half):
        spectrum = dl.jumps_from_segments(u_ex2a_half)
        t = 12.0
        while True:
            probe = dl.delta_u_prime(ex2a_half, w2, 0.0, t, report=report_ex2a_half)
            if probe.tail_bound <= 1e-9:
                break
            t += 0.5
        for tau in spectrum.taus:
            est = dl.delta_u_prime(ex2a_half, w2, float(tau), t, report=report_ex2a_half)
            gap = np.max(np.abs(est.value - spectrum.jump_at(float(tau))))
            assert gap <= est.tail_bound + 1e-10


class TestVectorisedSeries:
    @settings(max_examples=25, deadline=None)
    @given(case=two_route_cases())
    def test_series_equal_reference_loops(self, case):
        vsys, weight = case
        w, base, cert = weight.matrix, dl.k0(vsys), certificate(vsys)
        horizon = 3.0 * vsys.h_max
        instants = dl.discontinuity_instants(vsys, vsys.h_max)
        taus = instants + [-t for t in instants] + [0.37 * vsys.h_min, -0.61 * vsys.h_max]
        # one shared table, as the jumps command passes it, reaching every tau
        shared = dl.delta_k(vsys, horizon + vsys.h_max + vsys.h_min, drop_tol=0.0)
        for tau in taus:
            est = dl.delta_u_prime(vsys, weight, tau, horizon, report=cert)
            table = dl.delta_k(vsys, horizon + max(tau, 0.0) + vsys.h_min, drop_tol=0.0)
            assert_series_within_rounding(est.value, table, w, tau, horizon)
            est = dl.delta_u_prime(vsys, weight, tau, horizon, report=cert, table=shared)
            assert_series_within_rounding(est.value, shared, w, tau, horizon)
            est = dl.u_prime_series(vsys, weight, tau, horizon, report=cert)
            table = dl.delta_k(vsys, horizon + vsys.h_min, drop_tol=0.0)
            kfun = dl.fundamental_matrix(vsys, horizon + max(-tau, 0.0) + vsys.h_min)
            np.testing.assert_array_equal(
                est.value, reference_u_prime_series(table, kfun, base, w, tau, horizon)
            )

    def test_unstable_message_names_the_series(self, ex2b, w2):
        with pytest.raises(dl.NotStable, match="^jump series need a verified stable system"):
            dl.u_prime_series(ex2b, w2, 0.5)


class TestBatchedSeries:
    """One batched series pass gives each shift the bits of its own call,
    within rounding of the per-instant loop."""

    @settings(max_examples=20, deadline=None)
    @given(case=two_route_cases())
    def test_many_equals_per_shift_reference(self, case):
        vsys, weight = case
        cert = certificate(vsys)
        horizon = 3.0 * vsys.h_max
        instants = dl.discontinuity_instants(vsys, vsys.h_max)
        taus = np.array(instants + [-t for t in instants] + [0.37 * vsys.h_min, -0.61 * vsys.h_max])
        shared = dl.delta_k(vsys, horizon + vsys.h_max + vsys.h_min, drop_tol=0.0)
        series = dl.delta_u_prime(vsys, weight, taus, horizon, report=cert, table=shared)
        for tau, value, tail in zip(taus.tolist(), series.value, series.tail_bound.tolist()):
            want, want_tail = reference_delta_one(vsys, weight, tau, horizon, cert, shared)
            assert_bits_equal(value, want)
            assert_bits_equal(tail, want_tail)
            assert_series_within_rounding(value, shared, weight.matrix, tau, horizon)
            one = dl.delta_u_prime(vsys, weight, tau, horizon, report=cert, table=shared)
            assert isinstance(one.tail_bound, float) and one.tail_bound == want_tail

    @settings(max_examples=15, deadline=None)
    @given(case=two_route_cases())
    @example(case=fixed_case(8, 8, THREE_DELAYS))
    @example(case=fixed_case(8, 8, (1.0, math.sqrt(2.0))))
    @example(case=two_route_shaped(7))
    # fl(k fl(1/3)) differs from fl(k / 3) at some knots k: on the grid of
    # k fl(h) the reference's tail bound was two ulps off the default grid's
    @example(case=(
        dl.validate(dl.DelaySystem(1, [(Fraction(1, 3), [[0.01534328]]), (Fraction(10, 3), [[0.58465672]])])),
        dl.WeightMatrix(np.array([[-1.42336155]])),
    ))
    def test_properties_equal_lazy_cache_reference(self, case):
        vsys, weight = case
        cert = certificate(vsys)
        horizon = 3.0 * vsys.h_max
        got = dl.check_jump_properties(vsys, weight, horizon=horizon, report=cert).to_dict()
        del got["max_residual"]
        tau_grid = self._default_grid(vsys)
        want = reference_jump_properties(vsys, weight, tau_grid, horizon, cert)
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert_bits_equal(got[name], value)

    @staticmethod
    def _default_grid(vsys):
        if vsys.is_rational:
            form = dl.to_commensurate(vsys)
            return fundamental.exact_multiples(np.arange(-form.m, form.m + 1), form.h)
        inst = np.asarray(dl.discontinuity_instants(vsys, vsys.h_max))
        diffs = np.unique(np.concatenate([inst, -inst, np.subtract.outer(inst, inst).ravel()]))
        return np.array([t for t in diffs if abs(t) <= vsys.h_max + 1e-12])

    def test_properties_equal_reference_on_worked_system(self, ex2a_half, w2, report_ex2a_half):
        grids = [
            # -1.5 - 1e-13, read last, shares the key of -1.5, read first;
            # it would give the worst tail bound other bits
            [-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, -1.5 - 1e-13],
            [],
            [0.0, -0.0, 0.0],
            [-0.0, 0.5, 0.5, -1.0, 0.0, -1.0, 1.5, 0.5],
        ]
        for grid in map(np.array, grids):
            rep = dl.check_jump_properties(ex2a_half, w2, tau_grid=grid, horizon=20.0, report=report_ex2a_half)
            want = reference_jump_properties(ex2a_half, w2, grid, 20.0, report_ex2a_half)
            for name, value in want.items():
                assert_bits_equal(getattr(rep, name), value)

    def test_tiny_chunks_and_a_shift_with_no_hits(self, ex2a_half, w2, report_ex2a_half, monkeypatch):
        horizon = 6.0
        table = dl.delta_k(ex2a_half, horizon + 2.0, drop_tol=0.0)
        # 0.3 lies on no lattice point: its series has no terms and sums to -0.0
        taus = np.array([0.0, 0.3, -1.5, 1.0, 0.5, 1.5, -0.5])
        whole = dl.delta_u_prime(ex2a_half, w2, taus, horizon, report=report_ex2a_half, table=table).value
        chunks = []

        def spy(rows, row_entries):
            got = list(fundamental.row_chunks(rows, row_entries))
            chunks.extend(got)
            return got

        count = int(np.searchsorted(table.times, horizon + table.tol, side="right"))
        monkeypatch.setattr(fundamental, "CHUNK_ENTRIES", 3 * count * 4)
        monkeypatch.setattr(jump_analysis, "row_chunks", spy)
        series = dl.delta_u_prime(ex2a_half, w2, taus, horizon, report=report_ex2a_half, table=table)
        # a shift's value does not depend on the chunk it falls in
        assert_bits_equal(series.value, whole)
        assert [c.stop - c.start for c in chunks] == [3, 3, 1]
        assert_bits_equal(series.value[1], np.full((2, 2), -0.0))
        for tau, value in zip(taus.tolist(), series.value):
            assert_series_within_rounding(value, table, w2.matrix, tau, horizon)

    def test_table_extension_fallback(self, scalar_half, w1, scalar_report):
        # a table too short for the shifts is rebuilt, as delta_u_prime did
        short = dl.delta_k(scalar_half, 2.0, drop_tol=0.0)
        series = dl.delta_u_prime(scalar_half, w1, [0.0, 12.0], 3.0, report=scalar_report, table=short)
        assert series.value[1, 0, 0] == pytest.approx(-85 / 262144, abs=1e-16)
        assert series.value.shape == (2, 1, 1) and series.tail_bound.shape == (2,)
        empty = dl.delta_u_prime(scalar_half, w1, [], 3.0, report=scalar_report)
        assert empty.value.shape == (0, 1, 1) and empty.tail_bound.shape == (0,)


# each entry point that takes shifts, called with one good shift and then
# a non-finite one (callables of the system, weight, report and shift)
SHIFT_ENTRY_POINTS = {
    "delta_u_prime": lambda v, w, r, t: dl.delta_u_prime(v, w, [0.5, t], report=r),
    "u_prime_series": lambda v, w, r, t: dl.u_prime_series(v, w, t, report=r),
    "check_jump_properties": lambda v, w, r, t: dl.check_jump_properties(v, w, tau_grid=[0.5, t], report=r),
    "u_integral_oracle": lambda v, w, r, t: dl.u_integral_oracle(v, w, t, report=r),
}


@pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", list(SHIFT_ENTRY_POINTS))
def test_nonfinite_shift_is_out_of_domain(entry, shift, ex2a_half, w2, report_ex2a_half):
    # named before any horizon or jump table is formed, not as a lattice
    # that does not fit in int64
    with pytest.raises(dl.OutOfDomain, match=f"shifts must be finite, got {shift}"):
        SHIFT_ENTRY_POINTS[entry](ex2a_half, w2, report_ex2a_half, shift)
