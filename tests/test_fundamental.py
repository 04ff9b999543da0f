import csv
import gc
import heapq
import io
import math
import time
import warnings
import weakref
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import delaylyap as dl
from delaylyap import fundamental
from delaylyap.fundamental import (
    JUMP_DROP_TOL,
    LATTICE_CAP,
    MERGE_TOL_SCALE,
    exact_multiples,
    row_chunks,
    snapped_lookup,
    write_csv,
)

from conftest import assert_bits_equal, gamma, random_stable_single, two_route_cases


def reference_cauchy(vsys, phi, grid):
    """The jump-convolution response by a per-(t, t_q, h_j) loop, the
    reference for the vectorised sum, and the sum of |dK| |A_j| |phi| over
    the terms it takes, with their count, per grid point.

    Float delays: a term is kept by float tests on
    theta = fl(fl(t - h_j) - t_q), read at -h_j within the table's tol of
    it.  Rational delays: the same tests restated on integer steps.  t
    sits at step k with phase xi (exact_step_phases); the instant l h
    takes delay j while k - l < m_j, at the argument
    fl((k - l - m_j) h) + xi."""
    grid = np.asarray(grid, dtype=float)
    tmax = float(np.max(grid)) if grid.size else 0.0
    out, mag, count = np.zeros((len(grid), vsys.n)), np.zeros((len(grid), vsys.n)), np.zeros(len(grid), dtype=int)
    if vsys.is_rational:
        h = fundamental.fraction_gcd(vsys.delays)
        steps = exact_step_phases(vsys, grid)
        top = max([k for k, _ in steps], default=0)
        table = dl.delta_k(vsys, float(top * h))
        entries = [(int(d / h), a) for d, a in vsys.entries]
        for i, (k, xi) in enumerate(steps):
            for tq, dk in table.pairs():
                l = round(Fraction(float(tq)) / h)
                if l > k:
                    break
                for m, a in entries:
                    if m <= k - l:
                        continue
                    value = phi.value(float((k - l - m) * h) + xi)
                    out[i] += dk @ (a @ value)
                    mag[i] += np.abs(dk) @ (np.abs(a) @ np.abs(value))
                    count[i] += 1
        return out, mag, count
    table = dl.delta_k(vsys, tmax)
    btol = table.tol
    entries = [(float(d), a) for d, a in vsys.entries]
    for i, t in enumerate(grid):
        for tq, dk in table.pairs():
            if tq > t + btol:
                break
            for d, a in entries:
                theta = float(t) - d - float(tq)
                if abs(theta + d) <= btol:
                    theta = -d
                elif theta >= -btol or theta < -d:
                    continue
                value = phi.value(theta)
                out[i] += dk @ (a @ value)
                mag[i] += np.abs(dk) @ (np.abs(a) @ np.abs(value))
                count[i] += 1
    return out, mag, count


def assert_cauchy_matches_reference(vsys, phi, grid):
    """simulate_cauchy against reference_cauchy.  The route sums the
    delays into G before one product dK G per instant, the loop adds
    dK (A_j phi) term by term: each is the exact sum of the same products
    but for rounding, at most gamma_N times the magnitude sum with
    N = (q + 2) n + terms, so they differ by at most twice that.  A whole
    term moved between them would break the bound."""
    got = dl.simulate_cauchy(vsys, phi, grid)
    want, mag, count = reference_cauchy(vsys, phi, grid)
    nu = ((len(vsys.delays) + 2) * vsys.n + count[:, None]) * 2.0**-53
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 2.0 * nu / (1.0 - nu) * mag)
    return got


def exact_step_phases(vsys, grid):
    """Step k and phase xi of every grid point t on h = gcd(h_j), by exact
    Fractions: with tol = 1e-12 max(h_max, max(grid)), t sits at its
    nearest step k h when |t - k h| <= tol, else at k = floor(t / h) with
    xi = t - fl(k h)."""
    grid = np.asarray(grid, dtype=float)
    h = fundamental.fraction_gcd(vsys.delays)
    tol = 1e-12 * max(vsys.h_max, float(np.max(grid)) if grid.size else 0.0)
    steps = []
    for t in grid.tolist():
        k = round(Fraction(t) / h)
        if abs(Fraction(t) - k * h) <= tol:
            steps.append((k, 0.0))
        else:
            k = math.floor(Fraction(t) / h)
            steps.append((k, t - float(k * h)))
    return steps


def reference_simulate(vsys, phi, grid, node_cap=1_000_000):
    """The response by memoized depth-first descent, one time point at a
    time through a dict, the reference for the level-by-level search.
    Float delays: a point is its float, keyed on a 1e-12 relative
    quantum, t - h_j its child, and one below -quantum/2 reads phi there.
    Rational delays: a point is its exact (k, xi) (exact_step_phases),
    (k - m_j, xi) its child, and one with k < 0 reads phi at
    fl(fl(k h) + xi)."""
    grid = np.asarray(grid, dtype=float)
    if grid.size and float(np.min(grid)) < 0.0:
        raise ValueError("simulation grid must be nonnegative")
    scale = max(vsys.h_max, float(np.max(grid)) if grid.size else 0.0)
    quantum = 1e-12 * scale
    if vsys.is_rational:
        h = fundamental.fraction_gcd(vsys.delays)
        starts = exact_step_phases(vsys, grid)
        entries = [(int(d / h), a) for d, a in vsys.entries]

        def key(t):
            return t

        def child(t, m):
            return (t[0] - m, t[1])

        def leaf(t):
            return float(t[0] * h) + t[1] if t[0] < 0 else None
    else:
        starts = grid.tolist()
        entries = [(float(d), a) for d, a in vsys.entries]

        def key(t):
            return round(t / quantum)

        def child(t, d):
            return t - d

        def leaf(t):
            return t if t < -0.5 * quantum else None
    memo = {}

    for t0 in starts:
        stack = [t0]
        while stack:
            t = stack[-1]
            k = key(t)
            if k in memo:
                stack.pop()
                continue
            arg = leaf(t)
            if arg is not None:
                memo[k] = phi.value(arg)
                stack.pop()
                continue
            missing = []
            for d, _ in entries:
                s = child(t, d)
                if key(s) not in memo:
                    missing.append(s)
            if missing:
                stack.extend(missing)
                if len(stack) > node_cap or len(memo) > node_cap:
                    raise dl.RecursionDepthExceeded(
                        f"response recursion exceeded {node_cap} nodes"
                    )
                continue
            acc = np.zeros(vsys.n)
            for d, a in entries:
                acc += a @ memo[key(child(t, d))]
            memo[k] = acc
            stack.pop()
    return np.array([memo[key(t)] for t in starts]).reshape(len(starts), vsys.n)


class ReferenceLattice:
    """The heap-grown lattice with scalar lookups that K and dK were once
    evaluated on: Fraction instants for rational delays, merged floats
    otherwise.  Kept as the bitwise reference for the block recursions."""

    def __init__(self, delays, horizon, cap=LATTICE_CAP):
        exact = all(isinstance(d, Fraction) for d in delays)
        h_max = float(delays[-1])
        if exact:
            # one tolerance, 1e-12 max(h_max, horizon): lookups snap with it,
            # and the lattice ends at its exact sum with the horizon
            steps, start, tol, snap = list(delays), Fraction(0), 0.0, 1e-12 * max(h_max, horizon)
            limit = Fraction(horizon) + Fraction(snap)
        else:
            steps, start = [float(d) for d in delays], 0.0
            tol = snap = MERGE_TOL_SCALE * h_max
            # the float sum of the horizon and the merge tolerance
            limit = horizon + snap
        q = tol if tol > 0 else 1.0
        heap, out = [start], []
        seen = {start} if exact else {0: 0.0}
        while heap:
            t = heapq.heappop(heap)
            out.append(t)
            if len(out) > cap:
                raise dl.HorizonTooLarge(f"semigroup lattice up to {horizon} exceeds {cap} points")
            for d in steps:
                s = t + d
                if s > limit:
                    continue
                if exact:
                    if s in seen:
                        continue
                    seen.add(s)
                else:
                    b = round(s / q)
                    if any(bb in seen and abs(seen[bb] - s) <= tol for bb in (b - 1, b, b + 1)):
                        continue
                    seen[b] = s
                heapq.heappush(heap, s)
        self.instants, self.exact, self.snap = out, exact, snap
        self.floats = np.array([float(t) for t in out])
        self.index = {t: i for i, t in enumerate(out)} if exact else {round(t / q): i for i, t in enumerate(out)}

    def segment_index(self, t):
        if self.exact:
            return -1 if t < 0 else bisect_right(self.instants, t) - 1
        x = float(t)
        i = int(np.searchsorted(self.floats, x, side="right"))
        if i < len(self.floats) and self.floats[i] - x <= self.snap:
            return i
        return i - 1

    def instant_index(self, t):
        if self.exact:
            return self.index.get(t)
        x = float(t)
        b = round(x / self.snap)
        for bb in (b - 1, b, b + 1):
            i = self.index.get(bb)
            if i is not None and abs(self.floats[i] - x) <= self.snap:
                return i
        return None


def reference_fundamental(vsys, horizon, side="right"):
    """Breakpoints and values of K, one instant and one delay at a time."""
    lat = ReferenceLattice(vsys.delays, horizon)
    base, n = dl.k0(vsys), vsys.n
    values = np.empty((len(lat.instants), n, n))
    for i, t in enumerate(lat.instants):
        acc = np.zeros((n, n))
        for d, a in vsys.entries:
            idx = lat.segment_index(t - d)
            prev = base if idx < 0 else values[idx]
            acc += prev @ a if side == "right" else a @ prev
        values[i] = acc
    return lat.floats, values


def reference_delta_k(vsys, horizon, drop_tol=JUMP_DROP_TOL):
    """Times and jumps of dK, one instant and one delay at a time."""
    lat = ReferenceLattice(vsys.delays, horizon)
    n = vsys.n
    jumps = np.zeros((len(lat.instants), n, n))
    jumps[0] = np.eye(n)
    for i, t in enumerate(lat.instants[1:], start=1):
        acc = np.zeros((n, n))
        for d, a in vsys.entries:
            idx = lat.instant_index(t - d)
            if idx is not None:
                acc += jumps[idx] @ a
        jumps[i] = acc
    keep = [0] + [i for i in range(1, len(jumps)) if np.max(np.abs(jumps[i])) > drop_tol]
    return lat.floats[keep], jumps[keep]


def assert_matches_reference(vsys, horizon):
    for side in ("right", "left"):
        k = dl.fundamental_matrix(vsys, horizon, side)
        breakpoints, values = reference_fundamental(vsys, horizon, side)
        assert_bits_equal(k.breakpoints, breakpoints)
        assert_bits_equal(k.values, values)
    for drop_tol in (JUMP_DROP_TOL, 0.0):
        table = dl.delta_k(vsys, horizon, drop_tol=drop_tol)
        times, jumps = reference_delta_k(vsys, horizon, drop_tol)
        assert_bits_equal(table.times, times)
        assert_bits_equal(table.jumps, jumps)


class TestLattice:
    def test_two_delay_instants(self, ex2a):
        got = dl.discontinuity_instants(ex2a, 3.0)
        assert got == [0.0, 1.0, 1.5, 2.0, 2.5, 3.0]

    def test_half_step_absent_near_origin(self, ex2a):
        # 0.5 is the basic delay but not a semigroup point
        assert 0.5 not in dl.discontinuity_instants(ex2a, 3.0)

    def test_irrational_pair(self, ex3):
        got = dl.discontinuity_instants(ex3, 2.9)
        want = [0.0, 1.0, math.sqrt(2.0), 2.0, 1.0 + math.sqrt(2.0), 2 * math.sqrt(2.0)]
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_cap_enforced(self, ex2a, monkeypatch):
        monkeypatch.setattr(fundamental, "LATTICE_CAP", 10)
        with pytest.raises(dl.HorizonTooLarge):
            dl.discontinuity_instants(ex2a, 1000.0)

    def test_shipped_cap(self):
        # x(t) = 0.5 x(t - 1) has the instants 0, 1, 2, ...: the
        # LATTICE_CAP = 10^6 points end at 999999
        vsys = dl.validate(dl.DelaySystem.single([[0.5]], 1))
        assert len(dl.discontinuity_instants(vsys, 999_999)) == 1_000_000
        with pytest.raises(dl.HorizonTooLarge, match="exceeds 1000000 points"):
            dl.discontinuity_instants(vsys, 1_000_000)

    def test_sparse_rational_lattice_stays_sparse(self):
        # h = 1e-6: a grid of every multiple of h up to 60 has 6e7 steps
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(1), [[0.3]]), (Fraction(1000001, 1000000), [[0.3]])]))
        t0 = time.perf_counter()
        instants = dl.discontinuity_instants(vsys, 60.0)
        assert time.perf_counter() - t0 < 0.5
        assert len(instants) == 1831
        assert instants == [float(t) for t in ReferenceLattice(vsys.delays, 60.0).instants]

    def test_int64_overflow_names_step(self):
        tiny = Fraction(1, 2**62)
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(1), [[0.3]]), (1 + tiny, [[0.3]])]))
        assert dl.discontinuity_instants(vsys, 0.5) == [0.0]
        for build in (dl.discontinuity_instants, dl.fundamental_matrix):
            for horizon in (1.0, math.inf):
                with pytest.raises(dl.HorizonTooLarge, match=f"h = {tiny}"):
                    build(vsys, horizon)
            # a NaN horizon is named before any lattice is formed
            with pytest.raises(ValueError, match="horizon must be nonnegative, got nan"):
                build(vsys, math.nan)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    @pytest.mark.parametrize("build", [dl.discontinuity_instants, dl.fundamental_matrix, dl.delta_k])
    def test_non_finite_horizon_on_float_delays_fails_fast(self, ex3, horizon, build):
        # the float lattice would otherwise grow to its point cap first; a
        # NaN horizon is named before any lattice is formed
        named = math.isnan(horizon)
        error, message = (ValueError, "horizon must be nonnegative, got nan") if named else (dl.HorizonTooLarge, "no last point")
        t0 = time.perf_counter()
        with pytest.raises(error, match=message):
            build(ex3, horizon)
        assert time.perf_counter() - t0 < 0.5

    def test_exact_multiples_equal_fraction_products(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            h = Fraction(int(rng.integers(1, 10**6)), int(rng.integers(1, 10**6)))
            m = int(rng.integers(0, 500))
            ks = np.arange(-m, m + 1)
            assert_bits_equal(exact_multiples(ks, h), [float(k * h) for k in range(-m, m + 1)])
        # |k| num past 2^53: the float product would round, so Python ints divide
        h = Fraction(2**55 + 1, 3)
        ks = np.arange(-5, 6)
        assert_bits_equal(exact_multiples(ks, h), [float(k * h) for k in ks.tolist()])
        assert not np.array_equal(ks * float(h.numerator) / float(h.denominator), exact_multiples(ks, h))


    def test_delay_within_merge_tolerance_of_zero_rejected(self):
        vsys = dl.validate(dl.DelaySystem(1, [(1e-10, [[0.2]]), (1.0, [[0.3]])]))
        message = "delay 1e-10 is within the lattice merge tolerance 1e-09 of zero"
        with pytest.raises(dl.NonincreasingDelays, match=message):
            dl.fundamental_matrix(vsys, 3.0)
        with pytest.raises(dl.NonincreasingDelays, match=message):
            dl.delta_k(vsys, 3.0)
        with pytest.raises(dl.NonincreasingDelays, match=message):
            dl.discontinuity_instants(vsys, 3.0)
        # a pair of delays that merge with each other still builds
        near = dl.validate(dl.DelaySystem(1, [(0.3, [[0.2]]), (1.0, [[0.3]]), (1.0 + 1e-10, [[0.1]])]))
        assert dl.discontinuity_instants(near, 1.0) == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
        assert len(dl.fundamental_matrix(near, 3.0).breakpoints) == len(dl.delta_k(near, 3.0, drop_tol=0.0))


def first_full_block(shifts):
    """Start of the first block [b m_1, (b+1) m_1) of the numerical
    semigroup generated by shifts (gcd 1) that holds every integer, by a
    membership table over the integers."""
    m1, member = shifts[0], [True]
    while True:
        k = len(member)
        member.append(any(k >= m and member[k - m] for m in shifts))
        b = k - m1 + 1
        if b > 0 and b % m1 == 0 and all(member[b:]):
            return b


@st.composite
def rational_delay_sets(draw):
    """q = 1..4 distinct delays k / den, k in 1..12 and den in 1..5."""
    q = draw(st.integers(1, 4))
    den = draw(st.integers(1, 5))
    return [Fraction(k, den) for k in sorted(draw(st.sets(st.integers(1, 12), min_size=q, max_size=q)))]


class TestConductorStop:
    """The exact lattice stops growing at its first full block and fills
    in every later step of h, which is the heap-grown lattice bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(delays=rational_delay_sets(), offset=st.integers(-12, 40), part=st.sampled_from([0.0, 0.3, 0.999]))
    def test_equals_reference_around_first_full_block(self, delays, offset, part):
        h = fundamental.fraction_gcd(delays)
        shifts = [int(d / h) for d in delays]
        # offsets run from before the first full block, through it, to past it
        horizon = float(max(0, first_full_block(shifts) + offset + part) * h)
        lat = fundamental._Lattice.generate(delays, horizon)
        ref = ReferenceLattice(delays, horizon)
        assert [k * h for k in lat.keys.tolist()] == ref.instants
        assert_bits_equal(lat.floats, ref.floats)
        assert lat.snap == ref.snap

    def test_conductor_of_workload_steps(self):
        # steps 10, 13 and 17: the Frobenius number is 58, so 59 on are all points
        assert first_full_block([10, 13, 17]) == 60
        lat = fundamental._Lattice.generate([Fraction(1), Fraction(13, 10), Fraction(17, 10)], 100.0)
        assert lat.keys[-942:].tolist() == list(range(59, 1001))
        assert 58 not in lat.keys.tolist()

    def test_cap_counts_the_filled_steps(self, monkeypatch):
        delays = [Fraction(1), Fraction(13, 10), Fraction(17, 10)]
        size = len(fundamental._Lattice.generate(delays, 100.0))
        monkeypatch.setattr(fundamental, "LATTICE_CAP", size)
        assert len(fundamental._Lattice.generate(delays, 100.0)) == size
        monkeypatch.setattr(fundamental, "LATTICE_CAP", size - 1)
        with pytest.raises(dl.HorizonTooLarge, match=f"exceeds {size - 1} points"):
            fundamental._Lattice.generate(delays, 100.0)

    def test_cap_fails_fast_on_a_far_horizon(self, monkeypatch):
        monkeypatch.setattr(fundamental, "LATTICE_CAP", 1000)
        delays = [Fraction(1), Fraction(13, 10), Fraction(17, 10)]
        t0 = time.perf_counter()
        with pytest.raises(dl.HorizonTooLarge, match="exceeds 1000 points"):
            fundamental._Lattice.generate(delays, 1e12)
        assert time.perf_counter() - t0 < 0.5


class TestBlockRecursionsMatchReference:
    """K (both sides) and dK from the block recursions equal, bit for bit,
    the instant-by-instant loops over the heap-grown lattice."""

    @settings(max_examples=30, deadline=None)
    @given(case=two_route_cases(), reach=st.floats(0.0, 6.0))
    def test_two_route_cases(self, case, reach):
        vsys, _ = case
        assert_matches_reference(vsys, reach * vsys.h_max)

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("delays", [
        (Fraction(1), Fraction(13, 10), Fraction(17, 10)),
        (1.0, math.sqrt(2.0)),
        (0.3, 1.0, 1.0 + 1e-10),
    ])
    def test_wide_matrices(self, n, delays):
        rng = np.random.default_rng(n)
        mats = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in delays]
        scale = 0.6 / sum(np.linalg.norm(a, 2) for a in mats)
        vsys = dl.validate(dl.DelaySystem(n, [(d, scale * a) for d, a in zip(delays, mats)]))
        assert_matches_reference(vsys, 4.0)


class TestRecursionKernel:
    """The one block kernel sums each row onto +0 in delay order and reads
    a missing source from the trailing row it never writes: bit for bit
    against the per-point references on values that are signed zeros, and
    against a per-row loop on the kernel itself."""

    @pytest.mark.parametrize("delays", [(Fraction(1), Fraction(3, 2)), (1.0, math.sqrt(2.0))])
    def test_all_zero_system(self, delays):
        # K0 = -1 times zeros: a loop summing onto zeros gives +0.0, though
        # the elementwise products are -0.0
        vsys = dl.validate(dl.DelaySystem(1, [(d, [[0.0]]) for d in delays]))
        assert_matches_reference(vsys, 5.0)
        assert not np.any(np.signbit(dl.fundamental_matrix(vsys, 5.0).values))
        phi = dl.InitialFunction.constant([-1.0])
        grid = np.linspace(0.0, 5.0, 21)
        x = dl.simulate(vsys, phi, grid)
        assert_bits_equal(x, reference_simulate(vsys, phi, grid))
        assert not np.any(np.signbit(x))

    @pytest.mark.parametrize("delays", [
        (Fraction(1), Fraction(3, 2)),
        (Fraction(1), Fraction(13, 10), Fraction(17, 10)),
        (1.0, math.sqrt(2.0)),
    ])
    def test_zero_column_and_negative_k0(self, delays):
        # the second column of every product K A_j is a sum of signed zeros
        rng = np.random.default_rng(len(delays))
        mats = [np.column_stack([rng.uniform(-0.3, 0.3, 2), [0.0, 0.0]]) for _ in delays]
        vsys = dl.validate(dl.DelaySystem(2, list(zip(delays, mats))))
        assert np.any(dl.k0(vsys) < 0)
        assert_matches_reference(vsys, 6.0)
        grid = np.linspace(0.0, 6.0, 25)
        for phi in (dl.InitialFunction.constant([-1.0, 0.0]), dl.InitialFunction.constant([0.0, -1.0])):
            assert_bits_equal(dl.simulate(vsys, phi, grid), reference_simulate(vsys, phi, grid))

    def test_missing_sources_on_rational_lattice(self):
        # on {1, 3/2}, t - 3/2 misses the lattice at t = 2 and t - 1 at t = 3/2
        vsys = dl.validate(dl.DelaySystem(2, [
            (Fraction(1), [[0.3, -0.2], [0.1, 0.4]]),
            (Fraction(3, 2), [[-0.25, 0.0], [0.2, -0.1]]),
        ]))
        table = dl.delta_k(vsys, 4.0, drop_tol=0.0)
        assert (table.index_many([1.5, 2.0]) >= 0).all()
        assert_matches_reference(vsys, 4.0)

    @pytest.mark.parametrize("left", [False, True])
    def test_missing_sources_add_nothing(self, left):
        # a source -1 reads the trailing row, as for K0 in K and the zero
        # row off the lattice in dK: a zero row adds nothing, so the result
        # is also that of a loop that skips the source; any other row adds
        # its product.  The rows still to fill hold NaN until written
        rng = np.random.default_rng(5)
        mats = [rng.uniform(-1.0, 1.0, (2, 2)) for _ in range(3)]
        src = np.array([[-1, -1, -1], [-1, -1, -1], [0, -1, -1], [-1, 1, 2], [3, -1, 0], [-1, 4, 3]])
        for trailing in (np.zeros((2, 2)), rng.uniform(-1.0, 1.0, (2, 2))):
            values = np.full((7, 2, 2), np.nan)
            values[0] = rng.uniform(-1.0, 1.0, (2, 2))
            values[-1] = trailing
            reads, skips = values.copy(), values.copy()
            for i in range(1, 6):
                acc, acc_skip = np.zeros((2, 2)), np.zeros((2, 2))
                for j, a in enumerate(mats):
                    acc += a @ reads[src[i, j]] if left else reads[src[i, j]] @ a
                    if src[i, j] >= 0:
                        acc_skip += a @ skips[src[i, j]] if left else skips[src[i, j]] @ a
                reads[i], skips[i] = acc, acc_skip
            fundamental._recurse(values, src, 1, mats, left)
            assert_bits_equal(values, reads)
            assert_bits_equal(values[-1], trailing)
            if not trailing.any():
                assert_bits_equal(values, skips)

    @pytest.mark.parametrize("left", [False, True])
    def test_negative_zero_products_sum_to_positive_zero(self, left):
        # numpy's float matmul starts each dot product from +0, so it never
        # returns -0.0; its object loop starts from the first term, as a
        # BLAS may, and returns -0.0 on a -0.0 row.  The +0 start gives
        # the +0.0 of a loop summing onto zeros all the same
        mats = [np.array([[0.5]], dtype=object), np.array([[0.25]], dtype=object)]
        src = np.array([[-1, -1], [-1, -1], [0, -1], [-1, 1]])
        values = np.full((5, 1, 1), -0.0).astype(object)
        fundamental._recurse(values, src, 0, mats, left)
        assert_bits_equal(values.astype(float), [[[0.0]]] * 4 + [[[-0.0]]])


class TestFundamentalMatrix:
    def test_scalar_values(self, scalar_half):
        k = dl.fundamental_matrix(scalar_half, 3.0)
        assert k.value(-0.3)[0, 0] == pytest.approx(-2.0, abs=1e-14)
        assert k.value(0.0)[0, 0] == pytest.approx(-1.0, abs=1e-14)
        assert k.value(0.99)[0, 0] == pytest.approx(-1.0, abs=1e-14)
        assert k.value(1.0)[0, 0] == pytest.approx(-0.5, abs=1e-14)
        assert k.value(2.5)[0, 0] == pytest.approx(-0.25, abs=1e-14)

    def test_pre_value_is_constant_initial(self, ex2a):
        k = dl.fundamental_matrix(ex2a, 5.0)
        np.testing.assert_allclose(k.value(-0.01), dl.k0(ex2a), atol=1e-15)
        np.testing.assert_allclose(k.value(-10.0), dl.k0(ex2a), atol=1e-15)

    def test_right_continuity_at_breakpoints(self, ex2a):
        k = dl.fundamental_matrix(ex2a, 5.0)
        eps = 1e-9
        for t in k.breakpoints[1:]:
            right = k.value(t)
            if t + eps <= k.horizon:
                np.testing.assert_allclose(k.value(t + eps), right, atol=1e-15)
            gap = right - k.value(t - eps)
            np.testing.assert_allclose(gap, k.jumps()[k.breakpoints.tolist().index(t)], atol=1e-12)

    def test_out_of_domain_past_horizon(self, ex2a):
        k = dl.fundamental_matrix(ex2a, 5.0)
        with pytest.raises(dl.OutOfDomain):
            k.value(5.6)

    @pytest.mark.parametrize("build", [dl.fundamental_matrix, dl.delta_k])
    def test_nan_horizon_is_named(self, build, ex2a_half):
        with pytest.raises(ValueError, match="horizon must be nonnegative, got nan"):
            build(ex2a_half, math.nan)

    @pytest.mark.parametrize("build", [dl.discontinuity_instants, dl.fundamental_matrix, dl.delta_k])
    def test_negative_horizon_is_named(self, build, ex2a_half):
        with pytest.raises(ValueError, match="horizon must be nonnegative, got -1.0"):
            build(ex2a_half, -1.0)

    def test_sides_agree(self, ex2a):
        kr = dl.fundamental_matrix(ex2a, 15.0, "right")
        kl = dl.fundamental_matrix(ex2a, 15.0, "left")
        ts = np.linspace(-1.0, 15.0, 700)
        gap = np.max(np.abs(kr.value_many(ts) - kl.value_many(ts)))
        assert gap <= 1e-12

    def test_bad_side_rejected(self, ex2a):
        with pytest.raises(ValueError):
            dl.fundamental_matrix(ex2a, 1.0, "up")

    def test_value_many_matches_value(self, ex2a):
        k = dl.fundamental_matrix(ex2a, 4.0)
        ts = np.linspace(-0.5, 4.0, 37)
        stacked = k.value_many(ts)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(stacked[i], k.value(float(t)))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_origin_jump_is_identity(self, seed):
        vsys = random_stable_single(seed)
        k = dl.fundamental_matrix(vsys, 2.0)
        gap = k.value(0.0) - (np.eye(vsys.n) + dl.k0(vsys))
        assert np.max(np.abs(gap)) <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    @example(seed=1452)
    def test_sides_agree_random(self, seed):
        # K_k = K_(k-1) A on one side and A K_(k-1) on the other, from K0. A
        # step rounds by D_k with ||D_k||_F <= gamma_n ||K_(k-1)||_F ||A||_F
        # (inner products of length n; the sum starts at zero, so adds
        # nothing), and the later steps carry it on as D_k A^(k'-k). So, to
        # first order, each side is within gamma_n n max|K| ||A||_F
        # sum_(j<k) ||A^j||_F of K_k, with ||K_(k-1)||_F <= n max|K|, and the
        # sides within twice that. Seed 1452 has max|K| = 47.2 and a gap of
        # 1.25e-12, past an absolute 1e-12
        vsys = random_stable_single(seed)
        kr = dl.fundamental_matrix(vsys, 8.0, "right")
        kl = dl.fundamental_matrix(vsys, 8.0, "left")
        ts = np.linspace(0.0, 8.0, 200)
        a, n = vsys.matrices[0], vsys.n
        top = max(float(np.max(np.abs(k.values), initial=np.max(np.abs(k.pre_value)))) for k in (kr, kl))
        spread = sum(np.linalg.norm(np.linalg.matrix_power(a, j)) for j in range(len(kr.values)))
        bound = 2.0 * gamma(n) * n * top * np.linalg.norm(a) * spread
        assert np.max(np.abs(kr.value_many(ts) - kl.value_many(ts))) <= bound


def count_lattices(monkeypatch):
    """A list that gets the horizon of every lattice generated from now on."""
    calls, generate = [], fundamental._Lattice.generate

    def counting(delays, horizon):
        calls.append(horizon)
        return generate(delays, horizon)

    monkeypatch.setattr(fundamental._Lattice, "generate", staticmethod(counting))
    return calls


def assert_same_step_function(got, want):
    for field in ("pre_value", "breakpoints", "values"):
        assert_bits_equal(getattr(got, field), getattr(want, field))
    assert (got.horizon, got.snap) == (want.horizon, want.snap)


class TestLoneDelayLattice:
    """A lone delay is exact: K's breakpoints follow U's knot formula, and
    an instant whose float is the horizon stays on the lattice."""

    def test_sqrt2_breakpoints_are_the_knots(self, w2):
        vsys = dl.validate(dl.DelaySystem.single([[0.3, -0.4], [0.2, 0.5]], math.sqrt(2.0)))
        u = dl.build_single_delay(vsys, w2)
        kfun = dl.fundamental_matrix(vsys, 100 * vsys.h_max)
        assert_bits_equal(kfun.breakpoints, exact_multiples(np.arange(101), u.h_exact))
        assert_bits_equal(kfun.breakpoints[:2], u.knots()[u.m:])

    @pytest.mark.parametrize("delay", [Fraction(1, 3), math.sqrt(2.0), 0.1])
    def test_responses_agree_at_endpoints_just_below_an_instant(self, delay):
        vsys = dl.validate(dl.DelaySystem.single([[0.5, 0.1], [0.0, 0.3]], delay))
        (d,) = vsys.delays
        phi = dl.InitialFunction.constant([1.0, 1.0])
        ends = [float(k * d) for k in range(1, 40) if Fraction(float(k * d)) < k * d]
        assert len(ends) >= 10
        for end in ends:
            grid = np.linspace(0.0, end, 11)
            gap = np.max(np.abs(dl.simulate(vsys, phi, grid) - dl.simulate_cauchy(vsys, phi, grid)))
            assert gap <= 1e-9, end


class TestKReuse:
    """A rational system keeps its longest K per side; any horizon it
    serves equals a build on a fresh instance, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=two_route_cases(),
        reaches=st.lists(st.one_of(st.floats(0.0, 6.0), st.integers(0, 40), st.just(0)), min_size=1, max_size=5),
        order=st.sampled_from(["drawn", "ascending", "descending"]),
    )
    def test_every_horizon_equals_a_fresh_build(self, case, reaches, order):
        vsys, _ = case
        if not vsys.is_rational:
            return
        h = fundamental.fraction_gcd(vsys.delays)
        # floats are multiples of h_max, integers lattice steps k h
        horizons = [float(r * h) if isinstance(r, int) else r * vsys.h_max for r in reaches]
        if order != "drawn":
            horizons.sort(reverse=order == "descending")
        for horizon in horizons + horizons[:1]:
            for side in ("right", "left"):
                want = dl.fundamental_matrix(dl.validate(vsys.system), horizon, side)
                assert_same_step_function(dl.fundamental_matrix(vsys, horizon, side), want)

    def test_one_lattice_per_side_for_nested_horizons(self, monkeypatch):
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(1), [[0.3]]), (Fraction(13, 10), [[0.2]])]))
        calls = count_lattices(monkeypatch)
        for horizon in (20.0, 7.5, 0.0, 20.0, 13.0):
            dl.fundamental_matrix(vsys, horizon)
        dl.fundamental_matrix(vsys, 5.0, side="left")
        assert calls == [20.0, 5.0]
        dl.fundamental_matrix(vsys, 20.5)
        assert calls == [20.0, 5.0, 20.5]

    def test_float_system_builds_every_call(self, ex3, monkeypatch):
        calls = count_lattices(monkeypatch)
        for horizon in (6.0, 3.0, 6.0):
            dl.fundamental_matrix(ex3, horizon)
        assert calls == [6.0, 3.0, 6.0]

    def test_kept_k_goes_with_its_system(self):
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(1), [[0.3]]), (Fraction(13, 10), [[0.2]])]))
        kept = weakref.ref(dl.fundamental_matrix(vsys, 20.0))
        assert kept() is not None
        del vsys
        gc.collect()
        assert kept() is None


class TestJumpTable:
    def test_scalar_jumps(self, scalar_half):
        table = dl.delta_k(scalar_half, 3.0)
        np.testing.assert_allclose([float(t) for t in table.times], [0, 1, 2, 3])
        np.testing.assert_allclose(
            [j[0, 0] for j in table.jumps], [1.0, 0.5, 0.25, 0.125], atol=1e-15
        )

    def test_matches_step_function_jumps(self, ex2a):
        k = dl.fundamental_matrix(ex2a, 6.0)
        table = dl.delta_k(ex2a, 6.0)
        step_jumps = k.jumps()
        for i, t in enumerate(k.breakpoints):
            from_table = table.jump_at(float(t))
            if from_table is None:
                from_table = np.zeros((2, 2))
            np.testing.assert_allclose(step_jumps[i], from_table, atol=1e-12)

    def test_origin_always_kept(self, ex2a):
        table = dl.delta_k(ex2a, 2.0)
        np.testing.assert_allclose(table.jump_at(0.0), np.eye(2), atol=1e-15)

    def test_small_jumps_dropped(self, scalar_half):
        table = dl.delta_k(scalar_half, 200.0, drop_tol=1e-6)
        # jumps are 0.5^k, last one above 1e-6 is k = 19
        assert len(table) == 20

    def test_min_gap(self, ex2a):
        table = dl.delta_k(ex2a, 4.0)
        assert table.min_gap() == pytest.approx(0.5)

    def test_shipped_drop_tolerance(self):
        # x(t) = 0.5 x(t - 1) jumps by 0.5^k at k: JUMP_DROP_TOL = 1e-14
        # keeps k <= 46 (0.5^46 = 1.4e-14, 0.5^47 = 7.1e-15) of 0..60
        vsys = dl.validate(dl.DelaySystem.single([[0.5]], Fraction(1)))
        assert dl.delta_k(vsys, 60.0).times.tolist() == list(range(47))
        assert len(dl.delta_k(vsys, 60.0, drop_tol=0.0)) == 61

    def test_jump_at_off_lattice(self, ex2a):
        assert dl.delta_k(ex2a, 4.0).jump_at(0.7) is None


class TestSimulate:
    def test_negative_grid_rejected(self, scalar_half):
        phi = dl.InitialFunction.constant([1.0])
        with pytest.raises(ValueError):
            dl.simulate(scalar_half, phi, [-0.5, 0.5])

    def test_scalar_constant_initial(self, scalar_half):
        phi = dl.InitialFunction.constant([1.0])
        out = dl.simulate(scalar_half, phi, [0.0, 0.5, 1.0, 2.0, 3.5])
        np.testing.assert_allclose(
            out[:, 0], [0.5, 0.5, 0.25, 0.125, 0.0625], atol=1e-14
        )

    def test_left_fundamental_columns_solve_recursion(self, ex2a):
        kl = dl.fundamental_matrix(ex2a, 6.0, "left")
        base = dl.k0(ex2a)
        grid = np.concatenate([kl.breakpoints, kl.breakpoints[:-1] + 0.21])
        grid = np.sort(grid)
        for i in range(2):
            phi = dl.InitialFunction.constant(base[:, i])
            out = dl.simulate(ex2a, phi, grid)
            want = kl.value_many(grid)[:, :, i]
            assert np.max(np.abs(out - want)) <= 1e-12

    def test_keys_of_one_shared_phase_fit(self):
        # delays 1 and 1 + 10^-15 to t = 200: steps of h = 10^-15 up to
        # 2 10^17, so steps times the 201 grid points pass int64, but every
        # point sits on a step, one phase, and the keys fit.  By hand x is
        # 0.6, 0.48, 0.324, 0.2052 at t = 0..3, and the convolution
        # response, on the jump table's exact steps, agrees within the
        # benchmark's 1e-9
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(1), [[0.3]]), (1 + Fraction(1, 10**15), [[0.3]])]))
        phi = dl.InitialFunction.constant([1.0])
        grid = np.linspace(0.0, 200.0, 201)
        got = dl.simulate(vsys, phi, grid)
        np.testing.assert_allclose(got[:4, 0], [0.6, 0.48, 0.324, 0.2052], rtol=1e-14)
        assert np.max(np.abs(got - dl.simulate_cauchy(vsys, phi, grid))) <= 1e-9

    def test_steps_past_int64_refused(self):
        tiny = Fraction(1, 2**62)
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(1), [[0.3]]), (1 + tiny, [[0.3]])]))
        with pytest.raises(dl.HorizonTooLarge, match=f"response steps to step .* of h = {tiny} do not fit in int64"):
            dl.simulate(vsys, dl.InitialFunction.constant([1.0]), [1.0])

    def test_node_cap(self, scalar_half, ex3, monkeypatch):
        phi = dl.InitialFunction.constant([1.0])
        monkeypatch.setattr(fundamental, "LATTICE_CAP", 10)
        with pytest.raises(dl.RecursionDepthExceeded):
            dl.simulate(scalar_half, phi, [50.0])
        # 20 levels deep, but the lattice of {1, sqrt 2} passes 60 points first
        monkeypatch.setattr(fundamental, "LATTICE_CAP", 60)
        with pytest.raises(dl.RecursionDepthExceeded):
            dl.simulate(ex3, dl.InitialFunction.constant([1.0, 0.0]), [20.0])

    def test_node_cap_long_horizon_short_delay_fails_fast(self):
        vsys = dl.validate(dl.DelaySystem.single(0.5, Fraction(1, 1000)))
        phi = dl.InitialFunction.constant([1.0])
        t0 = time.perf_counter()
        with pytest.raises(dl.RecursionDepthExceeded):
            dl.simulate(vsys, phi, [0.0, 5000.0])
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("route", [dl.simulate, dl.simulate_cauchy])
    def test_non_finite_grid_rejected_fast(self, ex3, bad, route):
        phi = dl.InitialFunction.constant([1.0, 0.0])
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="finite and nonnegative"):
            route(ex3, phi, [0.5, bad])
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("delays", [(Fraction(1), Fraction(3, 2)), (1.0, math.sqrt(2.0))])
    def test_responses_scale_with_the_delays(self, delays):
        # delays, phi's starts and the grid times s = 2^-40, and phi's slopes
        # over s: every float scales exactly and each argument reads the
        # same piece of phi, so both responses keep their bits
        s = 2.0**-40
        mats = ([[0.3, -0.2], [0.1, 0.4]], [[-0.25, 0.1], [0.2, 0.15]])
        starts, values, slopes = np.array([-1.5, -1.0]), [[1.0, 0.5], [-2.0, 3.0]], np.array([[0.5, -1.0], [0.0, 0.0]])
        vsys = dl.validate(dl.DelaySystem(2, list(zip(delays, mats))))
        small = dl.validate(dl.DelaySystem(2, [(d * (Fraction(s) if isinstance(d, Fraction) else s), a)
                                               for d, a in zip(delays, mats)]))
        phi, phi_s = dl.InitialFunction(starts, values, slopes), dl.InitialFunction(s * starts, values, slopes / s)
        assert_bits_equal(phi_s.value_many(s * np.array([-1.2, -1.0, -0.4])), phi.value_many([-1.2, -1.0, -0.4]))
        grid = np.union1d(np.linspace(0.0, 6.0, 61), dl.discontinuity_instants(vsys, 6.0))
        for route in (dl.simulate, dl.simulate_cauchy):
            assert_bits_equal(route(small, phi_s, s * grid), route(vsys, phi, grid))

    def test_cauchy_matches_recursive(self, ex2a_half):
        phi = dl.InitialFunction(
            [-1.5, -0.8],
            [[1.0, -0.5], [0.25, 2.0]],
        )
        grid = np.linspace(0.0, 6.0, 120)
        a = dl.simulate(ex2a_half, phi, grid)
        b = dl.simulate_cauchy(ex2a_half, phi, grid)
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_cauchy_matches_recursive_unstable(self, ex2b):
        # the superposition identity is algebraic, no stability involved
        phi = dl.InitialFunction.constant([0.3, -1.0])
        grid = np.linspace(0.0, 4.0, 60)
        a = dl.simulate(ex2b, phi, grid)
        b = dl.simulate_cauchy(ex2b, phi, grid)
        assert np.max(np.abs(a - b)) <= 1e-9


def response_grid(vsys, reach, seed):
    """Lattice points up to reach, each also a quarter quantum and three
    quanta either side, then 0 and repeated points, shuffled.  A quarter
    quantum stays in the lattice point's key; half a quantum, where the
    key of a point is decided by round-off, is avoided, since there the
    value follows which path reaches the key first."""
    instants = np.array(dl.discontinuity_instants(vsys, reach))
    quantum = 1e-12 * max(vsys.h_max, reach)
    grid = np.concatenate([instants + off * quantum for off in (0.0, -0.25, 0.25, -3.0, 3.0)] + [[0.0], instants[::2]])
    grid = grid[grid >= 0.0]
    np.random.default_rng(seed).shuffle(grid)
    return grid


def sloped_phi(vsys, seed):
    """Continuous piecewise linear data on [-h_max, 0): a leaf argument
    moved by e moves the data by at most e times the largest slope."""
    rng = np.random.default_rng(seed)
    v0, slopes = rng.uniform(-1, 1, vsys.n), rng.uniform(-1, 1, (2, vsys.n))
    return dl.InitialFunction([-vsys.h_max, -0.4 * vsys.h_max], [v0, v0 + 0.6 * vsys.h_max * slopes[0]], slopes)


def assert_response_matches_reference(vsys, phi, grid):
    """Bitwise equal for constant data and for rational delays, whose
    leaves read phi at their exact key's argument.  For float delays and
    sloped data a leaf's argument may come from another path: two floats
    of one key differ by under a quantum q (plus round-off far below it),
    so each leaf value moves by at most 2 q s for the largest slope s, and
    x(t), a sum over paths of products of A_j applied to leaf values, by
    at most G 2 q s with G the path gain max(1, sum_j ||A_j||_inf) **
    depth, depth <= t / h_min + 1."""
    got, want = dl.simulate(vsys, phi, grid), reference_simulate(vsys, phi, grid)
    slope = float(np.max(np.abs(phi.slopes)))
    if slope == 0.0 or vsys.is_rational or np.array_equal(got.view(np.uint64), want.view(np.uint64)):
        assert_bits_equal(got, want)
        return
    tmax = float(np.max(grid))
    quantum = 1e-12 * max(vsys.h_max, tmax)
    gain = max(1.0, sum(float(np.max(np.sum(np.abs(a), axis=1))) for a in vsys.matrices)) ** (tmax / vsys.h_min + 1)
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= gain * 2.0 * quantum * slope


class TestResponseMatchesReference:
    """The level-by-level response against the memoized descent."""

    @settings(max_examples=40, deadline=None)
    @given(case=two_route_cases(), reach=st.floats(0.0, 5.0), seed=st.integers(0, 2**16), sloped=st.booleans())
    def test_two_route_cases(self, case, reach, seed, sloped):
        vsys, _ = case
        rng = np.random.default_rng(seed)
        phi = sloped_phi(vsys, seed) if sloped else dl.InitialFunction.constant(rng.uniform(-1, 1, vsys.n))
        assert_response_matches_reference(vsys, phi, response_grid(vsys, reach * vsys.h_max, seed))

    # sloped data on a uniform grid gives the descent's bits when every key
    # is first reached along the path the descent takes first, and always
    # on rational delays, whose leaves read their exact key's argument; with
    # the near-merging pair 1, 1 + 1e-10 a key can also be reached in fewer
    # steps, and 22 of 456 entries differ, within the bound
    @pytest.mark.parametrize("delays, same_paths", [
        ((Fraction(1), Fraction(13, 10), Fraction(17, 10)), True),
        ((1.0, math.sqrt(2.0)), True),
        ((0.3, 1.0, 1.0 + 1e-10), False),
        ((math.pi / 7, 1.0), True),
    ])
    def test_wide_matrices(self, delays, same_paths):
        n = 8
        rng = np.random.default_rng(len(delays))
        mats = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in delays]
        scale = 0.6 / sum(np.linalg.norm(a, 2) for a in mats)
        vsys = dl.validate(dl.DelaySystem(n, [(d, scale * a) for d, a in zip(delays, mats)]))
        grid = np.linspace(0.0, 4.0 * vsys.h_max, 57)
        for phi in (dl.InitialFunction.constant(rng.uniform(-1, 1, n)), sloped_phi(vsys, 1)):
            if same_paths:
                assert_bits_equal(dl.simulate(vsys, phi, grid), reference_simulate(vsys, phi, grid))
            assert_response_matches_reference(vsys, phi, grid)
            assert_response_matches_reference(vsys, phi, response_grid(vsys, 3.0 * vsys.h_max, 2))


def scaled(vsys, gain):
    """vsys with every coefficient times gain."""
    return dl.validate(dl.DelaySystem(vsys.n, [(d, gain * a) for d, a in vsys.entries]))


def lattice_grid(vsys, horizon):
    """41 uniform points, and the instants to horizon, each also moved
    either way by half the jump table's tol, by that tol and by 1e-9 (the
    initial function's slack at starts within 1 of 0): the loop's tests on
    theta then decide by round-off."""
    instants = np.array(dl.discontinuity_instants(vsys, horizon))
    tol = dl.delta_k(vsys, horizon).tol
    moved = [instants + s * off for off in (0.5 * tol, tol, 1e-9) for s in (-1.0, 1.0)]
    grid = np.concatenate([np.linspace(0.0, horizon, 41), instants] + moved)
    return np.sort(grid[(grid >= 0.0) & (grid <= horizon)])


class TestCauchyVectorised:
    """The vectorised sum against the per-(t, t_q, h_j) loop, within the
    rounding bound of assert_cauchy_matches_reference: a misclassified
    instant or delay moves a whole term and breaks it."""

    @settings(max_examples=30, deadline=None)
    @given(
        case=two_route_cases(),
        kind=st.sampled_from(["constant", "stepped", "sloped"]),
        gain=st.sampled_from([1.0, 3.0]),
    )
    def test_equals_reference_loop(self, case, kind, gain):
        # gain 3 puts the sum of the coefficient 2-norms at 1.8: dK grows
        vsys = scaled(case[0], gain)
        n, hmax = vsys.n, vsys.h_max
        rng = np.random.default_rng(n)
        if kind == "constant":
            phi = dl.InitialFunction.constant(rng.uniform(-1, 1, n))
        else:
            # the stepped jump sits at -h_1, a difference of lattice instants
            # when h_1 < h_max
            step = -vsys.h_min if vsys.h_min < hmax else -0.5 * hmax
            starts = [-hmax, step] if kind == "stepped" else [-hmax, -0.4 * hmax]
            slopes = rng.uniform(-1, 1, (2, n)) if kind == "sloped" else None
            phi = dl.InitialFunction(starts, rng.uniform(-1, 1, (2, n)), slopes)
        assert_cauchy_matches_reference(vsys, phi, lattice_grid(vsys, 3.0 * hmax))

    def test_chunked_walk_equals_reference(self, ex2a_half, monkeypatch):
        phi = dl.InitialFunction([-1.5, -0.8], [[1.0, -0.5], [0.25, 2.0]], [[0.3, 0.0], [0.0, -1.0]])
        grid = np.linspace(0.0, 6.0, 97)
        whole = dl.simulate_cauchy(ex2a_half, phi, grid)
        # 28 entries: two grid points per chunk, and each pair forms its own
        # weight, as the 8 phases of the grid by 3 steps no longer fit
        monkeypatch.setattr(fundamental, "CHUNK_ENTRIES", 28)
        assert_bits_equal(assert_cauchy_matches_reference(ex2a_half, phi, grid), whole)

    def test_empty_grid(self, ex2a):
        phi = dl.InitialFunction.constant([1.0, 2.0])
        assert dl.simulate_cauchy(ex2a, phi, []).shape == (0, 2)
        assert dl.simulate(ex2a, phi, []).shape == (0, 2)

    def test_phi_short_of_the_delay_raises_as_the_loop(self, ex2a):
        # phi stops short of -h_max = -1.5: the first term past it fails, and
        # an empty grid reads nothing
        short = dl.InitialFunction([-1.0], [[1.0, 2.0]])
        for route in (dl.simulate_cauchy, lambda *args: reference_cauchy(*args)[0]):
            with pytest.raises(dl.OutOfDomain, match=r"defined on \[-1.0, 0\)"):
                route(ex2a, short, np.linspace(0.0, 3.0, 13))
            assert route(ex2a, short, []).shape == (0, 2)

    def test_origin_only(self, ex2a):
        phi = dl.InitialFunction.constant([1.0, 2.0])
        out = assert_cauchy_matches_reference(ex2a, phi, [0.0])
        np.testing.assert_allclose(out[0], dl.simulate(ex2a, phi, [0.0])[0], atol=1e-15)


class TestCauchyIntegerSteps:
    """Rational delays put every time on integer steps of h: the
    convolution response maps each grid point to its step count k and
    phase xi, on a jump table that reaches the last step a grid point maps
    to; the recursion response descends on exact keys k P + p; and K and
    dK keep the last step to a horizon by the same rule."""

    @settings(max_examples=10, deadline=None)
    @given(
        p=st.integers(1, 12),
        q=st.integers(1, 12),
        a=st.sampled_from([-1.0, 0.5]),
        k=st.integers(0, 10**5),
    )
    # fl(k d) lies below k d by more than a lattice's snap 1e-12 d: a table
    # grown to fl(k d) + snap ends a step short and would read 0.0, and a
    # descent by repeated float subtraction drifts off its keys and read
    # -1.0 at the second; both must read +1
    @example(p=1, q=3, a=-1.0, k=100_001)
    @example(p=1, q=10, a=-1.0, k=100_003)
    def test_far_endpoint_reads_its_step(self, p, q, a, k):
        # x(t) = a x(t - d), phi = 1: x(k d) = a^(k+1), the convolution's
        # one term dK(k d) A phi(-d), where jumps a^k below JUMP_DROP_TOL
        # leave the table, and the recursion's k + 1 products down to step -1
        vsys = dl.validate(dl.DelaySystem.single([[a]], Fraction(p, q)))
        t = float(Fraction(k * p, q))
        for route in (dl.simulate_cauchy, dl.simulate):
            (got,) = route(vsys, dl.InitialFunction.constant([1.0]), [t])[:, 0]
            assert got == pytest.approx(a ** (k + 1), rel=1e-15, abs=JUMP_DROP_TOL), route.__name__

    def test_k_and_dk_keep_the_far_step(self):
        # x(t) = -x(t - 1/3) to fl(100001/3), 2.4e-12 below the step 100001
        # and so past 1e-12 h_max, but within 1e-12 max(h_max, horizon): K on
        # both sides and dK keep that step, and read it, K = K0 (-1)^k with
        # K0 = -1/2 and dK = (-1)^k
        vsys = dl.validate(dl.DelaySystem.single([[-1.0]], Fraction(1, 3)))
        t = float(Fraction(100_001, 3))
        assert Fraction(100_001, 3) - Fraction(t) > 1e-12 * vsys.h_max
        for side in ("right", "left"):
            kfun = dl.fundamental_matrix(vsys, t, side)
            assert len(kfun.breakpoints) == 100_002
            assert kfun.value(t)[0, 0] == -0.5
        table = dl.delta_k(vsys, t)
        assert len(table) == 100_002
        assert table.jump_at(t)[0, 0] == -1.0

    def test_k_reads_the_step_its_jump_table_reads(self):
        # x(t) = -x(t - 1/10), phi = 1, to 10000.5: two ulps below fl(k / 10)
        # lies within 1e-12 max(h_max, horizon) of the step k but past
        # 1e-12 h_max.  K on both sides reads step k there, (-1)^k / 2, as
        # dK's table (and either time response) places that point
        vsys = dl.validate(dl.DelaySystem.single([[-1.0]], Fraction(1, 10)))
        kfuns = [dl.fundamental_matrix(vsys, 10000.5, side) for side in ("right", "left")]
        table = dl.delta_k(vsys, 10000.5)
        for k in range(100_001, 100_005):
            t = math.nextafter(math.nextafter(float(Fraction(k, 10)), 0.0), 0.0)
            for kfun in kfuns:
                assert kfun.value(t)[0, 0] == 0.5 * (-1.0) ** k
            assert table.times[table.index_many(t)] == float(Fraction(k, 10))

    @pytest.mark.parametrize("delays, horizon", [
        ([Fraction(1, 10), Fraction(13, 10)], 5.0),
        ([Fraction(1, 10), Fraction(13, 10)], 2000.0),
        ([1.0, math.sqrt(2.0)], 5.0),
        ([1.0, math.sqrt(2.0)], 50.0),
    ])
    def test_k_and_dk_share_one_snap(self, delays, horizon):
        # one lookup tolerance per lattice: K's snap is its jump table's tol,
        # a kept K's prefix takes its own horizon's, and K's domain ends at
        # horizon + snap
        vsys = dl.validate(dl.DelaySystem(1, [(d, [[0.4 if j else 0.3]]) for j, d in enumerate(delays)]))
        kfun = dl.fundamental_matrix(vsys, horizon)
        assert kfun.snap == dl.delta_k(vsys, horizon).tol
        assert dl.fundamental_matrix(vsys, 2.0).snap == dl.delta_k(vsys, 2.0).tol
        kfun.value(horizon + kfun.snap)
        with pytest.raises(dl.OutOfDomain):
            kfun.value(math.nextafter(horizon + kfun.snap, math.inf))

    def test_tie_at_tol_sits_on_the_step(self):
        # a grid to nextafter(tol) has tol = 1e-12 h_max exactly: the point
        # tol above the step 0, the tie, sits at 0 and reads x(0)'s bits;
        # the next float is a phase xi past it, where x has the slope
        # 2 (0.3 - 0.4) of phi's arguments -1 + xi and -1.5 + xi
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(1), [[0.3]]), (Fraction(3, 2), [[-0.4]])]))
        phi = dl.InitialFunction([-1.5], [[1.0]], [[2.0]])
        tol = 1e-12 * vsys.h_max
        grid = [0.0, tol, math.nextafter(tol, 1.0)]
        out = dl.simulate_cauchy(vsys, phi, grid)[:, 0]
        assert out[1] == out[0]
        assert out[0] - out[2] == pytest.approx(0.2 * grid[2], rel=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(
        num=st.integers(1, 10**6),
        den=st.integers(1, 10**6),
        k=st.one_of(st.integers(0, 10**4), st.integers(2**52, 2**54)),
        off=st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0]),
        ulps=st.integers(-3, 3),
        scale=st.sampled_from([1.0, 1e-12, 1e-9, 1e-3]),
    )
    # half a tol below the step 1000 of 1/3: the step of the point, and the
    # last step to it as a horizon (1e-12 h_max alone falls short of it)
    @example(num=1, den=3, k=1000, off=-0.5, ulps=0, scale=1.0)
    def test_step_phases_equal_exact_map(self, num, den, k, off, ulps, scale):
        # points k h moved by off tol (a tie at |off| = 1), a few ulps either
        # way, or by off times a scale of h: the float estimate with its
        # exact fallback gives the Fraction map of every point
        h = Fraction(num, den)
        base = float(k * h)
        tol = 1e-12 * base if base > 0 else 1e-12 * float(h)
        grid = np.array([base, base + off * tol, base + off * scale * float(h)])
        for _ in range(abs(ulps)):
            grid = np.nextafter(grid, math.copysign(math.inf, ulps))
        grid = grid[grid >= 0.0]
        steps, phases = fundamental._step_phases(grid, h, tol)
        for t, step, xi in zip(grid.tolist(), steps.tolist(), phases.tolist()):
            near = round(Fraction(t) / h)
            if abs(Fraction(t) - near * h) <= tol:
                assert (step, xi) == (near, 0.0)
            else:
                floor = math.floor(Fraction(t) / h)
                assert (step, xi) == (floor, t - float(floor * h))
                assert 0.0 < xi < float(h)
            # the last step to the horizon t is the step of the point t, with
            # tol = 1e-12 max(h_max, t), wherever that tol leaves one step
            # nearest (2 tol < h)
            own = 1e-12 * max(float(h), t)
            if 2.0 * own < float(h):
                (last,), _ = fundamental._step_phases(np.array([t]), h, own)
                assert fundamental._last_step([h], t) == last


class TestSnappedLookup:
    """StepMatrixFunction, JumpTable and InitialFunction lookups all go
    through one vectorised path; the scalar entry points must agree with
    it bit for bit."""

    @pytest.mark.parametrize("name", ["ex2a", "ex3"])
    def test_value_many_at_and_around_breakpoints(self, name, request):
        vsys = request.getfixturevalue(name)
        k = dl.fundamental_matrix(vsys, 5.0)
        bp = k.breakpoints
        ts = np.concatenate([bp, bp - 0.5 * k.snap, bp + 0.5 * k.snap])
        ts = ts[ts <= k.horizon]
        stacked = k.value_many(ts)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(stacked[i], k.value(float(t)))
        # a query just below a breakpoint snaps onto it
        np.testing.assert_array_equal(k.value_many(bp - 0.5 * k.snap), k.values)

    @pytest.mark.parametrize("name", ["ex2a", "ex3"])
    def test_jump_table_index_many_agrees_with_jump_at(self, name, request):
        vsys = request.getfixturevalue(name)
        table = dl.delta_k(vsys, 5.0)
        t = table.times
        ts = np.concatenate([t, t + 0.5 * table.tol, t - 0.5 * table.tol, t + 0.37, [-1.0, 6.5]])
        idx = table.index_many(ts)
        for i, x in zip(idx, ts):
            got = table.jump_at(float(x))
            if i < 0:
                assert got is None
            else:
                np.testing.assert_array_equal(got, table.jumps[i])
        np.testing.assert_array_equal(idx[: 3 * len(t)], np.tile(np.arange(len(t)), 3))

    def test_helper_modes(self):
        pts = np.array([0.0, 1.0, 2.0])
        ts = [-0.5, 0.0, 0.99, 1.0 - 1e-13, 1.5, 2.0, 2.5]
        assert snapped_lookup(pts, ts, 1e-12, 3.0).tolist() == [-1, 0, 0, 1, 1, 2, 2]
        assert snapped_lookup(pts, ts, 1e-12, 3.0, instants=True).tolist() == [-1, 0, -1, 1, -1, 2, -1]

    def test_step_function_out_of_domain(self, ex2a):
        k = dl.fundamental_matrix(ex2a, 5.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(dl.OutOfDomain):
                k.value(bad)
        with pytest.raises(dl.OutOfDomain, match="got 7.5"):
            k.value_many([0.5, 1.0, 7.5, 2.0, 9.0])
        with pytest.raises(dl.OutOfDomain, match="got nan"):
            k.value_many(np.array([[0.5, math.nan]]))
        with pytest.raises(dl.OutOfDomain):
            dl.delta_k(ex2a, 5.0).jump_at(math.nan)

    def test_initial_function_out_of_domain(self):
        lin = dl.InitialFunction([-1.5, -0.8], [[1.0, -0.5], [0.25, 2.0]], [[0.3, 0.0], [0.0, 0.0]])
        const = dl.InitialFunction.constant([1.0, 2.0])
        for phi in (lin, const):
            for bad in (math.nan, math.inf, 0.0, 0.5):
                with pytest.raises(dl.OutOfDomain):
                    phi.value(bad)
            with pytest.raises(dl.OutOfDomain, match="got 0.0"):
                phi.value_many([-0.5, -0.2, 0.0, -0.1])
            with pytest.raises(dl.OutOfDomain, match="got nan"):
                phi.value_many([-0.5, math.nan])
        with pytest.raises(dl.OutOfDomain, match="got -2.0"):
            lin.value_many([-0.5, -2.0])
        np.testing.assert_array_equal(const.value_many([-math.inf, -1e9]), [[1.0, 2.0], [1.0, 2.0]])

    def test_initial_function_value_many_matches_value(self):
        phi = dl.InitialFunction(
            [-2.0, -1.5, -0.8], [[-0.0, 1.0], [0.1, -0.5], [0.25, 2.0]], [[0.0, 0.0], [0.3, 0.7], [0.0, 0.0]]
        )
        starts = phi.starts
        thetas = np.concatenate([starts, starts + 1e-12, starts[1:] - 1e-12, [-2.0 - 1e-10, -1e-300, -1.1]])
        stacked = phi.value_many(thetas)
        for i, theta in enumerate(thetas):
            np.testing.assert_array_equal(stacked[i], phi.value(float(theta)))
        # constant segments return their stored values untouched
        assert np.signbit(phi.value(-1.9)[0]) and np.signbit(stacked[0][0])

    def test_initial_function_snaps_onto_piece_starts(self):
        # an argument an ulp below -1.0, as fl(t - h_j - t_q) can give,
        # reads the piece at -1.0, as at -1.0; one past the slack 1e-9 does not
        phi = dl.InitialFunction([-1.7, -1.0], [[1.0, -1.0], [-2.0, 3.0]], [[0.5, 0.0], [1.0, 0.0]])
        below = np.nextafter(-1.0, -2.0)
        np.testing.assert_array_equal(phi.value_many([below, -1.0 - 0.9e-9]), [[-2.0, 3.0], [-2.0, 3.0]])
        np.testing.assert_allclose(phi.value(-1.0 - 2e-9), [1.0 + 0.5 * (0.7 - 2e-9), -1.0], rtol=1e-15)
        np.testing.assert_array_equal(phi.value(np.nextafter(-1.7, -2.0)), [1.0, -1.0])
        with pytest.raises(dl.OutOfDomain):
            phi.value(-1.7 - 2e-9 * 1.7)

    def test_initial_function_slack_is_per_start(self):
        # a far left first start does not widen the slack at the others
        phi = dl.InitialFunction([-1e6, -1.0], [[1.0], [2.0]])
        assert phi.value(-1.0005)[0] == 1.0
        assert phi.value(-1.0 - 2e-9)[0] == 1.0
        assert phi.value(np.nextafter(-1.0, -2.0))[0] == 2.0
        assert phi.value(-1e6 - 0.9e-3)[0] == 1.0
        # a -inf first start reads -inf without a NaN warning
        const = dl.InitialFunction([-math.inf, -200.0], [[1.0], [2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(const.value_many([-math.inf, -200.0 - 1e-7]), [[1.0], [2.0]])
            np.testing.assert_array_equal(dl.InitialFunction.constant([1.0]).value_many([-math.inf]), [[1.0]])

    def test_shapes_kept(self, ex2a):
        k = dl.fundamental_matrix(ex2a, 5.0)
        table = dl.delta_k(ex2a, 5.0)
        phi = dl.InitialFunction.constant([1.0, 2.0])
        grid = np.linspace(0.0, 4.0, 12).reshape(3, 4)
        assert k.value_many(np.float64(0.5)).shape == (2, 2)
        assert k.value_many(grid).shape == (3, 4, 2, 2)
        assert table.index_many(1.0).shape == ()
        assert table.index_many(grid).shape == (3, 4)
        assert phi.value_many(-0.5).shape == (2,)
        assert phi.value_many(-grid - 0.1).shape == (3, 4, 2)
        np.testing.assert_array_equal(k.value_many(grid)[1, 2], k.value(float(grid[1, 2])))
        np.testing.assert_array_equal(k.value_many(iter([0.5, 1.5])), k.value_many([0.5, 1.5]))


class TestRowChunks:
    def test_row_chunks_cover_in_order(self, monkeypatch):
        import delaylyap.fundamental as fundamental

        monkeypatch.setattr(fundamental, "CHUNK_ENTRIES", 100)
        assert list(row_chunks(7, 30)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert list(row_chunks(2, 1000)) == [slice(0, 1), slice(1, 2)]
        assert list(row_chunks(0, 30)) == []


class TestCsv:
    def test_write_csv_equals_repr_writer(self):
        table = np.array([
            [0.0, -0.0, np.inf, -np.inf],
            [np.nan, 5e-324, 1e16, 1e-5],
            [1e22, -1e22, 1.0 / 3.0, -2.5e300],
        ])
        old = io.StringIO()
        writer = csv.writer(old)
        writer.writerow(["a", "b", "c", "d"])
        writer.writerows([list(map(repr, row)) for row in table.tolist()])
        new = io.StringIO()
        write_csv(new, ["a", "b", "c", "d"], table)
        assert new.getvalue() == old.getvalue()

    @pytest.mark.parametrize("header, table", [
        (["a", "b", "c", "d"], np.array([
            [np.nan, np.inf, -np.inf, -0.0],
            [5e-324, -2.2e-308, 1e16, 1e-5],
            [1.0, -3.0, 2.0**53, 1e300],
        ])),
        (["t", "x1"], np.zeros((0, 2))),
        (["t"], np.array([[0.0], [-0.0], [7.0], [1e-320]])),
    ])
    def test_write_csv_equals_csv_writer_bytes(self, header, table):
        # csv.writer writes a float field as its repr, with CRLF line ends
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(header)
        writer.writerows(table.tolist())
        got = io.StringIO(newline="")
        write_csv(got, header, table)
        assert got.getvalue().encode() == want.getvalue().encode()

    def test_step_csv_header_and_determinism(self, ex2a):
        k = dl.fundamental_matrix(ex2a, 2.0)
        buf1, buf2 = io.StringIO(), io.StringIO()
        dl.step_to_csv(k, buf1)
        dl.step_to_csv(k, buf2)
        text = buf1.getvalue()
        assert text == buf2.getvalue()
        assert text.splitlines()[0] == "t,K11,K12,K21,K22"

    def test_trajectory_csv(self):
        buf = io.StringIO()
        dl.trajectory_to_csv([0.0, 1.0], np.array([[1.0, 2.0], [3.0, 4.0]]), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,x1,x2"
        assert lines[1] == "0.0,1.0,2.0"

    def test_bytes_equal_row_by_row_writers(self, ex2a, u_ex2a):
        def row_by_row(header, firsts, rests, extra=()):
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(header)
            for first, rest in zip(firsts, rests):
                writer.writerow(
                    [repr(float(first))] + [repr(float(x)) for x in np.ravel(rest)] + [repr(float(x)) for x in extra]
                )
            return buf.getvalue()

        def written(write, *args):
            buf = io.StringIO()
            write(*args, buf)
            return buf.getvalue()

        kfun = dl.fundamental_matrix(ex2a, 6.0)
        want = row_by_row(["t", "K11", "K12", "K21", "K22"], kfun.breakpoints, kfun.values)
        assert written(dl.step_to_csv, kfun) == want
        times = [0.0, 0.5, 1.0, 2.0]
        states = np.array([[-0.0, 1e-300], [1.0 / 3.0, -2.5e300], [np.nan, np.inf], [7.0, -1e-17]])
        assert written(dl.trajectory_to_csv, times, states) == row_by_row(["t", "x1", "x2"], times, states)
        assert written(dl.trajectory_to_csv, [], np.empty((0, 2))) == "t,x1,x2\r\n"
        taus = np.linspace(-1.5, 1.5, 13)
        want = row_by_row(["tau", "U11", "U12", "U21", "U22"], taus, u_ex2a.evaluate_many(taus))
        assert written(dl.piecewise_to_csv, u_ex2a, taus) == want
        # the spectrum is exact: its bound column is all zeros
        spectrum = dl.jumps_from_segments(u_ex2a)
        header = ["tau", "dU11", "dU12", "dU21", "dU22", "bound"]
        assert written(spectrum.to_csv) == row_by_row(header, spectrum.taus, spectrum.jumps, [0.0])
