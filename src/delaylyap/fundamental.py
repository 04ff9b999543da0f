"""Fundamental matrix machinery.

The fundamental matrix K of x(t) = sum_j A_j x(t - h_j) equals the
constant K0 = (sum A_j - I)^-1 on [-H, 0) and satisfies the same
difference equation for t >= 0.  It is piecewise constant and right
continuous; its only discontinuities sit on the delay semigroup
lattice {sum_j p_j h_j : p_j >= 0 integers}.  This module generates that
lattice, evaluates K from either the right or the left recursion, builds
the table of its jumps, and runs the time response of a system by two
independent methods (recursion to the initial function, jump convolution).

Rational delays put the lattice on exact int64 multiples of h = gcd(h_j),
float delays on a merge-tolerant float lattice.  K, dK and the recursion
response share one kernel, _recurse: runs of points that depend only on
earlier runs, each one gather of every source and one stacked product
with every A_j, summed in delay order: the bits of a per-point loop.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    HorizonTooLarge,
    NonincreasingDelays,
    OutOfDomain,
    RecursionDepthExceeded,
)
from .system_model import InitialFunction, ValidatedSystem, fraction_gcd, k0

# most points K, dK and either time response may generate
LATTICE_CAP = 1_000_000
# relative merge tolerance for float-delay lattices
MERGE_TOL_SCALE = 1e-9
# jump entries smaller than this (max abs) are dropped from tables
JUMP_DROP_TOL = 1e-14
# entries per chunked temporary (128-256 KiB, so the few live ones stay in
# cache): gathers of row_chunks, the n x n products of the convolution
# response, torus eigvals, batched n x n solves and root-pair blocks of
# the stability screen
CHUNK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class _Lattice:
    """Sorted semigroup instants with the keys their lookups run on.

    An all-rational delay set is commensurate with step h = gcd(h_j), so
    every instant is an exact multiple k h: keys holds the int64 k <=
    _last_step(horizon), shifts the delays m_j = h_j / h, and lookups
    match exactly (key_snap 0).  Any float delay gives a float lattice to
    the float sum horizon + MERGE_TOL_SCALE * h_max: keys are the instants,
    points closer than that tolerance merge and lookups snap with it.
    floats are the instants as floats, snap the tolerance of value lookups.
    """

    keys: np.ndarray
    shifts: np.ndarray
    key_snap: float
    floats: np.ndarray
    snap: float

    @classmethod
    def generate(cls, delays: Sequence, horizon: float) -> "_Lattice":
        if all(isinstance(d, Fraction) for d in delays):
            # grown in blocks of m_1: an instant in [b m_1, (b+1) m_1) is p + m_j for an
            # instant p below b m_1, every block holds one (so the point cap bounds the
            # block count), and the first full block, which gcd(m_j) = 1 ensures, ends it
            h, top = fraction_gcd(delays), _last_step(delays, horizon) if math.isfinite(horizon) else math.inf
            shifts = [int(d / h) for d in delays]
            if top + shifts[-1] > np.iinfo(np.int64).max:
                raise HorizonTooLarge(f"semigroup lattice up to step {top} of h = {h} does not fit in int64")
            m1, steps = shifts[0], np.array(shifts, dtype=np.int64)
            keys = np.zeros(64, dtype=np.int64)
            size = 1
            for start in range(m1, top + 1, m1):
                known = keys[:size]
                lo, hi = np.searchsorted(known, [start - steps, start + m1 - steps])
                new = np.unique(np.concatenate([known[a:b] + m for a, b, m in zip(lo, hi, steps)]))
                # a full block is past the conductor: every later k is a member plus c m1
                full = len(new) == m1
                count = top + 1 - start if full else int(np.searchsorted(new, top, side="right"))
                if size + count > LATTICE_CAP:
                    raise HorizonTooLarge(f"semigroup lattice up to step {top} of h = {h} exceeds {LATTICE_CAP} points")
                if size + count > len(keys):
                    keys = np.concatenate([keys, np.empty(max(len(keys), count), dtype=np.int64)])
                keys[size:size + count] = np.arange(start, top + 1) if full else new[:count]
                size += count
                if full:
                    break
            keys = keys[:size].copy()
            return cls(keys, steps, 0, exact_multiples(keys, h), 1e-12 * float(delays[-1]))
        if not math.isfinite(horizon):
            raise HorizonTooLarge(f"semigroup lattice up to {horizon} has no last point")
        steps = [float(d) for d in delays]
        tol = MERGE_TOL_SCALE * steps[-1]
        if steps[0] <= tol:
            # every step of it would merge onto its own source
            raise NonincreasingDelays(f"delay {steps[0]} is within the lattice merge tolerance {tol} of zero")
        limit = horizon + tol
        heap = [0.0]
        seen = {0: 0.0}
        out = []
        while heap:
            t = heapq.heappop(heap)
            out.append(t)
            if len(out) > LATTICE_CAP:
                raise HorizonTooLarge(f"semigroup lattice up to {horizon} exceeds {LATTICE_CAP} points")
            for d in steps:
                s = t + d
                if s > limit:
                    continue
                b = round(s / tol)
                if any(bb in seen and abs(seen[bb] - s) <= tol for bb in (b - 1, b, b + 1)):
                    continue
                seen[b] = s
                heapq.heappush(heap, s)
        floats = np.array(out)
        return cls(floats, np.array(steps), tol, floats, tol)

    def __len__(self) -> int:
        return len(self.keys)

    def sources(self, instants: bool = False) -> np.ndarray:
        """Index of each t - h_j, instants by delays: the segment holding
        it (-1 before the first), or with instants=True the instant at it
        (-1 where there is none)."""
        return snapped_lookup(self.keys, self.keys[:, None] - self.shifts, self.key_snap, math.inf, instants=instants)


def exact_multiples(ks, h: Fraction) -> np.ndarray:
    """float(k * h) for every int k in ks: exact float operands below 2^53
    and one correctly rounded division, else Python int division."""
    ks, num, den = np.asarray(ks, dtype=np.int64), h.numerator, h.denominator
    if int(np.max(np.abs(ks), initial=0)) * num < 2**53 and den < 2**53:
        return ks * float(num) / float(den)
    return np.array([k * num / den for k in ks.ravel().tolist()], dtype=float).reshape(ks.shape)


def _last_step(delays: Sequence[Fraction], horizon: float) -> int:
    """The last step k of h = gcd(delays) with k h <= horizon + tol, an
    exact sum, tol = 1e-12 max(h_max, horizon) as in _step_phases: where a
    lattice, a kept K, a jump table or the response's keys to horizon end."""
    tol = 1e-12 * max(float(delays[-1]), horizon)
    return math.floor((Fraction(horizon) + Fraction(tol)) / fraction_gcd(delays))


def _recurse(values: np.ndarray, src: np.ndarray, first: int, mats: Sequence[np.ndarray], left: bool) -> None:
    """Fill rows first to len(src) - 1 of values with row i =
    sum_j values[src[i, j]] A_j (A_j values[src[i, j]] if left), summed
    onto +0 in delay order: the bits of a per-row loop.  Every source is a
    real row: a source -1 reads the last row of values, which a caller
    that has such sources holds past len(src) and which is never written.
    Rows go in runs [s, e) whose sources all lie before s, each one gather
    and one stacked product."""
    mats = np.array(mats)
    dep = np.maximum.accumulate(src.max(axis=1)).tolist()
    s = first
    while s < len(dep):
        e = max(s + 1, bisect.bisect_left(dep, s))
        prod = np.matmul(mats, values[src[s:e]]) if left else np.matmul(values[src[s:e]], mats)
        out = values[s:e]
        np.add(prod[:, 0], 0.0, out=out)
        for j in range(1, len(mats)):
            out += prod[:, j]
        s = e


def discontinuity_instants(vsys: ValidatedSystem, horizon: float) -> list[float]:
    """All possible discontinuity instants of K to horizon (_Lattice), ordered.
    Raises ValueError for a negative or NaN horizon, HorizonTooLarge past
    LATTICE_CAP points or, for rational delays, past int64 steps of h."""
    if not horizon >= 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    return _Lattice.generate(vsys.delays, horizon).floats.tolist()


def snapped_lookup(
    points: np.ndarray, ts, snap: float, limit: float, *, instants: bool = False, domain: str = "lookup"
) -> np.ndarray:
    """Vectorised lookup of query times ts in the sorted array points.

    Segment mode gives the index i with points[i] <= t < points[i+1], a t
    within snap below points[i+1] counting as that instant, and -1 below
    the first point.  Instant mode (instants=True) gives the index of the
    first point within snap of t, or -1.  Any t that is not <= limit (NaN
    included) raises OutOfDomain naming domain and the first such t.
    Integer queries stay integers, so int64 lattices compare exactly.
    """
    ts = np.asarray(ts)
    if ts.dtype.kind != "i":
        ts = ts.astype(float, copy=False)
    bad = np.flatnonzero(~(ts <= limit))
    if bad.size:
        raise OutOfDomain(f"{domain}, got {float(ts.flat[bad[0]])}")
    last = len(points) - 1
    if last < 0:
        return np.full(ts.shape, -1)
    if instants:
        i = np.searchsorted(points, ts)
        below = (i >= 1) & (np.abs(np.take(points, i - 1, mode="clip") - ts) <= snap)
        above = (i <= last) & (np.abs(np.take(points, i, mode="clip") - ts) <= snap)
        return np.where(below, i - 1, np.where(above, i, -1))
    i = np.searchsorted(points, ts, side="right")
    snapped = (i <= last) & (np.take(points, i, mode="clip") - ts <= snap)
    return np.where(snapped, i, i - 1)


def finite_shifts(tau) -> np.ndarray:
    """tau as floats; OutOfDomain naming the first shift that is not finite."""
    taus = np.asarray(tau, dtype=float)
    bad = np.flatnonzero(~np.isfinite(taus))
    if bad.size:
        raise OutOfDomain(f"shifts must be finite, got {float(taus.flat[bad[0]])}")
    return taus


def sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis strictly left to right, as a loop of += does
    (numpy's own reduce may add pairwise)."""
    if not len(terms):
        return np.zeros(terms.shape[1:])
    return np.cumsum(terms, axis=0)[-1]


def row_chunks(rows: int, row_entries: int) -> Iterator[slice]:
    """Slices of range(rows) holding about CHUNK_ENTRIES entries each
    (at least one row), for rows of row_entries entries."""
    step = max(1, CHUNK_ENTRIES // max(1, row_entries))
    for s in range(0, rows, step):
        yield slice(s, min(s + step, rows))


@dataclass(frozen=True)
class StepMatrixFunction:
    """Piecewise constant matrix function, right continuous, with a single
    constant value before the first breakpoint."""

    pre_value: np.ndarray
    breakpoints: np.ndarray
    values: np.ndarray
    horizon: float
    snap: float = 0.0

    def __post_init__(self):
        for arr in (self.pre_value, self.breakpoints, self.values):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.pre_value.shape[0]

    def value(self, t: float) -> np.ndarray:
        return self.value_many(float(t))

    def value_many(self, ts: Iterable[float]) -> np.ndarray:
        """Values at every t, shaped ts.shape + (n, n); OutOfDomain past
        the horizon (with a small slack) or at NaN."""
        if isinstance(ts, Iterator):
            ts = list(ts)
        limit = self.horizon + max(self.snap, 1e-12 * self.horizon)
        domain = f"function built on [0, {self.horizon}]"
        i = snapped_lookup(self.breakpoints, ts, self.snap, limit, domain=domain)
        return np.take(self._rows, i + 1, axis=0)

    @functools.cached_property
    def _rows(self) -> np.ndarray:
        """pre_value, then values: row i + 1 holds the value of segment i."""
        return np.concatenate([self.pre_value[None], self.values])

    def jumps(self) -> np.ndarray:
        """Value differences across breakpoints, including the first."""
        prev = np.concatenate(([self.pre_value], self.values[:-1]))
        return self.values - prev


@dataclass(frozen=True)
class JumpTable:
    """Jumps of the fundamental matrix on the semigroup lattice.

    times are the instants with a retained jump; lookups snap within tol.
    Entries below the drop tolerance were removed after the recursion
    finished, so removal never feeds back into later values.
    """

    times: np.ndarray
    jumps: np.ndarray
    horizon: float
    tol: float

    def __post_init__(self):
        self.times.setflags(write=False)
        self.jumps.setflags(write=False)

    @property
    def n(self) -> int:
        return self.jumps.shape[1]

    def __len__(self) -> int:
        return len(self.times)

    def index_many(self, ts) -> np.ndarray:
        """Index of the retained instant within tol of each t, or -1."""
        return snapped_lookup(self.times, ts, self.tol, math.inf, instants=True, domain="jump table")

    def jump_at(self, t) -> np.ndarray | None:
        i = int(self.index_many(float(t)))
        return None if i < 0 else self.jumps[i]

    def pairs(self):
        return zip(self.times, self.jumps)

    def min_gap(self) -> float:
        if len(self.times) < 2:
            return self.horizon if self.horizon > 0 else 1.0
        return float(np.min(np.diff(self.times)))


def fundamental_matrix(vsys: ValidatedSystem, horizon: float, side: str = "right") -> StepMatrixFunction:
    """Evaluate K on [0, horizon] from K(t) = sum_j K(t-h_j) A_j (side
    "right") or K(t) = sum_j A_j K(t-h_j) (side "left").  Both recursions
    describe the same function; computing each gives an independent check.
    Instants are evaluated in runs by _recurse; a t - h_j before 0 reads
    K0 from a trailing row, dropped afterwards.

    Rational delays: vsys keeps the longest K per side; a shorter horizon
    gets its prefix to _last_step, the bits of a fresh build (K is causal).
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if not horizon >= 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    kept = vsys._fundamental_cache.get(side)
    if kept is not None and horizon <= kept[1].horizon:
        keys, kfun = kept
        cut = np.searchsorted(keys, _last_step(vsys.delays, horizon), side="right")
        return StepMatrixFunction(kfun.pre_value, kfun.breakpoints[:cut], kfun.values[:cut], float(horizon), kfun.snap)
    lat = _Lattice.generate(vsys.delays, horizon)
    base = k0(vsys)
    # the trailing row holds K0, the value before the first instant (source -1)
    values = np.empty((len(lat) + 1, vsys.n, vsys.n))
    values[-1] = base
    _recurse(values, lat.sources(), 0, vsys.matrices, side == "left")
    kfun = StepMatrixFunction(base.copy(), lat.floats, values[:-1], float(horizon), lat.snap)
    if vsys.is_rational:
        vsys._fundamental_cache[side] = (lat.keys, kfun)
    return kfun


def delta_k(vsys: ValidatedSystem, horizon: float, *, drop_tol: float = JUMP_DROP_TOL) -> JumpTable:
    """Jump table from the recursion dK(0) = I,
    dK(t) = sum_j dK(t-h_j) A_j on the lattice, zero elsewhere.

    Computed without touching fundamental_matrix so the two can be
    compared, by _recurse in runs of instants; a t - h_j off the lattice
    reads a trailing zero row, dropped afterwards.  Entries below drop_tol
    (max abs) are filtered at the end; the instant 0 always stays.
    """
    if not horizon >= 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    lat = _Lattice.generate(vsys.delays, horizon)
    jumps = np.zeros((len(lat) + 1, vsys.n, vsys.n))
    jumps[0] = np.eye(vsys.n)
    _recurse(jumps, lat.sources(instants=True), 1, vsys.matrices, False)
    keep = np.max(np.abs(jumps[:-1]), axis=(1, 2)) > drop_tol
    keep[0] = True
    return JumpTable(
        times=lat.floats[keep],
        jumps=jumps[:-1][keep],
        horizon=float(horizon),
        tol=max(lat.snap, 1e-12 * float(horizon)),
    )


def _response_grid(grid: Sequence[float]) -> np.ndarray:
    """grid as floats, each finite and >= 0 or ValueError."""
    grid = np.asarray(grid, dtype=float)
    if not np.all((grid >= 0.0) & (grid < math.inf)):
        raise ValueError("simulation grid must be finite and nonnegative")
    return grid


def simulate(vsys: ValidatedSystem, phi: InitialFunction, grid: Sequence[float]) -> np.ndarray:
    """Time response on grid (finite points >= 0) by the recursion
    x(t) = sum_j A_j x(t - h_j) down to the initial function.

    The points it needs are found level by level from the grid on int64
    keys, with tol = 1e-12 max(h_max, max(grid)).  Rational delays: a grid
    point's key is k P + p for its step k and the index p of its phase xi
    among the grid's P (_step_phases), a child's key its parent's less
    m_j P, and keys below 0 are leaves, read at fl(k h) + xi.  Float delays: a point's key is its float on the
    quantum tol, a key keeps the float of the first point to reach it, and
    a point below -tol/2 is a leaf, read there.  The rest are evaluated in
    key order by _recurse: the bits of a memoized per-point descent.  Past
    LATTICE_CAP points (the path t, t - h_min, ... alone has
    max(grid) / h_min), checked before any key and per level, it raises
    RecursionDepthExceeded.
    """
    grid = _response_grid(grid)
    tmax = float(np.max(grid, initial=0.0))
    tol = 1e-12 * max(vsys.h_max, tmax)
    if tmax / vsys.h_min > LATTICE_CAP:
        raise RecursionDepthExceeded(f"response recursion exceeded {LATTICE_CAP} nodes")
    if vsys.is_rational:
        h, top = fraction_gcd(vsys.delays), _last_step(vsys.delays, tmax)
        shifts = [int(d / h) for d in vsys.delays]
        # keys lie in [-m_max P, (top + 1) P), with at most one phase per point
        if (top + shifts[-1] + 1) * max(len(grid), 1) > np.iinfo(np.int64).max:
            raise HorizonTooLarge(f"response keys to step {top} of h = {h} for {len(grid)} points do not fit in int64")
        step, xi = _step_phases(grid, h, tol)
        phases, phase = np.unique(xi, return_inverse=True)
        start, drops, floor = step * len(phases) + phase, np.array(shifts) * len(phases), 0
    else:
        start, drops, floor = grid, np.array([float(d) for d in vsys.delays]), -0.5 * tol

    def key(points):
        return points if vsys.is_rational else np.rint(points / tol).astype(np.int64)

    # -key of each point found, ascending, and the point, in doubling buffers
    neg, ts, size, frontier = np.empty(64, dtype=np.int64), np.empty(64, dtype=start.dtype), 0, start
    while frontier.size:
        level, first = np.unique(-key(frontier), return_index=True)
        # a key is new past the end or where it is not found (neg is never empty)
        at = np.searchsorted(neg[:size], level)
        new = (at == size) | (neg[np.minimum(at, size - 1)] != level)
        level, fresh, at, end = level[new], frontier[first[new]], at[new], size + int(np.count_nonzero(new))
        if end > LATTICE_CAP:
            raise RecursionDepthExceeded(f"response recursion exceeded {LATTICE_CAP} nodes")
        if end > len(neg):
            neg, ts = np.resize(neg, 2 * end), np.resize(ts, 2 * end)
        # a merge moves only the points after the first insertion
        p = int(np.min(at, initial=size))
        neg[p:end], ts[p:end] = np.insert(neg[p:size], at - p, level), np.insert(ts[p:size], at - p, fresh)
        # children by parent key, then delay, as a largest-delay-first descent meets them
        size, fresh = end, fresh[::-1]
        frontier = (fresh[fresh >= floor, None] - drops).ravel()
    # in key order every point follows its children; leaves (src unread) come first
    keys, ts = -neg[:size][::-1], ts[:size][::-1]
    leaves, src = ts[ts < floor], snapped_lookup(keys, key(ts[:, None] - drops), 0, math.inf, instants=True)
    values = np.empty((size, vsys.n))
    if vsys.is_rational:
        leaves = exact_multiples(leaves // len(phases), h) + phases[leaves % len(phases)]
    values[:len(leaves)] = phi.value_many(leaves)
    _recurse(values[..., None], src, len(leaves), vsys.matrices, True)
    return values[snapped_lookup(keys, key(start), 0, math.inf, instants=True)]


def simulate_cauchy(vsys: ValidatedSystem, phi: InitialFunction, grid: Sequence[float]) -> np.ndarray:
    """Time response through the jump table: the solution is a sum of
    initial-function samples weighted by fundamental-matrix jumps,

        x(t) = sum_q dK(t_q) G(t, t_q),  G(t, t_q) = sum_j A_j phi(t - h_j - t_q),

    over the (grid point, instant) pairs with t - h_max < t_q <= t, each
    delay's term kept while its argument lies in [-h_j, 0): the left end
    is included and 0 excluded, matching the right continuity of the
    response.  A pair costs one n x n product dK(t_q) G.

    Rational delays: each grid point is mapped once to a step count k and
    a phase xi (_step_phases); its pairs are the instants l h of the jump
    table to the last step a point maps to with k - m_max < l <= k, and
    G = sum over m_j > k - l of A_j phi((k - l - m_j) h + xi).  While the
    table of G by (xi, k - l) fits in CHUNK_ENTRIES, each of its weights
    is formed once, by the first chunk that needs it; otherwise each pair
    forms its own.  Float delays: the jump table to max(grid), and float
    tests on fl(fl(t - h_j) - t_q) decide each (pair, delay), an argument
    within the table's tol of -h_j reading phi(-h_j) and one within tol of
    0 dropping out.  Fully independent of simulate(), which never forms
    jumps.
    """
    grid = _response_grid(grid)
    tmax = float(np.max(grid, initial=0.0))
    n, mats = vsys.n, np.array(vsys.matrices)
    # the jump table to the last step (or instant) a grid point reads
    jt = delta_k(vsys, tmax)
    times, jumps, tol = jt.times, jt.jumps, jt.tol
    if vsys.is_rational:
        h = fraction_gcd(vsys.delays)
        shifts = np.array([int(d / h) for d in vsys.delays])
        m, keys, (step, xi) = int(shifts[-1]), np.rint(times / float(h)).astype(np.int64), _step_phases(grid, h, tol)
        lo, hi = np.searchsorted(keys, step - m, side="right"), np.searchsorted(keys, step, side="right")
        # G by (phase, k - l) in slots, each formed once, when they fit a chunk
        phases, phase = np.unique(xi, return_inverse=True)
        shared = len(phases) * m * n <= CHUNK_ENTRIES
        if shared:
            table, formed = np.zeros((len(phases) * m, n)), np.zeros(len(phases) * m, dtype=bool)
    else:
        delays = np.array([float(d) for d in vsys.delays])
        # the instants t - H <= t_q <= t + 2 tol hold every term with tol to spare
        lo, hi = np.searchsorted(times, grid - delays[-1]), np.searchsorted(times, grid + 2.0 * tol, side="right")
    # a trailing zero jump for the cells past a grid point's pairs
    jumps = np.concatenate([jumps, np.zeros((1, n, n))])
    width = int(np.max(hi - lo, initial=0))
    out = np.zeros((len(grid), n))
    # a grid point's pairs stay in one chunk, so its sums do not depend on it
    for part in row_chunks(len(grid), width * n * n):
        cell = np.arange(width)
        valid = cell < (hi - lo)[part, None]
        q = np.where(valid, lo[part, None] + cell, -1)
        if vsys.is_rational:
            s = np.where(valid, step[part, None] - keys[q], 0)
            if shared:
                slot = phase[part, None] * m + s
                need = np.zeros(len(formed), dtype=bool)
                need[slot[valid]] = True
                new = np.flatnonzero(need & ~formed)
                if new.size:
                    table[new] = _weights(phi, mats, *_exact_arguments(new % m, phases[new // m], shifts, h))
                    formed[new] = True
                weights = np.take(table, slot, axis=0)
            else:
                theta, live = _exact_arguments(s, xi[part, None], shifts, h)
                weights = _weights(phi, mats, theta, live & valid[..., None])
        else:
            t, tq = grid[part, None, None], times[q][..., None]
            theta = t - delays - tq
            snap = np.abs(theta + delays) <= tol
            live = valid[..., None] & (tq <= t + tol) & (snap | ((theta < -tol) & (theta >= -delays)))
            weights = _weights(phi, mats, np.where(snap, -delays, theta), live)
        dk = np.take(jumps, q, axis=0)
        terms = dk[..., 0] * weights[..., 0, None]
        for c in range(1, n):
            terms += dk[..., c] * weights[..., c, None]
        out[part] = sequential_sum(np.moveaxis(terms, 1, 0))
    return out


def _step_phases(grid: np.ndarray, h: Fraction, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Step count k and phase xi of every grid point t >= 0 on the steps of
    h.  A point within tol of its nearest step k h, the tie at tol
    included, sits there with xi = 0; any other has k = floor(t / h) and
    xi = t - fl(k h), exact in floats (Sterbenz) and in (tol, h - tol).
    A float estimate decides every point but those within its error of
    the tie or of half a step, which Fractions decide."""
    hf = float(h)
    k = np.rint(np.minimum(grid / hf, 2.0**62)).astype(np.int64)
    d = grid - exact_multiples(k, h)
    err = 2.0**-51 * (grid + hf)
    snapped, below = np.abs(d) <= tol, d < 0.0
    for i in np.flatnonzero((np.abs(np.abs(d) - tol) <= err) | (np.abs(d) >= 0.5 * hf - err)):
        t = Fraction(float(grid[i]))
        near = round(t / h)
        k[i], snapped[i], below[i] = near, abs(t - near * h) <= tol, t < near * h
    k = np.where(snapped | ~below, k, k - 1)
    return k, np.where(snapped, 0.0, grid - exact_multiples(k, h))


def _exact_arguments(s: np.ndarray, xi: np.ndarray, shifts: np.ndarray, h: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """phi's argument (s - m_j) h + xi, the product correctly rounded, for
    every s = k - l and delay, and whether the delay's term is live, m_j > s."""
    theta = exact_multiples(s[..., None] - shifts, h) + np.asarray(xi)[..., None]
    return theta, shifts > s[..., None]


def _weights(phi: InitialFunction, mats: np.ndarray, theta: np.ndarray, live: np.ndarray) -> np.ndarray:
    """sum_j A_j phi(theta[..., j]) over the live delays j, phi read at the
    live arguments only, summed in delay and column order."""
    vals = np.zeros(theta.shape + (mats.shape[2],))
    vals[live] = phi.value_many(theta[live])
    out = np.zeros(theta.shape[:-1] + (mats.shape[1],))
    for j, a in enumerate(mats):
        for c in range(a.shape[1]):
            out += vals[..., j, c, None] * a[:, c]
    return out


def write_csv(fh, header: Sequence[str], table: np.ndarray) -> None:
    """header, then one row per row of the 2-d table, every entry written
    as repr of a Python float (the shortest string that reads back to
    the same bits), with CRLF line ends: the bytes of csv.writer, since no
    header or float field needs its quoting."""
    fh.write(",".join(header) + "\r\n")
    fh.writelines(",".join(map(repr, row)) + "\r\n" for row in table.tolist())


def _matrix_header(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i + 1}{j + 1}" for i in range(n) for j in range(n)]


def step_to_csv(kfun: StepMatrixFunction, fh) -> None:
    """One row per breakpoint: t, K11..Knn (row major)."""
    n = kfun.n
    table = np.column_stack([kfun.breakpoints, kfun.values.reshape(len(kfun.values), n * n)])
    write_csv(fh, ["t"] + _matrix_header("K", n), table)


def trajectory_to_csv(times: Sequence[float], states: np.ndarray, fh) -> None:
    """One row per grid point: t, x1..xn."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    table = np.column_stack([np.asarray(times, dtype=float), states])
    write_csv(fh, ["t"] + [f"x{i + 1}" for i in range(states.shape[1])], table)
