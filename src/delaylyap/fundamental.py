"""Fundamental matrix machinery.

The fundamental matrix K of x(t) = sum_j A_j x(t - h_j) equals the
constant K0 = (sum A_j - I)^-1 on [-H, 0) and satisfies the same
difference equation for t >= 0.  It is piecewise constant and right
continuous; its only discontinuities sit on the delay semigroup
lattice {sum_j p_j h_j : p_j >= 0 integers}.  This module generates that
lattice, evaluates K from either the right or the left recursion, builds
the table of its jumps, and runs the time response of a system by two
independent methods (memoized recursion and the jump-convolution formula).
"""

from __future__ import annotations

import csv
import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    HorizonTooLarge,
    OutOfDomain,
    RecursionDepthExceeded,
)
from .system_model import InitialFunction, ValidatedSystem, k0

DEFAULT_LATTICE_CAP = 1_000_000
# relative merge tolerance for float-delay lattices
MERGE_TOL_SCALE = 1e-9
# jump entries smaller than this (max abs) are dropped from tables
JUMP_DROP_TOL = 1e-14
# (grid point, instant, delay) triples per chunk of the convolution response
CAUCHY_CHUNK_PAIRS = 1 << 12


class _Lattice:
    """Sorted semigroup instants with an index for exact or snapped lookup.

    Exact mode (all delays rational) keys instants by Fraction; float mode
    merges points closer than MERGE_TOL_SCALE * H and snaps queries with
    the same tolerance.
    """

    __slots__ = ("instants", "floats", "exact", "snap", "_index")

    def __init__(self, instants, exact: bool, snap: float):
        self.instants = instants
        self.floats = np.array([float(t) for t in instants])
        self.exact = exact
        self.snap = snap
        if exact:
            self._index = {t: i for i, t in enumerate(instants)}
        else:
            self._index = {}
            q = snap if snap > 0 else 1.0
            for i, t in enumerate(instants):
                self._index[round(t / q)] = i

    @classmethod
    def generate(cls, delays: Sequence, horizon: float, cap: int) -> "_Lattice":
        exact = all(isinstance(d, Fraction) for d in delays)
        h_max = float(delays[-1])
        if exact:
            steps = [d for d in delays]
            start = Fraction(0)
            tol = 0.0
            snap = 1e-12 * max(1.0, h_max)
        else:
            steps = [float(d) for d in delays]
            start = 0.0
            tol = MERGE_TOL_SCALE * h_max
            snap = tol
        limit = horizon + tol
        heap = [start]
        if exact:
            seen = {start}
        else:
            q = tol if tol > 0 else 1.0
            seen = {0: 0.0}
        out = []
        while heap:
            t = heapq.heappop(heap)
            out.append(t)
            if len(out) > cap:
                raise HorizonTooLarge(
                    f"semigroup lattice up to {horizon} exceeds {cap} points"
                )
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
                    if any(
                        bb in seen and abs(seen[bb] - s) <= tol
                        for bb in (b - 1, b, b + 1)
                    ):
                        continue
                    seen[b] = s
                heapq.heappush(heap, s)
        return cls(out, exact, snap)

    def __len__(self) -> int:
        return len(self.instants)

    def segment_index(self, t) -> int:
        """Index i with t_i <= t < t_{i+1}, snapping queries within the
        merge tolerance onto instants; -1 for t below the first instant."""
        if self.exact and isinstance(t, Fraction):
            if t < 0:
                return -1
            return bisect_right(self.instants, t) - 1
        x = float(t)
        i = int(np.searchsorted(self.floats, x, side="right"))
        if i < len(self.floats) and self.floats[i] - x <= self.snap:
            return i
        return i - 1

    def instant_index(self, t) -> int | None:
        """Index of the instant equal to t (exactly on Fraction lattices,
        snapped on float ones), or None."""
        if self.exact:
            return self._index.get(t)
        q = self.snap if self.snap > 0 else 1.0
        x = float(t)
        b = round(x / q)
        for bb in (b - 1, b, b + 1):
            i = self._index.get(bb)
            if i is not None and abs(self.floats[i] - x) <= self.snap:
                return i
        return None


def discontinuity_instants(
    vsys: ValidatedSystem, horizon: float, *, cap: int = DEFAULT_LATTICE_CAP
) -> list[float]:
    """All possible discontinuity instants of K in [0, horizon], ordered.

    Raises HorizonTooLarge when the lattice would exceed cap points.
    """
    lat = _Lattice.generate([d for d, _ in vsys.entries], horizon, cap)
    return [float(t) for t in lat.instants]


def snapped_lookup(
    points: np.ndarray, ts, snap: float, limit: float, *, instants: bool = False, domain: str = "lookup"
) -> np.ndarray:
    """Vectorised lookup of query times ts in the sorted array points.

    Segment mode gives the index i with points[i] <= t < points[i+1], a t
    within snap below points[i+1] counting as that instant, and -1 below
    the first point.  Instant mode (instants=True) gives the index of the
    first point within snap of t, or -1.  Any t that is not <= limit (NaN
    included) raises OutOfDomain naming domain and the first such t.
    """
    ts = np.asarray(ts, dtype=float)
    bad = np.flatnonzero(~(ts <= limit))
    if bad.size:
        raise OutOfDomain(f"{domain}, got {float(ts.flat[bad[0]])}")
    last = len(points) - 1
    if instants:
        i = np.searchsorted(points, ts)
        below = (i >= 1) & (np.abs(points[np.maximum(i - 1, 0)] - ts) <= snap)
        above = (i <= last) & (np.abs(points[np.minimum(i, last)] - ts) <= snap)
        return np.where(below, i - 1, np.where(above, i, -1))
    i = np.searchsorted(points, ts, side="right")
    snapped = (i <= last) & (points[np.minimum(i, last)] - ts <= snap)
    return np.where(snapped, i, i - 1)


def sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis strictly left to right, as a loop of += does
    (numpy's own reduce may add pairwise)."""
    if not len(terms):
        return np.zeros(terms.shape[1:])
    return np.cumsum(terms, axis=0)[-1]


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
        limit = self.horizon + max(self.snap, 1e-12 * max(1.0, self.horizon))
        domain = f"function built on [0, {self.horizon}]"
        i = snapped_lookup(self.breakpoints, ts, self.snap, limit, domain=domain)
        return np.where((i < 0)[..., None, None], self.pre_value, self.values[np.maximum(i, 0)])

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


def fundamental_matrix(
    vsys: ValidatedSystem,
    horizon: float,
    side: str = "right",
    *,
    cap: int = DEFAULT_LATTICE_CAP,
) -> StepMatrixFunction:
    """Evaluate K on [0, horizon] from K(t) = sum_j K(t-h_j) A_j (side
    "right") or K(t) = sum_j A_j K(t-h_j) (side "left").  Both recursions
    describe the same function; computing each gives an independent check.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    entries = vsys.entries
    lat = _Lattice.generate([d for d, _ in entries], horizon, cap)
    base = k0(vsys)
    n = vsys.n
    values = np.empty((len(lat), n, n))
    for i, t in enumerate(lat.instants):
        acc = np.zeros((n, n))
        for d, a in entries:
            idx = lat.segment_index(t - d)
            prev = base if idx < 0 else values[idx]
            acc += prev @ a if side == "right" else a @ prev
        values[i] = acc
    return StepMatrixFunction(
        pre_value=base.copy(),
        breakpoints=lat.floats.copy(),
        values=values,
        horizon=float(horizon),
        snap=lat.snap,
    )


def delta_k(
    vsys: ValidatedSystem,
    horizon: float,
    *,
    drop_tol: float = JUMP_DROP_TOL,
    cap: int = DEFAULT_LATTICE_CAP,
) -> JumpTable:
    """Jump table from the recursion dK(0) = I,
    dK(t) = sum_j dK(t-h_j) A_j on the lattice, zero elsewhere.

    Computed without touching fundamental_matrix so the two can be
    compared.  Entries below drop_tol (max abs) are filtered at the end;
    the instant 0 always stays.
    """
    entries = vsys.entries
    lat = _Lattice.generate([d for d, _ in entries], horizon, cap)
    n = vsys.n
    jumps = np.zeros((len(lat), n, n))
    jumps[0] = np.eye(n)
    for i, t in enumerate(lat.instants):
        if i == 0:
            continue
        acc = np.zeros((n, n))
        for d, a in entries:
            idx = lat.instant_index(t - d)
            if idx is not None:
                acc += jumps[idx] @ a
        jumps[i] = acc
    keep = [0] + [
        i for i in range(1, len(lat)) if np.max(np.abs(jumps[i])) > drop_tol
    ]
    return JumpTable(
        times=lat.floats[keep].copy(),
        jumps=jumps[keep],
        horizon=float(horizon),
        tol=max(lat.snap, 1e-12 * max(1.0, float(horizon))),
    )


def simulate(
    vsys: ValidatedSystem,
    phi: InitialFunction,
    grid: Sequence[float],
    *,
    node_cap: int = 1_000_000,
) -> np.ndarray:
    """Time response on grid (all points >= 0) by memoized descent of
    x(t) = sum_j A_j x(t - h_j) down to the initial function.

    Visited time points are keyed on a 1e-12 relative quantum, which both
    deduplicates float round-off and bounds the node count; exceeding
    node_cap raises RecursionDepthExceeded.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size and float(np.min(grid)) < 0.0:
        raise ValueError("simulation grid must be nonnegative")
    scale = max(1.0, vsys.h_max, float(np.max(grid)) if grid.size else 1.0)
    quantum = 1e-12 * scale
    entries = [(float(d), a) for d, a in vsys.entries]
    memo: dict[int, np.ndarray] = {}

    def key(t: float) -> int:
        return round(t / quantum)

    for t0 in grid:
        stack = [float(t0)]
        while stack:
            t = stack[-1]
            k = key(t)
            if k in memo:
                stack.pop()
                continue
            if t < -0.5 * quantum:
                memo[k] = phi.value(t)
                stack.pop()
                continue
            missing = []
            for d, _ in entries:
                s = t - d
                if key(s) not in memo:
                    missing.append(s)
            if missing:
                stack.extend(missing)
                if len(stack) > node_cap or len(memo) > node_cap:
                    raise RecursionDepthExceeded(
                        f"response recursion exceeded {node_cap} nodes"
                    )
                continue
            acc = np.zeros(vsys.n)
            for d, a in entries:
                acc += a @ memo[key(t - d)]
            memo[k] = acc
            stack.pop()
    return np.array([memo[key(float(t))] for t in grid])


def simulate_cauchy(
    vsys: ValidatedSystem,
    phi: InitialFunction,
    grid: Sequence[float],
    *,
    cap: int = DEFAULT_LATTICE_CAP,
) -> np.ndarray:
    """Time response through the jump table: the solution is a sum of
    initial-function samples weighted by fundamental-matrix jumps,

        x(t) = sum_j sum_q dK(t_q) A_j phi(t - h_j - t_q)

    restricted to arguments in [-h_j, 0).  The left end is included and 0
    is excluded, matching the right continuity of the response; arguments
    within the lattice snap tolerance of those ends are treated as exact.
    Fully independent of simulate(), which never forms jumps.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size and float(np.min(grid)) < 0.0:
        raise ValueError("simulation grid must be nonnegative")
    tmax = float(np.max(grid)) if grid.size else 0.0
    table = delta_k(vsys, tmax, cap=cap)
    btol = table.tol
    delays = np.array([float(d) for d in vsys.delays])
    mats = np.array(vsys.matrices)
    # the instants t - H <= t_q <= t + 2 btol hold every term with btol to
    # spare; the loop-order tests below pick the terms out exactly
    lo = np.searchsorted(table.times, grid - delays[-1])
    counts = np.searchsorted(table.times, grid + 2.0 * btol, side="right") - lo
    step = max(1, CAUCHY_CHUNK_PAIRS // (len(delays) * max(1, int(counts.max(initial=0)))))
    out = np.zeros((len(grid), vsys.n))
    for g0 in range(0, len(grid), step):
        c = counts[g0:g0 + step]
        row = np.repeat(np.arange(g0, g0 + len(c)), c)
        q = np.arange(row.size) + np.repeat(lo[g0:g0 + step] - (np.cumsum(c) - c), c)
        # triples in the order (grid point, instant, delay) of a plain loop
        row, q, j = np.repeat(row, len(delays)), np.repeat(q, len(delays)), np.tile(np.arange(len(delays)), row.size)
        t, tq, d = grid[row], table.times[q], delays[j]
        theta = t - d - tq
        snap = np.abs(theta + d) <= btol
        keep = (tq <= t + btol) & (snap | ((theta < -btol) & (theta >= -d)))
        phis = phi.value_many(np.where(snap, -d, theta)[keep])[..., None]
        np.add.at(out, row[keep], np.matmul(table.jumps[q[keep]], np.matmul(mats[j[keep]], phis))[..., 0])
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def _matrix_header(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i + 1}{j + 1}" for i in range(n) for j in range(n)]


def step_to_csv(kfun: StepMatrixFunction, fh) -> None:
    """One row per breakpoint: t, K11..Knn (row major)."""
    writer = csv.writer(fh)
    writer.writerow(["t"] + _matrix_header("K", kfun.n))
    for t, v in zip(kfun.breakpoints, kfun.values):
        writer.writerow([_fmt(t)] + [_fmt(x) for x in v.ravel()])


def trajectory_to_csv(times: Sequence[float], states: np.ndarray, fh) -> None:
    """One row per grid point: t, x1..xn."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    writer = csv.writer(fh)
    writer.writerow(["t"] + [f"x{i + 1}" for i in range(states.shape[1])])
    for t, row in zip(times, states):
        writer.writerow([_fmt(t)] + [_fmt(x) for x in row])
