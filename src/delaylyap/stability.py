"""Stability of x(t) = sum_j A_j x(t - h_j) and the decay envelope of K.

The verdict comes from a spectral radius per delay step: of the block
companion matrix of the commensurate rewrite for rational delays or a
lone delay (whose companion is its coefficient), and otherwise of a torus
grid that can certify only instability.  A stable system gets a fitted
envelope ||K(t)||_2 <= gamma ||K0||_2 exp(-sigma t) (Hale & Verduyn Lunel
1993, ch. 9).  Every oracle and series truncates its integral or lattice
sum at the envelope's default horizon and bounds the rest by the
envelope's tail integrals and lattice sums, so this module alone reads
(gamma, sigma).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import fundamental
from .errors import NotStable
from .system_model import (
    DelaySystem, ValidatedSystem, _commensurate_form, k0, validate,
)

# block companions of at least this size n*m take the Ehrlich-Aberth route
# when also n^2 <= m, so that the n x n solves of a sweep cost no more than
# its root pairs.  Dense eigvals switches to multishift QR above n*m = 75
# and takes about 4-9 ms at n*m = 76-82, against 2-5 ms for the
# Ehrlich-Aberth route on all n*m roots (one BLAS thread, stable systems).
# Wide blocks lose the gain: 14 ms against 9 ms dense at n = 10, m = 12,
# and 7.3 s against 4.6 s at n = 40, m = 41.
STRUCTURED_CUTOFF = 76
# sweep cap of the Ehrlich-Aberth iteration, and the relative correction
# below which a root counts as converged and stops moving
ABERTH_SWEEPS = 60
ABERTH_STOP = 1e-12
# eigvals evaluations the torus grid may take, its first phase fixed: 64
# points per delay up to four delays; more delays get fewer points per delay
TORUS_MAX_EVALS = 64 ** 3
# torus grid points per delay, and the distance from 1 within which a
# torus radius stays inconclusive
TORUS_POINTS = 64
TORUS_MARGIN = 1e-3
# distance from 1 within which an exact (companion) radius stays
# inconclusive; the certified companion radius must be accurate to a
# tenth of it
EXACT_MARGIN = 1e-9
# largest companion size n*m the rational screen takes; larger rational
# systems go to the torus grid
COMPANION_CAP = 4000
# per-step decay at which default_horizon truncates
HORIZON_TARGET = 1e-12
# decay rates use at least this per-step radius, since log 0 is undefined.
# The horizons do not lean on it: every decay fit and default horizon
# reaches one step past n h_max, where a nilpotent K has vanished
RHO_FLOOR = 1e-6


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a stability check.

    verdict is one of "stable", "unstable", "inconclusive".  For stable
    systems decay_rate (sigma) and decay_gain (gamma) describe the fitted
    envelope ||K(t)|| <= gamma * ||K0|| * exp(-sigma t); both are None
    otherwise.  rate_step is the time step the spectral radius refers to.
    reason, when set, says why the check did less than asked: a capped
    torus grid, or an unstable companion screen that stopped at its first
    certified root past 1 + EXACT_MARGIN, whose spectral_radius is then a
    certified lower bound.
    """

    method: str
    spectral_radius: float
    verdict: str
    rate_step: float
    decay_gain: float | None = None
    decay_rate: float | None = None
    grid_points: int | None = None
    reason: str | None = None

    @property
    def stable(self) -> bool:
        return self.verdict == "stable"

    def to_dict(self) -> dict:
        """Every field, reason only when set."""
        out = asdict(self)
        if self.reason is None:
            del out["reason"]
        return out

    def envelope(self, vsys: ValidatedSystem) -> "DecayEnvelope":
        """The decay envelope of vsys, the system this stable report with
        decay_gain and decay_rate is about."""
        return DecayEnvelope(self, float(np.linalg.norm(k0(vsys), 2)), default_horizon(vsys, self))


@dataclass(frozen=True)
class DecayEnvelope:
    """bound(t) = gamma ||K0||_2 exp(-sigma t) >= ||K(t)||_2 for t >= 0,
    with (gamma, sigma) the report's decay_gain and decay_rate, and the
    horizon at which the oracles and series truncate by default.  Their
    tail bounds are sums of the integrals and lattice sums below, of
    bound(t) or of the products bound(t) bound(t + shift) (t + shift >= 0)."""

    report: StabilityReport
    k0_norm: float
    horizon: float

    def bound(self, t: float) -> float:
        return self.report.decay_gain * self.k0_norm * math.exp(-self.report.decay_rate * t)

    def integral(self, start: float, shift: float | None = None) -> float:
        """integral_start^inf of bound(t), or of bound(t) bound(t + shift)."""
        if shift is None:
            return self.bound(start) / self.report.decay_rate
        return self.bound(start) * self.bound(start + shift) / (2.0 * self.report.decay_rate)

    def lattice_sum(self, start: float, gap: float, shift: float | None = None) -> float:
        """The most that bound(t_q), or bound(t_q) bound(t_q + shift), sums
        to over points t_q >= start at least gap apart: a geometric series."""
        if shift is None:
            return self.bound(start) / -math.expm1(-self.report.decay_rate * gap)
        return self.bound(start) * self.bound(start + shift) / -math.expm1(-2.0 * self.report.decay_rate * gap)


def _dense_companion_radius(steps, m: int, n: int) -> float:
    big = np.zeros((n * m, n * m))
    for j, c in steps:
        big[:n, (j - 1) * n:j * n] = c
    big[n:, :-n] = np.eye(n * (m - 1))
    return float(np.max(np.abs(np.linalg.eigvals(big))))


def _block_sums(z: np.ndarray, rows: int) -> np.ndarray:
    """sum_(k != i) 1 / (z_i - z_k) for the first rows roots.
    The pair matrix, as conj(d)/|d|^2 with real and imaginary parts in one
    (2, rows, cols) array, is taken in row blocks of about CHUNK_ENTRIES
    pairs from the diagonal on: it is antisymmetric, so a block's row sums
    add to its rows and its column sums right of its square subtract from
    theirs, each a BLAS product with a vector of ones.  All in float32, as
    the sums only steer, on z / max|z| to stay in range."""
    scale = np.max(np.abs(z))
    xy = (np.stack([z.real, z.imag]) / scale).astype(np.float32)
    ones = np.ones(z.size, dtype=np.float32)
    out = np.zeros((2, rows))
    start = 0
    while start < rows:
        stop = min(start + max(1, fundamental.CHUNK_ENTRIES // (z.size - start)), rows)
        part = xy[:, start:stop, None] - xy[:, None, start:]
        inv = np.divide(1.0, part[0] * part[0] + part[1] * part[1])
        np.fill_diagonal(inv, 0.0)
        part *= inv
        out[:, start:stop] += part @ ones[start:]
        out[:, stop:] -= ones[start:stop] @ part[:, :, stop - start:rows - start]
        start = stop
    return (out[0] - 1j * out[1]) / scale


def _hull(steps, blocks, n: int, m: int):
    """(hull, upper): the upper convex hull of (degree, log ||C_j||, signed
    matrix) over the terms of z^m I - sum_j C_j z^(m-j), and its
    _edge_roots; None when C_m = 0 puts roots at 0."""
    if not steps or steps[-1] != m:
        return None
    points = [(m - j, math.log(np.linalg.norm(c, 2)), -c) for j, c in zip(steps[::-1], blocks[::-1])]
    hull: list = []
    for p in points + [(m, 0.0, np.eye(n))]:
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
            >= (p[0] - hull[-2][0]) * (hull[-1][1] - hull[-2][1])
        ):
            hull.pop()
        hull.append(p)
    return hull, np.concatenate([_edge_roots(low, high, n) for low, high in zip(hull, hull[1:])])


def _newton_polygon_start(hull, n: int) -> np.ndarray:
    """Starting points for the n*m roots of det P, n per unit of degree on
    each edge of the _hull: one circle per edge, of the radius where the
    edge's two terms balance, at angles that are never conjugate-symmetric."""
    circles = [(math.exp((l1 - l2) / (d2 - d1)), n * (d2 - d1)) for (d1, l1, _), (d2, l2, _) in zip(hull, hull[1:])]
    return np.concatenate([
        radius * np.exp(1j * (2.0 * math.pi * (np.arange(count) + 0.25) / count + 0.7 * edge))
        for edge, (radius, count) in enumerate(circles)
    ])


def _edge_roots(low, high, n: int) -> np.ndarray:
    """Roots of S1 z^d1 + S2 z^d2 on the hull edge from low = (d1, l1, S1)
    to high = (d2, l2, S2): z^e = lambda, e = d2 - d1, for each eigenvalue
    lambda of -S2^-1 S1; those strictly above the real axis stand for the
    conjugate pairs, and those on it are turned a quarter step up.  A
    singular S2 or S1 puts lambda on the edge's circle, |lambda| = e^(l1 - l2)."""
    (d1, l1, low_mat), (d2, l2, high_mat), e = low, high, high[0] - low[0]
    try:
        lam = np.linalg.eigvals(np.linalg.solve(high_mat, -low_mat))
    except np.linalg.LinAlgError:
        lam = np.zeros(n)
    if not np.all(lam):
        lam = np.exp(l1 - l2 + 1j * math.pi * (2.0 * np.arange(n) + 1.0) / n)
    # angles in units of pi / e, in [0, 2 e): a real lambda gives integers
    turn = (np.angle(lam)[:, None] / math.pi + 2.0 * np.arange(e)) % (2 * e)
    radius = np.broadcast_to(np.abs(lam)[:, None] ** (1.0 / e), turn.shape)[turn <= e]
    turn = turn[turn <= e]
    return radius * np.exp(1j * math.pi / e * np.where(turn % e == 0.0, turn + 0.25 * np.sign(e - 2.0 * turn), turn))


def _powers(w: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """w ** e for each row e of the int array exponents >= 0 (k rows of
    w.size): the product of the squares w, w^2, w^4, ... of one ladder at
    the set bits of e."""
    out, square = np.ones(exponents.shape, dtype=w.dtype), w
    for bit in exponents >> np.arange(int(exponents.max()).bit_length())[:, None, None] & 1 == 1:
        np.multiply(out, square, out=out, where=bit)
        square = square * square
    return out


def _p_matrices(z: np.ndarray, steps, blocks, n: int, m: int):
    """(outside, mat, der) at each z: mat = P(z) and der = P'(z) where
    |z| <= 1, and where |z| > 1 (outside) mat = Q(w) = I - sum C_j w^j at
    w = 1/z and der its derivative in z, with p = z^(n m) det Q.  So
    |w| <= 1, and no power of w from _powers overflows."""
    terms = [np.eye(n)] + [-c for c in blocks]
    in_q = [0] + list(steps) + [0] + [j + 1 for j in steps]
    in_p = [m] + [m - j for j in steps] + [m - 1] + [max(m - j - 1, 0) for j in steps]
    outside = np.abs(z) > 1.0
    w = np.where(outside, 1.0 / np.where(outside, z, 1.0), z)
    pw = _powers(w, np.where(outside, np.array(in_q)[:, None], np.array(in_p)[:, None]))
    mat = sum(a[:, None, None] * c for a, c in zip(pw, terms))
    factors = [np.where(outside, 0, m)] + [np.where(outside, -j, m - j) for j in steps]
    return outside, mat, sum((f * a)[:, None, None] * c for f, a, c in zip(factors, pw[len(terms):], terms))


def _det_p(z: np.ndarray, steps, blocks, n: int, m: int) -> np.ndarray:
    """Newton correction p/p' = 1/tr(P^-1 P') of p = det P at each z,
    CHUNK_ENTRIES matrix entries at a time, from _p_matrices: where
    |z| > 1, p'/p = n m / z + tr(Q^-1 dQ/dz).  An exactly singular P(z)
    makes z a root to working precision: its correction is zero."""
    newton = np.empty(z.size, dtype=complex)
    eye = np.eye(n)
    for part in fundamental.row_chunks(z.size, n * n):
        zz = z[part]
        outside, mat, der = _p_matrices(zz, steps, blocks, n, m)
        try:
            x, singular = np.linalg.solve(mat, der), False
        except np.linalg.LinAlgError:
            singular = np.linalg.det(mat) == 0.0
            mat[singular] = eye
            x = np.linalg.solve(mat, der)
        logd = np.trace(x, axis1=1, axis2=2)
        newton[part] = np.where(singular, 0.0, 1.0 / np.where(outside, logd + n * m / zz, logd))
    return newton


def _aberth_roots(z: np.ndarray, steps, blocks, n: int, m: int, tol: float, floor: float) -> tuple[float, float] | None:
    """The _certificate of the roots that a vectorised (Jacobi)
    Ehrlich-Aberth iteration reaches from the start z; None when the sweep
    cap is reached or a step is non-finite.  The roots still moving are
    kept in front of z and move at once: p/p' from _det_p, and the pair
    sums over the full set from _block_sums.  Each sweep first takes the
    _disk_bound of the moving roots: once it reaches floor, the run ends
    with (that bound, inf)."""
    moving = z.size
    with np.errstate(all="ignore"):
        for _ in range(ABERTH_SWEEPS):
            newton = _det_p(z[:moving], steps, blocks, n, m)
            bound = _disk_bound(z[:moving], newton, n * m)
            if bound >= floor:
                return bound, math.inf
            step = newton / (1.0 - newton * _block_sums(z, moving))
            z[:moving] -= step
            # a non-finite step never stops, so it ends in the fallback
            still = np.abs(step) <= ABERTH_STOP * np.abs(z[:moving])
            z[:moving] = z[:moving][np.argsort(still, kind="stable")]
            moving -= int(np.count_nonzero(still))
            if moving == 0 or not np.all(np.isfinite(step)):
                break
        newton = _det_p(z, steps, blocks, n, m)
    return None if moving else _certificate(z, newton, tol)


def _disk_bound(z: np.ndarray, newton: np.ndarray, size: int) -> float:
    """The largest least modulus over the Newton disks |x - z_i| <= size
    (|p/p'(z_i)| + ulp max |z|), -inf for no z: each holds a root of p of
    degree size, so this is a lower bound of p's largest root modulus."""
    radius = size * (np.abs(newton) + np.finfo(float).eps * np.max(np.abs(z), initial=0.0))
    return float(np.max(np.abs(z) - radius, initial=-math.inf))


def _escape(z: np.ndarray, steps, blocks, n: int, m: int, floor: float) -> float | None:
    """A _disk_bound at or past floor, or None: plain Newton z -= p/p' from
    z, the _hull's edge roots, one per conjugate pair, with no pair sums,
    to the first sweep whose bound reaches floor or does not raise the best
    so far; after the first sweep only the iterates it took to or past
    floor go on."""
    best = -math.inf
    with np.errstate(all="ignore"):
        for _ in range(ABERTH_SWEEPS):
            newton = _det_p(z, steps, blocks, n, m)
            bound = _disk_bound(z, newton, n * m)
            if bound >= floor:
                return bound
            if not bound > best:
                return None
            best, z = bound, z - newton
            z = z[np.abs(z) >= floor]
    return None


def _certificate(z: np.ndarray, newton: np.ndarray, tol: float) -> tuple[float, float] | None:
    """(max |z_i|, largest disk radius) over the full root set z from the
    Newton corrections p/p' at z, or None.  The Newton disks |x - z_i| <= N
    |p(z_i)/p'(z_i)| (N = z.size) each hold a root of p.  Widened by N ulps
    of max |z_i| for rounding (so never of radius zero), at most tol and
    pairwise disjoint (checked on pairs closer in real part than twice the
    largest radius), they hold one root each, and max |z_i| is the
    spectral radius to within the largest radius."""
    disk = z.size * (np.abs(newton) + np.finfo(float).eps * np.max(np.abs(z)))
    worst = float(np.max(disk))
    if not (math.isfinite(worst) and worst <= tol):
        return None
    order = np.argsort(z.real)
    z, disk = z[order], disk[order]
    for offset in range(1, z.size):
        near = np.flatnonzero(z.real[offset:] - z.real[:-offset] <= 2.0 * worst)
        if near.size == 0:
            break
        if np.any(np.abs(z[near + offset] - z[near]) <= disk[near + offset] + disk[near]):
            return None
    return float(np.max(np.abs(z))), worst


def _aberth_radius(steps, m: int, n: int, tol: float, floor: float = math.inf) -> tuple[float, float | None]:
    """Spectral radius of the block companion matrix from the N = n*m roots
    of the monic p = det P, P(z) = z^m I - sum_j C_j z^(m-j), as (radius,
    certified error) or, after a fallback, (dense radius, None).  With a
    finite floor, _escape runs first, and a run ends as soon as a Newton
    disk lies wholly at or past floor in modulus, with (certified lower
    bound, inf).

    The Newton polygon (_hull) is built once: its edge roots start _escape,
    and its edges start _aberth_roots on all N roots, one circle per edge.
    A sweep takes N^2 / 2 root pairs and N Newton corrections, each from
    batched n x n solves over the nonzero C_j only.  Dense eigvals answers
    when C_m = 0 or the iteration does not certify.
    """
    js, blocks = [j for j, _ in steps], [c for _, c in steps]
    found = _hull(js, blocks, n, m)
    if found is not None:
        hull, upper = found
        if floor < math.inf and (bound := _escape(upper, js, blocks, n, m, floor)) is not None:
            return bound, math.inf
        certified = _aberth_roots(_newton_polygon_start(hull, n), js, blocks, n, m, tol, floor)
        if certified is not None:
            return certified
    return _dense_companion_radius(steps, m, n), None


def _torus_grid(points: int, q: int) -> int:
    """points per delay, or the most whose (q - 1)-th power fits TORUS_MAX_EVALS."""
    p = points
    while p ** (q - 1) > TORUS_MAX_EVALS:
        p -= 1
    return p


def _torus_radius(mats: Sequence[np.ndarray], points: int) -> float:
    """Largest spectral radius of sum A_j exp(i theta_j) over a uniform
    torus grid with theta_1 = 0: rho(exp(i psi) M) = rho(M), so this takes
    the full grid's matrices up to unit factors.  A sampled lower bound of
    the true supremum, hence only a heuristic certificate.  Stacked eigvals
    calls walk the grid in row-major order, CHUNK_ENTRIES entries at a time."""
    phases = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, points, endpoint=False))
    shape = (points,) * (len(mats) - 1)
    worst = 0.0
    for rows in fundamental.row_chunks(math.prod(shape), mats[0].size):
        # a leading axis of length 1 gives a lone delay its one grid point
        idx = np.unravel_index(np.arange(rows.start, rows.stop), (1,) + shape)
        acc = np.zeros((idx[0].size,) + mats[0].shape, dtype=complex) + mats[0]
        acc = sum((a * phases[i][:, None, None] for a, i in zip(mats[1:], idx[1:])), acc)
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvals(acc)))))
    return worst


def _horizon(vsys: ValidatedSystem, rho: float, step: float, target: float, cap: float = math.inf) -> float:
    """Time, at most cap, at which the per-step decay max(rho, RHO_FLOOR)
    has fallen to target; floored at three top delays so short systems
    integrate something, and at one step past n h_max, the range over
    which a nilpotent K can still grow, whatever radius rounding gives
    it."""
    t = min(step * math.log(target) / math.log(max(rho, RHO_FLOOR)), cap)
    return max(t, 3.0 * vsys.h_max, vsys.n * vsys.h_max + step)


def _fit_decay(vsys: ValidatedSystem, rho: float, step: float) -> tuple[float, float]:
    """Fit (gamma, sigma) so that ||K(t)||_2 <= gamma ||K0||_2 exp(-sigma t)
    holds on a deep sample horizon, where the decay reaches 1e-13 (at most
    3000 h_min).  sigma keeps a 10 percent slack off the observed per-step
    decay so the margin grows with depth; gamma carries a further 5 percent
    cushion over the worst observed ratio.  The rate uses max(rho,
    RHO_FLOOR), slowed where needed so that the envelope falls by at most
    1e-200 over the horizon and exp(sigma t) stays finite: below the floor,
    and where the floor of 3 h_max lies far past the decay depth."""
    horizon = _horizon(vsys, rho, step, 1e-13, 3000.0 * vsys.h_min)
    log_rho = max(math.log(max(rho, RHO_FLOOR)), step * math.log(1e-200) / horizon)
    sigma = 0.9 * (-log_rho) / step
    kfun = fundamental.fundamental_matrix(vsys, horizon)
    k0n = float(np.linalg.norm(kfun.pre_value, 2))
    norms = np.linalg.norm(kfun.values, 2, axis=(1, 2)).tolist()
    ends = np.append(kfun.breakpoints[1:], kfun.horizon).tolist()
    gamma = max([1.0] + [v * math.exp(sigma * t_end) / k0n for v, t_end in zip(norms, ends)])
    return 1.05 * gamma, sigma


def stability_check(system: DelaySystem | ValidatedSystem, *, with_decay: bool = True) -> StabilityReport:
    """Classify a raw or validated system as stable, unstable or inconclusive.

    Exact delays (a lone delay always is: m = 1, companion A), with
    n*m <= COMPANION_CAP: spectral radius of the block companion matrix of
    the commensurate rewrite (per basic-delay step).  For n*m >=
    STRUCTURED_CUTOFF and n^2 <= m it is the largest root of the monic
    p = det(z^m I - sum_j C_j z^(m-j)), certified to within EXACT_MARGIN
    / 10 by Newton disks after an Ehrlich-Aberth iteration
    (_aberth_radius).  A plain Newton pre-pass (_escape), and then the
    iteration, stop at the first sweep where some root's Newton disk lies
    wholly past 1 + EXACT_MARGIN: the verdict is unstable, and the spectral
    radius the largest such disk's least modulus, a certified lower bound
    that reason names.  Without a certificate, and for smaller companions,
    dense eigvals gives the radius.

    Otherwise a torus grid search that can certify instability but never
    stability; near-unity results within TORUS_MARGIN stay inconclusive
    (EXACT_MARGIN for the exact radii).  The grid fixes the first phase and
    has TORUS_POINTS per delay unless its points^(q-1) evaluations exceed
    TORUS_MAX_EVALS; then it shrinks to fit and the report says why.
    """
    raw = system.system if isinstance(system, ValidatedSystem) else system
    delays, mats, n = raw.delays, raw.matrices, raw.n
    grid_points = reason = None
    rewrite = system._form if isinstance(system, ValidatedSystem) else _commensurate_form(raw)

    if rewrite is not None and n * rewrite.m <= COMPANION_CAP:
        method, m = "commensurate_companion", rewrite.m
        if n * m < STRUCTURED_CUTOFF or n * n > m:
            rho = _dense_companion_radius(rewrite.steps, m, n)
        else:
            rho, error = _aberth_radius(rewrite.steps, m, n, EXACT_MARGIN / 10.0, 1.0 + EXACT_MARGIN)
            if error == math.inf:
                reason = "spectral radius is a certified lower bound: a Newton disk of det P lies past 1 + EXACT_MARGIN"
        step = float(rewrite.h)
        margin = EXACT_MARGIN
    else:
        method = "torus_grid_heuristic"
        grid_points = _torus_grid(TORUS_POINTS, len(delays))
        if grid_points < TORUS_POINTS:
            reason = (
                f"torus grid capped at {grid_points} points per delay, {grid_points}^{len(delays) - 1} evaluations "
                f"with the first phase fixed (TORUS_MAX_EVALS = {TORUS_MAX_EVALS}), {TORUS_POINTS} points asked"
            )
        rho = _torus_radius(mats, grid_points)
        step = float(delays[-1])
        margin = TORUS_MARGIN

    if rho >= 1.0 + margin:
        verdict = "unstable"
    elif rho <= 1.0 - margin:
        # the sampled torus maximum is a lower bound, so a small value
        # cannot certify stability
        verdict = "inconclusive" if method == "torus_grid_heuristic" else "stable"
    else:
        verdict = "inconclusive"

    gamma = sigma = None
    if verdict == "stable" and with_decay:
        vsys = system if isinstance(system, ValidatedSystem) else validate(system)
        gamma, sigma = _fit_decay(vsys, rho, step)
    return StabilityReport(
        method=method,
        spectral_radius=rho,
        verdict=verdict,
        rate_step=step,
        decay_gain=gamma,
        decay_rate=sigma,
        grid_points=grid_points,
        reason=reason,
    )


def require_stable(vsys: ValidatedSystem, report: StabilityReport | None, label: str) -> DecayEnvelope:
    """The decay envelope of the given or a fresh stability report;
    NotStable, starting with label, unless the verdict is stable."""
    if report is None:
        report = stability_check(vsys)
    if not report.stable:
        raise NotStable(
            f"{label} a verified stable system, got verdict {report.verdict!r} "
            f"(method {report.method}, radius {report.spectral_radius:.6g})"
        )
    if report.decay_gain is None or report.decay_rate is None:
        report = stability_check(vsys)
    return report.envelope(vsys)


def default_horizon(vsys: ValidatedSystem, report: StabilityReport) -> float:
    """Horizon at which the per-step decay max(rho, RHO_FLOOR) has fallen to
    HORIZON_TARGET: at least 3 h_max and one step past n h_max."""
    return _horizon(vsys, report.spectral_radius, report.rate_step, HORIZON_TARGET)
