"""System definitions for continuous-time linear delay difference equations.

A system is x(t) = sum_j A_j x(t - h_j) for t >= 0, with delays
0 < h_1 < ... < h_m = H and an initial function on [-H, 0).  This module
owns the data types, structural validation, the constant matrix K0 that
anchors the fundamental matrix, stability diagnostics with a decay
envelope estimate, and the exact rewrite of rational-delay systems over a
common basic delay.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NonincreasingDelays,
    NonRationalInput,
    NotStable,
    OutOfDomain,
    ParseError,
    SingularK0,
    SizeExceeded,
)

Delay = Union[float, Fraction]

# |det(sum A_j - I)| must exceed this times the matrix norm to the n-th
# power, otherwise K0 is declared unreliable.
DET_RTOL = 1e-12
# entries per chunked temporary (128-256 KiB, so the few live ones stay in
# cache): torus eigvals, batched n x n solves and root-pair blocks
CHUNK_ENTRIES = 1 << 14
# block companions of at least this size n*m take the Ehrlich-Aberth route
# when also n^2 <= m, so that the n x n solves of a sweep cost no more than
# its root pairs.  Dense eigvals switches to multishift QR above n*m = 75
# and jumps from about 2 ms to 6 ms there, against 2-3 ms for the
# Ehrlich-Aberth route.  Wide blocks lose the gain: 28 ms against 11 ms
# dense at n = 10, m = 12, and 6.5 s against 3.3 s at n = 40, m = 41.
STRUCTURED_CUTOFF = 76
# sweep cap of the Ehrlich-Aberth iteration, and the relative correction
# below which a root counts as converged and stops moving
ABERTH_SWEEPS = 60
ABERTH_STOP = 1e-12
# eigvals evaluations the torus grid may take: 64 points per delay up to
# three delays; more delays get fewer points per delay
TORUS_MAX_EVALS = 64 ** 3
# torus grid points per delay, and the distance from 1 within which a
# torus radius stays inconclusive
TORUS_POINTS = 64
TORUS_MARGIN = 1e-3
# distance from 1 within which an exact (single delay or companion) radius
# stays inconclusive; the certified companion radius must be accurate to a
# tenth of it
EXACT_MARGIN = 1e-9
# largest companion size n*m the rational screen takes; larger rational
# systems go to the torus grid
COMPANION_CAP = 4000
# per-step decay at which default_horizon truncates
HORIZON_TARGET = 1e-12
# decay rates use at least this per-step radius, since log 0 is undefined.
# Below it the companion, n m blocks of one step each, is nilpotent up to
# rounding, and K can grow for up to n m steps before it vanishes; so the
# decay fit and the default horizon also reach one step past n m steps,
# n h_max + step
RHO_FLOOR = 1e-6


def _as_matrix(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _nonzero_steps(coeffs: Sequence[np.ndarray]) -> list[int]:
    """The steps j = 1..m whose C_j has a nonzero entry, from one test
    over the stacked coefficients."""
    return (np.flatnonzero(np.any(np.asarray(coeffs) != 0.0, axis=(1, 2))) + 1).tolist()


def _is_exact(d: Delay) -> bool:
    return isinstance(d, (Fraction, int))


def _exact(d: Delay) -> Fraction:
    return d if isinstance(d, Fraction) else Fraction(d)


@dataclass(frozen=True)
class DelaySystem:
    """Raw description: state dimension and (delay, coefficient) pairs.

    Delays may be floats or exact Fractions; exactness is preserved and
    decides later whether lattice arithmetic is exact or merge-tolerant.
    Construction normalizes matrices to read-only float arrays; all
    structural rules are enforced by validate().
    """

    n: int
    entries: tuple

    def __init__(self, n: int, entries: Sequence[tuple]):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(
            self,
            "entries",
            tuple((d if isinstance(d, Fraction) else (Fraction(d) if isinstance(d, int) else float(d)),
                   _as_matrix(a)) for d, a in entries),
        )

    @classmethod
    def single(cls, a, delay: Delay) -> "DelaySystem":
        mat = np.atleast_2d(np.array(a, dtype=float))
        return cls(mat.shape[0], [(delay, mat)])

    @property
    def delays(self) -> tuple:
        return tuple(d for d, _ in self.entries)

    @property
    def matrices(self) -> tuple:
        return tuple(a for _, a in self.entries)


@dataclass(frozen=True)
class ValidatedSystem:
    """A DelaySystem that passed validate().  Thin read-only view."""

    system: DelaySystem

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def entries(self) -> tuple:
        return self.system.entries

    @property
    def delays(self) -> tuple:
        return self.system.delays

    @property
    def matrices(self) -> tuple:
        return self.system.matrices

    @property
    def h_max(self) -> float:
        return float(self.system.entries[-1][0])

    @property
    def h_min(self) -> float:
        return float(self.system.entries[0][0])

    @property
    def is_rational(self) -> bool:
        return all(_is_exact(d) for d in self.delays)

    @property
    def coefficient_sum(self) -> np.ndarray:
        return np.sum(self.matrices, axis=0)

    @functools.cached_property
    def _fundamental_cache(self) -> dict:
        """side -> (int64 keys, K): fundamental_matrix's longest rational K."""
        return {}


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric weight.  Symmetry is required exactly as stored; positive
    definiteness is checked where a construction actually needs it."""

    matrix: np.ndarray

    def __init__(self, matrix):
        mat = _as_matrix(matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch("weight matrix must be square")
        if not np.array_equal(mat, mat.T):
            raise DimensionMismatch("weight matrix must equal its transpose exactly")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(cls, n: int) -> "WeightMatrix":
        return cls(np.eye(n))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def require_positive_definite(self) -> None:
        w = np.linalg.eigvalsh(self.matrix)
        if w[0] <= 0.0:
            raise ValueError(
                f"weight matrix must be positive definite (min eigenvalue {w[0]:.3e})"
            )


def _require_weight(weight: WeightMatrix, n: int) -> None:
    """DimensionMismatch unless the weight is n x n."""
    if weight.n != n:
        raise DimensionMismatch(f"weight matrix is {weight.n}x{weight.n}, the system needs {n}x{n}")


@dataclass(frozen=True)
class InitialFunction:
    """Piecewise linear initial data on [-H, 0), evaluated right of each
    segment start.  Constant functions get an unbounded left domain so the
    same object works for any system.  Raises NonFiniteInput for NaN or
    infinite data, apart from the -inf start of a constant first segment."""

    starts: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def __init__(self, starts, values, slopes=None):
        starts = np.asarray(starts, dtype=float)
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if starts.size == 0 or values.shape[0] != starts.shape[0]:
            raise DimensionMismatch("one value row per segment start, and at least one segment, required")
        if slopes is None:
            slopes = np.zeros_like(values)
        else:
            slopes = np.atleast_2d(np.asarray(slopes, dtype=float))
            if slopes.shape != values.shape:
                raise DimensionMismatch("slopes must match values in shape")
        unbounded = starts[0] == -math.inf and not slopes[0].any()
        if not all(np.all(np.isfinite(a)) for a in (starts[int(unbounded):], values, slopes)):
            raise NonFiniteInput(
                "initial function data must be finite; only a constant first segment may start at -inf"
            )
        if np.any(np.diff(starts) <= 0):
            raise NonincreasingDelays("segment starts must be strictly increasing")
        if starts[-1] >= 0:
            raise ValueError("all segments must start before 0")
        for arr in (starts, values, slopes):
            arr.setflags(write=False)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "slopes", slopes)

    @classmethod
    def constant(cls, vector) -> "InitialFunction":
        vec = np.atleast_1d(np.asarray(vector, dtype=float))
        return cls([-math.inf], [vec])

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def value(self, theta: float) -> np.ndarray:
        return self.value_many(float(theta))

    def value_many(self, thetas) -> np.ndarray:
        """Evaluate at every theta < 0, shaped thetas.shape + (n,).  Tiny
        float overshoot below the left end is clamped; anything at or above
        0 (or NaN) raises OutOfDomain naming the first such theta."""
        thetas = np.asarray(thetas, dtype=float)
        lo = float(self.starts[0])
        slack = 1e-9 * max(1.0, abs(lo)) if math.isfinite(lo) else math.inf
        bad = np.flatnonzero(~((thetas < 0.0) & (thetas >= lo - slack)))
        if bad.size:
            raise OutOfDomain(f"initial function is defined on [{lo}, 0), got {float(thetas.flat[bad[0]])}")
        thetas = np.maximum(thetas, lo)
        k = np.maximum(np.searchsorted(self.starts, thetas, side="right") - 1, 0)
        sloped = self.slopes[k].any(axis=-1)
        # constant segments, which may start at -inf, return values[k] untouched
        offset = np.subtract(thetas, self.starts[k], out=np.zeros(thetas.shape), where=sloped)
        return np.where(sloped[..., None], self.values[k] + offset[..., None] * self.slopes[k], self.values[k])


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a stability check.

    verdict is one of "stable", "unstable", "inconclusive".  For stable
    systems decay_rate (sigma) and decay_gain (gamma) describe the fitted
    envelope ||K(t)|| <= gamma * ||K0|| * exp(-sigma t); both are None
    otherwise.  rate_step is the time step the spectral radius refers to.
    reason, when set, says why the check did less than asked (a capped
    torus grid).
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
        out = {
            "method": self.method,
            "spectral_radius": self.spectral_radius,
            "verdict": self.verdict,
            "rate_step": self.rate_step,
            "decay_gain": self.decay_gain,
            "decay_rate": self.decay_rate,
            "grid_points": self.grid_points,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class CommensurateForm:
    """Rewrite of a rational-delay system over a basic delay h: delays are
    j*h for j = 1..m with coefficient C_j (zero where the original system
    has no entry).  The entries' arrays are shared, not copied.  h is an
    exact Fraction, except that a single float delay H is the form h = H,
    m = 1.  The construction, P and the stability screen read only the q
    nonzero C_j (nonzero_steps), so their cost grows with q, not m."""

    h: Delay
    m: int
    coefficients: tuple
    origin: DelaySystem

    @property
    def n(self) -> int:
        return self.origin.n

    def delays(self) -> list[Fraction]:
        return [self.h * j for j in range(1, self.m + 1)]

    @functools.cached_property
    def nonzero_steps(self) -> tuple:
        """(j, C_j) for every step j whose C_j is not all zero, by increasing j."""
        return tuple((j, self.coefficients[j - 1]) for j in _nonzero_steps(self.coefficients))

    def to_system(self) -> "ValidatedSystem":
        """The commensurate rewrite as a plain system of its nonzero
        steps.  An all-zero form keeps its last block, at delay m h, so
        that h_max still equals the form's horizon."""
        steps = self.nonzero_steps or ((self.m, self.coefficients[-1]),)
        return validate(DelaySystem(self.n, [(self.h * j, c) for j, c in steps]))


def validate(system: DelaySystem) -> ValidatedSystem:
    """Check structure and the invertibility of sum(A_j) - I.

    Raises DimensionMismatch, NonincreasingDelays, NonFiniteInput or
    SingularK0.  The determinant test is relative: |det| must exceed
    DET_RTOL * ||sum A_j - I||_2 ** n.
    """
    n = system.n
    if n < 1:
        raise DimensionMismatch("state dimension must be at least 1")
    if not system.entries:
        raise DimensionMismatch("at least one delay entry is required")
    prev = None
    for d, a in system.entries:
        dv = float(d) if abs(d) <= np.finfo(float).max else math.inf
        if not math.isfinite(dv):
            raise NonFiniteInput("delays must be finite")
        if 1e-12 * dv < np.finfo(float).tiny:
            raise NonincreasingDelays(f"delays must be positive with 1e-12 * delay a normal float, got {dv}")
        if prev is not None and not (d > prev):
            raise NonincreasingDelays("delays must be strictly increasing")
        prev = d
        if a.shape != (n, n):
            raise DimensionMismatch(f"coefficient for delay {dv} has shape {a.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteInput("coefficient matrices must be finite")
    m = np.sum(system.matrices, axis=0) - np.eye(n)
    det = float(np.linalg.det(m))
    scale = float(np.linalg.norm(m, 2)) ** n
    if abs(det) <= DET_RTOL * scale:
        raise SingularK0(
            f"sum of coefficients minus identity is numerically singular (|det| = {abs(det):.3e})"
        )
    return ValidatedSystem(system)


def k0(vsys: ValidatedSystem) -> np.ndarray:
    """The constant value of the fundamental matrix on [-H, 0):
    K0 = (sum A_j - I)^-1."""
    m = vsys.coefficient_sum - np.eye(vsys.n)
    try:
        out = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularK0(str(exc)) from exc
    out.setflags(write=False)
    return out


def fraction_gcd(values: Sequence[Fraction]) -> Fraction:
    """The largest h with every value an integer multiple of h."""
    return Fraction(math.gcd(*(v.numerator for v in values)), math.lcm(*(v.denominator for v in values)))


def _commensurate_data(delays: Sequence[Fraction], mats: Sequence[np.ndarray], n: int, max_steps: int):
    """(h, m, (C_1..C_m)) over the gcd h of the delays, with coefficients
    None when m exceeds max_steps: m = h_max / h is known before any of
    its m slots is built."""
    h = fraction_gcd(delays)
    m = int(delays[-1] / h)
    if m > max_steps:
        return h, m, None
    zero = np.zeros((n, n))
    zero.setflags(write=False)
    coeffs = [zero] * m
    for d, a in zip(delays, mats):
        coeffs[int(d / h) - 1] = a
    return h, m, tuple(coeffs)


def to_commensurate(vsys: ValidatedSystem) -> CommensurateForm:
    """Exact rewrite over the gcd of the delays, which must all be exact.
    Raises SizeExceeded past MAX_UNKNOWNS // 2 steps, the most that
    build_commensurate takes (2 m n^2 unknowns at n = 1)."""
    from .lyapunov_build import MAX_UNKNOWNS

    if not vsys.is_rational:
        raise NonRationalInput("system has float delays; approximate them first")
    cap = MAX_UNKNOWNS // 2
    h, m, coeffs = _commensurate_data([_exact(d) for d in vsys.delays], vsys.matrices, vsys.n, cap)
    if coeffs is None:
        raise SizeExceeded(f"commensurate rewrite needs m = {m} basic steps, cap is {cap}")
    return CommensurateForm(h=h, m=m, coefficients=coeffs, origin=vsys.system)


def _companion_radius(coeffs: Sequence[np.ndarray], n: int, tol: float) -> float:
    """Spectral radius of the block companion matrix of C_1..C_m: the
    certified Ehrlich-Aberth route (accurate to within tol, else dense) for
    n*m >= STRUCTURED_CUTOFF and n^2 <= m, dense eigvals otherwise."""
    m = len(coeffs)
    if n * m < STRUCTURED_CUTOFF or n * n > m:
        return _dense_companion_radius(coeffs, n)
    return _aberth_radius(coeffs, n, tol)[0]


def _dense_companion_radius(coeffs: Sequence[np.ndarray], n: int) -> float:
    m = len(coeffs)
    big = np.zeros((n * m, n * m))
    big[:n] = np.hstack(coeffs)
    big[n:, :-n] = np.eye(n * (m - 1))
    return float(np.max(np.abs(np.linalg.eigvals(big))))


def _pair_sums(z: np.ndarray, rows: int) -> np.ndarray:
    """sum_(k != i) 1/(z_i - z_k) for the first rows roots, as conj(d)/|d|^2
    in row blocks of about CHUNK_ENTRIES pairs from the diagonal on, real and
    imaginary parts in one (2, rows, cols) block: its row sums add to its
    rows, its column sums right of its square subtract, each a BLAS product."""
    xy = np.stack([z.real, z.imag])
    out = np.zeros((2, rows))
    ones = np.ones(z.size)
    start = 0
    while start < rows:
        stop = min(start + max(1, CHUNK_ENTRIES // (z.size - start)), rows)
        part = xy[:, start:stop, None] - xy[:, None, start:]
        inv = np.divide(1.0, part[0] * part[0] + part[1] * part[1])
        np.fill_diagonal(inv, 0.0)
        part *= inv
        out[:, start:stop] += part @ ones[start:]
        out[:, stop:] -= ones[:stop - start] @ part[:, :, stop - start:rows - start]
        start = stop
    return out[0] - 1j * out[1]


def _newton_polygon_start(steps, blocks, n: int, m: int) -> np.ndarray | None:
    """Starting points for the n*m roots of det P: one circle per edge of
    the upper convex hull of (degree, log ||coefficient||), holding n roots
    per unit of degree, at angles that are never conjugate-symmetric.
    None when C_m = 0 puts roots at 0."""
    if not steps or steps[-1] != m:
        return None
    points = [(m - j, math.log(np.linalg.norm(c, 2))) for j, c in zip(steps[::-1], blocks[::-1])]
    hull: list = []
    for p in points + [(m, 0.0)]:
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
            >= (p[0] - hull[-2][0]) * (hull[-1][1] - hull[-2][1])
        ):
            hull.pop()
        hull.append(p)
    circles = []
    for edge, ((d1, l1), (d2, l2)) in enumerate(zip(hull, hull[1:])):
        count = n * (d2 - d1)
        angles = 2.0 * math.pi * (np.arange(count) + 0.25) / count + 0.7 * edge
        circles.append(math.exp((l1 - l2) / (d2 - d1)) * np.exp(1j * angles))
    return np.concatenate(circles)


def _powers(w: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """w ** e for each row e of the int array exponents >= 0 (k rows of
    w.size): the product of the squares w, w^2, w^4, ... of one ladder at
    the set bits of e."""
    out, square = np.ones(exponents.shape, dtype=complex), w
    for bit in range(int(exponents.max()).bit_length()):
        out = np.where(exponents >> bit & 1, out * square, out)
        square = square * square
    return out


def _det_p(z: np.ndarray, steps, blocks, n: int, m: int) -> np.ndarray:
    """Newton correction p/p' = 1/tr(P^-1 P') of p = det P at each z,
    CHUNK_ENTRIES matrix entries at a time, from P(w) at w = z or, where
    |z| > 1, from Q(w) = I - sum C_j w^j at w = 1/z with p = z^(n m) det Q.
    So |w| <= 1, and no power of w from _powers overflows.  An exactly
    singular P(z) makes z a root to working precision: its correction is zero."""
    newton = np.empty(z.size, dtype=complex)
    eye = np.eye(n)
    size = max(1, CHUNK_ENTRIES // (n * n))
    in_q = np.array([0, 0] + list(steps) + [j + 1 for j in steps])[:, None]
    in_p = np.array([m, m - 1] + [m - j for j in steps] + [max(m - j - 1, 0) for j in steps])[:, None]
    for start in range(0, z.size, size):
        part = slice(start, start + size)
        zz = z[part]
        outside = np.abs(zz) > 1.0
        w = np.where(outside, 1.0 / np.where(outside, zz, 1.0), zz)
        pw = _powers(w, np.where(outside, in_q, in_p))
        mat = pw[0][:, None, None] * eye
        der = np.where(outside, 0.0, m * pw[1])[:, None, None] * eye
        for j, c, a, da in zip(steps, blocks, pw[2:], pw[2 + len(steps):]):
            mat = mat - a[:, None, None] * c
            der = der - (np.where(outside, -j, m - j) * da)[:, None, None] * c
        try:
            x, singular = np.linalg.solve(mat, der), False
        except np.linalg.LinAlgError:
            singular = np.linalg.det(mat) == 0.0
            mat[singular] = eye
            x = np.linalg.solve(mat, der)
        logd = np.trace(x, axis1=1, axis2=2)
        newton[part] = np.where(singular, 0.0, 1.0 / np.where(outside, logd + n * m / zz, logd))
    return newton


def _aberth_radius(coeffs: Sequence[np.ndarray], n: int, tol: float) -> tuple[float, float | None]:
    """Spectral radius of the block companion matrix from the N = n*m roots
    of the monic p = det P, P(z) = z^m I - sum_j C_j z^(m-j), as (radius,
    certified error) or, after a fallback, (dense radius, None).

    A vectorised (Jacobi) Ehrlich-Aberth iteration moves the roots still
    moving, kept in front of z, at once: p/p' from batched n x n solves
    over the nonzero C_j only, pair sums from the upper triangle.  Newton
    disks |x - z_i| <= N |p(z_i)/p'(z_i)| each hold a root of p; widened by
    N ulps of max |z_i| for rounding (so never of radius zero) and pairwise
    disjoint (checked on pairs closer in real part than twice the largest
    radius), they hold one each, and max |z_i| is the radius to within the
    largest radius.  Dense eigvals answers instead when C_m = 0, the sweep
    cap is reached, a value is non-finite, disks overlap or a radius exceeds tol.
    """
    m = len(coeffs)
    size = n * m
    steps = _nonzero_steps(coeffs)
    blocks = [coeffs[j - 1] for j in steps]
    z = _newton_polygon_start(steps, blocks, n, m)
    if z is None:
        return _dense_companion_radius(coeffs, n), None
    moving = size
    with np.errstate(all="ignore"):
        for _ in range(ABERTH_SWEEPS):
            newton = _det_p(z[:moving], steps, blocks, n, m)
            step = newton / (1.0 - newton * _pair_sums(z, moving))
            z[:moving] -= step
            # a non-finite step never stops, so it ends in the fallback
            still = np.abs(step) <= ABERTH_STOP * np.abs(z[:moving])
            z[:moving] = z[:moving][np.argsort(still, kind="stable")]
            moving -= int(np.count_nonzero(still))
            if moving == 0 or not np.all(np.isfinite(step)):
                break
        disk = size * (np.abs(_det_p(z, steps, blocks, n, m)) + np.finfo(float).eps * np.max(np.abs(z)))
    worst = float(np.max(disk))
    if moving or not (math.isfinite(worst) and worst <= tol):
        return _dense_companion_radius(coeffs, n), None
    order = np.argsort(z.real)
    z, disk = z[order], disk[order]
    for offset in range(1, size):
        near = np.flatnonzero(z.real[offset:] - z.real[:-offset] <= 2.0 * worst)
        if near.size == 0:
            break
        if np.any(np.abs(z[near + offset] - z[near]) <= disk[near + offset] + disk[near]):
            return _dense_companion_radius(coeffs, n), None
    return float(np.max(np.abs(z))), worst


def _torus_grid(points: int, q: int) -> int:
    """points per delay, or the most whose q-th power fits TORUS_MAX_EVALS."""
    p = min(points, int(TORUS_MAX_EVALS ** (1.0 / q)) + 1)
    while p ** q > TORUS_MAX_EVALS:
        p -= 1
    return p


def _torus_radius(delays: Sequence[float], mats: Sequence[np.ndarray], points: int) -> float:
    """Largest spectral radius of sum A_j exp(i theta_j) over a uniform
    grid on the torus.  A sampled lower bound of the true supremum, hence
    only a heuristic certificate.  Stacked eigvals calls walk the grid in
    row-major order, CHUNK_ENTRIES matrix entries at a time."""
    phases = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, points, endpoint=False))
    total = points ** len(delays)
    chunk = max(1, CHUNK_ENTRIES // mats[0].size)
    worst = 0.0
    for start in range(0, total, chunk):
        idx = np.unravel_index(np.arange(start, min(start + chunk, total)), (points,) * len(delays))
        acc = np.zeros((idx[0].size,) + mats[0].shape, dtype=complex)
        for a, i in zip(mats, idx):
            acc = acc + a * phases[i][:, None, None]
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvals(acc)))))
    return worst


def _fit_decay(vsys: ValidatedSystem, rho: float, step: float) -> tuple[float, float]:
    """Fit (gamma, sigma) so that ||K(t)||_2 <= gamma ||K0||_2 exp(-sigma t)
    holds on a deep sample horizon.  sigma keeps a 10 percent slack off the
    observed per-step decay so the margin grows with depth; gamma carries a
    further 5 percent cushion over the worst observed ratio.  The rate uses
    max(rho, RHO_FLOOR); below the floor the horizon reaches past the
    nilpotent range, and the envelope falls by at most 1e-200 over it, so
    that exp(sigma t) stays finite."""
    from . import fundamental

    log_rho = math.log(max(rho, RHO_FLOOR))
    depth = step * math.log(1e-13) / log_rho
    horizon = min(depth, 3000.0 * vsys.h_min)
    horizon = max(horizon, 3.0 * vsys.h_max)
    if rho < RHO_FLOOR:
        horizon = max(horizon, vsys.n * vsys.h_max + step)
        log_rho = max(log_rho, step * math.log(1e-200) / horizon)
    sigma = 0.9 * (-log_rho) / step
    kfun = fundamental.fundamental_matrix(vsys, horizon)
    k0n = float(np.linalg.norm(kfun.pre_value, 2))
    norms = np.linalg.norm(kfun.values, 2, axis=(1, 2)).tolist()
    ends = np.append(kfun.breakpoints[1:], kfun.horizon).tolist()
    gamma = max([1.0] + [v * math.exp(sigma * t_end) / k0n for v, t_end in zip(norms, ends)])
    return 1.05 * gamma, sigma


def stability_check(system: DelaySystem | ValidatedSystem, *, with_decay: bool = True) -> StabilityReport:
    """Classify the system as stable, unstable or inconclusive.

    Single delay: spectral radius of the lone coefficient.

    All delays exact rationals, with n*m <= COMPANION_CAP: spectral radius
    of the block companion matrix of the commensurate rewrite (per
    basic-delay step).  For n*m >= STRUCTURED_CUTOFF and n^2 <= m it is
    the largest root of the monic p = det(z^m I - sum_j C_j z^(m-j)),
    found by an Ehrlich-Aberth iteration at (n m)^2 / 2 root pairs per
    sweep and certified in O(n m log(n m)) by Newton disks of radius
    n m |p / p'| plus a rounding allowance: when they are pairwise disjoint
    each holds exactly one eigenvalue, and the radius is exact to within
    the largest disk radius, which must not exceed EXACT_MARGIN / 10.  Without
    that certificate (C_m = 0, no convergence, a non-finite value,
    overlapping or too wide disks), and for smaller companions, dense
    eigvals gives the radius.

    Otherwise a torus grid search that can certify instability but never
    stability; near-unity results within TORUS_MARGIN stay inconclusive
    (EXACT_MARGIN for the exact radii).  The grid has TORUS_POINTS per
    delay unless that exceeds TORUS_MAX_EVALS evaluations; then it shrinks
    to the largest grid within the cap and the report gives the reason.
    """
    raw = system.system if isinstance(system, ValidatedSystem) else system
    delays = raw.delays
    mats = raw.matrices
    n = raw.n
    grid_points = reason = None
    rewrite = None
    if len(delays) > 1 and all(_is_exact(d) for d in delays):
        rewrite = _commensurate_data([_exact(d) for d in delays], mats, n, COMPANION_CAP // n)

    if len(delays) == 1:
        method = "single_delay_spectral"
        rho = float(np.max(np.abs(np.linalg.eigvals(mats[0]))))
        step = float(delays[0])
        margin = EXACT_MARGIN
    elif rewrite is not None and rewrite[2] is not None:
        h, _, coeffs = rewrite
        method = "commensurate_companion"
        rho = _companion_radius(coeffs, n, EXACT_MARGIN / 10.0)
        step = float(h)
        margin = EXACT_MARGIN
    else:
        method = "torus_grid_heuristic"
        grid_points = _torus_grid(TORUS_POINTS, len(delays))
        if grid_points < TORUS_POINTS:
            reason = (
                f"torus grid capped at {grid_points}^{len(delays)} evaluations "
                f"(TORUS_MAX_EVALS = {TORUS_MAX_EVALS}), {TORUS_POINTS} points per delay asked"
            )
        rho = _torus_radius([float(d) for d in delays], mats, grid_points)
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


def require_stable(vsys: ValidatedSystem, report: StabilityReport | None, label: str) -> StabilityReport:
    """The given or a fresh stability report, with a decay envelope;
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
    return report


def default_horizon(vsys: ValidatedSystem, report: StabilityReport) -> float:
    """Horizon at which the per-step decay max(rho, RHO_FLOOR) has fallen to
    HORIZON_TARGET, floored at a few top delays so short systems integrate
    something, and below the floor at the end of the nilpotent range."""
    rho = report.spectral_radius
    t = report.rate_step * math.log(HORIZON_TARGET) / math.log(max(rho, RHO_FLOOR))
    if rho < RHO_FLOOR:
        t = max(t, vsys.n * vsys.h_max + report.rate_step)
    return max(t, 3.0 * vsys.h_max)


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed in a system descriptor")


def _delay_from_json(obj) -> Delay:
    if isinstance(obj, bool):
        raise ParseError("delay must be a number or {num, den}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ParseError("delay must be finite")
        return obj
    if isinstance(obj, dict):
        try:
            num, den = obj["num"], obj["den"]
        except KeyError as exc:
            raise ParseError("rational delay needs both 'num' and 'den'") from exc
        if not isinstance(num, int) or not isinstance(den, int) or den == 0:
            raise ParseError("'num' and 'den' must be integers with den != 0")
        return Fraction(num, den)
    raise ParseError(f"cannot read a delay from {obj!r}")


def system_from_json(text: str) -> DelaySystem:
    """Parse the JSON descriptor {"n": int, "entries": [{"delay": ..., "A": [[...]]}]}.

    Delays may be floats, integers (exact) or {"num": p, "den": q}
    (exact).  NaN and infinities are rejected everywhere.
    """
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("descriptor must be a JSON object")
    try:
        n = data["n"]
        raw_entries = data["entries"]
    except KeyError as exc:
        raise ParseError(f"descriptor is missing {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("'n' must be a positive integer")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise ParseError("'entries' must be a non-empty list")
    entries = []
    for item in raw_entries:
        if not isinstance(item, dict) or "delay" not in item or "A" not in item:
            raise ParseError("each entry needs 'delay' and 'A'")
        delay = _delay_from_json(item["delay"])
        try:
            a = np.array(item["A"], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"matrix for delay {delay} is malformed: {exc}") from exc
        if a.shape != (n, n):
            raise ParseError(f"matrix for delay {delay} must be {n}x{n}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ParseError("matrix entries must be finite")
        entries.append((delay, a))
    return DelaySystem(n, entries)


def system_to_json(system: DelaySystem) -> str:
    """Inverse of system_from_json.  Exact delays round-trip as {num, den}."""

    def delay_out(d: Delay):
        if isinstance(d, Fraction):
            return {"num": d.numerator, "den": d.denominator}
        return float(d)

    data = {
        "n": system.n,
        "entries": [
            {"delay": delay_out(d), "A": [[float(x) for x in row] for row in a]}
            for d, a in system.entries
        ],
    }
    return json.dumps(data, sort_keys=True, indent=2)


def load_system(path) -> DelaySystem:
    with open(path, "r", encoding="utf-8") as fh:
        return system_from_json(fh.read())
