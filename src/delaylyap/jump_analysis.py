"""Jump discontinuities of the derivative of the Lyapunov matrix.

U is continuous but its derivative jumps wherever the fundamental matrix
jumps.  For a stable system the jump at shift tau is the convergent series

    dU'(tau) = - sum_q dK(t_q)^T W dK(t_q + tau)

over the semigroup lattice, and the derivative itself is
U'(tau) = sum_q (K(t_q - tau) - K0)^T W dK(t_q).  Both series are
truncated with explicit geometric tail bounds.  The left factors
dK(t_q)^T W of the jump series do not depend on tau: they are stacked
once, and a chunk of shifts costs one gather of the partners dK(t_q + tau)
and one matmul, exact up to rounding.  The same jumps can be read
directly off the segment slopes of a built U with no truncation at all,
which makes the two routes independently checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .fundamental import (
    JumpTable,
    _matrix_header,
    delta_k,
    discontinuity_instants,
    exact_multiples,
    finite_shifts,
    fundamental_matrix,
    row_chunks,
    sequential_sum,
    snapped_lookup,
    write_csv,
)
from .lyapunov_build import PiecewiseAffineMatrixFunction
from .stability import StabilityReport, require_stable
from .system_model import ValidatedSystem, WeightMatrix, _require_weight, k0, to_commensurate

STABLE_LABEL = "jump series need"
# slope jumps smaller than this (max abs) are left out of a spectrum
SPECTRUM_DROP_TOL = 1e-14


class TruncatedSeries(NamedTuple):
    """A series or integral truncated at horizon, with the bound on its
    tail; delta_u_prime at an array of shifts stacks value and tail_bound
    over them."""

    value: np.ndarray
    tail_bound: float
    horizon: float


@dataclass(frozen=True)
class JumpSpectrum:
    """Jumps of U' at their shifts, read exactly off the segment slopes of
    a U built on [-horizon, horizon]."""

    taus: np.ndarray
    jumps: np.ndarray
    horizon: float

    @property
    def n(self) -> int:
        return self.jumps.shape[1]

    def jump_at(self, tau: float) -> np.ndarray | None:
        """The jump at the shift within 1e-9 H of tau, the slack U's
        evaluate clips with, or None."""
        snap = 1e-9 * self.horizon
        i = int(snapped_lookup(self.taus, float(tau), snap, np.inf, instants=True, domain="jump spectrum"))
        return None if i < 0 else self.jumps[i]

    def to_csv(self, fh) -> None:
        """tau, dU11..dUnn (row major) and a bound column of zeros, as the
        spectrum has no truncation."""
        rows = len(self.taus)
        table = np.column_stack([self.taus, self.jumps.reshape(rows, self.n * self.n), np.zeros(rows)])
        write_csv(fh, ["tau"] + _matrix_header("dU", self.n) + ["bound"], table)


@dataclass(frozen=True)
class JumpPropertyReport:
    """Worst residuals of the defining identities of dU' on a shift grid,
    all from the truncated series route.  table is the jump table the
    series were summed over (left out of to_dict); it reaches past
    horizon + max |tau| for every shift of the grid."""

    symmetry: float
    dynamic: float
    algebraic: float
    nsd_max_eigenvalue: float
    tail_bound: float
    horizon: float
    grid_points: int
    table: JumpTable | None = field(default=None, repr=False, compare=False)

    def max_residual(self) -> float:
        return max(self.symmetry, self.dynamic, self.algebraic)

    def to_dict(self) -> dict:
        own = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "table"}
        return own | {"max_residual": self.max_residual()}


def delta_u_prime(
    vsys: ValidatedSystem,
    weight: WeightMatrix,
    tau: float | Sequence[float],
    horizon: float | None = None,
    *,
    report: StabilityReport | None = None,
    table: JumpTable | None = None,
) -> TruncatedSeries:
    """Jump of U' at shift tau by the truncated series with its tail
    bound.  A scalar tau gives an (n, n) value and a float tail_bound; an
    array of shifts gives value tau's shape + (n, n) and tail_bound tau's
    shape.  One table, built unless the given one reaches
    horizon + max(tau, 0), serves all shifts; the default horizon covers
    the largest |tau|.  Off-lattice shifts give an exact zero, -0.0, since
    the series has no aligned terms.  The shifts are taken in chunks, and
    a shift's value does not depend on the chunk it falls in.  For
    non-commensurate systems the reported bound uses the smallest gap seen
    on the generated lattice, which is a heuristic because deeper lattice
    gaps can shrink further."""
    _require_weight(weight, vsys.n)
    taus = finite_shifts(tau)
    env = require_stable(vsys, report, STABLE_LABEL)
    flat = taus.ravel()
    if horizon is None:
        horizon = max(env.horizon, float(np.max(np.abs(flat), initial=0.0)) + vsys.h_min)
    reach = max(float(np.max(flat, initial=0.0)), 0.0)
    if table is None or table.horizon < horizon + reach:
        table = delta_k(vsys, horizon + reach + vsys.h_min, drop_tol=0.0)
    w = weight.matrix
    n = vsys.n
    count = int(np.searchsorted(table.times, horizon + table.tol, side="right"))
    # the left factors dK_q^T W side by side, one (n, count n) matrix
    left = np.swapaxes(np.matmul(np.swapaxes(table.jumps[:count], 1, 2), w), 0, 1).reshape(n, -1)
    # the right factors, and a zero last row for an instant with no partner
    right = np.concatenate([table.jumps, np.zeros((1, n, n))])
    value = np.empty((flat.size, n, n))
    for rows in row_chunks(flat.size, count * n * n):
        other = table.index_many(table.times[:count] + flat[rows, None])
        value[rows] = -np.matmul(left, np.take(right, other, axis=0).reshape(len(other), -1, n))
    # ||dK(t)|| <= 2 bound(t) at each of the instants t_q > T, at least gap apart
    w2 = float(np.linalg.norm(w, 2))
    gap = table.min_gap()
    tails = [4.0 * w2 * env.lattice_sum(horizon, gap, t) for t in flat.tolist()]
    return TruncatedSeries(
        value=value.reshape(taus.shape + (n, n)),
        tail_bound=tails[0] if taus.ndim == 0 else np.array(tails).reshape(taus.shape),
        horizon=float(horizon),
    )


def u_prime_series(
    vsys: ValidatedSystem,
    weight: WeightMatrix,
    tau: float,
    horizon: float | None = None,
    *,
    report: StabilityReport | None = None,
) -> TruncatedSeries:
    """Derivative of U at an off-knot shift tau by the truncated series,
    with its tail bound.  Requires horizon >= |tau|."""
    _require_weight(weight, vsys.n)
    tau = float(finite_shifts(tau))
    env = require_stable(vsys, report, STABLE_LABEL)
    if horizon is None:
        horizon = max(env.horizon, abs(tau) + vsys.h_min)
    if horizon < abs(tau):
        raise ValueError(f"horizon {horizon} must be at least |tau| = {abs(tau)}")
    table = delta_k(vsys, horizon + vsys.h_min, drop_tol=0.0)
    kfun = fundamental_matrix(vsys, horizon + max(-tau, 0.0) + vsys.h_min)
    base = k0(vsys)
    w = weight.matrix
    count = int(np.searchsorted(table.times, horizon + table.tol, side="right"))
    left = np.swapaxes(kfun.value_many(table.times[:count] - tau) - base, 1, 2)
    acc = sequential_sum(np.matmul(np.matmul(left, w), table.jumps[:count]))
    # ||K(t_q - tau) - K0|| <= bound(t_q - tau) + ||K0|| and ||dK(t_q)|| <= 2 bound(t_q)
    gap = table.min_gap()
    tail = 2.0 * float(np.linalg.norm(w, 2)) * (
        env.lattice_sum(horizon, gap, -tau) + env.k0_norm * env.lattice_sum(horizon, gap)
    )
    return TruncatedSeries(value=acc, tail_bound=tail, horizon=float(horizon))


def jumps_from_segments(u: PiecewiseAffineMatrixFunction) -> JumpSpectrum:
    """Exact jump spectrum of U' read from slope differences at interior
    knots of a built U, above SPECTRUM_DROP_TOL.  No truncation is
    involved; a constant-slope U yields an empty spectrum."""
    jumps = np.diff(u.slopes, axis=0)
    keep = np.max(np.abs(jumps), axis=(1, 2)) > SPECTRUM_DROP_TOL
    return JumpSpectrum(
        taus=u.knots()[1:2 * u.m][keep],
        jumps=jumps[keep],
        horizon=u.horizon,
    )


def check_jump_properties(
    vsys: ValidatedSystem,
    weight: WeightMatrix,
    *,
    tau_grid: Sequence[float] | None = None,
    horizon: float | None = None,
    report: StabilityReport | None = None,
) -> JumpPropertyReport:
    """Verify the defining identities of dU' on a grid of shifts, all
    computed by the truncated series:

    symmetry   dU'(-tau) = dU'(tau)^T
    dynamic    dU'(tau) = sum_j dU'(tau - h_j) A_j          (tau > 0)
               dU'(tau) = sum_j A_j^T dU'(tau + h_j)        (tau < 0)
    algebraic  sum_i sum_j A_i^T dU'(tau + h_i - h_j) A_j - dU'(tau)
                 = W dK(tau)                                 (tau >= 0)
    and the negative semidefiniteness of dU'(0) + W.

    The default grid is U's knots k h, as exact_multiples gives them, for
    exact delays, or lattice differences inside [-H, H] otherwise.  Every
    shift the identities read is laid out as one array, a row per grid
    point in reading order (tau; then -tau and (tau + h_i) - h_j for
    tau >= 0; then tau -+ h_j for tau != 0), with a mask of the reads
    used, and 0 last.  Shifts within 1e-12 relative share one integer
    key and the value of the first read with it; one delta_u_prime pass
    over one jump table sums all their series, and each identity is one
    batched product per delay or delay pair over the grid.
    """
    _require_weight(weight, vsys.n)
    hmax = vsys.h_max
    if tau_grid is None:
        if vsys.is_rational:
            form = to_commensurate(vsys)
            tau_grid = exact_multiples(np.arange(-form.m, form.m + 1), form.h)
        else:
            inst = np.asarray(discontinuity_instants(vsys, hmax))
            diffs = np.unique(
                np.concatenate([inst, -inst, np.subtract.outer(inst, inst).ravel()])
            )
            tau_grid = diffs[np.abs(diffs) <= hmax + 1e-12]
    tau_grid = finite_shifts(tau_grid)
    env = require_stable(vsys, report, STABLE_LABEL)
    horizon = env.horizon if horizon is None else horizon
    max_shift = float(np.max(np.abs(tau_grid))) if tau_grid.size else 0.0
    horizon = max(horizon, max_shift + 2.0 * hmax + vsys.h_min)
    table = delta_k(vsys, horizon + max_shift + 2.0 * hmax + vsys.h_min, drop_tol=0.0)
    h = np.array([float(d) for d in vsys.delays])
    mats = vsys.matrices
    q, n = len(mats), vsys.n
    w = weight.matrix
    scale = max_shift + 2.0 * hmax

    tau = tau_grid[:, None]
    pair = ((tau[:, :, None] + h[:, None]) - h).reshape(-1, q * q)
    reads = np.hstack([tau, -tau, pair, np.where(tau > 0.0, tau - h, tau + h)])
    nonneg, nonzero = tau_grid >= 0.0, tau_grid != 0.0
    used = np.repeat(np.column_stack([np.ones_like(nonneg), nonneg, nonzero]), [1, 1 + q * q, q], axis=1)
    flat = np.append(reads[used], 0.0)
    keys = np.rint(flat / (1e-12 * scale)).astype(np.int64)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # the distinct keys in reading order, each with the first shift read
    order = np.argsort(first)
    series = delta_u_prime(vsys, weight, flat[first[order]], horizon, report=env.report, table=table)
    at_read = series.value[np.argsort(order)[inverse]]
    du = np.zeros(reads.shape + (n, n))
    du[used] = at_read[:-1]

    here = du[nonneg, 0]
    sym = np.max(np.abs(du[nonneg, 1] - np.swapaxes(here, 1, 2)), initial=0.0)
    idx = table.index_many(tau_grid[nonneg])
    dk = np.where((idx >= 0)[:, None, None], table.jumps[idx], 0.0)
    acc = -here - w @ dk
    for k, (ai, aj) in enumerate(product(mats, mats)):
        acc = acc + ai.T @ du[nonneg, 2 + k] @ aj
    alg = np.max(np.abs(acc), initial=0.0)
    # sum_j dU'(tau - h_j) A_j for tau > 0, sum_j A_j^T dU'(tau + h_j) for tau < 0
    later = (tau_grid[nonzero] > 0.0)[:, None, None]
    acc = -du[nonzero, 0]
    for j, aj in enumerate(mats):
        other = du[nonzero, 2 + q * q + j]
        acc = acc + np.where(later, other @ aj, aj.T @ other)
    dyn = np.max(np.abs(acc), initial=0.0)
    at_zero = at_read[-1] + w
    nsd = float(np.max(np.linalg.eigvalsh(0.5 * (at_zero + at_zero.T))))
    return JumpPropertyReport(
        symmetry=float(sym),
        dynamic=float(dyn),
        algebraic=float(alg),
        nsd_max_eigenvalue=nsd,
        tail_bound=float(np.max(series.tail_bound)),
        horizon=float(horizon),
        grid_points=int(tau_grid.size),
        table=table,
    )
