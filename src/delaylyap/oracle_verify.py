"""Independent integral oracles for the Lyapunov construction.

For a verified stable system the Lyapunov matrix has the integral form

    U(tau) = integral_0^inf (K(t) - K0)^T W K(t + tau) dt,

and the antisymmetric constant has

    P = integral_0^inf (K(t)^T W K0 - K0^T W K(t)) dt.

Both integrands are piecewise constant, so truncating at a horizon T and
summing cells exactly gives the value up to a geometric tail controlled by
the fitted decay envelope of K.  Nothing here touches the block solvers:
agreement between these sums and the algebraic construction is a genuine
two-route check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fundamental import StepMatrixFunction, fundamental_matrix, row_chunks, sequential_sum, sequential_sums
from .lyapunov_build import PiecewiseAffineMatrixFunction
from .system_model import (
    StabilityReport,
    ValidatedSystem,
    WeightMatrix,
    default_horizon,
    k0,
    require_stable,
)

STABLE_LABEL = "integral oracle needs"


class IntegralEstimate(NamedTuple):
    value: np.ndarray
    tail_bound: float
    horizon: float


def _u_tail_bound(report: StabilityReport, w2: float, k0n: float, tau: float, horizon: float) -> float:
    gamma, sigma = report.decay_gain, report.decay_rate
    return (
        gamma
        * w2
        * k0n**2
        * math.exp(-sigma * tau)
        * (math.exp(-sigma * horizon) / sigma + gamma * math.exp(-2.0 * sigma * horizon) / (2.0 * sigma))
    )


def _u_sum_from_k(
    kfun: StepMatrixFunction, base: np.ndarray, w: np.ndarray, tau: float | Sequence[float], horizon: float
) -> np.ndarray:
    """The finite part of the U integral at each shift of tau, shaped
    tau's shape + (n, n).  A shift's cells are cut by the breakpoints of
    K(t) and K(t + tau) on [0, horizon]; the shifts are taken in chunks,
    one row of cells each, and every row is added left to right."""
    taus = np.asarray(tau, dtype=float)
    flat = taus.ravel()
    n = kfun.n
    cuts = np.concatenate([kfun.breakpoints[kfun.breakpoints <= horizon], [0.0, horizon]])
    out = np.empty((flat.size, n, n))
    for rows in row_chunks(flat.size, (len(cuts) + len(kfun.breakpoints)) * n * n):
        shifted = kfun.breakpoints - flat[rows, None]
        shifted[~((shifted > 0.0) & (shifted < horizon))] = np.inf
        pts = np.sort(np.concatenate([np.broadcast_to(cuts, (len(shifted), len(cuts))), shifted], axis=1), axis=1)
        # each row's distinct finite points, as np.unique would give them
        new = np.isfinite(pts)
        new[:, 1:] &= pts[:, 1:] != pts[:, :-1]
        cells = new.sum(axis=1) - 1
        pts = pts[new]
        row = np.repeat(np.arange(len(cells)), cells + 1)
        inner = row[:-1] == row[1:]
        mids, widths = (0.5 * (pts[:-1] + pts[1:]))[inner], np.diff(pts)[inner]
        left = widths[:, None, None] * np.swapaxes(kfun.value_many(mids) - base, 1, 2)
        right = kfun.value_many(mids + np.repeat(flat[rows], cells))
        out[rows] = sequential_sums(np.matmul(np.matmul(left, w), right), cells)
    return out.reshape(taus.shape + (n, n))


def u_integral_oracle(
    vsys: ValidatedSystem,
    weight: WeightMatrix,
    tau: float,
    horizon: float | None = None,
    *,
    report: StabilityReport | None = None,
) -> IntegralEstimate:
    """Truncated integral for U(tau) with its geometric tail bound.

    The integrand is sampled at cell midpoints of the union of the
    discontinuity partitions of K(t) and K(t + tau), so the finite part is
    exact up to rounding.  Requires horizon >= |tau| for the tail bound to
    be valid.
    """
    report = require_stable(vsys, report, STABLE_LABEL)
    if horizon is None:
        horizon = default_horizon(vsys, report)
    tau = float(tau)
    if horizon < abs(tau):
        raise ValueError(f"horizon {horizon} must be at least |tau| = {abs(tau)}")
    kfun = fundamental_matrix(vsys, horizon + max(tau, 0.0) + vsys.h_min)
    base = k0(vsys)
    w = weight.matrix
    value = _u_sum_from_k(kfun, base, w, tau, horizon)
    tail = _u_tail_bound(
        report, float(np.linalg.norm(w, 2)), float(np.linalg.norm(base, 2)), tau, horizon
    )
    return IntegralEstimate(value=value, tail_bound=tail, horizon=float(horizon))


def p_integral_oracle(
    vsys: ValidatedSystem,
    weight: WeightMatrix,
    horizon: float | None = None,
    *,
    report: StabilityReport | None = None,
) -> IntegralEstimate:
    """Truncated integral route to the antisymmetric constant P."""
    report = require_stable(vsys, report, STABLE_LABEL)
    if horizon is None:
        horizon = default_horizon(vsys, report)
    kfun = fundamental_matrix(vsys, horizon + vsys.h_min)
    base = k0(vsys)
    w = weight.matrix
    pts = np.unique(np.concatenate([kfun.breakpoints[kfun.breakpoints <= horizon], [0.0, horizon]]))
    wk = w @ base
    kv = kfun.value_many(0.5 * (pts[:-1] + pts[1:]))
    acc = sequential_sum(np.diff(pts)[:, None, None] * (np.matmul(np.swapaxes(kv, 1, 2), wk) - np.matmul(wk.T, kv)))
    gamma, sigma = report.decay_gain, report.decay_rate
    w2 = float(np.linalg.norm(w, 2))
    k0n = float(np.linalg.norm(base, 2))
    tail = 2.0 * gamma * w2 * k0n**2 * math.exp(-sigma * horizon) / sigma
    return IntegralEstimate(value=acc, tail_bound=tail, horizon=float(horizon))


@dataclass(frozen=True)
class CrossCheckReport:
    """Grid comparison of a built U against the integral route."""

    grid: np.ndarray
    errors: np.ndarray
    bounds: np.ndarray
    max_error: float
    max_bound: float
    horizon: float
    slack: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "grid_points": int(len(self.grid)),
            "max_error": self.max_error,
            "max_bound": self.max_bound,
            "horizon": self.horizon,
            "slack": self.slack,
            "passed": self.passed,
        }


def cross_check(
    u: PiecewiseAffineMatrixFunction,
    vsys: ValidatedSystem,
    weight: WeightMatrix,
    *,
    grid: Sequence[float] | None = None,
    horizon: float | None = None,
    slack: float = 1e-8,
    report: StabilityReport | None = None,
) -> CrossCheckReport:
    """Compare the built U with the truncated integral on a grid over
    [-H, H] (101 uniform points by default).  Each point must agree within
    the point's tail bound plus slack.  The fundamental matrix is built
    once, and one batched pass sums the integral at every grid point, in
    chunks of points, with the bits of one sum per point."""
    hz = u.horizon
    if grid is None:
        grid = np.linspace(-hz, hz, 101)
    grid = np.asarray(grid, dtype=float)
    if not grid.size:
        raise ValueError("cross_check needs a nonempty grid, got an empty one")
    report = require_stable(vsys, report, STABLE_LABEL)
    if horizon is None:
        horizon = max(default_horizon(vsys, report), 2.0 * hz)
    kfun = fundamental_matrix(vsys, horizon + hz + vsys.h_min)
    base = k0(vsys)
    w = weight.matrix
    w2 = float(np.linalg.norm(w, 2))
    k0n = float(np.linalg.norm(base, 2))
    approx = _u_sum_from_k(kfun, base, w, grid, horizon)
    errors = np.max(np.abs(u.evaluate_many(grid) - approx), axis=(1, 2))
    bounds = np.array([_u_tail_bound(report, w2, k0n, tau, horizon) + slack for tau in grid.tolist()])
    passed = bool(np.all(errors <= bounds))
    return CrossCheckReport(
        grid=grid,
        errors=errors,
        bounds=bounds,
        max_error=float(np.max(errors)),
        max_bound=float(np.max(bounds)),
        horizon=float(horizon),
        slack=slack,
        passed=passed,
    )
