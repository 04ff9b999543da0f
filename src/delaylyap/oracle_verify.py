"""Independent integral oracles for the Lyapunov construction.

For a verified stable system the Lyapunov matrix has the integral form

    U(tau) = integral_0^inf (K(t) - K0)^T W K(t + tau) dt,

and the antisymmetric constant has

    P = integral_0^inf (K(t)^T W K0 - K0^T W K(t)) dt.

Both integrands are piecewise constant, so truncating at a horizon T gives
sums that are exact up to rounding, and a geometric tail controlled by
the fitted decay envelope of K.  The U integral is summed over K's jumps:
with Lambda(s) = integral_s^T (K(t) - K0)^T W dt, piecewise linear,

    U_T(tau) = Lambda(0) K0 + sum_k Lambda(max(0, b_k - tau)) dK(b_k)

over K's breakpoints b_k, so every shift reads one shift-independent
table of Lambda.  Nothing here touches the block solvers:
agreement between these sums and the algebraic construction is a genuine
two-route check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fundamental import StepMatrixFunction, finite_shifts, fundamental_matrix, row_chunks, sequential_sum
from .jump_analysis import TruncatedSeries
from .lyapunov_build import PiecewiseAffineMatrixFunction
from .stability import DecayEnvelope, StabilityReport, require_stable
from .system_model import ValidatedSystem, WeightMatrix, _require_weight, k0

STABLE_LABEL = "integral oracle needs"


def _u_tail_bound(env: DecayEnvelope, w2: float, tau: float, horizon: float) -> float:
    """Bound on integral_T^inf ||K(t) - K0|| ||W|| ||K(t + tau)|| dt, T = horizon >= |tau|."""
    return w2 * (env.integral(horizon, tau) + env.k0_norm * env.integral(horizon + tau))


def _u_sum_from_k(
    kfun: StepMatrixFunction, base: np.ndarray, w: np.ndarray, tau: float | Sequence[float], horizon: float
) -> np.ndarray:
    """The finite part of the U integral at each shift of tau, shaped
    tau's shape + (n, n), exact up to rounding.

    Let L(t) = (K(t) - K0)^T W and Lambda(s) = integral_s^T L dt with
    T = horizon: piecewise linear, from suffix sums over K's cells cut at
    T, and 0 from T on.  K(t + tau) is K's value before 0 plus its jumps
    dK_k at the breakpoints b_k with b_k <= t + tau, so

        I(tau) = Lambda(0) K(0-) + sum_k Lambda(max(0, b_k - tau)) dK_k.

    The first term is a jump at b = -inf.  Per chunk of shifts, one lookup
    and one gather give Lambda at every (shift, breakpoint), and one matmul
    against the stacked jumps sums them."""
    taus = np.asarray(tau, dtype=float)
    flat = taus.ravel()
    n = kfun.n
    if flat.size:
        # OutOfDomain when K stops short of T + tau
        kfun.value_many(horizon + np.max(flat))
    starts = kfun.breakpoints[kfun.breakpoints < horizon]
    cells = len(starts)
    bounds = np.append(starts, horizon)
    ends = np.append(bounds[1:], horizon)
    # per cell, and a zero row for s >= T: L, and Lambda at the cell's end
    slope = np.zeros((cells + 1, n, n))
    slope[:cells] = np.matmul(np.swapaxes(kfun.values[:cells] - base, 1, 2), w)
    at_end = np.zeros_like(slope)
    at_end[:cells - 1] = np.cumsum((np.diff(bounds)[:, None, None] * slope[:cells])[:0:-1], axis=0)[::-1]
    # both as rows (cell, i) of n entries
    slope, at_end = slope.reshape(-1, n), at_end.reshape(-1, n)
    points = np.append(-np.inf, kfun.breakpoints)
    jumps = np.concatenate([kfun.pre_value[None], kfun.jumps()]).reshape(-1, n)
    out = np.empty((flat.size, n, n))
    for rows in row_chunks(flat.size, len(points) * n * n):
        s = np.maximum(points - flat[rows, None], 0.0)
        cell = np.searchsorted(bounds, s, side="right") - 1
        # Lambda(s) as rows (shift, i) of (breakpoint, j) entries
        at = cell[:, None, :] * n + np.arange(n)[:, None]
        lam = np.take(slope, at, axis=0).reshape(len(s), n, -1) * np.repeat(ends[cell] - s, n, axis=1)[:, None]
        lam += np.take(at_end, at, axis=0).reshape(len(s), n, -1)
        out[rows] = np.matmul(lam, jumps)
    return out.reshape(taus.shape + (n, n))


def u_integral_oracle(
    vsys: ValidatedSystem,
    weight: WeightMatrix,
    tau: float,
    horizon: float | None = None,
    *,
    report: StabilityReport | None = None,
) -> TruncatedSeries:
    """Truncated integral for U(tau) with its geometric tail bound.

    The finite part is summed over the jumps of K, exact up to
    rounding.  Requires horizon >= |tau| for the tail bound to be valid.
    """
    _require_weight(weight, vsys.n)
    tau = float(finite_shifts(tau))
    env = require_stable(vsys, report, STABLE_LABEL)
    horizon = env.horizon if horizon is None else horizon
    if horizon < abs(tau):
        raise ValueError(f"horizon {horizon} must be at least |tau| = {abs(tau)}")
    kfun = fundamental_matrix(vsys, horizon + max(tau, 0.0) + vsys.h_min)
    w = weight.matrix
    value = _u_sum_from_k(kfun, k0(vsys), w, tau, horizon)
    tail = _u_tail_bound(env, float(np.linalg.norm(w, 2)), tau, horizon)
    return TruncatedSeries(value=value, tail_bound=tail, horizon=float(horizon))


def p_integral_oracle(
    vsys: ValidatedSystem,
    weight: WeightMatrix,
    horizon: float | None = None,
    *,
    report: StabilityReport | None = None,
) -> TruncatedSeries:
    """Truncated integral route to the antisymmetric constant P."""
    _require_weight(weight, vsys.n)
    env = require_stable(vsys, report, STABLE_LABEL)
    horizon = env.horizon if horizon is None else horizon
    kfun = fundamental_matrix(vsys, horizon + vsys.h_min)
    base = k0(vsys)
    w = weight.matrix
    pts = np.unique(np.concatenate([kfun.breakpoints[kfun.breakpoints <= horizon], [0.0, horizon]]))
    wk = w @ base
    kv = kfun.value_many(0.5 * (pts[:-1] + pts[1:]))
    acc = sequential_sum(np.diff(pts)[:, None, None] * (np.matmul(np.swapaxes(kv, 1, 2), wk) - np.matmul(wk.T, kv)))
    # ||K(t)^T W K0 - K0^T W K(t)|| <= 2 ||W|| ||K0|| bound(t)
    tail = 2.0 * float(np.linalg.norm(w, 2)) * env.k0_norm * env.integral(horizon)
    return TruncatedSeries(value=acc, tail_bound=tail, horizon=float(horizon))


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
    chunks of points; a point's value does not depend on its chunk."""
    hz = u.horizon
    if grid is None:
        grid = np.linspace(-hz, hz, 101)
    grid = np.asarray(grid, dtype=float)
    if not grid.size:
        raise ValueError("cross_check needs a nonempty grid, got an empty one")
    _require_weight(weight, vsys.n)
    env = require_stable(vsys, report, STABLE_LABEL)
    if horizon is None:
        horizon = max(env.horizon, 2.0 * hz)
    kfun = fundamental_matrix(vsys, horizon + hz + vsys.h_min)
    w = weight.matrix
    w2 = float(np.linalg.norm(w, 2))
    approx = _u_sum_from_k(kfun, k0(vsys), w, grid, horizon)
    errors = np.max(np.abs(u.evaluate_many(grid) - approx), axis=(1, 2))
    bounds = np.array([_u_tail_bound(env, w2, tau, horizon) + slack for tau in grid.tolist()])
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
