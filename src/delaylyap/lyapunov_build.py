"""Construction of the delay Lyapunov matrix U.

U(tau) integrates (K(t) - K0)^T W K(t + tau) over t >= 0 for a stable
system, but it is constructed here purely algebraically: on each interval
[k h, (k+1) h) of the basic delay h the function is affine in the local
coordinate, and the segment coefficients solve a block linear system built
from the dynamic property U(tau) = sum_j U(tau - h_j) A_j and the symmetry
property U(-tau) = U(tau)^T + P - tau K0^T W K0.  The construction is
formal: it needs no stability, only solvability of the block system.

There is one construction path.  A rational system goes through its
commensurate rewrite, and a single delay H (stored exact) is the rewrite
with h = H and m = 1; both are solved by the same block system with a
dense, band or sparse LU picked by problem size and bandwidth.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CriticalSystem, OutOfDomain, SizeExceeded
from .fundamental import _matrix_header, exact_multiples, write_csv
from .system_model import (
    CommensurateForm,
    ValidatedSystem,
    WeightMatrix,
    _require_weight,
    k0,
    to_commensurate,
)

# unknown counts above this use the sparse path
DENSE_CUTOFF = 2000
# a sparse system whose lower bandwidth on its reverse Cuthill-McKee order
# is at most this takes the LAPACK band LU (two delays with n <= 3), a
# wider one SuperLU
BAND_LIMIT = 64
# larger block systems raise SizeExceeded
MAX_UNKNOWNS = 500_000
# condition estimates above these warn, and raise CriticalSystem
COND_WARN = 1e10
COND_FAIL = 1e12


@dataclass(frozen=True)
class PiecewiseAffineMatrixFunction:
    """Matrix function on [-H, H], affine on each [k h, (k+1) h):
    value = C[k+m] + xi * D[k+m] with xi = tau - k h, k = -m..m-1.

    factor names the LU that solved the block system ("dense", "band" or
    "superlu") and factor_entries the floats it stores: N^2, N (2 kl + ku
    + 1) or nnz(L) + nnz(U).  bandwidth is (kl, ku) on the band path.
    h_exact is the exact basic delay; h is its float."""

    h_exact: Fraction
    m: int
    n: int
    coeffs: np.ndarray
    slopes: np.ndarray
    condition_estimate: float
    factor: str
    factor_entries: int
    bandwidth: tuple[int, int] | None = None

    def __post_init__(self):
        self.coeffs.setflags(write=False)
        self.slopes.setflags(write=False)

    @functools.cached_property
    def h(self) -> float:
        return float(self.h_exact)

    @property
    def solver(self) -> str:
        """The LU family: "dense" up to DENSE_CUTOFF unknowns, else "sparse"."""
        return "dense" if self.factor == "dense" else "sparse"

    @property
    def horizon(self) -> float:
        return float(self.m * self.h_exact)

    def knots(self) -> np.ndarray:
        return exact_multiples(np.arange(-self.m, self.m + 1), self.h_exact)

    def segment(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficient and slope of segment k (k = -m..m-1)."""
        if not -self.m <= k < self.m:
            raise OutOfDomain(f"segment index {k} outside [{-self.m}, {self.m - 1}]")
        return self.coeffs[k + self.m], self.slopes[k + self.m]

    def evaluate(self, tau: float) -> np.ndarray:
        return self.evaluate_many(float(tau))

    def evaluate_many(self, taus: Sequence[float]) -> np.ndarray:
        """Values at every tau, shaped taus.shape + (n, n).  Points within
        a relative 1e-9 of +-H are clipped onto the domain; any other point
        outside it raises OutOfDomain naming the first such tau."""
        return self._values(taus, None)

    def _values(self, taus, within) -> np.ndarray:
        """evaluate_many, each tau read on the segment holding its point of
        within (broadcast to taus): at a knot, a one-sided limit."""
        taus = np.asarray(taus, dtype=float)
        flat = taus.ravel()
        hz = self.horizon
        slack = 1e-9 * hz
        bad = np.flatnonzero(~((flat >= -hz - slack) & (flat <= hz + slack)))
        if bad.size:
            raise OutOfDomain(f"function defined on [{-hz}, {hz}], got {float(flat[bad[0]])}")
        flat = np.clip(flat, -hz, hz)
        side = flat if within is None else np.broadcast_to(within, taus.shape).ravel()
        k = np.clip(np.floor(side / self.h).astype(int), -self.m, self.m - 1)
        xi = flat - k * self.h
        p = k + self.m
        out = self.coeffs[p] + xi[:, None, None] * self.slopes[p]
        return out.reshape(taus.shape + (self.n, self.n))


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case defect of a built function against its defining
    identities: the exact sup over [-H, H], read at the breakpoints that
    grid_points counts, the knots k h in [0, H] and those shifted by each
    delay.  All values are max-abs entry norms.  scale is max(1, max |U|)
    at the breakpoints, so the gate tol * scale is relative for a large U."""

    symmetry: float
    dynamic: float
    continuity: float
    grid_points: int
    condition_estimate: float
    scale: float

    def max_residual(self) -> float:
        return max(self.symmetry, self.dynamic, self.continuity)

    def passed(self, tol: float) -> bool:
        return self.max_residual() <= tol * self.scale

    def to_dict(self) -> dict:
        return asdict(self) | {"max_residual": self.max_residual()}


def p_matrix(vsys: ValidatedSystem, weight: WeightMatrix, base: np.ndarray | None = None) -> np.ndarray:
    """The antisymmetric constant P = K0^T [sum_j h_j (W K0 A_j
    - A_j^T K0^T W)] K0 that closes the symmetry property of U; base is
    K0 when the caller has it."""
    _require_weight(weight, vsys.n)
    weight.require_positive_definite()
    w = weight.matrix
    base = k0(vsys) if base is None else base
    n = vsys.n
    inner = np.zeros((n, n))
    for d, a in vsys.entries:
        inner += float(d) * (w @ base @ a - a.T @ base.T @ w)
    return base.T @ inner @ base


def _condition(anorm: float, solve, solve_t, size: int) -> float:
    """Exact ||A||_1 times an estimate of ||A^-1||_1 from the factor's
    solves: Higham & Tisseur's estimator (SIAM J. Matrix Anal. Appl. 21,
    2000, alg. 2.4) with one column and at most six solves, step for step
    as scipy's onenormest(t=1) takes it, so with its bits on finite solves.
    It draws no random numbers, and unlike LAPACK gecon the estimate
    repeats bit for bit from process to process; inf when a solve raises."""
    x, est_old, sign = np.full((size, 1), 1.0 / size), 0.0, None
    try:
        for k in range(6):
            y = solve(x)
            est = np.abs(y).sum(axis=0)[0]
            if k and est <= est_old:
                break
            est_old, sign_old, sign = est, sign, np.where(y == 0.0, 1.0, y)
            sign /= np.abs(sign)
            if k == 5 or np.array_equal(sign, sign_old):
                break
            h = np.abs(solve_t(sign)[:, 0])
            if k and h.max() == h[j]:
                break
            # the last of argsort, as onenormest breaks ties
            j = np.argsort(h)[-1]
            x = np.zeros((size, 1))
            x[j] = 1.0
    except (RuntimeError, ValueError):
        return math.inf
    return anorm * float(est_old)


def _check_condition(cond: float) -> None:
    if not math.isfinite(cond) or cond > COND_FAIL:
        raise CriticalSystem(
            "commensurate block system is numerically singular "
            f"(condition estimate {cond:.3e}); the delay configuration sits "
            "at or near a critical pairing of coefficient eigenvalues"
        )
    if cond > COND_WARN:
        warnings.warn(
            "commensurate block system is poorly conditioned "
            f"(condition estimate {cond:.3e}); results may lose accuracy",
            RuntimeWarning,
            stacklevel=4,
        )


def _block_triplets(row_blocks: np.ndarray, blocks, n2: int):
    """COO triplets of the block rows row_blocks, each holding every
    (shift, block) of blocks at block column row + shift, in that order."""
    parts = []
    for shift, blk in blocks:
        rr, cc = np.nonzero(blk)
        parts.append((rr, cc, np.full(rr.size, shift), blk[rr, cc]))
    rr, cc, shift, vals = (np.concatenate(x) for x in zip(*parts))
    rows = row_blocks[:, None] * n2 + rr
    cols = (row_blocks[:, None] + shift) * n2 + cc
    return rows.ravel(), cols.ravel(), np.tile(vals, row_blocks.size)


def _commensurate_blocks(form: CommensurateForm, weight: WeightMatrix):
    """Block system of the commensurate construction.

    Unknown p = k + m holds the segment U(k h + xi).  Dynamic rows cover
    k = 0..m-1, symmetry rows cover k = 1..m and land at p = m - k.  Each
    row holds an identity block plus one block per step (j, C_j), so
    assembly costs O(m q) blocks for q delays.  The right side is affine
    in xi; only symmetry rows have nonzero data.  K0 and P are those of
    the rewrite's own system, whose delays j h are the ones residuals check.
    Returns the operator as a COO matrix plus the two right-hand sides.
    """
    import scipy.sparse as sp

    n = form.n
    m = form.m
    h = float(form.h)
    rsys = form.to_system()
    base = k0(rsys)
    p_mat = p_matrix(rsys, weight, base)
    q_mat = sum((j * h * c.T for j, c in form.steps), np.zeros((n, n))) @ base.T
    wk0 = weight.matrix @ base
    n2 = n * n
    unknowns = 2 * m * n2
    eye_n = np.eye(n)
    eye_block = (0, np.eye(n2))
    dyn = _block_triplets(
        np.arange(m, 2 * m), [eye_block] + [(-j, -np.kron(c.T, eye_n)) for j, c in form.steps], n2
    )
    sym = _block_triplets(
        np.arange(m - 1, -1, -1), [eye_block] + [(j, -np.kron(eye_n, c.T)) for j, c in form.steps], n2
    )
    rows, cols, data = (np.concatenate(x) for x in zip(dyn, sym))
    mat = sp.coo_matrix((data, (rows, cols)), shape=(unknowns, unknowns))
    b_const = np.zeros(unknowns)
    b_slope = np.zeros(unknowns)
    b_slope[: m * n2] = np.tile((-wk0).ravel(order="F"), m)
    kp = (rsys.coefficient_sum - np.eye(n)).T @ p_mat
    # symmetry row m - k for k = m..1, one batched product
    ks = np.arange(m, 0, -1)
    b_rows = -(kp + ((-ks * h)[:, None, None] * eye_n + q_mat) @ wk0)
    b_const[: m * n2] = b_rows.transpose(0, 2, 1).ravel()
    return mat, b_const, b_slope


def build_single_delay(vsys: ValidatedSystem, weight: WeightMatrix) -> PiecewiseAffineMatrixFunction:
    """U for a single delay system x(t) = A x(t - H): the commensurate
    construction with h = H, m = 1 and C_1 = A, the rewrite that
    to_commensurate gives a lone delay, which DelaySystem stores exact.
    Raises CriticalSystem when the operator is singular, which happens
    exactly when some product of two eigenvalues of A equals 1."""
    if len(vsys.entries) != 1:
        raise ValueError("single delay construction needs exactly one entry")
    return _solve_form(to_commensurate(vsys), weight)


def _band_order(mat, n2: int):
    """Reverse Cuthill-McKee order of the block graph of the COO operator
    mat (n2 x n2 blocks, ordered on the pattern of A + A^T), expanded to
    scalars.  Returns the order (the unknown at each new position), the
    new position of each unknown, and the scalar lower and upper
    bandwidths kl, ku of mat on that order."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    blocks = mat.shape[0] // n2
    graph = sp.csr_matrix((np.ones(mat.nnz), (mat.row // n2, mat.col // n2)), shape=(blocks, blocks))
    order = (reverse_cuthill_mckee(graph, symmetric_mode=False)[:, None] * n2 + np.arange(n2)).ravel()
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    off = pos[mat.row] - pos[mat.col]
    return order, pos, int(np.max(off)), int(-np.min(off))


def _band_lu(mat, order, pos, kl: int, ku: int):
    """LAPACK band LU (dgbtrf) of the COO operator mat on the scalar order
    of _band_order.  Returns a solve for trans 0 or 1 that takes and gives
    vectors, or one column per right side, in the unknowns' own order, and
    the band array's entry count N (2 kl + ku + 1)."""
    from scipy.linalg import lapack

    rows, cols = pos[mat.row], pos[mat.col]
    ab = np.zeros((2 * kl + ku + 1, mat.shape[0]), order="F")
    # the assembly places each (row, col) once, so assignment is the sum
    ab[kl + ku + rows - cols, cols] = mat.data
    lu, piv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info > 0:
        raise CriticalSystem(f"commensurate block system failed to factor: pivot {info} is exactly zero")

    def solve(b, trans=0):
        return lapack.dgbtrs(lu, kl, ku, b[order], piv, trans=trans)[0][pos]

    return solve, lu.size


def build_commensurate(form: CommensurateForm, weight: WeightMatrix) -> PiecewiseAffineMatrixFunction:
    """U for a commensurate form with basic delay h and m blocks.

    Solves for the 2m affine segments of U over [-m h, m h] in one linear
    system of 2 m n^2 unknowns, for the constant and slope parts of the
    affine right side.  Up to DENSE_CUTOFF unknowns the LU is dense.
    Beyond, the block unknowns are put in reverse Cuthill-McKee order:
    with a lower bandwidth up to BAND_LIMIT (two delays, n <= 3) the LU is
    LAPACK's band LU, wider systems take SuperLU.  Each condition estimate
    is the exact one-norm times a one-norm estimate of the inverse.
    Raises SizeExceeded past MAX_UNKNOWNS and CriticalSystem when the
    operator is singular (a condition estimate above COND_FAIL; above
    COND_WARN it warns)."""
    return _solve_form(form, weight)


def _solve_form(form: CommensurateForm, weight: WeightMatrix) -> PiecewiseAffineMatrixFunction:
    """The block system of form, factored by the LU that build_commensurate
    describes: the factor is "dense" up to DENSE_CUTOFF unknowns, past it
    "band" or "superlu" by the bandwidth."""
    # scipy loads at the first build, so commands that build no U never pay for it
    import scipy.linalg as sla
    import scipy.sparse.linalg as spla

    n = form.n
    _require_weight(weight, n)
    m = form.m
    n2 = n * n
    unknowns = 2 * m * n2
    if unknowns > MAX_UNKNOWNS:
        raise SizeExceeded(f"construction needs {unknowns} unknowns, cap is {MAX_UNKNOWNS}")
    mat, b_const, b_slope = _commensurate_blocks(form, weight)
    bandwidth = None
    if unknowns <= DENSE_CUTOFF:
        factor = "dense"
        mat = mat.toarray()
        try:
            lu_piv = sla.lu_factor(mat)
        except (sla.LinAlgError, ValueError) as exc:
            raise CriticalSystem(f"commensurate block system failed to factor: {exc}") from exc
        solve = functools.partial(sla.lu_solve, lu_piv)
        solve_t, anorm = functools.partial(solve, trans=1), np.linalg.norm(mat, 1)
        entries = unknowns * unknowns
    else:
        order, pos, kl, ku = _band_order(mat, n2)
        if kl <= BAND_LIMIT:
            factor, bandwidth = "band", (kl, ku)
            solve, entries = _band_lu(mat, order, pos, kl, ku)
            solve_t, anorm = functools.partial(solve, trans=1), np.max(np.bincount(mat.col, np.abs(mat.data)))
        else:
            factor = "superlu"
            mat = mat.tocsc()
            try:
                lu = spla.splu(mat)
            except RuntimeError as exc:
                raise CriticalSystem(f"commensurate block system failed to factor: {exc}") from exc
            solve, solve_t, anorm = lu.solve, functools.partial(lu.solve, trans="T"), spla.norm(mat, 1)
            entries = lu.L.nnz + lu.U.nnz
    cond = _condition(float(anorm), solve, solve_t, mat.shape[0])
    _check_condition(cond)
    if factor == "band":
        # dgbtrs takes both right sides in one call
        sol_c, sol_s = solve(np.column_stack([b_const, b_slope])).T
    else:
        sol_c, sol_s = solve(b_const), solve(b_slope)
    if not (np.all(np.isfinite(sol_c)) and np.all(np.isfinite(sol_s))):
        raise CriticalSystem("commensurate block system produced non-finite segments")
    # segment p is the column-stacked block p of the solution
    coeffs, slopes = (
        np.ascontiguousarray(v.reshape(2 * m, n, n).transpose(0, 2, 1)) for v in (sol_c, sol_s)
    )
    return PiecewiseAffineMatrixFunction(
        h_exact=form.h,
        m=m,
        n=n,
        coeffs=coeffs,
        slopes=slopes,
        condition_estimate=cond,
        factor=factor,
        factor_entries=int(entries),
        bandwidth=bandwidth,
    )


def residuals(u: PiecewiseAffineMatrixFunction, vsys: ValidatedSystem, weight: WeightMatrix) -> ResidualReport:
    """Defect of u against the identities that define the Lyapunov matrix
    of vsys: symmetry with the antisymmetric constant P, the delay
    difference dynamic property, and continuity across segment ends.  Each
    is affine between breakpoints (the knots, shifted too by each delay of
    vsys that is not a multiple of h), so its sup is read at both
    ends of each piece, on the segment of its midpoint: one-sided limits."""
    base = k0(vsys)
    p = p_matrix(vsys, weight, base)
    wk = base.T @ weight.matrix @ base
    knots = u.knots()
    shifted = np.concatenate([knots[:0]] + [knots + float(d) for d, _ in vsys.entries
                                            if (Fraction(d) / u.h_exact).denominator > 1])
    breaks = np.union1d(knots[u.m:], shifted[(shifted > 0.0) & (shifted < u.horizon)])
    ends = np.stack([breaks[:-1], breaks[1:]], axis=1)
    mids = 0.5 * (ends[:, :1] + ends[:, 1:])
    u_pos, u_neg = u._values(ends, mids), u._values(-ends, -mids)
    sym = float(np.max(np.abs(u_neg - np.swapaxes(u_pos, -1, -2) - p + ends[..., None, None] * wk)))
    dyn_vals = sum((u._values(ends - float(d), mids - float(d)) @ a for d, a in vsys.entries), -u_pos)
    return ResidualReport(
        symmetry=sym,
        dynamic=float(np.max(np.abs(dyn_vals))),
        continuity=float(np.max(np.abs(u.coeffs[:-1] + u.h * u.slopes[:-1] - u.coeffs[1:]), initial=0.0)),
        grid_points=len(breaks),
        condition_estimate=u.condition_estimate,
        scale=max(1.0, float(np.max(np.abs(u_pos))), float(np.max(np.abs(u_neg)))),
    )


def piecewise_to_csv(u: PiecewiseAffineMatrixFunction, taus: Sequence[float], fh) -> None:
    """One row per requested tau: tau, U11..Unn (row major)."""
    taus = np.asarray(taus, dtype=float)
    table = np.column_stack([taus, u.evaluate_many(taus).reshape(len(taus), u.n * u.n)])
    write_csv(fh, ["tau"] + _matrix_header("U", u.n), table)
