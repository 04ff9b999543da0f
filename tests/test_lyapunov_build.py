import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import delaylyap as dl
from delaylyap import lyapunov_build
from delaylyap.lyapunov_build import _band_order, _block_triplets, _commensurate_blocks
from delaylyap.cli import main

from conftest import commensurate_systems, gamma, random_stable_single, slots

EPS = np.finfo(float).eps


def reference_operator(form):
    """The block operator by the O(m^2) placement loop over every
    coefficient slot, the reference for the assembly."""
    n, m = form.n, form.m
    coeffs = slots(form)
    n2 = n * n
    mat = np.zeros((2 * m * n2, 2 * m * n2))

    def put(row, col, blk):
        mat[row * n2:(row + 1) * n2, col * n2:(col + 1) * n2] += blk

    for k in range(m):
        put(k + m, k + m, np.eye(n2))
        for j, c in enumerate(coeffs, start=1):
            if np.any(c):
                put(k + m, k - j + m, -np.kron(c.T, np.eye(n)))
    for k in range(1, m + 1):
        put(m - k, m - k, np.eye(n2))
        for j, c in enumerate(coeffs, start=1):
            if np.any(c):
                put(m - k, m - k + j, -np.kron(np.eye(n), c.T))
    return mat


def reference_single_delay(vsys, weight):
    """U of a single delay system by the two-block Kronecker derivation:
    the segments Y(xi) = U(xi) and Z(xi) = U(xi - H) solve Y - Z A = 0 and
    Z - A^T Y = -(A - I)^T P - (xi I + H K0^T) W K0, stacked columnwise.
    The reference for the m = 1 commensurate build."""
    ((delay, a),) = vsys.entries
    hz = float(delay)
    n = vsys.n
    w = weight.matrix
    base = dl.k0(vsys)
    p = dl.p_matrix(vsys, weight)
    eye2 = np.eye(n * n)
    mat = np.block([
        [eye2, -np.kron(a.T, np.eye(n))],
        [-np.kron(np.eye(n), a.T), eye2],
    ])
    rhs_const = -((a - np.eye(n)).T @ p + hz * (base.T @ w @ base))
    rhs_slope = -(w @ base)
    zeros = np.zeros(n * n)
    sol_c = np.linalg.solve(mat, np.concatenate([zeros, rhs_const.ravel(order="F")]))
    sol_s = np.linalg.solve(mat, np.concatenate([zeros, rhs_slope.ravel(order="F")]))

    def unvec(v):
        return v.reshape((n, n), order="F")

    return dl.PiecewiseAffineMatrixFunction(
        h_exact=Fraction(delay),
        m=1,
        n=n,
        coeffs=np.stack([unvec(sol_c[n * n:]), unvec(sol_c[: n * n])]),
        slopes=np.stack([unvec(sol_s[n * n:]), unvec(sol_s[: n * n])]),
        condition_estimate=float(np.linalg.cond(mat, 1)),
        factor="dense",
        factor_entries=mat.size,
    )


def reference_gap(u, ref, taus):
    """max|U - U_ref| on taus over the first-order forward-error bound of
    a backward-stable solve, condition estimate * eps * max|U|."""
    vals = u.evaluate_many(taus)
    gap = np.max(np.abs(vals - ref.evaluate_many(taus)))
    return gap / (u.condition_estimate * EPS * np.max(np.abs(vals)))


def reference_blocks(form, weight):
    """The block system as it was built from every coefficient slot: P of
    the rewrite with its zero blocks kept, and one product per symmetry
    row.  The bitwise reference for the nonzero-step assembly.  K0 and the
    coefficient sum are those of form.to_system(), as the oracles and
    residuals read them."""
    n = form.n
    m = form.m
    h = float(form.h)
    coeffs = slots(form)
    rsys = dl.validate(dl.DelaySystem(n, [(form.h * (j + 1), c) for j, c in enumerate(coeffs)]))
    total = form.to_system().coefficient_sum
    base = dl.k0(form.to_system())
    w = weight.matrix
    inner = np.zeros((n, n))
    for d, a in rsys.entries:
        inner += float(d) * (w @ base @ a - a.T @ base.T @ w)
    p_mat = base.T @ inner @ base
    nonzero = [(j, c) for j, c in enumerate(coeffs, start=1) if np.any(c)]
    q_mat = sum((j * h * c.T for j, c in nonzero), np.zeros((n, n))) @ base.T
    wk0 = weight.matrix @ base
    n2 = n * n
    unknowns = 2 * m * n2
    eye_n = np.eye(n)
    eye_block = (0, np.eye(n2))
    dyn = _block_triplets(
        np.arange(m, 2 * m), [eye_block] + [(-j, -np.kron(c.T, eye_n)) for j, c in nonzero], n2
    )
    sym = _block_triplets(
        np.arange(m - 1, -1, -1), [eye_block] + [(j, -np.kron(eye_n, c.T)) for j, c in nonzero], n2
    )
    rows, cols, data = (np.concatenate(x) for x in zip(dyn, sym))
    mat = sp.coo_matrix((data, (rows, cols)), shape=(unknowns, unknowns))
    b_const = np.zeros(unknowns)
    b_slope = np.zeros(unknowns)
    b_slope[: m * n2] = np.tile((-wk0).ravel(order="F"), m)
    kp = (total - np.eye(n)).T @ p_mat
    for k in range(1, m + 1):
        row = m - k
        b_const[row * n2:(row + 1) * n2] = (-(kp + (-k * h * eye_n + q_mat) @ wk0)).ravel(order="F")
    return mat, b_const, b_slope


def reference_residual_grid(u, per_segment):
    """The residual grid by one linspace shift per segment."""
    taus = [u.knots()]
    offs = np.linspace(0.0, u.h, per_segment, endpoint=False)[1:]
    for k in range(-u.m, u.m):
        taus.append(k * u.h + offs)
    return np.unique(np.concatenate(taus))


def reference_residuals(u, vsys, weight, per_segment=50):
    """The residuals sampled at per_segment points per segment and at every
    knot, as the library took them before it read the exact sup at the
    breakpoints: the reference for that sup."""
    w = weight.matrix
    base = dl.k0(vsys)
    p = dl.p_matrix(vsys, weight)
    wk = base.T @ w @ base
    taus = reference_residual_grid(u, per_segment)
    nonneg = taus[taus >= 0.0]
    u_pos = u.evaluate_many(nonneg)
    u_neg = u.evaluate_many(-nonneg)
    sym = float(np.max(np.abs(u_neg - np.transpose(u_pos, (0, 2, 1)) - p + nonneg[:, None, None] * wk)))
    dyn_vals = -u_pos
    for d, a in vsys.entries:
        dyn_vals = dyn_vals + u.evaluate_many(nonneg - float(d)) @ a
    left_ends = u.coeffs[:-1] + u.h * u.slopes[:-1]
    return lyapunov_build.ResidualReport(
        symmetry=sym,
        dynamic=float(np.max(np.abs(dyn_vals))),
        continuity=float(np.max(np.abs(left_ends - u.coeffs[1:]), initial=0.0)),
        grid_points=len(taus),
        condition_estimate=u.condition_estimate,
        scale=max(1.0, float(np.max(np.abs(u_pos))), float(np.max(np.abs(u_neg)))),
    )


def residual_rounding(u, vsys, weight):
    """(symmetry, dynamic, value, a): bounds on the rounding of one
    evaluated defect, and of one value of U, from the same stored segments.

    A value c + xi s of U reads xi = fl(t - fl(k h)) at an argument t that
    may itself be fl(tau - h_j): three roundings of quantities at most H,
    so xi is off by at most 1.5 eps H and the value by 1.5 eps H max|s|,
    and the product and sum add eps (|c| + h |s|).  value doubles that,
    also for a point a few ulps past its segment.  The dynamic defect
    -U(tau) + sum_j U(tau - h_j) A_j adds gamma_n per product and
    gamma_(q+1) for the sum, a = sum_j ||A_j||_1 weighing each row; the
    symmetry defect U(-tau) - U(tau)^T - P + tau K0^T W K0 adds three
    sums and a product."""
    slope = float(np.max(np.abs(u.slopes)))
    big = float(np.max(np.abs(u.coeffs))) + u.h * slope
    value = 2.0 * EPS * (big + 2.0 * u.horizon * slope)
    a = sum(float(np.linalg.norm(mat, 1)) for _, mat in vsys.entries)
    base = dl.k0(vsys)
    p = float(np.max(np.abs(dl.p_matrix(vsys, weight))))
    wk = float(np.max(np.abs(base.T @ weight.matrix @ base)))
    sym = 2.0 * value + 3.0 * EPS * (2.0 * big + p + u.horizon * wk)
    dyn = (1.0 + a) * (value + (u.n + len(vsys.entries) + 1) * EPS * big)
    return sym, dyn, value, a


def superlu_reference(form, weight):
    """The sparse build as SuperLU made it for every sparse system before
    the band LU: the CSC operator, its splu factor, and the two right
    sides (constant and slope) and their solutions as columns.  The
    reference for the band path."""
    import scipy.sparse.linalg as spla

    mat, b_const, b_slope = _commensurate_blocks(form, weight)
    mat = mat.tocsc()
    lu = spla.splu(mat)
    return mat, lu, np.column_stack([b_const, b_slope]), np.column_stack([lu.solve(b_const), lu.solve(b_slope)])


def exact_inverse_norm(mat, lu):
    """||A^-1||_1 as the largest column sum of A^-1: from a dense inverse
    up to DENSE_CUTOFF unknowns, beyond it from the columns of A^-1
    solved by lu in chunks of 512.  Either is A^-1 to within cond * eps
    relative, which the 1% slack of its callers covers."""
    size = mat.shape[0]
    if size <= lyapunov_build.DENSE_CUTOFF:
        return float(np.max(np.abs(np.linalg.inv(mat.toarray())).sum(axis=0)))
    best = 0.0
    for start in range(0, size, 512):
        cols = np.arange(start, min(start + 512, size))
        eye = np.zeros((size, cols.size))
        eye[cols, np.arange(cols.size)] = 1.0
        best = max(best, float(np.max(np.abs(lu.solve(eye)).sum(axis=0))))
    return best


def assert_band_matches_superlu(form, weight):
    """The band build's segments against the SuperLU reference, column by
    column in the one-norm: x_band - x_ref = A^-1 (r_band - r_ref) for the
    exact residuals r = A x - b, so the gap is at most ||A^-1||_1 times
    both residual norms.  Each computed residual is within gamma_(k+1)
    (|A| |x| + |b|) of the exact one, k the most nonzeros in a row."""
    u = dl.build_commensurate(form, weight)
    assert (u.solver, u.factor) == ("sparse", "band")
    mat, lu, rhs, ref = superlu_reference(form, weight)
    got = np.column_stack([v.transpose(0, 2, 1).ravel() for v in (u.coeffs, u.slopes)])
    slack = gamma(int(np.max(np.diff(mat.tocsr().indptr))) + 1)

    def residual_norms(x):
        exact_gap = slack * (abs(mat) @ np.abs(x) + np.abs(rhs))
        return np.abs(mat @ x - rhs).sum(axis=0) + exact_gap.sum(axis=0)

    bound = 1.01 * exact_inverse_norm(mat, lu) * (residual_norms(got) + residual_norms(ref))
    gap = np.abs(got - ref).sum(axis=0)
    assert np.all(gap <= bound), (gap, bound)


def three_delay_system():
    """Delays 1, sqrt(2) and sqrt(3) with 2 x 2 coefficients whose 2-norms
    sum to 0.6: every rung's block system is regular, and its bandwidth
    on the Cuthill-McKee order is past BAND_LIMIT from order 4 on."""
    rng = np.random.default_rng(11)
    mats = [rng.uniform(-1.0, 1.0, size=(2, 2)) for _ in range(3)]
    scale = 0.6 / sum(np.linalg.norm(a, 2) for a in mats)
    delays = [Fraction(1), math.sqrt(2.0), math.sqrt(3.0)]
    return dl.validate(dl.DelaySystem(2, [(d, scale * a) for d, a in zip(delays, mats)]))


def reference_condition(anorm, solve, solve_t, shape):
    """The condition estimate through scipy's onenormest(t=1) on a
    LinearOperator, as it was built before the operator had a dtype: scipy
    then probes the dtype with one solve of a zero vector."""
    import scipy.sparse.linalg as spla

    inv_op = spla.LinearOperator(shape, matvec=solve, rmatvec=solve_t)
    return anorm * float(spla.onenormest(inv_op, t=1))


def build_u(vsys, weight):
    if len(vsys.entries) == 1:
        return dl.build_single_delay(vsys, weight)
    return dl.build_commensurate(dl.to_commensurate(vsys), weight)


def assert_same_bytes(got, want):
    """Same dtype, shape and bytes: -0.0 differs from 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def assert_blocks_match_reference(form, weight):
    got = _commensurate_blocks(form, weight)
    want = reference_blocks(form, weight)
    for attr in ("row", "col", "data"):
        assert_same_bytes(getattr(got[0], attr), getattr(want[0], attr))
    for g, w in zip(got[1:], want[1:]):
        assert_same_bytes(g, w)


def random_weight(rng, n):
    half = rng.uniform(-1.0, 1.0, size=(n, n))
    return dl.WeightMatrix(half @ half.T + n * np.eye(n))


@st.composite
def commensurate_forms(draw):
    """(form, weight) with n = 1..3 and m <= 60.  Either q = 1..3 exact
    delays k/den, each coefficient an explicit zero matrix or not (so the
    last block or every block may be zero), or the order-1 rewrite of a
    float system whose delays sqrt(2) and sqrt(2) + 1e-3 share the
    convergent 3/2 with cancelling coefficients, so that collision sums to
    zero, beside an optional exact delay k/4."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = random_weight(rng, n)
    if draw(st.integers(0, 3)) == 0:
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        entries = [(math.sqrt(2.0), a), (math.sqrt(2.0) + 1e-3, -a)]
        if draw(st.booleans()):
            entries.append((Fraction(draw(st.integers(7, 60)), 4), rng.uniform(-0.6, 0.6, size=(n, n)) / n))
        vsys = dl.validate(dl.DelaySystem(n, entries))
        return dl.approximate_system(vsys, 1), weight
    q = draw(st.integers(1, 3))
    den = draw(st.integers(1, 4))
    steps = sorted(draw(st.sets(st.integers(1, 60), min_size=q, max_size=q)))
    mats = [
        np.zeros((n, n)) if draw(st.booleans()) else rng.uniform(-1.0, 1.0, size=(n, n))
        for _ in steps
    ]
    scale = 0.6 / max(sum(np.linalg.norm(a, 2) for a in mats), 0.6)
    vsys = dl.validate(dl.DelaySystem(n, [(Fraction(k, den), scale * a) for k, a in zip(steps, mats)]))
    return dl.to_commensurate(vsys), weight


class TestNonzeroStepAssembly:
    """The block system read from the nonzero steps against the one read
    from every coefficient slot, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=commensurate_forms())
    def test_matches_every_slot_reference(self, case):
        form, weight = case
        assert len(form.steps) <= 3
        assert form.m <= 60
        assert_blocks_match_reference(form, weight)

    def test_collision_and_all_zero_forms(self, w2):
        a = np.array([[0.3, -0.2], [0.1, 0.4]])
        colliding = dl.validate(dl.DelaySystem(2, [(math.sqrt(2.0), a), (math.sqrt(2.0) + 1e-3, -a)]))
        form = dl.approximate_system(colliding, 1)
        assert (form.h, form.m, form.steps) == (Fraction(3, 2), 1, ())
        assert_blocks_match_reference(form, w2)
        zero = dl.validate(dl.DelaySystem(2, [(Fraction(1), np.zeros((2, 2))), (Fraction(3, 2), np.zeros((2, 2)))]))
        form = dl.to_commensurate(zero)
        assert form.steps == ()
        assert form.to_system().delays == (Fraction(3, 2),)
        assert_blocks_match_reference(form, w2)

    def test_scalar_sum_over_many_slots(self, w1):
        # numpy sums the 8 slots of 1 x 1 blocks pairwise, 0.1 + (0.2 + 0.3)
        # = 0.6; the 3 steps it adds left to right, 0.6000000000000001.
        # K0 of the assembly is that of the steps, the K0 of the oracles.
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(1), [[0.1]]), (Fraction(7), [[0.2]]), (Fraction(8), [[0.3]])]))
        form = dl.to_commensurate(vsys)
        assert np.sum(slots(form), axis=0)[0, 0] == 0.6
        assert vsys.coefficient_sum[0, 0] == form.to_system().coefficient_sum[0, 0] == 0.6000000000000001
        base = dl.k0(form.to_system())
        assert base[0, 0] == 1.0 / (0.6000000000000001 - 1.0) == dl.k0(vsys)[0, 0]
        _, b_const, b_slope = _commensurate_blocks(form, w1)
        assert_same_bytes(b_slope[:8], np.full(8, -base[0, 0]))
        assert_blocks_match_reference(form, w1)

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("last_zero", [False, True])
    def test_wide_matrices(self, n, last_zero):
        rng = np.random.default_rng(n)
        mats = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in range(3)]
        scale = 0.6 / sum(np.linalg.norm(a, 2) for a in mats)
        mats = [scale * a for a in mats]
        if last_zero:
            mats[-1] = np.zeros((n, n))
        delays = (Fraction(1), Fraction(13, 10), Fraction(17, 10))
        form = dl.to_commensurate(dl.validate(dl.DelaySystem(n, list(zip(delays, mats)))))
        assert form.m == 17
        assert [j for j, _ in form.steps] == ([10, 13] if last_zero else [10, 13, 17])
        assert_blocks_match_reference(form, random_weight(rng, n))

    def test_order7_ladder_rung_bitwise(self, ex3, w2, monkeypatch):
        form = dl.approximate_system(ex3, 7)
        assert [j for j, _ in form.steps] == [408, 577]
        assert_blocks_match_reference(form, w2)
        u = dl.build_commensurate(form, w2)
        monkeypatch.setattr(lyapunov_build, "_commensurate_blocks", reference_blocks)
        ref = dl.build_commensurate(form, w2)
        assert_same_bytes(u.coeffs, ref.coeffs)
        assert_same_bytes(u.slopes, ref.slopes)
        assert_same_bytes(u.condition_estimate, ref.condition_estimate)


class TestScalarClosedForm:
    """x(t) = 0.5 x(t-1) with unit weight has a geometric-series solution
    that can be summed by hand; these are the frozen values."""

    def test_values(self, u_scalar):
        assert u_scalar.evaluate(0.0)[0, 0] == pytest.approx(-8 / 3, abs=1e-10)
        assert u_scalar.evaluate(0.5)[0, 0] == pytest.approx(-2.0, abs=1e-10)
        assert u_scalar.evaluate(1.0)[0, 0] == pytest.approx(-4 / 3, abs=1e-10)
        assert u_scalar.evaluate(-1.0)[0, 0] == pytest.approx(-16 / 3, abs=1e-10)

    def test_slopes(self, u_scalar):
        lo, hi = u_scalar.segment(-1)[1], u_scalar.segment(0)[1]
        assert lo[0, 0] == pytest.approx(8 / 3, abs=1e-10)
        assert hi[0, 0] == pytest.approx(4 / 3, abs=1e-10)

    def test_knots(self, u_scalar):
        np.testing.assert_allclose(u_scalar.knots(), [-1.0, 0.0, 1.0])


class TestPiecewiseAffine:
    def test_evaluate_many_matches_scalar_calls(self, u_ex2a):
        taus = np.concatenate([np.linspace(-1.5, 1.5, 41), u_ex2a.knots()])
        stacked = u_ex2a.evaluate_many(taus)
        for i, tau in enumerate(taus):
            np.testing.assert_array_equal(stacked[i], u_ex2a.evaluate(float(tau)))

    def test_out_of_domain(self, u_ex2a):
        for tau in (1.6, -1.7, 50.0, float("nan")):
            with pytest.raises(dl.OutOfDomain):
                u_ex2a.evaluate(tau)

    def test_evaluate_many_one_point_out_of_domain(self, u_ex2a):
        taus = np.linspace(-1.5, 1.5, 31)
        taus[17] = 1.6
        with pytest.raises(dl.OutOfDomain, match="got 1.6$"):
            u_ex2a.evaluate_many(taus)
        taus[5] = -1.7
        with pytest.raises(dl.OutOfDomain, match="got -1.7$"):
            u_ex2a.evaluate_many(taus)

    def test_endpoints_with_roundoff_ok(self, u_ex2a):
        u_ex2a.evaluate(1.5 + 1e-12)
        u_ex2a.evaluate(-1.5 - 1e-12)
        vals = u_ex2a.evaluate_many([1.5 + 1e-12, 1.5 - 1e-12, -1.5 + 1e-12, -1.5 - 1e-12])
        np.testing.assert_array_equal(vals[0], u_ex2a.evaluate(1.5))
        np.testing.assert_array_equal(vals[3], u_ex2a.evaluate(-1.5))

    def test_endpoint_slack_is_relative(self, w1):
        # delays 1e-12 and 1.5e-12 (H = 1.5e-12): the slack is 1e-9 H with
        # no absolute floor, so H (1 + 1e-10) reads U(H) and 1.5 H raises
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(1, 10**12), [[0.3]]), (Fraction(3, 2 * 10**12), [[0.2]])]))
        u = dl.build_commensurate(dl.to_commensurate(vsys), w1)
        hz = u.horizon
        assert hz == 1.5e-12
        np.testing.assert_array_equal(u.evaluate(hz * (1 + 1e-10)), u.evaluate(hz))
        np.testing.assert_array_equal(u.evaluate(-hz * (1 + 1e-10)), u.evaluate(-hz))
        for tau in (1.5 * hz, -1.5 * hz, 100 * hz):
            with pytest.raises(dl.OutOfDomain):
                u.evaluate(tau)

    def test_evaluate_many_keeps_shape(self, u_ex2a):
        assert u_ex2a.evaluate_many(0.25).shape == (2, 2)
        grid = np.linspace(-1.5, 1.5, 12).reshape(3, 4)
        vals = u_ex2a.evaluate_many(grid)
        assert vals.shape == (3, 4, 2, 2)
        np.testing.assert_array_equal(vals[1, 2], u_ex2a.evaluate(grid[1, 2]))

    def test_segment_reconstructs_evaluate(self, u_ex2a):
        # segment k covers [k h, (k+1) h] with the intercept at the left knot
        for k in range(-u_ex2a.m, u_ex2a.m):
            const, slope = u_ex2a.segment(k)
            tau0 = k * float(u_ex2a.h)
            mid = tau0 + 0.5 * float(u_ex2a.h)
            want = const + (mid - tau0) * slope
            np.testing.assert_allclose(u_ex2a.evaluate(mid), want, atol=1e-13)

    def test_segment_index_bounds(self, u_ex2a):
        with pytest.raises(dl.OutOfDomain):
            u_ex2a.segment(u_ex2a.m)
        with pytest.raises(dl.OutOfDomain):
            u_ex2a.segment(-u_ex2a.m - 1)

    def test_exact_step_bookkeeping(self, u_ex2a):
        assert u_ex2a.h_exact == Fraction(1, 2)
        assert u_ex2a.m == 3
        assert u_ex2a.horizon == pytest.approx(1.5)

    def test_continuity_across_knots(self, u_ex2a):
        eps = 1e-10
        for t in u_ex2a.knots()[1:-1]:
            gap = u_ex2a.evaluate(float(t) + eps) - u_ex2a.evaluate(float(t) - eps)
            assert np.max(np.abs(gap)) <= 1e-8


class TestResiduals:
    def test_example_systems_pass(self, u_ex1, ex1, u_ex2a, ex2a, u_ex2b, ex2b, w2):
        for u, s in ((u_ex1, ex1), (u_ex2a, ex2a), (u_ex2b, ex2b)):
            rep = dl.residuals(u, s, w2)
            assert rep.passed(1e-8)
            assert rep.max_residual() <= 1e-10

    def test_report_shape(self, u_ex2a, ex2a, w2):
        rep = dl.residuals(u_ex2a, ex2a, w2)
        d = rep.to_dict()
        for key in ("symmetry", "dynamic", "continuity", "grid_points", "condition_estimate"):
            assert key in d
        # the breakpoints: the knots in [0, H], which the delays 1 and 3/2 shift onto knots
        assert d["grid_points"] == u_ex2a.m + 1 == 4

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_singles_pass(self, seed, w2):
        vsys = random_stable_single(seed)
        u = dl.build_single_delay(vsys, dl.WeightMatrix.identity(vsys.n))
        rep = dl.residuals(u, vsys, dl.WeightMatrix.identity(vsys.n))
        assert rep.passed(1e-8)

    def test_gate_is_relative_to_u(self):
        # U of x(t) = 10 J x(t - 1), J the 5 x 5 shift, reaches about 1e8
        vsys = dl.validate(dl.DelaySystem.single(10.0 * np.eye(5, k=1), Fraction(1)))
        w = dl.WeightMatrix.identity(5)
        u = dl.build_single_delay(vsys, w)
        rep = dl.residuals(u, vsys, w)
        assert rep.scale == pytest.approx(np.max(np.abs(u.evaluate_many(u.knots()))), rel=1e-12)
        assert rep.scale > 1e7 and rep.to_dict()["scale"] == rep.scale
        assert rep.max_residual() > 1e-8 and rep.passed(1e-8)
        coeffs = u.coeffs.copy()
        coeffs[0, 0, 0] += 1e-6 * rep.scale
        bad = dl.residuals(dataclasses.replace(u, coeffs=coeffs), vsys, w)
        assert not bad.passed(1e-8)

    def test_gate_scale_floored_at_one(self, scalar_half):
        # the weight 0.01 scales U down to about 0.05; the gate stays absolute
        w = dl.WeightMatrix([[0.01]])
        u = dl.build_single_delay(scalar_half, w)
        assert np.max(np.abs(u.coeffs)) < 0.1
        assert dl.residuals(u, scalar_half, w).scale == 1.0

    @settings(max_examples=15, deadline=None)
    @given(
        vsys=st.one_of(commensurate_systems(), st.integers(0, 10_000).map(random_stable_single)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_sup_against_sampled_reference(self, vsys, seed):
        # every breakpoint is a knot here, which the reference samples from
        # one side: the sup reads both one-sided limits, so it may exceed a
        # knot's value by the jump of U there times the weight of the terms
        # read, and the reference's interior samples add their own rounding
        w = random_weight(np.random.default_rng(seed), vsys.n)
        u = build_u(vsys, w)
        got, ref = dl.residuals(u, vsys, w), reference_residuals(u, vsys, w)
        sym, dyn, value, a = residual_rounding(u, vsys, w)
        jump = got.continuity + value
        assert got.grid_points == u.m + 1
        assert got.continuity == ref.continuity
        assert ref.symmetry - 2.0 * sym <= got.symmetry <= ref.symmetry + 2.0 * sym + 2.0 * jump
        assert ref.dynamic - 2.0 * dyn <= got.dynamic <= ref.dynamic + 2.0 * dyn + (1.0 + a) * jump
        assert abs(got.scale - ref.scale) <= jump + 2.0 * value

    def test_delays_off_the_knots(self, ex3, w2):
        # U of the order-4 rung (delays 1 and 41/29, h = 1/29) checked
        # against delays 1 and 1.41: the knots shifted by 1.41 fall between
        # knots, 41 of them inside [0, H]
        u = dl.build_commensurate(dl.approximate_system(ex3, 4), w2)
        vsys = dl.validate(dl.DelaySystem(2, [(Fraction(1), ex3.matrices[0]), (1.41, ex3.matrices[1])]))
        got, ref = dl.residuals(u, vsys, w2), reference_residuals(u, vsys, w2, 2000)
        sym, dyn, value, a = residual_rounding(u, vsys, w2)
        assert got.grid_points == u.m + 1 + 41
        assert ref.dynamic > 1e-3
        assert got.symmetry >= ref.symmetry - 2.0 * sym
        assert got.dynamic >= ref.dynamic - 2.0 * dyn
        # and the samples come within a half step of the defect's slope,
        # at most (1 + a) max|s|, of the sup
        step = (1.0 + a) * float(np.max(np.abs(u.slopes))) * u.h / 2000
        assert got.dynamic <= ref.dynamic + step + 2.0 * dyn + (1.0 + a) * (got.continuity + value)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_slope_offset_reads_delta_h(self, k):
        # x(t) = 0.2 x(t - 1) + 0.1 x(t - 3/2): h = 1/2, m = 3.  A slope
        # offset delta on segment k (tau in [k h, (k + 1) h)) adds
        # -delta (tau - k h) to -U(tau), delta h at the segment's right end,
        # and at most 0.2 delta h through U(tau - 1) elsewhere; for k < 2
        # that end is a left limit at a knot, which no sample reads
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(1), [[0.2]]), (Fraction(3, 2), [[0.1]])]))
        w = dl.WeightMatrix.identity(1)
        u = build_u(vsys, w)
        assert (u.h, u.m) == (0.5, 3)
        delta = 2.0**-20
        slopes = u.slopes.copy()
        slopes[k + u.m] += delta
        bad = dataclasses.replace(u, slopes=slopes)
        base = dl.residuals(u, vsys, w)
        got = dl.residuals(bad, vsys, w)
        _, dyn, _, _ = residual_rounding(bad, vsys, w)
        assert abs(got.dynamic - delta * u.h) <= base.dynamic + 2.0 * dyn
        if k < 2:
            assert reference_residuals(bad, vsys, w).dynamic < got.dynamic - 0.01 * delta * u.h


class TestSingleVsCommensurate:
    def test_single_delay_reduction(self, ex1, w2):
        u = dl.build_single_delay(ex1, w2)
        ref = reference_single_delay(ex1, w2)
        taus = np.linspace(-1.0, 1.0, 201)
        gap = np.max(np.abs(u.evaluate_many(taus) - ref.evaluate_many(taus)))
        assert gap <= 1e-12

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reduction_random(self, seed):
        # one construction path: the wrapper and the m = 1 rewrite agree bit for bit
        vsys = random_stable_single(seed)
        w = dl.WeightMatrix.identity(vsys.n)
        u_direct = dl.build_single_delay(vsys, w)
        u_block = dl.build_commensurate(dl.to_commensurate(vsys), w)
        taus = np.linspace(-1.0, 1.0, 101)
        np.testing.assert_array_equal(u_direct.evaluate_many(taus), u_block.evaluate_many(taus))
        np.testing.assert_array_equal(u_direct.coeffs, u_block.coeffs)
        np.testing.assert_array_equal(u_direct.slopes, u_block.slopes)
        assert u_direct.condition_estimate == u_block.condition_estimate

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_two_block_reference(self, seed):
        vsys = random_stable_single(seed)
        w = dl.WeightMatrix.identity(vsys.n)
        u = dl.build_single_delay(vsys, w)
        taus = np.linspace(-1.0, 1.0, 101)
        assert reference_gap(u, reference_single_delay(vsys, w), taus) <= 1.0

    @pytest.mark.parametrize("delays", [(Fraction(1),), (Fraction(1), Fraction(3, 2))])
    def test_zero_coefficients(self, delays, w1):
        # x(t) = 0: K = 0 after the origin and K0 = -1 before, so U(tau) = min(tau, 0)
        vsys = dl.validate(dl.DelaySystem(1, [(d, np.zeros((1, 1))) for d in delays]))
        u = dl.build_commensurate(dl.to_commensurate(vsys), w1)
        if len(delays) == 1:
            np.testing.assert_array_equal(dl.build_single_delay(vsys, w1).coeffs, u.coeffs)
        taus = np.linspace(-u.horizon, u.horizon, 13)
        np.testing.assert_allclose(u.evaluate_many(taus)[:, 0, 0], np.minimum(taus, 0.0), atol=1e-15)

    def test_zero_coefficients_float_delays(self, tmp_path, capsys):
        # an all-zero rewrite takes a zero block at m h, so the system U
        # answers to reaches the form's horizon
        zero = np.zeros((2, 2))
        vsys = dl.validate(dl.DelaySystem(2, [(1.0, zero), (math.sqrt(2.0), zero)]))
        form = dl.approximate_system(vsys, 4)
        u = dl.build_commensurate(form, dl.WeightMatrix.identity(2))
        assert form.to_system().h_max == u.horizon
        path = tmp_path / "zero.json"
        path.write_text(dl.system_to_json(vsys.system))
        assert main(["lyap", "--config", str(path), "--order", "4"]) == 0
        table = np.array([[float(x) for x in line.split(",")] for line in capsys.readouterr().out.splitlines()[1:]])
        taus = table[:, 0]
        want = np.minimum(taus, 0.0)[:, None, None] * np.eye(2)
        np.testing.assert_allclose(table[:, 1:].reshape(-1, 2, 2), want, rtol=0.0, atol=1e-15)
        assert main(["approx", "--config", str(path), "--orders", "1,2"]) == 0
        assert main(["jumps", "--config", str(path), "--order", "2"]) == 0


class TestFloatSingleDelay:
    H = math.sqrt(2.0)
    A = np.array([[0.3, -0.4], [0.2, 0.5]])

    def test_build(self, w2):
        vsys = dl.validate(dl.DelaySystem.single(self.A, self.H))
        u = dl.build_single_delay(vsys, w2)
        # H is taken as the exact binary rational it is; h is its float
        assert u.h_exact == Fraction(self.H)
        assert u.h == float(u.h_exact)
        assert (u.h, u.horizon, u.m, u.solver) == (self.H, self.H, 1, "dense")
        np.testing.assert_array_equal(u.knots(), [-self.H, 0.0, self.H])
        assert dl.residuals(u, vsys, w2).max_residual() <= 1e-10
        taus = np.linspace(-self.H, self.H, 101)
        assert reference_gap(u, reference_single_delay(vsys, w2), taus) <= 1.0

    def test_cli_lyap(self, tmp_path, capsys):
        path = tmp_path / "sqrt2.json"
        path.write_text(dl.system_to_json(dl.DelaySystem.single(self.A, self.H)))
        assert main(["lyap", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith(f"{-self.H!r},")
        assert json.loads(captured.err.splitlines()[-1])["max_residual"] <= 1e-10


class TestSolverRoutes:
    def test_sparse_agrees_with_dense(self, ex2a, w2, monkeypatch):
        form = dl.to_commensurate(ex2a)
        dense = dl.build_commensurate(form, w2)
        monkeypatch.setattr(lyapunov_build, "DENSE_CUTOFF", 0)
        sparse = dl.build_commensurate(form, w2)
        assert (dense.solver, dense.factor, dense.factor_entries) == ("dense", "dense", 24**2)
        assert (sparse.solver, sparse.factor) == ("sparse", "band")
        taus = np.linspace(-1.5, 1.5, 301)
        gap = np.max(np.abs(dense.evaluate_many(taus) - sparse.evaluate_many(taus)))
        assert gap <= 1e-10

    @pytest.mark.parametrize("den, factor", [(250, "dense"), (251, "band")])
    def test_shipped_dense_cutoff(self, den, factor):
        # delays 1/den and 1 at n = 2 take 2 m n^2 = 8 den unknowns:
        # DENSE_CUTOFF = 2000 is the largest the dense LU solves
        vsys = dl.validate(dl.DelaySystem(2, [
            (Fraction(1, den), [[0.2, 0.1], [0.0, 0.1]]),
            (Fraction(1), [[0.1, 0.0], [0.05, 0.2]]),
        ]))
        u = dl.build_commensurate(dl.to_commensurate(vsys), dl.WeightMatrix.identity(2))
        assert (2 * u.m * u.n**2, u.factor) == (8 * den, factor)

    @settings(max_examples=25, deadline=None)
    @given(vsys=commensurate_systems())
    def test_sparse_agrees_with_dense_random(self, vsys):
        form = dl.to_commensurate(vsys)
        w = dl.WeightMatrix.identity(vsys.n)
        mat, _, _ = _commensurate_blocks(form, w)
        np.testing.assert_array_equal(mat.toarray(), reference_operator(form))
        dense = dl.build_commensurate(form, w)
        assert (dense.solver, dense.factor) == ("dense", "dense")
        taus = np.linspace(-dense.horizon, dense.horizon, 201)
        # the band limit as shipped, and patched below every bandwidth so
        # that SuperLU factors each system
        for band_limit in (lyapunov_build.BAND_LIMIT, -1):
            with patch.object(lyapunov_build, "DENSE_CUTOFF", 0), patch.object(lyapunov_build, "BAND_LIMIT", band_limit):
                sparse = dl.build_commensurate(form, w)
            assert sparse.solver == "sparse"
            if band_limit < 0:
                assert (sparse.factor, sparse.bandwidth) == ("superlu", None)
            assert np.max(np.abs(dense.evaluate_many(taus) - sparse.evaluate_many(taus))) <= 1e-10
            assert dl.residuals(sparse, vsys, w).max_residual() <= 1e-8
        assert dl.residuals(dense, vsys, w).max_residual() <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(vsys=commensurate_systems(delays=st.just(2)))
    def test_band_matches_superlu_random(self, vsys):
        with patch.object(lyapunov_build, "DENSE_CUTOFF", 0):
            assert_band_matches_superlu(dl.to_commensurate(vsys), dl.WeightMatrix.identity(vsys.n))

    @pytest.mark.parametrize("order", [7, 8])
    def test_band_matches_superlu_on_ladder(self, ex3, w2, order):
        assert_band_matches_superlu(dl.approximate_system(ex3, order), w2)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(2, 5000), data=st.data())
    def test_cuthill_mckee_block_bandwidth(self, m, data):
        # two coprime steps a < m: the block graph is the scalar graph of
        # the n = 1 operator, and it stays within bandwidth 5 on its order
        a = data.draw(st.integers(1, m - 1).filter(lambda a: math.gcd(a, m) == 1))
        vsys = dl.validate(dl.DelaySystem(1, [(Fraction(a), np.array([[0.3]])), (Fraction(m), np.array([[0.2]]))]))
        form = dl.to_commensurate(vsys)
        assert (form.h, form.m) == (1, m)
        _, _, kl, ku = _band_order(_commensurate_blocks(form, dl.WeightMatrix.identity(1))[0], 1)
        assert max(kl, ku) <= 5

    def test_ladder_rungs_take_band(self, ex3, w2):
        # example 3's rungs 7-10 (4616 to 64952 unknowns)
        for order in (7, 8, 9, 10):
            u = dl.build_commensurate(dl.approximate_system(ex3, order), w2)
            kl, ku = u.bandwidth
            assert (u.solver, u.factor) == ("sparse", "band")
            assert kl <= 20 and u.factor_entries == 2 * u.m * 4 * (2 * kl + ku + 1)

    def test_order7_ladder_rung(self, ex3, w2):
        # the sqrt(2) convergent 577/408: m = 577, 4616 unknowns, sparse
        form = dl.approximate_system(ex3, 7)
        before = np.random.get_state()
        u = dl.build_commensurate(form, w2)
        again = dl.build_commensurate(form, w2)
        after = np.random.get_state()
        assert (u.solver, u.factor, 2 * u.m * u.n * u.n) == ("sparse", "band", 4616)
        assert u.condition_estimate == again.condition_estimate
        assert before[0] == after[0] and before[2:] == after[2:]
        np.testing.assert_array_equal(before[1], after[1])
        assert dl.residuals(u, form.to_system(), w2).max_residual() <= 1e-8

    def test_size_cap(self, w2):
        big = dl.validate(dl.DelaySystem(1, [
            (Fraction(1), np.array([[0.3]])),
            (Fraction(300001, 300000), np.array([[0.2]])),
        ]))
        with pytest.raises(dl.SizeExceeded):
            dl.build_commensurate(dl.to_commensurate(big), dl.WeightMatrix.identity(1))

    def test_dense_condition_repeats_across_processes(self):
        # LAPACK gecon gave this 522-unknown dense build two different
        # last bits in different interpreters; the estimate must not
        script = (
            "from fractions import Fraction\n"
            "import numpy as np\n"
            "import delaylyap as dl\n"
            "rng = np.random.default_rng(3)\n"
            "delays = [Fraction(10, 10), Fraction(23, 10), Fraction(29, 10)]\n"
            "mats = [rng.uniform(-1.0, 1.0, size=(3, 3)) for _ in delays]\n"
            "scale = 0.9 / sum(np.linalg.norm(a, 2) for a in mats)\n"
            "vsys = dl.validate(dl.DelaySystem(3, [(d, scale * a) for d, a in zip(delays, mats)]))\n"
            "u = dl.build_commensurate(dl.to_commensurate(vsys), dl.WeightMatrix.identity(3))\n"
            "print(u.solver, 2 * u.m * 9, u.condition_estimate.hex())\n"
            "ex3 = dl.validate(dl.DelaySystem(2, [(Fraction(1), np.array([[-0.4, -0.3], [0.1 + 0.7, 0.15]])),\n"
            "                                     (2**0.5, np.array([[0.1, 0.25], [-0.9, -0.1 - 1.1]]))]))\n"
            "u = dl.build_commensurate(dl.approximate_system(ex3, 7), dl.WeightMatrix.identity(2))\n"
            "print(u.factor, 2 * u.m * 4, u.condition_estimate.hex())\n"
        )
        src = os.path.dirname(os.path.dirname(dl.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120, check=True
            ).stdout
            for _ in range(3)
        }
        assert len(outs) == 1
        dense, band = outs.pop().splitlines()
        assert (dense.split()[:2], band.split()[:2]) == (["dense", "522"], ["band", "4616"])

    @pytest.mark.parametrize("case", [
        pytest.param((4, "dense"), id="4"),
        pytest.param((7, "band"), id="7"),
        pytest.param((4, "superlu"), id="three_delay_4"),
    ])
    def test_condition_estimate_takes_four_solves(self, ex3, w2, case):
        # example 3's order 4 has 328 unknowns (dense) and order 7 4616
        # (band); the order-4 rung of delays 1, sqrt(2), sqrt(3) has 4408
        # unknowns and a bandwidth past BAND_LIMIT (SuperLU)
        import scipy.linalg as sla
        import scipy.sparse.linalg as spla
        from scipy.linalg import lapack

        order, factor = case
        form = dl.approximate_system(three_delay_system() if factor == "superlu" else ex3, order)
        mat = _commensurate_blocks(form, w2)[0]
        kl = ku = None
        if factor == "dense":
            mat = mat.toarray()
            solve = functools.partial(sla.lu_solve, sla.lu_factor(mat))
            solve_t, anorm = functools.partial(solve, trans=1), float(np.linalg.norm(mat, 1))
            entries = mat.size
        elif factor == "band":
            # LAPACK band storage of the reordered operator, diagonal by diagonal
            perm, pos, kl, ku = _band_order(mat, 4)
            size = mat.shape[0]
            reordered = mat.tocsr()[perm][:, perm]
            ab = np.zeros((2 * kl + ku + 1, size))
            for d in range(-kl, ku + 1):
                ab[kl + ku - d, max(d, 0):size + min(d, 0)] = reordered.diagonal(d)
            anorm = float(np.max(np.abs(ab).sum(axis=0)))
            lu, piv, info = lapack.dgbtrf(ab, kl, ku)
            assert info == 0

            def solve(b, trans=0):
                return lapack.dgbtrs(lu, kl, ku, b[perm], piv, trans=trans)[0][pos]

            solve_t, entries = functools.partial(solve, trans=1), lu.size
        else:
            assert _band_order(mat, 4)[2] > lyapunov_build.BAND_LIMIT
            mat = mat.tocsc()
            lu = spla.splu(mat)
            solve, solve_t, anorm = lu.solve, functools.partial(lu.solve, trans="T"), float(spla.norm(mat, 1))
            entries = lu.L.nnz + lu.U.nnz
        calls = []

        def counted(f):
            def run(x):
                calls.append(x.dtype)
                return f(x)
            return run

        got = lyapunov_build._condition(anorm, counted(solve), counted(solve_t), mat.shape[0])
        # onenormest takes two solves a round: two rounds on example 3's
        # rungs, three on the three-delay one
        solves = 6 if factor == "superlu" else 4
        assert calls == [np.float64] * solves
        del calls[:]
        want = reference_condition(anorm, counted(solve), counted(solve_t), mat.shape)
        assert calls == [np.int8] + [np.float64] * solves
        assert_same_bytes(got, want)
        u = dl.build_commensurate(form, w2)
        unknowns = {"dense": 328, "band": 4616, "superlu": 4408}[factor]
        assert (u.factor, 2 * u.m * 4, u.factor_entries) == (factor, unknowns, entries)
        assert u.bandwidth == (None if kl is None else (kl, ku))
        assert_same_bytes(u.condition_estimate, want)

    @settings(max_examples=60, deadline=None)
    @given(vsys=commensurate_systems(delays=st.integers(1, 3)), factor=st.sampled_from(["dense", "band", "superlu"]))
    def test_condition_equals_onenormest(self, vsys, factor):
        # the estimator loop against onenormest on the same factor's solves,
        # bit for bit; the cutoffs send each build to the factor drawn
        exact, seen = lyapunov_build._condition, []

        def both(anorm, solve, solve_t, size):
            got = exact(anorm, solve, solve_t, size)
            assert_same_bytes(got, reference_condition(anorm, solve, solve_t, (size, size)))
            seen.append(got)
            return got

        cutoffs = {"dense": {}, "band": {"DENSE_CUTOFF": 0, "BAND_LIMIT": 10**6},
                   "superlu": {"DENSE_CUTOFF": 0, "BAND_LIMIT": -1}}[factor]
        with patch.multiple(lyapunov_build, _condition=both, **cutoffs):
            u = dl.build_commensurate(dl.to_commensurate(vsys), random_weight(np.random.default_rng(vsys.n), vsys.n))
        assert (u.factor, seen) == (factor, [u.condition_estimate])

    def test_condition_reported(self, u_ex2a):
        assert np.isfinite(u_ex2a.condition_estimate)
        assert u_ex2a.condition_estimate >= 1.0


class TestCriticalDetection:
    # each case runs on the dense LU and, with DENSE_CUTOFF = 0, on the
    # band LU of the sparse path
    CUTOFFS = (lyapunov_build.DENSE_CUTOFF, 0)

    def test_eigenvalue_product_one(self, w2):
        vsys = dl.validate(dl.DelaySystem.single(np.diag([2.0, 0.5]), Fraction(1)))
        for cutoff in self.CUTOFFS:
            with warnings.catch_warnings(), patch.object(lyapunov_build, "DENSE_CUTOFF", cutoff):
                warnings.simplefilter("ignore")
                # the band LU meets an exactly zero pivot, which dgbtrf reports
                with pytest.raises(dl.CriticalSystem, match="singular" if cutoff else "pivot 6 is exactly zero"):
                    dl.build_single_delay(vsys, w2)

    def test_near_critical_warns(self, w2):
        vsys = dl.validate(dl.DelaySystem.single(np.diag([2.0, 0.5 + 1e-11]), Fraction(1)))
        for cutoff in self.CUTOFFS:
            with patch.object(lyapunov_build, "DENSE_CUTOFF", cutoff):
                with pytest.warns(RuntimeWarning, match="conditioned") as caught:
                    line, u = sys._getframe().f_lineno, dl.build_single_delay(vsys, w2)
            assert u.factor == ("dense" if cutoff else "band")
            # the warning points at the caller's line
            (warning,) = caught
            assert (warning.filename, warning.lineno) == (__file__, line)

    def test_condition_window_raises(self, w1):
        # a = -(1 - 1e-13): a^2 is 1 - 2e-13, and the condition estimate,
        # about 2.0e13, lies between COND_FAIL and 1e14
        vsys = dl.validate(dl.DelaySystem.single([[-(1.0 - 1e-13)]], Fraction(1)))
        with pytest.raises(dl.CriticalSystem, match="numerically singular"):
            dl.build_single_delay(vsys, w1)
        with patch.object(lyapunov_build, "COND_FAIL", 1e14), pytest.warns(RuntimeWarning, match="conditioned"):
            u = dl.build_single_delay(vsys, w1)
        assert lyapunov_build.COND_FAIL < u.condition_estimate < 1e14

    def test_condition_warning_boundary(self, w1):
        # a = -(1 - 1e-10): the condition estimate, about 2.0e10, lies
        # between COND_WARN and 1e11
        vsys = dl.validate(dl.DelaySystem.single([[-(1.0 - 1e-10)]], Fraction(1)))
        with pytest.warns(RuntimeWarning, match="conditioned"):
            u = dl.build_single_delay(vsys, w1)
        assert lyapunov_build.COND_WARN < u.condition_estimate < 1e11
        with patch.object(lyapunov_build, "COND_WARN", 1e11), warnings.catch_warnings():
            warnings.simplefilter("error")
            dl.build_single_delay(vsys, w1)

    def test_commensurate_critical(self, w2):
        # per-step roots are +-sqrt(2) and +-1/sqrt(2); one product is 1
        pairs = [
            (Fraction(1), np.diag([2.0, 0.5])),
            (Fraction(3, 2), np.zeros((2, 2))),
        ]
        vsys = dl.validate(dl.DelaySystem(2, pairs))
        for cutoff in self.CUTOFFS:
            with warnings.catch_warnings(), patch.object(lyapunov_build, "DENSE_CUTOFF", cutoff):
                warnings.simplefilter("ignore")
                with pytest.raises(dl.CriticalSystem):
                    dl.build_commensurate(dl.to_commensurate(vsys), w2)


class TestPMatrix:
    def test_antisymmetric_everywhere(self, scalar_half, ex1, ex2a, ex2b, ex2a_half, ex3, w1, w2):
        for vsys, w in (
            (scalar_half, w1), (ex1, w2), (ex2a, w2),
            (ex2b, w2), (ex2a_half, w2), (ex3, w2),
        ):
            p = dl.p_matrix(vsys, w)
            assert np.max(np.abs(p + p.T)) <= 1e-12

    def test_weight_must_be_positive_definite(self, ex1, ex2a):
        bad = dl.WeightMatrix(np.diag([1.0, -2.0]))
        with pytest.raises(ValueError):
            dl.p_matrix(ex2a, bad)
        with pytest.raises(ValueError):
            dl.build_commensurate(dl.to_commensurate(ex2a), bad)
        with pytest.raises(ValueError):
            dl.build_single_delay(ex1, bad)

    def test_scalar_value_is_zero(self, scalar_half, w1):
        # commuting scalar factors cancel exactly
        assert abs(dl.p_matrix(scalar_half, w1)[0, 0]) <= 1e-15


class TestLinearity:
    def test_build_linear_in_weight(self, ex2a):
        w_a = dl.WeightMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        w_b = dl.WeightMatrix(np.array([[1.0, -0.25], [-0.25, 3.0]]))
        w_sum = dl.WeightMatrix(w_a.matrix + w_b.matrix)
        form = dl.to_commensurate(ex2a)
        taus = np.linspace(-1.5, 1.5, 101)
        u_a = dl.build_commensurate(form, w_a).evaluate_many(taus)
        u_b = dl.build_commensurate(form, w_b).evaluate_many(taus)
        u_s = dl.build_commensurate(form, w_sum).evaluate_many(taus)
        assert np.max(np.abs(u_s - (u_a + u_b))) <= 1e-10

    def test_symmetry_relation_with_p(self, ex2a, w2, u_ex2a):
        # value at -tau equals transposed value at tau plus the constant
        # antisymmetric correction minus tau times K0' W K0
        base = dl.k0(ex2a)
        p = dl.p_matrix(ex2a, w2)
        corr = base.T @ w2.matrix @ base
        for tau in np.linspace(0.0, 1.5, 16):
            lhs = u_ex2a.evaluate(-float(tau))
            rhs = u_ex2a.evaluate(float(tau)).T + p - float(tau) * corr
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestCsv:
    def test_header_and_determinism(self, u_ex2a):
        taus = np.linspace(-1.5, 1.5, 11)
        b1, b2 = io.StringIO(), io.StringIO()
        dl.piecewise_to_csv(u_ex2a, taus, b1)
        dl.piecewise_to_csv(u_ex2a, taus, b2)
        assert b1.getvalue() == b2.getvalue()
        assert b1.getvalue().splitlines()[0] == "tau,U11,U12,U21,U22"
