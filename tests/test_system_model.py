import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import delaylyap as dl
from delaylyap import fundamental, stability, system_model

from conftest import (
    assert_bits_equal, commensurate_systems, random_stable_single, slots, steps_of, two_route_cases,
)

EPS = np.finfo(float).eps
LOWER_BOUND = "spectral radius is a certified lower bound: a Newton disk of det P lies past 1 + EXACT_MARGIN"
EPS32 = float(np.finfo(np.float32).eps)


def companion_matrix(coeffs, n):
    """Block companion matrix of x_k = sum_j C_j x_(k-j): C_1..C_m on the
    first block row, identities below."""
    m = len(coeffs)
    big = np.zeros((n * m, n * m))
    big[:n] = np.hstack(coeffs)
    big[n:, :-n] = np.eye(n * (m - 1))
    return big


def reference_fit_decay(vsys, rho, step):
    """The decay fit with one SVD norm per breakpoint, as it once ran: the
    bitwise reference for the batched norms."""
    sigma = 0.9 * (-math.log(rho)) / step
    depth = step * math.log(1e-13) / math.log(rho)
    horizon = max(min(depth, 3000.0 * vsys.h_min), 3.0 * vsys.h_max, vsys.n * vsys.h_max + step)
    kfun = dl.fundamental_matrix(vsys, horizon)
    k0n = float(np.linalg.norm(kfun.pre_value, 2))
    ends = np.append(kfun.breakpoints[1:], kfun.horizon)
    gamma = 1.0
    for v, t_end in zip(kfun.values, ends):
        ratio = float(np.linalg.norm(v, 2)) * math.exp(sigma * t_end) / k0n
        if ratio > gamma:
            gamma = ratio
    return 1.05 * gamma, sigma


def reference_companion_radius(coeffs, n):
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(coeffs, n)))))


def dense_error_bound(coeffs, n):
    """First-order error of the largest eigenvalue modulus from eigvals:
    condition number of that eigenvalue times a backward error of
    8 N eps ||M||_F, a generous multiple of the eps ||M|| that Hessenberg
    QR attains.  The reference is the less accurate side: against roots
    to 40 digits, eigvals was off by up to 17 eps rho on such companions
    and the Ehrlich-Aberth radius by less than 1 eps rho."""
    big = companion_matrix(coeffs, n)
    w, left, right = scipy.linalg.eig(big, left=True, right=True)
    k = int(np.argmax(np.abs(w)))
    x = right[:, k] / np.linalg.norm(right[:, k])
    y = left[:, k] / np.linalg.norm(left[:, k])
    kappa = 1.0 / abs(np.vdot(y, x))
    return 8.0 * big.shape[0] * EPS * np.linalg.norm(big) * kappa


def reference_torus_radius(mats, points):
    """The torus screen over the full points^q grid, as it ran before the
    first phase was fixed, with the same sums: (radius, grid index of the
    matrix that attains it, that matrix)."""
    phases = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, points, endpoint=False))
    idx = np.unravel_index(np.arange(points ** len(mats)), (points,) * len(mats))
    acc = np.zeros((idx[0].size,) + mats[0].shape, dtype=complex)
    acc = sum((a * phases[i][:, None, None] for a, i in zip(mats, idx)), acc)
    radii = np.max(np.abs(np.linalg.eigvals(acc)), axis=1)
    k = int(np.argmax(radii))
    return float(radii[k]), tuple(int(i[k]) for i in idx), acc[k]


def torus_quotient_bound(mats, points, at, full):
    """How far the fixed-first-phase radius may sit from the full grid's.
    At the reference's maximising point `at`, the exact matrices of the
    full grid and of its quotient point (at_j - at_1 mod points) differ by
    the unit factor exp(i theta_1), so their spectral radii are equal.
    Each computed matrix differs from its exact one by the rounding of its
    unit factors (the phases' distance from exp(2 pi i k / points), taken
    against mpmath) plus that of the products and the sum of q terms, and
    eigvals adds a backward error of 8 n eps ||M||_F, the generous multiple
    of dense_error_bound.  Bauer-Fike turns both perturbations into a
    radius error through the eigenvector condition numbers, doubled for
    taking them from the computed rather than the exact matrices."""
    import mpmath

    q, n = len(mats), mats[0].shape[0]
    phases = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, points, endpoint=False))
    with mpmath.workdps(40):
        unit_err = max(abs(mpmath.mpc(p.real, p.imag) - mpmath.expjpi(mpmath.mpf(2 * k) / points))
                       for k, p in enumerate(phases))
    delta = float(unit_err) + 1.01 * (1.0 + math.sqrt(2.0) * (q - 1)) * EPS * (1.0 + float(unit_err))
    pert = delta * np.linalg.norm(sum(np.abs(a) for a in mats))
    quotient = sum((a * phases[(i - at[0]) % points] for a, i in zip(mats[1:], at[1:])), mats[0] + 0j)
    total = 0.0
    kappa = 0.0
    for mat in (full, quotient):
        total += pert + 8.0 * n * EPS * np.linalg.norm(mat)
        kappa = max(kappa, np.linalg.cond(np.linalg.eig(mat)[1]))
    return 2.0 * kappa * total


def verdict(rho, margin=1e-9):
    if rho >= 1.0 + margin:
        return "unstable"
    return "stable" if rho <= 1.0 - margin else "inconclusive"


@st.composite
def commensurate_coefficients(draw):
    """(C_1..C_m, n) with n = 1..3, m <= 60 and q = 1..3 steps, m among
    them; each of their blocks is zero with probability 1/8, and C_m loses
    a column with probability 1/4."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 60))
    q = draw(st.integers(1, min(3, m)))
    steps = draw(st.sets(st.integers(1, m - 1), min_size=q - 1, max_size=q - 1)) if m > 1 else set()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.1, 3.0))
    coeffs = [np.zeros((n, n))] * m
    for j in sorted(steps | {m}):
        if rng.random() >= 1 / 8:
            coeffs[j - 1] = rng.normal(size=(n, n)) * scale / n
    if rng.random() < 1 / 4:
        last = coeffs[-1].copy()
        last[:, rng.integers(n)] = 0.0
        coeffs[-1] = last
    return coeffs, n


@st.composite
def real_root_companions(draw):
    """(C_1..C_m, n) with n m odd, so that p = det P has a real root: n = 1
    or 3 and m odd in 31..399, of four kinds.  "blocks": random C_j at
    q = 1..3 steps, m among them.  "scalar": n = 1 and x^m = +-c alone, one
    real root among m roots on one circle.  "tiny": blocks with C_m scaled
    by 1e-40..1e-8, so several Newton-polygon circles and roots near 0.
    "close": n = 3 and C_m = S diag(c, c (1 + d), -c') S^-1 with
    d <= 0.3, whose real roots c^(1/m) and (c (1 + d))^(1/m) are less than
    the scan's step 1/(n m) apart in log |x|, so the scan may miss both."""
    kind = draw(st.sampled_from(["blocks", "scalar", "tiny", "close"]))
    n = {"scalar": 1, "close": 3}.get(kind) or draw(st.sampled_from([1, 3]))
    m = 2 * draw(st.integers(15, 199)) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = [np.zeros((n, n))] * m
    if kind == "scalar":
        coeffs[-1] = np.array([[rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)]])
    elif kind == "close":
        s = rng.normal(size=(3, 3))
        c = rng.uniform(0.5, 2.0)
        coeffs[-1] = s @ np.diag([c, c * (1.0 + rng.uniform(1e-3, 0.3)), -rng.uniform(0.5, 2.0)]) @ np.linalg.inv(s)
    else:
        q = draw(st.integers(1, 3))
        scale = draw(st.floats(0.1, 3.0))
        for j in set(rng.choice(np.arange(1, m), q - 1, replace=False).tolist()) | {m}:
            coeffs[j - 1] = rng.normal(size=(n, n)) * scale / n
        if kind == "tiny":
            coeffs[-1] = coeffs[-1] * 10.0 ** rng.uniform(-40.0, -8.0)
    return coeffs, n


@st.composite
def structured_systems(draw):
    """(raw system, n) whose companion takes the Ehrlich-Aberth route:
    n = 1..3 and q = 1..3 integer delays, the largest m with n m >= 76 and
    n^2 <= m, and 1 among them, so that the rewrite keeps h = 1.  C_m has
    the 2-norm rho^m, rho in 0.9..1.1, so that C_m alone would put the
    roots near |z| = rho, on either side of the unit circle."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(max(-(-76 // n), n * n), 160))
    q = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = sorted({1, m} | set(rng.integers(2, m, q - 1).tolist()))
    mats = [rng.normal(size=(n, n)) / n for _ in steps]
    mats[-1] *= draw(st.floats(0.9, 1.1)) ** m / np.linalg.norm(mats[-1], 2)
    return dl.DelaySystem(n, [(Fraction(j), a) for j, a in zip(steps, mats)]), n


class TestDelaySystem:
    def test_int_delay_becomes_exact(self):
        s = dl.DelaySystem.single(0.5, 1)
        assert s.delays == (Fraction(1),)

    def test_lone_float_delay_is_stored_exact(self):
        # a lone float delay is the binary rational it already is; among
        # others a float delay stays a float
        s = dl.DelaySystem.single(0.5, math.sqrt(2.0))
        (d,) = s.delays
        assert isinstance(d, Fraction) and d == Fraction(math.sqrt(2.0)) and float(d) == math.sqrt(2.0)
        pair = dl.DelaySystem(1, [(1.0, [[0.2]]), (math.sqrt(2.0), [[0.3]])])
        assert all(isinstance(d, float) for d in pair.delays)
        assert dl.validate(s).is_rational and not dl.validate(pair).is_rational

    @pytest.mark.parametrize("delay, error, message", [
        (0, dl.NonincreasingDelays, "delays must be positive with 1e-12 * delay a normal float, got 0.0"),
        (-1.0, dl.NonincreasingDelays, "delays must be positive with 1e-12 * delay a normal float, got -1.0"),
        (math.inf, dl.NonFiniteInput, "delays must be finite"),
        (math.nan, dl.NonFiniteInput, "delays must be finite"),
    ])
    def test_bad_delay_fails_at_construction(self, delay, error, message):
        # no reader, the stability screen included, ever sees such a delay
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            dl.DelaySystem.single([[2.0]], delay)

    def test_fraction_delay_kept(self):
        s = dl.DelaySystem.single(0.5, Fraction(3, 2))
        assert s.delays == (Fraction(3, 2),)

    def test_scalar_promoted_to_matrix(self):
        s = dl.DelaySystem.single(0.5, 1)
        assert s.matrices[0].shape == (1, 1)

    def test_matrices_read_only(self):
        s = dl.DelaySystem.single(0.5, 1)
        with pytest.raises(ValueError):
            s.matrices[0][0, 0] = 2.0


class TestValidate:
    # the structure is checked when the DelaySystem is built
    def test_wrong_shape(self):
        with pytest.raises(dl.DimensionMismatch):
            dl.validate(dl.DelaySystem(2, [(Fraction(1), np.zeros((2, 3)))]))

    def test_nonpositive_delay(self):
        with pytest.raises(dl.NonincreasingDelays):
            dl.validate(dl.DelaySystem.single(0.5, Fraction(0)))

    def test_unsorted_delays(self):
        a = np.eye(2) * 0.1
        with pytest.raises(dl.NonincreasingDelays):
            dl.validate(dl.DelaySystem(2, [(Fraction(2), a), (Fraction(1), a)]))

    def test_duplicate_delays(self):
        a = np.eye(2) * 0.1
        with pytest.raises(dl.NonincreasingDelays):
            dl.validate(dl.DelaySystem(2, [(Fraction(1), a), (Fraction(1), a)]))

    def test_delay_too_large_for_a_float(self):
        with pytest.raises(dl.NonFiniteInput):
            dl.validate(dl.DelaySystem.single(0.5, Fraction(10 ** 400)))

    def test_nan_matrix(self):
        with pytest.raises(dl.NonFiniteInput):
            dl.validate(dl.DelaySystem.single(float("nan"), Fraction(1)))

    def test_infinite_delay(self):
        with pytest.raises(dl.NonFiniteInput):
            dl.validate(dl.DelaySystem.single(0.5, float("inf")))

    def test_unit_coefficient_sum_rejected(self):
        # sum of coefficients equal to I leaves no constant initial value
        with pytest.raises(dl.SingularK0):
            dl.validate(dl.DelaySystem.single(1.0, Fraction(1)))

    def test_det_rtol_boundary(self, monkeypatch):
        # sum A_j - I = diag(1, 1e-13): sigma_min / sigma_max is 1e-13,
        # below DET_RTOL = 1e-12 and above 1e-16
        system = dl.DelaySystem.single(np.diag([2.0, 1.0 + 1e-13]), Fraction(1))
        with pytest.raises(dl.SingularK0):
            dl.validate(system)
        monkeypatch.setattr(system_model, "DET_RTOL", 1e-16)
        assert dl.validate(system).n == 2

    def test_well_conditioned_k0_validates_at_any_n(self):
        # sum A_j - I = diag(-3, -0.5, ..., -0.5) has condition 6; its
        # |det| / ||.||_2^20 = 1.6e-15 fell below DET_RTOL at n = 20
        vsys = dl.validate(dl.DelaySystem.single(np.diag([-2.0] + [0.5] * 19), Fraction(1)))
        assert np.allclose(dl.k0(vsys), np.diag([-1.0 / 3.0] + [-2.0] * 19))

    def test_ill_conditioned_k0_raises_at_n_20(self):
        # sum A_j - I = Q diag(1, ..., 1, 1e-13) Q^T, a random orthogonal Q
        q = np.linalg.qr(np.random.default_rng(4).normal(size=(20, 20)))[0]
        mat = q @ np.diag([1.0] * 19 + [1e-13]) @ q.T + np.eye(20)
        with pytest.raises(dl.SingularK0, match="^sum of coefficients minus identity is numerically singular"):
            dl.validate(dl.DelaySystem.single(mat, Fraction(1)))

    def test_properties(self, ex2a):
        assert ex2a.n == 2
        assert ex2a.h_max == 1.5
        assert ex2a.h_min == 1.0
        assert ex2a.is_rational
        expect = ex2a.matrices[0] + ex2a.matrices[1]
        np.testing.assert_allclose(ex2a.coefficient_sum, expect)

    def test_irrational_flag(self, ex3):
        assert not ex3.is_rational


class TestK0:
    def test_known_two_by_two(self, ex1):
        want = np.array([[-0.56944627, -0.27680103], [-0.09236270, -0.47950895]])
        np.testing.assert_allclose(dl.k0(ex1), want, atol=5e-8)

    def test_scalar(self, scalar_half):
        # 1/(0.5 - 1) = -2
        assert dl.k0(scalar_half)[0, 0] == pytest.approx(-2.0, abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_inverse_identity(self, seed):
        vsys = random_stable_single(seed)
        base = dl.k0(vsys)
        res = (vsys.coefficient_sum - np.eye(vsys.n)) @ base - np.eye(vsys.n)
        assert np.max(np.abs(res)) <= 1e-12


class TestWeightMatrix:
    def test_identity(self):
        w = dl.WeightMatrix.identity(3)
        assert w.n == 3
        np.testing.assert_array_equal(w.matrix, np.eye(3))

    def test_asymmetric_rejected(self):
        with pytest.raises(dl.DimensionMismatch):
            dl.WeightMatrix(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_positive_definite_gate(self):
        dl.WeightMatrix.identity(2).require_positive_definite()
        with pytest.raises(ValueError):
            dl.WeightMatrix(np.diag([1.0, -1.0])).require_positive_definite()


class TestInitialFunction:
    def test_constant(self):
        phi = dl.InitialFunction.constant([1.0, 2.0])
        np.testing.assert_array_equal(phi.value(-0.7), [1.0, 2.0])
        np.testing.assert_array_equal(phi.value(-100.0), [1.0, 2.0])
        with pytest.raises(dl.NonFiniteInput):
            dl.InitialFunction.constant([1.0, math.nan])

    def test_domain_ends_before_zero(self):
        phi = dl.InitialFunction.constant([1.0])
        with pytest.raises(dl.OutOfDomain):
            phi.value(0.0)
        with pytest.raises(dl.OutOfDomain):
            phi.value(0.5)

    def test_no_segments_rejected(self):
        with pytest.raises(dl.DimensionMismatch):
            dl.InitialFunction([], np.zeros((0, 2)))

    def test_left_end_enforced(self):
        phi = dl.InitialFunction([-1.0], [[2.0]])
        with pytest.raises(dl.OutOfDomain):
            phi.value(-1.5)

    def test_piecewise_affine_segments(self):
        phi = dl.InitialFunction(
            [-2.0, -1.0],
            [[1.0], [3.0]],
            slopes=[[0.0], [2.0]],
        )
        assert phi.value(-1.5)[0] == pytest.approx(1.0)
        assert phi.value(-1.0)[0] == pytest.approx(3.0)
        assert phi.value(-0.5)[0] == pytest.approx(4.0)

    @pytest.mark.parametrize("starts, values, slopes", [
        ([-1.0], [[math.nan]], None),
        ([-1.0], [[math.inf]], None),
        ([-1.0], [[1.0]], [[-math.inf]]),
        ([math.nan], [[1.0]], None),
        ([-2.0, -math.inf], [[1.0], [2.0]], None),
        # only a constant segment may reach back to -inf
        ([-math.inf, -1.0], [[1.0], [2.0]], [[1.0], [0.0]]),
    ])
    def test_non_finite_data_rejected(self, starts, values, slopes):
        with pytest.raises(dl.NonFiniteInput):
            dl.InitialFunction(starts, values, slopes)

    def test_starts_must_increase(self):
        with pytest.raises(dl.NonincreasingDelays):
            dl.InitialFunction([-1.0, -1.0], [[1.0], [2.0]])

    def test_starts_must_be_negative(self):
        with pytest.raises(ValueError):
            dl.InitialFunction([0.0], [[1.0]])


class TestCommensurate:
    def test_basic_delay_and_count(self, ex2a):
        form = dl.to_commensurate(ex2a)
        assert form.h == Fraction(1, 2)
        assert form.m == 3
        assert form.n == 2

    def test_coefficient_placement(self, ex2a):
        form = dl.to_commensurate(ex2a)
        # step j holds the matrix acting at delay j h, the entry's own
        # array; h itself carries no step
        assert [j for j, _ in form.steps] == [2, 3]
        assert all(c is a for (_, c), a in zip(form.steps, ex2a.matrices))

    @settings(max_examples=60, deadline=None)
    @given(vsys=commensurate_systems(), zeroed=st.integers(-1, 2))
    def test_steps_are_the_nonzero_entries(self, vsys, zeroed):
        # zeroed picks an entry to replace by an explicit zero matrix (-1: none)
        if 0 <= zeroed < len(vsys.entries):
            entries = list(vsys.entries)
            entries[zeroed] = (entries[zeroed][0], np.zeros((vsys.n, vsys.n)))
            vsys = dl.validate(dl.DelaySystem(vsys.n, entries))
        form = dl.to_commensurate(vsys)
        js = [j for j, _ in form.steps]
        assert all(a < b for a, b in zip([0] + js, js + [form.m + 1]))
        kept = [(d, a) for d, a in vsys.entries if np.any(a)]
        assert [d for d, _ in kept] == [form.h * j for j in js]
        assert all(c is a and np.any(c) for (_, c), (_, a) in zip(form.steps, kept))
        back = form.to_system()
        assert back.delays == tuple(d for d, _ in kept)
        for got, want in zip(back.matrices, (a for _, a in kept)):
            assert_bits_equal(got, want)
        rho = stability._dense_companion_radius(form.steps, form.m, form.n)
        assert rho == reference_companion_radius(slots(form), form.n)

    def test_roundtrip_drops_zero_rows(self, ex2a):
        back = dl.to_commensurate(ex2a).to_system()
        assert back.delays == ex2a.delays
        for got, want in zip(back.matrices, ex2a.matrices):
            np.testing.assert_array_equal(got, want)

    def test_irrational_rejected(self, ex3):
        with pytest.raises(dl.NonRationalInput):
            dl.to_commensurate(ex3)

    def test_step_cap_is_the_largest_build(self, monkeypatch):
        # the rewrite takes every m that build_commensurate takes at n = 1
        # (2 m unknowns), and refuses the next before it builds its slots
        monkeypatch.setattr(dl.lyapunov_build, "MAX_UNKNOWNS", 20)
        w = dl.WeightMatrix.identity(1)
        for m, fits in ((10, True), (11, False)):
            sys = dl.validate(dl.DelaySystem(1, [(Fraction(1), [[0.3]]), (Fraction(m), [[0.2]])]))
            if fits:
                assert dl.build_commensurate(dl.to_commensurate(sys), w).m == m
            else:
                with pytest.raises(dl.SizeExceeded):
                    dl.to_commensurate(sys)

    def test_tiny_gcd_fails_fast(self):
        # m = 10^30 - 1 steps: a list of m slots could never be built
        sys = dl.validate(dl.DelaySystem(1, [
            (Fraction(1, 10**30 - 1), [[0.3]]), (Fraction(1), [[0.2]]),
        ]))
        with pytest.raises(dl.SizeExceeded, match="m = 999999999999999999999999999999"):
            dl.to_commensurate(sys)
        assert dl.stability_check(sys).method == "torus_grid_heuristic"

    @settings(max_examples=20, deadline=None)
    @given(
        p1=st.integers(1, 12), q1=st.integers(1, 12),
        p2=st.integers(1, 12), q2=st.integers(1, 12),
    )
    def test_roundtrip_random_rationals(self, p1, q1, p2, q2):
        d1, d2 = Fraction(p1, q1), Fraction(p2, q2)
        if d1 == d2:
            return
        lo, hi = sorted((d1, d2))
        sys = dl.validate(dl.DelaySystem(1, [
            (lo, np.array([[0.3]])), (hi, np.array([[0.2]])),
        ]))
        form = dl.to_commensurate(sys)
        assert lo % form.h == 0 and hi % form.h == 0
        assert form.m * form.h == hi
        back = form.to_system()
        assert back.delays == sys.delays


class TestStabilityCheck:
    def test_scalar_stable(self, scalar_half):
        rep = dl.stability_check(scalar_half)
        assert rep.verdict == "stable"
        assert rep.method == "commensurate_companion"
        assert rep.spectral_radius == pytest.approx(0.5, abs=1e-14)
        assert rep.decay_gain is not None and rep.decay_rate > 0

    def test_single_unstable(self, ex1):
        rep = dl.stability_check(ex1)
        assert rep.verdict == "unstable"
        assert rep.spectral_radius == pytest.approx(1.7903309097, abs=1e-9)

    def test_commensurate_stable(self, ex2a):
        rep = dl.stability_check(ex2a)
        assert rep.method == "commensurate_companion"
        assert rep.verdict == "stable"
        assert rep.spectral_radius == pytest.approx(0.8725687776, abs=1e-9)
        assert rep.rate_step == pytest.approx(0.5)

    def test_commensurate_unstable(self, ex2b):
        rep = dl.stability_check(ex2b)
        assert rep.verdict == "unstable"
        assert rep.spectral_radius == pytest.approx(1.1657689774, abs=1e-9)

    def test_halved_variant(self, ex2a_half):
        rep = dl.stability_check(ex2a_half)
        assert rep.verdict == "stable"
        assert rep.spectral_radius == pytest.approx(0.6716192655, abs=1e-9)

    def test_torus_flags_instability(self, ex3):
        rep = dl.stability_check(ex3)
        assert rep.method == "torus_grid_heuristic"
        assert rep.verdict == "unstable"
        assert rep.spectral_radius == pytest.approx(1.19986, abs=1e-4)

    @pytest.mark.parametrize("delay", [Fraction(7, 5), math.sqrt(2.0)])
    def test_lone_delay_is_the_m1_companion(self, delay):
        # the rewrite of a lone delay of either kind is h = H, m = 1, whose
        # companion matrix is A itself
        a = np.array([[0.3, -0.4], [0.2, 0.5]])
        rep = dl.stability_check(dl.DelaySystem.single(a, delay))
        assert (rep.method, rep.verdict, rep.rate_step) == ("commensurate_companion", "stable", float(delay))
        assert_bits_equal(rep.spectral_radius, np.max(np.abs(np.linalg.eigvals(a))))

    def test_lone_delay_past_companion_cap_reads_one_torus_point(self, monkeypatch):
        monkeypatch.setattr(stability, "COMPANION_CAP", 1)
        a = np.array([[0.3, -0.4], [0.2, 0.5]])
        rep = dl.stability_check(dl.DelaySystem.single(a, math.sqrt(2.0)))
        assert (rep.method, rep.verdict, rep.rate_step) == ("torus_grid_heuristic", "inconclusive", math.sqrt(2.0))
        assert rep.spectral_radius == pytest.approx(np.max(np.abs(np.linalg.eigvals(a))), rel=1e-14)

    def test_rational_past_companion_cap_uses_torus(self, ex2a, monkeypatch):
        monkeypatch.setattr(stability, "COMPANION_CAP", 4)
        monkeypatch.setattr(stability, "TORUS_POINTS", 16)
        rep = dl.stability_check(ex2a)
        assert (rep.method, rep.grid_points, rep.rate_step) == ("torus_grid_heuristic", 16, 1.5)
        assert rep.verdict == "inconclusive"

    @pytest.mark.parametrize("n", [2, 3])
    def test_companion_cap_boundary(self, n, monkeypatch):
        # n m at the cap takes the companion, one step more the torus
        monkeypatch.setattr(stability, "COMPANION_CAP", 10 * n)
        a = np.random.default_rng(n).uniform(-0.2, 0.2, (n, n)) / n
        methods = [
            dl.stability_check(dl.DelaySystem(n, [(Fraction(1), a), (Fraction(m), a)])).method for m in (10, 11)
        ]
        assert methods == ["commensurate_companion", "torus_grid_heuristic"]

    @pytest.mark.parametrize("den, method", [(4000, "commensurate_companion"), (4001, "torus_grid_heuristic")])
    def test_shipped_companion_cap(self, den, method):
        # delays 1/den and 1 at n = 1 make a companion of size n m = den:
        # COMPANION_CAP = 4000 is the largest the rational screen takes
        system = dl.DelaySystem(1, [(Fraction(1, den), [[0.3]]), (Fraction(1), [[0.2]])])
        assert dl.stability_check(system, with_decay=False).method == method

    @pytest.mark.parametrize("b, verdict", [(0.5005, "inconclusive"), (0.502, "unstable")])
    def test_torus_margin(self, b, verdict):
        # the sampled torus radius of 0.5 x(t - 1) + b x(t - sqrt 2) is
        # 0.5 + b: 1.0005 lies within TORUS_MARGIN = 1e-3 of 1, 1.002 past it
        system = dl.DelaySystem(1, [(1.0, [[0.5]]), (math.sqrt(2.0), [[b]])])
        rep = dl.stability_check(system, with_decay=False)
        assert (rep.method, rep.verdict) == ("torus_grid_heuristic", verdict)
        assert rep.spectral_radius == pytest.approx(0.5 + b, abs=1e-12)

    def test_torus_never_certifies_stable(self):
        tiny = dl.validate(dl.DelaySystem(1, [
            (1.0, np.array([[0.1]])), (math.sqrt(2.0), np.array([[0.05]])),
        ]))
        rep = dl.stability_check(tiny)
        assert rep.method == "torus_grid_heuristic"
        assert rep.verdict == "inconclusive"

    def test_margin_case_inconclusive(self):
        rep = dl.stability_check(dl.DelaySystem.single(1.0, Fraction(1)))
        assert rep.verdict == "inconclusive"

    def test_report_dict(self, ex2a):
        d = dl.stability_check(ex2a).to_dict()
        assert d["verdict"] == "stable"
        assert "spectral_radius" in d and "method" in d


class TestFitDecay:
    @settings(max_examples=20, deadline=None)
    @given(case=two_route_cases(), rho=st.floats(0.05, 0.3))
    def test_equals_per_breakpoint_reference(self, case, rho):
        vsys, _ = case
        assert_bits_equal(stability._fit_decay(vsys, rho, vsys.h_min), reference_fit_decay(vsys, rho, vsys.h_min))

    @pytest.mark.parametrize("n", [1, 8])
    def test_worked_and_wide_systems(self, ex2a_half, n):
        rng = np.random.default_rng(n)
        mats = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in range(2)]
        scale = 0.6 / sum(np.linalg.norm(a, 2) for a in mats)
        wide = dl.validate(dl.DelaySystem(n, [(Fraction(1), scale * mats[0]), (Fraction(3, 2), scale * mats[1])]))
        for vsys in (ex2a_half, wide):
            rep = dl.stability_check(vsys)
            want = reference_fit_decay(vsys, rep.spectral_radius, rep.rate_step)
            assert_bits_equal((rep.decay_gain, rep.decay_rate), want)


ZERO = np.zeros((2, 2))
NIL2 = np.array([[0.0, 1.0], [0.0, 0.0]])
JORDAN5 = 10.0 * np.eye(5, k=1)
ZERO_RADIUS_SYSTEMS = {
    "nilpotent": [(Fraction(1), 0.5 * NIL2)],
    "all_zero": [(Fraction(1), ZERO), (Fraction(3, 2), ZERO)],
    "all_zero_m31": [(Fraction(1), ZERO), (Fraction(31, 30), ZERO)],
    # K = J^(k+1) K0 on [k, k+1) grows to about 1e4 and is nonzero up to
    # t = 4, past 3 h_max
    "jordan5": [(Fraction(1), JORDAN5)],
    # n m = 15 steps of h = 1/2; K is nonzero up to t = 6, past 3 h_max
    "commensurate_jordan5": [(Fraction(1), JORDAN5), (Fraction(3, 2), JORDAN5)],
    # K is nonzero for 60 steps of h = 1/60, where exp(sigma t) at the
    # floor rate would overflow
    "long_nilpotent": [(Fraction(1, 60), NIL2), (Fraction(1), NIL2)],
}


class TestZeroRadius:
    """Spectral radius 0: the rates come from RHO_FLOOR, and the fit and
    the default horizon reach past the nilpotent range n h_max."""

    @pytest.mark.parametrize("name", sorted(ZERO_RADIUS_SYSTEMS))
    def test_envelope_covers_k(self, name):
        entries = ZERO_RADIUS_SYSTEMS[name]
        vsys = dl.validate(dl.DelaySystem(entries[0][1].shape[0], entries))
        rep = dl.stability_check(vsys)
        assert (rep.spectral_radius, rep.verdict) == (0.0, "stable")
        depth = rep.rate_step * math.log(1e-13) / math.log(stability.RHO_FLOOR)
        nilpotent_end = vsys.n * vsys.h_max
        fit_horizon = max(min(depth, 3000.0 * vsys.h_min), 3.0 * vsys.h_max, nilpotent_end + rep.rate_step)
        kfun = dl.fundamental_matrix(vsys, 2.0 * fit_horizon)
        # K is constant on each piece and the envelope falls, so each piece
        # is checked at its right end
        ends = np.append(kfun.breakpoints[1:], kfun.horizon)
        norms = np.linalg.norm(kfun.values, 2, axis=(1, 2))
        with np.errstate(under="ignore"):
            envelope = rep.decay_gain * np.linalg.norm(kfun.pre_value, 2) * np.exp(-rep.decay_rate * ends)
        assert np.all(norms <= envelope)
        assert np.all(norms[ends > nilpotent_end] == 0.0)
        last = float(np.max(ends[norms > 0.0], initial=0.0))
        assert last <= dl.default_horizon(vsys, rep) < math.inf

    def test_default_horizon_above_floor_unchanged(self, ex2a_half):
        # the decay fit above the floor is pinned by TestFitDecay
        rep = dl.stability_check(ex2a_half)
        assert rep.spectral_radius > stability.RHO_FLOOR
        t = rep.rate_step * math.log(1e-12) / math.log(rep.spectral_radius)
        assert dl.default_horizon(ex2a_half, rep) == max(t, 3.0 * ex2a_half.h_max)


@pytest.fixture(scope="module")
def order6_rung(ex3):
    """The order-6 rung of example 3 (n m = 478) and its dense eigvals
    radius, about 0.2 s, taken once for the tests that compare with it."""
    form = dl.approximate_system(ex3, 6)
    return form, reference_companion_radius(slots(form), 2)


class TestStructuredCompanion:
    """The Ehrlich-Aberth route of the companion spectral radius against
    an explicit companion matrix and dense eigvals."""

    @settings(max_examples=80, deadline=None)
    @given(case=commensurate_coefficients())
    def test_certified_or_dense(self, case):
        coeffs, n = case
        rho, radius = stability._aberth_radius(*steps_of(coeffs), n, 1e-10)
        ref = reference_companion_radius(coeffs, n)
        if radius is None:
            assert rho == ref
            return
        assert radius <= 1e-10
        assert abs(rho - ref) <= radius + 8 * EPS * rho + dense_error_bound(coeffs, n)
        assert verdict(rho) == verdict(ref)

    def test_all_zero_coefficients_fall_back(self):
        coeffs = [np.zeros((2, 2))] * 40
        assert stability._aberth_radius(*steps_of(coeffs), 2, 1e-10) == (0.0, None)

    def test_zero_column_in_last_coefficient_falls_back(self):
        # P(z) keeps a column divisible by z^(m-1): a multiple root at 0
        coeffs = [np.zeros((2, 2))] * 40
        coeffs[0] = np.array([[0.4, -0.7], [0.9, 0.2]])
        coeffs[-1] = np.array([[0.5, 0.0], [0.3, 0.0]])
        rho, radius = stability._aberth_radius(*steps_of(coeffs), 2, 1e-10)
        assert radius is None
        assert rho == reference_companion_radius(coeffs, 2)

    @pytest.mark.parametrize("n, top", [(2, 3), (10, 12)])
    def test_small_or_wide_companions_stay_dense(self, n, top, monkeypatch):
        # n m = 6 is below the cutoff; n = 10, m = 12 is above it but has
        # n^2 > m, where the n x n solves outweigh the dense eigvals
        def boom(*args):
            raise AssertionError("structured route")

        monkeypatch.setattr(stability, "_aberth_radius", boom)
        rng = np.random.default_rng(n)
        vsys = dl.validate(dl.DelaySystem(n, [
            (Fraction(2), rng.uniform(-0.2, 0.2, (n, n)) / n),
            (Fraction(top), rng.uniform(-0.2, 0.2, (n, n)) / n),
        ]))
        form = dl.to_commensurate(vsys)
        rep = dl.stability_check(vsys, with_decay=False)
        assert rep.spectral_radius == reference_companion_radius(slots(form), n)

    def test_order_7_sqrt2_rung_certifies(self, ex3, monkeypatch):
        def boom(*args):
            raise AssertionError("dense fallback")

        rsys = dl.approximate_system(ex3, 7).to_system()
        form = dl.to_commensurate(rsys)
        assert 2 * form.m == 1154 >= stability.STRUCTURED_CUTOFF
        monkeypatch.setattr(stability, "_dense_companion_radius", boom)
        state = np.random.get_state()
        rho, radius = stability._aberth_radius(form.steps, form.m, 2, 1e-10)
        first = dl.stability_check(rsys, with_decay=False)
        second = dl.stability_check(rsys, with_decay=False)
        # dense eigvals on this companion, about 2 s
        assert abs(rho - 1.0003407872223922) <= radius + 8 * EPS * rho
        assert radius <= 1e-11
        # the check stops at its first Newton disk past 1 + EXACT_MARGIN: a
        # certified lower bound of the radius, and the same bits each time
        assert first.verdict == "unstable" and first.reason == LOWER_BOUND
        assert 1.0 + stability.EXACT_MARGIN <= first.spectral_radius <= rho + radius
        assert dataclasses.astuple(second) == dataclasses.astuple(first)
        for got, want in zip(np.random.get_state(), state):
            assert np.array_equal(got, want)

    def test_root_inside_the_margin_keeps_the_full_screen(self):
        # p = (z - r)(z^79 - 2^-79) with r = 1 + 5e-10: the largest root is
        # within EXACT_MARGIN of 1, so no Newton disk may end the screen
        # early, not even one taken without its factor n m at an iterate
        # past r; the check reads the full certified radius
        r, s = 1.0 + 5e-10, 0.5 ** 79
        raw = dl.DelaySystem(1, [(Fraction(1), [[r]]), (Fraction(79), [[s]]), (Fraction(80), [[-r * s]])])
        form = stability._commensurate_form(raw)
        rho, radius = stability._aberth_radius(form.steps, form.m, 1, 1e-10)
        assert abs(rho - r) <= radius <= 1e-10
        rep = dl.stability_check(raw, with_decay=False)
        assert (rep.verdict, rep.spectral_radius, rep.reason) == ("inconclusive", rho, None)

    @settings(max_examples=30, deadline=None)
    @given(case=structured_systems())
    def test_early_unstable_is_a_certified_lower_bound(self, case):
        # the check against the full screen on the same rewrite: it stops
        # early only on a radius past 1 + EXACT_MARGIN, within the full
        # screen's error, and otherwise reads the full screen's bits
        raw, n = case
        form = stability._commensurate_form(raw)
        rep = dl.stability_check(raw, with_decay=False)
        rho, radius = stability._aberth_radius(form.steps, form.m, n, stability.EXACT_MARGIN / 10.0)
        if rep.reason is None:
            assert rep.spectral_radius == rho
            return
        error = radius if radius is not None else dense_error_bound(slots(form), n)
        assert (rep.verdict, rep.reason) == ("unstable", LOWER_BOUND)
        assert rho >= 1.0 + stability.EXACT_MARGIN - error
        assert 1.0 + stability.EXACT_MARGIN <= rep.spectral_radius <= rho + error

    def test_order_6_sqrt2_rung_matches_dense(self, order6_rung):
        form, ref = order6_rung
        assert (form.m, 2 * form.m) == (239, 478)
        rho, radius = stability._aberth_radius(form.steps, form.m, 2, 1e-10)
        assert radius is not None
        assert abs(rho - ref) <= radius + 8 * EPS * rho
        assert verdict(rho) == verdict(ref) == "unstable"


    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("chunk", [40, 1 << 14])
    def test_pair_sums_match_row_sums(self, seed, chunk, monkeypatch):
        # roots with conjugate pairs and real ones; small chunks give many
        # row blocks, growing as the triangle narrows
        monkeypatch.setattr(fundamental, "CHUNK_ENTRIES", chunk)
        rng = np.random.default_rng(seed)
        upper = rng.normal(size=40) + 1j * rng.normal(size=40)
        z = rng.permutation(np.concatenate([upper, upper.conj(), rng.normal(size=17) + 0j]))
        recip = 1.0 / (z[:, None] - z[None, :] + np.diag(np.full(z.size, np.inf)))
        want = np.sum(recip, axis=1)
        scale = np.sum(np.abs(recip), axis=1)
        # the blocks are single precision on z / max|z|: rounding there moves
        # each root by at most (EPS32 + EPS) / 2 max|z|, so a difference d by
        # at most twice that, delta, and 1/d by |delta| / (|d| (|d| - |delta|));
        # the float32 arithmetic (about 7 roundings a term) and sums then add
        # at most gamma_(N+6) sum |1/d| <= N EPS32 sum |1/d| for N >= 7
        dist = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(z.size, np.inf))
        delta = (EPS32 + EPS) * np.max(np.abs(z))
        moved = np.sum(delta / (dist * (dist - delta)), axis=1)
        for rows in (z.size, 31, 1):
            with np.errstate(divide="ignore"):
                got = stability._block_sums(z, rows, None)
            assert got.shape == (rows,)
            assert np.all(np.abs(got - want[:rows]) <= z.size * EPS32 * scale[:rows] + moved[:rows])

    @pytest.mark.parametrize("factor", [1e30, 1e-30])
    def test_pair_sums_of_far_roots_stay_finite(self, factor):
        # float32 alone overflows past 1.8e19 and underflows below 1e-19 on
        # |d|^2; the sums are taken on z / max|z| and scaled back
        rng = np.random.default_rng(3)
        z = rng.normal(size=60) + 1j * rng.normal(size=60)
        with np.errstate(divide="ignore"):
            base = stability._block_sums(z, z.size, None)
            got = stability._block_sums(z * factor, z.size, None)
        assert got.dtype == np.complex128
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got * factor - base) <= 1e-6 * np.max(np.abs(base)))

    def test_certificate_does_not_trust_the_pair_sums(self, order6_rung, monkeypatch):
        # the sums only steer the iteration: with a relative error of 1e-3
        # in each pair sum (mirrored None), the order-6 rung still certifies
        # by its Newton disks
        exact = stability._block_sums
        wobble = np.exp(2j * np.pi * np.random.default_rng(0).uniform(size=478))

        def off(z, rows, mirrored):
            sums = exact(z, rows, mirrored)
            return sums if mirrored is not None else sums * (1.0 + 1e-3 * wobble[:rows])

        monkeypatch.setattr(stability, "_block_sums", off)
        form, ref = order6_rung
        assert 2 * form.m == 478
        rho, radius = stability._aberth_radius(form.steps, form.m, 2, 1e-10)
        assert radius is not None and radius <= 1e-10
        assert abs(rho - ref) <= radius + 8 * EPS * rho

    @pytest.mark.parametrize("seed", range(3))
    def test_doubled_roots_fall_back(self, seed):
        # every C_j = c_j I_2 doubles each root, so no disk set is disjoint
        rng = np.random.default_rng(seed)
        coeffs = [np.zeros((2, 2))] * 50
        for j in (7, 19, 50):
            coeffs[j - 1] = rng.uniform(-0.4, 0.4) * np.eye(2)
        rho, radius = stability._aberth_radius(*steps_of(coeffs), 2, 1e-10)
        assert radius is None
        assert rho == reference_companion_radius(coeffs, 2)

    def test_singular_p_keeps_a_nonzero_disk(self):
        # P(1/2) = diag(0, 0.2) is exactly singular: a zero correction, but
        # the disk keeps its rounding allowance
        c = np.diag([0.5, 0.3])
        assert stability._det_p(np.array([0.5 + 0.0j]), [1], [c], 2, 1)[0] == 0.0
        rho, radius = stability._aberth_radius(((1, c),), 1, 2, 1e-10)
        assert rho == 0.5
        assert radius >= 2 * EPS * rho > 0.0

    def test_order_8_sqrt2_rung_certifies(self, ex3, monkeypatch):
        def boom(*args):
            raise AssertionError("dense fallback")

        form = dl.approximate_system(ex3, 8)
        assert 2 * form.m == 2786
        monkeypatch.setattr(stability, "_dense_companion_radius", boom)
        rho, radius = stability._aberth_radius(form.steps, form.m, 2, 1e-10)
        # the radius the root-pair Weierstrass certificate gave on this rung
        assert abs(rho - 1.0001411454177214) <= radius <= 1e-11

    @settings(max_examples=10, deadline=None)
    @given(case=real_root_companions())
    def test_real_roots_certified_or_dense(self, case):
        coeffs, n = case
        rho, radius = stability._aberth_radius(*steps_of(coeffs), n, 1e-10)
        ref = reference_companion_radius(coeffs, n)
        if radius is None:
            assert rho == ref
            return
        assert radius <= 1e-10
        # the dense error bound takes eigenvectors, O(N^3) again: only asked
        # for when the distance exceeds the certified error
        near = radius + 8 * EPS * rho
        assert abs(rho - ref) <= near or abs(rho - ref) <= near + dense_error_bound(coeffs, n)
        assert verdict(rho) == verdict(ref)

    @pytest.mark.parametrize("wrong", ["none", "one", "extra"])
    def test_wrong_real_root_count_retries(self, order6_rung, wrong, monkeypatch):
        # the order-6 rung has two real roots; a count of 0 or 4 leaves the
        # symmetric run uncertified, and a count of 1 has the wrong parity
        # and no symmetric start; either way the asymmetric run answers
        scan, start = stability._real_roots, stability._newton_polygon_start
        asked = []

        def miscount(*args):
            reals = scan(*args)
            assert reals.size == 2
            return {"none": reals[:0], "one": reals[:1], "extra": np.append(reals, [0.5, 0.6])}[wrong]

        def record(steps, blocks, n, m, symmetric):
            asked.append(symmetric)
            return start(steps, blocks, n, m, symmetric)

        monkeypatch.setattr(stability, "_real_roots", miscount)
        monkeypatch.setattr(stability, "_newton_polygon_start", record)
        form, ref = order6_rung
        rho, radius = stability._aberth_radius(form.steps, form.m, 2, 1e-10)
        assert asked == [True, False]
        assert radius is not None and radius <= 1e-10
        assert abs(rho - ref) <= radius + 8 * EPS * rho

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("chunk", [40, 1 << 14])
    def test_mirror_sums_complete_the_full_set(self, seed, chunk, monkeypatch):
        # 40 mirrored roots, some near the real axis, and 9 real ones in a
        # shuffled order: the direct and mirror sums of a root add to its
        # sum over the full set of 89, within the float32 bound of
        # test_pair_sums_match_row_sums taken over that set
        monkeypatch.setattr(fundamental, "CHUNK_ENTRIES", chunk)
        rng = np.random.default_rng(seed)
        upper = rng.normal(size=40) + 1j * np.abs(rng.normal(size=40)) * np.where(np.arange(40) < 5, 1e-3, 1.0)
        z = np.concatenate([upper, rng.normal(size=9) + 0j])
        order = rng.permutation(z.size)
        z, mirrored = z[order], (np.arange(z.size) < 40)[order]
        full = np.concatenate([z, z[mirrored].conj()])
        dist = np.abs(full[:, None] - full[None, :]) + np.diag(np.full(full.size, np.inf))
        want = np.sum(1.0 / (full[:, None] - full[None, :] + np.diag(np.full(full.size, np.inf))), axis=1)
        delta = (EPS32 + EPS) * np.max(np.abs(full))
        bound = full.size * EPS32 * np.sum(1.0 / dist, axis=1) + np.sum(delta / (dist * (dist - delta)), axis=1)
        for rows in (z.size, 31, 1):
            with np.errstate(divide="ignore"):
                got = stability._block_sums(z, rows, None) + stability._mirror_sums(z, rows, mirrored)
            assert np.all(np.abs(got - want[:rows]) <= bound[:rows])

    def test_near_real_root_meets_its_own_mirror(self):
        # one mirrored root stands for z and conj(z); with |p/p'| = 1e-13 its
        # disk has radius 2 (1e-13 + eps |z|) and meets its mirror's when
        # Im z = 1e-13, not when Im z = 1e-6
        newton, mirrored = np.array([1e-13]), np.array([True])
        assert stability._certificate(np.array([0.5 + 1e-13j]), mirrored, newton, 1e-10) is None
        rho, radius = stability._certificate(np.array([0.5 + 1e-6j]), mirrored, newton, 1e-10)
        assert rho == abs(0.5 + 1e-6j)
        assert 2e-13 < radius < 3e-13
        # as a plain root, with no mirror, the same disk certifies
        assert stability._certificate(np.array([0.5 + 1e-13j]), ~mirrored, newton, 1e-10) is not None

    @pytest.mark.parametrize("order", [4, 7])
    def test_perturbed_sqrt2_rungs_certify_symmetric(self, ex3, order, monkeypatch):
        # example 3 with each entry scaled by 1 + U(-0.02, 0.02), as the
        # benchmark's ladder draws it: the symmetric start certifies, with
        # neither the asymmetric retry nor dense eigvals to fall back on
        start = stability._newton_polygon_start

        def symmetric_only(steps, blocks, n, m, symmetric):
            if not symmetric:
                raise AssertionError("asymmetric retry")
            return start(steps, blocks, n, m, symmetric)

        def boom(*args):
            raise AssertionError("dense fallback")

        monkeypatch.setattr(stability, "_newton_polygon_start", symmetric_only)
        monkeypatch.setattr(stability, "_dense_companion_radius", boom)
        rng = np.random.default_rng(19)
        for _ in range(5):
            entries = [(d, a * (1.0 + rng.uniform(-0.02, 0.02, a.shape))) for d, a in ex3.system.entries]
            form = dl.approximate_system(dl.validate(dl.DelaySystem(2, entries)), order)
            rho, radius = stability._aberth_radius(form.steps, form.m, 2, 1e-10)
            assert radius <= 1e-10
            assert verdict(rho) == "unstable"


class TestScreenKernels:
    """The powers and the rung guard behind the certified companion screen."""

    def test_powers_match_fifty_digits(self):
        import mpmath

        # |w| from 0.8 keeps w^3000 above 1e-300, clear of underflow
        rng = np.random.default_rng(5)
        w = np.concatenate([
            rng.uniform(0.8, 1.0, 6) * np.exp(2j * np.pi * rng.uniform(size=6)),
            np.exp(2j * np.pi * rng.uniform(size=3)), [1.0, -1.0, 1j, -0.8, 0.0],
        ])
        top = 3000
        got = stability._powers(w, np.broadcast_to(np.arange(top + 1)[:, None], (top + 1, w.size)))
        # a complex product rounds by at most sqrt(5) u relatively (u = eps / 2;
        # Brent, Percival & Zimmermann, Math. Comp. 76, 2007); the ladder's
        # w^e passes the error of its square w^(2^b) on with weight e >> b,
        # so its roundings weigh e - 1 in all, as e - 1 plain products would
        unit = math.sqrt(5.0) * EPS / 2
        with mpmath.workdps(50):
            for k, wk in enumerate(w):
                base, exact = mpmath.mpc(wk.real, wk.imag), mpmath.mpc(1)
                for e in range(top + 1):
                    bound = math.expm1(max(e - 1, 0) * math.log1p(unit)) * float(abs(exact))
                    assert float(abs(mpmath.mpc(got[e, k].real, got[e, k].imag) - exact)) <= bound, (wk, e)
                    exact *= base

    def test_half_sqrt2_rungs_certify(self, ex3, monkeypatch):
        # example 3 times 0.5 (torus radius 0.6) at orders 4 to 8, n m = 82 to 2786
        def boom(*args):
            raise AssertionError("dense fallback")

        half = dl.validate(dl.DelaySystem(2, [(d, 0.5 * a) for d, a in ex3.system.entries]))
        monkeypatch.setattr(stability, "_dense_companion_radius", boom)
        for order in range(4, 9):
            form = dl.approximate_system(half, order)
            assert 2 * form.m >= stability.STRUCTURED_CUTOFF
            rho, radius = stability._aberth_radius(form.steps, form.m, 2, 1e-10)
            assert radius <= 1e-10
            assert verdict(rho) == "stable"

class TestEdgeStarts:
    """The symmetric start at the roots of the Newton polygon's edge
    binomials, and the early end of a run from a miscounted start."""

    @pytest.mark.parametrize("c, e", [(2.5, 7), (2.5, 6), (-0.7, 5), (-0.7, 6)])
    def test_scalar_binomial_edge_is_exact(self, c, e):
        # the edge from -c z^0 to z^e is the binomial z^e - c: its starts are
        # the roots of z^e = c above the real axis, and each one on the axis
        # turned a quarter of the ring's step, pi / (4 e), into the upper half
        import mpmath

        got = stability._edge_roots((0, math.log(abs(c)), np.array([[-c]])), (e, 0.0, np.eye(1)), 1)
        with mpmath.workdps(40):
            roots = [complex(mpmath.root(c, e, k)) for k in range(e)]
        size = abs(c) ** (1.0 / e)
        above = [z for z in roots if z.imag > 1e-9 * size]
        turned = [z * np.exp(1j * np.sign(z.real) * np.pi / (4 * e)) for z in roots if abs(z.imag) <= 1e-9 * size]
        want = np.array(sorted(above + turned, key=np.angle))
        assert got.shape == want.shape
        assert np.all(np.abs(got[np.argsort(np.angle(got))] - want) <= 8 * EPS * size)

    def test_scalar_symmetric_start_is_the_roots(self):
        # p = z^31 - 2.5: the scan brackets the one real root, and the 15
        # mirrored starts are the roots above the axis, the turned one dropped
        m, c = 31, 2.5
        z, mirrored, real = stability._newton_polygon_start([m], [np.array([[c]])], 1, m, True)
        assert (np.count_nonzero(mirrored), np.count_nonzero(real)) == (15, 1)
        size = c ** (1.0 / m)
        assert abs(z[real][0] - size) <= size / m
        want = size * np.exp(2j * np.pi * np.arange(1, 16) / m)
        assert np.all(np.abs(np.sort_complex(z[mirrored]) - np.sort_complex(want)) <= 8 * EPS * size)

    @pytest.mark.parametrize("which", ["high", "low"])
    def test_singular_edge_matrix_keeps_the_circle(self, which):
        # S2 = -diag(8, 0) has no inverse, and with S1 = -diag(8, 0) the
        # eigenvalue 0 would start e roots at 0: both edges start on their
        # circles, |z| = exp((l1 - l2) / e), n e / 2 points above the axis
        sing = (math.log(8.0), -np.diag([8.0, 0.0]))
        low, high = {"high": ((0, math.log(0.5), -0.5 * np.eye(2)), (35,) + sing), "low": ((35,) + sing, (40, 0.0, np.eye(2)))}[which]
        e = high[0] - low[0]
        got = stability._edge_roots(low, high, 2)
        assert got.size == e and np.all(got.imag > 0.0)
        assert np.all(np.abs(np.abs(got) - math.exp((low[1] - high[1]) / e)) <= 8 * EPS * np.abs(got))

    def test_singular_hull_vertex_certifies_symmetric(self, monkeypatch):
        # C_5 = diag(8, 0) is a vertex of the hull, singular at both its edges
        start = stability._newton_polygon_start

        def symmetric_only(steps, blocks, n, m, symmetric):
            if not symmetric:
                raise AssertionError("asymmetric retry")
            return start(steps, blocks, n, m, symmetric)

        monkeypatch.setattr(stability, "_newton_polygon_start", symmetric_only)
        coeffs = [np.zeros((2, 2))] * 40
        coeffs[4], coeffs[39] = np.diag([8.0, 0.0]), np.array([[0.5, 0.1], [-0.2, 0.4]])
        rho, radius = stability._aberth_radius(*steps_of(coeffs), 2, 1e-10)
        assert radius <= 1e-10
        assert abs(rho - reference_companion_radius(coeffs, 2)) <= radius + 8 * EPS * rho + dense_error_bound(coeffs, 2)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_sweep_budget(self, ex3, scale, monkeypatch):
        # example 3, plain and times 0.5, at orders 4, 7 and 8: the symmetric
        # run certifies in at most 5 sweeps (6 or 7 from the circles), one
        # _det_p call each plus one for the certificate
        start, det_p = stability._newton_polygon_start, stability._det_p
        calls = []

        def symmetric_only(steps, blocks, n, m, symmetric):
            if not symmetric:
                raise AssertionError("asymmetric retry")
            return start(steps, blocks, n, m, symmetric)

        def counted(z, *args):
            calls.append(z.size)
            return det_p(z, *args)

        def boom(*args):
            raise AssertionError("dense fallback")

        monkeypatch.setattr(stability, "_newton_polygon_start", symmetric_only)
        monkeypatch.setattr(stability, "_det_p", counted)
        monkeypatch.setattr(stability, "_dense_companion_radius", boom)
        system = dl.validate(dl.DelaySystem(2, [(d, scale * a) for d, a in ex3.system.entries]))
        for order in (4, 7, 8):
            calls.clear()
            form = dl.approximate_system(system, order)
            rho, radius = stability._aberth_radius(form.steps, form.m, 2, 1e-10)
            assert radius <= 1e-10
            assert len(calls) - 1 <= 5, (order, calls)

    def test_miscounted_start_ends_early(self, order6_rung, monkeypatch):
        # a scan that misses the two real roots of the order-6 rung leaves a
        # mirrored root to close on them with its mirror; once it is all that
        # still moves, its Newton step reaches the axis and the run ends, well
        # before ABERTH_SWEEPS, and the asymmetric run answers
        scan, start, det_p = stability._real_roots, stability._newton_polygon_start, stability._det_p
        events = []

        def record(steps, blocks, n, m, symmetric):
            events.append(symmetric)
            return start(steps, blocks, n, m, symmetric)

        def counted(z, *args):
            events.append("sweep")
            return det_p(z, *args)

        monkeypatch.setattr(stability, "_real_roots", lambda *args: scan(*args)[:0])
        monkeypatch.setattr(stability, "_newton_polygon_start", record)
        monkeypatch.setattr(stability, "_det_p", counted)
        form, ref = order6_rung
        rho, radius = stability._aberth_radius(form.steps, form.m, 2, 1e-10)
        assert radius is not None and abs(rho - ref) <= radius + 8 * EPS * rho
        assert events[0] is True and events.count(True) == 1 and events.count(False) == 1
        assert events.index(False) - 1 <= 10 < stability.ABERTH_SWEEPS

    @pytest.mark.parametrize("seed", [11, 12, 15, 17, 24])
    def test_slow_pair_near_the_axis_is_not_ended(self, seed, monkeypatch):
        # z^31 - c_3 z^28 - c_24 z^7 - c_31: a mirrored root closes on a
        # complex root near the axis at a linear rate, its Newton disk
        # (31 |p/p'|) across the axis for sweeps but its Newton step not;
        # ending on the disk gave up these runs at sweep 6 of 8-11
        start = stability._newton_polygon_start

        def symmetric_only(steps, blocks, n, m, symmetric):
            if not symmetric:
                raise AssertionError("asymmetric retry")
            return start(steps, blocks, n, m, symmetric)

        def boom(*args):
            raise AssertionError("dense fallback")

        monkeypatch.setattr(stability, "_newton_polygon_start", symmetric_only)
        monkeypatch.setattr(stability, "_dense_companion_radius", boom)
        rng = np.random.default_rng(seed)
        coeffs = [np.zeros((1, 1))] * 31
        for j in (3, 24, 31):
            coeffs[j - 1] = rng.normal(size=(1, 1))
        rho, radius = stability._aberth_radius(*steps_of(coeffs), 1, 1e-10)
        assert radius <= 1e-10
        assert abs(rho - reference_companion_radius(coeffs, 1)) <= radius + 8 * EPS * rho + dense_error_bound(coeffs, 1)


class TestTorusQuotient:
    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(2, 3), n=st.integers(1, 3), points=st.integers(1, 24),
           scale=st.floats(0.05, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_fixed_first_phase_matches_full_grid(self, q, n, points, scale, seed):
        rng = np.random.default_rng(seed)
        mats = [scale * rng.normal(size=(n, n)) for _ in range(q)]
        want, at, full = reference_torus_radius(mats, points)
        got = stability._torus_radius(mats, points)
        assert abs(got - want) <= torus_quotient_bound(mats, points, at, full)

    def test_example3_matches_full_grid(self, ex3):
        mats = list(ex3.matrices)
        want, at, full = reference_torus_radius(mats, stability.TORUS_POINTS)
        got = stability._torus_radius(mats, stability.TORUS_POINTS)
        assert abs(got - want) <= torus_quotient_bound(mats, stability.TORUS_POINTS, at, full)
        # the full grid's radius of example 3 written with 0.8 and -1.2,
        # which the fixture's 0.1 + 0.7 and -0.1 - 1.1 miss by an ulp
        assert abs(got - 1.1998571264310205) <= 1e-12

    def test_example3_takes_64_evaluations(self, ex3, monkeypatch):
        # the full grid took 64^2
        sizes = []
        eigvals = np.linalg.eigvals

        def counted(a):
            sizes.append(a.shape[0])
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        rep = dl.stability_check(ex3)
        assert (rep.method, rep.grid_points, rep.verdict) == ("torus_grid_heuristic", 64, "unstable")
        assert sum(sizes) == 64


class TestTorusCap:
    def test_five_float_delays_shrink_the_grid(self):
        delays = [1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.sqrt(7.0)]
        mats = [np.array([[c]]) for c in (0.1, -0.05, 0.08, 0.02, -0.07)]
        vsys = dl.validate(dl.DelaySystem(1, list(zip(delays, mats))))
        rep = dl.stability_check(vsys)
        assert 64 ** 4 > stability.TORUS_MAX_EVALS
        assert rep.grid_points == 22
        assert 22 ** 4 <= stability.TORUS_MAX_EVALS < 23 ** 4
        assert rep.method == "torus_grid_heuristic" and rep.verdict == "inconclusive"
        assert "22^4 evaluations" in rep.reason and rep.to_dict()["reason"] == rep.reason

    def test_capped_grid_still_flags_instability(self):
        delays = [1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.sqrt(7.0)]
        mats = [np.array([[c]]) for c in (0.6, 0.5, -0.4, 0.35, 0.3)]
        rep = dl.stability_check(dl.validate(dl.DelaySystem(1, list(zip(delays, mats)))))
        assert (rep.grid_points, rep.verdict) == (22, "unstable")
        assert rep.reason is not None

    def test_four_float_delays_take_the_full_grid(self):
        delays = [1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)]
        mats = [np.array([[c]]) for c in (0.6, 0.5, -0.4, 0.35)]
        rep = dl.stability_check(dl.validate(dl.DelaySystem(1, list(zip(delays, mats)))))
        assert 64 ** 3 == stability.TORUS_MAX_EVALS
        assert (rep.grid_points, rep.verdict, rep.reason) == (64, "unstable", None)

    def test_uncapped_grid_has_no_reason(self, ex3):
        rep = dl.stability_check(ex3)
        assert (rep.grid_points, rep.reason) == (64, None)
        assert "reason" not in rep.to_dict()


class TestJson:
    def test_roundtrip_exact_delays(self, ex2a):
        text = dl.system_to_json(ex2a.system)
        back = dl.system_from_json(text)
        assert back.delays == ex2a.delays
        for got, want in zip(back.matrices, ex2a.matrices):
            np.testing.assert_array_equal(got, want)

    def test_exact_delay_encoding(self, ex2a):
        data = json.loads(dl.system_to_json(ex2a.system))
        assert data["entries"][1]["delay"] == {"num": 3, "den": 2}

    def test_float_delay_roundtrip(self, ex3):
        back = dl.system_from_json(dl.system_to_json(ex3.system))
        assert back.delays == ex3.delays

    def test_int_delay_parsed_exact(self):
        back = dl.system_from_json('{"n": 1, "entries": [{"delay": 2, "A": [[0.5]]}]}')
        assert back.delays == (Fraction(2),)

    @pytest.mark.parametrize("text", [
        "not json",
        "[1, 2]",
        '{"entries": []}',
        '{"n": 1, "entries": []}',
        '{"n": 1, "entries": [{"delay": 1}]}',
        '{"n": 1, "entries": [{"delay": true, "A": [[0.5]]}]}',
        '{"n": 1, "entries": [{"delay": NaN, "A": [[0.5]]}]}',
        '{"n": 2, "entries": [{"delay": 1, "A": [[0.5]]}]}',
        '{"n": 1, "entries": [{"delay": {"num": 1}, "A": [[0.5]]}]}',
        '{"n": 1, "entries": [{"delay": {"num": 1, "den": 0}, "A": [[0.5]]}]}',
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(dl.ParseError):
            dl.system_from_json(text)

    def test_integer_too_large_for_a_float_rejected(self):
        text = '{"n": 1, "entries": [{"delay": 1, "A": [[%s]]}]}' % ("1" * 400)
        with pytest.raises(dl.ParseError):
            dl.system_from_json(text)

    def test_load_system(self, tmp_path, scalar_half):
        path = tmp_path / "sys.json"
        path.write_text(dl.system_to_json(scalar_half.system))
        assert dl.load_system(path).delays == (Fraction(1),)
