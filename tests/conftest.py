"""Shared fixtures: the worked systems every suite file leans on.

Builds are session scoped because the commensurate solves, while fast,
add up across property tests.

HYPOTHESIS_PROFILE=ci loads the "ci" profile: derandomized examples, and
a failing example printed with the blob that reproduces it, so a failure
in a CI log replays locally.  Without it the default profile applies.
"""

from fractions import Fraction
import math
import os

import numpy as np
import pytest
from hypothesis import settings, strategies as st

import delaylyap as dl

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


# ---------------------------------------------------------------- systems

@pytest.fixture(scope="session")
def w1():
    return dl.WeightMatrix.identity(1)


@pytest.fixture(scope="session")
def w2():
    return dl.WeightMatrix.identity(2)


@pytest.fixture(scope="session")
def scalar_half():
    """x(t) = 0.5 x(t-1), the hand-solvable geometric case."""
    return dl.validate(dl.DelaySystem.single(0.5, Fraction(1)))


@pytest.fixture(scope="session")
def ex1():
    # unstable on purpose: the build is purely algebraic
    a = np.array([[-0.9375, 1.11844], [0.3732, -1.3009]])
    return dl.validate(dl.DelaySystem.single(a, Fraction(1)))


EX2A_MATS = (
    np.array([[-0.4, -0.3], [0.1, 0.15]]),
    np.array([[0.1, 0.25], [-0.9, -0.1]]),
)

EX2B_MATS = (
    np.array([[1.1, 0.0], [-0.4, 0.0]]),
    np.array([[0.25, -0.125], [-0.4, -0.5]]),
)


def _two_delay(mats, scale=1.0):
    pairs = [
        (Fraction(1), scale * mats[0]),
        (Fraction(3, 2), scale * mats[1]),
    ]
    return dl.validate(dl.DelaySystem(2, pairs))


@pytest.fixture(scope="session")
def ex2a():
    return _two_delay(EX2A_MATS)


@pytest.fixture(scope="session")
def ex2b():
    return _two_delay(EX2B_MATS)


@pytest.fixture(scope="session")
def ex2a_half():
    """Example 2(a) matrices halved: comfortably stable, used wherever a
    convergent integral is required."""
    return _two_delay(EX2A_MATS, scale=0.5)


@pytest.fixture(scope="session")
def ex3():
    a, b = 0.7, -1.1
    pairs = [
        (Fraction(1), np.array([[-0.4, -0.3], [0.1 + a, 0.15]])),
        (math.sqrt(2.0), np.array([[0.1, 0.25], [-0.9, -0.1 + b]])),
    ]
    return dl.validate(dl.DelaySystem(2, pairs))


# ---------------------------------------------------------------- builds

@pytest.fixture(scope="session")
def u_scalar(scalar_half, w1):
    return dl.build_single_delay(scalar_half, w1)


@pytest.fixture(scope="session")
def u_ex1(ex1, w2):
    return dl.build_single_delay(ex1, w2)


@pytest.fixture(scope="session")
def u_ex2a(ex2a, w2):
    return dl.build_commensurate(dl.to_commensurate(ex2a), w2)


@pytest.fixture(scope="session")
def u_ex2b(ex2b, w2):
    return dl.build_commensurate(dl.to_commensurate(ex2b), w2)


@pytest.fixture(scope="session")
def u_ex2a_half(ex2a_half, w2):
    return dl.build_commensurate(dl.to_commensurate(ex2a_half), w2)


@pytest.fixture(scope="session")
def report_ex2a_half(ex2a_half):
    return dl.stability_check(ex2a_half)


# ---------------------------------------------------------------- helpers

def assert_bits_equal(got, want):
    """Equal shapes and equal bits, so -0.0 differs from 0.0."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def gamma(count):
    """gamma_N = N u / (1 - N u), u the unit roundoff: a chain of N
    floating-point operations on terms t_i is within gamma_N sum |t_i| of
    its exact value (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1)."""
    nu = count * np.finfo(float).eps / 2.0
    return nu / (1.0 - nu)


def random_stable_single(seed, n=2, radius=0.8):
    """Deterministic random single-delay system with spectral radius
    exactly `radius`."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        rho = max(abs(np.linalg.eigvals(a)))
        if rho > 1e-3:
            break
    a *= radius / rho
    return dl.validate(dl.DelaySystem.single(a, Fraction(1)))


FLOAT_DELAY_SETS = (
    (1.0, math.sqrt(2.0)),
    (1.0, math.sqrt(2.0), math.sqrt(3.0)),
    (0.5, 1.25),
)


@st.composite
def commensurate_systems(draw, delays=st.integers(2, 3)):
    """Random rational systems with q = 2..3 delays (or as drawn from
    delays) and m <= 30 steps.  The 2-norms of the coefficients sum to
    0.6, which keeps every companion eigenvalue below 0.6 and so the block
    system regular."""
    n = draw(st.integers(1, 3))
    q = draw(delays)
    den = draw(st.integers(1, 4))
    steps = sorted(draw(st.sets(st.integers(1, 30), min_size=q, max_size=q)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in range(q)]
    scale = 0.6 / sum(np.linalg.norm(a, 2) for a in mats)
    pairs = [(Fraction(k, den), scale * a) for k, a in zip(steps, mats)]
    return dl.validate(dl.DelaySystem(n, pairs))


@st.composite
def two_route_cases(draw):
    """(system, weight) pairs for the vectorised two-route sums: either
    rational delays k/den with q = 1..3, or one of the float delay sets
    (lattices merged within a tolerance).  The 2-norms of the
    coefficients sum to 0.6 and the weight is a random symmetric matrix."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        q = draw(st.integers(1, 3))
        den = draw(st.integers(1, 4))
        steps = sorted(draw(st.sets(st.integers(1, 12), min_size=q, max_size=q)))
        delays = [Fraction(k, den) for k in steps]
    else:
        delays = list(draw(st.sampled_from(FLOAT_DELAY_SETS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in delays]
    scale = 0.6 / sum(np.linalg.norm(a, 2) for a in mats)
    vsys = dl.validate(dl.DelaySystem(n, [(d, scale * a) for d, a in zip(delays, mats)]))
    half = rng.uniform(-1.0, 1.0, size=(n, n))
    return vsys, dl.WeightMatrix(half + half.T)


def slots(form):
    """C_1..C_m of a commensurate form, a zero block at each step it does
    not list: the every-slot layout that the references read."""
    out = [np.zeros((form.n, form.n))] * form.m
    for j, c in form.steps:
        out[j - 1] = c
    return out


def steps_of(coeffs):
    """(steps, m) of the slot list C_1..C_m: the (j, C_j) of its nonzero
    blocks by increasing j, and m = len(coeffs)."""
    return tuple((j, c) for j, c in enumerate(coeffs, start=1) if np.any(c)), len(coeffs)


def certificate(vsys):
    """A stable report with a decay envelope, handed to the oracles and
    series so they run without a stability check; their sums do not
    depend on it, only their tail bounds do."""
    return dl.StabilityReport(
        method="external_certificate",
        spectral_radius=0.6,
        verdict="stable",
        rate_step=vsys.h_max,
        decay_gain=2.0,
        decay_rate=0.1,
    )
