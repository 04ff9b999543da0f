"""Acceptance gate: every shipping criterion, one printed verdict line each.

Each test prints `criterion <k> <label>: PASS|FAIL` straight to the
terminal (bypassing capture) and then asserts, so a full `pytest -v` run
shows nine verdict lines regardless of outcome.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import delaylyap as dl

from conftest import EX2A_MATS, random_stable_single


def _report(capfd, num, label, ok, detail=""):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capfd.disabled():
        print(line)
    assert ok, line


def test_criterion_1_scalar_closed_form(capfd, scalar_half, w1):
    tic = time.perf_counter()
    u = dl.build_single_delay(scalar_half, w1)
    got = {tau: u.evaluate(tau)[0, 0] for tau in (0.0, 0.5, 1.0, -1.0)}
    elapsed = time.perf_counter() - tic
    want = {0.0: -8 / 3, 0.5: -2.0, 1.0: -4 / 3, -1.0: -16 / 3}
    worst = max(abs(got[t] - want[t]) for t in want)
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(capfd, 1, "scalar closed form", ok,
            f"max err {worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_integral_oracle_equivalence(capfd):
    tic = time.perf_counter()
    systems = [dl.validate(dl.DelaySystem.single(np.diag([0.5, -0.3]), Fraction(1)))]
    systems += [random_stable_single(seed) for seed in range(20)]
    worst_margin = -math.inf
    ok = True
    for vsys in systems:
        w = dl.WeightMatrix.identity(vsys.n)
        u = dl.build_single_delay(vsys, w)
        rep = dl.cross_check(u, vsys, w, slack=1e-8)
        assert len(rep.grid) == 101
        ok = ok and rep.passed
        worst_margin = max(worst_margin, rep.max_error - rep.max_bound)
    elapsed = time.perf_counter() - tic
    ok = ok and elapsed < 10.0
    _report(capfd, 2, "integral oracle equivalence", ok,
            f"21 systems, worst err-bound gap {worst_margin:.2e}, {elapsed:.2f}s")


def test_criterion_3_construction_residuals(capfd, ex1, ex2a, ex2b, w2,
                                            u_ex1, u_ex2a, u_ex2b):
    worst = 0.0
    for u, vsys in ((u_ex1, ex1), (u_ex2a, ex2a), (u_ex2b, ex2b)):
        rep = dl.residuals(u, vsys, w2)
        worst = max(worst, rep.symmetry, rep.dynamic, rep.continuity)
    ok = worst <= 1e-8
    _report(capfd, 3, "construction residuals on the worked systems", ok,
            f"max residual {worst:.2e}")


def test_criterion_4_antisymmetric_constant(capfd, scalar_half, ex1, ex2a,
                                            ex2b, ex2a_half, ex3, w1, w2):
    asym = 0.0
    for vsys, w in ((scalar_half, w1), (ex1, w2), (ex2a, w2),
                    (ex2b, w2), (ex2a_half, w2), (ex3, w2)):
        p = dl.p_matrix(vsys, w)
        asym = max(asym, float(np.max(np.abs(p + p.T))))
    gap = 0.0
    for vsys, w in ((scalar_half, w1), (ex2a, w2), (ex2a_half, w2)):
        est = dl.p_integral_oracle(vsys, w)
        gap = max(gap, float(np.max(np.abs(dl.p_matrix(vsys, w) - est.value))))
    ok = asym <= 1e-12 and gap <= 1e-8
    _report(capfd, 4, "antisymmetric constant vs integral route", ok,
            f"antisymmetry {asym:.2e}, oracle gap {gap:.2e}")


def test_criterion_5_duality_and_simulation(capfd, scalar_half, ex1, ex2a,
                                            ex2b, ex2a_half, ex3):
    side_gap = 0.0
    for vsys in (scalar_half, ex1, ex2a, ex2b, ex2a_half, ex3):
        horizon = 10.0 * vsys.h_max
        kr = dl.fundamental_matrix(vsys, horizon, "right")
        kl = dl.fundamental_matrix(vsys, horizon, "left")
        ts = np.linspace(0.0, horizon, 400)
        side_gap = max(side_gap, float(np.max(np.abs(
            kr.value_many(ts) - kl.value_many(ts)))))
    phis = [
        dl.InitialFunction.constant([1.0, -0.5]),
        dl.InitialFunction([-1.5, -0.71], [[0.2, 1.0], [-1.0, 0.4]]),
        dl.InitialFunction([-1.5, -0.9, -0.23], [[1.0, 0.0], [0.0, -1.0], [0.5, 0.5]]),
    ]
    sim_gap = 0.0
    grid = np.linspace(0.0, 7.5, 200)
    for phi in phis:
        a = dl.simulate(ex2a, phi, grid)
        b = dl.simulate_cauchy(ex2a, phi, grid)
        sim_gap = max(sim_gap, float(np.max(np.abs(a - b))))
    ok = side_gap <= 1e-12 and sim_gap <= 1e-9
    _report(capfd, 5, "two-sided fundamental matrix and response routes", ok,
            f"side gap {side_gap:.2e}, response gap {sim_gap:.2e}")


def test_criterion_6_derivative_jump_properties(capfd, ex2a_half, u_ex2a_half,
                                                w2, report_ex2a_half):
    horizon = 12.0
    while True:
        props = dl.check_jump_properties(
            ex2a_half, w2, horizon=horizon, report=report_ex2a_half
        )
        if props.tail_bound <= 1e-9:
            break
        horizon += 0.5
    residual_ok = props.max_residual() <= 10.0 * props.tail_bound
    nsd_ok = props.nsd_max_eigenvalue <= 1e-10
    spectrum = dl.jumps_from_segments(u_ex2a_half)
    route_gap = 0.0
    route_ok = True
    for tau in spectrum.taus:
        est = dl.delta_u_prime(ex2a_half, w2, float(tau), horizon,
                               report=report_ex2a_half)
        gap = float(np.max(np.abs(est.value - spectrum.jump_at(float(tau)))))
        route_gap = max(route_gap, gap)
        route_ok = route_ok and gap <= est.tail_bound
    ok = residual_ok and nsd_ok and route_ok
    _report(capfd, 6, "derivative jump properties", ok,
            f"bound {props.tail_bound:.2e}, residual {props.max_residual():.2e}, "
            f"route gap {route_gap:.2e}, nsd max eig {props.nsd_max_eigenvalue:.2e}")


def test_criterion_7_continued_fraction_ladder(capfd, ex3):
    ok = True
    for order, delay, h, m in ((1, Fraction(3, 2), Fraction(1, 2), 3),
                               (4, Fraction(41, 29), Fraction(1, 29), 41),
                               (7, Fraction(577, 408), Fraction(1, 408), 577)):
        form = dl.approximate_system(ex3, order)
        ok = ok and form.to_system().delays == (Fraction(1), delay)
        ok = ok and form.h == h and form.m == m
    _report(capfd, 7, "continued fraction ladder", ok,
            "3/2, 41/29, 577/408 and (h, m) geometry exact")


def test_criterion_8_irrational_delay_approximation(capfd, ex3, w2):
    tic = time.perf_counter()
    steps = dl.u_sequence(ex3, w2, [1, 4, 7])
    elapsed = time.perf_counter() - tic
    solvers = [s.u.solver for s in steps]
    unknowns = [2 * s.m * 4 for s in steps]
    residual_worst = 0.0
    for step in steps:
        rep = dl.residuals(step.u, step.system, w2)
        residual_worst = max(residual_worst, rep.max_residual())
    diffs = [s.sup_diff_prev for s in steps[1:]]
    ok = (
        solvers == ["dense", "dense", "sparse"]
        and unknowns[-1] == 4616
        and residual_worst <= 1e-8
        and all(d is not None and math.isfinite(d) for d in diffs)
        and elapsed < 60.0
    )
    _report(capfd, 8, "irrational delay approximation ladder", ok,
            f"solvers {solvers}, {unknowns[-1]} unknowns, "
            f"max residual {residual_worst:.2e}, {elapsed:.1f}s")


def test_criterion_9_corner_cases(capfd, u_scalar, w2):
    singular_ok = critical_ok = domain_ok = False
    try:
        dl.validate(dl.DelaySystem.single(1.0, Fraction(1)))
    except dl.SingularK0:
        singular_ok = True
    vsys = dl.validate(dl.DelaySystem.single(np.diag([2.0, 0.5]), Fraction(1)))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dl.build_single_delay(vsys, w2)
    except dl.CriticalSystem:
        critical_ok = True
    try:
        u_scalar.evaluate(1.1)
    except dl.OutOfDomain:
        domain_ok = True
    ok = singular_ok and critical_ok and domain_ok
    _report(capfd, 9, "corner cases", ok,
            f"singular {singular_ok}, critical {critical_ok}, domain {domain_ok}")
