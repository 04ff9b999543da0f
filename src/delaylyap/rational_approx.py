"""Rational approximation of non-commensurate delays.

Float delays are replaced by convergents of their continued fraction
expansions, which are the best rational approximations at a given
denominator size; one private routine gives the order-s convergent of
a delay from its exact value.  The rationalized system is commensurate
over the gcd of the convergents, so the block construction applies;
running a ladder of orders and comparing consecutive Lyapunov functions
on a shared grid gives an empirical convergence picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import OrderUnavailable, SizeExceeded
from .lyapunov_build import PiecewiseAffineMatrixFunction, build_commensurate
from .system_model import (
    CommensurateForm,
    DelaySystem,
    ValidatedSystem,
    WeightMatrix,
    _require_weight,
    to_commensurate,
    validate,
)
from .stability import stability_check

# largest basic step count m a rationalized system may need
BASIC_DELAY_CAP = 100_000


def _convergent(x, order: int) -> Fraction:
    """Order-s convergent p_s/q_s of a positive float or Fraction: the
    three-term recurrence run alongside the Euclidean algorithm on the
    exact value of x, stopped after `order` terms or at the last term if
    the expansion ends sooner.  Convergents alternate around x and satisfy
    |x - p_s/q_s| <= 1/q_s^2."""
    a, b = x.as_integer_ratio()
    c, r = divmod(a, b)
    p_prev, p, q_prev, q = 1, c, 0, 1
    for _ in range(order):
        if r == 0:
            break
        a, b = b, r
        c, r = divmod(a, b)
        p_prev, p = p, c * p + p_prev
        q_prev, q = q, c * q + q_prev
    return Fraction(p, q)


def approximate_system(vsys: ValidatedSystem, order: int) -> CommensurateForm:
    """Commensurate form whose delays replace every float delay by its
    order-s convergent.  A system with exact delays (a lone delay always
    is) passes through untouched, so it gives its to_commensurate form at
    every order.  Convergent collisions merge by summing coefficients.
    Raises OrderUnavailable for a negative order or when a convergent is
    0, and SizeExceeded when the gcd step count m would exceed
    BASIC_DELAY_CAP."""
    if vsys.is_rational:
        return to_commensurate(vsys)
    if order < 0:
        raise OrderUnavailable(f"convergent order must be >= 0, requested {order}")
    replaced: dict[Fraction, np.ndarray] = {}
    for d, a in vsys.entries:
        r = d if isinstance(d, Fraction) else _convergent(d, order)
        if r <= 0:
            raise OrderUnavailable(
                f"order-{order} convergent of delay {float(d)} is {r}; use a higher order"
            )
        if r in replaced:
            replaced[r] = replaced[r] + a
        else:
            replaced[r] = a
    entries = sorted(replaced.items())
    rationalized = validate(DelaySystem(vsys.n, entries))
    form = to_commensurate(rationalized)
    if form.m > BASIC_DELAY_CAP:
        raise SizeExceeded(
            f"rationalized delays need m = {form.m} basic steps, cap is {BASIC_DELAY_CAP}"
        )
    return form


@dataclass(frozen=True)
class ApproximationStep:
    """One rung of the order ladder: the rationalized delays, their
    commensurate geometry, the built U, and the sup difference against
    the previous rung on a shared grid (None for the first).  The
    stability fields are the rung's report: stability_reason, when set,
    says why its spectral_radius is less than the radius (a certified
    lower bound of an unstable rung)."""

    order: int
    delays: tuple
    h: Fraction
    m: int
    u: PiecewiseAffineMatrixFunction
    system: ValidatedSystem
    stability_verdict: str
    spectral_radius: float
    sup_diff_prev: float | None
    stability_reason: str | None = None

    def to_dict(self) -> dict:
        band = {} if self.u.bandwidth is None else {"bandwidth": list(self.u.bandwidth)}
        reason = {} if self.stability_reason is None else {"stability_reason": self.stability_reason}
        return band | reason | {
            "order": self.order,
            "delays": [
                {"num": d.numerator, "den": d.denominator} for d in self.delays
            ],
            "h": {"num": self.h.numerator, "den": self.h.denominator},
            "m": self.m,
            "unknowns": 2 * self.m * self.u.n * self.u.n,
            "solver": self.u.solver,
            "factor": self.u.factor,
            "factor_entries": self.u.factor_entries,
            "condition_estimate": self.u.condition_estimate,
            "stability_verdict": self.stability_verdict,
            "spectral_radius": self.spectral_radius,
            "sup_diff_prev": self.sup_diff_prev,
        }


def u_sequence(
    vsys: ValidatedSystem,
    weight: WeightMatrix,
    orders: Sequence[int],
    *,
    grid_points: int = 401,
) -> list[ApproximationStep]:
    """Build U for each approximation order and measure successive sup
    differences on a shared grid over the common horizon.  Stability
    verdicts ride along because rationalizations of a borderline system
    can disagree across orders; callers should flag that."""
    _require_weight(weight, vsys.n)
    steps: list[ApproximationStep] = []
    prev: ApproximationStep | None = None
    for order in orders:
        form = approximate_system(vsys, order)
        u = build_commensurate(form, weight)
        rsys = form.to_system()
        rep = stability_check(rsys, with_decay=False)
        sup_diff = None
        if prev is not None:
            shared = min(u.horizon, prev.u.horizon)
            grid = np.linspace(-shared, shared, grid_points)
            sup_diff = float(
                np.max(np.abs(u.evaluate_many(grid) - prev.u.evaluate_many(grid)))
            )
        step = ApproximationStep(
            order=order,
            delays=tuple(d for d, _ in rsys.entries),
            h=form.h,
            m=form.m,
            u=u,
            system=rsys,
            stability_verdict=rep.verdict,
            spectral_radius=rep.spectral_radius,
            sup_diff_prev=sup_diff,
            stability_reason=rep.reason,
        )
        steps.append(step)
        prev = step
    return steps
