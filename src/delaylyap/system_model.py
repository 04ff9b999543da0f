"""System definitions for continuous-time linear delay difference equations.

A system is x(t) = sum_j A_j x(t - h_j) for t >= 0, with delays
0 < h_1 < ... < h_m = H and an initial function on [-H, 0).  This module
owns the data types, structural validation, the constant matrix K0 that
anchors the fundamental matrix, the exact rewrite of rational-delay
systems over a common basic delay, and the JSON forms.  Stability and the
decay envelope live in the stability module.
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
    OutOfDomain,
    ParseError,
    SingularK0,
    SizeExceeded,
)

Delay = Union[float, Fraction]

# the smallest singular value of sum A_j - I must exceed this times its
# largest, otherwise K0 is declared unreliable.
DET_RTOL = 1e-12


def _as_matrix(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DelaySystem:
    """Raw description: state dimension and (delay, coefficient) pairs.

    Construction checks n >= 1, at least one entry, finite n x n matrices
    and finite, strictly increasing delays with 1e-12 d a normal float
    (DimensionMismatch, NonFiniteInput, NonincreasingDelays).  Int delays
    and a lone float delay are stored exact, as Fraction(d), which decides
    later if lattices are exact or merged.  validate() adds the K0 test.
    """

    n: int
    entries: tuple

    def __init__(self, n: int, entries: Sequence[tuple]):
        n = int(n)
        entries = [(d if isinstance(d, Fraction) else (Fraction(d) if isinstance(d, int) else float(d)),
                    _as_matrix(a)) for d, a in entries]
        if n < 1:
            raise DimensionMismatch("state dimension must be at least 1")
        if not entries:
            raise DimensionMismatch("at least one delay entry is required")
        prev = None
        for d, a in entries:
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
        if len(entries) == 1:
            entries = [(Fraction(d), a) for d, a in entries]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tuple(entries))

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
    """A DelaySystem whose K0 passed validate().  Thin read-only view."""

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
        return all(isinstance(d, Fraction) for d in self.delays)

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
        floors = starts - 1e-9 * np.abs(starts)
        for arr in (starts, values, slopes, floors):
            arr.setflags(write=False)
        object.__setattr__(self, "_floors", floors)
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
        """Evaluate at every theta < 0, shaped thetas.shape + (n,).  A theta
        at most 1e-9 |a| below a segment start a reads that segment as at
        a, so float overshoot such as fl(t - h - t_q) an ulp below a start
        lands on it; anything else outside [starts[0], 0) (or NaN) raises
        OutOfDomain naming the first such theta."""
        thetas = np.asarray(thetas, dtype=float)
        lo = float(self.starts[0])
        bad = np.flatnonzero(~((thetas < 0.0) & (thetas >= self._floors[0])))
        if bad.size:
            raise OutOfDomain(f"initial function is defined on [{lo}, 0), got {float(thetas.flat[bad[0]])}")
        k = np.searchsorted(self._floors[1:], thetas, side="right")
        sloped = self.slopes[k].any(axis=-1)
        # constant segments, which may start at -inf, return values[k] untouched
        offset = np.maximum(np.subtract(thetas, self.starts[k], out=np.zeros(thetas.shape), where=sloped), 0.0)
        return np.where(sloped[..., None], self.values[k] + offset[..., None] * self.slopes[k], self.values[k])


@dataclass(frozen=True)
class CommensurateForm:
    """Rewrite of a rational-delay system over an exact basic delay h:
    delays are j*h for j = 1..m, and steps holds (j, C_j) for the q steps
    whose C_j is nonzero, by increasing j; every other C_j is zero.  The
    arrays are the entries' own, not copies.  Every reader takes the q
    steps as they are; none builds the m blocks C_1..C_m."""

    h: Fraction
    m: int
    n: int
    steps: tuple

    def to_system(self) -> "ValidatedSystem":
        """The commensurate rewrite as a plain system of its steps.  An
        all-zero form takes a zero block at delay m h, so that h_max still
        equals the form's horizon."""
        steps = self.steps or ((self.m, np.zeros((self.n, self.n))),)
        return validate(DelaySystem(self.n, [(self.h * j, c) for j, c in steps]))


def validate(system: DelaySystem) -> ValidatedSystem:
    """Check that K0 = (sum A_j - I)^-1 exists: SingularK0 unless the
    singular values of sum A_j - I have sigma_min / sigma_max above
    DET_RTOL, a test on its condition that does not tighten with n.  The
    structure and the delays were checked when the DelaySystem was built.
    """
    sigma = np.linalg.svd(np.sum(system.matrices, axis=0) - np.eye(system.n), compute_uv=False)
    if sigma[-1] <= DET_RTOL * sigma[0]:
        raise SingularK0(
            "sum of coefficients minus identity is numerically singular "
            f"(sigma_min {sigma[-1]:.3e}, sigma_max {sigma[0]:.3e})"
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


def _commensurate_form(system) -> CommensurateForm | None:
    """The rewrite of a DelaySystem or ValidatedSystem over the gcd h of
    its delays, m = h_max / h, with the (j, C_j) of each delay j h whose
    matrix is nonzero: O(q) work for q delays, whatever m is.  None when a
    delay is a float, which DelaySystem allows only among other delays (a
    lone delay is exact, and rewrites with m = 1)."""
    delays = system.delays
    if not all(isinstance(d, Fraction) for d in delays):
        return None
    h = fraction_gcd(delays)
    steps = tuple((int(d / h), a) for d, a in zip(delays, system.matrices) if np.any(a))
    return CommensurateForm(h=h, m=int(delays[-1] / h), n=system.n, steps=steps)


def to_commensurate(vsys: ValidatedSystem) -> CommensurateForm:
    """Exact rewrite over the gcd of the delays, which must all be exact.
    Raises SizeExceeded past MAX_UNKNOWNS // 2 steps, the most that
    build_commensurate takes (2 m n^2 unknowns at n = 1)."""
    from .lyapunov_build import MAX_UNKNOWNS

    form = _commensurate_form(vsys)
    if form is None:
        raise NonRationalInput("system has a float delay among others; approximate them first")
    cap = MAX_UNKNOWNS // 2
    if form.m > cap:
        raise SizeExceeded(f"commensurate rewrite needs m = {form.m} basic steps, cap is {cap}")
    return form


def numbers_from_json(obj, what: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array.  ParseError
    names what for anything else (booleans and numeric strings included),
    ragged lists, and numbers that are not finite as floats."""
    items = np.array(obj, dtype=object)  # a ragged list keeps lists as items
    bad = [x for x in items.flat if type(x) not in (int, float)]
    if bad:
        raise ParseError(f"{what} must hold JSON numbers only, got {bad[0]!r:.80}")
    try:
        out = items.astype(float)
    except OverflowError as exc:
        raise ParseError(f"{what} holds an integer too large for a float: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise ParseError(f"{what} must be finite")
    return out


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
        if type(num) is not int or type(den) is not int or den == 0:
            raise ParseError("'num' and 'den' must be integers with den != 0")
        return Fraction(num, den)
    raise ParseError(f"cannot read a delay from {obj!r}")


def system_from_json(text: str) -> DelaySystem:
    """Parse the JSON descriptor {"n": int, "entries": [{"delay": ..., "A": [[...]]}]}.

    Delays may be floats, integers (exact) or {"num": p, "den": q}
    (exact).  NaN and infinities are rejected everywhere.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
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
        a = numbers_from_json(item["A"], f"matrix for delay {delay}")
        if a.shape != (n, n):
            raise ParseError(f"matrix for delay {delay} must be {n}x{n}, got {a.shape}")
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


def __getattr__(name: str):
    """system_model.stability_check is stability.stability_check, imported
    at first use (PEP 562) so that neither module imports the other while
    it loads."""
    if name == "stability_check":
        from .stability import stability_check

        return stability_check
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
