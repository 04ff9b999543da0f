"""The parameter names of the public functions and classes, against a
literal table.  Thresholds are module constants (see the README), so a
keyword knob that comes back, or any other change to a public signature,
has to change this table too."""

import importlib
import inspect
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import delaylyap as dl

SIGNATURES = {
    "ApproximationStep": ("order", "delays", "h", "m", "u", "system", "stability_verdict", "spectral_radius", "sup_diff_prev",
                          "stability_reason"),
    "CommensurateForm": ("h", "m", "n", "steps", "system"),
    "CrossCheckReport": ("grid", "errors", "bounds", "max_error", "max_bound", "horizon", "slack", "passed"),
    "DelaySystem": ("n", "entries"),
    "InitialFunction": ("starts", "values", "slopes"),
    "JumpPropertyReport": ("symmetry", "dynamic", "algebraic", "nsd_max_eigenvalue", "tail_bound", "horizon", "grid_points", "table"),
    "JumpSpectrum": ("taus", "jumps", "horizon"),
    "JumpTable": ("times", "jumps", "horizon", "tol", "keys"),
    "PiecewiseAffineMatrixFunction": ("h_exact", "m", "n", "coeffs", "slopes", "condition_estimate", "factor", "factor_entries", "bandwidth"),
    "ResidualReport": ("symmetry", "dynamic", "continuity", "grid_points", "condition_estimate", "scale"),
    "StabilityReport": ("method", "spectral_radius", "verdict", "rate_step", "decay_gain", "decay_rate", "grid_points", "reason"),
    "StepMatrixFunction": ("pre_value", "breakpoints", "values", "horizon", "snap"),
    "TruncatedSeries": ("value", "tail_bound", "horizon"),
    "ValidatedSystem": ("system",),
    "WeightMatrix": ("matrix",),
    "build_commensurate": ("form", "weight"),
    "build_single_delay": ("vsys", "weight"),
    "check_jump_properties": ("vsys", "weight", "tau_grid", "horizon", "report"),
    "cross_check": ("u", "vsys", "weight", "grid", "horizon", "slack", "report"),
    "default_horizon": ("vsys", "report"),
    "delta_k": ("vsys", "horizon", "drop_tol"),
    "delta_u_prime": ("vsys", "weight", "tau", "horizon", "report", "table"),
    "discontinuity_instants": ("vsys", "horizon"),
    "fundamental_matrix": ("vsys", "horizon", "side"),
    "jumps_from_segments": ("u",),
    "k0": ("vsys",),
    "load_system": ("path",),
    "p_integral_oracle": ("vsys", "weight", "horizon", "report"),
    "p_matrix": ("vsys", "weight", "base"),
    "piecewise_to_csv": ("u", "taus", "fh"),
    "residuals": ("u", "vsys", "weight"),
    "simulate": ("vsys", "phi", "grid"),
    "simulate_cauchy": ("vsys", "phi", "grid"),
    "stability_check": ("system", "with_decay"),
    "step_to_csv": ("kfun", "fh"),
    "system_from_json": ("text",),
    "system_to_json": ("system",),
    "to_commensurate": ("vsys",),
    "trajectory_to_csv": ("times", "states", "fh"),
    "u_integral_oracle": ("vsys", "weight", "tau", "horizon", "report"),
    "u_prime_series": ("vsys", "weight", "tau", "horizon", "report"),
    "u_sequence": ("vsys", "weight", "orders", "grid_points"),
    "validate": ("system",),
}


def test_public_signatures():
    public = {}
    for name in dl.__all__:
        obj = getattr(dl, name)
        if not (inspect.isclass(obj) and issubclass(obj, Exception)):
            public[name] = tuple(inspect.signature(obj).parameters)
    assert public == SIGNATURES


# each entry point that takes a weight, called with a 3 x 3 weight for a
# 2 x 2 system (callables of the system and the weight)
WEIGHT_ENTRY_POINTS = {
    "build_single_delay": dl.build_single_delay,
    "build_commensurate": lambda v, w: dl.build_commensurate(dl.to_commensurate(v), w),
    "p_matrix": dl.p_matrix,
    "u_sequence": lambda v, w: dl.u_sequence(v, w, [1]),
    "cross_check": lambda v, w: dl.cross_check(dl.build_single_delay(v, dl.WeightMatrix.identity(2)), v, w),
    "u_integral_oracle": lambda v, w: dl.u_integral_oracle(v, w, 0.5),
    "p_integral_oracle": dl.p_integral_oracle,
    "delta_u_prime": lambda v, w: dl.delta_u_prime(v, w, 0.5),
    "check_jump_properties": dl.check_jump_properties,
    "u_prime_series": lambda v, w: dl.u_prime_series(v, w, 0.5),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_ENTRY_POINTS))
def test_weight_of_the_wrong_size_raises_dimension_mismatch(name):
    vsys = dl.validate(dl.DelaySystem.single(np.array([[0.5, 0.1], [0.0, -0.3]]), Fraction(1)))
    with pytest.raises(dl.DimensionMismatch, match="weight matrix is 3x3, the system needs 2x2"):
        WEIGHT_ENTRY_POINTS[name](vsys, dl.WeightMatrix.identity(3))


def _readme_thresholds():
    """(module, NAME) for every constant the README's Thresholds section
    names: `module.NAME`, and a bare `NAME` in the same bullet after it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Thresholds\n", 1)[1].split("\n## ", 1)[0]
    named = []
    for bullet in section.split("\n- "):
        module = None
        for token in re.findall(r"`([^`]+)`", bullet):
            qualified = re.match(r"(?:delaylyap\.)?([a-z_]+)\.([A-Z][A-Z0-9_]*)", token)
            bare = re.match(r"([A-Z][A-Z0-9_]*)\b", token)
            if qualified:
                module = qualified.group(1)
                named.append(qualified.groups())
            elif bare and module is not None:
                named.append((module, bare.group(1)))
    return named


def test_readme_thresholds_name_live_constants():
    # a constant set where it no longer lives would silently do nothing
    named = _readme_thresholds()
    assert ("stability", "EXACT_MARGIN") in named and ("fundamental", "LATTICE_CAP") in named
    for module, name in named:
        assert hasattr(importlib.import_module(f"delaylyap.{module}"), name), f"{module}.{name}"
