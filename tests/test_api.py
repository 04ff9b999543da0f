"""The parameter names of the public functions and classes, against a
literal table.  Thresholds are module constants (see the README), so a
keyword knob that comes back, or any other change to a public signature,
has to change this table too."""

import inspect

import delaylyap as dl

SIGNATURES = {
    "ApproximationStep": ("order", "delays", "h", "m", "u", "system", "stability_verdict", "spectral_radius", "sup_diff_prev"),
    "CommensurateForm": ("h", "m", "coefficients", "origin"),
    "ContinuedFraction": ("coefficients", "value", "exact"),
    "CrossCheckReport": ("grid", "errors", "bounds", "max_error", "max_bound", "horizon", "slack", "passed"),
    "DelaySystem": ("n", "entries"),
    "InitialFunction": ("starts", "values", "slopes"),
    "IntegralEstimate": ("value", "tail_bound", "horizon"),
    "JumpPropertyReport": ("symmetry", "dynamic", "algebraic", "nsd_max_eigenvalue", "tail_bound", "horizon", "grid_points", "table"),
    "JumpSpectrum": ("taus", "jumps", "method", "truncation_horizon", "tail_bound"),
    "JumpTable": ("times", "jumps", "horizon", "tol"),
    "PiecewiseAffineMatrixFunction": ("h", "m", "n", "coeffs", "slopes", "condition_estimate", "solver", "h_exact"),
    "ResidualReport": ("symmetry", "dynamic", "continuity", "grid_points", "condition_estimate", "scale"),
    "StabilityReport": ("method", "spectral_radius", "verdict", "rate_step", "decay_gain", "decay_rate", "grid_points", "reason"),
    "StepMatrixFunction": ("pre_value", "breakpoints", "values", "horizon", "snap"),
    "TruncatedSeries": ("value", "tail_bound", "horizon"),
    "ValidatedSystem": ("system",),
    "WeightMatrix": ("matrix",),
    "build_commensurate": ("form", "weight"),
    "build_single_delay": ("vsys", "weight"),
    "check_jump_properties": ("vsys", "weight", "tau_grid", "horizon", "report"),
    "continued_fraction": ("x", "max_terms"),
    "convergent": ("cf", "order"),
    "convergents": ("cf",),
    "cross_check": ("u", "vsys", "weight", "grid", "horizon", "slack", "report"),
    "default_horizon": ("vsys", "report"),
    "default_series_horizon": ("vsys", "report"),
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
