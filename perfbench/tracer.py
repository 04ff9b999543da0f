"""Span tracing of delaylyap from outside the program.

Tracer.install rebinds every module-level binding of each listed public
function inside the delaylyap package, including names other modules took
by `from ... import`, to a wrapper that records a span; uninstall puts the
originals back.  Spans stay in memory until the caller takes them.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from time import perf_counter

PACKAGE = "delaylyap"

LAYERS = {
    "system_model": ("validate", "stability_check", "to_commensurate"),
    "fundamental": ("fundamental_matrix", "delta_k", "simulate", "simulate_cauchy"),
    "lyapunov_build": ("build_single_delay", "build_commensurate", "residuals", "p_matrix"),
    "rational_approx": ("approximate_system", "u_sequence"),
    "oracle_verify": ("cross_check", "p_integral_oracle"),
    "jump_analysis": ("check_jump_properties", "delta_u_prime", "jumps_from_segments"),
}
CLI_COMMANDS = ("check", "k", "sim", "lyap", "jumps", "approx", "verify")
ERROR_LAYERS = tuple(LAYERS) + ("cli",)


def _unknowns(arguments, u):
    return {
        "lyapunov_build.unknowns": 2 * u.m * u.n * u.n,
        "lyapunov_build.sparse_builds": int(u.solver == "sparse"),
    }


def _stability(arguments, rep):
    system = next(iter(arguments.values()))
    if rep.method == "torus_grid_heuristic":
        return {"system_model.torus_evals": rep.grid_points ** len(system.delays)}
    steps = round(float(system.delays[-1]) / rep.rate_step)
    return {"system_model.companion_dim": system.n * steps}


def _cross_check(arguments, rep):
    return {
        "oracle_verify.grid_points": len(rep.grid),
        "oracle_verify.horizon": rep.horizon,
        "oracle_verify.err_over_bound_max": float(max(rep.errors / rep.bounds)),
    }


# Sizes read from the bound arguments and the returned object of a traced call.
SIZES = {
    "fundamental.fundamental_matrix": lambda a, k: {"fundamental.lattice_points": len(k.breakpoints)},
    "fundamental.delta_k": lambda a, t: {"fundamental.lattice_points": len(t.times)},
    "lyapunov_build.build_single_delay": _unknowns,
    "lyapunov_build.build_commensurate": _unknowns,
    "lyapunov_build.residuals": lambda a, r: {"lyapunov_build.residual_grid_points": r.grid_points},
    "system_model.stability_check": _stability,
    "oracle_verify.cross_check": _cross_check,
    "oracle_verify.p_integral_oracle": lambda a, e: {"oracle_verify.horizon": e.horizon},
    "jump_analysis.check_jump_properties": lambda a, r: {"jump_analysis.tau_grid_points": r.grid_points},
}
# Sizes combined by max over a pass; every other size is summed.
MAX_SIZES = ("oracle_verify.err_over_bound_max",)
SIZE_NAMES = (
    "fundamental.lattice_points",
    "lyapunov_build.unknowns",
    "lyapunov_build.sparse_builds",
    "lyapunov_build.residual_grid_points",
    "system_model.companion_dim",
    "system_model.torus_evals",
    "oracle_verify.grid_points",
    "oracle_verify.horizon",
    "oracle_verify.err_over_bound_max",
    "jump_analysis.tau_grid_points",
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    cmd: int | None
    end: float = float("nan")
    error: str | None = None
    sizes: dict = field(default_factory=dict)


class Tracer:
    """Collects spans for the traced functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cmd: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._wrappers: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, perf_counter(), parent, self.cmd)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec.error = type(exc).__name__
            raise
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        size_of = SIZES.get(name)
        signature = inspect.signature(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    rec.sizes = size_of(signature.bind(*args, **kwargs).arguments, result)
                return result

        self._wrappers.append(traced)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._saved.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def leftover_wrappers(self) -> list[str]:
        """Names of package bindings that still point at a wrapper."""
        wrappers = {id(w) for w in self._wrappers}
        return [
            f"{name}.{attr}"
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
            for attr, value in list(vars(mod).items())
            if id(value) in wrappers
        ]

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


def metric_names() -> list[str]:
    """Every per-layer metric summarize() reports, in a fixed order."""
    names = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
    names += [f"cli.{c}.self_s" for c in CLI_COMMANDS]
    names += list(SIZE_NAMES) + ["fundamental.builds_per_cmd"]
    names += [f"{layer}.errors" for layer in ERROR_LAYERS]
    return names


def summarize(spans: list[Span], commands: int) -> dict:
    """Per-layer metrics of one traced pass of `commands` CLI commands."""
    out = dict.fromkeys(metric_names(), 0)
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    for i, s in enumerate(spans):
        out[f"{s.name}.self_s"] += (s.end - s.start) - child[i]
        if not s.name.startswith("cli."):
            out[f"{s.name}.calls"] += 1
        if s.error is not None:
            out[f"{s.name.split('.')[0]}.errors"] += 1
        for key, value in s.sizes.items():
            out[key] = max(out[key], value) if key in MAX_SIZES else out[key] + value
    builds = out["fundamental.fundamental_matrix.calls"] + out["fundamental.delta_k.calls"]
    out["fundamental.builds_per_cmd"] = builds / commands
    return out
