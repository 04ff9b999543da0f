"""Command line front end.

Every subcommand reads a JSON system descriptor and writes data (CSV or
JSON) to stdout or --out; diagnostics always go to stderr.  Exit codes:
0 success, 1 verification gate failed, 2 invalid system, 3 unparseable
input, 4 critical (unsolvable) construction, 5 stability required but not
verified, 6 size or horizon cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import jump_analysis, lyapunov_build, oracle_verify, rational_approx
from .errors import (
    CriticalSystem,
    DelayLyapError,
    HorizonTooLarge,
    NotStable,
    OutOfDomain,
    ParseError,
    RecursionDepthExceeded,
    SizeExceeded,
)
from .fundamental import (
    fundamental_matrix,
    simulate,
    simulate_cauchy,
    step_to_csv,
    trajectory_to_csv,
)
from .system_model import (
    InitialFunction,
    ValidatedSystem,
    WeightMatrix,
    load_system,
    numbers_from_json,
    to_commensurate,
    validate,
)
from .stability import stability_check


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


@contextmanager
def _out_stream(path: str | None):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _dump_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    with _out_stream(path) as fh:
        fh.write(text + "\n")


def _load_validated(path: str) -> ValidatedSystem:
    try:
        return validate(load_system(path))
    except OSError as exc:
        raise ParseError(f"cannot read system descriptor {path}: {exc}") from exc


def _read_json(path: str, what: str):
    """The JSON value in the file at path; ParseError when the file cannot
    be read or is not JSON.  Its numbers are checked where they are read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ParseError(f"invalid JSON in {what} {path}: {exc}") from exc


def _load_weight(source: str | None, n: int) -> WeightMatrix:
    if source is None or source == "identity":
        return WeightMatrix.identity(n)
    data = _read_json(source, "weight file")
    if isinstance(data, dict):
        data = data.get("W")
    mat = numbers_from_json(data, f"weight file {source}")
    if mat.shape != (n, n):
        raise ParseError(f"weight must be {n}x{n}, got {mat.shape}")
    try:
        weight = WeightMatrix(mat)
        weight.require_positive_definite()
    except (DelayLyapError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
    return weight


def _load_phi(source: str | None, n: int) -> InitialFunction:
    if source is None:
        return InitialFunction.constant(np.ones(n))
    data = _read_json(source, "initial function file")
    if not isinstance(data, dict):
        raise ParseError("initial function file must hold a JSON object")
    if "constant" in data:
        vec = numbers_from_json(data["constant"], "constant initial value")
        if vec.shape != (n,):
            raise ParseError(f"constant initial value must have length {n}")
        return InitialFunction.constant(vec)
    if "segments" in data:
        segs = data["segments"]
        if not isinstance(segs, list) or not all(isinstance(s, dict) and {"start", "value"} <= s.keys() for s in segs):
            raise ParseError("initial function segments must be a list of objects with 'start' and 'value'")
        starts = numbers_from_json([s["start"] for s in segs], "segment starts")
        values = numbers_from_json([s["value"] for s in segs], "segment values")
        slopes = numbers_from_json([s.get("slope", [0.0] * n) for s in segs], "segment slopes")
        if starts.shape != (len(segs),) or values.shape != (len(segs), n) or slopes.shape != values.shape:
            raise ParseError(f"each initial function segment needs one start, and {n} values and slopes")
        try:
            return InitialFunction(starts, values, slopes)
        except (DelayLyapError, ValueError) as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError("initial function file needs 'constant' or 'segments'")


def _require_finite_nonnegative(**flags) -> None:
    """ParseError for any flag given a value not in [0, inf)."""
    for name, value in flags.items():
        if value is not None and not 0 <= value < math.inf:
            raise ParseError(f"--{name} must be finite and nonnegative, got {value}")


def _build_u(vsys: ValidatedSystem, weight: WeightMatrix, order: int | None):
    """Route to the right construction.  Returns (U, system whose delays
    the function answers to), which differ only for approximated delays."""
    if len(vsys.entries) == 1:
        return lyapunov_build.build_single_delay(vsys, weight), vsys
    if vsys.is_rational:
        form = to_commensurate(vsys)
        return lyapunov_build.build_commensurate(form, weight), vsys
    if order is None:
        raise ParseError(
            "system has non-commensurate float delays; pass --order to "
            "approximate them by continued fraction convergents"
        )
    form = rational_approx.approximate_system(vsys, order)
    return lyapunov_build.build_commensurate(form, weight), form.to_system()


def _sample_grid(u, samples: int) -> np.ndarray:
    hz = u.horizon
    return np.unique(np.concatenate([u.knots(), np.linspace(-hz, hz, samples)]))


def cmd_check(args) -> int:
    try:
        vsys = _load_validated(args.config)
    except ParseError:
        raise
    except DelayLyapError as exc:
        _diag(f"invalid system: {exc}")
        return 2
    report = stability_check(vsys)
    payload = {
        "n": vsys.n,
        "delays": [float(d) for d in vsys.delays],
        "rational_delays": vsys.is_rational,
        "h_max": vsys.h_max,
        "valid": True,
        "stability": report.to_dict(),
    }
    _dump_json(payload, args.out)
    return 0


def cmd_k(args) -> int:
    _require_finite_nonnegative(horizon=args.horizon)
    vsys = _load_validated(args.config)
    horizon = args.horizon if args.horizon is not None else 5.0 * vsys.h_max
    kfun = fundamental_matrix(vsys, horizon, side=args.side)
    with _out_stream(args.out) as fh:
        step_to_csv(kfun, fh)
    _diag(f"{len(kfun.breakpoints)} breakpoints on [0, {horizon}]")
    return 0


def cmd_sim(args) -> int:
    _require_finite_nonnegative(horizon=args.horizon, samples=args.samples)
    vsys = _load_validated(args.config)
    horizon = args.horizon if args.horizon is not None else 5.0 * vsys.h_max
    phi = _load_phi(args.phi, vsys.n)
    grid = np.linspace(0.0, horizon, args.samples)
    if args.method in ("recursive", "both"):
        states = simulate(vsys, phi, grid)
    else:
        states = simulate_cauchy(vsys, phi, grid)
    if args.method == "both":
        other = simulate_cauchy(vsys, phi, grid)
        gap = float(np.max(np.abs(states - other)))
        _diag(f"max gap between recursive and jump-convolution responses: {gap:.3e}")
    with _out_stream(args.out) as fh:
        trajectory_to_csv(grid, states, fh)
    return 0


def cmd_lyap(args) -> int:
    _require_finite_nonnegative(samples=args.samples, order=args.order)
    vsys = _load_validated(args.config)
    weight = _load_weight(args.weight, vsys.n)
    u, rsys = _build_u(vsys, weight, args.order)
    grid = _sample_grid(u, args.samples)
    with _out_stream(args.out) as fh:
        lyapunov_build.piecewise_to_csv(u, grid, fh)
    report = lyapunov_build.residuals(u, rsys, weight)
    if args.out:
        _dump_json(report.to_dict(), f"{args.out}.residuals.json")
        _diag(f"wrote {args.out}.residuals.json")
    else:
        _diag(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def cmd_jumps(args) -> int:
    _require_finite_nonnegative(order=args.order)
    vsys = _load_validated(args.config)
    weight = _load_weight(args.weight, vsys.n)
    u, rsys = _build_u(vsys, weight, args.order)
    spectrum = jump_analysis.jumps_from_segments(u)
    if not args.segments_only:
        report = stability_check(rsys)
        props = jump_analysis.check_jump_properties(rsys, weight, report=report)
        series = jump_analysis.delta_u_prime(
            rsys, weight, spectrum.taus, props.horizon, report=report, table=props.table
        )
        summary = props.to_dict()
        summary["route_deviation_max"] = float(np.max(np.abs(series.value - spectrum.jumps), initial=0.0))
        _diag(json.dumps(summary, sort_keys=True))
    with _out_stream(args.out) as fh:
        spectrum.to_csv(fh)
    return 0


def cmd_approx(args) -> int:
    try:
        orders = [int(tok) for tok in args.orders.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParseError(f"cannot parse --orders {args.orders!r}: {exc}") from exc
    if not orders:
        raise ParseError("--orders must name at least one order")
    _require_finite_nonnegative(samples=args.samples, orders=min(orders))
    if args.samples == 0:
        raise ParseError("--samples must be at least 1: the sup differences need a grid point")
    vsys = _load_validated(args.config)
    weight = _load_weight(args.weight, vsys.n)
    steps = rational_approx.u_sequence(vsys, weight, orders, grid_points=args.samples)
    verdicts = {s.stability_verdict for s in steps}
    summary = {
        "orders": orders,
        "steps": [s.to_dict() for s in steps],
        "verdicts_agree": len(verdicts) == 1,
    }
    if args.out:
        for step in steps:
            path = f"{args.out}_s{step.order}.csv"
            grid = _sample_grid(step.u, args.samples)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                lyapunov_build.piecewise_to_csv(step.u, grid, fh)
            _diag(f"order {step.order}: wrote {path}")
        _dump_json(summary, f"{args.out}_convergence.json")
        _diag(f"wrote {args.out}_convergence.json")
    else:
        _dump_json(summary, None)
    return 0


def cmd_verify(args) -> int:
    _require_finite_nonnegative(tol=args.tol, order=args.order)
    vsys = _load_validated(args.config)
    weight = _load_weight(args.weight, vsys.n)
    tol = args.tol
    u, rsys = _build_u(vsys, weight, args.order)
    res = lyapunov_build.residuals(u, rsys, weight)
    gates = {"residuals": res.passed(tol)}
    payload = {"residuals": res.to_dict(), "tolerance": tol}
    report = stability_check(rsys)
    payload["stability"] = report.to_dict()
    if report.stable:
        cross = oracle_verify.cross_check(u, rsys, weight, slack=tol, report=report)
        gates["integral_cross_check"] = cross.passed
        payload["integral_cross_check"] = cross.to_dict()
        p_alg = lyapunov_build.p_matrix(rsys, weight)
        p_int = oracle_verify.p_integral_oracle(rsys, weight, report=report)
        p_err = float(np.max(np.abs(p_alg - p_int.value)))
        gates["p_matrix_oracle"] = p_err <= p_int.tail_bound + tol
        payload["p_matrix_oracle"] = {
            "error": p_err,
            "tail_bound": p_int.tail_bound,
            "horizon": p_int.horizon,
        }
    else:
        payload["integral_cross_check"] = (
            "skipped: stability not verified, residual gates only"
        )
    payload["gates"] = gates
    payload["passed"] = all(gates.values())
    _dump_json(payload, args.out)
    return 0 if payload["passed"] else 1


# the flags a command may read; each command takes only those it reads
_FLAGS = {
    "tol": (("--tol",), {"type": float, "default": 1e-8, "help": "verification tolerance"}),
    "horizon": (("--horizon",), {"type": float, "help": "time horizon"}),
    "order": (("--order",), {"type": int, "help": "continued fraction order for float delays"}),
    "samples": (("--samples",), {"type": int, "default": 201, "help": "number of grid samples"}),
    "weight": (
        ("--w", "--weight"),
        {"dest": "weight", "default": "identity", "help": "'identity' or path to a JSON symmetric matrix"},
    ),
}


def _command(sub, name: str, func, about: str, *flags: str) -> argparse.ArgumentParser:
    """A subparser with --config, --out and the named _FLAGS.  Abbreviations
    are off, so that a flag a command lacks cannot match a longer one."""
    p = sub.add_parser(name, help=about, allow_abbrev=False)
    p.add_argument("--config", required=True, help="JSON system descriptor")
    p.add_argument("--out", help="output path (default: stdout)")
    for flag in flags:
        names, kwargs = _FLAGS[flag]
        p.add_argument(*names, **kwargs)
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: add_argument is slow."""
    parser = argparse.ArgumentParser(
        prog="delaylyap",
        description="Delay Lyapunov matrices of linear delay difference equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "check", cmd_check, "validate a system and report stability")

    p = _command(sub, "k", cmd_k, "evaluate the fundamental matrix to CSV", "horizon")
    p.add_argument("--side", choices=("right", "left"), default="right")

    p = _command(sub, "sim", cmd_sim, "simulate the time response to CSV", "horizon", "samples")
    p.add_argument("--method", choices=("recursive", "cauchy", "both"), default="recursive")
    p.add_argument("--phi", help="JSON initial function (default: constant ones)")

    _command(sub, "lyap", cmd_lyap, "construct the Lyapunov matrix to CSV", "order", "samples", "weight")

    p = _command(sub, "jumps", cmd_jumps, "jump spectrum of the derivative of U", "order", "weight")
    p.add_argument("--segments-only", action="store_true", help="skip the series route (works for unstable systems)")

    p = _command(sub, "approx", cmd_approx, "continued fraction order ladder", "samples", "weight")
    p.add_argument("--orders", required=True, help="comma separated orders, e.g. 1,4,7")

    _command(sub, "verify", cmd_verify, "run all verification gates", "tol", "order", "weight")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _diag(f"parse error: {exc}")
        return 3
    except CriticalSystem as exc:
        _diag(f"critical system: {exc}")
        return 4
    except NotStable as exc:
        _diag(f"stability required: {exc}")
        return 5
    except (SizeExceeded, HorizonTooLarge, RecursionDepthExceeded) as exc:
        _diag(f"size cap: {exc}")
        return 6
    except OutOfDomain as exc:
        _diag(f"out of domain: {exc}")
        return 2
    except DelayLyapError as exc:
        _diag(f"invalid input: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
