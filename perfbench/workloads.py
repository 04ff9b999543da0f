"""Seeded workload generators, command lists and per-command output checks.

The program under test sees only the JSON descriptors written here.  Each
generator pins the property that sets the program's cost (spectral radius,
companion radius, delay geometry), so the cost of a pass does not depend
on the seed.  Nothing here imports the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("single_batch", "sqrt2_ladder", "commensurate_two_route")

# Generator pre-check: a draw is redrawn when sum(A_j) - I is this badly
# conditioned, or when two companion eigenvalues z, z' come this close to
# z z' = 1 (where the block operator of the construction is singular).
COND_LIMIT = 1e6
CRITICAL_MARGIN = 1e-3
MAX_DRAWS = 1000

SINGLE_BATCH_SYSTEMS = 21
SINGLE_RADIUS = 0.8

# Delays 1 and sqrt(2) with the paper's example 3 matrices.  Orders 1, 4
# and 7 rationalize sqrt(2) as 3/2, 41/29 and 577/408: m = 3, 41, 577
# basic steps, 2 m n^2 unknowns, dense below 2000 unknowns and sparse above.
LADDER_ORDERS = (1, 4, 7)
LADDER_M = (3, 41, 577)
LADDER_UNKNOWNS = (24, 328, 4616)
LADDER_SOLVERS = ("dense", "dense", "sparse")
LADDER_PERTURBATION = 0.02
EX3_A1 = ((-0.4, -0.3), (0.1 + 0.7, 0.15))
EX3_A2 = ((0.1, 0.25), (-0.9, -0.1 - 1.1))

# Delays 1, 13/10, 17/10 over h = 1/10: steps 10, 13 and 17 of m = 17.
COMMENSURATE_SYSTEMS = 2
COMMENSURATE_STEPS = (10, 13, 17)
COMMENSURATE_DEN = 10
COMMENSURATE_RADIUS = 0.95

RESIDUAL_TOL = 1e-8
SIM_GAP_TOL = 1e-9


@dataclass(frozen=True)
class Command:
    """One CLI invocation: a label that is unique within a pass, and the
    argv handed to delaylyap.cli.main."""

    label: str
    argv: tuple

    @property
    def kind(self) -> str:
        return self.argv[0]


def _companion(coeffs) -> np.ndarray:
    """Block companion matrix of x_k = sum_j C_j x_{k-j}, j = 1..m."""
    n = coeffs[0].shape[0]
    m = len(coeffs)
    big = np.zeros((n * m, n * m))
    for j, c in enumerate(coeffs):
        big[:n, j * n:(j + 1) * n] = c
    big[n:, :-n] = np.eye(n * (m - 1))
    return big


def _step_coeffs(mats_by_step: dict) -> list:
    n = next(iter(mats_by_step.values())).shape[0]
    m = max(mats_by_step)
    return [mats_by_step.get(j, np.zeros((n, n))) for j in range(1, m + 1)]


def _radius(coeffs) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(_companion(coeffs)))))


def precheck(mats, step_sets) -> bool:
    """True when the draw is neither ill-conditioned nor near-critical.

    mats are the coefficient matrices; each entry of step_sets gives their
    basic-step indices on one commensurate lattice the program will use.
    """
    n = mats[0].shape[0]
    if np.linalg.cond(sum(mats) - np.eye(n)) > COND_LIMIT:
        return False
    for steps in step_sets:
        z = np.linalg.eigvals(_companion(_step_coeffs(dict(zip(steps, mats)))))
        if np.min(np.abs(1.0 - np.multiply.outer(z, z))) < CRITICAL_MARGIN:
            return False
    return True


def _descriptor(delays, mats) -> dict:
    return {
        "n": int(mats[0].shape[0]),
        "entries": [{"delay": d, "A": a.tolist()} for d, a in zip(delays, mats)],
    }


def _collect(draw, count: int) -> list:
    """count descriptors from draw(), which returns None for a rejected draw."""
    out = []
    for _ in range(MAX_DRAWS):
        desc = draw()
        if desc is not None:
            out.append(desc)
            if len(out) == count:
                return out
    raise RuntimeError(f"only {len(out)} acceptable draws in {MAX_DRAWS}")


def _single_batch(rng) -> list:
    def draw():
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
        rho = float(np.max(np.abs(np.linalg.eigvals(a))))
        if rho < 1e-3:
            return None
        a = a * (SINGLE_RADIUS / rho)
        return _descriptor([1], [a]) if precheck([a], [(1,)]) else None

    return _collect(draw, SINGLE_BATCH_SYSTEMS)


def _sqrt2_ladder(rng) -> list:
    base = [np.array(EX3_A1), np.array(EX3_A2)]
    # the rungs the generator can afford to screen: orders 1 and 4
    rungs = [(2, 3), (29, 41)]

    def draw():
        mats = [
            a * (1.0 + rng.uniform(-LADDER_PERTURBATION, LADDER_PERTURBATION, a.shape))
            for a in base
        ]
        return _descriptor([1, math.sqrt(2.0)], mats) if precheck(mats, rungs) else None

    return _collect(draw, 1)


def _scale_to_radius(mats, steps, target: float) -> list:
    """Scale all matrices by one factor, found by bisection, so the
    companion spectral radius per basic step equals target."""

    def radius(s: float) -> float:
        return _radius(_step_coeffs({j: s * a for j, a in zip(steps, mats)}))

    lo, hi = 0.0, 1.0
    while radius(hi) <= target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if radius(mid) <= target:
            lo = mid
        else:
            hi = mid
    return [lo * a for a in mats]


def _commensurate_two_route(rng) -> list:
    delays = [{"num": s, "den": COMMENSURATE_DEN} for s in COMMENSURATE_STEPS]

    def draw():
        raw = [rng.uniform(-1.0, 1.0, size=(2, 2)) for _ in COMMENSURATE_STEPS]
        mats = _scale_to_radius(raw, COMMENSURATE_STEPS, COMMENSURATE_RADIUS)
        rho = _radius(_step_coeffs(dict(zip(COMMENSURATE_STEPS, mats))))
        if abs(rho - COMMENSURATE_RADIUS) > 1e-9 or not precheck(mats, [COMMENSURATE_STEPS]):
            return None
        return _descriptor(delays, mats)

    return _collect(draw, COMMENSURATE_SYSTEMS)


_GENERATORS = {
    "single_batch": _single_batch,
    "sqrt2_ladder": _sqrt2_ladder,
    "commensurate_two_route": _commensurate_two_route,
}


def generate(workload: str, seed: int) -> list:
    """The workload's system descriptors (JSON-ready dicts) for seed."""
    return _GENERATORS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))


def write_descriptors(workload: str, seed: int, workdir: Path) -> list:
    """Write the descriptors as sys_<i>.json under workdir; returns paths."""
    paths = []
    for i, desc in enumerate(generate(workload, seed)):
        path = Path(workdir) / f"sys_{i:02d}.json"
        path.write_text(json.dumps(desc, sort_keys=True), encoding="utf-8")
        paths.append(str(path))
    return paths


def commands(workload: str, configs) -> list:
    """The command list of one pass."""
    if workload == "single_batch":
        return [Command(f"verify:{i}", ("verify", "--config", c)) for i, c in enumerate(configs)]
    if workload == "sqrt2_ladder":
        (c,) = configs
        orders = ",".join(str(o) for o in LADDER_ORDERS)
        return [
            Command("check", ("check", "--config", c)),
            Command("approx", ("approx", "--config", c, "--orders", orders)),
            Command("lyap", ("lyap", "--config", c, "--order", str(LADDER_ORDERS[-1]))),
            Command("sim", ("sim", "--config", c, "--method", "both", "--horizon", "30")),
        ]
    if workload == "commensurate_two_route":
        out = []
        for i, c in enumerate(configs):
            out += [
                Command(f"verify:{i}", ("verify", "--config", c)),
                Command(f"jumps:{i}", ("jumps", "--config", c)),
                Command(
                    f"sim:{i}",
                    ("sim", "--config", c, "--method", "both", "--horizon", "100", "--samples", "1001"),
                ),
                Command(f"k:{i}", ("k", "--config", c, "--side", "left", "--horizon", "100")),
            ]
        return out
    raise KeyError(workload)


# ------------------------------------------------------------ output checks

CSV_KINDS = ("k", "sim", "lyap", "jumps")


def _last_json_line(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.startswith("{")]
    if not lines:
        raise ValueError("no JSON summary on stderr")
    return json.loads(lines[-1])


def _csv_rows(text: str) -> int:
    return len(text.splitlines()) - 1


def _check_verify(argv, out, err):
    if json.loads(out).get("passed") is not True:
        return "verify did not pass"


def _check_approx(argv, out, err):
    steps = json.loads(out)["steps"]
    if tuple(s["m"] for s in steps) != LADDER_M:
        return f"ladder m {[s['m'] for s in steps]}"
    if tuple(s["unknowns"] for s in steps) != LADDER_UNKNOWNS:
        return f"ladder unknowns {[s['unknowns'] for s in steps]}"
    if tuple(s["solver"] for s in steps) != LADDER_SOLVERS:
        return f"ladder solvers {[s['solver'] for s in steps]}"
    diffs = [s["sup_diff_prev"] for s in steps[1:]]
    if not all(isinstance(d, float) and math.isfinite(d) for d in diffs):
        return f"non-finite sup_diff_prev {diffs}"


def _check_lyap(argv, out, err):
    res = _last_json_line(err)["max_residual"]
    if not res <= RESIDUAL_TOL:
        return f"lyap max_residual {res}"
    if _csv_rows(out) < 1:
        return "lyap wrote no rows"


def _check_jumps(argv, out, err):
    summary = _last_json_line(err)
    res, dev = summary["max_residual"], summary["route_deviation_max"]
    if not (res <= RESIDUAL_TOL and dev <= RESIDUAL_TOL):
        return f"jumps residual {res}, route deviation {dev}"
    if _csv_rows(out) < 1:
        return "jumps wrote no rows"


def _check_sim(argv, out, err):
    marker = "max gap between recursive and jump-convolution responses:"
    gaps = [float(ln.split(":")[-1]) for ln in err.splitlines() if ln.startswith(marker)]
    if len(gaps) != 1 or not gaps[0] <= SIM_GAP_TOL:
        return f"sim gap {gaps}"
    samples = int(argv[argv.index("--samples") + 1]) if "--samples" in argv else 201
    if _csv_rows(out) != samples:
        return f"sim rows {_csv_rows(out)} != {samples}"


def _check_k(argv, out, err):
    counts = [int(ln.split()[0]) for ln in err.splitlines() if " breakpoints on " in ln]
    if len(counts) != 1 or _csv_rows(out) != counts[0]:
        return f"k rows {_csv_rows(out)} vs breakpoints {counts}"


def _check_check(argv, out, err):
    data = json.loads(out)
    if data["rational_delays"] is False and data["stability"]["verdict"] == "stable":
        return "float-delay system reported stable"


_CHECKS = {
    "verify": _check_verify,
    "approx": _check_approx,
    "lyap": _check_lyap,
    "jumps": _check_jumps,
    "sim": _check_sim,
    "k": _check_k,
    "check": _check_check,
}


def check_output(argv, code: int, out: str, err: str) -> str | None:
    """None when the command's output passes its check, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[argv[0]](tuple(argv), out, err)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
