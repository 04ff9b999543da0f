"""Mutation gate: does tier-1 notice a wrong verdict, a dropped bound, a
moved threshold, a broken recursion kernel, a wrong block of the
Lyapunov system, an unsettled delay, a companion screen that stops on
a root it has not certified or stops too late, a certificate that lets
Newton disks overlap, a last step to a horizon
that falls short, a convolution response that reads a step too many, or
a recursion response whose rational leaves read off float steps?

    python tools/mutation_gate.py

Each mutant is one exact text replacement in one file of src/delaylyap.
For each, src/ is copied to a temporary directory, the mutant is applied
there, and tier-1 runs against the copy with -x -q (derandomized
Hypothesis).  A mutant is killed when a test fails; the first failing
test is printed.  The gate exits 1 if any mutant survives, and 2 if a
mutant's text is not found exactly once, so that a refactor cannot
silently disable it.  Run it on a tree whose tier-1 passes.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/delaylyap, text, replacement)
MUTANTS = [
    (
        "u_tail_bound_zero",
        "oracle_verify.py",
        "    return w2 * (env.integral(horizon, tau) + env.k0_norm * env.integral(horizon + tau))\n",
        "    return 0.0\n",
    ),
    ("fit_decay_no_gain_cushion", "stability.py", "    return 1.05 * gamma, sigma\n", "    return gamma, sigma\n"),
    (
        "continuity_residual_zero",
        "lyapunov_build.py",
        "continuity=float(np.max(np.abs(u.coeffs[:-1] + u.h * u.slopes[:-1] - u.coeffs[1:]), initial=0.0)),",
        "continuity=0.0,",
    ),
    ("stable_below_one", "stability.py", "    elif rho <= 1.0 - margin:\n", "    elif rho < 1.0:\n"),
    ("unstable_above_one", "stability.py", "    if rho >= 1.0 + margin:\n", "    if rho > 1.0:\n"),
    # the companion screen's early exit: at 1 rather than 1 + EXACT_MARGIN,
    # on a Newton disk without its factor n m, which holds no root, with the
    # plain Newton pre-pass ended after its first sweep, or without the
    # Aberth sweep's own disk test
    (
        "early_exit_at_one",
        "stability.py",
        "EXACT_MARGIN / 10.0, 1.0 + EXACT_MARGIN)",
        "EXACT_MARGIN / 10.0, 1.0)",
    ),
    (
        "early_exit_disk_without_degree",
        "stability.py",
        "radius = size * (np.abs(newton) + np.finfo(float).eps * np.max(np.abs(z), initial=0.0))",
        "radius = (np.abs(newton) + np.finfo(float).eps * np.max(np.abs(z), initial=0.0))",
    ),
    ("escape_one_sweep", "stability.py", "            best, z = bound, z - newton\n", "            return None\n"),
    (
        "in_sweep_exit_dropped",
        "stability.py",
        "            bound = _disk_bound(z[:moving], newton, n * m)\n",
        "            bound = -math.inf\n",
    ),
    # the certificate without its disjointness test: Newton disks that
    # overlap may hold one root between them, not one each
    (
        "certificate_overlap_dropped",
        "stability.py",
        "        if np.any(np.abs(z[near + offset] - z[near]) <= disk[near + offset] + disk[near]):\n",
        "        if False:\n",
    ),
    ("cond_fail_1e14", "lyapunov_build.py", "COND_FAIL = 1e12\n", "COND_FAIL = 1e14\n"),
    (
        "kernel_reversed_delay_sum",
        "fundamental.py",
        "        np.add(prod[:, 0], 0.0, out=out)\n        for j in range(1, len(mats)):\n",
        "        np.add(prod[:, -1], 0.0, out=out)\n        for j in range(len(mats) - 2, -1, -1):\n",
    ),
    (
        "kernel_no_positive_zero_start",
        "fundamental.py",
        "        np.add(prod[:, 0], 0.0, out=out)\n",
        "        np.copyto(out, prod[:, 0])\n",
    ),
    # a source -1 reads the trailing row: K0 for K, zeros for dK
    (
        "dk_off_lattice_row_nonzero",
        "fundamental.py",
        "    jumps[0] = np.eye(vsys.n)\n",
        "    jumps[0] = jumps[-1] = np.eye(vsys.n)\n",
    ),
    ("k_off_lattice_row_zero", "fundamental.py", "    values[-1] = base\n", "    values[-1] = 0.0\n"),
    # the Lyapunov system: a sign in P, a transposed block, a dropped step
    (
        "p_matrix_sign",
        "lyapunov_build.py",
        "w @ base @ a - a.T @ base.T @ w",
        "w @ base @ a + a.T @ base.T @ w",
    ),
    (
        "dynamic_block_transposed",
        "lyapunov_build.py",
        "(-j, -np.kron(c.T, eye_n)) for j, c in form.steps]",
        "(-j, -np.kron(c, eye_n)) for j, c in form.steps]",
    ),
    (
        "dynamic_step_dropped",
        "lyapunov_build.py",
        "(-j, -np.kron(c.T, eye_n)) for j, c in form.steps]",
        "(-j, -np.kron(c.T, eye_n)) for j, c in form.steps[:-1]]",
    ),
    # caps and thresholds
    ("torus_margin_1e-6", "stability.py", "TORUS_MARGIN = 1e-3\n", "TORUS_MARGIN = 1e-6\n"),
    ("companion_cap_8000", "stability.py", "COMPANION_CAP = 4000\n", "COMPANION_CAP = 8000\n"),
    ("dense_cutoff_4000", "lyapunov_build.py", "DENSE_CUTOFF = 2000\n", "DENSE_CUTOFF = 4000\n"),
    ("band_limit_16", "lyapunov_build.py", "BAND_LIMIT = 64\n", "BAND_LIMIT = 16\n"),
    ("max_unknowns_1e6", "lyapunov_build.py", "MAX_UNKNOWNS = 500_000\n", "MAX_UNKNOWNS = 1_000_000\n"),
    ("lattice_cap_1e7", "fundamental.py", "LATTICE_CAP = 1_000_000\n", "LATTICE_CAP = 10_000_000\n"),
    ("merge_tol_scale_1e-12", "fundamental.py", "MERGE_TOL_SCALE = 1e-9\n", "MERGE_TOL_SCALE = 1e-12\n"),
    # the initial function's slack at a segment start a, 1e-9 |a|, with an absolute floor again
    (
        "phi_floor_absolute",
        "system_model.py",
        "floors = starts - 1e-9 * np.abs(starts)\n",
        "floors = starts - 1e-9 * np.maximum(1.0, np.abs(starts))\n",
    ),
    ("det_rtol_1e-16", "system_model.py", "DET_RTOL = 1e-12\n", "DET_RTOL = 1e-16\n"),
    ("cond_warn_1e11", "lyapunov_build.py", "COND_WARN = 1e10\n", "COND_WARN = 1e11\n"),
    ("basic_delay_cap_1e6", "rational_approx.py", "BASIC_DELAY_CAP = 100_000\n", "BASIC_DELAY_CAP = 1_000_000\n"),
    ("jump_drop_tol_0", "fundamental.py", "JUMP_DROP_TOL = 1e-14\n", "JUMP_DROP_TOL = 0.0\n"),
    ("spectrum_drop_tol_0", "jump_analysis.py", "SPECTRUM_DROP_TOL = 1e-14\n", "SPECTRUM_DROP_TOL = 0.0\n"),
    # delays settled at construction: a lone float delay stored exact
    (
        "lone_delay_stays_float",
        "system_model.py",
        "            entries = [(Fraction(d), a) for d, a in entries]\n",
        "            entries = [(d, a) for d, a in entries]\n",
    ),
    # the one rule for the last step to a horizon (lattices, a kept K, the
    # jump table of the convolution response): without its tol, with the
    # tol 1e-12 h_max that fl(k h) falls below far out, and a step short
    (
        "exact_lattice_no_horizon_snap",
        "fundamental.py",
        "return math.floor((Fraction(horizon) + Fraction(tol)) / fraction_gcd(delays))",
        "return math.floor(Fraction(horizon) / fraction_gcd(delays))",
    ),
    (
        "last_step_tol_h_max",
        "fundamental.py",
        "    return 1e-12 * max(float(delays[-1]), horizon)\n",
        "    return 1e-12 * float(delays[-1])\n",
    ),
    (
        "cauchy_table_one_step_short",
        "fundamental.py",
        "return math.floor((Fraction(horizon) + Fraction(tol)) / fraction_gcd(delays))",
        "return math.floor((Fraction(horizon) + Fraction(tol)) / fraction_gcd(delays)) - 1",
    ),
    # the convolution response on integer steps: the window k - l < m_j one step wider
    ("cauchy_window_one_step_wider", "fundamental.py", "return theta, shifts > s[..., None]", "return theta, shifts >= s[..., None]"),
    # the recursion response's rational leaves read at a float run down in
    # steps of fl(h), k fl(h) + xi, as a float descent would, not at fl(k h) + xi
    (
        "rational_leaves_on_path_floats",
        "fundamental.py",
        "leaves = exact_multiples(leaves // len(phases), h) + phases[leaves % len(phases)]",
        "leaves = (leaves // len(phases)) * float(h) + phases[leaves % len(phases)]",
    ),
]


def apply(src: Path, file: str, text: str, replacement: str) -> None:
    path = src / "delaylyap" / file
    body = path.read_text(encoding="utf-8")
    count = body.count(text)
    if count != 1:
        raise LookupError(f"{file}: mutant text found {count} times, not once: {text!r}")
    path.write_text(body.replace(text, replacement), encoding="utf-8")


def run_tier1(src: Path) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(src), HYPOTHESIS_PROFILE="ci")
    found = subprocess.run(
        [sys.executable, "-c", "import delaylyap; print(delaylyap.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(found).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"tier-1 would import delaylyap from {found}, not from the mutated copy")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    survivors = []
    for name, file, text, replacement in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            try:
                apply(src, file, text, replacement)
            except LookupError as exc:
                print(exc, file=sys.stderr)
                return 2
            t0 = time.perf_counter()
            code, out = run_tier1(src)
        seconds = time.perf_counter() - t0
        if code == 0:
            survivors.append(name)
            print(f"SURVIVED {name} ({seconds:.0f} s)", flush=True)
            continue
        # a parametrized id may hold spaces: it ends at " - " or the line's end
        failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", out, re.MULTILINE)
        if code != 1 or failed is None:
            print(out[-3000:], file=sys.stderr)
            print(f"tier-1 on mutant {name} ended with exit code {code} and no failed test", file=sys.stderr)
            return 2
        print(f"killed {name} by {failed.group(1)} ({seconds:.0f} s)", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed; survivors: {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
