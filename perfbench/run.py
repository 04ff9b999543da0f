"""delaylyap benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  The process generates the workload's system descriptors from the
seed, then drives the CLI in process as a closed loop with one client.
Between passes it times set-up in fresh interpreters; around each command
it times a fixed reference loop, the unit of the end-to-end times.  The
last stdout line is one JSON object with correct, attempted, failed and
metrics: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  Run details (percentiles, CSV digests, the seconds and
reference seconds of every command and, when traced, every span) go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One BLAS thread keeps the single-client loop single-threaded; it is at
# most the core count on any machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PER_PASS = 2
SETUP_TIMEOUT = 60
SETUP_SCRIPT = (
    "import sys\n"
    "import delaylyap.cli\n"
    "from delaylyap.system_model import load_system, validate\n"
    "for path in sys.argv[1:]:\n"
    "    validate(load_system(path))\n"
)
LAYER_UNITS = {"calls": "count", "self_s": "s", "errors": "count", "horizon": "model_time",
               "err_over_bound_max": "ratio", "builds_per_cmd": "ratio", "overhead": "ref"}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p


def _timed_child(argv, env) -> float:
    """Wall seconds from spawning argv to its exit.  A blocking wait, with a
    watchdog for the timeout, because subprocess's own timeout polls in
    50 ms steps."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(SETUP_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    seconds = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up interpreter exited with {code}")
    return seconds


def setup_samples(configs) -> list:
    """Wall seconds of SETUP_PER_PASS fresh interpreters that import
    delaylyap.cli and load the workload's descriptors."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", SETUP_SCRIPT, *configs]
    return [_timed_child(argv, env) for _ in range(SETUP_PER_PASS)]


def _unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not (SRC / "delaylyap" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'delaylyap'}", file=sys.stderr)
        return 2
    # the thread count must be fixed before numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import harness
    import workloads
    from delaylyap import cli

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cli.__file__}, not the checkout's source", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        configs = workloads.write_descriptors(args.workload, args.seed, workdir)
        commands = workloads.commands(args.workload, configs)
        # set-up is sampled before every untraced pass, so that its samples
        # spread over the run like the passes do
        setup = []
        between = None if args.trace else lambda: setup.extend(setup_samples(configs))
        plain, traced = harness.measure(cli.main, commands, args.seconds, bool(args.trace), between)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = plain + traced
    attempted = sum(len(p.commands) for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {}
    mismatches = 0
    for p in passes:
        for c in p.commands:
            if c.digest is not None and digests.setdefault(c.label, c.digest) != c.digest:
                mismatches += 1
    wall = [p.seconds for p in plain]
    in_refs = harness.median_in_refs(plain)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "wall_ref": sum(in_refs.values()),
        "slowest_cmd_ref": max(in_refs.values()),
        "cmd_ref": in_refs,
        "ref_s": harness.describe([c.ref for p in plain for c in p.commands]),
        "pass_s": harness.describe(wall),
        "pass_slowest_cmd_s": harness.describe([p.slowest for p in plain]),
        "cmd_s": harness.describe([c.seconds for p in plain for c in p.commands]),
        "setup_s": harness.describe(setup) if setup else None,
        "peak_rss_mib": peak_rss_mib,
        "csv_sha256": digests,
        "csv_digest_mismatches": mismatches,
        "failures": sorted({f"{c.label}: {c.failure}" for p in passes for c in p.commands if c.failure}),
    }
    if args.trace:
        layers = harness.layer_metrics(traced, len(commands))
        layers["trace.overhead"] = sum(harness.median_in_refs(traced).values()) - detail["wall_ref"]
        metrics = {k: _metric(v, _unit(k)) for k, v in layers.items()}
        detail["spans"] = [[asdict(s) for s in p.spans] for p in traced]
    else:
        metrics = {
            "wall_ref": _metric(detail["wall_ref"], "ref"),
            "slowest_cmd_ref": _metric(detail["slowest_cmd_ref"], "ref"),
            "setup_s": _metric(detail["setup_s"]["median"], "s"),
            "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
        }
    detail["samples"] = {label: [] for label in in_refs}
    for p in plain:
        for c in p.commands:
            detail["samples"][c.label].append([c.seconds, c.ref])
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")
    summary = {k: v for k, v in detail.items() if k not in ("spans", "csv_sha256", "samples")}
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
