"""Closed-loop passes over a workload's CLI commands, in one process.

One client issues each command through delaylyap.cli.main(argv) only after
the previous one has returned.  Stdout and stderr are captured in memory;
outputs are checked and CSV digests taken after the pass clock stops.
"""

from __future__ import annotations

import hashlib
import io
import statistics
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from tracer import Tracer, summarize
from workloads import CSV_KINDS, check_output


@dataclass
class CommandRun:
    label: str
    seconds: float
    code: int
    failure: str | None
    digest: str | None
    ref: float = float("nan")  # reference_seconds() around the command

    @property
    def in_refs(self) -> float:
        """The command's time in multiples of the reference loop's."""
        return self.seconds / self.ref


@dataclass
class PassRun:
    seconds: float  # the commands' wall time, without the reference loop
    commands: list
    spans: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(c.failure is not None for c in self.commands)

    @property
    def slowest(self) -> float:
        return max(c.seconds for c in self.commands)


def _laplacian_2d(n: int):
    step = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    return (sp.kron(step, sp.eye(n)) + sp.kron(sp.eye(n), step)).tocsc()


_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal((96, 96))
_REF_DENSE = _REF_RNG.standard_normal((300, 300))
_REF_SPARSE = _laplacian_2d(32)
_REF_VECTOR = _REF_RNG.standard_normal(1 << 17)


def reference_seconds() -> float:
    """Wall seconds of a fixed mix of the kinds of work the commands do:
    interpreted arithmetic, a small dense eigenproblem, a dense and a
    sparse LU solve, and sorts of 1 MB, about 20 ms in all.  Timed right
    before and after each command, it gives the host's speed then."""
    t0 = perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    np.linalg.eigvals(_REF_SMALL)
    for _ in range(2):
        np.linalg.solve(_REF_DENSE, _REF_DENSE[:, 0])
        np.sort(_REF_VECTOR)
    splu(_REF_SPARSE).solve(np.ones(_REF_SPARSE.shape[0]))
    return perf_counter() - t0


def _invoke(main, argv, out, err) -> tuple[int, str | None]:
    """Exit code of one command, and the exception type if it crashed."""
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return main(list(argv)), None
        except SystemExit as exc:
            return (exc.code if isinstance(exc.code, int) else 2), "SystemExit"
        except Exception as exc:  # a crash fails this command; the pass goes on
            traceback.print_exc()
            return -1, type(exc).__name__


def run_pass(main, commands, tracer: Tracer | None = None) -> PassRun:
    """Run every command once, in order; trace them when tracer is given.
    The reference loop runs before the first command and after each one,
    outside the commands' clocks."""
    raw = []
    refs = [reference_seconds()]
    for i, cmd in enumerate(commands):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        if tracer is None:
            code, _ = _invoke(main, cmd.argv, out, err)
        else:
            tracer.cmd = i
            with tracer.span(f"cli.{cmd.kind}") as rec:
                code, rec.error = _invoke(main, cmd.argv, out, err)
        raw.append((cmd, perf_counter() - t0, code, out.getvalue(), err.getvalue()))
        refs.append(reference_seconds())
    runs = [
        CommandRun(
            label=cmd.label,
            seconds=dt,
            code=code,
            failure=check_output(cmd.argv, code, o, e),
            digest=hashlib.sha256(o.encode()).hexdigest() if cmd.kind in CSV_KINDS else None,
            ref=(refs[i] + refs[i + 1]) / 2,
        )
        for i, (cmd, dt, code, o, e) in enumerate(raw)
    ]
    return PassRun(sum(dt for _, dt, *_ in raw), runs, tracer.take() if tracer is not None else [])


def traced_pass(main, commands) -> PassRun:
    """One pass with tracing installed, removed again before returning."""
    tracer = Tracer()
    tracer.install()
    try:
        return run_pass(main, commands, tracer)
    finally:
        tracer.uninstall()


def measure(main, commands, seconds: float, trace: bool, between=None) -> tuple[list, list]:
    """Whole passes for as long as the next one still fits in `seconds`
    (judged by the last one), at least one.  With trace, untraced and
    traced passes alternate.  between(), when given, is called before each
    untraced pass, outside its clock.  There is no separate warm-up: the
    times are medians over the passes, of which at most the first is
    cold.  Returns (untraced, traced)."""
    plain, traced = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if between is not None:
            between()
        plain.append(run_pass(main, commands))
        if trace:
            traced.append(traced_pass(main, commands))
        now = perf_counter()
        if (now - start) + (now - t0) > seconds:
            return plain, traced


def median_in_refs(passes) -> dict:
    """Each command's median time over the passes, in multiples of the
    reference loop's time around it, by label."""
    samples = {}
    for p in passes:
        for c in p.commands:
            samples.setdefault(c.label, []).append(c.in_refs)
    return {label: statistics.median(v) for label, v in samples.items()}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def describe(values) -> dict:
    """Median and sample count, plus the highest of p99/p95/p90/p75 that
    still has at least ten samples above it, when there is one."""
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = percentile(values, pct)
            break
    return out


def layer_metrics(passes, commands: int) -> dict:
    """Median over traced passes of each per-layer metric."""
    per_pass = [summarize(p.spans, commands) for p in passes]
    return {k: statistics.median(s[k] for s in per_pass) for k in per_pass[0]}
