"""Tests of the benchmark itself: seeded inputs, the traced call pattern
of each workload, output checks and the removal of tracing.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from delaylyap import cli  # noqa: E402
from workloads import Command  # noqa: E402


def _matrices(desc):
    return [np.array(e["A"]) for e in desc["entries"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_descriptors_repeat_for_a_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("seed", [0, 101])
def test_generators_pin_the_cost(seed):
    for desc in workloads.generate("single_batch", seed):
        (a,) = _matrices(desc)
        assert desc["entries"][0]["delay"] == 1
        assert max(abs(np.linalg.eigvals(a))) == pytest.approx(0.8, abs=1e-12)

    (ladder,) = workloads.generate("sqrt2_ladder", seed)
    assert [e["delay"] for e in ladder["entries"]] == [1, math.sqrt(2.0)]
    for a, base in zip(_matrices(ladder), (workloads.EX3_A1, workloads.EX3_A2)):
        assert np.all(np.abs(a / np.array(base) - 1.0) <= workloads.LADDER_PERTURBATION)

    systems = workloads.generate("commensurate_two_route", seed)
    assert len(systems) == workloads.COMMENSURATE_SYSTEMS
    for desc in systems:
        steps = [e["delay"]["num"] for e in desc["entries"]]
        assert steps == list(workloads.COMMENSURATE_STEPS)
        coeffs = workloads._step_coeffs(dict(zip(steps, _matrices(desc))))
        assert workloads._radius(coeffs) == pytest.approx(0.95, abs=1e-9)


def test_precheck_rejects_critical_and_ill_conditioned_draws():
    assert workloads.precheck([np.diag([0.5, -0.3])], [(1,)])
    # eigenvalues 2 and 1/2 multiply to 1: the construction is singular
    assert not workloads.precheck([np.diag([2.0, 0.5])], [(1,)])
    # sum(A) - I is singular
    assert not workloads.precheck([np.diag([1.0, 0.2])], [(1,)])


# zero / non-zero call pattern of each workload (per-layer mapping table)
PATTERN = {
    "single_batch": {
        "oracle_verify.cross_check.calls": True,
        "lyapunov_build.build_single_delay.calls": True,
        "lyapunov_build.build_commensurate.calls": False,
        "fundamental.delta_k.calls": False,
        "fundamental.simulate_cauchy.calls": False,
        "jump_analysis.delta_u_prime.calls": False,
        "rational_approx.u_sequence.calls": False,
    },
    "sqrt2_ladder": {
        "oracle_verify.cross_check.calls": False,
        "jump_analysis.delta_u_prime.calls": False,
        "lyapunov_build.build_commensurate.calls": True,
        "lyapunov_build.sparse_builds": True,
        "lyapunov_build.residuals.calls": True,
        "system_model.stability_check.calls": True,
        "system_model.torus_evals": True,
        "rational_approx.u_sequence.calls": True,
        "fundamental.simulate_cauchy.calls": True,
    },
    "commensurate_two_route": {
        "oracle_verify.cross_check.calls": True,
        "fundamental.delta_k.calls": True,
        "fundamental.fundamental_matrix.calls": True,
        "fundamental.simulate_cauchy.calls": True,
        "jump_analysis.delta_u_prime.calls": True,
        "jump_analysis.check_jump_properties.calls": True,
        "jump_analysis.jumps_from_segments.calls": True,
        "rational_approx.u_sequence.calls": False,
    },
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_shows_the_call_pattern(workload, tmp_path):
    configs = workloads.write_descriptors(workload, 5, tmp_path)
    commands = workloads.commands(workload, configs)
    run = harness.traced_pass(cli.main, commands)
    assert [c.failure for c in run.commands] == [None] * len(commands)
    layers = tracer.summarize(run.spans, len(commands))
    assert set(layers) == set(tracer.metric_names())
    for name, nonzero in PATTERN[workload].items():
        assert (layers[name] > 0) == nonzero, name
    assert all(layers[f"{layer}.errors"] == 0 for layer in tracer.ERROR_LAYERS)
    cli_spans = [s for s in run.spans if s.name.startswith("cli.")]
    assert [s.name for s in cli_spans] == [f"cli.{c.kind}" for c in commands]
    assert all(s.parent is None for s in cli_spans)


def _bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "delaylyap" or name.startswith("delaylyap.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracing_reaches_imported_names_and_is_removed():
    import delaylyap
    from delaylyap import fundamental, oracle_verify

    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        for name in ("fundamental_matrix", "simulate"):
            assert cli.__dict__[name] is not before[("delaylyap.cli", name)]
        assert oracle_verify.fundamental_matrix is fundamental.fundamental_matrix
        assert delaylyap.validate is not before[("delaylyap", "validate")]
        assert t.leftover_wrappers()
    finally:
        t.uninstall()
    assert not t.leftover_wrappers()
    assert _bindings() == before


def test_traced_pass_restores_every_binding(tmp_path):
    before = _bindings()
    configs = workloads.write_descriptors("single_batch", 1, tmp_path)[:1]
    harness.traced_pass(cli.main, workloads.commands("single_batch", configs))
    assert _bindings() == before


def _fake_main(outputs):
    """A stand-in for cli.main that prints canned output per subcommand."""

    def main(argv):
        out, err, code = outputs[argv[0]]
        sys.stdout.write(out)
        sys.stderr.write(err)
        if code is None:
            raise RuntimeError("boom")
        return code

    return main


K_CSV = "t,K11\n0.0,1.0\n0.1,0.5\n"


def test_corrupted_output_counts_as_failure():
    cmds = [Command("k", ("k", "--config", "x")), Command("verify", ("verify", "--config", "x"))]
    good = {
        "k": (K_CSV, "2 breakpoints on [0, 1.0]\n", 0),
        "verify": (json.dumps({"passed": True}), "", 0),
    }
    assert harness.run_pass(_fake_main(good), cmds).failed == 0
    corrupted = [
        dict(good, k=(K_CSV, "3 breakpoints on [0, 1.0]\n", 0)),
        dict(good, k=(K_CSV + "0.2,0.25\n", "2 breakpoints on [0, 1.0]\n", 0)),
        dict(good, verify=(json.dumps({"passed": False}), "", 1)),
        dict(good, verify=(json.dumps({"passed": False}), "", 0)),
        dict(good, verify=("{not json", "", 0)),
        dict(good, verify=("", "", None)),
    ]
    for outputs in corrupted:
        assert harness.run_pass(_fake_main(outputs), cmds).failed == 1, outputs


def _pass(**samples):
    """A PassRun whose commands took samples[label] = (seconds, ref)."""
    return harness.PassRun(
        sum(t for t, _ in samples.values()),
        [harness.CommandRun(k, t, 0, None, None, ref) for k, (t, ref) in samples.items()],
    )


def test_median_time_per_command_in_reference_loops():
    passes = [
        _pass(a=(3.0, 0.1), b=(1.0, 0.1)),
        _pass(a=(2.0, 0.2), b=(4.0, 0.1)),
        _pass(a=(5.0, 0.1), b=(1.5, 0.3)),
    ]
    assert harness.median_in_refs(passes) == pytest.approx({"a": 30.0, "b": 10.0})


def test_reference_loop_is_short():
    times = sorted(harness.reference_seconds() for _ in range(9))
    assert 1e-3 < times[0] and times[4] < 0.5


def test_measure_runs_whole_passes_within_the_time():
    cmds = [Command("verify", ("verify", "--config", "x"))]
    main = _fake_main({"verify": (json.dumps({"passed": True}), "", 0)})
    calls = []
    plain, traced = harness.measure(main, cmds, 0.0, False, lambda: calls.append(1))
    assert (len(plain), traced, len(calls)) == (1, [], 1)
    plain, traced = harness.measure(main, cmds, 1.0, True)
    assert len(plain) == len(traced) > 1
    assert all(len(p.commands) == 1 for p in plain + traced)


@pytest.mark.parametrize(
    "argv, out, err",
    [
        (("jumps",), "tau\n1,2\n", json.dumps({"max_residual": 1e-6, "route_deviation_max": 0.0})),
        (("jumps",), "tau\n1,2\n", json.dumps({"max_residual": 0.0, "route_deviation_max": 1e-7})),
        (("lyap",), "tau\n1,2\n", json.dumps({"max_residual": 2e-8})),
        (("sim",), "t\n" * 202, "max gap between recursive and jump-convolution responses: 1e-6"),
        (("sim",), "t\n" * 10, "max gap between recursive and jump-convolution responses: 1e-15"),
        (("check",), json.dumps({"rational_delays": False, "stability": {"verdict": "stable"}}), ""),
        (("approx",), json.dumps({"steps": [
            {"m": m, "unknowns": u, "solver": "dense", "sup_diff_prev": 1.0}
            for m, u in zip(workloads.LADDER_M, workloads.LADDER_UNKNOWNS)]}), ""),
    ],
)
def test_checks_reject_bad_outputs(argv, out, err):
    assert workloads.check_output(argv, 0, out, err) is not None


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_reported_metric():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    # single_batch is for runs by hand; see the README
    assert [w["name"] for w in spec["workloads"]] == ["sqrt2_ladder", "commensurate_two_route"]
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert list(layer) == tracer.metric_names() + ["trace.overhead"]
    assert all(layer[name] == run._unit(name) for name in layer)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_ref", "slowest_cmd_ref", "setup_s", "peak_rss_mib"]
