import argparse
import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import delaylyap as dl
from delaylyap.cli import build_parser, main

# the flags each command reads, with their defaults; every command also
# takes --config and --out, and refuses every other flag
FLAGS = {
    "check": {},
    "k": {"--horizon": None, "--side": "right"},
    "sim": {"--horizon": None, "--samples": 201, "--method": "recursive", "--phi": None},
    "lyap": {"--order": None, "--samples": 201, "--w/--weight": "identity"},
    "jumps": {"--order": None, "--w/--weight": "identity", "--segments-only": False},
    "approx": {"--samples": 201, "--w/--weight": "identity", "--orders": None},
    "verify": {"--tol": 1e-8, "--order": None, "--w/--weight": "identity"},
}
# a value each flag parses, None for a switch
FLAG_VALUES = {
    "--tol": "1e-6", "--horizon": "5", "--order": "2", "--samples": "11", "--w": "identity",
    "--weight": "identity", "--side": "left", "--method": "both", "--phi": "phi.json",
    "--segments-only": None, "--orders": "1",
}
# 10^30 - 1 basic steps between the delays
TINY_GCD = 10**30 - 1


@pytest.fixture()
def configs(tmp_path):
    """System descriptor files used across the command tests."""
    paths = {}

    def put(name, vsys):
        p = tmp_path / f"{name}.json"
        p.write_text(dl.system_to_json(vsys.system))
        paths[name] = str(p)

    put("scalar", dl.validate(dl.DelaySystem.single(0.5, Fraction(1))))
    put("two_delay", dl.validate(dl.DelaySystem(2, [
        (Fraction(1), 0.5 * np.array([[-0.4, -0.3], [0.1, 0.15]])),
        (Fraction(3, 2), 0.5 * np.array([[0.1, 0.25], [-0.9, -0.1]])),
    ])))
    put("three_delay", dl.validate(dl.DelaySystem(2, [
        (Fraction(1), np.array([[0.2, -0.1], [0.05, 0.1]])),
        (Fraction(13, 10), np.array([[-0.1, 0.1], [0.0, 0.15]])),
        (Fraction(17, 10), np.array([[0.1, 0.05], [-0.1, 0.05]])),
    ])))
    put("unstable", dl.validate(dl.DelaySystem(2, [
        (Fraction(1), np.array([[1.1, 0.0], [-0.4, 0.0]])),
        (Fraction(3, 2), np.array([[0.25, -0.125], [-0.4, -0.5]])),
    ])))
    put("irrational", dl.validate(dl.DelaySystem(1, [
        (1.0, np.array([[0.3]])), (math.sqrt(2.0), np.array([[0.2]])),
    ])))
    put("critical", dl.validate(dl.DelaySystem.single(np.diag([2.0, 0.5]), Fraction(1))))

    bad = tmp_path / "singular.json"
    bad.write_text('{"n": 1, "entries": [{"delay": 1, "A": [[1.0]]}]}')
    paths["singular"] = str(bad)

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{nope")
    paths["garbage"] = str(garbage)
    return paths


class TestCheck:
    def test_stable_system(self, configs, capsys):
        assert main(["check", "--config", configs["scalar"]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["valid"] is True
        assert data["stability"]["verdict"] == "stable"
        assert data["delays"] == [1.0]

    def test_unstable_still_exits_zero(self, configs, capsys):
        assert main(["check", "--config", configs["unstable"]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stability"]["verdict"] == "unstable"

    def test_singular_system_exits_two(self, configs, capsys):
        assert main(["check", "--config", configs["singular"]]) == 2
        assert "invalid system" in capsys.readouterr().err

    def test_malformed_json_exits_three(self, configs, capsys):
        assert main(["check", "--config", configs["garbage"]]) == 3

    def test_integer_too_large_for_a_float_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "big.json"
        cfg.write_text('{"n": 1, "entries": [{"delay": 1, "A": [[%s]]}]}' % ("1" * 400))
        assert main(["check", "--config", str(cfg)]) == 3
        assert capsys.readouterr().out == ""

    def test_delay_too_large_for_a_float_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "far.json"
        cfg.write_text('{"n": 1, "entries": [{"delay": %s, "A": [[0.5]]}]}' % ("1" * 400))
        assert main(["check", "--config", str(cfg)]) == 2
        assert "invalid system" in capsys.readouterr().err

    def test_missing_file_exits_three(self, tmp_path, capsys):
        assert main(["check", "--config", str(tmp_path / "nope.json")]) == 3

    def test_out_file(self, configs, tmp_path):
        out = tmp_path / "report.json"
        assert main(["check", "--config", configs["scalar"], "--out", str(out)]) == 0
        assert json.loads(out.read_text())["valid"] is True


class TestJsonNumbersOnly:
    """Booleans, numeric strings and integers past Python's digit limit
    are parse errors wherever a coefficient, weight or initial value is
    read: exit 3, with nothing on stdout."""

    HUGE = "1" * 5000

    @pytest.mark.parametrize("descriptor", [
        '{"n": 1, "entries": [{"delay": 1, "A": [["0.5"]]}]}',
        '{"n": 1, "entries": [{"delay": 1, "A": [[true]]}]}',
        '{"n": 1, "entries": [{"delay": {"num": true, "den": 2}, "A": [[0.5]]}]}',
        '{"n": 1, "entries": [{"delay": 1, "A": [[%s]]}]}' % HUGE,
    ])
    def test_descriptor(self, tmp_path, capsys, descriptor):
        path = tmp_path / "sys.json"
        path.write_text(descriptor)
        assert main(["check", "--config", str(path)]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("weight", ['[["1"]]', "[[true]]", '{"W": [[false]]}', "[[%s]]" % HUGE])
    def test_weight(self, configs, tmp_path, capsys, weight):
        path = tmp_path / "w.json"
        path.write_text(weight)
        assert main(["lyap", "--config", configs["scalar"], "--weight", str(path)]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("phi", [
        '{"constant": [true]}',
        '{"constant": ["1"]}',
        '{"constant": [%s]}' % HUGE,
        '{"segments": [{"start": "-1", "value": [1.0]}]}',
        '{"segments": [{"start": true, "value": [1.0]}]}',
        '{"segments": [{"start": -1, "value": [false]}]}',
        '{"segments": [{"start": -1, "value": [1.0], "slope": ["0"]}]}',
    ])
    def test_phi(self, configs, tmp_path, capsys, phi):
        path = tmp_path / "phi.json"
        path.write_text(phi)
        assert main(["sim", "--config", configs["scalar"], "--phi", str(path)]) == 3
        assert capsys.readouterr().out == ""


class TestK:
    def test_stdout_csv(self, configs, capsys):
        assert main(["k", "--config", configs["scalar"], "--horizon", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,K11"
        assert len(lines) >= 4

    def test_sides(self, configs, tmp_path):
        right = tmp_path / "r.csv"
        left = tmp_path / "l.csv"
        for side, out in (("right", right), ("left", left)):
            rc = main(["k", "--config", configs["two_delay"], "--horizon", "5",
                       "--side", side, "--out", str(out)])
            assert rc == 0
        a = np.loadtxt(right, delimiter=",", skiprows=1)
        b = np.loadtxt(left, delimiter=",", skiprows=1)
        np.testing.assert_allclose(a, b, atol=1e-12)


    def test_delay_merged_to_zero_exits_two(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(dl.system_to_json(dl.DelaySystem(1, [(1e-10, [[0.2]]), (1.0, [[0.3]])])))
        assert main(["k", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "merge tolerance" in captured.err


class TestSim:
    def test_default_constant_initial(self, configs, capsys):
        rc = main(["sim", "--config", configs["scalar"], "--horizon", "3",
                   "--samples", "7"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,x1"
        assert len(lines) == 8

    def test_both_methods_report_gap(self, configs, capsys):
        rc = main(["sim", "--config", configs["two_delay"], "--horizon", "4",
                   "--samples", "41", "--method", "both"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "max gap" in err

    def test_steps_on_lattice_arguments_keep_the_routes_together(self, configs, tmp_path, capsys):
        # fl(t - h_j - t_q) lands an ulp below the step at -1.0; both routes
        # must read the piece from -1.0 there
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({"segments": [
            {"start": -1.7, "value": [1, -1], "slope": [0.5, 0]},
            {"start": -1.0, "value": [-2, 3]},
        ]}))
        rc = main(["sim", "--config", configs["three_delay"], "--phi", str(phi), "--method", "both",
                   "--horizon", "10", "--samples", "101"])
        assert rc == 0
        assert float(capsys.readouterr().err.rsplit(":", 1)[1]) <= 1e-9

    def test_phi_segments(self, configs, tmp_path, capsys):
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({"segments": [
            {"start": -1.5, "value": [1.0, 0.0]},
            {"start": -0.5, "value": [0.0, 1.0], "slope": [1.0, 0.0]},
        ]}))
        rc = main(["sim", "--config", configs["two_delay"], "--horizon", "2",
                   "--samples", "11", "--phi", str(phi)])
        assert rc == 0

    def test_node_cap_exits_six(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text('{"n": 1, "entries": [{"delay": 1e-4, "A": [[0.5]]}]}')
        assert main(["sim", "--config", str(path), "--horizon", "200"]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("size cap: response recursion exceeded")

    def test_bad_phi(self, configs, tmp_path):
        phi = tmp_path / "phi.json"
        phi.write_text('{"constant": [1.0]}')
        rc = main(["sim", "--config", configs["two_delay"], "--phi", str(phi)])
        assert rc == 3

    def test_non_numeric_phi_exits_three(self, configs, tmp_path, capsys):
        phi = tmp_path / "phi.json"
        phi.write_text('{"constant": ["a", 1.0]}')
        assert main(["sim", "--config", configs["two_delay"], "--phi", str(phi)]) == 3
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"constant": [NaN, 1.0]}',
        '{"segments": [{"start": -%s, "value": [1.0, 0.0]}]}' % ("1" * 400),
        '{"constant": [1e400, 1.0]}',
        '{"segments": [{"start": -1.5, "value": [1.0, -Infinity]}]}',
    ])
    def test_non_finite_phi_exits_three(self, configs, tmp_path, capsys, text):
        phi = tmp_path / "phi.json"
        phi.write_text(text)
        assert main(["sim", "--config", configs["two_delay"], "--phi", str(phi)]) == 3
        assert capsys.readouterr().out == ""


class TestLyap:
    def test_stdout_with_residual_diag(self, configs, capsys):
        assert main(["lyap", "--config", configs["scalar"]]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "tau,U11"
        diag = json.loads(captured.err.splitlines()[-1])
        assert diag["symmetry"] <= 1e-8

    def test_out_writes_residual_sidecar(self, configs, tmp_path):
        out = tmp_path / "u.csv"
        assert main(["lyap", "--config", configs["two_delay"], "--out", str(out)]) == 0
        assert out.exists()
        sidecar = json.loads((tmp_path / "u.csv.residuals.json").read_text())
        assert sidecar["dynamic"] <= 1e-8

    def test_irrational_requires_order(self, configs):
        assert main(["lyap", "--config", configs["irrational"]]) == 3

    def test_irrational_with_order(self, configs, capsys):
        rc = main(["lyap", "--config", configs["irrational"], "--order", "2"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("tau,U11")

    def test_critical_exits_four(self, configs, recwarn):
        assert main(["lyap", "--config", configs["critical"]]) == 4

    def test_weight_file(self, configs, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"W": [[2.0, 0.0], [0.0, 1.0]]}))
        assert main(["lyap", "--config", configs["two_delay"], "--w", str(wpath)]) == 0

    def test_weight_flag_alias(self, configs, tmp_path):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps([[2.0, 0.0], [0.0, 1.0]]))
        rc = main(["lyap", "--config", configs["two_delay"], "--weight", str(wpath)])
        assert rc == 0

    def test_bad_weight(self, configs, tmp_path):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps([[1.0, 0.5], [0.4, 1.0]]))
        assert main(["lyap", "--config", configs["two_delay"], "--w", str(wpath)]) == 3


    def test_weight_integer_too_large_for_a_float(self, configs, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        wpath.write_text("[[%s, 0], [0, 1]]" % ("1" * 400))
        assert main(["lyap", "--config", configs["two_delay"], "--w", str(wpath)]) == 3
        assert capsys.readouterr().out == ""


class TestJumps:
    def test_stable_full_report(self, configs, capsys):
        assert main(["jumps", "--config", configs["two_delay"]]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0].startswith("tau,dU11")
        summary = json.loads(captured.err.splitlines()[-1])
        assert "route_deviation_max" in summary

    def test_one_jump_table_per_command(self, configs, capsys, monkeypatch):
        builds = []

        def counting(*args, **kwargs):
            builds.append(args[1])
            return dl.delta_k(*args, **kwargs)

        monkeypatch.setattr(dl.jump_analysis, "delta_k", counting)
        monkeypatch.setattr(dl.cli, "delta_k", counting, raising=False)
        assert main(["jumps", "--config", configs["two_delay"]]) == 0
        summary = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert len(builds) == 1
        assert summary["route_deviation_max"] <= 1e-9

    @pytest.mark.parametrize("scale", [1, 10**9])
    def test_routes_agree_row_by_row(self, tmp_path, capsys, scale):
        # at h = 5e-10 a lookup of each shift within 1e-9 read a neighbour
        mats = (0.5 * np.array([[-0.4, -0.3], [0.1, 0.15]]), 0.5 * np.array([[0.1, 0.25], [-0.9, -0.1]]))
        path = tmp_path / "scaled.json"
        path.write_text(dl.system_to_json(dl.DelaySystem(2, [
            (Fraction(1, scale), mats[0]), (Fraction(3, 2 * scale), mats[1]),
        ])))
        assert main(["jumps", "--config", str(path)]) == 0
        summary = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert summary["route_deviation_max"] <= 1e-12

    def test_unstable_needs_segments_only(self, configs, capsys):
        assert main(["jumps", "--config", configs["unstable"]]) == 5
        capsys.readouterr()
        rc = main(["jumps", "--config", configs["unstable"], "--segments-only"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("tau,dU11")


class TestApprox:
    def test_ladder_json(self, configs, capsys):
        rc = main(["approx", "--config", configs["irrational"], "--orders", "1,2"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["orders"] == [1, 2]
        assert len(data["steps"]) == 2
        assert data["verdicts_agree"] in (True, False)
        assert data["steps"][1]["sup_diff_prev"] is not None

    def test_out_files(self, configs, tmp_path, capsys):
        base = tmp_path / "ladder"
        rc = main(["approx", "--config", configs["irrational"], "--orders", "1,3",
                   "--out", str(base)])
        assert rc == 0
        assert (tmp_path / "ladder_s1.csv").exists()
        assert (tmp_path / "ladder_s3.csv").exists()
        conv = json.loads((tmp_path / "ladder_convergence.json").read_text())
        assert len(conv["steps"]) == 2

    def test_bad_orders(self, configs):
        assert main(["approx", "--config", configs["irrational"], "--orders", "a,b"]) == 3
        assert main(["approx", "--config", configs["irrational"], "--orders", ","]) == 3

    def test_oversized_order_exits_six(self, configs):
        assert main(["approx", "--config", configs["irrational"], "--orders", "14"]) == 6

    @pytest.mark.parametrize("argv", [
        ["approx", "--orders", "0"], ["lyap", "--order", "0"], ["jumps", "--order", "0"],
        ["verify", "--order", "0"],
    ])
    def test_zero_convergent_exits_two(self, argv, tmp_path, capsys):
        # the order-0 convergent of the delay 0.3 is 0: no order this low
        # exists for it, an invalid input (exit 2) and not a failed gate
        path = tmp_path / "short.json"
        path.write_text('{"n": 1, "entries": [{"delay": 0.3, "A": [[0.2]]}, '
                        '{"delay": 0.7071067811865476, "A": [[0.3]]}]}')
        assert main(argv + ["--config", str(path)]) == 2
        assert "order-0 convergent of delay 0.3 is 0" in capsys.readouterr().err


class TestVerify:
    def test_stable_passes_all_gates(self, configs, capsys):
        assert main(["verify", "--config", configs["two_delay"]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["gates"]["residuals"] is True
        assert data["gates"]["integral_cross_check"] is True
        assert data["gates"]["p_matrix_oracle"] is True

    def test_unstable_runs_residual_gates_only(self, configs, capsys):
        assert main(["verify", "--config", configs["unstable"]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert "integral_cross_check" not in data["gates"]
        assert "skipped" in data["integral_cross_check"]

    def test_scalar(self, configs, capsys):
        assert main(["verify", "--config", configs["scalar"]]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True


class TestFlagValues:
    @pytest.mark.parametrize("argv", [
        ["k", "--horizon", "-1"],
        ["k", "--horizon", "nan"],
        ["sim", "--horizon", "-2.5"],
        ["sim", "--horizon", "inf"],
        ["sim", "--samples", "-1"],
        ["lyap", "--samples", "-3"],
        ["approx", "--samples", "-1", "--orders", "1"],
        ["verify", "--tol", "nan"],
        ["verify", "--tol", "-0.5"],
        ["lyap", "--order", "-1"],
        ["jumps", "--order", "-1"],
        ["verify", "--order", "-2"],
        ["approx", "--orders", "-1"],
        ["approx", "--orders", "4,-1"],
    ])
    def test_bad_value_is_a_parse_error_before_any_work(self, argv, configs, capsys, monkeypatch):
        def no_load(path):
            raise AssertionError("the system was loaded")

        monkeypatch.setattr(dl.cli, "_load_validated", no_load)
        assert main(argv + ["--config", configs["two_delay"]]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"parse error: {argv[1]} must be finite and nonnegative, got ")

    def test_approx_without_samples_is_a_parse_error_before_any_work(self, configs, capsys, monkeypatch):
        # the sup differences between orders need a grid point
        def no_load(path):
            raise AssertionError("the system was loaded")

        monkeypatch.setattr(dl.cli, "_load_validated", no_load)
        assert main(["approx", "--samples", "0", "--orders", "1,4", "--config", configs["irrational"]]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("parse error: --samples must be at least 1")


class TestTinyGcd:
    @pytest.mark.parametrize("command, code", [("check", 0), ("lyap", 6), ("verify", 6)])
    def test_fails_fast(self, tmp_path, capsys, command, code):
        path = tmp_path / "tiny_gcd.json"
        path.write_text(dl.system_to_json(dl.DelaySystem(1, [
            (Fraction(1, TINY_GCD), [[0.3]]), (Fraction(1), [[0.2]]),
        ])))
        assert main([command, "--config", str(path)]) == code
        out, err = capsys.readouterr()
        if command == "check":
            assert json.loads(out)["stability"]["method"] == "torus_grid_heuristic"
        else:
            assert err.startswith(f"size cap: commensurate rewrite needs m = {TINY_GCD} basic steps")


class TestTinyDelays:
    """Snap quanta relative to h_max, the horizon or the shift span: the
    basic step 1 / (10^30 - 1) reads what the step 1 reads, and a delay
    whose 1e-12 quantum is subnormal fails fast."""

    @staticmethod
    def write(tmp_path, den):
        path = tmp_path / "steps.json"
        path.write_text(dl.system_to_json(dl.DelaySystem(1, [(Fraction(1, den), [[0.3]]), (Fraction(2, den), [[0.2]])])))
        return str(path)

    @pytest.mark.parametrize("den", [1, TINY_GCD])
    def test_jump_identities_hold(self, tmp_path, capsys, den):
        assert main(["jumps", "--config", self.write(tmp_path, den)]) == 0
        summary = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert summary["max_residual"] <= 1e-12
        assert summary["route_deviation_max"] <= 1e-12

    def test_response_is_the_unit_step_response(self, tmp_path, capsys):
        columns = []
        for den in (1, TINY_GCD):
            assert main(["sim", "--config", self.write(tmp_path, den), "--samples", "21"]) == 0
            columns.append([line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]])
        assert columns[0] == columns[1]
        assert "nan" not in columns[1]

    @pytest.mark.parametrize("command, delay", [("verify", 5e-324), ("jumps", 1e-300)])
    def test_delay_below_every_relative_quantum_exits_two(self, tmp_path, capsys, command, delay):
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps({"n": 1, "entries": [{"delay": delay, "A": [[0.3]]}]}))
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invalid input: delays must be positive with 1e-12 * delay a normal float")


def _subparsers():
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestFlagSurface:
    def test_each_command_takes_the_flags_it_reads(self):
        subs = _subparsers()
        assert set(subs) == set(FLAGS)
        total = 0
        for command, parser in subs.items():
            options = {
                "/".join(a.option_strings): a.default
                for a in parser._actions
                if not isinstance(a, argparse._HelpAction)
            }
            assert options.pop("--config") is None and options.pop("--out") is None
            assert options == FLAGS[command], command
            total += len(options) + 2
        assert total == 32

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_every_other_flag_is_refused(self, command, capsys):
        base = [command, "--config", "sys.json"] + (["--orders", "1"] if command == "approx" else [])
        row = {name for key in FLAGS[command] for name in key.split("/")}
        for flag, value in FLAG_VALUES.items():
            argv = base + [flag] + ([value] if value is not None else [])
            if flag in row:
                build_parser().parse_args(argv)
                continue
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2, argv
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_no_flag_is_read_as_the_prefix_of_another(self, configs, capsys):
        for argv in (["--order", "7"], ["--orders", "1", "--order", "7"]):
            with pytest.raises(SystemExit) as exc:
                main(["approx", "--config", configs["irrational"]] + argv)
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""


_MESSY = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), True, False, None, "0.5", "1", [], {}])


def _good_delays(num, den):
    """Three delays: floats, integers up to num, fractions up to num / den,
    tiny floats, or fractions whose gcd is tiny."""
    return st.one_of(
        st.lists(st.floats(1e-3, 5.0), min_size=3, max_size=3),
        st.lists(st.integers(1, min(num, 8)), min_size=3, max_size=3),
        st.lists(st.builds(lambda p, q: {"num": p, "den": q}, st.integers(1, num), st.integers(1, den)), min_size=3, max_size=3),
        st.lists(st.floats(5e-324, 1e-6), min_size=3, max_size=3),
        st.integers(1, 5).map(lambda k: [{"num": 1, "den": TINY_GCD}] + [{"num": j * TINY_GCD, "den": TINY_GCD} for j in (k, k + 1)]),
    )


_BAD_DELAYS = st.one_of(
    _MESSY,
    st.builds(lambda num, den: {"num": num, "den": den}, st.one_of(st.integers(-3, 3), _MESSY), st.one_of(st.integers(-3, 3), _MESSY)),
)


def _bad_matrix(n):
    return st.one_of(
        _MESSY,
        st.just([]),
        st.just([[]] * n),
        st.lists(st.lists(st.one_of(st.floats(-1, 1), _MESSY), max_size=4), max_size=4),
    )


def _swap(draw):
    """True for about one part in six: swap that part for a messy value."""
    return draw(st.sampled_from((False,) * 5 + (True,)))


@st.composite
def mutated_descriptors(draw, n_max=3, num=40, den=20):
    """A descriptor with n <= n_max and one to three delays (three float
    delays make a torus grid of 64^2 evaluations), about one in six of its
    parts swapped for a wrong type, a boolean, a numeric string, a huge
    integer, an empty or ragged array or a NaN token; its delays are
    floats, integers, fractions up to num / den, tiny floats or fractions
    whose gcd is tiny."""
    n = draw(st.integers(1, n_max))
    q = draw(st.integers(1, 3))
    delays = sorted(draw(_good_delays(num, den))[:q], key=lambda d: d["num"] / d["den"] if isinstance(d, dict) else d)
    entries = []
    for delay in delays:
        a = np.array(draw(st.lists(st.floats(-0.4, 0.4), min_size=n * n, max_size=n * n))).reshape(n, n).tolist()
        entries.append({"delay": draw(_BAD_DELAYS) if _swap(draw) else delay, "A": draw(_bad_matrix(n)) if _swap(draw) else a})
    desc = {"n": draw(st.one_of(_MESSY, st.integers(-1, 10**400))) if _swap(draw) else n, "entries": entries}
    if _swap(draw):
        desc = draw(st.sampled_from([[], {}, "x", None, {"n": n}, {"n": n, "entries": []}, {"n": n, "entries": [1]}]))
    return desc


def _holds_bool_or_text(doc) -> bool:
    """Whether a boolean or a string stands anywhere in doc as a value;
    every number the commands read must be a JSON number."""
    if isinstance(doc, (bool, str)):
        return True
    items = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    return any(_holds_bool_or_text(x) for x in items)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestCheckDescriptorProperty:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("descriptors") / "sys.json"

    @settings(max_examples=100, deadline=None)
    @given(desc=mutated_descriptors())
    def test_check_exits_with_a_documented_code(self, path, desc):
        path.write_text(json.dumps(desc))
        code, err = _run_quietly(["check", "--config", str(path)])
        assert code in range(7)
        assert "Traceback" not in err
        assert code == 3 or not _holds_bool_or_text(desc)

    # n <= 2 and fractions up to 8/4, so that h >= 1/12, m <= 96 and a
    # build has at most 768 unknowns
    @pytest.mark.parametrize("command", ["lyap", "jumps", "verify"])
    @settings(max_examples=40, deadline=None)
    @given(desc=mutated_descriptors(n_max=2, num=8, den=4))
    def test_building_commands_exit_with_a_documented_code(self, path, command, desc):
        path.write_text(json.dumps(desc))
        argv = [command, "--config", str(path)] + (["--samples", "11"] if command == "lyap" else [])
        code, err = _run_quietly(argv)
        assert code in range(7)
        assert "Traceback" not in err
        assert code == 3 or not _holds_bool_or_text(desc)


def _messy_vector(draw, n):
    """n numbers (sometimes one too few or too many), each possibly messy."""
    size = draw(st.sampled_from((n,) * 5 + (n - 1, n + 1)))
    return [draw(_MESSY) if _swap(draw) else draw(st.floats(-2.0, 2.0)) for _ in range(size)]


@st.composite
def mutated_weights(draw):
    """A 2 x 2 weight as a bare matrix or as {"W": matrix}, symmetric or
    not, definite or not, with entries, the matrix or the document swapped
    for a wrong type, a huge integer, an empty or ragged array or a NaN
    token."""
    a, b, c = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    mat = [[a, b], [b if draw(st.booleans()) else -b, c]]
    mat = [[draw(_MESSY) if _swap(draw) else x for x in row] for row in mat]
    if _swap(draw):
        mat = draw(_bad_matrix(2))
    doc = {"W": mat} if draw(st.booleans()) else mat
    if _swap(draw):
        doc = draw(st.sampled_from([{}, {"w": mat}, "x", None, 1.0, [[1.0]], {"W": None}]))
    return doc


@st.composite
def mutated_phis(draw):
    """A 2-vector initial function (h_max is 3/2) as a constant or as up to
    three segments starting in [-3, 0], with a start, value or slope
    swapped for a messy value, a key dropped, or the document replaced by
    a wrong type."""
    if draw(st.booleans()):
        doc = {"constant": _messy_vector(draw, 2)}
    else:
        starts = sorted(draw(st.lists(st.floats(-3.0, 0.0), min_size=1, max_size=3)))
        segs = []
        for start in starts:
            seg = {"start": draw(_MESSY) if _swap(draw) else start, "value": _messy_vector(draw, 2)}
            if draw(st.booleans()):
                seg["slope"] = _messy_vector(draw, 2)
            if _swap(draw):
                del seg[draw(st.sampled_from(sorted(seg)))]
            segs.append(seg)
        doc = {"segments": segs}
    if _swap(draw):
        doc = draw(st.sampled_from([[], {}, "x", None, {"segments": []}, {"segments": "x"}, {"segments": [1]}, {"constant": None}]))
    return doc


class TestInputFileProperty:
    """Mutated weight and initial-function files: a documented exit code,
    never a traceback."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("inputs")
        system = base / "sys.json"
        system.write_text(dl.system_to_json(dl.DelaySystem(2, [
            (Fraction(1), 0.5 * np.array([[-0.4, -0.3], [0.1, 0.15]])),
            (Fraction(3, 2), 0.5 * np.array([[0.1, 0.25], [-0.9, -0.1]])),
        ])))
        return str(system), base / "input.json"

    @settings(max_examples=60, deadline=None)
    @given(doc=mutated_weights())
    def test_lyap_weight_exits_with_a_documented_code(self, files, doc):
        system, path = files
        path.write_text(json.dumps(doc))
        code, err = _run_quietly(["lyap", "--config", system, "--samples", "11", "--weight", str(path)])
        assert code in range(7)
        assert "Traceback" not in err
        assert code == 3 or not _holds_bool_or_text(doc)

    @settings(max_examples=60, deadline=None)
    @given(doc=mutated_phis())
    def test_sim_phi_exits_with_a_documented_code(self, files, doc):
        system, path = files
        path.write_text(json.dumps(doc))
        code, err = _run_quietly(["sim", "--config", system, "--horizon", "2", "--samples", "11", "--method", "both", "--phi", str(path)])
        assert code in range(7)
        assert "Traceback" not in err
        assert code == 3 or not _holds_bool_or_text(doc)


def lone_delay_config(tmp_path, delay: str) -> str:
    """A stable 2 x 2 single-delay descriptor with the delay written as
    the JSON text delay."""
    path = tmp_path / "lone.json"
    path.write_text('{"n": 2, "entries": [{"delay": %s, "A": [[0.3, -0.4], [0.2, 0.5]]}]}' % delay)
    return str(path)


class TestLoneDelay:
    """A lone delay, a float included, is exact from the descriptor on."""

    @pytest.mark.parametrize("delay", ["1.4142135623730951", "0.1", "0.001", "12345.678"])
    def test_check_reads_a_lone_float_delay_as_rational(self, tmp_path, capsys, delay):
        assert main(["check", "--config", lone_delay_config(tmp_path, delay)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rational_delays"] is True
        assert (data["stability"]["method"], data["stability"]["verdict"]) == ("commensurate_companion", "stable")
        assert data["delays"] == [float(delay)]

    @pytest.mark.parametrize("delay", ['{"num": 1, "den": 3}', "1", "1.4142135623730951"])
    def test_k_keeps_the_instant_at_its_default_horizon(self, tmp_path, capsys, delay):
        # 5 h_max in floats is 1.6666666666666665 for h = 1/3, just below 5/3
        assert main(["k", "--config", lone_delay_config(tmp_path, delay)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 7
        assert captured.err.startswith("6 breakpoints on ")

    @pytest.mark.parametrize("delay", ['{"num": 1, "den": 3}', "1.4142135623730951", "0.1"])
    def test_sim_responses_agree_at_the_default_horizon(self, tmp_path, capsys, delay):
        assert main(["sim", "--config", lone_delay_config(tmp_path, delay), "--method", "both"]) == 0
        gap = float(capsys.readouterr().err.rsplit(":", 1)[1])
        assert gap <= 1e-9


class TestLatticeReuse:
    """One K per system and side in a command: nested horizons read the
    prefix of the first build."""

    @pytest.fixture()
    def lattices(self, monkeypatch):
        calls, generate = [], dl.fundamental._Lattice.generate

        def counting(delays, horizon):
            calls.append(horizon)
            return generate(delays, horizon)

        monkeypatch.setattr(dl.fundamental._Lattice, "generate", staticmethod(counting))
        return calls

    def test_verify_generates_one_lattice(self, configs, capsys, lattices):
        assert main(["verify", "--config", configs["three_delay"]]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert len(lattices) == 1

    def test_jumps_generates_two(self, configs, capsys, lattices):
        # one for K (the decay envelope), one for the jump table
        assert main(["jumps", "--config", configs["three_delay"]]) == 0
        capsys.readouterr()
        assert len(lattices) == 2

    def test_lone_float_delay_reuses_k_too(self, tmp_path, capsys, lattices):
        # a lone float delay is stored exact, so its K is kept like any
        # rational system's: verify builds one lattice, jumps one for K and
        # one for dK
        path = lone_delay_config(tmp_path, "1.4142135623730951")
        assert main(["verify", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert len(lattices) == 1
        assert main(["jumps", "--config", path]) == 0
        capsys.readouterr()
        assert len(lattices) == 3


class TestZeroRadius:
    @pytest.mark.parametrize("entries, commands", [
        ([[[0.0, 0.5], [0.0, 0.0]]], ("check", "jumps", "verify")),
        ([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], ("check", "verify")),
        # K of the 5 x 5 shift times 2 is nonzero up to t = 4, past 3 h_max
        ([(2.0 * np.eye(5, k=1)).tolist()], ("check", "jumps", "verify")),
        ([(2.0 * np.eye(5, k=1)).tolist()] * 2, ("check", "jumps", "verify")),
        # U of the 5 x 5 shift times 10 reaches about 1e8, and its residual
        # of about 6e-8 passes the gate relative to that scale
        ([(10.0 * np.eye(5, k=1)).tolist()], ("check", "verify")),
    ])
    def test_commands_succeed(self, tmp_path, capsys, entries, commands):
        delays = [{"delay": 1, "A": entries[0]}] + [{"delay": {"num": 3, "den": 2}, "A": a} for a in entries[1:]]
        path = tmp_path / "zero_radius.json"
        path.write_text(json.dumps({"n": len(entries[0]), "entries": delays}))
        for cmd in commands:
            assert main([cmd, "--config", str(path)]) == 0
            out, err = capsys.readouterr()
            if cmd == "check":
                assert json.loads(out)["stability"]["spectral_radius"] == 0.0
            elif cmd == "verify":
                assert json.loads(out)["passed"] is True
            else:
                assert json.loads(err.splitlines()[-1])["max_residual"] == 0.0


class TestConsoleScript:
    def test_entry_point_smoke(self, configs):
        exe = shutil.which("delaylyap")
        if exe is None:
            cmd = [sys.executable, "-m", "delaylyap.cli"]
        else:
            cmd = [exe]
        proc = subprocess.run(
            cmd + ["check", "--config", configs["scalar"]],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["valid"] is True

    def test_import_leaves_scipy_spatial_out(self, tmp_path):
        # scipy loads at the first build of U (scipy.spatial alone costs
        # about 130 ms): importing the CLI, or a check, loads none of it
        path = tmp_path / "single.json"
        path.write_text('{"n": 2, "entries": [{"delay": 1, "A": [[0.5, 0.1], [0.0, -0.3]]}]}')
        probe = "import sys\n{}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        for run in ("import delaylyap.cli", f"from delaylyap.cli import main; main(['check', '--config', {str(path)!r}])"):
            proc = subprocess.run([sys.executable, "-c", probe.format(run)], capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == "[]"


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, configs, capsys, monkeypatch):
        # the parser is built once per process; an argparse error in the
        # middle must leave later calls as they would be on their own
        monkeypatch.setenv("COLUMNS", "80")
        runs = [
            ["check", "--config", configs["scalar"]],
            ["k", "--config", configs["scalar"], "--horizon", "2"],
            ["check", "--orders", "1"],
            ["sim", "--config", configs["two_delay"], "--horizon", "1", "--samples", "3"],
        ]
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-m", "delaylyap.cli", *argv], capture_output=True, timeout=120)
            assert (code, out, err) == (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
        assert code == 0
