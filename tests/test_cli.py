import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import statbundle
from statbundle import fileio
from statbundle.cli import DEMO_FILES, main
from statbundle.expfam import natural_gradient_flow


def write_fixture(tmp_path, name):
    path = tmp_path / name
    fileio.write_json(path, DEMO_FILES[name])
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestVerifyCommand:
    def test_passes_with_exit_zero(self, capsys):
        rc = main(["verify", "--seed", "3", "--trials", "1", "--sizes", "2x2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "weyl-exponential" in out

    def test_tiny_tolerance_fails(self, capsys):
        rc = main(
            ["verify", "--seed", "3", "--trials", "1", "--sizes", "2x2",
             "--tol", "1e-30"]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_zero_trials_is_a_usage_error(self, capsys):
        rc = main(["verify", "--trials", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: trials must be at least 1\n"

    def test_non_numeric_trials_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--trials", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid int value: 'abc'" in err
        assert "_positive_int" not in err

    def test_malformed_sizes(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--sizes", "2by2"])
        assert exc.value.code == 2

    def test_negative_seed_is_a_usage_error(self, capsys):
        rc = main(["verify", "--seed=-1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_tolerance_must_be_positive_and_finite(self, tol, capsys):
        rc = main(["verify", "--trials", "1", "--sizes", "2x2", "--tol", tol])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: tolerance slack must be positive and finite\n"
        )

    @pytest.mark.parametrize("sizes", ["-2x3", "1x3", "2x2,3x1"])
    def test_sizes_below_two_are_an_error(self, sizes, capsys):
        rc = main(["verify", "--trials", "1", f"--sizes={sizes}"])
        assert rc == 2
        assert "at least 2 outcomes per factor" in capsys.readouterr().err


class TestBayesCommand:
    def test_worked_example_outputs(self, tmp_path, capsys):
        joint = write_fixture(tmp_path, "coupled_joint.json")
        velocity = write_fixture(tmp_path, "coupled_joint_velocity.json")
        out = tmp_path / "out"
        rc = main(
            ["bayes", "--joint", str(joint), "--velocity", str(velocity),
             "--out", str(out)]
        )
        assert rc == 0

        _, rows = read_csv(out / "marginal.csv")
        assert [float(r[2]) for r in rows] == [1.0, 1.0]

        _, rows = read_csv(out / "conditionals.csv")
        values = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        assert values[(0, 0)] == pytest.approx(1.6, abs=1e-15)
        assert values[(0, 1)] == pytest.approx(0.4, abs=1e-15)
        assert values[(1, 0)] == pytest.approx(0.4, abs=1e-15)
        assert values[(1, 1)] == pytest.approx(1.6, abs=1e-15)

        header, rows = read_csv(out / "kl_chain.csv")
        chain = dict(zip(header, [float(v) for v in rows[0]]))
        expected = -0.5 * math.log(0.64)
        assert chain["total"] == pytest.approx(expected, abs=1e-12)
        assert chain["marginal_term"] == pytest.approx(0.0, abs=1e-12)
        assert chain["conditional_term"] == pytest.approx(expected, abs=1e-12)

        _, rows = read_csv(out / "marginal_derivative.csv")
        assert [float(r[1]) for r in rows] == [0.0, 0.0]

        _, rows = read_csv(out / "conditional_derivatives.csv")
        values = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        assert values[(0, 0)] == pytest.approx(0.4, abs=1e-15)
        assert values[(0, 1)] == pytest.approx(-1.6, abs=1e-15)

    def test_independent_joint_has_equal_conditionals(self, tmp_path):
        joint = tmp_path / "joint.json"
        fileio.write_json(
            joint,
            {
                "left": {"weights": [0.5, 0.5]},
                "right": {"weights": [0.5, 0.5]},
                "values": [[1.2, 0.8], [1.2, 0.8]],
            },
        )
        out = tmp_path / "out"
        assert main(["bayes", "--joint", str(joint), "--out", str(out)]) == 0
        _, rows = read_csv(out / "conditionals.csv")
        values = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        assert values[(0, 0)] == pytest.approx(values[(1, 0)], abs=1e-14)
        assert values[(0, 1)] == pytest.approx(values[(1, 1)], abs=1e-14)

    def test_corrupted_joint_names_coordinate(self, tmp_path, capsys):
        joint = tmp_path / "joint.json"
        fileio.write_json(
            joint,
            {
                "left": {"weights": [0.5, 0.5]},
                "right": {"weights": [0.5, 0.5]},
                "values": [[1.6, 0.4], [-0.4, 2.4]],
            },
        )
        rc = main(["bayes", "--joint", str(joint), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "(1, 0)" in err

    def test_velocity_with_nonzero_mean_reports_residual(self, tmp_path, capsys):
        joint = write_fixture(tmp_path, "coupled_joint.json")
        velocity = tmp_path / "velocity.json"
        fileio.write_json(velocity, {"values": [[1.0, 1.0], [1.0, 1.0]]})
        rc = main(
            ["bayes", "--joint", str(joint), "--velocity", str(velocity),
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "residual" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"left": {"weights": [0.5, 0.5]},', None),
            ('{"left": {"weights": [0.5, 0.5]}, "right": {"weights": [0.5, 0.5]},'
             ' "values": [[1.6, 0.4], [0.4]]}', "values"),
            ('{"left": {"weights": [0.5, 0.5]}, "right": {"weights": [0.5, 0.5]},'
             ' "values": [[1.6, 0.4], [0.4, "x"]]}', "values"),
            ('{"left": {"weights": [0.5, "half"]}, "right": {"weights": [0.5, 0.5]},'
             ' "values": [[1.6, 0.4], [0.4, 1.6]]}', "weights"),
            ('{"left": {"weights": [0.5, 0.5]}, "right": {"weights": [0.5, 0.5]},'
             ' "values": [[1.6, "0.4"], [0.4, 1.6]]}', "values"),
            ('{"left": {"weights": [0.5, 0.5]}, "right": {"weights": [true, 0.5]},'
             ' "values": [[1.6, 0.4], [0.4, 1.6]]}', "weights"),
            ('{"left": {"weights": [0.5, 0.5]}, "right": {"weights": [0.5, 0.5]},'
             ' "values": [[1.6, 0.4], [null, 1.6]]}', "values"),
            ('[[1.6, 0.4], [0.4, 1.6]]', None),
            ('{"left": {"weights": [0.5, 0.5]}, "right": {"weights": [0.5, 0.5]}}',
             "values"),
            ('{"left": [0.5, 0.5], "right": {"weights": [0.5, 0.5]},'
             ' "values": [[1.6, 0.4], [0.4, 1.6]]}', None),
            ('{"left": {"weights": 0.5}, "right": {"weights": [0.5, 0.5]},'
             ' "values": [[1.6, 0.4], [0.4, 1.6]]}', None),
            ('{"left": {"weights": [[0.5, 0.5]]}, "right": {"weights": [0.5, 0.5]},'
             ' "values": [[1.6, 0.4], [0.4, 1.6]]}', None),
            ('{"left": {"weights": [0.5, 0.5]}, "right": {"weights": [0.5, 0.5]},'
             ' "values": 1.0}', None),
            ('{"left": {"weights": [0.5, 0.5]}, "right": {"weights": [0.5, 0.5]},'
             ' "values": [1.6, [0.4, 0.4]]}', "values"),
        ],
        ids=["invalid-json", "ragged", "non-numeric", "non-numeric-weights",
             "numeric-string", "boolean", "null", "not-an-object", "missing-key",
             "malformed-space", "scalar-weights", "2d-weights", "scalar-values",
             "list-beside-numbers"],
    )
    def test_malformed_joint_names_file(self, request, tmp_path, capsys, text, key):
        joint = tmp_path / "malformed.json"
        joint.write_text(text)
        rc = main(["bayes", "--joint", str(joint), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(joint) in err
        assert err.count(str(joint)) == 1
        if key is not None:
            assert repr(key) in err
        if request.node.callspec.id == "list-beside-numbers":
            assert "ragged" in err and "string" not in err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(
            ["bayes", "--joint", str(tmp_path / "nope.json"), "--out",
             str(tmp_path / "o")]
        )
        assert rc == 2


class TestFlowCommand:
    def test_margin_family_converges(self, tmp_path, capsys):
        family = write_fixture(tmp_path, "margin_family.json")
        target = write_fixture(tmp_path, "flow_target.json")
        out = tmp_path / "flow"
        rc = main(
            ["flow", "--family", str(family), "--target", str(target),
             "--mode", "left", "--theta0", "1.0", "--step", "0.5",
             "--iters", "200", "--tol", "1e-7", "--out", str(out)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "converged=True" in stdout and "stop_reason=converged" in stdout

        header, rows = read_csv(out / "flow_summary.csv")
        assert header == ["converged", "iterations", "objective", "grad_norm",
                          "theta_0"]
        summary = dict(zip(header, rows[0]))
        assert summary["converged"] == "true"
        assert abs(float(summary["theta_0"])) < 1e-6

        header, rows = read_csv(out / "trace.csv")
        assert header == ["iteration", "theta_0", "objective", "grad_norm", "step"]
        objectives = [float(r[header.index("objective")]) for r in rows]
        assert all(a >= b for a, b in zip(objectives, objectives[1:]))
        assert int(rows[-1][0]) <= 200

    def test_theta0_defaults_to_the_family_origin(self, tmp_path, capsys):
        # A d = 2 family on a 3x2 space: without --theta0 the flow starts
        # at theta = (0, 0), the base product density.
        third = {"weights": [1 / 3, 1 / 3, 1 / 3]}
        family = tmp_path / "family.json"
        fileio.write_json(family, {
            "left": third, "right": {"weights": [0.5, 0.5]},
            "base1": [1.0, 1.0, 1.0], "base2": [1.0, 1.0],
            "stats": [[[1.0, 1.0], [0.0, 0.0], [-1.0, -1.0]],
                      [[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]]],
        })
        target = tmp_path / "target.json"
        fileio.write_json(target, {"space": third, "values": [1.2, 1.0, 0.8]})
        out = tmp_path / "flow"
        rc = main(["flow", "--family", str(family), "--target", str(target),
                   "--tol", "1e-6", "--out", str(out)])
        assert rc == 0
        assert "stop_reason=converged" in capsys.readouterr().out
        header, rows = read_csv(out / "trace.csv")
        assert header[1:3] == ["theta_0", "theta_1"]
        assert [float(t) for t in rows[0][1:3]] == [0.0, 0.0]

    def test_iteration_cap_exits_nonzero(self, tmp_path, capsys):
        family = write_fixture(tmp_path, "margin_family.json")
        target = write_fixture(tmp_path, "flow_target.json")
        rc = main(
            ["flow", "--family", str(family), "--target", str(target),
             "--theta0", "1.0", "--iters", "2", "--out", str(tmp_path / "flow")]
        )
        assert rc == 1
        assert "stop_reason=iteration_cap" in capsys.readouterr().out

    def test_loose_tolerance_gives_single_row(self, tmp_path):
        family = write_fixture(tmp_path, "margin_family.json")
        target = write_fixture(tmp_path, "flow_target.json")
        out = tmp_path / "flow"
        rc = main(
            ["flow", "--family", str(family), "--target", str(target),
             "--theta0", "1.0", "--tol", "10.0", "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv(out / "trace.csv")
        assert len(rows) == 1

    def test_malformed_theta0_is_a_usage_error(self, tmp_path, capsys):
        family = write_fixture(tmp_path, "margin_family.json")
        target = write_fixture(tmp_path, "flow_target.json")
        with pytest.raises(SystemExit) as exc:
            main(
                ["flow", "--family", str(family), "--target", str(target),
                 "--theta0", "1.0,x", "--out", str(tmp_path / "flow")]
            )
        assert exc.value.code == 2
        assert "bad float list '1.0,x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--tol", "inf"), ("--tol", "nan"), ("--step", "inf")]
    )
    def test_step_and_tolerance_must_be_finite(self, tmp_path, capsys, flag, value):
        # --tol inf used to report convergence at iteration 0
        family = write_fixture(tmp_path, "margin_family.json")
        target = write_fixture(tmp_path, "flow_target.json")
        rc = main(
            ["flow", "--family", str(family), "--target", str(target),
             "--theta0", "1.0", flag, value, "--out", str(tmp_path / "flow")]
        )
        assert rc == 2
        name = flag.lstrip("-")
        assert capsys.readouterr().err == f"error: {name} must be positive and finite\n"
        assert not (tmp_path / "flow").exists()

    def test_omitted_options_take_the_library_defaults(self, tmp_path):
        # Without --step and --tol the flow runs at natural_gradient_flow's
        # own defaults; --iters is the command line's 200.
        family = write_fixture(tmp_path, "margin_family.json")
        target = write_fixture(tmp_path, "two_point_q.json")
        out = tmp_path / "flow"
        rc = main(["flow", "--family", str(family), "--target", str(target),
                   "--out", str(out)])
        assert rc == 0
        trace = natural_gradient_flow(
            fileio.load_family(family), [0.0], fileio.load_density(target),
            iters=200,
        )
        fileio.write_trace_csv(tmp_path / "expected.csv", trace)
        assert (out / "trace.csv").read_bytes() == (
            tmp_path / "expected.csv"
        ).read_bytes()

    def test_right_mode_at_matching_margin(self, tmp_path):
        family = write_fixture(tmp_path, "margin_family.json")
        theta0 = 0.8
        hi = math.exp(theta0) / math.cosh(theta0)
        lo = math.exp(-theta0) / math.cosh(theta0)
        target = tmp_path / "target.json"
        fileio.write_json(
            target,
            {"space": {"weights": [0.5, 0.5]}, "values": [hi, lo]},
        )
        out = tmp_path / "flow"
        rc = main(
            ["flow", "--family", str(family), "--target", str(target),
             "--mode", "right", "--theta0", str(theta0), "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv(out / "trace.csv")
        assert len(rows) == 1

    def test_identifiability_error_surfaces(self, tmp_path, capsys):
        family = tmp_path / "family.json"
        obj = dict(DEMO_FILES["diag_family.json"])
        obj["stats"] = [obj["stats"][0], [[2.0, -2.0], [-2.0, 2.0]]]
        fileio.write_json(family, obj)
        target = write_fixture(tmp_path, "flow_target.json")
        rc = main(
            ["flow", "--family", str(family), "--target", str(target),
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "dependent" in capsys.readouterr().err


def test_demo_with_a_refused_seed_writes_nothing(tmp_path, capsys):
    rc = main(["demo", "--out", str(tmp_path / "demo"), "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"
    assert not (tmp_path / "demo").exists()


def test_demo_command(tmp_path, capsys):
    rc = main(["demo", "--out", str(tmp_path / "demo"), "--seed", "3"])
    assert rc == 0
    assert "demo: overall PASS" in capsys.readouterr().out
    for name in ("verify_report.csv", "bayes/kl_chain.csv", "flow/trace.csv"):
        assert (tmp_path / "demo" / name).is_file()


def test_csv_floats_round_trip(tmp_path):
    # 17 significant digits reproduce float64 exactly on read-back
    import numpy as np

    rng = np.random.default_rng(0)
    samples = list(rng.normal(0, 1, 50)) + [1.0, 0.1, math.pi, 1e-300, 1e300]
    path = tmp_path / "floats.csv"
    fileio.write_csv(path, ["v"], [np.array(samples)])
    _, rows = read_csv(path)
    assert [float(r[0]) for r in rows] == samples


def test_module_entry_point(tmp_path):
    # Run the package under test even when it is importable only through
    # pytest's own path setting.
    package_root = str(Path(statbundle.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "statbundle", "verify", "--trials", "1",
         "--sizes", "2x2", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert "overall: PASS" in result.stdout
