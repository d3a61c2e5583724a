import json
import subprocess
import sys

import numpy as np
import pytest

from quivermoment import cli
from quivermoment.cli import (
    EXIT_BAD_INPUT,
    EXIT_INTERNAL_ERROR,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    MAX_SELFTEST_BUDGET,
    main,
    matrix_from_json,
    matrix_to_json,
)

A2_SPEC = {
    "quiver": {"vertices": 2, "edges": [[0, 1]]},
    "dims": [1, 1],
    "representation": {"blocks": [[[[1.0, 0.0]]], [[[0.0, 0.0]]]]},
    "theta": [4.0, -4.0],
}


def run_cli(tmp_path, command, spec, *extra):
    path = tmp_path / "in.json"
    out = tmp_path / "out.json"
    path.write_text(json.dumps(spec))
    code = main([command, "--input", str(path), "--output", str(out), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_matrix_round_trip():
    rng = np.random.default_rng(81)
    m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    back = matrix_from_json(matrix_to_json(m), "m")
    assert np.array_equal(m, back)
    again = matrix_to_json(back)
    assert matrix_to_json(m) == again


def test_solve_command(tmp_path):
    code, report = run_cli(tmp_path, "solve", A2_SPEC)
    assert code == EXIT_OK
    result = report["result"]
    assert result["status"] == "converged"
    assert result["y"]["blocks"][0][0][0][1] == pytest.approx(np.log(4) / 4, abs=1e-8)
    assert report["version"]
    assert report["input"] == A2_SPEC


def test_solve_divergence_exit_code(tmp_path):
    spec = dict(A2_SPEC, theta=[-1.0, 1.0])
    code, report = run_cli(tmp_path, "solve", spec)
    assert code == EXIT_NO_CONVERGENCE
    assert report["result"]["status"] == "diverged"
    assert "divergence_direction" in report["result"]


def test_moment_command_and_determinism(tmp_path):
    spec = {"quiver": {"vertices": 2, "edges": [[0, 1], [1, 1]]}, "dims": [2, 2]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["moment", "--input", str(path), "--output", str(out1), "--seed", "5"]) == EXIT_OK
    assert main(["moment", "--input", str(path), "--output", str(out2), "--seed", "5"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["result"]["oracle_max_mismatch"] <= 1e-6 * 100
    assert report["result"]["proportionality_c"] == pytest.approx(-2.0, abs=1e-9)


def test_flow_command_with_csv(tmp_path):
    spec = dict(A2_SPEC, theta=[0.5, -0.5])
    csv_path = tmp_path / "traj.csv"
    code, report = run_cli(tmp_path, "flow", spec, "--csv", str(csv_path))
    assert code == EXIT_OK
    assert report["result"]["classification"] == "analytically_semistable"
    assert report["result"]["stop_reason"] == "reached"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,h,grad_norm"
    assert len(lines) > 2


def test_stability_command(tmp_path):
    spec = dict(A2_SPEC, theta=[-1.0, 1.0])
    code, report = run_cli(tmp_path, "stability", spec)
    assert code == EXIT_OK
    assert report["result"]["king"]["verdict"] == "unstable"
    assert report["result"]["king"]["witness_subspace"]["sub_dims"] == [0, 1]
    assert report["result"]["numerical"]["verdict"] == "unstable"


def test_regular_command(tmp_path):
    spec = {
        "quiver": {"vertices": 2, "edges": [[0, 1]]},
        "dims": [1, 1],
        "theta_triple": {
            "theta_I": ["1", "-1"],
            "theta_J": ["0", "0"],
            "theta_K": ["0", "0"],
        },
        "xi": [["1", "0"], ["-1", "0"]],
    }
    code, report = run_cli(tmp_path, "regular", spec)
    assert code == EXIT_OK
    assert report["result"]["hyperkahler"]["in_regular_locus"] is True
    assert report["result"]["complex"]["in_regular_locus"] is True

    spec["theta_triple"]["theta_I"] = ["0", "0"]
    code, report = run_cli(tmp_path, "regular", spec)
    assert report["result"]["hyperkahler"]["in_regular_locus"] is False
    assert report["result"]["hyperkahler"]["violating_w"] == [0, 1]


def test_transport_command_round_trip(tmp_path):
    spec = {
        "quiver": {"vertices": 2, "edges": [[0, 1]]},
        "dims": [1, 1],
        "representation": {"blocks": [[[[1.0, 0.0]]], [[[0.0, 0.0]]]]},
        "transport": {"mode": "real", "target_theta": [4.0, -4.0]},
    }
    code, report = run_cli(tmp_path, "transport", spec)
    assert code == EXIT_OK
    result = report["result"]
    assert result["image"]["blocks"][0][0][0][0] == pytest.approx(2.0, abs=1e-8)
    assert result["residual"] <= 1e-7

    # replay the log and land on the same image
    replay_spec = dict(spec)
    replay_spec["transport"] = {"mode": "replay", "log": result["applied_y_log"]}
    code, replay_report = run_cli(tmp_path, "transport", replay_spec)
    assert code == EXIT_OK
    a = np.array(replay_report["result"]["image"]["blocks"][0])
    b = np.array(result["image"]["blocks"][0])
    assert np.allclose(a, b, atol=1e-12)


def test_transport_failure_exit_code(tmp_path):
    spec = {
        "quiver": {"vertices": 2, "edges": [[0, 1]]},
        "dims": [1, 1],
        "representation": {"blocks": [[[[1.0, 0.0]]], [[[0.0, 0.0]]]]},
        "transport": {"mode": "real", "target_theta": [-1.0, 1.0]},
    }
    code, report = run_cli(tmp_path, "transport", spec)
    assert code == EXIT_NO_CONVERGENCE
    assert "error" in report["result"]


NAN = float("nan")
HUGE = 10**400
HUGE_EXPONENT = "1e10000000"  # an exact rational of ten million digits
HUGE_PAIR = [HUGE_EXPONENT, "-" + HUGE_EXPONENT]  # balanced for dims [1, 1]
COMPLEX_TRANSPORT = {"mode": "complex", "xi_start": [[0, 0], [0, 0]], "xi_target": [[0, 0], [0, 0]]}


def test_malformed_input_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["moment", "--input", str(path)]) == EXIT_BAD_INPUT
    path.write_text(json.dumps({"quiver": 3}))
    assert main(["moment", "--input", str(path)]) == EXIT_BAD_INPUT
    path.write_text(json.dumps({"quiver": {"vertices": 2, "edges": []}, "dims": [1]}))
    assert main(["moment", "--input", str(path)]) == EXIT_BAD_INPUT
    bad = [
        ("solve", dict(A2_SPEC, structure="X")),
        ("solve", dict(A2_SPEC, structure=5)),
        ("stability", dict(A2_SPEC, stability=5)),
        ("transport", dict(A2_SPEC, transport={"target_theta": [2.0, -2.0], "leg_order": ["X"]})),
        ("transport", dict(A2_SPEC, transport={"target_theta": [2.0, -2.0], "leg_order": 5})),
        ("solve", dict(A2_SPEC, theta=[float("nan"), float("nan")])),
        ("flow", dict(A2_SPEC, theta=[float("nan"), float("nan")])),
        ("flow", dict(A2_SPEC, theta=[float("inf"), float("-inf")])),
        ("stability", dict(A2_SPEC, stability={"search_budget": "x"})),
        ("solve", dict(A2_SPEC, solve={"max_iterations": 1.5})),
        ("solve", dict(A2_SPEC, solve={"gradient_tolerance": "tight"})),
        ("transport", dict(A2_SPEC, transport={"target_theta": [2.0, -2.0], "waypoints": 5})),
        ("transport", dict(A2_SPEC, transport={"mode": "replay", "log": [["I"]]})),
        ("transport", dict(A2_SPEC, transport={"mode": "replay", "log": [5]})),
        ("transport", dict(A2_SPEC, transport={"mode": "replay", "log": 5})),
        ("transport", dict(A2_SPEC, transport={"target_theta": [2.0, -2.0], "max_subdivision_depth": "a"})),
        ("transport", dict(A2_SPEC, transport=dict(COMPLEX_TRANSPORT, xi_start=[None, [0, 0]]))),
        ("transport", dict(A2_SPEC, transport=dict(COMPLEX_TRANSPORT, xi_target=[[0, 0], None]))),
        ("transport", dict(A2_SPEC, transport=dict(COMPLEX_TRANSPORT, xi_start=[[0, 0]]))),
        ("transport", dict(A2_SPEC, transport={"mode": "quaternion", "q": [1, None, 0, 0]})),
        ("transport", dict(A2_SPEC, transport={"mode": "quaternion", "q": [1, 0, 0, 0], "t": "x"})),
        ("transport", dict(A2_SPEC, transport={"mode": "quaternion", "q": [1, 0, 0, 0], "t": None})),
        ("transport", dict(A2_SPEC, transport={"mode": "hyperkahler", "target_triple": 5})),
        ("transport", dict(A2_SPEC, transport={
            "mode": "hyperkahler",
            "target_triple": {"theta_I": [None, 1], "theta_J": [0, 0], "theta_K": [0, 0]},
        })),
        # non-finite and overflowing numbers are rejected where the spec is read
        *[(c, dict(A2_SPEC, representation={"blocks": [[[[NAN, 0.0]]], [[[1.0, 0.0]]]]}))
          for c in ("moment", "solve", "flow", "stability")],
        ("solve", dict(A2_SPEC, representation={"blocks": [[[[1.0, float("inf")]]], [[[1.0, 0.0]]]]})),
        ("moment", dict(A2_SPEC, representation={"blocks": [[[[HUGE, 0.0]]], [[[1.0, 0.0]]]]})),
        ("solve", dict(A2_SPEC, theta=[HUGE, -HUGE])),
        ("transport", dict(A2_SPEC, transport={"mode": "quaternion", "q": [HUGE, 0, 0, 0]})),
        ("transport", dict(A2_SPEC, transport=dict(COMPLEX_TRANSPORT, xi_start=[[HUGE, 0], [0, 0]]))),
        ("moment", dict(A2_SPEC, dims=[True, 1])),
        ("moment", dict(A2_SPEC, dims=[HUGE, 1], representation=None)),
        ("regular", {
            "quiver": {"vertices": 3, "edges": [[0, 1]]},
            "dims": [300, 300, 300],
            "theta_triple": {"theta_I": [1, -1, 0], "theta_J": [0, 0, 0], "theta_K": [0, 0, 0]},
        }),
        ("regular", dict(A2_SPEC, theta_triple={
            "theta_I": HUGE_PAIR, "theta_J": [0, 0], "theta_K": [0, 0],
        })),
        ("regular", dict(A2_SPEC, xi=[[HUGE_PAIR[0], "0"], [HUGE_PAIR[1], "0"]])),
        ("transport", dict(A2_SPEC, transport={
            "mode": "hyperkahler",
            "target_triple": {"theta_I": [1.0, -1.0], "theta_J": [0, 0], "theta_K": [0, 0]},
            "regular_gate": [{"theta_I": HUGE_PAIR, "theta_J": [0, 0], "theta_K": [0, 0]}],
        })),
        ("transport", dict(A2_SPEC, transport={
            "mode": "hyperkahler",
            "target_triple": {"theta_I": [1.0, -1.0], "theta_J": [0, 0], "theta_K": [0, 0]},
            "regular_gate": 5,
        })),
        # plan fields are checked in every mode
        ("transport", dict(A2_SPEC, transport={"mode": "quaternion", "q": [1, 0, 0, 0], "leg_order": ["X"]})),
        # budgets are finite and capped: the work they buy grows with them
        ("selftest", {"budget": "x"}),
        ("selftest", {"budget": 1e300}),
        ("selftest", {"budget": MAX_SELFTEST_BUDGET + 1}),
        ("selftest", {}, "--budget", "nan"),
        ("stability", dict(A2_SPEC, stability={"search_budget": 1e300})),
        ("stability", A2_SPEC, "--budget", "1e300"),
    ]
    for command, spec, *extra in bad:
        path.write_text(json.dumps(spec))
        assert main([command, "--input", str(path), *extra]) == EXIT_BAD_INPUT, (spec, extra)
    path.write_text(json.dumps(A2_SPEC).replace("1.0", "1e999"))
    assert main(["moment", "--input", str(path)]) == EXIT_BAD_INPUT


def test_transport_spec_errors_name_their_field_once(tmp_path, capsys):
    """A field error raised inside the transport modes reaches stderr as it
    was raised, not wrapped in a second "transport:" prefix."""
    for transport, field in (
        ({"mode": "replay", "log": [["I", 5]]}, "transport.log[0]"),
        ({"mode": "real", "target_theta": [1.0]}, "target_theta"),
    ):
        code, _ = run_cli(tmp_path, "transport", dict(A2_SPEC, transport=transport))
        err = capsys.readouterr().err
        assert code == EXIT_BAD_INPUT
        assert err.startswith(f"error: {field}: ") and err.count(field) == 1, err


def test_unwritable_outputs_exit_2(tmp_path, capsys):
    """A report or CSV path that cannot be opened is a bad input, not a crash."""
    missing = tmp_path / "missing"
    spec = dict(A2_SPEC, theta=[0.5, -0.5])
    code, _ = run_cli(tmp_path, "solve", A2_SPEC, "--output", str(missing / "x.json"))
    assert code == EXIT_BAD_INPUT
    code, _ = run_cli(tmp_path, "flow", spec, "--csv", str(missing / "x.csv"))
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().err.count("error: cannot write") == 2


def test_internal_error_exits_4(tmp_path, monkeypatch, capsys):
    """An exception that is neither a spec error nor a numerical failure gets
    its own exit code and one stderr line, not a traceback."""
    def broken(spec, args, rng):
        raise RuntimeError("broken invariant")

    monkeypatch.setitem(cli.COMMANDS, "moment", broken)
    code, report = run_cli(tmp_path, "moment", A2_SPEC)
    assert code == EXIT_INTERNAL_ERROR and report is None
    assert capsys.readouterr().err == "error: internal: RuntimeError: broken invariant\n"


def test_transport_overflow_exits_3(tmp_path):
    """A point whose moment value overflows is a numerical failure of the
    transport, not a malformed target."""
    big = dict(A2_SPEC, representation={"blocks": [[[[1e200, 0.0]]], [[[1.0, 0.0]]]]})
    zeros = [0.0, 0.0]
    for transport in (
        {"mode": "real", "target_theta": [2.0, -2.0]},
        {"mode": "hyperkahler", "target_triple": {"theta_I": [2.0, -2.0], "theta_J": zeros, "theta_K": zeros}},
    ):
        with np.errstate(over="ignore", invalid="ignore"):
            code, report = run_cli(tmp_path, "transport", dict(big, transport=transport))
        assert code == EXIT_NO_CONVERGENCE, transport
        assert "not finite" in report["result"]["error"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_non_finite_results_exit_3_with_strict_json(tmp_path):
    """A representation too large to square: the moment report writes its
    overflowed values as null with a flag, and the solve and stability
    searches report the overflow, all as strict JSON with exit 3.  Blocks of
    1e155 overflow only in the King search's two-step word operator."""
    big = dict(A2_SPEC, representation={"blocks": [[[[1e200, 0.0]]], [[[1.0, 0.0]]]]})
    words = dict(A2_SPEC, representation={"blocks": [[[[1e155, 0.0]]], [[[1e155, 0.0]]]]})
    out = tmp_path / "out.json"
    cases = [("moment", big), ("solve", big), ("stability", big), ("stability", words)]
    for command, spec in cases:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([command, "--input", str(path), "--output", str(out)])
        assert code == EXIT_NO_CONVERGENCE, command
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        if command == "moment":
            assert report["non_finite"] is True
            assert report["result"]["proportionality_residual"] is None
        else:
            assert "non_finite" not in report
            assert "non-finite" in report["result"]["error"]
    code, report = run_cli(tmp_path, "moment", A2_SPEC)
    assert code == EXIT_OK and "non_finite" not in report
    with np.errstate(over="ignore", invalid="ignore"):
        code, reports = run_cli(tmp_path, "moment", [big, A2_SPEC])
    assert code == EXIT_NO_CONVERGENCE
    assert [r.get("non_finite") for r in reports] == [True, None]


def test_empty_quiver_exits_0(tmp_path):
    """A quiver with no vertices has nothing to solve and no proper
    subrepresentation: every command succeeds and both certificates say stable."""
    spec = {"quiver": {"vertices": 0, "edges": []}, "dims": [], "theta": []}
    for command in ("moment", "solve", "flow", "stability"):
        code, report = run_cli(tmp_path, command, spec)
        assert code == EXIT_OK, command
    assert report["result"]["king"]["verdict"] == "stable"
    assert report["result"]["numerical"]["verdict"] == "stable"


def test_batch_input(tmp_path):
    batch = [A2_SPEC, dict(A2_SPEC, theta=[1.0, -1.0])]
    path = tmp_path / "batch.json"
    out = tmp_path / "out.json"
    path.write_text(json.dumps(batch))
    code = main(["solve", "--input", str(path), "--output", str(out)])
    assert code == EXIT_OK
    reports = json.loads(out.read_text())
    assert len(reports) == 2
    assert all(r["result"]["status"] == "converged" for r in reports)


def test_selftest_small_budget(tmp_path):
    out = tmp_path / "self.json"
    code = main(["selftest", "--budget", "0.05", "--output", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["result"]["failed"] == 0
    assert report["result"]["passed"] >= 30


def test_console_entry_point(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(A2_SPEC))
    proc = subprocess.run(
        [sys.executable, "-m", "quivermoment.cli", "solve", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["status"] == "converged"


def test_regular_command_exports_weights(tmp_path):
    spec = {
        "quiver": {"vertices": 2, "edges": [[0, 1]]},
        "dims": [1, 1],
        "export_weights": True,
        "xi": [["1", "0"], ["-1", "0"]],
    }
    code, report = run_cli(tmp_path, "regular", spec)
    assert code == EXIT_OK
    ws = report["result"]["torus_weights"]
    assert sorted(ws["vectors"]) == [[-1.0, 1.0], [1.0, -1.0]]
    assert ws["spans_torus"] is True and ws["kernel_warning"] is False
