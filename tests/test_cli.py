import json
import subprocess
import sys
import time

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
A2_TRIPLE = {"theta_I": ["1", "-1"], "theta_J": ["0", "0"], "theta_K": ["0", "0"]}
A2_TARGET = {"theta_I": [1.0, -1.0], "theta_J": [0.0, 0.0], "theta_K": [0.0, 0.0]}
# requests over the cap on the torus-weight export or on the wall scan's
# dimension vectors (401^2 of them, over cones.ENUMERATION_CAP)
CAPPED_REGULAR = [
    ("regular", dict(A2_SPEC, dims=[300, 300], export_weights=True)),
    ("regular", {"quiver": A2_SPEC["quiver"], "dims": [400, 400], "theta_triple": A2_TRIPLE}),
    ("regular", {"quiver": A2_SPEC["quiver"], "dims": [400, 400], "xi": [["1", "0"], ["-1", "0"]]}),
    ("transport", {"quiver": A2_SPEC["quiver"], "dims": [400, 400], "transport": {
        "mode": "hyperkahler", "target_triple": A2_TARGET, "regular_gate": [A2_TRIPLE]}}),
]


def test_malformed_input_exit_code(tmp_path, capsys):
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
        *CAPPED_REGULAR,
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
        # export_weights is true or false, not a truthy or falsy value
        *[("regular", dict(A2_SPEC, export_weights=e, xi=[["1", "0"], ["-1", "0"]])) for e in ([1], "no", 2, 0)],
        # numpy's generators take nonnegative seeds only
        *[(c, A2_SPEC, "--seed", "-1") for c in ("solve", "moment", "stability", "selftest")],
        # bisection deeper than the plan's cap cannot move the midpoints
        ("transport", dict(A2_SPEC, transport={"target_theta": [1e6, -1e6], "max_subdivision_depth": 5000})),
    ]
    capsys.readouterr()
    for command, spec, *extra in bad:
        path.write_text(json.dumps(spec))
        assert main([command, "--input", str(path), *extra]) == EXIT_BAD_INPUT, (spec, extra)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (spec, extra, err)
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


def test_every_number_is_read_strictly(tmp_path, capsys):
    """A JSON number field holds a number, a rational field a "p/q" string or
    a number, never true/false, and a pair exactly two entries; anything else
    exits 2 with one error line that names its field."""
    a2_xi = [["1", "0"], ["-1", "0"]]
    cases = [
        ("moment", dict(A2_SPEC, representation={"blocks": [[[{"a": 1}]], [[[0.0, 0.0]]]]}),
         "representation.blocks[0]"),
        ("moment", dict(A2_SPEC, representation={"blocks": [[["12"]], [[[0.0, 0.0]]]]}),
         "representation.blocks[0]"),
        ("moment", dict(A2_SPEC, representation={"blocks": [[[[1.0, 0.0, 7.0]]], [[[0.0, 0.0]]]]}),
         "representation.blocks[0]"),
        ("solve", dict(A2_SPEC, theta=["4", "-4"]), "theta"),
        ("regular", dict(A2_SPEC, xi=[{"a": 1}, a2_xi[1]]), "xi"),
        ("regular", dict(A2_SPEC, xi=[[True, "0"], a2_xi[1]]), "xi"),
        ("regular", dict(A2_SPEC, theta_triple=dict(A2_TRIPLE, theta_I=[True, "-1"])),
         "theta_triple.theta_I"),
        ("transport", dict(A2_SPEC, transport=dict(COMPLEX_TRANSPORT, xi_start=[{"a": 1}, [0, 0]])),
         "transport.xi_start"),
        ("transport", dict(A2_SPEC, transport=dict(COMPLEX_TRANSPORT, xi_target=[["0", "0"], [0, 0]])),
         "transport.xi_target"),
        ("transport", dict(A2_SPEC, transport={"mode": "hyperkahler", "target_triple": A2_TRIPLE}),
         "transport.target_triple.theta_I"),
        ("transport", dict(A2_SPEC, transport={"mode": "quaternion", "q": ["1", 0, 0, 0]}), "transport.q"),
    ]
    for command, spec, field in cases:
        code, report = run_cli(tmp_path, command, spec)
        err = capsys.readouterr().err
        assert code == EXIT_BAD_INPUT and report is None, (spec, err)
        assert err.startswith(f"error: {field}: ") and err.count("\n") == 1, (spec, err)


def test_budgets_above_zero_name_their_field(tmp_path, capsys):
    """A budget at or below 0, or a stability search budget that is not a
    whole number, exits 2 with one error line naming the field it came from:
    ``--budget`` when given, else the spec's own field."""
    cases = [
        *[("stability", dict(A2_SPEC, stability={"search_budget": b}), (), "stability.search_budget")
          for b in (-5, 0, 0.5, 64.5)],
        *[("stability", A2_SPEC, ("--budget", b), "--budget") for b in ("-5", "0", "8.5")],
        *[("selftest", {"budget": b}, (), "budget") for b in (-1, 0)],
        *[("selftest", {}, ("--budget", b), "--budget") for b in ("-0.5", "0")],
    ]
    for command, spec, extra, field in cases:
        code, report = run_cli(tmp_path, command, spec, *extra)
        err = capsys.readouterr().err
        assert code == EXIT_BAD_INPUT and report is None, (spec, extra, err)
        assert err.startswith(f"error: {field}: ") and err.count("\n") == 1, (spec, extra, err)


def test_deep_subdivision_exits_2_before_any_solve(tmp_path, monkeypatch):
    """An over-cap subdivision depth is refused before the transport solves."""
    import quivermoment.transport as transport

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(transport, "solve_moment_equation", no_solve)
    deep = dict(A2_SPEC, transport={"target_theta": [1e6, -1e6], "max_subdivision_depth": 900})
    code, _ = run_cli(tmp_path, "transport", deep)
    assert code == EXIT_BAD_INPUT


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
    zeros = [[0.0, 0.0], [0.0, 0.0]]
    both = dict(A2_SPEC, representation={"blocks": [[[[1e200, 0.0]]], [[[1e200, 0.0]]]]},
                transport={"mode": "complex", "xi_start": zeros, "xi_target": zeros})
    with np.errstate(over="ignore", invalid="ignore"):
        code, report = run_cli(tmp_path, "transport", both)
    assert code == EXIT_NO_CONVERGENCE
    assert report["result"]["error"] == "complex moment value is not finite"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_non_finite_results_exit_3_with_strict_json(tmp_path):
    """A representation too large to square: the moment report writes its
    overflowed values as null with a flag, and the solve and stability
    searches report the overflow, all as strict JSON with exit 3.  Blocks of
    1e155 overflow only in the King search's two-step word operator; with
    blocks of 1.5e308 the search first overflows in a closure image."""
    big = dict(A2_SPEC, representation={"blocks": [[[[1e200, 0.0]]], [[[1.0, 0.0]]]]})
    words = dict(A2_SPEC, representation={"blocks": [[[[1e155, 0.0]]], [[[1e155, 0.0]]]]})
    row = [[1.5e308, 0.0], [1.5e308, 0.0]]
    closure = dict(A2_SPEC, dims=[2, 2], representation={"blocks": [
        [row, [[1.0, 0.0], [1.0, 0.0]]], [[[1.5e308, 0.0], [1.0, 0.0]], [[1.5e308, 0.0], [1.0, 0.0]]]]})
    out = tmp_path / "out.json"
    cases = [("moment", big), ("solve", big), ("stability", big), ("stability", words), ("stability", closure)]
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
            assert report["result"]["oracle_max_mismatch"] is None
        else:
            assert "non_finite" not in report
            assert "non-finite" in report["result"]["error"]
    code, report = run_cli(tmp_path, "moment", A2_SPEC)
    assert code == EXIT_OK and "non_finite" not in report
    # |x|^2 = 1e308 is finite, and its square overflows in the degeneracy cutoff
    square = dict(A2_SPEC, representation={"blocks": [[[[1e154, 0.0]]], [[[1.0, 0.0]]]]})
    with np.errstate(over="ignore", invalid="ignore"):
        code, report = run_cli(tmp_path, "moment", square)
    assert code == EXIT_NO_CONVERGENCE and report["result"]["oracle_max_mismatch"] is None
    with np.errstate(over="ignore", invalid="ignore"):
        code, reports = run_cli(tmp_path, "moment", [big, A2_SPEC])
    assert code == EXIT_NO_CONVERGENCE
    assert [r.get("non_finite") for r in reports] == [True, None]


def test_overflowing_proportionality_is_reported_as_null(tmp_path):
    """mu_J + i mu_K or |mu_C|^2 past the float range is a measurement that
    did not fit: c and the residual are null with the non-finite flag and
    exit 3, while the finite moment values are reported."""
    big, one = [1e154, 0.0], [1.0, 0.0]
    for blocks in ([[[big, [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], big], [[0.0, 0.0], [0.0, 0.0]]]],
                   [[[big, one], [big, one]], [[big, one], [big, one]]]):
        spec = dict(A2_SPEC, dims=[2, 2], representation={"blocks": blocks})
        with np.errstate(over="ignore", invalid="ignore"):
            code, report = run_cli(tmp_path, "moment", spec)
        assert code == EXIT_NO_CONVERGENCE and report["non_finite"] is True
        result = report["result"]
        assert result["proportionality_c"] is None and result["proportionality_residual"] is None
        assert None not in np.ravel(result["mu_I"]).tolist()


def test_overflowing_quaternion_transport_exits_3_with_an_error(tmp_path):
    """sqrt(t) q.x past the float range is refused where it is scaled: the
    report holds an error, not a null image with a zero residual."""
    spec = dict(A2_SPEC, representation={"blocks": [[[[1e200, 0.0]]], [[[1.0, 0.0]]]]},
                transport={"mode": "quaternion", "q": [1, 0, 0, 0], "t": 1e250})
    code, report = run_cli(tmp_path, "transport", spec)
    assert code == EXIT_NO_CONVERGENCE and "non_finite" not in report
    assert report["result"] == {"error": "arithmetic on points or elements overflowed"}
    code, report = run_cli(tmp_path, "transport", dict(spec, transport=dict(spec["transport"], t=1e100)))
    assert code == EXIT_OK and report["result"]["residual"] == 0.0


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


def test_capped_regular_requests_exit_2_at_once(tmp_path, capsys):
    """The caps are checked before any slot or dimension vector is
    enumerated, so a request far over one returns at once."""
    for command, spec in CAPPED_REGULAR:
        start = time.perf_counter()
        code, report = run_cli(tmp_path, command, spec)
        assert time.perf_counter() - start < 1.0, spec
        assert code == EXIT_BAD_INPUT and report is None, spec
        assert "exceed the cap" in capsys.readouterr().err, spec
    # just under the export cap, the weights are exported
    under = dict(A2_SPEC, dims=[62, 63], export_weights=True)
    assert 2 * 62 * 63 * 125 <= cli.MAX_WEIGHT_ENTRIES
    assert run_cli(tmp_path, "regular", under)[0] == EXIT_OK


def test_regular_export_ranks_the_weights_once(tmp_path, monkeypatch):
    """A WeightSet computes spans_torus once, where it is built."""
    calls = []
    rank = np.linalg.matrix_rank

    def counted(*a, **k):
        calls.append(a[0].shape)
        return rank(*a, **k)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    spec = dict(A2_SPEC, dims=[2, 3], export_weights=True, theta_triple={
        "theta_I": ["3", "-2"], "theta_J": ["0", "0"], "theta_K": ["0", "0"]})
    code, report = run_cli(tmp_path, "regular", spec)
    assert code == EXIT_OK and report["result"]["torus_weights"]["spans_torus"] is True
    assert calls == [(12, 5)]


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
