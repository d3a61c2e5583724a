"""Verdict, classification and exit-code vectors pinned on fixed seeds.

These vectors record what the solvers decide, not how closely they hit a
tolerance; a refactor that keeps the arithmetic must keep every entry.
"""

import json

import numpy as np

from quivermoment import exp_action
from quivermoment import sampling as S
from quivermoment.cli import main
from quivermoment.flow import FlowOptions, flow_integrate
from quivermoment.kempf_ness import SolveOptions, solve_moment_equation
from quivermoment.stability import king_stable_test
from quivermoment.transport import (
    TransportPlan,
    central_xi,
    transport_complex,
    transport_hyperkahler,
    transport_real,
)

A2_SPEC = {
    "quiver": {"vertices": 2, "edges": [[0, 1]]},
    "dims": [1, 1],
    "representation": {"blocks": [[[[1.0, 0.0]]], [[[0.0, 0.0]]]]},
    "theta": [4.0, -4.0],
}


def test_solve_status_pins():
    rng = np.random.default_rng(11)
    statuses = []
    for _ in range(3):
        _, dims, x = S.random_stable_instance(rng)
        theta = S.random_chamber_theta(rng, dims)
        statuses.append(tuple(solve_moment_equation(x, theta, s).status for s in "IJK"))
    rng = np.random.default_rng(21)
    opts = SolveOptions(max_iterations=30)
    for _ in range(6):
        _, dims, x = S.random_instance(rng, max_vertices=3, max_dim=2)
        theta = S.random_theta(rng, dims)
        statuses.append(tuple(solve_moment_equation(x, theta, s, opts).status for s in "IJK"))
    C, M = "converged", "max_iterations"
    assert statuses == [
        (C, C, C), (C, C, C), (C, C, C),
        (C, C, C), (C, C, C), (M, M, M), (C, C, C), (M, M, M), (C, C, C),
    ]


def test_solve_divergence_pin(a2_rep, theta11):
    outcome = solve_moment_equation(a2_rep(1, 0), theta11(-1, 1))
    assert outcome.status == "diverged"
    assert outcome.divergence_direction is not None


def test_king_verdict_pins():
    rng = np.random.default_rng(22)
    verdicts = []
    for k in range(6):
        _, dims, x = S.random_instance(rng, max_vertices=3, max_dim=2)
        theta = S.random_theta(rng, dims)
        cert = king_stable_test(x, theta, search_budget=9, seed=k)
        verdicts.append((cert.verdict, cert.diagnostics.get("candidates_tested")))
    assert verdicts == [
        ("stable", 0), ("unstable", 5), ("stable", 0),
        ("stable", 0), ("unstable", 1), ("stable", 0),
    ]


def test_flow_classification_pins(a2_rep, theta11):
    rng = np.random.default_rng(23)
    classes = []
    for _ in range(4):
        _, dims, x = S.random_instance(rng, max_vertices=3, max_dim=2)
        theta = S.random_theta(rng, dims)
        classes.append(flow_integrate(theta, x, FlowOptions(max_time=10.0)).classification)
    classes.append(flow_integrate(theta11(-1, 1), a2_rep(1, 0)).classification)
    assert classes == [
        "analytically_semistable", "undecided", "analytically_semistable", "undecided",
        "higher_stratum",
    ]


def test_transport_subdivision_pins():
    rng = np.random.default_rng(24)
    plan = TransportPlan(solve_options=SolveOptions(max_iterations=3), max_subdivision_depth=6)
    _, dims, x0 = S.random_stable_instance(rng, max_vertices=3)
    theta0 = S.random_chamber_theta(rng, dims)
    x = exp_action(solve_moment_equation(x0, theta0).y, 1.0, "I", x0)
    real = transport_real(x, S.random_chamber_theta(rng, dims, scale=6.0), plan)
    _, dims, x = S.random_stable_instance(rng, max_vertices=3)
    target = tuple(tuple(S.random_chamber_theta(rng, dims, scale=4.0).values) for _ in range(3))
    hyper = transport_hyperkahler(x, target, plan)
    xi0 = central_xi(x)
    cplx = transport_complex(x, xi0, 5 * xi0, plan)
    used = [(r.subdivisions_used, len(r.applied_y_log)) for r in (real, hyper, cplx)]
    assert used == [(1, 2), (21, 24), (30, 32)]


def test_cli_exit_code_pins(tmp_path):
    specs = [
        ("solve", A2_SPEC),
        ("solve", dict(A2_SPEC, structure="J")),
        ("solve", dict(A2_SPEC, theta=[-1.0, 1.0])),
        ("moment", A2_SPEC),
        ("flow", dict(A2_SPEC, theta=[0.5, -0.5])),
        ("stability", A2_SPEC),
        ("regular", dict(A2_SPEC, xi=[["1", "0"], ["-1", "0"]])),
        ("transport", dict(A2_SPEC, transport={"target_theta": [2.0, -2.0]})),
        ("transport", dict(A2_SPEC, transport={"target_theta": [-1.0, 1.0]})),
        ("transport", dict(A2_SPEC, transport={"mode": "nowhere"})),
        ("solve", {"quiver": {"vertices": 2, "edges": []}, "dims": [1]}),
    ]
    codes = []
    for k, (command, spec) in enumerate(specs):
        path = tmp_path / f"in{k}.json"
        path.write_text(json.dumps(spec))
        codes.append(main([command, "--input", str(path), "--output", str(tmp_path / "out.json")]))
    assert codes == [0, 0, 3, 0, 0, 0, 0, 0, 3, 2, 2]

