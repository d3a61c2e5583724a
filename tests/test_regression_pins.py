"""Verdict, classification and exit-code vectors pinned on fixed seeds.

These vectors record what the solvers decide, not how closely they hit a
tolerance; a refactor that keeps the arithmetic must keep every entry.
"""

import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np

from quivermoment import (
    GroupElement,
    LieAlgebraElement,
    Quiver,
    Representation,
    act,
    apply_structure,
    exp_action,
    extend,
    hyperkahler_rotation,
    infinitesimal_action,
    moment_complex,
    moment_real,
    norm_sq,
    pairing,
    pairing_norm,
    polar_decompose,
    quaternion_act,
    theta_to_center,
)
from quivermoment import sampling as S
from quivermoment import selftest
from quivermoment.cli import main
from quivermoment.lie import (
    VertexMatrices,
    center_to_theta,
    character_log_modulus,
    tangent_matrix,
    uv_basis,
)
from quivermoment.flow import FlowOptions, flow_integrate
from quivermoment.layout import dagger, eigh_i_stacks, eigh_stacks, exp_i_stacks, sq_norm_stacks, trial_stacks
from quivermoment.moment import defect_offset, defect_sq_norm, defect_stacks
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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_solve_outcome_pins(a2_rep, theta11):
    """Status, iteration count, residual, objective trace and Y of whole
    solves, compared as exact reprs and byte digests: the solver's arithmetic
    must not move.  The status-pin seeds reach the noise-floor fallback of the
    line search twice and the gradient-descent solve 39 times."""
    runs = []
    rng = np.random.default_rng(11)
    for _ in range(3):
        _, dims, x = S.random_stable_instance(rng)
        theta = S.random_chamber_theta(rng, dims)
        runs += [solve_moment_equation(x, theta, s) for s in "IJK"]
    rng = np.random.default_rng(21)
    opts = SolveOptions(max_iterations=30)
    for _ in range(6):
        _, dims, x = S.random_instance(rng, max_vertices=3, max_dim=2)
        theta = S.random_theta(rng, dims)
        runs += [solve_moment_equation(x, theta, s, opts) for s in "IJK"]
    runs.append(solve_moment_equation(a2_rep(1, 0), theta11(-1, 1)))
    rng = np.random.default_rng(12)
    _, dims, x = S.random_stable_instance(rng)
    theta = S.random_chamber_theta(rng, dims)
    gd = SolveOptions(step_control="gradient-descent-armijo", max_iterations=200)
    runs.append(solve_moment_equation(x, theta, "J", gd))
    half = solve_moment_equation(x, theta, "I", SolveOptions(max_iterations=2))
    runs.append(solve_moment_equation(x, theta, "I", SolveOptions(initial_y=half.y)))
    got = [
        (
            o.status,
            o.iterations,
            repr(o.residual),
            _digest(repr(o.objective_trace).encode()),
            _digest(b"".join(b.tobytes() for b in o.y.blocks)),
        )
        for o in runs
    ]
    C, M, D = "converged", "max_iterations", "diverged"
    assert got == [
        (C, 4, "7.426537329574255e-14", "698af1ea2bcc2adf", "2ce6cc6b772c2ad8"),
        (C, 6, "3.510833468576701e-16", "75ee2c43359882ca", "bb3a4afab50ad023"),
        (C, 4, "3.278415857467667e-11", "136104445c4f766f", "7671c316176f02b0"),
        (C, 4, "1.787596980229968e-15", "b4328aa42fa6d50a", "e1fc31d1aa290582"),
        (C, 5, "1.5592607100143473e-15", "ee527ffacad6b9e3", "6056c580260afaec"),
        (C, 6, "2.254873622441467e-15", "21ee6185a30b74f6", "b32ce764abfced46"),
        (C, 4, "2.0175840826237853e-15", "b2e46ad266601adc", "ef755976e1417480"),
        (C, 5, "1.1206678596018482e-13", "2fa7f1ea62ae2cf2", "73ff15813bb88a2f"),
        (C, 4, "4.644727856941466e-15", "0a71d281fad76c7f", "3cf43eb4c233904d"),
        (C, 0, "0.0", "f119fa115ac3b0bb", "374708fff7719dd5"),
        (C, 0, "0.0", "f33615d3e98b526f", "374708fff7719dd5"),
        (C, 0, "0.0", "f33615d3e98b526f", "374708fff7719dd5"),
        (C, 3, "1.1801832636420706e-15", "6a38321491a8837c", "00fcdaf5b6c18cbc"),
        (C, 4, "8.968100940422724e-16", "8f8b60b608ea1be2", "fdfd373c3210d38d"),
        (C, 4, "2.401779625492033e-15", "77f075f4c4c18af8", "8bae75c437d256c3"),
        (M, 30, "0.48556430709571075", "f008c632251622ff", "7adb3a3920ca7684"),
        (M, 30, "0.996257344638458", "e0b36f1ccf8f6846", "54fee735ed48fa63"),
        (M, 30, "1.8737411906961867", "a60597b4a9ad25eb", "6fd1ba209e6f550d"),
        (C, 4, "1.8552687127769033e-15", "5acaffef1c807f74", "af5c30aab3c8c17f"),
        (C, 4, "6.965267092588211e-15", "f30adfa1d3aac3a6", "2da5696c5aaf8806"),
        (C, 4, "3.5755150067371996e-14", "24c71be81c715379", "b65b290af27c5b0d"),
        (M, 30, "1.6742747735513102", "00fb0c10fb48da2f", "0dedd7e6d671f98a"),
        (M, 30, "2.6927967985835783", "2be80f8d75d1f0c1", "a61c1ec69bf37269"),
        (M, 30, "2.5149944496649086", "5a4a9cf085f3fae1", "6c6781929b6eeaa3"),
        (C, 0, "0.0", "722e8b789db5803c", "374708fff7719dd5"),
        (C, 0, "0.0", "722e8b789db5803c", "374708fff7719dd5"),
        (C, 0, "0.0", "722e8b789db5803c", "374708fff7719dd5"),
        (D, 12, "1.4142135623730951", "8897fe62a993b8ca", "966c27d5c7a1efc6"),
        (M, 200, "6.613326070738796e-08", "ab2725dc87237dda", "8f07b9b4ff9f3c6c"),
        (C, 1, "6.25575869196927e-12", "436c63d2ae708d0e", "d829390c78e4bcd6"),
    ]


# supports whose positive-dimension vertices fall into two or more components,
# where central directions act trivially and the Hessian is singular
SPLIT_SUPPORT_CASES = [
    ((4, [(0, 1), (1, 1), (2, 3), (3, 2)]), (2, 1, 2, 1), 8.0),  # a disconnected quiver
    ((3, [(0, 1), (1, 2), (2, 2)]), (2, 0, 2), 4.0),  # cut only by a zero-dimension vertex
    ((3, [(0, 1), (1, 0)]), (1, 2, 2), 4.0),  # vertex 2 is isolated with d > 0
]


def test_split_support_solve_pins():
    """Whole solves on split supports, where every Newton check falls back to
    the gradient: status, iteration count, residual, objective trace, Y and
    the divergence direction, as exact reprs and byte digests."""
    rng = np.random.default_rng(44)
    opts = SolveOptions(max_iterations=50)
    runs = []
    for (n, edges), dims, scale in SPLIT_SUPPORT_CASES:
        x = S.random_representation(rng, extend(Quiver(n, edges)), dims)
        theta = S.random_theta(rng, dims, scale=scale)
        runs += [solve_moment_equation(x, theta, s, opts) for s in "IJK"]
        if len(runs) == 3:
            gd = SolveOptions(step_control="gradient-descent-armijo", max_iterations=50)
            runs.append(solve_moment_equation(x, theta, "J", gd))
            half = solve_moment_equation(x, theta, "I", SolveOptions(max_iterations=2))
            runs.append(solve_moment_equation(x, theta, "I", SolveOptions(max_iterations=50, initial_y=half.y)))
    got = [
        (
            o.status,
            o.iterations,
            repr(o.residual),
            _digest(repr(o.objective_trace).encode()),
            _digest(b"".join(b.tobytes() for b in o.y.blocks)),
            None if o.divergence_direction is None
            else _digest(b"".join(b.tobytes() for b in o.divergence_direction.blocks)),
        )
        for o in runs
    ]
    M, D = "max_iterations", "diverged"
    assert got == [
        (D, 50, "11.309439568213648", "1551d816399ffc90", "bbe4edf8d3c4aa7c", "d01866d75fe573ed"),
        (M, 50, "31.05268452036173", "b18b6e69a4740a32", "926bc12075978e44", None),
        (D, 45, "12.807772978510132", "59a1cf2203d76c68", "a2c706329e245b82", "b22380dc81af91c1"),
        (M, 50, "31.05268452036173", "b18b6e69a4740a32", "926bc12075978e44", None),
        (D, 48, "11.309439568213648", "194b4fbfc3dd3739", "bbe4edf8d3c4aa7c", "d01866d75fe573ed"),
        (M, 50, "5.70663174073814", "720736fb9a969aaf", "53d91332e7f0e175", None),
        (M, 50, "6.042027988342326", "bae60655fcd7e578", "952bfc9ff75f5878", None),
        (M, 50, "12.623576587235528", "4e032bf91b78716e", "366452de73914522", None),
        (M, 50, "12.845005289926181", "5990fbc4e1c0b837", "1714c5ebd145d3da", None),
        (D, 28, "15.365597995788248", "4178a92689144058", "717617b9ccd66ea9", "3b6ebe61520dca1e"),
        (M, 50, "13.111097293035899", "14d5bb08ecb6e1ae", "dc5bdd6f0a80a47b", None),
    ]


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


def _king_pin_certificates():
    """The 200 criterion-8 King calls (same draws and seeds as the acceptance
    test), then 60 generic draws with dimensions up to 3."""
    rng = np.random.default_rng(1008)
    for k in range(200):
        if k % 4 != 0:
            _, dims, x = S.random_stable_instance(rng)
            theta = S.random_chamber_theta(rng, dims)
        else:
            _, dims, x = S.random_instance(rng, max_dim=2)
            theta = S.balanced_theta(rng.normal(size=len(dims)), dims)
        yield king_stable_test(x, theta, seed=int(rng.integers(2 ** 31)))
    rng = np.random.default_rng(31)
    for k in range(60):
        _, dims, x = S.random_instance(rng, max_vertices=4, max_dim=3)
        yield king_stable_test(x, S.random_theta(rng, dims), seed=k)


def test_king_certificate_pins():
    """Verdict, candidate count, residuals, diagnostics and witness bytes of
    whole King searches: a change to the candidate families or to the closure
    arithmetic must keep every certificate."""
    verdicts, tested = [], []
    h = hashlib.sha256()
    for cert in _king_pin_certificates():
        verdicts.append(cert.verdict[0])
        tested.append(cert.diagnostics.get("candidates_tested"))
        h.update(repr(sorted(cert.residuals.items())).encode())
        h.update(repr(sorted(cert.diagnostics.items())).encode())
        if cert.witness_subspace is not None:
            h.update(b"".join(b.tobytes() for b in cert.witness_subspace.bases))
        if cert.witness_direction is not None:
            h.update(b"".join(b.tobytes() for b in cert.witness_direction.blocks))
    assert "".join(verdicts) == (
        "ssssssssssssssssssssssssusssssssssssssssssssusssssss"
        "ssssusssusssusssusssssssssssssssssssssssssssssssusss"
        "ssssssssssssssssssssssssusssssssusssssssssssusssssss"
        "ssssusssssssssssssssssssusssssssusssussssssssssussss"
        "suusssuuussuusssuussuuuususuususuussssssuussssssssuu"
    )
    nonzero = {
        24: 1, 44: 1, 56: 13, 60: 1, 64: 1, 68: 2, 100: 1, 128: 1, 136: 1, 148: 3, 160: 3,
        180: 1, 188: 22, 192: 5, 203: 1, 209: 1, 210: 6, 214: 2, 215: 1, 216: 32, 219: 27,
        220: 1, 224: 1, 225: 1, 228: 1, 229: 1, 230: 7, 231: 6, 233: 1, 235: 1, 236: 1,
        238: 5, 240: 1, 241: 29, 248: 1, 249: 3, 258: 1, 259: 22,
    }
    assert tested == [nonzero.get(i, 0) for i in range(260)]
    assert h.hexdigest()[:16] == "43fe9536db654025"


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


def test_criterion_5_flow_classification_pins():
    """Classification and events of the 100 flows of acceptance criterion 5:
    the one higher stratum there is certified by d_theta, and no flow reports
    d_theta_unavailable."""
    rng = np.random.default_rng(1005)
    classes, events = [], {}
    for k in range(100):
        if k % 5 != 0:
            _, dims, x = S.random_stable_instance(rng)
            theta, opts = S.random_chamber_theta(rng, dims), None
        else:
            _, dims, x = S.random_instance(rng, max_dim=2)
            theta = S.balanced_theta(rng.normal(size=len(dims)), dims)
            opts = FlowOptions(max_time=300.0)
        out = flow_integrate(theta, x, opts)
        classes.append(out.classification[0])
        if out.events:
            events[k] = out.events
    assert "".join(classes) == (
        "uaaaaaaaaaaaaaauaaaauaaaaaaaaaaaaaaaaaaauaaaaaaaaauaaaauaaaa"
        "uaaaaaaaaaaaaaauaaaahaaaauaaaaaaaaaaaaaa"
    )
    assert events == {k: ("step_underflow",) for k in (15, 20, 50, 55, 60, 75, 85)}


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



TRIANGLE = {"quiver": {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}, "dims": [2, 1, 2]}
REPLAY_Y = {"blocks": [[[[0.0, 0.3]]], [[[0.0, -0.3]]]]}


def test_cli_report_pins(tmp_path):
    """Exit codes and report bytes of every command on fixed seeds: all five
    transport modes and a failing leg, a batch, option overrides, the flow
    CSV and a small selftest.  A change to how specs are read must keep
    every byte."""
    zeros = [0.0, 0.0]
    runs = [
        ("moment", {"quiver": {"vertices": 2, "edges": [[0, 1], [1, 1]]}, "dims": [2, 2]}, "--seed", "5"),
        ("moment", TRIANGLE, "--seed", "3"),
        ("solve", dict(A2_SPEC, structure="J")),
        ("solve", dict(TRIANGLE, theta=[1.0, 0.0, -1.0], solve={"max_iterations": 40}), "--seed", "2"),
        ("solve", dict(A2_SPEC, solve={"step_control": "gradient-descent-armijo"}), "--tolerance", "1e-6"),
        ("solve", [A2_SPEC, dict(A2_SPEC, theta=[-1.0, 1.0])]),
        ("flow", dict(A2_SPEC, theta=[0.5, -0.5], flow={"initial_step": 0.1, "max_time": 50.0})),
        ("flow", dict(TRIANGLE, theta=[1.0, 0.0, -1.0]), "--seed", "4", "--tolerance", "1e-6"),
        ("stability", dict(TRIANGLE, theta=[1.0, 0.0, -1.0], solve={"max_iterations": 50},
                           stability={"search_budget": 16}), "--seed", "6"),
        ("stability", dict(A2_SPEC, theta=[-1.0, 1.0]), "--budget", "8"),
        ("regular", dict(A2_SPEC, export_weights=True, xi=[["1", "0"], ["-1", "0"]], theta_triple={
            "theta_I": ["1", "-1"], "theta_J": ["1/2", "-1/2"], "theta_K": ["0", "0"]})),
        ("transport", dict(A2_SPEC, transport={
            "target_theta": [6.0, -6.0], "waypoints": [[2.0, -2.0]], "max_subdivision_depth": 4})),
        ("transport", dict(A2_SPEC, transport={"target_theta": [-1.0, 1.0]})),
        ("transport", dict(A2_SPEC, transport={
            "mode": "hyperkahler", "leg_order": ["K", "J", "I"], "tolerance": 1e-8,
            "target_triple": {"theta_I": [2.0, -2.0], "theta_J": [1.0, -1.0], "theta_K": zeros}})),
        ("transport", dict(A2_SPEC, representation={"blocks": [[[[1.0, 0.0]]], [[[0.5, 0.0]]]]}, transport={
            "mode": "complex", "xi_start": [[-0.5, 0.0], [0.5, 0.0]], "xi_target": [[-1.0, 0.5], [1.0, -0.5]]})),
        ("transport", dict(A2_SPEC, transport={"mode": "quaternion", "q": [0.6, 0.0, 0.8, 0.0], "t": 0.5})),
        ("transport", dict(A2_SPEC, transport={"mode": "replay", "log": [["J", REPLAY_Y], ["I", REPLAY_Y]]})),
        ("selftest", None, "--budget", "0.05"),
    ]
    codes = []
    h = hashlib.sha256()
    csv = tmp_path / "flow.csv"
    for k, (command, spec, *extra) in enumerate(runs):
        out = tmp_path / f"out{k}.json"
        argv = [command, "--output", str(out), *extra]
        if spec is not None:
            path = tmp_path / f"in{k}.json"
            path.write_text(json.dumps(spec))
            argv += ["--input", str(path)]
        if command == "flow":
            argv += ["--csv", str(csv)]
        codes.append(main(argv))
        h.update(out.read_bytes())
        if command == "flow":
            h.update(csv.read_bytes())
    assert codes == [0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0]
    assert h.hexdigest()[:16] == "414d373d8d055cea"


def test_selftest_full_budget_pin():
    """Name, verdict and detail of every check of the seed-1 selftest at the
    default budget, where each check runs its full instance count."""
    results = selftest.run_selftest(seed=1)
    assert all(r.passed for r in results)
    assert _digest(repr([(r.name, r.passed, r.detail) for r in results]).encode()) == "2518e9a3d92d4e76"


def test_flow_outcome_pins(a2_rep, theta11):
    """Classification, limit value, flow time and sample count of whole flows,
    compared as exact reprs: the integrator's arithmetic must not move."""
    runs = []
    rng = np.random.default_rng(31)
    for _ in range(4):
        _, dims, x = S.random_stable_instance(rng)
        runs.append(flow_integrate(S.random_chamber_theta(rng, dims), x))
    rng = np.random.default_rng(32)
    for _ in range(4):
        _, dims, x = S.random_instance(rng, max_vertices=3, max_dim=2)
        runs.append(flow_integrate(S.random_theta(rng, dims), x, FlowOptions(max_time=10.0)))
    runs.append(flow_integrate(theta11(-1, 1), a2_rep(1, 0)))
    runs.append(flow_integrate(theta11(2, -2), a2_rep(1, 0.5)))
    runs.append(flow_integrate(theta11(0, 0), a2_rep(0.3, 0.2)))
    got = [(o.classification, repr(o.h_value), repr(o.time), len(o.trajectory_summary)) for o in runs]
    assert [o.stop_reason for o in runs] == (
        ["reached"] * 4 + ["stalled", "reached", "step_underflow", "reached", "stalled", "reached", "reached"]
    )
    S_, H, U = "analytically_semistable", "higher_stratum", "undecided"
    assert got == [
        (S_, "5.147336774400001e-19", "0.9750000000000001", 51),
        (S_, "6.148972489874723e-20", "0.27499999999999997", 13),
        (S_, "9.461615190148342e-19", "1.2437499999999984", 119),
        (S_, "8.93342525616653e-19", "2.7499999999999982", 57),
        (H, "1.0038402252081202", "0.6375000000000003", 40),
        (S_, "7.005698093826936e-19", "0.03125000000000001", 22),
        (U, "1.5478634445801045", "0.5849197387695309", 74),
        (S_, "0.0", "0.0", 2),
        (H, "2.0", "1435.1500000000003", 30),
        (S_, "6.704788197216781e-19", "3.274999999999997", 68),
        (S_, "3.9766989039124767e-19", "21.55000000000001", 32),
    ]


# ---------------------------------------------------------------------------
# reference loops: the moment maps, action, infinitesimal action, exp_i and norm
# written block by block, in edge order, exactly as their definitions read

def _ref_moment(x):
    q = x.quiver
    blocks = [np.zeros((d, d), dtype=complex) for d in x.dims]
    for e in range(q.num_edges):
        b = x.blocks[e]
        blocks[q.head(e)] += b @ b.conj().T
        blocks[q.tail(e)] -= b.conj().T @ b
    return [-1j * b for b in blocks]


def _ref_moment_complex(x):
    q = x.quiver
    blocks = [np.zeros((d, d), dtype=complex) for d in x.dims]
    for e in range(q.num_edges):
        blocks[q.head(e)] += q.epsilon[e] * (x.blocks[e] @ x.blocks[q.reverse(e)])
    return blocks


def _ref_act(g, x):
    q = x.quiver
    inv = [np.linalg.inv(b) for b in g.blocks]
    return [g.blocks[q.head(e)] @ x.blocks[e] @ inv[q.tail(e)] for e in range(q.num_edges)]


def _ref_infinitesimal_action(y, x):
    q = x.quiver
    return [
        y.blocks[q.head(e)] @ x.blocks[e] - x.blocks[e] @ y.blocks[q.tail(e)]
        for e in range(q.num_edges)
    ]


def _ref_exp_i(y, t):
    out = []
    for b in y.blocks:
        if b.size == 0:
            out.append(np.zeros_like(b))
            continue
        w, u = np.linalg.eigh(1j * b)
        out.append((u * np.exp(t * w)) @ u.conj().T)
    return out


def _ref_norm_sq(x):
    return float(sum(np.vdot(b, b).real for b in x.blocks))


KERNEL_CASES = [
    ((2, [(0, 0), (0, 1), (1, 1)]), (2, 3)),  # loops at both vertices
    ((2, [(0, 1), (0, 1), (1, 0)]), (2, 1)),  # parallel and antiparallel edges
    ((3, [(0, 1), (1, 2), (2, 0)]), (1, 0, 2)),  # a zero-dimension vertex
    ((3, [(0, 1), (1, 0)]), (2, 2, 3)),  # vertex 2 is isolated with d > 0
    ((2, []), (1, 2)),  # no edges at all
    ((4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 1)]), (1, 3, 2, 3)),  # mixed dims 1-3
]


def _same(got, want):
    # byte equality: array_equal would let -0.0 stand for 0.0
    return len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want)
    )


def test_kernels_match_per_edge_loops_bit_for_bit():
    rng = np.random.default_rng(33)
    for (n, edges), dims in KERNEL_CASES:
        quiver = extend(Quiver(n, edges))
        for _ in range(5):
            x = S.random_representation(rng, quiver, dims)
            assert _same(moment_real(x).blocks, _ref_moment(x)), (edges, dims)
            assert _same(moment_complex(x).blocks, _ref_moment_complex(x)), (edges, dims)
            assert repr(norm_sq(x)) == repr(_ref_norm_sq(x))
            y = S.random_uv_element(rng, dims)
            assert _same(infinitesimal_action(y, x).blocks, _ref_infinitesimal_action(y, x))
            assert _same(GroupElement.exp_i(y, -0.3).blocks, _ref_exp_i(y, -0.3))
            for g in (GroupElement.exp_i(y, 0.7), S.random_unitary(rng, dims)):
                assert _same(act(g, x).blocks, _ref_act(g, x)), (edges, dims)
            # a point built from another point's output, as the solver does
            moved = act(GroupElement.exp_i(y), x)
            assert _same(moment_real(moved).blocks, _ref_moment(Representation(quiver, dims, moved.blocks)))


def test_eigh_stacks_match_eigh_bit_for_bit():
    """The hermitian eigensolve answers 1x1 blocks in closed form with the
    bytes np.linalg.eigh gives, u^dagger included, on signed zeros,
    subnormals and extreme magnitudes, and larger blocks through eigh."""
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-310, 1e-300, -1e-300, 1e300, -1e300, 1.0, -3.5]
    ones = np.array([complex(re, im) for re in edge for im in (0.0, -0.0, 5e-324, -1e300)]).reshape(-1, 1, 1)
    rng = np.random.default_rng(41)
    stacks = [ones, ones.reshape(4, -1, 1, 1)]
    for d in (2, 3):
        a = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        stacks.append(a + dagger(a))
    for h in stacks:
        w, u = np.linalg.eigh(h)
        assert _same(eigh_stacks(h), [w, u, dagger(u)])
    # through eigh_i_stacks, on directions of mixed dimension classes
    dims = (1, 0, 2, 1, 3)
    y = S.random_uv_element(rng, dims)
    for z in (y, 1e-300 * y, 0.0 * y, -(0.0 * y), y - y):
        for s, got in zip(z.stacks, eigh_i_stacks(z.stacks)):
            if s.shape[1] == 0:
                assert _same(got, [np.zeros(s.shape[:2]), s, s])
                continue
            w, u = np.linalg.eigh(1j * s)
            assert _same(got, [w, u, dagger(u)])


def _underflow_direction(rng, dims):
    """A compact direction whose exponential exp(itY) at t = 800 has an
    all-zero (singular) block at the smallest positive-dimension vertex and
    finite blocks elsewhere, and overflows at t = -800."""
    low = min((v for v, d in enumerate(dims) if d), key=lambda v: dims[v])
    rest = sum(dims) - dims[low]
    blocks = [(1j if v == low else -1j * dims[low] / rest) * np.eye(d) for v, d in enumerate(dims)]
    return LieAlgebraElement.project(blocks) + S.random_uv_element(rng, dims, scale=0.01)


def _sequential_trials(x, y, ts, offset):
    """Per step t: exp(itY), then exp(itY).x, its squared norm, its moment
    defect and the defect's squared norm, one step at a time; None where the
    exponential overflows or has a singular block."""
    layout = x.layout
    out = []
    for t in ts:
        with np.errstate(over="ignore", invalid="ignore"):
            g = exp_i_stacks(y.stacks, t)
            _, ok, trials = trial_stacks(layout, eigh_i_stacks(y.stacks), (t,), x.stacks)
            if not ok[0]:
                out.append((g, None))
                continue
            trial = [s[0] for s in trials]
            defect = defect_stacks(layout, trial, offset)
            out.append((g, (trial, layout.ordered_sum(sq_norm_stacks(trial)), defect,
                            defect_sq_norm(layout, defect))))
    return out


def _assert_stack_matches(x, y, ts, offset, sequential):
    """The stacked trial kernel on the whole step list, trial by trial, equals
    the sequential trials byte for byte."""
    layout, lead = x.layout, (len(ts),)
    g, ok, trials = trial_stacks(layout, eigh_i_stacks(y.stacks), ts, x.stacks)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = layout.ordered_sum(sq_norm_stacks(trials), lead=lead)
        defects = defect_stacks(layout, trials, offset, lead)
        defect_norms = defect_sq_norm(layout, defects, lead)
    for k, (g_seq, result) in enumerate(sequential):
        assert _same([s[k] for s in g], g_seq)
        assert ok[k] == (result is not None)
        if result is not None:
            trial, norm, defect, defect_norm = result
            assert _same([s[k] for s in trials], trial)
            assert _same([s[k] for s in defects], defect)
            assert repr((float(norms[k]), float(defect_norms[k]))) == repr((norm, defect_norm))


def test_stacked_trials_match_sequential_trials_bit_for_bit():
    """The line-search trials of the solver and the flow along one direction:
    halving ladders, a flow step pair, a step whose exponential overflows and
    one with a singular block, so that rejected trials come out as None, and
    the stacked kernel gives the same bytes, falling back to one trial at a
    time where a trial is rejected."""
    rng = np.random.default_rng(37)
    h = hashlib.sha256()
    rejected = {"overflow": 0, "singular": 0}
    for (n, edges), dims in KERNEL_CASES:
        quiver = extend(Quiver(n, edges))
        for _ in range(3):
            x = S.random_representation(rng, quiver, dims)
            offset = defect_offset(S.random_theta(rng, dims), x)
            for y, ts in (
                (S.random_uv_element(rng, dims), [0.5 ** k for k in range(12)]),
                (S.random_uv_element(rng, dims, scale=3.0), [-0.2, -0.1, 1e3, -1e3, 20.0]),
                (_underflow_direction(rng, dims), [1.0, 0.5, -800.0, 800.0, 0.25]),
            ):
                sequential = _sequential_trials(x, y, ts, offset)
                _assert_stack_matches(x, y, ts, offset, sequential)
                for g, result in sequential:
                    h.update(b"".join(s.tobytes() for s in g))
                    if result is None:
                        finite = all(np.isfinite(s).all() for s in g)
                        rejected["singular" if finite else "overflow"] += 1
                        h.update(b"rejected")
                        continue
                    trial, norm, defect, defect_norm = result
                    h.update(b"".join(s.tobytes() for s in trial + defect))
                    h.update(repr((norm, defect_norm)).encode())
    assert rejected == {"overflow": 53, "singular": 18}
    assert h.hexdigest()[:16] == "0520260a8010cfb8"
    # a singular block in an otherwise finite stack: the stacked inv fails
    for (n, edges), dims in KERNEL_CASES:
        x = S.random_representation(rng, extend(Quiver(n, edges)), dims)
        offset = defect_offset(S.random_theta(rng, dims), x)
        y, ts = _underflow_direction(rng, dims), [0.5, 800.0, 0.25]
        sequential = _sequential_trials(x, y, ts, offset)
        assert [result is None for _, result in sequential] == [False, True, False]
        assert all(np.isfinite(s).all() for g, _ in sequential for s in g)
        _assert_stack_matches(x, y, ts, offset, sequential)


# reference loops for the quaternionic structure maps and the vector-space
# operations, block by block in edge order as their definitions read

def _ref_structure(structure, x):
    q = x.quiver
    if structure == "I":
        return [1j * b for b in x.blocks]
    m = q.base.num_edges
    out = [None] * (2 * m)
    for e in range(m):
        ebar = q.reverse(e)
        if structure == "J":
            out[e] = -x.blocks[ebar].conj().T
            out[ebar] = x.blocks[e].conj().T
        else:
            out[e] = -1j * x.blocks[ebar].conj().T
            out[ebar] = 1j * x.blocks[e].conj().T
    return out


def _ref_rotation(x, sign):
    images = [_ref_structure(s, x) for s in "IJK"]
    out = []
    for e, b in enumerate(x.blocks):
        acc = b
        for image in images:
            acc = acc + sign * image[e]
        out.append(0.5 * acc)
    return out


def _ref_quaternion_act(q, x):
    a, b, c, d = q
    out = [a * blk for blk in x.blocks]
    for coeff, s in ((b, "I"), (c, "J"), (d, "K")):
        if coeff != 0.0:
            out = [o + coeff * t for o, t in zip(out, _ref_structure(s, x))]
    return out


def test_structure_maps_match_per_edge_loops_bit_for_bit():
    """I, J, K, both hyperkahler rotations, the quaternion action and the
    vector-space operations, compared byte for byte (signed zeros included)
    with their per-edge definitions."""
    rng = np.random.default_rng(34)
    quats = [(0.5, 0.5, 0.5, 0.5), (0.6, 0.0, 0.8, 0.0), (0.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 0.0)]
    for (n, edges), dims in KERNEL_CASES:
        quiver = extend(Quiver(n, edges))
        for _ in range(3):
            x = S.random_representation(rng, quiver, dims)
            z = S.random_representation(rng, quiver, dims)
            for u in (x, 0.0 * x, -(0.0 * x), x - x):
                for s in "IJK":
                    assert _same(apply_structure(s, u).blocks, _ref_structure(s, u)), (edges, dims, s)
                assert _same(hyperkahler_rotation(u).blocks, _ref_rotation(u, 1.0))
                assert _same(hyperkahler_rotation(u, "inverse").blocks, _ref_rotation(u, -1.0))
                for q in quats:
                    assert _same(quaternion_act(q, u).blocks, _ref_quaternion_act(q, u)), q
                assert _same((u + z).blocks, [a + b for a, b in zip(u.blocks, z.blocks)])
                assert _same((u - z).blocks, [a - b for a, b in zip(u.blocks, z.blocks)])
                assert _same((z - u).blocks, [a - b for a, b in zip(z.blocks, u.blocks)])
                for c in (2.5, -1.0, 0.0, -0.0, 1j, 0.3 - 0.7j):
                    assert _same((c * u).blocks, [c * b for b in u.blocks]), c
                    assert _same((u * c).blocks, [c * b for b in u.blocks]), c
                assert _same((-u).blocks, [-b for b in u.blocks])


# reference loops for the compact algebra and the group: every operation
# written block by block in vertex order, exactly as its definition reads

def _ref_pairing(y, z):
    return float(sum(np.vdot(zb, yb).real for yb, zb in zip(y.blocks, z.blocks)))


def _ref_trace_sum(y):
    return complex(sum(np.trace(b) for b in y.blocks))


def _ref_project(blocks):
    skewed = [0.5 * (b - b.conj().T) for b in blocks]
    tau = sum(np.trace(b) for b in skewed) / sum(b.shape[0] for b in skewed)
    return [b - tau * np.eye(b.shape[0]) for b in skewed]


def _ref_realify(blocks):
    parts = [p for b in blocks for p in (b.real.ravel(), b.imag.ravel())]
    return np.concatenate(parts) if parts else np.zeros(0)


def _ref_basis(dims):
    """The orthonormal basis of the compact algebra, one block list per element:
    off-diagonal generators vertex by vertex, then the zero-sum diagonal."""
    elements = []
    for j, d in enumerate(dims):
        for a in range(d):
            for b in range(a + 1, d):
                for upper, lower in ((1.0, -1.0), (1j, 1j)):
                    blocks = [np.zeros((k, k), dtype=complex) for k in dims]
                    blocks[j][a, b] = upper / math.sqrt(2.0)
                    blocks[j][b, a] = lower / math.sqrt(2.0)
                    elements.append(blocks)
    total = sum(dims)
    if total > 1:
        for col in np.linalg.svd(np.ones((1, total)))[2][1:]:
            bounds = np.cumsum((0,) + dims)
            elements.append([1j * np.diag(col[p:q]) for p, q in zip(bounds[:-1], bounds[1:])])
    return elements


def _ref_basis_matrix(dims):
    elements = _ref_basis(dims)
    if not elements:
        return np.zeros((0, sum(2 * d * d for d in dims)))
    return np.array([_ref_realify(e) for e in elements])


def _ref_from_coords(dims, c):
    flat = c @ _ref_basis_matrix(dims)
    blocks, pos = [], 0
    for d in dims:
        n = d * d
        blocks.append(flat[pos:pos + n].reshape(d, d) + 1j * flat[pos + n:pos + 2 * n].reshape(d, d))
        pos += 2 * n
    return blocks


def _ref_tangent_matrix(x):
    return np.array([
        _ref_realify(_ref_infinitesimal_action(SimpleNamespace(blocks=e), x))
        for e in _ref_basis(x.dims)
    ])


def _ref_det_product(g):
    det = 1.0 + 0.0j
    for b in g.blocks:
        det *= np.linalg.det(b)
    return complex(det)


def _ref_character_log_modulus(theta, g):
    total = 0.0
    for t, b in zip(theta.values, g.blocks):
        if b.size:
            total -= 2.0 * t * np.linalg.slogdet(b)[1]
    return float(total)


def _ref_polar(g):
    y_blocks, h_blocks = [], []
    for b in g.blocks:
        if b.size == 0:
            y_blocks.append(np.zeros_like(b))
            h_blocks.append(np.zeros_like(b))
            continue
        w, u = np.linalg.eigh(b.conj().T @ b)
        y_blocks.append(-1j * ((u * (0.5 * np.log(w))) @ u.conj().T))
        h_blocks.append(b @ ((u * (1.0 / np.sqrt(w))) @ u.conj().T))
    return h_blocks, _ref_project(y_blocks)


def _ref_center_to_theta(mu):
    values = np.asarray([
        float((np.trace(b) / (1j * b.shape[0])).real) if b.shape[0] else 0.0 for b in mu.blocks
    ])
    d = np.asarray(mu.dims, dtype=float)
    return tuple(values - (values @ d) / (d @ d) * d)


def test_algebra_and_group_ops_match_per_block_loops_bit_for_bit():
    """Vector-space operations, pairing, trace sum, projection, basis
    coordinates, the tangent matrix, the group operations, the polar
    decomposition and the central elements, compared byte for byte (signed
    zeros included) with their per-block definitions."""
    rng = np.random.default_rng(35)
    for (n, edges), dims in KERNEL_CASES:
        quiver = extend(Quiver(n, edges))
        basis = uv_basis(dims)
        ref_matrix = _ref_basis_matrix(dims)
        for _ in range(3):
            x = S.random_representation(rng, quiver, dims)
            y = S.random_uv_element(rng, dims)
            z = S.random_uv_element(rng, dims)
            m = moment_complex(x)
            c = rng.normal(size=basis.dim)
            assert _same(basis.from_coords(c).blocks, _ref_from_coords(dims, c))
            assert basis.coords(y).tobytes() == (ref_matrix @ _ref_realify(y.blocks)).tobytes()
            assert basis.coords(m).tobytes() == (ref_matrix @ _ref_realify(m.blocks)).tobytes()
            if basis.dim:
                assert tangent_matrix(x).tobytes() == _ref_tangent_matrix(x).tobytes(), dims
            for u in (y, 0.0 * y, -(0.0 * y), y - y):
                assert type(u) is LieAlgebraElement
                assert _same((u + z).blocks, [a + b for a, b in zip(u.blocks, z.blocks)])
                assert _same((u - z).blocks, [a + (-1.0 * b) for a, b in zip(u.blocks, z.blocks)])
                assert _same((u + m).blocks, [a + b for a, b in zip(u.blocks, m.blocks)])
                assert _same((m - u).blocks, [a - b for a, b in zip(m.blocks, u.blocks)])
                for s in (2.5, -1.0, 0.0, -0.0, 1j, 0.3 - 0.7j):
                    assert _same((s * u).blocks, [s * b for b in u.blocks]), s
                    assert _same((u * s).blocks, [s * b for b in u.blocks]), s
                    assert _same((s * m).blocks, [s * b for b in m.blocks]), s
                assert _same((-u).blocks, [-b for b in u.blocks])
                for a, b in ((u, z), (z, u), (u, m), (m, u), (u, u)):
                    assert repr(pairing(a, b)) == repr(_ref_pairing(a, b))
                assert repr(pairing_norm(u)) == repr(math.sqrt(max(_ref_pairing(u, u), 0.0)))
                assert repr(u.trace_sum()) == repr(_ref_trace_sum(u))
                assert _same(LieAlgebraElement.project((u + m).blocks).blocks, _ref_project((u + m).blocks))
            assert repr(m.trace_sum()) == repr(_ref_trace_sum(m))
            assert type(m + y) is VertexMatrices and type(1j * y) is VertexMatrices

            theta = S.random_theta(rng, dims)
            center = theta_to_center(theta)
            assert _same(center.blocks, [1j * t * np.eye(d) for t, d in zip(theta.values, dims)])
            assert center_to_theta(moment_real(x)).values == _ref_center_to_theta(moment_real(x))
            g = GroupElement.exp_i(y, 0.7).compose(S.random_unitary(rng, dims))
            h = S.random_unitary(rng, dims)
            assert _same(g.compose(h).blocks, [a @ b for a, b in zip(g.blocks, h.blocks)])
            assert _same(g.inverse().blocks, [np.linalg.inv(b) for b in g.blocks])
            assert repr(g.det_product()) == repr(_ref_det_product(g))
            assert repr(character_log_modulus(theta, g)) == repr(_ref_character_log_modulus(theta, g))
            unitary, log = polar_decompose(g)
            ref_unitary, ref_log = _ref_polar(g)
            assert _same(unitary.blocks, ref_unitary) and _same(log.blocks, ref_log), dims
