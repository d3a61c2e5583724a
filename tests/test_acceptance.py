"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one [PASS] line with the measured extremes; tolerances are
pinned here, not configurable.  Desk scale throughout: at most 4 vertices,
dimensions at most 4, at most 6 edges.
"""

import hashlib
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from quivermoment import (
    Representation,
    StabilityParameter,
    act,
    balanced_theta,
    cone_project,
    exp_action,
    flow_integrate,
    king_stable_test,
    moment_real,
    norm_sq,
    solve_moment_equation,
    transport_hyperkahler,
    transport_real,
)
from quivermoment import selftest
from quivermoment.cones import WeightSet, regular_walls
from quivermoment.flow import FlowOptions
from quivermoment.lie import center_to_theta
from quivermoment.sampling import (
    random_chamber_theta,
    random_instance,
    random_rational_triple,
    random_stable_instance,
    random_unit_quaternion,
    random_unitary,
    random_uv_element,
)
from quivermoment.transport import TransportPlan

STRUCTURES = ("I", "J", "K")
LN4_OVER_4 = math.log(4.0) / 4.0


def report(criterion, elapsed, budget, detail):
    print(f"[PASS] criterion {criterion}: {detail} ({elapsed:.2f}s <= {budget:.0f}s)")


def a2_pair():
    from quivermoment import Quiver, extend

    xq = extend(Quiver(2, [(0, 1)]))
    x = Representation(xq, (1, 1), [np.array([[1.0]]), np.array([[0.0]])])
    return xq, x


def test_criterion_1_moment_oracle_suite():
    start = time.perf_counter()
    worst = selftest.worst_over("moment_oracle", np.random.default_rng(1001), 200)
    assert worst <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    report(1, elapsed, 5, f"200 oracle instances, worst scaled gap {worst:.2e}")


def test_criterion_2_quaternionic_algebra_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_rel = 0.0
    worst_mu = 0.0
    for _ in range(100):
        quiver, dims, x = random_instance(rng)
        worst_rel = selftest.worse(worst_rel, selftest.quaternion_relations_defect(x))
        worst_rel = selftest.worse(worst_rel, selftest.rotation_identities_defect(x))
        worst_mu = selftest.worse(worst_mu, selftest.rotation_intertwining_defect(x))
    assert worst_rel <= 1e-12
    assert worst_mu <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed <= 2.0
    report(
        2, elapsed, 2,
        f"100 instances, algebra {worst_rel:.2e} (tol 1e-12), intertwining {worst_mu:.2e} (tol 1e-10)",
    )


def test_criterion_3_kempf_ness_solver():
    start = time.perf_counter()
    _, x = a2_pair()
    out = solve_moment_equation(x, StabilityParameter((4.0, -4.0), (1, 1)))
    assert out.converged
    assert abs(out.y.blocks[0][0, 0].imag - LN4_OVER_4) <= 1e-8

    rng = np.random.default_rng(1003)
    worst_resid = 0.0
    for _ in range(100):
        quiver, dims, xr = random_stable_instance(rng)
        theta = random_chamber_theta(rng, dims)
        sol = solve_moment_equation(xr, theta)
        assert sol.converged
        worst_resid = selftest.worse(worst_resid, sol.residual)
    assert worst_resid <= 1e-10

    worst_spread = 0.0
    for _ in range(3):
        quiver, dims, xr = random_stable_instance(rng)
        theta = random_chamber_theta(rng, dims)
        directions = (random_uv_element(rng, dims) for _ in range(10))
        failure, spread = selftest.restart_spread(xr, theta, directions)
        assert failure is None
        worst_spread = selftest.worse(worst_spread, spread)
    assert worst_spread <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    report(
        3, elapsed, 10,
        f"closed form 1e-8, 100 in-chamber residual max {worst_resid:.2e}, restart spread {worst_spread:.2e}",
    )


def test_criterion_4_equivariance_and_inverse():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(50):
        quiver, dims, x0 = random_stable_instance(rng)
        theta0 = random_chamber_theta(rng, dims)
        seat = solve_moment_equation(x0, theta0)
        assert seat.converged
        x = exp_action(seat.y, 1.0, "I", x0)
        theta1 = random_chamber_theta(rng, dims)
        forward = solve_moment_equation(x, theta1)
        assert forward.converged
        u = random_unitary(rng, dims)
        moved, equivariance = selftest.solution_equivariance_defect(x, theta1, forward.y, u)
        assert moved.converged
        back, inverse = selftest.solution_inverse_defect(x, forward.y, theta0)
        assert back.converged
        worst = selftest.worse(worst, equivariance, inverse)
    assert worst <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    report(4, elapsed, 5, f"50 instances, worst equivariance/inverse defect {worst:.2e}")


def test_criterion_5_flow_classification():
    start = time.perf_counter()
    _, x = a2_pair()
    stable = flow_integrate(StabilityParameter((0.5, -0.5), (1, 1)), x)
    assert stable.classification == "analytically_semistable"
    assert stable.h_value <= 1e-18
    unstable = flow_integrate(StabilityParameter((-1.0, 1.0), (1, 1)), x)
    assert unstable.classification == "higher_stratum"
    assert unstable.h_value > 0

    rng = np.random.default_rng(1005)
    contradictions = 0
    for k in range(100):
        if k % 5 != 0:
            quiver, dims, xr = random_stable_instance(rng)
            theta = random_chamber_theta(rng, dims)
            opts = None
        else:
            quiver, dims, xr = random_instance(rng, max_dim=2)
            theta = balanced_theta(rng.normal(size=len(dims)), dims)
            opts = FlowOptions(max_time=300.0)
        out = flow_integrate(theta, xr, opts)
        assert selftest.flow_monotone(out)
        sol = solve_moment_equation(xr, theta)
        if out.classification == "analytically_semistable" and sol.status == "diverged":
            contradictions += 1
        if out.classification == "higher_stratum" and sol.converged:
            contradictions += 1
    assert contradictions == 0
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    report(
        5, elapsed, 30,
        f"monotone on all trajectories, A2 pair classified, 100 instances with {contradictions} contradictions",
    )


def test_criterion_6_cone_projection_and_d_theta():
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    worst_kkt = 0.0
    worst_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 11))
        vectors = rng.normal(size=(k, n))
        theta = rng.normal(size=n)
        beta, _ = cone_project(vectors, theta)
        dual = vectors @ (theta - beta)
        worst_kkt = max(worst_kkt, float(dual.max(initial=-np.inf)))
        assert np.all(dual <= 1e-10 * (1 + np.abs(theta).max() * np.abs(vectors).max()))
        ws = WeightSet(vectors=vectors, multiplicities=np.ones(k, dtype=int), num_coords=n)
        gap = selftest.d_theta_gap(ws, theta)
        assert gap is not None and gap <= 1e-12
        worst_gap = selftest.worse(worst_gap, gap)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    report(
        6, elapsed, 5,
        f"50 instances |A|<=10, KKT max dual {worst_kkt:.2e}, d_theta gap max {worst_gap:.2e}",
    )


def test_criterion_7_regular_loci():
    start = time.perf_counter()
    rng = np.random.default_rng(1007)
    from quivermoment import RationalThetaTriple, complex_regular_check, hyperkahler_regular_check

    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 5))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(n))
        try:
            triple = random_rational_triple(rng, dims, attempts=20)
        except ValueError:
            if math.gcd(*dims) > 1:
                # divisible dims: the regular locus is empty, nothing to draw
                checked += 1
            continue
        assert selftest.regular_check_agrees(dims, triple)
        walls = regular_walls(dims)
        if walls:
            zero = RationalThetaTriple(
                tuple(Fraction(0) for _ in dims),
                tuple(Fraction(0) for _ in dims),
                tuple(Fraction(0) for _ in dims),
                dims,
            )
            ok0, witness = hyperkahler_regular_check(dims, zero)
            assert not ok0 and witness == walls[0]
        checked += 1

    jordan2 = RationalThetaTriple(("0",), ("0",), ("0",), (2,))
    ok, witness = hyperkahler_regular_check((2,), jordan2)
    assert not ok and witness == (1,)
    a2 = RationalThetaTriple(("1", "-1"), ("0", "0"), ("0", "0"), (1, 1))
    assert hyperkahler_regular_check((1, 1), a2) == (True, None)
    assert complex_regular_check((1, 1), [("1", "0"), ("-1", "0")])
    elapsed = time.perf_counter() - start
    assert elapsed <= 2.0
    report(7, elapsed, 2, "100 rational inputs agree with the integer-arithmetic oracle")


def test_criterion_8_stability_certificates():
    start = time.perf_counter()
    rng = np.random.default_rng(1008)
    contradictions = 0
    witnesses = 0
    for k in range(200):
        if k % 4 != 0:
            quiver, dims, x = random_stable_instance(rng)
            theta = random_chamber_theta(rng, dims)
        else:
            quiver, dims, x = random_instance(rng, max_dim=2)
            theta = balanced_theta(rng.normal(size=len(dims)), dims)
        king, contradiction = selftest.stability_verdicts(x, theta, int(rng.integers(2 ** 31)))
        if contradiction:
            contradictions += 1
        verified = selftest.witness_reverifies(x, theta, king)
        if verified is not None:
            witnesses += 1
            assert verified
    assert contradictions == 0

    # chamber constancy on paired parameters
    for _ in range(20):
        quiver, dims, x = random_stable_instance(rng)
        theta = random_chamber_theta(rng, dims, margin=0.3)
        n = len(dims)
        while True:
            theta2 = balanced_theta(np.array(theta.values) + rng.normal(size=n) * 0.05, dims)
            same = all(
                np.sign(float(np.dot([(m >> j) & 1 for j in range(n)], theta.values)))
                == np.sign(float(np.dot([(m >> j) & 1 for j in range(n)], theta2.values)))
                for m in range(1, 2 ** n - 1)
            )
            if same:
                break
        v1 = king_stable_test(x, theta, seed=7).verdict
        v2 = king_stable_test(x, theta2, seed=7).verdict
        assert not (v1 in ("stable", "unstable") and v2 in ("stable", "unstable") and v1 != v2)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    report(
        8, elapsed, 60,
        f"200 instances, 0 contradictions, {witnesses} unstable witnesses re-verified, 20 chamber pairs",
    )


def test_criterion_9_transport():
    start = time.perf_counter()
    _, x = a2_pair()
    res = transport_real(x, StabilityParameter((4.0, -4.0), (1, 1)))
    assert abs(res.image.blocks[0][0, 0] - 2.0) <= 1e-8
    back = transport_real(res.image, StabilityParameter((1.0, -1.0), (1, 1)))
    assert math.sqrt(norm_sq(back.image - x)) <= 1e-7

    rng = np.random.default_rng(1009)
    worst = {"round": 0.0, "equiv": 0.0, "path": 0.0, "fiber": 0.0}
    worst_hk = {"round": 0.0, "equiv": 0.0, "path": 0.0, "fiber": 0.0}
    for k in range(50):
        quiver, dims, x0 = random_stable_instance(rng)
        theta0 = random_chamber_theta(rng, dims)
        seat = solve_moment_equation(x0, theta0)
        assert seat.converged
        xf = exp_action(seat.y, 1.0, "I", x0)
        theta1 = random_chamber_theta(rng, dims)
        u = random_unitary(rng, dims)
        for key, value in selftest.real_transport_defects(xf, theta0, theta1, u).items():
            worst[key] = selftest.worse(worst[key], value)

        if k % 3 == 0:
            triple = random_rational_triple(rng, dims, attempts=100)
            target = triple.as_floats()
            start_triple = tuple(
                tuple(center_to_theta(moment_real(xf, s)).values) for s in STRUCTURES
            )
            hk = transport_hyperkahler(
                xf, target, TransportPlan(regular_gate=(triple,))
            )
            worst_hk["fiber"] = selftest.worse(worst_hk["fiber"], hk.residual)
            hk_back = transport_hyperkahler(
                hk.image, start_triple, TransportPlan(leg_order=("K", "J", "I"))
            )
            worst_hk["round"] = selftest.worse(worst_hk["round"], math.sqrt(norm_sq(hk_back.image - xf)))
            hk_u = transport_hyperkahler(act(u, xf), target)
            worst_hk["equiv"] = selftest.worse(
                worst_hk["equiv"], math.sqrt(norm_sq(hk_u.image - act(u, hk.image)))
            )
            mid_triple = tuple(
                tuple(0.5 * (a + b) for a, b in zip(sc, tc))
                for sc, tc in zip(start_triple, target)
            )
            hk2 = transport_hyperkahler(xf, target, TransportPlan(waypoints=(mid_triple,)))
            worst_hk["path"] = selftest.worse(worst_hk["path"], math.sqrt(norm_sq(hk2.image - hk.image)))

    for w in (worst, worst_hk):
        assert w["round"] <= 1e-7
        assert w["equiv"] <= 1e-7
        assert w["path"] <= 1e-6
        assert w["fiber"] <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    report(
        9, elapsed, 60,
        "50 real instances "
        f"(round {worst['round']:.1e}, equiv {worst['equiv']:.1e}, path {worst['path']:.1e}, "
        f"fiber {worst['fiber']:.1e}); hyperkahler "
        f"(round {worst_hk['round']:.1e}, equiv {worst_hk['equiv']:.1e}, "
        f"path {worst_hk['path']:.1e}, fiber {worst_hk['fiber']:.1e})",
    )


def test_criterion_10_quaternion_scaling_equivariance():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    worst_q = 0.0
    worst_t = 0.0
    for _ in range(100):
        quiver, dims, x = random_instance(rng)
        worst_q = selftest.worse(
            worst_q, selftest.quaternion_equivariance_defect(x, random_unit_quaternion(rng))
        )
        worst_t = selftest.worse(worst_t, selftest.moment_homogeneity_defect(x))
    assert worst_q <= 1e-9
    assert worst_t <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed <= 2.0
    report(
        10, elapsed, 2,
        f"100 instances, conjugation defect {worst_q:.2e} (tol 1e-9), scaling defect {worst_t:.2e} (tol 1e-12)",
    )


def test_criterion_11_proportionality_constant():
    start = time.perf_counter()
    values, worst_resid = selftest.complex_real_proportionality(np.random.default_rng(1011), 50)
    assert worst_resid <= 1e-9
    spread = float(np.ptp(values))
    assert spread <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed <= 2.0
    report(
        11, elapsed, 2,
        f"c = {values[0]:.12f} across {len(values)} instances, spread {spread:.2e}",
    )


def test_criterion_12_selftest_command():
    start = time.perf_counter()
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "quivermoment.cli", "selftest", "--seed", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout[-2000:]
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert hashlib.sha256(runs[0].encode()).hexdigest()[:16] == "07b911eef87d11c3"
    payload = json.loads(runs[0])
    assert payload["result"]["failed"] == 0
    elapsed = time.perf_counter() - start
    assert elapsed <= 180.0
    report(
        12, elapsed, 180,
        f"selftest deterministic, {payload['result']['passed']} checks passed, exit 0",
    )
