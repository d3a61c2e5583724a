import math

import numpy as np
import pytest

from quivermoment import (
    RationalThetaTriple,
    TransportError,
    TransportPlan,
    act,
    exp_action,
    moment_hyperkahler,
    moment_real,
    norm_sq,
    pairing_norm,
    quaternion_transport,
    solve_moment_equation,
    theta_to_center,
    transport_complex,
    transport_hyperkahler,
    transport_real,
)
from quivermoment import selftest
from quivermoment.lie import center_to_theta
from quivermoment.sampling import (
    random_chamber_theta,
    random_stable_instance,
    random_unit_quaternion,
    random_unitary,
)
from quivermoment.transport import central_xi, replay_transport

LN4_OVER_4 = np.log(4.0) / 4.0


def seat_on_fiber(rng):
    """A stable instance moved onto the fiber of a chamber parameter."""
    quiver, dims, x0 = random_stable_instance(rng)
    theta0 = random_chamber_theta(rng, dims)
    seat = solve_moment_equation(x0, theta0)
    assert seat.converged
    return dims, exp_action(seat.y, 1.0, "I", x0), theta0


def test_transport_real_identity(a2_rep, theta11):
    x = a2_rep(1, 0)
    res = transport_real(x, theta11(1, -1))
    assert norm_sq(res.image - x) <= 1e-20
    assert res.residual <= 1e-10


def test_transport_real_closed_form(a2_rep, theta11):
    x = a2_rep(1, 0)
    res = transport_real(x, theta11(4, -4))
    assert res.image.blocks[0][0, 0] == pytest.approx(2.0, abs=1e-8)
    assert abs(res.image.blocks[1][0, 0]) <= 1e-12
    assert len(res.applied_y_log) == 1
    structure, y = res.applied_y_log[0]
    assert structure == "I"
    assert y.blocks[0][0, 0].imag == pytest.approx(LN4_OVER_4, abs=1e-8)


def test_transport_real_round_trip(a2_rep, theta11):
    x = a2_rep(1, 0)
    res = transport_real(x, theta11(4, -4))
    back = transport_real(res.image, theta11(1, -1))
    assert np.sqrt(norm_sq(back.image - x)) <= 1e-8


def test_transport_real_non_central_start_rejected():
    rng = np.random.default_rng(71)
    from quivermoment.sampling import random_instance

    while True:
        quiver, dims, x = random_instance(rng, max_dim=3)
        if max(dims) < 2:
            continue
        mu = moment_real(x, "I")
        off = pairing_norm(mu - theta_to_center(center_to_theta(mu)))
        if off > 1e-3:
            break
    with pytest.raises(ValueError):
        transport_real(x, center_to_theta(mu))


def test_transport_replay(a2_rep, theta11):
    x = a2_rep(1, 0)
    res = transport_real(x, theta11(4, -4))
    assert norm_sq(replay_transport(x, res.applied_y_log) - res.image) <= 1e-24


def test_transport_real_random_suite():
    rng = np.random.default_rng(72)
    for _ in range(6):
        dims, x, theta0 = seat_on_fiber(rng)
        theta1 = random_chamber_theta(rng, dims)
        defects = selftest.real_transport_defects(x, theta0, theta1, random_unitary(rng, dims))
        assert defects["fiber"] <= 1e-8
        assert defects["round"] <= 1e-7
        assert defects["equiv"] <= 1e-7
        assert defects["path"] <= 1e-6


def test_transport_diverging_target(a2_rep, theta11):
    with pytest.raises(TransportError):
        transport_real(a2_rep(1, 0), theta11(-1, 1))


def test_transport_hyperkahler_a2(a2_rep, theta11):
    x = a2_rep(1, 0)
    res = transport_hyperkahler(x, ((4.0, -4.0), (0.0, 0.0), (0.0, 0.0)))
    assert res.image.blocks[0][0, 0] == pytest.approx(2.0, abs=1e-8)
    assert res.residual <= 1e-8
    back = transport_hyperkahler(
        res.image,
        ((1.0, -1.0), (0.0, 0.0), (0.0, 0.0)),
        TransportPlan(leg_order=("K", "J", "I")),
    )
    assert np.sqrt(norm_sq(back.image - x)) <= 1e-7


def test_transport_hyperkahler_identity(a2_rep):
    x = a2_rep(1, 0)
    res = transport_hyperkahler(x, ((1.0, -1.0), (0.0, 0.0), (0.0, 0.0)))
    assert np.sqrt(norm_sq(res.image - x)) <= 1e-9


def test_transport_hyperkahler_random_suite():
    rng = np.random.default_rng(73)
    for _ in range(4):
        quiver, dims, x = random_stable_instance(rng)
        target = tuple(
            tuple(random_chamber_theta(rng, dims, scale=0.5).values) for _ in range(3)
        )
        image, fiber, round_trip = selftest.hyperkahler_round_trip(x, target)
        assert fiber <= 1e-8
        assert round_trip <= 1e-7
        u = random_unitary(rng, dims)
        res_u = transport_hyperkahler(act(u, x), target)
        assert np.sqrt(norm_sq(res_u.image - act(u, image))) <= 1e-7


def test_transport_hyperkahler_regular_gate(a2_rep):
    x = a2_rep(1, 0)
    good = RationalThetaTriple(("1", "-1"), ("0", "0"), ("0", "0"), (1, 1))
    transport_hyperkahler(
        x,
        ((4.0, -4.0), (0.0, 0.0), (0.0, 0.0)),
        TransportPlan(regular_gate=(good,)),
    )
    wall = RationalThetaTriple(("0", "0"), ("0", "0"), ("0", "0"), (1, 1))
    with pytest.raises(TransportError):
        transport_hyperkahler(
            x,
            ((4.0, -4.0), (0.0, 0.0), (0.0, 0.0)),
            TransportPlan(regular_gate=(wall,)),
        )


def test_transport_complex_identity_and_scaling(a2_rep):
    x = a2_rep(1, 1)
    xi0 = central_xi(x)
    res = transport_complex(x, xi0, xi0)
    assert np.sqrt(norm_sq(res.image - x)) <= 1e-9
    res2 = transport_complex(x, xi0, 2 * xi0)
    assert res2.residual <= 1e-8
    assert np.allclose(central_xi(res2.image), 2 * xi0, atol=1e-8)
    # structure-I moment untouched along the way
    assert pairing_norm(moment_real(res2.image, "I") - moment_real(x, "I")) <= 1e-8


def test_overflowing_complex_moment_is_refused(a2_rep):
    """Blocks of 1e200 overflow the complex moment to NaN, which would pass
    the start-fiber comparison; its scalar is refused first."""
    x = a2_rep(1e200, 1e200)
    zeros = np.zeros(2, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for call in (lambda: central_xi(x), lambda: transport_complex(x, zeros, zeros)):
            with pytest.raises(FloatingPointError, match="^complex moment value is not finite$"):
                call()


def test_transport_complex_wall_gate(a2_rep):
    x = a2_rep(1, 1)
    xi0 = central_xi(x)
    wall_xi = (("0", "0"), ("0", "0"))
    with pytest.raises(TransportError):
        transport_complex(
            x, xi0, 2 * xi0, TransportPlan(regular_gate=(wall_xi,))
        )


def test_quaternion_transport_examples(a2_rep, theta11):
    x = a2_rep(1, 0)
    assert norm_sq(quaternion_transport(x, (1, 0, 0, 0), 1.0) - x) == 0.0
    scaled = quaternion_transport(x, (1, 0, 0, 0), 4.0)
    assert scaled.blocks[0][0, 0] == pytest.approx(2.0)
    triple = moment_hyperkahler(scaled)
    assert pairing_norm(triple.mu_I - theta_to_center(theta11(4, -4))) <= 1e-12

    rotated = quaternion_transport(x, (0.5, 0.5, 0.5, 0.5), 1.0)
    triple = moment_hyperkahler(rotated)
    assert pairing_norm(triple.mu_I) <= 1e-12
    assert pairing_norm(triple.mu_J - theta_to_center(theta11(1, -1))) <= 1e-12
    assert pairing_norm(triple.mu_K) <= 1e-12


def test_quaternion_transport_validation(a2_rep):
    with pytest.raises(ValueError):
        quaternion_transport(a2_rep(1, 0), (1, 0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        quaternion_transport(a2_rep(1, 0), (1, 1, 0, 0), 1.0)
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            quaternion_transport(a2_rep(1, 0), (1, 0, 0, 0), t)
    with pytest.raises(ValueError, match="non-finite"):
        quaternion_transport(a2_rep(1, 0), (math.nan, 0, 0, 0), 1.0)


def test_quaternion_transport_matches_prediction():
    rng = np.random.default_rng(74)
    from quivermoment.sampling import random_instance

    for _ in range(10):
        _, _, x = random_instance(rng)
        q = random_unit_quaternion(rng)
        assert selftest.quaternion_transport_defect(x, q, float(rng.uniform(0.2, 4.0))) <= 1e-9


def test_quaternion_commutes_with_scaling_transport(a2_rep, theta11):
    # rescaling parameters then transporting equals transporting then rescaling
    x = a2_rep(1, 0)
    lifted = quaternion_transport(x, (1, 0, 0, 0), 4.0)  # lands on theta=(4,-4)
    direct = transport_real(x, theta11(4, -4))
    assert np.sqrt(norm_sq(lifted - direct.image)) <= 1e-6


def test_subdivision_depth_is_capped():
    """Past about 53 halvings a segment's midpoints round onto its endpoints,
    so a plan deeper than MAX_SUBDIVISION_DEPTH is refused where it is made."""
    from quivermoment.transport import MAX_SUBDIVISION_DEPTH

    assert TransportPlan(max_subdivision_depth=MAX_SUBDIVISION_DEPTH).max_subdivision_depth == MAX_SUBDIVISION_DEPTH
    for depth in (-1, MAX_SUBDIVISION_DEPTH + 1, 5000):
        with pytest.raises(ValueError, match="^max_subdivision_depth must be between 0 and 64$"):
            TransportPlan(max_subdivision_depth=depth)
    for depth in (2.5, 2.0, math.nan):
        with pytest.raises(ValueError, match="^max_subdivision_depth must be an integer$"):
            TransportPlan(max_subdivision_depth=depth)


def test_plan_tolerance_is_positive_and_finite():
    for tolerance in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="^tolerance must be positive and finite$"):
            TransportPlan(tolerance=tolerance)
