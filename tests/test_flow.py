import itertools
import math
import time
import warnings

import numpy as np
import pytest

from quivermoment import (
    FlowOptions,
    Representation,
    StabilityParameter,
    d_theta,
    exp_action,
    flow_integrate,
    grad_h,
    h_value,
    norm_sq,
    solve_moment_equation,
    torus_weights,
)
from quivermoment import cones, flow, selftest
from quivermoment.cones import theta_coordinates
from quivermoment.sampling import random_chamber_theta, random_stable_instance


def test_h_value_examples(a2, a2_rep, theta11):
    x = a2_rep(1, 0)
    assert h_value(theta11(1, -1), x) == pytest.approx(0.0, abs=1e-15)
    assert h_value(theta11(0, 0), x) == pytest.approx(2.0)
    zero = Representation.zero(a2, (1, 1))
    assert h_value(theta11(0, 0), zero) == 0.0


def test_grad_h_vanishes_on_fiber(a2_rep, theta11):
    x = a2_rep(1, 0)
    assert norm_sq(grad_h(theta11(1, -1), x)) <= 1e-20


def test_grad_h_descent_direction(a2_rep, theta11):
    x = a2_rep(1, 0)
    theta = theta11(0, 0)
    g = grad_h(theta, x)
    assert norm_sq(g) > 0
    eps = 1e-4
    assert h_value(theta, x - eps * g) < h_value(theta, x)


def test_grad_h_finite_difference_match():
    assert selftest.worst_over("flow_gradient", np.random.default_rng(41), 100) <= 1e-6


def test_flow_stationary_start(a2_rep, theta11):
    out = flow_integrate(theta11(1, -1), a2_rep(1, 0))
    assert out.classification == "analytically_semistable"
    assert out.h_value <= 1e-18
    assert out.time == 0.0


def test_flow_stable_chamber(a2_rep, theta11):
    out = flow_integrate(theta11(0.5, -0.5), a2_rep(1, 0))
    assert out.classification == "analytically_semistable"
    assert out.h_value <= 1e-18
    # limit scales a onto the fiber |a|^2 = 1/2
    assert abs(out.limit_point.blocks[0][0, 0]) == pytest.approx(np.sqrt(0.5), abs=1e-6)


def test_flow_unstable_chamber(a2_rep, theta11):
    out = flow_integrate(theta11(-1, 1), a2_rep(1, 0))
    assert out.classification == "higher_stratum"
    assert out.h_value == pytest.approx(2.0, abs=1e-9)


def test_flow_monotone():
    rng = np.random.default_rng(42)
    for _ in range(10):
        quiver, dims, x = random_stable_instance(rng)
        theta = random_chamber_theta(rng, dims)
        assert selftest.flow_monotone(flow_integrate(theta, x))


def test_flow_solver_consistency():
    rng = np.random.default_rng(43)
    for _ in range(10):
        quiver, dims, x = random_stable_instance(rng)
        theta = random_chamber_theta(rng, dims)
        out = flow_integrate(theta, x)
        assert out.classification == "analytically_semistable"
        gap = selftest.flow_solver_gap(x, theta, out.limit_point)
        assert gap is not None and gap <= 1e-8


def test_flow_orbit_confinement(a2_rep, theta11):
    # vanishing pattern: a zero slot stays zero along the whole flow
    out = flow_integrate(theta11(0.5, -0.5), a2_rep(1, 0))
    assert abs(out.limit_point.blocks[1][0, 0]) <= 1e-12
    # product invariant of the orbit closure is carried to the limit
    x = a2_rep(1.0, 0.3)
    out = flow_integrate(theta11(0.5, -0.5), x)
    start = x.blocks[0][0, 0] * x.blocks[1][0, 0]
    end = out.limit_point.blocks[0][0, 0] * out.limit_point.blocks[1][0, 0]
    assert abs(start - end) <= 1e-8


def test_grad_norm_iff_on_fiber():
    rng = np.random.default_rng(44)
    for _ in range(10):
        quiver, dims, x0 = random_stable_instance(rng)
        theta = random_chamber_theta(rng, dims)
        seat = solve_moment_equation(x0, theta)
        assert seat.converged
        x = exp_action(seat.y, 1.0, "I", x0)
        assert h_value(theta, x) <= 1e-18
        assert np.sqrt(norm_sq(grad_h(theta, x))) <= 1e-8
        away = 1.7 * x
        assert h_value(theta, away) > 1e-18
        assert np.sqrt(norm_sq(grad_h(theta, away))) > 1e-10


def test_stratum_distance_bound_examples(a2, a2_rep, theta11):
    # h(x) < d_theta certifies that the flow from x reaches the zero level
    theta = theta11(1, -1)
    radius = d_theta(torus_weights(a2, (1, 1)), theta_coordinates(theta.values, (1, 1)))
    assert h_value(theta, a2_rep(1, 0)) < radius
    # h = 2(|a|^2 - 1)^2 = 10 at |a|^2 = 1 + sqrt(5), beyond d_theta = 2
    far = a2_rep(np.sqrt(1 + np.sqrt(5.0)), 0)
    assert h_value(theta, far) == pytest.approx(10.0)
    assert not h_value(theta, far) < radius


def test_certified_radius_refuses_a_capped_weight_set_before_building_it(a2, monkeypatch):
    """On A2 with dims (300, 300) the 180,000 distinct weights are over the
    cap, which is read from their slot keys: no weight set is built."""

    def no_weight_set(*args, **kwargs):
        raise AssertionError("a weight set was built")

    monkeypatch.setattr(cones, "WeightSet", no_weight_set)
    x = Representation.zero(a2, (300, 300))
    start = time.perf_counter()
    assert flow._certified_radius(StabilityParameter((1.0, -1.0), (300, 300)), x) is None
    assert time.perf_counter() - start < 1.0


def test_flow_options_validation():
    with pytest.raises(ValueError):
        FlowOptions(initial_step=0.0)
    with pytest.raises(ValueError):
        FlowOptions(max_time=-1.0)
    for bad in ({"initial_step": math.nan}, {"max_time": math.inf}, {"stall_tolerance": -math.inf}):
        with pytest.raises(ValueError, match="finite"):
            FlowOptions(**bad)


def test_flow_trajectory_columns(a2_rep, theta11):
    out = flow_integrate(theta11(0.5, -0.5), a2_rep(1, 0))
    for t, h, g in out.trajectory_summary:
        assert t >= 0 and h >= 0 and g >= 0


def test_flow_step_makes_one_trial_call(monkeypatch):
    """The steps dt, dt/2, dt/4, dt/8 run as one trial stack, so almost every
    outer step of a thin flow needs a single trial evaluation; a thin flow
    evaluates its trials on the torus step."""
    points = []
    original = flow._TorusStep.trials

    def counting(step, steps):
        points.append(step.b)  # kept alive, so each point keeps its own id
        return original(step, steps)

    monkeypatch.setattr(flow._TorusStep, "trials", counting)
    rng = np.random.default_rng(3)
    _, dims, x = random_stable_instance(rng)
    out = flow_integrate(random_chamber_theta(rng, dims), x)
    # the calls of one outer step all try steps from the same current point
    per_step = [len(list(calls)) for _, calls in itertools.groupby(map(id, points))]
    assert out.stop_reason == "reached" and len(per_step) > 50
    assert sum(n == 1 for n in per_step) >= 0.99 * len(per_step)


def test_overflowing_start_point_ends_as_before_without_warnings():
    """A start point whose squared norm overflows ends as it did, with an
    infinite or NaN h, and prints no RuntimeWarning: its defect, h and
    gradient norm are computed under the errstate the steps use."""
    rng = np.random.default_rng(5)
    _, dims, x = random_stable_instance(rng)
    theta = random_chamber_theta(rng, dims)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = flow_integrate(theta, 1e100 * x)
        assert repr(out) == (
            "FlowOutcome(limit_point=Representation(vertices=4, dims=(1, 1, 1, 1), norm_sq=1.85323e+201), "
            "h_value=inf, classification='undecided', trajectory_summary=[(0.0, inf, inf), (0.0, inf, inf)], "
            "time=0.0, grad_norm=inf, events=('step_underflow',), stop_reason='step_underflow')"
        )
        out = flow_integrate(theta, 1e160 * x)
    # the limit point's own repr would overflow its norm, so it is left out
    fields = ("h_value", "classification", "trajectory_summary", "time", "grad_norm", "events", "stop_reason")
    assert [repr(getattr(out, f)) for f in fields] == [
        "nan", "'undecided'", "[(0.0, nan, nan), (0.0, nan, nan)]", "0.0", "nan", "('step_underflow',)",
        "'step_underflow'",
    ]
