import math

import numpy as np
import pytest

from quivermoment import (
    GroupElement,
    LieAlgebraElement,
    Quiver,
    Representation,
    SolveOptions,
    act,
    exp_action,
    extend,
    moment_real,
    norm_sq,
    pairing_norm,
    solve_moment_equation,
    theta_to_center,
)
from quivermoment import selftest
from quivermoment.lie import center_to_theta
from quivermoment.moment import moment_residual
from quivermoment.sampling import (
    random_chamber_theta,
    random_representation,
    random_stable_instance,
    random_theta,
    random_unitary,
    random_uv_element,
)

LN4_OVER_4 = np.log(4.0) / 4.0


def y11(a, b):
    return LieAlgebraElement([np.array([[1j * a]]), np.array([[1j * b]])])


def test_value_examples(a2_rep, theta11):
    x = a2_rep(0.4, -1.2)
    theta = theta11(1, -1)
    ident = GroupElement.identity((1, 1))
    assert selftest.kempf_ness_value(theta, x, ident) == pytest.approx(norm_sq(x))
    y = 0.3
    g = GroupElement([np.array([[np.exp(-y)]], dtype=complex), np.array([[np.exp(y)]], dtype=complex)])
    x10 = a2_rep(1, 0)
    assert selftest.kempf_ness_value(theta, x10, g) == pytest.approx(np.exp(4 * y) - 4 * y)


def test_value_left_invariance(a2_rep, theta11):
    rng = np.random.default_rng(31)
    x = a2_rep(0.9, 0.2)
    theta = theta11(2, -2)
    g = GroupElement.exp_i(y11(0.7, -0.7))
    u = random_unitary(rng, (1, 1))
    assert selftest.kempf_ness_value(theta, x, u.compose(g)) == pytest.approx(
        selftest.kempf_ness_value(theta, x, g), rel=1e-10
    )


def test_value_cocycle_property(a2_rep, theta11):
    rng = np.random.default_rng(32)
    from quivermoment.lie import character_log_modulus

    theta = theta11(1.5, -1.5)
    for _ in range(10):
        x = a2_rep(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
        v, w = rng.normal() * 0.4, rng.normal() * 0.4
        g = GroupElement.exp_i(y11(v, -v))
        gp = GroupElement.exp_i(y11(w, -w))
        lhs = selftest.kempf_ness_value(theta, act(g, x), gp)
        rhs = selftest.kempf_ness_value(theta, x, gp.compose(g)) + character_log_modulus(theta, g)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_geodesic_profile_examples(a2_rep, theta11):
    x = a2_rep(1, 0)
    theta = theta11(1, -1)
    zero = LieAlgebraElement.zero((1, 1))
    flat = selftest.geodesic_profile(theta, x, zero, [-1.0, 0.0, 2.0])
    assert max(flat) - min(flat) <= 1e-14
    ts = np.linspace(-1, 1, 9)
    prof = selftest.geodesic_profile(theta, x, y11(1, -1), ts)
    assert np.allclose(prof, np.exp(4 * ts) - 4 * ts, rtol=1e-12)


def test_geodesic_profile_convexity():
    rng = np.random.default_rng(33)
    for _ in range(10):
        quiver, dims, x = random_stable_instance(rng)
        theta = random_chamber_theta(rng, dims)
        z = random_uv_element(rng, dims)
        ts = np.linspace(-2, 2, 101)
        prof = np.array(selftest.geodesic_profile(theta, x, z, ts))
        second = np.diff(prof, 2)
        assert np.all(second >= -1e-8 * max(1.0, np.abs(prof).max()))


def test_minimum_is_identity_check(a2_rep, theta11, a2):
    # the functional is minimal at the identity exactly when mu(x) hits theta
    x = a2_rep(1, 0)
    assert moment_residual(x, theta11(1, -1)) <= 1e-10
    assert not moment_residual(x, theta11(0, 0)) <= 1e-10
    zero = Representation.zero(a2, (1, 1))
    assert moment_residual(zero, theta11(0, 0)) <= 1e-10


def test_solver_fixed_point(a2_rep, theta11):
    out = solve_moment_equation(a2_rep(1, 0), theta11(1, -1))
    assert out.converged
    assert pairing_norm(out.y) <= 1e-10
    assert out.residual <= 1e-10


def test_solver_closed_form(a2_rep, theta11):
    out = solve_moment_equation(a2_rep(1, 0), theta11(4, -4))
    assert out.converged
    assert out.y.blocks[0][0, 0].imag == pytest.approx(LN4_OVER_4, abs=1e-8)
    assert out.y.blocks[1][0, 0].imag == pytest.approx(-LN4_OVER_4, abs=1e-8)


def test_solver_divergence(a2_rep, theta11):
    out = solve_moment_equation(a2_rep(1, 0), theta11(-1, 1))
    assert out.status == "diverged"
    assert out.divergence_direction is not None
    assert pairing_norm(out.divergence_direction) == pytest.approx(1.0)
    # the escape direction is the positive multiple of the target's center
    d = out.divergence_direction
    t = theta_to_center(theta11(-1, 1))
    from quivermoment import pairing

    assert pairing(d, t) > 0


def test_solver_monotone_descent(a2_rep, theta11):
    for theta in (theta11(4, -4), theta11(-1, 1)):
        out = solve_moment_equation(a2_rep(1, 0), theta)
        tr = out.objective_trace
        assert all(
            tr[i + 1] <= tr[i] + 1e-12 * (1 + abs(tr[i])) for i in range(len(tr) - 1)
        )


def test_solver_residual_recompute():
    rng = np.random.default_rng(34)
    for _ in range(10):
        quiver, dims, x = random_stable_instance(rng)
        theta = random_chamber_theta(rng, dims)
        out, gap, monotone = selftest.solver_fixed_point(x, theta)
        assert out.converged
        assert gap <= 1e-12
        assert monotone


def test_solver_uniqueness_restarts():
    rng = np.random.default_rng(35)
    quiver, dims, x = random_stable_instance(rng)
    theta = random_chamber_theta(rng, dims)
    failure, spread = selftest.restart_spread(x, theta, (random_uv_element(rng, dims) for _ in range(10)))
    assert failure is None
    assert spread <= 1e-7


def test_solver_equivariance():
    rng = np.random.default_rng(36)
    for _ in range(5):
        quiver, dims, x = random_stable_instance(rng)
        theta = random_chamber_theta(rng, dims)
        base = solve_moment_equation(x, theta)
        assert base.converged
        moved, defect = selftest.solution_equivariance_defect(x, theta, base.y, random_unitary(rng, dims))
        assert moved.converged
        assert defect <= 1e-7


def test_solver_inverse_relation():
    rng = np.random.default_rng(37)
    for _ in range(5):
        quiver, dims, x0 = random_stable_instance(rng)
        theta0 = random_chamber_theta(rng, dims)
        seat = solve_moment_equation(x0, theta0)
        assert seat.converged
        x = exp_action(seat.y, 1.0, "I", x0)
        theta1 = random_chamber_theta(rng, dims)
        forward = solve_moment_equation(x, theta1)
        assert forward.converged
        back, defect = selftest.solution_inverse_defect(x, forward.y, center_to_theta(moment_real(x, "I")))
        assert back.converged
        assert defect <= 1e-7


def test_solver_structures_j_and_k():
    rng = np.random.default_rng(38)
    for structure in ("J", "K"):
        quiver, dims, x = random_stable_instance(rng)
        theta = random_chamber_theta(rng, dims, scale=0.5)
        out = solve_moment_equation(x, theta, structure)
        assert out.converged
        image = exp_action(out.y, 1.0, structure, x)
        assert pairing_norm(
            moment_real(image, structure) - theta_to_center(theta)
        ) <= 1e-9


def test_solver_zero_rep_diverges(a2, theta11):
    zero = Representation.zero(a2, (1, 1))
    out = solve_moment_equation(zero, theta11(2, -2))
    assert out.status == "diverged"


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(max_iterations=0)
    for bad in (1.5, 2.0, math.nan):
        with pytest.raises(ValueError, match="^max_iterations must be an integer$"):
            SolveOptions(max_iterations=bad)
    assert SolveOptions(max_iterations=np.int64(3)).max_iterations == 3
    with pytest.raises(ValueError):
        SolveOptions(step_control="newton-exact")
    for bad in ({"gradient_tolerance": math.nan}, {"divergence_norm_bound": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            SolveOptions(**bad)


def test_gradient_descent_mode(a2_rep, theta11):
    out = solve_moment_equation(
        a2_rep(1, 0),
        theta11(4, -4),
        opts=SolveOptions(step_control="gradient-descent-armijo", max_iterations=2000),
    )
    assert out.converged
    assert out.y.blocks[0][0, 0].imag == pytest.approx(LN4_OVER_4, abs=1e-8)


def test_escaping_solve_makes_one_trial_call_per_iteration(monkeypatch):
    """On a disconnected instance, whose orbit escapes and whose iterations
    reject step 1, only the first iteration tries step 1 alone; every other
    iteration runs one trial stack that starts at step 1.  Both stackings
    try 1, 1/2, ... in the same order, so the accepted step is the same."""
    import quivermoment.kempf_ness as kempf_ness

    steps = [0.5 ** k for k in range(kempf_ness.MAX_BACKTRACKS)]
    assert sum(kempf_ness.STEP_ONE_FIRST, []) == steps == sum(kempf_ness.STEP_STACKS, [])

    calls = []
    original = kempf_ness.trial_stacks

    def counting(layout, eig, ts, stacks):
        calls.append(list(ts))
        return original(layout, eig, ts, stacks)

    monkeypatch.setattr(kempf_ness, "trial_stacks", counting)
    rng = np.random.default_rng(0)
    dims = (1, 2, 2, 1)
    x = random_representation(rng, extend(Quiver(4, [(0, 1), (2, 3)])), dims)
    out = solve_moment_equation(x, random_theta(rng, dims), opts=SolveOptions(max_iterations=50))
    assert out.status == "max_iterations" and out.iterations == 50
    assert calls[0] == [1.0]
    assert all(ts[0] == 1.0 and len(ts) == kempf_ness.TRIAL_STACK for ts in calls[2:])
    assert len(calls) == out.iterations + 1


@pytest.mark.parametrize("structure", ["I", "J", "K"])
def test_thin_solve_runs_on_the_torus_kernels(monkeypatch, structure):
    """A solve on a thin point (every dimension 1) runs every iteration on
    the torus kernels: with the stack kernels that move the point patched to
    fail it still converges, as it does with them.  The (1, 2, 2, 1) solve of
    the test above still makes its trial calls."""
    import quivermoment.kempf_ness as kempf_ness

    rng = np.random.default_rng(11)
    _, dims, x = random_stable_instance(rng)
    theta = random_chamber_theta(rng, dims)
    expected = solve_moment_equation(x, theta, structure)

    def no_stack_kernel(*args):
        raise AssertionError("a thin solve reached a stack kernel")

    for name in ("trial_stacks", "act_stacks", "polar_log_stacks", "exp_i_stacks"):
        monkeypatch.setattr(kempf_ness, name, no_stack_kernel)
    out = solve_moment_equation(x, theta, structure)
    assert out.converged and out.iterations > 1
    assert repr(out) == repr(expected) and out.y.stacks[0].tobytes() == expected.y.stacks[0].tobytes()


def _count_tangent_matrices(monkeypatch):
    from quivermoment.lie import UvBasis

    calls = []
    original = UvBasis.tangent_matrix

    def counting(self, layout, stacks):
        calls.append(1)
        return original(self, layout, stacks)

    monkeypatch.setattr(UvBasis, "tangent_matrix", counting)
    return calls


@pytest.mark.parametrize(
    "edges, dims",
    [
        ([(0, 1), (2, 3)], (1, 2, 2, 1)),  # a disconnected quiver
        ([(0, 1), (1, 2), (2, 3)], (2, 1, 0, 1)),  # connected, cut by a zero-dimension vertex
        ([(0, 1), (1, 0), (1, 1)], (1, 2, 1, 0)),  # vertex 2 is isolated with d > 0
    ],
)
def test_split_support_solve_builds_no_hessian(monkeypatch, edges, dims):
    """When the positive-dimension vertices fall into two or more components,
    the Hessian is singular everywhere, so the solver takes the gradient
    without building the tangent matrix."""
    calls = _count_tangent_matrices(monkeypatch)
    rng = np.random.default_rng(3)
    x = random_representation(rng, extend(Quiver(len(dims), edges)), dims)
    out = solve_moment_equation(x, random_theta(rng, dims), opts=SolveOptions(max_iterations=20))
    assert out.iterations > 0
    assert calls == []


def test_connected_support_solve_builds_one_hessian_per_iteration(monkeypatch):
    """A zero-dimension vertex that cuts nothing leaves the support connected:
    the Newton check runs once per iteration, and never in the
    gradient-descent mode."""
    calls = _count_tangent_matrices(monkeypatch)
    rng = np.random.default_rng(5)
    dims = (2, 1, 1, 0)
    x = random_representation(rng, extend(Quiver(4, [(0, 1), (1, 2), (2, 0), (0, 3)])), dims)
    theta = random_theta(rng, dims)
    out = solve_moment_equation(x, theta, opts=SolveOptions(max_iterations=20))
    assert out.iterations > 0
    assert len(calls) == out.iterations
    calls.clear()
    gd = SolveOptions(step_control="gradient-descent-armijo", max_iterations=20)
    assert solve_moment_equation(x, theta, opts=gd).iterations > 0
    assert calls == []


def test_split_support_counts_components():
    """The layout counts the components of the positive-dimension support;
    the solver treats two or more as a split support."""
    from quivermoment.layout import edge_layout

    def components(quiver, dims):
        return edge_layout(quiver, dims).support_components

    path = extend(Quiver(3, [(0, 1), (1, 2)]))
    assert components(path, (1, 1, 1)) == 1
    assert components(path, (1, 0, 1)) == 2  # the zero-dimension middle vertex cuts
    assert components(path, (0, 2, 1)) == 1  # a zero-dimension end cuts nothing
    assert components(path, (0, 0, 1)) == 1
    assert components(path, (0, 0, 0)) == 0
    assert components(extend(Quiver(3, [(0, 1)])), (1, 1, 2)) == 2  # an isolated vertex with d > 0
    assert components(extend(Quiver(3, [(0, 1)])), (1, 1, 0)) == 1
    assert components(extend(Quiver(0, [])), ()) == 0
    assert components(extend(Quiver(4, [(0, 1), (2, 3)])), (1, 1, 1, 1)) == 2  # disconnected thin quiver


@pytest.mark.parametrize("scale", [0.0, 1.0])
def test_initial_y_with_wrong_dims_raises_before_iterating(monkeypatch, a2_rep, theta11, scale):
    """A zero or nonzero initial Y of another dimension vector is refused at
    entry, with one message, before any iteration computes a defect."""
    import quivermoment.kempf_ness as kempf_ness

    def no_iteration(*args, **kwargs):
        raise AssertionError("an iteration ran")

    monkeypatch.setattr(kempf_ness, "defect_stacks", no_iteration)
    wrong = scale * random_uv_element(np.random.default_rng(0), (1, 2))
    with pytest.raises(ValueError, match="^initial_y has a different dimension vector than the representation$"):
        solve_moment_equation(a2_rep(1, 0), theta11(1, -1), opts=SolveOptions(initial_y=wrong))
