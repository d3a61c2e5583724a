import math
import re
import warnings

import numpy as np
import pytest

from quivermoment import (
    GroupElement,
    LieAlgebraElement,
    Representation,
    StabilityParameter,
    VertexMatrices,
    act,
    apply_structure,
    character_log_modulus,
    exp_action,
    infinitesimal_action,
    norm_sq,
    pairing,
    pairing_norm,
    polar_decompose,
    stabilizer_lie_dim,
    theta_to_center,
)
from quivermoment import selftest
from quivermoment.lie import center_to_theta, uv_basis
from quivermoment.sampling import (
    random_instance,
    random_theta,
    random_unitary,
    random_uv_element,
)


def y11(a, b):
    return LieAlgebraElement([np.array([[1j * a]]), np.array([[1j * b]])])


def g11(a, b):
    return GroupElement([np.array([[a]], dtype=complex), np.array([[b]], dtype=complex)])


def test_lie_algebra_validation():
    with pytest.raises(ValueError):
        LieAlgebraElement([np.array([[1.0]]), np.array([[-1.0]])])  # not skew
    with pytest.raises(ValueError):
        LieAlgebraElement([np.array([[1j]]), np.array([[1j]])])  # trace sum
    y = y11(1, -1)
    assert y.dims == (1, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0)])
def test_element_scaling_refuses_a_non_finite_scalar(bad):
    """Scaling a vertex element by NaN or an infinity is refused at the
    product, naming the scalar, from either side."""
    message = re.escape(f"scalar {bad!r} is not finite")
    m = VertexMatrices([np.array([[1.0 + 2j]]), np.array([[3.0]])])
    with pytest.raises(ValueError, match=message):
        m * bad
    with pytest.raises(ValueError, match=message):
        bad * m
    assert (2.0 * m).blocks[1][0, 0] == 6.0


@pytest.mark.parametrize("bad", [math.nan, -math.inf, complex(0.0, math.nan)])
def test_algebra_scaling_refuses_a_non_finite_scalar(bad):
    """Scaling a Lie algebra element by NaN or an infinity is refused at the
    product, naming the scalar, before the result's class is chosen."""
    message = re.escape(f"scalar {bad!r} is not finite")
    y = y11(1, -1)
    with pytest.raises(ValueError, match=message):
        y * bad
    with pytest.raises(ValueError, match=message):
        bad * y
    assert isinstance(2.0 * y, LieAlgebraElement) and not isinstance(2j * y, LieAlgebraElement)


def test_element_arithmetic_refuses_an_overflowing_result():
    """A sum, a difference or a product of finite vertex elements or
    algebra elements whose result overflows raises a FloatingPointError
    that says so, with no numpy warning first; results in range are
    unchanged."""
    m = VertexMatrices([np.array([[1e308 + 1j]]), np.array([[3.0]])])
    y = y11(1e308, -1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (m, y):
            for overflowing in (lambda: u + u, lambda: u - (-1.0 * u), lambda: 1e300 * u, lambda: u * 2j):
                with pytest.raises(FloatingPointError, match="^arithmetic on points or elements overflowed$"):
                    overflowing()
        assert (0.5 * y + 0.5 * y).blocks[0][0, 0] == 1e308j and isinstance(y - y, LieAlgebraElement)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_theta_scaling_refuses_a_non_finite_scalar(theta11, bad):
    """Scaling a stability parameter by NaN or an infinity is refused with a
    message that names the scalar, not only the resulting theta."""
    message = re.escape(f"scalar {bad!r} is not finite")
    with pytest.raises(ValueError, match=message):
        theta11(1, -1) * bad
    with pytest.raises(ValueError, match=message):
        bad * theta11(1, -1)
    assert (2.0 * theta11(1, -1)).values == (2.0, -2.0)


def test_theta_to_center_examples(theta11):
    zero = theta_to_center(theta11(0, 0))
    assert pairing_norm(zero) == 0.0
    t = theta_to_center(theta11(1, -1))
    assert t.blocks[0][0, 0] == pytest.approx(1j)
    assert t.blocks[1][0, 0] == pytest.approx(-1j)
    twice = theta_to_center(theta11(2, -2))
    assert pairing_norm(twice - 2.0 * t) == pytest.approx(0.0, abs=1e-15)


def test_theta_constraint_enforced():
    with pytest.raises(ValueError):
        StabilityParameter((1.0, 1.0), (1, 1))
    StabilityParameter((1.0, -2.0), (2, 1))  # balanced for dims (2, 1)
    for bad in ((float("nan"), 0.0), (float("inf"), float("-inf")), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            StabilityParameter(bad, (1, 1))


def test_theta_takes_only_nonnegative_integer_dims():
    """(1, -1) balances (1.0, 1.0) and (1.5, 1) would truncate to (1, 1); both
    are refused, while numpy integers are read as ints."""
    for values, dims in (((1.0, 1.0), (1, -1)), ((1.0, -1.0), (1.5, 1)), ((1.0, -1.0), (1.0, 1))):
        with pytest.raises(ValueError, match="nonnegative integers"):
            StabilityParameter(values, dims)
    theta = StabilityParameter((1.0, -1.0), np.array([1, 1]))
    assert theta.dims == (1, 1) and all(type(d) is int for d in theta.dims)


def test_random_unitary_with_zero_dimensional_vertices():
    rng = np.random.default_rng(6)
    for dims in ((0, 2, 1), (0, 0, 3), (0,), (2, 0)):
        u = random_unitary(rng, dims)
        assert u.dims == dims
        assert u.is_unitary()
        assert abs(u.det_product() - 1.0) <= 1e-12


def test_center_to_theta_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(10):
        _, dims, _ = random_instance(rng)
        theta = random_theta(rng, dims)
        back = center_to_theta(theta_to_center(theta))
        assert np.allclose(back.values, theta.values, atol=1e-13)


def test_pairing_examples(theta11):
    y = y11(1, -1)
    assert pairing(y, y) == pytest.approx(2.0)
    zero = LieAlgebraElement.zero((1, 1))
    assert pairing(y, zero) == 0.0


def test_pairing_ad_invariance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        _, dims, _ = random_instance(rng)
        y = random_uv_element(rng, dims)
        z = random_uv_element(rng, dims)
        gap, reference = selftest.ad_invariance_gap(y, z, random_unitary(rng, dims))
        assert gap <= 1e-12 * max(1.0, abs(reference))


def test_pairing_positive_definite():
    rng = np.random.default_rng(2)
    for _ in range(10):
        _, dims, _ = random_instance(rng)
        if uv_basis(dims).dim == 0:
            continue
        assert selftest.pairing_is_positive(random_uv_element(rng, dims))


def test_character_log_modulus_examples(theta11):
    theta = theta11(1, -1)
    u = GroupElement([np.array([[np.exp(1j * 0.4)]]), np.array([[np.exp(-1j * 0.4)]])])
    assert character_log_modulus(theta, u) == pytest.approx(0.0, abs=1e-12)
    y = 0.8
    g = g11(np.exp(-y), np.exp(y))
    assert character_log_modulus(theta, g) == pytest.approx(4 * y)


def test_character_log_modulus_matches_pairing():
    rng = np.random.default_rng(3)
    for _ in range(20):
        _, dims, _ = random_instance(rng)
        theta = random_theta(rng, dims)
        y = random_uv_element(rng, dims)
        gap, rhs = selftest.character_pairing_gap(theta, y, float(rng.uniform(-2, 2)))
        assert gap <= 1e-10 * max(1.0, abs(rhs))


def test_act_examples(a2_rep):
    x = a2_rep(0.7, -0.3)
    ident = GroupElement.identity((1, 1))
    assert norm_sq(act(ident, x) - x) == 0.0
    y = 0.35
    g = g11(np.exp(-y), np.exp(y))
    gx = act(g, x)
    assert gx.blocks[0][0, 0] == pytest.approx(np.exp(2 * y) * 0.7)
    assert gx.blocks[1][0, 0] == pytest.approx(np.exp(-2 * y) * (-0.3))


def test_act_left_action_property():
    assert selftest.worst_over("left_action", np.random.default_rng(4), 10) <= 1e-11


def test_unitary_action_same_in_all_structures():
    rng = np.random.default_rng(5)
    for _ in range(10):
        quiver, dims, x = random_instance(rng)
        u = random_unitary(rng, dims)
        base = act(u, x, "I")
        for s in ("J", "K"):
            assert np.sqrt(norm_sq(act(u, x, s) - base)) <= 1e-12 * (
                1 + np.sqrt(norm_sq(x))
            )


def test_exp_action_examples(a2_rep):
    x = a2_rep(1, 0)
    y = y11(1, -1)
    assert norm_sq(exp_action(y, 0.0, "I", x) - x) == 0.0
    t = 0.6
    moved = exp_action(y, t, "I", x)
    expected = act(g11(np.exp(-t), np.exp(t)), x)
    assert np.sqrt(norm_sq(moved - expected)) <= 1e-12


def test_exp_action_group_law():
    rng = np.random.default_rng(6)
    for _ in range(8):
        quiver, dims, x = random_instance(rng)
        y = random_uv_element(rng, dims, 0.5)
        s, t = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        assert selftest.exp_group_law_defect(x, y, s, t) <= 1e-11


def test_infinitesimal_action_examples(a2_rep):
    x = a2_rep(1, 0)
    zero = infinitesimal_action(LieAlgebraElement.zero((1, 1)), x)
    assert norm_sq(zero) == 0.0
    tangent = infinitesimal_action(y11(1, -1), x)
    assert tangent.blocks[0][0, 0] == pytest.approx(-2j)
    assert tangent.blocks[1][0, 0] == pytest.approx(0.0)


def test_infinitesimal_action_matches_flow_derivative():
    rng = np.random.default_rng(7)
    for _ in range(10):
        quiver, dims, x = random_instance(rng)
        assert selftest.flow_derivative_defect(x, random_uv_element(rng, dims)) <= 1e-8


def test_stabilizer_dim_examples(a2, jordan, a2_rep):
    assert stabilizer_lie_dim(Representation.zero(a2, (1, 1))) == 1
    assert stabilizer_lie_dim(a2_rep(1, 0)) == 0
    assert stabilizer_lie_dim(Representation.zero(jordan, (2,))) == 3


def test_stabilizer_dim_conjugation_invariant():
    rng = np.random.default_rng(8)
    for _ in range(8):
        quiver, dims, x = random_instance(rng, max_dim=3)
        g = GroupElement.exp_i(random_uv_element(rng, dims, 0.4)).compose(
            random_unitary(rng, dims)
        )
        assert selftest.stabilizer_conjugation_holds(x, g)


def test_polar_decompose_examples():
    rng = np.random.default_rng(9)
    _, dims, _ = random_instance(rng)
    u = random_unitary(rng, dims)
    h, y = polar_decompose(u)
    assert pairing_norm(y) <= 1e-12
    assert all(np.allclose(a, b) for a, b in zip(h.blocks, u.blocks))

    y0 = random_uv_element(rng, dims, 0.7)
    g = GroupElement.exp_i(y0)
    h, y = polar_decompose(g)
    assert h.is_unitary(1e-10)
    assert pairing_norm(y - y0) <= 1e-10 * (1 + pairing_norm(y0))


def test_polar_decompose_reconstruction():
    rng = np.random.default_rng(10)
    for _ in range(10):
        _, dims, _ = random_instance(rng)
        g = random_unitary(rng, dims).compose(
            GroupElement.exp_i(random_uv_element(rng, dims, 0.8))
        )
        err, unitary = selftest.polar_reconstruction(g)
        assert err <= 1e-10 * (1 + max(float(np.abs(b).max(initial=0)) for b in g.blocks))
        assert unitary


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement([np.array([[2.0]]), np.array([[1.0]])])  # det product 2


def test_infinitesimal_action_accepts_relaxed_elements(a2_rep):
    # a general block-algebra element: i times a compact one
    from quivermoment import VertexMatrices, apply_structure

    x = a2_rep(0.4, -0.9)
    y = y11(1, -1)
    relaxed = 1j * y
    assert isinstance(relaxed, VertexMatrices)
    lhs = infinitesimal_action(relaxed, x)
    rhs = apply_structure("I", infinitesimal_action(y, x))
    assert np.sqrt(norm_sq(lhs - rhs)) <= 1e-14
