import numpy as np
import pytest

from quivermoment import (
    LieAlgebraElement,
    Quiver,
    Representation,
    act,
    extend,
    hyperkahler_rotation,
    moment_complex,
    moment_hyperkahler,
    moment_pairing_fd_oracle,
    moment_real,
    norm_sq,
    pairing,
    pairing_norm,
    quaternion_act,
    theta_to_center,
)
from quivermoment.moment import (
    MU_C_FROM_JK,
    complex_vs_real_identity,
    quaternion_conjugate_triple,
)
from quivermoment.sampling import (
    random_instance,
    random_representation,
    random_unitary,
    random_uv_element,
)

STRUCTURES = ("I", "J", "K")


def test_moment_zero(a2):
    zero = Representation.zero(a2, (1, 1))
    for s in STRUCTURES:
        assert pairing_norm(moment_real(zero, s)) == 0.0


def test_moment_a2_example(a2_rep, theta11):
    x = a2_rep(1, 0)
    mu = moment_real(x, "I")
    assert pairing_norm(mu - theta_to_center(theta11(1, -1))) <= 1e-14
    assert pairing_norm(moment_real(x, "J")) <= 1e-14
    assert pairing_norm(moment_real(x, "K")) <= 1e-14


def test_moment_jordan_example(jordan):
    x = Representation(
        jordan, (2,), [np.array([[0, 1], [0, 0]]), np.zeros((2, 2))]
    )
    mu = moment_real(x, "I")
    expected = -1j * (np.diag([1.0, 0.0]) - np.diag([0.0, 1.0]))
    assert np.allclose(mu.blocks[0], expected)


def test_fd_oracle_examples(a2_rep):
    x = a2_rep(1, 0)
    y = LieAlgebraElement([np.array([[1j]]), np.array([[-1j]])])
    zero = LieAlgebraElement.zero((1, 1))
    assert moment_pairing_fd_oracle(x, zero, "I") == pytest.approx(0.0, abs=1e-12)
    assert moment_pairing_fd_oracle(x, y, "I", h=1e-4) == pytest.approx(2.0, abs=1e-7)


def test_fd_oracle_agreement_random():
    rng = np.random.default_rng(21)
    for _ in range(100):
        quiver, dims, x = random_instance(rng)
        y = random_uv_element(rng, dims)
        s = STRUCTURES[int(rng.integers(3))]
        lhs = pairing(moment_real(x, s), y)
        rhs = moment_pairing_fd_oracle(x, y, s)
        scale = 1 + norm_sq(x) * np.sqrt(pairing(y, y))
        assert abs(lhs - rhs) <= 1e-6 * scale


def test_moment_in_compact_algebra():
    rng = np.random.default_rng(22)
    for _ in range(10):
        _, _, x = random_instance(rng)
        for s in STRUCTURES:
            mu = moment_real(x, s)
            for b in mu.blocks:
                assert np.abs(b + b.conj().T).max(initial=0) <= 1e-10 * (1 + norm_sq(x))
            assert abs(mu.trace_sum()) <= 1e-10 * (1 + norm_sq(x))


def test_moment_complex_examples(a2, jordan, a2_rep):
    zero = Representation.zero(a2, (1, 1))
    assert all(np.all(b == 0) for b in moment_complex(zero).blocks)
    x = Representation(
        jordan, (2,), [np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]])]
    )
    assert np.allclose(moment_complex(x).blocks[0], np.diag([1.0, -1.0]))
    ab = a2_rep(0.7 + 0.1j, -0.4 + 0.9j)
    mc = moment_complex(ab)
    a, b = ab.blocks[0][0, 0], ab.blocks[1][0, 0]
    assert mc.blocks[0][0, 0] == pytest.approx(-b * a)
    assert mc.blocks[1][0, 0] == pytest.approx(a * b)


def test_moment_complex_trace_and_equivariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        quiver, dims, x = random_instance(rng)
        mc = moment_complex(x)
        assert abs(mc.trace_sum()) <= 1e-10 * (1 + norm_sq(x))
        u = random_unitary(rng, dims)
        lhs = moment_complex(act(u, x))
        rhs = [ub @ b @ np.linalg.inv(ub) for ub, b in zip(u.blocks, mc.blocks)]
        worst = max(
            float(np.abs(a - b).max(initial=0)) for a, b in zip(lhs.blocks, rhs)
        )
        assert worst <= 1e-10 * (1 + norm_sq(x))


def test_moment_equivariance_unitary():
    rng = np.random.default_rng(24)
    for _ in range(15):
        quiver, dims, x = random_instance(rng)
        u = random_unitary(rng, dims)
        mu = moment_real(x, "I")
        lhs = moment_real(act(u, x), "I")
        rhs = LieAlgebraElement.project(
            [ub @ b @ ub.conj().T for ub, b in zip(u.blocks, mu.blocks)]
        )
        assert pairing_norm(lhs - rhs) <= 1e-10 * (1 + pairing_norm(mu))


def test_hyperkahler_triple_examples(a2_rep, theta11):
    x = a2_rep(1, 0)
    triple = moment_hyperkahler(x)
    assert pairing_norm(triple.mu_I - theta_to_center(theta11(1, -1))) <= 1e-14
    assert pairing_norm(triple.mu_J) <= 1e-14
    assert pairing_norm(triple.mu_K) <= 1e-14
    doubled = moment_hyperkahler(2.0 * x)
    assert (doubled - triple.scale(4.0)).norm() <= 1e-14


def test_homogeneity_random():
    rng = np.random.default_rng(25)
    for _ in range(10):
        _, _, x = random_instance(rng)
        base = moment_hyperkahler(x)
        for t in (0.5, 2.0, 3.0):
            assert (moment_hyperkahler(t * x) - base.scale(t * t)).norm() <= 1e-12 * (
                1 + base.norm()
            )


def test_rotation_intertwining():
    rng = np.random.default_rng(26)
    mapping = {"I": "K", "J": "I", "K": "J"}
    for _ in range(15):
        _, _, x = random_instance(rng)
        rot = hyperkahler_rotation(x)
        for s, s_from in mapping.items():
            gap = pairing_norm(moment_real(rot, s) - moment_real(x, s_from))
            assert gap <= 1e-10 * (1 + norm_sq(x))


def test_quaternion_equivariance():
    rng = np.random.default_rng(27)
    for _ in range(20):
        _, _, x = random_instance(rng)
        q = rng.normal(size=4)
        q = tuple(q / np.linalg.norm(q))
        lhs = moment_hyperkahler(quaternion_act(q, x))
        rhs = quaternion_conjugate_triple(q, moment_hyperkahler(x))
        assert (lhs - rhs).norm() <= 1e-9 * (1 + norm_sq(x))


def test_proportionality_examples(a2, a2_rep):
    zero = Representation.zero(a2, (1, 1))
    c, resid = complex_vs_real_identity(zero)
    assert c is None and resid == 0.0

    # loops at a one-dimensional vertex commute, so mu_C vanishes exactly;
    # the rounding left over must not be read as a constant
    rng = np.random.default_rng(29)
    for loops in range(2, 7):
        quiver = extend(Quiver(1, [(0, 0)] * loops))
        x = random_representation(rng, quiver, (1,), scale=10.0)
        c, resid = complex_vs_real_identity(x)
        assert c is None
        assert resid <= 1e-12 * norm_sq(x)

    rng = np.random.default_rng(28)
    values = []
    for _ in range(50):
        _, _, x = random_instance(rng)
        c, resid = complex_vs_real_identity(x)
        if c is None:
            continue
        values.append(c)
        assert resid <= 1e-9 * (1 + norm_sq(x))
    assert max(values) - min(values) <= 1e-8
    assert values[0] == pytest.approx(1.0 / MU_C_FROM_JK, abs=1e-9)

    # mu_J + i mu_K proportional to (-1, 1) times the product form on A2
    x = a2_rep(1, 1)
    lhs = moment_real(x, "J") + 1j * moment_real(x, "K")
    assert lhs.blocks[0][0, 0] == pytest.approx(2.0)
    assert lhs.blocks[1][0, 0] == pytest.approx(-2.0)
