import numpy as np
import pytest

from quivermoment import (
    LieAlgebraElement,
    Quiver,
    Representation,
    act,
    extend,
    moment_complex,
    moment_hyperkahler,
    moment_pairing_fd_oracle,
    moment_real,
    norm_sq,
    pairing_norm,
    theta_to_center,
)
from quivermoment import selftest
from quivermoment.moment import MU_C_FROM_JK, complex_vs_real_identity
from quivermoment.sampling import (
    random_instance,
    random_representation,
    random_unitary,
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
    assert selftest.worst_over("moment_oracle", np.random.default_rng(21), 100) <= 1e-6


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
        assert selftest.complex_trace_defect(x) <= 1e-10
        mc = moment_complex(x)
        u = random_unitary(rng, dims)
        lhs = moment_complex(act(u, x))
        rhs = [ub @ b @ np.linalg.inv(ub) for ub, b in zip(u.blocks, mc.blocks)]
        worst = selftest.worse(
            *(float(np.abs(a - b).max(initial=0)) for a, b in zip(lhs.blocks, rhs))
        )
        assert worst <= 1e-10 * (1 + norm_sq(x))


def test_moment_equivariance_unitary():
    assert selftest.worst_over("moment_equivariance", np.random.default_rng(24), 15) <= 1e-10


def test_hyperkahler_triple_examples(a2_rep, theta11):
    x = a2_rep(1, 0)
    triple = moment_hyperkahler(x)
    assert pairing_norm(triple.mu_I - theta_to_center(theta11(1, -1))) <= 1e-14
    assert pairing_norm(triple.mu_J) <= 1e-14
    assert pairing_norm(triple.mu_K) <= 1e-14
    doubled = moment_hyperkahler(2.0 * x)
    assert (doubled - triple.scale(4.0)).norm() <= 1e-14


def test_homogeneity_random():
    assert selftest.worst_over("moment_homogeneity", np.random.default_rng(25), 10) <= 1e-12


def test_rotation_intertwining():
    assert selftest.worst_over("rotation_intertwining", np.random.default_rng(26), 15) <= 1e-10


def test_quaternion_equivariance():
    assert selftest.worst_over("quaternion_equivariance", np.random.default_rng(27), 20) <= 1e-9


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
