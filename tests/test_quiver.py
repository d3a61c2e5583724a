import dataclasses

import numpy as np
import pytest

from quivermoment import (
    Quiver,
    Representation,
    apply_structure,
    extend,
    hermitian_pairing,
    hyperkahler_metric,
    hyperkahler_rotation,
    inner_product,
    norm_sq,
    quaternion_act,
)
from quivermoment.quiver import ExtendedQuiver, quaternion_multiply
from quivermoment.sampling import random_instance, random_representation

STRUCTURES = ("I", "J", "K")


def test_extend_a2():
    xq = extend(Quiver(2, [(0, 1)]))
    assert xq.edges == ((0, 1), (1, 0))
    assert xq.epsilon == (1, -1)
    assert xq.reversal == (1, 0)


def test_extend_jordan():
    xq = extend(Quiver(1, [(0, 0)]))
    assert xq.edges == ((0, 0), (0, 0))
    assert xq.epsilon == (1, -1)
    assert xq.reverse(xq.reverse(0)) == 0


def test_extend_empty():
    xq = extend(Quiver(3, []))
    assert xq.edges == ()
    assert xq.epsilon == ()
    assert xq.reversal == ()
    empty = extend(Quiver(0))
    assert (empty.num_vertices, empty.num_edges, empty.reversal) == (0, 0, ())
    assert norm_sq(Representation.zero(empty, ())) == 0.0


def test_extended_quiver_is_derived_from_its_base():
    """Equality and hash are the base's; only the base is a constructor field."""
    base = Quiver(3, [(0, 1), (1, 2), (2, 2)])
    xq = ExtendedQuiver(base)
    assert xq == extend(Quiver(3, [(0, 1), (1, 2), (2, 2)])) and hash(xq) == hash(extend(base))
    assert xq != extend(Quiver(3, [(0, 1), (1, 2)])) and xq != extend(Quiver(4, base.edges))
    assert [f.name for f in dataclasses.fields(ExtendedQuiver) if f.init] == ["base"]
    with pytest.raises(TypeError):
        ExtendedQuiver(base, edges=xq.edges)


def test_extended_quiver_reversed_edges():
    xq = extend(Quiver(3, [(0, 1), (1, 2), (2, 2)]))
    assert xq.edges == ((0, 1), (1, 2), (2, 2), (1, 0), (2, 1), (2, 2))
    assert xq.epsilon == (1, 1, 1, -1, -1, -1)
    assert xq.reversal == (3, 4, 5, 0, 1, 2)
    for e in range(xq.num_edges):
        r = xq.reverse(e)
        assert xq.reverse(r) == e and xq.epsilon[r] == -xq.epsilon[e]
        assert (xq.tail(r), xq.head(r)) == (xq.head(e), xq.tail(e))
    assert (xq.tail(4), xq.head(4)) == (2, 1)


def test_extended_quiver_and_points_are_immutable(a2_rep):
    xq = extend(Quiver(2, [(0, 1)]))
    for name, value in (("base", Quiver(1)), ("edges", ()), ("epsilon", ()), ("reversal", ())):
        with pytest.raises(AttributeError):
            setattr(xq, name, value)
    x = a2_rep(1, 2)
    with pytest.raises(AttributeError):
        x.quiver = xq
    with pytest.raises(ValueError):
        x.stacks[0][0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 5.0


def test_extend_rejects_bad_vertex():
    with pytest.raises(ValueError):
        Quiver(2, [(0, 2)])


def test_block_shape_validation(a2):
    with pytest.raises(ValueError):
        Representation(a2, (1, 2), [np.ones((1, 1)), np.ones((1, 1))])


def test_inner_product_examples(a2, a2_rep):
    zero = Representation.zero(a2, (1, 1))
    assert inner_product(zero, zero) == 0
    assert inner_product(a2_rep(1, 0), a2_rep(0, 1)) == 0
    assert inner_product(a2_rep(1 + 1j, 0), a2_rep(1, 0)) == pytest.approx(1 + 1j)


def test_inner_product_conjugate_symmetry(a2_rep):
    x = a2_rep(0.3 + 0.2j, -1.1 + 0.5j)
    y = a2_rep(-0.7 + 0.9j, 0.4 - 0.6j)
    assert inner_product(x, y) == pytest.approx(np.conj(inner_product(y, x)))
    assert inner_product(x, x).imag == pytest.approx(0.0, abs=1e-14)


def test_norm_sq_examples(a2, jordan, a2_rep):
    assert norm_sq(Representation.zero(a2, (1, 1))) == 0.0
    assert norm_sq(a2_rep(1, 0)) == pytest.approx(1.0)
    x = Representation(
        jordan, (2,), [np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]])]
    )
    assert norm_sq(x) == pytest.approx(2.0)


def test_structure_examples(a2_rep):
    x = a2_rep(1, 0)
    jx = apply_structure("J", x)
    kx = apply_structure("K", x)
    assert jx.blocks[0][0, 0] == pytest.approx(0) and jx.blocks[1][0, 0] == pytest.approx(1)
    assert kx.blocks[0][0, 0] == pytest.approx(0) and kx.blocks[1][0, 0] == pytest.approx(1j)
    zero = 0.0 * x
    for s in STRUCTURES:
        assert norm_sq(apply_structure(s, zero)) == 0.0


def test_quaternion_relations_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        _, _, x = random_instance(rng)
        scale = np.sqrt(norm_sq(x)) + 1.0
        for s in STRUCTURES:
            assert np.sqrt(norm_sq(apply_structure(s, apply_structure(s, x)) + x)) <= 1e-12 * scale
        ijk = apply_structure("I", apply_structure("J", apply_structure("K", x)))
        assert np.sqrt(norm_sq(ijk + x)) <= 1e-12 * scale


def test_structure_isometries_random():
    rng = np.random.default_rng(12)
    for _ in range(20):
        _, _, x = random_instance(rng)
        n = norm_sq(x)
        for s in STRUCTURES:
            assert abs(norm_sq(apply_structure(s, x)) - n) <= 1e-12 * (1 + n)


def test_rotation_example(a2_rep):
    x = a2_rep(1, 0)
    rot = hyperkahler_rotation(x)
    assert rot.blocks[0][0, 0] == pytest.approx((1 + 1j) / 2)
    assert rot.blocks[1][0, 0] == pytest.approx((1 + 1j) / 2)
    assert norm_sq(rot) == pytest.approx(1.0)


def test_rotation_inverse_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        _, _, x = random_instance(rng)
        back = hyperkahler_rotation(hyperkahler_rotation(x), "inverse")
        assert np.sqrt(norm_sq(back - x)) <= 1e-14 * (1 + np.sqrt(norm_sq(x)))


def test_rotation_permutes_structures():
    rng = np.random.default_rng(14)
    pairs = (("I", "J"), ("J", "K"), ("K", "I"))
    for _ in range(10):
        _, _, x = random_instance(rng)
        rot = hyperkahler_rotation(x)
        scale = 1 + np.sqrt(norm_sq(x))
        for s, s_next in pairs:
            lhs = hyperkahler_rotation(apply_structure(s, x))
            rhs = apply_structure(s_next, rot)
            assert np.sqrt(norm_sq(lhs - rhs)) <= 1e-12 * scale


def test_quaternion_act_examples(a2_rep):
    x = a2_rep(1, 0)
    assert np.sqrt(norm_sq(quaternion_act((1, 0, 0, 0), x) - x)) == 0.0
    ix = quaternion_act((0, 1, 0, 0), x)
    assert np.sqrt(norm_sq(ix - apply_structure("I", x))) == 0.0
    half = quaternion_act((0.5, 0.5, 0.5, 0.5), x)
    assert half.blocks[0][0, 0] == pytest.approx((1 + 1j) / 2)
    assert half.blocks[1][0, 0] == pytest.approx((1 + 1j) / 2)


def test_quaternion_act_rejects_non_unit(a2_rep):
    with pytest.raises(ValueError):
        quaternion_act((1, 1, 0, 0), a2_rep(1, 0))


def test_quaternion_act_is_group_action():
    rng = np.random.default_rng(15)
    for _ in range(10):
        _, _, x = random_instance(rng)
        q1 = rng.normal(size=4)
        q1 /= np.linalg.norm(q1)
        q2 = rng.normal(size=4)
        q2 /= np.linalg.norm(q2)
        lhs = quaternion_act(q1, quaternion_act(q2, x))
        rhs = quaternion_act(quaternion_multiply(tuple(q1), tuple(q2)), x)
        assert np.sqrt(norm_sq(lhs - rhs)) <= 1e-12 * (1 + np.sqrt(norm_sq(x)))


def test_symplectic_form_examples(a2_rep):
    # the symplectic form of a structure s is g(s.u, v)
    u = a2_rep(1, 0)
    assert hyperkahler_metric(apply_structure("I", u), u) == pytest.approx(0.0, abs=1e-14)
    v = a2_rep(1j, 0)
    assert hyperkahler_metric(apply_structure("I", u), v) == pytest.approx(1.0)


def test_symplectic_antisymmetry_random():
    rng = np.random.default_rng(16)
    for _ in range(10):
        quiver, dims, u = random_instance(rng)
        v = random_representation(rng, quiver, dims)
        for s in STRUCTURES:
            assert hyperkahler_metric(apply_structure(s, u), v) == pytest.approx(
                -hyperkahler_metric(apply_structure(s, v), u), abs=1e-12 * (1 + norm_sq(u) + norm_sq(v))
            )


def test_metric_shared_across_polarisations():
    rng = np.random.default_rng(17)
    for _ in range(10):
        quiver, dims, u = random_instance(rng)
        v = random_representation(rng, quiver, dims)
        g = hyperkahler_metric(u, v)
        for s in STRUCTURES:
            assert hermitian_pairing(s, u, v).real == pytest.approx(
                g, rel=1e-10, abs=1e-10 * (1 + abs(g))
            )


def test_representation_immutability(a2_rep):
    x = a2_rep(1, 0)
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 5.0
    with pytest.raises(AttributeError):
        x.dims = (2, 2)
