import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from quivermoment import (
    GroupElement,
    LieAlgebraElement,
    Quiver,
    Representation,
    VertexMatrices,
    apply_structure,
    extend,
    hyperkahler_metric,
    hyperkahler_rotation,
    inner_product,
    norm_sq,
    quaternion_act,
)
from quivermoment import selftest
from quivermoment.quiver import ExtendedQuiver
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_constructors_refuse_non_finite_entries(a2, bad):
    """A point or a vertex element with a non-finite entry is refused at
    construction, naming the block, so no moment map, solver, flow or
    certificate ever meets it; no numpy warning comes first."""
    message = "^block 1 has a non-finite entry$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            Representation(a2, (1, 1), [np.array([[1.0]]), np.array([[bad]])])
        for cls in (VertexMatrices, LieAlgebraElement, GroupElement):
            with pytest.raises(ValueError, match=message):
                cls([np.array([[1j]]), np.array([[bad]])])


@pytest.mark.parametrize("bad", [math.nan, -math.inf, complex(0.0, math.inf)])
def test_point_scaling_refuses_a_non_finite_scalar(a2, a2_rep, bad):
    """Scaling a point by NaN or an infinity is refused at the product, naming
    the scalar, from either side; an edgeless point, which has no block to
    scale, refuses it too."""
    message = re.escape(f"scalar {bad!r} is not finite")
    edgeless = Representation(extend(Quiver(2)), (1, 1), [])
    for x in (a2_rep(1.0, 0.5), edgeless):
        with pytest.raises(ValueError, match=message):
            x * bad
        with pytest.raises(ValueError, match=message):
            bad * x
    assert norm_sq(2.0 * a2_rep(1.0, 0.5)) == 5.0


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
    assert selftest.worst_over("quaternion_relations", np.random.default_rng(11), 20) <= 1e-12


def test_structure_isometries_random():
    assert selftest.worst_over("structure_isometries", np.random.default_rng(12), 20) <= 1e-12


def test_check_with_a_nan_defect_fails(monkeypatch):
    """One NaN defect among finite ones fails the check and shows in its
    detail, wherever it falls among the draws."""
    assert selftest.worse(0.5, float("nan"), 2.0) != selftest.worse(0.5, float("nan"), 2.0)
    assert selftest.worse() == 0.0 and selftest.worse(-1.0, 3.0, 2.0) == 3.0
    calls = []

    def nan_on_second_draw(x):
        calls.append(x)
        return float("nan") if len(calls) == 2 else 0.0

    monkeypatch.setattr(selftest, "structure_isometry_defect", nan_on_second_draw)
    monkeypatch.setattr(selftest, "CHECKS", selftest.CHECKS[:1])
    [result] = selftest.run_selftest()
    assert len(calls) > 2
    assert result.name == "structure_isometries" and not result.passed and "nan" in result.detail


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
    assert selftest.worst_over("rotation_identities", np.random.default_rng(14), 10) <= 1e-12


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


def test_quaternion_act_refuses_a_non_finite_quaternion(a2_rep):
    """abs(nan - 1.0) > 1e-12 is False, so NaN passed the unit-norm check."""
    for q in ((math.nan, 0, 0, 0), (1, 0, math.nan, 0), (math.inf, 0, 0, 0)):
        with pytest.raises(ValueError, match="non-finite"):
            quaternion_act(q, a2_rep(1, 0))


def test_quaternion_act_is_group_action():
    assert selftest.worst_over("quaternion_action", np.random.default_rng(15), 10) <= 1e-12


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
    assert selftest.worst_over("metric_polarisation", np.random.default_rng(17), 10) <= 1e-10


def test_representation_immutability(a2_rep):
    x = a2_rep(1, 0)
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 5.0
    with pytest.raises(AttributeError):
        x.dims = (2, 2)
