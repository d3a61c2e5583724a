import math
from fractions import Fraction

import numpy as np
import pytest

from quivermoment import (
    Quiver,
    RationalThetaTriple,
    complex_regular_check,
    cone_project,
    d_theta,
    extend,
    hyperkahler_regular_check,
    in_C_reg,
    regular_walls,
    torus_weights,
)
from quivermoment.cones import SubsetCapError, WeightSet, theta_coordinates
from quivermoment.sampling import random_rational_triple
from quivermoment.selftest import (
    _brute_force_d_theta,
    _brute_force_projection,
    _float_regular_check,
)

ALPHA = np.array([1.0, -1.0])


def test_torus_weights_a2():
    ws = torus_weights(extend(Quiver(2, [(0, 1)])), (1, 1))
    rows = {tuple(v) for v in ws.vectors}
    assert rows == {(1.0, -1.0), (-1.0, 1.0)}
    assert ws.spans_torus


def test_torus_weights_jordan_v1_warns():
    with pytest.warns(UserWarning):
        ws = torus_weights(extend(Quiver(1, [(0, 0)])), (1,))
    assert np.all(ws.vectors == 0)
    assert ws.multiplicities.tolist() == [2]


def test_torus_weights_no_edges_warns():
    with pytest.warns(UserWarning):
        ws = torus_weights(extend(Quiver(2, [])), (1, 1))
    assert len(ws.vectors) == 0


def test_torus_weights_match_moment_image():
    # the moment value of x = (a, 0) on the A2 quiver is |a|^2 alpha
    from quivermoment import Representation, moment_real

    xq = extend(Quiver(2, [(0, 1)]))
    x = Representation(xq, (1, 1), [np.array([[1.3]]), np.array([[0.0]])])
    mu = moment_real(x, "I")
    coords = np.array([mu.blocks[0][0, 0].imag, mu.blocks[1][0, 0].imag])
    assert np.allclose(coords, abs(1.3) ** 2 * ALPHA)


def test_cone_project_examples():
    beta, dist = cone_project(np.zeros((0, 2)), ALPHA)
    assert np.all(beta == 0) and dist == pytest.approx(2.0)
    beta, dist = cone_project(ALPHA.reshape(1, 2), ALPHA)
    assert np.allclose(beta, ALPHA) and dist <= 1e-20
    beta, dist = cone_project(-ALPHA.reshape(1, 2), 3 * ALPHA)
    assert np.all(beta == 0) and dist == pytest.approx(18.0)


def test_cone_project_kkt_against_brute_force():
    rng = np.random.default_rng(51)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(0, 7))
        vectors = rng.normal(size=(k, n))
        theta = rng.normal(size=n)
        beta, dist = cone_project(vectors, theta)
        bbeta, bdist = _brute_force_projection(vectors, theta)
        assert dist == pytest.approx(bdist, abs=1e-8)
        assert np.allclose(beta, bbeta, atol=1e-7)
        if k:
            dual = vectors @ (theta - beta)
            assert np.all(dual <= 1e-9 * (1 + np.abs(theta).max()))


def test_d_theta_examples():
    ws = WeightSet(
        vectors=np.vstack([ALPHA, -ALPHA]), multiplicities=np.array([1, 1]), num_coords=2
    )
    c = 0.8
    assert d_theta(ws, c * ALPHA) == pytest.approx(c * c * 2.0)
    assert math.isinf(d_theta(ws, np.zeros(2)))
    assert d_theta(ws, 0.5 * ALPHA) == pytest.approx(0.5)


def test_d_theta_brute_force_agreement():
    rng = np.random.default_rng(52)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 8))
        vectors = rng.normal(size=(k, n))
        ws = WeightSet(vectors=vectors, multiplicities=np.ones(k, dtype=int), num_coords=n)
        theta = rng.normal(size=n)
        mine = d_theta(ws, theta)
        brute = _brute_force_d_theta(vectors, theta)
        assert math.isinf(mine) == math.isinf(brute)
        if not math.isinf(mine):
            assert mine == pytest.approx(brute, abs=1e-12)


def test_d_theta_subset_cap():
    vectors = np.eye(8)
    ws = WeightSet(vectors=vectors, multiplicities=np.ones(8, dtype=int), num_coords=8)
    with pytest.raises(SubsetCapError):
        d_theta(ws, np.ones(8), subset_cap=4)


def test_in_C_reg_examples():
    ws = WeightSet(
        vectors=np.vstack([ALPHA, -ALPHA]), multiplicities=np.array([1, 1]), num_coords=2
    )
    assert in_C_reg(ws, 0.5 * ALPHA)
    assert not in_C_reg(ws, np.zeros(2))
    assert not in_C_reg(ws, np.array([1.0, 1.0]))


def test_theta_coordinates_expansion():
    coords = theta_coordinates((2.0, -1.0), (1, 2))
    assert coords.tolist() == [2.0, -1.0, -1.0]


def test_hyperkahler_regular_examples():
    tri = RationalThetaTriple(("1", "-1"), ("0", "0"), ("0", "0"), (1, 1))
    assert hyperkahler_regular_check((1, 1), tri) == (True, None)
    tri0 = RationalThetaTriple(("0", "0"), ("0", "0"), ("0", "0"), (1, 1))
    ok, witness = hyperkahler_regular_check((1, 1), tri0)
    assert not ok and witness == (0, 1)
    jordan2 = RationalThetaTriple(("0",), ("0",), ("0",), (2,))
    ok, witness = hyperkahler_regular_check((2,), jordan2)
    assert not ok and witness == (1,)


def test_complex_regular_examples():
    assert complex_regular_check((1, 1), [("1", "0"), ("-1", "0")])
    assert not complex_regular_check((1, 1), [("0", "0"), ("0", "0")])
    assert not complex_regular_check((2,), [("0", "0")])
    # balance violation is not regular either
    assert not complex_regular_check((1, 1), [("1", "0"), ("1", "0")])


def test_regular_checks_agree_with_float_oracle():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 30:
        n = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(n))
        try:
            tri = random_rational_triple(rng, dims, attempts=40)
        except ValueError:
            continue
        ok, _ = hyperkahler_regular_check(dims, tri)
        assert ok == _float_regular_check(dims, tri)
        checked += 1


def test_walls_listing():
    walls = regular_walls((1, 1))
    assert set(walls) == {(0, 1), (1, 0)}
    assert len(regular_walls((2, 2))) == 7


def test_rational_parsing():
    tri = RationalThetaTriple((Fraction(1, 2), "-1/2"), (0, "0"), ("0", 0), (1, 1))
    assert tri.theta_I == (Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(ValueError):
        RationalThetaTriple(("1/3", "0"), ("0", "0"), ("0", "0"), (1, 1))
