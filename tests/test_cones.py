import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from quivermoment import (
    GroupElement,
    LieAlgebraElement,
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
from quivermoment import selftest
from quivermoment.cones import DEFAULT_SUBSET_CAP, SubsetCapError, WeightSet, theta_coordinates
from quivermoment import sampling as S
from quivermoment.sampling import random_rational_triple

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
        beta, dist_gap, beta_gap = selftest.projection_gaps(vectors, theta)
        assert dist_gap <= 1e-8
        assert beta_gap <= 1e-7
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


def test_d_theta_matches_exhaustive_oracle():
    rng = np.random.default_rng(52)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 8))
        vectors = rng.normal(size=(k, n))
        ws = WeightSet(vectors=vectors, multiplicities=np.ones(k, dtype=int), num_coords=n)
        gap = selftest.d_theta_gap(ws, rng.normal(size=n))
        assert gap is not None and gap <= 1e-12


def test_d_theta_subset_cap():
    assert 2 ** 21 > DEFAULT_SUBSET_CAP
    ws = WeightSet(vectors=np.eye(21), multiplicities=np.ones(21, dtype=int), num_coords=21)
    with pytest.raises(SubsetCapError):
        d_theta(ws, np.ones(21))
    with pytest.raises(SubsetCapError):
        in_C_reg(ws, np.ones(21))


def test_cone_functions_refuse_a_non_finite_theta():
    ws = WeightSet(
        vectors=np.vstack([ALPHA, -ALPHA]), multiplicities=np.array([1, 1]), num_coords=2
    )
    for theta in ([math.nan, 0.0], [math.inf, -math.inf]):
        for call in (lambda: d_theta(ws, theta), lambda: in_C_reg(ws, theta),
                     lambda: cone_project(ws.vectors, theta)):
            with pytest.raises(ValueError, match=r"theta must be finite, got \[(nan|inf)"):
                call()


def test_in_C_reg_examples():
    ws = WeightSet(
        vectors=np.vstack([ALPHA, -ALPHA]), multiplicities=np.array([1, 1]), num_coords=2
    )
    assert in_C_reg(ws, 0.5 * ALPHA)
    assert not in_C_reg(ws, np.zeros(2))
    assert not in_C_reg(ws, np.array([1.0, 1.0]))
    # theta is the third weight, but the whole set's projection uses the first two
    ws = WeightSet(
        vectors=np.array([[10.0, 5.0, 0.0], [10.0, -5.0, 0.0], [1.0, 0.0, 0.0]]),
        multiplicities=np.ones(3, dtype=int), num_coords=3,
    )
    assert not in_C_reg(ws, np.array([1.0, 0.0, 0.0]))
    assert in_C_reg(ws, np.array([3.0, 1.0, 0.0]))


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


def test_regular_checks_agree_with_integer_oracle():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 30:
        n = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(n))
        try:
            tri = random_rational_triple(rng, dims, attempts=40)
        except ValueError:
            continue
        assert selftest.regular_check_agrees(dims, tri)
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


# ---------------------------------------------------------------------------
# d_theta and in_C_reg pinned on fixed draws, as the exhaustive subset loops
# computed them: any search over the subcones must land within 1e-12 of these
# values and keep every verdict


def _criterion_6_draws():
    """The 50 draws of acceptance criterion 6: generic vectors, at most 10."""
    rng = np.random.default_rng(1006)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 11))
        vectors = rng.normal(size=(k, n))
        theta = rng.normal(size=n)
        yield WeightSet(vectors=vectors, multiplicities=np.ones(k, dtype=int), num_coords=n), theta


def _torus_cases(rng, count, max_weights=13):
    """Torus weights of generic (dims up to 2) and thin connected instances,
    at most 2^13 subsets each, with three parameters per weight set: a
    balanced random theta (outside the cone when the weights miss it), a
    positive combination of every weight and one of a random few."""
    cases = []
    while len(cases) < count:
        if len(cases) % 2:
            _, dims, x = S.random_stable_instance(rng)
        else:
            _, dims, x = S.random_instance(rng, max_dim=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ws = torus_weights(x.quiver, dims)
        k = len(ws.vectors)
        if k > max_weights:
            continue
        balanced = theta_coordinates(S.random_theta(rng, dims).values, dims)
        full = rng.uniform(0.1, 1.0, size=k) @ ws.vectors
        few = rng.random(k) < 0.4
        sparse = rng.uniform(0.1, 1.0, size=int(few.sum())) @ ws.vectors[few]
        cases.append((ws, (balanced, full, sparse)))
    return cases


CRITERION_6_D_THETA = [
    1.4261117281853555, 0.01409976913214965, 0.19841013247028552,
    0.0028616528685914545, 0.8104746140218801, 2.696141396626425,
    5.4445232231624505, 0.1945851978993859, 5.341383037409709,
    0.0020866092761971165, 0.9248878897866003, 0.9327331093065802,
    3.7324733641268826e-05, 0.30558123507472335, 0.04513856244551646,
    1.4211771785034069, 6.476263259576325, 1.5410364420271345, 0.011596628728490465,
    1.4027628106837575, 0.08109721969002112, 3.2898548838167967, 6.710039345013592,
    0.09004312118902665, 2.424871507899615, 9.90940994586032, 0.2491641465087662,
    0.8406870939457634, 1.0681017458153543, 0.00017956792683229767,
    2.4616806570358563, 0.003085640313798271, 0.00016776724078941088,
    0.00015306174331945188, 0.041909277370906564, 2.0973732012005657,
    1.014704517220111, 0.016834387801902505, 0.003105621937181079,
    2.1904915641288447, 0.0012007974292901906, 0.06695302330581566,
    0.0028592359690795192, 0.28652653346803025, 0.45555686676765866,
    0.2316681641948342, 1.3603971494558227, 0.009340801053815165, 2.547183504772393,
    0.01076089340427667,
]

TORUS_D_THETA = [
    math.inf, math.inf, math.inf, 0.44018945238435314, 0.30850239400147733,
    math.inf, 0.9907007671631826, 0.052700849998576126, 0.26697227556858794,
    0.3415683431361075, 0.04224010339704944, math.inf, math.inf, math.inf, math.inf,
    0.7435922006772652, 0.0323917521824267, 0.8629126617382825, math.inf,
    0.1789409430751283, math.inf, 0.0014058215261409928, 0.0024352791426474588,
    0.0030144976939161868, 9.721369667005192, 0.00016370246262580366,
    0.5006767817612018, 0.054311801771780695, 0.0003705372193455452,
    0.4307545264254764, 0.44993468931852004, 0.15543582306254955,
    0.04810800815003382, 0.35528711390762946, 0.42078596677572494,
    0.2588411430039218, math.inf, math.inf, math.inf, 0.03135868611078375,
    0.005150784011983047, 0.2019887092637092, math.inf, math.inf, math.inf,
    0.01733656807920951, 0.016618774608151102, 0.0027254073786759144, math.inf,
    math.inf, math.inf, 0.1589473617992855, 0.0021115640084287952,
    0.02110093483900021, 0.8911671051872571, 0.8477302769889926,
    0.09368920458198991, 0.10088772121493446, 0.047571656200571105,
    0.07572973846796889, 0.9702406884525607, 0.0023343813782648977,
    0.1971235761082936, 0.006874476801086761, 0.04002449780408815,
    0.05825498730227833, math.inf, 0.16589665852965754, math.inf,
    0.008770879559265494, 0.006967439723189945, 0.11787459013218178, math.inf,
    math.inf, math.inf, 0.024858976096526868, 0.007843556800606858,
    0.06334378321022596, math.inf, 0.010424896055988517, 0.5184379747926041,
    0.0954318441984312, 0.11528874880170577, 0.08217224087895504, 7.533973300076324,
    0.685265862622943, 1.1869166337225971, 0.00024185833237622386,
    0.005569143446988104, 0.506092214162246,
]
# in_C_reg on the same cases, one digit per parameter
TORUS_IN_C_REG = "111110000110111110010111000110110111111111111111111111000111000110010111111111011111000110"


def _assert_radii(got, want):
    assert [math.isinf(v) for v in got] == [math.isinf(v) for v in want]
    assert max((abs(g - w) for g, w in zip(got, want) if not math.isinf(w)), default=0.0) <= 1e-12


def test_d_theta_pins_on_criterion_6_draws():
    _assert_radii([d_theta(ws, theta) for ws, theta in _criterion_6_draws()], CRITERION_6_D_THETA)


def test_d_theta_and_in_C_reg_pins_on_torus_weights():
    cases = _torus_cases(np.random.default_rng(1013), 30)
    _assert_radii([d_theta(ws, th) for ws, thetas in cases for th in thetas], TORUS_D_THETA)
    verdicts = "".join("1" if in_C_reg(ws, th) else "0" for ws, thetas in cases for th in thetas)
    assert verdicts == TORUS_IN_C_REG


def test_in_C_reg_matches_exhaustive_rank_oracle():
    cases = [(ws, theta) for ws, thetas in _torus_cases(np.random.default_rng(54), 40, max_weights=10)
             for theta in thetas]
    # generic vectors with theta in the cone of a random few: here the whole
    # set's projection often has a larger support than the smallest one
    rng = np.random.default_rng(55)
    for _ in range(60):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(2, 11))
        vectors = rng.normal(size=(k, n))
        few = rng.random(k) < 0.3
        theta = rng.uniform(0.1, 1.0, size=int(few.sum())) @ vectors[few]
        cases.append((WeightSet(vectors=vectors, multiplicities=np.ones(k, dtype=int), num_coords=n), theta))
    verdicts = [in_C_reg(ws, theta) for ws, theta in cases]
    assert verdicts == [selftest.in_C_reg_oracle(ws, theta) for ws, theta in cases]
    assert 0 < sum(verdicts) < len(verdicts)


def test_d_theta_projection_count_on_criterion_6_draws(monkeypatch):
    """The subcone search projects onto far fewer cones than the 2^k subsets
    (10,946 on these draws when every subset was projected)."""
    from quivermoment import cones

    calls = []
    nnls = cones.nonnegative_lstsq
    monkeypatch.setattr(cones, "nonnegative_lstsq", lambda *a, **kw: calls.append(1) or nnls(*a, **kw))
    for ws, theta in _criterion_6_draws():
        d_theta(ws, theta)
    assert len(calls) <= 600


def _orthogonal_rational(rng, constraints, n, denominator=12):
    """A random rational vector orthogonal to every constraint vector."""
    v = [Fraction(int(rng.integers(-denominator, denominator + 1)), denominator) for _ in range(n)]
    basis = []
    for c in constraints:
        u = [Fraction(a) for a in c]
        for b in basis:
            coef = sum(x * y for x, y in zip(u, b)) / sum(y * y for y in b)
            u = [x - coef * y for x, y in zip(u, b)]
        if any(u):
            basis.append(u)
    for b in basis:
        coef = sum(x * y for x, y in zip(v, b)) / sum(y * y for y in b)
        v = [x - coef * y for x, y in zip(v, b)]
    return v


def test_complex_regular_check_matches_integer_oracle():
    """Seeded random rational xi, xi built on a random wall, and unbalanced xi,
    each against the integer-arithmetic oracle over ``regular_walls``."""
    rng = np.random.default_rng(57)
    kinds = {"random": 0, "wall": 0, "unbalanced": 0}
    for _ in range(120):
        n = int(rng.integers(1, 5))
        dims = tuple(int(rng.integers(0, 4)) for _ in range(n))
        walls = regular_walls(dims)
        kind = ("random", "wall", "unbalanced")[int(rng.integers(3))]
        if kind == "wall" and not walls:
            kind = "random"
        if kind == "unbalanced" and not any(dims):
            kind = "random"
        wall = walls[int(rng.integers(len(walls)))] if kind == "wall" else None
        constraints = [dims] + ([wall] if wall is not None else [])
        re, im = (_orthogonal_rational(rng, constraints, n) for _ in range(2))
        if kind == "unbalanced":
            j = next(j for j, d in enumerate(dims) if d)
            re[j] += Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        # parts given as "p/q" strings and as Fractions alike
        xi = [(str(a), b if k % 2 else str(b)) for k, (a, b) in enumerate(zip(re, im))]
        expected = selftest.wall_oracle(dims, [[a for a, _ in xi], [b for _, b in xi]], check_balance=True)
        if kind != "random":
            assert not expected
        assert complex_regular_check(dims, xi) == expected, (dims, xi)
        kinds[kind] += 1
    assert all(count >= 20 for count in kinds.values()), kinds


def test_selftest_oracles_are_independent_of_cones(monkeypatch, a2_rep, theta11):
    """Every oracle of ``selftest`` answers a small hand case with the active-set
    iteration, the projection and the exact wall scan of ``cones`` broken."""
    from quivermoment import cones

    def broken(*args, **kwargs):
        raise AssertionError("an oracle reached the code it checks")

    for name in ("nonnegative_lstsq", "_project", "_first_wall"):
        monkeypatch.setattr(cones, name, broken)
    ws = WeightSet(vectors=np.vstack([ALPHA, -ALPHA]), multiplicities=np.array([1, 1]), num_coords=2)
    beta, dist = selftest.projection_oracle(ws.vectors, 0.5 * ALPHA)
    assert np.allclose(beta, 0.5 * ALPHA) and dist <= 1e-20
    assert selftest.subset_distances(ws.vectors, 0.5 * ALPHA)[0] == pytest.approx(0.5)
    assert selftest.d_theta_oracle(ws, 0.8 * ALPHA) == pytest.approx(1.28)
    assert selftest.in_C_reg_oracle(ws, 0.5 * ALPHA)
    assert not selftest.in_C_reg_oracle(ws, np.zeros(2))
    tri = RationalThetaTriple(("1", "-1"), ("0", "0"), ("0", "0"), (1, 1))
    assert selftest.wall_oracle((1, 1), tri.components())
    assert not selftest.wall_oracle((2,), [("0",)])
    assert not selftest.wall_oracle((1, 1), [("1", "1"), ("0", "0")], check_balance=True)
    x, theta = a2_rep(1, 0), theta11(-1, 1)
    y = LieAlgebraElement([np.array([[-1j]]), np.array([[1j]])])
    assert selftest.kempf_ness_value(theta, x, GroupElement.identity((1, 1))) == pytest.approx(1.0)
    assert selftest.geodesic_profile(theta, x, y, [0.0]) == pytest.approx([1.0])
    assert selftest.hm_witness_check(theta, x, y) == "destabilizing"
