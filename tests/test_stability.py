import itertools
import math

import numpy as np
import pytest

from quivermoment import (
    GradedSubspace,
    LieAlgebraElement,
    Representation,
    VertexMatrices,
    certify_stable_numerical,
    generated_subrep,
    hm_limit_filtration,
    king_slope,
    king_stable_test,
    pairing,
    subrepresentation_residual,
    theta_to_center,
    verify_subrepresentation,
)
from quivermoment import selftest
from quivermoment.lie import balanced_theta
from quivermoment.sampling import (
    random_chamber_theta,
    random_instance,
    random_stable_instance,
    random_theta,
    random_uv_element,
)


def y11(a, b):
    return LieAlgebraElement([np.array([[1j * a]]), np.array([[1j * b]])])


W01 = lambda: GradedSubspace([np.zeros((1, 0)), np.eye(1)], dims=(1, 1))
W10 = lambda: GradedSubspace([np.eye(1), np.zeros((1, 0))], dims=(1, 1))


def test_verify_subrep_trivial_cases(a2_rep):
    x = a2_rep(1, 0)
    assert verify_subrepresentation(x, GradedSubspace.zero((1, 1)), 1e-10)
    assert verify_subrepresentation(x, GradedSubspace.full((1, 1)), 1e-10)


def test_verify_subrep_examples(a2_rep):
    x = a2_rep(1, 0)
    assert verify_subrepresentation(x, W01(), 1e-10)
    assert not verify_subrepresentation(x, W10(), 1e-10)


def test_verify_subrep_rejects_rank_deficient():
    with pytest.raises(ValueError):
        GradedSubspace([np.array([[1.0, 1.0]]), np.zeros((1, 0))], dims=(1, 1))


def test_king_slope_examples(theta11):
    theta = theta11(1, -1)
    assert king_slope(theta, (0, 0)) == 0.0
    assert king_slope(theta, (0, 1)) == -1.0
    assert king_slope(theta, (1, 1)) == 0.0


def test_generated_subrep_examples(a2_rep):
    x = a2_rep(1, 0)
    assert generated_subrep(x, []).sub_dims() == (0, 0)
    assert generated_subrep(x, [(0, np.array([1.0]))]).sub_dims() == (1, 1)
    assert generated_subrep(x, [(1, np.array([1.0]))]).sub_dims() == (0, 1)


def test_generated_subrep_passes_verification():
    rng = np.random.default_rng(61)
    for _ in range(15):
        quiver, dims, x = random_instance(rng, max_dim=3)
        j = int(rng.integers(len(dims)))
        v = rng.normal(size=dims[j]) + 1j * rng.normal(size=dims[j])
        w = generated_subrep(x, [(j, v)])
        assert subrepresentation_residual(x, w) <= 1e-10


def test_hm_limit_filtration_examples(a2_rep):
    x = a2_rep(1, 0)
    y = y11(-1, 1)  # iY has eigenvalue 1 at vertex 0 and -1 at vertex 1
    exists, filtration = hm_limit_filtration(x, y)
    assert exists
    assert filtration[0] == (pytest.approx(-1.0), (0, 1))
    assert filtration[1][1] == (1, 1)

    x11 = a2_rep(1, 1)
    exists, _ = hm_limit_filtration(x11, y)
    assert not exists

    exists, filtration = hm_limit_filtration(x, LieAlgebraElement.zero((1, 1)))
    assert exists and filtration == [(0.0, (1, 1))]


def test_hm_filtration_levels_are_subreps():
    rng = np.random.default_rng(62)
    found = 0
    for _ in range(40):
        quiver, dims, x = random_instance(rng, max_dim=3)
        verified = selftest.filtration_levels_verify(x, random_uv_element(rng, dims))
        if verified is None:
            continue
        found += 1
        assert verified
    assert found > 0  # e.g. zero-ish couplings or single-level spectra occur


def test_eigen_levels_match_linear_scan():
    from quivermoment.stability import _eigen_levels

    gap = 1e-8
    # eigenvalues of iY: near-ties inside and just outside the clustering gap
    spectra = ([0.0, 5e-9, 1.0], [1.0 + 9e-9, 1.0 + 2e-8, -3.0], [1.0 + 1.5e-8])
    y = VertexMatrices([-1j * np.diag(w) for w in spectra])
    _, levels, level_of = _eigen_levels(y, gap)
    assert levels == [-3.0, 0.0, 1.0, 1.0 + 1.5e-8]
    for w, got in zip(spectra, level_of):
        scan = [next((k for k, lam in enumerate(levels) if v <= lam + gap), len(levels) - 1)
                for v in sorted(w)]
        assert list(got) == scan


def test_hm_witness_examples(a2_rep, theta11):
    x = a2_rep(1, 0)
    y = y11(-1, 1)
    assert pairing(theta_to_center(theta11(-1, 1)), y) == pytest.approx(2.0)
    assert selftest.hm_witness_check(theta11(-1, 1), x, y) == "destabilizing"
    assert pairing(theta_to_center(theta11(1, -1)), y) == pytest.approx(-2.0)
    assert selftest.hm_witness_check(theta11(1, -1), x, y) == "consistent_with_stable"
    x11 = a2_rep(1, 1)
    assert selftest.hm_witness_check(theta11(-1, 1), x11, y) == "consistent_with_stable"
    with pytest.raises(ValueError):
        selftest.hm_witness_check(theta11(1, -1), x, LieAlgebraElement.zero((1, 1)))


def test_king_stable_examples(a2_rep, theta11):
    x = a2_rep(1, 0)
    stable = king_stable_test(x, theta11(1, -1))
    assert stable.verdict == "stable"
    unstable = king_stable_test(x, theta11(-1, 1))
    assert unstable.verdict == "unstable"
    assert unstable.witness_subspace.sub_dims() == (0, 1)
    generic = king_stable_test(a2_rep(1, 1), theta11(1, -1))
    assert generic.verdict == "stable"


def test_overflowing_images_are_not_subrepresentations(a2_rep, theta11, monkeypatch):
    """An edge image that overflows gives a NaN residual, which no tolerance
    accepts, neither in ``verify_subrepresentation`` nor for a King witness;
    a closure that meets one raises FloatingPointError."""
    import quivermoment.stability as stability

    block = np.array([[1.5e308, 1.5e308], [1.0, 1.0]])
    x = Representation(a2_rep(1, 0).quiver, (2, 2), [block, block.T])
    w = GradedSubspace([np.ones((2, 1)) / math.sqrt(2), np.eye(2)[:, :1]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(subrepresentation_residual(x, w))
        assert not verify_subrepresentation(x, w)
        with pytest.raises(FloatingPointError, match="^non-finite closure image in the King search$"):
            king_stable_test(x, balanced_theta([1.0, -1.0], (2, 2)))
    monkeypatch.setattr(stability, "subrepresentation_residual", lambda x, w: math.nan)
    cert = king_stable_test(a2_rep(1, 0), theta11(-1, 1))
    assert cert.verdict == "unstable" and cert.witness_subspace is None


def test_certify_numerical_examples(a2, a2_rep, theta11):
    assert certify_stable_numerical(a2_rep(1, 0), theta11(1, -1)).verdict == "stable"
    cert = certify_stable_numerical(a2_rep(1, 0), theta11(-1, 1))
    assert cert.verdict == "unstable"
    assert cert.witness_direction is not None
    verdict = selftest.hm_witness_check(theta11(-1, 1), a2_rep(1, 0), cert.witness_direction, 1e-6)
    assert verdict == "destabilizing"
    zero = Representation.zero(a2, (1, 1))
    assert certify_stable_numerical(zero, theta11(2, -2)).verdict == "unstable"


def test_unstable_witnesses_reverify():
    rng = np.random.default_rng(63)
    found = 0
    for _ in range(30):
        quiver, dims, x = random_instance(rng, max_dim=2)
        theta = random_theta(rng, dims)
        cert = king_stable_test(x, theta, seed=int(rng.integers(2 ** 31)))
        verified = selftest.witness_reverifies(x, theta, cert)
        if verified is None:
            continue
        found += 1
        assert verified
    assert found > 0


def test_no_contradictory_verdicts():
    rng = np.random.default_rng(64)
    for _ in range(40):
        if rng.random() < 0.6:
            quiver, dims, x = random_stable_instance(rng)
            theta = random_chamber_theta(rng, dims)
        else:
            quiver, dims, x = random_instance(rng, max_dim=2)
            theta = random_theta(rng, dims)
        _, contradiction = selftest.stability_verdicts(x, theta, int(rng.integers(2 ** 31)))
        assert not contradiction


def test_chamber_constancy():
    rng = np.random.default_rng(65)
    for _ in range(10):
        quiver, dims, x = random_stable_instance(rng)
        theta = random_chamber_theta(rng, dims, margin=0.3)
        # nudge inside the same chamber: all wall signs preserved
        n = len(dims)
        while True:
            delta = rng.normal(size=n) * 0.05
            from quivermoment import balanced_theta

            theta2 = balanced_theta(np.array(theta.values) + delta, dims)
            signs_ok = True
            for mask in range(1, 2 ** n - 1):
                sel = [(mask >> j) & 1 for j in range(n)]
                s1 = float(np.dot(sel, theta.values))
                s2 = float(np.dot(sel, theta2.values))
                if np.sign(s1) != np.sign(s2):
                    signs_ok = False
                    break
            if signs_ok:
                break
        v1 = king_stable_test(x, theta, seed=1).verdict
        v2 = king_stable_test(x, theta2, seed=1).verdict
        if v1 in ("stable", "unstable") and v2 in ("stable", "unstable"):
            assert v1 == v2


def test_thin_search_runs_with_a_tiny_block(monkeypatch):
    """A thin connected instance whose blocks are not all far from zero still
    runs the candidate search: a block below the absorb threshold can leave a
    closure proper."""
    import quivermoment.stability as stability

    calls = []
    original = stability.generated_subrep

    def counting(x, seeds):
        calls.append(1)
        return original(x, seeds)

    monkeypatch.setattr(stability, "generated_subrep", counting)
    rng = np.random.default_rng(5)
    quiver, dims, x = random_stable_instance(rng)
    blocks = list(x.blocks)
    blocks[0] = np.array([[1e-10]], dtype=complex)
    x = Representation(x.quiver, dims, blocks)
    king_stable_test(x, random_chamber_theta(rng, dims))
    assert calls


def test_thin_connected_search_builds_no_candidate(monkeypatch):
    """With every block modulus in [1e-9, 1e100] on a thin connected
    instance every closure is full, so the search is skipped."""
    import quivermoment.stability as stability

    def fail(x, seeds):
        raise AssertionError("generated_subrep called")

    rng = np.random.default_rng(5)
    _, dims, x = random_stable_instance(rng)
    theta = random_chamber_theta(rng, dims)
    monkeypatch.setattr(stability, "generated_subrep", fail)
    cert = king_stable_test(x, theta)
    assert cert.verdict == "stable" and cert.diagnostics["candidates_tested"] == 0


def _thin_king_verdict(x, theta):
    """The exact King verdict of a point whose dimensions are all 0 or 1: its
    subrepresentations are the subsets of the support closed under the
    nonzero arrows of the extended quiver, so enumerating them decides.
    "tie" when a proper nonzero one has slope zero to 1e-9 and none is
    positive."""
    support = [v for v, d in enumerate(x.dims) if d]
    arrows = [(x.quiver.tail(e), x.quiver.head(e)) for e in range(x.quiver.num_edges) if np.any(x.blocks[e])]
    verdict = "stable"
    for size in range(1, len(support)):
        for sub in itertools.combinations(support, size):
            if any(t in sub and h not in sub for t, h in arrows):
                continue
            slope = king_slope(theta, [int(v in sub) for v in range(len(x.dims))])
            if slope > 1e-9:
                return "unstable"
            if slope >= -1e-9:
                verdict = "tie"
    return verdict


def test_king_verdict_matches_the_exact_thin_oracle():
    """On every draw whose dimensions are at most 1, the King search gives
    the verdict that enumerating the closed subsets of the support gives."""
    verdicts = []
    for seed, max_dim, count in ((3, 1, 300), (4, 2, 200)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            _, dims, x = random_instance(rng, max_dim=max_dim)
            theta = random_theta(rng, dims)
            if max(dims) > 1:
                continue
            want = _thin_king_verdict(x, theta)
            assert king_stable_test(x, theta).verdict == want, (seed, dims, x.quiver.base.edges)
            verdicts.append(want)
    assert (len(verdicts), verdicts.count("stable"), verdicts.count("unstable")) == (343, 249, 94)
