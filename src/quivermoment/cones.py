"""Torus weights, polyhedral cone projection, and the regular loci.

The maximal torus of the compact group acts diagonally; every matrix entry
slot of representation space is a weight vector in the trace-free diagonal
algebra, written in per-(vertex, diagonal) coordinates.  Projections of a
parameter onto subcones of the weight set produce the certified semistability
radius d_theta.  The hyperkahler and complex regular loci are wall complements
decided in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
import re
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .quiver import ExtendedQuiver, validate_dims

MEMBERSHIP_TOL = 1e-9
KKT_TOL = 1e-10
DEFAULT_SUBSET_CAP = 2 ** 20
# one exact wall scan costs about 14 us per dimension vector, so 1.4 s at the cap
ENUMERATION_CAP = 10 ** 5
# Fraction expands a decimal exponent exactly ("1e10000000" takes seconds), so
# rational strings are bounded in length and in the size of their exponent
RATIONAL_MAX_CHARS = 1000
RATIONAL_MAX_EXPONENT = 1000


class SubsetCapError(RuntimeError):
    """Subset enumeration would exceed the configured cap."""


class EnumerationCapError(RuntimeError):
    """Dimension-vector enumeration would exceed the configured cap."""


class ConeProjectionError(RuntimeError):
    """The nonnegative least-squares iteration failed to certify optimality."""


@dataclass
class WeightSet:
    """Distinct torus weights with multiplicities.

    Vectors are rows in the per-(vertex, diagonal) coordinates; every row sums
    to zero.  ``spans_torus``, computed once at construction, records whether
    the weights span the trace-free diagonal algebra, i.e. whether the torus
    acts with finite kernel.
    """

    vectors: np.ndarray
    multiplicities: np.ndarray
    num_coords: int
    spans_torus: bool = field(init=False)

    def __post_init__(self):
        self.spans_torus = bool(np.linalg.matrix_rank(self.vectors, tol=1e-10) >= self.torus_dim)

    @property
    def torus_dim(self):
        return max(self.num_coords - 1, 0)


def weight_keys(quiver: ExtendedQuiver, dims) -> dict:
    """The distinct torus weights, counted before any vector is built.

    The slot (edge e, row a, column b) carries the weight
    delta_(tail(e), b) - delta_(head(e), a), keyed by that coordinate pair;
    every diagonal pair is the zero weight (0, 0).  Returns key ->
    multiplicity, in the order of first appearance.
    """
    dims = validate_dims(quiver, dims)
    offsets = [0, *itertools.accumulate(dims)]
    seen = {}
    for e in range(quiver.num_edges):
        h, t = quiver.head(e), quiver.tail(e)
        for a in range(dims[h]):
            for b in range(dims[t]):
                key = (offsets[t] + b, offsets[h] + a)
                key = key if key[0] != key[1] else (0, 0)
                if key in seen:
                    seen[key] += 1
                else:
                    seen[key] = 1
    return seen


def torus_weights(quiver: ExtendedQuiver, dims) -> WeightSet:
    """Weights of the diagonal torus on the matrix entry slots: one row per
    key of ``weight_keys``, in its order.  Warns when they fail to span."""
    dims = validate_dims(quiver, dims)
    n = sum(dims)
    seen = weight_keys(quiver, dims)
    vectors = np.zeros((len(seen), n))
    for row, (plus, minus) in enumerate(seen):
        vectors[row, plus] += 1.0
        vectors[row, minus] -= 1.0
    mult = np.array(list(seen.values()), dtype=int)
    ws = WeightSet(vectors=vectors, multiplicities=mult, num_coords=n)
    degenerate = not vectors.any()
    if not ws.spans_torus or degenerate:
        warnings.warn(
            "torus weights do not span: the diagonal torus acts with a kernel",
            stacklevel=2,
        )
    return ws


def theta_coordinates(theta_values, dims) -> np.ndarray:
    """Expand per-vertex weights into the per-(vertex, diagonal) coordinates."""
    return np.concatenate(
        [np.full(d, float(t)) for t, d in zip(theta_values, dims)]
    ) if len(dims) else np.zeros(0)


def nonnegative_lstsq(a, b):
    """Lawson-Hanson active-set iteration for min ||a c - b|| over c >= 0.

    ``a`` has one column per generator.  Builds the passive set one most
    descending coordinate at a time, stepping back to the boundary whenever
    the unconstrained subproblem leaves the orthant.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, k = a.shape
    maxiter = 3 * max(k, 1) + 20
    dual_tol = 10 * np.finfo(float).eps * max(n, k) * max(
        1.0, float(np.abs(b).max(initial=0.0))
    ) * max(1.0, float(np.abs(a).max(initial=1.0)))
    coeff = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    resid = b - a @ coeff
    objective = float(resid @ resid)
    for _ in range(maxiter):
        dual = a.T @ resid
        dual[passive] = -np.inf
        if k == 0 or np.max(dual) <= dual_tol:
            return coeff, objective
        passive[int(np.argmax(dual))] = True
        for _ in range(maxiter):
            sol, *_ = np.linalg.lstsq(a[:, passive], b, rcond=None)
            if np.all(sol > 0.0):
                coeff = np.zeros(k)
                coeff[passive] = sol
                break
            idx = np.flatnonzero(passive)
            cur = coeff[idx]
            drop = sol <= 0.0
            denom = cur[drop] - sol[drop]
            steps = np.where(denom > 0, cur[drop] / denom, 0.0)
            alpha = float(np.min(steps))
            coeff[idx] = cur + alpha * (sol - cur)
            passive[idx[coeff[idx] <= 1e-14]] = False
            coeff[~passive] = 0.0
        else:
            raise ConeProjectionError("inner active-set iteration did not settle")
        resid = b - a @ coeff
        updated = float(resid @ resid)
        # rounding-level duals can suggest additions that cannot actually
        # improve; stopping on no representable progress prevents cycling
        if updated > objective - 1e-14 * (1.0 + objective):
            return coeff, updated
        objective = updated
    raise ConeProjectionError("active-set iteration cap exceeded")


def _project(vectors, theta):
    """cone_project on float arrays, plus the nonnegative coefficients."""
    if vectors.size == 0:
        return np.zeros_like(theta), float(theta @ theta), np.zeros(len(vectors))
    a = vectors.T  # columns are generators
    coeff, _ = nonnegative_lstsq(a, theta)
    beta = a @ coeff
    resid = theta - beta
    dual = vectors @ resid
    scale = 1.0 + float(np.abs(theta).max(initial=0.0)) * max(
        1.0, float(np.abs(vectors).max(initial=0.0))
    )
    if np.any(dual > KKT_TOL * scale) or abs(float(coeff @ dual)) > KKT_TOL * scale:
        raise ConeProjectionError("projection failed the KKT certificate")
    return beta, float(resid @ resid), coeff


def cone_project(vectors, theta):
    """Euclidean projection of theta onto the cone of nonnegative combinations.

    Runs the active-set nonnegative least-squares iteration on the generator
    matrix and verifies the KKT conditions; returns (projection, squared
    distance)."""
    return _project(np.asarray(vectors, dtype=float), _finite_theta(theta))[:2]


def _finite_theta(theta):
    """theta as a float array; ValueError naming it when an entry is not finite."""
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError(f"theta must be finite, got {theta.tolist()}")
    return theta


def _subcones(vectors, theta):
    """Search the subset cones from the whole weight set down, yielding
    (squared distance, support) per visited subset, the whole set first.  The
    support (weights with a positive coefficient) is None when the cone misses
    theta; below a cone that reaches theta the search drops one support weight
    at a time, projecting each subset at most once."""
    k = len(vectors)
    if 2 ** k > DEFAULT_SUBSET_CAP:
        raise SubsetCapError(f"2^{k} subsets exceed the cap {DEFAULT_SUBSET_CAP}")
    theta = _finite_theta(theta)
    gap = MEMBERSHIP_TOL * (1.0 + float(np.linalg.norm(theta)))
    stack = [(1 << k) - 1]
    seen = set(stack)
    while stack:
        mask = stack.pop()
        idx = [i for i in range(k) if mask >> i & 1]
        _, dist_sq, coeff = _project(vectors[idx], theta)
        if math.sqrt(dist_sq) > gap:
            yield dist_sq, None
            continue
        support = [i for i, c in zip(idx, coeff) if c > 0.0]
        yield dist_sq, support
        for i in support:
            child = mask & ~(1 << i)
            if child not in seen:
                seen.add(child)
                stack.append(child)


def d_theta(weights: WeightSet, theta) -> float:
    """Certified semistability radius: the squared distance from theta to the
    nearest subset-cone projection different from theta itself.

    The distance only shrinks as a subset grows, so the least one is reached
    on a maximal subset whose cone misses theta; the subcone search visits all
    of those.  +inf when every projection lands on theta.  Raises
    ``SubsetCapError`` when the 2^k subsets of the distinct weights (not the
    projections run) exceed ``DEFAULT_SUBSET_CAP``.
    """
    visits = _subcones(weights.vectors, theta)
    return min((dist_sq for dist_sq, support in visits if support is None), default=math.inf)


def in_C_reg(weights: WeightSet, theta) -> bool:
    """Membership of theta in the regular part of the weight cone: inside the
    full cone but outside every subcone of deficient span, that is (by
    Caratheodory) outside the cone of every set of fewer than ``torus_dim``
    weights; the subcone search reaches such a set as a support if one exists."""
    visits = _subcones(weights.vectors, theta)
    _, support = next(visits)  # the whole weight set comes first
    if support is None:
        return False
    full_dim = weights.torus_dim
    return len(support) >= full_dim and all(s is None or len(s) >= full_dim for _, s in visits)


def parse_rational(text) -> Fraction:
    """Parse "p/q" or integer strings (and ints) into exact rationals."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    text = str(text)
    if len(text) > RATIONAL_MAX_CHARS:
        raise ValueError(f"rational string longer than {RATIONAL_MAX_CHARS} characters")
    exponent = re.search(r"e([-+]?[\d_]+)\s*$", text, re.IGNORECASE)
    if exponent and abs(int(exponent.group(1))) > RATIONAL_MAX_EXPONENT:
        raise ValueError(f"rational exponent beyond {RATIONAL_MAX_EXPONENT} in size")
    return Fraction(text)


@dataclass(frozen=True)
class RationalThetaTriple:
    """Exact rational hyperkahler parameter, one weight vector per structure."""

    theta_I: tuple
    theta_J: tuple
    theta_K: tuple
    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        for name in ("theta_I", "theta_J", "theta_K"):
            vals = tuple(parse_rational(v) for v in getattr(self, name))
            if len(vals) != len(dims):
                raise ValueError(f"{name} has the wrong length")
            if sum(v * d for v, d in zip(vals, dims)) != 0:
                raise ValueError(f"{name} violates the exact balance constraint")
            object.__setattr__(self, name, vals)
        object.__setattr__(self, "dims", dims)

    def components(self):
        return (self.theta_I, self.theta_J, self.theta_K)

    def as_floats(self):
        return tuple(tuple(float(v) for v in comp) for comp in self.components())


def _proper_dim_vectors(dims):
    total = 1
    for d in dims:
        total *= d + 1
    if total > ENUMERATION_CAP:
        raise EnumerationCapError(f"{total} dimension vectors exceed the cap {ENUMERATION_CAP}")
    zero = tuple(0 for _ in dims)
    full = tuple(dims)
    for w in itertools.product(*(range(d + 1) for d in dims)):
        if w != zero and w != full:
            yield w


def _first_wall(dims, rational_vectors):
    """The first intermediate dimension vector w with sum_j w_j v_j = 0 for
    every exact rational vector v of ``rational_vectors``, or None."""
    for w in _proper_dim_vectors(dims):
        if all(sum(c * v for c, v in zip(w, vector)) == 0 for vector in rational_vectors):
            return w
    return None


def hyperkahler_regular_check(dims, triple: RationalThetaTriple):
    """Exact wall test for the hyperkahler parameter space.

    Returns (True, None) when no intermediate dimension vector annihilates all
    three components, else (False, w) with the first violating w.
    """
    dims = tuple(int(d) for d in dims)
    if triple.dims != dims:
        raise ValueError("triple is bound to a different dimension vector")
    wall = _first_wall(dims, triple.components())
    return wall is None, wall


def complex_regular_check(dims, xi) -> bool:
    """Exact wall test for the complex parameter space.

    ``xi`` is a sequence of (re, im) exact rational pairs; membership requires
    the balance constraint and avoidance of every intermediate wall.
    """
    dims = tuple(int(d) for d in dims)
    pairs = [(parse_rational(re), parse_rational(im)) for re, im in xi]
    if len(pairs) != len(dims):
        raise ValueError("xi has the wrong length")
    parts = [tuple(re for re, _ in pairs), tuple(im for _, im in pairs)]
    if any(sum(d * v for d, v in zip(dims, part)) != 0 for part in parts):
        return False
    return _first_wall(dims, parts) is None


def regular_walls(dims):
    """All intermediate dimension vectors indexing walls of the regular loci;
    exposed so callers can draw parameter paths that avoid them."""
    return list(_proper_dim_vectors(tuple(int(d) for d in dims)))
