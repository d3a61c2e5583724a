"""Seeded random instances at desk scale.

Everything takes an explicit numpy Generator so certificates and reports are
reproducible.  Two instance families matter:

* generic instances (any dimension vector up to 4) for oracle and algebra
  checks that need no stability assumptions;
* connected quivers with all dimensions one and edge blocks bounded away from
  zero.  For these, a graded subspace closed under all extended edge maps is
  a union of connected components, so the only subrepresentations are 0 and
  the whole space: every admissible weight vector off the slope walls makes
  them stable, and their moment values are automatically central.  They are
  the workhorse for solver, flow, and transport suites.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cones import RationalThetaTriple
from .lie import (
    GroupElement,
    LieAlgebraElement,
    StabilityParameter,
    balanced_theta,
    uv_basis,
)
from .quiver import ExtendedQuiver, Quiver, Representation, extend


def random_quiver(rng, max_vertices=4, max_edges=6) -> ExtendedQuiver:
    n = int(rng.integers(1, max_vertices + 1))
    m = int(rng.integers(1, max_edges + 1))
    edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)]
    return extend(Quiver(n, edges))


def random_connected_quiver(rng, max_vertices=4, max_edges=6) -> ExtendedQuiver:
    """Connected quiver: a random spanning tree plus extra random edges."""
    n = int(rng.integers(2, max_vertices + 1))
    edges = []
    order = rng.permutation(n)
    for k in range(1, n):
        prev = int(order[int(rng.integers(k))])
        edges.append((prev, int(order[k])) if rng.random() < 0.5 else (int(order[k]), prev))
    extra = int(rng.integers(0, max(max_edges - len(edges), 0) + 1))
    for _ in range(extra):
        edges.append((int(rng.integers(n)), int(rng.integers(n))))
    return extend(Quiver(n, edges))


def random_dims(rng, quiver: ExtendedQuiver, max_dim=4):
    return tuple(int(rng.integers(1, max_dim + 1)) for _ in range(quiver.num_vertices))


def random_representation(rng, quiver: ExtendedQuiver, dims, scale=1.0) -> Representation:
    blocks = []
    for e in range(quiver.num_edges):
        shape = (dims[quiver.head(e)], dims[quiver.tail(e)])
        blocks.append(scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))
    return Representation(quiver, dims, blocks)


def random_instance(rng, max_vertices=4, max_dim=4, max_edges=6):
    quiver = random_quiver(rng, max_vertices, max_edges)
    dims = random_dims(rng, quiver, max_dim)
    return quiver, dims, random_representation(rng, quiver, dims)


def random_uv_element(rng, dims, scale=1.0) -> LieAlgebraElement:
    basis = uv_basis(tuple(dims))
    if basis.dim == 0:
        return LieAlgebraElement.zero(tuple(dims))
    return basis.from_coords(scale * rng.normal(size=basis.dim))


def random_theta(rng, dims, scale=1.0) -> StabilityParameter:
    return balanced_theta(scale * rng.normal(size=len(dims)), dims)


def random_unit_quaternion(rng):
    """A unit quaternion (a, b, c, d): four normal draws, normalized."""
    q = rng.normal(size=4)
    return tuple(q / np.linalg.norm(q))


def random_unitary(rng, dims) -> GroupElement:
    """Haar-like unitary blocks, phase-corrected to determinant product one."""
    blocks = []
    for d in dims:
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        q = q * (diag / np.abs(diag))
        blocks.append(q)
    det = np.prod([np.linalg.det(b) for b in blocks])
    # the phase goes on the first vertex that has one; zero-dimensional
    # blocks have determinant one
    j = next((j for j, d in enumerate(dims) if d > 0), None)
    if j is not None:
        blocks[j] = blocks[j] * det ** (-1.0 / dims[j])
    return GroupElement(blocks)


def random_stable_instance(rng, max_vertices=4, max_edges=6, min_block=0.1):
    """Connected all-dimensions-one instance: stable for every off-wall theta.

    Blocks are resampled until bounded away from zero so every extended edge
    map is an isomorphism of lines.
    """
    quiver = random_connected_quiver(rng, max_vertices, max_edges)
    dims = tuple(1 for _ in range(quiver.num_vertices))
    blocks = []
    for _ in range(quiver.num_edges):
        z = 0.0
        while abs(z) < min_block:
            z = rng.normal() + 1j * rng.normal()
        blocks.append(np.array([[z]]))
    return quiver, dims, Representation(quiver, dims, blocks)


def random_chamber_theta(rng, dims, margin=0.1, scale=1.0) -> StabilityParameter:
    """Admissible theta away from every slope wall of an all-ones instance.

    For dimension-one vertices the walls are the partial sums over proper
    vertex subsets; resample until all clear the margin.
    """
    n = len(dims)
    while True:
        theta = random_theta(rng, dims, scale)
        vals = np.asarray(theta.values)
        ok = True
        for mask in range(1, 2 ** n - 1):
            sel = [(mask >> j) & 1 for j in range(n)]
            if abs(float(np.dot(sel, vals))) < margin:
                ok = False
                break
        if ok:
            return theta


def random_rational_triple(rng, dims, denominator=64, attempts=500) -> RationalThetaTriple:
    """Exact rational hyperkahler parameter off every wall, balanced exactly.

    Raises ValueError when no regular parameter turns up, which is certain
    for divisible dimension vectors (the regular locus is empty there).
    """
    from .cones import hyperkahler_regular_check

    dims = tuple(int(d) for d in dims)
    for _ in range(attempts):
        comps = []
        for _ in range(3):
            raw = [Fraction(int(rng.integers(-denominator, denominator + 1)), denominator) for _ in dims]
            total = sum(r * d for r, d in zip(raw, dims))
            raw[0] -= Fraction(total, dims[0])
            comps.append(tuple(raw))
        try:
            triple = RationalThetaTriple(*comps, dims=dims)
        except ValueError:
            continue
        ok, _ = hyperkahler_regular_check(dims, triple)
        if ok:
            return triple
    raise ValueError(f"no regular rational parameter found for dims {dims}")
