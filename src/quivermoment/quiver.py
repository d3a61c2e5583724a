"""Quiver combinatorics and the quaternionic linear algebra of representation space.

A quiver is a directed multigraph.  Doubling every edge with a reversed copy
gives the extended quiver, whose representation space carries three complex
structures I, J, K satisfying the quaternion relations.  This module holds the
combinatorial types, dense complex storage for representations, the hermitian
pairing, and the quaternionic operations (structures, hyperkahler rotation,
unit-quaternion action, symplectic forms).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .layout import EdgeLayout, HeldStacks, edge_layout, sq_norm_stacks, structure_stacks

STRUCTURES = ("I", "J", "K")


@dataclass(frozen=True)
class Quiver:
    """A directed multigraph with vertices 0..num_vertices-1.

    Edges are (tail, head) pairs; loops and parallel edges are allowed.
    """

    num_vertices: int
    edges: tuple = ()

    def __post_init__(self):
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be nonnegative")
        edges = tuple((int(t), int(h)) for t, h in self.edges)
        for k, (t, h) in enumerate(edges):
            if not (0 <= t < self.num_vertices and 0 <= h < self.num_vertices):
                raise ValueError(f"edge {k} = ({t}, {h}) has an invalid vertex index")
        object.__setattr__(self, "edges", edges)

    @property
    def num_edges(self):
        return len(self.edges)


@dataclass(frozen=True)
class ExtendedQuiver:
    """A quiver with every edge doubled by its reversal, derived from ``base``.

    Edges are ordered: the base edges first, then their reversals in the same
    order, so serialized data is portable.  Edge e < m (the base edge count)
    has sign ``epsilon`` +1 and reverses to e + m; a reversed edge has sign -1
    and reverses to e - m.  Equality and hash are those of the base.
    """

    base: Quiver
    edges: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", self.base.edges + tuple((h, t) for t, h in self.base.edges))

    @property
    def num_vertices(self):
        return self.base.num_vertices

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def epsilon(self):
        m = self.base.num_edges
        return (1,) * m + (-1,) * m

    @property
    def reversal(self):
        return tuple(map(self.reverse, range(self.num_edges)))

    def tail(self, e):
        return self.edges[e][0]

    def head(self, e):
        return self.edges[e][1]

    def reverse(self, e):
        m = self.base.num_edges
        return (e + m) % (2 * m)


def extend(quiver: Quiver) -> ExtendedQuiver:
    """Build the extended quiver: base edges followed by their reversals."""
    return ExtendedQuiver(quiver)


def validate_dims(quiver, dims):
    dims = tuple(int(d) for d in dims)
    n = quiver.num_vertices if isinstance(quiver, (Quiver, ExtendedQuiver)) else int(quiver)
    if len(dims) != n:
        raise ValueError(f"dimension vector has length {len(dims)}, expected {n}")
    if any(d < 0 for d in dims):
        raise ValueError("dimensions must be nonnegative")
    return dims


class Representation(HeldStacks):
    """A point of representation space: one complex matrix per extended edge.

    The block of edge e has shape (dims[head(e)], dims[tail(e)]).  Instances
    are immutable values; all operations return new objects.  A point holds
    its data once, as ``stacks``: the blocks stacked by shape (see
    ``layout.EdgeLayout``), which the array kernels run on.  ``blocks`` are
    read-only views into the stacks, made on first use.  A block of the wrong
    shape or with a non-finite entry is refused with ``ValueError``.
    """

    __slots__ = ("quiver",)

    def __init__(self, quiver: ExtendedQuiver, dims, blocks):
        dims = validate_dims(quiver, dims)
        if len(blocks) != quiver.num_edges:
            raise ValueError(
                f"expected {quiver.num_edges} blocks, got {len(blocks)}"
            )
        checked = []
        for e, b in enumerate(blocks):
            b = np.asarray(b, dtype=complex)
            want = (dims[quiver.head(e)], dims[quiver.tail(e)])
            if b.shape != want:
                raise ValueError(f"block {e} has shape {b.shape}, expected {want}")
            checked.append(b)
        object.__setattr__(self, "quiver", quiver)
        self._hold(dims, edge_layout(quiver, dims).stack(checked))

    @property
    def layout(self) -> EdgeLayout:
        return edge_layout(self.quiver, self.dims)

    def replace_stacks(self, stacks) -> "Representation":
        """A point of the same space from per-shape stacks, trusted as they
        come from the kernels: no copy and no shape check."""
        out = object.__new__(Representation)
        object.__setattr__(out, "quiver", self.quiver)
        out._hold(self.dims, stacks)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    @classmethod
    def zero(cls, quiver: ExtendedQuiver, dims) -> "Representation":
        dims = validate_dims(quiver, dims)
        blocks = [
            np.zeros((dims[quiver.head(e)], dims[quiver.tail(e)]), dtype=complex)
            for e in range(quiver.num_edges)
        ]
        return cls(quiver, dims, blocks)

    def same_space(self, other: "Representation"):
        return self.dims == other.dims and self.quiver == other.quiver

    def _check_space(self, other):
        if not isinstance(other, Representation) or not self.same_space(other):
            raise ValueError("representations live on different spaces")

    def __add__(self, other):
        self._check_space(other)
        return self.replace_stacks(combined_stacks(np.add, self.stacks, other.stacks))

    def __sub__(self, other):
        self._check_space(other)
        return self.replace_stacks(combined_stacks(np.subtract, self.stacks, other.stacks))

    def __mul__(self, scalar):
        # complex scalars act through the complex structure I
        scalar = finite_scalar(scalar)
        return self.replace_stacks(combined_stacks(lambda s: scalar * s, self.stacks))

    __rmul__ = __mul__

    def __neg__(self):
        return self.replace_stacks([-s for s in self.stacks])

    def __repr__(self):
        return (
            f"Representation(vertices={self.quiver.num_vertices}, "
            f"dims={self.dims}, norm_sq={norm_sq(self):.6g})"
        )


def combined_stacks(combine, *operands):
    """``combine`` applied to the operands' stacks, one shape or class at a
    time.  A result that overflows raises a FloatingPointError: finite
    points and elements sum or scale to finite ones, or to none.  Operands
    that hold non-finite entries already give what the arithmetic gives."""
    with np.errstate(over="raise"):
        try:
            return [combine(*parts) for parts in zip(*operands)]
        except FloatingPointError:
            raise FloatingPointError("arithmetic on points or elements overflowed") from None


def finite_scalar(scalar):
    """``scalar`` itself; a scalar that is not a finite real or complex
    number is refused with a ValueError that names it."""
    if not cmath.isfinite(scalar):
        raise ValueError(f"scalar {scalar!r} is not finite")
    return scalar


def inner_product(x: Representation, y: Representation) -> complex:
    """Hermitian pairing for the complex structure I: sum of tr(phi psi^dagger).

    Linear in the first argument, conjugate-linear in the second.
    """
    x._check_space(y)
    total = 0.0 + 0.0j
    for a, b in zip(x.blocks, y.blocks):
        total += np.vdot(b, a)  # vdot conjugates its first argument
    return complex(total)


def norm_sq(x: Representation) -> float:
    """Squared hermitian norm, sum over edges of tr(phi phi^dagger)."""
    return x.layout.ordered_sum(sq_norm_stacks(x.stacks))


def _check_structure(structure):
    if structure not in STRUCTURES:
        raise ValueError(f"structure must be one of {STRUCTURES}, got {structure!r}")


def apply_structure(structure, x: Representation) -> Representation:
    """Apply one of the complex structures I, J, K to a representation.

    I scales every block by the imaginary unit.  J sends the pair
    (phi_e, phi_ebar) to (-phi_ebar^dagger, phi_e^dagger) for base edges e,
    and K to (-i phi_ebar^dagger, i phi_e^dagger).  All three are isometries
    and satisfy I^2 = J^2 = K^2 = IJK = -1.
    """
    _check_structure(structure)
    return x.replace_stacks(structure_stacks(structure, x.layout, x.stacks))


def hyperkahler_rotation(x: Representation, direction="forward") -> Representation:
    """The isometry (1 + I + J + K)/2 cyclically permuting I -> J -> K.

    ``direction="inverse"`` applies (1 - I - J - K)/2, the two are mutually
    inverse.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    sign = 1.0 if direction == "forward" else -1.0
    acc = x
    for s in STRUCTURES:
        acc = acc + sign * apply_structure(s, x)
    return 0.5 * acc


def rotate_to_I(structure, x: Representation, back=False) -> Representation:
    """Carry x into the picture where ``structure`` acts as I, or ``back`` out of it.

    The J and K quantities are the I quantity conjugated by the hyperkahler
    rotation: the inverse rotation carries J to I and the forward one K to I.
    """
    _check_structure(structure)
    if structure == "I":
        return x
    inverse = (structure == "J") != back
    return hyperkahler_rotation(x, "inverse" if inverse else "forward")


def quaternion_act(q, x: Representation) -> Representation:
    """Act by a unit quaternion q = (a, b, c, d) as a + bI + cJ + dK."""
    a, b, c, d = (float(v) for v in q)
    if not all(math.isfinite(v) for v in (a, b, c, d)):
        raise ValueError(f"quaternion {tuple(q)!r} has a non-finite entry")
    if abs(a * a + b * b + c * c + d * d - 1.0) > 1e-12:
        raise ValueError("quaternion must have unit norm within 1e-12")
    out = a * x
    for coeff, s in ((b, "I"), (c, "J"), (d, "K")):
        if coeff != 0.0:
            out = out + coeff * apply_structure(s, x)
    return out


def quaternion_multiply(p, q):
    """Hamilton product of two quaternions given as (a, b, c, d) tuples."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def hyperkahler_metric(u: Representation, v: Representation) -> float:
    """The real inner product Re p_I; equal to Re p_J and Re p_K."""
    return inner_product(u, v).real


def hermitian_pairing(structure, u: Representation, v: Representation) -> complex:
    """Hermitian pairing compatible with a complex structure.

    For I this is the direct trace formula; for J and K it is recovered from
    the norm by the polarisation identity, which avoids committing to closed
    forms for the rotated pairings.
    """
    _check_structure(structure)
    if structure == "I":
        return inner_product(u, v)
    sv = apply_structure(structure, v)
    re = 0.25 * (norm_sq(u + v) - norm_sq(u - v))
    im = 0.25 * (norm_sq(u + sv) - norm_sq(u - sv))
    return complex(re, im)
