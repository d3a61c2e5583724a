"""Block-diagonal groups and Lie algebras acting on representation space.

The acting group has one invertible block per vertex with determinant product
one; its maximal compact subgroup has unitary blocks.  The compact Lie algebra
consists of per-vertex skew-hermitian blocks with vanishing trace sum.  The
pairing used throughout is the positive definite Frobenius form
sum_j Re tr(Y_j Z_j^dagger); the sign conventions of the central elements and
of the moment maps are calibrated once against the norm-derivative oracle (see
moment.py) and then fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .layout import (
    act_stacks,
    dagger,
    eigh_i_stacks,
    exp_i_stacks,
    infinitesimal_action_stacks,
    real_coordinates,
    trial_stacks,
    vdot_real_stacks,
    vertex_layout,
)
from .quiver import Representation, rotate_to_I

SKEW_TOL = 1e-12
TRACE_TOL = 1e-12
DET_TOL = 1e-10


def _square_blocks(blocks):
    """Complex square blocks and their sizes."""
    checked = []
    for j, b in enumerate(blocks):
        b = np.asarray(b, dtype=complex)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"block {j} is not square")
        checked.append(b)
    return checked, tuple(b.shape[0] for b in checked)


class _VertexStacks:
    """One square matrix per vertex, held once as ``stacks``: the blocks
    stacked by dimension class (see ``layout.VertexLayout``), read-only.
    ``blocks`` are read-only views into the stacks, made on first use."""

    __slots__ = ("dims", "stacks", "_blocks")

    def __init__(self, blocks):
        blocks, dims = _square_blocks(blocks)
        self._hold(dims, vertex_layout(dims).stack(blocks))

    def _hold(self, dims, stacks):
        for s in stacks:
            s.flags.writeable = False
        self.dims = dims
        self.stacks = tuple(stacks)
        self._blocks = None

    @classmethod
    def from_stacks(cls, dims, stacks):
        """An element from per-class stacks, trusted as they come from the
        kernels: no copy and no check."""
        out = object.__new__(cls)
        out._hold(tuple(dims), stacks)
        return out

    @property
    def layout(self):
        return vertex_layout(self.dims)

    @property
    def blocks(self):
        if self._blocks is None:
            self._blocks = tuple(self.layout.unstack(self.stacks))
        return self._blocks


class VertexMatrices(_VertexStacks):
    """Per-vertex complex square matrices; element of the full block algebra.

    Carries the real-vector-space operations shared by Lie algebra elements
    and by outputs such as the complex moment map, which are not
    skew-hermitian.
    """

    __slots__ = ()

    @classmethod
    def zero(cls, dims):
        layout = vertex_layout(tuple(int(d) for d in dims))
        return cls.from_stacks(layout.dims, layout.zeros())

    def trace_sum(self) -> complex:
        return complex(self.layout.ordered_sum([np.trace(s, axis1=1, axis2=2) for s in self.stacks]))

    def _check_dims(self, other):
        if self.dims != other.dims:
            raise ValueError("elements have mismatched dimension vectors")

    def _new(self, stacks):
        return type(self).from_stacks(self.dims, stacks)

    def __add__(self, other):
        self._check_dims(other)
        return self._new([a + b for a, b in zip(self.stacks, other.stacks)])

    def __sub__(self, other):
        self._check_dims(other)
        return self._new([a - b for a, b in zip(self.stacks, other.stacks)])

    def __mul__(self, scalar):
        return self._new([scalar * s for s in self.stacks])

    __rmul__ = __mul__

    def __neg__(self):
        return self._new([-s for s in self.stacks])

    def __repr__(self):
        return f"{type(self).__name__}(dims={self.dims}, norm={pairing_norm(self):.6g})"


class LieAlgebraElement(VertexMatrices):
    """Element of the compact Lie algebra: skew-hermitian blocks, trace sum zero."""

    __slots__ = ()

    def __init__(self, blocks):
        super().__init__(blocks)
        scale = 1.0 + max((np.abs(s).max() for s in self.stacks if s.size), default=0.0)
        for j, b in enumerate(self.blocks):
            if b.size and np.abs(b + b.conj().T).max() > SKEW_TOL * scale:
                raise ValueError(f"block {j} is not skew-hermitian")
        if abs(self.trace_sum()) > TRACE_TOL * scale * max(1, sum(self.dims)):
            raise ValueError("trace sum does not vanish")

    def __mul__(self, scalar):
        cls = VertexMatrices if complex(scalar).imag != 0.0 else LieAlgebraElement
        return cls.from_stacks(self.dims, [scalar * s for s in self.stacks])

    __rmul__ = __mul__

    def __add__(self, other):
        self._check_dims(other)
        cls = LieAlgebraElement if isinstance(other, LieAlgebraElement) else VertexMatrices
        return cls.from_stacks(self.dims, [a + b for a, b in zip(self.stacks, other.stacks)])

    def __sub__(self, other):
        return self.__add__(-1.0 * other) if isinstance(other, VertexMatrices) else NotImplemented

    @classmethod
    def project(cls, blocks) -> "LieAlgebraElement":
        """Orthogonal projection of arbitrary blocks onto the compact algebra.

        Skew-hermitianizes each block and removes the trace-sum component;
        used to clean float dust off quantities that are in the algebra up to
        rounding (polar factors, solver updates).
        """
        m = VertexMatrices(blocks)
        return cls.from_stacks(m.dims, _projected(m.layout, m.stacks))


def _projected(layout, stacks):
    """Stacks of the orthogonal projection onto the compact algebra (see
    ``LieAlgebraElement.project``)."""
    skewed = [0.5 * (s - dagger(s)) for s in stacks]
    tau = np.complex128(layout.ordered_sum([np.trace(s, axis1=1, axis2=2) for s in skewed])) / sum(layout.dims)
    return [s - tau * np.eye(d) for s, d in zip(skewed, layout.class_dims)]


def pairing(y: VertexMatrices, z: VertexMatrices) -> float:
    """Invariant inner product sum_j Re tr(Y_j Z_j^dagger).

    Symmetric, Ad-invariant under the unitary blocks, and positive definite.
    """
    y._check_dims(z)
    return float(y.layout.ordered_sum(vdot_real_stacks(z.stacks, y.stacks)))


def pairing_norm(y: VertexMatrices) -> float:
    return math.sqrt(max(pairing(y, y), 0.0))


@dataclass(frozen=True)
class StabilityParameter:
    """Per-vertex real weights theta with sum_j theta_j v_j = 0."""

    values: tuple
    dims: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        dims = tuple(int(d) for d in self.dims)
        if len(values) != len(dims):
            raise ValueError("theta and dimension vector have different lengths")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("theta must be finite")
        scale = 1.0 + max((abs(v) for v in values), default=0.0) * max(sum(dims), 1)
        if abs(sum(v * d for v, d in zip(values, dims))) > 1e-12 * scale:
            raise ValueError("sum_j theta_j v_j must vanish")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dims", dims)

    def __mul__(self, scalar):
        return StabilityParameter(tuple(scalar * v for v in self.values), self.dims)

    __rmul__ = __mul__

    def __add__(self, other):
        if self.dims != other.dims:
            raise ValueError("mismatched dimension vectors")
        return StabilityParameter(
            tuple(a + b for a, b in zip(self.values, other.values)), self.dims
        )

    def __sub__(self, other):
        return self + (-1.0) * other


def balanced_theta(values, dims) -> StabilityParameter:
    """Project arbitrary per-vertex reals onto the admissible constraint."""
    values = np.asarray(values, dtype=float)
    d = np.asarray(dims, dtype=float)
    shift = float(values @ d) / float(d @ d) if d @ d > 0 else 0.0
    return StabilityParameter(tuple(values - shift * d), tuple(int(v) for v in dims))


def theta_to_center(theta: StabilityParameter) -> LieAlgebraElement:
    """Central element matched to the character of theta.

    The blocks are i*theta_j*Id; the sign is the one for which
    pairing(theta_to_center(theta), Y) equals i times the character
    differential, equivalently for which the norm-derivative oracle of the
    moment map holds with the pairing above.
    """
    layout = vertex_layout(theta.dims)
    values = 1j * np.asarray(theta.values)
    stacks = [values[m][:, None, None] * np.eye(d) for d, m in zip(layout.class_dims, layout.members)]
    return LieAlgebraElement.from_stacks(theta.dims, stacks)


def center_to_theta(mu: VertexMatrices) -> StabilityParameter:
    """Extract the per-vertex weights of an (approximately) central element."""
    values = []
    for b in mu.blocks:
        d = b.shape[0]
        values.append(float((np.trace(b) / (1j * d)).real) if d else 0.0)
    values = np.asarray(values)
    d = np.asarray(mu.dims, dtype=float)
    if d @ d > 0:
        values = values - (values @ d) / (d @ d) * d
    return StabilityParameter(tuple(values), mu.dims)


class GroupElement(_VertexStacks):
    """Per-vertex invertible blocks with determinant product one."""

    __slots__ = ()

    def __init__(self, blocks):
        super().__init__(blocks)
        det = self.det_product()
        if not np.isfinite(det) or abs(det - 1.0) > DET_TOL * (1.0 + abs(det)):
            raise ValueError(f"determinant product {det:.6g} is not 1; not a group element")

    @classmethod
    def identity(cls, dims):
        zero = VertexMatrices.zero(dims)
        return cls.from_stacks(zero.dims, [s + np.eye(s.shape[1]) for s in zero.stacks])

    @classmethod
    def exp_i(cls, y: LieAlgebraElement, t=1.0) -> "GroupElement":
        """exp(i t Y): hermitian-positive blocks from unitary diagonalization."""
        return cls.from_stacks(y.dims, exp_i_stacks(y.stacks, t))

    def det_product(self) -> complex:
        dets = [np.linalg.det(s) for s in self.stacks]
        det = 1.0 + 0.0j
        for c, i in self.layout.slots:
            det *= dets[c][i]
        return complex(det)

    def compose(self, other: "GroupElement") -> "GroupElement":
        if self.dims != other.dims:
            raise ValueError("mismatched dimension vectors")
        return GroupElement.from_stacks(self.dims, [a @ b for a, b in zip(self.stacks, other.stacks)])

    def inverse(self) -> "GroupElement":
        try:
            inv = [np.linalg.inv(s) for s in self.stacks]
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular block in group element") from exc
        return GroupElement.from_stacks(self.dims, inv)

    def is_unitary(self, tol=1e-10) -> bool:
        return all(np.abs(s @ dagger(s) - np.eye(s.shape[1])).max() <= tol for s in self.stacks if s.size)

    def __repr__(self):
        return f"GroupElement(dims={self.dims})"


def _check_same_dims(elem, x: Representation):
    if elem.dims != x.dims:
        raise ValueError("dimension vectors of the block element and the representation differ")


def act(g: GroupElement, x: Representation, structure="I") -> Representation:
    """Group action on a representation in the chosen complex structure.

    Structure I is the natural linear action g_h phi g_t^{-1}; J and K are the
    I-action conjugated by the hyperkahler rotation.
    """
    if structure != "I":
        return rotate_to_I(structure, act(g, rotate_to_I(structure, x)), back=True)
    _check_same_dims(g, x)
    return x.replace_stacks(act_stacks(x.layout, g.stacks, x.stacks))


def exp_action(y: LieAlgebraElement, t, structure, x: Representation) -> Representation:
    """Flow x along exp(t s Y) for the chosen complex structure s."""
    return act(GroupElement.exp_i(y, t), x, structure)


def exp_action_stacks(layout, y_stacks, t, stacks):
    """Stacks of exp(i t Y).x, or None when the exponential overflows or has a
    singular block, which descent loops treat as a rejected step: the
    one-trial case of ``layout.trial_stacks``."""
    _, ok, trials, _ = trial_stacks(layout, eigh_i_stacks(y_stacks), (t,), stacks)
    return [s[0] for s in trials] if ok[0] else None


def infinitesimal_action(y: VertexMatrices, x: Representation) -> Representation:
    """Derivative of the action: blocks Y_h phi - phi Y_t.

    Accepts any block-algebra element, not only skew-hermitian ones.
    """
    _check_same_dims(y, x)
    return x.replace_stacks(infinitesimal_action_stacks(x.layout, y.stacks, x.stacks))


def character_log_modulus(theta: StabilityParameter, g: GroupElement) -> float:
    """log of the squared modulus of the character: -2 sum theta_j log|det g_j|."""
    values, terms = np.asarray(theta.values), []
    for s, m in zip(g.stacks, g.layout.members):
        sign, logabsdet = np.linalg.slogdet(s)
        if np.any(sign == 0) or not np.all(np.isfinite(logabsdet)):
            raise ValueError("singular block in group element")
        terms.append(-(2.0 * values[m]) * logabsdet)
    # adding -(2 t log|det|) is subtracting 2 t log|det|; a zero-dimension
    # vertex adds 2 t * 0.0, which leaves the total as it is
    return float(g.layout.ordered_sum(terms))


class UvBasis:
    """Orthonormal real basis of the compact Lie algebra for fixed dimensions.

    Off-diagonal generators (E_ab - E_ba)/sqrt2 and i(E_ab + E_ba)/sqrt2 per
    vertex, plus i*diag directions spanning the zero-sum diagonal subspace.
    The basis is held as vertex-class stacks with a leading basis axis,
    ``stacks[c]`` of shape (dim, n_c, d, d); coordinates are taken against
    the real coordinates of the blocks (``layout.real_coordinates``).
    """

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)
        vertices = vertex_layout(self.dims)
        total = sum(self.dims)
        self.dim = sum(d * (d - 1) for d in self.dims) + max(total - 1, 0)
        stacks = vertices.zeros((self.dim,))
        k = 0
        for (c, i), d in zip(vertices.slots, self.dims):
            a, b = np.triu_indices(d, 1)
            first = k + 2 * np.arange(a.size)
            stacks[c][first, i, a, b] = 1.0 / math.sqrt(2.0)
            stacks[c][first, i, b, a] = -1.0 / math.sqrt(2.0)
            stacks[c][first + 1, i, a, b] = 1j / math.sqrt(2.0)
            stacks[c][first + 1, i, b, a] = 1j / math.sqrt(2.0)
            k += 2 * a.size
        if total > 1:
            # orthonormal rows spanning the zero-sum hyperplane of R^total
            diagonal = 1j * np.linalg.svd(np.ones((1, total)))[2][1:]
            bounds = np.cumsum((0,) + self.dims)
            for (c, i), d, pos in zip(vertices.slots, self.dims, bounds):
                stacks[c][k:, i, range(d), range(d)] = diagonal[:, pos:pos + d]
        for s in stacks:
            s.flags.writeable = False
        self.stacks = tuple(stacks)
        self._vertices = vertices
        self._by_class = np.argsort(vertices.real_order)
        self._matrix = real_coordinates(vertices, stacks) if self.dim else np.zeros((0, vertices.real_order.size))

    def coords(self, y: VertexMatrices) -> np.ndarray:
        return self._matrix @ real_coordinates(self._vertices, y.stacks)

    def from_coords(self, c) -> LieAlgebraElement:
        flat = (np.asarray(c, dtype=float) @ self._matrix)[self._by_class]
        stacks, pos = [], 0
        for d, m in zip(self._vertices.class_dims, self._vertices.members):
            part = flat[pos:pos + 2 * len(m) * d * d].reshape(len(m), 2, d, d)
            stacks.append(part[:, 0] + 1j * part[:, 1])
            pos += part.size
        return LieAlgebraElement.from_stacks(self.dims, stacks)


@lru_cache(maxsize=None)
def uv_basis(dims) -> UvBasis:
    return UvBasis(dims)


def tangent_matrix(x: Representation) -> np.ndarray:
    """Real matrix of Y -> infinitesimal_action(Y, x): one row per basis
    element of the compact algebra, flattened as real then imaginary parts."""
    basis = uv_basis(x.dims)
    layout = x.layout
    if not (basis.dim and layout.groups):
        return np.zeros((basis.dim, layout.real_order.size))
    return real_coordinates(layout, infinitesimal_action_stacks(layout, basis.stacks, x.stacks))


def stabilizer_lie_dim(x: Representation) -> int:
    """Dimension of the compact-algebra stabilizer of x.

    Rank of Y -> infinitesimal_action(Y, x) over the orthonormal basis, with
    singular values below 1e-9 of the largest treated as zero.  Zero means the
    stabilizer is finite.
    """
    basis = uv_basis(x.dims)
    if basis.dim == 0:
        return 0
    mat = tangent_matrix(x)
    if mat.size == 0:
        return basis.dim
    s = np.linalg.svd(mat, compute_uv=False)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > 1e-9 * smax)) if smax > 0 else 0
    return basis.dim - rank


def polar_decompose(g: GroupElement):
    """Unique factorization g = h exp(iY) with h unitary and iY hermitian.

    iY is half the hermitian logarithm of g^dagger g; the trace-sum constraint
    on Y holds automatically when g has determinant product one.
    """
    y_stacks, h_stacks = [], []
    for s in g.stacks:
        if s.shape[1] == 0:
            y_stacks.append(np.zeros_like(s))
            h_stacks.append(np.zeros_like(s))
            continue
        w, u = np.linalg.eigh(dagger(s) @ s)
        if np.any(w[:, 0] <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("singular block in group element")
        # iY = log(gram)/2, exp(-iY) = gram^{-1/2}
        u_dagger = dagger(u)
        y_stacks.append(-1j * ((u * (0.5 * np.log(w))[:, None, :]) @ u_dagger))
        h_stacks.append(s @ ((u * (1.0 / np.sqrt(w))[:, None, :]) @ u_dagger))
    y = LieAlgebraElement.from_stacks(g.dims, _projected(g.layout, y_stacks))
    return GroupElement.from_stacks(g.dims, h_stacks), y
