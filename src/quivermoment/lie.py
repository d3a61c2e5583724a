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

from .layout import act_stacks, exp_i_stacks, infinitesimal_action_stacks, vertex_layout
from .quiver import Representation, rotate_to_I

SKEW_TOL = 1e-12
TRACE_TOL = 1e-12
DET_TOL = 1e-10


def _square_blocks(blocks, copy):
    """Read-only complex square blocks (copied when ``copy``) and their sizes."""
    stored = []
    for j, b in enumerate(blocks):
        b = np.array(b, dtype=complex) if copy else np.asarray(b, dtype=complex)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"block {j} is not square")
        b.flags.writeable = False
        stored.append(b)
    return tuple(stored), tuple(b.shape[0] for b in stored)


class VertexMatrices:
    """Per-vertex complex square matrices; element of the full block algebra.

    Carries the real-vector-space operations shared by Lie algebra elements
    and by outputs such as the complex moment map, which are not
    skew-hermitian.
    """

    __slots__ = ("blocks", "dims")

    def __init__(self, blocks, copy=True):
        self.blocks, self.dims = _square_blocks(blocks, copy)

    @classmethod
    def zero(cls, dims):
        return cls([np.zeros((d, d), dtype=complex) for d in dims], copy=False)

    def block(self, j):
        return self.blocks[j]

    def trace_sum(self) -> complex:
        return complex(sum(np.trace(b) for b in self.blocks))

    def _check_dims(self, other):
        if self.dims != other.dims:
            raise ValueError("elements have mismatched dimension vectors")

    def _new(self, blocks):
        return type(self)(blocks, copy=False)

    def __add__(self, other):
        self._check_dims(other)
        return self._new([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._check_dims(other)
        return self._new([a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, scalar):
        return self._new([scalar * b for b in self.blocks])

    __rmul__ = __mul__

    def __neg__(self):
        return self._new([-b for b in self.blocks])

    def __repr__(self):
        return f"{type(self).__name__}(dims={self.dims}, norm={pairing_norm(self):.6g})"


class LieAlgebraElement(VertexMatrices):
    """Element of the compact Lie algebra: skew-hermitian blocks, trace sum zero."""

    __slots__ = ()

    def __init__(self, blocks, copy=True, check=True):
        super().__init__(blocks, copy=copy)
        if check:
            scale = 1.0 + max((np.abs(b).max() if b.size else 0.0) for b in self.blocks) \
                if self.blocks else 1.0
            for j, b in enumerate(self.blocks):
                if b.size and np.abs(b + b.conj().T).max() > SKEW_TOL * scale:
                    raise ValueError(f"block {j} is not skew-hermitian")
            if abs(self.trace_sum()) > TRACE_TOL * scale * max(1, sum(self.dims)):
                raise ValueError("trace sum does not vanish")

    def __mul__(self, scalar):
        if complex(scalar).imag != 0.0:
            return VertexMatrices([scalar * b for b in self.blocks], copy=False)
        return LieAlgebraElement(
            [scalar * b for b in self.blocks], copy=False, check=False
        )

    __rmul__ = __mul__

    def __neg__(self):
        return LieAlgebraElement([-b for b in self.blocks], copy=False, check=False)

    def __add__(self, other):
        self._check_dims(other)
        blocks = [a + b for a, b in zip(self.blocks, other.blocks)]
        if isinstance(other, LieAlgebraElement):
            return LieAlgebraElement(blocks, copy=False, check=False)
        return VertexMatrices(blocks, copy=False)

    def __sub__(self, other):
        return self.__add__(-1.0 * other) if isinstance(other, VertexMatrices) else NotImplemented

    @classmethod
    def zero(cls, dims):
        return cls([np.zeros((d, d), dtype=complex) for d in dims], copy=False, check=False)

    @classmethod
    def project(cls, blocks) -> "LieAlgebraElement":
        """Orthogonal projection of arbitrary blocks onto the compact algebra.

        Skew-hermitianizes each block and removes the trace-sum component;
        used to clean float dust off quantities that are in the algebra up to
        rounding (polar factors, solver updates).
        """
        skewed = [np.asarray(b, dtype=complex) for b in blocks]
        skewed = [0.5 * (b - b.conj().T) for b in skewed]
        total = sum(b.shape[0] for b in skewed)
        tau = sum(np.trace(b) for b in skewed) / total
        fixed = [b - tau * np.eye(b.shape[0]) for b in skewed]
        return cls(fixed, copy=False, check=False)


def pairing(y: VertexMatrices, z: VertexMatrices) -> float:
    """Invariant inner product sum_j Re tr(Y_j Z_j^dagger).

    Symmetric, Ad-invariant under the unitary blocks, and positive definite.
    """
    y._check_dims(z)
    return float(sum(np.vdot(zb, yb).real for yb, zb in zip(y.blocks, z.blocks)))


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
    blocks = [1j * t * np.eye(d) for t, d in zip(theta.values, theta.dims)]
    return LieAlgebraElement(blocks, copy=False, check=False)


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


class GroupElement:
    """Per-vertex invertible blocks with determinant product one."""

    __slots__ = ("blocks", "dims")

    def __init__(self, blocks, copy=True, check=True):
        self.blocks, self.dims = _square_blocks(blocks, copy)
        if check:
            det = self.det_product()
            if not np.isfinite(det) or abs(det - 1.0) > DET_TOL * (1.0 + abs(det)):
                raise ValueError(
                    f"determinant product {det:.6g} is not 1; not a group element"
                )

    @classmethod
    def identity(cls, dims):
        return cls([np.eye(d, dtype=complex) for d in dims], copy=False, check=False)

    @classmethod
    def exp_i(cls, y: LieAlgebraElement, t=1.0) -> "GroupElement":
        """exp(i t Y): hermitian-positive blocks from unitary diagonalization."""
        vertices = vertex_layout(y.dims)
        blocks = vertices.unstack(exp_i_stacks(vertices.stack(y.blocks), t))
        return cls(blocks, copy=False, check=False)

    def det_product(self) -> complex:
        det = 1.0 + 0.0j
        for b in self.blocks:
            det *= np.linalg.det(b)
        return complex(det)

    def block(self, j):
        return self.blocks[j]

    def compose(self, other: "GroupElement") -> "GroupElement":
        if self.dims != other.dims:
            raise ValueError("mismatched dimension vectors")
        return GroupElement(
            [a @ b for a, b in zip(self.blocks, other.blocks)], copy=False, check=False
        )

    def inverse(self) -> "GroupElement":
        try:
            inv = [np.linalg.inv(b) for b in self.blocks]
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular block in group element") from exc
        return GroupElement(inv, copy=False, check=False)

    def is_unitary(self, tol=1e-10) -> bool:
        return all(
            np.abs(b @ b.conj().T - np.eye(b.shape[0])).max() <= tol
            for b in self.blocks
            if b.size
        )

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
    layout = x.layout
    return x.replace_stacks(act_stacks(layout, layout.vertices.stack(g.blocks), x.stacks))


def exp_action(y: LieAlgebraElement, t, structure, x: Representation) -> Representation:
    """Flow x along exp(t s Y) for the chosen complex structure s."""
    g = GroupElement.exp_i(y, t)
    return act(g, x, structure)


def exp_action_stacks(layout, y_stacks, t, stacks):
    """Stacks of exp(i t Y).x, or None when the exponential overflows or has a
    singular block, which descent loops treat as a rejected step."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = exp_i_stacks(y_stacks, t)
        if not all(np.all(np.isfinite(b)) for b in g):
            return None
        try:
            return act_stacks(layout, g, stacks)
        except ValueError:
            return None


def infinitesimal_action(y: VertexMatrices, x: Representation) -> Representation:
    """Derivative of the action: blocks Y_h phi - phi Y_t.

    Accepts any block-algebra element, not only skew-hermitian ones.
    """
    _check_same_dims(y, x)
    layout = x.layout
    return x.replace_stacks(
        infinitesimal_action_stacks(layout, layout.vertices.stack(y.blocks), x.stacks)
    )


def character_log_modulus(theta: StabilityParameter, g: GroupElement) -> float:
    """log of the squared modulus of the character: -2 sum theta_j log|det g_j|."""
    total = 0.0
    for t, b in zip(theta.values, g.blocks):
        if b.size == 0:
            continue
        sign, logabsdet = np.linalg.slogdet(b)
        if sign == 0 or not np.isfinite(logabsdet):
            raise ValueError("singular block in group element")
        total -= 2.0 * t * logabsdet
    return float(total)


class UvBasis:
    """Orthonormal real basis of the compact Lie algebra for fixed dimensions.

    Off-diagonal generators (E_ab - E_ba)/sqrt2 and i(E_ab + E_ba)/sqrt2 per
    vertex, plus i*diag directions spanning the zero-sum diagonal subspace.
    """

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)
        elements = []
        for j, d in enumerate(self.dims):
            for a in range(d):
                for b in range(a + 1, d):
                    m = np.zeros((d, d), dtype=complex)
                    m[a, b] = 1.0 / math.sqrt(2.0)
                    m[b, a] = -1.0 / math.sqrt(2.0)
                    elements.append(self._embed(j, m))
                    m2 = np.zeros((d, d), dtype=complex)
                    m2[a, b] = 1j / math.sqrt(2.0)
                    m2[b, a] = 1j / math.sqrt(2.0)
                    elements.append(self._embed(j, m2))
        total = sum(self.dims)
        if total > 1:
            for col in _zero_sum_basis(total):
                blocks = []
                pos = 0
                for d in self.dims:
                    blocks.append(1j * np.diag(col[pos:pos + d]))
                    pos += d
                elements.append(
                    LieAlgebraElement(blocks, copy=False, check=False)
                )
        self.elements = elements
        self.dim = len(elements)
        flat_size = sum(2 * d * d for d in self.dims)
        self._matrix = (
            np.array([_realify(e) for e in elements])
            if elements
            else np.zeros((0, flat_size))
        )

    def _embed(self, j, m):
        blocks = [
            m if k == j else np.zeros((d, d), dtype=complex)
            for k, d in enumerate(self.dims)
        ]
        return LieAlgebraElement(blocks, copy=False, check=False)

    def coords(self, y: VertexMatrices) -> np.ndarray:
        return self._matrix @ _realify(y)

    def from_coords(self, c) -> LieAlgebraElement:
        c = np.asarray(c, dtype=float)
        flat = c @ self._matrix
        blocks = []
        pos = 0
        for d in self.dims:
            n = d * d
            re = flat[pos:pos + n].reshape(d, d)
            im = flat[pos + n:pos + 2 * n].reshape(d, d)
            blocks.append(re + 1j * im)
            pos += 2 * n
        return LieAlgebraElement(blocks, copy=False, check=False)


def _zero_sum_basis(n):
    """Orthonormal rows spanning the zero-sum hyperplane of R^n (via SVD)."""
    _, _, vt = np.linalg.svd(np.ones((1, n)))
    return vt[1:]


def _realify(y: VertexMatrices) -> np.ndarray:
    parts = []
    for b in y.blocks:
        parts.append(b.real.ravel())
        parts.append(b.imag.ravel())
    return np.concatenate(parts) if parts else np.zeros(0)


@lru_cache(maxsize=None)
def uv_basis(dims) -> UvBasis:
    return UvBasis(dims)


def tangent_matrix(x: Representation) -> np.ndarray:
    """Real matrix of Y -> infinitesimal_action(Y, x): one row per basis
    element of the compact algebra, flattened as real then imaginary parts."""
    return np.array([_realify(infinitesimal_action(e, x)) for e in uv_basis(x.dims).elements])


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
    y_blocks = []
    h_blocks = []
    for b in g.blocks:
        if b.size == 0:
            y_blocks.append(np.zeros_like(b))
            h_blocks.append(np.zeros_like(b))
            continue
        gram = b.conj().T @ b
        w, u = np.linalg.eigh(gram)
        if w[0] <= 0 or not np.all(np.isfinite(w)):
            raise ValueError("singular block in group element")
        # iY = log(gram)/2, exp(-iY) = gram^{-1/2}
        y_blocks.append(-1j * ((u * (0.5 * np.log(w))) @ u.conj().T))
        h_blocks.append(b @ ((u * (1.0 / np.sqrt(w))) @ u.conj().T))
    y = LieAlgebraElement.project(y_blocks)
    h = GroupElement(h_blocks, copy=False, check=False)
    return h, y
