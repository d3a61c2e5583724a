"""Array-native layout of representation space and the kernels that run on it.

An ``EdgeLayout`` is built once per (extended quiver, dimension vector) and
cached.  It stacks the edge blocks of a representation by shape
(dims[head], dims[tail]) into one 3-d array per shape, and it stacks per-vertex
matrices (group elements, Lie algebra elements, moment values) by dimension
into one 3-d array per dimension class (``VertexLayout``); these stacks, held
read-only by the one base ``HeldStacks``, are the only storage of points and
of algebra and group elements.  The kernels below compute the moment maps,
the infinitesimal action (also over a leading basis axis), the group action,
exp(itY), polar logarithms, pairings and real coordinates on those stacks
with one batched numpy call per shape or class instead of one Python step
per edge or vertex.  The trials of a line search along one direction share
one eigendecomposition and run as one stack: their group elements, acted
points, norms and moment defects carry a leading trial axis.

Contract: every kernel is bit-for-bit equal to the per-edge definition it
replaces, and every trial of a stack is bit-for-bit equal to the same trial
computed alone.  Batched ``matmul``, ``inv``, ``det``, ``slogdet`` and
``eigh`` run the same per-matrix routine on each stacked matrix (a 1x1
``eigh`` is answered in closed form with the bytes that routine returns), and
elementwise operations act entry by entry.  Sums over edges or vertices are
where order matters, so they are kept in the definition's order.

- A vertex sum (the moment maps) gathers each vertex's terms into one row: a
  zero, then its head and tail terms in edge order (head term before tail
  term for each edge), padded with the zero.  ``np.add.accumulate`` along
  the row adds them one after another from zero, as the edge loop does.  A
  sum from +0 is never -0, so the padding adds nothing.  Rows of very
  different lengths are gathered in buckets, so that padding at most
  quadruples the terms gathered.  The layout plans these gathers once
  (``EdgeLayout.moment_plans``).
- A pairing or norm is a batched row-times-column product per block (equal
  to ``np.vdot``), summed left to right in edge or vertex order, one such sum
  per trial (``np.add.accumulate`` over a row that starts with a zero).

The flow and the solver move their point along the orbit through one object,
``orbit_point``, at the end of this module.  It has a stack implementation
and a torus implementation, and it is the one place that chooses: when every
entry of the dimension vector is 1 it runs on the torus kernels, 1-d real
arrays over the edges and vertices that give the stack kernels' bytes, for
the reasons given there.  Their vertex sums read the same gathers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _indices(values):
    return np.array(list(values), dtype=np.intp)


class _GroupedItems:
    """Items (vertices or edges) grouped into stacks of blocks of one shape.

    ``members[g]`` lists the items of group g in increasing order, and item k
    sits at ``slots[k] = (g, i)``: position i of group g.  ``real_order``
    takes real coordinates, flattened group by group, to item order (see
    ``real_coordinates``); there are ``real_size`` of them.
    """

    __slots__ = ("members", "slots", "real_order", "real_size", "_order")

    def __init__(self, members, shapes):
        """``shapes[g]`` is the shape of the blocks of group g."""
        slots = [None] * sum(len(m) for m in members)
        for g, items in enumerate(members):
            for i, k in enumerate(items):
                slots[k] = (g, i)
        self.members = tuple(members)
        self.slots = tuple(slots)
        # position of each item in the concatenation of the groups
        self._order = _item_order(members, [1] * len(members))
        sizes = [2 * rows * cols for rows, cols in shapes]
        self.real_order = _item_order(members, sizes)
        self.real_size = sum(size * len(m) for size, m in zip(sizes, members))

    def stack(self, blocks):
        """Per-group stacks (n_g, rows, cols) of per-item blocks.  A block
        with a non-finite entry is refused: one ``isfinite`` pass per stack,
        and the error names the first such block."""
        stacks = [np.array([blocks[k] for k in m], dtype=complex) for m in self.members]
        bad = []
        for m, s in zip(self.members, stacks):
            finite = np.isfinite(s).all(axis=(1, 2))
            bad += [m[i] for i in np.flatnonzero(~finite)]
        if bad:
            raise ValueError(f"block {min(bad)} has a non-finite entry")
        return stacks

    def unstack(self, stacks):
        """Per-item views into per-group stacks, in item order."""
        return [stacks[g][i] for g, i in self.slots]

    def ordered_sum(self, per_group, lead=()):
        """Left-to-right sum in item order of per-group scalar arrays, one per
        index of a leading axis of shape ``lead``."""
        return _ordered_sum(per_group, self._order, lead)


class VertexLayout(_GroupedItems):
    """Vertices grouped into classes of equal dimension.

    ``class_dims[c]`` is the dimension of class c and ``members[c]`` its
    vertices in increasing order; vertex v sits at ``slots[v] = (c, i)``.
    """

    __slots__ = ("dims", "class_dims")

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)
        self.class_dims = tuple(dict.fromkeys(self.dims))
        members = tuple(
            [v for v, dv in enumerate(self.dims) if dv == d] for d in self.class_dims
        )
        super().__init__(members, [(d, d) for d in self.class_dims])

    def zeros(self, lead=()):
        """Per-class zero stacks (*lead, n_c, d, d)."""
        return [np.zeros(lead + (len(m), d, d), dtype=complex) for d, m in zip(self.class_dims, self.members)]


class ShapeGroup:
    """The edges whose blocks share one shape (d_head, d_tail).

    ``head_pos``/``tail_pos`` are the positions of the edges' heads and tails
    inside their vertex classes ``head_class``/``tail_class``, and
    ``head_take``/``tail_take`` the same positions as a slice when they are
    one increasing run, so that gathering by them is a view; the reversed
    edges all lie in group ``reverse_group`` at ``reverse_pos``, and
    ``epsilon`` holds the edges' signs.
    """

    __slots__ = (
        "head_class", "tail_class", "head_pos", "tail_pos", "head_take", "tail_take", "epsilon",
        "reverse_group", "reverse_pos",
    )

    def __init__(self, quiver, shape, edges, vertices, slots):
        self.head_class = vertices.class_dims.index(shape[0])
        self.tail_class = vertices.class_dims.index(shape[1])
        self.head_pos = _indices(vertices.slots[quiver.edges[e][1]][1] for e in edges)
        self.tail_pos = _indices(vertices.slots[quiver.edges[e][0]][1] for e in edges)
        self.head_take = _take(self.head_pos)
        self.tail_take = _take(self.tail_pos)
        self.epsilon = _indices(quiver.epsilon)[list(edges)]
        reversed_edges = [quiver.reverse(e) for e in edges]
        self.reverse_group = slots[reversed_edges[0]][0]
        self.reverse_pos = _indices(slots[r][1] for r in reversed_edges)


class EdgeLayout(_GroupedItems):
    """Edges of one extended quiver with one dimension vector, grouped by block shape.

    ``slots[e] = (g, i)`` locates edge e in shape group g.  ``moment_plans[c]``
    says how the per-edge terms of the real moment map reach the vertices of
    class c: the groups that contribute head terms and tail terms, and the
    ``_buckets`` of the rows that list each vertex's terms in edge order
    (head term before tail term) as indices into the concatenation of a zero
    block, those head terms and those tail terms, after the zero block.
    ``complex_moment_plans`` does the same for the complex moment map, which
    has head terms only.  ``support_components`` counts the connected
    components of the vertices of positive dimension; a vertex of dimension
    zero cuts every edge at it.  ``torus_plan`` is None unless every
    dimension is 1 (see the torus kernels).
    """

    __slots__ = ("vertices", "groups", "moment_plans", "complex_moment_plans", "support_components", "torus_plan")

    def __init__(self, quiver, dims):
        self.vertices = vl = vertex_layout(dims)
        by_shape = {}
        for e, (t, h) in enumerate(quiver.edges):
            by_shape.setdefault((vl.dims[h], vl.dims[t]), []).append(e)
        super().__init__(list(by_shape.values()), list(by_shape))
        self.groups = tuple(
            ShapeGroup(quiver, shape, edges, vl, self.slots) for shape, edges in by_shape.items()
        )
        classes = range(len(vl.class_dims))
        self.moment_plans = tuple(self._gather_plan(c, tails=True) for c in classes)
        self.complex_moment_plans = tuple(self._gather_plan(c, tails=False) for c in classes)
        self.support_components = _support_components(vl.dims, quiver.edges)
        # the empty dimension vector is thin too
        self.torus_plan = _torus_plan(self) if set(vl.dims) <= {1} else None

    def _gather_plan(self, c, tails, pad=0):
        head_groups = [g for g, grp in enumerate(self.groups) if grp.head_class == c]
        tail_groups = [g for g, grp in enumerate(self.groups) if tails and grp.tail_class == c]
        # one (key, vertex position) per term: 2e for the head term of edge e, 2e + 1 for its tail term
        terms = [(2 * e, v) for g in head_groups
                 for e, v in zip(self.members[g], self.groups[g].head_pos.tolist())]
        terms += [(2 * e + 1, v) for g in tail_groups
                  for e, v in zip(self.members[g], self.groups[g].tail_pos.tolist())]
        # term k + 1 of the concatenation is term k above; term 0 is the zero
        # block, and the first ``pad`` rows hold it alone
        rows = [[0] for _ in range(pad + len(self.vertices.members[c]))]
        for k in sorted(range(len(terms)), key=terms.__getitem__):
            rows[pad + terms[k][1]].append(k + 1)
        return head_groups, tail_groups, _buckets(rows)


def _buckets(rows):
    """``(gathers, order)``: ``rows`` padded with 0 into (n_b, width) gathers,
    one per bucket of rows, and the index that takes the buckets' results,
    concatenated, to row order (None when that is the identity).  The rows
    are one bucket when padding them to the longest at most quadruples
    their entries: each further bucket costs a gather and a running sum per
    call, more than such padding costs on small classes.  Otherwise rows
    whose lengths have the same power-of-two ceiling share a bucket, whose
    padding then at most doubles its entries: a hub of high degree is not
    copied into every row."""
    sizes = [len(r) for r in rows]
    skewed = len(rows) * max(sizes) > 4 * sum(sizes)
    keys = [(n - 1).bit_length() if skewed else 0 for n in sizes]
    members = [[i for i, k in enumerate(keys) if k == key] for key in sorted(set(keys))]
    return tuple(_padded([rows[i] for i in m]) for m in members), _item_order(members, [1] * len(members))


def _padded(rows):
    width = max(map(len, rows))
    return _indices(r + [0] * (width - len(r)) for r in rows)


def _support_components(dims, edges):
    """Number of connected components of the vertices of positive dimension
    under the edges that join two of them."""
    parent = {v: v for v, d in enumerate(dims) if d}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for t, h in edges:
        if dims[t] and dims[h]:
            parent[root(t)] = root(h)
    return len({root(v) for v in parent})


class HeldStacks:
    """Blocks held once as ``stacks``: read-only stacks of blocks of one
    shape, grouped as the subclass's ``layout`` groups its items.  ``blocks``
    are read-only views into the stacks, made on first use."""

    __slots__ = ("dims", "stacks", "_blocks")

    def _hold(self, dims, stacks):
        for s in stacks:
            s.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "stacks", tuple(stacks))
        object.__setattr__(self, "_blocks", None)

    @property
    def blocks(self):
        if self._blocks is None:
            object.__setattr__(self, "_blocks", tuple(self.layout.unstack(self.stacks)))
        return self._blocks


@lru_cache(maxsize=256)
def vertex_layout(dims) -> VertexLayout:
    return VertexLayout(dims)


@lru_cache(maxsize=256)
def edge_layout(quiver, dims) -> EdgeLayout:
    """The cached layout of (quiver, dims); bounded so memory does not grow
    with the number of distinct quivers seen."""
    return EdgeLayout(quiver, dims)


def _take(pos):
    """Positions as a slice when they are one increasing run, else as they are."""
    if np.array_equal(pos, np.arange(pos[0], pos[0] + pos.size)):
        return slice(int(pos[0]), int(pos[0]) + pos.size)
    return pos


def _item_order(members, sizes):
    """Index that takes per-class arrays with ``sizes[c]`` entries per member,
    concatenated class by class, to member order; None when the concatenation
    is already in member order, as it is for at most one class, whose
    members are increasing."""
    if len(members) < 2:
        return None
    keys = [np.repeat(_indices(m), size) for m, size in zip(members, sizes)]
    order = np.argsort(np.concatenate(keys), kind="stable")
    return None if np.array_equal(order, np.arange(order.size)) else order


def _ordered_sum(parts, order, lead):
    if not parts:
        return np.zeros(lead) if lead else 0.0
    if not lead:
        values = [v for p in parts for v in p.tolist()]
        return _left_to_right(values if order is None else [values[i] for i in order.tolist()])
    values = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    if order is not None:
        values = values[..., order]
    # each row's running sum from zero, as the loop below adds it
    rows = values.reshape(-1, values.shape[-1])
    rows = np.concatenate((np.zeros((rows.shape[0], 1), dtype=rows.dtype), rows), axis=1)
    return np.add.accumulate(rows, axis=1)[:, -1].reshape(lead)


def _left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def dagger(s):
    """Conjugate transpose of every matrix in a stack."""
    return s.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# kernels: lists of stacks in, lists of stacks out


def _vertex_sums(layout: EdgeLayout, plans, head_terms, tail_terms, lead=()):
    """Per vertex class, the sum from zero of each vertex's head and tail
    terms in edge order (see ``_row_sums``); terms with a leading axis of
    shape ``lead`` are summed per leading index."""
    out = []
    for d, (head_groups, tail_groups, buckets) in zip(layout.vertices.class_dims, plans):
        parts = [head_terms[g] for g in head_groups] + [tail_terms[g] for g in tail_groups]
        terms = np.concatenate([np.zeros(lead + (1, d, d), dtype=complex)] + parts, axis=-3)
        out.append(_row_sums(terms, *buckets, axis=-3))
    return out


def _row_sums(terms, gathers, order, axis):
    """The vertex sums of both kernels: per bucket of rows of indices into
    ``terms`` along ``axis``, one gather and one running sum along each row,
    whose last entry is the row's sum; the buckets' sums are put back in row
    order."""
    sums = [np.add.accumulate(terms.take(gather, axis), axis).take(-1, axis) for gather in gathers]
    sums = sums[0] if len(sums) == 1 else np.concatenate(sums, axis=axis)
    return sums if order is None else sums.take(order, axis)


def moment_stacks(layout: EdgeLayout, stacks, lead=()):
    """Real moment map of structure I per vertex class:
    -i (sum over edges into j of phi phi^dagger - sum over edges out of j of
    phi^dagger phi), terms added in edge order as the edge loop adds them.
    Edge stacks with a leading axis of shape ``lead`` give one moment value
    per leading index."""
    heads, tails = [], []
    for b in stacks:
        bh = dagger(b)
        heads.append(b @ bh)
        tails.append(-(bh @ b))
    return [-1j * acc for acc in _vertex_sums(layout, layout.moment_plans, heads, tails, lead)]


# The defect mu_I(x) - theta of the flow and the solver: each helper repeats,
# stack for stack, the arithmetic of the expression in its docstring, so
# results are bit-identical to the object forms.

def defect_stacks(layout: EdgeLayout, stacks, offset, lead=()):
    """moment_real(x, "I") - theta_to_center(theta), for the offset stacks
    that ``moment.defect_offset`` gives; edge stacks with a leading trial
    axis of shape ``lead`` give one defect per trial."""
    return [m + c for m, c in zip(moment_stacks(layout, stacks, lead), offset)]


def defect_sq_norm(layout: EdgeLayout, defect, lead=()):
    """pairing(defect, defect), per trial under a leading axis ``lead``."""
    return layout.vertices.ordered_sum(sq_norm_stacks(defect), lead)


def complex_moment_stacks(layout: EdgeLayout, stacks):
    """Complex moment map per vertex class: sum over edges into j of
    epsilon(e) phi_e phi_ebar, terms added in edge order."""
    heads = [
        g.epsilon[:, None, None] * (b @ stacks[g.reverse_group][g.reverse_pos])
        for g, b in zip(layout.groups, stacks)
    ]
    return _vertex_sums(layout, layout.complex_moment_plans, heads, None)


def structure_stacks(structure, layout: EdgeLayout, stacks):
    """The complex structure I, J or K per shape group (see
    ``quiver.apply_structure``).  J and K read each block from the dagger of
    its reversed edge's block; the sign is selected, not multiplied in, so
    signed zeros come out as negation leaves them."""
    if structure == "I":
        return [1j * b for b in stacks]
    out = []
    for g in layout.groups:
        r = dagger(stacks[g.reverse_group][g.reverse_pos])
        base = (g.epsilon > 0)[:, None, None]
        out.append(np.where(base, -r, r) if structure == "J" else np.where(base, -1j * r, 1j * r))
    return out


def infinitesimal_action_stacks(layout: EdgeLayout, y_stacks, stacks):
    """Blocks Y_head phi - phi Y_tail per shape group; a leading batch axis of
    the vertex stacks carries over to the result."""
    return [
        y_stacks[g.head_class][..., g.head_take, :, :] @ b - b @ y_stacks[g.tail_class][..., g.tail_take, :, :]
        for g, b in zip(layout.groups, stacks)
    ]


def gradient_stacks(layout: EdgeLayout, defect, stacks):
    """The gradient of h = |mu_I - theta|^2 at the point from its defect:
    4.0 * apply_structure("I", infinitesimal_action(defect, x))."""
    return [4.0 * (1j * b) for b in infinitesimal_action_stacks(layout, defect, stacks)]


def act_stacks(layout: EdgeLayout, g_stacks, stacks):
    """Blocks g_head phi g_tail^-1 per shape group; a leading trial axis of
    the group stacks carries over to the result.  ValueError on a singular
    block."""
    try:
        inv = [np.linalg.inv(s) for s in g_stacks]
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular block in group element") from exc
    return [
        g_stacks[g.head_class][..., g.head_take, :, :] @ b @ inv[g.tail_class][..., g.tail_take, :, :]
        for g, b in zip(layout.groups, stacks)
    ]


def eigh_stacks(h):
    """The unitary diagonalization (w, u, u^dagger) of every hermitian matrix
    in a stack, as ``np.linalg.eigh`` gives it.  1x1 matrices are answered in
    closed form, w = Re h and u = 1: for N = 1 LAPACK's heevd returns
    W(1) = DBLE(A(1,1)) and Z = 1, so the bytes are the same."""
    if h.shape[-1] == 1:
        return (h.real[..., 0],) + _unit_stacks(h.shape)
    w, u = np.linalg.eigh(h)
    return w, u, dagger(u)


@lru_cache(maxsize=256)
def _unit_stacks(shape):
    """Read-only (u, u^dagger) for u = 1 in every 1x1 block of a stack."""
    u = np.ones(shape, dtype=complex)
    u_dagger = dagger(u)
    u.flags.writeable = u_dagger.flags.writeable = False
    return u, u_dagger


def eigh_i_stacks(y_stacks):
    """Per vertex class, the unitary diagonalization (w, u, u^dagger) of the
    hermitian blocks iY; a class of dimension zero keeps empty factors."""
    return [eigh_stacks(1j * s) if s.shape[1] else (np.zeros(s.shape[:2]), s, s) for s in y_stacks]


def exp_eigh_stacks(eig, ts):
    """exp(i t Y) per vertex class for each step t of ``ts``, along a leading
    trial axis, from the diagonalization ``eig = eigh_i_stacks(Y)``."""
    ts = np.asarray(ts, dtype=float)[:, None, None]
    return [(u * np.exp(ts * w)[:, :, None, :]) @ u_dagger for w, u, u_dagger in eig]


def exp_i_stacks(y_stacks, t):
    """exp(i t Y) per vertex class, by unitary diagonalization of the
    hermitian blocks iY."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [s[0] for s in exp_eigh_stacks(eigh_i_stacks(y_stacks), (t,))]


def project_stacks(vertices: VertexLayout, stacks):
    """Stacks of the orthogonal projection onto the compact algebra (see
    ``lie.LieAlgebraElement.project``)."""
    skewed = [0.5 * (s - dagger(s)) for s in stacks]
    tau = np.complex128(vertices.ordered_sum([s.trace(axis1=1, axis2=2) for s in skewed])) / sum(vertices.dims)
    return [s - tau * _identity(d) for s, d in zip(skewed, vertices.class_dims)]


@lru_cache(maxsize=None)
def _identity(d):
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def polar_log_stacks(vertices: VertexLayout, g_stacks):
    """The Y of ``lie.polar_decompose`` from group stacks, without the
    unitary factor: per class, iY = log(g^dagger g)/2, projected onto the
    compact algebra.  Also returns the diagonalizations (w, u, u^dagger) of
    g^dagger g, None for a class of dimension zero.  ValueError on a singular
    or non-finite block."""
    y_stacks, eig = [], []
    for s in g_stacks:
        if s.shape[1] == 0:
            y_stacks.append(np.zeros_like(s))
            eig.append(None)
            continue
        w, u, u_dagger = eigh_stacks(dagger(s) @ s)
        # NaN, a non-positive or an infinite eigenvalue: min and max propagate NaN
        if not 0.0 < w.min() <= w.max() < math.inf:
            raise ValueError("singular block in group element")
        y_stacks.append(-1j * ((u * (0.5 * np.log(w))[:, None, :]) @ u_dagger))
        eig.append((w, u, u_dagger))
    return project_stacks(vertices, y_stacks), eig


def _acted_or_none(layout, g_stacks, stacks):
    try:
        return act_stacks(layout, g_stacks, stacks)
    except ValueError:
        return None


def trial_stacks(layout: EdgeLayout, eig, ts, stacks):
    """The trials exp(i t Y).x of a line search along Y, one per step t of
    ``ts``, from the diagonalization ``eig = eigh_i_stacks(Y)``.

    Returns ``(g, ok, trials)``, each with a leading trial axis: the vertex
    stacks of exp(i t Y), whether the trial is usable (its exponential is
    finite and has no singular block) and the edge stacks g_h phi g_t^-1; the
    edge stacks of an unusable trial are NaN.  The trials are acted on as one
    stack; when one of them is unusable, each is acted on alone, so that the
    others come out as they would alone.  Callers that read the trials' norms
    or defects compute them over the same leading axis.
    """
    count = len(ts)
    with np.errstate(over="ignore", invalid="ignore"):
        g = exp_eigh_stacks(eig, ts)
        ok = np.ones(count, dtype=bool)
        for s in g:
            ok &= np.isfinite(s).all(axis=(1, 2, 3))
        trials = _acted_or_none(layout, g, stacks) if ok.all() else None
        if trials is None:
            trials = [np.full((count,) + b.shape, np.nan, dtype=complex) for b in stacks]
            for k in np.flatnonzero(ok):
                one = _acted_or_none(layout, [s[k:k + 1] for s in g], stacks)
                if one is None:
                    ok[k] = False
                    continue
                for trial, b in zip(trials, one):
                    trial[k] = b[0]
    return g, ok, trials


def vdot_real_stacks(a_stacks, b_stacks):
    """Per pair of stacked blocks, np.vdot(a, b).real; leading axes carry over."""
    pairs = zip(a_stacks, b_stacks)
    return [
        (a.reshape(a.shape[:-2] + (1, -1)).conj() @ b.reshape(b.shape[:-2] + (-1, 1)))[..., 0, 0].real
        for a, b in pairs
    ]


def sq_norm_stacks(stacks):
    """Per stacked block, Re <b, b> as np.vdot(b, b).real computes it."""
    return vdot_real_stacks(stacks, stacks)


def pairing_stacks(vertices: VertexLayout, y_stacks, z_stacks) -> float:
    """``lie.pairing`` of the elements with vertex-class stacks ``y_stacks``
    and ``z_stacks``."""
    return float(vertices.ordered_sum(vdot_real_stacks(z_stacks, y_stacks)))


def real_coordinates(layout, stacks):
    """Real then imaginary part of each block, block after block in vertex
    (or edge) order, along the last axis; a nonempty leading axis is kept."""
    parts = [np.stack((s.real, s.imag), -3).reshape(s.shape[:-3] + (-1,)) for s in stacks]
    if not parts:
        return np.zeros(0)
    flat = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    return flat if layout.real_order is None else np.ascontiguousarray(flat[..., layout.real_order])


# ---------------------------------------------------------------------------
# torus kernels: every entry of the dimension vector is 1
#
# The group is then the torus (C*)^n and every block is 1x1, so the torus
# implementation of ``orbit_point`` (below) runs on 1-d real arrays with slot
# 0 a zero pad: the edges as rows (re, im), and a defect, Y or group element
# as one real number per vertex.  These kernels give the bytes of the stack
# kernels:
# - exp(itY) is (e, +0) with e = exp(t w) real and positive, and a
#   skew-hermitian defect or Y is (+-0, d);
# - each 1x1 product is a dot product from +0 in which one term is zero, so
#   it is the correctly rounded real product, with -0 read as +0 (hence the
#   ``+ 0.0`` of ``torus_act``);
# - LAPACK's inverse of (e, +0) is 1/e, and its singular pivot is e == 0.
#   That inverse is exact only because e is real and positive: a trial whose
#   e is 0 or not finite is unusable on both paths, and a point acted on by
#   such an e is left to the stack kernels;
# - the moment term b b^dagger and the norm Re <b, b> are fl(re^2) + fl(im^2);
# - the vertex sums read the rows of the layout's moment plan after a pad row
#   for the pad vertex, in buckets planned the same way.  Their terms are the
#   squared norms of the pad row and of the edges, then the edges' negated
#   norms: the stack kernel's zero block, head terms and tail terms, which
#   ``_row_sums`` adds for both;
# - totals add left to right from the zero pad.


def _torus_plan(layout):
    """Indices of the torus kernels on a thin layout, slot 0 being the zero
    pad: each edge's head and tail vertex, and the buckets of the moment
    plan's rows after a pad row (the pad row alone when there is no vertex).
    A thin layout has at most one shape group and one vertex class, whose
    positions are the edges' and vertices' own."""
    heads = np.concatenate([[0]] + [g.head_pos + 1 for g in layout.groups])
    tails = np.concatenate([[0]] + [g.tail_pos + 1 for g in layout.groups])
    return heads, tails, layout._gather_plan(0, True, pad=1)[2] if layout.moment_plans else _buckets([[0]])


def torus_values(stacks):
    """The one entry of each block of thin stacks, in item order, after a
    zero pad."""
    return np.concatenate([np.zeros(1, dtype=complex)] + [s.ravel() for s in stacks])


def torus_rows(stacks):
    """Edge rows (re, im) of thin edge stacks, after a zero pad."""
    return torus_values(stacks).view(float).reshape(-1, 2)


def torus_edge_stacks(b):
    """Thin edge stacks that view the edge rows ``b``."""
    return [b[1:].view(complex).reshape(-1, 1, 1)] if len(b) > 1 else []


def torus_vertex_stacks(values):
    """Thin vertex stacks (+0, v) of the real values after the pad: a
    skew-hermitian element such as Y or the defect."""
    s = np.zeros((len(values) - 1, 1, 1), dtype=complex)
    s.imag[:, 0, 0] = values[1:]
    return [s] if len(s) else []


def torus_act(plan, e, b):
    """g_head phi g_tail^-1 on edge rows ``b`` for g = (e, +0) per vertex; a
    leading trial axis of ``e`` carries over to the result."""
    heads, tails, _ = plan
    out = b * e[..., heads, None]
    out *= (1.0 / e)[..., tails, None]
    out += 0.0
    return out


def torus_sq_norms(b):
    """Re <b, b> of each edge row (re, im): fl(re^2) + fl(im^2)."""
    sq = b * b
    return sq[..., 0] + sq[..., 1]


def torus_defect(plan, norms, offset):
    """Imaginary part per vertex of mu_I - theta, from the edges' squared
    norms (per trial under a leading axis) and the offset's imaginary part."""
    terms = np.concatenate((norms, -norms[..., 1:]), axis=-1)
    return offset - _row_sums(terms, *plan[2], axis=-1)


def torus_total(values):
    """Left-to-right sum along the last axis, from the zero pad."""
    return np.add.accumulate(values, axis=-1)[..., -1]


def torus_action(plan, v, b):
    """v_head phi - phi v_tail on edge rows ``b`` for one real v per vertex;
    a leading axis of ``v`` carries over to the result."""
    heads, tails, _ = plan
    return v[..., heads, None] * b - b * v[..., tails, None]


# ---------------------------------------------------------------------------
# trial points: the orbit arithmetic of the flow and the solver
#
# Both walk the orbit G.x through trial points exp(itY).x, built from one
# diagonalization of a direction Y.  ``orbit_point`` holds the current point;
# it is the one place that chooses between the two implementations, which
# share one set of methods.  Vertex values (the defect, Y, a direction, a
# group element) are vertex-class stacks on the stack implementation and
# real arrays on the torus; ``values`` and ``vertex_stacks`` convert from and
# to stacks.
# - ``defect_norm()`` gives |mu_I - theta|^2 at the point and keeps the
#   defect as ``defect``; ``grad_norm()`` gives |grad h| there, from the
#   infinitesimal action of the defect, and ``sq_norm()`` gives |x|^2;
# - ``direct(y)`` diagonalizes the direction Y; ``trials(ts)`` then acts by
#   exp(itY) for each t of ``ts`` as one stack, and returns whether each
#   trial is usable (its exponential finite, with no singular block);
#   ``trial_sq_norms()`` and ``trial_defect_norms()`` give each trial's
#   |x|^2 and defect norm, ``trial_defect_norm(k)`` the defect norm of trial
#   k alone, and ``move(k)`` moves the point to trial k;
# - for the solver: ``pairing(a, b)``; ``coords(v)`` and ``element(c)``, the
#   basis coordinates of a value and the value of coordinates;
#   ``tangent_matrix()``, the action's tangent matrix at the point;
#   ``exp_i(y)``, exp(iY); ``act(y)``, which moves the point to exp(iY).x0
#   for the start point x0 and returns exp(iY); ``compose(k, g)``, trial k's
#   exp(itY) times g (OverflowError when that is not finite);
#   ``polar_log(g)``, the Y of its polar decomposition (ValueError on a
#   singular block);
# - ``edge_stacks()`` gives the point's edge stacks.


def orbit_point(layout: EdgeLayout, stacks, offset, basis=None):
    """The point with edge stacks ``stacks`` and its defect mu_I - theta for
    the offset stacks ``offset``: on the torus implementation when every
    dimension is 1 (``layout.torus_plan`` is then set), on the stack
    kernels otherwise.  Both give the same bytes.  ``basis``, a
    ``lie.UvBasis``, serves the solver's coordinates and tangent matrix."""
    return (_StackPoint if layout.torus_plan is None else _TorusPoint)(layout, stacks, offset, basis)


class _StackPoint:
    """The point as edge stacks, vertex values as vertex-class stacks."""

    def __init__(self, layout, stacks, offset, basis):
        self.layout, self.offset, self.basis = layout, offset, basis
        self.start = self.stacks = stacks

    def defect_norm(self):
        self.defect = defect_stacks(self.layout, self.stacks, self.offset)
        return defect_sq_norm(self.layout, self.defect)

    def grad_norm(self):
        grad = gradient_stacks(self.layout, self.defect, self.stacks)
        return math.sqrt(self.layout.ordered_sum(sq_norm_stacks(grad)))

    def sq_norm(self):
        return self.layout.ordered_sum(sq_norm_stacks(self.stacks))

    def direct(self, y):
        self.eig = eigh_i_stacks(y)

    def trials(self, ts):
        self.lead = (len(ts),)
        self.trial_g, ok, self.trial_points = trial_stacks(self.layout, self.eig, ts, self.stacks)
        return ok

    def trial_sq_norms(self):
        return self.layout.ordered_sum(sq_norm_stacks(self.trial_points), self.lead)

    def trial_defect_norms(self):
        self.trial_defects = defect_stacks(self.layout, self.trial_points, self.offset, self.lead)
        return defect_sq_norm(self.layout, self.trial_defects, self.lead)

    def trial_defect_norm(self, k):
        defect = defect_stacks(self.layout, [s[k] for s in self.trial_points], self.offset)
        return defect_sq_norm(self.layout, defect)

    def move(self, k):
        self.stacks = [s[k] for s in self.trial_points]
        self.defect = [s[k] for s in self.trial_defects]

    def edge_stacks(self):
        return self.stacks

    def values(self, stacks):
        return stacks

    def vertex_stacks(self, values):
        return values

    def pairing(self, a, b):
        return pairing_stacks(self.layout.vertices, a, b)

    def coords(self, v):
        return self.basis.coords_of_stacks(v)

    def element(self, c):
        return self.basis.stacks_from_coords(c)

    def tangent_matrix(self):
        return self.basis.tangent_matrix(self.layout, self.stacks)

    def exp_i(self, y):
        return exp_i_stacks(y, 1.0)

    def act(self, y):
        g = self.exp_i(y)
        self.stacks = act_stacks(self.layout, g, self.start)
        return g

    def compose(self, k, g):
        g = [s[k] @ h for s, h in zip(self.trial_g, g)]
        if not all(np.isfinite(s).all() for s in g):
            raise OverflowError
        return g

    def polar_log(self, g):
        return polar_log_stacks(self.layout.vertices, g)[0]


class _TorusPoint:
    """The point as edge rows ``b``, a vertex value as one real per vertex:
    an element of the compact algebra (Y, a direction, the defect) by its
    imaginary parts, whose real parts are zeros that move no byte, and a
    group element exp(iY) by e = exp(-Im Y), as it is (e, +0).

    The bytes are those of ``_StackPoint``.  Beyond the reasons the torus
    kernels give:
    - exp(itY) is exp(-t Im Y), and a composed group element is (e e', +0).
      Its polar logarithm is Im Y = -log(fl(g^2)) / 2, and the projection
      onto the compact algebra subtracts the mean that ``project_stacks``
      subtracts, divided as numpy divides a complex number;
    - pairings are the correctly rounded products of imaginary parts, since
      every real part is zero, added left to right;
    - Y_head phi - phi Y_tail is i (v_head phi - phi v_tail) for the
      imaginary parts v of Y, each product the stack product's one nonzero
      term.  So ``torus_action`` on the conjugate rows (re, -im) gives each
      entry of the tangent matrix, its (re, im) parts swapped, rounded as
      the stack kernel rounds it; only the sign of a zero can differ, which
      the Gram matrix does not see.  The gradient norm reads it on the rows
      themselves: the stack gradient's parts swapped and one of them
      negated, which a squared norm does not see.
    Where a defect norm, a gradient norm or exp(iY) is not finite, the stack
    kernels compute it, for their NaNs.
    """

    def __init__(self, layout, stacks, offset, basis):
        self.layout, self.plan, self.offset = layout, layout.torus_plan, offset
        self.start = self.stacks = stacks
        self.start_b = self.b = torus_rows(stacks)
        self.off = self.values(offset)
        if basis is not None:
            self.matrix = basis.matrix
            # imaginary part of each basis element per vertex, after the pad
            self.beta = np.concatenate((np.zeros((basis.dim, 1)), basis.matrix[:, 1::2]), axis=1)

    def _stack(self):
        """The point on the stack kernels, and its defect norm."""
        point = _StackPoint(self.layout, self.edge_stacks(), self.offset, None)
        return point, point.defect_norm()

    def defect_norm(self):
        self.norms = torus_sq_norms(self.b)
        self.defect = torus_defect(self.plan, self.norms, self.off)
        total = float(torus_total(self.defect * self.defect))
        return total if math.isfinite(total) else self._stack()[1]

    def grad_norm(self):
        norm = math.sqrt(torus_total(torus_sq_norms(4.0 * torus_action(self.plan, self.defect, self.b))))
        return norm if math.isfinite(norm) else self._stack()[0].grad_norm()

    def sq_norm(self):
        return float(torus_total(self.norms))

    def direct(self, y):
        self.direction = y

    def trials(self, ts):
        self.e = np.exp(np.multiply.outer(np.negative(ts), self.direction))
        self.trial_b = torus_act(self.plan, self.e, self.b)
        self.trial_norms = torus_sq_norms(self.trial_b)
        return ((self.e > 0.0) & (self.e < math.inf)).all(axis=1)

    def trial_sq_norms(self):
        return torus_total(self.trial_norms)

    def trial_defect_norms(self):
        self.trial_defects = torus_defect(self.plan, self.trial_norms, self.off)
        return torus_total(self.trial_defects * self.trial_defects)

    def trial_defect_norm(self, k):
        defect = torus_defect(self.plan, self.trial_norms[k], self.off)
        return torus_total(defect * defect)

    def move(self, k):
        self.b, self.defect, self.stacks = self.trial_b[k], self.trial_defects[k], None

    def edge_stacks(self):
        if self.stacks is None:
            self.stacks = torus_edge_stacks(self.b)
        return self.stacks

    def values(self, stacks):
        return torus_values(stacks).imag

    def vertex_stacks(self, values):
        return torus_vertex_stacks(values)

    def pairing(self, a, b):
        return float(torus_total(a * b))

    def coords(self, v):
        flat = np.zeros(2 * len(v) - 2)
        flat[1::2] = v[1:]
        return self.matrix @ flat

    def element(self, c):
        z = np.zeros(len(self.off))
        z[1:] = (c @ self.matrix)[1::2]
        return z

    def tangent_matrix(self):
        rows = torus_action(self.plan, self.beta, self.b * (1.0, -1.0))
        return rows[:, 1:, ::-1].reshape(len(rows), -1)

    def exp_i(self, y):
        return np.exp(-y)

    def act(self, y):
        e = self.exp_i(y)
        if ((e > 0.0) & (e < math.inf)).all():
            self.b = torus_act(self.plan, e, self.start_b)
        else:
            g = exp_i_stacks(torus_vertex_stacks(y), 1.0)
            self.b = torus_rows(act_stacks(self.layout, g, self.start))
        self.stacks = None
        return e

    def compose(self, k, g):
        g = self.e[k] * g
        if not np.isfinite(g).all():
            raise OverflowError
        return g

    def polar_log(self, g):
        gram = g * g
        if not 0.0 < gram.min() <= gram.max() < math.inf:
            raise ValueError("singular block in group element")
        log = 0.0 - 0.5 * np.log(gram)
        mean = (np.complex128(complex(0.0, torus_total(log))) / (len(log) - 1)).imag
        y = log - mean
        y[0] = 0.0
        return y
