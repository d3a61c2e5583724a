"""Array-native layout of representation space and the kernels that run on it.

An ``EdgeLayout`` is built once per (extended quiver, dimension vector) and
cached.  It stacks the edge blocks of a representation by shape
(dims[head], dims[tail]) into one 3-d array per shape, and it stacks per-vertex
matrices (group elements, Lie algebra elements, moment values) by dimension
into one 3-d array per dimension class (``VertexLayout``); these stacks are
the only storage of points and of algebra and group elements.  The kernels
below compute the moment maps, the infinitesimal action (also over a leading
basis axis), the group action, exp(itY), pairings and real coordinates on
those stacks with one batched numpy call per shape or class instead of one
Python step per edge or vertex.  The trials of a line search along one
direction share one eigendecomposition and run as one stack: their group
elements, acted points, norms and moment defects carry a leading trial axis.

Contract: every kernel is bit-for-bit equal to the per-edge definition it
replaces, and every trial of a stack is bit-for-bit equal to the same trial
computed alone.  Batched ``matmul``, ``inv``, ``det``, ``slogdet`` and
``eigh`` run the same per-matrix routine on each stacked matrix, and
elementwise operations act entry by entry.  Sums over edges or vertices are
where order matters, so they are kept in the definition's order: a vertex sum
scatters the edge-ordered contributions with ``np.add.at`` (head term before
tail term for each edge, starting from zero; along axis 1 under a trial
axis), and a pairing or norm is a batched row-times-column product per block
(equal to ``np.vdot``) summed left to right in edge or vertex order, one such
sum per trial.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _indices(values):
    return np.array(list(values), dtype=np.intp)


class VertexLayout:
    """Vertices grouped into classes of equal dimension.

    ``class_dims[c]`` is the dimension of class c and ``members[c]`` its
    vertices in increasing order; vertex v sits at ``slots[v] = (c, i)``.
    ``real_order`` takes real coordinates, flattened class by class, to
    vertex order (see ``real_coordinates``).
    """

    __slots__ = ("dims", "class_dims", "members", "slots", "real_order", "_vertex_order")

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)
        self.class_dims = tuple(dict.fromkeys(self.dims))
        self.members = tuple(
            [v for v, dv in enumerate(self.dims) if dv == d] for d in self.class_dims
        )
        slots = [None] * len(self.dims)
        for c, verts in enumerate(self.members):
            for i, v in enumerate(verts):
                slots[v] = (c, i)
        self.slots = tuple(slots)
        # position of each vertex in the concatenation of the classes
        self._vertex_order = _item_order(self.members, [1] * len(self.members))
        self.real_order = _item_order(self.members, [2 * d * d for d in self.class_dims])

    def stack(self, blocks):
        """Per-class stacks (n_c, d, d) of per-vertex blocks."""
        return [np.array([blocks[v] for v in m], dtype=complex) for m in self.members]

    def unstack(self, stacks):
        """Per-vertex views into per-class stacks, in vertex order."""
        return [stacks[c][i] for c, i in self.slots]

    def zeros(self, lead=()):
        """Per-class zero stacks (*lead, n_c, d, d)."""
        return [np.zeros(lead + (len(m), d, d), dtype=complex) for d, m in zip(self.class_dims, self.members)]

    def ordered_sum(self, per_class, lead=()):
        """Left-to-right sum in vertex order of per-class scalar arrays, one
        per index of a leading axis of shape ``lead``."""
        return _ordered_sum(per_class, self._vertex_order, lead)


class ShapeGroup:
    """The edges whose blocks share one shape (d_head, d_tail).

    ``head_pos``/``tail_pos`` are the positions of the edges' heads and tails
    inside their vertex classes ``head_class``/``tail_class``; the reversed
    edges all lie in group ``reverse_group`` at ``reverse_pos``, and
    ``epsilon`` holds the edges' signs.
    """

    __slots__ = (
        "shape", "edges", "head_class", "tail_class", "head_pos", "tail_pos",
        "epsilon", "reverse_group", "reverse_pos",
    )

    def __init__(self, quiver, shape, edges, vertices, slots):
        self.shape = shape
        self.edges = tuple(edges)
        self.head_class = vertices.class_dims.index(shape[0])
        self.tail_class = vertices.class_dims.index(shape[1])
        self.head_pos = _indices(vertices.slots[quiver.edges[e][1]][1] for e in edges)
        self.tail_pos = _indices(vertices.slots[quiver.edges[e][0]][1] for e in edges)
        self.epsilon = _indices(quiver.epsilon[e] for e in edges)
        reversed_edges = [quiver.reversal[e] for e in edges]
        self.reverse_group = slots[reversed_edges[0]][0]
        self.reverse_pos = _indices(slots[r][1] for r in reversed_edges)


class EdgeLayout:
    """Edges of one extended quiver with one dimension vector, grouped by block shape.

    ``slots[e] = (g, i)`` locates edge e in shape group g.  ``moment_plans[c]``
    says how the per-edge terms of the real moment map reach the vertices of
    class c: which groups contribute head and tail terms, and the order and
    targets that replay the edge loop.  ``complex_moment_plans`` does the same
    for the complex moment map, which has head terms only.  ``real_order``
    takes real coordinates flattened group by group to edge order.
    """

    __slots__ = ("vertices", "groups", "slots", "moment_plans", "complex_moment_plans", "real_order", "_edge_order")

    def __init__(self, quiver, dims):
        self.vertices = vl = vertex_layout(dims)
        by_shape = {}
        for e, (t, h) in enumerate(quiver.edges):
            by_shape.setdefault((vl.dims[h], vl.dims[t]), []).append(e)
        slots = [None] * quiver.num_edges
        for g, edges in enumerate(by_shape.values()):
            for i, e in enumerate(edges):
                slots[e] = (g, i)
        self.slots = tuple(slots)
        self.groups = tuple(
            ShapeGroup(quiver, shape, edges, vl, slots) for shape, edges in by_shape.items()
        )
        edges = [g.edges for g in self.groups]
        self._edge_order = _item_order(edges, [1] * len(edges))
        self.real_order = _item_order(edges, [2 * g.shape[0] * g.shape[1] for g in self.groups])
        classes = range(len(vl.class_dims))
        self.moment_plans = tuple(self._scatter_plan(c, tails=True) for c in classes)
        self.complex_moment_plans = tuple(self._scatter_plan(c, tails=False) for c in classes)

    def _scatter_plan(self, c, tails):
        head_groups = [g for g, grp in enumerate(self.groups) if grp.head_class == c]
        tail_groups = [g for g, grp in enumerate(self.groups) if tails and grp.tail_class == c]
        # one key per term: the edge, then 0 for its head term and 1 for its tail term
        keys, targets = [], []
        for g in head_groups:
            keys += [2 * e for e in self.groups[g].edges]
            targets += self.groups[g].head_pos.tolist()
        for g in tail_groups:
            keys += [2 * e + 1 for e in self.groups[g].edges]
            targets += self.groups[g].tail_pos.tolist()
        order = np.argsort(_indices(keys))
        return head_groups, tail_groups, order, _indices(targets)[order]

    def stack(self, blocks):
        """Per-shape stacks (n_g, d_head, d_tail) of per-edge blocks."""
        return [np.array([blocks[e] for e in g.edges], dtype=complex) for g in self.groups]

    def unstack(self, stacks):
        """Per-edge views into per-shape stacks, in edge order."""
        return [stacks[g][i] for g, i in self.slots]

    def ordered_sum(self, per_group, lead=()):
        """Left-to-right sum in edge order of per-group scalar arrays, one per
        index of a leading axis of shape ``lead``."""
        return _ordered_sum(per_group, self._edge_order, lead)


@lru_cache(maxsize=256)
def vertex_layout(dims) -> VertexLayout:
    return VertexLayout(dims)


@lru_cache(maxsize=256)
def edge_layout(quiver, dims) -> EdgeLayout:
    """The cached layout of (quiver, dims); bounded so memory does not grow
    with the number of distinct quivers seen."""
    return EdgeLayout(quiver, dims)


def _item_order(members, sizes):
    """Index that takes per-class arrays with ``sizes[c]`` entries per member,
    concatenated class by class, to member order."""
    keys = [np.repeat(_indices(m), size) for m, size in zip(members, sizes)]
    return np.argsort(np.concatenate(keys), kind="stable") if keys else _indices(())


def _ordered_sum(parts, order, lead):
    if not lead:
        return _left_to_right(np.concatenate(parts)[order].tolist()) if order.size else 0.0
    if not order.size:
        return np.zeros(lead)
    rows = np.concatenate(parts, axis=-1)[..., order].reshape(-1, order.size).tolist()
    return np.array([_left_to_right(row) for row in rows]).reshape(lead)


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
    terms, added in the order the plans replay; terms with a leading axis of
    shape ``lead`` are summed per leading index."""
    vl = layout.vertices
    out = []
    for c, (head_groups, tail_groups, order, targets) in enumerate(plans):
        d = vl.class_dims[c]
        acc = np.zeros(lead + (len(vl.members[c]), d, d), dtype=complex)
        if targets.size:
            terms = np.concatenate([head_terms[g] for g in head_groups] + [tail_terms[g] for g in tail_groups], axis=-3)
            np.add.at(acc, (slice(None),) * len(lead) + (targets,), terms[..., order, :, :])
        out.append(acc)
    return out


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
        y_stacks[g.head_class][..., g.head_pos, :, :] @ b - b @ y_stacks[g.tail_class][..., g.tail_pos, :, :]
        for g, b in zip(layout.groups, stacks)
    ]


def act_stacks(layout: EdgeLayout, g_stacks, stacks):
    """Blocks g_head phi g_tail^-1 per shape group; a leading trial axis of
    the group stacks carries over to the result.  ValueError on a singular
    block."""
    try:
        inv = [np.linalg.inv(s) for s in g_stacks]
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular block in group element") from exc
    return [
        g_stacks[g.head_class][..., g.head_pos, :, :] @ b @ inv[g.tail_class][..., g.tail_pos, :, :]
        for g, b in zip(layout.groups, stacks)
    ]


def eigh_i_stacks(y_stacks):
    """Per vertex class, the unitary diagonalization (w, u, u^dagger) of the
    hermitian blocks iY; a class of dimension zero keeps empty factors."""
    out = []
    for s in y_stacks:
        if s.shape[1] == 0:
            out.append((np.zeros(s.shape[:2]), s, s))
            continue
        w, u = np.linalg.eigh(1j * s)
        out.append((w, u, dagger(u)))
    return out


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


def _acted_or_none(layout, g_stacks, stacks):
    try:
        return act_stacks(layout, g_stacks, stacks)
    except ValueError:
        return None


def trial_stacks(layout: EdgeLayout, eig, ts, stacks):
    """The trials exp(i t Y).x of a line search along Y, one per step t of
    ``ts``, from the diagonalization ``eig = eigh_i_stacks(Y)``.

    Returns ``(g, ok, trials, norms)``, each with a leading trial axis: the
    vertex stacks of exp(i t Y), whether the trial is usable (its exponential
    is finite and has no singular block), the edge stacks g_h phi g_t^-1 and
    their squared norms; the edge stacks of an unusable trial are NaN, and
    its norm means nothing.  The trials are acted on as one stack; when one
    of them is unusable, each is acted on alone, so that the others come out
    as they would alone.
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
        norms = layout.ordered_sum(sq_norm_stacks(trials), lead=(count,))
    return g, ok, trials, norms


def vdot_real_stacks(a_stacks, b_stacks):
    """Per pair of stacked blocks, np.vdot(a, b).real; leading axes carry over."""
    pairs = zip(a_stacks, b_stacks)
    return [
        (a.reshape(a.shape[:-2] + (1, -1)).conj() @ b.reshape(b.shape[:-2] + (-1, 1))).reshape(a.shape[:-2]).real
        for a, b in pairs
    ]


def sq_norm_stacks(stacks):
    """Per stacked block, Re <b, b> as np.vdot(b, b).real computes it."""
    return vdot_real_stacks(stacks, stacks)


def real_coordinates(layout, stacks):
    """Real then imaginary part of each block, block after block in vertex
    (or edge) order, along the last axis; a nonempty leading axis is kept."""
    parts = [np.stack((s.real, s.imag), -3).reshape(s.shape[:-3] + (-1,)) for s in stacks]
    return np.ascontiguousarray(np.concatenate(parts, axis=-1)[..., layout.real_order]) if parts else np.zeros(0)
