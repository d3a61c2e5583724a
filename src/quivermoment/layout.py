"""Array-native layout of representation space and the kernels that run on it.

An ``EdgeLayout`` is built once per (extended quiver, dimension vector) and
cached.  It stacks the edge blocks of a representation by shape
(dims[head], dims[tail]) into one 3-d array per shape, and it stacks per-vertex
matrices (group elements, Lie algebra elements, moment values) by dimension
into one 3-d array per dimension class (``VertexLayout``); these stacks, held
read-only by the one base ``HeldStacks``, are the only storage of points and
of algebra and group elements.  The kernels below compute the moment maps,
the infinitesimal action (also over a leading basis axis), the group action,
exp(itY), pairings and real coordinates on those stacks with one batched
numpy call per shape or class instead of one Python step per edge or vertex.  The trials of a line search along one
direction share one eigendecomposition and run as one stack: their group
elements, acted points, norms and moment defects carry a leading trial axis.

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

When every entry of the dimension vector is 1, the flow and the solver step
on the torus kernels at the end of this module instead: 1-d real arrays over
the edges and vertices that give the stack kernels' bytes, for the reasons
given there.  Their vertex sums read the same gathers.
"""

from __future__ import annotations

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
# The group is then the torus (C*)^n and every block is 1x1, so the flow's
# and the solver's steps run on 1-d real arrays with slot 0 a zero pad:
# the edges as rows (re, im), and a defect, Y or group element as one real
# number per vertex.  The kernels below give the bytes of the stack kernels.
# exp(itY) is (e, +0) with e = exp(t w) real positive, a skew-hermitian
# defect or Y is (+-0, d), and each 1x1 product is a dot product from +0 in
# which one term is zero, so it is the correctly rounded real product, with
# -0 read as +0 (hence the ``+ 0.0`` of ``torus_act``).  LAPACK's inverse of
# (e, +0) is 1/e, and its singular pivot is e == 0.  The moment term
# b b^dagger and the norm Re <b, b> are fl(re^2) + fl(im^2).  The vertex sums
# read the rows of the layout's moment plan, after a pad row for the pad
# vertex, in buckets planned the same way.  The terms are the squared
# norms of the pad row and of the edges, then the edges' negated norms: the
# stack kernel's zero block, head terms and tail terms, which ``_row_sums``
# adds for both.  Totals add left to right from the
# zero pad.  The 1x1 inverse is exact only because e is real
# and positive: a trial whose e is 0 or not finite is unusable on both paths,
# and a point acted on by such an e is left to the stack kernels.


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
