"""Ragged batch packing of instance grids into flat numpy arrays.

The fast paths of PRs 1–5 amortize work *within* one instance; this
module is the packing layer that lets :mod:`repro.core.batch` amortize
*across* instances.  A grid cell of same-family instances — each one a
``(topology, tree, partition)`` triple already living as cached flat
arrays (:mod:`repro.graphs.csr`) — is concatenated into one
:class:`BatchCSR`: ragged 1-D arrays with per-instance offset tables
(``node_offsets`` / ``edge_offsets`` / ``part_offsets``), so that one
numpy pass over the concatenation replaces a Python loop over the
batch.  Node, edge, and part ids are *global* (instance-local id plus
the instance's offset), which keeps every cross-array index usable
without a per-instance base register.

:class:`ShortcutPack` extends a batch with one shortcut per instance:
flat arrays over the assigned edge slots (``Σ|H_i|`` across the whole
batch, read off each shortcut's ``(part, child)`` slot arrays) plus the
*clone table* — the deduplicated ``(part, node)``
pairs over part members and ``H_i`` endpoints.  Clones are the batch
twin of the per-part local id spaces the per-instance kernels rebuild
per part: a node appears once per part whose communication subgraph
``G[P_i] + H_i`` touches it, and all per-part union-find, component,
and BFS work runs over the clone space in single array ops.

:func:`bounded_diameter_batch` is the batch twin of
:func:`repro.graphs.csr.bounded_diameter`: every segment (one
communication subgraph) runs the same exact eccentricity-bounding scan,
but all segments advance their BFS passes in lockstep — one frontier
step is one vectorized gather across every still-active segment.

numpy is an *optional* dependency (the ``fast-math`` extra); everything
here import-guards it and raises a clear install hint, mirroring how
the Delaunay generator guards the ``geometry`` extra.  Callers that
need a hard dependency check use :func:`require_numpy`; test suites
skip on :func:`numpy_available`.
"""

from __future__ import annotations

from typing import Sequence

from repro.congest.topology import Topology
from repro.errors import ReproError
from repro.graphs.csr import tree_arrays
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree

NUMPY_HINT = (
    "the batch kernels need numpy; install the 'fast-math' extra: "
    "pip install repro-lowcongestion-shortcuts[fast-math]"
)


def numpy_available() -> bool:
    """Whether numpy can be imported (the ``fast-math`` extra)."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def require_numpy():
    """Import and return numpy, or raise a :class:`ReproError` hint."""
    try:
        import numpy
    except ImportError:
        raise ReproError(NUMPY_HINT) from None
    return numpy


class BatchCSR:
    """One grid cell of instances as concatenated flat arrays.

    Attributes
    ----------
    size:
        Number of instances ``B`` in the batch.
    n_total, m_total, p_total:
        Summed node / edge / part counts across the batch.
    node_offsets, edge_offsets, part_offsets:
        ``B + 1`` offset tables; instance ``b`` owns the global id
        ranges ``[offsets[b], offsets[b + 1])``.
    edge_u, edge_v:
        The canonical edge arrays, concatenated, endpoints as global
        node ids.  Position ``edge_offsets[b] + i`` is edge ``i`` of
        ``topologies[b].edges`` — the global dense edge id.
    labels:
        Per global node, the *global* part id (``part_offsets[b] +``
        local label), or ``-1`` for uncovered nodes.
    tree_parent, tree_depth:
        Per global node, the BFS-tree parent as a global node id
        (``-1`` at each instance's root) and the tree depth.
    instance_of_node, instance_of_edge, instance_of_part:
        Global id → owning instance index.
    depth_order, depth_starts, max_depth:
        All global nodes sorted by ``tree_depth`` (stable, so global id
        ascending within a level); depth ``d`` occupies
        ``depth_order[depth_starts[d]:depth_starts[d + 1]]``.  The
        level grouping drives the batched Algorithm 1 sweep.
    topologies, trees, partitions:
        The packed source objects, for building per-instance outputs.

    The member table (:meth:`member_table`) and the part-internal
    components (:meth:`member_components`) depend only on the packed
    triples, so they are built lazily once per batch and shared by
    every shortcut or ladder iteration over it.
    """

    __slots__ = (
        "size",
        "n_total",
        "m_total",
        "p_total",
        "node_offsets",
        "edge_offsets",
        "part_offsets",
        "edge_u",
        "edge_v",
        "labels",
        "tree_parent",
        "tree_depth",
        "instance_of_node",
        "instance_of_edge",
        "instance_of_part",
        "depth_order",
        "depth_starts",
        "max_depth",
        "topologies",
        "trees",
        "partitions",
        "_members",
        "_member_components",
    )

    def __init__(
        self,
        topologies: Sequence[Topology],
        trees: Sequence[SpanningTree],
        partitions: Sequence[Partition],
    ) -> None:
        np = require_numpy()
        if not (len(topologies) == len(trees) == len(partitions)):
            raise ReproError(
                f"batch components disagree: {len(topologies)} topologies, "
                f"{len(trees)} trees, {len(partitions)} partitions"
            )
        self.topologies = tuple(topologies)
        self.trees = tuple(trees)
        self.partitions = tuple(partitions)
        size = len(self.topologies)
        self.size = size

        ns = np.fromiter((t.n for t in self.topologies), dtype=np.int64, count=size)
        ms = np.fromiter((t.m for t in self.topologies), dtype=np.int64, count=size)
        ps = np.fromiter(
            (p.size for p in self.partitions), dtype=np.int64, count=size
        )
        self.node_offsets = _offsets(np, ns)
        self.edge_offsets = _offsets(np, ms)
        self.part_offsets = _offsets(np, ps)
        self.n_total = int(self.node_offsets[-1])
        self.m_total = int(self.edge_offsets[-1])
        self.p_total = int(self.part_offsets[-1])
        self.instance_of_node = np.repeat(np.arange(size, dtype=np.int64), ns)
        self.instance_of_edge = np.repeat(np.arange(size, dtype=np.int64), ms)
        self.instance_of_part = np.repeat(np.arange(size, dtype=np.int64), ps)

        edge_u = np.empty(self.m_total, dtype=np.int64)
        edge_v = np.empty(self.m_total, dtype=np.int64)
        labels = np.empty(self.n_total, dtype=np.int64)
        parent = np.empty(self.n_total, dtype=np.int64)
        depth = np.empty(self.n_total, dtype=np.int64)
        for b, (topology, tree, partition) in enumerate(
            zip(self.topologies, self.trees, self.partitions)
        ):
            n0, n1 = int(self.node_offsets[b]), int(self.node_offsets[b + 1])
            e0, e1 = int(self.edge_offsets[b]), int(self.edge_offsets[b + 1])
            if topology.m:
                edges = _np_edges(np, topology)
                edge_u[e0:e1] = edges[:, 0] + n0
                edge_v[e0:e1] = edges[:, 1] + n0
            lab = np.asarray(partition.labels, dtype=np.int64)
            labels[n0:n1] = np.where(
                lab >= 0, lab + int(self.part_offsets[b]), -1
            )
            par, dep = _np_tree(np, tree)
            parent[n0:n1] = np.where(par >= 0, par + n0, -1)
            depth[n0:n1] = dep
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.labels = labels
        self.tree_parent = parent
        self.tree_depth = depth

        self.depth_order = np.argsort(depth, kind="stable")
        self.max_depth = int(depth.max()) if self.n_total else 0
        self.depth_starts = np.searchsorted(
            depth[self.depth_order], np.arange(self.max_depth + 2)
        )
        self._members = None
        self._member_components = None

    def member_table(self):
        """Covered nodes sorted by (part, node), built once per batch.

        Returns ``(member_node, member_part, member_starts,
        member_inverse)``: the global node, its global part, the
        per-part offsets into the first two arrays (part ``p`` owns
        ``[member_starts[p], member_starts[p + 1])``), and the
        member-subspace index of every global node (``-1`` where
        uncovered).
        """
        cached = self._members
        if cached is None:
            np = require_numpy()
            covered = np.flatnonzero(self.labels >= 0)
            cov_part = self.labels[covered]
            order = np.lexsort((covered, cov_part))
            member_node = covered[order]
            member_part = cov_part[order]
            member_starts = np.searchsorted(
                member_part, np.arange(self.p_total + 1)
            )
            inverse = np.full(self.n_total, -1, dtype=np.int64)
            inverse[member_node] = np.arange(len(member_node), dtype=np.int64)
            cached = (member_node, member_part, member_starts, inverse)
            self._members = cached
        return cached

    def member_components(self):
        """Components of every part's ``G[P_i]``, over the member table.

        Per member, the member-subspace index of the smallest member in
        its component (min-label propagation plus pointer doubling over
        the part-internal edges).  These edges never change between
        shortcuts over the same batch; callers merge the components
        further with their own block links and must not write to the
        returned array.
        """
        cached = self._member_components
        if cached is None:
            np = require_numpy()
            member_node, _part, _starts, inverse = self.member_table()
            owner_u = self.labels[self.edge_u]
            both = (owner_u >= 0) & (owner_u == self.labels[self.edge_v])
            cached = merge_components(
                np,
                np.arange(len(member_node), dtype=np.int64),
                inverse[self.edge_u[both]],
                inverse[self.edge_v[both]],
            )
            self._member_components = cached
        return cached

    def share_member_components(self, keys, pieces) -> None:
        """Seed or harvest :meth:`member_components` through ``pieces``.

        ``pieces`` maps an instance key (``keys[b]`` names instance
        ``b``) to that instance's labelling in instance-local member
        indices.  ``G[P_i]``'s components depend on the instance alone,
        so a batch whose instances are all in ``pieces`` assembles its
        labelling by concatenation; any other batch computes its own
        and files every instance's share for later batches.
        """
        np = require_numpy()
        _node, _part, member_starts, _inverse = self.member_table()
        bounds = member_starts[self.part_offsets].tolist()
        if self._member_components is None and all(key in pieces for key in keys):
            self._member_components = np.concatenate(
                [pieces[key] + bounds[b] for b, key in enumerate(keys)]
                or [np.empty(0, dtype=np.int64)]
            )
            return
        component = self.member_components()
        for b, key in enumerate(keys):
            if key not in pieces:
                pieces[key] = component[bounds[b] : bounds[b + 1]] - bounds[b]


def _offsets(np, counts):
    """``[0, c0, c0+c1, ...]`` — the ragged offset table of counts."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _np_edges(np, topology: Topology):
    """Instance-local numpy edge array, cached on the topology."""
    cached = topology._kernels.get("np_edges")
    if cached is None:
        cached = np.asarray(topology.edges, dtype=np.int64).reshape(-1, 2)
        topology._kernels["np_edges"] = cached
    return cached


def _np_tree(np, tree: SpanningTree):
    """Instance-local numpy ``(parent, depth)`` arrays, cached on the tree."""
    cached = tree._kernels.get("np_tree")
    if cached is None:
        arrays = tree_arrays(tree)
        cached = (
            np.asarray(arrays.parent, dtype=np.int64),
            np.asarray(arrays.depth, dtype=np.int64),
        )
        tree._kernels["np_tree"] = cached
    return cached


class ShortcutPack:
    """A :class:`BatchCSR` plus one tree-restricted shortcut per instance.

    The edge slots come straight from each shortcut's ``(part, child)``
    slot storage (:class:`~repro.core.shortcut.TreeRestrictedShortcut`):
    the children are viewed with :func:`numpy.frombuffer` and offset to
    global ids, ``h_part`` repeats each part id by its slot count, the
    parents are a ``tree_parent`` gather and ``h_edge`` a gather of each
    node's parent-edge id.  No Python loop runs over the slots.

    Attributes (all numpy arrays, global ids)
    -----------------------------------------
    h_part, h_edge:
        One entry per assigned edge slot across the batch, grouped by
        part: the owning global part id and the global dense edge id.
    clone_part, clone_starts:
        The clone table: deduplicated ``(part, node)`` pairs over part
        members and ``H_i`` endpoints, sorted by part then node; the
        owning part of each clone.  Part ``p`` owns clone ids
        ``[clone_starts[p], clone_starts[p + 1])``.
    h_child_clone, h_parent_clone:
        Per edge slot, the clone ids of its deeper / shallower endpoint
        (``H_i`` edges are tree edges, so the endpoints differ in depth
        by one) in the owning part's clone range.
    member_clone:
        The clone id of each member, in :meth:`BatchCSR.member_table`
        order.
    """

    __slots__ = (
        "batch",
        "h_part",
        "h_edge",
        "h_child_clone",
        "h_parent_clone",
        "clone_part",
        "clone_starts",
        "member_clone",
    )

    def member_inverse(self):
        """Member-subspace index of every covered global node (-1 else)."""
        return self.batch.member_table()[3]

    def __init__(self, batch: BatchCSR, shortcuts: Sequence) -> None:
        np = require_numpy()
        if len(shortcuts) != batch.size:
            raise ReproError(
                f"expected {batch.size} shortcuts, got {len(shortcuts)}"
            )
        self.batch = batch

        # --- flat edge-slot arrays, read straight off each shortcut's
        # (part, child) slot storage ---
        empty = np.empty(0, dtype=np.int64)  # seeds an empty batch
        h_child = np.concatenate(
            [empty]
            + [
                np.frombuffer(shortcut.children, dtype=np.int64) + batch.node_offsets[b]
                for b, shortcut in enumerate(shortcuts)
            ]
        )
        h_part = np.repeat(
            np.arange(batch.p_total, dtype=np.int64),
            np.concatenate(
                [empty]
                + [
                    np.diff(np.frombuffer(shortcut.offsets, dtype=np.int64))
                    for shortcut in shortcuts
                ]
            ),
        )
        h_parent = batch.tree_parent[h_child]
        # Each node's parent edge, as a global dense edge id.
        parent_edge = np.full(batch.n_total, -1, dtype=np.int64)
        edge_index = np.arange(batch.m_total, dtype=np.int64)
        down = batch.tree_parent[batch.edge_u] == batch.edge_v
        parent_edge[batch.edge_u[down]] = edge_index[down]
        up = batch.tree_parent[batch.edge_v] == batch.edge_u
        parent_edge[batch.edge_v[up]] = edge_index[up]
        self.h_part = h_part
        self.h_edge = parent_edge[h_child]

        # --- clone table: (part, node) pairs keyed as part*stride+node ---
        # Members are lexsorted by (part, node), so member_keys is
        # already sorted and only the H endpoint keys need a sort; the
        # clone key table is then a sorted merge instead of one big
        # unique.
        member_node, member_part, _starts, _inverse = batch.member_table()
        stride = max(batch.n_total, 1)
        member_keys = member_part * stride + member_node
        child_keys = h_part * stride + h_child
        parent_keys = h_part * stride + h_parent
        endpoint_keys = np.concatenate([child_keys, parent_keys])
        if endpoint_keys.size:
            endpoint_keys.sort()
            keep = np.empty(len(endpoint_keys), dtype=bool)
            keep[0] = True
            keep[1:] = endpoint_keys[1:] != endpoint_keys[:-1]
            endpoint_keys = endpoint_keys[keep]
            pos = np.searchsorted(member_keys, endpoint_keys)
            inside = pos < len(member_keys)
            present = np.zeros(len(endpoint_keys), dtype=bool)
            present[inside] = (
                member_keys[pos[inside]] == endpoint_keys[inside]
            )
            clone_keys = np.insert(
                member_keys, pos[~present], endpoint_keys[~present]
            )
        else:
            clone_keys = member_keys
        self.clone_part = clone_keys // stride
        self.clone_starts = np.searchsorted(
            self.clone_part, np.arange(batch.p_total + 1)
        )
        self.member_clone = np.searchsorted(clone_keys, member_keys)
        self.h_child_clone = np.searchsorted(clone_keys, child_keys)
        self.h_parent_clone = np.searchsorted(clone_keys, parent_keys)


def pointer_jump(np, pointer):
    """Fixpoint of ``p = p[p]`` — the root of every functional-graph node.

    The batched union-find: ``pointer`` maps each clone to a parent
    (itself at roots); because shortcut subgraphs are tree-edge
    forests oriented child → parent, the map is functional and
    pointer doubling converges in O(log depth) whole-array passes.
    """
    while True:
        jumped = pointer[pointer]
        if np.array_equal(jumped, pointer):
            return pointer
        pointer = jumped


def merge_components(np, component, edge_a, edge_b):
    """Merge a component labelling along extra ``(edge_a, edge_b)`` links.

    ``component`` maps each node to the smallest node of its component
    (the identity labels every node alone) and is not modified.
    Min-label propagation plus pointer doubling runs over the links
    only, so merging a few links into a precomputed labelling costs a
    few passes over the links, not over the original edges.  Returns
    the merged labelling, again smallest-node-of-component.
    """
    edge_a = component[edge_a]
    edge_b = component[edge_b]
    cross = edge_a != edge_b
    if not cross.any():
        return component
    edge_a = edge_a[cross]
    edge_b = edge_b[cross]
    component = component.copy()
    while True:
        before = component.copy()
        low = np.minimum(component[edge_a], component[edge_b])
        np.minimum.at(component, edge_a, low)
        np.minimum.at(component, edge_b, low)
        component = pointer_jump(np, component)
        if np.array_equal(component, before):
            return component


def segment_max(np, values, offsets, *, empty: int = 0):
    """Per-segment max of ``values`` over ragged ``offsets`` slices.

    ``np.maximum.reduceat`` misreads zero-length segments (it returns
    the element *at* the offset, or raises at the array end), so those
    are patched to ``empty``.
    """
    sizes = offsets[1:] - offsets[:-1]
    out = np.full(len(sizes), empty, dtype=np.int64)
    nonempty = sizes > 0
    if values.size and nonempty.any():
        reduced = np.maximum.reduceat(values, offsets[:-1][nonempty])
        out[nonempty] = reduced
    return out


def segment_min(np, values, offsets, *, empty: int = 0):
    """Per-segment min of ``values``; zero-length segments give ``empty``."""
    sizes = offsets[1:] - offsets[:-1]
    out = np.full(len(sizes), empty, dtype=np.int64)
    nonempty = sizes > 0
    if values.size and nonempty.any():
        out[nonempty] = np.minimum.reduceat(values, offsets[:-1][nonempty])
    return out


def segment_sum(np, values, offsets):
    """Per-segment sum of ``values``; zero-length segments sum to 0."""
    sizes = offsets[1:] - offsets[:-1]
    out = np.zeros(len(sizes), dtype=np.int64)
    nonempty = sizes > 0
    if values.size and nonempty.any():
        out[nonempty] = np.add.reduceat(values, offsets[:-1][nonempty])
    return out


#: Largest max-degree for which the scan's BFS levels use the padded
#: ELL adjacency (one 2-D gather per level).  Beyond it — hub-style
#: segments with one high-degree center — the overfetch of
#: ``maxdeg × frontier`` entries outweighs the saved slot arithmetic
#: and the CSR gather path is used instead.
ELL_DEGREE_LIMIT = 16


def _first_best(np, keys, nodes, counts, total):
    """Per run of ``counts`` consecutive entries, the lowest of ``nodes``
    holding the run's largest key; ``total`` for an empty run.

    One ``maximum.reduceat`` over ``key * (total + 1) + (total - node)``
    picks the largest key and, among ties, the smallest node.
    """
    out = np.full(len(counts), total, dtype=np.int64)
    nonempty = counts > 0
    if keys.size:
        heads = (np.cumsum(counts) - counts)[nonempty]
        best = np.maximum.reduceat(keys * (total + 1) + (total - nodes), heads)
        out[nonempty] = total - best % (total + 1)
    return out


class _Adjacency:
    """A local graph for lockstep BFS: padded ELL rows when the max
    degree is at most :data:`ELL_DEGREE_LIMIT`, CSR otherwise.

    ELL padding points at the sentinel slot ``n`` (one past the
    nodes), whose distance the BFS pins at 0 so one mask drops pads
    and visited nodes alike.
    """

    __slots__ = ("n", "ell", "indptr", "indices")

    def __init__(self, np, indptr, indices):
        self.n = len(indptr) - 1
        self.indptr, self.indices, self.ell = indptr, indices, None
        degrees = indptr[1:] - indptr[:-1]
        maxdeg = int(degrees.max()) if len(degrees) else 0
        if 0 < maxdeg <= ELL_DEGREE_LIMIT:
            # Row-major so each frontier node's slots gather contiguously.
            self.ell = np.full((self.n, maxdeg), self.n, dtype=np.int64)
            row = np.repeat(np.arange(self.n, dtype=np.int64), degrees)
            slot = np.arange(len(indices), dtype=np.int64) - indptr[row]
            self.ell[row, slot] = indices

    def copies(self, np, origin, shift):
        """The disjoint union of node copies: copy ``x`` is node
        ``origin[x]``, and its neighbors are ``origin[x]``'s shifted by
        ``shift[x]`` (one shift per copied segment, so edges stay
        inside a copy)."""
        copy = _Adjacency.__new__(_Adjacency)
        copy.n = len(origin)
        if self.ell is not None:
            rows = self.ell[origin]
            copy.ell = np.where(rows == self.n, copy.n, rows + shift[:, None])
            copy.indptr = copy.indices = None
            return copy
        degrees = self.indptr[origin + 1] - self.indptr[origin]
        copy.ell = None
        copy.indptr = _offsets(np, degrees)
        slots = np.arange(int(copy.indptr[-1]), dtype=np.int64) + np.repeat(
            self.indptr[origin] - copy.indptr[:-1], degrees
        )
        copy.indices = self.indices[slots] + np.repeat(shift, degrees)
        return copy

    def bfs(self, np, dist, stamp, frontier):
        """Expand every source in ``frontier`` (at distance 0) level by
        level, writing hop counts into ``dist`` where it holds ``-1``;
        sources in different segments never meet, so one lockstep pass
        is one BFS per segment."""
        level = 0
        while frontier.size:
            if self.ell is not None:
                found = self.ell.take(frontier, axis=0).ravel()
            else:
                base = self.indptr.take(frontier)
                degrees = self.indptr.take(frontier + 1) - base
                slot_count = int(degrees.sum())
                if not slot_count:
                    return
                shift = np.cumsum(degrees) - degrees - base
                slots = np.arange(slot_count, dtype=np.int64) - np.repeat(
                    shift, degrees
                )
                found = self.indices.take(slots)
            # ``take``/``compress`` rather than fancy and boolean
            # indexing: the same gathers without the general indexing
            # machinery, which dominates at frontier sizes.
            found = found.compress(dist.take(found) < 0)
            if not found.size:
                return
            level += 1
            dist[found] = level
            # Dedupe without sorting: scatter each candidate's position,
            # keep the one whose write survived.  Stale stamp slots are
            # never read — only just-written indices are gathered back.
            pos = np.arange(found.size, dtype=np.int64)
            stamp[found] = pos
            frontier = found.compress(stamp.take(found) == pos)


def bounded_diameter_batch(np, indptr, indices, starts):
    """Exact diameter of every segment of a concatenated local graph.

    Batch twin of :func:`repro.graphs.csr.bounded_diameter`: segment
    ``s`` owns nodes ``[starts[s], starts[s + 1])`` of the shared CSR
    (``indices`` never cross a segment boundary).  Returns one diameter
    per segment, ``-1`` where a segment is disconnected.

    Every segment runs the same exact eccentricity-bounding scan as
    the per-instance :func:`bounded_diameter` — sources alternating
    between the widest upper and the smallest lower bound, interval
    updates, candidate kills — except that all still-active segments
    step their BFS frontiers together, one vectorized gather per
    level.  Between passes only the alive candidates are touched: they
    and their bounds live in compact segment-contiguous arrays that
    shrink with every kill.

    The scan kills few candidates per pass on near-symmetric segments
    (cycles, tori), whose tail would cost one near-empty lockstep pass
    per kill.  So once one BFS from *every* remaining candidate costs
    at most half the node visits of the first pass, the scan stops and
    runs exactly that: one lockstep pass over a private copy of its
    segment per candidate.  A killed node's eccentricity never exceeds
    the best one already seen, so the diameter is the larger of that
    and the candidates' eccentricities.
    """
    starts = np.asarray(starts, dtype=np.int64)
    segments = len(starts) - 1
    total = int(starts[-1] - starts[0])
    sizes = starts[1:] - starts[:-1]
    diameter = np.zeros(segments, dtype=np.int64)
    if not total:
        return diameter
    seg_of = np.repeat(np.arange(segments, dtype=np.int64), sizes)
    graph = _Adjacency(np, indptr, indices)

    infinity = 2 * int(sizes.max()) + 2
    worst = np.zeros(segments, dtype=np.int64)
    # The next BFS source per segment: the widest-upper candidate and
    # the smallest-lower one; passes alternate between the two.
    upper_source = starts[:-1].copy()
    lower_source = starts[1:] - 1
    dist = np.empty(total + 1, dtype=np.int64)
    dist[total] = 0  # the ELL padding sentinel
    stamp = np.empty(total, dtype=np.int64)

    # Singleton segments are done at 0.  ``nodes`` holds every node of
    # the active segments; ``cand`` the alive candidates among them,
    # with their eccentricity bounds ``lower``/``upper`` alongside.
    active = np.flatnonzero(sizes > 1)
    nodes = np.flatnonzero(sizes[seg_of] > 1)
    cand = nodes
    lower = np.zeros(cand.size, dtype=np.int64)
    upper = np.full(cand.size, infinity, dtype=np.int64)
    rank_of = np.empty(segments, dtype=np.int64)
    first_pass = True
    pick_upper = True
    while active.size:
        count = len(active)
        asz = sizes[active]
        heads = np.cumsum(asz) - asz

        # One synchronized BFS pass: every active segment expands from
        # its source.
        dist[nodes] = -1
        frontier = (upper_source if pick_upper else lower_source)[active]
        dist[frontier] = 0
        graph.bfs(np, dist, stamp, frontier)

        # ``nodes`` concatenates the active segments' node ranges in
        # rank order, so eccentricities are one segmented reduction.
        reach = dist.take(nodes)
        ecc = np.maximum.reduceat(reach, heads)
        rank_of[active] = np.arange(count, dtype=np.int64)
        if first_pass:
            # Connectivity is settled by the first BFS of each segment.
            first_pass = False
            connected = np.minimum.reduceat(reach, heads) >= 0
            if not connected.all():
                diameter[active[~connected]] = -1
                keep = connected[rank_of[seg_of[cand]]]
                cand, lower, upper = cand[keep], lower[keep], upper[keep]
                nodes = nodes[np.repeat(connected, asz)]
                active, asz, ecc = active[connected], asz[connected], ecc[connected]
                count = len(active)
                rank_of[active] = np.arange(count, dtype=np.int64)

        # Interval updates for the alive candidates; a still-active
        # segment always keeps at least one, so every run is nonempty.
        rank = rank_of.take(seg_of.take(cand))
        d = dist.take(cand)
        e = ecc.take(rank)
        np.maximum(lower, np.maximum(d, e - d), out=lower)
        np.minimum(upper, e + d, out=upper)
        # Lower bounds can push the best-known eccentricity before the
        # kill check, as in the per-segment scan.
        runs = np.bincount(rank, minlength=count)
        best_ecc = np.maximum(worst[active], ecc)
        if cand.size:
            np.maximum(
                best_ecc,
                np.maximum.reduceat(lower, np.cumsum(runs) - runs),
                out=best_ecc,
            )
        worst[active] = best_ecc
        survive = (upper > best_ecc[rank]) & (lower != upper)
        cand, lower, upper = cand[survive], lower[survive], upper[survive]
        runs = np.bincount(rank[survive], minlength=count)
        still = runs > 0
        nodes = nodes[np.repeat(still, asz)]
        active = active[still]
        if 2 * int(runs @ asz) <= total:
            break

        # Next sources per segment: widest upper bound and smallest
        # lower bound; the lowest node breaks ties.
        runs = runs[still]
        upper_source[active] = _first_best(np, upper, cand, runs, total)
        lower_source[active] = _first_best(np, infinity - lower, cand, runs, total)
        pick_upper = not pick_upper

    if cand.size:
        # The finishing pass: one BFS per remaining candidate, each in
        # its own copy of the candidate's segment.
        home = starts[seg_of[cand]]
        copy_sizes = sizes[seg_of[cand]]
        copy_starts = _offsets(np, copy_sizes)
        shift = copy_starts[:-1] - home
        origin = np.arange(int(copy_starts[-1]), dtype=np.int64) - np.repeat(
            shift, copy_sizes
        )
        copies = graph.copies(np, origin, np.repeat(shift, copy_sizes))
        copy_dist = np.full(copies.n + 1, -1, dtype=np.int64)
        copy_dist[copies.n] = 0
        sources = cand + shift
        copy_dist[sources] = 0
        copies.bfs(np, copy_dist, np.empty(copies.n, dtype=np.int64), sources)
        ecc = np.maximum.reduceat(copy_dist[:-1], copy_starts[:-1])
        np.maximum.at(worst, seg_of[cand], ecc)
    np.maximum(diameter, np.where(diameter >= 0, worst, -1), out=diameter)
    return diameter


def popcount_rows(np, words):
    """Per-row popcount of a 2-D uint64 bitset array."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    # SWAR fallback for numpy < 2.0.
    x = words.copy()
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x * np.uint64(0x0101010101010101)) >> np.uint64(56)
    return x.sum(axis=1, dtype=np.int64)
