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
batch) plus the *clone table* — the deduplicated ``(part, node)``
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

from typing import List, Optional, Sequence, Tuple

from repro.congest.topology import Topology
from repro.errors import ReproError
from repro.graphs.csr import edge_ids, tree_arrays
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

    The member table (:meth:`member_table`), the part-internal
    components (:meth:`member_components`) and the tree edge ids
    (:meth:`tree_edge_ids`) depend only on the packed triples, so they
    are built lazily once per batch and shared by every shortcut or
    ladder iteration over it.
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
        "_tree_edge_id",
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
        self._tree_edge_id = None
        self._members = None
        self._member_components = None

    def tree_edge_ids(self):
        """Global dense edge id of each node's parent tree edge (-1 at roots).

        Lazily built: one sort of the batch edge keys plus one
        searchsorted for all parent edges at once.  Lets array-native
        producers of edge slots (the fused construct → measure → verify
        pipeline) resolve tree edges to dense ids without touching the
        per-instance ``edge_ids`` dicts.
        """
        cached = self._tree_edge_id
        if cached is None:
            np = require_numpy()
            stride = max(self.n_total, 1)
            lo = np.minimum(self.edge_u, self.edge_v)
            hi = np.maximum(self.edge_u, self.edge_v)
            keys = lo * stride + hi
            order = np.argsort(keys, kind="stable")
            nodes = np.arange(self.n_total, dtype=np.int64)
            parent = self.tree_parent
            has = parent >= 0
            nlo = np.minimum(nodes[has], parent[has])
            nhi = np.maximum(nodes[has], parent[has])
            pos = np.searchsorted(keys[order], nlo * stride + nhi)
            cached = np.full(self.n_total, -1, dtype=np.int64)
            cached[has] = order[pos]
            self._tree_edge_id = cached
        return cached

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

    ``shortcuts`` holds the packed per-instance shortcut objects, or
    ``None`` for packs built by :meth:`from_arrays` — the array-native
    path never materializes them, and consumers use the batch's packed
    trees / partitions instead.

    Attributes (all numpy arrays, global ids)
    -----------------------------------------
    h_part, h_edge, h_child, h_parent:
        One entry per assigned edge slot across the batch: the owning
        global part id, the global dense edge id, and the slot's
        deeper / shallower endpoint (``H_i`` edges are tree edges, so
        the endpoints differ in depth by one).
    clone_keys, clone_part, clone_node, clone_starts:
        The clone table: deduplicated ``(part, node)`` pairs over part
        members and ``H_i`` endpoints, sorted by part then node
        (``clone_keys`` is the sorted ``part * stride + node`` key
        array for :func:`numpy.searchsorted` lookups, with ``stride``
        the batch node total).  Part ``p`` owns clone ids
        ``[clone_starts[p], clone_starts[p + 1])``.
    h_child_clone, h_parent_clone:
        Per edge slot, the clone ids of its endpoints in the owning
        part's clone range.
    member_node, member_part, member_starts, member_clone:
        Covered nodes sorted by (part, node): the global node, its
        part, the per-part offsets into these arrays (all three shared
        with :meth:`BatchCSR.member_table`), and each member's clone id.
    """

    __slots__ = (
        "batch",
        "shortcuts",
        "h_part",
        "h_edge",
        "h_child",
        "h_parent",
        "h_child_clone",
        "h_parent_clone",
        "clone_keys",
        "clone_stride",
        "clone_part",
        "clone_node",
        "clone_starts",
        "member_node",
        "member_part",
        "member_starts",
        "member_clone",
        "_block_roots",
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
        self.shortcuts = tuple(shortcuts)

        # --- flat edge-slot arrays (one Python pass over the frozensets;
        # everything after this loop is numpy) ---
        slots: List[Tuple[int, int, int, int]] = []
        for b, shortcut in enumerate(self.shortcuts):
            n0 = int(batch.node_offsets[b])
            p0 = int(batch.part_offsets[b])
            e0 = int(batch.edge_offsets[b])
            ids = edge_ids(batch.topologies[b])
            slots.extend(
                (p0 + index, n0 + edge[0], n0 + edge[1], e0 + ids[edge])
                for index, subgraph in enumerate(shortcut.subgraphs)
                for edge in subgraph
            )
        flat = np.asarray(slots, dtype=np.int64).reshape(-1, 4)
        h_part = flat[:, 0].copy()
        h_u = flat[:, 1].copy()
        h_v = flat[:, 2].copy()
        self.h_part = h_part
        self.h_edge = flat[:, 3].copy()
        deeper = batch.tree_depth[h_u] > batch.tree_depth[h_v]
        self.h_child = np.where(deeper, h_u, h_v)
        self.h_parent = np.where(deeper, h_v, h_u)
        self._finish(np)

    @classmethod
    def from_arrays(
        cls,
        batch: BatchCSR,
        h_part,
        h_child,
        h_parent,
        h_edge,
        shortcuts: Optional[Sequence] = None,
    ) -> "ShortcutPack":
        """Build a pack from flat edge-slot arrays (global ids).

        The array-native entry for producers that already hold the
        assigned slots as arrays — the fused construct → measure →
        verify pipeline feeds the Algorithm 1 sweep output straight in,
        skipping Python shortcut materialization entirely.  ``h_child``
        must be the deeper endpoint of every slot.  ``shortcuts`` may
        stay ``None``; consumers then fall back to the batch's packed
        trees / partitions.
        """
        np = require_numpy()
        self = cls.__new__(cls)
        self.batch = batch
        self.shortcuts = None if shortcuts is None else tuple(shortcuts)
        self.h_part = h_part
        self.h_edge = h_edge
        self.h_child = h_child
        self.h_parent = h_parent
        self._finish(np)
        return self

    def _finish(self, np) -> None:
        """Derive the member and clone tables from the edge-slot arrays."""
        batch = self.batch

        # --- members sorted by (part, node), shared with the batch ---
        self.member_node, self.member_part, self.member_starts, _inverse = (
            batch.member_table()
        )

        # --- clone table: (part, node) pairs keyed as part*stride+node ---
        # member_keys is already sorted (members are lexsorted by part,
        # node), so only the H endpoint keys need a sort; the clone key
        # table is then a sorted merge instead of one big unique.
        stride = max(batch.n_total, 1)
        member_keys = self.member_part * stride + self.member_node
        endpoint_keys = np.concatenate(
            [
                self.h_part * stride + self.h_child,
                self.h_part * stride + self.h_parent,
            ]
        )
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
            clone_keys = member_keys.copy()
        self.clone_keys = clone_keys
        self.clone_stride = stride
        self.clone_part = clone_keys // stride
        self.clone_node = clone_keys % stride
        self.clone_starts = np.searchsorted(
            self.clone_part, np.arange(batch.p_total + 1)
        )
        self.member_clone = np.searchsorted(clone_keys, member_keys)
        self.h_child_clone = np.searchsorted(
            clone_keys, self.h_part * stride + self.h_child
        )
        self.h_parent_clone = np.searchsorted(
            clone_keys, self.h_part * stride + self.h_parent
        )
        self._block_roots = None


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


#: Once the scan's active set shrinks below this fraction of its
#: starting population, still-active small segments are handed to the
#: bit-parallel straggler kernel — the last few high-pass-count
#: segments would otherwise each charge a whole near-empty level loop
#: per extra pass.
HANDOFF_FRACTION = 64

#: Largest segment (in clones) eligible for the straggler handoff —
#: three uint64 words of reach set per node.  Larger stragglers stay
#: in the scan, whose cost scales with BFS sources, not segment size.
BIT_SEGMENT_LIMIT = 192

#: Largest max-degree for which the scan's BFS levels use the padded
#: ELL adjacency (one 2-D gather per level).  Beyond it — hub-style
#: segments with one high-degree center — the overfetch of
#: ``maxdeg × frontier`` entries outweighs the saved slot arithmetic
#: and the CSR gather path is used instead.
ELL_DEGREE_LIMIT = 16

#: The scan switches from one BFS source per segment per pass to two
#: once fewer than ``initial / PAIR_FRACTION`` segments remain active.
#: Early passes are wide — their cost is gather bandwidth, which a
#: second source would double — while tail passes are dominated by
#: fixed per-level call overhead, which pairing halves.
PAIR_FRACTION = 8


def bounded_diameter_batch(np, indptr, indices, starts):
    """Exact diameter of every segment of a concatenated local graph.

    Batch twin of :func:`repro.graphs.csr.bounded_diameter`: segment
    ``s`` owns nodes ``[starts[s], starts[s + 1])`` of the shared CSR
    (``indices`` never cross a segment boundary).  Returns one diameter
    per segment, ``-1`` where a segment is disconnected.

    Every segment runs the same exact eccentricity-bounding scan as
    the per-instance :func:`bounded_diameter` — widest-upper and
    smallest-lower BFS sources, interval updates, candidate kills —
    except that all still-active segments step their BFS frontiers
    together, one vectorized gather per level, and every pass compacts
    its working set to the segments still converging.  Each pass runs
    *two* sources per segment at once (the widest-upper and the
    smallest-lower candidate) in a duplicated virtual node space, so
    the number of lockstep level loops is halved.  Once only a
    straggling few segments remain, the small ones are finished by
    :func:`_diameter_bits` instead — a high-pass-count straggler would
    otherwise charge a whole near-empty level loop per extra pass.
    Both kernels are exact, so the result matches looping
    :func:`bounded_diameter` per segment.
    """
    starts = np.asarray(starts, dtype=np.int64)
    segments = len(starts) - 1
    total = int(starts[-1] - starts[0])
    sizes = starts[1:] - starts[:-1]
    diameter = np.zeros(segments, dtype=np.int64)
    if not total:
        return diameter
    seg_of = np.repeat(np.arange(segments, dtype=np.int64), sizes)

    infinity = 2 * int(sizes.max()) + 2
    lower = np.zeros(total, dtype=np.int64)
    upper = np.full(total, infinity, dtype=np.int64)
    alive = sizes[seg_of] > 1  # singleton segments are done at 0
    worst = np.zeros(segments, dtype=np.int64)
    # Two BFS sources per segment per pass: the widest-upper candidate
    # (``source_a``) and the smallest-lower one (``source_b``) expand
    # simultaneously in a duplicated virtual node space — node ``v`` of
    # copy B is slot ``v + total`` — halving the lockstep level loops.
    source_a = np.where(sizes > 1, starts[:-1], -1)
    source_b = np.where(sizes > 1, starts[1:] - 1, -1)
    # One sentinel slot past both copies: ELL padding points there and
    # its distance is pinned >= 0, so one mask drops pads and visited.
    pad = 2 * total
    dist = np.empty(pad + 1, dtype=np.int64)
    dist[pad] = 0
    stamp = np.empty(pad, dtype=np.int64)

    degrees_all = indptr[1:] - indptr[:-1]
    maxdeg = int(degrees_all.max()) if len(degrees_all) else 0
    ell = None
    if 0 < maxdeg <= ELL_DEGREE_LIMIT:
        # Row-major so each frontier node's slots gather contiguously.
        ell = np.full((total, maxdeg), pad, dtype=np.int64)
        for k in range(maxdeg):
            rows = np.flatnonzero(degrees_all > k)
            ell[rows, k] = indices[indptr[rows] + k]
        ell = np.concatenate([ell, np.where(ell == pad, pad, ell + total)])
        v_indptr = indptr
        v_indices = indices
    else:
        v_indices = np.concatenate([indices, indices + total])
        v_indptr = np.concatenate([indptr, indptr[1:] + len(indices)])

    active = np.flatnonzero(source_a >= 0)
    initial_active = max(int(active.size), 1)
    pick_upper = True
    while active.size:
        count = len(active)
        asz = sizes[active]
        heads = np.cumsum(asz) - asz
        nsel = (
            np.arange(int(asz.sum()), dtype=np.int64)
            - np.repeat(heads, asz)
            + np.repeat(starts[:-1][active], asz)
        )
        paired = count * PAIR_FRACTION <= initial_active

        # One synchronized BFS pass: every active segment expands from
        # its source — from both its sources at once in the tail; a
        # level step is one gather over all frontiers of both copies.
        dist[nsel] = -1
        if paired:
            dist[nsel + total] = -1
            frontier = np.concatenate(
                [source_a[active], source_b[active] + total]
            )
        elif pick_upper:
            frontier = source_a[active]
        else:
            frontier = source_b[active]
        dist[frontier] = 0
        level = 0
        while frontier.size:
            if ell is not None:
                cand = ell[frontier].ravel()
            else:
                base = v_indptr[frontier]
                degrees = v_indptr[frontier + 1] - base
                slot_count = int(degrees.sum())
                if not slot_count:
                    break
                shift = np.cumsum(degrees) - degrees - base
                slots = np.arange(slot_count, dtype=np.int64) - np.repeat(
                    shift, degrees
                )
                cand = v_indices[slots]
            cand = cand[dist[cand] < 0]
            if not cand.size:
                break
            level += 1
            dist[cand] = level
            # Dedupe without sorting: scatter each candidate's position,
            # keep the one whose write survived.  Stale stamp slots are
            # never read — only just-written indices are gathered back.
            pos = np.arange(cand.size, dtype=np.int64)
            stamp[cand] = pos
            frontier = cand[stamp[cand] == pos]

        # Pass-end accounting: dist[nsel] is segment-contiguous (nsel
        # concatenates the active segments' node ranges in rank order),
        # so eccentricities and reach counts are segmented reductions
        # instead of per-level scatters.
        bounds = np.append(heads, nsel.size)
        d_a = dist[nsel]
        ecc_a = segment_max(np, d_a, bounds, empty=0)
        top_ecc = ecc_a
        if paired:
            d_b = dist[nsel + total]
            ecc_b = segment_max(np, d_b, bounds, empty=0)
            top_ecc = np.maximum(ecc_a, ecc_b)
        reached = segment_sum(np, (d_a >= 0).astype(np.int64), bounds)
        ok = reached == asz
        if not ok.all():
            dead = active[~ok]
            diameter[dead] = -1
            source_a[dead] = -1
        best_ecc = np.maximum(worst[active], np.where(ok, top_ecc, 0))

        # Interval updates for alive nodes of still-connected segments,
        # folding in every expanded source's distance vector at once.
        node_rank = np.repeat(np.arange(count, dtype=np.int64), asz)
        keep = alive[nsel] & ok[node_rank]
        touched = nsel[keep]
        rank = node_rank[keep]
        da = d_a[keep]
        ea = ecc_a[rank]
        low = np.maximum(lower[touched], np.maximum(da, ea - da))
        up = np.minimum(upper[touched], ea + da)
        if paired:
            db = d_b[keep]
            eb = ecc_b[rank]
            np.maximum(low, np.maximum(db, eb - db), out=low)
            np.minimum(up, eb + db, out=up)
        lower[touched] = low
        upper[touched] = up
        # Lower bounds can push the best-known eccentricity before the
        # kill check, as in the per-segment scan.
        lower_best = np.zeros(count, dtype=np.int64)
        np.maximum.at(lower_best, rank, low)
        best_ecc = np.maximum(best_ecc, np.where(ok, lower_best, 0))
        worst[active] = best_ecc
        kill = (up <= best_ecc[rank]) | (low == up)
        alive[touched[kill]] = False

        # Next source pair per active segment: widest upper bound and
        # smallest lower bound; first index breaks ties.
        survivor = touched[~kill]
        survivor_rank = rank[~kill]
        key_u = up[~kill]
        key_l = infinity - low[~kill]
        best_u = np.full(count, -1, dtype=np.int64)
        np.maximum.at(best_u, survivor_rank, key_u)
        best_l = np.full(count, -1, dtype=np.int64)
        np.maximum.at(best_l, survivor_rank, key_l)
        first_u = np.full(count, total, dtype=np.int64)
        is_u = key_u == best_u[survivor_rank]
        np.minimum.at(first_u, survivor_rank[is_u], survivor[is_u])
        first_l = np.full(count, total, dtype=np.int64)
        is_l = key_l == best_l[survivor_rank]
        np.minimum.at(first_l, survivor_rank[is_l], survivor[is_l])
        still = (source_a[active] >= 0) & (first_u < total)
        source_a[active] = np.where(still, first_u, -1)
        source_b[active] = np.where(still, first_l, -1)
        if not paired:
            pick_upper = not pick_upper
        active = active[still]

        if active.size and active.size * HANDOFF_FRACTION <= initial_active:
            # Straggler handoff: small segments still converging finish
            # by bit-parallel all-pairs BFS in one go (exact, and cheap
            # now that only a few segments remain); large ones keep
            # scanning.
            hand = sizes[active] <= BIT_SEGMENT_LIMIT
            if hand.any():
                handoff = active[hand]
                pick = np.zeros(segments, dtype=bool)
                pick[handoff] = True
                sub_indptr, sub_indices, sub_starts = _extract_segments(
                    np, indptr, indices, starts, pick
                )
                diameter[handoff] = _diameter_bits(
                    np, sub_indptr, sub_indices, sub_starts
                )
                # Exact values: shield them from the final lower-bound
                # merge by lifting worst to the answer.
                worst[handoff] = diameter[handoff]
                active = active[~hand]
    np.maximum(diameter, np.where(diameter >= 0, worst, -1), out=diameter)
    return diameter


def _extract_segments(np, indptr, indices, starts, pick):
    """Renumbered sub-CSR of the segments selected by boolean ``pick``."""
    sizes = starts[1:] - starts[:-1]
    seg_of = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    node_mask = pick[seg_of]
    sel_nodes = np.flatnonzero(node_mask)
    new_id = np.empty(int(starts[-1]), dtype=np.int64)
    new_id[sel_nodes] = np.arange(len(sel_nodes), dtype=np.int64)
    degrees = indptr[1:] - indptr[:-1]
    sub_indptr = _offsets(np, degrees[sel_nodes])
    sub_indices = new_id[indices[np.repeat(node_mask, degrees)]]
    sub_starts = _offsets(np, sizes[pick])
    return sub_indptr, sub_indices, sub_starts


def _ell_slots(np, indptr, indices):
    """ELL-style adjacency slots: ``(rows, k-th neighbor)`` per degree slot.

    Each slot pairs the nodes of degree > k with their k-th adjacency
    entry, so a whole BFS step is one plain vectorized op per slot —
    rows are unique within a slot, which makes fancy ``|=`` exact.
    """
    degrees = indptr[1:] - indptr[:-1]
    if not len(indices):
        return []
    slots = []
    for k in range(int(degrees.max())):
        rows = np.flatnonzero(degrees > k)
        slots.append((rows, indices[indptr[rows] + k]))
    return slots


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


def _diameter_bits(np, indptr, indices, starts):
    """Bit-parallel all-pairs BFS diameter of every (small) segment.

    Each node carries its reach set as segment-local uint64 words; one
    step ORs every node's neighbors' reach sets into its own, and a
    node's eccentricity is the first step at which its reach set spans
    its whole segment.  A reach set that stabilizes short of full
    coverage certifies its segment disconnected (``-1``).  Exact, and
    sized for the scan's straggler handoff: a handful of segments of
    at most :data:`BIT_SEGMENT_LIMIT` nodes each.
    """
    starts = np.asarray(starts, dtype=np.int64)
    segments = len(starts) - 1
    sizes = starts[1:] - starts[:-1]
    total = int(starts[-1])
    if not total:
        return np.zeros(segments, dtype=np.int64)
    seg_of = np.repeat(np.arange(segments, dtype=np.int64), sizes)
    local = np.arange(total, dtype=np.int64) - starts[:-1][seg_of]
    words = (int(sizes.max()) + 63) >> 6

    reach = np.zeros((total, words), dtype=np.uint64)
    reach[np.arange(total), local >> 6] = np.left_shift(
        np.uint64(1), (local & 63).astype(np.uint64)
    )
    target = sizes[seg_of]
    ecc = np.full(total, -1, dtype=np.int64)
    done = target == 1  # singleton segments have eccentricity 0
    ecc[done] = 0
    slots = _ell_slots(np, indptr, indices)
    step = 0
    while not done.all():
        step += 1
        # One BFS step: OR each node's neighbors' reach sets into a
        # fresh buffer, one vectorized pass per adjacency slot (rows
        # are unique within a slot, so fancy |= is safe).
        grown = reach.copy()
        for rows, neighbors in slots:
            grown[rows] |= reach[neighbors]
        if np.array_equal(grown, reach):
            # Stabilized: every not-done node is disconnected from part
            # of its segment.
            bad = segment_min(np, ecc, starts, empty=0) < 0
            return np.where(bad, -1, segment_max(np, ecc, starts, empty=0))
        reach = grown
        newly = ~done & (popcount_rows(np, reach) == target)
        ecc[newly] = step
        done |= newly
    return segment_max(np, ecc, starts, empty=0)
