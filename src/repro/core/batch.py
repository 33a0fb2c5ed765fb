"""Vectorized batch kernels — amortize the fast stack across instances.

The per-instance fast paths (engine, quality kernels, direct
construction, direct backends, array-native instances) are Python over
flat arrays, one instance at a time; the experiment grids and the
shortcut service both run many *similar* instances.  This module adds
the selection axis ``batch=``, mirroring ``engine=`` / ``mode=`` /
``backend=``:

* ``batch="loop"`` (default) runs the existing per-instance kernels in
  a Python loop — the executable reference for the batch layer, and
  the only choice when numpy is absent;
* ``batch="vector"`` packs a whole batch into one
  :class:`~repro.graphs.batch_csr.BatchCSR` (plus a
  :class:`~repro.graphs.batch_csr.ShortcutPack` to measure) and
  computes the same quantities in single numpy ops over the
  concatenation.

Entry points take ``batch=``; ``None`` uses the :data:`BATCH` axis,
which :func:`using_batch` sets for a block on the current thread only.
There are two: :func:`measure_batch` and the Appendix A doubling
search :func:`find_shortcut_doubling_batch`.  Their vectorized twins:

* **block counts** (:func:`block_counts_batch`) — the per-part
  union-find of :func:`repro.core.quality_fast.block_counts` becomes
  pointer jumping over the clone table: ``H_i`` edges are tree edges
  oriented child → parent, so the block structure is a functional
  forest and one ``p = p[p]`` fixpoint roots every clone at once;
* **congestion** (:func:`congestion_batch`,
  :func:`shortcut_congestion_batch`) — the counting arrays of
  :func:`repro.core.quality_fast.congestion` become one
  :func:`numpy.bincount` over global dense edge ids plus a segmented
  max per instance;
* **dilation** (:func:`dilation_batch`) — the frontier BFS with
  eccentricity bounding becomes
  :func:`repro.graphs.batch_csr.bounded_diameter_batch`: every
  communication subgraph advances the same exact scan, all of them in
  lockstep, one vectorized gather per BFS level;
* **the ladder's rungs** (:func:`_find_shortcut_wave`), CoreFast only
  (CoreSlow runs per instance) and climbed by the same Appendix A
  driver as the per-instance search — CoreFast's Phase A, the
  Algorithm 1 upward sweep of
  :func:`repro.core.construct_fast._upward_sweep` over the sampled
  parts, becomes a level-synchronous pass (:func:`_upward_sweep_batch`):
  BFS-tree parents sit exactly one level up, so each depth's merge of
  forwarded id sets is one :func:`numpy.unique` over ``node * P + id``
  keys, and the ``done``/``seal`` round recurrence scatters with
  ``maximum.at``.  The Phase B flood is a lockstep bitset replay
  (:func:`_flood_up_batch`), and Verification reads each member's
  block off the flood's node forest (:func:`_forest_counts`) and
  reduces verdicts over the cached part-internal components
  (:func:`_verdict_counts`); the tentative shortcuts are never packed.
  The good parts' slots freeze as arrays of ``part * n + child`` keys
  and become the result's ``(part, child)`` slot storage
  (:class:`~repro.core.shortcut.TreeRestrictedShortcut`) by one sort,
  which :class:`~repro.graphs.batch_csr.ShortcutPack` reads without a
  Python loop over slots.

Equivalence contract
--------------------

``batch="vector"`` reproduces the per-instance loop **bit-for-bit**:
identical :class:`~repro.core.quality.QualityReport` fields (plain
Python ints, never numpy scalars), identical doubling trials, good
histories, shortcuts and ledgers, and the same
:class:`~repro.errors.ShortcutError` on the first disconnected
communication subgraph in loop order.  The differential suite in
``tests/core/test_batch_equivalence.py`` and the property suites in
``tests/properties/test_prop_batch.py`` and
``tests/properties/test_prop_batch_construct.py`` enforce it, exactly
as every other fast path is licensed.

numpy is optional (the ``fast-math`` extra): selecting ``"vector"``
without numpy raises the install-hint error of
:func:`repro.graphs.batch_csr.require_numpy`; the default stays
``"loop"`` so nothing in the base install changes behavior.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.axes import Axis
from repro.congest.randomness import mix
from repro.congest.topology import Topology
from repro.congest.trace import RoundLedger
from repro.core.quality import QualityReport
from repro.core.shortcut import TreeRestrictedShortcut
from repro.errors import ShortcutError
from repro.graphs.batch_csr import (
    BatchCSR,
    ShortcutPack,
    bounded_diameter_batch,
    merge_components,
    numpy_available,
    pointer_jump,
    popcount_rows,
    require_numpy,
    segment_max,
    segment_min,
    segment_sum,
)
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree

# ----------------------------------------------------------------------
# The batch= axis (loop vs vector)
# ----------------------------------------------------------------------

BATCHES: Tuple[str, ...] = ("loop", "vector")

BATCH = Axis.of_choices("batch", "loop", BATCHES, ShortcutError)

get_default_batch = BATCH.get
using_batch = BATCH.using
resolve_batch = BATCH.resolve


# ----------------------------------------------------------------------
# Quality kernels
# ----------------------------------------------------------------------


def pack_shortcuts(
    shortcuts: Sequence[TreeRestrictedShortcut], topologies: Sequence[Topology]
) -> ShortcutPack:
    """Pack shortcuts (with their trees/partitions) over topologies."""
    batch = BatchCSR(
        topologies,
        [shortcut.tree for shortcut in shortcuts],
        [shortcut.partition for shortcut in shortcuts],
    )
    return ShortcutPack(batch, shortcuts)


def block_counts_batch(pack: ShortcutPack) -> List[List[int]]:
    """Per-instance block counts — batch twin of
    :func:`repro.core.quality_fast.block_counts`."""
    np = require_numpy()
    batch = pack.batch
    # Each (part, child) clone has at most one outgoing tree edge, so
    # the block structure is a functional forest: one pointer-jump
    # fixpoint replaces the per-part union-find.
    pointer = np.arange(len(pack.clone_part), dtype=np.int64)
    pointer[pack.h_child_clone] = pack.h_parent_clone
    roots = pointer_jump(np, pointer)[pack.member_clone]
    distinct = np.unique(roots)
    counts = np.bincount(pack.clone_part[distinct], minlength=batch.p_total)
    return [
        counts[batch.part_offsets[b] : batch.part_offsets[b + 1]].tolist()
        for b in range(batch.size)
    ]


def shortcut_congestion_batch(pack: ShortcutPack) -> List[int]:
    """Per-instance shortcut congestion (max ``H_i`` per tree edge)."""
    np = require_numpy()
    batch = pack.batch
    count = np.bincount(pack.h_edge, minlength=batch.m_total).astype(np.int64)
    return segment_max(np, count, batch.edge_offsets, empty=0).tolist()


def congestion_batch(pack: ShortcutPack) -> List[int]:
    """Per-instance Definition 1 congestion — batch twin of
    :func:`repro.core.quality_fast.congestion`."""
    np = require_numpy()
    batch = pack.batch
    count = np.bincount(pack.h_edge, minlength=batch.m_total).astype(np.int64)
    owner_u = batch.labels[batch.edge_u]
    both = (owner_u >= 0) & (owner_u == batch.labels[batch.edge_v])
    # At most one part contains both endpoints; it uses the edge
    # through G[P_i] unless the edge already sits in its own H_i.
    in_owner = np.zeros(batch.m_total, dtype=bool)
    if pack.h_edge.size:
        owner = np.where(both, owner_u, -1)
        hit = owner[pack.h_edge] == pack.h_part
        in_owner[pack.h_edge[hit]] = True
    users = count + (both & ~in_owner)
    return segment_max(np, users, batch.edge_offsets, empty=0).tolist()


def dilation_batch(pack: ShortcutPack) -> List[int]:
    """Per-instance Definition 1 dilation — batch twin of
    :func:`repro.core.quality_fast.dilation`.

    Raises :class:`ShortcutError` for the first disconnected
    ``G[P_i] + H_i`` in per-instance loop order (smallest global part).
    """
    np = require_numpy()
    batch = pack.batch
    clone_count = len(pack.clone_part)

    owner_u = batch.labels[batch.edge_u]
    both = (owner_u >= 0) & (owner_u == batch.labels[batch.edge_v])
    mu = batch.edge_u[both]
    mv = batch.edge_v[both]
    # Both endpoints of a part-internal edge are covered members of
    # that part, so their clone ids come from the member table by two
    # gathers — no key search needed.
    inverse = pack.member_inverse()
    a = pack.member_clone[inverse[mu]]
    b = pack.member_clone[inverse[mv]]
    src = np.concatenate([a, b, pack.h_child_clone, pack.h_parent_clone])
    dst = np.concatenate([b, a, pack.h_parent_clone, pack.h_child_clone])
    # Grouping by source is all the CSR needs: a diameter does not
    # depend on the order of a node's neighbors.
    indices = dst[np.argsort(src)]
    indptr = np.zeros(clone_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=clone_count), out=indptr[1:])

    diameters = bounded_diameter_batch(np, indptr, indices, pack.clone_starts)
    bad = np.flatnonzero(diameters < 0)
    if bad.size:
        part = int(bad[0])
        instance = int(batch.instance_of_part[part])
        local = part - int(batch.part_offsets[instance])
        raise ShortcutError(
            f"G[P_{local}] + H_{local} is disconnected; dilation is infinite"
        )
    return segment_max(np, diameters, batch.part_offsets, empty=0).tolist()


def measure_batch_vector(
    shortcuts: Sequence[TreeRestrictedShortcut],
    topologies: Sequence[Topology],
    *,
    with_dilation: bool = True,
) -> List[QualityReport]:
    """One :class:`QualityReport` per instance, vectorized.

    Bit-identical to ``[quality.measure(s, t) for s, t in zip(...)]``;
    all report fields are plain Python ints.
    """
    pack = pack_shortcuts(shortcuts, topologies)
    counts = block_counts_batch(pack)
    congestions = congestion_batch(pack)
    shortcut_congestions = shortcut_congestion_batch(pack)
    dilations = dilation_batch(pack) if with_dilation else None
    reports = []
    for index, tree in enumerate(pack.batch.trees):
        per_part = tuple(counts[index])
        reports.append(
            QualityReport(
                congestion=congestions[index],
                shortcut_congestion=shortcut_congestions[index],
                block_parameter=max(per_part) if per_part else 0,
                dilation=None if dilations is None else dilations[index],
                block_counts=per_part,
                tree_depth=tree.height,
            )
        )
    return reports


def measure_batch(
    shortcuts: Sequence[TreeRestrictedShortcut],
    topologies: Sequence[Topology],
    *,
    with_dilation: bool = True,
    batch: Optional[str] = None,
) -> List[QualityReport]:
    """One :class:`QualityReport` per ``(shortcut, topology)`` pair.

    The batch-axis entry point of :func:`repro.core.quality.measure`:
    ``batch="loop"`` (the default) calls ``measure`` per instance;
    ``batch="vector"`` packs the whole batch and runs the vectorized
    twins of the same kernels.  Reports match the loop bit-for-bit.
    """
    if len(shortcuts) != len(topologies):
        raise ShortcutError(
            f"expected {len(shortcuts)} topologies, got {len(topologies)}"
        )
    if resolve_batch(batch) == "vector":
        return measure_batch_vector(
            shortcuts, topologies, with_dilation=with_dilation
        )
    from repro.core.quality import measure

    return [
        measure(shortcut, topology, with_dilation=with_dilation)
        for shortcut, topology in zip(shortcuts, topologies)
    ]


# ----------------------------------------------------------------------
# The ladder's Verification, read off the node forest
# ----------------------------------------------------------------------


def _verdict_counts(
    np, batch: BatchCSR, block_key, b_limits: Sequence[int]
) -> List[Dict[int, Optional[int]]]:
    """The Lemma 3 verdict reduction over the batch's member table.

    ``block_key`` names each member's block (members in
    :meth:`BatchCSR.member_table` order); keys must differ between
    parts.  Communication components are the cached part-internal
    components merged along co-block member links; each component's
    block count is its number of distinct keys, withheld above the
    instance's limit.  The per-part reduction replicates the reference
    exactly, including the rare several-distinct-verdicts case, where
    the same Python set is rebuilt in the same member order so that
    ``set.pop`` returns the identical element.
    """
    limits = np.asarray([int(limit) for limit in b_limits], dtype=np.int64)
    member_node, member_part, member_starts, _inverse = batch.member_table()
    member_count = len(member_node)
    component = batch.member_components()
    if member_count:
        # Co-block links: all members sharing a block key join the
        # group's first member (any representative yields the same
        # components, as in the reference's block_rep linking).
        order = np.argsort(block_key, kind="stable")
        sorted_key = block_key[order]
        new_group = np.empty(member_count, dtype=bool)
        new_group[0] = True
        new_group[1:] = sorted_key[1:] != sorted_key[:-1]
        heads = order[new_group]
        representative = heads[np.cumsum(new_group) - 1]
        linked = representative != order
        component = merge_components(
            np, component, representative[linked], order[linked]
        )
        # A block lies inside one component, so a component's distinct
        # blocks are the group heads it holds.
        count = np.bincount(component[heads], minlength=member_count)[
            component
        ]
    else:
        count = component
    member_limit = limits[batch.instance_of_part[member_part]]
    verdict = np.where(count <= member_limit, count, -1)
    verdict_min = segment_min(np, verdict, member_starts, empty=0).tolist()
    verdict_max = segment_max(np, verdict, member_starts, empty=0).tolist()

    results: List[Dict[int, Optional[int]]] = []
    for b in range(batch.size):
        p0, p1 = int(batch.part_offsets[b]), int(batch.part_offsets[b + 1])
        n0 = int(batch.node_offsets[b])
        per_part: Dict[int, Optional[int]] = {}
        for local, part in enumerate(range(p0, p1)):
            low, high = verdict_min[part], verdict_max[part]
            if low < 0:
                per_part[local] = None
            elif low == high:
                per_part[local] = low
            else:
                # Several components with distinct <= b_limit counts:
                # rebuild the reference's verdict set in the same
                # member-frozenset order so .pop() matches bit-for-bit.
                s0 = int(member_starts[part])
                s1 = int(member_starts[part + 1])
                verdict_of = {
                    int(node) - n0: int(value)
                    for node, value in zip(member_node[s0:s1], verdict[s0:s1])
                }
                members = batch.partitions[b].members(local)
                per_part[local] = {verdict_of[v] for v in members}.pop()
        results.append(per_part)
    return results


def _forest_counts(
    np, batch: BatchCSR, usable, remaining, b_limits: Sequence[int]
) -> List[Dict[int, Optional[int]]]:
    """Verification count maps of one ladder iteration's tentative
    shortcut, straight from its node forest.

    In both constructions an id travels up the BFS tree from each
    member of a remaining part through every node that may use its
    parent edge (``usable``) and stops at the first that may not: the
    Phase B flood forwards every id it receives, and the Algorithm 1
    sweep keeps every id below its cap.  So the part's slots are the
    chains from its members to those stops, and a member's block
    (component of ``(V, H_i)``) is named by its first unusable
    ancestor-or-self — one forest for all parts, rooted by one pointer
    jump.  Parts outside ``remaining`` (a per-global-part mask) inject
    nothing and get no slots, so their members stay their own blocks.
    """
    n = batch.n_total
    nodes = np.arange(n, dtype=np.int64)
    top = pointer_jump(np, np.where(usable, batch.tree_parent, nodes))
    member_node, member_part, _starts, _inverse = batch.member_table()
    block = np.where(remaining[member_part], top[member_node], member_node)
    return _verdict_counts(np, batch, member_part * n + block, b_limits)


# ----------------------------------------------------------------------
# CoreFast Phase A: the Algorithm 1 upward sweep over the sampled parts
# ----------------------------------------------------------------------


def _upward_sweep_batch(np, batch: BatchCSR, own, caps):
    """Level-synchronous batch twin of
    :func:`repro.core.construct_fast._upward_sweep`.

    ``own`` holds each global node's injected id (global part id, -1
    to relay only); ``caps`` the per-instance id cap.  BFS-tree parents
    sit exactly one depth level up, so processing depths max → 1 makes
    every per-node id-set union one ``np.unique`` over
    ``node * P + id`` keys for the whole level across all instances.

    Returns ``(unusable_nodes, rounds, messages)``: the nodes whose
    parent edge went unusable, and the exact per-instance round/message
    totals of the streaming program.
    """
    total_parts = max(batch.p_total, 1)
    done = np.zeros(batch.n_total, dtype=np.int64)
    seal = np.zeros(batch.n_total, dtype=np.int64)
    q_eff = np.zeros(batch.n_total, dtype=np.int64)
    parent = batch.tree_parent
    order = batch.depth_order
    starts = batch.depth_starts
    empty = np.empty(0, dtype=np.int64)
    pending_node, pending_id = empty, empty
    unusable_chunks: List = []

    for depth in range(batch.max_depth, 0, -1):
        level = order[starts[depth] : starts[depth + 1]]
        injected = level[own[level] >= 0]
        node_arr = np.concatenate([pending_node, injected])
        id_arr = np.concatenate([pending_id, own[injected]])
        if node_arr.size:
            keys = node_arr * total_parts + id_arr
            keys.sort()
            distinct = np.empty(len(keys), dtype=bool)
            distinct[0] = True
            distinct[1:] = keys[1:] != keys[:-1]
            keys = keys[distinct]
            pair_node = keys // total_parts
            pair_id = keys % total_parts
            # keys are sorted, so grouping by node is a flag diff, not
            # another unique pass.
            new = np.empty(len(pair_node), dtype=bool)
            new[0] = True
            new[1:] = pair_node[1:] != pair_node[:-1]
            first = np.flatnonzero(new)
            nodes = pair_node[first]
            q = np.diff(np.append(first, len(pair_node)))
            over = q > caps[batch.instance_of_node[nodes]]
            q_eff[nodes] = np.where(over, 0, q)
            unusable_chunks.append(nodes[over])
            keep = ~np.repeat(over, q)
            pending_node = parent[pair_node[keep]]
            pending_id = pair_id[keep]
        else:
            pending_node, pending_id = empty, empty
        done[level] = seal[level] + q_eff[level]
        np.maximum.at(seal, parent[level], done[level] + 1)

    rounds = np.zeros(batch.size, dtype=np.int64)
    if batch.max_depth >= 1:
        level1 = order[starts[1] : starts[2]]
        np.maximum.at(
            rounds, batch.instance_of_node[level1], done[level1] + 1
        )
    node_counts = batch.node_offsets[1:] - batch.node_offsets[:-1]
    messages = np.maximum(node_counts - 1, 0) + segment_sum(
        np, q_eff, batch.node_offsets
    )

    unusable_nodes = (
        np.concatenate(unusable_chunks) if unusable_chunks else empty
    )
    return unusable_nodes, rounds, messages


# ----------------------------------------------------------------------
# FindShortcut / Appendix A doubling ladder, batched
# ----------------------------------------------------------------------


def _flood_up_batch(np, batch: BatchCSR, own, usable):
    """Lockstep bitset replay of
    :func:`repro.core.construct_fast._flood_up` across a whole batch.

    ``own`` holds each global node's injected id (global part id, -1 to
    relay only); ``usable`` whether the node may forward over its
    parent edge.  Part ids become bit positions (local to their
    instance) in per-node uint64 bitset rows, so one round's id-set
    updates are bitwise ors over the active rows and the min-first pump
    is an isolate-lowest-set-bit per sender.  The reference's event
    loop guarantees that every node with pending ids re-wakes itself,
    so the per-round active set is exactly ``arrivals ∪ woken`` — the
    lockstep replay visits the same nodes in the same rounds, and an
    instance's round count is the last lockstep round it was active in
    (per-instance activity is contiguous: round ``t+1`` activity only
    ever comes from round ``t`` sends).

    Returns ``(seen, rounds, messages)``: the per-node bitsets of local
    part ids that reached each node (``q_ids``), and the exact
    per-instance round/message totals of the simulated flood.
    """
    n_total = batch.n_total
    parent = batch.tree_parent
    inst = batch.instance_of_node
    part_counts = batch.part_offsets[1:] - batch.part_offsets[:-1]
    max_parts = int(part_counts.max()) if batch.size else 0
    words = max(1, (max_parts + 63) // 64)
    seen = np.zeros((n_total, words), dtype=np.uint64)
    pending = np.zeros((n_total, words), dtype=np.uint64)
    arrival = np.zeros((n_total, words), dtype=np.uint64)
    rounds = np.zeros(batch.size, dtype=np.int64)
    messages = np.zeros(batch.size, dtype=np.int64)

    owners = np.flatnonzero(own >= 0)
    if not owners.size:
        return seen, rounds, messages
    local = own[owners] - batch.part_offsets[inst[owners]]
    word_of = local >> 6
    bit_of = np.left_shift(np.uint64(1), (local & 63).astype(np.uint64))
    seen[owners, word_of] = bit_of

    # Sorted-unique via a reusable scatter mask: cheaper than
    # ``np.unique`` / ``np.union1d`` on the per-round sender sets.
    node_mask = np.zeros(n_total, dtype=bool)

    def distinct(values):
        node_mask[values] = True
        out = np.flatnonzero(node_mask)
        node_mask[out] = False
        return out

    empty = np.empty(0, dtype=np.int64)
    # Round 0 (on_start): every usable owner forwards its own id
    # immediately; it never enters pending, so no wake-up.
    send = usable[owners]
    senders = owners[send]
    arrived = empty
    if senders.size:
        messages += np.bincount(inst[senders], minlength=batch.size)
        flat = arrival.reshape(-1)
        np.bitwise_or.at(
            flat, parent[senders] * words + word_of[send], bit_of[send]
        )
        arrived = distinct(parent[senders])
    woken = empty
    current_round = 0
    # Gathers use take/compress: per-round sets are small, so the
    # general fancy-indexing path is most of a gather's cost.
    while arrived.size or woken.size:
        current_round += 1
        node_mask[arrived] = True
        node_mask[woken] = True
        active = np.flatnonzero(node_mask)
        node_mask[active] = False
        rounds[inst.take(active)] = current_round
        if arrived.size:
            forwards = usable.take(arrived)
            can = arrived.compress(forwards)
            blocked = arrived.compress(~forwards)
            if can.size:
                incoming = arrival.take(can, axis=0)
                pending[can] |= incoming & ~seen.take(can, axis=0)
                seen[can] |= incoming
            if blocked.size:
                seen[blocked] |= arrival.take(blocked, axis=0)
            arrival[arrived] = 0
        senders = active.compress(usable.take(active))
        if senders.size:
            senders = senders.compress(
                pending.take(senders, axis=0).any(axis=1)
            )
        if senders.size:
            pw = pending.take(senders, axis=0)
            first = (pw != 0).argmax(axis=1)
            word = pw[np.arange(len(senders)), first]
            # Two's-complement isolate of the lowest set bit: the heap
            # minimum *is* the smallest pending id.
            low = word & (~word + np.uint64(1))
            pending[senders, first] = word & ~low
            messages += np.bincount(inst.take(senders), minlength=batch.size)
            flat = arrival.reshape(-1)
            targets = parent.take(senders)
            np.bitwise_or.at(flat, targets * words + first, low)
            arrived = distinct(targets)
            woken = senders.compress(pending.take(senders, axis=0).any(axis=1))
        else:
            arrived = empty
            woken = empty
    return seen, rounds, messages


def _good_flood_chunks(np, batch: BatchCSR, seen, usable, good):
    """The good parts' edge slots, read off the flood bitsets.

    Returns ``(instance, keys)`` pairs, one per instance and bitset
    word holding slots, ``keys`` being local ``part * n + child`` keys.

    ``good`` flags global part ids; their local bits are masked out of
    the usable nodes' flood bitsets before unpacking, so only the slots
    that freeze into the accumulators are ever materialized.  Bits are
    unpacked one 64-bit word column at a time (little-endian byte
    views, matching every platform this stack runs on), which bounds
    the unpacked buffer at 64 bytes per node; a bit position is a local part
    id, so each word yields the keys directly, in node order, and an
    instance's keys are one contiguous run of them.
    """
    words = seen.shape[1]
    parts = np.flatnonzero(good[: batch.p_total])
    local = parts - batch.part_offsets[batch.instance_of_part[parts]]
    good_bits = np.zeros(batch.size * words, dtype=np.uint64)
    np.bitwise_or.at(
        good_bits,
        batch.instance_of_part[parts] * words + (local >> 6),
        np.left_shift(np.uint64(1), (local & 63).astype(np.uint64)),
    )
    rows = np.flatnonzero(usable)
    picked = seen[rows] & good_bits.reshape(batch.size, words)[
        batch.instance_of_node[rows]
    ]
    hit = picked.any(axis=1)
    rows, picked = rows[hit], picked[hit]
    inst = batch.instance_of_node[rows]
    row_size = np.diff(batch.node_offsets)[inst]
    row_local = rows - batch.node_offsets[inst]
    row_bounds = np.searchsorted(rows, batch.node_offsets)
    chunks = []
    for word in range(words):
        column = np.ascontiguousarray(picked[:, word]).view(np.uint8)
        bits = np.unpackbits(column.reshape(-1, 8), axis=1, bitorder="little")
        row_index, bit = np.nonzero(bits)
        keys = (bit + 64 * word) * row_size[row_index] + row_local[row_index]
        bounds = np.searchsorted(row_index, row_bounds).tolist()
        chunks.extend(
            (k, keys[bounds[k] : bounds[k + 1]])
            for k in range(batch.size)
            if bounds[k + 1] > bounds[k]
        )
    return chunks


def _broadcast(size: int, values, default) -> List:
    """Broadcast a scalar / ``None`` / sequence to one value per instance."""
    if values is None:
        return [default] * size
    if isinstance(values, int):
        return [values] * size
    out = list(values)
    if len(out) != size:
        raise ShortcutError(
            f"expected {size} per-instance values, got {len(out)}"
        )
    return out


def _find_shortcut_wave(
    np,
    topologies: Sequence[Topology],
    trees: Sequence[SpanningTree],
    partitions: Sequence[Partition],
    c_list: Sequence[int],
    b_list: Sequence[int],
    *,
    shared_seeds: Sequence[int],
    gamma: float,
    limits: Sequence[int],
    ledgers: Sequence[RoundLedger],
    warm_starts: Sequence,
    instance_keys: Sequence,
    pack_cache: Dict,
) -> List:
    """One lockstep CoreFast FindShortcut run over a batch of instances.

    Replays the Theorem 3 iteration loop of
    :func:`repro.core.find_shortcut.find_shortcut` (direct mode) across
    all instances at once: per iteration one batched Phase A sweep, one
    batched Phase B flood, and one batched Verification over the still
    active instances, with active-set compaction — an instance whose
    parts are all good (or whose budget ran out) drops out while the
    stragglers keep iterating.  Direct-mode kernels never consume the
    per-iteration ``seed`` (only the shared seed), so the wave needs no
    seeds.  Returns one entry per instance: a
    :class:`~repro.core.find_shortcut.FindShortcutResult` on success or
    the :class:`~repro.errors.ConstructionFailedError` *value* (not
    raised) on budget exhaustion, both built as the loop builds them.

    Verification reads the tentative shortcut off the node forest
    instead of building it.  Phase B floods every id of a remaining
    part up the BFS tree until the first unusable edge (Algorithm 2,
    steps 3–5), so part ``i``'s slots are exactly the chains from its
    members up to their first unusable ancestor-or-self, and that node
    names the member's block (:func:`_forest_counts`).  The Lemma 3
    ledger terms need only per-node slot counts (flood bitset
    popcounts), and only the good parts' bits are unpacked, into the
    accumulators.

    An instance's accumulator is a list of arrays of local
    ``part * n + child`` keys (a tree edge is named by its child): one
    chunk for the revalidated warm start and one per iteration that
    froze parts.  A part freezes once, so the keys are distinct, and a
    snapshot sorts them in place inside the result's ``array('q')``:
    the shortcut's slot storage, grouped by part and ascending.

    ``instance_keys`` / ``pack_cache`` let the doubling ladder reuse
    sub-batch packs across rungs whose active set repeats; the member
    table and part-internal components cached on each sub-batch
    :class:`BatchCSR` ride along, and each instance's part-internal
    components are found once, by the first sub-batch holding it
    (:meth:`BatchCSR.share_member_components`).

    An instance whose iteration freezes no part replays the repeats of
    that iteration at once, as the per-instance loop does
    (:func:`repro.core.find_shortcut._replay_stall`): while its next
    CoreFast draw equals this one and its budget lasts, each repeat is
    charged the same ledger records and an empty good set without a
    kernel.  At ``p = 1`` that spends the budget, so the instance leaves
    the lockstep and the sub-batch shrinks for the instances still
    freezing parts.
    """
    from repro.core.construct_fast import charge_verification_terms
    from repro.core.core_fast import active_parts, sampling_parameters
    from repro.core.find_shortcut import _replay_stall, _settled

    size = len(topologies)
    remaining: List[set] = []
    acc: List[List] = []  # per instance, chunks of part * n + child keys
    histories: List[List] = [[] for _ in range(size)]
    iterations = [0] * size
    for i in range(size):
        state = warm_starts[i]
        if state is not None:
            # Never trust a carried state blindly — same revalidation
            # as the per-instance loop.
            state = state.revalidated_for(topologies[i], trees[i], partitions[i])
            remaining.append(set(state.remaining))
            carried = state.shortcut
            parts = np.repeat(
                np.arange(partitions[i].size, dtype=np.int64),
                np.diff(np.frombuffer(carried.offsets, dtype=np.int64)),
            )
            children = np.frombuffer(carried.children, dtype=np.int64)
            acc.append([parts * topologies[i].n + children] if children.size else [])
        else:
            remaining.append(set(range(partitions[i].size)))
            acc.append([])

    def snapshot(i: int) -> TreeRestrictedShortcut:
        # Every child is a non-root tree node: no re-validation.
        n = topologies[i].n
        children = array("q", [0]) * sum(len(keys) for keys in acc[i])
        keys = np.frombuffer(children, dtype=np.int64)
        if acc[i]:
            np.concatenate(acc[i], out=keys)
        keys.sort()
        bounds = np.arange(partitions[i].size + 1, dtype=np.int64) * n
        offsets = array("q", np.searchsorted(keys, bounds).tolist())
        np.remainder(keys, n, out=keys)
        return TreeRestrictedShortcut._from_children(
            trees[i], partitions[i], children, offsets
        )

    # Per-instance G[P_i] components, shared by every sub-batch pack.
    component_pieces = pack_cache.setdefault("member_components", {})
    results: List = [None] * size
    active = list(range(size))
    while True:
        still = []
        for i in active:
            results[i] = _settled(
                c_list[i], b_list[i], iterations[i], limits[i], remaining[i],
                histories[i], ledgers[i], lambda: snapshot(i),
            )
            if results[i] is None:
                still.append(i)
        active = still
        if not active:
            return results

        key = tuple(instance_keys[i] for i in active)
        cached = pack_cache.get(key)
        if cached is None:
            if len(pack_cache) >= 64:
                pack_cache.clear()
                component_pieces.clear()
                pack_cache["member_components"] = component_pieces
            sub = BatchCSR(
                [topologies[i] for i in active],
                [trees[i] for i in active],
                [partitions[i] for i in active],
            )
            # The Lemma 3 exchange constant, array-natively: directed
            # part-internal edges per instance — bit-identical to
            # part_internal_edges() without thrashing the per-topology
            # neighbor-scan cache across interleaved partitions.
            if sub.m_total:
                internal = (
                    (sub.labels[sub.edge_u] == sub.labels[sub.edge_v])
                    & (sub.labels[sub.edge_u] >= 0)
                ).astype(np.int64)
                part_edges = (
                    2 * segment_sum(np, internal, sub.edge_offsets)
                ).tolist()
            else:
                part_edges = [0] * sub.size
            # Out-of-partition nodes (label -1) redirect to a sentinel
            # slot so mask lookups need no per-instance slicing.
            safe_labels = np.where(sub.labels >= 0, sub.labels, sub.p_total)
            sub.share_member_components(key, component_pieces)
            pack_cache[key] = (sub, part_edges, safe_labels)
        else:
            sub, part_edges, safe_labels = cached

        # One lockstep iteration: restrict injection to each instance's
        # remaining parts, flip the per-instance shared coins.
        rem_mask = np.zeros(sub.p_total + 1, dtype=bool)
        act_mask = np.zeros(sub.p_total + 1, dtype=bool)
        caps = np.empty(sub.size, dtype=np.int64)
        # Global part ids, collected in lists and set in one scatter each.
        rem_ids: List[int] = []
        act_ids: List[int] = []
        starts = [len(ledgers[i].records) for i in active]
        for k, i in enumerate(active):
            iterations[i] += 1
            base = int(sub.part_offsets[k])
            rem_ids.extend(base + p for p in remaining[i])
            p_sample, tau = sampling_parameters(topologies[i].n, c_list[i], gamma)
            caps[k] = tau - 1
            act = active_parts(
                partitions[i],
                mix(shared_seeds[i], iterations[i]),
                p_sample,
                remaining[i],
            )
            act_ids.extend(base + p for p in act)
        rem_mask[rem_ids] = True
        act_mask[act_ids] = True
        own_active = np.where(act_mask[safe_labels], sub.labels, -1)
        own_all = np.where(rem_mask[safe_labels], sub.labels, -1)
        unusable_nodes, rounds_a, messages_a = _upward_sweep_batch(
            np, sub, own_active, caps
        )
        usable = sub.tree_parent >= 0
        usable[unusable_nodes] = False
        seen, rounds_b, messages_b = _flood_up_batch(np, sub, own_all, usable)
        # A usable node holds one edge slot per id it has seen.
        per_node = np.where(usable, popcount_rows(np, seen), 0)
        for k, i in enumerate(active):
            ledgers[i].charge_phase(
                "core-fast/sample", int(rounds_a[k]), int(messages_a[k])
            )
            ledgers[i].charge_phase(
                "core-fast/flood", int(rounds_b[k]), int(messages_b[k])
            )

        # Batched Verification of the tentative shortcut, read off the
        # node forest; the ledger charge uses the same Lemma 3 terms as
        # the loop without materializing per-instance shortcut objects.
        limits3 = [3 * b_list[i] for i in active]
        count_maps = _forest_counts(np, sub, usable, rem_mask, limits3)
        task_congestion = segment_max(np, per_node, sub.node_offsets, empty=0)
        edge_slots = segment_sum(np, per_node, sub.node_offsets)

        good_global = np.zeros(sub.p_total + 1, dtype=bool)
        for k, i in enumerate(active):
            charge_verification_terms(
                ledgers[i],
                limits3[k],
                trees[i].height,
                int(task_congestion[k]),
                int(edge_slots[k]),
                part_edges[k],
                topologies[i].m,
            )
            counts = count_maps[k]
            good = frozenset(
                p
                for p in remaining[i]
                if counts[p] is not None and counts[p] <= limits3[k]
            )
            histories[i].append(good)
            ledgers[i].charge_phase(
                "termination-check", 2 * trees[i].height + 1
            )
            if good:
                base = int(sub.part_offsets[k])
                for p in good:
                    good_global[base + p] = True
                remaining[i] -= good
            else:
                # A stall repeats while the draw does: charge the
                # repeats now, so the instance skips them.
                iterations[i] = _replay_stall(
                    iterations[i], limits[i], partitions[i],
                    sampling_parameters(topologies[i].n, c_list[i], gamma)[0],
                    shared_seeds[i], remaining[i], histories[i], ledgers[i],
                    starts[k],
                )

        # Freeze the good parts' edge slots into the accumulators.
        if good_global.any():
            for k, keys in _good_flood_chunks(np, sub, seen, usable, good_global):
                acc[active[k]].append(keys)
        # Release this iteration's arrays before the next sweep and
        # flood allocate theirs.
        del seen, per_node, usable, own_active, own_all, count_maps


def find_shortcut_doubling_batch(
    topologies: Sequence[Topology],
    trees: Sequence[SpanningTree],
    partitions: Sequence[Partition],
    *,
    c_starts: Union[int, Sequence[int]] = 1,
    b_starts: Union[int, Sequence[int]] = 1,
    seeds: Union[int, Sequence[int]] = 0,
    shared_seeds=None,
    gamma: float = 2.0,
    max_trials: int = 64,
    ledgers: Optional[Sequence[Optional[RoundLedger]]] = None,
    mode: Optional[str] = None,
    warm_start: bool = True,
    initial_states: Optional[Sequence] = None,
    batch: Optional[str] = None,
) -> List:
    """Batch-axis entry point of
    :func:`repro.core.doubling.find_shortcut_doubling` with CoreFast.

    ``batch="loop"`` (the default) runs the Appendix A search per
    instance with the selected ``mode``; ``batch="vector"`` climbs the
    whole ``(c, b)`` doubling ladder in lockstep rungs — the batch twin
    of ``mode="direct"`` — on the doubling driver the per-instance
    search climbs, with two levels of active-set compaction: instances
    whose search succeeds drop off the ladder while stragglers climb
    with doubled estimates (carrying their frozen warm-start parts),
    and inside every rung the wave driver compacts per iteration.
    Trials (including the per-rung ledger-delta breakdown), results,
    and ledgers match the direct-mode loop bit-for-bit.  ``c_starts`` /
    ``b_starts`` / ``initial_states`` are the warm-start entry points
    of incremental repair.  CoreSlow runs per instance only, in
    :func:`~repro.core.doubling.find_shortcut_doubling`.
    """
    from repro.core.construct_fast import _shared_seed
    from repro.core.doubling import _climb, find_shortcut_doubling

    size = len(topologies)
    if len(trees) != size or len(partitions) != size:
        raise ShortcutError(
            f"expected {size} trees and partitions, got "
            f"{len(trees)} and {len(partitions)}"
        )
    c_list = [int(c) for c in _broadcast(size, c_starts, 1)]
    b_list = [int(b) for b in _broadcast(size, b_starts, 1)]
    seed_list = _broadcast(size, seeds, 0)
    shared_list = _broadcast(size, shared_seeds, None)
    ledger_list = list(ledgers) if ledgers is not None else [None] * size
    state_list = (
        list(initial_states) if initial_states is not None else [None] * size
    )
    if len(ledger_list) != size or len(state_list) != size:
        raise ShortcutError(
            f"expected {size} ledgers and initial states, got "
            f"{len(ledger_list)} and {len(state_list)}"
        )

    if resolve_batch(batch) != "vector":
        return [
            find_shortcut_doubling(
                topologies[i],
                trees[i],
                partitions[i],
                c_start=c_list[i],
                b_start=b_list[i],
                seed=seed_list[i],
                shared_seed=shared_list[i],
                gamma=gamma,
                max_trials=max_trials,
                ledger=ledger_list[i],
                mode=mode,
                warm_start=warm_start,
                initial_state=state_list[i],
            )
            for i in range(size)
        ]

    np = require_numpy()
    ledger_vec = [
        ledger if ledger is not None else RoundLedger(barrier_depth=trees[i].height)
        for i, ledger in enumerate(ledger_list)
    ]
    shared_vec = [
        shared
        if shared is not None
        else _shared_seed(topologies[i], trees[i], seed_list[i], ledger_vec[i], "direct")
        for i, shared in enumerate(shared_list)
    ]
    pack_cache: Dict = {}

    def rung(trial_index, climbing, c, b, budgets, carried):
        return _find_shortcut_wave(
            np,
            [topologies[i] for i in climbing],
            [trees[i] for i in climbing],
            [partitions[i] for i in climbing],
            [c[i] for i in climbing],
            [b[i] for i in climbing],
            shared_seeds=[shared_vec[i] for i in climbing],
            gamma=gamma,
            limits=[budgets[i] for i in climbing],
            ledgers=[ledger_vec[i] for i in climbing],
            warm_starts=[carried[i] for i in climbing],
            instance_keys=climbing,
            pack_cache=pack_cache,
        )

    return _climb(
        rung,
        [partition.size for partition in partitions],
        ledger_vec,
        c_list,
        b_list,
        state_list,
        max_trials=max_trials,
        warm_start=warm_start,
    )


__all__ = [
    "BATCHES",
    "BATCH",
    "get_default_batch",
    "using_batch",
    "resolve_batch",
    "numpy_available",
    "pack_shortcuts",
    "block_counts_batch",
    "shortcut_congestion_batch",
    "congestion_batch",
    "dilation_batch",
    "measure_batch",
    "measure_batch_vector",
    "find_shortcut_doubling_batch",
]
