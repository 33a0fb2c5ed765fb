"""Property tests of the shortcut's ``(part, child)`` slot storage.

:class:`~repro.core.shortcut.TreeRestrictedShortcut` stores each
``H_i`` as the ascending child nodes of its tree edges.  On random
topologies, trees, partitions (uncovered nodes, single-node parts) and
tree-edge subsets (empty ``H_i`` included), every edge-form view and
every slot-level operation must equal its frozenset definition, and
:class:`~repro.graphs.batch_csr.ShortcutPack` built from the slots must
equal the per-slot tuple packing it replaced, which is kept below as
the oracle.

The round-trip tests need no numpy; the packing tests skip without it.
"""

import re
from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.congest.topology import Topology, canonical_edge
from repro.core import quality
from repro.core.find_shortcut import ConstructionState
from repro.core.shortcut import TreeRestrictedShortcut
from repro.errors import ShortcutError
from repro.graphs import generators, partitions
from repro.graphs.csr import edge_ids
from repro.graphs.spanning_trees import SpanningTree

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _rerooted(tree, root):
    """The same tree edges, rooted at ``root``."""
    adjacency = [[] for _ in range(tree.n)]
    for u, v in tree.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent = [-1] * tree.n
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                queue.append(w)
    return SpanningTree(root, parent)


@st.composite
def shortcuts(draw):
    """A (topology, tree, partition, shortcut, edge subsets) draw."""
    kind = draw(st.sampled_from(["grid", "cycle", "er", "ktree"]))
    if kind == "grid":
        topology = generators.grid(draw(st.integers(1, 6)), draw(st.integers(2, 6)))
    elif kind == "cycle":
        topology = generators.cycle(draw(st.integers(3, 24)))
    elif kind == "ktree":
        topology = generators.k_tree(
            draw(st.integers(6, 24)), 2, seed=draw(st.integers(0, 50))
        )
    else:
        topology = generators.erdos_renyi_connected(
            draw(st.integers(4, 24)), 0.2, seed=draw(st.integers(0, 100))
        )
    tree = SpanningTree.bfs(topology, draw(st.integers(0, topology.n - 1)))
    shape = draw(st.sampled_from(["voronoi", "singletons", "sparse", "none"]))
    if shape == "none":
        partition = partitions.Partition(topology.n, [])
    elif shape == "singletons":
        partition = partitions.singletons(topology)
    else:
        n_parts = draw(st.integers(1, max(1, topology.n // 2)))
        base = partitions.voronoi(topology, n_parts, seed=draw(st.integers(0, 20)))
        labels = list(base.labels)
        if shape == "sparse":
            # Uncover some nodes, keeping one member per part; parts
            # may shrink to a single node or come apart.
            keep = {min(base.members(i)) for i in range(base.size)}
            for v in range(topology.n):
                if v not in keep and draw(st.booleans()):
                    labels[v] = -1
        partition = partitions.Partition.from_labels(labels)
    tree_edges = sorted(tree.edges)
    subgraphs = []
    for _ in range(partition.size):
        if not tree_edges or draw(st.booleans()):
            subgraphs.append([])  # many empty H_i
            continue
        chosen = draw(st.lists(st.sampled_from(tree_edges), max_size=len(tree_edges)))
        # Either orientation is accepted and normalised.
        subgraphs.append([(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen])
    shortcut = TreeRestrictedShortcut(tree, partition, subgraphs)
    return topology, tree, partition, shortcut, subgraphs


def _definition(subgraphs):
    return tuple(frozenset(canonical_edge(u, v) for u, v in sub) for sub in subgraphs)


def _edge_map_definition(frozensets):
    edge_map = {}
    for index, subgraph in enumerate(frozensets):
        for edge in subgraph:
            edge_map.setdefault(edge, set()).add(index)
    return {edge: frozenset(parts) for edge, parts in edge_map.items()}


def _assert_slot_layout(shortcut):
    """Children grouped by part, ascending and distinct within a part,
    every one a non-root node naming an edge of its ``H_i``."""
    parent = [shortcut.tree.parent(v) for v in range(shortcut.tree.n)]
    offsets = list(shortcut.offsets)
    assert len(offsets) == shortcut.size + 1
    assert offsets[0] == 0 and offsets[-1] == len(shortcut.children)
    for index in range(shortcut.size):
        kids = list(shortcut.part_children(index))
        assert kids == sorted(set(kids))
        assert {canonical_edge(c, parent[c]) for c in kids} == shortcut.subgraph(index)


@SETTINGS
@given(shortcuts())
def test_views_equal_frozenset_definitions(drawn):
    _topology, tree, partition, shortcut, subgraphs = drawn
    expected = _definition(subgraphs)
    assert shortcut.subgraphs == expected
    assert all(type(subgraph) is frozenset for subgraph in shortcut.subgraphs)
    assert [shortcut.subgraph(i) for i in range(partition.size)] == list(expected)
    assert shortcut.edge_map == _edge_map_definition(expected)
    assert len(shortcut.children) == sum(len(sub) for sub in expected)
    _assert_slot_layout(shortcut)
    rebuilt = TreeRestrictedShortcut.from_edge_map(tree, partition, shortcut.edge_map)
    assert rebuilt.children == shortcut.children
    assert rebuilt.offsets == shortcut.offsets
    # Part collections may be one-shot iterables.
    streamed = TreeRestrictedShortcut.from_edge_map(
        tree, partition, {edge: iter(parts) for edge, parts in shortcut.edge_map.items()}
    )
    assert streamed.subgraphs == expected


@SETTINGS
@given(shortcuts(), st.data())
def test_restricted_and_merged_equal_definitions(drawn, data):
    topology, tree, partition, shortcut, subgraphs = drawn
    expected = _definition(subgraphs)
    keep = data.draw(st.frozensets(st.integers(0, max(0, partition.size - 1))))
    restricted = shortcut.restricted_to(keep)
    assert restricted.subgraphs == tuple(
        sub if i in keep else frozenset() for i, sub in enumerate(expected)
    )
    _assert_slot_layout(restricted)

    other = _same_shape(tree, partition, data)
    merged = restricted.merged_with(other)
    assert merged.subgraphs == tuple(
        restricted.subgraph(i) | other.subgraph(i) for i in range(partition.size)
    )
    _assert_slot_layout(merged)

    # The same tree edges under another root name edges by other children.
    flipped = _rerooted(tree, data.draw(st.integers(0, topology.n - 1)))
    turned = TreeRestrictedShortcut(flipped, partition, shortcut.subgraphs)
    assert turned.subgraphs == shortcut.subgraphs
    merged = other.merged_with(turned)
    assert merged.tree is tree
    assert merged.subgraphs == tuple(
        other.subgraph(i) | shortcut.subgraph(i) for i in range(partition.size)
    )
    _assert_slot_layout(merged)

    empty = TreeRestrictedShortcut.empty(tree, partition)
    assert empty.subgraphs == (frozenset(),) * partition.size
    assert empty.merged_with(shortcut).subgraphs == expected


def _same_shape(tree, partition, data):
    """A second random shortcut over the same tree and partition."""
    tree_edges = sorted(tree.edges)
    subgraphs = [
        data.draw(st.lists(st.sampled_from(tree_edges), max_size=6))
        if tree_edges
        else []
        for _ in range(partition.size)
    ]
    return TreeRestrictedShortcut(tree, partition, subgraphs)


def _revalidated_definition(state, topology, tree, partition):
    """The revalidation rules over frozensets of edges."""
    old = state.shortcut
    remaining = set(state.remaining)
    subgraphs = []
    for index in range(partition.size):
        subgraph = old.subgraph(index)
        valid = (
            index not in remaining
            and subgraph <= tree.edges
            and all(topology.has_edge(*edge) for edge in subgraph)
            and old.partition.members(index) == partition.members(index)
            and partitions._is_connected_subset(topology, partition.members(index))
        )
        if not valid:
            remaining.add(index)
        subgraphs.append(subgraph if valid else frozenset())
    return frozenset(remaining), tuple(subgraphs)


@SETTINGS
@given(shortcuts(), st.data())
def test_revalidated_for_equals_definition(drawn, data):
    topology, tree, partition, shortcut, _subgraphs = drawn
    remaining = data.draw(st.frozensets(st.integers(0, max(0, partition.size - 1))))
    state = ConstructionState(
        remaining=remaining, shortcut=shortcut, good_history=(remaining,)
    )
    lost = data.draw(st.sets(st.sampled_from(topology.edges), max_size=3))
    survivor = Topology(
        topology.n, [e for e in topology.edges if e not in lost], require_connected=False
    )
    targets = [
        (topology, tree),
        (survivor, tree),
        (topology, _rerooted(tree, data.draw(st.integers(0, topology.n - 1)))),
        (topology, SpanningTree.bfs(topology, data.draw(st.integers(0, topology.n - 1)))),
    ]
    for target, target_tree in targets:
        revalidated = state.revalidated_for(target, target_tree, partition)
        expected_remaining, expected = _revalidated_definition(
            state, target, target_tree, partition
        )
        assert revalidated.remaining == expected_remaining
        assert revalidated.shortcut.tree is target_tree
        assert revalidated.shortcut.subgraphs == expected
        _assert_slot_layout(revalidated.shortcut)


def test_rejects_non_tree_edges_in_both_constructors():
    tree = SpanningTree(0, [-1, 0, 1, 2])
    partition = partitions.Partition(4, [[1], [3]])
    with pytest.raises(ShortcutError):
        TreeRestrictedShortcut(tree, partition, [[(0, 2)], []])
    with pytest.raises(ShortcutError):
        TreeRestrictedShortcut.from_edge_map(tree, partition, {(0, 3): [1]})
    with pytest.raises(ShortcutError):
        TreeRestrictedShortcut.from_edge_map(tree, partition, {(0, 1): [2]})


# ----------------------------------------------------------------------
# ShortcutPack from slots vs the per-slot tuple packing
# ----------------------------------------------------------------------


def _tuple_pack(np, batch, shortcuts):
    """The oracle: one Python pass over every ``H_i``'s ``(min, max)``
    tuples, the clone table as a sorted union of keys."""
    from repro.graphs.batch_csr import ShortcutPack

    slots = []
    for b, shortcut in enumerate(shortcuts):
        n0 = int(batch.node_offsets[b])
        p0 = int(batch.part_offsets[b])
        e0 = int(batch.edge_offsets[b])
        ids = edge_ids(batch.topologies[b])
        slots.extend(
            (p0 + index, n0 + u, n0 + v, e0 + ids[(u, v)])
            for index, subgraph in enumerate(shortcut.subgraphs)
            for u, v in subgraph
        )
    flat = np.asarray(slots, dtype=np.int64).reshape(-1, 4)
    h_part, h_u, h_v, h_edge = (flat[:, j].copy() for j in range(4))
    deeper = batch.tree_depth[h_u] > batch.tree_depth[h_v]
    h_child = np.where(deeper, h_u, h_v)
    h_parent = np.where(deeper, h_v, h_u)
    member_node, member_part, _starts, _inverse = batch.member_table()
    stride = max(batch.n_total, 1)
    member_keys = member_part * stride + member_node
    child_keys = h_part * stride + h_child
    parent_keys = h_part * stride + h_parent
    clone_keys = np.union1d(member_keys, np.concatenate([child_keys, parent_keys]))
    pack = ShortcutPack.__new__(ShortcutPack)
    pack.batch = batch
    pack.h_part = h_part
    pack.h_edge = h_edge
    pack.clone_part = clone_keys // stride
    pack.clone_starts = np.searchsorted(pack.clone_part, np.arange(batch.p_total + 1))
    pack.member_clone = np.searchsorted(clone_keys, member_keys)
    pack.h_child_clone = np.searchsorted(clone_keys, child_keys)
    pack.h_parent_clone = np.searchsorted(clone_keys, parent_keys)
    return pack


def _kernel_reports(pack):
    from repro.core import batch as batch_mod

    try:
        dilations = batch_mod.dilation_batch(pack)
    except ShortcutError as error:
        dilations = str(error)
    return (
        batch_mod.block_counts_batch(pack),
        batch_mod.congestion_batch(pack),
        batch_mod.shortcut_congestion_batch(pack),
        dilations,
    )


@st.composite
def batches(draw):
    """A ragged batch of 1-4 independent shortcut draws."""
    return [draw(shortcuts()) for _ in range(draw(st.integers(1, 4)))]


@SETTINGS
@given(batches())
def test_pack_from_slots_equals_tuple_packing(drawn):
    np = pytest.importorskip("numpy")
    from repro.core.batch import measure_batch_vector, pack_shortcuts

    topologies = [item[0] for item in drawn]
    shortcuts_ = [item[3] for item in drawn]
    pack = pack_shortcuts(shortcuts_, topologies)
    oracle = _tuple_pack(np, pack.batch, shortcuts_)

    def slots(p):
        return sorted(
            zip(
                p.h_part.tolist(),
                p.h_edge.tolist(),
                p.h_child_clone.tolist(),
                p.h_parent_clone.tolist(),
            )
        )

    assert slots(pack) == slots(oracle)
    assert np.array_equal(pack.clone_part, oracle.clone_part)
    assert np.array_equal(pack.clone_starts, oracle.clone_starts)
    assert np.array_equal(pack.member_clone, oracle.member_clone)
    assert _kernel_reports(pack) == _kernel_reports(oracle)

    counts, congestions, shortcut_congestions, dilations = _kernel_reports(oracle)
    if isinstance(dilations, str):
        with pytest.raises(ShortcutError, match=re.escape(dilations)):
            measure_batch_vector(shortcuts_, topologies)
        return
    reports = measure_batch_vector(shortcuts_, topologies)
    for b, report in enumerate(reports):
        assert report.block_counts == tuple(counts[b])
        assert report.congestion == congestions[b]
        assert report.shortcut_congestion == shortcut_congestions[b]
        assert report.dilation == dilations[b]
        assert report == quality.measure_reference(shortcuts_[b], topologies[b])
