"""Property-based tests for the canonical shortcut builds.

Both direct cores, ``restricted_to``, ``merged_with``, ``empty`` and
``ConstructionState.revalidated_for`` build ``(part, child)`` slots
through ``TreeRestrictedShortcut._from_children`` and skip the
constructor's validation.  Every such build must equal what the
validating constructor makes of the same subgraphs — frozensets of
canonical tree edges over the same tree and partition — and carry the
edges the reference twins assign.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.construct_fast import core_fast_direct, core_slow_direct
from repro.core.core_fast import core_fast_reference
from repro.core.core_slow import core_slow_reference
from repro.core.find_shortcut import ConstructionState
from repro.core.shortcut import TreeRestrictedShortcut
from repro.congest.topology import Topology
from repro.graphs import generators, partitions
from repro.graphs.spanning_trees import SpanningTree

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(["grid", "torus", "ktree"]))
    seed = draw(st.integers(0, 1000))
    if kind == "grid":
        topology = generators.grid(draw(st.integers(2, 7)), draw(st.integers(2, 7)))
    elif kind == "torus":
        side = draw(st.integers(3, 5))
        topology = generators.torus(side, side)
    else:
        topology = generators.k_tree(draw(st.integers(6, 24)), 2, seed % 11)
    n_parts = draw(st.integers(1, max(1, topology.n // 2)))
    partition = partitions.voronoi(topology, n_parts, seed=seed)
    tree = SpanningTree.bfs(topology, draw(st.integers(0, topology.n - 1)))
    participating = draw(
        st.one_of(st.none(), st.frozensets(st.integers(0, partition.size - 1)))
    )
    return topology, tree, partition, participating


def _assert_validated(shortcut, tree, partition, expected):
    """``shortcut`` equals the validating constructor's build of
    ``expected`` (one edge collection per part)."""
    reference = TreeRestrictedShortcut(tree, partition, expected)
    assert shortcut.tree is reference.tree
    assert shortcut.partition is reference.partition
    assert shortcut.subgraphs == reference.subgraphs
    assert all(type(subgraph) is frozenset for subgraph in shortcut.subgraphs)
    assert TreeRestrictedShortcut(tree, partition, shortcut.subgraphs).subgraphs == (
        shortcut.subgraphs
    )


def _expected_from_edge_map(partition, edge_map):
    subgraphs = [set() for _ in range(partition.size)]
    for edge, parts in edge_map.items():
        for part in parts:
            subgraphs[part].add(edge)
    return subgraphs


@SETTINGS
@given(instances(), st.integers(1, 6), st.integers(0, 2**31), st.data())
def test_canonical_builds_equal_validated_builds(instance, c, shared_seed, data):
    topology, tree, partition, participating = instance

    fast = core_fast_direct(
        topology, tree, partition, c, shared_seed, participating=participating
    ).shortcut
    fast_map, _unusable = core_fast_reference(
        tree, partition, c, shared_seed, topology.n, participating=participating
    )
    _assert_validated(
        fast, tree, partition, _expected_from_edge_map(partition, fast_map)
    )

    slow = core_slow_direct(
        topology, tree, partition, c, participating=participating
    ).shortcut
    slow_map, _unusable = core_slow_reference(tree, partition, c, participating)
    _assert_validated(
        slow, tree, partition, _expected_from_edge_map(partition, slow_map)
    )

    keep = data.draw(st.frozensets(st.integers(0, partition.size - 1)))
    restricted = fast.restricted_to(keep)
    _assert_validated(
        restricted,
        tree,
        partition,
        [fast.subgraph(i) if i in keep else () for i in range(partition.size)],
    )

    merged = restricted.merged_with(slow)
    _assert_validated(
        merged,
        tree,
        partition,
        [restricted.subgraph(i) | slow.subgraph(i) for i in range(partition.size)],
    )

    empty = TreeRestrictedShortcut.empty(tree, partition)
    _assert_validated(empty, tree, partition, [()] * partition.size)
    _assert_validated(empty.merged_with(fast), tree, partition, fast.subgraphs)


def _revalidated_reference(state, topology, tree, partition):
    """The per-edge, per-part revalidation rules, spelled out."""
    old = state.shortcut
    remaining = set(state.remaining)
    subgraphs = []
    for index in range(partition.size):
        subgraph = old.subgraph(index)
        valid = (
            index not in remaining
            and all(
                edge in tree.edges and topology.has_edge(*edge) for edge in subgraph
            )
            and old.partition.members(index) == partition.members(index)
            and partitions._is_connected_subset(topology, partition.members(index))
        )
        if not valid:
            remaining.add(index)
        subgraphs.append(subgraph if valid else ())
    return frozenset(remaining), TreeRestrictedShortcut(tree, partition, subgraphs)


@SETTINGS
@given(instances(), st.integers(1, 6), st.integers(0, 2**31), st.data())
def test_revalidated_state_equals_validated_build(instance, c, shared_seed, data):
    topology, tree, partition, _participating = instance
    shortcut = core_fast_direct(topology, tree, partition, c, shared_seed).shortcut
    remaining = data.draw(st.frozensets(st.integers(0, partition.size - 1)))
    state = ConstructionState(
        remaining=remaining, shortcut=shortcut, good_history=(remaining,)
    )
    # Re-anchor on the same instance; on topologies that lost some
    # edges, any edges or only non-tree ones (which can split a part
    # while every H_i edge survives); over a re-rooted tree; and over
    # a relabelled copy of the partition and a different one.
    def survivor(candidates, most):
        lost = data.draw(st.sets(st.sampled_from(candidates), max_size=most))
        kept = [edge for edge in topology.edges if edge not in lost]
        return Topology(topology.n, kept, require_connected=False)

    non_tree = [edge for edge in topology.edges if edge not in tree.edges]
    other_tree = SpanningTree.bfs(topology, data.draw(st.integers(0, topology.n - 1)))
    relabelled = partitions.Partition.from_labels(partition.labels)
    reshaped = partitions.voronoi(
        topology, partition.size, seed=data.draw(st.integers(0, 1000))
    )
    targets = [
        (topology, tree, partition),
        (survivor(topology.edges, 3), tree, partition),
        (topology, other_tree, partition),
        (topology, tree, relabelled),
    ]
    if non_tree:
        targets.append((survivor(non_tree, topology.n), tree, partition))
    if reshaped.size == partition.size:
        targets.append((topology, tree, reshaped))
    for target, target_tree, target_partition in targets:
        revalidated = state.revalidated_for(target, target_tree, target_partition)
        expected_remaining, expected = _revalidated_reference(
            state, target, target_tree, target_partition
        )
        assert revalidated.remaining == expected_remaining
        assert revalidated.good_history == state.good_history
        _assert_validated(
            revalidated.shortcut, target_tree, target_partition, expected.subgraphs
        )
