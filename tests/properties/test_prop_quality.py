"""Property-based differential tests of the quality kernels.

Random topologies, random BFS roots, random partitions, and random
tree-edge subsets as shortcut subgraphs: on every draw the fast
kernels of :mod:`repro.core.quality_fast` must agree bit-for-bit with
the reference definitions in :mod:`repro.core.quality`, including the
disconnected-dilation error path.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import quality, quality_fast
from repro.core.partwise import PartwiseEngine
from repro.core.shortcut import TreeRestrictedShortcut
from repro.errors import ShortcutError
from repro.graphs import generators, partitions
from repro.graphs.csr import tree_arrays
from repro.graphs.spanning_trees import SpanningTree

settings.register_profile(
    "repro-quality",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-quality")


@st.composite
def instances(draw):
    """A (topology, tree, partition, shortcut) draw."""
    kind = draw(st.sampled_from(["grid", "cycle", "er", "ktree"]))
    if kind == "grid":
        topology = generators.grid(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    elif kind == "cycle":
        topology = generators.cycle(draw(st.integers(3, 30)))
    elif kind == "ktree":
        topology = generators.k_tree(draw(st.integers(6, 30)), 2, seed=draw(st.integers(0, 50)))
    else:
        topology = generators.erdos_renyi_connected(
            draw(st.integers(4, 30)), 0.2, seed=draw(st.integers(0, 100))
        )
    root = draw(st.integers(0, topology.n - 1))
    tree = SpanningTree.bfs(topology, root)
    n_parts = draw(st.integers(0, max(1, topology.n // 2)))
    if n_parts == 0:
        partition = partitions.Partition(topology.n, [])
    else:
        partition = partitions.voronoi(topology, n_parts, seed=draw(st.integers(0, 20)))
    tree_edges = sorted(tree.edges)
    subgraphs = []
    for _ in range(partition.size):
        subset = draw(
            st.lists(st.sampled_from(tree_edges), max_size=len(tree_edges))
        ) if tree_edges else []
        subgraphs.append(subset)
    shortcut = TreeRestrictedShortcut(tree, partition, subgraphs)
    return topology, tree, partition, shortcut


@given(instances())
def test_scalar_measures_agree(drawn):
    topology, _tree, _partition, shortcut = drawn
    assert quality_fast.block_counts(shortcut) == quality.block_counts(shortcut)
    assert quality_fast.block_parameter(shortcut) == quality.block_parameter(shortcut)
    assert quality_fast.shortcut_congestion(shortcut) == quality.shortcut_congestion(
        shortcut
    )
    assert quality_fast.congestion(shortcut, topology) == quality.congestion(
        shortcut, topology
    )


@given(instances())
def test_block_components_agree(drawn):
    """The partwise engine's one-pass blocks are Definition 3's."""
    topology, _tree, partition, shortcut = drawn
    engine = PartwiseEngine(topology, shortcut, backend="direct")
    for index in range(partition.size):
        assert [blk for blk in engine.blocks if blk.part == index] == (
            quality.block_components(shortcut, index)
        )
    for v, block in engine.block_of.items():
        assert partition.part_of(v) == block.part and v in block.nodes


@given(instances())
def test_dilation_agrees_including_errors(drawn):
    topology, _tree, _partition, shortcut = drawn
    try:
        reference = quality.dilation(shortcut, topology)
    except ShortcutError:
        with pytest.raises(ShortcutError):
            quality_fast.dilation(shortcut, topology)
        return
    assert quality_fast.dilation(shortcut, topology) == reference
    report_ref = quality.measure_reference(shortcut, topology)
    report_fast = quality.measure(shortcut, topology)
    assert report_fast == report_ref


@given(instances())
def test_per_part_dilation_agrees(drawn):
    topology, _tree, partition, shortcut = drawn
    for index in range(partition.size):
        try:
            reference = quality.dilation(shortcut, topology, index)
        except ShortcutError:
            with pytest.raises(ShortcutError):
                quality_fast.dilation(shortcut, topology, index)
            continue
        assert quality_fast.dilation(shortcut, topology, index) == reference


@given(instances())
def test_tree_arrays_consistent(drawn):
    """Euler-tour arrays agree with the SpanningTree accessors."""
    _topology, tree, _partition, _shortcut = drawn
    arrays = tree_arrays(tree)
    assert sorted(arrays.preorder) == list(range(tree.n))
    for v in range(tree.n):
        parent = tree.parent(v)
        assert arrays.parent[v] == (-1 if parent is None else parent)
        assert arrays.depth[v] == tree.depth(v)
        ancestors = set(tree.ancestors(v, include_self=True))
        for u in range(tree.n):
            assert arrays.is_ancestor(u, v) == (u in ancestors)
        assert set(arrays.subtree(v)) == {
            w for w in range(tree.n) if arrays.is_ancestor(v, w)
        }
