"""Differential conformance: quality_fast kernels vs the reference.

Every test computes the same quality measure with both kernels and
asserts the results are bit-for-bit identical — :class:`QualityReport`
equality covers congestion, shortcut congestion, block parameter,
dilation, per-part block counts, and tree depth.  This suite is what
licenses the fast kernel as :func:`repro.core.quality.measure`'s
default, exactly as ``tests/congest/test_engine_equivalence.py``
licenses the batched engine.

Families cover the paper's instance classes: planar (grid, Delaunay),
bounded genus (torus, genus chain), bounded treewidth (k-tree,
series-parallel), and random (Erdős–Rényi, random regular).
"""

import pytest

from repro.core import quality, quality_fast
from repro.core.core_slow import core_slow
from repro.core.existence import (
    best_certified,
    empty_shortcut,
    full_ancestor_shortcut,
    greedy_capped_shortcut,
)
from repro.core.find_shortcut import find_shortcut
from repro.core.partwise import PartwiseEngine
from repro.core.shortcut import TreeRestrictedShortcut
from repro.errors import ShortcutError
from repro.graphs import generators, partitions
from repro.graphs.spanning_trees import SpanningTree
from repro.graphs.weights import weighted

needs_geometry = pytest.mark.skipif(
    not generators.geometry_available(),
    reason="delaunay needs the geometry extra (numpy + scipy)",
)

FAMILIES = {
    # planar
    "grid": lambda: generators.grid(7, 7),
    "delaunay": lambda: generators.delaunay(48, 3),
    # bounded genus
    "torus": lambda: generators.torus(6, 6),
    "genus2": lambda: generators.genus_chain(2, 4, 4),
    # bounded treewidth
    "ktree": lambda: generators.k_tree(40, 3, seed=1),
    "series-parallel": lambda: generators.series_parallel(40, seed=2),
    # random
    "erdos-renyi": lambda: generators.erdos_renyi_connected(44, 0.12, seed=5),
    "random-regular": lambda: generators.random_regular(40, 4, seed=7),
}


def _partitions_for(topology):
    n_parts = max(2, topology.n // 8)
    return [
        partitions.voronoi(topology, n_parts, seed=3),
        partitions.random_arcs(topology, n_parts, seed=4),
        partitions.singletons(topology),
        partitions.whole(topology),
    ]


def _shortcuts_for(tree, partition):
    yield empty_shortcut(tree, partition)
    yield full_ancestor_shortcut(tree, partition)
    yield greedy_capped_shortcut(tree, partition, 2)[0]


def _assert_all_identical(shortcut, topology):
    assert quality_fast.block_counts(shortcut) == quality.block_counts(shortcut)
    assert quality_fast.shortcut_congestion(shortcut) == quality.shortcut_congestion(
        shortcut
    )
    assert quality_fast.congestion(shortcut, topology) == quality.congestion(
        shortcut, topology
    )
    engine = PartwiseEngine(topology, shortcut, backend="direct")
    for index in range(shortcut.size):
        assert [blk for blk in engine.blocks if blk.part == index] == (
            quality.block_components(shortcut, index)
        )
    try:
        reference_dilation = quality.dilation(shortcut, topology)
    except ShortcutError:
        with pytest.raises(ShortcutError):
            quality_fast.dilation(shortcut, topology)
        reference = quality.measure_reference(shortcut, topology, with_dilation=False)
        fast = quality.measure(shortcut, topology, with_dilation=False)
        assert fast == reference
        return
    assert quality_fast.dilation(shortcut, topology) == reference_dilation
    reference = quality.measure_reference(shortcut, topology)
    fast = quality.measure(shortcut, topology)
    assert fast == reference


@pytest.mark.parametrize(
    "family",
    [
        pytest.param(name, marks=needs_geometry) if name == "delaunay" else name
        for name in sorted(FAMILIES)
    ],
)
def test_measures_identical_across_families(family):
    topology = FAMILIES[family]()
    tree = SpanningTree.bfs(topology, 0)
    for partition in _partitions_for(topology):
        for shortcut in _shortcuts_for(tree, partition):
            _assert_all_identical(shortcut, topology)


@pytest.mark.parametrize("family", ["grid", "torus", "ktree", "erdos-renyi"])
def test_constructed_shortcuts_identical(family):
    """The constructions' outputs (not just synthetic shortcuts) agree."""
    topology = FAMILIES[family]()
    tree = SpanningTree.bfs(topology, 0)
    partition = partitions.voronoi(topology, max(2, topology.n // 8), seed=3)
    point = best_certified(tree, partition)
    built = find_shortcut(
        topology, tree, partition, point.congestion, point.block, seed=11
    )
    _assert_all_identical(built.shortcut, topology)
    outcome = core_slow(topology, tree, partition, point.congestion, seed=17)
    _assert_all_identical(outcome.shortcut, topology)


def test_weighted_topology_identical():
    """Definition 1 counts edges, not weights: both kernels must ignore
    weights, and agree with the unweighted run."""
    base = FAMILIES["grid"]()
    topology = weighted(base, seed=13)
    tree = SpanningTree.bfs(topology, 0)
    partition = partitions.voronoi(topology, 6, seed=3)
    shortcut = greedy_capped_shortcut(tree, partition, 2)[0]
    reference = quality.measure_reference(shortcut, topology)
    fast = quality.measure(shortcut, topology)
    assert fast == reference
    unweighted_shortcut = TreeRestrictedShortcut(
        SpanningTree.bfs(base, 0), partition, shortcut.subgraphs
    )
    assert quality.measure(unweighted_shortcut, base) == reference


def test_zero_part_shortcut_identical():
    topology = FAMILIES["grid"]()
    tree = SpanningTree.bfs(topology, 0)
    partition = partitions.Partition(topology.n, [])
    shortcut = TreeRestrictedShortcut.empty(tree, partition)
    reference = quality.measure_reference(shortcut, topology)
    fast = quality.measure(shortcut, topology)
    assert fast == reference
    assert quality_fast.block_parameter(shortcut) == quality.block_parameter(shortcut)


def test_default_kernel_used_by_measure(
    grid6, grid6_tree, grid6_voronoi, monkeypatch
):
    """``measure`` runs the fast kernels, whose report is the oracle's."""
    shortcut = full_ancestor_shortcut(grid6_tree, grid6_voronoi)
    assert quality.measure(shortcut, grid6) == quality.measure_reference(
        shortcut, grid6
    )
    sentinel = object()
    monkeypatch.setattr(quality_fast, "measure", lambda *args, **kwargs: sentinel)
    assert quality.measure(shortcut, grid6) is sentinel
