"""Tests for congestion / dilation / block parameter (Defs 1, 3; Lemma 1)."""

import pytest

from repro.congest.topology import Topology
from repro.core import quality, quality_fast
from repro.core.shortcut import TreeRestrictedShortcut
from repro.errors import ShortcutError
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree


@pytest.fixture
def line():
    # Path 0-1-2-3-4-5 plus chord (0,5) making dilation interesting.
    return Topology(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


@pytest.fixture
def line_tree():
    return SpanningTree(0, [-1, 0, 1, 2, 3, 4])


def test_block_components_counts_singletons(line, line_tree):
    parts = Partition(6, [[1, 3, 5]])  # scattered nodes, no edges
    s = TreeRestrictedShortcut.empty(line_tree, parts)
    blocks = quality.block_components(s, 0)
    assert len(blocks) == 3
    assert all(b.size == 1 for b in blocks)


def test_block_components_merge_via_edges(line, line_tree):
    parts = Partition(6, [[1, 3]])
    s = TreeRestrictedShortcut(line_tree, parts, [[(1, 2), (2, 3)]])
    blocks = quality.block_components(s, 0)
    assert len(blocks) == 1
    assert blocks[0].nodes == frozenset({1, 2, 3})
    assert blocks[0].root == 1
    assert blocks[0].root_depth == 1


def test_block_components_exclude_non_intersecting(line, line_tree):
    parts = Partition(6, [[1]])
    # An H_i component far from the part: nodes 3-4.
    s = TreeRestrictedShortcut(line_tree, parts, [[(3, 4)]])
    blocks = quality.block_components(s, 0)
    assert len(blocks) == 1  # only the singleton {1}
    assert blocks[0].nodes == frozenset({1})


def test_block_parameter_is_max(line, line_tree):
    parts = Partition(6, [[1, 3], [5]])
    s = TreeRestrictedShortcut.empty(line_tree, parts)
    assert quality.block_counts(s) == [2, 1]
    assert quality.block_parameter(s) == 2


def test_shortcut_congestion(line, line_tree):
    parts = Partition(6, [[1], [3], [5]])
    s = TreeRestrictedShortcut(
        line_tree, parts,
        [[(0, 1)], [(0, 1), (1, 2)], [(0, 1)]],
    )
    assert quality.shortcut_congestion(s) == 3


def test_definition1_congestion_counts_part_internal_edges(line, line_tree):
    parts = Partition(6, [[0, 1]])
    s = TreeRestrictedShortcut(line_tree, parts, [[(0, 1)]])
    # Edge (0,1) is in H_0 *and* inside G[P_0]: counted once.
    assert quality.congestion(s, line) == 1
    parts2 = Partition(6, [[0, 1], [2]])
    s2 = TreeRestrictedShortcut(line_tree, parts2, [[], [(0, 1), (1, 2)]])
    # Edge (0,1): inside G[P_0] and in H_1 -> congestion 2.
    assert quality.congestion(s2, line) == 2


def test_dilation_uses_shortcut_edges(line, line_tree):
    parts = Partition(6, [[0, 5]])  # adjacent via chord (0,5)
    s = TreeRestrictedShortcut.empty(line_tree, parts)
    assert quality.dilation(s, line) == 1  # the chord is in G[P_0]


def test_dilation_disconnected_raises(line, line_tree):
    parts = Partition(6, [[1], [3]])
    s = TreeRestrictedShortcut.empty(line_tree, parts)
    # Parts themselves are fine (singletons), but a combined part
    # {1, 3} with no connection would raise:
    bad = Partition(6, [[1, 3]])
    s_bad = TreeRestrictedShortcut.empty(line_tree, bad)
    with pytest.raises(ShortcutError):
        quality.dilation(s_bad, line)


def test_dilation_improves_with_shortcut(grid6, grid6_tree):
    from repro.graphs.partitions import grid_rows
    from repro.core.existence import full_ancestor_shortcut

    parts = grid_rows(6, 6)
    empty = TreeRestrictedShortcut.empty(grid6_tree, parts)
    full = full_ancestor_shortcut(grid6_tree, parts)
    assert quality.dilation(full, grid6) <= quality.dilation(empty, grid6) + 2 * grid6_tree.height


def test_lemma1_bound_formula():
    assert quality.lemma1_bound(3, 10) == 3 * 21


def test_lemma1_holds_for_greedy_shortcuts(grid6, grid6_tree, grid6_voronoi):
    from repro.core.existence import greedy_capped_shortcut

    for cap in (1, 2, 4, 8):
        s, _unusable = greedy_capped_shortcut(grid6_tree, grid6_voronoi, cap)
        report = quality.measure(s, grid6)
        assert report.dilation <= report.lemma1_dilation_bound


def test_measure_report_fields(grid6, grid6_tree, grid6_voronoi):
    from repro.core.existence import full_ancestor_shortcut

    s = full_ancestor_shortcut(grid6_tree, grid6_voronoi)
    report = quality.measure(s, grid6)
    assert report.block_parameter == 1
    assert report.congestion >= report.shortcut_congestion - 1
    assert report.dilation is not None
    assert report.tree_depth == grid6_tree.height
    assert "congestion" in str(report)


def test_measure_without_dilation(grid6, grid6_tree, grid6_voronoi):
    from repro.core.existence import full_ancestor_shortcut

    s = full_ancestor_shortcut(grid6_tree, grid6_voronoi)
    report = quality.measure(s, grid6, with_dilation=False)
    assert report.dilation is None
    assert "-" in str(report)


KERNELS = ("reference", "fast")


def _measure(kernel):
    """The report of ``kernel``: the oracle or the fast kernels."""
    return quality.measure_reference if kernel == "reference" else quality.measure


@pytest.mark.parametrize("kernel", KERNELS)
def test_zero_part_shortcut_returns_zero(line, line_tree, kernel):
    """Regression: block_parameter / measure used to crash with
    ``ValueError: max() arg is an empty sequence`` on zero parts."""
    parts = Partition(6, [])
    s = TreeRestrictedShortcut.empty(line_tree, parts)
    assert quality.block_parameter(s) == 0
    assert quality.block_counts(s) == []
    report = _measure(kernel)(s, line)
    assert report.block_parameter == 0
    assert report.congestion == 0
    assert report.shortcut_congestion == 0
    assert report.dilation == 0
    assert report.block_counts == ()


@pytest.mark.parametrize("kernel", KERNELS)
def test_dilation_disconnected_raises_per_part(line, line_tree, kernel):
    """The disconnected error must also fire on a single-part query,
    name the offending part, and leave connected parts measurable."""
    parts = Partition(6, [[0, 1], [3, 5]])  # part 1 disconnected in G[P_1]+H_1
    s = TreeRestrictedShortcut.empty(line_tree, parts)
    measure = _measure(kernel)
    assert measure(s, line, with_dilation=False).dilation is None
    with pytest.raises(ShortcutError, match="G\\[P_1\\]"):
        measure(s, line)
    dilation_of = quality.dilation if kernel == "reference" else quality_fast.dilation
    assert dilation_of(s, line, 0) == 1
    with pytest.raises(ShortcutError, match="disconnected"):
        dilation_of(s, line, 1)


@pytest.mark.parametrize("kernel", KERNELS)
def test_congestion_ignores_weights(line, line_tree, kernel):
    """Definition 1 counts subgraphs per edge; weights must not change
    any quality measure."""
    parts = Partition(6, [[0, 1], [2]])
    subgraphs = [[], [(0, 1), (1, 2)]]
    s = TreeRestrictedShortcut(line_tree, parts, subgraphs)
    plain = _measure(kernel)(s, line)
    heavy = line.with_weights({edge: 1000 + i for i, edge in enumerate(line.edges)})
    tree = SpanningTree(0, [-1, 0, 1, 2, 3, 4])
    s_heavy = TreeRestrictedShortcut(tree, parts, subgraphs)
    assert _measure(kernel)(s_heavy, heavy) == plain
    assert quality.congestion(s_heavy, heavy) == 2


def test_block_root_is_unique_min_depth(grid6, grid6_tree):
    parts = Partition(36, [[30, 31, 32]])
    edges = [grid6_tree.parent_edge(v) for v in (30, 31, 32)]
    s = TreeRestrictedShortcut(grid6_tree, parts, [[e for e in edges if e]])
    for block in quality.block_components(s, 0):
        min_depth = min(grid6_tree.depth(v) for v in block.nodes)
        roots = [v for v in block.nodes if grid6_tree.depth(v) == min_depth]
        assert roots == [block.root]
