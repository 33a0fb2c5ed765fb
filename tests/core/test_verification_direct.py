"""Direct Verification counts keyed by block roots.

``verification_counts_direct`` keys a member's block by its topmost
ancestor-or-self reachable through ``H_i`` and reads the components of
``G[P_i]`` from the cached part scan.  These tests pin it against the
simulated Lemma 3 protocol (``PartwiseEngine.count_blocks``) on split
parts, random partitions with uncovered nodes, and a topology whose
one-entry scan cache is invalidated back and forth.
"""

import random

import pytest

from repro.congest.topology import Topology
from repro.core.construct_fast import part_internal_edges, verification_counts_direct
from repro.core.partwise import PartwiseEngine
from repro.core.shortcut import TreeRestrictedShortcut
from repro.graphs import generators
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree


def _simulated_counts(topology, shortcut, b_limit):
    engine = PartwiseEngine(topology, shortcut, backend="simulate")
    counts, _verdict = engine.count_blocks(b_limit)
    return counts


def _split_parts():
    """Path 0..9 rooted at 0, with two parts whose ``G[P_i]`` splits.

    * Part 0 = {0, 1, 4}: static components {0, 1} and {4}, joined by
      the block {1, 2, 3, 4} of ``H_0`` — one communication component
      with two blocks.
    * Part 1 = {5, 7, 8}: static components {5} and {7, 8} share no
      block, so they report 1 and 2 blocks and the per-member verdicts
      disagree (the ``set.pop`` reduction).

    Parts 2 = {2, 3} and 3 = {6} are connected; node 9 is uncovered.
    """
    topology = generators.path(10)
    tree = SpanningTree.bfs(topology, 0)
    partition = Partition(10, [[0, 1, 4], [5, 7, 8], [2, 3], [6]])
    shortcut = TreeRestrictedShortcut(
        tree, partition, [[(1, 2), (2, 3), (3, 4)], [], [(2, 3)], [(5, 6)]]
    )
    return topology, shortcut


@pytest.mark.parametrize("b_limit", [0, 1, 2, 3])
def test_split_parts_match_the_simulated_protocol(b_limit):
    topology, shortcut = _split_parts()
    direct = verification_counts_direct(topology, shortcut, b_limit)
    assert direct == _simulated_counts(topology, shortcut, b_limit)
    if b_limit >= 2:
        assert direct[0] == 2  # the co-blocked components count together


def _random_instance(seed):
    """A 5x5 grid with random (often disconnected) parts, a few
    uncovered nodes, and random tree-edge subgraphs."""
    rng = random.Random(seed)
    topology = generators.grid(5, 5)
    tree = SpanningTree.bfs(topology, rng.randrange(25))
    size = rng.randint(1, 5)
    labels = [rng.randrange(size) if rng.random() < 0.9 else -1 for _ in range(25)]
    partition = Partition(
        25, [[v for v in range(25) if labels[v] == i] for i in range(size)]
    )
    tree_edges = sorted(tree.edges)
    subgraphs = [
        [edge for edge in tree_edges if rng.random() < 0.3] for _ in range(size)
    ]
    return topology, TreeRestrictedShortcut(tree, partition, subgraphs)


@pytest.mark.parametrize("seed", range(8))
def test_random_partitions_match_the_simulated_protocol(seed):
    topology, shortcut = _random_instance(seed)
    for b_limit in (1, 2, 4):
        assert verification_counts_direct(
            topology, shortcut, b_limit
        ) == _simulated_counts(topology, shortcut, b_limit)


def _fresh(topology):
    """An equal topology object with an empty kernel cache."""
    return Topology(topology.n, sorted(topology.edges))


def test_alternating_label_arrays_invalidate_the_scan_cache():
    topology = generators.grid(5, 5)
    tree = SpanningTree.bfs(topology, 0)
    rows = Partition(25, [range(r * 5, r * 5 + 5) for r in range(5)])
    # Even and odd node ids: grid neighbours differ by 1 or 5, so no part
    # has an internal edge and every member is its own component.
    scattered = Partition(
        25, [[v for v in range(25) if v % 2 == 0], [v for v in range(25) if v % 2]]
    )
    tree_edges = sorted(tree.edges)
    shortcuts = [
        TreeRestrictedShortcut(tree, rows, [tree_edges[i::7] for i in range(5)]),
        TreeRestrictedShortcut(tree, scattered, [tree_edges[::3], tree_edges[1::4]]),
    ]
    expected = []
    for shortcut in shortcuts:
        fresh = _fresh(topology)
        expected.append(
            (
                {b: verification_counts_direct(fresh, shortcut, b) for b in (1, 3, 9)},
                part_internal_edges(_fresh(topology), shortcut.partition),
            )
        )
    assert expected[0][1] != expected[1][1]
    for _round in range(3):
        for shortcut, (counts, part_edges) in zip(shortcuts, expected):
            for b_limit, want in counts.items():
                assert verification_counts_direct(topology, shortcut, b_limit) == want
                assert want == _simulated_counts(topology, shortcut, b_limit)
            assert part_internal_edges(topology, shortcut.partition) == part_edges
