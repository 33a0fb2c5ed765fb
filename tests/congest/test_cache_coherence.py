"""Lazy-cache coherence audit across topology twins.

``Topology`` caches derived structures lazily (``_edge_set``, ``_adj``,
and the ``_kernels`` dict holding CSR/edge-id/component kernels).  The
twin constructors each make a different sharing decision:

* ``with_weights`` **shares** the kernel cache — every cached kernel is
  a function of ``(n, edges)`` only;
* ``from_csr`` **seeds** its cache with the CSR it was built from;
* ``delete_edges`` must start **fresh** — the survivor has different
  edges, so inheriting any cache would serve stale answers.

The mutate-then-measure tests drive a full measure pipeline through a
mutated topology with *both* quality kernels and assert the reports
agree — the regression that catches a stale cache leaking into either.
"""

import pytest

from repro.congest.topology import Topology, component_subtopologies
from repro.core import quality
from repro.core.doubling import find_shortcut_doubling
from repro.errors import TopologyError
from repro.failures.repair import split_partition
from repro.graphs import generators, partitions
from repro.graphs.csr import adjacency_csr, bfs_spanning_tree


def test_with_weights_shares_kernel_cache():
    topology = generators.grid(4, 4)
    csr = adjacency_csr(topology)
    weighted = topology.with_weights({e: i + 1 for i, e in enumerate(topology.edges)})
    assert weighted._kernels is topology._kernels
    assert adjacency_csr(weighted) is csr
    assert weighted.weight(0, 1) == 1 + topology.edges.index((0, 1))


def test_from_csr_seeds_csr_kernel():
    topology = generators.grid(4, 4)
    csr = adjacency_csr(topology)
    rebuilt = Topology.from_csr(csr)
    assert adjacency_csr(rebuilt) is csr
    assert rebuilt.edges == topology.edges


def test_delete_edges_starts_with_fresh_caches():
    topology = generators.grid(4, 4)
    # Warm every lazy cache on the parent.
    adjacency_csr(topology)
    topology.has_edge(0, 1)
    topology.neighbors(0)
    topology.components()
    survivor = topology.delete_edges([(0, 1)])
    assert survivor._kernels is not topology._kernels
    assert not survivor._kernels
    assert survivor._edge_set is None and survivor._adj is None
    # The rebuilt caches describe the survivor, not the parent.
    assert not survivor.has_edge(0, 1)
    assert 1 not in survivor.neighbors(0)
    assert adjacency_csr(survivor) is not adjacency_csr(topology)
    assert survivor.m == topology.m - 1
    # The parent is untouched.
    assert topology.has_edge(0, 1)
    assert 1 in topology.neighbors(0)


def test_delete_edges_keeps_weights_of_survivors():
    topology = generators.grid(3, 3)
    weighted = topology.with_weights(
        {e: i + 10 for i, e in enumerate(topology.edges)}
    )
    survivor = weighted.delete_edges([weighted.edges[0]])
    assert survivor.is_weighted
    for edge in survivor.edges:
        assert survivor.weight(*edge) == weighted.weight(*edge)


def test_delete_edges_rejects_non_edges_and_disconnection():
    topology = generators.path(4)
    with pytest.raises(TopologyError):
        topology.delete_edges([(0, 3)])
    with pytest.raises(TopologyError):
        topology.delete_edges([(1, 2)], require_connected=True)
    survivor = topology.delete_edges([(1, 2)])
    assert survivor.components() == ((0, 1), (2, 3))
    assert not survivor.is_connected


def test_components_are_cached_and_fresh_per_twin():
    topology = generators.grid(3, 3)
    assert topology.components() is topology.components()
    survivor = topology.delete_edges([(0, 1), (0, 3)])
    assert len(survivor.components()) == 2
    assert len(topology.components()) == 1
    pieces = component_subtopologies(survivor)
    assert [len(nodes) for _, nodes in pieces] == [1, 8]


KERNELS = {"reference": quality.measure_reference, "fast": quality.measure}


@pytest.mark.parametrize("kernel", KERNELS)
def test_mutate_then_measure_kernels_agree(kernel):
    """Delete edges mid-pipeline, then measure with each kernel against
    the reference: a stale CSR/tree cache would break the agreement."""
    topology = generators.grid(5, 5)
    partition = partitions.voronoi(topology, 5, seed=2)
    tree = bfs_spanning_tree(topology, 0)
    find_shortcut_doubling(topology, tree, partition, seed=1, mode="direct")

    survivor = topology.delete_edges([(0, 1), (7, 12)])
    new_partition, _ = split_partition(survivor, partition)
    new_tree = bfs_spanning_tree(survivor, 0)
    outcome = find_shortcut_doubling(
        survivor, new_tree, new_partition, seed=1, mode="direct"
    )
    report = KERNELS[kernel](outcome.result.shortcut, survivor)
    reference = quality.measure_reference(outcome.result.shortcut, survivor)
    assert report == reference


def test_mutate_then_measure_after_cache_warm():
    """Warming every cache on the parent must not leak into the
    survivor's measurements (the mutate-then-measure regression)."""
    topology = generators.torus(4, 4)
    partition = partitions.voronoi(topology, 4, seed=3)
    # Warm parent caches through a full pipeline.
    tree = bfs_spanning_tree(topology, 0)
    find_shortcut_doubling(topology, tree, partition, seed=2, mode="direct")
    adjacency_csr(topology)

    survivor = topology.delete_edges(topology.edges[:2])
    new_partition, _ = split_partition(survivor, partition)
    new_tree = bfs_spanning_tree(survivor, 0)
    outcome = find_shortcut_doubling(
        survivor, new_tree, new_partition, seed=2, mode="direct"
    )
    reports = {
        kernel: measure(outcome.result.shortcut, survivor)
        for kernel, measure in KERNELS.items()
    }
    first = next(iter(reports.values()))
    assert all(report == first for report in reports.values())
    # And the survivor's spanning tree lives strictly inside it.
    new_tree.validate_in(survivor)
    outcome.result.shortcut.validate_in(survivor)
