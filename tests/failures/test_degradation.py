"""Edge-case tests for the degradation measurement.

The main-line sweeps live in E19 and the property suite; these pin the
boundary shapes: a scenario failing *every* edge, a survivor in which
no original part stays intact, and SRLG draws that take down the whole
spanning tree.  The last test proves the survivor's quality report is
still cross-checked against its reference oracle.
"""

import dataclasses

import pytest

from repro.analysis.instances import InstanceSpec, clear_instance_cache, hydrate
from repro.core import quality
from repro.failures.degradation import intact_baseline, measure_degradation
from repro.failures.repair import split_partition
from repro.failures.scenarios import FailureScenario, sample_srlg
from repro.graphs.csr import bfs_spanning_tree


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_instance_cache()
    yield
    clear_instance_cache()


@pytest.fixture(scope="module")
def instance():
    return hydrate(
        InstanceSpec(
            "grid", (4, 4), weights=("unique", 3),
            partition=("voronoi", 4, 1),
        )
    )


@pytest.fixture(scope="module")
def baseline(instance):
    return intact_baseline(
        instance.topology, instance.partition,
        seed=0, mode="direct", backend="direct",
    )


def measure(instance, scenario, baseline):
    return measure_degradation(
        instance.topology, instance.partition, scenario, baseline,
        seed=0, mode="direct", backends=("direct",), with_dilation=False,
    )


def test_all_edges_failed(instance, baseline):
    topology = instance.topology
    scenario = FailureScenario(
        edges=tuple(sorted(topology.edges)), kind="kwise", label="all-edges"
    )
    record = measure(instance, scenario, baseline)
    # Every node is its own component; there is no shortcut to measure.
    assert not record.connected
    assert record.components == topology.n
    assert record.connectivity_components == topology.n
    assert record.congestion_delta is None
    assert record.block_delta is None
    assert record.construction_rounds_delta is None
    # The MST forest over an edgeless survivor is empty.
    assert record.mst_weight_delta == -baseline.mst_weight


def test_survivor_with_zero_parts_intact():
    # Row parts (paths) all shatter when one inner edge of each fails;
    # the column edges keep the survivor connected.
    rows = hydrate(
        InstanceSpec(
            "grid", (4, 4), weights=("unique", 3), partition=("rows", 4, 4)
        )
    )
    topology, partition = rows.topology, rows.partition
    base = intact_baseline(
        topology, partition, seed=0, mode="direct", backend="direct"
    )
    failed = []
    for index, part in enumerate(partition.parts):
        nodes = set(part)
        inner = sorted(
            edge for edge in topology.edges
            if edge[0] in nodes and edge[1] in nodes
        )
        assert inner, "fixture partition has a single-node part"
        # Stagger the failed position per row: cutting the same column
        # in every row would split the grid in two.
        failed.append(inner[index % len(inner)])
    scenario = FailureScenario(
        edges=tuple(sorted(set(failed))), kind="kwise", label="shatter-all"
    )
    survivor = topology.delete_edges(scenario.edges)
    assert len(survivor.components()) == 1, "fixture no longer connected"
    new_partition, origin = split_partition(survivor, partition)
    intact = sum(
        1 for old in range(partition.size) if origin.count(old) == 1
    )
    assert intact == 0
    assert new_partition.size == 2 * partition.size
    record = measure(rows, scenario, base)
    # The shattered partition still constructs and measures cleanly.
    assert record.connected
    assert record.components == 1
    assert record.congestion_delta is not None
    assert record.block_delta is not None
    assert record.mst_weight_delta >= 0


def test_srlg_covering_the_whole_spanning_tree(instance, baseline):
    topology = instance.topology
    tree = bfs_spanning_tree(topology, 0)
    # One risk group per tree node's parent edge; probability 1 fails
    # them all: the scenario takes down the entire spanning tree.
    groups = tuple((edge,) for edge in tree.edges)
    assert len(groups) == topology.n - 1
    scenarios = sample_srlg(topology, groups, 1, 1.0, seed=0)
    (scenario,) = scenarios
    assert set(scenario.edges) == {
        tuple(sorted(edge)) for edge in tree.edges
    }
    record = measure(instance, scenario, baseline)
    # Losing a spanning tree does not disconnect a 4x4 grid everywhere,
    # but whatever the survivor looks like, the record must be
    # internally consistent.
    assert record.components == record.connectivity_components
    if record.connected:
        assert record.congestion_delta is not None
    else:
        assert record.components > 1
        assert record.congestion_delta is None


def test_diverging_oracle_fails_the_cross_check(instance, baseline, monkeypatch):
    scenario = FailureScenario(edges=((0, 1),), kind="kwise", label="one-edge")
    oracle = quality.measure_reference
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(quality, "measure_reference", counted)
    record = measure(instance, scenario, baseline)
    assert record.connected and len(calls) == 1

    def perturbed(*args, **kwargs):
        report = oracle(*args, **kwargs)
        return dataclasses.replace(report, congestion=report.congestion + 1)

    monkeypatch.setattr(quality, "measure_reference", perturbed)
    with pytest.raises(AssertionError, match="diverge on survivor of one-edge"):
        measure(instance, scenario, baseline)
