"""Differential conformance: direct application backend vs simulation.

Every test runs the same application in ``backend="simulate"`` and
``backend="direct"`` and asserts the observable outcome is bit-for-bit
identical — not just combinatorial outputs (MST edges, weights, phase
counts, per-phase records, component labels, cut values, per-part
aggregates) but the *entire round ledger*: phase names, rounds,
messages, and barrier charges.  Unlike the construction kernels (whose
Verification phase is an analytic upper bound), the partwise replays
are exact, so the ledgers must match to the round.  This suite is what
licenses the direct backend for the large-scale application
experiments (E9/E10/E13/E17) — exactly as the engine-equivalence and
construct-equivalence suites license their layers.
"""

import random

import pytest

from repro.apps.aggregation import (
    aggregate_max,
    aggregate_min,
    aggregate_sum,
    exchange_labels,
    min_outgoing_edges,
)
from repro.apps.connectivity import connected_components
from repro.apps.fragment_comm import fragment_aggregate, fragment_flood_min
from repro.apps.leader_election import elect_leaders
from repro.apps.mincut import approximate_min_cut
from repro.apps.mst import kruskal_reference, minimum_spanning_tree
from repro.congest.trace import RoundLedger
from repro.core import quality
from repro.core.core_slow import core_slow
from repro.core.existence import best_certified
from repro.core.partwise import PartwiseEngine
from repro.core.partwise_fast import superstep_cost_bound, using_backend
from repro.graphs import generators, partitions
from repro.graphs.weights import weighted

BACKENDS = ("simulate", "direct")


def _instances():
    grid = generators.grid(6, 6)
    torus = generators.torus(5, 5)
    hub = generators.cycle_with_hub(48, 8)
    instances = {
        "grid": (weighted(grid, seed=1), partitions.voronoi(grid, 6, seed=3)),
        "torus": (weighted(torus, seed=2), partitions.voronoi(torus, 5, seed=2)),
        "hub": (weighted(hub, seed=3), partitions.cycle_arcs(48, 8, extra_nodes=1)),
    }
    if generators.geometry_available():
        # The delaunay family needs the optional geometry extra; the
        # pool (and its parametrized tests) shrinks without it.
        delaunay = generators.delaunay(40, 3)
        instances["delaunay"] = (
            weighted(delaunay, seed=4),
            partitions.voronoi(delaunay, 6, seed=5),
        )
    return instances


INSTANCES = _instances()


def _assert_ledgers_identical(simulate, direct):
    """Bit-for-bit ledger equality: names, rounds, messages, barriers."""
    assert simulate.records == direct.records
    assert simulate.total_rounds == direct.total_rounds
    assert simulate.total_messages == direct.total_messages


# ----------------------------------------------------------------------
# MST
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_mst_direct_backend_identical(name):
    topology, _partition = INSTANCES[name]
    results = {
        backend: minimum_spanning_tree(
            topology, params="doubling", seed=9, backend=backend
        )
        for backend in BACKENDS
    }
    simulate, direct = results["simulate"], results["direct"]
    assert direct.edges == simulate.edges
    assert direct.weight == simulate.weight
    assert direct.phases == simulate.phases
    assert direct.phase_records == simulate.phase_records
    _assert_ledgers_identical(simulate.ledger, direct.ledger)
    _edges, ref_weight = kruskal_reference(topology)
    assert direct.weight == ref_weight


@pytest.mark.parametrize("params,kwargs", [
    ("genus", {"genus": 1}),
    ("certified", {}),
])
def test_mst_direct_backend_identical_other_params(params, kwargs):
    topology, _partition = INSTANCES["torus"]
    results = {
        backend: minimum_spanning_tree(
            topology, params=params, seed=5, backend=backend, **kwargs
        )
        for backend in BACKENDS
    }
    assert results["direct"].edges == results["simulate"].edges
    assert results["direct"].phase_records == results["simulate"].phase_records
    _assert_ledgers_identical(results["simulate"].ledger, results["direct"].ledger)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_mst_direct_backend_with_direct_construction(name):
    """The fully-direct stack (backend + construction kernels) keeps
    every combinatorial output; only the construction rounds swap to
    the Lemma 3 analytic model (aggregate rounds stay exact)."""
    topology, _partition = INSTANCES[name]
    simulate = minimum_spanning_tree(topology, params="doubling", seed=9)
    direct = minimum_spanning_tree(
        topology, params="doubling", seed=9,
        backend="direct", construct_mode="direct",
    )
    assert direct.edges == simulate.edges
    assert direct.weight == simulate.weight
    assert direct.phases == simulate.phases
    for sim_rec, dir_rec in zip(simulate.phase_records, direct.phase_records):
        assert dir_rec.fragments == sim_rec.fragments
        assert dir_rec.merges == sim_rec.merges
        assert dir_rec.shortcut_b == sim_rec.shortcut_b
        assert dir_rec.aggregate_rounds == sim_rec.aggregate_rounds


def test_mst_phase_records_carry_round_breakdown():
    topology, _partition = INSTANCES["grid"]
    result = minimum_spanning_tree(topology, params="doubling", seed=9)
    assert result.phase_records
    for record in result.phase_records:
        assert record.construct_rounds > 0
        assert record.aggregate_rounds > 0
    total = sum(
        r.construct_rounds + r.aggregate_rounds for r in result.phase_records
    )
    # Everything except the BFS-tree + share-randomness preamble is
    # attributed to exactly one phase.
    preamble = sum(
        rec.rounds + rec.barrier_rounds
        for rec in result.ledger.records
        if rec.name in ("bfs-tree", "share-randomness")
    )
    assert preamble + total == result.ledger.total_rounds


# ----------------------------------------------------------------------
# Connectivity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("use_shortcuts", [True, False], ids=["shortcut", "plain"])
def test_connectivity_direct_backend_identical(name, use_shortcuts):
    topology, _partition = INSTANCES[name]
    alive = [edge for i, edge in enumerate(topology.edges) if i % 3 != 0]
    results = {
        backend: connected_components(
            topology, alive, use_shortcuts=use_shortcuts, seed=5, backend=backend
        )
        for backend in BACKENDS
    }
    simulate, direct = results["simulate"], results["direct"]
    assert direct.labels == simulate.labels
    assert direct.components == simulate.components
    assert direct.phases == simulate.phases
    _assert_ledgers_identical(simulate.ledger, direct.ledger)


# ----------------------------------------------------------------------
# Min-cut
# ----------------------------------------------------------------------


def test_mincut_direct_backend_identical_distributed():
    topology = weighted(generators.torus(4, 4), seed=7)
    results = {
        backend: approximate_min_cut(
            topology, trees=3, seed=5, use_distributed_mst=True, backend=backend
        )
        for backend in BACKENDS
    }
    simulate, direct = results["simulate"], results["direct"]
    assert direct.value == simulate.value
    assert direct.cut_edges == simulate.cut_edges
    assert direct.side == simulate.side
    _assert_ledgers_identical(simulate.ledger, direct.ledger)


def test_mincut_direct_backend_identical_central():
    topology = generators.grid(5, 5)
    results = {
        backend: approximate_min_cut(topology, seed=2, backend=backend)
        for backend in BACKENDS
    }
    assert results["direct"].value == results["simulate"].value
    assert results["direct"].side == results["simulate"].side
    _assert_ledgers_identical(
        results["simulate"].ledger, results["direct"].ledger
    )


# ----------------------------------------------------------------------
# Leader election + aggregation primitives
# ----------------------------------------------------------------------


def _shortcut_setup(name):
    topology, partition = INSTANCES[name]
    from repro.graphs.spanning_trees import SpanningTree

    tree = SpanningTree.bfs(topology, 0)
    point = best_certified(tree, partition)
    outcome = core_slow(topology, tree, partition, point.congestion, seed=17)
    b_bound = max(1, quality.block_parameter(outcome.shortcut))
    return topology, partition, outcome.shortcut, b_bound


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_leader_election_direct_backend_identical(name):
    topology, _partition, shortcut, b_bound = _shortcut_setup(name)
    results = {
        backend: elect_leaders(topology, shortcut, b_bound, seed=3, backend=backend)
        for backend in BACKENDS
    }
    assert results["direct"].leaders == results["simulate"].leaders
    assert results["direct"].knowledge == results["simulate"].knowledge
    assert results["direct"].rounds == results["simulate"].rounds


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_aggregation_primitives_direct_backend_identical(name):
    topology, _partition, shortcut, b_bound = _shortcut_setup(name)
    values = {v: (v * 7) % 101 for v in topology.nodes}
    outputs = {}
    ledgers = {}
    for backend in BACKENDS:
        ledger = RoundLedger()
        engine = PartwiseEngine(
            topology, shortcut, seed=3, ledger=ledger, backend=backend
        )
        outputs[backend] = {
            "min": aggregate_min(engine, values, b_bound),
            "max": aggregate_max(engine, values, b_bound),
            "sum": aggregate_sum(engine, values, b_bound),
            "edges": min_outgoing_edges(topology, engine, b_bound, seed=5),
            "count": engine.count_blocks(b_bound),
        }
        ledgers[backend] = ledger
    assert outputs["direct"] == outputs["simulate"]
    _assert_ledgers_identical(ledgers["simulate"], ledgers["direct"])


def _sparse_block_calls(engine, seed):
    """A ``block_aggregate`` call sequence covering every broadcast-cache
    key shape: dense values, ``None`` on a seeded half of the blocks, an
    all-``None`` call, and single-member values, under min/max/sum."""
    blocks = {}
    for v, block in sorted(engine.block_of.items()):
        blocks.setdefault((block.part, block.root), []).append(v)
    rng = random.Random(seed)
    silent = set(rng.sample(sorted(blocks), len(blocks) // 2))
    dense = {v: (v * 37) % 53 for v in engine.block_of}
    half = {
        v: None if key in silent else dense[v]
        for key, members in blocks.items()
        for v in members
    }
    one_per_block = {members[-1]: 7 + i for i, members in enumerate(blocks.values())}
    lone = rng.choice(sorted(engine.block_of))
    calls = []
    for combine in ("min", "max", "sum"):
        calls += [(dense, combine), (half, combine), (one_per_block, combine)]
    calls += [
        ({v: None for v in engine.block_of}, "min"),
        ({}, "sum"),
        ({lone: 5}, "max"),
        (half, "min"),
    ]
    return calls


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_block_aggregate_sparse_values_direct_backend_identical(name):
    """One reused engine per backend through sparse, empty, and
    single-member ``block_aggregate`` calls: every broadcast-cache key
    shape of the direct backend meets the simulated oracle."""
    topology, _partition, shortcut, _b_bound = _shortcut_setup(name)
    outputs = {}
    ledgers = {}
    for backend in BACKENDS:
        ledger = RoundLedger()
        engine = PartwiseEngine(
            topology, shortcut, seed=3, ledger=ledger, backend=backend
        )
        outputs[backend] = [
            engine.block_aggregate(values, combine)
            for values, combine in _sparse_block_calls(engine, seed=11)
        ]
        ledgers[backend] = ledger
    assert outputs["direct"] == outputs["simulate"]
    _assert_ledgers_identical(ledgers["simulate"], ledgers["direct"])


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_partwise_rounds_respect_superstep_model(name):
    """The replayed ledger never exceeds the Lemma 2/3 cost model:
    b supersteps cost at most b (2(D + c + 2) + 1) rounds."""
    topology, _partition, shortcut, b_bound = _shortcut_setup(name)
    ledger = RoundLedger()
    engine = PartwiseEngine(
        topology, shortcut, seed=3, ledger=ledger, backend="direct"
    )
    before = ledger.total_rounds
    engine.minimum_per_part({v: v for v in engine.block_of}, b_bound)
    measured = ledger.total_rounds - before
    c = quality.shortcut_congestion(shortcut)
    bound = superstep_cost_bound(shortcut.tree.height, c, b_bound + 1)
    assert measured <= bound


# ----------------------------------------------------------------------
# Fragment-communication baselines + label exchange
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_fragment_baselines_direct_backend_identical(name):
    topology, partition = INSTANCES[name]
    labels = {v: partition.part_of(v) for v in topology.nodes}
    values = {
        v: (v * 13) % 257 for v in topology.nodes if labels[v] is not None
    }
    outputs = {}
    ledgers = {}
    for backend in BACKENDS:
        ledger = RoundLedger()
        flood = fragment_flood_min(
            topology, labels, values, seed=3, ledger=ledger, backend=backend
        )
        aggregates = {
            combine: fragment_aggregate(
                topology, labels, values, combine,
                seed=5, ledger=ledger, backend=backend,
            )
            for combine in ("min", "max", "sum")
        }
        outputs[backend] = (flood, aggregates)
        ledgers[backend] = ledger
    assert outputs["direct"] == outputs["simulate"]
    _assert_ledgers_identical(ledgers["simulate"], ledgers["direct"])


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_exchange_labels_direct_backend_identical(name):
    topology, partition = INSTANCES[name]
    labels = {v: partition.part_of(v) for v in topology.nodes}
    ledgers = {backend: RoundLedger() for backend in BACKENDS}
    outputs = {
        backend: exchange_labels(
            topology, labels, seed=3, ledger=ledgers[backend], backend=backend
        )
        for backend in BACKENDS
    }
    assert outputs["direct"] == outputs["simulate"]
    _assert_ledgers_identical(ledgers["simulate"], ledgers["direct"])


def test_using_backend_scopes_the_default():
    topology, _partition = INSTANCES["grid"]
    with using_backend("direct"):
        scoped = minimum_spanning_tree(topology, params="doubling", seed=9)
    explicit = minimum_spanning_tree(
        topology, params="doubling", seed=9, backend="direct"
    )
    assert scoped.edges == explicit.edges
    assert scoped.ledger.records == explicit.ledger.records
