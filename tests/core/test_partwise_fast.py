"""Lemma 2 schedule costs of the direct partwise backend.

The direct backend never runs the Lemma 2 node programs: it folds each
block's values centrally and charges the ledger from
:func:`convergecast_rounds`, :func:`broadcast_rounds` and the
:func:`subtree_messages` closed form.  These tests pin those three
against the simulated programs of :mod:`repro.core.tree_routing`, and
check that a :class:`PartwiseEngine` replays each schedule only once.
"""

import random

import pytest

from repro.congest.trace import RoundLedger
from repro.core import partwise_fast, quality
from repro.core.core_slow import core_slow
from repro.core.existence import best_certified
from repro.core.partwise import PartwiseEngine
from repro.core.partwise_fast import (
    broadcast_rounds,
    convergecast_rounds,
    subtree_messages,
)
from repro.core.shortcut import TreeRestrictedShortcut
from repro.core.tree_routing import broadcast, convergecast, make_task
from repro.graphs import generators, partitions
from repro.graphs.spanning_trees import SpanningTree


def _families():
    grid = generators.grid(7, 7)
    torus = generators.torus(6, 6)
    hub = generators.cycle_with_hub(40, 8)
    return {
        "grid": (grid, partitions.voronoi(grid, 7, seed=1)),
        "torus": (torus, partitions.voronoi(torus, 6, seed=4)),
        "hub": (hub, partitions.cycle_arcs(40, 8, extra_nodes=1)),
    }


FAMILIES = _families()


def _engine(name, **kwargs):
    topology, partition = FAMILIES[name]
    tree = SpanningTree.bfs(topology, 0)
    point = best_certified(tree, partition)
    shortcut = core_slow(topology, tree, partition, point.congestion, seed=17).shortcut
    return PartwiseEngine(topology, shortcut, backend="direct", **kwargs)


def _random_subtrees(tree, rng, count):
    """``count`` overlapping random subtrees of ``tree`` (unique keys)."""
    tasks = []
    for tid in range(count):
        root = rng.randrange(tree.n)
        nodes, frontier = {root}, [root]
        while frontier:
            v = frontier.pop()
            for child in tree.children(v):
                if rng.random() < 0.7:
                    nodes.add(child)
                    frontier.append(child)
        tasks.append(make_task(tree, tid, nodes))
    return tasks


def _task_sets(name):
    """Random subsets of a real engine's block tasks, the empty set,
    and random overlapping subtrees (higher edge congestion)."""
    engine = _engine(name)
    rng = random.Random(sum(map(ord, name)))
    block_tasks = list(engine.tasks.values())
    sets = [block_tasks, []]
    for _ in range(4):
        sets.append(rng.sample(block_tasks, rng.randrange(1, len(block_tasks) + 1)))
    for count in (3, 12):
        sets.append(_random_subtrees(engine.tree, rng, count))
    return engine.topology, engine.tree, sets


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_cost_replays_match_the_simulated_programs(name):
    topology, tree, task_sets = _task_sets(name)
    for tasks in task_sets:
        values = {task.key: {v: v for v in task.nodes} for task in tasks}
        _combined, cc_run = convergecast(topology, tree, tasks, values, "min")
        assert convergecast_rounds(tree, tasks) == cc_run.rounds
        assert subtree_messages(tasks) == cc_run.messages

        root_values = {task.key: task.tid for task in tasks}
        _delivered, bc_run = broadcast(topology, tree, tasks, root_values)
        assert broadcast_rounds(tree, tasks) == bc_run.rounds
        assert subtree_messages(tasks) == bc_run.messages


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_each_schedule_is_replayed_once_per_engine(name, monkeypatch):
    replays = {"convergecast": 0, "broadcast": []}
    real_cc, real_bc = partwise_fast.convergecast_rounds, partwise_fast.broadcast_rounds

    def counting_cc(tree, tasks):
        replays["convergecast"] += 1
        return real_cc(tree, tasks)

    def counting_bc(tree, tasks):
        tasks = list(tasks)
        replays["broadcast"].append(tuple(task.key for task in tasks))
        return real_bc(tree, tasks)

    monkeypatch.setattr(partwise_fast, "convergecast_rounds", counting_cc)
    monkeypatch.setattr(partwise_fast, "broadcast_rounds", counting_bc)

    engine = _engine(name, ledger=RoundLedger())
    participating = []
    real_block_aggregate = engine.block_aggregate

    def recording_block_aggregate(values, combine="min"):
        keys = {
            (engine.block_of[v].part, engine.block_of[v].root)
            for v, value in values.items()
            if value is not None and v in engine.block_of
        }
        participating.append(tuple(key for key in engine.tasks if key in keys))
        return real_block_aggregate(values, combine)

    engine.block_aggregate = recording_block_aggregate
    b_bound = max(1, quality.block_parameter(engine.shortcut))
    engine.minimum_per_part({v: v for v in engine.block_of}, b_bound)
    engine.count_blocks(b_bound)

    assert replays["convergecast"] == 1
    assert len(participating) > len(set(participating))  # the cache is hit
    assert sorted(replays["broadcast"]) == sorted(set(participating))

    # A second engine over the same shortcut keeps its own cache.
    other = PartwiseEngine(engine.topology, engine.shortcut, backend="direct")
    other.block_aggregate({v: v for v in other.block_of})
    other.block_aggregate({v: -v for v in other.block_of}, "max")
    assert replays["convergecast"] == 2
    assert len(replays["broadcast"]) == len(set(participating)) + 1


# ----------------------------------------------------------------------
# The direct min-flood on the contracted supergraph
# ----------------------------------------------------------------------

# Part 0 is the path 0..8 with three blocks {0,1,2} - {3,4,5} - {6,7,8}
# (a supergraph path), part 1 the path 9..11 with an empty H_1 (three
# singleton blocks).  Each block holds intra-block part edges, so the
# exchange's per-edge message count differs from a per-block-pair one.
PATH_H0 = [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]


def _path_shortcut():
    topology = generators.path(12)
    tree = SpanningTree.bfs(topology, 0)
    partition = partitions.Partition(12, [range(9), range(9, 12)])
    return topology, TreeRestrictedShortcut(tree, partition, [PATH_H0, []])


def _both_backends(topology, shortcut, call):
    """``(result, ledger records)`` of ``call(engine)`` per backend."""
    runs = []
    for backend in ("simulate", "direct"):
        engine = PartwiseEngine(
            topology, shortcut, seed=3, ledger=RoundLedger(), backend=backend
        )
        runs.append((call(engine), engine.ledger.records))
    return runs


def test_path_supergraph_has_three_blocks_per_part():
    topology, shortcut = _path_shortcut()
    engine = PartwiseEngine(topology, shortcut, backend="direct")
    assert sorted(engine.tasks) == [(0, 0), (0, 3), (0, 6), (1, 9), (1, 10), (1, 11)]


@pytest.mark.parametrize("iterations", [0, 1, 3])
@pytest.mark.parametrize(
    "values",
    [
        {v: 100 - v for v in range(12)},
        {v: 100 - v for v in range(9)},  # part 1 all None
        {v: None for v in range(12)},
        {},
    ],
    ids=["both-parts", "part1-none", "all-none", "empty"],
)
def test_minimum_per_part_direct_matches_simulate(values, iterations):
    topology, shortcut = _path_shortcut()
    (sim, sim_ledger), (direct, direct_ledger) = _both_backends(
        topology, shortcut, lambda engine: engine.minimum_per_part(values, iterations)
    )
    assert direct == sim
    assert list(direct) == list(sim)
    assert direct_ledger == sim_ledger
    if iterations == 1 and values.get(8) is not None:
        # Two supersteps short of the far block: partial minima remain.
        assert direct[0] == 95 and direct[8] == 92


@pytest.mark.parametrize("iterations", [0, 1, 3])
def test_broadcast_from_leaders_direct_matches_simulate(iterations):
    topology, shortcut = _path_shortcut()
    leader_values = {8: 7, 9: 4}
    (sim, sim_ledger), (direct, direct_ledger) = _both_backends(
        topology,
        shortcut,
        lambda engine: engine.broadcast_from_leaders(leader_values, iterations),
    )
    assert direct == sim
    assert direct_ledger == sim_ledger


def test_boruvka_singleton_phase_direct_matches_simulate():
    topology = generators.grid(5, 5)
    tree = SpanningTree.bfs(topology, 0)
    shortcut = TreeRestrictedShortcut.empty(tree, partitions.singletons(topology))

    def phase(engine):
        leaders, knowledge = engine.elect_leaders(1)
        spread = engine.broadcast_from_leaders(
            {v: (7 * v) % 25 for v in leaders.values()}, 1
        )
        negated = engine.minimum_per_part({v: -v for v in range(25)}, 1)
        return leaders, knowledge, spread, negated

    (sim, sim_ledger), (direct, direct_ledger) = _both_backends(
        topology, shortcut, phase
    )
    assert direct == sim
    assert direct_ledger == sim_ledger


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_minimum_per_part_direct_matches_simulate_on_families(name):
    engine = _engine(name)
    b_bound = max(1, quality.block_parameter(engine.shortcut))
    rng = random.Random(name)
    values = {
        v: rng.randrange(50) if rng.random() < 0.3 else None for v in engine.block_of
    }
    (sim, sim_ledger), (direct, direct_ledger) = _both_backends(
        engine.topology,
        engine.shortcut,
        lambda e: [e.minimum_per_part(values, k) for k in (0, 1, b_bound)],
    )
    assert direct == sim
    assert direct_ledger == sim_ledger
