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
