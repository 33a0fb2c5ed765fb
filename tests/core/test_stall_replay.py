"""Stalled FindShortcut iterations: the direct-mode replay.

While CoreFast's activation probability is 1 (or with CoreSlow, which
draws nothing), a direct-mode iteration that freezes no part hands the
next one identical inputs.  ``find_shortcut(mode="direct")`` and the
vector ladder's wave therefore charge such repeats by replaying the
stalled iteration's ledger records instead of recomputing them
(``repro.core.find_shortcut._replay_stall``).  These tests pin the
replay three ways:

* against the executable specification, ``mode="simulate"``, which
  runs every iteration, on instances whose ``(1, 1)`` trial stalls;
* against a full-ledger oracle written here, a FindShortcut loop that
  runs the direct core and Verification on every iteration — and the
  vector ladder against the per-instance search on a ragged batch that
  mixes stalling and non-stalling instances;
* the guard: a stall followed by a *different* draw must run the next
  iteration for real.
"""

import importlib

import pytest

from repro.congest.randomness import draw_shared_seed, mix
from repro.congest.trace import RoundLedger
from repro.core.batch import find_shortcut_doubling_batch
from repro.core.construct_fast import share_randomness_cost
from repro.core.core_fast import active_parts, core_fast
from repro.core.core_slow import core_slow
from repro.core.doubling import find_shortcut_doubling
from repro.core.find_shortcut import (
    _replay_stall,
    default_iteration_limit,
    find_shortcut,
)
from repro.core.shortcut import TreeRestrictedShortcut
from repro.core.verification import verification
from repro.errors import ConstructionFailedError
from repro.graphs import generators, partitions
from repro.graphs.batch_csr import numpy_available
from repro.graphs.spanning_trees import SpanningTree

# (family, side, Voronoi parts, seed): each instance's (1, 1) trial
# freezes no part for at least two consecutive iterations, with either
# core.
STALLING = [
    ("torus", 8, 4, 4),
    ("grid", 10, 6, 0),
    ("grid", 10, 6, 4),
    ("torus", 10, 6, 4),
    ("grid", 12, 8, 4),
]

EXACT_PHASES = ("core-fast/sample", "core-fast/flood", "core-slow", "termination-check")

CORES = pytest.mark.parametrize("use_fast", [True, False], ids=["fast", "slow"])


def _instance(family, side, parts, seed):
    topology = getattr(generators, family)(side, side)
    tree = SpanningTree.bfs(topology, 0)
    return topology, tree, partitions.voronoi(topology, parts, seed=seed)


INSTANCES = {
    f"{family}{side}-{parts}p-s{seed}": (_instance(family, side, parts, seed), seed)
    for family, side, parts, seed in STALLING
}


def _slots(shortcut):
    return list(shortcut.offsets), list(shortcut.children)


def _exact_records(ledger):
    return [
        (record.name, record.rounds, record.messages, record.barrier_rounds)
        for record in ledger.records
        if record.name in EXACT_PHASES
    ]


def _stalls(good_history):
    """Number of iterations that froze no part."""
    return sum(1 for good in good_history if not good)


@CORES
def test_instances_stall(use_fast):
    # The premise of the suite: every instance's (1, 1) trial repeats
    # an empty iteration, so replay has something to replay.
    for (topology, tree, partition), seed in INSTANCES.values():
        with pytest.raises(ConstructionFailedError) as caught:
            find_shortcut(
                topology, tree, partition, 1, 1, use_fast=use_fast, seed=seed,
                max_iterations=5, mode="direct",
            )
        assert _stalls(caught.value.state.good_history) >= 2


@CORES
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_simulate_vs_direct(name, use_fast):
    (topology, tree, partition), seed = INSTANCES[name]
    runs = {
        mode: find_shortcut_doubling(
            topology, tree, partition, use_fast=use_fast, seed=seed, mode=mode
        )
        for mode in ("simulate", "direct")
    }
    simulate, direct = runs["simulate"], runs["direct"]
    assert not direct.trials[0].succeeded
    assert [t.signature for t in direct.trials] == [
        t.signature for t in simulate.trials
    ]
    assert direct.result.good_history == simulate.result.good_history
    assert _slots(direct.result.shortcut) == _slots(simulate.result.shortcut)
    assert _exact_records(direct.ledger) == _exact_records(simulate.ledger)


def _oracle(topology, tree, partition, c, b, *, use_fast, seed, max_iterations):
    """FindShortcut in direct mode with every iteration computed.

    Returns ``(remaining, frozen shortcut, good_history, ledger)``.
    """
    ledger = RoundLedger(barrier_depth=tree.height)
    shared_seed = None
    if use_fast:
        ledger.charge_phase(
            "share-randomness", *share_randomness_cost(topology.n, tree.height)
        )
        shared_seed = draw_shared_seed(topology.n, seed)
    remaining = set(range(partition.size))
    frozen = TreeRestrictedShortcut.empty(tree, partition)
    history = []
    while remaining and len(history) < max_iterations:
        iteration = len(history) + 1
        if use_fast:
            outcome = core_fast(
                topology, tree, partition, c, mix(shared_seed, iteration),
                participating=remaining, ledger=ledger, mode="direct",
            )
        else:
            outcome = core_slow(
                topology, tree, partition, c,
                participating=remaining, ledger=ledger, mode="direct",
            )
        good = verification(
            topology, outcome.shortcut, 3 * b, consider=remaining,
            ledger=ledger, mode="direct",
        ).good_parts
        history.append(good)
        ledger.charge_phase("termination-check", 2 * tree.height + 1)
        frozen = frozen.merged_with(outcome.shortcut.restricted_to(good))
        remaining -= good
    return remaining, frozen, tuple(history), ledger


def _assert_matches_oracle(topology, tree, partition, c, b, use_fast, seed, budget):
    remaining, frozen, history, ledger = _oracle(
        topology, tree, partition, c, b,
        use_fast=use_fast, seed=seed, max_iterations=budget,
    )
    subject = RoundLedger(barrier_depth=tree.height)
    try:
        result = find_shortcut(
            topology, tree, partition, c, b, use_fast=use_fast, seed=seed,
            max_iterations=budget, ledger=subject, mode="direct",
        )
    except ConstructionFailedError as error:
        assert remaining
        assert error.iterations == len(history)
        assert error.state.remaining == frozenset(remaining)
        assert error.state.good_history == history
        shortcut = error.state.shortcut
    else:
        assert not remaining
        assert result.iterations == len(history)
        assert result.good_history == history
        shortcut = result.shortcut
    assert _slots(shortcut) == _slots(frozen)
    assert subject.records == ledger.records
    return history


@CORES
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_direct_matches_full_ledger_oracle(name, use_fast):
    (topology, tree, partition), seed = INSTANCES[name]
    stalled = 0
    # The default budget (a long stall replayed to its end), a short
    # one, and a guess that succeeds.
    default = default_iteration_limit(partition.size)
    for c, b, budget in ((1, 1, default), (1, 1, 3), (2, 2, default)):
        history = _assert_matches_oracle(
            topology, tree, partition, c, b, use_fast, seed, budget
        )
        stalled += _stalls(history)
    assert stalled >= 2


@pytest.mark.skipif(
    not numpy_available(),
    reason="the vector ladder needs the fast-math extra (numpy)",
)
def test_vector_ladder_matches_per_instance_on_mixed_batch():
    batch = [instance for instance, _seed in INSTANCES.values()]
    seeds = [seed for _instance, seed in INSTANCES.values()]
    # Interleave instances whose first trial does not stall.
    hub = generators.cycle_with_hub(48, 8)
    grid = generators.grid(6, 6)
    hub_parts = partitions.cycle_arcs(48, 8, extra_nodes=1)
    grid_parts = partitions.voronoi(grid, 6, seed=3)
    batch.insert(1, (hub, SpanningTree.bfs(hub, 0), hub_parts))
    batch.insert(4, (grid, SpanningTree.bfs(grid, 0), grid_parts))
    seeds[1:1] = [11]
    seeds[4:4] = [12]
    topologies, trees, parts = (list(column) for column in zip(*batch))
    first_trials = []
    for t, tr, p, s in zip(topologies, trees, parts, seeds):
        try:
            result = find_shortcut(
                t, tr, p, 1, 1, seed=s, max_iterations=5, mode="direct"
            )
            first_trials.append(result.good_history)
        except ConstructionFailedError as error:
            first_trials.append(error.state.good_history)
    assert [_stalls(h) >= 2 for h in first_trials] == [
        True, False, True, True, False, True, True
    ]
    loop = [
        find_shortcut_doubling(t, tr, p, seed=s, mode="direct")
        for t, tr, p, s in zip(topologies, trees, parts, seeds)
    ]
    vector = find_shortcut_doubling_batch(
        topologies, trees, parts, seeds=seeds, batch="vector"
    )
    for reference, batched in zip(loop, vector):
        assert batched.trials == reference.trials
        assert batched.result.iterations == reference.result.iterations
        assert batched.result.good_history == reference.result.good_history
        assert _slots(batched.result.shortcut) == _slots(reference.result.shortcut)
        assert batched.ledger.records == reference.ledger.records


# ----------------------------------------------------------------------
# The guard: replay only while the draw repeats
# ----------------------------------------------------------------------


def test_replay_stops_where_the_draw_changes():
    (_topology, _tree, partition), _seed = INSTANCES["grid10-6p-s0"]
    remaining = {0, 1, 2}
    record = RoundLedger(barrier_depth=1)
    record.charge_phase("termination-check", 3)
    records = list(record.records)

    def draw(shared_seed, iteration):
        return active_parts(partition, mix(shared_seed, iteration), 0.5, remaining)

    # Shared seeds whose next draw repeats the stalled iteration's
    # exactly ``repeats`` times before it changes.
    for repeats in (0, 1, 2):
        shared_seed = next(
            s for s in range(10_000)
            if all(draw(s, 1 + k) == draw(s, 1) for k in range(repeats + 1))
            and draw(s, 2 + repeats) != draw(s, 1)
        )
        history = [frozenset()]
        ledger = RoundLedger(barrier_depth=1, records=list(records))
        consumed = _replay_stall(
            1, 10, partition, 0.5, shared_seed, remaining, history, ledger, 0
        )
        assert consumed == 1 + repeats
        assert history == [frozenset()] * (1 + repeats)
        assert ledger.records == records * (1 + repeats)


def test_replay_stops_at_the_budget():
    (_topology, _tree, partition), _seed = INSTANCES["grid10-6p-s0"]
    record = RoundLedger(barrier_depth=1)
    record.charge_phase("core-slow", 5, 7)
    record.charge("verification", 11, 13)
    records = list(record.records)
    for at, budget in ((1, 6), (3, 4), (4, 4)):
        history = [frozenset()] * at
        ledger = RoundLedger(barrier_depth=1, records=records * at)
        consumed = _replay_stall(
            at, budget, partition, None, None, {0, 1}, history, ledger,
            len(records) * (at - 1),
        )
        assert consumed == budget
        assert history == [frozenset()] * budget
        assert ledger.records == records * budget


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_changed_draw_runs_the_next_iteration(name, monkeypatch):
    # No stall found at p < 1, so patch the coin, for the oracle and the
    # subject alike: one remaining part sits out from the second
    # iteration after the first stall on, so one repeat is replayed and
    # the draw after it differs.
    (topology, tree, partition), seed = INSTANCES[name]
    budget = default_iteration_limit(partition.size)
    _remaining, _frozen, plain, _ledger = _oracle(
        topology, tree, partition, 1, 1,
        use_fast=True, seed=seed, max_iterations=budget,
    )
    stall = plain.index(frozenset()) + 1  # the first iteration freezing nothing
    assert not plain[stall] and stall + 2 <= budget
    sitter = max(set(range(partition.size)).difference(*plain[:stall]))
    shared_seed = draw_shared_seed(topology.n, seed)
    late = {mix(shared_seed, j) for j in range(stall + 2, budget + 1)}
    # (``repro.core`` re-exports the function ``core_fast`` under the
    # module's name, hence import_module.)
    module = importlib.import_module("repro.core.core_fast")
    real_coin = module.coin

    def coin(iteration_seed, part, salt):
        if iteration_seed in late and part == sitter:
            return 1.0
        return real_coin(iteration_seed, part, salt)

    monkeypatch.setattr(module, "coin", coin)
    history = _assert_matches_oracle(
        topology, tree, partition, 1, 1, True, seed, budget
    )
    assert history[: stall + 1] == plain[: stall + 1]
    assert len(history) >= stall + 2
