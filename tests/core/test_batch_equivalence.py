"""Differential suite: ``batch="vector"`` vs the per-instance loop.

Both batch entry points — the quality measurement and the doubling
ladder — must reproduce the per-instance fast kernels **bit-for-bit**
over the same instances, the same licensing discipline as the engine,
kernel, mode, and backend fast paths.  Runs across grid / torus / hub /
genus_chain families, mixed partition families, ragged batches with
different ``n`` per instance, and a batch of one.
"""

import math

import pytest

from repro.analysis.instances import InstanceSpec, hydrate
from repro.congest.randomness import draw_shared_seed, mix
from repro.congest.topology import Topology
from repro.congest.trace import RoundLedger
from repro.core import quality_fast
from repro.core.batch import (
    find_shortcut_doubling_batch,
    measure_batch,
    measure_batch_vector,
    using_batch,
)
from repro.core.construct_fast import (
    share_randomness_cost,
    verification_counts_direct,
)
from repro.core.doubling import DoublingResult, Trial, find_shortcut_doubling
from repro.core.existence import greedy_capped_shortcut
from repro.core.find_shortcut import ConstructionState, find_shortcut
from repro.core.shortcut import TreeRestrictedShortcut
from repro.errors import ConstructionFailedError, ShortcutError
from repro.graphs.batch_csr import BatchCSR, numpy_available
from repro.graphs.csr import bfs_spanning_tree
from repro.graphs.partitions import Partition

pytestmark = pytest.mark.skipif(
    not numpy_available(),
    reason="batch kernels need the fast-math extra (numpy)",
)

# Ragged on purpose: mixed families, mixed n, mixed partition families.
RAGGED_SPECS = [
    InstanceSpec("grid", (9, 9), partition=("voronoi", 9, 1)),
    InstanceSpec("grid", (7, 7), partition=("rows", 7, 7)),
    InstanceSpec("torus", (8, 8), partition=("voronoi", 8, 2)),
    InstanceSpec("hub", (96, 8), partition=("arcs", 96, 8, 1)),
    InstanceSpec("genus_chain", (2, 5, 5), partition=("voronoi", 6, 5)),
]


@pytest.fixture(scope="module")
def ragged():
    instances = [hydrate(spec) for spec in RAGGED_SPECS]
    topologies = [instance.topology for instance in instances]
    trees = [instance.tree for instance in instances]
    partitions = [instance.partition for instance in instances]
    shortcuts = [
        greedy_capped_shortcut(tree, partition, 2)[0]
        for tree, partition in zip(trees, partitions)
    ]
    return topologies, trees, partitions, shortcuts


def test_measure_identical_over_ragged_batch(ragged):
    topologies, _trees, _partitions, shortcuts = ragged
    loop = [
        quality_fast.measure(shortcut, topology)
        for shortcut, topology in zip(shortcuts, topologies)
    ]
    vector = measure_batch_vector(shortcuts, topologies)
    assert vector == loop
    # Plain Python ints, never numpy scalars.
    for report in vector:
        assert type(report.congestion) is int
        assert type(report.shortcut_congestion) is int
        assert type(report.block_parameter) is int
        assert type(report.dilation) is int
        assert all(type(count) is int for count in report.block_counts)


def test_measure_without_dilation_identical(ragged):
    topologies, _trees, _partitions, shortcuts = ragged
    loop = [
        quality_fast.measure(shortcut, topology, with_dilation=False)
        for shortcut, topology in zip(shortcuts, topologies)
    ]
    assert measure_batch_vector(
        shortcuts, topologies, with_dilation=False
    ) == loop


def test_measure_batch_axis_dispatch(ragged):
    topologies, _trees, _partitions, shortcuts = ragged
    loop = measure_batch(shortcuts, topologies)
    explicit = measure_batch(shortcuts, topologies, batch="vector")
    assert explicit == loop
    with using_batch("vector"):
        assert measure_batch(shortcuts, topologies) == loop


def test_batch_of_one(ragged):
    topologies, _trees, _partitions, shortcuts = ragged
    assert measure_batch_vector(shortcuts[:1], topologies[:1]) == [
        quality_fast.measure(shortcuts[0], topologies[0])
    ]


def test_disconnected_dilation_raises_identically():
    # A part holding two opposite grid corners with no shortcut edges:
    # G[P_0] + H_0 is disconnected, so dilation must raise — the same
    # ShortcutError text as the per-instance kernel, at the same part.
    instance = hydrate(InstanceSpec("grid", (6, 6), partition=("rows", 6, 6)))
    topology = instance.topology
    partition = Partition(topology.n, [{0, topology.n - 1}])
    shortcut = TreeRestrictedShortcut.empty(instance.tree, partition)
    with pytest.raises(ShortcutError) as loop_error:
        quality_fast.measure(shortcut, topology)
    with pytest.raises(ShortcutError) as batch_error:
        measure_batch_vector([shortcut], [topology])
    assert str(batch_error.value) == str(loop_error.value)


# ----------------------------------------------------------------------
# Pack edge cases
# ----------------------------------------------------------------------


def _single_node_instance():
    topology = Topology(1, [])
    tree = bfs_spanning_tree(topology, 0)
    partition = Partition(1, [{0}])
    return topology, tree, partition


def test_pack_single_node_zero_edge_instance():
    topology, tree, partition = _single_node_instance()
    batch = BatchCSR([topology], [tree], [partition])
    assert batch.size == 1
    assert batch.n_total == 1
    assert batch.m_total == 0
    assert batch.p_total == 1
    assert batch.max_depth == 0


def test_pack_empty_batch():
    batch = BatchCSR([], [], [])
    assert batch.size == 0
    assert batch.n_total == 0
    assert batch.m_total == 0
    assert batch.p_total == 0
    assert find_shortcut_doubling_batch([], [], [], seeds=[], batch="vector") == []
    assert measure_batch([], [], batch="vector") == []


def test_single_node_instance_rides_the_ladder(ragged):
    # A zero-edge single-node instance packed next to real ones: the
    # ladder must treat it as trivially done without perturbing its
    # neighbours in the batch.
    topologies, trees, partitions, _shortcuts = ragged
    topology, tree, partition = _single_node_instance()
    mixed_topologies = [topologies[0], topology, topologies[1]]
    mixed_trees = [trees[0], tree, trees[1]]
    mixed_partitions = [partitions[0], partition, partitions[1]]
    seeds = [3, 5, 7]
    loop = [
        find_shortcut_doubling(t, tr, p, seed=s, mode="direct")
        for t, tr, p, s in zip(
            mixed_topologies, mixed_trees, mixed_partitions, seeds
        )
    ]
    vector = find_shortcut_doubling_batch(
        mixed_topologies, mixed_trees, mixed_partitions,
        seeds=seeds, batch="vector",
    )
    for reference, batched in zip(loop, vector):
        _assert_doubling_equal(reference, batched)


# ----------------------------------------------------------------------
# The doubling-construction ladder
# ----------------------------------------------------------------------


def _assert_doubling_equal(reference, batched):
    """Bit-for-bit equality of two doubling outcomes, including the
    per-rung rounds/messages timing breakdown carried on the trials."""
    assert batched.trials == reference.trials
    assert batched.c == reference.c
    assert batched.b == reference.b
    assert batched.result.iterations == reference.result.iterations
    assert batched.result.good_history == reference.result.good_history
    assert (
        batched.result.shortcut.subgraphs
        == reference.result.shortcut.subgraphs
    )
    assert batched.ledger == reference.ledger


@pytest.fixture(scope="module")
def ragged_seeds():
    return [7 * index + 3 for index in range(len(RAGGED_SPECS))]


def test_ladder_identical_over_ragged_batch(ragged, ragged_seeds):
    topologies, trees, partitions, _shortcuts = ragged
    loop = [
        find_shortcut_doubling(t, tr, p, seed=s, mode="direct")
        for t, tr, p, s in zip(topologies, trees, partitions, ragged_seeds)
    ]
    vector = find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=ragged_seeds, batch="vector"
    )
    for reference, batched in zip(loop, vector):
        _assert_doubling_equal(reference, batched)


def _appendix_a_by_hand(topology, tree, partition, seed):
    """The Appendix A search written out from its definition: one
    share-randomness charge, trials of ``max(3, ceil(log2(N + 1)) + 2)``
    iterations, and each failed trial's frozen parts carried into the
    next trial at doubled estimates."""
    ledger = RoundLedger(barrier_depth=tree.height)
    ledger.charge_phase(
        "share-randomness", *share_randomness_cost(topology.n, tree.height)
    )
    shared_seed = draw_shared_seed(topology.n, seed)
    budget = max(3, math.ceil(math.log2(partition.size + 1)) + 2)
    c = b = 1
    state = None
    trials = []
    for trial_index in range(64):
        rounds, messages = ledger.total_rounds, ledger.total_messages
        try:
            outcome = find_shortcut(
                topology, tree, partition, c, b,
                seed=mix(seed, 1000 + trial_index), shared_seed=shared_seed,
                max_iterations=budget, ledger=ledger, mode="direct",
                warm_start=state,
            )
        except ConstructionFailedError as error:
            outcome, state = error, error.state
        succeeded = not isinstance(outcome, ConstructionFailedError)
        trials.append(
            Trial(
                c=c, b=b, succeeded=succeeded,
                iterations=outcome.iterations,
                rounds=ledger.total_rounds - rounds,
                messages=ledger.total_messages - messages,
            )
        )
        if succeeded:
            return DoublingResult(
                result=outcome, trials=tuple(trials), ledger=ledger
            )
        c, b = 2 * c, 2 * b
    raise AssertionError("no trial succeeded")


def test_ladder_follows_appendix_a(ragged, ragged_seeds):
    # The vector ladder against the search written out by hand, not
    # against the per-instance driver it shares.
    topologies, trees, partitions, _shortcuts = ragged
    vector = find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=ragged_seeds, batch="vector"
    )
    carried = 0
    for t, tr, p, s, batched in zip(
        topologies, trees, partitions, ragged_seeds, vector
    ):
        _assert_doubling_equal(_appendix_a_by_hand(t, tr, p, s), batched)
        constructed = set().union(*batched.result.good_history)
        carried += constructed < set(range(p.size))
    # Some instance finished on parts frozen by an earlier failed trial.
    assert carried


def test_fixed_cb_batch_identical(ragged, ragged_seeds):
    # Rungs that start at a given (c, b) rather than at (1, 1).
    topologies, trees, partitions, _shortcuts = ragged
    loop = [
        find_shortcut_doubling(
            t, tr, p, seed=s, c_start=3, b_start=3, mode="direct"
        )
        for t, tr, p, s in zip(topologies, trees, partitions, ragged_seeds)
    ]
    vector = find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=ragged_seeds,
        c_starts=3, b_starts=3, batch="vector",
    )
    for reference, batched in zip(loop, vector):
        _assert_doubling_equal(reference, batched)


def test_ladder_per_instance_c_starts_identical(ragged, ragged_seeds):
    # A different starting congestion estimate per instance.
    topologies, trees, partitions, _shortcuts = ragged
    c_starts = [2, 1, 3, 2, 1]
    loop = [
        find_shortcut_doubling(t, tr, p, seed=s, c_start=c, mode="direct")
        for t, tr, p, s, c in zip(
            topologies, trees, partitions, ragged_seeds, c_starts
        )
    ]
    vector = find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=ragged_seeds, c_starts=c_starts,
        batch="vector",
    )
    for reference, batched in zip(loop, vector):
        _assert_doubling_equal(reference, batched)


def _states_for(trees, partitions, subsets):
    """Warm starts whose remaining parts are ``subsets`` (``None``: all);
    every other part is frozen with an empty subgraph."""
    return [
        ConstructionState(
            remaining=frozenset(
                range(partition.size) if subset is None else subset
            ),
            shortcut=TreeRestrictedShortcut.empty(tree, partition),
            good_history=(),
        )
        for tree, partition, subset in zip(trees, partitions, subsets)
    ]


def test_ladder_warm_start_identical(ragged, ragged_seeds):
    # Warm starts harvested from deliberately-starved (1, 1) searches:
    # the batch must resume each instance exactly where the loop does.
    topologies, trees, partitions, _shortcuts = ragged
    states = []
    for t, tr, p, s in zip(topologies, trees, partitions, ragged_seeds):
        try:
            find_shortcut(
                t, tr, p, 1, 1, seed=s, max_iterations=1, mode="direct"
            )
            states.append(None)
        except ConstructionFailedError as error:
            states.append(error.state)
    assert any(state is not None for state in states)
    loop = [
        find_shortcut_doubling(
            t, tr, p, seed=s, c_start=2, b_start=2, initial_state=state,
            mode="direct",
        )
        for t, tr, p, s, state in zip(
            topologies, trees, partitions, ragged_seeds, states
        )
    ]
    vector = find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=ragged_seeds,
        c_starts=2, b_starts=2, initial_states=states, batch="vector",
    )
    for reference, batched in zip(loop, vector):
        _assert_doubling_equal(reference, batched)


def test_ladder_error_path_identical(ragged, ragged_seeds):
    # A hopeless budget: one trial at c = b = 1.  The ladder must raise
    # the loop's exception, type and text.
    topologies, trees, partitions, _shortcuts = ragged
    with pytest.raises(ConstructionFailedError) as loop_error:
        find_shortcut_doubling_batch(
            topologies, trees, partitions, seeds=ragged_seeds,
            max_trials=1, mode="direct",
        )
    with pytest.raises(ConstructionFailedError) as vector_error:
        find_shortcut_doubling_batch(
            topologies, trees, partitions, seeds=ragged_seeds,
            max_trials=1, batch="vector",
        )
    assert type(vector_error.value) is type(loop_error.value)
    assert str(vector_error.value) == str(loop_error.value)


def test_ladder_batch_axis_dispatch(ragged, ragged_seeds):
    # batch= and the thread's using_batch() block both select the
    # ladder; the default is the per-instance loop.
    topologies, trees, partitions, _shortcuts = ragged
    loop = [
        find_shortcut_doubling(t, tr, p, seed=s, mode="direct")
        for t, tr, p, s in zip(topologies, trees, partitions, ragged_seeds)
    ]
    default = find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=ragged_seeds, mode="direct"
    )
    with using_batch("vector"):
        scoped = find_shortcut_doubling_batch(
            topologies, trees, partitions, seeds=ragged_seeds
        )
    for reference, via_default, via_scope in zip(loop, default, scoped):
        _assert_doubling_equal(reference, via_default)
        _assert_doubling_equal(reference, via_scope)


def test_grid_seed_sweep_identical():
    # A same-family grid sweep: every instance shares one topology
    # object and differs only in its partition.
    specs = [
        InstanceSpec("grid", (6, 6), partition=("voronoi", 4, seed))
        for seed in range(8)
    ]
    instances = [hydrate(spec) for spec in specs]
    topologies = [instance.topology for instance in instances]
    trees = [instance.tree for instance in instances]
    partitions = [instance.partition for instance in instances]
    seeds = list(range(8))
    loop = [
        find_shortcut_doubling(t, tr, p, seed=s, c_start=3, b_start=3, mode="direct")
        for t, tr, p, s in zip(topologies, trees, partitions, seeds)
    ]
    vector = find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=seeds, c_starts=3, b_starts=3,
        batch="vector",
    )
    for reference, batched in zip(loop, vector):
        _assert_doubling_equal(reference, batched)


# ----------------------------------------------------------------------
# The ladder's verification, read off the node forest
# ----------------------------------------------------------------------


class _ForestProbe:
    """Checks every wave iteration's forest-derived count maps against
    the per-instance count maps of that iteration's own edge slots.

    The sweep spy records the nodes whose parent edge the sweep made
    unusable, and the flood spy checks that the flood forwards over
    every other parent edge and records the tentative shortcut's slots
    (the flood bits of usable nodes); the forest spy then requires
    ``verification_counts_direct`` on a shortcut built from those slots
    to agree map for map.
    """

    def __init__(self, monkeypatch):
        import numpy as np

        from repro.core import batch as batch_module

        self.iterations = 0
        self.non_remaining = 0
        self.merges = 0
        self.slots = None
        self.unusable = None
        sweep = batch_module._upward_sweep_batch
        flood = batch_module._flood_up_batch
        forest = batch_module._forest_counts
        merge = batch_module.merge_components

        def spy_sweep(np_, batch, own, caps):
            unusable, rounds, messages = sweep(np_, batch, own, caps)
            self.unusable = unusable
            return unusable, rounds, messages

        def spy_flood(np_, batch, own, usable):
            expected = batch.tree_parent >= 0
            expected[self.unusable] = False
            assert (usable == expected).all()
            seen, rounds, messages = flood(np_, batch, own, usable)
            rows = np.flatnonzero(usable & seen.any(axis=1))
            bits = np.unpackbits(
                seen[rows].view(np.uint8), axis=1, bitorder="little"
            )
            node_index, local_id = np.nonzero(bits)
            nodes = rows[node_index]
            ids = local_id.astype(np.int64) + batch.part_offsets[
                batch.instance_of_node[nodes]
            ]
            self.slots = (nodes, ids)
            return seen, rounds, messages

        def spy_forest(np_, batch, usable, remaining, b_limits):
            counts = forest(np_, batch, usable, remaining, b_limits)
            nodes, ids = self.slots
            assert counts == [
                verification_counts_direct(
                    batch.topologies[b],
                    _shortcut_from_slots(batch, b, nodes, ids),
                    b_limits[b],
                )
                for b in range(batch.size)
            ]
            self.iterations += 1
            self.non_remaining += int((~remaining[: batch.p_total]).sum())
            return counts

        def spy_merge(np_, component, edge_a, edge_b):
            out = merge(np_, component, edge_a, edge_b)
            self.merges += out is not component
            return out

        monkeypatch.setattr(batch_module, "_upward_sweep_batch", spy_sweep)
        monkeypatch.setattr(batch_module, "_flood_up_batch", spy_flood)
        monkeypatch.setattr(batch_module, "_forest_counts", spy_forest)
        monkeypatch.setattr(batch_module, "merge_components", spy_merge)


def _shortcut_from_slots(batch, b, nodes, ids):
    """Instance ``b``'s tentative shortcut from global edge slots."""
    n0, n1 = int(batch.node_offsets[b]), int(batch.node_offsets[b + 1])
    p0 = int(batch.part_offsets[b])
    subgraphs = [set() for _ in range(batch.partitions[b].size)]
    for v, part in zip(nodes.tolist(), ids.tolist()):
        if n0 <= v < n1:
            u = int(batch.tree_parent[v])
            subgraphs[part - p0].add((min(v, u) - n0, max(v, u) - n0))
    return TreeRestrictedShortcut(
        batch.trees[b], batch.partitions[b], subgraphs
    )


@pytest.fixture
def forest_probe(monkeypatch):
    return _ForestProbe(monkeypatch)


def _hand_built_instance():
    # A 12x12 grid with a hand-made partition: part 0 is the four
    # corners and part 1 two runs of column 5, both disconnected in
    # G[P_i], so only co-block links can join their pieces; the other
    # parts are row runs of five, and columns 5 and 11 are otherwise
    # uncovered (label -1).
    instance = hydrate(
        InstanceSpec("grid", (12, 12), partition=("rows", 12, 12))
    )
    corners = {0, 11, 132, 143}
    parts = [corners, {12 * r + 5 for r in (*range(5), *range(7, 12))}]
    for r in range(12):
        for columns in (range(0, 5), range(6, 11)):
            parts.append({12 * r + c for c in columns} - corners)
    return instance.topology, instance.tree, Partition(144, parts)


def test_forest_counts_match_clone_table_ragged(
    ragged, ragged_seeds, forest_probe
):
    topologies, trees, partitions, _shortcuts = ragged
    find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=ragged_seeds, batch="vector",
    )
    assert forest_probe.iterations > 0
    assert forest_probe.non_remaining > 0


def test_forest_counts_match_clone_table_hand_built(forest_probe):
    topology, tree, partition = _hand_built_instance()
    single = _single_node_instance()
    topologies = [topology, single[0], topology]
    trees = [tree, single[1], tree]
    partitions = [partition, single[2], partition]
    seeds = [1, 2, 9]
    vector = find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=seeds, batch="vector",
    )
    assert forest_probe.iterations > 0
    assert forest_probe.non_remaining > 0
    # The disconnected parts were joined through co-block links.
    assert forest_probe.merges > 0
    for t, tr, p, s, batched in zip(
        topologies, trees, partitions, seeds, vector
    ):
        reference = find_shortcut_doubling(t, tr, p, seed=s, mode="direct")
        _assert_doubling_equal(reference, batched)


def test_forest_counts_match_clone_table_warm_start(
    ragged, ragged_seeds, forest_probe
):
    topologies, trees, partitions, _shortcuts = ragged
    states = []
    for t, tr, p, s in zip(topologies, trees, partitions, ragged_seeds):
        try:
            find_shortcut(
                t, tr, p, 1, 1, seed=s, max_iterations=1, mode="direct"
            )
            states.append(None)
        except ConstructionFailedError as error:
            states.append(error.state)
    assert any(state is not None for state in states)
    find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=ragged_seeds,
        c_starts=2, b_starts=2, initial_states=states, batch="vector",
    )
    assert forest_probe.iterations > 0
    assert forest_probe.non_remaining > 0


@pytest.mark.parametrize(
    "b_limits", [[2] * 5, [1, 2, 3, 4, 5], [4, 1, 2, 1, 3]]
)
def test_verification_counts_identical(
    ragged, ragged_seeds, forest_probe, b_limits
):
    # Per-instance b estimates: every iteration's count maps equal the
    # per-instance verification counts (the probe), and so do the runs.
    topologies, trees, partitions, _shortcuts = ragged
    vector = find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=ragged_seeds,
        b_starts=b_limits, batch="vector",
    )
    assert forest_probe.iterations > 0
    for t, tr, p, s, b, batched in zip(
        topologies, trees, partitions, ragged_seeds, b_limits, vector
    ):
        reference = find_shortcut_doubling(
            t, tr, p, seed=s, b_start=b, mode="direct"
        )
        _assert_doubling_equal(reference, batched)


def test_verification_outcomes_identical(ragged, ragged_seeds, forest_probe):
    # Verification only considers the parts still remaining: warm starts
    # that leave a subset of each instance's parts to construct.
    topologies, trees, partitions, _shortcuts = ragged
    states = _states_for(
        trees, partitions, [None, {0, 2}, {1}, None, {0, 1, 2}]
    )
    b_limits = [2, 1, 3, 2, 2]
    vector = find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=ragged_seeds,
        b_starts=b_limits, initial_states=states, batch="vector",
    )
    assert forest_probe.non_remaining > 0
    for t, tr, p, s, b, state, batched in zip(
        topologies, trees, partitions, ragged_seeds, b_limits, states, vector
    ):
        reference = find_shortcut_doubling(
            t, tr, p, seed=s, b_start=b, initial_state=state, mode="direct"
        )
        _assert_doubling_equal(reference, batched)
