"""Batched failure-scenario sweeps.

A degradation or repair sweep runs the *same* pipeline once per
scenario: derive the survivor, re-run the doubling construction, and
measure.  Per-scenario, each of those steps is a fresh Python loop over
one small instance; batched, the whole scenario grid becomes one packed
:class:`~repro.graphs.batch_csr.BatchCSR` problem:

* :func:`~repro.failures.scenarios.survivors_batch` derives every
  survivor topology with one ``searchsorted`` per scenario against the
  sorted canonical edge-key array;
* the connected survivors ride
  :func:`~repro.core.batch.find_shortcut_doubling_batch` — the whole
  ``(c, b)`` ladder climbs in lockstep rungs with active-set
  compaction — and their quality reports come from one
  :func:`~repro.core.batch.measure_batch` pass;
* repair vs rebuild packs *both* searches of every scenario into one
  batch: repairs enter warm-started at the old ``(c, b)`` with their
  frozen-part states, rebuilds enter cold at ``(1, 1)``, and the ladder
  compacts across all of them together.

Everything is ==-bit-identical to the per-scenario loop (records,
trials, ledgers, survivor topologies); ``batch="loop"`` *is* the
per-scenario loop.  The vector ladder is the batch twin of
``mode="direct"`` — exactly the semantics the large-scale E19 sweep
runs — so with ``batch="vector"`` the construction always runs direct
while ``mode`` still selects the execution of the MST/connectivity
application measurements; pass ``mode="direct"`` to the loop for
bit-identity.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.congest.topology import Topology
from repro.failures.degradation import (
    Baseline,
    DegradationRecord,
    degradation_record,
    measure_degradation,
)
from repro.failures.repair import (
    OldResult,
    RepairComparison,
    assert_valid,
    finish_search,
    prepare_rebuild,
    prepare_repair,
    repair_vs_rebuild,
    split_partition,
)
from repro.failures.scenarios import FailureScenario, survivors_batch
from repro.graphs.csr import bfs_spanning_tree
from repro.graphs.partitions import Partition


def scenarios_batch(
    topology: Topology,
    partition: Partition,
    scenarios: Sequence[FailureScenario],
    baseline: Baseline,
    *,
    root: int = 0,
    seed: int = 0,
    mode: Optional[str] = None,
    backends: Sequence[Optional[str]] = (None,),
    with_dilation: bool = True,
    batch: Optional[str] = None,
) -> Tuple[DegradationRecord, ...]:
    """Measure a whole scenario grid's degradation in one batch.

    The batch-axis entry point of
    :func:`~repro.failures.degradation.measure_degradation`:
    ``batch="loop"`` (the default) measures per scenario with the
    selected ``mode``; ``batch="vector"`` derives every survivor via
    :func:`~repro.failures.scenarios.survivors_batch`, runs the
    connected ones through the batched doubling ladder, and measures
    their shortcuts with one ``measure_batch`` pass (``mode`` then
    applies only to the MST/connectivity measurements).  Records match
    the loop with ``mode="direct"`` bit-for-bit; disconnected survivors
    are first-class in both paths (their records carry component
    counts, not quality deltas).
    """
    from repro.core.batch import resolve_batch

    if resolve_batch(batch) != "vector":
        return tuple(
            measure_degradation(
                topology,
                partition,
                scenario,
                baseline,
                root=root,
                seed=seed,
                mode=mode,
                backends=backends,
                with_dilation=with_dilation,
            )
            for scenario in scenarios
        )

    from repro.core.batch import find_shortcut_doubling_batch, measure_batch

    survivors = survivors_batch(topology, scenarios, batch="vector")
    components_of = [survivor.components() for survivor in survivors]
    connected = [
        index
        for index, components in enumerate(components_of)
        if len(components) == 1
    ]
    trees = []
    new_partitions = []
    for index in connected:
        trees.append(bfs_spanning_tree(survivors[index], root))
        new_partitions.append(split_partition(survivors[index], partition)[0])
    outcomes = find_shortcut_doubling_batch(
        [survivors[index] for index in connected],
        trees,
        new_partitions,
        seeds=seed,
        batch="vector",
    )
    reports = measure_batch(
        [outcome.result.shortcut for outcome in outcomes],
        [survivors[index] for index in connected],
        with_dilation=with_dilation,
        batch="vector",
    )
    outcome_of = dict(zip(connected, outcomes))
    report_of = dict(zip(connected, reports))
    return tuple(
        degradation_record(
            scenario,
            baseline,
            survivors[index],
            components_of[index],
            outcome_of.get(index),
            seed=seed,
            mode=mode,
            backends=backends,
            with_dilation=with_dilation,
            report=report_of.get(index),
        )
        for index, scenario in enumerate(scenarios)
    )


def repair_vs_rebuild_batch(
    topology: Topology,
    old: OldResult,
    failure_sets: Sequence[Iterable[Tuple[int, int]]],
    *,
    seed: int = 0,
    use_fast: bool = True,
    mode: Optional[str] = None,
    batch: Optional[str] = None,
) -> Tuple[RepairComparison, ...]:
    """Repair *and* rebuild every failure set through one batched ladder.

    The batch-axis entry point of
    :func:`~repro.failures.repair.repair_vs_rebuild`: ``batch="loop"``
    (the default) runs the comparison per failure set with the selected
    ``mode``; ``batch="vector"`` prepares all ``2k`` searches (repairs
    warm-started at the old ``(c, b)`` with frozen-part states,
    rebuilds cold at ``(1, 1)``) and climbs them together on the
    batched doubling ladder — repairs typically settle on the first
    rung and drop out while rebuilds keep climbing, which is exactly
    the compaction the ladder exploits.  Both outcomes of every pair
    are ==-verified in the survivor, as in the loop.
    """
    from repro.core.batch import find_shortcut_doubling_batch, resolve_batch

    if resolve_batch(batch) != "vector":
        return tuple(
            repair_vs_rebuild(
                topology,
                old,
                failed_edges,
                seed=seed,
                use_fast=use_fast,
                mode=mode,
            )
            for failed_edges in failure_sets
        )

    setups = [
        prepare_repair(topology, old, failed_edges)
        for failed_edges in failure_sets
    ] + [
        prepare_rebuild(topology, old, failed_edges)
        for failed_edges in failure_sets
    ]
    outcomes = find_shortcut_doubling_batch(
        [setup.survivor for setup in setups],
        [setup.tree for setup in setups],
        [setup.partition for setup in setups],
        c_starts=[setup.c_start for setup in setups],
        b_starts=[setup.b_start for setup in setups],
        use_fast=use_fast,
        seeds=seed,
        ledgers=[setup.ledger for setup in setups],
        initial_states=[setup.state for setup in setups],
        batch="vector",
    )
    count = len(failure_sets)
    comparisons: List[RepairComparison] = []
    for index in range(count):
        repaired = finish_search(setups[index], outcomes[index])
        rebuilt = finish_search(setups[count + index], outcomes[count + index])
        assert_valid(repaired.survivor, repaired)
        assert_valid(rebuilt.survivor, rebuilt)
        comparisons.append(RepairComparison(repair=repaired, rebuild=rebuilt))
    return tuple(comparisons)


__all__ = ["repair_vs_rebuild_batch", "scenarios_batch"]
