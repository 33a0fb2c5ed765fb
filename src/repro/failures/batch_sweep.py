"""Batched failure-scenario sweeps.

A degradation sweep runs the *same* pipeline once per scenario: derive
the survivor, re-run the doubling construction, and measure.
Per-scenario, each of those steps is a fresh Python loop over one small
instance; batched, the whole scenario grid becomes one packed
:class:`~repro.graphs.batch_csr.BatchCSR` problem:

* :func:`~repro.failures.scenarios.survivors_batch` derives every
  survivor topology with one ``searchsorted`` per scenario against the
  sorted canonical edge-key array;
* the connected survivors ride
  :func:`~repro.core.batch.find_shortcut_doubling_batch` — the whole
  CoreFast ``(c, b)`` ladder climbs in lockstep rungs with active-set
  compaction — and their quality reports come from one
  :func:`~repro.core.batch.measure_batch` pass.

Everything is ==-bit-identical to the per-scenario loop (records,
trials, ledgers, survivor topologies); ``batch="loop"`` *is* the
per-scenario loop.  The vector ladder is the batch twin of
``mode="direct"`` — exactly the semantics the large-scale E19 sweep
runs — so with ``batch="vector"`` the construction always runs direct
while ``mode`` still selects the execution of the MST/connectivity
application measurements; pass ``mode="direct"`` to the loop for
bit-identity.  Repair vs rebuild runs per failure set
(:func:`~repro.failures.repair.repair_vs_rebuild`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.congest.topology import Topology
from repro.failures.degradation import (
    Baseline,
    DegradationRecord,
    degradation_record,
    measure_degradation,
)
from repro.failures.repair import split_partition
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


__all__ = ["scenarios_batch"]
