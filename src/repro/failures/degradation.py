"""Degradation measurement on survived instances.

Given an intact instance and a :class:`~repro.failures.scenarios.FailureScenario`,
this module answers "how much worse did things get?": it re-runs the
shortcut construction and the applications on the survivor and records
the deltas against the intact baseline.

* Shortcut quality is measured with :func:`~repro.core.quality.measure`
  and cross-checked against its oracle
  :func:`~repro.core.quality.measure_reference` — every degradation
  sweep doubles as a differential audit of the quality kernels on a
  mutated topology.
* MST and connectivity run through the components-aware application
  results, so a scenario that disconnects the survivor is a first-class
  data point (an MST *forest*, per-component labels), not an error:
  the record carries the explicit component count and skips only the
  shortcut-quality fields (no spanning tree exists to restrict to).
* ``backends`` selects which partwise application backends to exercise;
  when more than one is given, their MST weights and connectivity
  labellings are asserted identical as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.congest.topology import Topology
from repro.core import quality
from repro.core.doubling import find_shortcut_doubling
from repro.errors import ReproError
from repro.failures.repair import split_partition
from repro.failures.scenarios import FailureScenario
from repro.graphs.csr import bfs_spanning_tree
from repro.graphs.partitions import Partition


@dataclass(frozen=True)
class Baseline:
    """Intact-instance reference values for delta computation."""

    congestion: int
    block: int
    dilation: Optional[int]
    construction_rounds: int
    mst_weight: int
    mst_rounds: int


@dataclass(frozen=True)
class DegradationRecord:
    """One scenario's measurements against the intact baseline.

    Quality fields are ``None`` when the survivor is disconnected —
    there is no spanning tree to restrict a shortcut to; the explicit
    ``components`` count is the measurement instead.  The MST fields
    are always present: on a disconnected survivor they describe the
    MST *forest* (per-component MSTs) and ``mst_weight_delta`` is the
    forest weight minus the intact MST weight.
    """

    scenario: FailureScenario
    connected: bool
    components: int
    congestion_delta: Optional[int]
    block_delta: Optional[int]
    dilation_delta: Optional[int]
    construction_rounds_delta: Optional[int]
    mst_weight_delta: int
    mst_rounds_delta: int
    connectivity_components: int


def intact_baseline(
    topology: Topology,
    partition: Partition,
    *,
    root: int = 0,
    seed: int = 0,
    mode: Optional[str] = None,
    backend: Optional[str] = None,
) -> Baseline:
    """Measure the intact instance once, for all scenarios to delta
    against.  ``topology`` must be weighted (the MST baseline needs
    meaningful weights)."""
    from repro.apps.mst import minimum_spanning_tree

    tree = bfs_spanning_tree(topology, root)
    outcome = find_shortcut_doubling(
        topology, tree, partition, seed=seed, mode=mode
    )
    report = quality.measure(outcome.result.shortcut, topology)
    mst = minimum_spanning_tree(
        topology, seed=seed, construct_mode=mode, backend=backend
    )
    return Baseline(
        congestion=report.congestion,
        block=report.block_parameter,
        dilation=report.dilation,
        construction_rounds=outcome.rounds,
        mst_weight=mst.weight,
        mst_rounds=mst.rounds,
    )


def measure_degradation(
    topology: Topology,
    partition: Partition,
    scenario: FailureScenario,
    baseline: Baseline,
    *,
    root: int = 0,
    seed: int = 0,
    mode: Optional[str] = None,
    backends: Sequence[Optional[str]] = (None,),
    with_dilation: bool = True,
) -> DegradationRecord:
    """Run construction + applications on the survivor and record deltas.

    Raises ``AssertionError`` when the quality kernels and their oracle
    (or, with multiple ``backends``, the application backends) disagree
    on the survivor — the differential contract extended to mutated
    topologies.
    """
    survivor = topology.delete_edges(scenario.edges)
    components = survivor.components()
    outcome = None
    if len(components) == 1:
        tree = bfs_spanning_tree(survivor, root)
        new_partition, _origin = split_partition(survivor, partition)
        outcome = find_shortcut_doubling(
            survivor, tree, new_partition, seed=seed, mode=mode
        )
    return degradation_record(
        scenario,
        baseline,
        survivor,
        components,
        outcome,
        seed=seed,
        mode=mode,
        backends=backends,
        with_dilation=with_dilation,
    )


def degradation_record(
    scenario: FailureScenario,
    baseline: Baseline,
    survivor: Topology,
    components: Tuple[Tuple[int, ...], ...],
    outcome,
    *,
    seed: int = 0,
    mode: Optional[str] = None,
    backends: Sequence[Optional[str]] = (None,),
    with_dilation: bool = True,
    report=None,
) -> DegradationRecord:
    """Assemble a :class:`DegradationRecord` from a precomputed survivor.

    The shared back half of :func:`measure_degradation` and the batched
    sweep (:func:`repro.failures.batch_sweep.scenarios_batch`):
    ``outcome`` is the doubling search on the survivor (``None`` when
    disconnected) and ``report`` optionally supplies an already-measured
    :class:`~repro.core.quality.QualityReport` (e.g. from
    ``measure_batch``) instead of the measure-vs-oracle cross-check.
    """
    from repro.apps.connectivity import connected_components
    from repro.apps.mst import minimum_spanning_tree

    connected = len(components) == 1

    congestion_delta = block_delta = dilation_delta = rounds_delta = None
    if connected:
        if report is None:
            shortcut = outcome.result.shortcut
            report = quality.measure(shortcut, survivor, with_dilation=with_dilation)
            reference = quality.measure_reference(
                shortcut, survivor, with_dilation=with_dilation
            )
            assert report == reference, (
                f"quality kernels diverge on survivor of {scenario.label}: "
                f"{report} != {reference}"
            )
        congestion_delta = report.congestion - baseline.congestion
        block_delta = report.block_parameter - baseline.block
        if with_dilation and report.dilation is not None and baseline.dilation is not None:
            dilation_delta = report.dilation - baseline.dilation
        rounds_delta = outcome.rounds - baseline.construction_rounds

    if not backends:
        raise ReproError("measure_degradation needs at least one backend")
    msts = [
        minimum_spanning_tree(
            survivor, seed=seed, construct_mode=mode, backend=backend
        )
        for backend in backends
    ]
    conns = [
        connected_components(
            survivor,
            survivor.edges,
            seed=seed,
            construct_mode=mode,
            backend=backend,
        )
        for backend in backends
    ]
    for other in msts[1:]:
        assert (other.edges, other.weight) == (msts[0].edges, msts[0].weight), (
            f"MST backends diverge on survivor of {scenario.label}"
        )
    for other in conns[1:]:
        assert other.labels == conns[0].labels, (
            f"connectivity backends diverge on survivor of {scenario.label}"
        )
    mst = msts[0]
    conn = conns[0]
    assert conn.components == len(components), (
        f"connectivity reports {conn.components} components but the "
        f"survivor has {len(components)}"
    )
    return DegradationRecord(
        scenario=scenario,
        connected=connected,
        components=len(components),
        congestion_delta=congestion_delta,
        block_delta=block_delta,
        dilation_delta=dilation_delta,
        construction_rounds_delta=rounds_delta,
        mst_weight_delta=mst.weight - baseline.mst_weight,
        mst_rounds_delta=mst.rounds - baseline.mst_rounds,
        connectivity_components=conn.components,
    )
