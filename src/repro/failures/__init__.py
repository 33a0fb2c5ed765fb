"""Edge-failure scenarios, degradation measurement, and incremental repair.

The failure layer stresses the static-graph shortcut framework under
edge failures (ROADMAP item 2):

* :mod:`repro.failures.scenarios` — k-wise enumeration, seeded
  Bernoulli sampling, and SRLG-style correlated groups keyed on
  generator structure;
* :mod:`repro.failures.degradation` — shortcut quality (both kernels)
  and MST/connectivity (any backend set) on survived instances, with
  deltas against the intact baseline;
* :mod:`repro.failures.repair` — incremental shortcut repair via the
  doubling warm start: frozen parts untouched by the failure are kept,
  only broken parts are reconstructed, and the result is differentially
  ==-verified against a full rebuild;
* :mod:`repro.failures.batch_sweep` — the ``batch=`` axis of the
  degradation sweep itself: a whole scenario grid's survivors packed
  into one batched doubling ladder, ==-bit-identical to the
  per-scenario loop.

The array-native survivor derivation itself lives on the topology:
:meth:`Topology.delete_edges <repro.congest.topology.Topology.delete_edges>`,
:meth:`Topology.components <repro.congest.topology.Topology.components>`,
and :func:`component_subtopologies
<repro.congest.topology.component_subtopologies>`.
"""

from repro.failures.batch_sweep import scenarios_batch
from repro.failures.degradation import (
    Baseline,
    DegradationRecord,
    degradation_record,
    intact_baseline,
    measure_degradation,
)
from repro.failures.repair import (
    RepairComparison,
    RepairResult,
    assert_valid,
    patch_spanning_tree,
    rebuild_shortcut,
    repair_shortcut,
    repair_vs_rebuild,
    split_partition,
)
from repro.failures.scenarios import (
    FailureScenario,
    enumerate_kwise,
    node_srlg_groups,
    sample_bernoulli,
    sample_srlg,
    srlg_groups,
    survivors_batch,
)

__all__ = [
    "Baseline",
    "DegradationRecord",
    "FailureScenario",
    "RepairComparison",
    "RepairResult",
    "assert_valid",
    "degradation_record",
    "enumerate_kwise",
    "intact_baseline",
    "measure_degradation",
    "node_srlg_groups",
    "patch_spanning_tree",
    "rebuild_shortcut",
    "repair_shortcut",
    "repair_vs_rebuild",
    "sample_bernoulli",
    "sample_srlg",
    "scenarios_batch",
    "split_partition",
    "srlg_groups",
    "survivors_batch",
]
