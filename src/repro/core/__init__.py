"""The paper's contribution: tree-restricted shortcuts and their construction.

Layout mirrors the paper:

* :mod:`repro.core.shortcut`, :mod:`repro.core.quality` — Definitions
  1-3 and Lemma 1;
* :mod:`repro.core.tree_routing` — Lemma 2 (pipelined subtree routing);
* :mod:`repro.core.partwise`, :mod:`repro.core.verification` —
  Theorem 2 and Lemmas 3/6 (part-parallel primitives);
* :mod:`repro.core.existence` — Theorem 1 (genus bound) and certified
  existential inputs;
* :mod:`repro.core.core_slow`, :mod:`repro.core.core_fast` —
  Algorithms 1 and 2 (Lemmas 7 and 5);
* :mod:`repro.core.find_shortcut` — Theorem 3;
* :mod:`repro.core.doubling` — Appendix A;
* :mod:`repro.core.construct_fast` — the simulation-free direct
  kernels for the whole construction stack (``mode="direct"``);
* :mod:`repro.core.partwise_fast` — the simulation-free backend for
  the Theorem 2 partwise engine (``backend="direct"``).
"""

from repro.core.shortcut import GeneralShortcut, TreeRestrictedShortcut
from repro.core.quality import (
    BlockComponent,
    QualityReport,
    block_components,
    block_counts,
    block_parameter,
    congestion,
    dilation,
    lemma1_bound,
    measure,
    shortcut_congestion,
)
from repro.core import quality_fast
from repro.core.existence import (
    CertifiedPoint,
    best_certified,
    certify_frontier,
    empty_shortcut,
    full_ancestor_shortcut,
    genus_bound,
    greedy_capped_shortcut,
)
from repro.core.tree_routing import (
    SubtreeTask,
    broadcast,
    convergecast,
    make_task,
    task_edge_congestion,
)
from repro.core.partwise import PartwiseEngine
from repro.core.partwise_fast import (
    BACKENDS,
    backend_parameter,
    get_default_backend,
    using_backend,
)
from repro.core.core_slow import CoreOutcome, core_slow, core_slow_reference
from repro.core.core_fast import (
    active_parts,
    core_fast,
    core_fast_reference,
    sampling_parameters,
)
from repro.core.verification import VerificationOutcome, verification
from repro.core.batch import (
    BATCHES,
    get_default_batch,
    measure_batch,
    using_batch,
)
from repro.core.construct_fast import (
    MODES,
    construct_mode_parameter,
    get_default_mode,
    using_mode,
)
from repro.core.find_shortcut import (
    ConstructionState,
    FindShortcutResult,
    default_iteration_limit,
    find_shortcut,
)
from repro.core.doubling import DoublingResult, Trial, find_shortcut_doubling

__all__ = [
    "GeneralShortcut",
    "TreeRestrictedShortcut",
    "BlockComponent",
    "QualityReport",
    "quality_fast",
    "block_components",
    "block_counts",
    "block_parameter",
    "congestion",
    "dilation",
    "lemma1_bound",
    "measure",
    "shortcut_congestion",
    "CertifiedPoint",
    "best_certified",
    "certify_frontier",
    "empty_shortcut",
    "full_ancestor_shortcut",
    "genus_bound",
    "greedy_capped_shortcut",
    "SubtreeTask",
    "broadcast",
    "convergecast",
    "make_task",
    "task_edge_congestion",
    "PartwiseEngine",
    "BACKENDS",
    "backend_parameter",
    "get_default_backend",
    "using_backend",
    "CoreOutcome",
    "core_slow",
    "core_slow_reference",
    "active_parts",
    "core_fast",
    "core_fast_reference",
    "sampling_parameters",
    "VerificationOutcome",
    "verification",
    "BATCHES",
    "get_default_batch",
    "measure_batch",
    "using_batch",
    "MODES",
    "construct_mode_parameter",
    "get_default_mode",
    "using_mode",
    "ConstructionState",
    "FindShortcutResult",
    "default_iteration_limit",
    "find_shortcut",
    "DoublingResult",
    "Trial",
    "find_shortcut_doubling",
]
