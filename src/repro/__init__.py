"""Reproduction of "Low-Congestion Shortcuts without Embedding".

Haeupler, Izumi, Zuzic — PODC 2016 (arXiv:1607.07553).

The library implements, from scratch:

* a faithful **CONGEST simulator** (:mod:`repro.congest`);
* graph/partition/tree **workload generators** (:mod:`repro.graphs`);
* the paper's contribution — **tree-restricted shortcuts**, their
  routing schemes, and the embedding-free distributed construction
  ``FindShortcut`` (:mod:`repro.core`);
* **applications and baselines** — shortcut-accelerated Borůvka MST,
  partwise aggregation, connectivity, min-cut approximation, plus the
  Ω̃(√n + D)-style baselines the paper compares against
  (:mod:`repro.apps`);
* an **analysis harness** regenerating every quantitative claim of the
  paper as a table (:mod:`repro.analysis`);
* a **fault-tolerant shortcut service** — crash-safe persistent result
  store, HTTP/JSON request broker, retrying client SDK, and a seeded
  chaos harness (:mod:`repro.service`).
"""

from repro._version import __version__
from repro.errors import (
    BandwidthExceededError,
    ConstructionFailedError,
    ReproError,
    RoundLimitExceededError,
    ShortcutError,
    SimulationError,
    TopologyError,
)
from repro.congest import (
    NodeAlgorithm,
    RoundLedger,
    RunResult,
    Simulator,
    Topology,
    build_bfs_tree,
    canonical_edge,
)
from repro.graphs.spanning_trees import SpanningTree

__all__ = [
    "__version__",
    "ReproError",
    "TopologyError",
    "SimulationError",
    "BandwidthExceededError",
    "RoundLimitExceededError",
    "ShortcutError",
    "ConstructionFailedError",
    "NodeAlgorithm",
    "RoundLedger",
    "RunResult",
    "Simulator",
    "Topology",
    "build_bfs_tree",
    "canonical_edge",
    "SpanningTree",
]
