"""CONGEST-model substrate: topology, simulator, and standard subroutines.

This package is the distributed-computing substrate the paper assumes:
a synchronous message-passing network where each node sends at most one
O(log n)-bit message per incident edge per round.  Algorithms are
written as :class:`~repro.congest.algorithm.NodeAlgorithm` subclasses
and executed by :class:`~repro.congest.simulator.Simulator`, whose
round counts are the quantity every experiment in this repository
measures.
"""

from repro.congest.topology import Edge, Topology, canonical_edge
from repro.congest.message import bandwidth_limit, check_message, message_bits
from repro.congest.node import NodeHandle
from repro.congest.algorithm import NodeAlgorithm
from repro.congest.engine import (
    ENGINES,
    BatchedEngine,
    EngineBase,
    ReferenceEngine,
    engine_parameter,
    get_default_engine,
    resolve_engine,
    using_engine,
)
from repro.congest.simulator import RunResult, Simulator, run_algorithm
from repro.congest.faults import (
    FaultPlan,
    FaultStats,
    FaultyEngine,
    faults_parameter,
    get_default_faults,
    using_faults,
)
from repro.congest.reliable import ReliableRunResult, run_reliably
from repro.congest.trace import PhaseRecord, RoundLedger
from repro.congest.bfs import BFSTreeAlgorithm, build_bfs_tree
from repro.congest.randomness import (
    SeedBroadcastAlgorithm,
    coin,
    mix,
    part_coin,
    share_randomness,
)

__all__ = [
    "Edge",
    "Topology",
    "canonical_edge",
    "bandwidth_limit",
    "check_message",
    "message_bits",
    "NodeHandle",
    "NodeAlgorithm",
    "ENGINES",
    "EngineBase",
    "engine_parameter",
    "ReferenceEngine",
    "BatchedEngine",
    "get_default_engine",
    "using_engine",
    "resolve_engine",
    "RunResult",
    "Simulator",
    "run_algorithm",
    "FaultPlan",
    "FaultStats",
    "FaultyEngine",
    "faults_parameter",
    "get_default_faults",
    "using_faults",
    "ReliableRunResult",
    "run_reliably",
    "PhaseRecord",
    "RoundLedger",
    "BFSTreeAlgorithm",
    "build_bfs_tree",
    "SeedBroadcastAlgorithm",
    "coin",
    "mix",
    "part_coin",
    "share_randomness",
]
