"""Synchronous CONGEST round simulator.

The simulator executes a :class:`~repro.congest.algorithm.NodeAlgorithm`
on a :class:`~repro.congest.topology.Topology` under the CONGEST rules:

* time advances in synchronous rounds;
* per round, each node may send at most one message per incident edge
  per direction;
* each message must fit in ``O(log n)`` bits (audited by
  :mod:`repro.congest.message`);
* messages sent in round ``r`` are delivered at the start of round
  ``r + 1``.

Scheduling is event-driven: a node runs in a round only if it received
messages or scheduled a wake-up, and stretches of rounds in which no
node acts are skipped in O(1) time — but still *counted*, because round
complexity is the quantity this whole repository measures.

The execution semantics live in :mod:`repro.congest.engine`, which
ships two interchangeable engines: the transparent ``"reference"``
implementation (the executable specification) and the ``"batched"``
default (flat adjacency slots, round-stamped duplicate detection,
send-time delivery — several times faster, differentially tested to be
bit-for-bit identical).  :class:`Simulator` is the stable facade that
selects and drives one.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.engine import EngineLike, RunResult, resolve_engine
from repro.congest.topology import Topology

if False:  # typing-only; the runtime import is deferred (see __init__)
    from repro.congest.faults import FaultsLike

__all__ = ["RunResult", "Simulator", "run_algorithm"]


class Simulator:
    """Executes one node program over a topology.

    Parameters
    ----------
    topology:
        The network.
    algorithm:
        The node program (one instance drives every node).
    seed:
        Seed for the per-node pseudo-random generators.  Two runs with
        the same seed are bit-for-bit identical, regardless of engine.
    check_bandwidth:
        Audit payloads against the O(log n)-bit budget.
    bandwidth_bits:
        Override the default budget from
        :func:`~repro.congest.message.bandwidth_limit`.
    max_rounds:
        Watchdog; exceeded means the protocol failed to terminate.
    trace_edges:
        Record per-edge message counts (used by congestion analyses).
    engine:
        Which execution engine to use: ``"batched"`` (default),
        ``"reference"``, an :class:`~repro.congest.engine.EngineBase`
        subclass, or ``None`` for the current scope's engine (see
        :func:`~repro.congest.engine.using_engine`).
    audit_sample:
        Audit every ``audit_sample``-th message instead of every one
        (``1`` = full audit).  Sampling keeps the asymptotic-violation
        check on hot paths at a fraction of the cost.
    faults:
        Dynamic-fault plan: a
        :class:`~repro.congest.faults.FaultPlan`, ``"none"`` for an
        expressly clean run, or ``None`` for the current scope's plan
        (see :func:`~repro.congest.faults.using_faults`).  A
        non-``None`` plan wraps the selected engine in
        :class:`~repro.congest.faults.FaultyEngine`.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: NodeAlgorithm,
        *,
        seed: int = 0,
        check_bandwidth: bool = True,
        bandwidth_bits: Optional[int] = None,
        max_rounds: int = 10_000_000,
        trace_edges: bool = False,
        engine: EngineLike = None,
        audit_sample: int = 1,
        faults: "FaultsLike" = None,
    ) -> None:
        # Deferred import: faults -> randomness -> simulator would
        # otherwise be a circular module-load chain.
        from repro.congest.faults import FaultyEngine, resolve_faults

        self.topology = topology
        self.algorithm = algorithm
        self.seed = seed
        self.check_bandwidth = check_bandwidth
        self.max_rounds = max_rounds
        self.trace_edges = trace_edges
        plan = resolve_faults(faults)
        if plan is not None and plan.reliable:
            from repro.congest.reliable import ReliableSimulation

            self._engine = ReliableSimulation(
                topology,
                algorithm,
                plan=plan,
                inner=engine,
                seed=seed,
                check_bandwidth=check_bandwidth,
                bandwidth_bits=bandwidth_bits,
                max_rounds=max_rounds,
                trace_edges=trace_edges,
                audit_sample=audit_sample,
            )
        elif plan is not None:
            self._engine = FaultyEngine(
                topology,
                algorithm,
                plan=plan,
                inner=engine,
                seed=seed,
                check_bandwidth=check_bandwidth,
                bandwidth_bits=bandwidth_bits,
                max_rounds=max_rounds,
                trace_edges=trace_edges,
                audit_sample=audit_sample,
            )
        else:
            self._engine = resolve_engine(engine)(
                topology,
                algorithm,
                seed=seed,
                check_bandwidth=check_bandwidth,
                bandwidth_bits=bandwidth_bits,
                max_rounds=max_rounds,
                trace_edges=trace_edges,
                audit_sample=audit_sample,
            )
        self.bandwidth_bits = self._engine.bandwidth_bits

    @property
    def engine_name(self) -> str:
        """Name of the engine executing this simulation."""
        return self._engine.name

    @property
    def fault_stats(self):
        """Injection counters when running under a fault plan, else None."""
        return getattr(self._engine, "fault_stats", None)

    @property
    def current_round(self) -> int:
        """The engine's current round (0 before the run starts)."""
        return self._engine.current_round

    # Compatibility pass-throughs: older code (and tests) drove these
    # callbacks directly on the Simulator.
    def queue_message(self, sender: int, to: int, payload: Any) -> None:
        self._engine.queue_message(sender, to, payload)

    def queue_broadcast(self, sender: int, payload: Any) -> None:
        self._engine.queue_broadcast(sender, payload)

    def schedule_wakeup(self, node_id: int, round_number: int) -> None:
        self._engine.schedule_wakeup(node_id, round_number)

    def run(self) -> RunResult:
        """Execute the algorithm until quiescence and return the result."""
        return self._engine.run()


def run_algorithm(topology: Topology, algorithm: NodeAlgorithm, **kwargs) -> RunResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(topology, algorithm, **kwargs).run()
