"""Pluggable execution engines for the CONGEST simulator.

This module is the single place where the CONGEST execution semantics
are specified.  An *engine* is the object that actually runs a node
program over a topology; :class:`~repro.congest.simulator.Simulator`
is a thin facade that selects and drives one.  Two engines ship:

* :class:`ReferenceEngine` — the original per-node, per-message
  implementation.  It is deliberately simple and is the executable
  specification every other engine is tested against.
* :class:`BatchedEngine` — the default.  Semantically identical (the
  differential suite in ``tests/congest/test_engine_equivalence.py``
  asserts bit-for-bit equal results), but engineered for throughput:
  flat CSR-style adjacency slots, round-stamped duplicate detection,
  send-time delivery into preallocated per-node inboxes, and optional
  sampled bandwidth auditing.

The engine contract
-------------------

Every engine MUST implement the following observable semantics; the
property suite in ``tests/properties/test_prop_engines.py`` checks
them on random topologies and schedules:

1. Time advances in synchronous rounds.  Round 0 runs ``on_start`` on
   every node; round ``r >= 1`` runs ``on_round`` on exactly the nodes
   that received messages or scheduled a wake-up for round ``r``.
2. Per round, a node may send at most one message per incident edge
   per direction.  A second send over the same directed edge raises
   :class:`~repro.errors.SimulationError`, as does a send to a
   non-neighbor and a send from a halted node.
3. Messages sent in round ``r`` are delivered at the start of round
   ``r + 1`` — never earlier, never later.
4. ``on_round`` receives its ``(sender, payload)`` pairs in ascending
   sender order.
5. With ``check_bandwidth`` enabled, payloads are audited against the
   ``O(log n)``-bit budget via :func:`repro.congest.message.check_message`.
   ``audit_sample=k`` audits every ``k``-th queued message (``1`` =
   every message, the default); sampling trades audit coverage for
   throughput on hot paths but never changes rounds, messages, or
   states of a well-formed protocol.
6. Stretches of rounds in which no node acts are skipped in O(1) time
   but still *counted* — round complexity is the quantity this whole
   repository measures.  Exceeding ``max_rounds`` raises
   :class:`~repro.errors.RoundLimitExceededError`.
7. A halted node never runs again.  Messages arriving at a halted node
   are counted in ``messages`` and in ``dropped_to_halted``.
8. Per-node RNGs are seeded as ``(seed << 20) ^ (id * 2654435761)``;
   two runs with the same seed are bit-for-bit identical regardless of
   the engine.
9. ``RunResult.rounds`` is the index of the last round in which any
   node acted or any message was delivered.

Selecting an engine
-------------------

``Simulator(..., engine="reference")`` selects per call site, and most
high-level wrappers (``build_bfs_tree``, ``core_slow``, ``core_fast``,
``minimum_spanning_tree``, …) forward an ``engine=`` keyword.  The
default (``"batched"``) is the :data:`ENGINE` axis of
:mod:`repro.axes`: :func:`using_engine` selects another engine for the
enclosed block on the current thread only.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Set, Tuple, Type, Union

from repro.axes import Axis
from repro.congest.algorithm import NodeAlgorithm
from repro.congest.message import (
    FRAME_BITS,
    TAG_BITS,
    bandwidth_limit,
    check_message,
)
from repro.congest.node import NodeHandle
from repro.congest.topology import Topology, canonical_edge
from repro.errors import RoundLimitExceededError, SimulationError


class RunResult:
    """Outcome of one simulated execution.

    Attributes
    ----------
    rounds:
        Number of communication rounds consumed (the index of the last
        round in which any node acted or any message was delivered).
    messages:
        Total number of messages delivered.
    states:
        Mapping ``node_id -> SimpleNamespace`` with each node's final
        state (the algorithm's outputs).
    edge_traffic:
        When tracing is enabled, mapping ``edge -> message count``.
    dropped_to_halted:
        Messages that arrived at an already-halted node (a well-formed
        protocol keeps this at zero; tests assert on it).
    """

    __slots__ = ("rounds", "messages", "states", "edge_traffic", "dropped_to_halted")

    def __init__(self, rounds, messages, states, edge_traffic, dropped_to_halted):
        self.rounds = rounds
        self.messages = messages
        self.states = states
        self.edge_traffic = edge_traffic
        self.dropped_to_halted = dropped_to_halted

    def __repr__(self) -> str:
        return f"RunResult(rounds={self.rounds}, messages={self.messages})"


class EngineBase:
    """Shared state and callbacks of every CONGEST engine.

    Subclasses implement :meth:`run` and :meth:`queue_message`; the
    wake-up machinery (a lazily-cleaned min-heap of alarm rounds) and
    the result assembly are common.
    """

    name = "abstract"

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
        audit_sample: int = 1,
    ) -> None:
        if audit_sample < 1:
            raise SimulationError("audit_sample must be >= 1")
        self.topology = topology
        self.algorithm = algorithm
        self.seed = seed
        self.check_bandwidth = check_bandwidth
        self.bandwidth_bits = (
            bandwidth_bits if bandwidth_bits is not None else bandwidth_limit(topology.n)
        )
        self.max_rounds = max_rounds
        self.trace_edges = trace_edges
        self.audit_sample = audit_sample

        self.current_round = 0
        self._nodes: List[NodeHandle] = [
            NodeHandle(v, topology.neighbors(v), self, (seed << 20) ^ (v * 2654435761))
            for v in topology.nodes
        ]
        self._alarm_heap: List[int] = []
        self._alarms: Dict[int, Set[int]] = {}
        self._audit_countdown = 1
        self._messages_delivered = 0
        self._dropped_to_halted = 0
        self._edge_traffic: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Callbacks used by NodeHandle
    # ------------------------------------------------------------------

    def queue_message(self, sender: int, to: int, payload: Any) -> None:
        raise NotImplementedError

    def queue_broadcast(self, sender: int, payload: Any) -> None:
        """Send ``payload`` to every neighbor of ``sender``, in order.

        Semantically exactly a loop of :meth:`queue_message` over the
        sender's (sorted) neighbors; engines may override it with a
        fan-out that validates once.
        """
        for to in self.topology.neighbors(sender):
            self.queue_message(sender, to, payload)

    def schedule_wakeup(self, node_id: int, round_number: int) -> None:
        """Register a future wake-up for a node."""
        if round_number <= self.current_round:
            raise SimulationError(
                f"wake-up for node {node_id} at round {round_number} is not "
                f"in the future (current round {self.current_round})"
            )
        bucket = self._alarms.get(round_number)
        if bucket is None:
            bucket = set()
            self._alarms[round_number] = bucket
            heapq.heappush(self._alarm_heap, round_number)
        bucket.add(node_id)

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        raise NotImplementedError

    def _audit(self, payload: Any) -> None:
        """Sampled bandwidth audit: check every ``audit_sample``-th message."""
        self._audit_countdown -= 1
        if self._audit_countdown <= 0:
            self._audit_countdown = self.audit_sample
            check_message(payload, self.bandwidth_bits)

    def _peek_alarm(self) -> int:
        while self._alarm_heap and self._alarm_heap[0] not in self._alarms:
            heapq.heappop(self._alarm_heap)
        if not self._alarm_heap:
            raise SimulationError("no pending alarms")  # pragma: no cover
        return self._alarm_heap[0]

    def _pop_alarms(self, round_number: int) -> Set[int]:
        due: Set[int] = set()
        while self._alarm_heap and self._alarm_heap[0] <= round_number:
            when = heapq.heappop(self._alarm_heap)
            due.update(self._alarms.pop(when, ()))
        return due

    def _result(self, last_active_round: int) -> RunResult:
        return RunResult(
            rounds=last_active_round,
            messages=self._messages_delivered,
            states={node.id: node.state for node in self._nodes},
            edge_traffic=dict(self._edge_traffic) if self.trace_edges else {},
            dropped_to_halted=self._dropped_to_halted,
        )


class ReferenceEngine(EngineBase):
    """The executable specification of the CONGEST semantics.

    One dict-based inbox per round, a ``(sender, to)`` set for
    duplicate detection, and an explicit collect pass between rounds —
    slow but transparently faithful to the model.  Every other engine
    is differentially tested against this one.
    """

    name = "reference"

    def __init__(self, topology, algorithm, **kwargs) -> None:
        super().__init__(topology, algorithm, **kwargs)
        # Messages queued during the current round, delivered next round.
        self._outgoing: List[Tuple[int, int, Any]] = []
        self._sent_pairs: Set[Tuple[int, int]] = set()
        self._neighbor_sets = [set(topology.neighbors(v)) for v in topology.nodes]

    def queue_message(self, sender: int, to: int, payload: Any) -> None:
        """Queue a message for next-round delivery, enforcing the model."""
        if to not in self._neighbor_sets[sender]:
            raise SimulationError(
                f"node {sender} tried to send to non-neighbor {to}"
            )
        pair = (sender, to)
        if pair in self._sent_pairs:
            raise SimulationError(
                f"node {sender} sent two messages to {to} in round "
                f"{self.current_round}"
            )
        if self.check_bandwidth:
            self._audit(payload)
        self._sent_pairs.add(pair)
        self._outgoing.append((sender, to, payload))

    def run(self) -> RunResult:
        """Execute the algorithm until quiescence and return the result."""
        algorithm = self.algorithm
        nodes = self._nodes

        for node in nodes:
            algorithm.setup(node)

        # Round 0: every node starts.
        self.current_round = 0
        for node in nodes:
            if not node._halted:
                algorithm.on_start(node)
        inbox = self._collect_outgoing()
        last_active_round = 0

        while inbox or self._alarm_heap:
            next_round = self.current_round + 1
            if not inbox:
                # Idle gap: jump straight to the earliest alarm.
                next_round = max(next_round, self._peek_alarm())
            if next_round > self.max_rounds:
                raise RoundLimitExceededError(
                    f"'{getattr(algorithm, 'name', algorithm)}' still running "
                    f"after {self.max_rounds} rounds"
                )
            self.current_round = next_round

            woken = self._pop_alarms(next_round)
            active = set(inbox)
            active.update(woken)
            acted = False
            for node_id in sorted(active):
                node = nodes[node_id]
                if node._halted:
                    if node_id in inbox:
                        self._dropped_to_halted += len(inbox[node_id])
                    continue
                messages = inbox.get(node_id, [])
                messages.sort(key=lambda pair: pair[0])
                algorithm.on_round(node, messages)
                acted = True
            if acted or inbox:
                last_active_round = next_round
            inbox = self._collect_outgoing()

        return self._result(last_active_round)

    def _collect_outgoing(self) -> Dict[int, List[Tuple[int, Any]]]:
        """Move queued messages into next round's inboxes."""
        inbox: Dict[int, List[Tuple[int, Any]]] = {}
        for sender, to, payload in self._outgoing:
            inbox.setdefault(to, []).append((sender, payload))
            self._messages_delivered += 1
            if self.trace_edges:
                edge = canonical_edge(sender, to)
                self._edge_traffic[edge] = self._edge_traffic.get(edge, 0) + 1
        self._outgoing.clear()
        self._sent_pairs.clear()
        return inbox

    def collect_inbox(self) -> Dict[int, List[Tuple[int, Any]]]:
        """Drain the messages queued this round into an inbox mapping.

        The delivery seam used by the fault-injection layer
        (:mod:`repro.congest.faults`): the wrapper validates sends
        through :meth:`queue_message` and then pulls the queued round
        out through this method to apply drop/duplicate/delay/reorder
        decisions before delivery.  Calling it resets the per-round
        send state exactly as the engine's own run loop would.
        """
        return self._collect_outgoing()


class BatchedEngine(EngineBase):
    """Throughput-oriented engine with flat, preallocated round state.

    Differences from :class:`ReferenceEngine` (none observable):

    * Adjacency is flattened once into directed-edge *slots*
      (``sender * n + to -> slot``); a send is one dict probe instead
      of a neighbor-set lookup plus a ``(sender, to)`` set insert.
    * Duplicate sends are detected by a round-stamped flat array
      (``sent_stamp[slot] == current_round``) — no per-round set to
      clear or rebuild.
    * Messages are delivered at send time into preallocated per-node
      inbox buffers for the next round; the inter-round collect pass
      disappears, and buffers are recycled by double-buffering.
    * Inboxes never need sorting: active nodes run in ascending id
      order and each sends at most once per neighbor, so per-recipient
      buffers are filled in ascending sender order by construction.
    * Bandwidth auditing honours ``audit_sample`` (contract item 5) so
      hot paths can sample the audit instead of paying
      :func:`~repro.congest.message.message_bits` per message.
    """

    name = "batched"

    def __init__(self, topology, algorithm, **kwargs) -> None:
        super().__init__(topology, algorithm, **kwargs)
        n = topology.n
        self._n = n
        edge_slot: Dict[int, int] = {}
        slot_offset = [0] * (n + 1)
        slot = 0
        for v in topology.nodes:
            for w in topology.neighbors(v):
                edge_slot[v * n + w] = slot
                slot += 1
            slot_offset[v + 1] = slot
        self._edge_slot = edge_slot
        self._slot_offset = slot_offset
        self._sent_stamp = [-1] * slot
        # Double-buffered inboxes: sends write into _next_box; at the
        # start of a round the buffers swap and _this_box is consumed.
        self._this_box: List[List[Tuple[int, Any]]] = [[] for _ in range(n)]
        self._next_box: List[List[Tuple[int, Any]]] = [[] for _ in range(n)]
        self._next_touched: List[int] = []
        self._box_stamp = [-1] * n

    def _audit_fast(self, payload: Any) -> None:
        """Inlined twin of :func:`~repro.congest.message.check_message`.

        Computes the exact same bit size as ``message_bits`` for the
        common payload shapes (flat tuples of tags / ints / bools /
        ``None``, or one such scalar) without recursion or isinstance
        chains, and defers every other shape — including all malformed
        payloads — to ``check_message`` so error behavior is identical.
        ``tests/properties/test_prop_engines.py`` asserts the
        equivalence on a payload corpus.
        """
        self._audit_countdown -= 1
        if self._audit_countdown > 0:
            return
        self._audit_countdown = self.audit_sample
        tp = type(payload)
        if tp is tuple:
            bits = FRAME_BITS
            for item in payload:
                ti = type(item)
                if ti is str:
                    bits += TAG_BITS
                elif ti is int:
                    width = item.bit_length()
                    bits += (width if width else 1) + 1
                elif ti is bool or item is None:
                    bits += 1
                else:
                    check_message(payload, self.bandwidth_bits)
                    return
        elif tp is str:
            bits = TAG_BITS
        elif tp is int:
            width = payload.bit_length()
            bits = (width if width else 1) + 1
        elif tp is bool or payload is None:
            bits = 1
        else:
            check_message(payload, self.bandwidth_bits)
            return
        if bits > self.bandwidth_bits:
            check_message(payload, self.bandwidth_bits)

    def queue_message(self, sender: int, to: int, payload: Any) -> None:
        """Validate and deliver a message into the next round's inbox."""
        slot = self._edge_slot.get(sender * self._n + to) if 0 <= to < self._n else None
        if slot is None:
            raise SimulationError(
                f"node {sender} tried to send to non-neighbor {to}"
            )
        stamp = self.current_round
        sent_stamp = self._sent_stamp
        if sent_stamp[slot] == stamp:
            raise SimulationError(
                f"node {sender} sent two messages to {to} in round {stamp}"
            )
        sent_stamp[slot] = stamp
        if self.check_bandwidth:
            self._audit_fast(payload)
        if self._box_stamp[to] != stamp:
            self._box_stamp[to] = stamp
            self._next_touched.append(to)
        self._next_box[to].append((sender, payload))
        self._messages_delivered += 1
        if self.trace_edges:
            edge = (sender, to) if sender < to else (to, sender)
            self._edge_traffic[edge] = self._edge_traffic.get(edge, 0) + 1

    def queue_broadcast(self, sender: int, payload: Any) -> None:
        """Fan ``payload`` out to every neighbor, validating once.

        The sender's directed-edge slots are contiguous in CSR order
        (matching its sorted neighbor tuple), so the whole fan-out is
        one pass over a flat range: per-edge duplicate stamps and
        per-recipient inbox appends, with a single bandwidth audit —
        the payload is shared, so one audit decides for all copies.
        """
        neighbors = self._nodes[sender].neighbors
        if not neighbors:
            return
        stamp = self.current_round
        sent_stamp = self._sent_stamp
        # Mirror the reference check order: the first neighbor's
        # duplicate check precedes the audit, which precedes the rest.
        if sent_stamp[self._slot_offset[sender]] == stamp:
            raise SimulationError(
                f"node {sender} sent two messages to {neighbors[0]} "
                f"in round {stamp}"
            )
        if self.check_bandwidth:
            self._audit_fast(payload)
        box_stamp = self._box_stamp
        next_box = self._next_box
        next_touched = self._next_touched
        slot = self._slot_offset[sender]
        message = (sender, payload)
        for to in neighbors:
            if sent_stamp[slot] == stamp:
                raise SimulationError(
                    f"node {sender} sent two messages to {to} in round {stamp}"
                )
            sent_stamp[slot] = stamp
            slot += 1
            if box_stamp[to] != stamp:
                box_stamp[to] = stamp
                next_touched.append(to)
            next_box[to].append(message)
        self._messages_delivered += len(neighbors)
        if self.trace_edges:
            traffic = self._edge_traffic
            for to in neighbors:
                edge = (sender, to) if sender < to else (to, sender)
                traffic[edge] = traffic.get(edge, 0) + 1

    def run(self) -> RunResult:
        """Execute the algorithm until quiescence and return the result."""
        algorithm = self.algorithm
        nodes = self._nodes
        on_round = algorithm.on_round

        for node in nodes:
            algorithm.setup(node)

        self.current_round = 0
        for node in nodes:
            if not node._halted:
                algorithm.on_start(node)
        touched = self._swap_buffers()
        last_active_round = 0
        alarm_heap = self._alarm_heap

        while touched or alarm_heap:
            next_round = self.current_round + 1
            if not touched:
                # Idle gap: jump straight to the earliest alarm.
                next_round = max(next_round, self._peek_alarm())
            if next_round > self.max_rounds:
                raise RoundLimitExceededError(
                    f"'{getattr(algorithm, 'name', algorithm)}' still running "
                    f"after {self.max_rounds} rounds"
                )
            self.current_round = next_round

            if alarm_heap and alarm_heap[0] <= next_round:
                woken = self._pop_alarms(next_round)
                active = sorted(set(touched) | woken) if woken else sorted(touched)
            else:
                touched.sort()
                active = touched
            this_box = self._this_box
            acted = False
            for node_id in active:
                node = nodes[node_id]
                messages = this_box[node_id]
                if messages:
                    this_box[node_id] = []
                if node._halted:
                    self._dropped_to_halted += len(messages)
                    continue
                on_round(node, messages)
                acted = True
            if acted or touched:
                last_active_round = next_round
            touched = self._swap_buffers()

        return self._result(last_active_round)

    def _swap_buffers(self) -> List[int]:
        """Promote next-round inboxes to current and recycle the buffers."""
        touched = self._next_touched
        self._next_touched = []
        # _this_box entries were reset as they were consumed, so the old
        # current buffer is all-empty and can absorb the next round's sends.
        self._this_box, self._next_box = self._next_box, self._this_box
        return touched

    def collect_inbox(self) -> Dict[int, List[Tuple[int, Any]]]:
        """Drain the messages queued this round into an inbox mapping.

        The fault-layer delivery seam (see
        :meth:`ReferenceEngine.collect_inbox`).  Swaps the double
        buffers and harvests the touched recipients, resetting their
        slots so the buffers stay recyclable.
        """
        inbox: Dict[int, List[Tuple[int, Any]]] = {}
        touched = self._swap_buffers()
        this_box = self._this_box
        for to in touched:
            messages = this_box[to]
            if messages:
                this_box[to] = []
                inbox[to] = messages
        return inbox


# ----------------------------------------------------------------------
# Registry and the engine= axis
# ----------------------------------------------------------------------

ENGINES: Dict[str, Type[EngineBase]] = {
    ReferenceEngine.name: ReferenceEngine,
    BatchedEngine.name: BatchedEngine,
}

EngineLike = Union[None, str, Type[EngineBase]]


def _parse_engine(engine: EngineLike) -> Type[EngineBase]:
    if isinstance(engine, str):
        try:
            return ENGINES[engine]
        except KeyError:
            raise SimulationError(
                f"unknown engine {engine!r}; available: {sorted(ENGINES)}"
            ) from None
    if isinstance(engine, type) and issubclass(engine, EngineBase):
        return engine
    raise SimulationError(f"not an engine spec: {engine!r}")


ENGINE = Axis("engine", BatchedEngine, _parse_engine, SimulationError)


def get_default_engine() -> str:
    """Name of the engine used when none is specified."""
    return ENGINE.get().name


using_engine = ENGINE.using
resolve_engine = ENGINE.resolve
engine_parameter = ENGINE.parameter("engine")
