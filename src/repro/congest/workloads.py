"""Synthetic CONGEST workloads for engine benchmarking and testing.

These node programs generate traffic patterns that stress specific
engine paths rather than computing anything paper-related:

* :class:`FloodAlgorithm` — every node broadcasts every round
  (broadcast fan-out, inbox batching: the message-throughput ceiling).
* :class:`NeighborScanAlgorithm` — per-neighbor distinct payloads
  (the individual ``send`` validation path; cannot use broadcast).
* :class:`AlarmStormAlgorithm` — sparse periodic wake-ups with long
  idle gaps (the alarm heap and idle-round skipping).
* :class:`TokenWalkAlgorithm` — a seeded pseudo-random token walk
  (per-node RNG determinism across engines).

The E14 row of :mod:`repro.bench` times them on both engines, and the
differential suites replay them to assert engine equivalence.
"""

from __future__ import annotations

from repro.congest.algorithm import NodeAlgorithm


class FloodAlgorithm(NodeAlgorithm):
    """Every node broadcasts a small payload each round until ``rounds``."""

    name = "flood"

    def __init__(self, rounds: int):
        super().__init__()
        self.rounds = rounds

    def on_start(self, node) -> None:
        node.state.seen = 0
        node.broadcast(("f", node.id & 63))

    def on_round(self, node, messages) -> None:
        node.state.seen += len(messages)
        if node.round < self.rounds:
            node.broadcast(("f", node.id & 63))


class NeighborScanAlgorithm(NodeAlgorithm):
    """Per-neighbor distinct payloads: stresses the single-send path."""

    name = "neighbor-scan"

    def __init__(self, rounds: int):
        super().__init__()
        self.rounds = rounds

    def on_start(self, node) -> None:
        node.state.acc = 0
        for index, neighbor in enumerate(node.neighbors):
            node.send(neighbor, ("s", index))

    def on_round(self, node, messages) -> None:
        for _sender, payload in messages:
            node.state.acc += payload[1]
        if node.round < self.rounds:
            for index, neighbor in enumerate(node.neighbors):
                node.send(neighbor, ("s", index))


class AlarmStormAlgorithm(NodeAlgorithm):
    """Sparse periodic wake-ups: stresses alarms and idle-gap skipping.

    Node ``v`` wakes every ``period + (v % jitter)`` rounds, ``ticks``
    times, pinging one neighbor on each wake-up.
    """

    name = "alarm-storm"

    def __init__(self, period: int, ticks: int, jitter: int = 7):
        super().__init__()
        self.period = period
        self.ticks = ticks
        self.jitter = jitter

    def _period(self, node) -> int:
        return self.period + (node.id % self.jitter)

    def on_start(self, node) -> None:
        node.state.ticks = 0
        node.state.pings = 0
        node.wake_after(self._period(node))

    def on_round(self, node, messages) -> None:
        node.state.pings += len(messages)
        fired = node.state.ticks < self.ticks and node.round % self._period(node) == 0
        if fired:
            node.state.ticks += 1
            target = node.neighbors[node.state.ticks % node.degree]
            node.send(target, ("p", node.state.ticks))
            if node.state.ticks < self.ticks:
                node.wake_after(self._period(node))


class TokenWalkAlgorithm(NodeAlgorithm):
    """A token walks ``steps`` hops following each node's private RNG."""

    name = "token-walk"

    def __init__(self, steps: int, start: int = 0):
        super().__init__()
        self.steps = steps
        self.start = start

    def on_start(self, node) -> None:
        node.state.visits = 0
        if node.id == self.start and self.steps > 0:
            self._forward(node, self.steps)

    def on_round(self, node, messages) -> None:
        for _sender, payload in messages:
            node.state.visits += 1
            if payload[1] > 0:
                self._forward(node, payload[1])

    def _forward(self, node, remaining: int) -> None:
        target = node.neighbors[node.random.randrange(node.degree)]
        node.send(target, ("t", remaining - 1))
