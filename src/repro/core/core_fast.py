"""CoreFast — Algorithm 2 / Lemma 5 (randomized, O(D log n + c) rounds).

CoreSlow's bottleneck is streaming up to ``2c`` part ids through every
tree level.  CoreFast estimates the load instead: every part becomes
*active* with probability ``p = γ log n / (2c)`` (using the shared
randomness substrate so all nodes of a part agree), only active ids are
streamed, and an edge is declared unusable when at least ``4cp =
Ω(log n)`` active ids want it.  A Chernoff bound gives, w.h.p.:
usable edges carry at most ``8c`` part ids, unusable edges at least
``2c`` — which is exactly what Lemma 7's counting argument needs.

The subroutine then still has to deliver the *complete* id sets to the
usable edges (steps 3–5 of Algorithm 2): every id is flooded up the
tree until it hits the first unusable edge, forwarding the minimum
not-yet-forwarded id per edge per round — a tree-routing problem that
Lemma 2 bounds by ``O(D + c)`` rounds.

Two phases, two node programs, composed with a barrier:

* **Phase A** (sampling sweep) reuses the CoreSlow program with the
  active subset and threshold ``τ = ⌈4cp⌉`` — O(D log n) rounds;
* **Phase B** (:class:`FloodUpAlgorithm`) floods all ids — O(D + c).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.randomness import coin
from repro.congest.engine import EngineLike
from repro.congest.simulator import RunResult, Simulator
from repro.congest.topology import Edge, Topology
from repro.congest.trace import RoundLedger
from repro.core.core_slow import CoreOutcome, CoreSlowAlgorithm
from repro.core.shortcut import TreeRestrictedShortcut
from repro.errors import ShortcutError
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree

Q_TOKEN = "q"
ACTIVITY_SALT = 0xAC71


def sampling_parameters(n: int, c: int, gamma: float = 2.0) -> Tuple[float, int]:
    """The activation probability ``p`` and unusable threshold ``τ``.

    ``p = min(1, γ log2(n) / (2c))`` and ``τ = max(1, ⌈4 c p⌉)``; when
    ``c`` is small enough that ``p = 1`` the subroutine degenerates to
    an exact count with threshold ``4c``.  Every participating part is
    then active, so a FindShortcut iteration is a function of its
    ``remaining`` parts alone: after one that freezes nothing, direct
    mode replays it instead of recomputing it
    (:func:`repro.core.find_shortcut.find_shortcut`).
    """
    if c < 1:
        raise ShortcutError("congestion parameter c must be >= 1")
    p = min(1.0, gamma * math.log2(max(2, n)) / (2 * c))
    tau = max(1, math.ceil(4 * c * p))
    return p, tau


def active_parts(
    partition: Partition,
    shared_seed: int,
    p: float,
    participating: Optional[Iterable[int]] = None,
) -> FrozenSet[int]:
    """Parts activated by the shared coin (locally computable by all
    members from the shared seed and their own part id).

    ``participating`` limits the draw to those parts (all parts when
    ``None``); a part's coin does not depend on which others are drawn.
    """
    parts = range(partition.size) if participating is None else participating
    return frozenset(i for i in parts if coin(shared_seed, i, ACTIVITY_SALT) < p)


class FloodUpAlgorithm(NodeAlgorithm):
    """Steps 3–5 of Algorithm 2: flood ids up to the first unusable edge.

    Per-node inputs: ``part`` (id or ``None``), ``tree_parent``,
    ``parent_usable`` (whether the node's parent edge survived Phase A).

    Outputs: ``q_ids`` — every id that reached the node; ids in
    ``q_ids`` may use the node's parent edge iff it is usable.

    Forwarding keeps a min-heap of the not-yet-forwarded ids next to
    the ``forwarded`` set: an id enters the heap exactly once (on first
    sight), so each pump is one O(log k) pop instead of an O(k) rescan
    of ``q_ids - forwarded``.  The message order is identical — the
    heap minimum *is* the smallest pending id — which the engine
    differential suite asserts on every family.
    """

    name = "core-fast-flood"

    def on_start(self, node) -> None:
        state = node.state
        state.q_ids: Set[int] = set()
        state.forwarded: Set[int] = set()
        state.pending_heap: list = []
        if state.part is not None:
            state.q_ids.add(state.part)
            state.pending_heap.append(state.part)
        self._pump(node)

    def on_round(self, node, messages) -> None:
        state = node.state
        for _sender, payload in messages:
            if payload[0] == Q_TOKEN and payload[1] not in state.q_ids:
                state.q_ids.add(payload[1])
                heapq.heappush(state.pending_heap, payload[1])
        self._pump(node)

    def _pump(self, node) -> None:
        state = node.state
        if state.tree_parent is None or not state.parent_usable:
            return
        if state.pending_heap:
            smallest = heapq.heappop(state.pending_heap)
            state.forwarded.add(smallest)
            node.send(state.tree_parent, (Q_TOKEN, smallest))
            if state.pending_heap:
                node.wake_after(1)


def core_fast(
    topology: Topology,
    tree: SpanningTree,
    partition: Partition,
    c: int,
    shared_seed: int,
    *,
    gamma: float = 2.0,
    participating: Optional[Iterable[int]] = None,
    seed: int = 0,
    ledger: Optional[RoundLedger] = None,
    engine: EngineLike = None,
    mode: Optional[str] = None,
) -> CoreOutcome:
    """Run the CoreFast subroutine.

    ``shared_seed`` is the network-wide seed distributed by
    :func:`repro.congest.randomness.share_randomness`; it determines
    which parts are active.  ``participating`` restricts the run to a
    subset of parts (the still-bad parts during FindShortcut).
    ``mode="direct"`` computes the identical outcome — including exact
    rounds and messages — with the array kernels of
    :mod:`repro.core.construct_fast` instead of simulating the two
    node programs.
    """
    from repro.core.construct_fast import core_fast_direct, resolve_mode

    if resolve_mode(mode) == "direct":
        return core_fast_direct(
            topology, tree, partition, c, shared_seed,
            gamma=gamma, participating=participating, ledger=ledger,
        )
    p, tau = sampling_parameters(topology.n, c, gamma)
    participating_set = (
        set(participating) if participating is not None else set(range(partition.size))
    )
    active = active_parts(partition, shared_seed, p, participating_set)

    # Phase A: sampled sweep.  CoreSlow's program with the active subset
    # and cap τ - 1 marks an edge unusable exactly when >= τ = 4cp
    # active ids reach it.
    phase_a_inputs = {}
    for v in topology.nodes:
        part = partition.part_of(v)
        phase_a_inputs[v] = {
            "part": part if part in active else None,
            "tree_parent": tree.parent(v),
            "tree_children": tree.children(v),
            "cap": tau - 1,
        }
    result_a = Simulator(
        topology, CoreSlowAlgorithm(phase_a_inputs), seed=seed, engine=engine
    ).run()

    # Phase B: flood the complete id sets up to the first unusable edge.
    phase_b_inputs = {}
    for v in topology.nodes:
        part = partition.part_of(v)
        phase_b_inputs[v] = {
            "part": part if part in participating_set else None,
            "tree_parent": tree.parent(v),
            "parent_usable": tree.parent(v) is not None
            and not result_a.states[v].unusable,
        }
    result_b = Simulator(
        topology, FloodUpAlgorithm(phase_b_inputs), seed=seed + 1, engine=engine
    ).run()

    edge_map: Dict[Edge, Tuple[int, ...]] = {}
    unusable: Set[Edge] = set()
    for v in topology.nodes:
        edge = tree.parent_edge(v)
        if edge is None:
            continue
        if result_a.states[v].unusable:
            unusable.add(edge)
        else:
            ids = result_b.states[v].q_ids
            if ids:
                edge_map[edge] = tuple(sorted(ids))
    shortcut = TreeRestrictedShortcut.from_edge_map(tree, partition, edge_map)
    if ledger is not None:
        ledger.charge_phase("core-fast/sample", result_a.rounds, result_a.messages)
        ledger.charge_phase("core-fast/flood", result_b.rounds, result_b.messages)
    return CoreOutcome(
        shortcut=shortcut,
        unusable=frozenset(unusable),
        rounds=result_a.rounds + result_b.rounds,
        messages=result_a.messages + result_b.messages,
    )


def core_fast_reference(
    tree: SpanningTree,
    partition: Partition,
    c: int,
    shared_seed: int,
    n: int,
    *,
    gamma: float = 2.0,
    participating: Optional[Iterable[int]] = None,
) -> Tuple[Dict[Edge, Tuple[int, ...]], FrozenSet[Edge]]:
    """Centralized twin of :func:`core_fast` (identical output)."""
    p, tau = sampling_parameters(n, c, gamma)
    participating_set = (
        set(participating) if participating is not None else set(range(partition.size))
    )
    active = active_parts(partition, shared_seed, p, participating_set)

    # Phase A: bottom-up active-id counting with threshold τ.
    visible_active: Dict[int, Set[int]] = {}
    unusable: Set[Edge] = set()
    for v in tree.order_bottom_up():
        ids: Set[int] = set()
        own = partition.part_of(v)
        if own in active:
            ids.add(own)
        for child in tree.children(v):
            ids |= visible_active.get(child, set())
        edge = tree.parent_edge(v)
        if edge is None:
            continue
        if len(ids) >= tau:
            unusable.add(edge)
            visible_active[v] = set()
        else:
            visible_active[v] = ids

    # Phase B: full visibility through usable edges.
    visible: Dict[int, Set[int]] = {}
    edge_map: Dict[Edge, Tuple[int, ...]] = {}
    for v in tree.order_bottom_up():
        ids = set()
        own = partition.part_of(v)
        if own is not None and own in participating_set:
            ids.add(own)
        for child in tree.children(v):
            ids |= visible.get(child, set())
        edge = tree.parent_edge(v)
        if edge is None:
            continue
        if edge in unusable:
            visible[v] = set()
        else:
            if ids:
                edge_map[edge] = tuple(sorted(ids))
            visible[v] = ids
    return edge_map, frozenset(unusable)
