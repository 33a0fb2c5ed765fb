"""Simulation-free backend for the Theorem 2 partwise engine.

The part-parallel primitives of :class:`repro.core.partwise.PartwiseEngine`
(block aggregation, part-internal exchange, leader election, broadcast,
Lemma 3 block counting) are deterministic functions of the instance: no
node program in the stack ever consults its RNG.  This module mirrors —
at the application layer — the engine split of
:mod:`repro.congest.engine` and the construction split of
:mod:`repro.core.construct_fast`:

* ``backend="simulate"`` (default) runs every superstep as a node
  program on the CONGEST simulator — the executable specification;
* ``backend="direct"`` computes the same results as centralized passes
  over the cached CSR/:class:`~repro.graphs.csr.TreeArrays` structures
  and charges the :class:`~repro.congest.trace.RoundLedger` with the
  *exact* rounds and messages the simulated program consumes.

Selection mirrors ``engine=`` / ``mode=``: a ``backend=``
keyword per call site (``PartwiseEngine``, ``exchange_labels``,
``fragment_aggregate``, every app entry point), and the context-scoped
:data:`BACKEND` axis (:func:`using_backend` / :func:`backend_parameter`)
whose overrides hold for the enclosed block on the current thread only.

Equivalence contract
--------------------

Unlike the construction kernels — whose Verification phase is charged
from a Lemma 3 *upper bound* — the direct partwise backend is exact on
the ledger too: every phase record (name, rounds, messages, barrier)
matches the simulated run bit-for-bit, because the primitives replay
the same deterministic dynamics without the engine machinery:

``subtree convergecast / broadcast`` (Lemma 2)
    Lemma 2 delivers every block's combine over its members to every
    member, so the values are folded per block directly.  The pipelined
    schedule (one send per node per round, root-depth priority) never
    looks at the values: the convergecast's rounds depend only on the
    engine's task set, the broadcast's only on which tasks carry a
    value, and both send ``Σ (|task.nodes| − 1)`` messages.  The rounds
    have no closed form, so — exactly like the ``core-fast/flood``
    kernel of :mod:`repro.core.construct_fast` — they are replayed as a
    centralized per-round event loop over int heaps, with the
    simulator's forwarding order; the engine replays the convergecast
    once and the broadcast once per distinct participating task set,
    and charges every later call from that cache.  The ledger stays
    exact because the cached figures are the ones the simulated
    program reports.

``part exchange`` / ``label exchange``
    One round; messages are the closed form (``Σ deg_P(v)`` over
    payload-carrying nodes, resp. ``2m``).

``min-flood`` (``minimum_per_part``)
    Runs on the contracted supergraph: every block is one supernode,
    adjacent to the blocks it shares a part-internal edge with, and one
    superstep is ``val'[B] = min(val[B], val[B'] for B' adjacent)``.
    Its exchange sends ``Σ deg[B]`` messages over the blocks holding a
    value, ``deg[B]`` being the summed part-internal degree of ``B``'s
    members; each block step is charged from the schedule-cost cache
    above.

``fragment flood / tree aggregate`` (the no-shortcut baselines)
    The flood is replayed round by round (improvement-triggered
    re-sends included); the claim/convergecast/broadcast tree pass has
    a closed form: a node ``v`` sends up at round ``2 + height(v)``, so
    one fragment finishes at ``2 + 2·height(root)`` and messages are
    ``3·(covered − #fragments)``.

``bfs-tree`` / ``share-randomness``
    Closed forms (see :func:`repro.congest.bfs.build_bfs_tree_direct`
    and :func:`repro.core.construct_fast.share_randomness_cost`).

The differential suite in ``tests/apps/test_app_equivalence.py``
asserts all of this — outputs *and* ledgers — across the grid, torus,
hub, and Delaunay families; ``tests/properties/test_prop_apps.py``
checks the end-to-end applications against centralized oracles over
random instances in every backend × mode × engine combination.

The Lemma 2/3 superstep cost model
----------------------------------

The replayed rounds always respect the paper's accounting, which the
tests cross-check: one *block step* (intra-block convergecast +
broadcast over all blocks at once) takes at most ``2 (D + c + 2)``
rounds where ``c`` is the per-tree-edge task congestion (Lemma 2 plus
constant start-up), and one *exchange* over part-internal edges takes
exactly 1 round; a Theorem 2 operation with ``b`` supersteps therefore
costs at most ``b (2 (D + c + 2) + 1)`` rounds — the
:func:`superstep_cost_bound` below.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.axes import Axis
from repro.congest.topology import Topology
from repro.core.tree_routing import SubtreeTask, TaskKey, _combine
from repro.errors import ShortcutError
from repro.graphs.csr import adjacency_csr, tree_arrays
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree

# ----------------------------------------------------------------------
# The backend= axis (simulate vs direct)
# ----------------------------------------------------------------------

BACKENDS: Tuple[str, ...] = ("simulate", "direct")

BACKEND = Axis.of_choices("backend", "simulate", BACKENDS, ShortcutError)

get_default_backend = BACKEND.get
using_backend = BACKEND.using
resolve_backend = BACKEND.resolve
backend_parameter = BACKEND.parameter("backend")


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------


def superstep_cost_bound(height: int, task_congestion: int, supersteps: int) -> int:
    """Upper bound on the rounds of ``supersteps`` Theorem 2 supersteps.

    One block step is a Lemma 2 convergecast plus broadcast —
    ``<= 2 (D + c + 2)`` rounds with tree depth ``D`` and per-edge task
    congestion ``c`` — and each superstep adds one exchange round.  The
    replayed ledgers are exact; this bound is what the differential
    suite checks them against.
    """
    return supersteps * (2 * (height + task_congestion + 2) + 1)


def bfs_and_shared_randomness(
    topology: Topology,
    seed: int,
    ledger,
    backend: Optional[str] = None,
) -> Tuple[SpanningTree, int]:
    """The BFS-tree + shared-randomness preamble of every application.

    Returns ``(tree, shared_seed)``.  In simulate mode both run as node
    programs; in direct mode the closed-form twins
    (:func:`repro.congest.bfs.build_bfs_tree_direct`,
    :func:`repro.core.construct_fast.share_randomness_cost`) produce
    the identical tree, seed, and ledger charges.  Shared by the MST
    and connectivity drivers so the two backends' ledger-exactness
    contract has a single implementation.
    """
    from repro.congest.bfs import build_bfs_tree, build_bfs_tree_direct
    from repro.core.construct_fast import _shared_seed

    backend = resolve_backend(backend)
    if backend == "direct":
        tree = build_bfs_tree_direct(topology, 0, ledger=ledger)
    else:
        tree, _bfs_result = build_bfs_tree(topology, 0, seed=seed, ledger=ledger)
    return tree, _shared_seed(topology, tree, seed, ledger, backend)


class PartScan:
    """The shortcut-independent part structure of one ``(topology, labels)``.

    ``neighbors[v]`` holds ``v``'s same-part neighbors (``()`` for
    uncovered nodes); ``component[v]`` numbers the connected components
    of the ``G[P_i]`` (``-1`` for uncovered nodes); ``split`` is the set
    of parts with more than one component; ``part_edges`` counts the
    directed part-internal edges.
    """

    __slots__ = ("labels", "neighbors", "component", "split", "part_edges")

    def __init__(self, topology: Topology, labels: Tuple[int, ...]) -> None:
        csr = adjacency_csr(topology)
        indptr, indices = csr.indptr, csr.indices
        neighbors: Dict[int, Tuple[int, ...]] = {}
        for v in topology.nodes:
            part = labels[v]
            if part < 0:
                neighbors[v] = ()
            else:
                neighbors[v] = tuple(
                    w for w in indices[indptr[v] : indptr[v + 1]] if labels[w] == part
                )
        component = [-1] * topology.n
        seen_parts = set()
        split = set()
        count = 0
        for v in topology.nodes:
            part = labels[v]
            if part < 0 or component[v] >= 0:
                continue
            if part in seen_parts:
                split.add(part)
            seen_parts.add(part)
            component[v] = count
            stack = [v]
            while stack:
                u = stack.pop()
                for w in neighbors[u]:
                    if component[w] < 0:
                        component[w] = count
                        stack.append(w)
            count += 1
        self.labels = labels
        self.neighbors = neighbors
        self.component = component
        self.split = frozenset(split)
        self.part_edges = sum(len(same_part) for same_part in neighbors.values())


def part_scan_cached(topology: Topology, partition: Partition) -> PartScan:
    """The :class:`PartScan` of ``(topology, partition.labels)``, cached.

    The scan depends only on the topology and the partition's label
    array — not on the shortcut — so successive engines over the same
    fragment partition (every Verification iteration inside one
    FindShortcut run, both engines of one Borůvka phase) reuse one
    scan.  Only the most recent partition's scan is retained: accesses
    are temporally clustered per phase, and Borůvka produces a fresh
    label array every phase, so a per-labels map would grow for the
    topology's lifetime.  The *ledger* charge for the partwise engine's
    discovery round is unaffected: each engine still records it.
    """
    cache = topology._kernels
    entry = cache.get("part_neighbors")
    labels = partition.labels
    if entry is not None and entry.labels == labels:
        return entry
    entry = cache["part_neighbors"] = PartScan(topology, labels)
    return entry


# ----------------------------------------------------------------------
# Lemma 2 schedule costs (exact rounds and messages)
# ----------------------------------------------------------------------


def subtree_messages(tasks: Iterable[SubtreeTask]) -> int:
    """Messages of a Lemma 2 convergecast or broadcast over ``tasks``.

    Every non-root member sends its task's value up exactly once
    (convergecast), resp. receives it from its parent exactly once
    (broadcast), so both cost ``Σ (|task.nodes| − 1)``.
    """
    return sum(len(task.nodes) - 1 for task in tasks)


def convergecast_rounds(tree: SpanningTree, tasks: Iterable[SubtreeTask]) -> int:
    """Rounds of a simulated
    :class:`~repro.core.tree_routing.SubtreeConvergecastAlgorithm` run.

    The schedule never looks at the values being combined: per round
    every node holding a completed task forwards the highest-priority
    one (minimum root depth, then task id) to its tree parent, and a
    task completes at a node once all its task children have reported.
    """
    parent = tree_arrays(tree).parent
    # (node, tid, root) -> task children that have not reported yet
    pending: Dict[Tuple[int, int, int], int] = {}
    # node -> heap of the completed tasks it still has to send up
    heaps: Dict[int, List[Tuple[int, int, int]]] = {}
    for task in tasks:
        tid, root = task.key
        for v in task.nodes:
            if v != root:
                slot = (parent[v], tid, root)
                pending[slot] = pending.get(slot, 0) + 1
        for v in task.nodes:
            if v != root and (v, tid, root) not in pending:
                heapq.heappush(heaps.setdefault(v, []), task.priority)

    rounds = 0
    while heaps:
        sent = []
        for v, heap in list(heaps.items()):
            sent.append((parent[v], heapq.heappop(heap)))
            if not heap:
                del heaps[v]
        rounds += 1
        for v, priority in sent:
            _depth, tid, root = priority
            slot = (v, tid, root)
            pending[slot] -= 1
            if pending[slot] == 0 and v != root:
                heapq.heappush(heaps.setdefault(v, []), priority)
    return rounds


def broadcast_rounds(tree: SpanningTree, tasks: Iterable[SubtreeTask]) -> int:
    """Rounds of a simulated
    :class:`~repro.core.tree_routing.SubtreeBroadcastAlgorithm` run in
    which every task of ``tasks`` carries a value.

    Per round every node forwards, on each child edge, the
    highest-priority task value still queued for that child.
    """
    parent = tree_arrays(tree).parent
    # (node, tid, root) -> the node's task children
    children_of: Dict[Tuple[int, int, int], List[int]] = {}
    # child -> heap of the tasks its parent still has to forward to it
    queues: Dict[int, List[Tuple[int, int, int]]] = {}
    for task in tasks:
        tid, root = task.key
        for v in task.nodes:
            if v != root:
                children_of.setdefault((parent[v], tid, root), []).append(v)
        for child in children_of.get((root, tid, root), ()):
            heapq.heappush(queues.setdefault(child, []), task.priority)

    rounds = 0
    while queues:
        delivered = []
        for child, queue in list(queues.items()):
            delivered.append((child, heapq.heappop(queue)))
            if not queue:
                del queues[child]
        rounds += 1
        for v, priority in delivered:
            _depth, tid, root = priority
            for child in children_of.get((v, tid, root), ()):
                heapq.heappush(queues.setdefault(child, []), priority)
    return rounds


# ----------------------------------------------------------------------
# Single-round exchanges
# ----------------------------------------------------------------------


def exchange_direct(
    nodes: Iterable[int],
    part_neighbors: Mapping[int, Tuple[int, ...]],
    payloads: Mapping[int, Optional[tuple]],
) -> Tuple[Dict[int, List[Tuple[int, tuple]]], int, int]:
    """Direct twin of one :class:`~repro.core.partwise.PartExchangeAlgorithm`
    round: every payload-carrying node sends to all same-part neighbors.

    Returns ``(received, rounds, messages)``; received lists are in
    ascending sender order, exactly as the engine contract delivers.
    """
    received: Dict[int, List[Tuple[int, tuple]]] = {}
    messages = 0
    for v in nodes:
        inbox: List[Tuple[int, tuple]] = []
        for w in part_neighbors.get(v, ()):
            payload = payloads.get(w)
            if payload is not None:
                inbox.append((w, payload))
        messages += len(inbox)
        received[v] = inbox
    return received, (1 if messages else 0), messages


def neighbor_labels_direct(
    topology: Topology, labels: Mapping[int, Optional[int]]
) -> Tuple[Dict[int, Dict[int, Optional[int]]], int, int]:
    """Direct twin of
    :class:`~repro.apps.aggregation.NeighborLabelExchangeAlgorithm`:
    one broadcast round in which every node learns every neighbor's
    label.  Exactly ``2m`` messages in one round.
    """
    csr = adjacency_csr(topology)
    indptr, indices = csr.indptr, csr.indices
    out: Dict[int, Dict[int, Optional[int]]] = {}
    for v in topology.nodes:
        out[v] = {w: labels.get(w) for w in indices[indptr[v] : indptr[v + 1]]}
    messages = 2 * topology.m
    return out, (1 if messages else 0), messages


# ----------------------------------------------------------------------
# Fragment (no-shortcut baseline) replays
# ----------------------------------------------------------------------


def fragment_flood_direct(
    topology: Topology,
    fragment_neighbors: Mapping[int, Tuple[int, ...]],
    values: Mapping[int, Optional[int]],
) -> Tuple[Dict[int, Optional[int]], Dict[int, Optional[int]], int, int]:
    """Centralized replay of
    :class:`~repro.apps.fragment_comm.FragmentFloodAlgorithm`.

    Returns ``(best, parents, rounds, messages)`` with the exact
    improvement-triggered re-send dynamics: a node whose best value
    drops re-broadcasts to every fragment neighbor, and the parent
    pointer is the smallest-id sender of the round's minimal improving
    value — identical to processing arrivals in ascending sender order.
    """
    best: Dict[int, Optional[int]] = {}
    parents: Dict[int, Optional[int]] = {}
    next_arrivals: Dict[int, List[Tuple[int, int]]] = {}
    messages = 0
    for v in topology.nodes:
        best[v] = values.get(v)
        parents[v] = None
        if best[v] is not None:
            for w in fragment_neighbors.get(v, ()):
                next_arrivals.setdefault(w, []).append((v, best[v]))

    rounds = 0
    r = 0
    while next_arrivals:
        r += 1
        arrivals, next_arrivals = next_arrivals, {}
        for v, incoming in arrivals.items():
            messages += len(incoming)
            minimum = min(value for _sender, value in incoming)
            if best[v] is None or minimum < best[v]:
                best[v] = minimum
                parents[v] = min(
                    sender for sender, value in incoming if value == minimum
                )
                for w in fragment_neighbors.get(v, ()):
                    next_arrivals.setdefault(w, []).append((v, minimum))
        rounds = r
    return best, parents, rounds, messages


def fragment_tree_aggregate_direct(
    topology: Topology,
    parents: Mapping[int, Optional[int]],
    values: Mapping[int, Optional[int]],
    combine: str = "min",
) -> Tuple[Dict[int, Optional[int]], int, int]:
    """Closed-form twin of
    :class:`~repro.apps.fragment_comm.FragmentTreeAggregateAlgorithm`.

    The timing is exact: children are claimed in round 1, every node
    learns its child count at the round-2 wake-up, node ``v`` sends up
    at round ``2 + height(v)`` (leaves at 2), the root's result floods
    down one level per round — so one fragment finishes at
    ``2 + 2·height(root)``, the whole phase at the maximum over
    fragments (never below the round-2 wake-up every node takes), and
    messages are exactly ``3·#non-root-members`` (claim + up + down).
    """
    children: Dict[int, List[int]] = {}
    non_roots = 0
    for v in topology.nodes:
        p = parents.get(v)
        if p is not None:
            children.setdefault(p, []).append(v)
            non_roots += 1

    # Bottom-up heights and combines over the parent forest.
    height: Dict[int, int] = {}
    acc: Dict[int, Optional[int]] = {v: values.get(v) for v in topology.nodes}
    order: List[int] = []
    state: List[Tuple[int, bool]] = [
        (v, False) for v in topology.nodes if parents.get(v) is None
    ]
    while state:
        v, expanded = state.pop()
        if expanded:
            order.append(v)
            continue
        state.append((v, True))
        for child in children.get(v, ()):
            state.append((child, False))
    for v in order:  # children before parents
        kids = children.get(v, ())
        height[v] = 1 + max((height[c] for c in kids), default=-1)
        for child in kids:
            acc[v] = _combine(combine, acc[v], acc[child])

    results: Dict[int, Optional[int]] = {}
    rounds = 2  # the unconditional round-2 wake-up of every node
    stack: List[Tuple[int, Optional[int]]] = []
    for v in topology.nodes:
        if parents.get(v) is None:
            if children.get(v):
                rounds = max(rounds, 2 + 2 * height[v])
            stack.append((v, acc[v]))
    while stack:
        v, value = stack.pop()
        results[v] = value
        for child in children.get(v, ()):
            stack.append((child, value))
    return results, rounds, 3 * non_roots
