"""Direct construction kernels — the simulation-free Theorem 3 stack.

The FindShortcut pipeline (CoreFast/CoreSlow → Verification → freeze,
looped O(log N) times, wrapped by the Appendix A doubling search) is a
deterministic function of ``(topology, tree, partition, seeds)``: every
simulated phase computes a quantity that a centralized bottom-up pass
over the cached CSR/Euler-tour arrays (:mod:`repro.graphs.csr`) can
reproduce bit-for-bit.  This module mirrors — one layer up — the
engine split of :mod:`repro.congest.engine` and the quality-kernel
split of :mod:`repro.core.quality_fast`:

* ``mode="simulate"`` (default) runs the node programs on the CONGEST
  simulator — the executable specification;
* ``mode="direct"`` computes the same outputs at array speed and
  charges the :class:`~repro.congest.trace.RoundLedger` from the
  analytic cost model below.

Selection is threaded through :func:`~repro.core.find_shortcut.find_shortcut`,
:func:`~repro.core.doubling.find_shortcut_doubling`,
:func:`~repro.core.verification.verification`,
:func:`~repro.core.core_slow.core_slow` and
:func:`~repro.core.core_fast.core_fast` exactly like ``engine=``: a
``mode=`` keyword per call site, and the context-scoped
:data:`MODE` axis (:func:`using_mode`, :func:`construct_mode_parameter`)
whose overrides hold for the enclosed block on the current thread only.

Equivalence contract
--------------------

Direct mode reproduces the simulated pipeline *bit-for-bit* on every
combinatorial output: shortcut edge maps, unusable edge sets,
``good_history``, iteration counts, verification count maps, and the
doubling ``trials`` tuple.  The differential suite in
``tests/core/test_construct_equivalence.py`` enforces this across the
planar, torus, hub, and Delaunay families, exactly as the
engine-equivalence suite licenses the batched engine.

The analytic round ledger
-------------------------

Direct mode charges the ledger per phase from a documented cost model,
cross-checked in the same differential suite against the simulated
engines' actual round/message counts:

``share-randomness``
    Exact.  Pipelining ``k = max(1, ceil(log2 n))`` chunks down a
    depth-``D`` tree delivers the last chunk at round ``D + k - 1``;
    every non-root node receives each chunk once (``k(n-1)``
    messages).

``core-slow`` / ``core-fast/sample``
    Exact.  The streaming recurrence of Algorithm 1 is closed-form:
    a node seals one round after the last child's ``done`` marker
    (``S(v) = max_child(done(child) + 1)``, 0 at leaves), streams its
    ``Q(v)`` ids (0 when the edge is unusable), and sends ``done`` at
    ``done(v) = S(v) + Q(v)``.  Total rounds are the root's last
    ``done`` delivery; messages are ``sum(Q(v) + 1)`` over non-root
    nodes.

``core-fast/flood``
    Exact.  The min-first flood of Algorithm 2 steps 3–5 has no closed
    form (forwarding order depends on arrival order), so the kernel
    replays it as a centralized per-round event loop over int heaps —
    identical dynamics, none of the engine machinery.

``verification``
    Analytic upper bound (the Lemma 3 accounting).  One run of the
    supergraph protocol is ``A = 6·b' + 4`` block aggregates (each one
    convergecast + one broadcast, Lemma 2: ``<= D + c + 2`` rounds and
    ``<= Σ|H_i|`` messages each), ``X = 4·b' + 1`` one-round exchanges
    (``<=`` the part-internal directed edge count in messages), plus
    one neighbor-discovery round (``2m`` messages):

    ``rounds <= 1 + 2A(D + c + 2) + X``

    where ``c`` is the tentative shortcut's edge congestion.  The
    differential suite asserts the bound dominates the simulated
    totals on every family while the exact phases match to the round.

``termination-check``
    Identical in both modes: one convergecast/broadcast barrier over
    ``T``, ``2·depth(T) + 1`` rounds per iteration.

Everything here is plain Python over flat arrays — the same trade the
batched engine and the quality kernels make.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.axes import Axis
from repro.congest.randomness import (
    draw_shared_seed,
    seed_chunk_count,
    share_randomness,
)
from repro.congest.topology import Edge, Topology
from repro.congest.trace import RoundLedger
from repro.core.core_slow import CoreOutcome
from repro.core.quality_fast import _find, block_tops
from repro.core.shortcut import TreeRestrictedShortcut, pack_children
from repro.errors import ShortcutError
from repro.graphs.csr import tree_arrays
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree

# ----------------------------------------------------------------------
# The mode= axis (simulate vs direct)
# ----------------------------------------------------------------------

MODES: Tuple[str, ...] = ("simulate", "direct")

MODE = Axis.of_choices("mode", "simulate", MODES, ShortcutError)

get_default_mode = MODE.get
using_mode = MODE.using
resolve_mode = MODE.resolve
construct_mode_parameter = MODE.parameter("construct_mode")


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------


def share_randomness_cost(n: int, height: int) -> Tuple[int, int]:
    """Exact (rounds, messages) of the shared-seed broadcast."""
    chunks = seed_chunk_count(n)
    if n <= 1:
        return 0, 0
    return height + chunks - 1, chunks * (n - 1)


def _shared_seed(
    topology: Topology, tree: SpanningTree, seed: int, ledger: RoundLedger, mode: str
) -> int:
    """Draw the shared seed and charge its distribution on ``ledger``.

    ``"direct"`` (a construction mode or an application backend) draws
    the seed centrally and charges :func:`share_randomness_cost`;
    ``"simulate"`` runs the share-randomness program, which charges its
    measured cost.  The one draw-and-charge site of the construction
    and the applications.
    """
    if mode == "direct":
        rounds, messages = share_randomness_cost(topology.n, tree.height)
        ledger.charge_phase("share-randomness", rounds, messages)
        return draw_shared_seed(topology.n, seed)
    shared_seed, _result = share_randomness(topology, tree, seed=seed, ledger=ledger)
    return shared_seed


def verification_cost(
    b_limit: int,
    height: int,
    task_congestion: int,
    edge_slots: int,
    part_edges: int,
    m: int,
) -> Tuple[int, int]:
    """Modeled (rounds, messages) upper bound of one Verification run.

    ``task_congestion`` is the tentative shortcut's edge congestion
    (blocks per tree edge), ``edge_slots`` its total assigned edge
    slots ``Σ|H_i|``, ``part_edges`` the directed part-internal edge
    count, ``m`` the topology's edge count.  See the module docstring
    for the derivation.
    """
    if b_limit < 1:
        return 1, 2 * m
    aggregates = 6 * b_limit + 4
    exchanges = 4 * b_limit + 1
    rounds = 1 + aggregates * 2 * (height + task_congestion + 2) + exchanges
    messages = 2 * m + aggregates * 2 * edge_slots + exchanges * part_edges
    return rounds, messages


def part_internal_edges(topology: Topology, partition: Partition) -> int:
    """Directed edges with both endpoints in the same part.

    The per-instance constant feeding the exchange term of
    :func:`verification_cost`; read off the same-part neighbor scan of
    :func:`repro.core.partwise_fast.part_scan_cached` (one cached scan
    per (topology, labels) serves both layers).
    """
    from repro.core.partwise_fast import part_scan_cached

    return part_scan_cached(topology, partition).part_edges


def _canonical_shortcut(
    tree: SpanningTree,
    partition: Partition,
    ids_by_node: Iterable[Tuple[int, Iterable[int]]],
) -> TreeRestrictedShortcut:
    """Build from ``(child node, part ids using its parent edge)`` pairs.

    Every node is a non-root tree node and every id a part label, so
    the pairs are the shortcut's ``(part, child)`` slots as they stand
    and skip :class:`TreeRestrictedShortcut`'s validation.
    """
    per_part: List[List[int]] = [[] for _ in range(partition.size)]
    for v, ids in ids_by_node:
        for part in ids:
            per_part[part].append(v)
    return TreeRestrictedShortcut._from_children(
        tree, partition, *pack_children(per_part)
    )


# ----------------------------------------------------------------------
# Upward streaming sweep (CoreSlow / CoreFast Phase A)
# ----------------------------------------------------------------------


def _upward_sweep(
    tree: SpanningTree,
    own: List[Optional[int]],
    cap: int,
) -> Tuple[Dict[int, Set[int]], Set[Edge], List[bool], int, int]:
    """One Algorithm 1 sweep: bottom-up id counting with a cap.

    ``own[v]`` is the id node ``v`` injects (``None`` to relay only).
    Returns ``(kept, unusable_edges, unusable_by_node, rounds,
    messages)``: ``kept[v]`` is the non-empty id set a usable parent
    edge of ``v`` carries, and rounds/messages are the *exact* cost of
    the simulated streaming program (see the module docstring's
    recurrence).
    """
    arrays = tree_arrays(tree)
    parent = arrays.parent
    n = arrays.n
    visible: List[Optional[Set[int]]] = [None] * n
    done: List[int] = [0] * n
    seal: List[int] = [0] * n
    unusable_by_node = [False] * n
    kept: Dict[int, Set[int]] = {}
    unusable: Set[Edge] = set()
    messages = 0

    for v in arrays.bottom_up():
        ids: Set[int] = set()
        if own[v] is not None:
            ids.add(own[v])
        s = 0
        for child in tree.children(v):
            child_visible = visible[child]
            if child_visible:
                ids |= child_visible
            visible[child] = None  # free as we go
            arrival = done[child] + 1
            if arrival > s:
                s = arrival
        seal[v] = s
        if parent[v] < 0:
            continue
        if len(ids) > cap:
            unusable_by_node[v] = True
            unusable.add(tree.parent_edge(v))
            visible[v] = set()
            q = 0
        else:
            q = len(ids)
            visible[v] = ids
            if ids:
                kept[v] = ids
        done[v] = s + q
        messages += q + 1  # the streamed ids plus the done marker

    root_children = tree.children(tree.root)
    rounds = max((done[c] + 1 for c in root_children), default=0)
    return kept, unusable, unusable_by_node, rounds, messages


def core_slow_direct(
    topology: Topology,
    tree: SpanningTree,
    partition: Partition,
    c: int,
    *,
    participating: Optional[Iterable[int]] = None,
    ledger: Optional[RoundLedger] = None,
) -> CoreOutcome:
    """Direct twin of :func:`repro.core.core_slow.core_slow`.

    Identical outputs *and* identical rounds/messages: the streaming
    recurrence is exact, so the ledger entry matches what the simulated
    program would have charged.
    """
    if c < 1:
        raise ShortcutError("congestion parameter c must be >= 1")
    participating_set = set(participating) if participating is not None else None
    labels = partition.labels
    own: List[Optional[int]] = [None] * topology.n
    for v in range(topology.n):
        part = labels[v]
        if part >= 0 and (participating_set is None or part in participating_set):
            own[v] = part
    kept, unusable, _by_node, rounds, messages = _upward_sweep(tree, own, 2 * c)
    shortcut = _canonical_shortcut(tree, partition, kept.items())
    if ledger is not None:
        ledger.charge_phase("core-slow", rounds, messages)
    return CoreOutcome(
        shortcut=shortcut,
        unusable=frozenset(unusable),
        rounds=rounds,
        messages=messages,
    )


# ----------------------------------------------------------------------
# Min-first flood (CoreFast Phase B)
# ----------------------------------------------------------------------


def _flood_up(
    tree: SpanningTree,
    own: List[Optional[int]],
    usable: List[bool],
) -> Tuple[List[Set[int]], int, int]:
    """Centralized replay of :class:`~repro.core.core_fast.FloodUpAlgorithm`.

    ``usable[v]`` says whether ``v`` may forward over its parent edge.
    Returns ``(q_ids per node, rounds, messages)`` — the exact values a
    simulated run produces: per round every forwarding node sends its
    smallest not-yet-forwarded id and re-wakes while more remain.
    """
    arrays = tree_arrays(tree)
    parent = arrays.parent
    n = arrays.n
    q_ids: List[Set[int]] = [set() for _ in range(n)]
    heaps: List[List[int]] = [[] for _ in range(n)]
    messages = 0

    # Round 0 (on_start): inject own ids and pump once.
    next_arrivals: Dict[int, List[int]] = {}
    next_woken: Set[int] = set()
    for v in range(n):
        part = own[v]
        if part is None:
            continue
        q_ids[v].add(part)
        if usable[v]:
            # The only pending id; forwarded immediately, no wake-up.
            next_arrivals.setdefault(parent[v], []).append(part)
            messages += 1

    rounds = 0
    current_round = 0
    while next_arrivals or next_woken:
        current_round += 1
        arrivals, next_arrivals = next_arrivals, {}
        woken, next_woken = next_woken, set()
        active = woken.union(arrivals)
        for v in active:
            pending = heaps[v]
            seen = q_ids[v]
            if v in arrivals:
                if usable[v]:
                    for incoming in arrivals[v]:
                        if incoming not in seen:
                            seen.add(incoming)
                            heapq.heappush(pending, incoming)
                else:
                    seen.update(arrivals[v])
            if usable[v] and pending:
                smallest = heapq.heappop(pending)
                next_arrivals.setdefault(parent[v], []).append(smallest)
                messages += 1
                if pending:
                    next_woken.add(v)
        rounds = current_round
    return q_ids, rounds, messages


def core_fast_direct(
    topology: Topology,
    tree: SpanningTree,
    partition: Partition,
    c: int,
    shared_seed: int,
    *,
    gamma: float = 2.0,
    participating: Optional[Iterable[int]] = None,
    ledger: Optional[RoundLedger] = None,
) -> CoreOutcome:
    """Direct twin of :func:`repro.core.core_fast.core_fast`.

    Phase A is the sampled upward sweep (exact recurrence), Phase B the
    centralized flood replay; outputs, rounds, and messages all match
    the simulated run bit-for-bit.
    """
    from repro.core.core_fast import active_parts, sampling_parameters

    p, tau = sampling_parameters(topology.n, c, gamma)
    participating_set = (
        set(participating) if participating is not None else set(range(partition.size))
    )
    active = active_parts(partition, shared_seed, p, participating_set)
    labels = partition.labels
    n = topology.n

    own_active: List[Optional[int]] = [None] * n
    own_all: List[Optional[int]] = [None] * n
    for v in range(n):
        part = labels[v]
        if part < 0:
            continue
        if part in active:
            own_active[v] = part
        if part in participating_set:
            own_all[v] = part
    _kept_a, unusable, unusable_by_node, rounds_a, messages_a = _upward_sweep(
        tree, own_active, tau - 1
    )

    parent = tree_arrays(tree).parent
    usable = [parent[v] >= 0 and not unusable_by_node[v] for v in range(n)]
    q_ids, rounds_b, messages_b = _flood_up(tree, own_all, usable)
    shortcut = _canonical_shortcut(
        tree,
        partition,
        ((v, q_ids[v]) for v in range(n) if usable[v] and q_ids[v]),
    )
    if ledger is not None:
        ledger.charge_phase("core-fast/sample", rounds_a, messages_a)
        ledger.charge_phase("core-fast/flood", rounds_b, messages_b)
    return CoreOutcome(
        shortcut=shortcut,
        unusable=frozenset(unusable),
        rounds=rounds_a + rounds_b,
        messages=messages_a + messages_b,
    )


# ----------------------------------------------------------------------
# Verification (Lemma 3) — block counting from block roots
# ----------------------------------------------------------------------


def verification_counts_direct(
    topology: Topology,
    shortcut: TreeRestrictedShortcut,
    b_limit: int,
) -> Dict[int, Optional[int]]:
    """Direct twin of :meth:`~repro.core.partwise.PartwiseEngine.count_blocks`.

    Reproduces the simulated protocol's per-part answer exactly: a part
    whose communication subgraph ``G[P_i] + H_i`` splits into several
    components gets each component's block count delivered to that
    component's members only (the supergraph protocol cannot bridge
    components), and a component with more than ``b_limit`` blocks
    withholds its verdict — both collapse to the same reduction the
    simulated engine applies over per-member verdicts.

    A block of ``H_i`` is a subtree of ``T`` and a tree edge is named by
    its child, so a member's block is keyed by its topmost
    ancestor-or-self reachable through ``H_i``
    (:func:`~repro.core.quality_fast.block_tops` over the part's slot
    children).  The components of ``G[P_i]`` come from the cached
    :func:`~repro.core.partwise_fast.part_scan_cached`: a part with one
    of them answers with its number of distinct keys, and only split
    parts merge their components along shared blocks.
    """
    from repro.core.partwise_fast import part_scan_cached

    partition = shortcut.partition
    if b_limit < 1:
        return {index: None for index in range(partition.size)}
    scan = part_scan_cached(topology, partition)
    parent = tree_arrays(shortcut.tree).parent
    per_part: Dict[int, Optional[int]] = {}

    for index in range(partition.size):
        members = partition.members(index)
        top = block_tops(parent, shortcut.part_children(index))
        if index not in scan.split:
            count = len({top.get(v, v) for v in members})
            per_part[index] = count if 0 < count <= b_limit else None
            continue
        # Communication components: the components of G[P_i] merged
        # along co-blocked members (a block's members are one supernode).
        component = scan.component
        merged = {component[v]: component[v] for v in members}
        block_rep: Dict[int, int] = {}
        for v in members:
            rep = block_rep.setdefault(top.get(v, v), component[v])
            ru, rv = _find(merged, rep), _find(merged, component[v])
            if ru != rv:
                merged[ru] = rv
        comp_blocks: Dict[int, Set[int]] = {}
        for v in members:
            comp_blocks.setdefault(_find(merged, component[v]), set()).add(
                top.get(v, v)
            )
        verdict: Dict[int, Optional[int]] = {}
        for v in members:
            count = len(comp_blocks[_find(merged, component[v])])
            verdict[v] = count if count <= b_limit else None
        # The exact reduction the simulated engine applies.
        member_verdicts = {verdict.get(v) for v in members}
        if None in member_verdicts or not member_verdicts:
            per_part[index] = None
        else:
            per_part[index] = member_verdicts.pop()
    return per_part


def charge_verification_terms(
    ledger: Optional[RoundLedger],
    b_limit: int,
    height: int,
    task_congestion: int,
    edge_slots: int,
    part_edges: int,
    m: int,
) -> None:
    """Charge :func:`verification_cost` from precomputed terms.

    Split out of :func:`charge_verification_model` so array-native
    callers (the batch ladder) can charge the identical bound without
    materialising a tentative shortcut object per iteration.
    """
    if ledger is None:
        return
    rounds, messages = verification_cost(
        b_limit, height, task_congestion, edge_slots, part_edges, m
    )
    ledger.charge("verification", rounds, messages)


def charge_verification_model(
    ledger: Optional[RoundLedger],
    topology: Topology,
    shortcut: TreeRestrictedShortcut,
    b_limit: int,
) -> None:
    """Charge the Lemma 3 cost-model bound for one Verification run."""
    if ledger is None:
        return
    from repro.core.quality_fast import shortcut_congestion

    charge_verification_terms(
        ledger,
        b_limit,
        shortcut.tree.height,
        shortcut_congestion(shortcut),
        len(shortcut.children),
        part_internal_edges(topology, shortcut.partition),
        topology.m,
    )
