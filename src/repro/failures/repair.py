"""Incremental shortcut repair after edge failures.

A constructed shortcut (Theorem 3 / Appendix A) is a per-part object:
part ``P_i`` owns ``G[P_i]`` plus its frozen tree subgraph ``H_i``.  An
edge-failure set therefore breaks a *bounded* amount of structure — the
parts it splits, the parts whose ``H_i`` lost an edge, and (when a tree
edge died) the spanning tree itself — while every other part's frozen
subgraph remains a valid shortcut verbatim.  PR 3's doubling warm start
(:class:`~repro.core.find_shortcut.ConstructionState`) is exactly the
vehicle for that observation: :func:`repair_shortcut` re-derives the
surviving instance, patches the spanning tree in place when a tree
edge died (:func:`patch_spanning_tree` — a full BFS rebuild would
invalidate every ``H_i`` whose path moved), freezes the untouched
parts into a warm-start state, and runs the Appendix A search *only
over the broken parts*, starting from the old ``(c, b)`` instead of
``(1, 1)``.

:func:`rebuild_shortcut` is the comparison twin — the same surviving
instance, constructed from scratch — and :func:`repair_vs_rebuild`
runs both and differentially ==-verifies the repaired shortcut against
the rebuilt one: both must validate in the survivor and pass a full
Verification sweep at their respective ``3b`` thresholds.  The ledger
comparison (repair rounds ≪ rebuild rounds) is what experiment E19
measures.

Repair requires a *connected* survivor: a disconnected one has no
spanning tree to restrict shortcuts to.  Disconnecting scenarios are
first-class elsewhere — see :meth:`Topology.components
<repro.congest.topology.Topology.components>` and the components-aware
application results exercised by :mod:`repro.failures.degradation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.congest.topology import Edge, Topology, canonical_edge
from repro.congest.trace import RoundLedger
from repro.core.doubling import DoublingResult, Trial, find_shortcut_doubling
from repro.core.find_shortcut import ConstructionState, FindShortcutResult
from repro.core.shortcut import TreeRestrictedShortcut
from repro.core.verification import verification
from repro.errors import ShortcutError, TopologyError
from repro.graphs.csr import adjacency_csr, bfs_spanning_tree
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree

OldResult = Union[DoublingResult, FindShortcutResult]


def split_partition(
    topology: Topology, partition: Partition
) -> Tuple[Partition, Tuple[int, ...]]:
    """Split every part into its connected components in ``topology``.

    Returns ``(new_partition, part_origin)`` where
    ``part_origin[new] = old`` maps each new part to the part it came
    from.  New parts are ordered by ``(old index, minimum node)``, so
    an already-valid partition maps to itself with the identity origin.
    Runs one flood per part over the cached CSR — O(n + m) total.
    """
    csr = adjacency_csr(topology)
    indptr, indices = csr.indptr, csr.indices
    old_of = partition.labels
    new_of = [-1] * topology.n
    origin: List[int] = []
    order = sorted(
        (v for v in range(topology.n) if old_of[v] != -1),
        key=lambda v: (old_of[v], v),
    )
    for start in order:
        if new_of[start] != -1:
            continue
        new_index = len(origin)
        origin.append(old_of[start])
        new_of[start] = new_index
        stack = [start]
        while stack:
            u = stack.pop()
            for k in range(indptr[u], indptr[u + 1]):
                w = indices[k]
                if new_of[w] == -1 and old_of[w] == old_of[start]:
                    new_of[w] = new_index
                    stack.append(w)
    return Partition.from_dense_labels(new_of, len(origin)), tuple(origin)


@dataclass(frozen=True)
class RepairResult:
    """Outcome of :func:`repair_shortcut` (or its rebuild twin).

    ``frozen_parts`` are the new-partition parts whose old subgraphs
    were carried over untouched; ``repaired_parts`` were re-run through
    the construction.  For :func:`rebuild_shortcut`, ``frozen_parts``
    is empty — everything was constructed from scratch.
    """

    survivor: Topology
    tree: SpanningTree
    partition: Partition
    part_origin: Tuple[int, ...]
    frozen_parts: FrozenSet[int]
    repaired_parts: FrozenSet[int]
    tree_rebuilt: bool
    result: FindShortcutResult
    trials: Tuple[Trial, ...]
    ledger: RoundLedger

    @property
    def shortcut(self) -> TreeRestrictedShortcut:
        return self.result.shortcut

    @property
    def c(self) -> int:
        return self.result.c

    @property
    def b(self) -> int:
        return self.result.b

    @property
    def rounds(self) -> int:
        """Total rounds including synchronisation barriers."""
        return self.ledger.total_rounds


def patch_spanning_tree(
    survivor: Topology,
    old_tree: SpanningTree,
    failed: FrozenSet[Edge],
) -> Tuple[SpanningTree, int]:
    """Reattach the subtrees orphaned by failed tree edges.

    Cutting the failed edges splits ``old_tree`` into the root component
    plus one orphan subtree per cut.  Each merge wave re-roots every
    orphan at a node with a surviving edge leaving its component and
    hangs it off that edge — all orphans in parallel, as in a Borůvka
    round, so ``waves <= ceil(log2(orphans + 1))``.  Deterministic: each
    orphan picks its minimum outgoing canonical edge.

    Unlike a BFS rebuild, the patched tree keeps *every* surviving old
    tree edge, so a frozen part's ``H_i`` stays valid unless the failure
    hit it directly — that is what makes repair incremental.  The price
    is height: a detour can make the patched tree deeper than a fresh
    BFS tree (bounded by ``old height + orphan diameter`` per wave).

    Returns ``(tree, waves)``; the caller charges one convergecast +
    broadcast per wave.  Raises :class:`~repro.errors.TopologyError` if
    an orphan has no outgoing edge (disconnected survivor).
    """
    n = old_tree.n
    parent: List[int] = [
        -1 if old_tree.parent(v) is None else old_tree.parent(v)
        for v in range(n)
    ]
    cuts = 0
    for edge in failed:
        if edge in old_tree.edges:
            parent[old_tree.lower_endpoint(edge)] = -1
            cuts += 1
    if cuts == 0:
        return old_tree, 0

    waves = 0
    while True:
        # Label every node with its forest root (the component id).
        comp = [-1] * n
        for v in range(n):
            if comp[v] != -1:
                continue
            path = [v]
            u = v
            while parent[u] != -1 and comp[parent[u]] == -1:
                u = parent[u]
                path.append(u)
            label = comp[parent[u]] if parent[u] != -1 else u
            for w in path:
                comp[w] = label
        root_comp = comp[old_tree.root]
        orphans = sorted(set(comp) - {root_comp})
        if not orphans:
            break
        waves += 1
        # Each orphan's minimum outgoing surviving edge, chosen as one
        # parallel min-convergecast per orphan subtree.
        best: dict = {}
        for u, v in survivor.edges:
            cu, cv = comp[u], comp[v]
            if cu == cv:
                continue
            for attach, outside in ((u, v), (v, u)):
                orphan = comp[attach]
                if orphan == root_comp:
                    continue
                choice = (u, v, attach, outside)
                if orphan not in best or choice < best[orphan]:
                    best[orphan] = choice
        # Apply the merges with a union-find guard: two orphans picking
        # each other over the same edge would otherwise form a cycle, so
        # the second attachment of any pair is deferred to the next wave
        # (it then sees the merged component and picks a new edge).
        dsu = {c: c for c in set(comp)}

        def find(c: int) -> int:
            while dsu[c] != c:
                dsu[c] = dsu[dsu[c]]
                c = dsu[c]
            return c

        merged = False
        for orphan in orphans:
            choice = best.get(orphan)
            if choice is None:
                raise TopologyError(
                    "cannot patch the spanning tree: an orphaned subtree "
                    "has no surviving edge out — the survivor is "
                    "disconnected"
                )
            _u, _v, attach, outside = choice
            if find(orphan) == find(comp[outside]):
                continue
            # Re-root the orphan at ``attach``: reverse the parent
            # pointers on the path attach -> orphan root, then hang
            # ``attach`` off ``outside``.
            prev = -1
            node = attach
            while node != -1:
                nxt = parent[node]
                parent[node] = prev
                prev = node
                node = nxt
            parent[attach] = outside
            dsu[find(orphan)] = find(comp[outside])
            merged = True
        if not merged:
            raise TopologyError("tree patch failed to make progress")
    return SpanningTree(old_tree.root, parent), waves


def _unwrap(old: OldResult) -> FindShortcutResult:
    if isinstance(old, DoublingResult):
        return old.result
    if isinstance(old, FindShortcutResult):
        return old
    raise ShortcutError(
        f"repair needs a FindShortcutResult or DoublingResult, got "
        f"{type(old).__name__}"
    )


def _derive_survivor(
    topology: Topology,
    failed_edges: Iterable[Tuple[int, int]],
) -> Tuple[Topology, FrozenSet[Edge]]:
    """Shared survivor derivation of repair and rebuild.

    Canonicalises the failure set, deletes it array-natively, and
    rejects a disconnected survivor (no spanning tree to restrict
    shortcuts to) with a pointer at the components-aware machinery.
    """
    failed = frozenset(canonical_edge(u, v) for u, v in failed_edges)
    survivor = topology.delete_edges(failed)
    if not survivor.is_connected:
        components = survivor.components()
        raise TopologyError(
            f"failure set disconnects the topology into "
            f"{len(components)} components; repair needs a connected "
            f"survivor — split it with component_subtopologies() or use "
            f"the components-aware application results"
        )
    return survivor, failed


@dataclass(frozen=True)
class SearchSetup:
    """Everything a repair (or rebuild) needs *before* the doubling
    search: the derived survivor instance, the pre-charged ledger, and
    the warm-start inputs.  :func:`prepare_repair` /
    :func:`prepare_rebuild` build one, the doubling search consumes it,
    and :func:`finish_search` assembles the :class:`RepairResult`.
    """

    survivor: Topology
    tree: SpanningTree
    partition: Partition
    part_origin: Tuple[int, ...]
    frozen_parts: FrozenSet[int]
    tree_rebuilt: bool
    ledger: RoundLedger
    state: Optional[ConstructionState]
    c_start: int
    b_start: int


def prepare_repair(
    topology: Topology,
    old: OldResult,
    failed_edges: Iterable[Tuple[int, int]],
) -> SearchSetup:
    """Derive the warm-started search instance for a repair.

    Patches the spanning tree, splits the partition, charges the
    failure-report (and tree-patch) phases, and freezes every part the
    failure did not touch into a
    :class:`~repro.core.find_shortcut.ConstructionState`.
    """
    old_result = _unwrap(old)
    survivor, failed = _derive_survivor(topology, failed_edges)
    old_tree = old_result.shortcut.tree
    tree, patch_waves = patch_spanning_tree(survivor, old_tree, failed)
    tree_rebuilt = patch_waves > 0
    partition, origin = split_partition(survivor, old_result.shortcut.partition)
    ledger = RoundLedger(barrier_depth=tree.height)
    # Every node reports its dead incident edges up the tree: one
    # convergecast + broadcast of the "repair mode" decision.
    ledger.charge_phase("repair/failure-report", 2 * tree.height + 1, 2 * survivor.m)
    if patch_waves:
        ledger.charge_phase(
            "repair/tree-patch",
            patch_waves * (2 * tree.height + 1),
            patch_waves * 2 * survivor.m,
        )

    split_origins = _split_origins(origin)
    old_shortcut = old_result.shortcut
    tree_edges = tree.edges
    subgraphs: List[FrozenSet[Edge]] = []
    remaining = set()
    for new_index, old_index in enumerate(origin):
        subgraph = old_shortcut.subgraph(old_index)
        reusable = (
            old_index not in split_origins
            and not (subgraph & failed)
            and all(edge in tree_edges for edge in subgraph)
        )
        if reusable:
            subgraphs.append(subgraph)
        else:
            subgraphs.append(frozenset())
            remaining.add(new_index)
    state = ConstructionState(
        remaining=frozenset(remaining),
        shortcut=TreeRestrictedShortcut(tree, partition, subgraphs),
        good_history=(),
    )
    return SearchSetup(
        survivor=survivor,
        tree=tree,
        partition=partition,
        part_origin=origin,
        frozen_parts=frozenset(range(partition.size)) - remaining,
        tree_rebuilt=tree_rebuilt,
        ledger=ledger,
        state=state,
        c_start=old_result.c,
        b_start=old_result.b,
    )


def prepare_rebuild(
    topology: Topology,
    old: OldResult,
    failed_edges: Iterable[Tuple[int, int]],
) -> SearchSetup:
    """Derive the from-scratch search instance for a rebuild: a fresh
    BFS tree, no frozen parts, estimates back at ``(1, 1)``."""
    old_result = _unwrap(old)
    survivor, failed = _derive_survivor(topology, failed_edges)
    old_tree = old_result.shortcut.tree
    tree = bfs_spanning_tree(survivor, old_tree.root)
    tree_rebuilt = any(edge in old_tree.edges for edge in failed)
    partition, origin = split_partition(survivor, old_result.shortcut.partition)
    ledger = RoundLedger(barrier_depth=tree.height)
    ledger.charge_phase(
        "rebuild/failure-report", 2 * tree.height + 1, 2 * survivor.m
    )
    # A full rebuild always reconstructs its BFS tree: it cannot know
    # the old tree survived without checking, and the check is the
    # build.
    ledger.charge_phase("rebuild/bfs", tree.height + 1, 2 * survivor.m)
    return SearchSetup(
        survivor=survivor,
        tree=tree,
        partition=partition,
        part_origin=origin,
        frozen_parts=frozenset(),
        tree_rebuilt=tree_rebuilt,
        ledger=ledger,
        state=None,
        c_start=1,
        b_start=1,
    )


def finish_search(setup: SearchSetup, outcome: DoublingResult) -> RepairResult:
    """Assemble the :class:`RepairResult` from a completed doubling
    search on a :class:`SearchSetup` instance."""
    return RepairResult(
        survivor=setup.survivor,
        tree=setup.tree,
        partition=setup.partition,
        part_origin=setup.part_origin,
        frozen_parts=setup.frozen_parts,
        repaired_parts=frozenset(range(setup.partition.size))
        - setup.frozen_parts,
        tree_rebuilt=setup.tree_rebuilt,
        result=outcome.result,
        trials=outcome.trials,
        ledger=setup.ledger,
    )


def repair_shortcut(
    topology: Topology,
    old: OldResult,
    failed_edges: Iterable[Tuple[int, int]],
    *,
    seed: int = 0,
    use_fast: bool = True,
    mode: Optional[str] = None,
    max_trials: int = 64,
) -> RepairResult:
    """Repair ``old`` after ``failed_edges`` die, reusing frozen parts.

    A new part stays frozen exactly when its originating part was not
    split, its frozen subgraph lost no edge, and that subgraph still
    lives inside the (possibly patched) spanning tree; everything else
    goes back through the Appendix A search, warm-started at the old
    ``(c, b)`` estimates instead of ``(1, 1)``.  The carried state is
    revalidated inside :func:`~repro.core.find_shortcut.find_shortcut`
    as well, so repair cannot smuggle a stale subgraph past the
    construction even if this bookkeeping and the topology disagree.

    A dead *tree* edge does not trigger a full BFS rebuild: the
    orphaned subtrees are re-hung on surviving edges in place
    (:func:`patch_spanning_tree`), so every surviving old tree edge —
    and hence every ``H_i`` the failure did not hit — stays valid.

    The ledger charges the failure-report convergecast, one
    convergecast + broadcast per tree-patch merge wave, and then
    whatever the warm-started search itself costs.
    """
    setup = prepare_repair(topology, old, failed_edges)
    outcome = find_shortcut_doubling(
        setup.survivor,
        setup.tree,
        setup.partition,
        c_start=setup.c_start,
        b_start=setup.b_start,
        use_fast=use_fast,
        seed=seed,
        ledger=setup.ledger,
        mode=mode,
        initial_state=setup.state,
        max_trials=max_trials,
    )
    return finish_search(setup, outcome)


def rebuild_shortcut(
    topology: Topology,
    old: OldResult,
    failed_edges: Iterable[Tuple[int, int]],
    *,
    seed: int = 0,
    use_fast: bool = True,
    mode: Optional[str] = None,
    max_trials: int = 64,
) -> RepairResult:
    """The from-scratch twin of :func:`repair_shortcut`.

    Same survivor and the same split partition — but the spanning tree
    is a fresh BFS tree (a rebuild knows nothing worth patching), no
    parts are frozen, and the doubling search restarts at ``(1, 1)``.
    This is what repair is differentially verified against and what the
    E19 ledger comparison measures repair's advantage over.
    """
    setup = prepare_rebuild(topology, old, failed_edges)
    outcome = find_shortcut_doubling(
        setup.survivor,
        setup.tree,
        setup.partition,
        use_fast=use_fast,
        seed=seed,
        ledger=setup.ledger,
        mode=mode,
        max_trials=max_trials,
    )
    return finish_search(setup, outcome)


def _split_origins(origin: Tuple[int, ...]) -> FrozenSet[int]:
    seen = set()
    split = set()
    for old_index in origin:
        if old_index in seen:
            split.add(old_index)
        seen.add(old_index)
    return frozenset(split)


def assert_valid(survivor: Topology, repaired: RepairResult) -> None:
    """Raise unless a repair (or rebuild) outcome is a valid shortcut.

    Checks the Definition 2 structure (tree inside the survivor, parts
    connected) and runs a full Verification sweep at the result's
    ``3b`` threshold — every part must come back good.  Shared by the
    differential tests and :func:`repair_vs_rebuild`.
    """
    shortcut = repaired.shortcut
    shortcut.validate_in(survivor)
    outcome = verification(
        survivor,
        shortcut,
        3 * repaired.b,
        ledger=RoundLedger(barrier_depth=repaired.tree.height),
        mode="direct",
    )
    bad = frozenset(range(shortcut.size)) - outcome.good_parts
    if bad:
        raise ShortcutError(
            f"repaired shortcut fails verification at 3b={3 * repaired.b} "
            f"for parts {sorted(bad)[:8]}"
        )


@dataclass(frozen=True)
class RepairComparison:
    """Repair and rebuild of the same failure, both ==-verified."""

    repair: RepairResult
    rebuild: RepairResult

    @property
    def rounds_speedup(self) -> float:
        """Rebuild rounds over repair rounds (>= 1 when repair wins)."""
        return self.rebuild.rounds / max(1, self.repair.rounds)


def repair_vs_rebuild(
    topology: Topology,
    old: OldResult,
    failed_edges: Iterable[Tuple[int, int]],
    *,
    seed: int = 0,
    use_fast: bool = True,
    mode: Optional[str] = None,
) -> RepairComparison:
    """Run repair and full rebuild on the same failure set and
    ==-verify both outcomes in the survivor.

    Both runs see the same survivor, tree, and split partition, so the
    only difference is the warm start — the comparison isolates exactly
    what incremental repair buys.
    """
    repaired = repair_shortcut(
        topology, old, failed_edges, seed=seed, use_fast=use_fast, mode=mode
    )
    rebuilt = rebuild_shortcut(
        topology, old, failed_edges, seed=seed, use_fast=use_fast, mode=mode
    )
    assert_valid(repaired.survivor, repaired)
    assert_valid(rebuilt.survivor, rebuilt)
    return RepairComparison(repair=repaired, rebuild=rebuilt)
