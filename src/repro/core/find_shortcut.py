"""FindShortcut — the main construction (Theorem 3).

Repeat until every part is *good*:

1. run a core subroutine (CoreFast by default, CoreSlow for the
   deterministic variant) on the not-yet-good parts — it produces a
   tentative shortcut with congestion O(c) in which at least half of
   the participating parts have block parameter at most ``3b``;
2. run Verification with threshold ``3b``; freeze the subgraphs of the
   parts that pass and remove them.

Each iteration halves the number of unfinished parts (w.h.p. for
CoreFast, deterministically for CoreSlow), so there are O(log N)
iterations; the frozen subgraphs accumulate congestion O(c log N)
while every part's block parameter is at most ``3b`` — Theorem 3.

The round cost — O(D log n log N + bD log N + bc log N) — is recorded
phase by phase on a :class:`~repro.congest.trace.RoundLedger`.  The
whole pipeline runs in one of two modes (see
:mod:`repro.core.construct_fast`): ``mode="simulate"`` executes every
phase as a node program on the CONGEST simulator, ``mode="direct"``
computes the bit-for-bit identical outputs with centralized array
kernels and charges the ledger from the analytic cost model.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.congest.randomness import mix
from repro.congest.topology import Topology
from repro.congest.trace import RoundLedger
from repro.core.construct_fast import _shared_seed, resolve_mode
from repro.core.core_fast import active_parts, core_fast, sampling_parameters
from repro.core.core_slow import core_slow
from repro.core.shortcut import TreeRestrictedShortcut
from repro.core.verification import verification
from repro.errors import ConstructionFailedError
from repro.graphs.csr import tree_arrays
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree


@dataclass(frozen=True)
class ConstructionState:
    """Partial progress of an interrupted FindShortcut run.

    Carried on :class:`~repro.errors.ConstructionFailedError` so the
    Appendix A doubling driver can warm-start the next trial: the parts
    in ``remaining`` are still bad, while every other part's subgraph
    is already frozen inside ``shortcut``.
    """

    remaining: FrozenSet[int]
    shortcut: TreeRestrictedShortcut
    good_history: Tuple[FrozenSet[int], ...]

    def revalidated_for(
        self,
        topology: Topology,
        tree: SpanningTree,
        partition: Partition,
    ) -> "ConstructionState":
        """Re-anchor this state on the given topology/tree/partition.

        A frozen good part is only reusable if its guarantees still
        hold where the warm start is about to run: its members must be
        unchanged and still induce a connected subgraph of
        ``topology``, and every edge of its frozen ``H_i`` must exist
        both in ``topology`` and in ``tree``.  Parts failing any check
        are demoted back into ``remaining`` with an empty subgraph —
        silently reusing them would smuggle invalid shortcuts (e.g.
        over failed edges) past Verification, which only ever re-checks
        *remaining* parts.

        The returned state's shortcut is rebuilt over the *given* tree
        and partition objects so the construction's ``merged_with``
        identity checks hold.  The unchanged-instance case (the
        Appendix A doubling loop) passes every check and degrades to a
        pure re-wrap.  Incompatible partition shapes raise
        :class:`~repro.errors.ShortcutError` — the caller must re-derive
        a state aligned with its partition (see
        :func:`repro.failures.repair.repair_shortcut`).
        """
        from repro.errors import ShortcutError
        from repro.graphs.partitions import _is_connected_subset

        old = self.shortcut
        if old.partition.n != partition.n or old.partition.size != partition.size:
            raise ShortcutError(
                f"warm-start state is over {old.partition.size} parts / "
                f"{old.partition.n} nodes, construction over "
                f"{partition.size} parts / {partition.n} nodes; re-derive "
                f"the state for the new partition instead of reusing it"
            )
        old_parent = tree_arrays(old.tree).parent
        parent = tree_arrays(tree).parent
        same_tree = old.tree is tree
        # A tree edge of ``tree`` is an edge of ``topology`` unless the
        # tree spans another graph (say, one that has since lost edges).
        adjacency = None if _tree_in_topology(tree, topology) else topology._adjacency()
        same_members = old.partition is partition
        remaining = set(self.remaining)
        children = array("q")
        offsets = array("q", [0])
        for index in range(partition.size):
            kids = None if index in remaining else old.part_children(index)
            if kids is not None and (not same_tree or adjacency is not None):
                kids = _renamed(kids, old_parent, None if same_tree else parent, adjacency)
            valid = (
                kids is not None
                and (
                    same_members
                    or old.partition.members(index) == partition.members(index)
                )
                and _is_connected_subset(topology, partition.members(index))
            )
            if valid:
                children.extend(kids)
            else:
                remaining.add(index)
            offsets.append(len(children))
        # Every kept child names a tree edge of ``tree``, so the rebuilt
        # shortcut needs no per-edge re-validation.
        return ConstructionState(
            remaining=frozenset(remaining),
            shortcut=TreeRestrictedShortcut._from_children(
                tree, partition, children, offsets
            ),
            good_history=self.good_history,
        )


def _tree_in_topology(tree: SpanningTree, topology: Topology) -> bool:
    """Whether every edge of ``tree`` is an edge of ``topology``.

    Both are immutable, so the tree caches the answer for the last
    topology it was checked against: the doubling ladder asks about
    one topology on every rung, and a failure sweep that asks about
    many survivors keeps only the last one alive.
    """
    cached = tree._kernels.get("in-topology")
    if cached is not None and cached[0] is topology:
        return cached[1]
    adjacency = topology._adjacency()  # sorted neighbor tuples
    known = all(
        p < 0 or _adjacent(adjacency, v, p)
        for v, p in enumerate(tree_arrays(tree).parent)
    )
    tree._kernels["in-topology"] = (topology, known)
    return known


def _adjacent(adjacency, u: int, v: int) -> bool:
    neighbors = adjacency[u]
    at = bisect_left(neighbors, v)
    return at < len(neighbors) and neighbors[at] == v


def _renamed(kids, old_parent, parent, adjacency) -> Optional[array]:
    """Re-name ``kids`` (children in the old tree) by their children in
    the new tree (``parent``; ``None`` when the tree is the same), the
    same node unless an edge flips orientation.  ``None`` if an edge is
    in neither orientation a tree edge, or is missing from the
    topology's ``adjacency`` (``None`` to skip that check)."""
    renamed = []
    for c in kids:
        p = old_parent[c]
        if parent is not None and parent[c] != p:
            if parent[p] != c:
                return None
            c, p = p, c
        if adjacency is not None and not _adjacent(adjacency, c, p):
            return None
        renamed.append(c)
    if parent is not None:
        renamed.sort()
    return array("q", renamed)


@dataclass(frozen=True)
class FindShortcutResult:
    """Outcome of the Theorem 3 construction."""

    shortcut: TreeRestrictedShortcut
    c: int
    b: int
    iterations: int
    good_history: Tuple[FrozenSet[int], ...]
    ledger: RoundLedger

    @property
    def rounds(self) -> int:
        """Total rounds including synchronisation barriers."""
        return self.ledger.total_rounds


def default_iteration_limit(n_parts: int) -> int:
    """Iteration budget before the construction declares failure.

    Theorem 3 halves the unfinished parts per iteration w.h.p., so
    O(log N) iterations suffice; the constant-4 slack makes a w.h.p.
    statement into a practically-never-failing one while still letting
    the doubling driver (Appendix A) detect hopeless parameter guesses
    quickly.
    """
    return 4 * max(1, math.ceil(math.log2(n_parts + 1))) + 4


def find_shortcut(
    topology: Topology,
    tree: SpanningTree,
    partition: Partition,
    c: int,
    b: int,
    *,
    use_fast: bool = True,
    seed: int = 0,
    shared_seed: Optional[int] = None,
    gamma: float = 2.0,
    max_iterations: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
    mode: Optional[str] = None,
    warm_start: Optional[ConstructionState] = None,
) -> FindShortcutResult:
    """Construct a T-restricted shortcut given the existential (c, b).

    Parameters
    ----------
    c, b:
        The promised congestion and block parameter: a T-restricted
        shortcut with these parameters must exist (certify one with
        :mod:`repro.core.existence`, use Theorem 1's bound on a
        bounded-genus graph, or let :mod:`repro.core.doubling` search).
    use_fast:
        CoreFast (randomized, O(D log n + c) per iteration) vs CoreSlow
        (deterministic, O(D c) per iteration).
    shared_seed:
        The shared-randomness seed; when ``None`` and CoreFast is used,
        the seed is distributed over the network first (O(D + log n)
        rounds, charged on the ledger).
    mode:
        ``"simulate"`` (default) runs every phase as a CONGEST node
        program; ``"direct"`` computes identical outputs with the array
        kernels of :mod:`repro.core.construct_fast`.  ``None`` uses the
        current scope's mode (:func:`~repro.core.construct_fast.using_mode`).
    warm_start:
        A :class:`ConstructionState` from a previous failed run: only
        its ``remaining`` parts are constructed for, on top of its
        already-frozen subgraphs.  Used by the doubling driver so a
        doubled-parameter retry does not redo finished parts, and by
        incremental repair (:mod:`repro.failures.repair`).  The state
        is always revalidated against the given topology/tree/partition
        first (:meth:`ConstructionState.revalidated_for`), so frozen
        parts invalidated by topology changes are reconstructed rather
        than reused.

    Ledger cost model
    -----------------
    In simulate mode every phase record carries the measured rounds and
    messages of its simulation.  In direct mode the ledger is charged
    from the analytic per-phase cost model of
    :mod:`repro.core.construct_fast`: *exact* closed forms for
    ``share-randomness`` (pipelined chunk broadcast: ``D + ceil(log2 n)
    - 1`` rounds), ``core-slow``/``core-fast/sample`` (the Algorithm 1
    streaming recurrence) and ``core-fast/flood`` (a centralized replay
    of the min-first flood), plus the Lemma 3 *upper bound*
    ``1 + 2(6b' + 4)(D + c + 2) + (4b' + 1)`` rounds for each
    ``verification`` with threshold ``b'``; ``termination-check``
    charges ``2 depth(T) + 1`` per iteration in both modes.  The
    differential suite cross-checks the model against the simulated
    engines' actual counts (exact phases to the round, the verification
    bound as a dominating estimate).

    A replayed iteration is charged exactly like one that ran.  In
    direct mode an iteration that freezes no part leaves ``remaining``
    as it was, so the next one recomputes it unless CoreFast draws a
    different active set (at ``p = 1`` it never does; CoreSlow draws
    nothing).  Such repeats run no kernel: :func:`_replay_stall`
    appends the stalled iteration's records and empty good set again,
    while the draw repeats and the budget lasts.  ``mode="simulate"``
    runs every iteration.

    Raises
    ------
    ConstructionFailedError
        If parts remain bad after the iteration budget — the failure
        signal consumed by the Appendix A doubling mechanism.  The
        error carries the iterations consumed and a
        :class:`ConstructionState` snapshot of the frozen progress.
    """
    mode = resolve_mode(mode)
    if ledger is None:
        ledger = RoundLedger(barrier_depth=tree.height)
    if max_iterations is None:
        max_iterations = default_iteration_limit(partition.size)
    if use_fast and shared_seed is None:
        shared_seed = _shared_seed(topology, tree, seed, ledger, mode)

    if warm_start is not None:
        # Never trust a carried state blindly: the topology may have
        # changed under it (edge failures, repair).  Revalidation
        # demotes any frozen part whose guarantees no longer hold.
        warm_start = warm_start.revalidated_for(topology, tree, partition)
        remaining = set(warm_start.remaining)
        accumulated = warm_start.shortcut
    else:
        remaining = set(range(partition.size))
        accumulated = TreeRestrictedShortcut.empty(tree, partition)
    good_history: List[FrozenSet[int]] = []
    iteration = 0
    while True:
        settled = _settled(
            c, b, iteration, max_iterations, remaining, good_history,
            ledger, lambda: accumulated,
        )
        if settled is not None:
            break
        iteration += 1
        start = len(ledger.records)
        if use_fast:
            outcome = core_fast(
                topology,
                tree,
                partition,
                c,
                mix(shared_seed, iteration),
                gamma=gamma,
                participating=remaining,
                seed=mix(seed, iteration),
                ledger=ledger,
                mode=mode,
            )
        else:
            outcome = core_slow(
                topology,
                tree,
                partition,
                c,
                participating=remaining,
                seed=mix(seed, iteration),
                ledger=ledger,
                mode=mode,
            )
        verdict = verification(
            topology,
            outcome.shortcut,
            3 * b,
            consider=remaining,
            seed=mix(seed, iteration, 1),
            ledger=ledger,
            mode=mode,
        )
        good = verdict.good_parts
        good_history.append(good)
        # The "all parts good?" global check: one convergecast over T.
        ledger.charge_phase("termination-check", 2 * tree.height + 1)
        if good:
            accumulated = accumulated.merged_with(
                outcome.shortcut.restricted_to(good)
            )
            remaining -= good
        elif mode == "direct":
            iteration = _replay_stall(
                iteration, max_iterations, partition,
                sampling_parameters(topology.n, c, gamma)[0] if use_fast else None,
                shared_seed, remaining, good_history, ledger, start,
            )

    if isinstance(settled, ConstructionFailedError):
        raise settled
    return settled


def _settled(
    c: int,
    b: int,
    iterations: int,
    max_iterations: int,
    remaining,
    good_history: Sequence[FrozenSet[int]],
    ledger: RoundLedger,
    shortcut: Callable[[], TreeRestrictedShortcut],
):
    """How a FindShortcut run ends after ``iterations``, or ``None`` if
    it goes on.

    A run with no bad part left succeeds with a
    :class:`FindShortcutResult`; one whose budget is spent fails with
    the :class:`~repro.errors.ConstructionFailedError` *value* (not
    raised), carrying its frozen progress for a warm start.
    ``shortcut`` builds the frozen shortcut, only when the run ends.
    Shared by :func:`find_shortcut` and the batched wave
    (:mod:`repro.core.batch`), so both end their runs identically.
    """
    if not remaining:
        return FindShortcutResult(
            shortcut=shortcut(),
            c=c,
            b=b,
            iterations=iterations,
            good_history=tuple(good_history),
            ledger=ledger,
        )
    if iterations < max_iterations:
        return None
    return ConstructionFailedError(
        f"FindShortcut(c={c}, b={b}): {len(remaining)} parts still "
        f"bad after {iterations} iterations — parameters too small?",
        iterations=iterations,
        state=ConstructionState(
            remaining=frozenset(remaining),
            shortcut=shortcut(),
            good_history=tuple(good_history),
        ),
    )


def _replay_stall(
    iterations: int,
    max_iterations: int,
    partition: Partition,
    p: Optional[float],
    shared_seed: Optional[int],
    remaining,
    good_history: List[FrozenSet[int]],
    ledger: RoundLedger,
    start: int,
) -> int:
    """Charge the direct-mode iterations that would repeat a stall.

    Iteration ``iterations`` froze no part (the last entry of
    ``good_history`` is empty) and charged ``ledger.records[start:]``.
    A direct-mode iteration is a function of ``remaining`` and its
    CoreFast draw alone (the per-iteration ``seed`` feeds only the
    simulated programs), so while the next iteration draws the same
    active set — :func:`~repro.core.core_fast.active_parts` over
    ``remaining`` with activation probability ``p``; ``p=None`` for
    CoreSlow, which draws nothing — and the budget lasts, it would
    recompute the same sweep, flood and verdict.  Each such iteration
    is charged without running a kernel: the same records again and an
    empty good set.  Returns the iterations consumed.  Shared by
    :func:`find_shortcut` and the batched wave (:mod:`repro.core.batch`).
    """

    def draw(iteration: int) -> Optional[FrozenSet[int]]:
        if p is None:
            return None
        return active_parts(partition, mix(shared_seed, iteration), p, remaining)

    records = ledger.records[start:]
    stalled = draw(iterations)
    while iterations < max_iterations and draw(iterations + 1) == stalled:
        iterations += 1
        ledger.records.extend(records)
        good_history.append(good_history[-1])
    return iterations
