"""Shortcut-accelerated Borůvka MST (Lemma 4).

Borůvka's 1926 algorithm maintains a partition of the graph into MST
fragments; each phase every fragment finds its minimum-weight outgoing
edge and merges along it.  The distributed cost of a phase is the cost
of *communicating within fragments* — exactly the problem shortcuts
solve.  Per phase:

1. build a tree-restricted shortcut for the current fragment partition
   (FindShortcut with Theorem 1 parameters on a bounded-genus graph,
   or the Appendix A doubling search on arbitrary graphs);
2. one neighbor-label exchange round, then a Theorem 2 aggregation to
   find each fragment's minimum outgoing edge;
3. the paper's star-merge rule: every fragment flips a shared coin —
   *tail* fragments whose minimum edge points at a *head* fragment
   merge into it (chains cannot form, and each selected edge merges
   with probability >= 1/4, so O(log n) phases suffice w.h.p.);
4. the new fragment label travels from the merge endpoint to all old
   members through the shortcut (Theorem 2 broadcast).

On a genus-g graph this gives the paper's O(gD log^2 D log^2 n)-round
MST (Lemma 4).  The computed tree is exact: weights are made unique,
and tests compare against Kruskal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.apps.aggregation import min_outgoing_edges
from repro.congest.engine import engine_parameter
from repro.congest.randomness import coin, mix
from repro.congest.topology import Edge, Topology, canonical_edge
from repro.congest.trace import RoundLedger
from repro.core.doubling import find_shortcut_doubling
from repro.core.existence import best_certified, genus_bound
from repro.core.find_shortcut import find_shortcut
from repro.core.partwise import PartwiseEngine
from repro.core.quality_fast import shortcut_congestion
from repro.core.partwise_fast import (
    backend_parameter,
    bfs_and_shared_randomness,
    get_default_backend,
)
from repro.errors import ReproError
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree

HEAD_COIN_SALT = 0x4EAD

PARAM_MODES = ("doubling", "genus", "given", "certified")


@dataclass(frozen=True)
class PhaseRecord:
    """Per-phase measurements of the Borůvka loop.

    ``construct_rounds`` and ``aggregate_rounds`` split the phase's
    ledger delta: rounds spent building the per-phase shortcut
    (FindShortcut / doubling, including barriers) vs rounds spent using
    it (neighbor discovery, the Theorem 2 minimum-outgoing-edge
    aggregation, the label broadcast, and the termination check).
    """

    phase: int
    fragments: int
    shortcut_c: int
    shortcut_b: int
    merges: int
    construct_rounds: int = 0
    aggregate_rounds: int = 0


@dataclass(frozen=True)
class MSTResult:
    """Output of a distributed MST computation.

    On a disconnected topology the result is the minimum spanning
    *forest*: ``edges``/``weight`` aggregate the per-component MSTs and
    ``components`` reports the explicit component count (``1`` for the
    ordinary connected case).  Components are disjoint networks that
    run concurrently in the CONGEST model, so ``ledger`` (and hence
    ``rounds``) is the slowest component's — the makespan — and
    ``phases`` / ``phase_records`` describe that same component.
    """

    edges: FrozenSet[Edge]
    weight: int
    phases: int
    ledger: RoundLedger
    phase_records: Tuple[PhaseRecord, ...]
    components: int = 1

    @property
    def rounds(self) -> int:
        """Total rounds including synchronisation barriers."""
        return self.ledger.total_rounds


def _build_shortcut(
    topology: Topology,
    tree: SpanningTree,
    partition: Partition,
    params: str,
    genus: Optional[int],
    c: Optional[int],
    b: Optional[int],
    use_fast: bool,
    seed: int,
    shared_seed: int,
    ledger: RoundLedger,
    construct_mode: Optional[str] = None,
):
    """Construct the per-phase shortcut; returns (shortcut, 3b bound).

    ``construct_mode`` selects the construction kernels
    (``"simulate"`` / ``"direct"``, see
    :mod:`repro.core.construct_fast`); ``None`` uses the process
    default.
    """
    if params == "genus":
        if genus is None:
            raise ReproError("params='genus' requires the genus argument")
        c_g, b_g = genus_bound(genus, tree.height)
        result = find_shortcut(
            topology, tree, partition, c_g, b_g,
            use_fast=use_fast, seed=seed, shared_seed=shared_seed, ledger=ledger,
            mode=construct_mode,
        )
        return result.shortcut, 3 * result.b
    if params == "given":
        if c is None or b is None:
            raise ReproError("params='given' requires both c and b")
        result = find_shortcut(
            topology, tree, partition, c, b,
            use_fast=use_fast, seed=seed, shared_seed=shared_seed, ledger=ledger,
            mode=construct_mode,
        )
        return result.shortcut, 3 * result.b
    if params == "certified":
        point = best_certified(tree, partition)
        result = find_shortcut(
            topology, tree, partition, point.congestion, point.block,
            use_fast=use_fast, seed=seed, shared_seed=shared_seed, ledger=ledger,
            mode=construct_mode,
        )
        return result.shortcut, 3 * result.b
    if params == "doubling":
        outcome = find_shortcut_doubling(
            topology, tree, partition,
            use_fast=use_fast, seed=seed, shared_seed=shared_seed, ledger=ledger,
            mode=construct_mode,
        )
        return outcome.result.shortcut, 3 * outcome.result.b
    raise ReproError(
        f"unknown shortcut params {params!r}; available: {PARAM_MODES}"
    )


@engine_parameter
@backend_parameter
def minimum_spanning_tree(
    topology: Topology,
    *,
    params: Optional[str] = None,
    genus: Optional[int] = None,
    c: Optional[int] = None,
    b: Optional[int] = None,
    use_fast: bool = True,
    seed: int = 0,
    max_phases: Optional[int] = None,
    construct_mode: Optional[str] = None,
) -> MSTResult:
    """Compute the exact MST with shortcut-accelerated Borůvka.

    Parameters
    ----------
    topology:
        A weighted topology (weights should be unique; use
        :func:`repro.graphs.weights.weighted`).  A disconnected
        topology is first-class: the result is the minimum spanning
        forest with ``components`` set to the component count (see
        :class:`MSTResult`).
    params:
        How per-phase shortcuts obtain their (c, b) promise:

        * ``"doubling"`` — Appendix A search, no knowledge needed
          (works on any graph; the default);
        * ``"genus"`` — Theorem 1 parameters (requires ``genus``);
        * ``"given"`` — explicit ``c``/``b``;
        * ``"certified"`` — per-phase offline certification (an oracle
          variant used in ablation experiments).

        (The former ``mode=`` alias was removed after its one-release
        deprecation window; ``mode`` names the construction-kernel
        axis elsewhere, see ``construct_mode``.)
    use_fast:
        CoreFast vs CoreSlow inside FindShortcut.
    max_phases:
        Watchdog on Borůvka phases (default ``8 log2 n + 8``).
    construct_mode:
        Construction kernels for the per-phase FindShortcut
        (``"simulate"`` / ``"direct"``; ``None`` = current scope's mode).
    backend:
        Partwise backend for every aggregation/broadcast superstep
        (``"simulate"`` / ``"direct"``; injected by
        :func:`~repro.core.partwise_fast.backend_parameter`).
    """
    if params is None:
        params = "doubling"
    if not topology.is_connected:
        return _mst_forest(
            topology,
            params=params,
            genus=genus,
            c=c,
            b=b,
            use_fast=use_fast,
            seed=seed,
            max_phases=max_phases,
            construct_mode=construct_mode,
        )
    backend = get_default_backend()
    n = topology.n
    if max_phases is None:
        max_phases = 8 * max(1, math.ceil(math.log2(n + 1))) + 8
    ledger = RoundLedger()
    tree, shared_seed = bfs_and_shared_randomness(topology, seed, ledger, backend)

    labels: Dict[int, int] = {v: v for v in topology.nodes}
    mst_edges: set = set()
    phase_records: List[PhaseRecord] = []
    phase = 0
    while True:
        phase += 1
        if phase > max_phases:
            raise ReproError(
                f"Borůvka did not converge within {max_phases} phases"
            )
        partition = Partition.from_labels([labels[v] for v in topology.nodes])
        if partition.size <= 1:
            phase -= 1
            break

        phase_start = ledger.total_rounds
        shortcut, b_bound = _build_shortcut(
            topology, tree, partition, params, genus, c, b,
            use_fast, mix(seed, phase), mix(shared_seed, phase), ledger,
            construct_mode,
        )
        construct_end = ledger.total_rounds
        engine = PartwiseEngine(
            topology, shortcut, seed=mix(seed, phase, 2), ledger=ledger
        )
        min_edges, neighbor_labels = min_outgoing_edges(
            topology, engine, b_bound, labels=labels, seed=mix(seed, phase, 3)
        )

        # Merge decisions are purely local at the minimum edge's inner
        # endpoint u: u knows its own label, the neighbor's label, and
        # both fragments' shared coins.
        injections: Dict[int, int] = {}
        merges = 0
        done = True
        for index in range(partition.size):
            some_member = next(iter(partition.members(index)))
            edge = min_edges.get(some_member)
            if edge is None:
                continue
            done = False
            _weight, u, v = edge
            own_label = labels[u]
            other_label = neighbor_labels[u].get(v)
            own_head = coin(shared_seed, own_label, HEAD_COIN_SALT, phase) < 0.5
            other_head = (
                coin(shared_seed, other_label, HEAD_COIN_SALT, phase) < 0.5
            )
            if not own_head and other_head:
                injections[u] = other_label
                mst_edges.add(canonical_edge(u, v))
                merges += 1

        if not done:
            # Broadcast the adopted label through the shortcut
            # (Theorem 2 iii), then the global "any fragment still
            # active?" check: one convergecast on T.
            adopted = engine.broadcast_from_leaders(injections, b_bound)
            for v in topology.nodes:
                new_label = adopted.get(v)
                if new_label is not None:
                    labels[v] = new_label
            ledger.charge_phase("mst/termination-check", 2 * tree.height + 1)
        phase_records.append(
            PhaseRecord(
                phase=phase,
                fragments=partition.size,
                shortcut_c=shortcut_congestion(shortcut),
                shortcut_b=b_bound,
                merges=merges,
                construct_rounds=construct_end - phase_start,
                aggregate_rounds=ledger.total_rounds - construct_end,
            )
        )
        if done:
            phase -= 1
            break

    weight = sum(topology.weight(u, v) for u, v in mst_edges)
    return MSTResult(
        edges=frozenset(mst_edges),
        weight=weight,
        phases=phase,
        ledger=ledger,
        phase_records=tuple(phase_records),
    )


def _mst_forest(
    topology: Topology,
    *,
    params: str,
    genus: Optional[int],
    c: Optional[int],
    b: Optional[int],
    use_fast: bool,
    seed: int,
    max_phases: Optional[int],
    construct_mode: Optional[str],
) -> MSTResult:
    """Minimum spanning forest of a disconnected topology.

    Runs the shortcut MST independently on every connected component
    (components are disjoint CONGEST networks, so they genuinely run in
    parallel) and aggregates: edges and weight are the union/sum, while
    the ledger and phase records are the slowest component's — the
    makespan of the parallel composition.  Singleton components
    contribute nothing.
    """
    from repro.congest.topology import component_subtopologies

    forest: set = set()
    weight = 0
    slowest: Optional[MSTResult] = None
    pieces = component_subtopologies(topology)
    for index, (sub, nodes) in enumerate(pieces):
        if sub.n <= 1:
            continue
        result = minimum_spanning_tree(
            sub,
            params=params,
            genus=genus,
            c=c,
            b=b,
            use_fast=use_fast,
            seed=mix(seed, index),
            max_phases=max_phases,
            construct_mode=construct_mode,
        )
        forest.update(
            canonical_edge(nodes[u], nodes[v]) for u, v in result.edges
        )
        weight += result.weight
        if slowest is None or result.rounds > slowest.rounds:
            slowest = result
    if slowest is None:
        # Every component is a singleton: the forest is empty and no
        # rounds are spent.
        return MSTResult(
            edges=frozenset(),
            weight=0,
            phases=0,
            ledger=RoundLedger(),
            phase_records=(),
            components=len(pieces),
        )
    return MSTResult(
        edges=frozenset(forest),
        weight=weight,
        phases=slowest.phases,
        ledger=slowest.ledger,
        phase_records=slowest.phase_records,
        components=len(pieces),
    )


def kruskal_reference(topology: Topology) -> Tuple[FrozenSet[Edge], int]:
    """Centralized exact MST — or minimum spanning *forest* on a
    disconnected topology (validation oracle for the distributed one,
    components-aware in the same way)."""
    parent = list(range(topology.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = set()
    total = 0
    ranked = sorted(
        topology.edges, key=lambda e: (topology.weight(*e), e[0], e[1])
    )
    for u, v in ranked:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.add((u, v))
            total += topology.weight(u, v)
    return frozenset(chosen), total
