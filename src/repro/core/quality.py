"""Quality measures for shortcuts: congestion, dilation, block parameter.

Implements Definitions 1 and 3 and Lemma 1 of the paper:

* **congestion** — the maximum, over edges ``e``, of the number of
  communication subgraphs ``G[P_i] + H_i`` containing ``e``;
* **dilation** — the maximum diameter of any ``G[P_i] + H_i``;
* **block components** (Definition 3) — connected components of
  ``(V, H_i)`` that intersect ``P_i``; the **block parameter** bounds
  their number over all parts;
* **Lemma 1** — ``dilation <= b * (2 * depth(T) + 1)``.

This module is the *executable reference*: every function walks the
obvious dict-of-set structures so that it reads like the definitions,
and :func:`measure_reference` bundles them into one report.
:func:`measure` always runs the flat-array kernels of
:mod:`repro.core.quality_fast` over :mod:`repro.graphs.csr` structures;
the reference is its test oracle.  The differential suite in
``tests/core/test_quality_equivalence.py`` proves both return
bit-for-bit identical reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.congest.topology import Edge, Topology, canonical_edge
from repro.core.shortcut import TreeRestrictedShortcut
from repro.errors import ShortcutError
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree

@dataclass(frozen=True)
class BlockComponent:
    """One block component of a shortcut subgraph ``H_i``.

    A connected component of the spanning subgraph ``(V, H_i)`` that
    intersects ``P_i``.  Components of a forest are subtrees, so the
    minimum-depth node — the *block root* — is unique.
    """

    part: int
    root: int
    root_depth: int
    nodes: FrozenSet[int]

    @property
    def size(self) -> int:
        return len(self.nodes)


def block_components(
    shortcut: TreeRestrictedShortcut, index: int
) -> List[BlockComponent]:
    """Block components of part ``index`` (Definition 3).

    Includes singleton components: a node of ``P_i`` touched by no
    ``H_i`` edge is its own component of ``(V, H_i)``.
    Components that do not intersect ``P_i`` are excluded, per the
    definition.
    """
    tree = shortcut.tree
    partition = shortcut.partition
    members = partition.members(index)
    edges = shortcut.subgraph(index)

    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    involved: Set[int] = set(members)
    for u, v in edges:
        involved.add(u)
        involved.add(v)
        union(u, v)

    groups: Dict[int, Set[int]] = {}
    for node in involved:
        groups.setdefault(find(node), set()).add(node)

    blocks = []
    for nodes in groups.values():
        if not (nodes & members):
            continue  # not a *block* component: it misses P_i entirely
        root = min(nodes, key=lambda v: (tree.depth(v), v))
        blocks.append(
            BlockComponent(
                part=index,
                root=root,
                root_depth=tree.depth(root),
                nodes=frozenset(nodes),
            )
        )
    blocks.sort(key=lambda blk: (blk.root_depth, blk.root))
    return blocks


def block_counts(shortcut: TreeRestrictedShortcut) -> List[int]:
    """Number of block components of each part."""
    return [len(block_components(shortcut, i)) for i in range(shortcut.size)]


def block_parameter(shortcut: TreeRestrictedShortcut) -> int:
    """The block parameter ``b``: max block-component count over parts.

    A shortcut over a zero-part partition has block parameter 0 (there
    is no part to route for).
    """
    return max(block_counts(shortcut), default=0)


def shortcut_congestion(shortcut: TreeRestrictedShortcut) -> int:
    """Max number of subgraphs ``H_i`` sharing one tree edge.

    This is the quantity the constructions bound directly (an edge
    "assigned to at most 2c parts").
    """
    edge_map = shortcut.edge_map
    if not edge_map:
        return 0
    return max(len(parts) for parts in edge_map.values())


def congestion(shortcut: TreeRestrictedShortcut, topology: Topology) -> int:
    """Definition 1 congestion: subgraphs ``G[P_i] + H_i`` per edge.

    For each graph edge this counts the parts whose *communication
    subgraph* uses it: parts with the edge in ``H_i`` plus (at most
    one) part containing both endpoints.  Since parts are disjoint,
    this exceeds :func:`shortcut_congestion` by at most one.
    """
    partition = shortcut.partition
    best = 0
    edge_map = shortcut.edge_map
    for u, v in topology.edges:
        edge = canonical_edge(u, v)
        users = set(edge_map.get(edge, ()))
        pu = partition.part_of(u)
        if pu is not None and pu == partition.part_of(v):
            users.add(pu)
        best = max(best, len(users))
    return best


def dilation(
    shortcut: TreeRestrictedShortcut,
    topology: Topology,
    index: Optional[int] = None,
) -> int:
    """Definition 1 dilation: max diameter of ``G[P_i] + H_i``.

    With ``index`` given, returns that single part's diameter.
    Raises :class:`ShortcutError` if some ``G[P_i] + H_i`` is
    disconnected (then its diameter — and the dilation — is infinite).
    """
    indices = range(shortcut.size) if index is None else [index]
    worst = 0
    for i in indices:
        worst = max(worst, _communication_diameter(shortcut, topology, i))
    return worst


def _communication_diameter(
    shortcut: TreeRestrictedShortcut, topology: Topology, index: int
) -> int:
    members = shortcut.partition.members(index)
    adjacency: Dict[int, Set[int]] = {v: set() for v in members}
    for u in members:
        for w in topology.neighbors(u):
            if w in members:
                adjacency[u].add(w)
    for u, v in shortcut.subgraph(index):
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    nodes = list(adjacency)
    worst = 0
    for source in nodes:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) != len(nodes):
            raise ShortcutError(
                f"G[P_{index}] + H_{index} is disconnected; dilation is infinite"
            )
        worst = max(worst, max(dist.values()))
    return worst


def lemma1_bound(block: int, tree_depth: int) -> int:
    """Lemma 1: a block parameter ``b`` implies dilation ``<= b(2D + 1)``."""
    return block * (2 * tree_depth + 1)


@dataclass(frozen=True)
class QualityReport:
    """All quality measures of one shortcut, bundled for experiments."""

    congestion: int
    shortcut_congestion: int
    block_parameter: int
    dilation: Optional[int]
    block_counts: Tuple[int, ...]
    tree_depth: int

    @property
    def lemma1_dilation_bound(self) -> int:
        return lemma1_bound(self.block_parameter, self.tree_depth)

    def __str__(self) -> str:
        dil = "-" if self.dilation is None else str(self.dilation)
        return (
            f"congestion={self.congestion} block={self.block_parameter} "
            f"dilation={dil} (Lemma1 bound {self.lemma1_dilation_bound})"
        )


def measure(
    shortcut: TreeRestrictedShortcut,
    topology: Topology,
    with_dilation: bool = True,
) -> QualityReport:
    """Compute a full :class:`QualityReport` for a shortcut.

    Runs the :mod:`repro.core.quality_fast` kernels: flat-array
    union-find, counting-array congestion, and frontier BFS dilation
    with an eccentricity early-exit.  The report is bit-for-bit that of
    :func:`measure_reference`.

    Dilation remains the expensive field — still all-pairs-BFS-shaped,
    though early-exit pruned — so disable it for very large sweeps
    (Lemma 1 bounds it from the block parameter anyway).
    """
    from repro.core import quality_fast

    return quality_fast.measure(shortcut, topology, with_dilation=with_dilation)


def measure_reference(
    shortcut: TreeRestrictedShortcut,
    topology: Topology,
    with_dilation: bool = True,
) -> QualityReport:
    """The oracle for :func:`measure`: the report from this module's
    dict-of-set definitions (dilation is O(n · m) per part here)."""
    counts = tuple(block_counts(shortcut))
    return QualityReport(
        congestion=congestion(shortcut, topology),
        shortcut_congestion=shortcut_congestion(shortcut),
        block_parameter=max(counts) if counts else 0,
        dilation=dilation(shortcut, topology) if with_dilation else None,
        block_counts=counts,
        tree_depth=shortcut.tree.height,
    )
