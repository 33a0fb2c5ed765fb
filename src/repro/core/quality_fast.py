"""Array-kernel fast path for the quality measures.

This module mirrors the engine split of :mod:`repro.congest.engine` at
the analysis layer: :mod:`repro.core.quality` remains the executable
reference (dict-of-set walks, transparently faithful to Definitions 1
and 3), while the functions here compute the *same* quantities on the
flat-array structures of :mod:`repro.graphs.csr` and on the shortcut's
``(part, child)`` slot storage:

* **block counts** — a block of ``H_i`` is a subtree of ``T``, so a
  member's block is named by its topmost ancestor-or-self through
  ``H_i`` (:func:`block_tops`, memoised walks over the part's slot
  children); a part's count is its members' number of distinct tops;
* **congestion** — one count per slot child (a tree edge is named by
  its child) instead of a per-edge ``set`` of parts;
* **dilation** — frontier-list BFS over a local adjacency of each
  communication subgraph, with an exact eccentricity-bounding early
  exit (:func:`repro.graphs.csr.bounded_diameter`): each BFS pins
  every node's eccentricity into an interval, nodes whose interval
  cannot affect the diameter are dropped, and the scan usually ends
  after a handful of sources instead of one BFS per node.

Every function returns bit-for-bit the same result as its reference
twin; the differential suite in
``tests/core/test_quality_equivalence.py`` and the property suite in
``tests/properties/test_prop_quality.py`` enforce that, exactly as the
engine-equivalence suite licenses the batched engine.
:func:`repro.core.quality.measure` always runs these kernels; the
reference reports come from ``quality.measure_reference``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.congest.topology import Topology
from repro.core.quality import QualityReport
from repro.core.shortcut import TreeRestrictedShortcut
from repro.errors import ShortcutError
from repro.graphs.csr import adjacency_csr, bounded_diameter, tree_arrays


def _find(parent: List[int], x: int) -> int:
    """Union-find root with path halving."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def block_tops(parent: List[int], kids: Sequence[int]) -> Dict[int, int]:
    """Each slot child's topmost ancestor-or-self through ``H_i``.

    ``kids`` are part ``i``'s slot children (the child nodes of its
    ``H_i`` edges).  A block of ``H_i`` is a subtree of ``T``, so its
    top node names it; a node absent from the returned map is its own
    top.  Walks are memoised, so the cost is O(|H_i|).
    """
    lifted = set(kids)
    top: Dict[int, int] = {}
    for v in kids:
        if v in top:
            continue
        path = []
        x = v
        while x in lifted and x not in top:
            path.append(x)
            x = parent[x]
        root = top.get(x, x)
        for y in path:
            top[y] = root
    return top


def block_counts(shortcut: TreeRestrictedShortcut) -> List[int]:
    """Number of block components of each part: the distinct tops
    (:func:`block_tops`) over the part's members."""
    parent = tree_arrays(shortcut.tree).parent
    partition = shortcut.partition
    counts: List[int] = []
    for index in range(partition.size):
        members = partition.members(index)
        kids = shortcut.part_children(index)
        if not kids:
            counts.append(len(members))
            continue
        top = block_tops(parent, kids)
        counts.append(len({top.get(v, v) for v in members}))
    return counts


def block_parameter(shortcut: TreeRestrictedShortcut) -> int:
    """The block parameter ``b``; 0 for a zero-part shortcut."""
    return max(block_counts(shortcut), default=0)


def shortcut_congestion(shortcut: TreeRestrictedShortcut) -> int:
    """Max number of subgraphs ``H_i`` sharing one tree edge.

    A tree edge is named by its child, so this is the largest
    multiplicity of a node among the slot children.
    """
    return max(Counter(shortcut.children).values(), default=0)


def congestion(shortcut: TreeRestrictedShortcut, topology: Topology) -> int:
    """Definition 1 congestion: per-child slot counts over the tree
    edges, plus the owning part's ``G[P_i]`` use of each graph edge."""
    parent = tree_arrays(shortcut.tree).parent
    labels = shortcut.partition.labels
    children, offsets = shortcut.children, shortcut.offsets
    count = Counter(children)
    best = 0
    for u, v in topology.edges:
        child = u if parent[u] == v else v if parent[v] == u else -1
        users = count[child]
        lu = labels[u]
        # At most one part contains both endpoints; it uses the edge
        # through G[P_i] unless the edge is already counted via H_i
        # (its child sits in the part's ascending slot range).
        if lu >= 0 and lu == labels[v]:
            hi = offsets[lu + 1]
            at = bisect_left(children, child, offsets[lu], hi) if child >= 0 else hi
            if at == hi or children[at] != child:
                users += 1
        if users > best:
            best = users
    return best


def dilation(
    shortcut: TreeRestrictedShortcut,
    topology: Topology,
    index: Optional[int] = None,
) -> int:
    """Definition 1 dilation via frontier-list BFS with early exit.

    Raises :class:`ShortcutError` on the first disconnected
    ``G[P_i] + H_i``, like the reference.
    """
    csr = adjacency_csr(topology)
    parent = tree_arrays(shortcut.tree).parent
    labels = shortcut.partition.labels
    indices = range(shortcut.size) if index is None else [index]
    worst = 0
    for i in indices:
        diameter = _communication_diameter(shortcut, csr, parent, labels, i)
        if diameter > worst:
            worst = diameter
    return worst


def _communication_diameter(shortcut, csr, parent, labels, index: int) -> int:
    members = shortcut.partition.members(index)
    kids = shortcut.part_children(index)

    # Local id space: part members plus H_i endpoints.
    local: Dict[int, int] = {}
    for v in members:
        local[v] = len(local)
    for c in kids:
        if c not in local:
            local[c] = len(local)
        p = parent[c]
        if p not in local:
            local[p] = len(local)
    k = len(local)
    if k == 1:
        return 0

    adjacency: List[List[int]] = [[] for _ in range(k)]
    indptr, neighbors = csr.indptr, csr.indices
    for v in members:
        lv = local[v]
        row = adjacency[lv]
        for w in neighbors[indptr[v] : indptr[v + 1]]:
            if labels[w] == index:
                row.append(local[w])
    for c in kids:
        lc, lp = local[c], local[parent[c]]
        adjacency[lc].append(lp)
        adjacency[lp].append(lc)

    diameter = bounded_diameter(adjacency)
    if diameter < 0:
        raise ShortcutError(
            f"G[P_{index}] + H_{index} is disconnected; dilation is infinite"
        )
    return diameter


def measure(
    shortcut: TreeRestrictedShortcut,
    topology: Topology,
    with_dilation: bool = True,
) -> QualityReport:
    """Fast twin of :func:`repro.core.quality.measure`."""
    counts = tuple(block_counts(shortcut))
    return QualityReport(
        congestion=congestion(shortcut, topology),
        shortcut_congestion=shortcut_congestion(shortcut),
        block_parameter=max(counts) if counts else 0,
        dilation=dilation(shortcut, topology) if with_dilation else None,
        block_counts=counts,
        tree_depth=shortcut.tree.height,
    )
