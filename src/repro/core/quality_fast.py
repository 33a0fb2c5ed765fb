"""Array-kernel fast path for the quality measures.

This module mirrors the engine split of :mod:`repro.congest.engine` at
the analysis layer: :mod:`repro.core.quality` remains the executable
reference (dict-of-set walks, transparently faithful to Definitions 1
and 3), while the functions here compute the *same* quantities on the
flat-array structures of :mod:`repro.graphs.csr`:

* **block components / counts** — an int-array union-find with path
  halving over a reusable ``parent`` array (reset via a touched list,
  not reallocated per part);
* **congestion** — counting arrays indexed by dense edge id instead of
  a per-edge ``set`` of parts;
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

from typing import Dict, List, Optional

from repro.congest.topology import Topology
from repro.core.quality import BlockComponent, QualityReport
from repro.core.shortcut import TreeRestrictedShortcut
from repro.errors import ShortcutError
from repro.graphs.csr import adjacency_csr, bounded_diameter, edge_ids, tree_arrays


def _find(parent: List[int], x: int) -> int:
    """Union-find root with path halving."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def block_components(
    shortcut: TreeRestrictedShortcut, index: int
) -> List[BlockComponent]:
    """Block components of part ``index`` — fast twin of
    :func:`repro.core.quality.block_components`."""
    depth = tree_arrays(shortcut.tree).depth
    members = shortcut.partition.members(index)
    labels = shortcut.partition.labels
    parent = list(range(shortcut.partition.n))

    involved = set(members)
    for u, v in shortcut.subgraph(index):
        involved.add(u)
        involved.add(v)
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv

    groups: Dict[int, List[int]] = {}
    for node in involved:
        groups.setdefault(_find(parent, node), []).append(node)

    blocks = []
    for nodes in groups.values():
        if not any(labels[v] == index for v in nodes):
            continue  # not a *block* component: it misses P_i entirely
        root = min(nodes, key=lambda v: (depth[v], v))
        blocks.append(
            BlockComponent(
                part=index,
                root=root,
                root_depth=depth[root],
                nodes=frozenset(nodes),
            )
        )
    blocks.sort(key=lambda blk: (blk.root_depth, blk.root))
    return blocks


def block_counts(shortcut: TreeRestrictedShortcut) -> List[int]:
    """Number of block components of each part (array union-find).

    One ``parent`` array serves every part: only entries touched by a
    part's edges are reset before the next part, so the total cost is
    O(n + Σ|H_i| α) instead of a dict rebuild per part.
    """
    partition = shortcut.partition
    parent = list(range(partition.n))
    counts: List[int] = []
    for index in range(partition.size):
        touched: List[int] = []
        for u, v in shortcut.subgraph(index):
            touched.append(u)
            touched.append(v)
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
        roots = set()
        for v in partition.members(index):
            roots.add(_find(parent, v))
        counts.append(len(roots))
        # Every written entry is an edge endpoint (unions write at
        # roots reached from endpoints; halving writes along those
        # paths), so resetting the endpoints restores the identity.
        for v in touched:
            parent[v] = v
    return counts


def block_parameter(shortcut: TreeRestrictedShortcut) -> int:
    """The block parameter ``b``; 0 for a zero-part shortcut."""
    return max(block_counts(shortcut), default=0)


def shortcut_congestion(shortcut: TreeRestrictedShortcut) -> int:
    """Max number of subgraphs ``H_i`` sharing one tree edge.

    Counts multiplicities directly instead of materialising the
    ``edge -> frozenset(parts)`` map.
    """
    count: Dict[tuple, int] = {}
    best = 0
    for subgraph in shortcut.subgraphs:
        for edge in subgraph:
            value = count.get(edge, 0) + 1
            count[edge] = value
            if value > best:
                best = value
    return best


def congestion(shortcut: TreeRestrictedShortcut, topology: Topology) -> int:
    """Definition 1 congestion via counting arrays over dense edge ids."""
    index_of = edge_ids(topology)
    count = [0] * topology.m
    for subgraph in shortcut.subgraphs:
        for edge in subgraph:
            count[index_of[edge]] += 1
    labels = shortcut.partition.labels
    best = 0
    for i, (u, v) in enumerate(topology.edges):
        users = count[i]
        lu = labels[u]
        # At most one part contains both endpoints; it uses the edge
        # through G[P_i] unless the edge is already counted via H_i.
        if lu >= 0 and lu == labels[v] and (u, v) not in shortcut.subgraph(lu):
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
    labels = shortcut.partition.labels
    indices = range(shortcut.size) if index is None else [index]
    worst = 0
    for i in indices:
        diameter = _communication_diameter(shortcut, csr, labels, i)
        if diameter > worst:
            worst = diameter
    return worst


def _communication_diameter(shortcut, csr, labels, index: int) -> int:
    members = shortcut.partition.members(index)
    subgraph_edges = shortcut.subgraph(index)

    # Local id space: part members plus H_i endpoints.
    local: Dict[int, int] = {}
    nodes: List[int] = []
    for v in members:
        local[v] = len(nodes)
        nodes.append(v)
    for u, v in subgraph_edges:
        if u not in local:
            local[u] = len(nodes)
            nodes.append(u)
        if v not in local:
            local[v] = len(nodes)
            nodes.append(v)
    k = len(nodes)
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
    for u, v in subgraph_edges:
        adjacency[local[u]].append(local[v])
        adjacency[local[v]].append(local[u])

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
