"""Immutable network topology used by the CONGEST simulator.

A :class:`Topology` is an undirected, connected graph on nodes
``0 .. n-1`` with optional integer edge weights.  It is the single
graph representation shared by the simulator, the shortcut machinery,
and the applications.  Edges are always stored in canonical
``(min(u, v), max(u, v))`` form; :func:`canonical_edge` converts.

The class is deliberately small and read-only: generators build a
topology once, and everything downstream treats it as a value.

Two construction paths exist, mirroring the reference/fast twins of
the compute layers:

* the **reference** constructor (``Topology(n, edges, ...)``)
  canonicalises, deduplicates, and sorts arbitrary edge iterables —
  the validating front door for untrusted input;
* the **fast path** (:meth:`Topology.from_arrays` /
  :meth:`Topology.from_csr`) accepts pre-canonical sorted edge arrays
  from trusted generators and skips the sort/dedup work entirely.

Either way, the hash-based derived structures (the edge
``frozenset`` behind :meth:`has_edge` and the tuple-of-tuples
adjacency behind :meth:`neighbors`) are built lazily on first use, so
consumers that only ever touch the flat CSR arrays
(:mod:`repro.graphs.csr`) never pay for them.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TopologyError

Edge = Tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Return the canonical ``(min, max)`` form of the edge ``{u, v}``."""
    if u == v:
        raise TopologyError(f"self-loop at node {u} is not a valid edge")
    return (u, v) if u < v else (v, u)


def _connected_union_find(n: int, edges: Sequence[Edge]) -> bool:
    """Whether the edge set spans one component (no adjacency needed)."""
    if n <= 1:
        return True
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components == 1


class Topology:
    """An undirected, connected graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Iterable of node pairs.  Duplicates and orientation are
        normalised away; self-loops are rejected.
    weights:
        Optional mapping from canonical edges to integer weights.
        Missing edges default to weight ``1``.
    require_connected:
        When true (the default), reject disconnected graphs.  The
        CONGEST model in the paper assumes a connected network.
    """

    __slots__ = ("_n", "_edges", "_adj", "_weights", "_edge_set", "_kernels")

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]],
        weights: Optional[Dict[Edge, int]] = None,
        require_connected: bool = True,
    ) -> None:
        if n <= 0:
            raise TopologyError("a topology needs at least one node")
        canon = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"edge ({u}, {v}) out of range for n={n}")
            canon.add(canonical_edge(u, v))
        self._n = n
        # Lazy cache for derived flat-array structures (repro.graphs.csr).
        # The topology itself is immutable, so entries never invalidate.
        self._kernels: Dict[str, object] = {}
        self._edges: Tuple[Edge, ...] = tuple(sorted(canon))
        # Hash-based derived structures are built on demand only.
        self._edge_set: Optional[frozenset] = None
        self._adj: Optional[Tuple[Tuple[int, ...], ...]] = None
        if weights is not None:
            normalised = {}
            for (u, v), w in weights.items():
                e = canonical_edge(u, v)
                if e not in canon:
                    raise TopologyError(f"weight given for non-edge {e}")
                normalised[e] = int(w)
            self._weights: Optional[Dict[Edge, int]] = normalised
        else:
            self._weights = None
        if require_connected and not self._check_connected():
            raise TopologyError("topology is not connected")

    # ------------------------------------------------------------------
    # Fast-path constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        n: int,
        edges: Sequence[Edge],
        weights: Optional[Dict[Edge, int]] = None,
        require_connected: bool = True,
    ) -> "Topology":
        """Build from a **pre-canonical** edge array in one O(m) pass.

        ``edges`` must already be what the reference constructor would
        have produced: canonical ``(u, v)`` pairs with ``u < v``, in
        strictly increasing lexicographic order (hence deduplicated).
        A single linear validation scan enforces exactly that and
        raises :class:`TopologyError` otherwise, so a fast-path
        topology can never silently diverge from a reference one — but
        the sort, the dedup set, and the eager adjacency/frozenset
        builds are all skipped.

        ``weights`` keys are trusted to be canonical edges of the graph
        (generators derive them from the edge array itself); use the
        reference constructor or :meth:`with_weights` for unvalidated
        weight dicts.
        """
        if n <= 0:
            raise TopologyError("a topology needs at least one node")
        edge_tuple: Tuple[Edge, ...] = tuple(edges)
        prev_u, prev_v = -1, -1
        for u, v in edge_tuple:
            if not 0 <= u < v < n:
                raise TopologyError(
                    f"edge ({u}, {v}) is not canonical / in range for n={n}"
                )
            if (u, v) <= (prev_u, prev_v):
                raise TopologyError(
                    f"edge array not strictly sorted at ({u}, {v})"
                )
            prev_u, prev_v = u, v
        self = cls.__new__(cls)
        self._n = n
        self._kernels = {}
        self._edges = edge_tuple
        self._edge_set = None
        self._adj = None
        self._weights = (
            {e: int(w) for e, w in weights.items()} if weights is not None else None
        )
        if require_connected and not _connected_union_find(n, edge_tuple):
            raise TopologyError("topology is not connected")
        return self

    @classmethod
    def from_csr(
        cls,
        csr,
        weights: Optional[Dict[Edge, int]] = None,
        require_connected: bool = True,
    ) -> "Topology":
        """Build from an :class:`~repro.graphs.csr.AdjacencyCSR`.

        The canonical edge array is reconstructed from the ``u < v``
        adjacency slots (positions given by ``csr.edge_ids``), run
        through the :meth:`from_arrays` validation, and the CSR itself
        is seeded into the kernel cache so downstream consumers reuse
        it as-is.
        """
        recovered: List[Optional[Edge]] = [None] * csr.m
        indptr, indices, ids = csr.indptr, csr.indices, csr.edge_ids
        for v in range(csr.n):
            for k in range(indptr[v], indptr[v + 1]):
                w = indices[k]
                if v < w:
                    eid = ids[k]
                    if not 0 <= eid < csr.m:
                        raise TopologyError(
                            f"CSR edge id {eid} out of range for m={csr.m}"
                        )
                    recovered[eid] = (v, w)
        if any(edge is None for edge in recovered):
            raise TopologyError("CSR does not describe a canonical edge set")
        topology = cls.from_arrays(
            csr.n, recovered, weights=weights, require_connected=require_connected
        )
        topology._kernels["csr"] = csr
        return topology

    # ------------------------------------------------------------------
    # Lazy derived structures
    # ------------------------------------------------------------------

    def _edge_lookup(self) -> frozenset:
        """The edge frozenset, built on first membership query."""
        edge_set = self._edge_set
        if edge_set is None:
            edge_set = frozenset(self._edges)
            self._edge_set = edge_set
        return edge_set

    def _adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """The tuple-of-tuples adjacency, built on first neighbor query.

        One append pass over the sorted canonical edge array yields
        each node's neighbors already in ascending order: a node's
        smaller neighbors arrive first (edges where it is the ``max``
        endpoint, ascending by the other end), then its larger
        neighbors (edges where it is the ``min`` endpoint, ascending).
        """
        adj = self._adj
        if adj is None:
            lists: List[List[int]] = [[] for _ in range(self._n)]
            for u, v in self._edges:
                lists[u].append(v)
                lists[v].append(u)
            adj = tuple(tuple(neighbors) for neighbors in lists)
            self._adj = adj
        return adj

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges in canonical, sorted order."""
        return self._edges

    @property
    def nodes(self) -> range:
        """The node identifiers ``0 .. n-1``."""
        return range(self._n)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbors of node ``v``."""
        adj = self._adj
        if adj is None:
            adj = self._adjacency()
        return adj[v]

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        adj = self._adj
        if adj is None:
            adj = self._adjacency()
        return len(adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        if u == v:
            return False
        return canonical_edge(u, v) in self._edge_lookup()

    @property
    def is_weighted(self) -> bool:
        """Whether explicit edge weights were provided."""
        return self._weights is not None

    def weight(self, u: int, v: int) -> int:
        """Weight of the edge ``{u, v}`` (default 1)."""
        e = canonical_edge(u, v)
        if e not in self._edge_lookup():
            raise TopologyError(f"no edge {e}")
        if self._weights is None:
            return 1
        return self._weights.get(e, 1)

    def with_weights(self, weights: Dict[Edge, int]) -> "Topology":
        """Return a copy of this topology carrying the given weights.

        The twin shares this topology's canonical edge array *and* its
        kernel cache (CSR structures depend only on the edge array), so
        attaching weights costs one pass over the weight dict instead
        of a full re-canonicalisation.
        """
        edge_set = self._edge_lookup()
        normalised: Dict[Edge, int] = {}
        for (u, v), w in weights.items():
            e = canonical_edge(u, v)
            if e not in edge_set:
                raise TopologyError(f"weight given for non-edge {e}")
            normalised[e] = int(w)
        twin = Topology.__new__(Topology)
        twin._n = self._n
        twin._edges = self._edges
        twin._edge_set = self._edge_set
        twin._adj = self._adj
        twin._weights = normalised
        # Shared on purpose: every cached kernel is a function of
        # (n, edges) only, so the weighted twin may reuse them all.
        twin._kernels = self._kernels
        return twin

    def delete_edges(
        self,
        failed: Iterable[Tuple[int, int]],
        *,
        require_connected: bool = False,
    ) -> "Topology":
        """Derive the surviving topology after an edge-failure set.

        The failure layer's fast path: one filter pass over the sorted
        canonical edge array (which therefore *stays* canonical and
        sorted — no re-validation scan, no re-sort), weights restricted
        to the survivors, and a **fresh** kernel cache.  Unlike
        :meth:`with_weights`, the survivor must not share this
        topology's ``_kernels`` / ``_edge_set`` / ``_adj``: every one of
        those is a function of the edge array, and the edge array just
        changed.

        Deleting an edge that is not in the graph raises
        :class:`TopologyError` (a failure scenario naming a non-edge is
        a bug in the scenario, not a no-op).

        ``require_connected`` defaults to **False** — failure scenarios
        that disconnect the graph are first-class; inspect the result
        via :meth:`components` / :attr:`is_connected` instead of
        catching an error.
        """
        edge_set = self._edge_lookup()
        doomed = set()
        for u, v in failed:
            e = canonical_edge(u, v)
            if e not in edge_set:
                raise TopologyError(f"cannot delete non-edge {e}")
            doomed.add(e)
        survivors: Tuple[Edge, ...] = tuple(
            e for e in self._edges if e not in doomed
        )
        twin = Topology.__new__(Topology)
        twin._n = self._n
        twin._edges = survivors
        # NOT shared (unlike with_weights): the edge array differs, so
        # every derived structure must be rebuilt on demand.
        twin._edge_set = None
        twin._adj = None
        twin._kernels = {}
        if self._weights is None:
            twin._weights = None
        else:
            twin._weights = {
                e: w for e, w in self._weights.items() if e not in doomed
            }
        if require_connected and not twin._check_connected():
            raise TopologyError(
                f"deleting {len(doomed)} edges disconnects the topology"
            )
        return twin

    def delete_edge_ids(self, doomed_ids: Iterable[int]) -> "Topology":
        """Survivor after deleting edges by *index* into :attr:`edges`.

        The id-native twin of :meth:`delete_edges`, for callers that
        have already resolved a failure set to edge ids — e.g. the
        batched scenario sweep (:func:`repro.failures.scenarios.survivors_batch`),
        which validates a whole scenario grid against the sorted edge-key
        array in one ``searchsorted``.  The survivor is field-identical
        to the :meth:`delete_edges` twin: the same order-preserving
        canonical edge tuple, weights restricted in the same insertion
        order, and a fresh kernel cache.
        """
        doomed = set()
        for raw in doomed_ids:
            index = int(raw)
            if not 0 <= index < len(self._edges):
                raise TopologyError(
                    f"cannot delete edge id {index} of {len(self._edges)}"
                )
            doomed.add(index)
        survivors: Tuple[Edge, ...] = tuple(
            e for i, e in enumerate(self._edges) if i not in doomed
        )
        twin = Topology.__new__(Topology)
        twin._n = self._n
        twin._edges = survivors
        twin._edge_set = None
        twin._adj = None
        twin._kernels = {}
        if self._weights is None:
            twin._weights = None
        else:
            doomed_edges = {self._edges[i] for i in doomed}
            twin._weights = {
                e: w
                for e, w in self._weights.items()
                if e not in doomed_edges
            }
        return twin

    # ------------------------------------------------------------------
    # Connectivity structure
    # ------------------------------------------------------------------

    def components(self) -> Tuple[Tuple[int, ...], ...]:
        """The connected components as sorted node tuples (cached).

        Components are ordered by their minimum node id; a connected
        topology has exactly one.  This is the explicit,
        non-exceptional way to observe disconnection (e.g. after
        :meth:`delete_edges`): layers that need a connected graph check
        :attr:`is_connected` and report the components instead of
        failing deep inside a BFS.
        """
        cached = self._kernels.get("components")
        if cached is None:
            n = self._n
            parent = list(range(n))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in self._edges:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
            groups: Dict[int, List[int]] = {}
            for v in range(n):
                groups.setdefault(find(v), []).append(v)
            cached = tuple(
                tuple(members)
                for members in sorted(groups.values(), key=lambda ms: ms[0])
            )
            self._kernels["components"] = cached
        return cached

    @property
    def is_connected(self) -> bool:
        """Whether the graph is connected (component count is one)."""
        return len(self.components()) == 1

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------

    def bfs_distances(self, source: int) -> List[int]:
        """Unweighted distances from ``source``; ``-1`` for unreachable."""
        adj = self._adjacency()
        dist = [-1] * self._n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    queue.append(w)
        return dist

    def eccentricity(self, source: int) -> int:
        """Largest distance from ``source`` to any node."""
        dist = self.bfs_distances(source)
        if min(dist) < 0:
            raise TopologyError("eccentricity undefined on disconnected graph")
        return max(dist)

    def diameter(self, exact: Optional[bool] = None) -> int:
        """Diameter of the graph.

        With ``exact=True`` (or ``None`` and ``n <= 2048``), runs a BFS
        from every node.  Otherwise uses a double-sweep: the result is
        a lower bound that is exact on trees and very tight on the
        mesh-like topologies used in this repository.
        """
        if exact is None:
            exact = self._n <= 2048
        if exact:
            return max(self.eccentricity(v) for v in range(self._n))
        far = max(range(self._n), key=lambda v: self.bfs_distances(0)[v])
        return self.eccentricity(far)

    def _check_connected(self) -> bool:
        return _connected_union_find(self._n, self._edges)

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------

    @classmethod
    def from_networkx(cls, graph, weight_attr: str = "weight") -> "Topology":
        """Build a topology from a ``networkx`` graph.

        Node labels are relabelled to ``0 .. n-1`` in sorted order (or
        insertion order when labels are not sortable).  Edge weights
        are taken from ``weight_attr`` when present on every edge.
        """
        nodes = list(graph.nodes())
        try:
            nodes.sort()
        except TypeError:
            pass
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in graph.edges()]
        weights = None
        if all(weight_attr in data for _, _, data in graph.edges(data=True)):
            if graph.number_of_edges() > 0:
                weights = {
                    canonical_edge(index[u], index[v]): int(data[weight_attr])
                    for u, v, data in graph.edges(data=True)
                }
        return cls(len(nodes), edges, weights=weights)

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` with ``weight`` attributes."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._n))
        for u, v in self._edges:
            graph.add_edge(u, v, weight=self.weight(u, v))
        return graph

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        tag = "weighted" if self.is_weighted else "unweighted"
        return f"Topology(n={self._n}, m={self.m}, {tag})"


def component_subtopologies(
    topology: Topology,
) -> List[Tuple[Topology, Tuple[int, ...]]]:
    """Split a (possibly disconnected) topology into standalone pieces.

    Returns one ``(subtopology, nodes)`` pair per connected component,
    in :meth:`Topology.components` order; ``nodes[local]`` is the global
    id of the component's local node ``local``.  Each piece is built
    array-natively: the global canonical edge array is dispatched in a
    single pass, and because the per-component node tuples are ascending
    the relabelling is monotone — each piece's edge list comes out
    already canonical and sorted, so :meth:`Topology.from_arrays` gets a
    trusted input (connectivity of each piece holds by construction and
    is not re-checked).  Weights are carried over per surviving edge.

    This is the shared substrate of the components-aware application
    results (MST forest, per-component connectivity): run the connected
    algorithm on each piece, then map node ids back through ``nodes``.
    """
    components = topology.components()
    if len(components) == 1:
        return [(topology, tuple(range(topology.n)))]
    local = [-1] * topology.n
    comp_of = [-1] * topology.n
    for index, members in enumerate(components):
        for i, v in enumerate(members):
            local[v] = i
            comp_of[v] = index
    edge_lists: List[List[Edge]] = [[] for _ in components]
    weight_dicts: List[Optional[Dict[Edge, int]]] = [
        {} if topology.is_weighted else None for _ in components
    ]
    for u, v in topology.edges:
        index = comp_of[u]
        e = (local[u], local[v])
        edge_lists[index].append(e)
        weights = weight_dicts[index]
        if weights is not None:
            weights[e] = topology.weight(u, v)
    return [
        (
            Topology.from_arrays(
                len(members),
                edge_lists[index],
                weights=weight_dicts[index],
                require_connected=False,
            ),
            members,
        )
        for index, members in enumerate(components)
    ]
