"""Shortcut objects (Definitions 1 and 2 of the paper).

A *shortcut* assigns each part ``P_i`` an auxiliary edge set ``H_i``
that the part may use for internal communication on top of ``G[P_i]``.
A *tree-restricted* shortcut (Definition 2) additionally requires every
``H_i`` to consist of edges of a fixed rooted spanning tree ``T``.

:class:`TreeRestrictedShortcut` is the central object of this library:
the constructions of Section 5 produce one, the routing schemes of
Section 4.3 consume one, and :mod:`repro.core.quality` measures one.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.congest.topology import Edge, Topology, canonical_edge
from repro.errors import ShortcutError
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree


class GeneralShortcut:
    """A shortcut in the sense of Definition 1 (no tree restriction).

    Stored as one edge set per part.  Only used for comparisons and for
    validating that tree-restricted shortcuts are a special case.
    """

    __slots__ = ("partition", "_subgraphs")

    def __init__(
        self, partition: Partition, subgraphs: Sequence[Iterable[Edge]]
    ) -> None:
        if len(subgraphs) != partition.size:
            raise ShortcutError(
                f"expected {partition.size} subgraphs, got {len(subgraphs)}"
            )
        self.partition = partition
        self._subgraphs: Tuple[FrozenSet[Edge], ...] = tuple(
            frozenset(canonical_edge(u, v) for u, v in sub) for sub in subgraphs
        )

    @property
    def size(self) -> int:
        """Number of parts."""
        return self.partition.size

    def subgraph(self, index: int) -> FrozenSet[Edge]:
        """The edge set ``H_i``."""
        return self._subgraphs[index]


class TreeRestrictedShortcut:
    """A ``T``-restricted shortcut (Definition 2): every ``H_i ⊆ E_T``.

    Parameters
    ----------
    tree:
        The rooted spanning tree ``T``.
    partition:
        The parts ``P_1 .. P_N``.
    subgraphs:
        ``subgraphs[i]`` is the edge set ``H_i``; every edge must be a
        tree edge.
    """

    __slots__ = ("tree", "partition", "_subgraphs", "_edge_map")

    def __init__(
        self,
        tree: SpanningTree,
        partition: Partition,
        subgraphs: Sequence[Iterable[Edge]],
    ) -> None:
        if len(subgraphs) != partition.size:
            raise ShortcutError(
                f"expected {partition.size} subgraphs, got {len(subgraphs)}"
            )
        normalised: List[FrozenSet[Edge]] = []
        for index, subgraph in enumerate(subgraphs):
            edges = frozenset(canonical_edge(u, v) for u, v in subgraph)
            for edge in edges:
                if edge not in tree.edges:
                    raise ShortcutError(
                        f"H_{index} contains non-tree edge {edge}; a "
                        f"T-restricted shortcut may only use tree edges"
                    )
            normalised.append(edges)
        self.tree = tree
        self.partition = partition
        self._subgraphs: Tuple[FrozenSet[Edge], ...] = tuple(normalised)
        self._edge_map: Optional[Dict[Edge, FrozenSet[int]]] = None

    @classmethod
    def _from_canonical(
        cls,
        tree: SpanningTree,
        partition: Partition,
        subgraphs: Sequence[FrozenSet[Edge]],
    ) -> "TreeRestrictedShortcut":
        """Internal: build from already-canonical tree-edge frozensets.

        The direct and batched kernels emit ``(min, max)`` parent links
        read straight off the tree arrays, and :meth:`restricted_to`,
        :meth:`merged_with` and :meth:`empty` only recombine validated
        subgraphs over one tree, so every subgraph is a frozenset of
        canonical tree edges by construction; callers take on the
        invariant that :meth:`__init__` would otherwise re-check.
        """
        shortcut = cls.__new__(cls)
        shortcut.tree = tree
        shortcut.partition = partition
        shortcut._subgraphs = tuple(subgraphs)
        shortcut._edge_map = None
        return shortcut

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of parts (the paper's ``N``)."""
        return self.partition.size

    def subgraph(self, index: int) -> FrozenSet[Edge]:
        """The edge set ``H_i``."""
        return self._subgraphs[index]

    @property
    def subgraphs(self) -> Tuple[FrozenSet[Edge], ...]:
        """All subgraphs ``H_1 .. H_N``."""
        return self._subgraphs

    @property
    def edge_map(self) -> Dict[Edge, FrozenSet[int]]:
        """Mapping ``tree edge -> set of parts whose H_i contains it``."""
        if self._edge_map is None:
            accumulator: Dict[Edge, set] = {}
            for index, subgraph in enumerate(self._subgraphs):
                for edge in subgraph:
                    accumulator.setdefault(edge, set()).add(index)
            self._edge_map = {e: frozenset(s) for e, s in accumulator.items()}
        return self._edge_map

    def parts_using(self, u: int, v: int) -> FrozenSet[int]:
        """Parts whose shortcut subgraph contains the tree edge ``{u, v}``."""
        return self.edge_map.get(canonical_edge(u, v), frozenset())

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edge_map(
        cls,
        tree: SpanningTree,
        partition: Partition,
        edge_map: Mapping[Edge, Iterable[int]],
    ) -> "TreeRestrictedShortcut":
        """Build from a per-edge assignment (the constructions' output)."""
        subgraphs: List[set] = [set() for _ in range(partition.size)]
        for edge, parts in edge_map.items():
            for index in parts:
                if not 0 <= index < partition.size:
                    raise ShortcutError(f"edge {edge} assigned to bad part {index}")
                subgraphs[index].add(canonical_edge(*edge))
        return cls(tree, partition, subgraphs)

    @classmethod
    def empty(
        cls, tree: SpanningTree, partition: Partition
    ) -> "TreeRestrictedShortcut":
        """The trivial shortcut with ``H_i = ∅`` for all parts."""
        return cls._from_canonical(tree, partition, [frozenset()] * partition.size)

    def restricted_to(self, keep: Iterable[int]) -> "TreeRestrictedShortcut":
        """Zero out all subgraphs except those in ``keep``.

        Used by FindShortcut when only the *good* parts of an iteration
        retain their computed subgraphs.
        """
        keep_set = set(keep)
        subgraphs = [
            self._subgraphs[i] if i in keep_set else frozenset()
            for i in range(self.size)
        ]
        return TreeRestrictedShortcut._from_canonical(
            self.tree, self.partition, subgraphs
        )

    def merged_with(
        self, other: "TreeRestrictedShortcut"
    ) -> "TreeRestrictedShortcut":
        """Per-part union of two shortcuts over the same tree/partition.

        FindShortcut accumulates the good subgraphs of successive
        iterations this way; congestion adds up, as in Theorem 3.
        """
        if other.tree is not self.tree and other.tree.edges != self.tree.edges:
            raise ShortcutError("cannot merge shortcuts over different trees")
        if other.partition is not self.partition:
            raise ShortcutError("cannot merge shortcuts over different partitions")
        subgraphs = [
            self._subgraphs[i] | other._subgraphs[i] for i in range(self.size)
        ]
        return TreeRestrictedShortcut._from_canonical(
            self.tree, self.partition, subgraphs
        )

    def as_general(self) -> GeneralShortcut:
        """Forget the tree restriction (Definition 2 ⊆ Definition 1)."""
        return GeneralShortcut(self.partition, self._subgraphs)

    def validate_in(self, topology: Topology) -> None:
        """Check tree and partition consistency against a topology."""
        self.tree.validate_in(topology)
        self.partition.validate_connected(topology)

    def __repr__(self) -> str:
        used = sum(len(s) for s in self._subgraphs)
        return (
            f"TreeRestrictedShortcut(N={self.size}, "
            f"assigned_edge_slots={used})"
        )
