"""Shortcut objects (Definitions 1 and 2 of the paper).

A *shortcut* assigns each part ``P_i`` an auxiliary edge set ``H_i``
that the part may use for internal communication on top of ``G[P_i]``.
A *tree-restricted* shortcut (Definition 2) additionally requires every
``H_i`` to consist of edges of a fixed rooted spanning tree ``T``.

:class:`TreeRestrictedShortcut` is the central object of this library:
the constructions of Section 5 produce one, the routing schemes of
Section 4.3 consume one, and :mod:`repro.core.quality` measures one.

Storage follows the paper's distributed representation (Section 4.1):
a node knows which parts use its parent edge, so a tree edge is named
by its *child* node.  A shortcut is one flat stdlib ``array('q')`` of
child nodes, grouped by part and ascending within each part, plus
``N + 1`` per-part offsets — the ``(part, child)`` slots that the
constructions emit and the quality and batch kernels read.  The edge
forms (``subgraphs``, ``subgraph(i)``, ``edge_map``) are views built
from the slots on first use and cached.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.congest.topology import Edge, Topology, canonical_edge
from repro.errors import ShortcutError
from repro.graphs.csr import tree_arrays
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


def pack_children(per_part: Iterable[Iterable[int]]) -> Tuple[array, array]:
    """Slot storage of one collection of distinct child nodes per part
    (any order): ``(children, offsets)``, ascending within each part."""
    children = array("q")
    offsets = array("q", [0])
    for kids in per_part:
        children.extend(sorted(kids))
        offsets.append(len(children))
    return children, offsets


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

    Storage
    -------
    children, offsets:
        ``children[offsets[i]:offsets[i + 1]]`` are the child nodes of
        the tree edges in ``H_i``, ascending; both are ``array('q')``.
        ``len(children)`` is the number of edge slots ``Σ|H_i|``.

    ``subgraphs``, ``subgraph(i)`` and ``edge_map`` are views over
    these slots, built on first use and cached.
    """

    __slots__ = (
        "tree",
        "partition",
        "children",
        "offsets",
        "_subgraphs",
        "_edge_map",
    )

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
        tree_edges = tree.edges
        parent = tree_arrays(tree).parent
        per_part: List[Iterable[int]] = []
        for index, subgraph in enumerate(subgraphs):
            kids = set()
            for u, v in subgraph:
                edge = canonical_edge(u, v)
                if edge not in tree_edges:
                    raise ShortcutError(
                        f"H_{index} contains non-tree edge {edge}; a "
                        f"T-restricted shortcut may only use tree edges"
                    )
                kids.add(u if parent[u] == v else v)
            per_part.append(kids)
        self.tree = tree
        self.partition = partition
        self.children, self.offsets = pack_children(per_part)
        self._subgraphs: Optional[Tuple[FrozenSet[Edge], ...]] = None
        self._edge_map: Optional[Dict[Edge, FrozenSet[int]]] = None

    @classmethod
    def _from_children(
        cls,
        tree: SpanningTree,
        partition: Partition,
        children: array,
        offsets: array,
    ) -> "TreeRestrictedShortcut":
        """Internal: wrap ready-made slots without validation.

        ``children`` / ``offsets`` must already be the storage layout:
        child nodes of ``tree``, grouped by part, ascending and distinct
        within each part.  The direct and batched kernels emit exactly
        that, and :meth:`restricted_to`, :meth:`merged_with` and
        :meth:`empty` only recombine validated slots over one tree, so
        callers take on the invariant that :meth:`__init__` checks.
        """
        shortcut = cls.__new__(cls)
        shortcut.tree = tree
        shortcut.partition = partition
        shortcut.children = children
        shortcut.offsets = offsets
        shortcut._subgraphs = None
        shortcut._edge_map = None
        return shortcut

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of parts (the paper's ``N``)."""
        return self.partition.size

    def part_children(self, index: int) -> array:
        """Child nodes of the tree edges in ``H_i``, ascending."""
        return self.children[self.offsets[index] : self.offsets[index + 1]]

    def subgraph(self, index: int) -> FrozenSet[Edge]:
        """The edge set ``H_i``."""
        return self.subgraphs[index]

    @property
    def subgraphs(self) -> Tuple[FrozenSet[Edge], ...]:
        """All subgraphs ``H_1 .. H_N`` as canonical edge frozensets."""
        if self._subgraphs is None:
            parent = tree_arrays(self.tree).parent
            self._subgraphs = tuple(
                frozenset(
                    (c, parent[c]) if c < parent[c] else (parent[c], c)
                    for c in self.part_children(index)
                )
                for index in range(self.size)
            )
        return self._subgraphs

    @property
    def edge_map(self) -> Dict[Edge, FrozenSet[int]]:
        """Mapping ``tree edge -> set of parts whose H_i contains it``."""
        if self._edge_map is None:
            accumulator: Dict[int, List[int]] = {}
            for index in range(self.size):
                for child in self.part_children(index):
                    accumulator.setdefault(child, []).append(index)
            parent = tree_arrays(self.tree).parent
            self._edge_map = {
                canonical_edge(c, parent[c]): frozenset(parts)
                for c, parts in accumulator.items()
            }
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
        tree_edges = tree.edges
        parent = tree_arrays(tree).parent
        per_part: List[set] = [set() for _ in range(partition.size)]
        for edge, parts in edge_map.items():
            u, v = canonical_edge(*edge)
            if (u, v) not in tree_edges:
                raise ShortcutError(
                    f"edge {(u, v)} is not a tree edge; a T-restricted "
                    f"shortcut may only use tree edges"
                )
            child = u if parent[u] == v else v
            for index in parts:
                if not 0 <= index < partition.size:
                    raise ShortcutError(f"edge {edge} assigned to bad part {index}")
                per_part[index].add(child)
        return cls._from_children(tree, partition, *pack_children(per_part))

    @classmethod
    def empty(
        cls, tree: SpanningTree, partition: Partition
    ) -> "TreeRestrictedShortcut":
        """The trivial shortcut with ``H_i = ∅`` for all parts."""
        return cls._from_children(
            tree, partition, array("q"), array("q", [0]) * (partition.size + 1)
        )

    def restricted_to(self, keep: Iterable[int]) -> "TreeRestrictedShortcut":
        """Zero out all subgraphs except those in ``keep``.

        Used by FindShortcut when only the *good* parts of an iteration
        retain their computed subgraphs.
        """
        keep_set = set(keep)
        children = array("q")
        offsets = array("q", [0])
        for index in range(self.size):
            if index in keep_set:
                children.extend(self.part_children(index))
            offsets.append(len(children))
        return TreeRestrictedShortcut._from_children(
            self.tree, self.partition, children, offsets
        )

    def merged_with(
        self, other: "TreeRestrictedShortcut"
    ) -> "TreeRestrictedShortcut":
        """Per-part union of two shortcuts over the same tree/partition.

        FindShortcut accumulates the good subgraphs of successive
        iterations this way; congestion adds up, as in Theorem 3.
        """
        if other.tree is not self.tree:
            if other.tree.edges != self.tree.edges:
                raise ShortcutError("cannot merge shortcuts over different trees")
            # Same edges, possibly another root: re-name edges by their
            # child in this tree.
            other = TreeRestrictedShortcut(self.tree, other.partition, other.subgraphs)
        if other.partition is not self.partition:
            raise ShortcutError("cannot merge shortcuts over different partitions")
        per_part = []
        for index in range(self.size):
            mine = self.part_children(index)
            theirs = other.part_children(index)
            if not theirs:
                per_part.append(mine)
            elif not mine:
                per_part.append(theirs)
            else:
                per_part.append(set(mine).union(theirs))
        return TreeRestrictedShortcut._from_children(
            self.tree, self.partition, *pack_children(per_part)
        )

    def as_general(self) -> GeneralShortcut:
        """Forget the tree restriction (Definition 2 ⊆ Definition 1)."""
        return GeneralShortcut(self.partition, self.subgraphs)

    def validate_in(self, topology: Topology) -> None:
        """Check tree and partition consistency against a topology."""
        self.tree.validate_in(topology)
        self.partition.validate_connected(topology)

    def __repr__(self) -> str:
        return (
            f"TreeRestrictedShortcut(N={self.size}, "
            f"assigned_edge_slots={len(self.children)})"
        )
