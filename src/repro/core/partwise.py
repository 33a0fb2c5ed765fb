"""Part-parallel primitives on a tree-restricted shortcut.

Implements Theorem 2 and Lemma 3: leader election, convergecast,
broadcast, and block counting *for all parts in parallel*, each in
``O(b (D + c))`` rounds.

The engine follows the paper's supergraph view: contract every block
component of ``H_i`` into a supernode; ``G[P_i]``'s connectivity makes
the supergraph connected, with at most ``b`` supernodes.  One
**superstep** is

1. an intra-block convergecast + broadcast (Lemma 2 routing over all
   blocks of all parts at once — ``O(D + c)`` rounds), and
2. one **exchange** round over part-internal edges (``G[P_i]``).

Every higher-level operation is a fixed number of supersteps with
purely node-local state updates between them, so the round accounting
(recorded on the ledger) matches the paper's analysis exactly while the
information flow stays faithful to the CONGEST model: a node only ever
uses values it received through simulated messages or could derive
locally.

The engine runs on one of two *backends* (see
:mod:`repro.core.partwise_fast`): ``backend="simulate"`` (default)
executes every superstep as a node program on the CONGEST simulator,
``backend="direct"`` replays the identical deterministic dynamics as
centralized array passes — bit-for-bit equal results *and* ledger
charges, at a fraction of the cost.  The direct min-flood
(:meth:`PartwiseEngine.minimum_per_part`, and so leader election and
leader broadcasts) runs on the contracted supergraph itself: one value
per block, one ``min`` over adjacent blocks per superstep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.engine import EngineLike
from repro.congest.simulator import Simulator
from repro.congest.topology import Topology
from repro.congest.trace import RoundLedger
from repro.core.quality import BlockComponent
from repro.core.quality_fast import block_tops
from repro.core.shortcut import TreeRestrictedShortcut
from repro.core.tree_routing import (
    SubtreeTask,
    TaskKey,
    _combine,
    broadcast as subtree_broadcast,
    convergecast as subtree_convergecast,
    make_task,
)
from repro.graphs.csr import tree_arrays
from repro.graphs.spanning_trees import SpanningTree

Values = Dict[int, Optional[int]]

EXCHANGE_TOKEN = "x"


class PartExchangeAlgorithm(NodeAlgorithm):
    """One round of message exchange over part-internal edges.

    Per-node inputs: ``part_neighbors`` (neighbors in the same part)
    and ``payload`` (a flat tuple of small ints, or ``None`` to stay
    silent).  Outputs: ``received`` — list of ``(sender, payload)``.
    """

    name = "part-exchange"

    def on_start(self, node) -> None:
        node.state.received = []
        if node.state.payload is not None:
            for neighbor in node.state.part_neighbors:
                node.send(neighbor, (EXCHANGE_TOKEN,) + node.state.payload)

    def on_round(self, node, messages) -> None:
        for sender, payload in messages:
            node.state.received.append((sender, payload[1:]))


class PartwiseEngine:
    """Runs Theorem 2 / Lemma 3 operations over one shortcut.

    Parameters
    ----------
    topology, tree, partition:
        The instance.  ``partition`` is taken from the shortcut.
    shortcut:
        The tree-restricted shortcut to route on.
    seed:
        Simulation seed.
    ledger:
        Optional ledger accumulating round costs (one entry per
        simulated phase).
    backend:
        ``"simulate"`` runs every superstep on the CONGEST simulator;
        ``"direct"`` computes identical results (and identical ledger
        charges) with the replay kernels of
        :mod:`repro.core.partwise_fast`.  ``None`` uses the current
        scope's backend (:func:`~repro.core.partwise_fast.using_backend`).
    """

    def __init__(
        self,
        topology: Topology,
        shortcut: TreeRestrictedShortcut,
        *,
        seed: int = 0,
        ledger: Optional[RoundLedger] = None,
        engine: EngineLike = None,
        backend: Optional[str] = None,
    ) -> None:
        from repro.core.partwise_fast import resolve_backend

        self.topology = topology
        self.sim_engine = engine
        self.backend = resolve_backend(backend)
        self.tree: SpanningTree = shortcut.tree
        self.partition = shortcut.partition
        self.shortcut = shortcut
        self.seed = seed
        self.ledger = ledger if ledger is not None else RoundLedger()
        self._step = 0

        # Block structure.  Distributively this is local knowledge: a
        # node knows which parts use its parent edge (the construction
        # outputs) plus the block-root depth from the paper's
        # "distributed representation" (Section 4.1).
        # A block is keyed by its topmost ancestor-or-self through H_i
        # (quality_fast.block_tops); all parts' blocks come from one
        # pass over the shortcut's slot children.
        self.blocks: List[BlockComponent] = []
        self.block_of: Dict[int, BlockComponent] = {}  # Pi member -> its block
        self._task_key_of: Dict[int, TaskKey] = {}  # Pi member -> its block's task
        arrays = tree_arrays(self.tree)
        parent, depth = arrays.parent, arrays.depth
        for index in range(self.partition.size):
            kids = shortcut.part_children(index)
            top = block_tops(parent, kids)
            members_of: Dict[int, List[int]] = {}
            for v in self.partition.members(index):
                members_of.setdefault(top.get(v, v), []).append(v)
            nodes_of: Dict[int, set] = {root: set(m) for root, m in members_of.items()}
            for c in kids:
                nodes = nodes_of.get(top[c])
                if nodes is not None:  # else a block that misses P_i
                    nodes.add(c)
                    nodes.add(parent[c])
            for root in sorted(members_of, key=lambda r: (depth[r], r)):
                block = BlockComponent(
                    part=index,
                    root=root,
                    root_depth=depth[root],
                    nodes=frozenset(nodes_of[root]),
                )
                self.blocks.append(block)
                for v in members_of[root]:
                    self.block_of[v] = block
                    self._task_key_of[v] = (index, root)
        self.tasks: Dict[Tuple[int, int], SubtreeTask] = {
            (blk.part, blk.root): make_task(self.tree, blk.part, blk.nodes)
            for blk in self.blocks
        }
        # Direct-backend Lemma 2 schedule costs as (rounds, messages):
        # the convergecast runs over every task, the broadcast over the
        # tasks whose block carries a value (keyed in ``self.tasks`` order).
        self._convergecast_cost: Optional[Tuple[int, int]] = None
        self._broadcast_costs: Dict[Tuple[TaskKey, ...], Tuple[int, int]] = {}
        # Direct-backend supergraph (see _supergraph), built on first use.
        self._contracted: Optional[
            Tuple[List[int], List[Tuple[int, ...]], List[int]]
        ] = None

        # Part-internal neighborhood (one round of neighbor discovery,
        # charged up front).  The scan depends only on (topology,
        # labels), so it is computed once per fragment partition and
        # shared by every engine over it — the round itself is still
        # charged per engine, as each would pay it distributively.
        from repro.core.partwise_fast import part_scan_cached

        self.part_neighbors: Dict[int, Tuple[int, ...]] = part_scan_cached(
            topology, self.partition
        ).neighbors
        self.ledger.charge("partwise/neighbor-discovery", 1, 2 * topology.m)

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------

    def block_aggregate(self, values: Values, combine: str = "min") -> Values:
        """One intra-block convergecast + broadcast (<= 2(D + c) rounds).

        ``values[v]`` is the contribution of part member ``v`` (``None``
        contributes nothing).  Returns, for every part member, the
        combined value over its block; ``None`` for nodes outside all
        parts.
        """
        if self.backend == "direct":
            return self._block_aggregate_direct(values, combine)
        task_values: Dict[Tuple[int, int], Dict[int, int]] = {}
        for v, block in self.block_of.items():
            value = values.get(v)
            if value is not None:
                task_values.setdefault((block.part, block.root), {})[v] = value
        self._step += 1
        combined, _cc_result = subtree_convergecast(
            self.topology,
            self.tree,
            self.tasks.values(),
            task_values,
            combine,
            seed=self.seed + self._step,
            ledger=self.ledger,
            phase_name=f"partwise/convergecast#{self._step}",
            engine=self.sim_engine,
        )
        root_values = {key: val for key, val in combined.items() if val is not None}
        self._step += 1
        delivered, _bc_result = subtree_broadcast(
            self.topology,
            self.tree,
            [self.tasks[key] for key in root_values],
            root_values,
            seed=self.seed + self._step,
            ledger=self.ledger,
            phase_name=f"partwise/broadcast#{self._step}",
            engine=self.sim_engine,
        )
        out: Values = {}
        for v, block in self.block_of.items():
            out[v] = delivered.get((block.part, block.root), {}).get(v)
        return out

    def _block_aggregate_direct(self, values: Values, combine: str) -> Values:
        """Direct twin of :meth:`block_aggregate`.

        Lemma 2 delivers every block's combine over its members to every
        member, so the values are folded per block directly.  The
        simulated schedule never looks at the values — the convergecast
        depends only on the task set, the broadcast only on which tasks
        carry a value — so each cost is replayed once per engine and
        charged from the cache afterwards.
        """
        folded: Dict[TaskKey, int] = {}
        for v, key in self._task_key_of.items():
            value = values.get(v)
            if value is not None:
                folded[key] = _combine(combine, folded.get(key), value)
        self._charge_block_step(tuple(key for key in self.tasks if key in folded))
        return {v: folded.get(key) for v, key in self._task_key_of.items()}

    def _charge_block_step(self, participating: Tuple[TaskKey, ...]) -> None:
        """Charge one direct block step: the convergecast over every task
        plus the broadcast over ``participating`` (in ``self.tasks``
        order), each from its per-engine cost cache."""
        from repro.core import partwise_fast

        if self._convergecast_cost is None:
            tasks = self.tasks.values()
            self._convergecast_cost = (
                partwise_fast.convergecast_rounds(self.tree, tasks),
                partwise_fast.subtree_messages(tasks),
            )
        self._step += 1
        self.ledger.charge(
            f"partwise/convergecast#{self._step}", *self._convergecast_cost
        )

        cost = self._broadcast_costs.get(participating)
        if cost is None:
            tasks = [self.tasks[key] for key in participating]
            cost = self._broadcast_costs[participating] = (
                partwise_fast.broadcast_rounds(self.tree, tasks),
                partwise_fast.subtree_messages(tasks),
            )
        self._step += 1
        self.ledger.charge(f"partwise/broadcast#{self._step}", *cost)

    def exchange(self, payloads: Dict[int, Optional[tuple]]) -> Dict[int, List[Tuple[int, tuple]]]:
        """One round of exchange over part-internal edges."""
        self._step += 1
        if self.backend == "direct":
            from repro.core.partwise_fast import exchange_direct

            received, rounds, messages = exchange_direct(
                self.topology.nodes, self.part_neighbors, payloads
            )
            self.ledger.charge(
                f"partwise/exchange#{self._step}", max(1, rounds), messages
            )
            return received
        inputs = {
            v: {
                "part_neighbors": self.part_neighbors[v],
                "payload": payloads.get(v),
            }
            for v in self.topology.nodes
        }
        result = Simulator(
            self.topology,
            PartExchangeAlgorithm(inputs),
            seed=self.seed + self._step,
            engine=self.sim_engine,
        ).run()
        self.ledger.charge(
            f"partwise/exchange#{self._step}", max(1, result.rounds), result.messages
        )
        return {v: result.states[v].received for v in self.topology.nodes}

    # ------------------------------------------------------------------
    # Theorem 2 operations
    # ------------------------------------------------------------------

    def minimum_per_part(self, values: Values, iterations: int) -> Values:
        """Part-global semilattice aggregation (Theorem 2 ii, min form).

        After ``iterations >= supergraph diameter`` flooding rounds,
        every member of every part holds the part-wide minimum.  With
        block parameter ``b`` the supergraph has at most ``b``
        supernodes, so ``iterations = b`` always suffices.
        """
        if self.backend == "direct":
            return self._minimum_per_part_direct(values, iterations)
        current = self.block_aggregate(values, "min")
        for _ in range(iterations):
            received = self.exchange(
                {
                    v: (current[v],) if current.get(v) is not None else None
                    for v in self.block_of
                }
            )
            merged: Values = {}
            for v in self.block_of:
                best = current.get(v)
                for _sender, payload in received[v]:
                    incoming = payload[0]
                    if best is None or (incoming is not None and incoming < best):
                        best = incoming
                merged[v] = best
            current = self.block_aggregate(merged, "min")
        return current

    def _supergraph(self) -> Tuple[List[int], List[Tuple[int, ...]], List[int]]:
        """The contracted supergraph, built on first use.

        Returns ``(block index per member, in _task_key_of order; block
        adjacency over part-internal edges; summed part-internal degree
        per block)``.  Blocks are indexed in ``self.tasks`` order.
        """
        if self._contracted is None:
            index_of = {key: i for i, key in enumerate(self.tasks)}
            block_of = {v: index_of[key] for v, key in self._task_key_of.items()}
            adjacent: List[set] = [set() for _ in index_of]
            degree = [0] * len(index_of)
            for v, block in block_of.items():
                neighbors = self.part_neighbors[v]
                degree[block] += len(neighbors)
                for w in neighbors:
                    other = block_of[w]
                    if other != block:
                        adjacent[block].add(other)
            self._contracted = (
                list(block_of.values()),
                [tuple(blocks) for blocks in adjacent],
                degree,
            )
        return self._contracted

    def _minimum_per_part_direct(self, values: Values, iterations: int) -> Values:
        """Direct twin of :meth:`minimum_per_part` on the supergraph.

        A superstep's exchange hands every member its same-part
        neighbors' block values, and the following block fold takes the
        minimum over the block, so one superstep is ``val'[B] =
        min(val[B], val[B'] for B' adjacent to B)``.  Each valued block
        sends one message per part-internal edge end it holds, and
        same-part adjacency is symmetric, so the exchange costs ``Σ
        deg[B]`` over the valued blocks — the count of
        :func:`~repro.core.partwise_fast.exchange_direct`.
        """
        member_block, adjacent, degree = self._supergraph()
        keys = tuple(self.tasks)
        current: List[Optional[int]] = [None] * len(keys)
        for v, block in zip(self._task_key_of, member_block):
            value = values.get(v)
            if value is not None:
                held = current[block]
                if held is None or value < held:
                    current[block] = value
        self._charge_block_step(
            tuple(key for key, held in zip(keys, current) if held is not None)
        )
        for _ in range(iterations):
            self._step += 1
            messages = sum(
                deg for deg, held in zip(degree, current) if held is not None
            )
            self.ledger.charge(f"partwise/exchange#{self._step}", 1, messages)
            merged = list(current)
            for block, held in enumerate(current):
                if held is None:
                    continue
                for other in adjacent[block]:
                    best = merged[other]
                    if best is None or held < best:
                        merged[other] = held
            current = merged
            self._charge_block_step(
                tuple(key for key, held in zip(keys, current) if held is not None)
            )
        return {
            v: current[block] for v, block in zip(self._task_key_of, member_block)
        }

    def elect_leaders(self, iterations: int) -> Tuple[Dict[int, int], Values]:
        """Leader election for all parts in parallel (Theorem 2 i).

        The leader is the minimum node id of the part.  Returns
        ``(per-part leader, per-node leader knowledge)``.
        """
        values = {v: v for v in self.block_of}
        knowledge = self.minimum_per_part(values, iterations)
        leaders: Dict[int, int] = {}
        for v, leader in knowledge.items():
            if leader is not None:
                leaders[self.partition.part_of(v)] = leader
        return leaders, knowledge

    def broadcast_from_leaders(
        self, leader_values: Dict[int, int], iterations: int
    ) -> Values:
        """Broadcast one value per part from its leader (Theorem 2 iii).

        ``leader_values`` maps *node ids* (the leaders) to values; the
        value floods the part in at most ``iterations`` supersteps.
        """
        values: Values = {
            v: leader_values.get(v) for v in self.block_of
        }
        # Flooding with 'min' is value-preserving: only one node per
        # part injects a value, so the minimum is that value.
        return self.minimum_per_part(values, iterations)

    # ------------------------------------------------------------------
    # Lemma 3: block counting via a supergraph BFS
    # ------------------------------------------------------------------

    def count_blocks(
        self, b_limit: int, values: Optional[Values] = None
    ) -> Tuple[Dict[int, Optional[int]], Values]:
        """Find all parts with at most ``b_limit`` block components.

        Runs the Lemma 3 protocol: flood leader candidates for
        ``b_limit`` supersteps, build a BFS tree over the supergraph,
        detect conflicts (multiple leaders / unreached supernodes),
        convergecast the supernode count (or the sum of ``values``)
        level by level, and broadcast the verdict back down.  A part
        whose nodes receive no verdict by the deadline is *bad*.

        Returns ``(per-part count, per-node count)``; the count is
        ``None`` exactly for parts with more than ``b_limit`` blocks.
        O(b_limit · (D + c)) rounds.
        """
        if b_limit < 1:
            return {i: None for i in range(self.partition.size)}, {}
        node_ids = {v: v for v in self.block_of}
        leader_of = self.minimum_per_part(node_ids, b_limit)

        # --- Supergraph BFS from the leader's block -------------------
        # Level 0: the block containing the leader (its block-min equals
        # the flooded leader).
        block_min = self.block_aggregate(node_ids, "min")
        depth: Values = {}
        parent_root: Values = {}
        for v in self.block_of:
            if block_min.get(v) is not None and block_min[v] == leader_of.get(v):
                depth[v] = 0
        for level in range(1, b_limit + 1):
            payloads = {}
            for v in self.block_of:
                if depth.get(v) is not None:
                    payloads[v] = (depth[v], self.block_of[v].root)
            received = self.exchange(payloads)
            candidate: Values = {}
            for v in self.block_of:
                if depth.get(v) is not None:
                    continue
                best = None
                for _sender, payload in received[v]:
                    nbr_depth, nbr_root = payload
                    if nbr_depth == level - 1:
                        if best is None or nbr_root < best:
                            best = nbr_root
                candidate[v] = best
            adopted = self.block_aggregate(candidate, "min")
            for v in self.block_of:
                if depth.get(v) is None and adopted.get(v) is not None:
                    depth[v] = level
                    parent_root[v] = adopted[v]

        # --- Conflict detection ---------------------------------------
        # A part is inconsistent if two neighboring members disagree on
        # the leader or one of them was never reached by the BFS.
        flag_payloads = {}
        for v in self.block_of:
            reached = 1 if depth.get(v) is not None else 0
            leader = leader_of.get(v)
            flag_payloads[v] = (reached, leader if leader is not None else -1)
        received = self.exchange(flag_payloads)
        conflict: Values = {}
        for v in self.block_of:
            my_leader = leader_of.get(v)
            bad = depth.get(v) is None
            for _sender, payload in received[v]:
                nbr_reached, nbr_leader = payload
                if not nbr_reached or nbr_leader != (my_leader if my_leader is not None else -1):
                    bad = True
            conflict[v] = 1 if bad else 0

        # --- Level-by-level count convergecast ------------------------
        # Each block's base contribution: 1 (count) or the sum of the
        # caller's values over its members.
        if values is None:
            # One designated member per block contributes 1: each node
            # knows whether it is the block minimum from `block_min`.
            base = {
                v: (1 if block_min.get(v) == v else 0) for v in self.block_of
            }
            block_base = self.block_aggregate(base, "sum")
        else:
            block_base = self.block_aggregate(values, "sum")
        acc: Values = dict(block_base)
        conflict = self.block_aggregate(conflict, "max")

        n = self.topology.n
        for level in range(b_limit, 0, -1):
            # Blocks at this BFS depth pick one uplink edge to their
            # parent block (minimum encoded (member, neighbor) pair).
            encode: Values = {}
            for v in self.block_of:
                if depth.get(v) != level:
                    continue
                pr = parent_root.get(v)
                for w in self.part_neighbors[v]:
                    wb = self.block_of.get(w)
                    if wb is not None and wb.root == pr:
                        code = v * n + w
                        if encode.get(v) is None or code < encode[v]:
                            encode[v] = code
            uplink = self.block_aggregate(encode, "min")
            payloads = {}
            for v in self.block_of:
                if depth.get(v) == level and uplink.get(v) is not None:
                    sender, target = divmod(uplink[v], n)
                    if sender == v:
                        payloads[v] = (
                            target,
                            acc.get(v) or 0,
                            conflict.get(v) or 0,
                        )
            received = self.exchange(payloads)
            incoming: Values = {}
            conflict_in: Values = {}
            for v in self.block_of:
                if depth.get(v) != level - 1:
                    continue
                total = None
                flag = None
                for _sender, payload in received[v]:
                    target, amount, child_flag = payload
                    if target == v:
                        total = (total or 0) + amount
                        flag = max(flag or 0, child_flag)
                incoming[v] = total
                conflict_in[v] = flag
            gathered = self.block_aggregate(incoming, "sum")
            flagged = self.block_aggregate(conflict_in, "max")
            for v in self.block_of:
                if depth.get(v) == level - 1:
                    if gathered.get(v) is not None:
                        acc[v] = (acc.get(v) or 0) + gathered[v]
                    if flagged.get(v):
                        conflict[v] = 1

        # --- Verdict broadcast ----------------------------------------
        verdict: Values = {}
        for v in self.block_of:
            if depth.get(v) == 0 and not conflict.get(v):
                count = acc.get(v) or 0
                if count <= b_limit or values is not None:
                    verdict[v] = count
        for level in range(b_limit):
            payloads = {}
            for v in self.block_of:
                if depth.get(v) == level and verdict.get(v) is not None:
                    payloads[v] = (self.block_of[v].root, verdict[v])
            received = self.exchange(payloads)
            adopted: Values = {}
            for v in self.block_of:
                if verdict.get(v) is not None or depth.get(v) != level + 1:
                    continue
                for _sender, payload in received[v]:
                    sender_root, value = payload
                    if sender_root == parent_root.get(v):
                        adopted[v] = value
                        break
            spread = self.block_aggregate(adopted, "min")
            for v in self.block_of:
                if verdict.get(v) is None and spread.get(v) is not None:
                    verdict[v] = spread[v]

        per_part: Dict[int, Optional[int]] = {}
        for index in range(self.partition.size):
            members = self.partition.members(index)
            member_verdicts = {verdict.get(v) for v in members}
            if None in member_verdicts or not member_verdicts:
                per_part[index] = None
            else:
                per_part[index] = member_verdicts.pop()
        return per_part, verdict
