"""Seeded dynamic-fault injection for CONGEST executions.

Every layer above the engine assumes the CONGEST model's perfectly
reliable synchronous delivery.  This module drops that assumption in a
controlled way: a :class:`FaultPlan` is a *seeded, fully deterministic*
schedule of transport faults — per-round message drop, duplication,
delay, inbox reordering, plus crash-stop node schedules — and
:class:`FaultyEngine` applies it to any underlying engine through the
``collect_inbox`` delivery seam.

Determinism is the load-bearing property.  Every fault decision is a
pure function of ``(plan.seed, round, sender, receiver, copy)`` through
:func:`repro.congest.randomness.mix` — never of arrival order, engine
internals, or wall clock — so a faulty run is bit-for-bit reproducible
and *identical regardless of the wrapped engine*: the differential
suite asserts ``FaultyEngine(inner="reference")`` ==
``FaultyEngine(inner="batched")`` on the same plan.

The ``faults=`` axis
--------------------

Like ``engine=`` / ``mode=`` / ``backend=`` / ``batch=``,
fault injection is a context-scoped :class:`~repro.axes.Axis`
(:data:`FAULTS`): :func:`using_faults` selects a plan for the enclosed
block on the current thread only, :func:`faults_parameter` gives an
entry point a ``faults=`` keyword, and
:class:`~repro.congest.simulator.Simulator` accepts ``faults=``
directly.  A plan spec is ``None`` (the current scope's plan, itself
``None`` = fault-free by default), the string ``"none"`` (expressly
fault-free), or a :class:`FaultPlan`.

Crash schedules derive from the failure layer: pass any
:class:`repro.failures.scenarios.FailureScenario` to
:meth:`FaultPlan.from_scenario` and the nodes incident to the failed
edges crash-stop at seeded rounds — static topology damage promoted to
a mid-protocol dynamic fault.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.axes import Axis
from repro.congest.engine import EngineBase, EngineLike, RunResult, resolve_engine
from repro.congest.randomness import coin, mix
from repro.congest.topology import canonical_edge
from repro.errors import RoundLimitExceededError, SimulationError

FAULT_SALT = 0xFA17
CRASH_SALT = 0xC2A5
_DROP_SALT = 0xD209
_DUP_SALT = 0xD0B1
_DELAY_SALT = 0xDE1A
_REORDER_SALT = 0x5807


@dataclass
class FaultStats:
    """Injection counters of one faulty run (all post-validation)."""

    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered_inboxes: int = 0
    crashed_nodes: int = 0
    dropped_to_crashed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of transport faults and crash-stop failures.

    Probabilities are per *message copy* (drop, duplicate, delay) or
    per *inbox* (reorder); ``crashes`` is a tuple of ``(node, round)``
    pairs — the node acts in no round ``>= round``.  All decisions are
    pure functions of the seed and the coordinates of the event, so two
    runs of the same plan are identical on any engine.
    """

    seed: int = 0
    p_drop: float = 0.0
    p_duplicate: float = 0.0
    p_delay: float = 0.0
    max_delay: int = 3
    p_reorder: float = 0.0
    crashes: Tuple[Tuple[int, int], ...] = ()
    # When set, Simulator routes runs under this plan through the
    # reliable-delivery sublayer (repro.congest.reliable): transport
    # faults are masked, crash-stop partitions surface as declared
    # DetectedFailures, and recovered states stay bit-identical to the
    # fault-free run.
    reliable: bool = False

    def __post_init__(self) -> None:
        for name in ("p_drop", "p_duplicate", "p_delay", "p_reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name}={value} is not a probability")
        if self.max_delay < 0:
            raise SimulationError("max_delay must be >= 0")
        canon = tuple(sorted((int(v), int(r)) for v, r in self.crashes))
        object.__setattr__(self, "crashes", canon)
        object.__setattr__(self, "_crash_of", dict(canon))

    # -- seeded per-event decisions ------------------------------------

    def drops(self, round_: int, sender: int, to: int) -> bool:
        """Whether the wire eats this message entirely."""
        return self.p_drop > 0.0 and (
            coin(self.seed, round_, sender, to, _DROP_SALT) < self.p_drop
        )

    def duplicates(self, round_: int, sender: int, to: int) -> int:
        """Extra copies the wire delivers (0 or 1)."""
        if self.p_duplicate > 0.0 and (
            coin(self.seed, round_, sender, to, _DUP_SALT) < self.p_duplicate
        ):
            return 1
        return 0

    def delay(self, round_: int, sender: int, to: int, copy: int = 0) -> int:
        """Extra rounds this copy spends in flight (0 = on time)."""
        if self.p_delay <= 0.0 or self.max_delay <= 0:
            return 0
        if coin(self.seed, round_, sender, to, copy, _DELAY_SALT) >= self.p_delay:
            return 0
        draw = coin(self.seed, round_, sender, to, copy, _DELAY_SALT + 1)
        return 1 + min(self.max_delay - 1, int(draw * self.max_delay))

    def reorders(self, round_: int, to: int) -> bool:
        """Whether this recipient's inbox arrives permuted this round."""
        return self.p_reorder > 0.0 and (
            coin(self.seed, round_, to, _REORDER_SALT) < self.p_reorder
        )

    def crash_round(self, node: int) -> Optional[int]:
        """The round at which ``node`` crash-stops, or ``None``."""
        return self._crash_of.get(node)

    # -- derivation helpers --------------------------------------------

    def reseed(self, seed: int) -> "FaultPlan":
        """The same fault mix under a fresh seed (for retry attempts)."""
        return dataclasses.replace(self, seed=seed)

    @classmethod
    def from_scenario(
        cls,
        scenario,
        *,
        seed: int = 0,
        horizon: int = 8,
        p_crash: float = 0.5,
        **kwargs,
    ) -> "FaultPlan":
        """Crash-stop plan derived from an edge-failure scenario.

        Nodes incident to the scenario's failed edges crash with
        probability ``p_crash`` each, at a seeded round in
        ``[1, horizon]`` — always at least one crash, so a non-empty
        scenario always yields a dynamic fault.  Transport-fault
        probabilities pass through ``**kwargs``.
        """
        rng = random.Random(mix(seed, CRASH_SALT))
        nodes = sorted({v for edge in scenario.edges for v in edge})
        top = max(2, horizon + 1)
        crashes = [
            (v, rng.randrange(1, top)) for v in nodes if rng.random() < p_crash
        ]
        if not crashes and nodes:
            crashes = [(nodes[0], rng.randrange(1, top))]
        return cls(seed=seed, crashes=tuple(crashes), **kwargs)

    def describe(self) -> str:
        """One-line tag for tables and logs."""
        parts = [f"seed={self.seed}"]
        for name in ("p_drop", "p_duplicate", "p_delay", "p_reorder"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name[2:]}={value}")
        if self.crashes:
            parts.append(f"crashes={len(self.crashes)}")
        if self.reliable:
            parts.append("reliable")
        return " ".join(parts)

    def with_reliable(self, reliable: bool = True) -> "FaultPlan":
        """This plan with the reliable-sublayer routing toggled."""
        return dataclasses.replace(self, reliable=reliable)


FAULT_FREE: Optional[FaultPlan] = None


class FaultyEngine(EngineBase):
    """Applies a :class:`FaultPlan` to any underlying engine.

    The wrapped engine instance is the *validating transport*: every
    send goes through its ``queue_message`` / ``queue_broadcast`` (so
    neighbor checks, per-edge duplicate stamps, and the bandwidth audit
    are exactly the inner engine's), and the queued round is pulled
    back out through its ``collect_inbox`` seam.  The wrapper then
    plays wire: each message copy is dropped, duplicated, or delayed by
    the plan's seeded coins, inboxes are delivered in ascending-sender
    order (then optionally permuted by the plan), and crash-stop nodes
    are force-halted at their scheduled round.

    ``RunResult.messages`` counts post-fault deliveries (duplicates
    count, drops do not); injection counters live in ``fault_stats``.
    """

    name = "faulty"

    def __init__(
        self,
        topology,
        algorithm,
        *,
        plan: FaultPlan,
        inner: EngineLike = None,
        **kwargs,
    ) -> None:
        super().__init__(topology, algorithm, **kwargs)
        if not isinstance(plan, FaultPlan):
            raise SimulationError(f"not a fault plan: {plan!r}")
        self.plan = plan
        self.fault_stats = FaultStats()
        self._inner = resolve_engine(inner)(
            topology,
            algorithm,
            seed=self.seed,
            check_bandwidth=self.check_bandwidth,
            bandwidth_bits=self.bandwidth_bits,
            max_rounds=self.max_rounds,
            trace_edges=False,
            audit_sample=self.audit_sample,
        )
        self.inner_name = self._inner.name
        self._crashed: Set[int] = set()

    # -- NodeHandle callbacks (validation delegated to the inner) ------

    def queue_message(self, sender: int, to: int, payload: Any) -> None:
        self._inner.queue_message(sender, to, payload)

    def queue_broadcast(self, sender: int, payload: Any) -> None:
        self._inner.queue_broadcast(sender, payload)

    # -- the faulted round loop ----------------------------------------

    def run(self) -> RunResult:
        algorithm = self.algorithm
        nodes = self._nodes
        plan = self.plan
        # round -> recipient -> [(sender, payload), ...]
        pending: Dict[int, Dict[int, List[Tuple[int, Any]]]] = {}

        for node in nodes:
            algorithm.setup(node)

        self.current_round = 0
        self._inner.current_round = 0
        self._apply_crashes(0)
        for node in nodes:
            if not node._halted:
                algorithm.on_start(node)
        self._route(pending)
        last_active_round = 0

        while pending or self._alarm_heap:
            candidates = []
            if pending:
                candidates.append(min(pending))
            if self._alarm_heap:
                candidates.append(self._peek_alarm())
            next_round = max(self.current_round + 1, min(candidates))
            if next_round > self.max_rounds:
                raise RoundLimitExceededError(
                    f"'{getattr(algorithm, 'name', algorithm)}' still running "
                    f"after {self.max_rounds} rounds (faults: {plan.describe()})"
                )
            self.current_round = next_round
            self._inner.current_round = next_round
            self._apply_crashes(next_round)

            inbox = pending.pop(next_round, {})
            woken = self._pop_alarms(next_round)
            active = set(inbox)
            active.update(woken)
            acted = False
            for node_id in sorted(active):
                node = nodes[node_id]
                messages = inbox.get(node_id, [])
                # Deterministic delivery order regardless of the inner
                # engine: ascending sender (stable for duplicates),
                # then the plan's optional seeded permutation.
                messages.sort(key=lambda pair: pair[0])
                if len(messages) > 1 and plan.reorders(next_round, node_id):
                    rng = random.Random(
                        mix(plan.seed, next_round, node_id, _REORDER_SALT)
                    )
                    rng.shuffle(messages)
                    self.fault_stats.reordered_inboxes += 1
                if node._halted:
                    self._dropped_to_halted += len(messages)
                    if node_id in self._crashed:
                        self.fault_stats.dropped_to_crashed += len(messages)
                    continue
                algorithm.on_round(node, messages)
                acted = True
            if acted or inbox:
                last_active_round = next_round
            self._route(pending)

        return self._result(last_active_round)

    def _apply_crashes(self, round_: int) -> None:
        """Force-halt every node whose crash round has arrived."""
        for node_id, crash_round in self.plan.crashes:
            if crash_round <= round_ and node_id not in self._crashed:
                self._crashed.add(node_id)
                self.fault_stats.crashed_nodes += 1
                self._nodes[node_id]._halted = True

    def _route(self, pending: Dict[int, Dict[int, List[Tuple[int, Any]]]]) -> None:
        """Pull this round's sends from the inner engine and fault them."""
        box = self._inner.collect_inbox()
        if not box:
            return
        round_ = self.current_round
        plan = self.plan
        stats = self.fault_stats
        for to, messages in box.items():
            for sender, payload in messages:
                if plan.drops(round_, sender, to):
                    stats.dropped += 1
                    continue
                extra = plan.duplicates(round_, sender, to)
                if extra:
                    stats.duplicated += extra
                for copy in range(1 + extra):
                    lag = plan.delay(round_, sender, to, copy)
                    if lag:
                        stats.delayed += 1
                    deliver = round_ + 1 + lag
                    pending.setdefault(deliver, {}).setdefault(to, []).append(
                        (sender, payload)
                    )
                    stats.delivered += 1
                    self._messages_delivered += 1
                    if self.trace_edges:
                        edge = canonical_edge(sender, to)
                        self._edge_traffic[edge] = (
                            self._edge_traffic.get(edge, 0) + 1
                        )


# ----------------------------------------------------------------------
# The faults= axis
# ----------------------------------------------------------------------

FaultsLike = Union[None, str, FaultPlan]


def _parse_faults(faults: FaultsLike) -> Optional[FaultPlan]:
    if isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, str):
        if faults == "none":
            return None
        raise SimulationError(
            f"unknown fault spec {faults!r}; use a FaultPlan or 'none'"
        )
    raise SimulationError(f"not a fault spec: {faults!r}")


# The stored value is the plan; ``None`` (the default) is fault-free.
FAULTS = Axis("faults", None, _parse_faults, SimulationError)

get_default_faults = FAULTS.get
using_faults = FAULTS.using
resolve_faults = FAULTS.resolve
faults_parameter = FAULTS.parameter("faults")
