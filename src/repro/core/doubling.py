"""Parameter-oblivious construction by doubling (Appendix A).

FindShortcut needs upper bounds on ``b`` and ``c``.  Appendix A
observes that the construction *detects its own failure* (parts remain
bad after the iteration budget), enabling a doubling search: start with
small estimates, and on failure double them and retry.  This removes
the knowledge requirement at the cost of an extra ``log(bc)`` factor —
and, as the paper notes, it can find *much better* shortcuts than the
theoretical bound whenever they happen to exist.

Failed trials are not thrown away: a trial freezes every part that
passed Verification before the budget ran out, and the next trial
*warm-starts* from that :class:`~repro.core.find_shortcut.ConstructionState`
— only the still-bad parts are constructed for with the doubled
estimates, and the iterations the failed trial consumed are recorded
on its :class:`Trial`.

One private driver climbs this ladder over a list of instances: the
trial budget, the per-rung :class:`Trial` records, the warm-start carry,
the doubling and the exhaustion error live there once.
:func:`find_shortcut_doubling` climbs it for one instance with
:func:`~repro.core.find_shortcut.find_shortcut` as its rung, and
:func:`repro.core.batch.find_shortcut_doubling_batch` for a whole batch
with one lockstep wave per rung.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.congest.randomness import mix
from repro.congest.topology import Topology
from repro.congest.trace import RoundLedger
from repro.core.construct_fast import _shared_seed, resolve_mode
from repro.core.find_shortcut import (
    ConstructionState,
    FindShortcutResult,
    find_shortcut,
)
from repro.errors import ConstructionFailedError
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree


@dataclass(frozen=True)
class Trial:
    """One doubling attempt.

    ``iterations`` counts the core/verification iterations the trial
    consumed — the full budget for a failed trial, the actual number
    needed for the successful one.  ``rounds`` and ``messages`` are the
    ledger deltas this rung charged (share-randomness, charged once per
    search before the first rung, is not attributed to any rung), so
    callers can break a ladder's cost down rung by rung; they default
    to 0 for hand-built trials.
    """

    c: int
    b: int
    succeeded: bool
    iterations: int
    rounds: int = 0
    messages: int = 0

    @property
    def signature(self) -> Tuple[int, int, bool, int]:
        """Mode-independent projection ``(c, b, succeeded, iterations)``.

        The cross-mode conformance key: simulate and direct runs agree
        on it exactly, while ``rounds``/``messages`` are per-mode costs
        (measured vs the analytic model) and only match within one
        mode — e.g. between ``batch="loop"`` and ``batch="vector"``.
        """
        return (self.c, self.b, self.succeeded, self.iterations)


@dataclass(frozen=True)
class DoublingResult:
    """Outcome of the Appendix A search."""

    result: FindShortcutResult
    trials: Tuple[Trial, ...]
    ledger: RoundLedger

    @property
    def c(self) -> int:
        return self.result.c

    @property
    def b(self) -> int:
        return self.result.b

    @property
    def rounds(self) -> int:
        return self.ledger.total_rounds


def find_shortcut_doubling(
    topology: Topology,
    tree: SpanningTree,
    partition: Partition,
    *,
    c_start: int = 1,
    b_start: int = 1,
    use_fast: bool = True,
    seed: int = 0,
    shared_seed: Optional[int] = None,
    gamma: float = 2.0,
    max_trials: int = 64,
    ledger: Optional[RoundLedger] = None,
    mode: Optional[str] = None,
    warm_start: bool = True,
    initial_state: Optional[ConstructionState] = None,
) -> DoublingResult:
    """Construct a shortcut with no prior knowledge of (c, b).

    Doubles both parameter estimates on every failed trial.  The search
    always terminates: once ``2c`` exceeds the number of parts no edge
    is ever unusable, every part receives its full-ancestor subgraph
    (one block), and the first iteration succeeds.

    With ``warm_start`` (the default) each failed trial's frozen good
    parts carry forward: the doubled retry only constructs for the
    parts that are still bad.  ``warm_start=False`` restores the
    restart-from-scratch behaviour for comparisons.  ``mode`` selects
    simulate vs direct execution exactly as in
    :func:`~repro.core.find_shortcut.find_shortcut`.

    ``initial_state`` seeds the *first* trial with an externally built
    :class:`~repro.core.find_shortcut.ConstructionState` — the
    incremental-repair entry point (:mod:`repro.failures.repair`): parts
    untouched by an edge-failure set stay frozen and only the broken
    ones are constructed for.  Like every warm start it is revalidated
    against the actual topology/tree/partition before use.
    """
    mode = resolve_mode(mode)
    if ledger is None:
        ledger = RoundLedger(barrier_depth=tree.height)
    if use_fast and shared_seed is None:
        shared_seed = _shared_seed(topology, tree, seed, ledger, mode)

    def rung(trial_index, climbing, c, b, budgets, carried):
        try:
            return [
                find_shortcut(
                    topology,
                    tree,
                    partition,
                    c[0],
                    b[0],
                    use_fast=use_fast,
                    seed=mix(seed, 1000 + trial_index),
                    shared_seed=shared_seed,
                    gamma=gamma,
                    max_iterations=budgets[0],
                    ledger=ledger,
                    mode=mode,
                    warm_start=carried[0],
                )
            ]
        except ConstructionFailedError as error:
            return [error]

    return _climb(
        rung,
        [partition.size],
        [ledger],
        [c_start],
        [b_start],
        [initial_state],
        max_trials=max_trials,
        warm_start=warm_start,
    )[0]


def _climb(
    rung: Callable,
    part_counts: Sequence[int],
    ledgers: Sequence[RoundLedger],
    c_starts: Sequence[int],
    b_starts: Sequence[int],
    initial_states: Sequence[Optional[ConstructionState]],
    *,
    max_trials: int,
    warm_start: bool,
) -> List[DoublingResult]:
    """The Appendix A ladder over a list of instances, rung by rung.

    ``rung(trial_index, climbing, c, b, budgets, carried)`` runs one
    FindShortcut trial for each index in ``climbing`` (the lists are
    indexed by instance) and returns, in ``climbing`` order, each
    one's :class:`~repro.core.find_shortcut.FindShortcutResult` or its
    :class:`~repro.errors.ConstructionFailedError` value.  A success
    leaves the ladder; a failure carries its frozen parts (with
    ``warm_start``) and climbs on with doubled estimates.  Every trial
    records the rounds and messages its rung added to the instance's
    ledger.
    """
    size = len(part_counts)
    c = [max(1, value) for value in c_starts]
    b = [max(1, value) for value in b_starts]
    carried = list(initial_states)
    # A tight per-trial budget: the halving argument needs ~log2 N
    # iterations when the estimates are adequate, so a trial that
    # exceeds log2 N + 2 is declared failed and the estimates double.
    budgets = [max(3, math.ceil(math.log2(count + 1)) + 2) for count in part_counts]
    trials: List[List[Trial]] = [[] for _ in range(size)]
    results: List = [None] * size
    climbing = list(range(size))
    for trial_index in range(max_trials):
        if not climbing:
            break
        before = [
            (ledgers[i].total_rounds, ledgers[i].total_messages) for i in climbing
        ]
        outcomes = rung(trial_index, climbing, c, b, budgets, carried)
        still = []
        for i, outcome, (rounds, messages) in zip(climbing, outcomes, before):
            failed = isinstance(outcome, ConstructionFailedError)
            trials[i].append(
                Trial(
                    c=c[i],
                    b=b[i],
                    succeeded=not failed,
                    iterations=outcome.iterations,
                    rounds=ledgers[i].total_rounds - rounds,
                    messages=ledgers[i].total_messages - messages,
                )
            )
            if not failed:
                results[i] = DoublingResult(
                    result=outcome, trials=tuple(trials[i]), ledger=ledgers[i]
                )
                continue
            if warm_start and outcome.state is not None:
                carried[i] = outcome.state
            c[i] *= 2
            b[i] *= 2
            still.append(i)
        climbing = still
    if climbing:
        i = climbing[0]
        raise ConstructionFailedError(
            f"doubling search failed after {max_trials} trials "
            f"(last estimates c={c[i] // 2}, b={b[i] // 2})"
        )
    return results
