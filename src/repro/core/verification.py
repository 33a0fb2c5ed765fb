"""The Verification subroutine (Lemmas 3 and 6).

Given a tentative ``T``-restricted shortcut with congestion ``c``, the
subroutine inspects every part's shortcut subgraph in parallel and
finds exactly those whose number of block components is at most a
threshold ``b_limit`` — the *good* parts whose subgraphs FindShortcut
freezes.  Runs in ``O(b_limit (D + c))`` rounds via the supergraph
protocol of :class:`repro.core.partwise.PartwiseEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional

from repro.congest.topology import Topology
from repro.congest.trace import RoundLedger
from repro.core.partwise import PartwiseEngine
from repro.core.shortcut import TreeRestrictedShortcut


@dataclass(frozen=True)
class VerificationOutcome:
    """Parts that passed the block-count check."""

    good_parts: FrozenSet[int]
    counts: Dict[int, Optional[int]]
    b_limit: int


def verification(
    topology: Topology,
    shortcut: TreeRestrictedShortcut,
    b_limit: int,
    *,
    consider: Optional[Iterable[int]] = None,
    seed: int = 0,
    ledger: Optional[RoundLedger] = None,
    mode: Optional[str] = None,
) -> VerificationOutcome:
    """Find all parts whose shortcut subgraph has <= ``b_limit`` blocks.

    ``consider`` restricts the answer to a subset of part ids (the
    still-unfinished parts during FindShortcut); other parts are
    reported as not-good regardless of their structure.

    Upon completion every node knows its part's verdict — here exposed
    as the returned outcome; per-node knowledge is the ``verdict`` map
    of :meth:`PartwiseEngine.count_blocks`.

    ``mode="direct"`` computes the identical counts with the
    block-root kernel of
    :func:`repro.core.construct_fast.verification_counts_direct` (each
    member keyed by its topmost ancestor-or-self reachable through
    ``H_i``) and charges the ledger from the Lemma 3 analytic cost
    model instead of simulating the supergraph protocol.
    """
    from repro.core.construct_fast import (
        charge_verification_model,
        resolve_mode,
        verification_counts_direct,
    )

    if resolve_mode(mode) == "direct":
        counts = verification_counts_direct(topology, shortcut, b_limit)
        charge_verification_model(ledger, topology, shortcut, b_limit)
    else:
        engine = PartwiseEngine(topology, shortcut, seed=seed, ledger=ledger)
        counts, _verdict = engine.count_blocks(b_limit)
    considered = (
        set(consider) if consider is not None else set(range(shortcut.size))
    )
    good = frozenset(
        index
        for index, count in counts.items()
        if index in considered and count is not None and count <= b_limit
    )
    return VerificationOutcome(good_parts=good, counts=counts, b_limit=b_limit)
