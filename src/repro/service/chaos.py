"""Deterministic fault-injection harness for the shortcut service.

In the style of :mod:`repro.failures.scenarios`, every fault is drawn
from a seeded generator, so a chaos run is a *reproducible program*:
the same seed injects the same corruptions, IO errors, latencies, and
writer kills in the same order, and the suite's acceptance bar is
absolute —

    **under any injected fault the service returns either a correct
    result or a clean error; it never serves a wrong answer.**

"Correct" is differential: the expected payload for every
``(op, spec)`` pair is computed once through
:func:`repro.analysis.instances.reference_instance` — the validating
reference constructors, no cache, no store — and every ``200``
response must equal it exactly.  "Clean error" means a structured JSON
envelope with one of the service's declared kinds (overload, deadline,
bad-request, unprocessable, internal) — never a traceback, never a
half-written payload.

Fault classes
-------------

* **Entry corruption** — an existing store entry is flipped, truncated,
  or replaced with garbage on disk; the next read must quarantine and
  recompute.
* **IO errors** — store reads/writes raise ``OSError`` for a window;
  the service degrades to the cold path.
* **Latency** — store reads stall; combined with a zero deadline probe
  this exercises the ``504`` path.
* **Killed writer** — a commit dies between fsync and publish
  (:class:`~repro.service.store.KilledWriter`); the published entry
  must be byte-identical to the pre-kill state and the orphan temp
  file swept on the next store open.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.instances import (
    InstanceSpec,
    reference_instance,
)
from repro.congest.randomness import mix
from repro.errors import ReproError
from repro.service.client import ServiceClient, ServiceError, spec_to_json
from repro.service.server import (
    OPERATIONS,
    PARAM_DEFAULTS,
    ShortcutService,
    serve,
)
from repro.service.store import (
    KilledWriter,
    PersistentStore,
    _Hooks,
)

CHAOS_SALT = 0xC4A0

CLEAN_ERROR_KINDS = frozenset(
    {"overload", "deadline", "bad-request", "unprocessable", "internal"}
)

CORRUPTION_STYLES = ("flip", "truncate", "garbage", "empty")


class ChaosViolation(AssertionError):
    """The service served a wrong answer or an unclean error."""


def batched_chaos_specs() -> List[Tuple[str, InstanceSpec]]:
    """Same-family (grid) specs whose cold misses group in one window."""
    return [
        (
            "grid-a",
            InstanceSpec(
                "grid", (5, 5), weights=("unique", 3),
                partition=("voronoi", 5, 1),
            ),
        ),
        (
            "grid-b",
            InstanceSpec(
                "grid", (6, 4), weights=("unique", 6),
                partition=("voronoi", 4, 2),
            ),
        ),
        (
            "grid-c",
            InstanceSpec(
                "grid", (4, 6), weights=("unique", 7),
                partition=("voronoi", 6, 3),
            ),
        ),
    ]


def default_chaos_specs() -> List[Tuple[str, InstanceSpec]]:
    """Small weighted instances with reference twins for every op."""
    return [
        (
            "grid",
            InstanceSpec(
                "grid", (5, 5), weights=("unique", 3),
                partition=("voronoi", 5, 1),
            ),
        ),
        (
            "torus",
            InstanceSpec(
                "torus", (4, 4), weights=("unique", 4),
                partition=("voronoi", 4, 2),
            ),
        ),
        (
            "hub",
            InstanceSpec(
                "hub", (24, 4), weights=("unique", 5),
                partition=("arcs", 24, 4, 1),
            ),
        ),
    ]


# ----------------------------------------------------------------------
# The fault schedule
# ----------------------------------------------------------------------


@dataclass
class _HookState:
    """Mutable armed-fault flags consumed by the store hooks."""

    io_reads_left: int = 0
    io_writes_left: int = 0
    read_latency_s: float = 0.0
    # Ident of the thread whose next commit dies.  Only that thread:
    # a pool computation left running by an earlier slot may commit
    # concurrently and must not consume the kill.
    kill_commit_thread: Optional[int] = None


@dataclass
class FaultSchedule:
    """Seeded fault decisions; one instance drives one chaos run.

    Probabilities are per *request slot* in the suite loop.  The
    schedule also owns the hook state the store consults, so arming
    and consuming faults stays in one place.
    """

    seed: int = 0
    p_corrupt: float = 0.3
    p_io_error: float = 0.25
    p_kill: float = 0.2
    p_latency: float = 0.25
    latency_s: float = 0.002
    io_window: int = 2

    def __post_init__(self) -> None:
        self._rng = random.Random(mix(self.seed, CHAOS_SALT))
        self.state = _HookState()
        self.injected: Dict[str, int] = {
            "corruptions": 0,
            "io_errors": 0,
            "kills": 0,
            "latency": 0,
        }

    # -- store hooks ---------------------------------------------------

    def hooks(self) -> _Hooks:
        return _Hooks(
            before_read=self._before_read,
            before_write=self._before_write,
            during_commit=self._during_commit,
        )

    def _before_read(self, key: str, path: Path) -> None:
        if self.state.read_latency_s > 0:
            time.sleep(self.state.read_latency_s)
            self.state.read_latency_s = 0.0
        if self.state.io_reads_left > 0:
            self.state.io_reads_left -= 1
            raise OSError("chaos: injected read error")

    def _before_write(self, key: str, path: Path) -> None:
        if self.state.io_writes_left > 0:
            self.state.io_writes_left -= 1
            raise OSError("chaos: injected write error")

    def _during_commit(self, key: str, tmp: Path) -> None:
        if self.state.kill_commit_thread == threading.get_ident():
            self.state.kill_commit_thread = None
            raise KilledWriter(f"chaos: writer killed committing {key}")

    # -- per-slot decisions --------------------------------------------

    def corrupt_entry(self, store: PersistentStore) -> Optional[str]:
        """Maybe damage one committed entry on disk; returns its key."""
        if self._rng.random() >= self.p_corrupt:
            return None
        keys = sorted(store.keys())
        if not keys:
            return None
        key = self._rng.choice(keys)
        path = store.path_for(key)
        style = self._rng.choice(CORRUPTION_STYLES)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        if style == "flip":
            index = self._rng.randrange(max(1, len(raw)))
            flipped = bytes([raw[index] ^ 0xFF])
            damaged = raw[:index] + flipped + raw[index + 1:]
        elif style == "truncate":
            damaged = raw[: len(raw) // 2]
        elif style == "garbage":
            damaged = bytes(
                self._rng.randrange(256) for _ in range(self._rng.randrange(1, 64))
            )
        else:
            damaged = b""
        path.write_bytes(damaged)
        # A real crash loses the process's memory layer with it; drop
        # the key so the next read goes through the damaged disk.
        store.forget_memory(key)
        self.injected["corruptions"] += 1
        return key

    def arm_io_errors(self) -> bool:
        if self._rng.random() >= self.p_io_error:
            return False
        if self._rng.random() < 0.5:
            self.state.io_reads_left = self.io_window
        else:
            self.state.io_writes_left = self.io_window
        self.injected["io_errors"] += 1
        return True

    def arm_latency(self) -> bool:
        if self._rng.random() >= self.p_latency:
            return False
        self.state.read_latency_s = self.latency_s
        self.injected["latency"] += 1
        return True

    def should_kill_writer(self) -> bool:
        if self._rng.random() >= self.p_kill:
            return False
        self.injected["kills"] += 1
        return True


def simulate_killed_writer(
    store: PersistentStore, schedule: FaultSchedule, key: str, payload: object
) -> None:
    """Run one commit that dies between fsync and publish.

    Asserts the atomic-commit contract afterwards: the published entry
    is byte-identical to its pre-kill state (or still absent), with
    only an orphan temp file left behind.
    """
    path = store.path_for(key)
    before = path.read_bytes() if path.exists() else None
    schedule.state.kill_commit_thread = threading.get_ident()
    try:
        # An armed IO-error window may abort the write before the kill
        # seam fires (put returns False); either way the commit must
        # never publish.
        completed = store.put(key, payload)
    except KilledWriter:
        completed = False
    finally:
        schedule.state.kill_commit_thread = None
    if completed:
        raise ChaosViolation("killed writer completed its commit")
    after = path.read_bytes() if path.exists() else None
    if after != before:
        raise ChaosViolation(
            f"kill-mid-commit changed the published entry for {key[:12]}"
        )
    # The store's memory layer may now be ahead of disk (the payload
    # was never published); drop it, as a real process death would.
    store.forget_memory(key)


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------


@dataclass
class ChaosReport:
    """Outcome counts of one chaos run; ``wrong`` must stay 0."""

    requests: int = 0
    correct: int = 0
    correct_warm: int = 0
    clean_errors: int = 0
    wrong: int = 0
    error_kinds: Dict[str, int] = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)
    quarantined: int = 0
    swept_tmp: int = 0
    store_intact: int = 0
    batched: int = 0
    http_requests: int = 0
    http_retries: int = 0

    def as_dict(self) -> Dict:
        return dict(self.__dict__)


def _expected_results(
    pairs: Sequence[Tuple[str, InstanceSpec]], ops: Sequence[str]
) -> Dict[Tuple[str, str], Dict]:
    """The differential anchor: every op on every spec, computed on
    reference-constructed instances with no cache and no store."""
    params = dict(PARAM_DEFAULTS)
    expected = {}
    for name, spec in pairs:
        instance = reference_instance(spec)
        for op in ops:
            expected[(name, op)] = OPERATIONS[op](instance, params)
    return expected


def _check_response(
    report: ChaosReport, response, expected: Dict, label: str
) -> None:
    """Classify one ServiceResponse: correct / clean error / wrong."""
    report.requests += 1
    if response.status == 200:
        if response.body["result"] == expected:
            report.correct += 1
            if response.body.get("warm"):
                report.correct_warm += 1
        else:
            report.wrong += 1
            raise ChaosViolation(
                f"{label}: served a WRONG result: "
                f"{response.body['result']} != {expected}"
            )
        return
    kind = response.body.get("kind")
    if kind not in CLEAN_ERROR_KINDS or "error" not in response.body:
        report.wrong += 1
        raise ChaosViolation(
            f"{label}: unclean error envelope {response.status}: {response.body}"
        )
    report.clean_errors += 1
    report.error_kinds[kind] = report.error_kinds.get(kind, 0) + 1


def run_chaos_suite(
    store_root: os.PathLike,
    *,
    seed: int = 0,
    rounds: int = 4,
    specs: Optional[Sequence[Tuple[str, InstanceSpec]]] = None,
    ops: Sequence[str] = ("shortcut", "mst", "connectivity"),
    schedule: Optional[FaultSchedule] = None,
    use_http: bool = False,
    memory_entries: int = 4,
    batched_round: bool = True,
) -> ChaosReport:
    """Drive the service through a seeded fault storm.

    Each round walks every ``(spec, op)`` pair; before each request the
    schedule may corrupt a store entry, arm an IO-error window, arm
    read latency, or kill a writer mid-commit; a zero-deadline probe
    runs once per round.  Every response is differentially checked (see
    module docstring).  Between rounds the store is *reopened* —
    sweeping orphan temp files like a restarted process — and at the
    end a full :meth:`~repro.service.store.PersistentStore.verify`
    sweep must leave every surviving entry intact.

    With ``use_http`` the final round additionally replays the suite
    through a real HTTP server and the retrying
    :class:`~repro.service.client.ServiceClient`, so transport, load
    shedding (tiny queue), and backoff run under fault too.

    After the storm a **batched round** (``batched_round=True``) fires
    same-family cold misses concurrently at a service with a pending
    window open: the grouped responses must go through the batch layer
    (``report.batched``) and still ==-match their
    :func:`~repro.analysis.instances.reference_instance` results —
    fault state left armed by the storm may degrade the store under
    the group, never the answers.

    Raises :class:`ChaosViolation` on any wrong answer; returns the
    :class:`ChaosReport` otherwise.
    """
    pairs = list(specs) if specs is not None else default_chaos_specs()
    schedule = schedule or FaultSchedule(seed=seed)
    expected = _expected_results(pairs, ops)
    report = ChaosReport()

    store = PersistentStore(
        store_root, memory_entries=memory_entries, hooks=schedule.hooks()
    )
    service = ShortcutService(store, workers=2, queue_limit=8)
    quarantined = 0
    swept = store.stats.swept_tmp
    try:
        for round_index in range(rounds):
            for name, spec in pairs:
                for op in ops:
                    label = f"round {round_index}: {op}/{name}"
                    # Fault roulette for this slot.
                    schedule.corrupt_entry(store)
                    schedule.arm_io_errors()
                    schedule.arm_latency()
                    if schedule.should_kill_writer():
                        keys = sorted(store.keys())
                        key = keys[round_index % len(keys)] if keys else (
                            hashlib.sha256(
                                f"chaos-kill-{round_index}".encode()
                            ).hexdigest()
                        )
                        simulate_killed_writer(
                            store, schedule, key, {"killed-round": round_index}
                        )
                    body = {"spec": spec_to_json(spec)}
                    response = service.handle(op, body)
                    _check_response(report, response, expected[(name, op)], label)

            # One zero-deadline probe per round, on a fresh seed (never
            # cached): a clean 504 is the expected outcome; a 200 means
            # the pool won the race, which is also fine — anything else
            # is a violation.
            name, spec = pairs[round_index % len(pairs)]
            probe = service.handle(
                ops[0],
                {"spec": spec_to_json(spec), "seed": 10_000 + round_index},
                deadline_s=0.0,
            )
            report.requests += 1
            if probe.status == 504 and probe.body.get("kind") == "deadline":
                report.clean_errors += 1
                report.error_kinds["deadline"] = (
                    report.error_kinds.get("deadline", 0) + 1
                )
            elif probe.status == 200:
                report.correct += 1
            else:
                raise ChaosViolation(
                    f"zero-deadline probe: unexpected {probe.status}: {probe.body}"
                )

            # Restart: reopen the store (sweeps killed writers' temp
            # files, drops the memory layer) and point the service at
            # the fresh instance.  Stats are per-open; accumulate.
            quarantined += store.stats.quarantined
            store = PersistentStore(
                store_root, memory_entries=memory_entries, hooks=schedule.hooks()
            )
            swept += store.stats.swept_tmp
            service.store = store
    finally:
        service.close()

    # Post-storm audit: every surviving entry must decode cleanly.
    intact, _ = store.verify()
    report.store_intact = intact
    report.quarantined = quarantined + store.stats.quarantined
    report.swept_tmp = swept
    report.injected = dict(schedule.injected)

    # /v1/stats must not lose recovery counters across the restarts the
    # storm forced: the service's lifetime quarantine count has to
    # match what the harness itself accumulated store-by-store.
    recoveries = service.stats_payload()["recoveries"]
    if recoveries["quarantined"] != report.quarantined:
        raise ChaosViolation(
            f"stats lost quarantines across store restarts: "
            f"/v1/stats reports {recoveries['quarantined']}, "
            f"harness counted {report.quarantined}"
        )

    if batched_round:
        _batched_round(store, report, seed)

    if use_http:
        _http_storm(store_root, pairs, ops, expected, schedule, report, seed)
    return report


def _batched_round(
    store: PersistentStore, report: ChaosReport, seed: int
) -> None:
    """Fire same-family cold misses into an open pending window.

    Every request must be served through the service's batch layer and
    its payload must still equal the reference-instance result exactly
    — grouping is a throughput optimisation, never an answer change.
    """
    pairs = batched_chaos_specs()
    params = dict(PARAM_DEFAULTS)
    params["seed"] = 20_000 + seed  # fresh seed: every key is cold
    expected = {
        name: OPERATIONS["shortcut"](reference_instance(spec), params)
        for name, spec in pairs
    }
    service = ShortcutService(
        store,
        workers=2,
        queue_limit=16,
        batch_window_s=0.25,
        batch_limit=len(pairs),
    )
    responses: Dict[str, object] = {}

    def fire(name: str, spec: InstanceSpec) -> None:
        responses[name] = service.handle(
            "shortcut", {"spec": spec_to_json(spec), "seed": params["seed"]}
        )

    try:
        threads = [
            threading.Thread(target=fire, args=(name, spec))
            for name, spec in pairs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        service.close()

    for name, _spec in pairs:
        _check_response(
            report, responses[name], expected[name],
            f"batched round: shortcut/{name}",
        )
    if service.stats.batched < len(pairs):
        raise ChaosViolation(
            "batched round: cold misses bypassed the batch layer "
            f"(batched={service.stats.batched}, expected {len(pairs)})"
        )
    report.batched = service.stats.batched


def _http_storm(
    store_root: os.PathLike,
    pairs: Sequence[Tuple[str, InstanceSpec]],
    ops: Sequence[str],
    expected: Dict[Tuple[str, str], Dict],
    schedule: FaultSchedule,
    report: ChaosReport,
    seed: int,
) -> None:
    """Replay the suite over real HTTP with a tiny queue and retries."""
    store = PersistentStore(store_root, memory_entries=2, hooks=schedule.hooks())
    with serve(store, workers=2, queue_limit=2) as handle:
        with ServiceClient(
            handle.base_url,
            timeout_s=30.0,
            max_retries=5,
            backoff_base_s=0.01,
            backoff_cap_s=0.1,
            jitter_seed=mix(seed, 1),
        ) as client:
            for name, spec in pairs:
                for op in ops:
                    schedule.corrupt_entry(store)
                    schedule.arm_io_errors()
                    try:
                        result = client.request(op, spec)
                    except ServiceError as error:
                        if error.kind not in CLEAN_ERROR_KINDS | {"transport"}:
                            raise ChaosViolation(
                                f"http {op}/{name}: unclean client error {error.kind}"
                            )
                        report.clean_errors += 1
                    else:
                        if result.result != expected[(name, op)]:
                            raise ChaosViolation(
                                f"http {op}/{name}: served a WRONG result"
                            )
                        report.correct += 1
                    report.http_requests += 1
        report.http_retries = client.retries_used
