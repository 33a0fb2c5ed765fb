"""Thread-pool HTTP/JSON shortcut service.

One long-lived process serves the whole application stack — shortcut
construction, MST, min-cut, connectivity, quality reports — over a
small JSON API, backed by the crash-safe
:class:`~repro.service.store.PersistentStore`:

``POST /v1/<op>``
    Body ``{"spec": {...}, "seed": 0, ...}``; see :data:`OPERATIONS`.
    Responses are JSON; errors are always clean JSON envelopes
    (``{"error": ..., "kind": ...}``), never wrong answers.
``GET /v1/ops``
    The operation names and their parameter defaults.
``GET /v1/stats``
    Service + store counters (see :class:`ServiceStats`).
``GET /healthz``
    Liveness.

Request lifecycle hardening
---------------------------

* **Per-request deadlines** — the handler waits at most
  ``deadline_s`` (request field, capped by the server maximum) for the
  compute future; an expiry returns ``504`` while the computation
  finishes in the background and populates the store, so the retry is
  warm.
* **Single-flight deduplication** — concurrent requests with the same
  content address share one computation; joiners are not charged
  against the work queue.
* **Bounded work queue with load-shedding** — at most
  ``queue_limit`` distinct computations may be pending; excess
  requests are shed immediately with ``503`` + ``Retry-After`` instead
  of queueing unboundedly.
* **Graceful store degradation** — any store failure (unreadable
  directory, injected IO errors) downgrades that request to the cold
  path (compute-only); the service keeps answering correctly with the
  store offline, counting ``store_failures``.
* **Batched cold misses** — with ``batch_window_s > 0``, cold misses
  for the same batchable operation and instance family that arrive
  within the pending window are grouped; their constructions share
  one vector-ladder call and their quality reports one
  :func:`repro.core.batch.measure_batch` call.  Every grouped response
  is ==-identical to the per-instance path, and the ``batched``
  counter in ``/v1/stats`` tracks how many requests were served this
  way.

One construction path
---------------------

A ``shortcut``/``quality`` request (a window of one) and a batch
window both build their shortcuts through ``_build_shortcuts``.  An
item climbs the vectorized Appendix A doubling ladder
(:func:`repro.core.batch.find_shortcut_doubling_batch` with
``batch="vector"``) when it asks for ``mode="direct"``, numpy is
installed, and its topology has at least :data:`VECTOR_MIN_N` nodes;
every other item runs :func:`repro.core.doubling.find_shortcut_doubling`
per instance.  The ladder is bit-identical to the per-instance direct
search (c, b, trials, ledger), so the route changes no payload and no
content key — only the wall time.  If the ladder call raises, its
items are retried per instance, so each error keeps its own 422/500.

Keep-alive transport
--------------------

Connections are HTTP/1.1 keep-alive, one handler thread each.  The
handler buffers a response and flushes it once, so headers and body
leave as one segment, and it disables Nagle's algorithm: written as two
segments with Nagle on, the body of a keep-alive response waited about
40 ms for the client's delayed ACK.  :meth:`ServiceHandle.close` ends
every open connection, so no handler thread outlives the handle.

Computation is deterministic given the request (seeded constructions,
direct kernels), which is what makes results content-addressable and
retries idempotent.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.instances import Instance, InstanceSpec, hydrate
from repro.apps.connectivity import connected_components
from repro.apps.mincut import approximate_min_cut
from repro.apps.mst import minimum_spanning_tree
from repro.core import batch, quality
from repro.core.batch import measure_batch
from repro.core.doubling import find_shortcut_doubling
from repro.errors import ReproError
from repro.graphs.batch_csr import numpy_available
from repro.service.store import PersistentStore, canonical_json, spec_key

API_VERSION = "v1"
DEFAULT_DEADLINE_S = 30.0
DEFAULT_RETRY_AFTER_S = 0.05
# How often the listener thread checks for shutdown between requests.
# serve_forever's default (0.5 s) made every ServiceHandle.close() wait
# up to half a second; requests wake the selector at once either way.
SHUTDOWN_POLL_S = 0.02


class BadRequest(ReproError):
    """Malformed request (unknown family/op, bad JSON, bad params)."""


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------


def _digest(value: object) -> str:
    """Stable digest of a large result component (edges, labels)."""
    return hashlib.sha256(canonical_json(value)).hexdigest()


def _require_partition(instance: Instance) -> None:
    if instance.partition is None:
        raise BadRequest("this operation needs a spec with a partition")


def _require_weights(instance: Instance) -> None:
    if not instance.topology.is_weighted:
        raise BadRequest("this operation needs a weighted spec")


# Smallest topology (node count) whose direct-mode construction runs
# through the vector doubling ladder.  The ladder is ==-identical to
# the per-instance direct loop; below this size its packing overhead
# outweighs the vectorized rungs.  Measured direct/vector wall-time
# ratio, batch of one, n // 16 Voronoi parts, best of 3 per seed and
# the median over seeds 0-2 (Python 3.11, numpy 2.4, 2-core x86_64):
#
#   n = 256    grid 16x16 0.80x   torus 16x16 1.09x   hub 1.06x
#   n = 512    grid 16x32 1.07x   torus 24x24 1.43x   hub 1.98x
#   n = 1,024  grid 1.73x         torus 2.19x         hub 3.17x
#   n = 4,096  grid 2.70x         torus 3.26x         hub 3.97x
#
# (torus 24x24 has n = 576; n = 4,096 is the perfbench construct-cold
# size.)
VECTOR_MIN_N = 512


def _build_shortcuts(
    instances: List[Instance], params_list: List[Dict]
) -> List[object]:
    """One doubling construction per item, for a request or a window.

    Returns, per item, its ``DoublingResult`` or the exception its
    construction raised.  Items with ``mode="direct"``, a partition and
    at least :data:`VECTOR_MIN_N` nodes climb the ladder together in
    one :func:`repro.core.batch.find_shortcut_doubling_batch` call when
    numpy is installed (each with its own seed, so grouping changes no
    answer); every other item runs :func:`find_shortcut_doubling` on
    its own.  The ladder stops at the first failing item, so if it
    raises, its items fall back to the per-instance loop and every
    error stays with its own item.
    """
    outcomes: List[object] = [None] * len(instances)
    vector = numpy_available()
    laddered = [
        index
        for index, (instance, params) in enumerate(zip(instances, params_list))
        if vector
        and params["mode"] == "direct"
        and instance.partition is not None
        and instance.topology.n >= VECTOR_MIN_N
    ]
    if laddered:
        try:
            results = batch.find_shortcut_doubling_batch(
                [instances[i].topology for i in laddered],
                [instances[i].tree for i in laddered],
                [instances[i].partition for i in laddered],
                seeds=[params_list[i]["seed"] for i in laddered],
                mode="direct",
                batch="vector",
            )
        except Exception:  # noqa: BLE001 — retried per instance below
            results = [None] * len(laddered)
        for index, result in zip(laddered, results):
            outcomes[index] = result
    for index, (instance, params) in enumerate(zip(instances, params_list)):
        if outcomes[index] is not None:
            continue
        try:
            _require_partition(instance)
            outcomes[index] = find_shortcut_doubling(
                instance.topology,
                instance.tree,
                instance.partition,
                seed=params["seed"],
                mode=params["mode"],
            )
        except Exception as error:  # noqa: BLE001 — reported per item
            outcomes[index] = error
    return outcomes


def _construct(instance: Instance, params: Dict):
    """One doubling construction + quality report for shortcut/quality."""
    (outcome,) = _build_shortcuts([instance], [params])
    if isinstance(outcome, Exception):
        raise outcome
    report = quality.measure(
        outcome.result.shortcut,
        instance.topology,
        with_dilation=params["with_dilation"],
    )
    return outcome, report


def _shortcut_payload(outcome, report) -> Dict:
    return {
        "c": outcome.c,
        "b": outcome.b,
        "rounds": outcome.rounds,
        "trials": len(outcome.trials),
        "congestion": report.congestion,
        "block_parameter": report.block_parameter,
        "dilation": report.dilation,
        "tree_depth": report.tree_depth,
    }


def _quality_payload(outcome, report) -> Dict:
    payload = _shortcut_payload(outcome, report)
    payload["block_counts"] = list(report.block_counts)
    payload["lemma1_dilation_bound"] = report.lemma1_dilation_bound
    return payload


def op_shortcut(instance: Instance, params: Dict) -> Dict:
    """Appendix A doubling construction + quality report."""
    outcome, report = _construct(instance, params)
    return _shortcut_payload(outcome, report)


def op_quality(instance: Instance, params: Dict) -> Dict:
    """Quality report of the constructed shortcut (incl. block counts)."""
    outcome, report = _construct(instance, params)
    return _quality_payload(outcome, report)


def op_mst(instance: Instance, params: Dict) -> Dict:
    """Shortcut-accelerated Borůvka MST (forest when disconnected)."""
    _require_weights(instance)
    result = minimum_spanning_tree(
        instance.topology,
        seed=params["seed"],
        construct_mode=params["mode"],
        backend=params["backend"],
    )
    return {
        "weight": result.weight,
        "n_edges": len(result.edges),
        "edges_sha256": _digest(sorted(result.edges)),
        "phases": result.phases,
        "rounds": result.rounds,
        "components": result.components,
    }


def op_mincut(instance: Instance, params: Dict) -> Dict:
    """Greedy-tree-packing min-cut upper bound."""
    result = approximate_min_cut(
        instance.topology,
        seed=params["seed"],
        construct_mode=params["mode"],
        backend=params["backend"],
    )
    return {
        "value": result.value,
        "cut_size": len(result.cut_edges),
        "trees_packed": result.trees_packed,
        "rounds": result.rounds,
        "components": result.components,
    }


def op_connectivity(instance: Instance, params: Dict) -> Dict:
    """Component labelling of the full topology."""
    result = connected_components(
        instance.topology,
        instance.topology.edges,
        seed=params["seed"],
        construct_mode=params["mode"],
        backend=params["backend"],
    )
    return {
        "components": result.components,
        "graph_components": result.graph_components,
        "phases": result.phases,
        "rounds": result.rounds,
        "labels_sha256": _digest(
            [result.labels[v] for v in sorted(result.labels)]
        ),
    }


OPERATIONS: Dict[str, Callable[[Instance, Dict], Dict]] = {
    "shortcut": op_shortcut,
    "quality": op_quality,
    "mst": op_mst,
    "mincut": op_mincut,
    "connectivity": op_connectivity,
}

# Ops whose compute splits into a construction plus a quality report,
# both of which the batch layer can vectorize across a pending-window
# group (each construction is seeded per instance either way, so
# grouping cannot change any answer).
BATCHED_PAYLOADS: Dict[str, Callable] = {
    "shortcut": _shortcut_payload,
    "quality": _quality_payload,
}

# Parameters every operation accepts, with the service defaults (the
# direct kernels: the fast, ==-verified path).
PARAM_DEFAULTS: Dict[str, object] = {
    "seed": 0,
    "mode": "direct",
    "backend": "direct",
    "with_dilation": False,
}


def parse_spec(raw: object) -> InstanceSpec:
    """Build an :class:`InstanceSpec` from its JSON form.

    JSON arrays become the spec's tuples; unknown fields are rejected
    so a typo cannot silently change the content address.
    """
    if not isinstance(raw, dict):
        raise BadRequest("spec must be a JSON object")
    allowed = {"family", "params", "weights", "partition", "tree_root"}
    unknown = set(raw) - allowed
    if unknown:
        raise BadRequest(f"unknown spec fields: {sorted(unknown)}")
    if "family" not in raw:
        raise BadRequest("spec needs a family")
    family = raw["family"]
    if not isinstance(family, str):
        raise BadRequest("spec family must be a string")

    def as_params(value, label):
        if value is None:
            return None
        if not isinstance(value, list):
            raise BadRequest(f"spec {label} must be a JSON array")
        return tuple(value)

    tree_root = raw.get("tree_root", 0)
    if not isinstance(tree_root, int):
        raise BadRequest("spec tree_root must be an integer")
    return InstanceSpec(
        family=family,
        params=as_params(raw.get("params", []), "params") or (),
        weights=as_params(raw.get("weights"), "weights"),
        partition=as_params(raw.get("partition"), "partition"),
        tree_root=tree_root,
    )


def parse_request(op: str, body: Dict) -> Tuple[InstanceSpec, Dict]:
    """Validate a request body into ``(spec, params)``."""
    if op not in OPERATIONS:
        raise BadRequest(
            f"unknown operation {op!r}; available: {sorted(OPERATIONS)}"
        )
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    unknown = set(body) - {"spec", "deadline_s"} - set(PARAM_DEFAULTS)
    if unknown:
        raise BadRequest(f"unknown request fields: {sorted(unknown)}")
    if "spec" not in body:
        raise BadRequest("request needs a spec")
    spec = parse_spec(body["spec"])
    params = {
        name: body.get(name, default)
        for name, default in PARAM_DEFAULTS.items()
    }
    if params["mode"] not in ("direct", "simulate"):
        raise BadRequest("mode must be 'direct' or 'simulate'")
    if params["backend"] not in ("direct", "simulate"):
        raise BadRequest("backend must be 'direct' or 'simulate'")
    if not isinstance(params["seed"], int):
        raise BadRequest("seed must be an integer")
    params["with_dilation"] = bool(params["with_dilation"])
    return spec, params


# ----------------------------------------------------------------------
# The service core (transport-independent)
# ----------------------------------------------------------------------


@dataclass
class ServiceStats:
    """Request-lifecycle counters; all monotone, read via /v1/stats.

    Handler, pool and batch-timer threads all count here, so every
    update goes through :meth:`bump` under the stats' own lock.
    """

    requests: int = 0
    warm_hits: int = 0
    computed: int = 0
    batched: int = 0
    singleflight_joined: int = 0
    shed: int = 0
    deadline_expired: int = 0
    bad_requests: int = 0
    compute_errors: int = 0
    store_failures: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def bump(self, *names: str) -> None:
        """Add one to each named counter."""
        with self._lock:
            for name in names:
                setattr(self, name, getattr(self, name) + 1)

    def as_dict(self) -> Dict[str, int]:
        """A consistent snapshot of every counter."""
        with self._lock:
            return {k: v for k, v in self.__dict__.items() if k != "_lock"}


@dataclass
class ServiceResponse:
    """Transport-independent response: HTTP status + JSON body."""

    status: int
    body: Dict
    retry_after_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class _BatchGroup:
    """One pending window of same-family cold misses for one op."""

    op: str
    with_dilation: bool
    items: List[Tuple[str, InstanceSpec, Dict, Future]] = field(
        default_factory=list
    )
    timer: Optional[threading.Timer] = None


class ShortcutService:
    """The transport-independent request broker.

    Wraps the operation registry with the persistent store, the
    single-flight table, the bounded compute pool, and the stats; the
    HTTP layer below (and the chaos harness, which drives this class
    directly) is a thin shim over :meth:`handle`.

    With ``batch_window_s > 0`` cold misses on the batchable ops
    (:data:`BATCHED_PAYLOADS`) are held for up to that window and
    grouped by ``(op, family, with_dilation)``; a group flushes early
    when it reaches ``batch_limit`` members.  The group's
    constructions go through the same routing as a single request
    (one vector-ladder call for the items above :data:`VECTOR_MIN_N`),
    and its quality reports are computed in one
    :func:`repro.core.batch.measure_batch` call (the vector strategy
    when numpy is installed, the loop otherwise — both ==-identical to
    per-instance compute).
    """

    def __init__(
        self,
        store: Optional[PersistentStore] = None,
        *,
        workers: int = 4,
        queue_limit: int = 16,
        max_deadline_s: float = DEFAULT_DEADLINE_S,
        retry_after_s: float = DEFAULT_RETRY_AFTER_S,
        batch_window_s: float = 0.0,
        batch_limit: int = 8,
    ) -> None:
        # Recovery counters survive store restarts: the chaos harness
        # (and a real operator) reopens the store and reassigns
        # ``service.store``; the retired instance's quarantine and
        # eviction counts would otherwise vanish from /v1/stats.
        self._store: Optional[PersistentStore] = None
        self._stores_retired = 0
        self._retired_quarantined = 0
        self._retired_evictions = 0
        self.store = store
        self.stats = ServiceStats()
        self.queue_limit = queue_limit
        self.max_deadline_s = max_deadline_s
        self.retry_after_s = retry_after_s
        self.batch_window_s = batch_window_s
        self.batch_limit = max(1, batch_limit)
        self._batch_strategy = "vector" if numpy_available() else "loop"
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-svc"
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._batch_groups: Dict[Tuple, _BatchGroup] = {}
        self._pending = 0

    # -- store access (degrades gracefully) ----------------------------

    @property
    def store(self) -> Optional[PersistentStore]:
        return self._store

    @store.setter
    def store(self, store: Optional[PersistentStore]) -> None:
        previous = self._store
        if previous is not None and previous is not store:
            self._stores_retired += 1
            self._retired_quarantined += previous.stats.quarantined
            self._retired_evictions += previous.stats.evictions
        self._store = store

    def _store_get(self, key: str) -> Optional[object]:
        if self.store is None:
            return None
        try:
            return self.store.get(key)
        except Exception:
            self.stats.bump("store_failures")
            return None

    def _store_put(self, key: str, payload: object) -> None:
        if self.store is None:
            return
        try:
            if not self.store.put(key, payload):
                self.stats.bump("store_failures")
        except Exception:
            self.stats.bump("store_failures")

    # -- the request path ----------------------------------------------

    def handle(
        self, op: str, body: Dict, *, deadline_s: Optional[float] = None
    ) -> ServiceResponse:
        """Serve one request; never raises.

        Every outcome is a :class:`ServiceResponse`: ``200`` with the
        result, ``400`` (malformed), ``422`` (valid request whose
        computation legitimately fails, e.g. a disconnected-spec
        shortcut), ``503`` (shed, with ``Retry-After``), ``504``
        (deadline expired), or ``500`` (unexpected internal error).
        """
        self.stats.bump("requests")
        try:
            spec, params = parse_request(op, body)
        except BadRequest as error:
            self.stats.bump("bad_requests")
            return ServiceResponse(400, {"error": str(error), "kind": "bad-request"})
        if deadline_s is None:
            raw = body.get("deadline_s", self.max_deadline_s)
            try:
                deadline_s = float(raw)
            except (TypeError, ValueError):
                self.stats.bump("bad_requests")
                return ServiceResponse(
                    400, {"error": "deadline_s must be a number", "kind": "bad-request"}
                )
        deadline_s = max(0.0, min(deadline_s, self.max_deadline_s))

        key = spec_key(op, spec, **params)
        cached = self._store_get(key)
        if cached is not None:
            self.stats.bump("warm_hits")
            return ServiceResponse(
                200, {"result": cached, "key": key, "warm": True}
            )

        # Single-flight: join an identical in-progress computation, or
        # claim a work-queue slot for a new one.
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                self.stats.bump("singleflight_joined")
            else:
                if self._pending >= self.queue_limit:
                    self.stats.bump("shed")
                    return ServiceResponse(
                        503,
                        {"error": "work queue full", "kind": "overload"},
                        retry_after_s=self.retry_after_s,
                    )
                self._pending += 1
                if self.batch_window_s > 0 and op in BATCHED_PAYLOADS:
                    future = self._enqueue_batched(key, op, spec, params)
                else:
                    future = self._pool.submit(
                        self._compute, key, op, spec, params
                    )
                self._inflight[key] = future

        try:
            outcome = future.result(timeout=deadline_s)
        except FutureTimeout:
            # The computation keeps running and will populate the
            # store; the client's retry lands warm.
            self.stats.bump("deadline_expired")
            return ServiceResponse(
                504, {"error": "deadline expired", "kind": "deadline", "key": key}
            )
        kind, payload = outcome
        if kind == "ok":
            return ServiceResponse(200, {"result": payload, "key": key, "warm": False})
        if kind == "invalid":
            return ServiceResponse(422, {"error": payload, "kind": "unprocessable"})
        return ServiceResponse(500, {"error": payload, "kind": "internal"})

    def _failure(self, error: Exception) -> Tuple[str, str]:
        """Count a failed computation: ``invalid`` if a domain error, else ``error``."""
        self.stats.bump("compute_errors")
        if isinstance(error, ReproError):
            return ("invalid", str(error))
        return ("error", f"{type(error).__name__}: {error}")

    def _compute(
        self, key: str, op: str, spec: InstanceSpec, params: Dict
    ) -> Tuple[str, object]:
        """Worker-side computation; returns ``(kind, payload)``.

        Exceptions never escape (a poisoned future would wedge every
        single-flight joiner): they become :meth:`_failure` outcomes.
        The in-flight slot is always released.
        """
        try:
            instance = hydrate(spec)
            result = OPERATIONS[op](instance, params)
            self.stats.bump("computed")
            self._store_put(key, result)
            return ("ok", result)
        except Exception as error:  # noqa: BLE001 — clean error, never a wrong answer
            return self._failure(error)
        finally:
            with self._lock:
                self._inflight.pop(key, None)
                self._pending -= 1

    # -- batched cold misses -------------------------------------------

    def _enqueue_batched(
        self, key: str, op: str, spec: InstanceSpec, params: Dict
    ) -> Future:
        """Join/open the pending-window group for this op + family.

        Called with ``self._lock`` held.  Returns the per-request
        future; the group computes when the window expires or the
        group reaches ``batch_limit`` members.
        """
        group_key = (op, spec.family, params["with_dilation"])
        group = self._batch_groups.get(group_key)
        if group is None:
            group = _BatchGroup(op=op, with_dilation=params["with_dilation"])
            group.timer = threading.Timer(
                self.batch_window_s, self._flush_group, args=(group_key, group)
            )
            group.timer.daemon = True
            self._batch_groups[group_key] = group
            group.timer.start()
        future: Future = Future()
        group.items.append((key, spec, params, future))
        if len(group.items) >= self.batch_limit:
            self._batch_groups.pop(group_key, None)
            group.timer.cancel()
            self._pool.submit(self._run_group, group)
        return future

    def _flush_group(self, group_key: Tuple, group: _BatchGroup) -> None:
        """Timer callback: compute the group if it is still pending."""
        with self._lock:
            if self._batch_groups.get(group_key) is not group:
                return  # already flushed by the size limit (or close)
            self._batch_groups.pop(group_key)
        try:
            self._pool.submit(self._run_group, group)
        except RuntimeError:  # pool shut down under the timer
            self._run_group(group)

    def _finish(self, key: str, future: Future, outcome: Tuple) -> None:
        with self._lock:
            self._inflight.pop(key, None)
            self._pending -= 1
        future.set_result(outcome)

    def _run_group(self, group: _BatchGroup) -> None:
        """Compute one pending-window group.

        The constructions go through :func:`_build_shortcuts` — one
        vector-ladder call for every item above :data:`VECTOR_MIN_N`,
        the per-instance search for the rest — and the quality reports
        of the whole group run through one batch-layer call.  A failure
        stays confined to its own item: a failed hydrate or
        construction answers only its request, and on any batch-call
        error the group falls back to per-instance measurement so
        errors attribute exactly as on the unbatched path.
        """
        hydrated = []
        for key, spec, params, future in group.items:
            try:
                instance = hydrate(spec)
            except Exception as error:  # noqa: BLE001
                self._finish(key, future, self._failure(error))
            else:
                hydrated.append((key, future, instance, params))
        outcomes = _build_shortcuts(
            [instance for _, _, instance, _ in hydrated],
            [params for _, _, _, params in hydrated],
        )
        built = []
        for (key, future, instance, _params), outcome in zip(hydrated, outcomes):
            if isinstance(outcome, Exception):
                self._finish(key, future, self._failure(outcome))
            else:
                built.append((key, future, instance, outcome))
        if not built:
            return
        reports = None
        try:
            reports = measure_batch(
                [outcome.result.shortcut for _, _, _, outcome in built],
                [instance.topology for _, _, instance, _ in built],
                with_dilation=group.with_dilation,
                batch=self._batch_strategy,
            )
        except Exception:  # noqa: BLE001 — fall back to per-item measure
            reports = None
        payload_fn = BATCHED_PAYLOADS[group.op]
        for index, (key, future, instance, outcome) in enumerate(built):
            try:
                report = (
                    reports[index]
                    if reports is not None
                    else quality.measure(
                        outcome.result.shortcut,
                        instance.topology,
                        with_dilation=group.with_dilation,
                    )
                )
                result = payload_fn(outcome, report)
                self.stats.bump("computed", "batched")
                self._store_put(key, result)
                self._finish(key, future, ("ok", result))
            except Exception as error:  # noqa: BLE001
                self._finish(key, future, self._failure(error))

    def stats_payload(self) -> Dict:
        payload = {"service": self.stats.as_dict()}
        current = self.store.stats if self.store is not None else None
        if self.store is not None:
            payload["store"] = current.as_dict()
            payload["store_root"] = str(self.store.root)
        # Lifetime recovery counters: quarantines and LRU evictions
        # across every store this service has pointed at, including
        # instances retired by a restart.
        payload["recoveries"] = {
            "stores_retired": self._stores_retired,
            "quarantined": self._retired_quarantined
            + (current.quarantined if current is not None else 0),
            "evictions": self._retired_evictions
            + (current.evictions if current is not None else 0),
        }
        return payload

    def close(self) -> None:
        # Flush any pending batch windows so their futures resolve
        # before the pool drains (a cancelled timer must not strand a
        # waiting request).
        with self._lock:
            groups = list(self._batch_groups.items())
            self._batch_groups.clear()
        for _group_key, group in groups:
            if group.timer is not None:
                group.timer.cancel()
            self._pool.submit(self._run_group, group)
        self._pool.shutdown(wait=True)


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    service: ShortcutService  # set by serve()
    protocol_version = "HTTP/1.1"
    # A response leaves as one segment: writes are buffered and
    # ``handle_one_request`` flushes once per request.  Nagle is off so
    # no write waits for the client's delayed ACK (~40 ms).
    wbufsize = -1
    disable_nagle_algorithm = True

    # Silence per-request stderr logging (the service has /v1/stats).
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def handle_expect_100(self) -> bool:
        # The interim "100 Continue" must leave before the body arrives.
        proceed = super().handle_expect_100()
        self.wfile.flush()
        return proceed

    def _send_json(
        self, status: int, body: Dict, retry_after_s: Optional[float] = None
    ) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if retry_after_s is not None:
            self.send_header("Retry-After", f"{retry_after_s:.3f}")
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/healthz":
            self._send_json(200, {"ok": True})
        elif self.path == f"/{API_VERSION}/stats":
            self._send_json(200, self.service.stats_payload())
        elif self.path == f"/{API_VERSION}/ops":
            self._send_json(
                200,
                {"operations": sorted(OPERATIONS), "defaults": PARAM_DEFAULTS},
            )
        else:
            self._send_json(404, {"error": "not found", "kind": "not-found"})

    def do_POST(self) -> None:  # noqa: N802
        prefix = f"/{API_VERSION}/"
        if not self.path.startswith(prefix):
            self._send_json(404, {"error": "not found", "kind": "not-found"})
            return
        op = self.path[len(prefix):]
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_json(
                400, {"error": "body is not valid JSON", "kind": "bad-request"}
            )
            return
        response = self.service.handle(op, body)
        self._send_json(response.status, response.body, response.retry_after_s)


class _HTTPServer(ThreadingHTTPServer):
    """One daemon thread per connection, tracked so close() can end them.

    A keep-alive connection holds its handler thread between requests;
    :meth:`close_connections` shuts the read side of every open
    connection, so an idle handler sees end-of-stream and exits while a
    handler still answering a request finishes writing its response.
    """

    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self._serve_connection,
            args=(request, client_address),
            name="repro-svc-conn",
            daemon=True,
        )
        with self._connections_lock:
            self._connections[request] = thread
        thread.start()

    def _serve_connection(self, request, client_address) -> None:
        try:
            self.process_request_thread(request, client_address)
        finally:
            with self._connections_lock:
                self._connections.pop(request, None)

    def close_connections(self, timeout_s: float) -> None:
        with self._connections_lock:
            open_connections = list(self._connections.items())
        for connection, _thread in open_connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its handler
        deadline = time.monotonic() + timeout_s
        for _connection, thread in open_connections:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))


@dataclass
class ServiceHandle:
    """A running HTTP service; close() is idempotent.

    Closing stops the listener, ends every keep-alive connection (no
    handler thread outlives the handle), and drains the compute pool.
    """

    service: ShortcutService
    server: _HTTPServer
    thread: threading.Thread
    host: str
    port: int

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.server.close_connections(timeout_s=10)
        self.service.close()

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(
    store: Optional[PersistentStore] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 4,
    queue_limit: int = 16,
    max_deadline_s: float = DEFAULT_DEADLINE_S,
    retry_after_s: float = DEFAULT_RETRY_AFTER_S,
    batch_window_s: float = 0.0,
    batch_limit: int = 8,
) -> ServiceHandle:
    """Start the HTTP service on a daemon thread; returns its handle.

    ``port=0`` binds an ephemeral port (the handle reports it) — the
    tests, chaos harness, and E20 all run hermetic in-process servers
    this way.
    """
    service = ShortcutService(
        store,
        workers=workers,
        queue_limit=queue_limit,
        max_deadline_s=max_deadline_s,
        retry_after_s=retry_after_s,
        batch_window_s=batch_window_s,
        batch_limit=batch_limit,
    )
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = _HTTPServer((host, port), handler)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": SHUTDOWN_POLL_S},
        name="repro-svc-http",
        daemon=True,
    )
    thread.start()
    return ServiceHandle(
        service=service,
        server=server,
        thread=thread,
        host=host,
        port=server.server_address[1],
    )
