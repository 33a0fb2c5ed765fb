"""In-memory span tracer that times the library's layers from the outside.

Nothing under ``src/`` is instrumented.  :func:`install` replaces each
layer's public entry point, at the import site where its callers
resolve it, with a wrapper that records a span: name, start, end,
parent span and request id, plus a few attributes read off the call's
arguments and result.  Untraced runs never call :func:`install`, so
they execute the library unmodified.

Spans are kept in memory and written out once, when the run ends
(:meth:`Tracer.dump`).  :func:`layer_metrics` turns the spans of a
fixed set of requests into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs: Dict[str, object] = {}


class Tracer:
    """Collects spans from every thread.

    ``request`` is set by the benchmark's single closed-loop client
    before each operation, so spans opened on service threads while
    that operation is in flight belong to it.  A span opened on a
    thread with no open span of its own gets as parent the most
    recently opened span of the same request on any thread, so work a
    request hands to the service's pool nests under the handler that
    waits for it.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request: Optional[int] = None
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: Dict[object, List[int]] = defaultdict(list)
        self._extra: Dict[object, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Optional[int]:
        if not self.enabled:
            return None
        request = self.request
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                pending = self._open[request]
                parent = pending[-1] if pending else None
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), parent, request))
            self._open[request].append(index)
        stack.append(index)
        return index

    def close(self, index: Optional[int]) -> None:
        if index is None:
            return
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self._open[span.request].remove(index)

    def add(self, key: str, value: float) -> None:
        """Add to a per-request counter (for values no span carries)."""
        if self.enabled:
            self._extra[self.request][key] += value

    def extras(self, requests: Set[object]) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for request in requests:
            for key, value in self._extra.get(request, {}).items():
                totals[key] += value
        return totals

    def wrap(
        self,
        name: str,
        fn: Callable,
        note: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ):
        """``fn`` recording a ``name`` span per call.

        ``note(span, args, kwargs, result, error, snapshot)`` may set
        attributes; it runs after the call, with ``error`` the exception
        (re-raised afterwards) or ``None``, and ``snapshot`` what
        ``before(args)`` returned just before the call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            if index is None:
                return fn(*args, **kwargs)
            snapshot = before(args) if before is not None else None
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.close(index)
                if note is not None:
                    note(tracer.spans[index], args, kwargs, result, error, snapshot)

        return traced

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                            "attrs": span.attrs,
                        },
                        default=str,
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# What to wrap
# ----------------------------------------------------------------------


def _note_verification(span, args, kwargs, result, error, snapshot):
    if result is not None:
        span.attrs["good"] = len(result.good_parts)
        span.attrs["considered"] = len(kwargs["consider"])


def _note_trial(span, args, kwargs, result, error, snapshot):
    span.attrs["succeeded"] = error is None


def _note_mst(span, args, kwargs, result, error, snapshot):
    if result is not None:
        span.attrs["phases"] = result.phases


def _note_ladder(span, args, kwargs, result, error, snapshot):
    span.attrs["size"] = len(args[0])


def _note_rung(span, args, kwargs, result, error, snapshot):
    span.attrs["active"] = len(args[1])


def _note_simulator(span, args, kwargs, result, error, snapshot):
    if result is not None:
        span.attrs["rounds"] = result.rounds
        span.attrs["messages"] = result.messages


def _note_reliable(span, args, kwargs, result, error, snapshot):
    if result is not None:
        span.attrs["overhead"] = result.overhead
        span.attrs["prods"] = result.prods
        span.attrs["messages"] = result.messages


def _instance_misses(args) -> int:
    """A hydrate miss grows the instance cache or evicts from it."""
    from repro.analysis.instances import instance_cache_info

    info = instance_cache_info()
    return info["instances"] + info["instance_evictions"]


def _note_hydrate(span, args, kwargs, result, error, snapshot):
    span.attrs["hit"] = _instance_misses(args) == snapshot


def _disk_hits(args) -> int:
    return args[0].stats.hits_disk


def _note_store_get(span, args, kwargs, result, error, snapshot):
    span.attrs["hit"] = result is not None
    span.attrs["disk"] = _disk_hits(args) > snapshot


# (module, attribute, span name, note, before) for plain functions
# resolved through a module attribute at call time.
FUNCTIONS = [
    ("repro.core.find_shortcut", "core_fast", "core_fast", None, None),
    ("repro.core.find_shortcut", "verification", "verification", _note_verification, None),
    ("repro.core.doubling", "find_shortcut", "doubling.trial", _note_trial, None),
    ("repro.core.doubling", "find_shortcut_doubling", "doubling", None, None),
    ("repro.service.server", "find_shortcut_doubling", "doubling", None, None),
    ("repro.apps.mst", "find_shortcut_doubling", "doubling", None, None),
    ("repro.apps.connectivity", "find_shortcut_doubling", "doubling", None, None),
    ("repro.core.quality", "measure", "quality.measure", None, None),
    ("repro.analysis.instances", "hydrate", "instances.hydrate", _note_hydrate, _instance_misses),
    ("repro.service.server", "hydrate", "instances.hydrate", _note_hydrate, _instance_misses),
    ("repro.service.server", "minimum_spanning_tree", "apps.mst", _note_mst, None),
    ("repro.apps.mst", "minimum_spanning_tree", "apps.mst", _note_mst, None),
    ("repro.service.server", "connected_components", "apps.connectivity", None, None),
    ("repro.service.server", "approximate_min_cut", "apps.mincut", None, None),
    ("repro.core.batch", "find_shortcut_doubling_batch", "batch.ladder", _note_ladder, None),
    ("repro.core.batch", "_find_shortcut_wave", "batch.ladder.rung", _note_rung, None),
    ("repro.core.batch", "measure_batch", "batch.measure", None, None),
    ("repro.congest.reliable", "run_reliably", "reliable", _note_reliable, None),
]

# (module, class, method, span name, note, before) for methods patched
# on the class, so every instance sees them.
METHODS = [
    ("repro.core.partwise", "PartwiseEngine", "block_aggregate", "partwise", None, None),
    ("repro.core.partwise", "PartwiseEngine", "exchange", "partwise", None, None),
    ("repro.core.partwise", "PartwiseEngine", "minimum_per_part", "partwise", None, None),
    ("repro.core.partwise", "PartwiseEngine", "elect_leaders", "partwise", None, None),
    ("repro.core.partwise", "PartwiseEngine", "broadcast_from_leaders", "partwise", None, None),
    ("repro.core.partwise", "PartwiseEngine", "count_blocks", "partwise", None, None),
    ("repro.graphs.batch_csr", "BatchCSR", "__init__", "batch_csr.pack", None, None),
    ("repro.service.store", "PersistentStore", "get", "store.get", _note_store_get, _disk_hits),
    ("repro.service.store", "PersistentStore", "put", "store.put", None, None),
    ("repro.service.server", "ShortcutService", "handle", "server.handle", None, None),
    ("repro.congest.simulator", "Simulator", "run", "simulator.run", _note_simulator, None),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; the wrappers stay for the process."""
    for module_name, attr, name, note, before in FUNCTIONS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), note, before))
    for module_name, cls_name, attr, name, note, before in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), note, before))
    # Each service operation, so its time can be told apart from the
    # server's own.
    operations = importlib.import_module("repro.service.server").OPERATIONS
    for op, fn in list(operations.items()):
        operations[op] = tracer.wrap("server.op", fn)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

# Span name -> layer whose busy time it counts toward.
LAYER_OF = {
    "core_fast": "core_fast",
    "verification": "verification",
    "doubling": "doubling",
    "doubling.trial": "doubling",
    "quality.measure": "quality.measure",
    "partwise": "partwise",
    "apps.mst": "apps.mst",
    "apps.connectivity": "apps.connectivity",
    "apps.mincut": "apps.mincut",
    "batch.ladder": "batch.ladder",
    "batch.ladder.rung": "batch.ladder",
    "batch.measure": "batch.measure",
    "batch_csr.pack": "batch_csr.pack",
    "instances.hydrate": "instances.hydrate",
    "store.get": "store.get",
    "store.put": "store.put",
    "server.handle": "server.handle",
    "server.op": "server.op",
    "simulator.run": "simulator.run",
    "reliable": "reliable",
}


def _union_length(intervals: Iterable[Sequence[float]], lo: float, hi: float) -> float:
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span], chosen: Sequence[int]) -> Dict[int, float]:
    """Each chosen span's duration minus the part its children cover."""
    children: Dict[int, List[Sequence[float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        index: (spans[index].end - spans[index].start)
        - _union_length(children.get(index, ()), spans[index].start, spans[index].end)
        for index in chosen
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    requests: Set[object],
    client_latency: Dict[object, float],
    service_counters: Dict[str, int],
) -> Dict[str, float]:
    """The per-layer metrics over the spans of ``requests``.

    ``*.busy_s`` is the layer's self time except ``server.handle.busy_s``,
    which is the whole time spent inside ``ShortcutService.handle``;
    ``server.overhead_s`` is the handle spans' self time: that time
    minus the store, hydrate and operation spans under it.
    ``client_latency`` maps each request to its latency as the client
    saw it; only requests that reached ``handle`` count toward
    ``server.transport_s``.
    """
    spans = tracer.spans
    chosen = [
        index
        for index, span in enumerate(spans)
        if span.request in requests and span.name in LAYER_OF
    ]
    own = self_times(spans, chosen)
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for index in chosen:
        span = spans[index]
        busy[LAYER_OF[span.name]] += own[index]
        calls[span.name] += 1
        by_name[span.name].append(span)

    def total(name: str) -> float:
        return sum(span.end - span.start for span in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in by_name[name])

    extras = tracer.extras(requests)

    # Server: wall time inside handle per request; its self time is the
    # part not spent in store reads, hydrate, the operation, or store
    # writes (all direct children of the handle span).
    handle_by_request: Dict[object, float] = defaultdict(float)
    for span in by_name["server.handle"]:
        handle_by_request[span.request] += span.end - span.start
    transport = sum(
        latency - handle_by_request[request]
        for request, latency in client_latency.items()
        if request in handle_by_request
    )

    trials = calls["doubling.trial"]
    rung_size = 0
    for span in by_name["batch.ladder.rung"]:
        parent = span.parent
        while parent is not None and spans[parent].name != "batch.ladder":
            parent = spans[parent].parent
        if parent is not None:
            rung_size += spans[parent].attrs.get("size", 0)
    gets = calls["store.get"]
    hits = sum(1 for span in by_name["store.get"] if span.attrs.get("hit"))
    hydrates = calls["instances.hydrate"]
    reliable_messages = attr_sum("reliable", "messages")
    reliable_cells = calls["reliable"]
    sim_messages = attr_sum("simulator.run", "messages")

    return {
        "core_fast.calls": calls["core_fast"],
        "core_fast.busy_s": busy["core_fast"],
        "verification.calls": calls["verification"],
        "verification.busy_s": busy["verification"],
        "verification.good_ratio": _ratio(
            attr_sum("verification", "good"), attr_sum("verification", "considered")
        ),
        "doubling.calls": calls["doubling"],
        "doubling.busy_s": busy["doubling"],
        "doubling.trials": trials,
        "doubling.success_ratio": _ratio(
            sum(1 for s in by_name["doubling.trial"] if s.attrs.get("succeeded")),
            trials,
        ),
        "quality.measure.calls": calls["quality.measure"],
        "quality.measure.busy_s": busy["quality.measure"],
        "partwise.calls": calls["partwise"],
        "partwise.busy_s": busy["partwise"],
        "apps.mst.busy_s": busy["apps.mst"],
        "apps.mst.phases": attr_sum("apps.mst", "phases"),
        "apps.connectivity.busy_s": busy["apps.connectivity"],
        "apps.mincut.busy_s": busy["apps.mincut"],
        "batch.ladder.busy_s": busy["batch.ladder"],
        "batch.ladder.rungs": calls["batch.ladder.rung"],
        "batch.ladder.active_ratio": _ratio(
            attr_sum("batch.ladder.rung", "active"), rung_size
        ),
        "batch.measure.busy_s": busy["batch.measure"],
        "batch_csr.pack.calls": calls["batch_csr.pack"],
        "batch_csr.pack.busy_s": busy["batch_csr.pack"],
        "instances.hydrate.calls": hydrates,
        "instances.hydrate.busy_s": busy["instances.hydrate"],
        "instances.hydrate.hit_ratio": _ratio(
            sum(1 for s in by_name["instances.hydrate"] if s.attrs.get("hit")),
            hydrates,
        ),
        "store.get.calls": gets,
        "store.get.busy_s": busy["store.get"],
        "store.put.calls": calls["store.put"],
        "store.put.busy_s": busy["store.put"],
        "store.hit_ratio": _ratio(hits, gets),
        "store.disk_hit_ratio": _ratio(
            sum(1 for span in by_name["store.get"] if span.attrs.get("disk")), hits
        ),
        "server.handle.busy_s": total("server.handle"),
        "server.transport_s": transport,
        "server.overhead_s": busy["server.handle"],
        "server.shed": service_counters.get("shed", 0),
        "server.deadline_expired": service_counters.get("deadline_expired", 0),
        "server.singleflight_joined": service_counters.get("singleflight_joined", 0),
        "simulator.run.calls": calls["simulator.run"],
        "simulator.run.busy_s": busy["simulator.run"],
        "simulator.rounds": attr_sum("simulator.run", "rounds"),
        "simulator.messages": sim_messages,
        "simulator.messages_per_s": _ratio(sim_messages, total("simulator.run")),
        "reliable.busy_s": busy["reliable"],
        "reliable.overhead": _ratio(attr_sum("reliable", "overhead"), reliable_cells),
        "reliable.amplification": _ratio(
            reliable_messages, extras.get("reliable.reference_messages", 0)
        ),
        "reliable.prods": attr_sum("reliable", "prods"),
    }

