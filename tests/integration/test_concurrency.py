"""Concurrent callers get the serial answers, whatever their axis values.

Selection axes are context-scoped: a ``mode`` / ``backend`` /
``batch`` / ``faults`` / ``engine`` choice made on one thread must not
reach another thread's computation.  These tests run mixed selections
from more threads than cores — with a short interpreter switch
interval, so threads interleave inside the computations — and compare
every result with the same call made serially.  The persistent store
those requests share must likewise count every access exactly once.
"""

import hashlib
import sys
import threading
from typing import Callable, Dict, List, Tuple

import pytest

from repro.analysis.instances import (
    InstanceSpec,
    clear_instance_cache,
    reference_instance,
)
from repro.congest.faults import FaultPlan, using_faults
from repro.congest.simulator import Simulator
from repro.congest.workloads import FloodAlgorithm
from repro.core import quality
from repro.core.batch import measure_batch, using_batch
from repro.core.construct_fast import using_mode
from repro.core.doubling import find_shortcut_doubling
from repro.core.find_shortcut import find_shortcut
from repro.graphs import generators
from repro.graphs.batch_csr import numpy_available
from repro.service.client import spec_to_json
from repro.service.server import OPERATIONS, PARAM_DEFAULTS, ShortcutService
from repro.service.store import PersistentStore

THREADS = 8
TIMEOUT_S = 300.0
SPEC = InstanceSpec(
    "grid", (5, 5), weights=("unique", 3), partition=("voronoi", 5, 1)
)
OPS = ("shortcut", "quality", "mst", "connectivity")
CHOICES = ("direct", "simulate")


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_instance_cache()
    yield
    clear_instance_cache()


@pytest.fixture
def fast_switching():
    """Switch threads every 10 µs so they interleave mid-computation."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _run_threads(jobs: List[List[Callable[[], None]]]) -> None:
    """Run each job list on its own thread; re-raise the first error."""
    errors: List[BaseException] = []

    def worker(calls):
        try:
            for call in calls:
                call()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(calls,)) for calls in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT_S)
        assert not thread.is_alive()
    if errors:
        raise errors[0]


def test_service_requests_with_mixed_axes_match_serial(fast_switching):
    requests = [
        (op, {"seed": seed, "mode": mode, "backend": backend})
        for op in OPS
        for mode in CHOICES
        for backend in CHOICES
        for seed in (0, 1)
    ]
    expected = {}
    for op, params in requests:
        full = dict(PARAM_DEFAULTS, **params)
        expected[op, tuple(sorted(params.items()))] = OPERATIONS[op](
            reference_instance(SPEC), full
        )

    results: Dict[Tuple, Dict] = {}
    service = ShortcutService(None, workers=4, queue_limit=len(requests))

    def request(op, params):
        def call():
            body = dict(params, spec=spec_to_json(SPEC))
            response = service.handle(op, body, deadline_s=TIMEOUT_S)
            assert response.status == 200, response.body
            results[op, tuple(sorted(params.items()))] = response.body["result"]

        return call

    try:
        _run_threads(
            [
                [request(*item) for item in requests[lane::THREADS]]
                for lane in range(THREADS)
            ]
        )
    finally:
        service.close()
    assert results == expected
    assert service.stats.computed == len(requests)


def _flood(engine=None, faults=None):
    topology = generators.grid(4, 4)
    result = Simulator(
        topology, FloodAlgorithm(rounds=4), seed=2, engine=engine, faults=faults
    ).run()
    return result.rounds, result.messages, {
        v: vars(state) for v, state in result.states.items()
    }


def _library_calls() -> Dict[str, Callable[[], object]]:
    """Calls that select axes by keyword or by scope, plus clean twins."""
    instance = reference_instance(SPEC)
    args = (instance.topology, instance.tree, instance.partition)
    shortcut = find_shortcut_doubling(*args, seed=0, mode="direct").result.shortcut
    shortcuts, topologies = [shortcut] * 3, [instance.topology] * 3
    plan = FaultPlan(seed=4, p_drop=0.3)

    def scoped(using, value, call):
        def run():
            with using(value):
                return call()

        return run

    def construct():
        result = find_shortcut(*args, 4, 2, seed=1, use_fast=False)
        return result.shortcut.subgraphs, result.good_history, result.iterations

    def doubling(**kwargs):
        outcome = find_shortcut_doubling(*args, seed=3, **kwargs)
        return outcome.c, outcome.b, len(outcome.trials), outcome.rounds

    calls = {
        "flood": _flood,
        "flood engine=reference": lambda: _flood(engine="reference"),
        "flood faults=plan": lambda: _flood(faults=plan),
        "flood under using_faults": scoped(using_faults, plan, _flood),
        "flood faults=none under using_faults": scoped(
            using_faults, plan, lambda: _flood(faults="none")
        ),
        "construct": construct,
        "construct under using_mode": scoped(using_mode, "direct", construct),
        "doubling": doubling,
        "doubling mode=direct": lambda: doubling(mode="direct"),
        "measure": lambda: quality.measure(shortcut, instance.topology),
        "measure_reference": lambda: quality.measure_reference(
            shortcut, instance.topology
        ),
        "measure_batch": lambda: measure_batch(shortcuts, topologies),
    }
    if numpy_available():
        calls["measure_batch batch=vector"] = lambda: measure_batch(
            shortcuts, topologies, batch="vector"
        )
        calls["measure_batch under using_batch"] = scoped(
            using_batch, "vector", lambda: measure_batch(shortcuts, topologies)
        )
    return calls


def test_library_calls_with_mixed_axes_match_serial(fast_switching):
    calls = _library_calls()
    expected = {name: call() for name, call in calls.items()}
    # The faulty and the clean flood differ, so a leaked plan would show.
    assert expected["flood"] != expected["flood faults=plan"]
    assert expected["flood under using_faults"] == expected["flood faults=plan"]
    assert expected["flood faults=none under using_faults"] == expected["flood"]

    names = sorted(calls)
    results: Dict[int, Dict[str, object]] = {lane: {} for lane in range(THREADS)}

    def record(lane, name):
        def call():
            results[lane][name] = calls[name]()

        return call

    # Every thread runs every call, each thread in a rotated order, so
    # scoped and unscoped twins overlap in time.
    _run_threads(
        [
            [record(lane, name) for name in names[lane:] + names[:lane]]
            for lane in range(THREADS)
        ]
    )
    for lane in range(THREADS):
        assert results[lane] == expected, f"thread {lane}"


def test_store_counters_add_up_under_concurrent_access(fast_switching, tmp_path):
    """Every get is one memory hit, disk hit or miss; every successful
    put is one write — however the pool threads interleave."""
    keys = [hashlib.sha256(b"key%d" % i).hexdigest() for i in range(24)]
    present, missing = keys[:12], keys[12:]
    # A small LRU front, so gets of present keys also reach the disk.
    store = PersistentStore(tmp_path, memory_entries=3)
    for key in present:
        assert store.put(key, {"key": key})
    counts: Dict[str, int] = {"gets": 0, "puts": len(present)}
    counts_lock = threading.Lock()

    def accesses(worker: int) -> List[Callable[[], None]]:
        def access(step: int) -> None:
            key = (present if step % 3 else missing)[(worker + step) % 12]
            if step % 5 == 0:
                ok = store.put(key, {"key": key, "step": step})
                with counts_lock:
                    counts["puts"] += ok
            else:
                store.get(key)
                with counts_lock:
                    counts["gets"] += 1

        return [lambda step=step: access(step) for step in range(60)]

    _run_threads([accesses(worker) for worker in range(THREADS)])
    stats = store.stats
    assert stats.hits_memory + stats.hits_disk + stats.misses == counts["gets"]
    assert stats.writes == counts["puts"]
    assert stats.io_errors == stats.quarantined == 0
