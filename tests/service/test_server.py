"""Tests for the service broker and its HTTP transport."""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.instances import InstanceSpec, clear_instance_cache
from repro.service.server import (
    OPERATIONS,
    PARAM_DEFAULTS,
    ShortcutService,
    parse_spec,
    serve,
)
from repro.service.store import PersistentStore


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_instance_cache()
    yield
    clear_instance_cache()


GRID = {
    "family": "grid",
    "params": [5, 5],
    "weights": ["unique", 3],
    "partition": ["voronoi", 5, 1],
}


def request_body(seed=0, **extra):
    body = {"spec": dict(GRID), "seed": seed}
    body.update(extra)
    return body


@pytest.fixture
def service(tmp_path):
    service = ShortcutService(PersistentStore(tmp_path / "store"), workers=2)
    yield service
    service.close()


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def test_parse_spec_roundtrip():
    spec = parse_spec(GRID)
    assert spec == InstanceSpec(
        "grid", (5, 5), weights=("unique", 3), partition=("voronoi", 5, 1)
    )


@pytest.mark.parametrize(
    "raw",
    [
        "not a dict",
        {},  # no family
        {"family": 7},
        {"family": "grid", "bogus": 1},
        {"family": "grid", "params": "not-a-list"},
        {"family": "grid", "params": [5, 5], "tree_root": "zero"},
    ],
)
def test_parse_spec_rejects_malformed(raw):
    from repro.service.server import BadRequest

    with pytest.raises(BadRequest):
        parse_spec(raw)


def test_unknown_op_is_bad_request(service):
    response = service.handle("frobnicate", request_body())
    assert response.status == 400
    assert response.body["kind"] == "bad-request"


@pytest.mark.parametrize(
    "body",
    [
        {},  # no spec
        {"spec": GRID, "bogus": True},
        {"spec": GRID, "mode": "warp"},
        {"spec": GRID, "backend": "warp"},
        {"spec": GRID, "seed": "zero"},
    ],
)
def test_malformed_request_is_400(service, body):
    response = service.handle("mst", body)
    assert response.status == 400
    assert response.body["kind"] == "bad-request"


def test_concurrent_counter_updates_are_not_lost(service):
    threads, per_thread = 8, 250
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(
                target=lambda: [
                    service.handle("mst", {"spec": GRID, "mode": "warp"})
                    for _ in range(per_thread)
                ]
            )
            for _ in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(previous)
    counts = service.stats.as_dict()
    assert counts["requests"] == counts["bad_requests"] == threads * per_thread


def test_unknown_family_is_unprocessable(service):
    response = service.handle(
        "mst", {"spec": {"family": "nonsense", "params": []}}
    )
    assert response.status == 422
    assert response.body["kind"] == "unprocessable"
    assert "nonsense" in response.body["error"]


def test_mst_needs_weights(service):
    response = service.handle(
        "mst", {"spec": {"family": "grid", "params": [4, 4]}}
    )
    assert response.status == 422
    assert "weighted" in response.body["error"]


def test_shortcut_needs_partition(service):
    response = service.handle(
        "shortcut", {"spec": {"family": "grid", "params": [4, 4]}}
    )
    assert response.status == 422
    assert "partition" in response.body["error"]


# ----------------------------------------------------------------------
# Caching and single-flight
# ----------------------------------------------------------------------


def test_second_request_is_warm(service):
    cold = service.handle("mst", request_body())
    assert cold.status == 200 and cold.body["warm"] is False
    warm = service.handle("mst", request_body())
    assert warm.status == 200 and warm.body["warm"] is True
    assert warm.body["result"] == cold.body["result"]
    assert service.stats.computed == 1
    assert service.stats.warm_hits == 1


def test_warm_across_service_restart(tmp_path):
    first = ShortcutService(PersistentStore(tmp_path / "store"), workers=2)
    cold = first.handle("mst", request_body())
    first.close()
    second = ShortcutService(PersistentStore(tmp_path / "store"), workers=2)
    try:
        warm = second.handle("mst", request_body())
        assert warm.status == 200 and warm.body["warm"] is True
        assert warm.body["result"] == cold.body["result"]
        assert second.stats.computed == 0
    finally:
        second.close()


@pytest.fixture
def sleepy_op():
    """A registered operation that blocks until released."""
    release = threading.Event()
    started = threading.Event()
    calls = []

    def op(instance, params):
        calls.append(params["seed"])
        started.set()
        release.wait(timeout=10)
        return {"seed": params["seed"], "n": instance.topology.n}

    OPERATIONS["sleepy"] = op
    yield started, release, calls
    release.set()
    del OPERATIONS["sleepy"]


def test_single_flight_deduplicates(service, sleepy_op):
    started, release, calls = sleepy_op
    responses = []

    def fire():
        responses.append(service.handle("sleepy", request_body()))

    threads = [threading.Thread(target=fire) for _ in range(3)]
    threads[0].start()
    assert started.wait(timeout=10)
    for thread in threads[1:]:
        thread.start()
    # All three wait on one computation.
    time.sleep(0.05)
    release.set()
    for thread in threads:
        thread.join(timeout=10)
    assert [r.status for r in responses] == [200, 200, 200]
    assert len({json.dumps(r.body["result"]) for r in responses}) == 1
    assert len(calls) == 1
    assert service.stats.singleflight_joined == 2
    assert service.stats.computed == 1


def test_load_shedding_returns_503_with_retry_after(tmp_path, sleepy_op):
    started, release, _calls = sleepy_op
    service = ShortcutService(
        PersistentStore(tmp_path / "store"), workers=1, queue_limit=1
    )
    try:
        background = threading.Thread(
            target=service.handle, args=("sleepy", request_body(seed=1))
        )
        background.start()
        assert started.wait(timeout=10)
        # Queue full: a *different* computation is shed immediately.
        shed = service.handle("sleepy", request_body(seed=2))
        assert shed.status == 503
        assert shed.body["kind"] == "overload"
        assert shed.retry_after_s is not None
        assert service.stats.shed == 1
        # An identical one joins the in-flight future instead.
        join = threading.Thread(
            target=service.handle, args=("sleepy", request_body(seed=1))
        )
        join.start()
        time.sleep(0.05)
        release.set()
        background.join(timeout=10)
        join.join(timeout=10)
        assert service.stats.singleflight_joined == 1
    finally:
        release.set()
        service.close()


def test_deadline_expiry_is_504_then_warm(service, sleepy_op):
    started, release, _calls = sleepy_op
    expired = service.handle(
        "sleepy", request_body(seed=3), deadline_s=0.05
    )
    assert expired.status == 504
    assert expired.body["kind"] == "deadline"
    assert service.stats.deadline_expired == 1
    # The computation finished in the background and populated the
    # store: the retry lands warm.
    release.set()
    deadline = time.time() + 10
    while time.time() < deadline:
        retry = service.handle("sleepy", request_body(seed=3))
        if retry.status == 200 and retry.body["warm"]:
            break
        time.sleep(0.02)
    assert retry.status == 200
    assert retry.body["warm"] is True


# ----------------------------------------------------------------------
# Batched cold misses
# ----------------------------------------------------------------------


BATCH_SPECS = [
    {
        "family": "grid",
        "params": [5, 5],
        "weights": ["unique", 3],
        "partition": ["voronoi", 5, 1],
    },
    {
        "family": "grid",
        "params": [6, 4],
        "weights": ["unique", 6],
        "partition": ["voronoi", 4, 2],
    },
    {
        "family": "grid",
        "params": [4, 6],
        "weights": ["unique", 7],
        "partition": ["voronoi", 6, 3],
    },
]


def test_batched_cold_misses_match_the_loop_path(tmp_path):
    # Per-instance reference answers from an unbatched service.
    loop = ShortcutService(store=None, workers=2)
    try:
        expected = [
            loop.handle("shortcut", {"spec": spec, "seed": 5}).body["result"]
            for spec in BATCH_SPECS
        ]
    finally:
        loop.close()

    service = ShortcutService(
        PersistentStore(tmp_path / "store"),
        workers=2,
        batch_window_s=0.25,
        batch_limit=len(BATCH_SPECS),
    )
    responses = [None] * len(BATCH_SPECS)

    def fire(index):
        responses[index] = service.handle(
            "shortcut", {"spec": BATCH_SPECS[index], "seed": 5}
        )

    try:
        threads = [
            threading.Thread(target=fire, args=(i,))
            for i in range(len(BATCH_SPECS))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert [r.status for r in responses] == [200] * len(BATCH_SPECS)
        assert [r.body["result"] for r in responses] == expected
        assert all(r.body["warm"] is False for r in responses)
        # Every cold miss went through the grouped batch path and the
        # store is populated: the retry lands warm.
        assert service.stats.batched == len(BATCH_SPECS)
        assert service.stats.computed == len(BATCH_SPECS)
        warm = service.handle("shortcut", {"spec": BATCH_SPECS[0], "seed": 5})
        assert warm.status == 200 and warm.body["warm"] is True
    finally:
        service.close()


def test_batch_window_group_of_one_flushes_on_the_timer(tmp_path):
    loop = ShortcutService(store=None, workers=2)
    try:
        expected = loop.handle("quality", request_body()).body["result"]
    finally:
        loop.close()
    service = ShortcutService(
        PersistentStore(tmp_path / "store"),
        workers=2,
        batch_window_s=0.05,
        batch_limit=8,
    )
    try:
        # A single request must not wait forever for company: the
        # window timer flushes a group of one.
        response = service.handle("quality", request_body())
        assert response.status == 200
        assert response.body["result"] == expected
        assert service.stats.batched == 1
    finally:
        service.close()


def test_batched_invalid_spec_fails_alone(tmp_path):
    # A partitionless spec in the same window as a good one must fail
    # with the usual 422 while its neighbour still gets its answer.
    service = ShortcutService(
        PersistentStore(tmp_path / "store"),
        workers=2,
        batch_window_s=0.25,
        batch_limit=2,
    )
    bad = {"family": "grid", "params": [4, 4]}
    responses = {}

    def fire(label, spec):
        responses[label] = service.handle("shortcut", {"spec": spec})

    try:
        threads = [
            threading.Thread(target=fire, args=("good", BATCH_SPECS[0])),
            threading.Thread(target=fire, args=("bad", bad)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert responses["good"].status == 200
        assert responses["bad"].status == 422
        assert "partition" in responses["bad"].body["error"]
        assert service.stats.batched == 1
    finally:
        service.close()


def test_batching_disabled_by_default(service):
    response = service.handle("shortcut", {"spec": BATCH_SPECS[0]})
    assert response.status == 200
    assert service.stats.batched == 0


def test_stats_surface_batched_counter(tmp_path):
    with serve(
        PersistentStore(tmp_path / "store"),
        workers=2,
        batch_window_s=0.05,
    ) as handle:
        status, body = http_json(
            f"{handle.base_url}/v1/shortcut",
            {"spec": BATCH_SPECS[0]},
        )
        assert status == 200
        status, stats = http_json(f"{handle.base_url}/v1/stats")
        assert status == 200
        assert stats["service"]["batched"] == 1


# ----------------------------------------------------------------------
# Store degradation
# ----------------------------------------------------------------------


def test_serves_cold_path_without_store():
    service = ShortcutService(store=None, workers=2)
    try:
        first = service.handle("mst", request_body())
        second = service.handle("mst", request_body())
        assert first.status == second.status == 200
        assert first.body["result"] == second.body["result"]
        assert service.stats.computed == 2  # nothing to warm-hit
    finally:
        service.close()


def test_degrades_when_store_is_broken(tmp_path):
    from repro.service.store import _Hooks

    def explode(key, path):
        raise OSError("store offline")

    store = PersistentStore(
        tmp_path / "store",
        hooks=_Hooks(before_read=explode, before_write=explode),
    )
    service = ShortcutService(store, workers=2)
    try:
        first = service.handle("mst", request_body())
        second = service.handle("mst", request_body())
        assert first.status == second.status == 200
        assert first.body["result"] == second.body["result"]
        assert service.stats.store_failures > 0
    finally:
        service.close()


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------


def http_json(url, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"} if data else {}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def test_http_end_to_end(tmp_path):
    with serve(PersistentStore(tmp_path / "store"), workers=2) as handle:
        status, body = http_json(f"{handle.base_url}/healthz")
        assert (status, body) == (200, {"ok": True})

        status, body = http_json(f"{handle.base_url}/v1/ops")
        assert status == 200
        assert set(body["operations"]) == set(OPERATIONS)
        assert body["defaults"] == PARAM_DEFAULTS

        status, cold = http_json(
            f"{handle.base_url}/v1/connectivity", request_body()
        )
        assert status == 200 and cold["warm"] is False
        status, warm = http_json(
            f"{handle.base_url}/v1/connectivity", request_body()
        )
        assert status == 200 and warm["warm"] is True
        assert warm["result"] == cold["result"]

        status, stats = http_json(f"{handle.base_url}/v1/stats")
        assert status == 200
        assert stats["service"]["warm_hits"] == 1

        status, body = http_json(f"{handle.base_url}/nope")
        assert status == 404


def test_http_rejects_bad_json(tmp_path):
    with serve(None, workers=1) as handle:
        request = urllib.request.Request(
            f"{handle.base_url}/v1/mst",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                status, body = resp.status, json.loads(resp.read().decode())
        except urllib.error.HTTPError as error:
            status, body = error.code, json.loads(error.read().decode())
        assert status == 400
        assert body["kind"] == "bad-request"


def test_stats_surface_recovery_counters(tmp_path):
    store = PersistentStore(tmp_path / "store", memory_entries=1)
    service = ShortcutService(store, workers=2)
    try:
        recoveries = service.stats_payload()["recoveries"]
        assert recoveries == {
            "stores_retired": 0, "quarantined": 0, "evictions": 0,
        }
        # Two puts through a one-entry memory layer: one LRU eviction.
        store.put("entry-a", {"x": 1})
        store.put("entry-b", {"x": 2})
        # Corrupt entry-a on disk; the next read must quarantine it.
        store.forget_memory()
        store.path_for("entry-a").write_bytes(b"garbage")
        assert store.get("entry-a") is None
        recoveries = service.stats_payload()["recoveries"]
        assert recoveries["quarantined"] == 1
        assert recoveries["evictions"] >= 1
    finally:
        service.close()


def test_recovery_counters_survive_store_restart(tmp_path):
    store = PersistentStore(tmp_path / "store", memory_entries=1)
    service = ShortcutService(store, workers=2)
    try:
        store.put("entry-a", {"x": 1})
        store.forget_memory()
        store.path_for("entry-a").write_bytes(b"garbage")
        assert store.get("entry-a") is None
        # Restart: a fresh store instance starts its counters at zero,
        # but /v1/stats keeps the lifetime totals.
        service.store = PersistentStore(tmp_path / "store", memory_entries=1)
        payload = service.stats_payload()
        assert payload["store"]["quarantined"] == 0
        assert payload["recoveries"]["stores_retired"] == 1
        assert payload["recoveries"]["quarantined"] == 1
    finally:
        service.close()


def test_http_answers_expect_100_continue_before_the_body(tmp_path):
    import socket

    with serve(None, workers=1) as handle:
        body = json.dumps(request_body()).encode()
        with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/connectivity HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\nExpect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            # The interim response arrives while the body is held back.
            interim = sock.recv(1024)
            assert interim.startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            reply = b""
            while b"\r\n\r\n" not in reply:
                reply += sock.recv(4096)
            assert reply.startswith(b"HTTP/1.1 200")
