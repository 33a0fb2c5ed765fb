"""Tests for the client SDK: backoff schedule, retry discipline, keep-alive."""

import socket
import threading
import urllib.error

import pytest

from repro.analysis.instances import InstanceSpec
from repro.service.client import ServiceClient, ServiceError, spec_to_json
from repro.service.server import parse_spec, serve

SPEC = InstanceSpec(
    "grid", (5, 5), weights=("unique", 3), partition=("voronoi", 5, 1)
)


def scripted_client(script, **kwargs):
    """A client whose HTTP layer replays a scripted outcome sequence.

    Script entries: ``("ok", payload)``, ``(status, payload, headers)``,
    or ``("raise", exception)``.  Sleeps are recorded, not taken.
    """
    sleeps = []
    kwargs.setdefault("backoff_base_s", 0.1)
    kwargs.setdefault("jitter_seed", 7)
    client = ServiceClient(
        "http://service.invalid", sleep=sleeps.append, **kwargs
    )
    log = []

    def fake_http(method, path, body=None):
        log.append((method, path))
        entry = script.pop(0)
        if entry[0] == "raise":
            raise entry[1]
        if entry[0] == "ok":
            return 200, {"result": entry[1], "key": "k", "warm": False}, {}
        status, payload, headers = entry
        return status, payload, headers

    client._http = fake_http
    return client, sleeps, log


def test_spec_json_roundtrips_through_server_parser():
    assert parse_spec(spec_to_json(SPEC)) == SPEC
    bare = InstanceSpec("grid", (4, 4))
    assert parse_spec(spec_to_json(bare)) == bare


def test_success_first_try():
    client, sleeps, log = scripted_client([("ok", {"x": 1})])
    result = client.request("mst", SPEC)
    assert result.result == {"x": 1}
    assert result.attempts == 1
    assert sleeps == []
    assert log == [("POST", "/v1/mst")]


def test_retries_on_503_then_succeeds():
    client, sleeps, _log = scripted_client(
        [
            (503, {"error": "full", "kind": "overload"}, {}),
            (503, {"error": "full", "kind": "overload"}, {}),
            ("ok", {"x": 2}),
        ]
    )
    result = client.request("mst", SPEC)
    assert result.result == {"x": 2}
    assert result.attempts == 3
    assert client.retries_used == 2
    assert len(sleeps) == 2


def test_retries_on_transport_error():
    client, sleeps, _log = scripted_client(
        [
            ("raise", urllib.error.URLError("refused")),
            ("ok", {"x": 3}),
        ]
    )
    assert client.request("mst", SPEC).result == {"x": 3}
    assert len(sleeps) == 1


def test_retries_on_504_deadline():
    client, _sleeps, _log = scripted_client(
        [
            (504, {"error": "deadline expired", "kind": "deadline"}, {}),
            ("ok", {"x": 4}),
        ]
    )
    result = client.request("mst", SPEC)
    assert result.result == {"x": 4}


def test_permanent_4xx_fails_immediately():
    client, sleeps, log = scripted_client(
        [(400, {"error": "bad spec", "kind": "bad-request"}, {})]
    )
    with pytest.raises(ServiceError) as info:
        client.request("mst", SPEC)
    assert info.value.status == 400
    assert info.value.kind == "bad-request"
    assert sleeps == []
    assert len(log) == 1


def test_exhausted_retries_raise_last_error():
    script = [(503, {"error": "full", "kind": "overload"}, {})] * 3
    client, sleeps, _log = scripted_client(script, max_retries=2)
    with pytest.raises(ServiceError) as info:
        client.request("mst", SPEC)
    assert info.value.status == 503
    assert info.value.kind == "overload"
    assert len(sleeps) == 2


def test_retry_after_header_overrides_backoff():
    client, sleeps, _log = scripted_client(
        [
            (503, {"error": "full", "kind": "overload"}, {"Retry-After": "0.25"}),
            ("ok", {"x": 5}),
        ]
    )
    client.request("mst", SPEC)
    assert sleeps == [0.25]


def test_backoff_is_capped_exponential_with_jitter():
    client = ServiceClient(
        "http://service.invalid",
        backoff_base_s=0.1,
        backoff_cap_s=0.4,
        jitter_seed=11,
    )
    delays = [client.backoff_delay(attempt) for attempt in range(6)]
    # Jitter keeps every delay within [cap/2, cap] of its exponential.
    for attempt, delay in enumerate(delays):
        capped = min(0.4, 0.1 * 2 ** attempt)
        assert capped / 2 <= delay <= capped
    # The cap binds from attempt 2 on.
    assert all(delay <= 0.4 for delay in delays[2:])
    # Seeded jitter is reproducible.
    twin = ServiceClient(
        "http://service.invalid",
        backoff_base_s=0.1,
        backoff_cap_s=0.4,
        jitter_seed=11,
    )
    assert delays == [twin.backoff_delay(attempt) for attempt in range(6)]


def test_bad_retry_after_falls_back_to_backoff():
    client = ServiceClient("http://service.invalid", jitter_seed=3)
    delay = client.backoff_delay(0, retry_after="soon")
    assert 0 < delay <= client.backoff_base_s


def test_http_date_retry_after_is_honoured():
    import email.utils
    import time as time_module

    client = ServiceClient("http://service.invalid", jitter_seed=5)
    future = email.utils.formatdate(time_module.time() + 120, usegmt=True)
    delay = client.backoff_delay(0, retry_after=future)
    # Formatting truncates to whole seconds; allow that plus test slack.
    assert 115 <= delay <= 120


def test_past_http_date_clamps_to_zero():
    client = ServiceClient("http://service.invalid", jitter_seed=5)
    past = "Wed, 21 Oct 2015 07:28:00 GMT"
    assert client.backoff_delay(0, retry_after=past) == 0.0


def test_unparseable_http_date_falls_back_to_backoff():
    client = ServiceClient("http://service.invalid", jitter_seed=5)
    for header in ("Wed, 99 Oct 2015 07:28:00 GMT", "next tuesday", ""):
        delay = client.backoff_delay(0, retry_after=header)
        assert 0 < delay <= client.backoff_base_s


def test_http_date_retry_after_through_request_path():
    import email.utils
    import time as time_module

    stamp = email.utils.formatdate(time_module.time() + 60, usegmt=True)
    client, sleeps, _log = scripted_client(
        [
            (503, {"error": "full", "kind": "overload"}, {"Retry-After": stamp}),
            ("ok", {"x": 5}),
        ]
    )
    client.request("mst", SPEC)
    assert len(sleeps) == 1
    assert 55 <= sleeps[0] <= 60


# ----------------------------------------------------------------------
# Keep-alive transport, against a real loopback server
# ----------------------------------------------------------------------


@pytest.fixture
def live_server():
    """A running service whose accepted sockets are recorded."""
    handle = serve(None, workers=2)
    accepted = []
    process_request = handle.server.process_request

    def recording(request, client_address):
        accepted.append(request)
        process_request(request, client_address)

    handle.server.process_request = recording
    try:
        yield handle, accepted
    finally:
        handle.close()


def test_sequential_requests_share_one_connection(live_server):
    handle, accepted = live_server
    with ServiceClient(handle.base_url) as client:
        results = [client.request("connectivity", SPEC).result for _ in range(6)]
        assert client.health()
    assert all(result == results[0] for result in results)
    assert len(accepted) == 1


def test_reconnects_after_the_server_closes_the_connection(live_server):
    handle, accepted = live_server
    with ServiceClient(handle.base_url, max_retries=0) as client:
        first = client.request("mst", SPEC)
        handle.server.close_connections(timeout_s=10)
        second = client.request("mst", SPEC)
        assert client.retries_used == 0
    assert second.result == first.result
    assert second.warm is False  # no store: computed again
    assert len(accepted) == 2


def test_threads_sharing_a_client_get_the_serial_results(live_server):
    handle, _accepted = live_server
    specs = [
        InstanceSpec("grid", (4, 4 + i % 3), weights=("unique", i)) for i in range(8)
    ]
    with ServiceClient(handle.base_url) as client:
        serial = [client.request("mst", spec).result for spec in specs]
        shared = [None] * len(specs)

        def fire(index):
            for _ in range(3):
                shared[index] = client.request("mst", specs[index]).result

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    assert shared == serial


def test_close_is_idempotent_and_the_client_stays_usable(live_server):
    handle, accepted = live_server
    client = ServiceClient(handle.base_url)
    client.close()  # nothing open yet
    assert client.health()
    client.close()
    client.close()
    assert client.health()  # reopens
    client.close()
    assert len(accepted) == 2


def test_accepted_socket_disables_nagle(live_server):
    handle, accepted = live_server
    with ServiceClient(handle.base_url) as client:
        assert client.health()
        (server_side,) = accepted
        assert server_side.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        (connection,) = client._connections.values()
        assert connection.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_closing_the_handle_ends_idle_connection_threads():
    with serve(None, workers=1) as handle:
        client = ServiceClient(handle.base_url, max_retries=0)
        assert client.health()
        threads = list(handle.server._connections.values())
        assert len(threads) == 1 and threads[0].is_alive()
    assert not threads[0].is_alive()
    # The server is gone: the stale connection is retried once, then
    # the refused reconnect surfaces as a transport error.
    with pytest.raises(ServiceError) as info:
        client.request("mst", SPEC)
    assert info.value.kind == "transport"
    client.close()


def test_a_request_leaves_in_one_write():
    from repro.service.client import _Connection

    class RecordingSocket:
        def __init__(self):
            self.writes = []

        def sendall(self, data):
            self.writes.append(bytes(data))

    connection = _Connection("service.invalid", 80)
    connection.sock = RecordingSocket()
    connection.request(
        "POST", "/v1/mst", body=b'{"spec": {}}',
        headers={"Content-Type": "application/json"},
    )
    (write,) = connection.sock.writes
    assert write.startswith(b"POST /v1/mst HTTP/1.1\r\n")
    assert write.endswith(b'\r\n\r\n{"spec": {}}')
    connection.sock = None
