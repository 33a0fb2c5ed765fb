"""Client SDK for the shortcut service.

A thin, dependency-free (``http.client``) client with the retry
discipline a production caller needs:

* **keep-alive connections** — each calling thread keeps one
  HTTP/1.1 connection to the service (with ``TCP_NODELAY`` set), so a
  warm request costs one round trip instead of a TCP handshake plus a
  fresh server thread.  A connection the server closed while it sat
  idle is reopened once, transparently; :meth:`ServiceClient.close`
  (or leaving a ``with ServiceClient(...)`` block) closes them all;
* **timeouts** on every HTTP call (``timeout_s``, default 30);
* **capped exponential backoff with jitter** on idempotent retries:
  attempt ``i`` sleeps ``min(cap, base * 2**i) * uniform(0.5, 1.0)``;
  a ``Retry-After`` header (sent with ``503`` load-shedding) overrides
  the computed delay — both RFC 7231 forms, delta-seconds and
  HTTP-date, are honoured, and an unparseable header falls back to
  the computed backoff;
* retries fire only on *transient* outcomes — transport errors
  (connection refused or reset, timeouts, malformed HTTP),
  ``503`` (shed) and ``504`` (deadline expired; the server keeps
  computing, so the retry usually lands warm).  ``4xx`` responses are
  permanent and surface immediately.  Every service operation is a
  deterministic pure computation, so POST retries are idempotent by
  construction.

The jitter stream is seeded (``jitter_seed``) so tests and the chaos
harness get reproducible schedules; pass ``None`` for entropy in real
deployments.
"""

from __future__ import annotations

import datetime
import email.utils
import http.client
import json
import random
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.instances import InstanceSpec
from repro.errors import ReproError

DEFAULT_TIMEOUT_S = 30.0
DEFAULT_MAX_RETRIES = 4
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_CAP_S = 2.0

RETRYABLE_STATUS = (503, 504)

# Everything a failed exchange can raise; all are transport errors
# (``urllib.error.URLError`` and ``TimeoutError`` are ``OSError``s).
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

# What a reused keep-alive connection raises when the server closed it
# while it sat idle; the exchange is retried once on a fresh one.
STALE_ERRORS = (ConnectionError, http.client.HTTPException)


class ServiceError(ReproError):
    """A request that conclusively failed (after any retries).

    ``status`` is the HTTP status (``None`` for transport errors) and
    ``kind`` the server's error kind (``"overload"``, ``"deadline"``,
    ``"bad-request"``, ``"unprocessable"``, ``"internal"``,
    ``"transport"``).
    """

    def __init__(
        self, message: str, *, status: Optional[int] = None, kind: str = "transport"
    ) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind


def spec_to_json(spec: InstanceSpec) -> Dict:
    """The JSON form of a spec (inverse of ``server.parse_spec``)."""
    payload: Dict = {"family": spec.family, "params": list(spec.params)}
    if spec.weights is not None:
        payload["weights"] = list(spec.weights)
    if spec.partition is not None:
        payload["partition"] = list(spec.partition)
    if spec.tree_root != 0:
        payload["tree_root"] = spec.tree_root
    return payload


@dataclass
class ClientResult:
    """One successful response."""

    result: Dict
    key: str
    warm: bool
    attempts: int


class _Connection(http.client.HTTPConnection):
    """A keep-alive connection that sends each request as one segment.

    ``http.client`` writes a request's headers and its body with two
    ``send`` calls.  With Nagle's algorithm on, the body would wait for
    the server's delayed ACK; with it off, the server wakes on the
    headers and then blocks again for the body.  :meth:`request` holds
    the writes back and sends them together, and Nagle stays off.
    """

    _held: Optional[list] = None

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method, url, body=None, headers={}, **kwargs) -> None:
        self._held = []
        try:
            super().request(method, url, body=body, headers=headers, **kwargs)
            data = b"".join(self._held)
        finally:
            self._held = None
        super().send(data)

    def send(self, data) -> None:
        if self._held is None:
            super().send(data)
        else:
            self._held.append(bytes(data))


class ServiceClient:
    """HTTP client with keep-alive, timeouts, and capped, jittered backoff.

    Safe to share between threads: each thread gets its own connection.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
        jitter_seed: Optional[int] = 0,
        sleep=time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"expected an http://host[:port] URL, got {base_url!r}")
        self._address = (parts.hostname, parts.port)
        self._prefix = parts.path
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = random.Random(jitter_seed)
        self._sleep = sleep
        self.retries_used = 0
        # One keep-alive connection per calling thread, by thread id.
        self._connections: Dict[int, _Connection] = {}
        self._connections_lock = threading.Lock()

    # -- transport ------------------------------------------------------

    def _connection(self) -> Tuple[_Connection, bool]:
        """This thread's connection, and whether it was just opened."""
        ident = threading.get_ident()
        with self._connections_lock:
            connection = self._connections.get(ident)
            if connection is not None:
                return connection, False
            host, port = self._address
            connection = _Connection(host, port, timeout=self.timeout_s)
            self._connections[ident] = connection
            return connection, True

    def _drop(self, connection: _Connection) -> None:
        """Forget and close this thread's connection."""
        ident = threading.get_ident()
        with self._connections_lock:
            if self._connections.get(ident) is connection:
                del self._connections[ident]
        connection.close()

    def _http(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> tuple[int, Dict, Dict[str, str]]:
        """One HTTP exchange -> (status, json body, headers).

        Raises one of :data:`TRANSPORT_ERRORS` when no response arrives.
        """
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        while True:
            connection, fresh = self._connection()
            try:
                connection.request(
                    method, f"{self._prefix}{path}", body=data, headers=headers
                )
                response = connection.getresponse()
                raw = response.read()
            except TRANSPORT_ERRORS as error:
                self._drop(connection)
                if fresh or not isinstance(error, STALE_ERRORS):
                    raise
                continue  # the server closed an idle connection: reopen once
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                if response.status == 200:
                    raise http.client.HTTPException("response body is not JSON")
                payload = {"error": f"HTTP {response.status}", "kind": "transport"}
            return response.status, payload, dict(response.headers)

    def close(self) -> None:
        """Close every keep-alive connection; idempotent.

        The client stays usable: a later request opens a new connection.
        """
        with self._connections_lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def backoff_delay(self, attempt: int, retry_after: Optional[str] = None) -> float:
        """The sleep before retry ``attempt`` (0-based).

        ``Retry-After`` accepts both RFC 7231 forms: delta-seconds
        (``"120"``) and an HTTP-date (``"Wed, 21 Oct 2015 07:28:00
        GMT"``).  A date in the past clamps to zero; an unparseable
        header falls back to the computed backoff.
        """
        if retry_after is not None:
            try:
                return max(0.0, float(retry_after))
            except ValueError:
                pass
            try:
                when = email.utils.parsedate_to_datetime(retry_after)
            except (TypeError, ValueError):
                when = None
            if when is not None:
                if when.tzinfo is None:
                    when = when.replace(tzinfo=datetime.timezone.utc)
                now = datetime.datetime.now(datetime.timezone.utc)
                return max(0.0, (when - now).total_seconds())
        capped = min(self.backoff_cap_s, self.backoff_base_s * (2 ** attempt))
        return capped * (0.5 + 0.5 * self._rng.random())

    # -- API ------------------------------------------------------------

    def request(
        self,
        op: str,
        spec: InstanceSpec,
        *,
        deadline_s: Optional[float] = None,
        **params,
    ) -> ClientResult:
        """Run one operation, retrying transient failures.

        Raises :class:`ServiceError` after exhausting retries or on any
        permanent (4xx) failure.
        """
        body: Dict = {"spec": spec_to_json(spec), **params}
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        last_error: Optional[ServiceError] = None
        for attempt in range(self.max_retries + 1):
            try:
                status, payload, headers = self._http("POST", f"/v1/{op}", body)
            except TRANSPORT_ERRORS as error:
                last_error = ServiceError(
                    f"transport error calling {op}: {error}", kind="transport"
                )
                delay = self.backoff_delay(attempt)
            else:
                if status == 200:
                    return ClientResult(
                        result=payload["result"],
                        key=payload.get("key", ""),
                        warm=bool(payload.get("warm", False)),
                        attempts=attempt + 1,
                    )
                kind = payload.get("kind", "transport")
                message = payload.get("error", f"HTTP {status}")
                if status not in RETRYABLE_STATUS:
                    raise ServiceError(message, status=status, kind=kind)
                last_error = ServiceError(message, status=status, kind=kind)
                delay = self.backoff_delay(attempt, headers.get("Retry-After"))
            if attempt < self.max_retries:
                self.retries_used += 1
                self._sleep(delay)
        assert last_error is not None
        raise last_error

    def health(self) -> bool:
        try:
            status, payload, _headers = self._http("GET", "/healthz")
        except TRANSPORT_ERRORS:
            return False
        return status == 200 and bool(payload.get("ok"))

    def stats(self) -> Dict:
        status, payload, _headers = self._http("GET", "/v1/stats")
        if status != 200:
            raise ServiceError(
                f"stats endpoint returned {status}", status=status, kind="internal"
            )
        return payload

    def operations(self) -> Dict:
        status, payload, _headers = self._http("GET", "/v1/ops")
        if status != 200:
            raise ServiceError(
                f"ops endpoint returned {status}", status=status, kind="internal"
            )
        return payload
