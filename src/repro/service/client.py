"""Thin client for the verification daemon.

Speaks the daemon's JSON-over-HTTP protocol over local TCP or a Unix
domain socket using only the standard library.  Every method maps to one
endpoint; :meth:`ServiceClient.run` composes submit + wait into the shape
CLI tools want.

Failure handling is typed and bounded:

- **timeouts** — connections and reads both carry socket timeouts (a hung
  daemon can no longer block a client forever) and surface as
  :class:`ServiceTimeout`, never as a raw ``socket.timeout``;
- **refusals** — connection refused/reset surfaces as
  :class:`ServiceUnavailable` (both are :class:`ServiceError` subclasses,
  so existing ``except ServiceError`` call sites keep working);
- **retries** — ``retries > 0`` retries failed requests with jittered
  exponential backoff.  Reads of non-idempotent requests (a ``POST``
  whose bytes may already have reached the daemon) are *not* retried —
  only connect-phase failures and idempotent ``GET``\\ s are, so a retry
  can never double-submit a job;
- **deadlines** — a per-request ``deadline_s`` bounds the whole attempt
  loop (backoff sleeps included) against one wall clock.

The ``service.conn`` fault-injection site lives here: with an active
:class:`~repro.resilience.faults.FaultInjector` the client can be made to
drop or half-close connections deterministically, which is how the tests
reach every retry path without a real network fault.
"""

from __future__ import annotations

import http.client
import random
import socket
import time

import json

from ..resilience import fault_at


class ServiceError(Exception):
    """A daemon-side refusal or failure, with the HTTP status attached."""

    def __init__(self, status: int, reason: str) -> None:
        self.status = status
        self.reason = reason
        super().__init__(f"[{status}] {reason}")


class ServiceTimeout(ServiceError):
    """A connect or read deadline expired talking to the daemon.

    ``phase`` is ``"connect"`` (no request bytes reached the daemon — safe
    to retry anything) or ``"read"`` (the request may have been received —
    only idempotent requests may retry).
    """

    def __init__(self, reason: str, phase: str = "read") -> None:
        self.phase = phase
        super().__init__(504, reason)


class ServiceUnavailable(ServiceError):
    """The daemon could not be reached (refused, reset, gone)."""

    def __init__(self, reason: str, phase: str = "connect") -> None:
        self.phase = phase
        super().__init__(503, reason)


class _TCPConnection(http.client.HTTPConnection):
    """HTTPConnection with split connect/read timeouts."""

    def __init__(
        self, host: str, port: int, connect_timeout: float | None,
        read_timeout: float | None,
    ) -> None:
        super().__init__(host, port, timeout=connect_timeout)
        self._read_timeout = read_timeout

    def connect(self) -> None:
        super().connect()
        self.sock.settimeout(self._read_timeout)


class _UnixHTTPConnection(http.client.HTTPConnection):
    """http.client over an AF_UNIX socket path."""

    def __init__(
        self, socket_path: str, connect_timeout: float | None = None,
        read_timeout: float | None = None,
    ) -> None:
        super().__init__("localhost", timeout=connect_timeout)
        self._socket_path = socket_path
        self._read_timeout = read_timeout

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._socket_path)
        sock.settimeout(self._read_timeout)
        self.sock = sock


#: Methods whose read-phase failures are safe to retry.
_IDEMPOTENT = frozenset({"GET", "HEAD"})


class ServiceClient:
    """One daemon address; connections are per-request (the daemon closes
    after each response)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        socket_path: str | None = None,
        timeout: float = 600.0,
        connect_timeout: float = 5.0,
        retries: int = 0,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        jitter: float = 0.5,
        retry_seed: int | None = None,
        deadline_s: float | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.jitter = min(1.0, max(0.0, jitter))
        self.deadline_s = deadline_s
        self._rng = random.Random(retry_seed)

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"{self.host}:{self.port}"

    def _connection(self, read_timeout: float) -> http.client.HTTPConnection:
        if self.socket_path is not None:
            return _UnixHTTPConnection(
                self.socket_path,
                connect_timeout=self.connect_timeout,
                read_timeout=read_timeout,
            )
        return _TCPConnection(
            self.host, self.port,
            connect_timeout=self.connect_timeout,
            read_timeout=read_timeout,
        )

    # -- one attempt ----------------------------------------------------------

    def _attempt(self, method: str, path: str, payload: dict | None,
                 read_timeout: float):
        fault = fault_at("service.conn")
        if fault == "drop":
            raise ServiceUnavailable("injected connection drop")
        if fault == "halfclose":
            raise ServiceTimeout("injected half-closed connection")
        conn = self._connection(read_timeout)
        try:
            try:
                conn.connect()
            except socket.timeout as exc:
                raise ServiceTimeout(
                    f"connect to {self.address} timed out", phase="connect"
                ) from exc
            except (ConnectionError, FileNotFoundError, OSError) as exc:
                raise ServiceUnavailable(
                    f"cannot reach {self.address}: {exc}"
                ) from exc
            try:
                body = None
                headers = {}
                if payload is not None:
                    body = json.dumps(payload).encode()
                    headers["Content-Type"] = "application/json"
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except socket.timeout as exc:
                raise ServiceTimeout(
                    f"{method} {path} to {self.address} timed out"
                ) from exc
            except (ConnectionError, OSError) as exc:
                raise ServiceUnavailable(
                    f"connection to {self.address} lost: {exc}", phase="read"
                ) from exc
            content_type = response.getheader("Content-Type", "")
            if "json" in content_type:
                data = json.loads(raw.decode() or "{}")
            else:
                data = raw.decode()
            if response.status >= 400:
                reason = (
                    data.get("error", response.reason)
                    if isinstance(data, dict)
                    else response.reason
                )
                raise ServiceError(response.status, reason)
            return response.status, data
        finally:
            conn.close()

    # -- the retry loop -------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        delay = min(self.backoff_cap_s, self.backoff_s * (2 ** attempt))
        return delay * (1.0 - self.jitter * self._rng.random())

    def _request(self, method: str, path: str, payload: dict | None = None,
                 deadline_s: float | None = None):
        budget = deadline_s if deadline_s is not None else self.deadline_s
        deadline = None if budget is None else time.monotonic() + budget
        attempt = 0
        while True:
            read_timeout = self.timeout
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceTimeout(
                        f"deadline exhausted before {method} {path}",
                        phase="connect",
                    )
                read_timeout = min(read_timeout, remaining)
            try:
                return self._attempt(method, path, payload, read_timeout)
            except (ServiceTimeout, ServiceUnavailable) as exc:
                retryable = exc.phase == "connect" or method in _IDEMPOTENT
                if not retryable or attempt >= self.retries:
                    raise
                delay = self._backoff(attempt)
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= delay:
                        raise
                time.sleep(delay)
                attempt += 1

    # -- endpoints -----------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")[1]

    def submit(
        self,
        case: str,
        kwargs: dict | None = None,
        priority: str = "batch",
        deadline_s: float | None = None,
        conflicts: int | None = None,
    ) -> dict:
        payload: dict = {"case": case, "priority": priority}
        if kwargs:
            payload["kwargs"] = kwargs
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        if conflicts is not None:
            payload["conflicts"] = conflicts
        return self._request("POST", "/jobs", payload)[1]

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")[1]["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")[1]

    def report(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}/report")[1]

    def events(self, job_id: str, since: int = 0, wait_s: float = 0.0) -> dict:
        return self._request(
            "GET", f"/jobs/{job_id}/events?since={since}&wait={wait_s}"
        )[1]

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")[1]

    def metrics(self) -> dict:
        return self._request("GET", "/metrics.json")[1]

    def metrics_text(self) -> str:
        return self._request("GET", "/metrics")[1]

    def shutdown(self, mode: str = "drain") -> dict:
        return self._request("POST", "/shutdown", {"mode": mode})[1]

    # -- composed flows -------------------------------------------------------

    def wait(
        self,
        job_id: str,
        timeout: float | None = None,
        poll_s: float = 0.1,
        on_event=None,
    ) -> dict:
        """Block until the job is terminal; returns the final job summary.

        ``on_event`` (if given) is called with each
        :class:`~repro.service.protocol.JobEvent` JSON dict as it arrives.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        seq = 0
        while True:
            batch = self.events(job_id, since=seq, wait_s=min(5.0, poll_s * 50))
            for event in batch["events"]:
                seq = event["seq"] + 1
                if on_event is not None:
                    on_event(event)
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {status['state']}")
            time.sleep(poll_s)

    def run(
        self,
        case: str,
        kwargs: dict | None = None,
        priority: str = "batch",
        timeout: float | None = None,
        on_event=None,
    ) -> dict:
        """Submit a case, wait for it, and return the full report.

        Raises :class:`ServiceError` if the job failed or was cancelled.
        """
        job = self.submit(case, kwargs=kwargs, priority=priority)
        final = self.wait(job["id"], timeout=timeout, on_event=on_event)
        if final["state"] != "done":
            raise ServiceError(
                409, final.get("error") or f"job ended {final['state']}"
            )
        return self.report(job["id"])

