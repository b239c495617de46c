"""The verification daemon: an asyncio front end over resident state.

The service owns exactly one of each warm resource — a
:class:`~repro.parallel.scheduler.WorkerPool`, an optional
:class:`~repro.cache.DiskCache` (installed process-wide as the solver's
persistent check store, as ``tools/verify`` does per run), and a
:class:`~repro.service.batcher.TraceBatcher` — and any number of
:class:`~repro.service.runner.JobRunner` threads executing jobs against
them.  The asyncio layer is deliberately thin: parse a request, touch the
(thread-safe) job table/queue, serialise JSON.  All heavy work happens in
runner threads and worker processes; the event loop never blocks on a
solver.

HTTP surface (all JSON unless noted)::

    GET  /healthz                 liveness + uptime
    POST /jobs                    submit {case, kwargs?, priority?,
                                          deadline_s?, conflicts?} -> 202
    GET  /jobs                    job summaries
    GET  /jobs/<id>               one summary
    GET  /jobs/<id>/report        full result incl. certificate (409 if
                                  not finished)
    GET  /jobs/<id>/events        ?since=N&wait=S  long-poll progress
    GET  /jobs/<id>/stream        NDJSON event stream until terminal
    POST /jobs/<id>/cancel        cancel queued (flag running) jobs
    GET  /metrics                 Prometheus text exposition
    GET  /metrics.json            raw telemetry snapshot
    POST /shutdown                graceful drain; {"mode": "abort"} also
                                  drains in-flight blocks to ``unknown``

Transport: local TCP (default loopback) or a Unix domain socket.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.parse

from .protocol import JobRecord, SubmitRequest
from .queue import AdmissionError, JobQueue
from .telemetry import Telemetry


class VerificationService:
    """Resident daemon state + its asyncio HTTP front end."""

    def __init__(
        self,
        cache_dir: str | None = None,
        pool_jobs: int = 2,
        block_jobs: int = 2,
        runners: int = 2,
        max_queue: int = 64,
        service_spec=None,
        batch_window_s: float = 0.01,
        telemetry: Telemetry | None = None,
    ) -> None:
        from ..cache import DiskCache
        from ..parallel.scheduler import WorkerPool
        from .batcher import TraceBatcher
        from .runner import JobRunner

        self.telemetry = telemetry or Telemetry()
        self.cache = DiskCache(cache_dir) if cache_dir else None
        self.pool = WorkerPool(pool_jobs)
        self.batcher = TraceBatcher(
            pool=self.pool,
            cache=self.cache,
            window_s=batch_window_s,
            telemetry=self.telemetry,
        )
        self.block_jobs = block_jobs
        self.queue = JobQueue(
            max_depth=max_queue, service_spec=service_spec, shares=max(1, runners)
        )
        self.jobs: dict[str, JobRecord] = {}
        self._jobs_lock = threading.Lock()
        self._runners = [
            JobRunner(self, name=f"runner-{i}") for i in range(max(1, runners))
        ]
        self._started = False
        self._previous_store = None
        self._shutdown_event: asyncio.Event | None = None
        self._shutdown_mode = "drain"
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        from ..smt.solver import install_persistent_check_store

        # Workers fork before any runner thread exists (see WorkerPool).
        self.pool.start()
        self._previous_store = install_persistent_check_store(self.cache)
        for runner in self._runners:
            runner.start()
        self._started = True
        self.telemetry.log(
            "service-started",
            runners=len(self._runners),
            pool_jobs=self.pool.jobs,
            cache=str(self.cache.root) if self.cache else None,
        )

    def stop(self, abort: bool = False) -> None:
        """Drain and release everything.

        ``abort=False`` (the default) finishes running jobs completely;
        ``abort=True`` additionally requests the cooperative shutdown
        event, so in-flight jobs finish only their current blocks and
        report the rest ``unknown`` — the SIGTERM path.
        """
        if not self._started:
            return
        from ..resilience import request_shutdown, reset_shutdown
        from ..smt.solver import install_persistent_check_store

        self.queue.drain()
        if abort:
            request_shutdown()
        for runner in self._runners:
            runner.stop()
        for runner in self._runners:
            runner.join(timeout=60)
        self.batcher.close()
        self.pool.close()
        if self.cache is not None:
            self.cache.flush()
        install_persistent_check_store(self._previous_store)
        if abort:
            reset_shutdown()
        self._started = False
        self.telemetry.log("service-stopped", abort=abort)

    # -- job table -------------------------------------------------------------

    def submit(self, request: SubmitRequest) -> JobRecord:
        from .. import casestudies

        if request.case.startswith("cosim:"):
            from ..cosim.archs import COSIM_ARCHS

            arch_name = request.case.split(":", 1)[1]
            if arch_name not in COSIM_ARCHS:
                raise AdmissionError(f"unknown case study {request.case!r}")
        elif getattr(casestudies, request.case, None) is None or (
            request.case not in casestudies.__all__
        ):
            raise AdmissionError(f"unknown case study {request.case!r}")
        job = JobRecord(request)
        with self._jobs_lock:
            self.jobs[job.id] = job
        try:
            self.queue.submit(job)
        except AdmissionError:
            with self._jobs_lock:
                del self.jobs[job.id]
            self.telemetry.inc("jobs_rejected")
            raise
        self.telemetry.inc("jobs_submitted")
        self.telemetry.gauge("queue_depth", self.queue.depth)
        self.telemetry.log(
            "job-submitted",
            job=job.id,
            case=request.case,
            priority=request.priority,
        )
        return job

    def job(self, job_id: str) -> JobRecord | None:
        with self._jobs_lock:
            return self.jobs.get(job_id)

    def job_snapshots(self) -> list[dict]:
        with self._jobs_lock:
            records = list(self.jobs.values())
        return [record.snapshot() for record in records]

    # -- asyncio front end -----------------------------------------------------

    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | None = None,
        ready=None,
    ) -> None:
        """Run the HTTP front end until :meth:`request_stop` fires.

        ``ready`` is an optional callback invoked with the bound address
        (``(host, port)`` tuple or the socket path) once listening.
        """
        self.start()
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        if socket_path is not None:
            server = await asyncio.start_unix_server(self._handle, path=socket_path)
            bound: object = socket_path
        else:
            server = await asyncio.start_server(self._handle, host=host, port=port)
            bound = server.sockets[0].getsockname()[:2]
        self.bound = bound
        if ready is not None:
            ready(bound)
        self.telemetry.log("service-listening", address=str(bound))
        async with server:
            await self._shutdown_event.wait()
            server.close()
            await server.wait_closed()
        await asyncio.to_thread(self.stop, self._shutdown_mode == "abort")

    def request_stop(self, mode: str = "drain") -> None:
        """Trigger the serve() loop to exit (thread/signal-handler safe).

        ``mode`` is ``"drain"`` (finish everything) or ``"abort"`` (finish
        current blocks only).
        """
        self._shutdown_mode = mode
        if self._shutdown_event is None:
            return
        # An asyncio.Event set from a foreign thread does not wake the
        # selector; without the threadsafe hop the serve loop only notices
        # on its next unrelated I/O, which may never come on an idle
        # daemon.  Fall back to a direct set when called from the loop itself
        # (the /shutdown route) or after the loop is gone.
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._shutdown_event.set)
                return
            except RuntimeError:
                pass
        self._shutdown_event.set()

    def refresh_gauges(self) -> None:
        """Re-derive observability gauges from resident state.

        Called on every /metrics render so static-analysis rejections are
        visible even between jobs: the full :class:`CacheStats` snapshot
        (including ``wellformed_rejects`` and ``corrupt_entries`` — the
        ill-formed-entry evictions) becomes ``disk_*`` gauges, and the
        process-global ISA-spec validator counters become ``isaspec_*``.
        """
        from ..analysis.isaspec import isaspec_stats

        if self.cache is not None:
            for key, value in self.cache.stats.snapshot().items():
                self.telemetry.gauge(f"disk_{key}", value)
        for key, value in isaspec_stats().items():
            self.telemetry.gauge(f"isaspec_{key}", value)

    # -- request plumbing ------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            try:
                method, target, _version = (
                    request_line.decode("latin-1").strip().split(" ", 2)
                )
            except ValueError:
                await self._respond(writer, 400, {"error": "bad request line"})
                return
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = b""
            length = int(headers.get("content-length", 0) or 0)
            if length:
                body = await reader.readexactly(length)
            parsed = urllib.parse.urlsplit(target)
            query = dict(urllib.parse.parse_qsl(parsed.query))
            await self._route(writer, method, parsed.path, query, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self, writer, status: int, payload, content_type: str = "application/json"
    ) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   404: "Not Found", 405: "Method Not Allowed",
                   409: "Conflict", 429: "Too Many Requests",
                   500: "Internal Server Error"}
        if content_type == "application/json":
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        else:
            body = payload if isinstance(payload, bytes) else payload.encode()
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()

    async def _route(self, writer, method, path, query, body) -> None:
        parts = [p for p in path.split("/") if p]
        try:
            if method == "GET" and parts == ["healthz"]:
                with self._jobs_lock:
                    inflight = sum(
                        1 for j in self.jobs.values() if j.state == "running"
                    )
                await self._respond(
                    writer, 200,
                    {"ok": True, "uptime_s": self.telemetry.snapshot()["uptime_s"],
                     "queue_depth": self.queue.depth,
                     "inflight": inflight},
                )
            elif method == "POST" and parts == ["jobs"]:
                await self._submit(writer, body)
            elif method == "GET" and parts == ["jobs"]:
                await self._respond(writer, 200, {"jobs": self.job_snapshots()})
            elif len(parts) >= 2 and parts[0] == "jobs":
                await self._job_route(writer, method, parts[1], parts[2:], query)
            elif method == "GET" and parts == ["metrics"]:
                self.refresh_gauges()
                await self._respond(
                    writer, 200, self.telemetry.render_prometheus(),
                    content_type="text/plain; version=0.0.4",
                )
            elif method == "GET" and parts == ["metrics.json"]:
                self.refresh_gauges()
                await self._respond(writer, 200, self.telemetry.snapshot())
            elif method == "POST" and parts == ["shutdown"]:
                mode = "drain"
                if body:
                    try:
                        mode = json.loads(body.decode() or "{}").get("mode", "drain")
                    except json.JSONDecodeError:
                        mode = "drain"
                await self._respond(writer, 200, {"draining": True, "mode": mode})
                self.request_stop(mode)
            else:
                await self._respond(writer, 404, {"error": f"no route {path}"})
        except Exception as exc:  # noqa: BLE001 — a handler bug must not kill the loop
            self.telemetry.inc("http_errors")
            self.telemetry.log("http-error", path=path, error=str(exc))
            try:
                await self._respond(writer, 500, {"error": str(exc)})
            except (ConnectionError, OSError):
                pass

    async def _submit(self, writer, body: bytes) -> None:
        try:
            request = SubmitRequest.from_json(json.loads(body.decode() or "{}"))
        except (ValueError, json.JSONDecodeError) as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        try:
            job = self.submit(request)
        except AdmissionError as exc:
            status = 404 if "unknown case" in exc.reason else 429
            await self._respond(writer, status, {"error": exc.reason})
            return
        await self._respond(writer, 202, job.snapshot())

    async def _job_route(self, writer, method, job_id, rest, query) -> None:
        job = self.job(job_id)
        if job is None:
            await self._respond(writer, 404, {"error": f"no job {job_id}"})
            return
        if method == "GET" and not rest:
            await self._respond(writer, 200, job.snapshot())
        elif method == "GET" and rest == ["report"]:
            if job.state == "done":
                await self._respond(writer, 200, job.result)
            elif job.terminal:
                await self._respond(
                    writer, 409, {"error": job.error or job.state,
                                  "state": job.state},
                )
            else:
                await self._respond(
                    writer, 409, {"error": "not finished", "state": job.state}
                )
        elif method == "GET" and rest == ["events"]:
            since = int(query.get("since", 0) or 0)
            wait_s = min(30.0, float(query.get("wait", 0) or 0))
            deadline = asyncio.get_event_loop().time() + wait_s
            events = job.events_since(since)
            while not events and not job.terminal:
                if asyncio.get_event_loop().time() >= deadline:
                    break
                await asyncio.sleep(0.05)
                events = job.events_since(since)
            await self._respond(
                writer, 200,
                {"state": job.state,
                 "events": [e.to_json() for e in events]},
            )
        elif method == "GET" and rest == ["stream"]:
            await self._stream(writer, job)
        elif method == "POST" and rest == ["cancel"]:
            was_queued = self.queue.cancel(job)
            if was_queued:
                self.telemetry.inc("jobs_cancelled")
            await self._respond(
                writer, 200,
                {"cancelled": was_queued, "state": job.state,
                 "note": None if was_queued
                 else "running jobs drain; queued jobs cancel immediately"},
            )
        else:
            await self._respond(writer, 405, {"error": "unsupported"})

    async def _stream(self, writer, job: JobRecord) -> None:
        """NDJSON per-block progress until the job is terminal."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        seq = 0
        while True:
            for event in job.events_since(seq):
                seq = event.seq + 1
                writer.write((json.dumps(event.to_json(), sort_keys=True) + "\n").encode())
            await writer.drain()
            if job.terminal and seq >= job.num_events:
                return
            await asyncio.sleep(0.05)
