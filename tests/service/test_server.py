"""End-to-end daemon tests: HTTP API, job lifecycle, byte-identity.

The daemon runs in a background thread on an ephemeral port with a serial
in-process worker pool (``pool_jobs=1``) — same results as worker
processes, much cheaper to spin up under pytest.
"""

from __future__ import annotations

import asyncio
import functools
import threading

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.server import VerificationService


def _launch(service):
    bound = {}
    ready = threading.Event()

    def on_ready(addr):
        bound["addr"] = addr
        ready.set()

    thread = threading.Thread(
        target=lambda: asyncio.run(service.serve(port=0, ready=on_ready)),
        daemon=True,
    )
    thread.start()
    assert ready.wait(30), "daemon never bound its socket"
    return thread, bound["addr"]


@pytest.fixture(scope="module")
def daemon():
    service = VerificationService(pool_jobs=1, block_jobs=1, runners=2)
    thread, (host, port) = _launch(service)
    client = ServiceClient(host=host, port=port, timeout=300)
    yield service, client
    try:
        client.shutdown()
    except (ServiceError, OSError):
        pass
    thread.join(timeout=60)


@functools.lru_cache(maxsize=None)
def _serial_run(case_name: str) -> tuple[str, list[str]]:
    """The certificate and block addresses of a serial, cache-free run."""
    from repro import casestudies
    from repro.logic.automation import verify_program
    from repro.parallel.config import configured
    from repro.parallel.scheduler import pc_for

    module = getattr(casestudies, case_name)
    with configured(jobs=1):
        case = module.build()
    report = verify_program(case.frontend.traces, case.specs, pc_for(module))
    return report.proof.to_json(), [f"0x{a:x}" for a in sorted(report.blocks)]


class TestLifecycle:
    def test_healthz(self, daemon):
        _service, client = daemon
        health = client.healthz()
        assert health["ok"] is True
        assert health["uptime_s"] >= 0

    @pytest.mark.parametrize(
        "case", ["rbit", "uart", "unaligned", "memcpy_ppc", "sign_ppc"]
    )
    def test_run_is_byte_identical_to_serial_cli(self, daemon, case):
        _service, client = daemon
        report = client.run(case, timeout=300)
        certificate, blocks = _serial_run(case)
        assert report["ok"] is True
        assert report["outcome"] == "verified"
        assert report["certificate"] == certificate
        assert report["checker"]
        assert list(report["blocks"]) == blocks

    def test_events_tell_the_whole_story(self, daemon):
        _service, client = daemon
        job = client.submit("rbit")
        client.wait(job["id"], timeout=300)
        events = client.events(job["id"])["events"]
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "queued"
        assert "started" in kinds
        assert "block-done" in kinds
        assert kinds[-1] == "done"
        block_events = [e for e in events if e["kind"] == "block-done"]
        assert block_events[0]["data"] == {
            "addr": "0x400000", "outcome": "verified",
        }

    def test_concurrent_submissions_agree(self, daemon):
        _service, client = daemon
        jobs = [client.submit("rbit") for _ in range(2)]
        reports = []
        for job in jobs:
            client.wait(job["id"], timeout=300)
            reports.append(client.report(job["id"]))
        assert reports[0]["certificate"] == reports[1]["certificate"]
        assert all(r["ok"] for r in reports)

    def test_job_listing_and_status(self, daemon):
        _service, client = daemon
        listed = {j["id"] for j in client.jobs()}
        assert listed  # earlier tests populated the table
        some_id = next(iter(listed))
        status = client.status(some_id)
        assert status["id"] == some_id
        assert status["state"] in ("queued", "running", "done", "failed", "cancelled")


class TestErrors:
    def test_unknown_case_is_404(self, daemon):
        _service, client = daemon
        with pytest.raises(ServiceError) as excinfo:
            client.submit("not_a_case")
        assert excinfo.value.status == 404

    def test_bad_priority_is_400(self, daemon):
        _service, client = daemon
        with pytest.raises(ServiceError) as excinfo:
            client.submit("rbit", priority="urgent")
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, daemon):
        _service, client = daemon
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404

    def test_report_of_done_job_only(self, daemon):
        _service, client = daemon
        report = client.run("rbit", timeout=300)
        assert report["outcome"] == "verified"

    def test_cancel_done_job_is_a_noop(self, daemon):
        _service, client = daemon
        job = client.submit("rbit")
        client.wait(job["id"], timeout=300)
        result = client.cancel(job["id"])
        assert result["cancelled"] is False
        assert result["state"] == "done"

    def test_unroutable_path_is_404(self, daemon):
        _service, client = daemon
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/no/such/route")
        assert excinfo.value.status == 404


class TestTelemetryEndpoints:
    def test_metrics_json(self, daemon):
        _service, client = daemon
        snap = client.metrics()
        assert snap["counters"]["jobs_submitted"] >= 1
        assert snap["counters"]["jobs_completed"] >= 1
        assert snap["counters"]["trace_requests"] >= 1
        assert snap["latency"]["count"] >= 1

    def test_metrics_prometheus(self, daemon):
        _service, client = daemon
        text = client.metrics_text()
        assert "repro_service_jobs_submitted_total" in text
        assert "repro_service_job_latency_seconds" in text

    def test_metrics_surface_isaspec_counters(self, daemon):
        # The daemon thread shares this process, so an in-process validator
        # run must show up on the next /metrics render.
        from repro.analysis.isaspec import validate_arch

        _service, client = daemon
        assert validate_arch("riscv") == []
        snap = client.metrics()
        assert snap["gauges"]["isaspec_specs_validated"] >= 1
        assert snap["gauges"]["isaspec_solver_checks"] >= 1
        assert "repro_service_isaspec_specs_validated" in client.metrics_text()

    def test_disk_gauges_include_wellformed_rejects(self, tmp_path):
        # The full CacheStats snapshot is surfaced, not just the hit
        # counters — ill-formed-entry evictions are visible in /metrics.
        service = VerificationService(
            cache_dir=str(tmp_path), pool_jobs=1, runners=1
        )
        try:
            service.refresh_gauges()
            gauges = service.telemetry.snapshot()["gauges"]
            assert gauges["disk_wellformed_rejects"] == 0
            assert gauges["disk_corrupt_entries"] == 0
            assert "disk_trace_hits" in gauges
            assert "disk_smt_hits" in gauges
        finally:
            service.batcher.close()
            service.pool.close()


class TestTransportsAndShutdown:
    def test_unix_socket_transport(self, tmp_path):
        service = VerificationService(pool_jobs=1, runners=1)
        socket_path = str(tmp_path / "repro.sock")
        bound = {}
        ready = threading.Event()

        def on_ready(addr):
            bound["addr"] = addr
            ready.set()

        thread = threading.Thread(
            target=lambda: asyncio.run(
                service.serve(socket_path=socket_path, ready=on_ready)
            ),
            daemon=True,
        )
        thread.start()
        assert ready.wait(30)
        client = ServiceClient(socket_path=socket_path)
        assert client.healthz()["ok"] is True
        client.shutdown()
        thread.join(timeout=60)
        assert not thread.is_alive()

    def test_shutdown_drains_and_stops(self, tmp_path):
        service = VerificationService(pool_jobs=1, runners=1)
        thread, (host, port) = _launch(service)
        client = ServiceClient(host=host, port=port)
        assert client.shutdown()["draining"] is True
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert service.queue.closed
        assert not service._started
