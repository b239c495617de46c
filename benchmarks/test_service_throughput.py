"""Daemon throughput: cold vs warm wall-clock and dedup effectiveness.

What the daemon is *for*: the second time a workload arrives, the resident
trace/SMT caches, footprint indexes, and solver contexts should make it
dramatically cheaper — and concurrent identical submissions should
coalesce in the batching layer instead of recomputing.  This benchmark
measures both and records them in ``BENCH_service.json``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time

from repro.service.client import ServiceClient, ServiceError
from repro.service.server import VerificationService

#: A mixed workload: single-block, multi-block, two ISAs.
CASES = ["rbit", "uart", "memcpy_arm", "memcpy_riscv"]


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
    assert ready.wait(30)
    return thread, bound["addr"]


def _round(client, cases, concurrency=4):
    """Submit every case concurrently; returns (wall_s, all_verified)."""
    t0 = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(concurrency) as executor:
        reports = list(
            executor.map(lambda name: client.run(name, timeout=600), cases)
        )
    return time.perf_counter() - t0, all(r["ok"] for r in reports)


def test_service_cold_vs_warm(bench_service_record, tmp_path):
    service = VerificationService(
        cache_dir=str(tmp_path / "cache"),
        pool_jobs=2,
        block_jobs=2,
        runners=2,
    )
    thread, (host, port) = _launch(service)
    client = ServiceClient(host=host, port=port, timeout=600)
    try:
        # Cold: empty cache, but adjacent duplicate submissions exercise
        # the single-flight dedup layer from the very first request.
        workload = [name for name in CASES for _ in range(2)]
        cold_s, cold_ok = _round(client, workload)
        assert cold_ok
        mid = client.metrics()["counters"]

        # Warm: identical resubmission against resident caches.
        warm_s, warm_ok = _round(client, workload)
        assert warm_ok
        counters = client.metrics()["counters"]
        latency = client.metrics()["latency"]
    finally:
        try:
            client.shutdown()
        except (ServiceError, OSError):
            pass
        thread.join(timeout=60)

    trace_requests = counters.get("trace_requests", 0)
    dedup_hits = counters.get("dedup_hits", 0)
    bench_service_record(
        "service_cold_vs_warm",
        cases=CASES,
        submissions_per_round=len(CASES) * 2,
        cold_s=round(cold_s, 3),
        warm_s=round(warm_s, 3),
        warm_speedup=round(cold_s / warm_s, 2) if warm_s > 0 else None,
        trace_requests=trace_requests,
        dedup_hits=dedup_hits,
        dedup_hit_rate=(
            round(dedup_hits / trace_requests, 3) if trace_requests else 0.0
        ),
        cold_dedup_hits=mid.get("dedup_hits", 0),
        batches=counters.get("batches", 0),
        batched_requests=counters.get("batched_requests", 0),
        jobs_completed=counters.get("jobs_completed", 0),
        p50_latency_s=round(latency["p50_s"], 3),
        p99_latency_s=round(latency["p99_s"], 3),
    )
    # The warm round must not be slower than cold by more than noise: the
    # resident caches are the entire point of the daemon.
    assert warm_s <= cold_s * 1.5


#: Every cheap-to-moderate case study once: eight distinct jobs (single-
#: flight dedup makes duplicate submissions useless for a throughput curve).
SCALEOUT_CASES = [
    "rbit", "uart", "hvc", "unaligned",
    "memcpy_arm", "memcpy_riscv", "binsearch_arm", "binsearch_riscv",
]


def _runners_round(runners: int) -> float:
    """Run the eight jobs through one daemon with ``runners`` runner
    threads over a two-process pool; returns the wall seconds from first
    submission to last completion."""
    service = VerificationService(pool_jobs=2, block_jobs=1, runners=runners)
    thread, (host, port) = _launch(service)
    client = ServiceClient(host=host, port=port, timeout=600)
    try:
        t0 = time.perf_counter()
        jobs = [client.submit(name) for name in SCALEOUT_CASES]
        finals = [
            client.wait(job["id"], timeout=600, poll_s=0.02) for job in jobs
        ]
        wall_s = time.perf_counter() - t0
    finally:
        try:
            client.shutdown()
        except (ServiceError, OSError):
            pass
        thread.join(timeout=60)
    assert all(final["state"] == "done" for final in finals)
    return wall_s


def test_runner_scaleout(bench_service_record):
    """The 1→2-runner curve of one daemon on the same two worker processes.

    Both daemons run in this process and share the process-global check
    cache, so the second round runs a little warmer than the first; the
    record says so rather than pretending otherwise.
    """
    walls = {runners: _runners_round(runners) for runners in (1, 2)}
    bench_service_record(
        "runner_scaleout",
        cases=SCALEOUT_CASES,
        jobs=len(SCALEOUT_CASES),
        pool_jobs=2,
        wall_s={str(n): round(w, 3) for n, w in walls.items()},
        speedup_vs_1={
            str(n): round(walls[1] / w, 2) if w > 0 else None
            for n, w in walls.items()
        },
        caveat="in-process daemons share warm caches across rounds",
    )
    # Weak monotonicity only: a second runner must never make the same
    # workload dramatically slower.
    assert walls[2] <= walls[1] * 1.5
