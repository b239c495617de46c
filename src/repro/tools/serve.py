"""CLI: run the persistent verification daemon.

Starts a :class:`repro.service.server.VerificationService` — resident
worker pool, on-disk cache, cross-job trace batcher — and serves the JSON
job API over local TCP (default) or a Unix domain socket.  Pair with
``python -m repro.tools.submit`` or any HTTP client.

SIGINT/SIGTERM drain gracefully: admission closes, queued jobs are
cancelled, in-flight jobs finish their current blocks and report the rest
``unknown``, caches flush, and the process exits 0.

Examples::

    python -m repro.tools.serve --port 8642 --cache-dir .repro-cache --jobs 4
    python -m repro.tools.serve --socket /tmp/repro.sock --runners 2
    python -m repro.tools.serve --deadline 300 --conflicts 500000   # service pool
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.serve", description=__doc__)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 = pick a free one and print it)",
    )
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a Unix domain socket instead of TCP",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="on-disk trace/SMT cache kept warm across jobs",
    )
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes in the resident pool (trace + block workers)",
    )
    parser.add_argument(
        "--block-jobs", type=int, default=2,
        help="per-job block fan-out (payload-level parallelism inside one job)",
    )
    parser.add_argument(
        "--runners", type=int, default=2,
        help="concurrent jobs executed by the daemon",
    )
    parser.add_argument(
        "--max-queue", type=int, default=64,
        help="admission cap on queued jobs",
    )
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="per-job-partition wall-clock budget (service-wide spec)",
    )
    parser.add_argument(
        "--conflicts", type=int, default=None,
        help="service-wide SAT-conflict pool; jobs are rejected once spent",
    )
    parser.add_argument(
        "--batch-window", type=float, default=0.01, metavar="S",
        help="batching collection window in seconds",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress structured JSON logs on stderr",
    )
    args = parser.parse_args(argv)

    from ..resilience import BudgetSpec
    from ..service.server import VerificationService
    from ..service.telemetry import Telemetry, stderr_telemetry

    service_spec = None
    if args.deadline is not None or args.conflicts is not None:
        service_spec = BudgetSpec(
            deadline_s=args.deadline, conflict_allowance=args.conflicts
        )
    service = VerificationService(
        cache_dir=args.cache_dir,
        pool_jobs=args.jobs,
        block_jobs=args.block_jobs,
        runners=args.runners,
        max_queue=args.max_queue,
        service_spec=service_spec,
        batch_window_s=args.batch_window,
        telemetry=Telemetry() if args.quiet else stderr_telemetry(),
    )

    def announce(bound) -> None:
        if isinstance(bound, tuple):
            print(f"listening on http://{bound[0]}:{bound[1]}", flush=True)
        else:
            print(f"listening on unix:{bound}", flush=True)

    async def run() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            # "abort" mode: drain in-flight jobs at block granularity via
            # the cooperative shutdown event — remaining blocks land on the
            # unknown rung, caches flush, partial reports stay fetchable
            # until the loop exits.
            loop.add_signal_handler(
                signum, service.request_stop, "abort"
            )
        await service.serve(
            host=args.host, port=args.port,
            socket_path=args.socket, ready=announce,
        )

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        service.stop(abort=True)
    print("daemon stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
