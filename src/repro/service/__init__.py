"""``repro.service`` — the persistent verification daemon.

Every capability of the pipeline (governed verification, parallel block
workers, the on-disk trace/SMT cache, incremental solver contexts) is
reachable through one-shot CLI runs, but each invocation pays cold-start
for the state the previous run just warmed.  This package keeps that state
resident and serves verification over a local socket:

- :mod:`~repro.service.protocol` — the JSON job model (requests, states,
  events, results) shared by server and client;
- :mod:`~repro.service.queue` — a priority job queue with admission
  control backed by :mod:`repro.resilience` budgets;
- :mod:`~repro.service.batcher` — the cross-job dedup/batching layer:
  identical (model, opcode, assumptions) trace requests — and
  footprint-compatible ones — coalesce onto one in-flight computation
  before dispatch to the resident worker pool;
- :mod:`~repro.service.runner` — job execution against the resident pool,
  with per-job budget partitions absorbed back on completion;
- :mod:`~repro.service.telemetry` — service counters (queue depth, batch
  sizes, dedup hits, latency percentiles) merged with the solver/cache/
  executor statistics, exported via ``/metrics`` and structured JSON logs;
- :mod:`~repro.service.server` — the asyncio front end (submit, status,
  per-block event streams, reports, metrics, graceful drain);
- :mod:`~repro.service.client` — a thin stdlib-only client library used
  by ``tools/submit``, with socket timeouts, jittered-backoff retries,
  and per-request deadlines.

One daemon is the only service tier.  A daemon crash loses its queued
and running jobs; nothing replays them.  A client submits them again once
the daemon is back (``tools/submit --retries`` rides out the restart),
and the content-addressed disk cache makes the re-run warm.

The service guarantee: results are byte-identical to ``tools/verify`` —
same certificates, same outcome lattice, same fail-safe degradation when
budgets exhaust.  The daemon only changes *when* work happens (batched,
deduplicated, against warm state), never *what* is computed.
"""

from .batcher import TraceBatcher
from .client import (
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    ServiceUnavailable,
)
from .protocol import (
    CANCELLED,
    DONE,
    FAILED_STATE,
    JOB_STATES,
    PRIORITIES,
    QUEUED,
    RUNNING,
    JobEvent,
    JobRecord,
    SubmitRequest,
)
from .queue import AdmissionError, JobQueue
from .server import VerificationService
from .telemetry import Telemetry

__all__ = [
    "AdmissionError", "CANCELLED", "DONE", "FAILED_STATE", "JOB_STATES",
    "JobEvent", "JobQueue", "JobRecord", "PRIORITIES", "QUEUED", "RUNNING",
    "ServiceClient", "ServiceError", "ServiceTimeout", "ServiceUnavailable",
    "SubmitRequest", "Telemetry", "TraceBatcher", "VerificationService",
]
