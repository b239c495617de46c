"""The service wire protocol: jobs, states, events, results.

Everything here is plain JSON-able data — the same discipline as the
worker payloads in :mod:`repro.parallel.scheduler`: nothing term- or
model-shaped crosses the socket.  A verification *result* is the full
governed report (outcome lattice verdicts, statistics) plus the proof
certificate exactly as :meth:`repro.logic.proof.Proof.to_json` prints it,
so a client can byte-compare a daemon run against a serial CLI run.

Job lifecycle::

    queued ──> running ──> done
       │           └─────> failed          (infrastructure error)
       └─────────────────> cancelled       (before it started)

``done`` covers every *governed* outcome — a ``done`` job's report may
still say ``unknown`` or ``failed`` on the outcome lattice.  The job-state
``failed`` is reserved for infrastructure problems (the runner itself
crashed); governance guarantees those are rare.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED_STATE = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED_STATE, CANCELLED)

#: Priority classes, best first.  The queue is strict-priority with FIFO
#: within a class; admission control may reject ``bulk`` first under load.
PRIORITIES = ("interactive", "batch", "bulk")

_ids = itertools.count(1)


def _fresh_job_id() -> str:
    return f"job-{next(_ids):06d}"


@dataclass(frozen=True)
class SubmitRequest:
    """A verification request: one case study build + governed verify.

    ``deadline_s``/``conflicts`` tighten (never widen) the per-job budget
    the server derives from its service-wide pool.
    """

    case: str
    kwargs: dict = field(default_factory=dict)
    priority: str = "batch"
    deadline_s: float | None = None
    conflicts: int | None = None

    def __post_init__(self) -> None:
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {self.priority!r}"
            )

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "kwargs": dict(self.kwargs),
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "conflicts": self.conflicts,
        }

    @staticmethod
    def from_json(payload: dict) -> "SubmitRequest":
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        case = payload.get("case")
        if not isinstance(case, str) or not case:
            raise ValueError("'case' must be a non-empty string")
        kwargs = payload.get("kwargs") or {}
        if not isinstance(kwargs, dict):
            raise ValueError("'kwargs' must be an object")
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None:
            deadline_s = float(deadline_s)
        conflicts = payload.get("conflicts")
        if conflicts is not None:
            conflicts = int(conflicts)
        return SubmitRequest(
            case=case,
            kwargs=dict(kwargs),
            priority=payload.get("priority", "batch"),
            deadline_s=deadline_s,
            conflicts=conflicts,
        )


@dataclass(frozen=True)
class JobEvent:
    """One progress event; ``seq`` is dense per job, so clients resume
    streams with ``?since=<last seq>`` and never miss or repeat one."""

    seq: int
    ts: float
    kind: str  # queued | started | build-done | block-done | done | failed | cancelled
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"seq": self.seq, "ts": self.ts, "kind": self.kind, "data": self.data}


@dataclass
class JobRecord:
    """Server-side state of one job (thread-safe where it must be).

    Runner threads append events and flip states while the asyncio front
    end reads snapshots; every mutation goes through the record's lock.
    """

    request: SubmitRequest
    id: str = field(default_factory=_fresh_job_id)
    state: str = QUEUED
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    error: str | None = None
    result: dict | None = None
    cancel_requested: bool = False

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[JobEvent] = []
        self.add_event("queued", case=self.request.case)

    # -- events -------------------------------------------------------------

    def add_event(self, kind: str, **data) -> JobEvent:
        with self._lock:
            event = JobEvent(len(self._events), time.time(), kind, data)
            self._events.append(event)
            return event

    def events_since(self, seq: int) -> list[JobEvent]:
        with self._lock:
            return self._events[max(0, seq):]

    @property
    def num_events(self) -> int:
        with self._lock:
            return len(self._events)

    # -- state transitions ---------------------------------------------------

    def mark_running(self) -> None:
        with self._lock:
            self.state = RUNNING
            self.started = time.time()
        self.add_event("started")

    def mark_done(self, result: dict) -> None:
        with self._lock:
            self.state = DONE
            self.finished = time.time()
            self.result = result
        self.add_event("done", outcome=result.get("outcome"))

    def mark_failed(self, error: str) -> None:
        with self._lock:
            self.state = FAILED_STATE
            self.finished = time.time()
            self.error = error
        self.add_event("failed", error=error)

    def mark_cancelled(self, reason: str = "") -> None:
        with self._lock:
            self.state = CANCELLED
            self.finished = time.time()
            if reason:
                self.error = reason
        self.add_event("cancelled", reason=reason)

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED_STATE, CANCELLED)

    @property
    def latency_s(self) -> float | None:
        if self.finished is None:
            return None
        return self.finished - self.created

    # -- wire form ----------------------------------------------------------

    def snapshot(self) -> dict:
        """The status view: everything but the (potentially large) result."""
        with self._lock:
            return {
                "id": self.id,
                "case": self.request.case,
                "kwargs": dict(self.request.kwargs),
                "priority": self.request.priority,
                "state": self.state,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "error": self.error,
                "events": len(self._events),
                "outcome": (self.result or {}).get("outcome"),
            }


def encode_result(case, report, checker_line: str) -> dict:
    """The JSON result payload for a finished governed run.

    ``certificate`` is the proof's canonical JSON text, unmodified — the
    byte-identity anchor against ``tools/verify --cert-dir``.
    """
    blocks = {
        f"0x{addr:x}": {
            "outcome": outcome.outcome,
            "reason": outcome.reason,
            "residuals": outcome.residuals,
        }
        for addr, outcome in sorted(report.blocks.items())
    }
    budget = report.budget.snapshot() if report.budget is not None else None
    return {
        "outcome": report.outcome,
        "ok": report.ok,
        "blocks": blocks,
        "certificate": report.proof.to_json(),
        "checker": checker_line,
        "solver_stats": dict(report.solver_stats),
        "cache_stats": dict(report.cache_stats),
        "schedule_groups": [list(g) for g in report.schedule_groups],
        "budget": budget,
        "instrs": case.asm_line_count,
        "itl_events": case.frontend.total_events,
    }
