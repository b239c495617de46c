"""Service telemetry: counters, gauges, latency percentiles, JSON logs.

One :class:`Telemetry` instance per daemon.  Counters are monotonic and
cheap (a dict behind a lock — the daemon's request rates are far below
anything needing sharded atomics); latencies go into a bounded reservoir
from which p50/p95/p99 are computed on demand.  The ``/metrics`` endpoint
renders either Prometheus text exposition or the raw JSON snapshot.

Structured logs are newline-delimited JSON written through
:meth:`Telemetry.log`; every record carries a wall-clock timestamp and an
``event`` name, so ``jq`` is the whole log toolchain.
"""

from __future__ import annotations

import json
import sys
import threading
import time


class Telemetry:
    """Thread-safe counters + latency reservoir + structured logger."""

    #: Reservoir cap: enough for stable tail percentiles at service scale,
    #: small enough to never matter for memory.
    RESERVOIR = 4096

    def __init__(self, log_stream=None, service: str = "repro.service") -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._latencies: list[float] = []
        self._latencies_by_priority: dict[str, list[float]] = {}
        self._started = time.time()
        self._log_stream = log_stream
        self._service = service

    # -- counters and gauges -------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def merge(self, prefix: str, stats: dict) -> None:
        """Fold a per-run stats dict into prefixed counters
        (``solver_stats``'s ``checks`` becomes ``solver_checks`` ...)."""
        with self._lock:
            for key, value in stats.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    name = f"{prefix}_{key}"
                    self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self._observe(self._latencies, seconds)

    def observe_queue_latency(self, seconds: float, priority: str) -> None:
        """Record end-to-end (submit→done) latency for one priority class.

        Kept separate from :meth:`observe_latency` — the global reservoir
        tracks pure *run* time, while the per-priority reservoirs track
        queue + run time, which is the metric that exposes starvation.
        """
        with self._lock:
            reservoir = self._latencies_by_priority.setdefault(priority, [])
            self._observe(reservoir, seconds)

    def _observe(self, reservoir: list[float], seconds: float) -> None:
        reservoir.append(seconds)
        if len(reservoir) > self.RESERVOIR:
            # Drop the oldest half: keeps the reservoir recent-biased
            # without per-observation randomness.
            del reservoir[: self.RESERVOIR // 2]

    # -- views ---------------------------------------------------------------

    @staticmethod
    def _percentile(sorted_values: list[float], q: float) -> float:
        if not sorted_values:
            return 0.0
        index = min(
            len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1)))
        )
        return sorted_values[index]

    @classmethod
    def _latency_block(cls, latencies: list[float]) -> dict:
        latencies = sorted(latencies)
        return {
            "count": len(latencies),
            "p50_s": cls._percentile(latencies, 0.50),
            "p95_s": cls._percentile(latencies, 0.95),
            "p99_s": cls._percentile(latencies, 0.99),
            "max_s": latencies[-1] if latencies else 0.0,
        }

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "uptime_s": round(time.time() - self._started, 3),
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "latency": self._latency_block(self._latencies),
                "latency_by_priority": {
                    priority: self._latency_block(reservoir)
                    for priority, reservoir in sorted(
                        self._latencies_by_priority.items()
                    )
                },
            }

    def render_prometheus(self) -> str:
        """Prometheus text exposition (counters, gauges, latency summary)."""
        snap = self.snapshot()
        lines: list[str] = []

        def emit(name: str, value: float, kind: str) -> None:
            metric = "repro_service_" + name
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {value}")

        emit("uptime_seconds", snap["uptime_s"], "gauge")
        for name, value in snap["counters"].items():
            emit(name + "_total", value, "counter")
        for name, value in snap["gauges"].items():
            emit(name, value, "gauge")
        lat = snap["latency"]
        emit("job_latency_seconds_count", lat["count"], "counter")
        for q in ("p50", "p95", "p99"):
            lines.append(
                "# TYPE repro_service_job_latency_seconds gauge"
                if q == "p50"
                else "# (quantile series)"
            )
            lines.append(
                f'repro_service_job_latency_seconds{{quantile="{q[1:]}"}} '
                f"{lat[q + '_s']}"
            )
        return "\n".join(lines) + "\n"

    # -- structured logging --------------------------------------------------

    def log(self, event: str, **fields) -> None:
        stream = self._log_stream
        if stream is None:
            return
        record = {"ts": time.time(), "service": self._service, "event": event}
        record.update(fields)
        try:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            stream.flush()
        except (OSError, ValueError):
            pass  # a dead log sink must never take the service down


def stderr_telemetry() -> Telemetry:
    """A telemetry instance logging structured JSON to stderr."""
    return Telemetry(log_stream=sys.stderr)
