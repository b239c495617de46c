"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def tail_percentile(values) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above it."""
    for pct in range(99, 49, -1):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, percentile(values, pct / 100)
    return 50, median(values)


def quartile_spread(values) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as ``statistics.quantiles`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0
