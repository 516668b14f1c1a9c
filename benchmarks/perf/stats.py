"""The few statistics the benchmark reports, in one place so they are tested."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``q`` percentile rank."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail_percentile(values, q: float = 95.0) -> "float | None":
    """``percentile(values, q)``, or ``None`` when fewer than ten samples lie
    beyond it (one slow query would then *be* the tail)."""
    if samples_beyond(len(values), q) < TAIL_MIN_BEYOND:
        return None
    return percentile(values, q)


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    first, __, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
