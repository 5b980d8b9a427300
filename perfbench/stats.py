"""Summary statistics shared by the runner and the compare tool."""

from __future__ import annotations

import math
import statistics

__all__ = ["percentile", "tail_percentile", "quartiles", "spread",
           "median"]

# Tail percentiles considered, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 50.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return float(ordered[rank - 1])


def tail_percentile(n: int, candidates=TAIL_CANDIDATES,
                    min_beyond: int = 10) -> float | None:
    """Highest candidate percentile with at least ``min_beyond`` of ``n``
    samples strictly beyond it, or ``None`` when even the median is not
    supported."""
    for q in candidates:
        rank = max(math.ceil(q / 100.0 * n), 1)
        if n - rank >= min_beyond:
            return q
    return None


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    if len(values) == 1:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
