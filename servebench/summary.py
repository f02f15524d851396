"""Latency summaries: the median and the tail-percentile rule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles the tail is chosen from.  A fixed ladder keeps the reported
#: tail comparable between runs whose sample counts differ a little.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to count as measured.
MIN_BEYOND = 10


def nearest_rank(n: int, percentile: float) -> int:
    """1-based rank of ``percentile`` among ``n`` sorted samples."""
    return max(1, math.ceil(percentile / 100.0 * n))


def tail_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the lowest rung leaves fewer than ``MIN_BEYOND``
    samples beyond it.
    """
    best = None
    for percentile in ladder:
        if n - nearest_rank(n, percentile) >= MIN_BEYOND:
            best = percentile
    return best


def tail(values: Sequence[float]) -> tuple[float | None, float | None, int]:
    """``(percentile, value, samples beyond it)`` by :func:`tail_percentile`."""
    ordered = sorted(values)
    percentile = tail_percentile(len(ordered))
    if percentile is None:
        return None, None, 0
    rank = nearest_rank(len(ordered), percentile)
    return percentile, ordered[rank - 1], len(ordered) - rank


def median(values: Sequence[float]) -> float:
    """Median, or 0.0 for no samples."""
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, or 0.0 for no samples."""
    return statistics.fmean(values) if values else 0.0
