"""Percentiles, block throughput and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_pct(samples: int, cap: int = 99) -> int:
    """Highest whole percentile with >= TAIL_SAMPLES samples beyond it.

    Capped at ``cap``; never below the median, which is what a sample
    too small for any tail reports.
    """
    if samples <= 0:
        raise ValueError("no samples")
    supported = (samples - TAIL_SAMPLES) * 100 // samples
    return max(50, min(cap, supported))


def block_rates(ops: Sequence[int], seconds: Sequence[float]) -> list[float]:
    return [count / elapsed for count, elapsed in zip(ops, seconds)]


def median_rate(ops: Sequence[int], seconds: Sequence[float]) -> float:
    """Throughput as the median over equal blocks of the timed phase."""
    return statistics.median(block_rates(ops, seconds))


def rate_spread(ops: Sequence[int], seconds: Sequence[float]) -> float:
    """Fastest block over slowest block (1.0 = perfectly steady)."""
    rates = block_rates(ops, seconds)
    return max(rates) / min(rates)


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0
