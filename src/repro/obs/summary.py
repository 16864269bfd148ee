"""Shared percentile/summary math for every measurement layer.

The open-loop simulator, the serving engine and the benchmark reports
all roll samples up into the same p50/p95/p99 view; this module is the
single implementation they share.  The percentile is the nearest-rank
variant the paper's plots use: 1-based rank ``ceil(p/100 * n)`` into
the sorted samples, clamped to the valid index range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass
class Summary:
    """Five-number-ish summary of a sample set."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float


def percentile(samples: Sequence[float], p: float, *,
               presorted: bool = False) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 on empty input).

    ``presorted=True`` skips the sort for callers that already hold
    ordered samples (e.g. a summary loop computing several ranks).
    """
    if not samples:
        return 0.0
    ordered = samples if presorted else sorted(samples)
    idx = max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)
    return ordered[min(idx, len(ordered) - 1)]


def summarize(samples: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` over ``samples`` (raises on empty input)."""
    if not samples:
        raise ValueError("cannot summarize an empty sample set")
    ordered = sorted(samples)
    n = len(ordered)
    mean = sum(ordered) / n
    var = sum((x - mean) ** 2 for x in ordered) / n
    return Summary(
        count=n,
        mean=mean,
        stdev=math.sqrt(var),
        minimum=ordered[0],
        p50=percentile(ordered, 50, presorted=True),
        p95=percentile(ordered, 95, presorted=True),
        p99=percentile(ordered, 99, presorted=True),
        maximum=ordered[-1],
    )
