"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per serve run gathers the run's counters
from every subsystem (plan cache, 2PC outcomes, replication shipping,
lock waits ...) into a single queryable snapshot keyed by
``name{label=value,...}``.  Everything is
deterministic: fixed bucket bounds, insertion-independent snapshot
ordering, no wall-clock anywhere -- so identically-seeded runs produce
identical snapshots.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Mapping, Optional, Sequence

# Log-spaced latency buckets in seconds; chosen to straddle the serve
# engine's sub-millisecond network hops up through multi-second stalls.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Counter:
    """Monotonic counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram (cumulative counts at snapshot time).

    ``bounds`` are inclusive upper bucket edges; observations above
    the last bound land in the implicit ``+Inf`` bucket.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _label_key(labels: Mapping[str, Any]) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_metric_name(name: str, labels: Mapping[str, Any]) -> str:
    """Render ``name{a=1,b=x}`` with deterministically sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in _label_key(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Name+label-keyed instrument store with a deterministic snapshot."""

    def __init__(self) -> None:
        self._instruments: dict[tuple, Any] = {}

    def _get(self, kind, name: str, labels: Mapping[str, Any], factory):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {format_metric_name(name, dict(labels))!r} is "
                f"already a {type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels, Gauge)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        bounds = buckets if buckets is not None else DEFAULT_BUCKETS
        return self._get(Histogram, name, labels, lambda: Histogram(bounds))

    def snapshot(self) -> dict:
        """Flat ``{rendered_name: value}`` view, sorted by name.

        Counters and gauges map to their value; histograms to a dict
        with count/sum/mean and per-bucket cumulative counts.
        """
        out: dict[str, Any] = {}
        for (name, label_key) in sorted(self._instruments):
            instrument = self._instruments[(name, label_key)]
            rendered = format_metric_name(name, dict(label_key))
            if isinstance(instrument, Histogram):
                cumulative = 0
                buckets: dict[str, int] = {}
                for bound, count in zip(instrument.bounds,
                                        instrument.counts):
                    cumulative += count
                    buckets[f"le={bound:g}"] = cumulative
                buckets["le=+Inf"] = instrument.count
                out[rendered] = {
                    "count": instrument.count,
                    "sum": instrument.total,
                    "mean": instrument.mean,
                    "buckets": buckets,
                }
            else:
                out[rendered] = instrument.value
        return out
