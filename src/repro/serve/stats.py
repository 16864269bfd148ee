"""Measurement types for the concurrent serving engine.

The engine records one sample per completed transaction -- completion
time, latency, trace name, client id and the partition option used --
and aggregates them into per-run views with the latency percentiles
the paper plots (p50/p95/p99).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.summary import Summary, percentile, summarize
from repro.runtime.switcher import SwitcherSummary


@dataclass(frozen=True)
class TxnSample:
    """One completed transaction."""

    when: float
    latency: float
    trace_name: str
    client_id: int
    option: int


@dataclass(frozen=True)
class FailoverEvent:
    """One automatic shard failover observed during a serve run.

    The supervisor detects the dead primary on its heartbeat
    (``detected_at``), waits out a catch-up-proportional promotion
    delay, and installs the most caught-up replica as the new primary
    at ``promoted_at``.  ``replayed_entries`` sums the commit-log tail
    replayed across the workload's database copies (one per partition
    option)."""

    shard: int
    crashed_at: float
    detected_at: float
    promoted_at: float
    chosen_replica: int
    replayed_entries: int
    generation: int

    @property
    def recovery_time(self) -> float:
        """Crash-to-promotion gap in virtual seconds."""
        return self.promoted_at - self.crashed_at


@dataclass
class ServeResult:
    """Output of one closed-loop serving run."""

    name: str
    clients: int
    duration: float
    warmup: float = 0.0
    completed: int = 0
    # Transactions aborted by a shard failure (dead primary or an
    # in-flight two-phase branch caught by a failover) and the retries
    # those aborts triggered; failovers lists the supervisor's
    # promotions in event order.
    aborted: int = 0
    txn_retries: int = 0
    failovers: list[FailoverEvent] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    samples: list[TxnSample] = field(default_factory=list)
    app_utilization: float = 0.0
    db_utilization: float = 0.0
    # Per-shard DB server utilization (one entry in the classic
    # single-server deployment; db_utilization is their mean).
    db_shard_utilization: list[float] = field(default_factory=list)
    controller: Optional[SwitcherSummary] = None
    live_executions: int = 0
    trace_replays: int = 0
    # Unified metrics snapshot (repro.obs.metrics.MetricsRegistry) taken
    # at the end of the run; keys are rendered `name{label=value}`.  It
    # holds this run's share of the backend counters: plan_cache.*
    # (when the workload runs SQL), two_pc.* (sharded connections),
    # replica_reads.* (replica reads enabled) and replication.*{shard}.
    metrics: Optional[dict] = None
    notes: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Completions per virtual second inside the measurement window."""
        window = max(self.duration - self.warmup, 1e-12)
        return self.completed / window

    def window_throughput(self, start: float, end: float) -> float:
        """Completions per virtual second whose completion time falls
        in ``[start, end]``."""
        completed = sum(1 for s in self.samples if start <= s.when <= end)
        return completed / max(end - start, 1e-12)

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    def percentile(self, p: float) -> float:
        return percentile(self.latencies, p)

    def latency_summary(self) -> Optional[Summary]:
        return summarize(self.latencies) if self.latencies else None

    def _buckets(self, width: float) -> list[tuple[float, list[TxnSample]]]:
        """Samples per ``width``-second bucket of completion time, keyed
        by the bucket's midpoint."""
        buckets: dict[int, list[TxnSample]] = {}
        for sample in self.samples:
            buckets.setdefault(int(sample.when // width), []).append(sample)
        return [
            ((idx + 0.5) * width, group)
            for idx, group in sorted(buckets.items())
        ]

    def latency_buckets(self, width: float) -> list[tuple[float, float]]:
        """Mean latency per ``width``-second bucket of completion time."""
        return [
            (when, sum(s.latency for s in group) / len(group))
            for when, group in self._buckets(width)
        ]

    def option_mix(self, width: float) -> list[tuple[float, dict[int, float]]]:
        """Fraction of completions per partition option per time bucket."""
        return [
            (when, {opt: n / len(group) for opt, n in
                    Counter(s.option for s in group).items()})
            for when, group in self._buckets(width)
        ]


@dataclass(frozen=True)
class SweepPoint:
    """One (client count, configuration) cell of a load sweep."""

    clients: int
    throughput: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    app_util: float
    db_util: float
    switches: int
    # Per-shard DB server utilization (db_util is their mean).
    db_shard_utilization: tuple[float, ...] = ()

    @classmethod
    def from_result(cls, result: ServeResult) -> "SweepPoint":
        switches = (
            result.controller.switches if result.controller is not None else 0
        )
        # One sorted pass for mean/p50/p95/p99 instead of a sort per
        # percentile (sweep runs collect tens of thousands of samples).
        summary = result.latency_summary()
        return cls(
            clients=result.clients,
            throughput=result.throughput,
            mean_ms=1000.0 * summary.mean if summary else 0.0,
            p50_ms=1000.0 * summary.p50 if summary else 0.0,
            p95_ms=1000.0 * summary.p95 if summary else 0.0,
            p99_ms=1000.0 * summary.p99 if summary else 0.0,
            app_util=result.app_utilization,
            db_util=result.db_utilization,
            switches=switches,
            db_shard_utilization=tuple(result.db_shard_utilization),
        )


@dataclass
class LoadSweepResult:
    """Throughput/latency-vs-client-count curves per configuration."""

    workload: str
    curves: dict[str, list[SweepPoint]] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
