"""Open-loop discrete-event queueing simulation.

The paper measures average transaction latency while sweeping a target
throughput, on servers with either 16 or 3 cores.  We reproduce that
methodology: each *transaction trace* is a sequence of stages (CPU work
on the application server, a network message, CPU work on the database
server, ...) produced by actually executing the partitioned program
once.  The simulator then replays traces under Poisson arrivals against
finite-core FCFS servers and reports latency, utilization and network
traffic.

This separation -- execute once to obtain a trace, then simulate
contention -- keeps the partitioned-program interpreter single-threaded
while still modeling the queueing effects that dominate the paper's
figures 9, 10, 12 and 13.
"""

from __future__ import annotations

import enum
import random
from collections import deque, namedtuple
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.obs.summary import percentile as _percentile
from repro.sim.clock import EventLoop, VirtualClock


class StageKind(enum.Enum):
    """What a transaction is doing during one stage of its lifetime."""

    APP_CPU = "app_cpu"
    DB_CPU = "db_cpu"
    NET_TO_DB = "net_to_db"
    NET_TO_APP = "net_to_app"


class Stage(
    namedtuple("Stage", ("kind", "duration", "nbytes", "shard"))
):
    """One stage of a transaction trace.

    ``duration`` is CPU seconds for CPU stages and is ignored for
    network stages (their delay is computed from ``nbytes`` and the
    network model).  ``shard`` identifies which database server of a
    sharded tier a DB_CPU stage occupies (0 in the classic
    single-server deployment).

    An immutable record built on ``tuple`` rather than a frozen
    dataclass: the live path mints four of these per statement, and a
    frozen dataclass constructs through one ``object.__setattr__`` per
    field.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: StageKind,
        duration: float = 0.0,
        nbytes: int = 0,
        shard: int = 0,
    ) -> "Stage":
        if duration < 0:
            raise ValueError("stage duration must be non-negative")
        if nbytes < 0:
            raise ValueError("stage bytes must be non-negative")
        return tuple.__new__(cls, (kind, duration, nbytes, shard))

    @property
    def is_cpu(self) -> bool:
        return self.kind in (StageKind.APP_CPU, StageKind.DB_CPU)

    @property
    def is_network(self) -> bool:
        return not self.is_cpu


@dataclass
class TransactionTrace:
    """A named sequence of stages, replayable by the simulator.

    ``lock_groups`` models coarse row-level contention: when set, each
    replayed transaction draws one of ``lock_groups`` hot rows (e.g.
    TPC-C district rows) and holds that row's exclusive lock for its
    entire lifetime.  Longer-latency transactions therefore hold locks
    longer and cap throughput -- the effect the paper highlights in its
    introduction.
    """

    name: str
    stages: tuple[Stage, ...]
    lock_groups: Optional[int] = None

    def __post_init__(self) -> None:
        self.stages = tuple(self.stages)

    def cpu_demand(self, kind: StageKind) -> float:
        return sum(s.duration for s in self.stages if s.kind == kind)

    @property
    def app_cpu(self) -> float:
        return self.cpu_demand(StageKind.APP_CPU)

    @property
    def db_cpu(self) -> float:
        return self.cpu_demand(StageKind.DB_CPU)

    @property
    def round_trips(self) -> int:
        return sum(1 for s in self.stages if s.kind == StageKind.NET_TO_DB)

    @property
    def bytes_to_db(self) -> int:
        return sum(s.nbytes for s in self.stages if s.kind == StageKind.NET_TO_DB)

    @property
    def bytes_to_app(self) -> int:
        return sum(s.nbytes for s in self.stages if s.kind == StageKind.NET_TO_APP)

    def unloaded_latency(self, network: "SimNetworkParams") -> float:
        """Latency with zero queueing (a single client on idle servers)."""
        total = 0.0
        for stage in self.stages:
            if stage.is_cpu:
                total += stage.duration
            else:
                total += network.message_delay(stage.nbytes)
        return total


@dataclass(frozen=True)
class SimNetworkParams:
    """Network parameters used during replay (mirrors NetworkModel)."""

    one_way_latency: float = 0.001
    bandwidth: float = 125_000_000.0
    per_message_overhead: int = 64

    def message_delay(self, nbytes: int) -> float:
        return (
            self.one_way_latency
            + (nbytes + self.per_message_overhead) / self.bandwidth
        )


class CorePool:
    """FCFS run queue over the cores of one simulated server.

    ``reserved`` cores model external load (other tenants); they are
    unavailable for transactions.  Changing the reservation mid-run
    takes effect as running work drains.

    The pool is clock-agnostic: every scheduling hook takes the current
    virtual time explicitly, so both the open-loop replay simulator and
    the closed-loop serving engine (:mod:`repro.serve`) share it.
    """

    def __init__(self, name: str, cores: int) -> None:
        if cores < 1:
            raise ValueError("server needs at least one core")
        self.name = name
        self.cores = cores
        self.reserved = 0
        self.busy = 0
        self.queue: deque = deque()
        self.busy_time = 0.0
        self._last_change = 0.0
        # Monitor window for window_utilization().
        self._window_start = 0.0
        self._window_busy = 0.0

    @property
    def available(self) -> int:
        return max(self.cores - self.reserved, 1)

    @property
    def queued(self) -> int:
        """Work items waiting for a free core (the run-queue depth)."""
        return len(self.queue)

    def _account(self, now: float) -> None:
        # Integrate busy-cores over time for utilization reporting.
        # External (reserved) cores count as busy: the paper's CPU plots
        # measure total machine load.
        self.busy_time += (self.busy + self.reserved) * (now - self._last_change)
        self._last_change = now

    def set_reserved(self, now: float, reserved: int) -> None:
        self._account(now)
        self.reserved = max(0, min(reserved, self.cores - 1))

    def utilization(self, now: float, since: float = 0.0) -> float:
        """Average fraction of cores busy over [since, now]."""
        self._account(now)
        elapsed = max(now - since, 1e-12)
        return min(self.busy_time / (self.cores * elapsed), 1.0)

    def busy_seconds(self, now: float) -> float:
        """Integrated busy-core-seconds up to ``now`` (monotonic).

        Load monitors diff two readings to get windowed utilization
        without resetting the pool's accounting.
        """
        self._account(now)
        return self.busy_time

    def window_utilization(self, now: float) -> float:
        """Average utilization since the previous call (load-monitor
        feed for EWMA switching); the first call covers [0, now]."""
        self._account(now)
        busy = self.busy_time - self._window_busy
        elapsed = max(now - self._window_start, 1e-12)
        self._window_start = now
        self._window_busy = self.busy_time
        return min(busy / (self.cores * elapsed), 1.0)

    # -- scheduler hooks --------------------------------------------------

    def acquire(self, now: float, work: Callable[[], None]) -> None:
        """Run ``work`` on a free core now, or queue it FCFS."""
        if self.busy < self.available:
            self._account(now)
            self.busy += 1
            work()
        else:
            self.queue.append(work)

    def release(self, now: float) -> None:
        """Free one core and start queued work that now fits."""
        self._account(now)
        self.busy -= 1
        self.drain(now)

    def drain(self, now: float) -> None:
        """Start queued work while cores are available (e.g. after the
        external-load reservation shrinks)."""
        while self.queue and self.busy < self.available:
            work = self.queue.popleft()
            self._account(now)
            self.busy += 1
            work()


# Backwards-compatible alias (the pool predates the serving subsystem).
_CorePool = CorePool


class LockTable:
    """Exclusive row-group locks with FIFO hand-off.

    Models coarse row-level contention (e.g. TPC-C district rows): a
    transaction holds its group's lock for its entire lifetime, so
    longer-latency transactions cap throughput.  Shared by the replay
    simulator and the serving engine.
    """

    def __init__(self) -> None:
        self._waiters: dict[int, deque] = {}
        self._held: set[int] = set()

    def acquire(self, group: int, work: Callable[[], None]) -> None:
        """Run ``work`` under the group lock now, or queue it FIFO."""
        if group not in self._held:
            self._held.add(group)
            work()
        else:
            self._waiters.setdefault(group, deque()).append(work)

    def release(self, group: int) -> None:
        waiters = self._waiters.get(group)
        if waiters:
            work = waiters.popleft()
            work()  # lock passes directly to the next waiter
        else:
            self._held.discard(group)

    @property
    def held(self) -> int:
        return len(self._held)

    @property
    def waiting(self) -> int:
        return sum(len(q) for q in self._waiters.values())


@dataclass
class SimResult:
    """Output of one simulation run."""

    name: str
    offered_rate: float
    duration: float
    completed: int
    latencies: list[float] = field(default_factory=list)
    app_utilization: float = 0.0
    db_utilization: float = 0.0
    bytes_to_db: int = 0
    bytes_to_app: int = 0
    messages: int = 0
    # (completion_time, latency) samples for time-series plots (fig11).
    samples: list[tuple[float, float]] = field(default_factory=list)
    # (completion_time, trace_name) for partition-mix reporting (fig11).
    trace_names: list[tuple[float, str]] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Completions per second *within* the measurement window.

        In-flight transactions drain after the horizon (their latency
        samples are kept) but only completions inside the window count
        toward throughput -- an overloaded system therefore reports a
        throughput below its offered rate.
        """
        if self.duration <= 0:
            return 0.0
        in_window = sum(1 for when, _ in self.samples if when <= self.duration)
        return in_window / self.duration

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def mean_latency_ms(self) -> float:
        return 1000.0 * self.mean_latency

    def percentile(self, p: float) -> float:
        return _percentile(self.latencies, p)

    @property
    def net_kb_per_sec(self) -> float:
        total = self.bytes_to_db + self.bytes_to_app
        return total / 1024.0 / self.duration if self.duration > 0 else 0.0

    def latency_buckets(self, width: float) -> list[tuple[float, float]]:
        """Mean latency per time bucket of ``width`` seconds (fig11)."""
        buckets: dict[int, list[float]] = {}
        for when, latency in self.samples:
            buckets.setdefault(int(when // width), []).append(latency)
        return [
            ((idx + 0.5) * width, sum(vals) / len(vals))
            for idx, vals in sorted(buckets.items())
        ]

    def trace_mix(self, width: float) -> list[tuple[float, dict[str, float]]]:
        """Fraction of completions per trace name per time bucket (fig11)."""
        buckets: dict[int, dict[str, int]] = {}
        for when, name in self.trace_names:
            counts = buckets.setdefault(int(when // width), {})
            counts[name] = counts.get(name, 0) + 1
        out = []
        for idx, counts in sorted(buckets.items()):
            total = sum(counts.values())
            out.append(
                ((idx + 0.5) * width, {k: v / total for k, v in counts.items()})
            )
        return out


TraceSelector = Callable[[float, "QueueingSimulator"], TransactionTrace]


class QueueingSimulator:
    """Replay transaction traces under open-loop Poisson arrivals.

    Parameters
    ----------
    app_cores, db_cores:
        Core counts of the two servers (paper: 8 and 16, or 16 and 3
        in the limited-CPU experiments).
    network:
        Link parameters (default: 2 ms RTT, 1 Gbit/s).
    seed:
        Seed for the arrival/selection RNG; runs are deterministic.
    """

    def __init__(
        self,
        app_cores: int = 8,
        db_cores: int = 16,
        network: Optional[SimNetworkParams] = None,
        seed: int = 17,
    ) -> None:
        self.network = network if network is not None else SimNetworkParams()
        self.loop = EventLoop(VirtualClock())
        self.app = CorePool("app", app_cores)
        self.db = CorePool("db", db_cores)
        self.rng = random.Random(seed)
        self._result: Optional[SimResult] = None
        self._bytes_to_db = 0
        self._bytes_to_app = 0
        self._messages = 0
        self.locks = LockTable()

    # -- load monitoring hooks -------------------------------------------

    @property
    def now(self) -> float:
        return self.loop.clock.now

    def db_utilization_window(self) -> float:
        """DB utilization since the last call (used by the load monitor)."""
        return self.db.window_utilization(self.now)

    def set_db_external_load(self, fraction: float) -> None:
        """Reserve a fraction of DB cores for external work, effective now."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("external load fraction must be in [0, 1]")
        reserved = int(round(fraction * self.db.cores))
        self.db.set_reserved(self.now, reserved)
        self._drain(self.db)

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Expose event scheduling for load-change scripts and monitors."""
        self.loop.schedule(delay, action)

    # -- core pool mechanics ---------------------------------------------

    def _acquire(self, pool: CorePool, work: Callable[[], None]) -> None:
        pool.acquire(self.now, work)

    def _release(self, pool: CorePool) -> None:
        pool.release(self.now)

    def _drain(self, pool: CorePool) -> None:
        pool.drain(self.now)

    # -- transaction lifecycle -------------------------------------------

    def _start_transaction(self, trace: TransactionTrace, arrived: float) -> None:
        if trace.lock_groups:
            group = self.rng.randrange(trace.lock_groups)

            def begin() -> None:
                self._run_stage(trace, 0, arrived, lock_group=group)

            self.locks.acquire(group, begin)
        else:
            self._run_stage(trace, 0, arrived)

    def _run_stage(
        self,
        trace: TransactionTrace,
        idx: int,
        arrived: float,
        lock_group: Optional[int] = None,
    ) -> None:
        if idx >= len(trace.stages):
            if lock_group is not None:
                self.locks.release(lock_group)
            self._complete(trace, arrived)
            return
        stage = trace.stages[idx]
        if stage.is_cpu:
            pool = self.app if stage.kind == StageKind.APP_CPU else self.db

            def occupy() -> None:
                def finish() -> None:
                    self._release(pool)
                    self._run_stage(trace, idx + 1, arrived, lock_group)

                self.loop.schedule(stage.duration, finish)

            self._acquire(pool, occupy)
        else:
            delay = self.network.message_delay(stage.nbytes)
            self._messages += 1
            wire = stage.nbytes + self.network.per_message_overhead
            if stage.kind == StageKind.NET_TO_DB:
                self._bytes_to_db += wire
            else:
                self._bytes_to_app += wire
            self.loop.schedule(
                delay,
                lambda: self._run_stage(trace, idx + 1, arrived, lock_group),
            )

    def _complete(self, trace: TransactionTrace, arrived: float) -> None:
        result = self._result
        if result is None:  # pragma: no cover - defensive
            return
        latency = self.now - arrived
        result.completed += 1
        result.latencies.append(latency)
        result.samples.append((self.now, latency))
        result.trace_names.append((self.now, trace.name))

    # -- top-level run -----------------------------------------------------

    def run(
        self,
        trace: TransactionTrace | Sequence[TransactionTrace] | TraceSelector,
        rate: float,
        duration: float,
        name: str = "run",
        warmup: float = 0.0,
    ) -> SimResult:
        """Simulate Poisson arrivals at ``rate`` per second for ``duration``.

        ``trace`` may be a single trace, a sequence (chosen uniformly at
        random per arrival), or a callable selector receiving
        ``(now, simulator)`` -- the hook used by the dynamic partition
        switcher.
        """
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        if duration <= 0:
            raise ValueError("duration must be positive")

        if callable(trace):
            selector: TraceSelector = trace  # type: ignore[assignment]
        elif isinstance(trace, TransactionTrace):
            selector = lambda now, sim: trace  # noqa: E731
        else:
            options = list(trace)
            if not options:
                raise ValueError("need at least one trace")
            selector = lambda now, sim: self.rng.choice(options)  # noqa: E731

        self._result = SimResult(
            name=name, offered_rate=rate, duration=duration, completed=0
        )
        horizon = duration

        def arrive() -> None:
            now = self.now
            if now >= horizon:
                return
            chosen = selector(now, self)
            self._start_transaction(chosen, now)
            self.loop.schedule(self.rng.expovariate(rate), arrive)

        self.loop.schedule(self.rng.expovariate(rate), arrive)
        # Run past the horizon so in-flight transactions drain.
        self.loop.run()

        result = self._result
        end = max(self.now, duration)
        result.app_utilization = self.app.utilization(end)
        result.db_utilization = self.db.utilization(end)
        result.bytes_to_db = self._bytes_to_db
        result.bytes_to_app = self._bytes_to_app
        result.messages = self._messages
        if warmup > 0:
            result.latencies = [
                lat for when, lat in result.samples if when >= warmup
            ]
        return result


def sweep_throughput(
    traces: dict[str, TransactionTrace],
    rates: Iterable[float],
    duration: float = 60.0,
    app_cores: int = 8,
    db_cores: int = 16,
    network: Optional[SimNetworkParams] = None,
    seed: int = 17,
) -> dict[str, list[SimResult]]:
    """Run each named trace across a sweep of offered rates.

    Returns ``{name: [SimResult per rate]}`` -- one curve per
    implementation, exactly the data behind figures 9, 10, 12, 13.
    """
    curves: dict[str, list[SimResult]] = {name: [] for name in traces}
    for name, trace in traces.items():
        for rate in rates:
            sim = QueueingSimulator(
                app_cores=app_cores,
                db_cores=db_cores,
                network=network,
                seed=seed,
            )
            curves[name].append(
                sim.run(trace, rate=rate, duration=duration, name=name)
            )
    return curves
