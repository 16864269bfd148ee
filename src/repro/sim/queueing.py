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

The walk itself -- servers, locks, one event per stage -- is
:class:`StageWalker`, shared with the closed-loop engine in
:mod:`repro.serve`; :class:`QueueingSimulator` adds the arrivals, the
trace selector and the network totals.
"""

from __future__ import annotations

import enum
import random
from collections import deque, namedtuple
from dataclasses import dataclass, field
from heapq import heappush
from math import inf
from typing import Callable, Iterable, Optional, Sequence

from repro.obs.summary import percentile as _percentile
from repro.obs.trace import NULL_TRACER
from repro.sim.clock import EventLoop, VirtualClock


class StageKind(enum.Enum):
    """What a transaction is doing during one stage of its lifetime."""

    APP_CPU = "app_cpu"
    DB_CPU = "db_cpu"
    NET_TO_DB = "net_to_db"
    NET_TO_APP = "net_to_app"


_APP_CPU = StageKind.APP_CPU
_DB_CPU = StageKind.DB_CPU
_NET_TO_DB = StageKind.NET_TO_DB
# A trace decoded for one walker: see TransactionTrace.walk.
Walk = namedtuple("Walk", ("steps", "bytes_to_db", "bytes_to_app", "messages"))


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
        if not 0 <= duration < inf:
            raise ValueError(f"stage duration {duration!r} not in [0, inf)")
        if nbytes < 0:
            raise ValueError(f"stage nbytes {nbytes!r} must be >= 0")
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
    walks: Optional[dict] = field(  # (network, servers) -> Walk
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.stages = tuple(self.stages)

    def walk(self, network: "SimNetworkParams", servers: int) -> "Walk":
        """The stages decoded once per (network, DB server count): a step
        is ``(server, seconds)``, server ``-1`` the app, ``None`` a
        message (seconds = its delay), else the DB shard, clamped."""
        if self.walks is None:
            self.walks = {}
        walk = self.walks.get((network, servers))
        if walk is None:
            steps = []
            to_db = to_app = messages = 0
            overhead = network.per_message_overhead
            for kind, duration, nbytes, shard in self.stages:
                if kind is _APP_CPU:
                    steps.append((-1, duration))
                elif kind is _DB_CPU:
                    steps.append((shard if shard < servers else 0, duration))
                else:
                    steps.append((None, network.message_delay(nbytes)))
                    messages += 1
                    if kind is _NET_TO_DB:
                        to_db += nbytes + overhead
                    else:
                        to_app += nbytes + overhead
            walk = Walk(tuple(steps), to_db, to_app, messages)
            self.walks[network, servers] = walk
        return walk

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
        for _, seconds in self.walk(network, 1).steps:
            total += seconds
        return total


@dataclass(frozen=True)
class SimNetworkParams:
    """Network parameters used during replay (mirrors NetworkModel)."""

    one_way_latency: float = 0.001
    bandwidth: float = 125_000_000.0
    per_message_overhead: int = 64

    def __post_init__(self) -> None:
        for name, sound, rule in (
            ("one_way_latency", 0 <= self.one_way_latency < inf, "[0, inf)"),
            ("bandwidth", 0 < self.bandwidth < inf, "(0, inf)"),
            ("per_message_overhead", self.per_message_overhead >= 0, "[0, inf)"),
        ):
            if not sound:
                value = getattr(self, name)
                raise ValueError(f"{name} {value!r} not in {rule}")

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
    virtual time explicitly.  Work is a callable plus its arguments, so
    a waiter queues as ``(work, args)`` and no closure is made for it.
    """

    def __init__(self, name: str, cores: int) -> None:
        if cores < 1:
            raise ValueError("server needs at least one core")
        self.name = name
        self.cores = cores
        self.reserved = 0
        # Cores open to transactions; only set_reserved changes it.
        self.available = cores
        self.busy = 0
        self.queue: deque = deque()
        self.busy_time = 0.0
        self._last_change = 0.0
        # Monitor window for window_utilization().
        self._window_start = 0.0
        self._window_busy = 0.0

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
        self.available = max(self.cores - self.reserved, 1)

    def utilization(self, now: float) -> float:
        """Average fraction of cores busy over [0, now]."""
        self._account(now)
        return min(self.busy_time / (self.cores * max(now, 1e-12)), 1.0)

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

    def drain(self, now: float) -> None:
        """Start queued work while cores are available (after
        :meth:`StageWalker.step` frees a core, or the reservation
        shrinks)."""
        queue = self.queue
        while queue and self.busy < self.available:
            work, args = queue.popleft()
            self._account(now)
            self.busy += 1
            work(*args)


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

    def acquire(self, group: int, work: Callable[..., None], *args) -> None:
        """Run ``work(*args)`` under the group lock now, or queue it FIFO."""
        if group not in self._held:
            self._held.add(group)
            work(*args)
        else:
            self._waiters.setdefault(group, deque()).append((work, args))

    def release(self, group: int) -> None:
        waiters = self._waiters.get(group)
        if waiters:
            work, args = waiters.popleft()
            work(*args)  # lock passes directly to the next waiter
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


class Txn:
    """One in-flight transaction: where it stands in its trace.

    ``walk`` is the trace's ``Walk.steps``; ``pool`` is set only while
    it holds a core, ``duration`` while a CPU stage waits for one, and
    ``span`` is the open span of the current phase; ``root`` and
    ``track`` are set only for a transaction whose stages are traced.
    Simulators subclass it to carry their own payload.
    """

    __slots__ = (
        "trace", "walk", "index", "arrived", "lock_group",
        "pool", "duration", "span", "root", "track",
    )

    def __init__(self, arrived: float) -> None:
        self.arrived = arrived
        self.index = 0
        self.lock_group: Optional[int] = None
        self.pool: Optional[CorePool] = None
        self.span = None
        self.root = None
        self.track: Optional[str] = None


class StageWalker:
    """The stage walk both simulators drive: servers, locks, an event
    loop, and :meth:`step`, the action of every walk event -- pushed as
    ``[when, seq, bound step, (txn,)]``, no closure per stage -- that
    moves a :class:`Txn` through its walk at one event per stage.

    A simulator subclasses the walker, sets ``txn.walk``, starts the
    transaction with :meth:`step` (directly, or as the work of a lock
    acquisition) and supplies :meth:`_complete`; the closed-loop engine
    also supplies :meth:`_abort` and a ``tracer``.  Ties are broken by
    scheduling order, so the order of the work in :meth:`step` is part
    of the model (DESIGN.md, "Event-order contract").
    """

    tracer = NULL_TRACER

    def __init__(
        self, network: Optional[SimNetworkParams], app_cores: int,
        db_cores: int, db_shards: int = 1,
    ) -> None:
        self.network = network if network is not None else SimNetworkParams()
        self.loop = EventLoop(VirtualClock())
        self.app = CorePool("app", app_cores)
        # One run queue and one row-group lock table per database
        # shard: the sharded tier's servers queue independently.
        self.dbs = [
            CorePool("db" if db_shards == 1 else f"db{i}", db_cores)
            for i in range(db_shards)
        ]
        self.db = self.dbs[0]
        self.lock_tables = [LockTable() for _ in range(db_shards)]
        self.locks = self.lock_tables[0]
        # A down shard aborts the transactions that reach it; a
        # slowdown factor stretches that shard's DB stage durations.
        self.shard_down = [False] * db_shards
        self.shard_slowdowns = [1.0] * db_shards
        self._step = self.step  # bound once: every walk event's action

    # -- clock and load-monitoring hooks ----------------------------------

    @property
    def now(self) -> float:
        return self.loop.clock.now

    def schedule(self, delay: float, action: Callable, *args) -> None:
        """Expose event scheduling for load scripts and monitors."""
        self.loop.schedule(delay, action, *args)

    def db_utilization_window(self) -> float:
        """DB-tier utilization since the last call (the load monitor's
        feed): the mean across shard servers, so a controller sees one
        load signal whatever the shard count."""
        now = self.now
        return sum(
            pool.window_utilization(now) for pool in self.dbs
        ) / len(self.dbs)

    def set_db_external_load(self, fraction: float) -> None:
        """Reserve a fraction of DB cores for external work, effective
        now (applied uniformly across the shard servers)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("external load fraction must be in [0, 1]")
        now = self.now
        for pool in self.dbs:
            pool.set_reserved(now, int(round(fraction * pool.cores)))
            pool.drain(now)

    def _lock_table_for(self, group: int) -> LockTable:
        return self.lock_tables[group % len(self.lock_tables)]

    # -- driver hooks ------------------------------------------------------

    def _complete(self, txn: Txn) -> None:
        """The transaction ran its last stage (its lock is released)."""
        raise NotImplementedError

    def _abort(self, txn: Txn) -> None:
        """The transaction reached a database shard that is down."""
        raise NotImplementedError

    # -- the walk ------------------------------------------------------------

    def step(self, txn: Txn) -> None:
        """End the stage in progress; start the next, or finish.  A freed
        core's waiter schedules its finish before this transaction's
        next stage; core accounting is ``CorePool._account`` inline."""
        loop = self.loop
        now = loop.clock._now
        span = txn.span
        if span is not None:
            span.finish()
        pool = txn.pool
        if pool is not None:
            pool.busy_time += (pool.busy + pool.reserved) * (
                now - pool._last_change
            )
            pool._last_change = now
            pool.busy -= 1
            txn.pool = None
            if pool.queue:
                pool.drain(now)
        index = txn.index
        walk = txn.walk
        if index >= len(walk):
            group = txn.lock_group
            if group is not None:
                self._lock_table_for(group).release(group)
            self._complete(txn)
            return
        txn.index = index + 1
        server, delay = walk[index]
        track = txn.track
        if server is None:
            if track is not None:
                txn.span = self.tracer.span(
                    "stage.net", parent=txn.root, track=track,
                    nbytes=txn.trace.stages[index].nbytes,
                )
        else:
            if server < 0:
                pool = self.app
                if track is not None:
                    txn.span = self.tracer.span(
                        "stage.app_cpu", parent=txn.root, track=track
                    )
            elif self.shard_down[server]:
                self._abort(txn)
                return
            else:
                pool = self.dbs[server]
                delay *= self.shard_slowdowns[server]
                if track is not None:
                    txn.span = self.tracer.span(
                        "stage.db_cpu", parent=txn.root, track=track,
                        shard=txn.trace.stages[index].shard,
                    )
            if pool.busy >= pool.available:
                txn.duration = delay
                pool.queue.append((self.occupy, (txn, pool)))
                return
            pool.busy_time += (pool.busy + pool.reserved) * (
                now - pool._last_change
            )
            pool._last_change = now
            pool.busy += 1
            txn.pool = pool
        # EventLoop.schedule inline: the delay was checked at its entry.
        seq = loop._seq
        loop._seq = seq + 1
        heappush(loop._heap, [now + delay, seq, self._step, (txn,)])

    def occupy(self, txn: Txn, pool: CorePool) -> None:
        """``pool.drain`` gave a queued CPU stage a core: hold it."""
        txn.pool = pool
        loop = self.loop
        when = loop.clock._now + txn.duration
        seq = loop._seq
        loop._seq = seq + 1
        heappush(loop._heap, [when, seq, self._step, (txn,)])


TraceSelector = Callable[[float, "QueueingSimulator"], TransactionTrace]


class QueueingSimulator(StageWalker):
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
        super().__init__(network, app_cores, db_cores)
        self.rng = random.Random(seed)
        self._result: Optional[SimResult] = None

    def _arrive(
        self, selector: TraceSelector, rate: float, horizon: float
    ) -> None:
        now = self.now
        if now >= horizon:
            return
        # rng order is part of the model: selection, the lock group,
        # then the next inter-arrival gap.
        trace = selector(now, self)
        txn = Txn(now)
        txn.trace = trace
        walk = trace.walk(self.network, len(self.dbs))
        txn.walk = walk.steps
        # Every arrival runs to completion (the run drains), so its
        # messages are counted up front, from the walk's totals.
        result = self._result
        result.bytes_to_db += walk.bytes_to_db
        result.bytes_to_app += walk.bytes_to_app
        result.messages += walk.messages
        if trace.lock_groups:
            group = txn.lock_group = self.rng.randrange(trace.lock_groups)
            self.locks.acquire(group, self.step, txn)
        else:
            self.step(txn)
        self.loop.schedule(
            self.rng.expovariate(rate), self._arrive, selector, rate, horizon
        )

    def _complete(self, txn: Txn) -> None:
        result = self._result
        now = self.now
        latency = now - txn.arrived
        result.completed += 1
        result.latencies.append(latency)
        result.samples.append((now, latency))
        result.trace_names.append((now, txn.trace.name))

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

        result = self._result = SimResult(
            name=name, offered_rate=rate, duration=duration, completed=0
        )
        self.loop.schedule(
            self.rng.expovariate(rate), self._arrive, selector, rate, duration
        )
        # Run past the horizon so in-flight transactions drain.
        self.loop.run()

        end = max(self.now, duration)
        result.app_utilization = self.app.utilization(end)
        result.db_utilization = self.db.utilization(end)
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
