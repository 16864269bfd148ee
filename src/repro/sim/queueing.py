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

The walk itself -- servers, locks, one event per CPU stage -- is
:class:`StageWalker`, shared with the closed-loop engine in
:mod:`repro.serve`; :class:`QueueingSimulator` adds the arrivals, the
trace selector and the network totals.  A core is released lazily: a
:class:`CorePool` keeps each core's free time, so the end of a CPU
stage needs no event, and the messages after it are added to its end
in the same step.  A stage that finds every core busy waits in the
pool's FIFO for the pool's one pending wake.  Walk events at one
instant run in (transaction, stage) order, after every other event
(DESIGN.md, "Event-order contract").
"""

from __future__ import annotations

import enum
import random
from collections import deque, namedtuple
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from math import inf
from typing import Callable, Optional, Sequence

from repro.obs.summary import percentile as _percentile
from repro.obs.trace import NULL_TRACER
from repro.sim.clock import (
    WAKE_KEY,
    WALK_KEY,
    WALK_STRIDE,
    EventLoop,
    VirtualClock,
)


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

    @classmethod
    def from_log(cls, name: str, decode: Callable[[list], tuple],
                 log: list) -> "TransactionTrace":
        """A trace whose ``stages`` are ``decode(log)``, decoded when
        first read: a recorded trace nobody reads builds no Stage."""
        trace = cls.__new__(cls)
        vars(trace).update(name=name, lock_groups=None, walks=None,
                           _log=(decode, log))
        return trace

    def __getattr__(self, name: str):
        # Reached for ``stages`` only while a from_log trace is unread.
        source = vars(self).pop("_log", None) if name == "stages" else None
        if source is None:
            raise AttributeError(name)
        decode, log = source
        self.stages = stages = decode(log)
        return stages

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
    """The link between the application and database servers.

    :meth:`message_delay` is the one place a message's delay is
    priced.  Its callers: the live recorder
    (:meth:`repro.sim.cluster.Cluster.record_message`), the stage walk
    both replay walkers step through (:meth:`TransactionTrace.walk`)
    and Figure 14's completion time (``bench.experiments``).
    """

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

    ``free`` is a min-heap of the time each core open to transactions
    is next free; a core is released lazily, by the clock passing its
    free time, not by an event.  ``reserved`` cores model external
    load (other tenants): they are taken out of the heap into
    ``held`` and are unavailable for transactions.  A reservation
    increase takes the soonest-freeing cores, a decrease returns the
    latest-freeing ones, so a change takes effect as running work
    drains.  ``queue`` holds the stages waiting for a core, FIFO.

    The pool is clock-agnostic: every hook takes the current virtual
    time explicitly.  Busy time is never integrated per stage: it is
    read as the work assigned to cores less the work still ahead of
    ``now``; reserved cores are integrated at each reservation change.
    """

    def __init__(self, name: str, cores: int) -> None:
        if cores < 1:
            raise ValueError("server needs at least one core")
        self.name = name
        self.cores = cores
        self.reserved = 0
        self.free = [0.0] * cores
        self.held: list[float] = []  # ascending, none after free[0]
        self.queue: deque = deque()
        self.wake: Optional[list] = None  # the pending wake's heap entry
        self.assigned = 0.0  # CPU seconds of every stage started
        self._reserved_time = 0.0  # reserved core-seconds to _last_change
        self._last_change = 0.0
        # Monitor window for window_utilization().
        self._window_start = 0.0
        self._window_busy = 0.0

    def set_reserved(self, now: float, reserved: int) -> None:
        reserved = max(0, min(reserved, self.cores - 1))
        self._reserved_time += self.reserved * (now - self._last_change)
        self._last_change = now
        free, held = self.free, self.held
        while len(held) < reserved:
            held.append(heappop(free))
        while len(held) > reserved:
            heappush(free, held.pop())
        self.reserved = reserved

    def _busy_time(self, now: float) -> float:
        # External (reserved) cores count as busy: the paper's CPU plots
        # measure total machine load.
        ahead = 0.0
        for when in (*self.free, *self.held):
            if when > now:
                ahead += when - now
        return (
            self.assigned - ahead + self._reserved_time
            + self.reserved * (now - self._last_change)
        )

    def utilization(self, now: float) -> float:
        """Average fraction of cores busy over [0, now]."""
        return min(
            self._busy_time(now) / (self.cores * max(now, 1e-12)), 1.0
        )

    def window_utilization(self, now: float) -> float:
        """Average utilization since the previous call (load-monitor
        feed for EWMA switching); the first call covers [0, now]."""
        busy_time = self._busy_time(now)
        busy = busy_time - self._window_busy
        elapsed = max(now - self._window_start, 1e-12)
        self._window_start = now
        self._window_busy = busy_time
        return min(busy / (self.cores * elapsed), 1.0)


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

    ``walk`` is the trace's ``Walk.steps`` and ``index`` the stage its
    next event reaches; ``key`` is the walk key of stage 0 (the event
    reaching stage ``i`` carries ``key + i``); ``span`` is the open span
    of a traced stage waiting for a core; ``root`` and ``track`` are set
    only for a transaction whose stages are traced.  Simulators subclass
    it to carry their own payload.
    """

    __slots__ = (
        "trace", "walk", "index", "arrived", "lock_group", "key",
        "span", "root", "track",
    )

    def __init__(self, arrived: float, key: int) -> None:
        self.arrived = arrived
        self.key = key
        self.index = 0
        self.lock_group: Optional[int] = None
        self.span = None
        self.root = None
        self.track: Optional[str] = None


class StageWalker:
    """The stage walk both simulators drive: servers, locks, an event
    loop, and :meth:`step`, the action of every walk event -- pushed as
    ``[when, walk key, bound step, (txn,)]``, no closure per stage --
    that moves a :class:`Txn` through its walk at one event per CPU
    stage, plus a run queue's wake when a stage has to wait.

    A simulator subclasses the walker, makes each transaction with a
    key from :meth:`_txn_key`, sets ``txn.walk``, starts it with
    :meth:`step` (directly, or as the work of a lock acquisition) and
    supplies :meth:`_complete`; the closed-loop engine also supplies
    :meth:`_abort` and a ``tracer``.  Walk events at one instant run
    in (transaction, stage) order, after every other event then
    (DESIGN.md, "Event-order contract").
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
        # Bound once: the actions of every walk event and every wake.
        self._step = self.step
        self._wake_action = self._wake
        self._next_key = WALK_KEY
        self._next_wake = WAKE_KEY

    def _txn_key(self) -> int:
        """The walk key of a new transaction (its serial's stage 0)."""
        key = self._next_key
        self._next_key = key + WALK_STRIDE
        return key

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
            self._wake(pool)

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
        """The transaction reaches CPU stage ``txn.index`` (or the end of
        its walk; or, as it starts, stage 0 whatever its kind).  A free
        core runs the stage at once, and the messages after it are added
        to its end one at a time: the one event pushed is the arrival at
        the next CPU stage.  A busy pool queues the stage instead, and
        its wake starts it."""
        loop = self.loop
        now = loop.clock._now
        index = txn.index
        walk = txn.walk
        end = len(walk)
        if index >= end:
            group = txn.lock_group
            if group is not None:
                self._lock_table_for(group).release(group)
            self._complete(txn)
            return
        server, seconds = walk[index]
        track = txn.track
        if server is not None:
            if server < 0:
                pool = self.app
            elif self.shard_down[server]:
                self._abort(txn)
                return
            else:
                pool = self.dbs[server]
                seconds *= self.shard_slowdowns[server]
            free = pool.free
            if pool.queue or free[0] > now:
                txn.index = index + 1
                pool.queue.append((txn, seconds))
                if track is not None:
                    txn.span = self._cpu_span(txn, index, server, now)
                if pool.wake is None:
                    self._arm(pool)
                return
            heapreplace(free, now + seconds)
            pool.assigned += seconds
            if track is not None:
                self._cpu_span(txn, index, server, now).finish(now + seconds)
            now += seconds
            index += 1
        # _advance inline: this is the hot path.
        while index < end:
            server, seconds = walk[index]
            if server is not None:
                break
            if track is not None:
                self.tracer.span(
                    "stage.net", parent=txn.root, track=track, start=now,
                    nbytes=txn.trace.stages[index].nbytes,
                ).finish(now + seconds)
            now += seconds
            index += 1
        txn.index = index
        heappush(loop._heap, [now, txn.key + index, self._step, (txn,)])

    def _advance(self, txn: Txn, index: int, now: float) -> None:
        """Add the delays of the messages from stage ``index`` on to
        ``now``, one at a time, and push the arrival at the stage after
        them."""
        walk = txn.walk
        track = txn.track
        end = len(walk)
        while index < end:
            server, seconds = walk[index]
            if server is not None:
                break
            if track is not None:
                self.tracer.span(
                    "stage.net", parent=txn.root, track=track, start=now,
                    nbytes=txn.trace.stages[index].nbytes,
                ).finish(now + seconds)
            now += seconds
            index += 1
        txn.index = index
        heappush(self.loop._heap, [now, txn.key + index, self._step, (txn,)])

    def _cpu_span(self, txn: Txn, index: int, server: int, start: float):
        if server < 0:
            return self.tracer.span(
                "stage.app_cpu", parent=txn.root, track=txn.track,
                start=start,
            )
        return self.tracer.span(
            "stage.db_cpu", parent=txn.root, track=txn.track, start=start,
            shard=txn.trace.stages[index].shard,
        )

    def _arm(self, pool: CorePool) -> None:
        """Push ``pool``'s one pending wake, at its soonest free time."""
        key = self._next_wake
        self._next_wake = key + 1
        pool.wake = wake = [pool.free[0], key, self._wake_action, (pool,)]
        heappush(self.loop._heap, wake)

    def _wake(self, pool: CorePool) -> None:
        """Start ``pool``'s waiting stages, FIFO, while a core is free;
        while any still wait, keep one wake pending."""
        wake = pool.wake
        if wake is not None:
            wake[2] = None  # fired, or superseded by this call
            pool.wake = None
        now = self.loop.clock._now
        queue = pool.queue
        free = pool.free
        while queue and free[0] <= now:
            txn, seconds = queue.popleft()
            end = now + seconds
            heapreplace(free, end)
            pool.assigned += seconds
            if txn.span is not None:
                txn.span.finish(end)
            self._advance(txn, txn.index, end)
        if queue:
            self._arm(pool)


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
        txn = Txn(now, self._txn_key())
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
