"""The standard two-server deployment used by every experiment.

A :class:`Cluster` bundles the application server, the database server
and the network model into one object with a shared virtual clock.
The Pyxis runtime charges CPU and network costs against the cluster
while a partitioned program executes; the resulting per-transaction
stage trace is later replayed by :mod:`repro.sim.queueing`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.clock import VirtualClock
from repro.sim.network import NetworkModel
from repro.sim.queueing import Stage, StageKind, TransactionTrace
from repro.sim.server import CostModel, Server


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


FAULT_KINDS = (
    "crash", "slow", "partition", "tornwrite", "corrupt", "fsyncfail",
)

# Storage faults target a shard's write-ahead log rather than its
# server: "tornwrite" leaves a half-written frame (crash mid-append),
# "corrupt" flips bytes in a committed frame, "fsyncfail" makes every
# fsync fail from ``at`` until ``until`` (None = rest of the run).
STORAGE_FAULT_KINDS = ("tornwrite", "corrupt", "fsyncfail")

# Kinds with a duration; the rest are instantaneous or permanent.
_UNTIL_KINDS = ("slow", "partition", "fsyncfail")

# kind:db<shard>@<at>[x<factor>][:until=<t>], e.g. "crash:db1@5",
# "slow:db0@3x4:until=8", "partition:db1@2:until=6",
# "tornwrite:db0@5", "corrupt:db1@3", "fsyncfail:db0@2:until=4".
_FAULT_RE = re.compile(
    r"^(?P<kind>crash|slow|partition|tornwrite|corrupt|fsyncfail)"
    r":db(?P<shard>\d+)"
    r"@(?P<at>\d+(?:\.\d+)?)"
    r"(?:x(?P<factor>\d+(?:\.\d+)?))?"
    r"(?::until=(?P<until>\d+(?:\.\d+)?))?$"
)

_NUMBER_RE = re.compile(r"^\d+(?:\.\d+)?$")


class FaultSpecError(ValueError):
    """A malformed ``--inject`` fault spec (the one exception type every
    parse failure raises, with the offending token quoted)."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault against a database shard server.

    ``crash`` kills the shard's primary at ``at`` (permanent; recovery
    is the failover controller's job, not the fault's).  ``slow``
    inflates the shard's service latency by ``factor`` from ``at``
    until ``until`` (None = rest of the run).  ``partition`` takes the
    shard's network link down between ``at`` and ``until``.  The
    storage kinds hit the shard's WAL: ``tornwrite`` leaves a
    half-written frame at ``at``, ``corrupt`` flips bytes in a
    committed frame, ``fsyncfail`` fails every fsync between ``at``
    and ``until``.
    """

    kind: str
    shard: int
    at: float
    factor: float = 1.0
    until: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; options: {FAULT_KINDS}"
            )
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        if self.kind == "slow" and self.factor <= 1.0:
            raise ValueError("slow faults need a factor > 1")
        if self.until is not None and self.kind not in _UNTIL_KINDS:
            raise ValueError(
                f"only {'/'.join(_UNTIL_KINDS)} faults take 'until' "
                f"(a {self.kind} fault has no duration)"
            )
        if self.until is not None and self.until <= self.at:
            raise ValueError("fault 'until' must come after 'at'")


def _diagnose_fault_spec(spec: str, text: str) -> str:
    """Pinpoint the offending token of a spec the grammar rejected."""
    prefix = f"bad fault spec {spec!r}: "
    kind, _, rest = text.partition(":")
    if kind not in FAULT_KINDS:
        return (f"{prefix}unknown fault kind {kind!r}; "
                f"options: {FAULT_KINDS}")
    target, at_sep, tail = rest.partition("@")
    if not at_sep:
        return f"{prefix}missing '@<time>' after target {target!r}"
    if not re.fullmatch(r"db\d+", target):
        return (f"{prefix}bad target {target!r}; faults hit database "
                "shards (db<N>)")
    # Split the tail into time[, xfactor][, :until=...] tokens.
    time_token, until_sep, until_token = tail.partition(":until=")
    time_token, x_sep, factor_token = time_token.partition("x")
    if not _NUMBER_RE.match(time_token):
        return f"{prefix}bad time {time_token!r} (non-negative seconds)"
    if x_sep and not _NUMBER_RE.match(factor_token):
        return f"{prefix}bad slowdown factor {factor_token!r}"
    if until_sep and not _NUMBER_RE.match(until_token):
        return (f"{prefix}bad 'until' time {until_token!r} "
                "(non-negative seconds)")
    return (f"{prefix}expected kind:db<shard>@<t>[x<factor>]"
            f"[:until=<t>] with kind in {FAULT_KINDS}")


def parse_fault_spec(spec: str) -> FaultEvent:
    """Parse one ``--inject`` spec, e.g. ``crash:db1@5`` (crash shard 1
    at t=5s), ``slow:db0@3x4:until=8`` (4x slowdown on shard 0 between
    t=3s and t=8s), ``partition:db1@2:until=6``.

    Every malformed shape raises :class:`FaultSpecError` with the
    offending token quoted in the message.
    """
    text = spec.strip()
    match = _FAULT_RE.match(text)
    if match is None:
        raise FaultSpecError(_diagnose_fault_spec(spec, text))
    kind = match.group("kind")
    factor = match.group("factor")
    if factor is not None and kind != "slow":
        raise FaultSpecError(
            f"bad fault spec {spec!r}: only slow faults take a factor "
            f"(got 'x{factor}' on a {kind} fault)"
        )
    until = match.group("until")
    try:
        return FaultEvent(
            kind=kind,
            shard=int(match.group("shard")),
            at=float(match.group("at")),
            factor=float(factor) if factor is not None else 4.0,
            until=float(until) if until is not None else None,
        )
    except FaultSpecError:
        raise
    except ValueError as exc:
        # Semantic validation (e.g. until <= at) re-raised as the one
        # spec-error type, keeping the offending spec in the message.
        raise FaultSpecError(f"bad fault spec {spec!r}: {exc}") from exc


class FaultInjector:
    """Schedules :class:`FaultEvent`s onto a virtual-clock event loop.

    Decoupled from the serve engine: the target supplies the three
    hooks (``crash_shard``, ``set_shard_slowdown``,
    ``set_shard_partition``) and the injector only sequences them, so
    the same injector drives serve runs and bare cluster tests.
    """

    def __init__(self, events: list[FaultEvent]) -> None:
        self.events = sorted(events, key=lambda e: (e.at, e.shard, e.kind))
        self.fired: list[tuple[float, str]] = []

    def schedule(
        self,
        schedule_at: Callable[[float, Callable[[], None]], object],
        *,
        crash_shard: Callable[[int], None],
        set_shard_slowdown: Callable[[int, float], None],
        set_shard_partition: Callable[[int, bool], None],
        set_storage_fault: Optional[Callable[[str, int, bool], None]] = None,
    ) -> None:
        """Register every event with ``schedule_at(when, action)``.

        ``set_storage_fault(kind, shard, active)`` handles the storage
        kinds (tornwrite / corrupt / fsyncfail); it is optional so
        callers without a WAL keep working, but scheduling a storage
        event without the hook is an error rather than a silent no-op.
        """
        storage_events = [
            e for e in self.events if e.kind in STORAGE_FAULT_KINDS
        ]
        if storage_events and set_storage_fault is None:
            raise ValueError(
                f"storage fault {storage_events[0].kind!r} needs a "
                "set_storage_fault hook (a WAL-backed target)"
            )
        for event in self.events:
            if event.kind in STORAGE_FAULT_KINDS:
                self._arm(
                    schedule_at, event.at,
                    f"{event.kind} db{event.shard}",
                    lambda e=event: set_storage_fault(e.kind, e.shard, True),
                )
                if event.until is not None:
                    self._arm(
                        schedule_at, event.until,
                        f"heal {event.kind} db{event.shard}",
                        lambda e=event: set_storage_fault(
                            e.kind, e.shard, False
                        ),
                    )
            elif event.kind == "crash":
                self._arm(schedule_at, event.at, f"crash db{event.shard}",
                          lambda e=event: crash_shard(e.shard))
            elif event.kind == "slow":
                self._arm(
                    schedule_at, event.at,
                    f"slow db{event.shard} x{event.factor:g}",
                    lambda e=event: set_shard_slowdown(e.shard, e.factor),
                )
                if event.until is not None:
                    self._arm(
                        schedule_at, event.until,
                        f"restore db{event.shard} speed",
                        lambda e=event: set_shard_slowdown(e.shard, 1.0),
                    )
            else:  # partition
                self._arm(
                    schedule_at, event.at, f"partition db{event.shard}",
                    lambda e=event: set_shard_partition(e.shard, True),
                )
                if event.until is not None:
                    self._arm(
                        schedule_at, event.until, f"heal db{event.shard}",
                        lambda e=event: set_shard_partition(e.shard, False),
                    )

    def _arm(self, schedule_at, when: float, label: str, action) -> None:
        def fire() -> None:
            self.fired.append((when, label))
            action()

        schedule_at(when, fire)


# The recorder's pending-CPU side for the application server (database
# shards are their own index), and the stage kinds bound once.
_APP_SIDE = -1
_APP_CPU = StageKind.APP_CPU
_DB_CPU = StageKind.DB_CPU
_NET_TO_DB = StageKind.NET_TO_DB
_NET_TO_APP = StageKind.NET_TO_APP
_new_stage = tuple.__new__


@dataclass(frozen=True)
class ClusterConfig:
    """Configuration mirroring the paper's testbed.

    Paper defaults: 8-core application server, 16-core database server,
    2 ms round-trip network.  The limited-CPU experiments use
    ``db_cores=3``.  ``db_shards`` > 1 models a horizontally sharded
    database tier: N independent database servers of ``db_cores``
    each, with DB work attributed to the shard the statement router
    last executed on.
    """

    app_cores: int = 8
    db_cores: int = 16
    one_way_latency: float = 0.001
    bandwidth: float = 125_000_000.0
    per_message_overhead: int = 64
    db_shards: int = 1

    def __post_init__(self) -> None:
        if self.db_shards < 1:
            raise ValueError("a cluster needs at least one database shard")


class Cluster:
    """Two servers plus a network, with trace recording.

    While a partitioned program runs, the runtime calls
    :meth:`record_cpu` and :meth:`record_message`; the cluster folds
    consecutive CPU work on the same server into a single stage so the
    resulting :class:`TransactionTrace` stays compact.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.config = config if config is not None else ClusterConfig()
        model = cost_model if cost_model is not None else CostModel()
        self.clock = VirtualClock()
        self.app = Server("app", cores=self.config.app_cores, cost_model=model)
        shards = self.config.db_shards
        self.db_servers = [
            Server(
                "db" if shards == 1 else f"db{i}",
                cores=self.config.db_cores,
                cost_model=model,
            )
            for i in range(shards)
        ]
        # The classic single-server handle; with shards it names the
        # first database server (callers wanting the tier use
        # ``db_servers``).
        self.db = self.db_servers[0]
        self.network = NetworkModel(
            one_way_latency=self.config.one_way_latency,
            bandwidth=self.config.bandwidth,
            per_message_overhead=self.config.per_message_overhead,
        )
        self._stages: list[Stage] = []
        # CPU accumulates lazily and is flushed into a Stage when a
        # message interleaves, the charged side changes or the trace
        # ends; this keeps per-operation accounting cheap on the
        # runtime's hot path.  record_cpu flushes before it charges a
        # different side, so at most one side ever holds pending CPU:
        # one float plus the side it belongs to (-1 = the application
        # server, n = database shard n) is the whole pending state.
        self._pending = 0.0
        self._pending_side = _APP_SIDE
        # Which database shard the router last executed a statement on
        # -- "db" CPU charges from the runtime land there.
        self._statement_shard = 0
        # Fault injection: active latency-inflation factors per shard
        # (a slowed shard's CPU charges stretch by the factor).
        self._shard_slowdowns: dict[int, float] = {}

    @property
    def db_shards(self) -> int:
        return len(self.db_servers)

    def server(self, name: str) -> Server:
        if name == "app":
            return self.app
        if name == "db":
            return self.db
        if name.startswith("db"):
            try:
                return self.db_servers[int(name[2:])]
            except (ValueError, IndexError):
                pass
        raise KeyError(f"unknown server {name!r}")

    # -- shard attribution ---------------------------------------------------

    def set_statement_shard(self, shard: int) -> None:
        """Attribute subsequent "db" CPU to ``shard``.

        The sharded workload wiring hooks every shard database's
        observer to this, so the runtime's per-statement DB charges
        (and DB-placed block execution, which stays co-located with
        the data it just touched) land on the server that did the
        work.
        """
        if not 0 <= shard < len(self.db_servers):
            raise ValueError(f"unknown database shard {shard}")
        self._statement_shard = shard

    def attach_sharded_database(self, sharded_db) -> None:
        """Wire a :class:`~repro.db.shard.ShardedDatabase`'s per-shard
        observers so statement execution steers DB-CPU attribution."""
        if len(sharded_db.shards) != len(self.db_servers):
            raise ValueError(
                f"database has {len(sharded_db.shards)} shard(s) but the "
                f"cluster has {len(self.db_servers)} database server(s)"
            )
        # Indexes validated by the length check: per statement, assign.
        for index, shard_db in enumerate(sharded_db.shards):
            shard_db.observer = (
                lambda op, table, rows, index=index:
                setattr(self, "_statement_shard", index)
            )

    def set_shard_slowdown(self, shard: int, factor: float) -> None:
        """Inflate (or with 1.0 restore) one shard server's CPU cost.

        Models a degraded database server: every subsequent DB-CPU
        charge attributed to ``shard`` stretches by ``factor``.
        """
        if not 0 <= shard < len(self.db_servers):
            raise ValueError(f"unknown database shard {shard}")
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        if factor == 1.0:
            self._shard_slowdowns.pop(shard, None)
        else:
            self._shard_slowdowns[shard] = factor

    # -- trace recording ----------------------------------------------------

    def record_cpu(self, server: str, seconds: float) -> None:
        """Charge CPU time on ``server`` and extend the current trace."""
        if seconds <= 0:
            if seconds < 0:
                raise ValueError("cannot charge negative CPU time")
            return
        if server == "app":
            side = _APP_SIDE
        else:
            if server == "db":
                side = self._statement_shard
            elif server.startswith("db"):
                side = int(server[2:])
            else:
                raise KeyError(f"unknown server {server!r}")
            if self._shard_slowdowns:
                factor = self._shard_slowdowns.get(side)
                if factor is not None:
                    seconds *= factor
        if side != self._pending_side:
            if self._pending:
                self._flush_cpu()
            self._pending_side = side
        self._pending += seconds

    def _flush_cpu(self) -> None:
        seconds = self._pending
        if not seconds:
            return
        self._pending = 0.0
        side = self._pending_side
        if side == _APP_SIDE:
            kind, shard = _APP_CPU, 0
        else:
            kind, shard = _DB_CPU, side
        # record_cpu refused negative charges, so the clock's and
        # Stage's own re-validation is skipped here and below.
        self.clock._now += seconds  # noqa: SLF001
        stages = self._stages
        # Only a message that failed after its flush (a partitioned
        # link) leaves a CPU stage last; extend it rather than split.
        if stages:
            prev = stages[-1]
            if prev.kind is kind and prev.shard == shard:
                stages[-1] = _new_stage(
                    Stage, (kind, prev.duration + seconds, prev.nbytes, shard)
                )
                return
        stages.append(_new_stage(Stage, (kind, seconds, 0, shard)))

    def record_message(
        self, nbytes: int, *, to_db: bool, cpu: float = 0.0
    ) -> float:
        """Record a one-way message; returns its delivery delay.  ``cpu``
        (a DB reply carries its statement's cost) makes this exactly
        ``record_cpu('app' if to_db else 'db', cpu)`` first, in one frame.
        """
        if cpu:
            if cpu < 0:
                raise ValueError("cannot charge negative CPU time")
            side = _APP_SIDE if to_db else self._statement_shard
            if not to_db and self._shard_slowdowns:
                cpu *= self._shard_slowdowns.get(side, 1.0)  # x * 1.0 == x
            if side != self._pending_side:
                if self._pending:
                    self._flush_cpu()
                self._pending_side = side
            self._pending += cpu
        if self._pending:
            self._flush_cpu()
        delay = self.network.send(nbytes, to_db=to_db)
        self.clock._now += delay  # noqa: SLF001
        self._stages.append(_new_stage(
            Stage, (_NET_TO_DB if to_db else _NET_TO_APP, 0.0, nbytes, 0)
        ))
        return delay

    def start_trace(self) -> None:
        self._flush_cpu()
        self._stages = []

    def finish_trace(self, name: str) -> TransactionTrace:
        self._flush_cpu()
        trace = TransactionTrace(name=name, stages=tuple(self._stages))
        self._stages = []
        return trace

    def reset(self) -> None:
        self.clock.reset()
        self.app.reset()
        for server in self.db_servers:
            server.reset()
        self.network.reset_stats()
        self._stages = []
        self._pending = 0.0
        self._statement_shard = 0
        self._shard_slowdowns = {}
