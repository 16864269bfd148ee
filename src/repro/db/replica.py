"""Replica groups: log-shipped replication for one shard.

Each shard of a :class:`~repro.db.shard.ShardedDatabase` can be a
**replica group** -- a primary :class:`~repro.db.engine.Database` plus
N replicas kept in sync by shipping a per-shard ordered commit log.
The log is derived from the transaction layer's undo records: at
mutation time the transaction also captures the *after-image* of each
touched row (a :class:`RedoOp`), and on commit the batch is appended
to the group's :class:`CommitLog` and delivered to every connected
replica.  Replicas apply ops with explicit rowids -- they never
allocate -- so a promoted replica is bit-identical to the primary,
including the global-rowid scan order the scatter merge depends on.

Failover: :meth:`ReplicaGroup.crash_primary` marks the primary dead,
:meth:`ReplicaGroup.promote` picks the most caught-up replica (highest
applied LSN, lowest index on ties), replays the tail of the commit log
into it (catch-up recovery), and swaps it in as the new primary under
a bumped ``generation`` -- routers compare generations to notice the
swap and refresh any state bound to the dead database object.

The in-memory log **empties itself**: after every commit and every
catch-up the group drops the entries below the minimum applied LSN
over *all* of its replicas, connected or not -- an entry goes only
when nobody can still ask for it, so a healthy group holds none
between commits and its ``RedoOp`` objects die young instead of
piling up for the cyclic collector to walk.  ``retention`` bounds what
a *partitioned* replica may pin (past it that replica will resync).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.db.engine import Database
from repro.db.errors import ShardError
from repro.obs.trace import NULL_TRACER


class RedoOp:
    """One replayable mutation: the after-image of a touched row.

    ``kind`` is ``insert`` / ``update`` / ``delete``; ``after`` is the
    full row tuple (None for deletes).  Slotted like UndoRecord: one is
    allocated per mutated row on every replicated write.
    """

    __slots__ = ("table", "kind", "rowid", "after")

    def __init__(
        self,
        table: str,
        kind: str,
        rowid: int,
        after: Optional[tuple],
    ) -> None:
        self.table = table
        self.kind = kind
        self.rowid = rowid
        self.after = after

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RedoOp(table={self.table!r}, kind={self.kind!r}, "
            f"rowid={self.rowid}, after={self.after!r})"
        )


@dataclass(frozen=True)
class LogEntry:
    """One committed transaction's ops, at a log sequence number."""

    lsn: int
    ops: tuple[RedoOp, ...]


@dataclass
class CommitLogStats:
    """Retention counters (truncation is silent otherwise)."""

    truncated: int = 0


class CommitLog:
    """Ordered, append-only log of committed transactions.

    ``base_lsn`` is the truncation low-water mark: entries at or below
    it have been dropped (every replica that could still ask for them
    had applied them), so in-memory growth stays bounded on long serve
    runs.  LSNs keep counting from where they were -- truncation never
    renumbers.
    """

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        self.base_lsn = 0
        self.stats = CommitLogStats()

    @property
    def tip(self) -> int:
        """LSN of the newest entry (``base_lsn`` when empty)."""
        return self.base_lsn + len(self.entries)

    def append(self, ops: list[RedoOp]) -> int:
        entry = LogEntry(self.tip + 1, tuple(ops))
        self.entries.append(entry)
        return entry.lsn

    def entries_after(self, lsn: int) -> list[LogEntry]:
        """Entries with LSN strictly greater than ``lsn``, in order."""
        if lsn < self.base_lsn:
            raise ShardError(
                f"log truncated to LSN {self.base_lsn}; cannot replay "
                f"from {lsn} (a full resync is required)"
            )
        return self.entries[lsn - self.base_lsn:]

    def truncate_below(self, lsn: int) -> int:
        """Drop entries with LSN <= ``lsn``; returns how many."""
        drop = min(lsn, self.tip) - self.base_lsn
        if drop <= 0:
            return 0
        del self.entries[:drop]
        self.base_lsn += drop
        self.stats.truncated += drop
        return drop


@dataclass
class Replica:
    """One replica: a database plus its replication-stream position."""

    database: Database
    applied_lsn: int = 0
    # False while the replication link is partitioned away; the replica
    # stops applying and falls behind until reconnect + catch-up.
    connected: bool = True


@dataclass(frozen=True)
class PromotionReport:
    """What a failover did: who won and how much tail was replayed."""

    group: str
    chosen: int
    applied_lsn: int
    replayed: int
    generation: int


@dataclass
class ReplicationStats:
    """Per-group shipping counters (deterministic, test-visible)."""

    entries_shipped: int = 0
    ops_shipped: int = 0
    # Replicas rebuilt by full snapshot copy because the log had been
    # truncated past their position (reconnect after long partition).
    resyncs: int = 0


class ReplicaGroup:
    """A primary plus its log-shipped replicas for one shard."""

    def __init__(self, primary: Database, n_replicas: int) -> None:
        if n_replicas < 1:
            raise ShardError("a replica group needs at least one replica")
        self.name = primary.name
        self.primary = primary
        self.log = CommitLog()
        self.replicas: list[Replica] = [
            Replica(Database(f"{primary.name}/replica{i}"))
            for i in range(n_replicas)
        ]
        self.generation = 0
        self.crashed = False
        self.stats = ReplicationStats()
        self.promotions: list[PromotionReport] = []
        # Observability: the serving engine swaps in its tracer so log
        # shipping and promotions land on the shared timeline.
        self.tracer = NULL_TRACER
        # Durability: attach_wal points this at the shard's ShardWal,
        # and every committed batch is logged before it ships.
        self.wal = None
        # Retention policy: past this many in-memory entries a
        # *partitioned* replica stops pinning the log and will resync
        # (None = it is always caught up from the log, however long).
        self.retention: Optional[int] = None
        primary.redo_collector = self.commit_redo

    # -- schema / bootstrap --------------------------------------------------

    def mirror_create_table(self, name, columns, primary_key, indexes=()):
        """Create ``name`` on every replica (DDL is not logged; the
        sharded tier mirrors it at table-creation time).  Each replica
        table then shares the *primary's* rowid counter object, so a
        promoted replica keeps allocating from the globally correct
        position."""
        primary_table = self.primary.table(name)
        for replica in self.replicas:
            table = replica.database.create_table(
                name, columns, primary_key, indexes
            )
            table.use_rowid_counter(primary_table._next_rowid)

    def bootstrap_insert(self, name: str, rowid: int, row: tuple) -> None:
        """Propagate an initial-load insert outside the log (bulk load
        happens before serving starts; logging it would make catch-up
        replay the whole dataset)."""
        for replica in self.replicas:
            replica.database.table(name).apply_insert(rowid, row)

    # -- log shipping --------------------------------------------------------

    def commit_redo(self, ops: list[RedoOp]) -> int:
        """Append one committed transaction and ship to replicas.

        With a WAL attached the batch is made durable *before* it
        ships -- the disk frame, not the in-memory log, is the record
        of truth a restart recovers from.
        """
        if self.wal is not None:
            self.wal.commit_ops(ops)
        lsn = self.log.append(ops)
        if self.tracer.active:
            self.tracer.instant(
                "replication.ship", track="replication",
                group=self.name, lsn=lsn, ops=len(ops),
            )
        for replica in self.replicas:
            self._deliver(replica)
        self._drop_applied()
        self._enforce_retention()
        return lsn

    def _drop_applied(self) -> None:
        """Drop the in-memory entries nobody can still ask for: those
        at or below the minimum applied LSN over *all* replicas,
        connected or not.  Runs after every commit and every catch-up,
        so a healthy group holds no entry between commits while a
        lagging or partitioned replica still finds its whole tail."""
        self.log.truncate_below(
            min((r.applied_lsn for r in self.replicas), default=self.log.tip)
        )

    def _enforce_retention(self) -> None:
        """Past ``retention`` entries, truncate further than
        :meth:`_drop_applied` does.

        The floor is the minimum applied LSN across *connected*
        replicas: a partitioned replica stops pinning the log (it will
        resync on reconnect), but while every replica is partitioned
        nothing is truncated -- dropping entries nobody applied would
        turn every reconnect into a full resync.
        """
        if self.retention is None or len(self.log.entries) <= self.retention:
            return
        applied = [r.applied_lsn for r in self.replicas if r.connected]
        if not applied:
            return
        self.log.truncate_below(min(applied))

    def _resync(self, replica: Replica) -> None:
        """Rebuild a replica whose position fell below the truncated
        log: full snapshot copy from the primary, then stream."""
        for table in self.primary.tables():
            name = table.schema.name
            table.ensure_scan_order()
            replica_table = replica.database.table(name)
            replica_table.truncate()
            for rowid, row in table.scan():
                replica_table.apply_insert(rowid, row)
            replica_table.ensure_scan_order()
        replica.applied_lsn = self.log.tip
        self.stats.resyncs += 1
        if self.tracer.active:
            self.tracer.instant(
                "replication.resync", track="replication",
                group=self.name, applied=replica.applied_lsn,
            )

    def _deliver(self, replica: Replica) -> None:
        """Apply every log entry the replica has not seen, in order."""
        if not replica.connected:
            return
        if replica.applied_lsn < self.log.base_lsn:
            self._resync(replica)
            return
        for entry in self.log.entries_after(replica.applied_lsn):
            self._apply_entry(replica.database, entry)
            replica.applied_lsn = entry.lsn
            self.stats.entries_shipped += 1
            self.stats.ops_shipped += len(entry.ops)

    @staticmethod
    def _apply_entry(database: Database, entry: LogEntry) -> None:
        touched: set[str] = set()
        for op in entry.ops:
            table = database.table(op.table)
            if op.kind == "delete":
                table.apply_delete(op.rowid)
            elif op.kind == "insert":
                table.apply_insert(op.rowid, op.after)
            else:
                table.apply_update(op.rowid, op.after)
            touched.add(op.table)
        for name in touched:
            database.table(name).ensure_scan_order()

    def set_replica_connected(self, index: int, connected: bool) -> None:
        """Partition a replica away from (or back onto) the stream.
        Reconnection immediately catches the replica up."""
        replica = self.replicas[index]
        replica.connected = connected
        if connected:
            self._deliver(replica)
            self._drop_applied()

    def catch_up(self, index: int) -> int:
        """Apply any pending tail to one replica; new applied LSN."""
        replica = self.replicas[index]
        behind = self.log.tip - replica.applied_lsn
        self._deliver(replica)
        self._drop_applied()
        if behind > 0 and self.tracer.active:
            self.tracer.instant(
                "replication.catch_up", track="replication",
                group=self.name, replica=index,
                applied=replica.applied_lsn, behind=behind,
            )
        return replica.applied_lsn

    # -- reads ---------------------------------------------------------------

    def read_replica(self, min_lsn: int) -> Optional[Database]:
        """A replica safe for read-your-writes at ``min_lsn``, if any.

        Scans in index order so the choice is deterministic; a replica
        behind the session watermark is skipped rather than waited on.
        """
        for replica in self.replicas:
            if replica.connected and replica.applied_lsn >= min_lsn:
                return replica.database
        return None

    def replication_lag(self) -> list[int]:
        """Entries behind the log tip, per replica."""
        tip = self.log.tip
        return [tip - replica.applied_lsn for replica in self.replicas]

    # -- failure / failover --------------------------------------------------

    def crash_primary(self) -> None:
        """Kill the primary: writes stop, the log stops growing, and
        the group waits for :meth:`promote`.  Already-appended entries
        remain shippable -- the log models the durable stream replicas
        pull from, so catch-up recovery can still drain it."""
        self.crashed = True
        self.primary.redo_collector = None

    def promote(self) -> PromotionReport:
        """Promote the most caught-up replica to primary.

        Choice rule: highest ``applied_lsn`` wins; ties break to the
        lowest replica index (deterministic under identical seeds).
        The winner replays the remaining log tail before taking over,
        and the group's generation is bumped so routers drop state
        bound to the dead primary.
        """
        if not self.replicas:
            raise ShardError(f"replica group {self.name!r} has no replica left")
        chosen = max(
            range(len(self.replicas)),
            key=lambda i: (self.replicas[i].applied_lsn, -i),
        )
        winner = self.replicas.pop(chosen)
        winner.connected = True
        if winner.applied_lsn < self.log.base_lsn:
            # Unreachable under the retention policy (truncation never
            # passes a connected replica, and the winner has the max
            # applied LSN) -- but promoting from a truncated hole would
            # silently lose commits, so fail loudly if it ever happens.
            raise ShardError(
                f"cannot promote replica {chosen} of {self.name!r}: log "
                f"truncated to {self.log.base_lsn}, replica applied "
                f"{winner.applied_lsn}"
            )
        behind = self.log.tip - winner.applied_lsn
        for entry in self.log.entries_after(winner.applied_lsn):
            self._apply_entry(winner.database, entry)
            winner.applied_lsn = entry.lsn
        self.primary.redo_collector = None
        self.primary = winner.database
        self.primary.redo_collector = self.commit_redo
        self.crashed = False
        self.generation += 1
        report = PromotionReport(
            group=self.name,
            chosen=chosen,
            applied_lsn=winner.applied_lsn,
            replayed=behind,
            generation=self.generation,
        )
        self.promotions.append(report)
        if self.tracer.active:
            self.tracer.instant(
                "replica.promote", track="replication",
                group=self.name, chosen=chosen, replayed=behind,
                generation=self.generation,
            )
        # Surviving replicas keep following the same log.
        for replica in self.replicas:
            self._deliver(replica)
        self._drop_applied()
        return report

    # -- verification --------------------------------------------------------

    def assert_replicas_consistent(self) -> None:
        """After catch-up, every replica must equal the primary
        bit-for-bit: same rows, same rowids, same scan order."""
        for index, replica in enumerate(self.replicas):
            self._deliver(replica)
            for table in self.primary.tables():
                name = table.schema.name
                theirs = list(replica.database.table(name).scan())
                ours = list(table.scan())
                if theirs != ours:  # pragma: no cover - failure path
                    raise AssertionError(
                        f"replica {index} of {self.name!r} diverged on "
                        f"table {name!r}"
                    )
