"""Transactions: undo logging and strict two-phase locking.

The paper's motivation is latency-sensitive *transactional* workloads
("longer-latency transactions hold locks longer, which can severely
limit maximum system throughput").  This module provides the
transactional substrate: a lock manager with shared/exclusive table
and row locks, lock upgrades, a wait-for graph with cycle-based
deadlock detection, and transactions that roll back via undo records.

Execution in the reproduction is single-threaded (concurrency effects
are modeled by the queueing simulator), so the lock manager exposes a
cooperative interface: :meth:`LockManager.acquire` either grants
immediately, queues the request (returning ``False``), or raises
:class:`DeadlockError` when queuing would create a wait-for cycle.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.db.engine import Database, UndoRecord
from repro.db.errors import (
    DeadlockError,
    LockTimeoutError,
    ShardDownError,
    TransactionError,
    TwoPhaseAbortError,
)
from repro.db.replica import RedoOp
from repro.obs.trace import NULL_TRACER


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


class _LockState:
    """Holders and waiters for one resource."""

    __slots__ = ("holders", "waiters")

    def __init__(self) -> None:
        self.holders: dict[int, LockMode] = {}
        self.waiters: deque = deque()  # (txn_id, mode)


Resource = Hashable


class LockManager:
    """Table/row lock manager with deadlock detection.

    Resources are arbitrary hashable values; the convention used by the
    engine is ``("table", name)`` and ``("row", table, rowid)``.
    """

    def __init__(self) -> None:
        self._locks: dict[Resource, _LockState] = {}
        # wait-for edges: waiter txn -> set of holder txns
        self._waits_for: dict[int, set[int]] = {}
        self._held_by_txn: dict[int, set[Resource]] = {}
        self.grant_callback: Optional[Callable[[int, Resource], None]] = None

    # -- introspection ----------------------------------------------------------

    def holders(self, resource: Resource) -> dict[int, LockMode]:
        state = self._locks.get(resource)
        return dict(state.holders) if state else {}

    def held_by(self, txn_id: int) -> frozenset[Resource]:
        return frozenset(self._held_by_txn.get(txn_id, frozenset()))

    def waiting(self, resource: Resource) -> list[tuple[int, LockMode]]:
        state = self._locks.get(resource)
        return list(state.waiters) if state else []

    def wait_for_edges(self) -> dict[int, frozenset[int]]:
        return {k: frozenset(v) for k, v in self._waits_for.items() if v}

    # -- acquisition --------------------------------------------------------------

    def _can_grant(
        self, state: _LockState, txn_id: int, mode: LockMode
    ) -> bool:
        others = {t: m for t, m in state.holders.items() if t != txn_id}
        if not others:
            return True
        if mode is LockMode.SHARED:
            return all(m is LockMode.SHARED for m in others.values())
        return False

    def acquire(
        self,
        txn_id: int,
        resource: Resource,
        mode: LockMode = LockMode.EXCLUSIVE,
        *,
        wait: bool = True,
    ) -> bool:
        """Request a lock.

        Returns ``True`` if granted now.  If the lock conflicts and
        ``wait`` is true, the request is queued and ``False`` returned,
        unless queuing would create a deadlock, in which case
        :class:`DeadlockError` is raised (the requester is the victim).
        With ``wait=False`` a conflict raises :class:`LockTimeoutError`.
        """
        state = self._locks.get(resource)
        if state is None:
            state = self._locks[resource] = _LockState()
        held = state.holders.get(txn_id)
        if held is not None:
            if held is LockMode.EXCLUSIVE or held is mode:
                return True  # reentrant
            # Upgrade S -> X: allowed when sole holder.
            if self._can_grant(state, txn_id, LockMode.EXCLUSIVE):
                state.holders[txn_id] = LockMode.EXCLUSIVE
                return True
            return self._enqueue(txn_id, resource, mode, state, wait)
        if self._can_grant(state, txn_id, mode):
            state.holders[txn_id] = mode
            self._held_by_txn.setdefault(txn_id, set()).add(resource)
            # A compatible request can be granted past queued waiters
            # (S alongside S holders); those waiters are now blocked
            # by this holder too and need wait-for edges to it, or a
            # later cycle closes undetected.
            self._refresh_waiter_edges(state)
            return True
        return self._enqueue(txn_id, resource, mode, state, wait)

    def _refresh_waiter_edges(self, state: _LockState) -> None:
        """Point every queued waiter's wait-for edges at the current
        holder set.  Callers invoke this whenever the holders of a
        resource change while its queue is non-empty; stale or missing
        edges turn detectable deadlocks into permanent stalls."""
        for txn_id, _ in state.waiters:
            blockers = {t for t in state.holders if t != txn_id}
            if blockers:
                self._waits_for.setdefault(txn_id, set()).update(blockers)

    def _enqueue(
        self,
        txn_id: int,
        resource: Resource,
        mode: LockMode,
        state: _LockState,
        wait: bool,
    ) -> bool:
        blockers = {t for t in state.holders if t != txn_id}
        if not wait:
            raise LockTimeoutError(txn_id, resource)
        self._waits_for.setdefault(txn_id, set()).update(blockers)
        cycle = self._find_cycle(txn_id)
        if cycle is not None:
            self._waits_for[txn_id].difference_update(blockers)
            if not self._waits_for[txn_id]:
                del self._waits_for[txn_id]
            raise DeadlockError(txn_id, cycle)
        state.waiters.append((txn_id, mode))
        return False

    def _find_cycle(self, start: int) -> Optional[list[int]]:
        """DFS over the wait-for graph looking for a cycle through start."""
        path: list[int] = []
        visited: set[int] = set()

        def dfs(node: int) -> Optional[list[int]]:
            if node in path:
                return path[path.index(node):] + [node]
            if node in visited:
                return None
            visited.add(node)
            path.append(node)
            for nxt in sorted(self._waits_for.get(node, ())):
                found = dfs(nxt)
                if found is not None:
                    return found
            path.pop()
            return None

        return dfs(start)

    # -- release --------------------------------------------------------------------

    def release_all(self, txn_id: int) -> list[tuple[int, Resource]]:
        """Release everything ``txn_id`` holds; grant eligible waiters.

        Returns the list of (txn_id, resource) grants made, so a
        cooperative scheduler can resume the lucky waiters.

        The released transaction's own queued requests and wait-for
        edges are purged *before* any waiter is granted: granting
        first could hand a queued S->X upgrade back to the departing
        transaction, re-populating ``_held_by_txn`` after the pop (a
        permanently leaked lock) and firing ``grant_callback`` for a
        transaction that no longer exists.
        """
        grants: list[tuple[int, Resource]] = []
        self._waits_for.pop(txn_id, None)
        for waiter_edges in self._waits_for.values():
            waiter_edges.discard(txn_id)
        self._waits_for = {k: v for k, v in self._waits_for.items() if v}
        for state in self._locks.values():
            if any(t == txn_id for t, _ in state.waiters):
                state.waiters = deque(
                    (t, m) for t, m in state.waiters if t != txn_id
                )
        resources = self._held_by_txn.pop(txn_id, set())
        for resource in list(resources):
            state = self._locks.get(resource)
            if state is None:
                continue
            state.holders.pop(txn_id, None)
            grants.extend(self._grant_waiters(resource, state))
        for resource, state in list(self._locks.items()):
            if not state.holders and not state.waiters:
                del self._locks[resource]
        return grants

    def _next_grantable(self, state: _LockState) -> Optional[int]:
        """Index of the queued request to grant next, or ``None``.

        Upgrade requests (the waiter already holds S and asks for X)
        get queue priority: an upgrader can never be granted while it
        sits behind another transaction's X request -- its own S hold
        blocks that request -- and the wait-for graph only tracks
        holders, so leaving it mid-queue is an undetectable permanent
        stall.  Fresh requests stay FIFO: only the queue head is
        considered, so granted S batches never starve a queued X.
        """
        for index, (txn_id, mode) in enumerate(state.waiters):
            upgrade = (
                state.holders.get(txn_id) is LockMode.SHARED
                and mode is LockMode.EXCLUSIVE
            )
            if upgrade and self._can_grant(state, txn_id, mode):
                return index
        if state.waiters:
            txn_id, mode = state.waiters[0]
            if txn_id not in state.holders and self._can_grant(
                state, txn_id, mode
            ):
                return 0
        return None

    def _grant_waiters(
        self, resource: Resource, state: _LockState
    ) -> list[tuple[int, Resource]]:
        grants: list[tuple[int, Resource]] = []
        while state.waiters:
            index = self._next_grantable(state)
            if index is None:
                break
            txn_id, mode = state.waiters[index]
            del state.waiters[index]
            held = state.holders.get(txn_id)
            if held is LockMode.SHARED and mode is LockMode.EXCLUSIVE:
                state.holders[txn_id] = LockMode.EXCLUSIVE
            else:
                state.holders[txn_id] = mode
            self._held_by_txn.setdefault(txn_id, set()).add(resource)
            edges = self._waits_for.get(txn_id)
            if edges is not None:
                edges.clear()
                del self._waits_for[txn_id]
            grants.append((txn_id, resource))
            if self.grant_callback is not None:
                self.grant_callback(txn_id, resource)
        # Grants rewire who blocks whom for the waiters left behind.
        self._refresh_waiter_edges(state)
        return grants


class TxnState(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction: undo log + lock set.

    Obtained from :meth:`repro.db.jdbc.Connection.begin` (or created
    directly in tests).  Strict 2PL: locks are held until commit or
    rollback.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        database: Database,
        lock_manager: Optional[LockManager] = None,
        *,
        wait_for_locks: bool = False,
        snapshot: bool = False,
    ) -> None:
        self.id = next(Transaction._ids)
        self.database = database
        self.lock_manager = lock_manager
        self.wait_for_locks = wait_for_locks
        self.state = TxnState.ACTIVE
        self._undo: list[UndoRecord] = []
        # Table resource -> the mode of our last granted request for it
        # (never stronger than what the manager holds for us), so a
        # statement re-locking a table in a covered mode skips the
        # manager.  Filled only after a grant; emptied at commit and
        # rollback, when the manager releases everything.
        self._table_locks: dict[Resource, LockMode] = {}
        # Redo capture is on only when the database is a replica-group
        # primary (its group installed a collector); unreplicated
        # databases pay nothing for the replication path.
        self._redo: Optional[list[RedoOp]] = (
            [] if database.redo_collector is not None else None
        )
        self.last_commit_lsn: Optional[int] = None
        # MVCC: a snapshot transaction pins its read timestamp at
        # begin, never takes locks, and is read-only; a writer under
        # MVCC registers its undo log so snapshot readers can strip
        # uncommitted rows.  ``_mvcc`` is bound once -- enable MVCC on
        # the database before opening transactions.
        if snapshot:
            self._mvcc = database.enable_mvcc()
            self.snapshot_ts: Optional[int] = self._mvcc.pin()
        else:
            self._mvcc = database.mvcc
            self.snapshot_ts = None
        self._mvcc_registered = False
        # Per-transaction snapshot reconstruction cache, managed by the
        # connection layer (repro.db.jdbc) for divergent tables.
        self.snapshot_db: Optional[Database] = None
        self.snapshot_conn = None
        self.snapshot_tables: set[str] = set()

    # -- lock helpers ------------------------------------------------------------

    def _check_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.id} is {self.state.value}, not active"
            )

    def ensure_active(self) -> None:
        """Public liveness check: the compiled executor verifies once
        per statement instead of once per lock/undo call."""
        self._check_active()

    def lock_table(self, table: str, *, exclusive: bool = True) -> None:
        self._check_active()
        if self.snapshot_ts is not None:
            if exclusive:
                raise TransactionError(
                    f"snapshot transaction {self.id} is read-only"
                )
            return  # snapshot readers never take read locks
        if self.lock_manager is None:
            return
        resource = ("table", table.lower())
        held = self._table_locks.get(resource)
        if held is LockMode.EXCLUSIVE or (held is not None and not exclusive):
            return
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
        granted = self.lock_manager.acquire(
            self.id, resource, mode, wait=self.wait_for_locks
        )
        if not granted:
            raise LockTimeoutError(self.id, resource)
        self._table_locks[resource] = mode

    def lock_row(self, table: str, rowid: int, *, exclusive: bool = True) -> None:
        self._check_active()
        if self.snapshot_ts is not None:
            if exclusive:
                raise TransactionError(
                    f"snapshot transaction {self.id} is read-only"
                )
            return  # snapshot readers never take read locks
        if self.lock_manager is None:
            return
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
        resource = ("row", table.lower(), rowid)
        granted = self.lock_manager.acquire(
            self.id, resource, mode, wait=self.wait_for_locks
        )
        if not granted:
            raise LockTimeoutError(self.id, resource)

    # -- undo ---------------------------------------------------------------------

    def _register_mvcc(self) -> None:
        """First-mutation MVCC bookkeeping: reject writes on snapshot
        (read-only) transactions and expose this writer's undo log to
        snapshot readers."""
        if self.snapshot_ts is not None:
            raise TransactionError(
                f"snapshot transaction {self.id} is read-only"
            )
        if not self._mvcc_registered:
            self._mvcc.register(self)
            self._mvcc_registered = True

    def record_undo(self, record: UndoRecord) -> None:
        self._check_active()
        if self._mvcc is not None:
            self._register_mvcc()
        self._undo.append(record)
        if self._redo is not None:
            self._capture_redo(record)

    def record_undo_many(self, records: Iterable[UndoRecord]) -> None:
        """Append a statement's undo records in one call (the compiled
        executor batches per statement instead of appending per row)."""
        self._check_active()
        if self._mvcc is not None:
            self._register_mvcc()
        if self._redo is None:
            self._undo.extend(records)
            return
        records = list(records)
        self._undo.extend(records)
        for record in records:
            self._capture_redo(record)

    def record_undo_unchecked(self, record: UndoRecord) -> None:
        """Append without the liveness check: the compiled executor
        calls :meth:`ensure_active` (or acquires a lock, which checks)
        earlier in the same statement, and the state cannot change
        mid-statement in this single-threaded runtime."""
        if self._mvcc is not None:
            self._register_mvcc()
        self._undo.append(record)
        if self._redo is not None:
            self._capture_redo(record)

    def _capture_redo(self, record: UndoRecord) -> None:
        """Capture the after-image of the mutation ``record`` undoes.

        Runs at mutation time (the row's current value *is* the
        after-image), which stays correct for insert-then-delete
        sequences where a commit-time fetch would find nothing.
        """
        if record.kind == "delete":
            self._redo.append(RedoOp(record.table, "delete", record.rowid, None))
        else:
            after = self.database.table(record.table).fetch(record.rowid)
            self._redo.append(RedoOp(record.table, record.kind, record.rowid, after))

    @property
    def undo_depth(self) -> int:
        return len(self._undo)

    def pending_redo(self) -> "Optional[list[RedoOp]]":
        """The captured-so-far redo batch (None when capture is off).

        The 2PC coordinator reads this at prepare time to persist a
        participant's after-images in its shard's WAL prepare frame.
        """
        return self._redo

    # -- outcome ---------------------------------------------------------------------

    def _check_resolvable(self) -> None:
        if self.state not in (TxnState.ACTIVE, TxnState.PREPARED):
            raise TransactionError(
                f"transaction {self.id} is {self.state.value}, "
                "not active or prepared"
            )

    def prepare(self) -> None:
        """Vote yes in a two-phase commit: freeze the branch.

        A prepared branch keeps all its locks and its undo log -- it
        can still commit or roll back, but accepts no new work (every
        mutation path checks for ACTIVE).  Conflicting writers on this
        branch's shard therefore stay blocked until the coordinator
        resolves the transaction; other shards are unaffected.
        Idempotent on an already-prepared branch.
        """
        if self.state is TxnState.PREPARED:
            return
        self._check_active()
        self.state = TxnState.PREPARED

    def commit(self) -> None:
        self._check_resolvable()
        if self._redo:
            # Ship this transaction's redo batch to the replica group.
            # The collector is gone if the primary crashed after our
            # last mutation; the coordinator aborts such transactions
            # before reaching here, so losing the ship is correct
            # (presumed abort).
            collector = self.database.redo_collector
            if collector is not None:
                self.last_commit_lsn = collector(self._redo)
            self._redo = []
        if self._mvcc is not None:
            if self.snapshot_ts is not None:
                self._mvcc.unpin(self.snapshot_ts)
                self.snapshot_ts = None
            else:
                # Stamp before-images with the commit timestamp while
                # the undo log still holds them.
                self._mvcc.note_commit(self)
        self._undo.clear()
        self.state = TxnState.COMMITTED
        self._table_locks.clear()
        if self.lock_manager is not None:
            self.lock_manager.release_all(self.id)

    def rollback(self) -> None:
        self._check_resolvable()
        if self._redo is not None:
            self._redo = []
        touched: dict[str, Any] = {}
        for record in reversed(self._undo):
            table = touched.get(record.table)
            if table is None:
                table = self.database.table(record.table)
                touched[record.table] = table
            # Deferred reorder: restoring k deleted rows re-sorts each
            # table once, not once per row.
            table.undo(record, defer_reorder=True)
        for table in touched.values():
            table.ensure_scan_order()
        if self._mvcc is not None:
            if self.snapshot_ts is not None:
                self._mvcc.unpin(self.snapshot_ts)
                self.snapshot_ts = None
            else:
                # The in-place undo above restored the live rows, so
                # readers no longer need this writer's before-images.
                self._mvcc.forget(self)
        self._undo.clear()
        self.state = TxnState.ABORTED
        self._table_locks.clear()
        if self.lock_manager is not None:
            self.lock_manager.release_all(self.id)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state is TxnState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()


class ShardedTransaction:
    """Two-phase commit coordinator over per-shard branch transactions.

    The statement router opens one logical transaction; a branch
    :class:`Transaction` is minted lazily on the first statement that
    touches a shard, so single-shard transactions pay nothing for the
    shards they never visit.  Each branch keeps its own undo log and
    holds locks in its shard's lock manager.

    ``commit`` runs the classic protocol on the coordinator's virtual
    clock: a transaction that touched one shard commits directly
    (one-phase fast path); a cross-shard transaction first sends
    PREPARE to every touched shard and, once all vote yes, sends
    COMMIT -- two message rounds, each costing one network round trip
    when a clock is attached.  The ``timeline`` records every protocol
    event with its virtual timestamp for tests and reports.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        databases: "list[Database]",
        lock_managers: Optional["list[Optional[LockManager]]"] = None,
        *,
        wait_for_locks: bool = False,
        clock=None,
        one_way_latency: float = 0.0,
        groups=None,
        tracer=None,
        wal=None,
    ) -> None:
        if not databases:
            raise TransactionError("a sharded transaction needs shards")
        self.id = next(ShardedTransaction._ids)
        self.databases = databases
        self.lock_managers = lock_managers
        self.wait_for_locks = wait_for_locks
        self.clock = clock
        self.one_way_latency = one_way_latency
        # Optional repro.obs tracer: protocol rounds become spans on
        # the "2pc" track alongside the always-on timeline triples.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Per-shard ReplicaGroups (or None entries) when the database
        # tier is replicated: the coordinator snapshots each group's
        # generation at branch time and aborts on crash/promotion.
        self.groups = groups
        self._generations: dict[int, int] = {}
        # Durability (repro.db.wal.WalManager): cross-shard commits
        # write per-shard prepare frames and force a coordinator
        # decision record before any branch commits.
        self.wal = wal
        self.gtid = wal.next_gtid() if wal is not None else None
        self._wal_prepared_shards: list[int] = []
        self.state = TxnState.ACTIVE
        self._branches: dict[int, Transaction] = {}
        # (virtual time, protocol phase, event) triples; phases are
        # begin / prepare / commit / rollback / recovery.
        self.timeline: list[tuple[float, str, str]] = []
        # Per-shard commit LSNs (replicated tier): the router feeds
        # these into its read-your-writes session watermarks.
        self.commit_lsns: dict[int, int] = {}

    # -- branches ---------------------------------------------------------------

    def branch(self, shard: int) -> Transaction:
        """The branch transaction for ``shard`` (created on first use)."""
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"sharded transaction {self.id} is {self.state.value}, "
                "not active"
            )
        existing = self._branches.get(shard)
        if existing is not None:
            return existing
        if not 0 <= shard < len(self.databases):
            raise TransactionError(f"unknown shard {shard}")
        group = self.groups[shard] if self.groups is not None else None
        if group is not None:
            if group.crashed:
                raise ShardDownError(shard)
            self._generations[shard] = group.generation
        manager = (
            self.lock_managers[shard]
            if self.lock_managers is not None
            else None
        )
        branch = Transaction(
            self.databases[shard], manager,
            wait_for_locks=self.wait_for_locks,
        )
        self._branches[shard] = branch
        self._record("begin", f"begin shard {shard}")
        return branch

    def touched_shards(self) -> list[int]:
        return sorted(self._branches)

    @property
    def undo_depth(self) -> int:
        return sum(b.undo_depth for b in self._branches.values())

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _record(self, phase: str, event: str) -> None:
        self.timeline.append((self._now(), phase, event))
        if self.tracer.active:
            self.tracer.instant(
                f"2pc.{phase}", track="2pc", detail=event
            )

    def _advance_round_trip(self) -> None:
        if self.clock is not None and self.one_way_latency > 0:
            self.clock.advance(2.0 * self.one_way_latency)

    # -- failover (coordinator recovery) ----------------------------------------

    def _failover_check(self, phase: str) -> None:
        """Presumed abort: if any touched shard's primary crashed or
        was promoted since we branched there, no prepared work can
        survive (redo ships only at commit, and the dead primary's
        memory is gone), so the whole transaction aborts cleanly --
        every branch rolls back, releasing its locks."""
        if self.groups is None:
            return
        for shard in self.touched_shards():
            group = self.groups[shard]
            if group is None:
                continue
            snapshot = self._generations.get(shard, group.generation)
            if group.crashed or group.generation != snapshot:
                self._abort_for_failover(shard, phase)

    def _wal_clear_pending(self) -> None:
        """Forget this transaction's WAL prepare frames on abort, so
        checkpoint truncation can drop them (recovery would presume
        abort for them anyway -- no decision record exists)."""
        if self.wal is None:
            return
        for shard in self._wal_prepared_shards:
            self.wal.wal_for(shard).abort_prepare(self.gtid)
        self._wal_prepared_shards = []

    def _abort_for_failover(self, shard: int, phase: str) -> None:
        self._record(
            "recovery", f"abort: shard {shard} failed during {phase}"
        )
        self._wal_clear_pending()
        for touched in self.touched_shards():
            branch = self._branches[touched]
            if branch.state in (TxnState.ACTIVE, TxnState.PREPARED):
                # Undo applied to a dead primary is harmless (the
                # object is unreachable after promotion); what matters
                # is releasing the branch's locks, which live in the
                # connection-level lock managers, not the database.
                branch.rollback()
            self._record("rollback", f"rolled back shard {touched}")
        self.state = TxnState.ABORTED
        raise TwoPhaseAbortError(shard, phase)

    # -- protocol ---------------------------------------------------------------

    def prepare(self) -> None:
        """Phase 1: freeze every touched branch (coordinator-driven).

        Exposed separately so tests (and a future failure injector)
        can hold the transaction in the prepared-but-unresolved window
        where branch locks still block conflicting writers.
        """
        if self.state is TxnState.PREPARED:
            return
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"sharded transaction {self.id} is {self.state.value}, "
                "not active"
            )
        self._failover_check("prepare")
        span = self.tracer.span(
            "2pc.prepare", track="2pc", shards=len(self._branches),
        )
        self._record("prepare", "prepare sent")
        self._advance_round_trip()
        for shard in self.touched_shards():
            self._branches[shard].prepare()
            self._record("prepare", f"prepared shard {shard}")
        if self.wal is not None:
            # Persist each participant's redo in its shard log.  A
            # prepare that cannot be forced durable is a no vote: the
            # shard could not honor a later commit decision across a
            # crash, so the whole transaction aborts (presumed abort).
            for shard in self.touched_shards():
                redo = self._branches[shard].pending_redo()
                if not redo:
                    continue  # read-only participant: nothing to redo
                shard_wal = self.wal.wal_for(shard)
                shard_wal.log_prepare(self.gtid, redo)
                self._wal_prepared_shards.append(shard)
                if not shard_wal.sync():
                    self._record(
                        "prepare", f"shard {shard} vote no: prepare "
                        "record not durable"
                    )
                    span.finish()
                    self._wal_abort(shard, "prepare")
        span.finish()
        self.state = TxnState.PREPARED

    def _wal_abort(self, shard: int, phase: str) -> None:
        self._wal_clear_pending()
        for touched in self.touched_shards():
            branch = self._branches[touched]
            if branch.state in (TxnState.ACTIVE, TxnState.PREPARED):
                branch.rollback()
            self._record("rollback", f"rolled back shard {touched}")
        self.state = TxnState.ABORTED
        raise TwoPhaseAbortError(shard, phase)

    def commit(self) -> None:
        if self.state not in (TxnState.ACTIVE, TxnState.PREPARED):
            raise TransactionError(
                f"sharded transaction {self.id} is {self.state.value}, "
                "not active or prepared"
            )
        shards = self.touched_shards()
        if len(shards) <= 1 and self.state is TxnState.ACTIVE:
            # One-phase fast path: a single participant needs no vote.
            self._failover_check("commit")
            span = self.tracer.span(
                "2pc.commit", track="2pc", mode="1pc"
            )
            for shard in shards:
                branch = self._branches[shard]
                branch.commit()
                self._record("commit", f"committed shard {shard} (1pc)")
                if branch.last_commit_lsn is not None:
                    self.commit_lsns[shard] = branch.last_commit_lsn
            span.finish()
            self.state = TxnState.COMMITTED
            return
        if self.state is TxnState.ACTIVE:
            self.prepare()
        # A primary lost in the prepared window is detected here: the
        # coordinator recovery path aborts every branch instead of
        # committing a transaction whose shard can no longer apply it.
        self._failover_check("commit")
        if self.wal is not None and self._wal_prepared_shards:
            # The commit point: force the decision record.  If the
            # force fails the decision is NOT durable and presumed
            # abort applies -- a restart would discard the prepares,
            # so the live coordinator must abort too.
            if not self.wal.coordinator.log_commit(
                self.gtid, self._wal_prepared_shards
            ):
                self._record(
                    "commit", "commit decision not durable; aborting"
                )
                self._wal_abort(shards[0], "commit")
            self._record("commit", "commit decision durable")
        span = self.tracer.span(
            "2pc.commit", track="2pc", mode="2pc",
            shards=len(shards),
        )
        self._record("commit", "commit sent")
        self._advance_round_trip()
        for shard in shards:
            branch = self._branches[shard]
            if self.wal is not None and shard in self._wal_prepared_shards:
                # The branch's redo is already durable in its prepare
                # frame; the redo collector turns this commit into an
                # ops-less resolve frame instead of logging it twice.
                self.wal.mark_resolving(shard, self.gtid)
            branch.commit()
            self._record("commit", f"committed shard {shard}")
            if branch.last_commit_lsn is not None:
                self.commit_lsns[shard] = branch.last_commit_lsn
        span.finish()
        self.state = TxnState.COMMITTED

    def rollback(self) -> None:
        if self.state not in (TxnState.ACTIVE, TxnState.PREPARED):
            raise TransactionError(
                f"sharded transaction {self.id} is {self.state.value}, "
                "not active or prepared"
            )
        span = self.tracer.span("2pc.rollback", track="2pc")
        self._wal_clear_pending()
        for shard in self.touched_shards():
            branch = self._branches[shard]
            if branch.state in (TxnState.ACTIVE, TxnState.PREPARED):
                branch.rollback()
            self._record("rollback", f"rolled back shard {shard}")
        span.finish()
        self.state = TxnState.ABORTED

    def __enter__(self) -> "ShardedTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state in (TxnState.ACTIVE, TxnState.PREPARED):
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
