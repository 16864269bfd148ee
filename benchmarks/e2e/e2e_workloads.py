"""The four benchmark workloads.

Every workload is built from public calls only and measures the
repo's *defaults*: nothing on the measured path passes ``interp=`` or
``sql_exec=`` (only the verification oracle does).  The seed feeds the
input generators and nothing else -- database contents, the profiling
run and therefore the partitioning are the same for every seed.

A workload object is one set-up: ``__init__`` builds everything up to
the first operation (timing each step into ``setup_parts``),
``warm_up`` runs the untimed operations, ``run_op`` executes one
operation, ``verify`` checks the outputs once the timed phase is over.
With a :class:`~e2e_spans.SpanRecorder` the same set-up also wraps the
layers' public callables, on the instance wherever the object exists
at set-up.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.core.pipeline import Pyxis, PyxisConfig
from repro.db import (
    HtapMirror,
    TpccAnalytics,
    attach_wal,
    connect,
    connect_sharded,
    recover_sharded,
)
from repro.db.jdbc import PreparedStatement, ResultSet
from repro.db.shard import (
    ShardedConnection,
    ShardedDatabase,
    ShardPreparedStatement,
)
from repro.db.sql.executor import StatementResult
from repro.db.txn import ShardedTransaction, Transaction
from repro.runtime.entrypoints import PartitionedApp
from repro.runtime.serializer import wire_copy, wire_size
from repro.serve.controller import AdaptiveController
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.workload import (
    SERVE_TPCC_COST_MODEL,
    SERVE_TPCC_ONE_WAY_LATENCY,
    SERVE_TPCW_COST_MODEL,
    SERVE_TPCW_ONE_WAY_LATENCY,
    make_tpcc_workload,
)
from repro.sim.cluster import Cluster, ClusterConfig
from repro.workloads.tpcc import (
    TPCC_ENTRY_POINTS,
    TPCC_SOURCE,
    TpccInputGenerator,
    TpccScale,
    make_sharded_tpcc_database,
    make_tpcc_database,
)
from repro.workloads.tpcw import (
    TPCW_ENTRY_POINTS,
    TPCW_SOURCE,
    BrowsingMix,
    TpcwScale,
    make_tpcw_database,
)

from e2e_spans import SpanRecorder

# WAL directories and span dumps live here: the benchmark reads and
# writes only inside its checkout.
OUT_DIR = Path(__file__).resolve().parent / "out"

# Seeds of the profiling runs (the repo's own defaults): the profile,
# and with it the partitioning, must not depend on the benchmark seed.
TPCC_PROFILE_SEED = 31
TPCW_PROFILE_SEED = 41

SHARDS = 4
REPLICAS = 2
# The flush policy: commits per group fsync.
SYNC_EVERY = 16

DISTRICT_VOLUME_SQL = (
    "SELECT ol_w_id, ol_d_id, COUNT(*), SUM(ol_amount) FROM order_line "
    "GROUP BY ol_w_id, ol_d_id ORDER BY ol_w_id, ol_d_id"
)

# Statement payloads kept for the wire_size / wire_copy measurement.
PAYLOAD_SAMPLE = 1000


@dataclass(frozen=True)
class Scale:
    """Sizes of one run.  The timed phase runs ``rounds`` rounds of
    ``round_ops`` operations and stops early, on a round boundary,
    once ``--seconds`` have passed: planned work, so that counts, the
    modelled latency and the number of checkpoint cycles are the same
    on both sides of a comparison, under a hard limit on run time.
    Throughput and latency percentiles are taken per round and
    reported for the best quartile of rounds.  A round is so many
    *windows* of ``window_ops`` operations; between windows the harness
    runs its pace loop once, to correct wall times for the sandbox's
    slowdown.  ``tpcc_tier`` runs one analytics session and one
    checkpoint per round, so its rounds are whole checkpoint cycles."""

    name: str
    setup_probes: int    # extra set-ups, each timed in a fresh process
    warmup_ops: int
    warmup_slices: int
    round_ops: dict
    window_ops: dict     # operations between two passes of the pace loop
    rounds: dict


SCALES = {
    # Sized at the seed commit to take about 10 s per workload, pace
    # loop included, so that the default 12 s limit rarely cuts a run.
    "full": Scale(
        name="full", setup_probes=2, warmup_ops=300, warmup_slices=5,
        round_ops={"tpcc_bare": 250, "tpcc_tier": 500,
                   "tpcw_browse": 800, "serve_sim": 10},
        # About 50 ms of operations each (a slice takes 120 ms).
        window_ops={"tpcc_bare": 25, "tpcc_tier": 20,
                    "tpcw_browse": 80, "serve_sim": 1},
        rounds={"tpcc_bare": 20, "tpcc_tier": 6,
                "tpcw_browse": 20, "serve_sim": 10},
    ),
    # The tier-1 self-test: at most 200 operations / 4 slices.
    "tiny": Scale(
        name="tiny", setup_probes=0, warmup_ops=20, warmup_slices=1,
        round_ops={"tpcc_bare": 60, "tpcc_tier": 60,
                   "tpcw_browse": 100, "serve_sim": 2},
        window_ops={"tpcc_bare": 20, "tpcc_tier": 20,
                    "tpcw_browse": 50, "serve_sim": 1},
        rounds=dict.fromkeys(
            ("tpcc_bare", "tpcc_tier", "tpcw_browse", "serve_sim"), 2
        ),
    ),
}


class SetupParts(dict):
    """Milliseconds (and counts) of the set-up steps, by metric name."""

    @contextmanager
    def timed(self, key: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = 1e3 * (time.perf_counter() - start)
            self[key] = self.get(key, 0.0) + elapsed


@dataclass
class Check:
    """One output verification; a failed check is a failed operation."""

    name: str
    ok: bool
    detail: str = ""


def _partition(source, entry_points, latency, connection, profile_run,
               parts: SetupParts):
    """parse -> analyses -> profile -> partition at the two extreme
    budgets -> PyxIL compile."""
    with parts.timed("core.from_source_ms"):
        pyxis = Pyxis.from_source(
            source, entry_points, PyxisConfig(latency=latency)
        )
    with parts.timed("profiler.profile_ms"):
        profile = pyxis.profile_with(connection, profile_run)
    with parts.timed("core.partition_ms"):
        partitions = pyxis.partition(profile, budgets=[0.0, 1e9])
    stats = pyxis.stats.snapshot()
    parts["core.solves"] = stats["solves"]
    parts["core.pyxil_compiles"] = stats["pyxil_compiles"]
    return partitions


def _table_rows(database, name: str) -> dict:
    if isinstance(database, ShardedDatabase):
        return database.logical_rows(name)
    return dict(database.table(name).scan())


def _digests(database) -> dict[str, str]:
    """Table name -> digest of its (rowid, row) pairs in scan order."""
    return {
        name: hashlib.sha1(
            repr(list(_table_rows(database, name).items())).encode()
        ).hexdigest()
        for name in database.catalog.names()
    }


class Captured:
    """What the traced run records at the connection seam."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self.payloads: list[tuple[tuple, Any]] = []
        self.writes: list[tuple[int, tuple]] = []  # (txn id, parameters)
        self.sqls: dict[str, None] = {}
        self.routes: dict[str, int] = {}
        self.rows_touched = 0
        self.rows_returned = 0
        self.statements = 0

    def on_query(self, args: tuple, result: Any) -> None:
        if len(self.payloads) < PAYLOAD_SAMPLE:
            self.payloads.append((args[1:], result))

    def on_execute(self, args: tuple, result: Any) -> None:
        if len(self.payloads) < PAYLOAD_SAMPLE:
            self.payloads.append((args[1:], result))
        self.writes.append((self.rec.txn, args[1:]))

    def on_prepare(self, args: tuple, prepared: Any) -> None:
        self.sqls[args[0]] = None
        route = getattr(prepared, "route", None)
        if route is not None:
            self.routes[route.mode] = self.routes.get(route.mode, 0) + 1

    def discard_txn(self) -> None:
        """Forget the writes of the current transaction: it rolled
        back, so none of them reached the log."""
        while self.writes and self.writes[-1][0] == self.rec.txn:
            self.writes.pop()

    def observe(self, kind, sql, rows_touched, rowcount) -> None:
        self.statements += 1
        self.rows_touched += rows_touched
        self.rows_returned += rowcount

    def reset(self) -> None:
        """Drop what warm-up recorded (distinct statements are kept:
        the plan cache filled during warm-up too)."""
        del self.payloads[:]
        del self.writes[:]
        self.routes.clear()
        self.rows_touched = self.rows_returned = self.statements = 0


def trace_classes(rec: SpanRecorder) -> None:
    """Spans around objects minted per statement / per transaction,
    which no instance patch at set-up can reach."""
    for cls in (PreparedStatement, ShardPreparedStatement):
        rec.patch(cls, "query", "db.sql.exec")
        rec.patch(cls, "update", "db.sql.exec")
    rec.patch(Transaction, "commit", "db.txn.commit")
    rec.patch(Transaction, "rollback", "db.txn.rollback")
    for attribute in ("prepare", "commit", "rollback"):
        rec.patch(ShardedTransaction, attribute, "db.shard.two_pc")
    # Every fsync of the logs and checkpoints: the virtual disk's wait.
    rec.patch(os, "fsync", "db.wal.fsync")


def trace_program(rec: SpanRecorder, app: PartitionedApp,
                  captured: Captured) -> None:
    """Spans around one partitioned program's runtime, cluster model,
    connection and lock managers."""
    conn = app.connection
    sharded = isinstance(conn, ShardedConnection)
    glue = "db.shard.route" if sharded else "db.jdbc.call"
    rec.patch(app, "invoke_traced", "runtime.exec")
    for heap in app.executor.heaps.values():
        rec.patch(heap, "collect_updates", "runtime.heap_sync")
        rec.patch(heap, "apply_updates", "runtime.heap_sync")
    for attribute in ("record_cpu", "record_message", "start_trace",
                      "finish_trace"):
        rec.patch(app.cluster, attribute, "sim.cluster")
    rec.patch(conn, "query", glue, captured.on_query)
    rec.patch(conn, "execute", glue, captured.on_execute)
    for attribute in ("begin", "commit", "rollback"):
        rec.patch(conn, attribute, glue)
    rec.patch(conn, "prepare", "db.jdbc.prepare", captured.on_prepare)
    managers = conn.lock_managers if sharded else [conn.lock_manager]
    for manager in managers:
        rec.patch(manager, "acquire", "db.txn.lock_acquire")
        rec.patch(manager, "release_all", "db.txn.lock_release")
    conn.observer = captured.observe


def program_counters(app: PartitionedApp) -> dict[str, float]:
    stats = app.executor.stats
    cache = app.connection.plan_cache_stats
    return {
        "blocks": stats.blocks,
        "control_transfers": stats.control_transfers,
        "db_round_trips": stats.db_round_trips,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        # Since the connection was opened: the statements compile once,
        # during warm-up.
        "compiled_plans_total": cache.compiled_plans,
        "source_plans_total": cache.source_plans,
    }


def statement_micro(captured: Captured, fresh_conn) -> dict[str, float]:
    """Layer numbers driven directly over what the connection seam
    captured: serializer cost per statement payload, and the cold
    prepare (parse + plan + compile) of every distinct statement on
    ``fresh_conn``, a connection that has prepared nothing yet."""
    fresh = []
    for params, result in captured.payloads:
        if isinstance(result, ResultSet):
            # Rebuilt so the size is computed, not read from the memo.
            result = ResultSet(StatementResult(
                columns=list(result.columns),
                rows=[row.as_tuple() for row in result],
                rowcount=len(result),
                rows_touched=result.rows_touched,
            ))
        fresh.append((params, result))
    out = {
        "wire_size_ns": 0.0, "wire_copy_ns": 0.0, "cold_prepare_ms": 0.0,
        # Parameters of the committed writes: the user's bytes the
        # write-ahead log's bytes are set against.
        "user_bytes": sum(
            wire_size(value)
            for _, params in captured.writes for value in params
        ),
    }
    if fresh:
        start = time.perf_counter_ns()
        for params, result in fresh:
            for value in params:
                wire_size(value)
            wire_size(result)
        sized = time.perf_counter_ns()
        for params, result in fresh:
            wire_copy(params)
            wire_copy(result)
        copied = time.perf_counter_ns()
        out["wire_size_ns"] = (sized - start) / len(fresh)
        out["wire_copy_ns"] = (copied - sized) / len(fresh)
    if captured.sqls:
        start = time.perf_counter()
        for sql in captured.sqls:
            fresh_conn.prepare(sql)
        out["cold_prepare_ms"] = 1e3 * (time.perf_counter() - start)
    return out


class ProgramWorkload:
    """What the two live workloads share: one partitioned program on
    one connection, every operation one explicit transaction, and the
    oracle replay of the warm-up inputs."""

    CLASS_NAME: str

    def _call(self, inp) -> tuple[str, tuple, bool]:
        """(entry point, arguments, roll back?) for one input."""
        raise NotImplementedError

    def _transact(self, app: PartitionedApp, inp):
        """begin -> invoke_traced -> commit (or the intended rollback).
        Returns the outcome, the transaction and its undo depth."""
        conn = app.connection
        method, args, rollback = self._call(inp)
        txn = conn.begin()
        outcome = app.invoke_traced(self.CLASS_NAME, method, *args)
        undo_depth = txn.undo_depth
        if rollback:
            conn.rollback()
        else:
            conn.commit()
        return outcome, txn, undo_depth

    def check(self, inp, result) -> bool:
        return True

    def recover_op(self) -> None:
        if self.conn.in_transaction:
            self.conn.rollback()

    def capture_baseline(self) -> None:
        self.warm_digests = _digests(self.database)

    def micro(self) -> dict[str, float]:
        fresh = (connect_sharded if isinstance(self.database, ShardedDatabase)
                 else connect)
        return statement_micro(self.captured, fresh(self.database))

    def _oracle_checks(self, database, cluster: Cluster) -> list[Check]:
        """Replay the warm-up inputs on a fresh single server with both
        tree rungs: identical return values, identical tables."""
        conn = connect(database, use_locks=True, sql_exec="tree")
        app = PartitionedApp(self.compiled, cluster, conn, interp="tree")
        differing = sum(
            self._transact(app, inp)[0].result != expected
            for inp, expected in self.warm
        )
        tables = sorted(
            name for name, digest in _digests(database).items()
            if digest != self.warm_digests.get(name)
        )
        return [
            Check("warm-up return values = tree/tree oracle",
                  differing == 0, f"{differing} of {len(self.warm)} differ"),
            Check("tables after warm-up = tree/tree oracle",
                  not tables, f"differing: {tables}"),
        ]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# TPC-C new-order: bare single server, and the full tier
# ---------------------------------------------------------------------------


class TpccWorkload(ProgramWorkload):
    """``tpcc_bare`` (lowest-budget partition, one unsharded database)
    and ``tpcc_tier`` (highest-budget partition through shards,
    replicas, group-commit WAL, MVCC snapshots and HTAP mirrors)."""

    CLASS_NAME = "TpccTransactions"

    def __init__(self, seed: int, scale: Scale,
                 rec: Optional[SpanRecorder], *, tier: bool) -> None:
        self.scale = scale
        self.rec = rec
        self.tier = tier
        # Per round one analytics session (a quarter in) and one
        # checkpoint (three quarters in): a run then ends with a quarter
        # of a round of frames in the logs for recovery to replay.
        self.round_ops = scale.round_ops["tpcc_tier"]
        self.session_at = self.round_ops // 4
        self.checkpoint_at = 3 * self.round_ops // 4
        self.tpcc = TpccScale(warehouses=4)
        self.captured = Captured(rec) if rec is not None else None
        parts = self.setup_parts = SetupParts()
        with parts.timed("workloads.load_ms"):
            _, profile_conn = make_tpcc_database(self.tpcc)
        profile_gen = TpccInputGenerator(self.tpcc, seed=TPCC_PROFILE_SEED)

        def profile_run(profiler) -> None:
            for _ in range(10):
                order = profile_gen.new_order(rollback_fraction=0.0)
                method, args, _ = self._call(order)
                profiler.invoke(self.CLASS_NAME, method, *args)

        partitions = _partition(
            TPCC_SOURCE, TPCC_ENTRY_POINTS, SERVE_TPCC_ONE_WAY_LATENCY,
            profile_conn, profile_run, parts,
        )
        self.compiled = (
            partitions.highest() if tier else partitions.lowest()
        ).compiled
        if tier:
            self._build_tier(parts)
        else:
            with parts.timed("workloads.load_ms"):
                self.database, _ = make_tpcc_database(self.tpcc)
            self.conn = connect(self.database, use_locks=True)
        cluster = self._cluster(SHARDS if tier else 1)
        if tier:
            cluster.attach_sharded_database(self.database)
        with parts.timed("runtime.load_ms"):
            self.app = PartitionedApp(self.compiled, cluster, self.conn)
        if rec is not None:
            trace_program(rec, self.app, self.captured)
            self._session_span = rec.name_id("htap.session")
        self.inputs = TpccInputGenerator(self.tpcc, seed=seed)
        self.warm: list[tuple[Any, Any]] = []
        self.warm_digests: dict[str, str] = {}
        self.orders_committed = 0
        self.rollbacks = 0
        self.undo_records = 0
        self.ops = 0       # cadence counters, reset after warm-up
        self.commits = 0
        self.cross_shard = 0
        self.sessions = 0
        self.snapshot_checks = 0
        self.snapshot_mismatches = 0
        self.version_entries_max = 0
        self.lag_max = 0
        self.pinned: Optional[tuple[int, list]] = None
        self.recovery: dict[str, float] = {}

    def _cluster(self, shards: int) -> Cluster:
        return Cluster(
            ClusterConfig(
                app_cores=8, db_cores=16,
                one_way_latency=SERVE_TPCC_ONE_WAY_LATENCY,
                db_shards=shards,
            ),
            SERVE_TPCC_COST_MODEL,
        )

    def _build_tier(self, parts: SetupParts) -> None:
        rec = self.rec
        with parts.timed("workloads.load_ms"):
            sdb, _ = make_sharded_tpcc_database(
                self.tpcc, shards=SHARDS, replicas=REPLICAS
            )
        self.database = sdb
        self.conn = connect_sharded(sdb, use_locks=True, replica_reads=True)
        if rec is not None:
            for shard, group in zip(sdb.shards, sdb.groups):
                rec.patch(group, "commit_redo", "db.replica.ship")
                # The group registered the unwrapped bound method.
                shard.redo_collector = group.commit_redo
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.wal_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR))
        with parts.timed("db.wal.attach_ms"):
            self.wal = attach_wal(sdb, self.wal_dir, sync_policy="group")
        if rec is not None:
            for wal in self.wal.wals:
                rec.patch(wal, "commit_ops", "db.wal.append")
                rec.patch(wal, "log_prepare", "db.wal.append")
                rec.patch(wal, "sync", "db.wal.sync")
            rec.patch(self.wal.coordinator, "log_commit", "db.wal.decide")
            rec.patch(self.wal, "checkpoint", "db.wal.checkpoint")
        with parts.timed("db.htap.attach_ms"):
            for shard in sdb.shards:
                shard.enable_mvcc()
            self.mirrors = [HtapMirror(shard).attach() for shard in sdb.shards]
            self.analytics = [TpccAnalytics(m) for m in self.mirrors]
            self.readers = [connect(shard) for shard in sdb.shards]
        if rec is not None:
            for shard in sdb.shards:
                # After attach() the collector is the mirror's; its
                # self time is the columnar apply loop.
                rec.patch(shard, "redo_collector", "db.htap.apply")
                rec.patch(shard.mvcc, "note_commit", "db.mvcc.note_commit")
                rec.patch(shard.mvcc, "materialize", "db.mvcc.materialize")
            for analytics in self.analytics:
                rec.patch(analytics, "best_sellers", "db.htap.report")
                rec.patch(analytics, "district_volume", "db.htap.report")
            for reader in self.readers:
                rec.patch(reader, "query", "db.mvcc.snapshot_query")

    # -- operations ----------------------------------------------------------

    def next_input(self):
        return self.inputs.new_order()

    def _call(self, order) -> tuple[str, tuple, bool]:
        return "new_order", (
            order.w_id, order.d_id, order.c_id, order.item_ids,
            order.supply_w_ids, order.quantities,
        ), order.rollback

    def run_op(self, order) -> tuple[int, float, Any]:
        """One new-order transaction (10% roll back, as in the paper's
        set-up).  Returns (transactions, virtual-clock seconds, result)."""
        outcome, txn, undo_depth = self._transact(self.app, order)
        self.undo_records += undo_depth
        if order.rollback:
            self.rollbacks += 1
            if self.captured is not None:
                self.captured.discard_txn()
        else:
            self.commits += 1
            self.orders_committed += 1
            if self.tier:
                self._after_commit(txn)
        self.ops += 1
        if self.tier:
            phase = self.ops % self.round_ops
            if phase == self.session_at:
                self.session()
            elif phase == self.checkpoint_at:
                self.wal.checkpoint(self.database.shards)
        return 1, outcome.latency, outcome.result

    def _after_commit(self, txn) -> None:
        if len(txn.touched_shards()) > 1:
            self.cross_shard += 1
        # Its cost lands on the transaction that triggers it.
        if self.commits % SYNC_EVERY == 0:
            self.wal.sync_all()

    def session(self) -> None:
        """One analytics session: both reports on every mirror, then on
        one shard (round-robin) the district-volume GROUP BY in SQL over
        the MVCC snapshot pinned at the *previous* session, which must
        equal the mirror's report captured when it was pinned."""
        rec = self.rec
        if rec is not None:
            rec.begin(self._session_span)
        for analytics in self.analytics:
            analytics.best_sellers()
            analytics.district_volume()
        self._check_pinned()
        sdb = self.database
        self.lag_max = max(
            [self.lag_max]
            + [lag for s in range(SHARDS) for lag in sdb.replication_lag(s)]
        )
        shard = self.sessions % SHARDS
        self.readers[shard].begin(snapshot=True)
        self.pinned = (shard, self.analytics[shard].district_volume())
        self.sessions += 1
        if rec is not None:
            rec.end()

    def _check_pinned(self) -> None:
        if self.pinned is None:
            return
        shard, expected = self.pinned
        reader = self.readers[shard]
        got = [row.as_tuple() for row in reader.query(DISTRICT_VOLUME_SQL)]
        self.version_entries_max = max(
            self.version_entries_max,
            self.database.shards[shard].mvcc.version_entries(),
        )
        reader.commit()
        self.pinned = None
        self.snapshot_checks += 1
        if got != expected:
            self.snapshot_mismatches += 1

    def warm_up(self) -> None:
        for _ in range(self.scale.warmup_ops):
            order = self.next_input()
            self.warm.append((order, self.run_op(order)[2]))
        if self.tier:
            # Warms the analytics path and pins the snapshot the first
            # timed session reads.
            self.session()
            self.wal.sync_all()
        self.ops = self.commits = 0
        if self.captured is not None:
            self.captured.reset()

    # -- counters ------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        out = program_counters(self.app)
        out.update(
            commits=self.orders_committed,
            rollbacks=self.rollbacks,
            undo_records=self.undo_records,
        )
        if not self.tier:
            return out
        conn = self.conn
        wals = self.wal.wals
        coordinator = self.wal.coordinator.stats
        out.update(
            cross_shard=self.cross_shard,
            two_pc_commits=coordinator.appends,
            replica_reads=conn.replica_read_count,
            ops_shipped=sum(g.stats.ops_shipped for g in self.database.groups),
            wal_frames=sum(w.stats.appends for w in wals) + coordinator.appends,
            wal_syncs=sum(w.stats.syncs for w in wals) + coordinator.syncs,
            wal_bytes=(sum(w.stats.bytes_written for w in wals)
                       + coordinator.bytes_written),
            checkpoints=sum(w.stats.checkpoints for w in wals) / len(wals),
            mirror_ops=sum(m.ops_applied for m in self.mirrors),
            reports=sum(a.reports_run for a in self.analytics),
            rows_scanned=sum(a.rows_scanned for a in self.analytics),
            version_entries_max=self.version_entries_max,
            lag_max=self.lag_max,
        )
        return out

    # -- verification --------------------------------------------------------

    def verify(self) -> list[Check]:
        checks = self._oracle_checks(
            make_tpcc_database(self.tpcc)[0], self._cluster(1)
        )
        if self.tier:
            self._check_pinned()
            checks.append(Check(
                "snapshot report = mirror report at pin",
                self.snapshot_checks > 0 and self.snapshot_mismatches == 0,
                f"{self.snapshot_mismatches} of {self.snapshot_checks} differ",
            ))
            self.wal.sync_all()
            checks.append(self._replica_check())
            checks.append(self._mirror_check())
        checks.extend(self._consistency_checks())
        if self.tier:
            checks.append(self._recovery_check())
        return checks

    def _consistency_checks(self) -> list[Check]:
        """TPC-C consistency conditions over the final tables."""
        district = _table_rows(self.database, "district").values()
        orders = _table_rows(self.database, "orders").values()
        lines = _table_rows(self.database, "order_line")
        next_ids = sum(row[5] - 1 for row in district)
        line_counts = sum(row[5] for row in orders)
        return [
            Check(
                "sum(d_next_o_id - 1) = committed orders = orders rows",
                next_ids == self.orders_committed == len(orders),
                f"{next_ids} / {self.orders_committed} / {len(orders)}",
            ),
            Check(
                "order_line rows = sum(o_ol_cnt)",
                len(lines) == line_counts,
                f"{len(lines)} / {line_counts}",
            ),
        ]

    def _replica_check(self) -> Check:
        try:
            self.database.assert_replica_groups_consistent()
        except AssertionError as exc:
            return Check("replicas equal their primaries", False, str(exc))
        return Check("replicas equal their primaries", True)

    def _mirror_check(self) -> Check:
        for index, mirror in enumerate(self.mirrors):
            for name, table in mirror.tables.items():
                mirrored = {
                    rowid: table.row(position)
                    for position, rowid in enumerate(table.rowids)
                }
                if mirrored != dict(mirror.database.table(name).scan()):
                    return Check(
                        "mirrors equal their row stores", False,
                        f"shard {index} table {name}",
                    )
        return Check("mirrors equal their row stores", True)

    def _recovery_check(self) -> Check:
        start = time.perf_counter()
        recovered, report = recover_sharded(self.wal_dir)
        elapsed = time.perf_counter() - start
        frames = sum(r.frames_seen for r in report.shard_reports)
        self.recovery = {
            "replay_s": elapsed,
            "frames_per_s": frames / elapsed if elapsed else 0.0,
        }
        for name in self.database.catalog.names():
            if recovered.logical_rows(name) != self.database.logical_rows(name):
                return Check(
                    "recover_sharded() equals the live primaries", False, name
                )
        return Check("recover_sharded() equals the live primaries", True)

    def close(self) -> None:
        if self.tier:
            self.wal.close()
            shutil.rmtree(self.wal_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# TPC-W browsing mix
# ---------------------------------------------------------------------------


class TpcwWorkload(ProgramWorkload):
    """``tpcw_browse``: read-only joins, GROUP BY and ORDER BY .. LIMIT
    on one database, highest-budget partition, shared locks on."""

    CLASS_NAME = "TpcwBrowsing"

    def __init__(self, seed: int, scale: Scale,
                 rec: Optional[SpanRecorder]) -> None:
        self.scale = scale
        self.rec = rec
        self.tpcw = TpcwScale()
        self.captured = Captured(rec) if rec is not None else None
        parts = self.setup_parts = SetupParts()
        with parts.timed("workloads.load_ms"):
            _, profile_conn = make_tpcw_database(self.tpcw)
        profile_mix = BrowsingMix(self.tpcw, seed=TPCW_PROFILE_SEED)

        def profile_run(profiler) -> None:
            for _ in range(40):
                method, args, _ = self._call(profile_mix.next_interaction())
                profiler.invoke(self.CLASS_NAME, method, *args)

        partitions = _partition(
            TPCW_SOURCE, TPCW_ENTRY_POINTS, SERVE_TPCW_ONE_WAY_LATENCY,
            profile_conn, profile_run, parts,
        )
        self.compiled = partitions.highest().compiled
        with parts.timed("workloads.load_ms"):
            self.database, _ = make_tpcw_database(self.tpcw)
        self.conn = connect(self.database, use_locks=True)
        with parts.timed("runtime.load_ms"):
            self.app = PartitionedApp(
                self.compiled, self._cluster(), self.conn
            )
        if rec is not None:
            trace_program(rec, self.app, self.captured)
        self.mix = BrowsingMix(self.tpcw, seed=seed)
        self.warm: list[tuple[Any, Any]] = []
        self.warm_digests: dict[str, str] = {}
        # (method, args) -> result seen in warm-up: the database is
        # read-only, so a timed repeat must return the same value.
        self.memo: dict[tuple, Any] = {}
        self.interactions = 0

    def _cluster(self) -> Cluster:
        return Cluster(
            ClusterConfig(
                app_cores=8, db_cores=16,
                one_way_latency=SERVE_TPCW_ONE_WAY_LATENCY,
            ),
            SERVE_TPCW_COST_MODEL,
        )

    def next_input(self):
        return self.mix.next_interaction()

    def _call(self, interaction) -> tuple[str, tuple, bool]:
        return interaction.method, interaction.args, False

    def run_op(self, interaction) -> tuple[int, float, Any]:
        outcome = self._transact(self.app, interaction)[0]
        self.interactions += 1
        return 1, outcome.latency, outcome.result

    def check(self, interaction, result) -> bool:
        expected = self.memo.get((interaction.method, interaction.args), self)
        return expected is self or expected == result

    def warm_up(self) -> None:
        for _ in range(self.scale.warmup_ops):
            interaction = self.next_input()
            result = self.run_op(interaction)[2]
            self.warm.append((interaction, result))
            self.memo[(interaction.method, interaction.args)] = result
        if self.captured is not None:
            self.captured.reset()

    def counters(self) -> dict[str, float]:
        out = program_counters(self.app)
        out.update(commits=self.interactions, rollbacks=0, undo_records=0)
        return out

    def verify(self) -> list[Check]:
        checks = self._oracle_checks(
            make_tpcw_database(self.tpcw)[0], self._cluster()
        )
        checks.append(Check(
            "tables unchanged by the read-only mix",
            _digests(self.database) == self.warm_digests,
        ))
        return checks


# ---------------------------------------------------------------------------
# The virtual-clock serving simulator
# ---------------------------------------------------------------------------

SERVE_CLIENTS = 32
SERVE_SLICE_SECONDS = 0.5
SERVE_POOL_SIZE = 8
SERVE_RECHECKED_SLICES = 10


class ServeSimWorkload:
    """``serve_sim``: one operation is a 0.5-virtual-second slice of
    the closed-loop serving simulator over pooled, replayed traces."""

    def __init__(self, seed: int, scale: Scale,
                 rec: Optional[SpanRecorder]) -> None:
        self.scale = scale
        self.rec = rec
        parts = self.setup_parts = SetupParts()
        with parts.timed("workloads.load_ms"):
            self.built = make_tpcc_workload(pool_size=SERVE_POOL_SIZE)
            workload = self.workload = self.built.workload
            # Fill every option's trace pool now, so that timed slices
            # only replay (live_executions == 0).
            rng = random.Random(0)
            for option in range(workload.n_options):
                for _ in range(SERVE_POOL_SIZE):
                    workload.draw(option, rng)
        if rec is not None:
            rec.patch(workload, "draw", "serve.draw")
            self._engine_span = rec.name_id("serve.engine")
        self.seed = seed
        self.slices = 0
        self.events = 0
        self.first_pass: dict[int, tuple] = {}
        self.totals = dict.fromkeys(
            ("completed", "events", "live_executions", "trace_replays",
             "switches", "virtual_seconds"), 0.0,
        )

    def next_input(self) -> int:
        self.slices += 1
        return self.seed * 100_003 + self.slices

    def _slice(self, slice_seed: int):
        rec = self.rec
        if rec is not None:
            rec.begin(self._engine_span)
        engine = ServeEngine(
            self.workload,
            AdaptiveController(poll_interval=0.1),
            ServeConfig(
                app_cores=8, db_cores=3, network=self.built.network,
                think_time=0.05, ramp=0.05, seed=slice_seed,
            ),
        )
        loop = engine.loop
        inner = loop.run if rec is None else rec.wrap("sim.loop", loop.run)

        def run(*args, **kwargs) -> int:
            self.events = inner(*args, **kwargs)
            return self.events

        loop.run = run
        result = engine.run(
            clients=SERVE_CLIENTS, duration=SERVE_SLICE_SECONDS
        )
        if rec is not None:
            rec.end()
        return result

    def run_op(self, slice_seed: int) -> tuple[int, float, Any]:
        result = self._slice(slice_seed)
        totals = self.totals
        totals["completed"] += result.completed
        totals["events"] += self.events
        totals["live_executions"] += result.live_executions
        totals["trace_replays"] += result.trace_replays
        totals["switches"] += result.controller.switches
        totals["virtual_seconds"] += SERVE_SLICE_SECONDS
        return (
            result.completed,
            sum(result.latencies),
            (result.completed, self.events, result.mean_latency),
        )

    def check(self, slice_seed: int, result) -> bool:
        if len(self.first_pass) < SERVE_RECHECKED_SLICES:
            self.first_pass[slice_seed] = result
        return result[0] > 0

    def recover_op(self) -> None:
        pass

    def warm_up(self) -> None:
        for _ in range(self.scale.warmup_slices):
            self.run_op(self.next_input())
        self.totals = dict.fromkeys(self.totals, 0.0)

    def capture_baseline(self) -> None:
        pass

    def counters(self) -> dict[str, float]:
        return dict(self.totals)

    def micro(self) -> dict[str, float]:
        return {}

    def verify(self) -> list[Check]:
        """A second pass of the first timed slices must repeat their
        completions, events and modelled latency exactly."""
        differing = [
            slice_seed
            for slice_seed, first in self.first_pass.items()
            if self.run_op(slice_seed)[2] != first
        ]
        return [Check(
            "second pass of the first slices repeats exactly",
            bool(self.first_pass) and not differing,
            f"slice seeds {differing}",
        )]

    def close(self) -> None:
        pass


def build(name: str, seed: int, scale: Scale,
          rec: Optional[SpanRecorder] = None):
    if name == "tpcc_bare":
        return TpccWorkload(seed, scale, rec, tier=False)
    if name == "tpcc_tier":
        return TpccWorkload(seed, scale, rec, tier=True)
    if name == "tpcw_browse":
        return TpcwWorkload(seed, scale, rec)
    if name == "serve_sim":
        return ServeSimWorkload(seed, scale, rec)
    raise ValueError(f"unknown workload {name!r}")
