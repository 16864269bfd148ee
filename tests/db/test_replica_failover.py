"""Failover correctness: promoted replicas vs the single-server oracle.

The tentpole's acceptance bar: crash a shard's primary *mid-script*,
promote a replica, keep going -- and the final state must still be
bit-identical to a single server that ran the same statements with no
failure at all.  Plus the 2PC failure edges: a primary lost between
``prepare()`` and ``commit()`` aborts every branch cleanly, and a
crash hit by a broadcast replicated-table write never leaves the
surviving copies diverged.
"""

import pytest

from repro.db import (
    Database,
    ShardDownError,
    ShardedDatabase,
    ShardingScheme,
    TableSharding,
    TwoPhaseAbortError,
    connect,
    connect_sharded,
)
from repro.db.txn import TxnState

from test_shard_equivalence import (
    MODES,
    _assert_replicas_consistent,
    _run_statement,
    _sharded_state,
    _single_state,
)


# ---------------------------------------------------------------------------
# Differential: mid-script crash + promotion vs the unfailed oracle
# ---------------------------------------------------------------------------


def _tpcc_pair(sql_exec, shards=2, replicas=2):
    from repro.workloads.tpcc import (
        TpccScale,
        make_tpcc_database,
        tpcc_sharding_scheme,
    )

    scale = TpccScale(warehouses=3, customers_per_district=20, items=120)
    single_db, _ = make_tpcc_database(scale)
    source_db, _ = make_tpcc_database(scale)
    sharded_db = ShardedDatabase.from_database(
        source_db, shards, tpcc_sharding_scheme("warehouse"),
        replicas=replicas,
    )
    return (
        scale,
        (single_db, connect(single_db, sql_exec=sql_exec)),
        (sharded_db, connect_sharded(sharded_db, sql_exec=sql_exec)),
    )


def _run_script_identically(single_conn, sharded_conn, script):
    for sql, params in script:
        got_single = _run_statement(single_conn, sql, params)
        got_sharded = _run_statement(sharded_conn, sql, params)
        assert got_single == got_sharded, sql


@pytest.mark.parametrize("sql_exec", MODES)
@pytest.mark.parametrize("crash_shard", [0, 1])
class TestMidScriptFailover:
    def test_new_order_script_survives_promotion(
        self, crash_shard, sql_exec
    ):
        from repro.workloads.tpcc import new_order_statement_script

        scale, single, sharded = _tpcc_pair(sql_exec)
        single_db, single_conn = single
        sharded_db, sharded_conn = sharded
        script = new_order_statement_script(
            scale, transactions=10, seed=3
        )
        half = len(script) // 2
        _run_script_identically(single_conn, sharded_conn, script[:half])

        # Kill the primary between statements; the failure detector's
        # job is played by hand here (the serve tier automates it).
        sharded_db.crash_primary(crash_shard)
        assert sharded_db.is_down(crash_shard)
        report = sharded_db.promote(crash_shard)
        assert report.generation == 1

        _run_script_identically(single_conn, sharded_conn, script[half:])
        assert _single_state(single_db) == _sharded_state(sharded_db)
        _assert_replicas_consistent(sharded_db)
        sharded_db.assert_replica_groups_consistent()

    def test_promotion_replays_partitioned_tail(
        self, crash_shard, sql_exec
    ):
        """A straggler replica wins promotion only after the log tail
        it missed is replayed into it -- the promoted state must still
        match the oracle bit-for-bit."""
        from repro.workloads.tpcc import new_order_statement_script

        scale, single, sharded = _tpcc_pair(sql_exec, replicas=1)
        single_db, single_conn = single
        sharded_db, sharded_conn = sharded
        script = new_order_statement_script(
            scale, transactions=6, seed=11
        )
        half = len(script) // 2
        # Partition the sole replica: commits after this point pile up
        # in the shard's log without being applied.
        group = sharded_db.groups[crash_shard]
        group.set_replica_connected(0, False)
        _run_script_identically(single_conn, sharded_conn, script[:half])

        sharded_db.crash_primary(crash_shard)
        report = sharded_db.promote(crash_shard)
        # The tail the replica missed was replayed during promotion
        # (how much lands on this shard depends on routing; the global
        # log tip bounds it).
        assert report.replayed == report.applied_lsn
        assert report.applied_lsn == group.log.tip

        _run_script_identically(single_conn, sharded_conn, script[half:])
        assert _single_state(single_db) == _sharded_state(sharded_db)
        _assert_replicas_consistent(sharded_db)
        sharded_db.assert_replica_groups_consistent()


# ---------------------------------------------------------------------------
# 2PC failure edges
# ---------------------------------------------------------------------------


def make_replicated_sdb(replicas: int = 1) -> ShardedDatabase:
    """2-shard tier: kv mod-sharded on k, dim replicated everywhere."""
    sdb = ShardedDatabase(
        "f",
        shards=2,
        scheme=ShardingScheme(
            {"kv": TableSharding(columns=("k",), strategy="mod")}
        ),
        replicas=replicas,
    )
    sdb.create_table(
        "kv", [("k", "int", False), ("v", "int")], primary_key=["k"]
    )
    sdb.create_table(
        "dim", [("id", "int", False), ("label", "text")],
        primary_key=["id"],
    )
    for k in range(8):
        sdb.insert("kv", (k, 10 * k))
    for i in range(3):
        sdb.insert("dim", (i, f"label-{i}"))
    return sdb


def kv_values(sdb: ShardedDatabase) -> dict:
    return {k: v for k, v in sdb.logical_rows("kv").values()}


class TestTwoPhaseFailureEdges:
    def test_crash_between_prepare_and_commit_aborts_cleanly(self):
        sdb = make_replicated_sdb()
        conn = connect_sharded(sdb)
        before = kv_values(sdb)
        txn = conn.begin()
        # Touch both shards (k=0 -> shard 0, k=1 -> shard 1).
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", 111, 0)
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", 222, 1)
        txn.prepare()
        assert txn.state is TxnState.PREPARED

        # The primary dies in the prepared-but-unresolved window.
        sdb.crash_primary(1)
        with pytest.raises(TwoPhaseAbortError) as excinfo:
            conn.commit()
        assert excinfo.value.shard == 1
        assert excinfo.value.phase == "commit"
        assert txn.state is TxnState.ABORTED
        assert conn.two_pc_aborts == 1

        # Every branch rolled back: the surviving shard's write is
        # gone, and the timeline shows the recovery protocol ran.
        phases = [phase for _, phase, _ in txn.timeline]
        assert "recovery" in phases
        assert phases.count("rollback") == 2

        report = sdb.promote(1)
        assert report.generation == 1
        assert kv_values(sdb) == before
        # The retry lands cleanly on the promoted primary.
        retry = conn.begin()
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", 111, 0)
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", 222, 1)
        conn.commit()
        assert retry.state is TxnState.COMMITTED
        assert kv_values(sdb)[0] == 111
        assert kv_values(sdb)[1] == 222
        sdb.assert_replica_groups_consistent()

    def test_promotion_during_prepared_window_also_aborts(self):
        """Presumed abort keys off the generation snapshot, not just
        the crash flag: a promotion that already replaced the primary
        still dooms the in-flight transaction."""
        sdb = make_replicated_sdb()
        conn = connect_sharded(sdb)
        txn = conn.begin()
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", 111, 0)
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", 222, 1)
        txn.prepare()
        sdb.crash_primary(1)
        sdb.promote(1)  # supervisor beat the coordinator to it
        with pytest.raises(TwoPhaseAbortError):
            conn.commit()
        assert txn.state is TxnState.ABORTED
        assert kv_values(sdb)[1] == 10
        sdb.assert_replica_groups_consistent()

    def test_statement_on_crashed_shard_fails_without_wedging(self):
        sdb = make_replicated_sdb()
        conn = connect_sharded(sdb)
        txn = conn.begin()
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", 111, 0)
        sdb.crash_primary(1)
        with pytest.raises(ShardDownError):
            conn.execute("UPDATE kv SET v = ? WHERE k = ?", 222, 1)
        # The survivor branch still rolls back cleanly.
        conn.rollback()
        assert txn.state is TxnState.ABORTED
        sdb.promote(1)
        assert kv_values(sdb)[0] == 0
        sdb.assert_replica_groups_consistent()

    def test_broadcast_write_refuses_down_shard_upfront(self):
        """Autocommit broadcast against a tier with a dead shard must
        not mutate *any* copy: a partial broadcast would be committed
        by the no-locks autocommit path and the replicated table's
        copies would diverge forever."""
        sdb = make_replicated_sdb()
        conn = connect_sharded(sdb)
        sdb.crash_primary(1)
        with pytest.raises(ShardDownError):
            conn.execute(
                "UPDATE dim SET label = ? WHERE id = ?", "changed", 0
            )
        # Shard 0's copy is untouched.
        rows = {
            row[0]: row[1]
            for _, row in sdb.shards[0].table("dim").scan()
        }
        assert rows[0] == "label-0"
        sdb.promote(1)
        assert conn.execute(
            "UPDATE dim SET label = ? WHERE id = ?", "changed", 0
        ) == 1
        _assert_replicas_consistent(sdb)
        sdb.assert_replica_groups_consistent()

    def test_crash_during_transactional_broadcast_write(self):
        """Crash after a broadcast write branched on every shard but
        before commit: the abort reverts the surviving copies so the
        replicated table stays identical everywhere."""
        sdb = make_replicated_sdb()
        conn = connect_sharded(sdb)
        txn = conn.begin()
        conn.execute(
            "UPDATE dim SET label = ? WHERE id = ?", "changed", 1
        )
        assert txn.touched_shards() == [0, 1]
        sdb.crash_primary(1)
        with pytest.raises(TwoPhaseAbortError):
            conn.commit()
        assert txn.state is TxnState.ABORTED
        sdb.promote(1)
        # Both surviving copies carry the pre-crash value.
        copies = [
            [row for _, row in shard.table("dim").scan()]
            for shard in sdb.shards
        ]
        assert copies[0] == copies[1]
        assert dict(copies[0])[1] == "label-1"
        _assert_replicas_consistent(sdb)
        sdb.assert_replica_groups_consistent()


# ---------------------------------------------------------------------------
# Faults between two statements of one open transaction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql_exec", MODES)
class TestFaultBetweenStatements:
    """The route is resolved at prepare, but crash and promotion are
    still checked on every statement: a prepared statement reused
    inside one transaction must notice either."""

    def test_crash_refuses_the_next_statement_on_that_shard(self, sql_exec):
        sdb = make_replicated_sdb()
        conn = connect_sharded(sdb, sql_exec=sql_exec)
        txn = conn.begin()
        update = "UPDATE kv SET v = ? WHERE k = ?"
        conn.execute(update, 111, 0)  # shard 0
        sdb.crash_primary(0)
        with pytest.raises(ShardDownError):
            conn.execute(update, 112, 2)  # shard 0 again, same statement
        with pytest.raises(ShardDownError):
            conn.query_scalar("SELECT v FROM kv WHERE k = ?", 4)
        assert conn.execute(update, 113, 1) == 1  # shard 1 still serves
        with pytest.raises(TwoPhaseAbortError):
            conn.commit()
        assert txn.state is TxnState.ABORTED
        sdb.promote(0)
        assert kv_values(sdb) == {k: 10 * k for k in range(8)}
        sdb.assert_replica_groups_consistent()

    def test_promotion_re_mints_executor_and_plan(self, sql_exec):
        sdb = make_replicated_sdb()
        conn = connect_sharded(sdb, sql_exec=sql_exec)
        select = conn.prepare("SELECT v FROM kv WHERE k = ?")
        txn = conn.begin()
        assert select.query(2).scalar() == 20  # shard 0
        old_executor = conn.executors[0]
        sdb.crash_primary(0)
        sdb.promote(0)
        # The same prepared statement, same transaction: it runs on the
        # promoted primary through a fresh executor and compiled plan.
        assert select.query(4).scalar() == 40
        assert conn.executors[0] is not old_executor
        assert conn.executors[0].database is sdb.shards[0]
        if sql_exec != "tree":
            generation, plan = select._compiled[0]  # noqa: SLF001
            assert generation == 1 and plan is not None
        # The transaction branched on the dead primary: presumed abort.
        with pytest.raises(TwoPhaseAbortError):
            conn.commit()
        assert txn.state is TxnState.ABORTED
        assert conn.execute("UPDATE kv SET v = ? WHERE k = ?", 44, 4) == 1
        assert kv_values(sdb)[4] == 44
        sdb.assert_replica_groups_consistent()
