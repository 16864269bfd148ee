"""Replica groups: log shipping, catch-up, promotion, replica reads.

Unit-level coverage of :mod:`repro.db.replica` plus the router's
replica-aware behaviors (read-your-writes watermarks, generation
refresh) that ride on it.
"""

import pytest

from repro.db import (
    Database,
    ReplicaGroup,
    ShardDownError,
    ShardedDatabase,
    ShardingScheme,
    TableSharding,
    connect_sharded,
)
from repro.db.errors import ShardError


def make_group(n_replicas: int = 2) -> tuple[Database, ReplicaGroup]:
    primary = Database("g/shard0")
    group = ReplicaGroup(primary, n_replicas)
    primary.create_table(
        "kv", [("k", "int", False), ("v", "int")], primary_key=["k"]
    )
    group.mirror_create_table(
        "kv", [("k", "int", False), ("v", "int")], ["k"]
    )
    return primary, group


def commit_rows(primary: Database, rows) -> None:
    """Run one committed transaction inserting ``rows`` into kv."""
    from repro.db.txn import Transaction

    txn = Transaction(primary)
    table = primary.table("kv")
    for k, v in rows:
        _, undo = table.insert((k, v))
        txn.record_undo(undo)
    txn.commit()


def scan(db: Database) -> list:
    """(rowid, row) pairs in scan order."""
    return list(db.table("kv").scan())


def rows_of(db: Database) -> list:
    return [row for _, row in db.table("kv").scan()]


class TestLogShipping:
    def test_commit_ships_to_every_replica(self):
        primary, group = make_group()
        commit_rows(primary, [(1, 10), (2, 20)])
        assert group.log.tip == 1
        for replica in group.replicas:
            assert replica.applied_lsn == 1
            assert scan(replica.database) == scan(primary)
        assert group.stats.entries_shipped == 2  # one entry x 2 replicas
        assert group.stats.ops_shipped == 4

    def test_update_and_delete_after_images(self):
        from repro.db.txn import Transaction

        primary, group = make_group(n_replicas=1)
        commit_rows(primary, [(1, 10), (2, 20)])
        table = primary.table("kv")
        txn = Transaction(primary)
        (rowid, _), = [
            (rid, r) for rid, r in table.scan() if r[0] == 1
        ]
        txn.record_undo(table.update(rowid, {"v": 99}))
        (rowid2, _), = [
            (rid, r) for rid, r in table.scan() if r[0] == 2
        ]
        txn.record_undo(table.delete(rowid2))
        txn.commit()
        group.assert_replicas_consistent()
        assert rows_of(group.replicas[0].database) == [(1, 99)]

    def test_rollback_ships_nothing(self):
        from repro.db.txn import Transaction

        primary, group = make_group(n_replicas=1)
        txn = Transaction(primary)
        table = primary.table("kv")
        _, undo = table.insert((5, 50))
        txn.record_undo(undo)
        txn.rollback()
        assert group.log.tip == 0
        assert rows_of(group.replicas[0].database) == []

    def test_bootstrap_insert_bypasses_the_log(self):
        primary, group = make_group(n_replicas=1)
        table = primary.table("kv")
        rowid, _ = table.insert((7, 70))
        group.bootstrap_insert("kv", rowid, table.fetch(rowid))
        assert group.log.tip == 0
        assert rows_of(group.replicas[0].database) == [(7, 70)]
        group.assert_replicas_consistent()


class TestPartitionAndCatchUp:
    def test_disconnected_replica_falls_behind_then_catches_up(self):
        primary, group = make_group(n_replicas=2)
        group.set_replica_connected(1, False)
        commit_rows(primary, [(1, 10)])
        commit_rows(primary, [(2, 20)])
        assert group.replicas[0].applied_lsn == 2
        assert group.replicas[1].applied_lsn == 0
        assert group.replication_lag() == [0, 2]
        group.set_replica_connected(1, True)  # reconnect = catch-up
        assert group.replicas[1].applied_lsn == 2
        group.assert_replicas_consistent()



class TestPromotion:
    def test_tie_breaks_to_lowest_index(self):
        primary, group = make_group(n_replicas=3)
        commit_rows(primary, [(1, 10)])
        group.crash_primary()
        report = group.promote()
        assert report.chosen == 0
        assert report.replayed == 0
        assert report.generation == 1

    def test_most_caught_up_wins_and_replays_tail(self):
        primary, group = make_group(n_replicas=2)
        group.set_replica_connected(0, False)  # replica 0 falls behind
        commit_rows(primary, [(1, 10)])
        commit_rows(primary, [(2, 20)])
        before = scan(primary)
        group.crash_primary()
        assert group.crashed
        report = group.promote()
        assert report.chosen == 1
        assert report.replayed == 0
        assert not group.crashed
        assert scan(group.primary) == before
        # The straggler survivor is caught up by the new primary.
        assert group.replicas[0].applied_lsn == 0  # still partitioned
        group.set_replica_connected(0, True)
        group.assert_replicas_consistent()

    def test_promotion_replays_missing_tail_into_the_winner(self):
        primary, group = make_group(n_replicas=1)
        commit_rows(primary, [(1, 10)])
        group.set_replica_connected(0, False)
        commit_rows(primary, [(2, 20)])
        commit_rows(primary, [(3, 30)])
        before = scan(primary)
        group.crash_primary()
        report = group.promote()
        assert report.replayed == 2
        assert scan(group.primary) == before

    def test_writes_continue_with_global_rowids_after_promotion(self):
        primary, group = make_group(n_replicas=1)
        commit_rows(primary, [(1, 10)])
        group.crash_primary()
        group.promote()
        # The promoted primary allocates from the shared counter, so
        # new rowids continue where the dead primary stopped.
        old_rowids = {rid for rid, _ in group.primary.table("kv").scan()}
        commit_rows(group.primary, [(2, 20)])
        new_rowids = {rid for rid, _ in group.primary.table("kv").scan()}
        assert max(new_rowids - old_rowids) > max(old_rowids)

    def test_promote_with_no_replicas_left_raises(self):
        primary, group = make_group(n_replicas=1)
        group.crash_primary()
        group.promote()
        group.crash_primary()
        with pytest.raises(ShardError):
            group.promote()

    def test_group_needs_at_least_one_replica(self):
        with pytest.raises(ShardError):
            ReplicaGroup(Database("x"), 0)


def make_replicated_sdb(replicas: int = 1) -> ShardedDatabase:
    sdb = ShardedDatabase(
        "r",
        shards=2,
        scheme=ShardingScheme(
            {"kv": TableSharding(columns=("k",), strategy="mod")}
        ),
        replicas=replicas,
    )
    sdb.create_table(
        "kv", [("k", "int", False), ("v", "int")], primary_key=["k"]
    )
    for k in range(8):
        sdb.insert("kv", (k, 10 * k))
    return sdb


class TestRouterIntegration:
    def test_crashed_shard_raises_shard_down(self):
        sdb = make_replicated_sdb()
        conn = connect_sharded(sdb)
        sdb.crash_primary(1)
        with pytest.raises(ShardDownError):
            conn.query("SELECT v FROM kv WHERE k = ?", 1)
        # Shard 0 still serves.
        rows = conn.query("SELECT v FROM kv WHERE k = ?", 2)
        assert [r.as_tuple() for r in rows] == [(20,)]

    def test_promotion_refreshes_cached_plans(self):
        sdb = make_replicated_sdb()
        conn = connect_sharded(sdb)
        stmt = conn.prepare("SELECT v FROM kv WHERE k = ?")
        assert [r.as_tuple() for r in stmt.query(1)] == [(10,)]
        before = [r.as_tuple() for r in stmt.query(3)]
        sdb.crash_primary(1)
        report = sdb.promote(1)
        assert report.generation == 1
        # Same prepared statement keeps working against the promoted
        # primary (the router re-mints per-shard state by generation).
        assert [r.as_tuple() for r in stmt.query(3)] == before
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", 999, 3)
        assert [r.as_tuple() for r in stmt.query(3)] == [(999,)]
        sdb.assert_replica_groups_consistent()

    def test_read_your_writes_watermarks(self):
        sdb = make_replicated_sdb()
        conn = connect_sharded(sdb, replica_reads=True)
        # Fresh session: replica offload serves reads immediately.
        rows = conn.query("SELECT v FROM kv WHERE k = ?", 1)
        assert [r.as_tuple() for r in rows] == [(10,)]
        assert conn.replica_read_count == 1
        # Disconnect shard 1's replica, then write through shard 1:
        # the session watermark now exceeds the replica's applied LSN,
        # so the next read must fall back to the primary.
        group = sdb.groups[1]
        group.set_replica_connected(0, False)
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", 111, 1)
        offloaded = conn.replica_read_count
        rows = conn.query("SELECT v FROM kv WHERE k = ?", 1)
        assert [r.as_tuple() for r in rows] == [(111,)]
        assert conn.replica_read_count == offloaded
        # Reconnect (catch-up): the replica satisfies the watermark
        # again and serves the stale-safe read.
        group.set_replica_connected(0, True)
        rows = conn.query("SELECT v FROM kv WHERE k = ?", 1)
        assert [r.as_tuple() for r in rows] == [(111,)]
        assert conn.replica_read_count == offloaded + 1


class TestLogRetentionAndTruncation:
    def test_truncate_below_keeps_lsn_numbering(self):
        primary, group = make_group(n_replicas=1)
        # A healthy group empties its log at every commit; a partitioned
        # replica pins the entries it has yet to apply.
        group.set_replica_connected(0, False)
        for k in range(4):
            commit_rows(primary, [(k, k)])
        assert group.log.tip == 4
        assert [e.lsn for e in group.log.entries] == [1, 2, 3, 4]
        assert group.log.truncate_below(2) == 2
        assert group.log.base_lsn == 2
        assert group.log.tip == 4  # truncation never renumbers
        assert group.log.stats.truncated == 2
        assert [e.lsn for e in group.log.entries_after(2)] == [3, 4]
        # Idempotent below the base.
        assert group.log.truncate_below(1) == 0

    def test_entries_after_below_base_requires_resync(self):
        primary, group = make_group(n_replicas=1)
        for k in range(3):
            commit_rows(primary, [(k, k)])
        group.log.truncate_below(2)
        with pytest.raises(ShardError) as err:
            group.log.entries_after(0)
        assert "resync" in str(err.value)

    def test_retention_bounds_the_log_when_replicas_keep_up(self):
        primary, group = make_group(n_replicas=2)
        group.retention = 2
        for k in range(10):
            commit_rows(primary, [(k, k)])
        # Every replica applied everything, so truncation runs to the
        # tip whenever the log exceeds the retention window.
        assert len(group.log.entries) <= 2
        assert group.log.stats.truncated >= 8
        group.assert_replicas_consistent()

    def test_partitioned_replica_does_not_pin_the_log(self):
        primary, group = make_group(n_replicas=2)
        group.retention = 2
        group.set_replica_connected(1, False)
        for k in range(6):
            commit_rows(primary, [(k, k)])
        # The floor is the *connected* minimum: replica 0's position.
        assert group.log.base_lsn == 6
        assert group.replicas[1].applied_lsn == 0
        # Reconnect: its position is below the base, so catch-up is a
        # full resync instead of an impossible replay.
        group.set_replica_connected(1, True)
        assert group.stats.resyncs == 1
        assert group.replicas[1].applied_lsn == 6
        group.assert_replicas_consistent()

    def test_fully_partitioned_group_truncates_nothing(self):
        primary, group = make_group(n_replicas=2)
        group.retention = 1
        group.set_replica_connected(0, False)
        group.set_replica_connected(1, False)
        for k in range(5):
            commit_rows(primary, [(k, k)])
        # Dropping entries nobody applied would force resyncs on every
        # reconnect; the policy waits for at least one connected peer.
        assert group.log.base_lsn == 0
        assert len(group.log.entries) == 5
        group.set_replica_connected(0, True)
        group.set_replica_connected(1, True)
        assert group.stats.resyncs == 0  # plain catch-up sufficed
        group.assert_replicas_consistent()
