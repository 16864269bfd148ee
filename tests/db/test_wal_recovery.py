"""Crash-restart recovery: checkpoint + redo replay vs live state.

The contract under test: kill a WAL-attached deployment at any
statement boundary (including between 2PC prepare and commit) and
:func:`repro.db.recovery.recover` rebuilds state bit-identical to an
uninjected oracle -- same rows in the same scan order, same rowid
allocator positions, same in-doubt resolution.  Damage below the
checkpoint low-water mark must not block recovery; damage above it
must fail fast with the offending LSN quoted.
"""

import io
import json
import random

import pytest

from repro.db import (
    Database,
    ShardedDatabase,
    ShardingScheme,
    TableSharding,
    TwoPhaseAbortError,
    attach_wal,
    connect,
    connect_sharded,
    recover,
    recover_database,
    recover_sharded,
)
from repro.db.errors import WalCorruptionError
from repro.db.wal import scan_wal

MODES = ("tree", "compiled", "source")


# ---------------------------------------------------------------------------
# State fingerprints
# ---------------------------------------------------------------------------


def _db_state(db: Database) -> dict:
    """Rows in scan order + rowid allocator position, per table."""
    state = {}
    for table in db.tables():
        table.ensure_scan_order()
        state[table.schema.name] = (
            list(table.scan()), table._next_rowid.peek()  # noqa: SLF001
        )
    return state


def _sdb_state(sdb: ShardedDatabase) -> list:
    return [_db_state(shard) for shard in sdb.shards]


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def make_kv_db(rows=((1, 10), (2, 20))) -> Database:
    db = Database("single")
    db.create_table(
        "kv", [("k", "int", False), ("v", "int")], primary_key=["k"]
    )
    for row in rows:
        db.table("kv").insert(row)
    return db


def make_kv_sdb(shards: int = 2, replicas: int = 0) -> ShardedDatabase:
    sdb = ShardedDatabase(
        "r",
        shards=shards,
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


# ---------------------------------------------------------------------------
# Single database
# ---------------------------------------------------------------------------


class TestSingleDatabase:
    def test_round_trip_bit_identical(self, tmp_path):
        db = make_kv_db()
        manager = attach_wal(db, tmp_path)
        conn = connect(db)
        conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", 3, 30)
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", 99, 1)
        conn.execute("DELETE FROM kv WHERE k = ?", 2)
        manager.close()
        recovered, report = recover_database(tmp_path)
        assert _db_state(recovered) == _db_state(db)
        assert report.commits_applied == 3
        assert report.shard_reports[0].checkpoint_rows == 2
        assert report.epoch == 1 and report.shards == 1

    def test_empty_wal_restart(self, tmp_path):
        db = make_kv_db(rows=())
        manager = attach_wal(db, tmp_path)
        manager.close()
        recovered, report = recover_database(tmp_path)
        assert _db_state(recovered) == _db_state(db)
        assert report.commits_applied == 0
        # The recovered database restarts cleanly: re-attach + write.
        again = attach_wal(recovered, tmp_path)
        connect(recovered).execute(
            "INSERT INTO kv (k, v) VALUES (?, ?)", 1, 10
        )
        again.close()
        final, _ = recover_database(tmp_path)
        assert _db_state(final) == _db_state(recovered)

    def test_crash_during_checkpoint_leaves_stale_tmp(self, tmp_path):
        db = make_kv_db()
        manager = attach_wal(db, tmp_path)
        connect(db).execute("INSERT INTO kv (k, v) VALUES (?, ?)", 3, 30)
        # Crash mid-checkpoint: half-written temp, old checkpoint intact.
        (tmp_path / "shard0.ckpt.tmp").write_text('{"lsn": 999, "tab')
        manager.close()
        recovered, report = recover_database(tmp_path)
        assert _db_state(recovered) == _db_state(db)
        assert report.commits_applied == 1

    def test_torn_final_frame_recovers_durable_prefix(self, tmp_path):
        db = make_kv_db()
        manager = attach_wal(db, tmp_path)
        connect(db).execute("INSERT INTO kv (k, v) VALUES (?, ?)", 3, 30)
        manager.wals[0].inject_torn_write()
        manager.close()
        recovered, report = recover_database(tmp_path)
        assert _db_state(recovered) == _db_state(db)
        assert report.shard_reports[0].torn_tail

    def test_corrupt_frame_past_checkpoint_fails_fast(self, tmp_path):
        db = make_kv_db()
        manager = attach_wal(db, tmp_path)
        conn = connect(db)
        conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", 3, 30)
        conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", 4, 40)
        corrupted = manager.wals[0].inject_corruption()
        manager.close()
        with pytest.raises(WalCorruptionError) as err:
            recover_database(tmp_path)
        assert f"LSN {corrupted}" in str(err.value)

    def test_corrupt_frame_covered_by_checkpoint_is_skipped(self, tmp_path):
        db = make_kv_db()
        manager = attach_wal(db, tmp_path)
        conn = connect(db)
        conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", 3, 30)
        # Checkpoint covers the insert; keep its frame for the fault.
        manager.checkpoint([db], truncate=False)
        conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", 4, 40)
        covered_lsn = scan_wal(manager.wals[0].path).frames[0].lsn
        assert covered_lsn <= manager.wals[0].read_checkpoint()["lsn"]
        assert manager.wals[0].inject_corruption(covered_lsn) == covered_lsn
        manager.close()
        recovered, report = recover_database(tmp_path)
        assert _db_state(recovered) == _db_state(db)
        assert report.shard_reports[0].frames_skipped >= 1

    def test_rowid_allocation_resumes_identically(self, tmp_path):
        db = make_kv_db()
        manager = attach_wal(db, tmp_path)
        conn = connect(db)
        conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", 3, 30)
        conn.execute("DELETE FROM kv WHERE k = ?", 3)  # burns rowid 3
        manager.close()
        recovered, _ = recover_database(tmp_path)
        db.redo_collector = None  # detach the closed log
        connect(db).execute("INSERT INTO kv (k, v) VALUES (?, ?)", 5, 50)
        connect(recovered).execute(
            "INSERT INTO kv (k, v) VALUES (?, ?)", 5, 50
        )
        assert _db_state(recovered) == _db_state(db)


# ---------------------------------------------------------------------------
# Sharded tier
# ---------------------------------------------------------------------------


class TestShardedRecovery:
    def test_round_trip_with_cross_shard_txn(self, tmp_path):
        sdb = make_kv_sdb()
        manager = attach_wal(sdb, tmp_path)
        conn = connect_sharded(sdb)
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", 111, 1)
        conn.begin()
        conn.execute("UPDATE kv SET v = v + ? WHERE k = ?", 1, 2)  # shard 0
        conn.execute("UPDATE kv SET v = v + ? WHERE k = ?", 1, 3)  # shard 1
        conn.commit()
        manager.close()
        recovered, report = recover_sharded(tmp_path)
        assert _sdb_state(recovered) == _sdb_state(sdb)
        assert report.decisions == 1
        assert sum(r.resolves_applied for r in report.shard_reports) == 2

    def test_checkpoint_files_are_the_streaming_encoders_bytes(
        self, tmp_path
    ):
        """Checkpoints and ``meta.json`` are written with ``json.dumps``
        (the C encoder); the bytes must be exactly what streaming
        ``json.dump`` (the pure-Python encoder they used to go through)
        produces, and recovery from them must still round-trip."""
        sdb = ShardedDatabase(
            "r", shards=2,
            scheme=ShardingScheme(
                {"t": TableSharding(columns=("k",), strategy="mod")}
            ),
        )
        sdb.create_table(
            "t",
            [("k", "int", False), ("name", "text"), ("score", "float")],
            primary_key=["k"],
        )
        names = ["plain", "na\u00efve \u2713", 'quote " back \\ slash',
                 "line\nbreak\ttab", None, ""]
        for k in range(12):
            score = None if k == 5 else (k - 3) / 7.0 * 1e-5 ** (k % 3)
            sdb.insert("t", (k, names[k % len(names)], score))
        manager = attach_wal(sdb, tmp_path)
        conn = connect_sharded(sdb)
        conn.execute("UPDATE t SET score = ? WHERE k = ?", 2.0 ** 70, 1)
        conn.execute("INSERT INTO t (k, name, score) VALUES (?, ?, ?)",
                     2 ** 40, "big key", -0.0)
        conn.execute("DELETE FROM t WHERE k = ?", 4)
        assert None not in manager.checkpoint(sdb.shards)
        conn.execute("UPDATE t SET name = ? WHERE k = ?", "after", 2)
        manager.close()

        def streamed(text, **kwargs):
            out = io.StringIO()
            json.dump(json.loads(text), out, separators=(",", ":"), **kwargs)
            return out.getvalue()

        for wal in manager.wals:
            text = wal.checkpoint_path.read_bytes().decode("utf-8")
            assert len(json.loads(text)["tables"][0]["rows"]) >= 5
            assert streamed(text) == text
        meta = (tmp_path / "meta.json").read_bytes().decode("utf-8")
        assert streamed(meta, sort_keys=True) == meta
        recovered, _ = recover_sharded(tmp_path)
        assert _sdb_state(recovered) == _sdb_state(sdb)

    def test_recover_dispatches_on_meta(self, tmp_path):
        single_db = make_kv_db()
        attach_wal(single_db, tmp_path / "single").close()
        sdb = make_kv_sdb()
        attach_wal(sdb, tmp_path / "sharded").close()
        single_rec, _ = recover(tmp_path / "single")
        sharded_rec, _ = recover(tmp_path / "sharded")
        assert isinstance(single_rec, Database)
        assert isinstance(sharded_rec, ShardedDatabase)
        assert sharded_rec.n_shards == 2

    def test_replicas_reseeded_from_recovered_primaries(self, tmp_path):
        sdb = make_kv_sdb(replicas=1)
        manager = attach_wal(sdb, tmp_path)
        connect_sharded(sdb).execute(
            "UPDATE kv SET v = ? WHERE k = ?", 777, 4
        )
        manager.close()
        recovered, report = recover_sharded(tmp_path)
        assert report.replicas == 1
        assert _sdb_state(recovered) == _sdb_state(sdb)
        recovered.assert_replica_groups_consistent()
        for group in recovered.groups:
            for replica in group.replicas:
                assert (
                    list(replica.database.table("kv").scan())
                    == list(group.primary.table("kv").scan())
                )


class TestTwoPhaseInDoubt:
    def _prepared_txn(self, tmp_path):
        """A cross-shard transaction held in the prepared window."""
        sdb = make_kv_sdb()
        manager = attach_wal(sdb, tmp_path)
        oracle = _sdb_state(sdb)  # state if the txn aborts
        conn = connect_sharded(sdb)
        txn = conn.begin()
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", -1, 0)  # shard 0
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", -1, 1)  # shard 1
        txn.prepare()
        return sdb, manager, txn, oracle

    def test_crash_between_prepare_and_decision_presumes_abort(
        self, tmp_path
    ):
        sdb, manager, txn, oracle = self._prepared_txn(tmp_path)
        manager.close()  # crash: no decision record was forced
        recovered, report = recover_sharded(tmp_path)
        assert _sdb_state(recovered) == oracle
        assert report.in_doubt_aborted == [txn.gtid]
        assert report.in_doubt_committed == []

    def test_crash_after_durable_decision_applies_prepares(self, tmp_path):
        sdb, manager, txn, _ = self._prepared_txn(tmp_path)
        # The commit point happened, then the crash hit before any
        # branch commit: recovery must finish the transaction.
        assert manager.coordinator.log_commit(
            txn.gtid, txn._wal_prepared_shards  # noqa: SLF001
        )
        manager.close()
        recovered, report = recover_sharded(tmp_path)
        assert report.in_doubt_committed == [txn.gtid]
        rows = dict(
            row for _, row in recovered.logical_rows("kv").items()
        )
        assert rows[0] == -1 and rows[1] == -1

    def test_undurable_decision_aborts_the_live_coordinator(self, tmp_path):
        sdb = make_kv_sdb()
        manager = attach_wal(sdb, tmp_path)
        oracle = _sdb_state(sdb)
        manager.coordinator.fsync_fail = True
        conn = connect_sharded(sdb)
        conn.begin()
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", -1, 0)
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", -1, 1)
        with pytest.raises(TwoPhaseAbortError):
            conn.commit()
        assert _sdb_state(sdb) == oracle  # live rollback happened
        manager.close()
        recovered, report = recover_sharded(tmp_path)
        assert _sdb_state(recovered) == oracle
        assert report.in_doubt_committed == []


# ---------------------------------------------------------------------------
# Differential kill harness: TPC-C prefixes across the three rungs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql_exec", MODES)
class TestTpccKillPoints:
    """Kill a WAL-attached sharded TPC-C run at seeded random statement
    boundaries; recovery must match an uninjected oracle bit for bit
    under every execution rung (tree / compiled / source)."""

    SHARDS = 3

    def _deployments(self, sql_exec):
        from repro.workloads.tpcc import (
            TpccScale,
            make_tpcc_database,
            new_order_statement_script,
            tpcc_sharding_scheme,
        )

        scale = TpccScale(
            warehouses=3, customers_per_district=20, items=120
        )
        scheme = tpcc_sharding_scheme("warehouse")
        script = new_order_statement_script(
            scale, transactions=6, seed=3
        )
        oracle_src, _ = make_tpcc_database(scale)
        victim_src, _ = make_tpcc_database(scale)
        oracle = ShardedDatabase.from_database(
            oracle_src, self.SHARDS, scheme
        )
        victim = ShardedDatabase.from_database(
            victim_src, self.SHARDS, scheme
        )
        return oracle, victim, script

    def test_recovery_matches_oracle_at_random_kill_points(
        self, tmp_path, sql_exec
    ):
        oracle, victim, script = self._deployments(sql_exec)
        rng = random.Random(1000 + MODES.index(sql_exec))
        kill_at = rng.randrange(1, len(script))
        wal_dir = tmp_path / "wal"
        manager = attach_wal(victim, wal_dir)
        oracle_conn = connect_sharded(oracle, sql_exec=sql_exec)
        victim_conn = connect_sharded(victim, sql_exec=sql_exec)
        for sql, params in script[:kill_at]:
            prepared = oracle_conn.prepare(sql)
            got_oracle = (
                list(prepared.query(*params).rows)
                if prepared.is_query else prepared.update(*params)
            )
            prepared = victim_conn.prepare(sql)
            got_victim = (
                list(prepared.query(*params).rows)
                if prepared.is_query else prepared.update(*params)
            )
            if not prepared.is_query:
                assert got_oracle == got_victim, sql
        # Crash mid-append of the next, never-acknowledged frame.
        manager.wals[kill_at % self.SHARDS].inject_torn_write()
        manager.close()
        recovered, report = recover_sharded(wal_dir)
        assert _sdb_state(recovered) == _sdb_state(oracle), (
            f"recovery diverged at kill point {kill_at} ({sql_exec})"
        )
        assert report.commits_applied > 0

    def test_recovered_cluster_continues_identically(
        self, tmp_path, sql_exec
    ):
        oracle, victim, script = self._deployments(sql_exec)
        split = len(script) // 2
        manager = attach_wal(victim, tmp_path)
        oracle_conn = connect_sharded(oracle, sql_exec=sql_exec)
        victim_conn = connect_sharded(victim, sql_exec=sql_exec)
        for sql, params in script[:split]:
            for conn in (oracle_conn, victim_conn):
                prepared = conn.prepare(sql)
                if prepared.is_query:
                    prepared.query(*params)
                else:
                    prepared.update(*params)
        manager.close()
        recovered, _ = recover_sharded(tmp_path)
        # The tail of the script runs on the recovered cluster and the
        # untouched oracle; rowid allocation and scan order must agree.
        recovered_conn = connect_sharded(recovered, sql_exec=sql_exec)
        for sql, params in script[split:]:
            for conn in (oracle_conn, recovered_conn):
                prepared = conn.prepare(sql)
                if prepared.is_query:
                    prepared.query(*params)
                else:
                    prepared.update(*params)
        assert _sdb_state(recovered) == _sdb_state(oracle)
