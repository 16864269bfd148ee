"""MVCC snapshot isolation: visibility, read-only rules, GC, and the
serial-schedule differential oracle across all three execution rungs."""

import pytest

from repro.db import Database, LockManager, connect
from repro.db.errors import TransactionError
from repro.db.sql.compile_plan import SQL_EXEC_MODES


def make_db():
    db = Database()
    db.create_table(
        "acct",
        [("id", "int", False), ("owner", "text"), ("bal", "float")],
        primary_key=["id"],
    )
    conn = connect(db, sql_exec="tree")
    for i in range(1, 6):
        conn.execute(
            "INSERT INTO acct (id, owner, bal) VALUES (?, ?, ?)",
            i, f"owner{i % 2}", 100.0 * i,
        )
    return db


# One statement per mutation path of the executors: the source rung
# inlines the point insert and the point update of non-key columns.
SINGLE_WRITES = {
    "point insert": "INSERT INTO acct (id, owner, bal) VALUES (9, 'x', 9.0)",
    "point update": "UPDATE acct SET bal = -5.0 WHERE id = 4",
    "range update": "UPDATE acct SET bal = bal + 1.0 WHERE id > 3",
    "key update": "UPDATE acct SET id = 40 WHERE id = 4",
    "delete": "DELETE FROM acct WHERE id = 5",
}


class TestSnapshotVisibility:
    @pytest.mark.parametrize("mode", SQL_EXEC_MODES)
    def test_reader_pins_pre_update_state(self, mode):
        db = make_db()
        lm = LockManager()
        writer = connect(db, lm, sql_exec=mode)
        reader = connect(db, lm, sql_exec=mode)
        reader.begin(snapshot=True)
        before = [r.as_tuple() for r in reader.query(
            "SELECT id, bal FROM acct ORDER BY id")]
        writer.execute("UPDATE acct SET bal = 0.0 WHERE id = 2")
        # Committed after the pin: still invisible to the snapshot.
        assert [r.as_tuple() for r in reader.query(
            "SELECT id, bal FROM acct ORDER BY id")] == before
        reader.commit()
        fresh = connect(db, lm, sql_exec=mode)
        fresh.begin(snapshot=True)
        assert fresh.query_scalar(
            "SELECT bal FROM acct WHERE id = 2") == 0.0
        fresh.commit()

    @pytest.mark.parametrize("mode", SQL_EXEC_MODES)
    def test_reader_never_sees_uncommitted_writes(self, mode):
        db = make_db()
        lm = LockManager()
        writer = connect(db, lm, sql_exec=mode)
        reader = connect(db, lm, sql_exec=mode)
        reader.begin(snapshot=True)
        writer.begin()
        writer.execute("UPDATE acct SET bal = -1.0 WHERE id = 1")
        writer.execute("INSERT INTO acct (id, owner, bal) "
                       "VALUES (9, 'x', 9.0)")
        writer.execute("DELETE FROM acct WHERE id = 5")
        rows = [r.as_tuple() for r in reader.query(
            "SELECT id, bal FROM acct ORDER BY id")]
        assert rows == [(1, 100.0), (2, 200.0), (3, 300.0),
                        (4, 400.0), (5, 500.0)]
        writer.commit()
        # Still the pinned snapshot after the writer commits.
        assert [r.as_tuple() for r in reader.query(
            "SELECT id, bal FROM acct ORDER BY id")] == rows
        reader.commit()

    @pytest.mark.parametrize("mode", SQL_EXEC_MODES)
    def test_snapshot_sees_deletes_and_inserts_consistently(self, mode):
        db = make_db()
        lm = LockManager()
        writer = connect(db, lm, sql_exec=mode)
        reader = connect(db, lm, sql_exec=mode)
        writer.execute("DELETE FROM acct WHERE id = 3")
        reader.begin(snapshot=True)
        writer.execute("INSERT INTO acct (id, owner, bal) "
                       "VALUES (3, 'back', 3.0)")
        ids = [r[0] for r in reader.query("SELECT id FROM acct ORDER BY id")]
        assert ids == [1, 2, 4, 5]
        reader.commit()

    @pytest.mark.parametrize("mode", SQL_EXEC_MODES)
    def test_two_snapshots_see_their_own_epochs(self, mode):
        db = make_db()
        lm = LockManager()
        writer = connect(db, lm, sql_exec=mode)
        r1 = connect(db, lm, sql_exec=mode)
        r1.begin(snapshot=True)
        writer.execute("UPDATE acct SET bal = 1.0 WHERE id = 1")
        r2 = connect(db, lm, sql_exec=mode)
        r2.begin(snapshot=True)
        writer.execute("UPDATE acct SET bal = 2.0 WHERE id = 1")
        assert r1.query_scalar("SELECT bal FROM acct WHERE id = 1") == 100.0
        assert r2.query_scalar("SELECT bal FROM acct WHERE id = 1") == 1.0
        assert writer.query_scalar(
            "SELECT bal FROM acct WHERE id = 1") == 2.0
        r1.commit()
        r2.commit()

    @pytest.mark.parametrize("mode", SQL_EXEC_MODES)
    def test_snapshot_aggregates_over_old_epoch(self, mode):
        db = make_db()
        lm = LockManager()
        writer = connect(db, lm, sql_exec=mode)
        reader = connect(db, lm, sql_exec=mode)
        reader.begin(snapshot=True)
        total = reader.query_scalar("SELECT SUM(bal) FROM acct")
        writer.execute("UPDATE acct SET bal = bal + 1000.0 WHERE id > 0")
        assert reader.query_scalar("SELECT SUM(bal) FROM acct") == total
        reader.commit()


class TestSnapshotRules:
    @pytest.mark.parametrize("mode", SQL_EXEC_MODES)
    @pytest.mark.parametrize("sql", SINGLE_WRITES.values(),
                             ids=SINGLE_WRITES.keys())
    def test_snapshot_txn_rejects_mutations(self, mode, sql):
        db = make_db()
        conn = connect(db, LockManager(), sql_exec=mode)
        conn.begin(snapshot=True)
        with pytest.raises(TransactionError):
            conn.execute(sql)
        conn.rollback()

    @pytest.mark.parametrize("mode", SQL_EXEC_MODES)
    def test_snapshot_reader_takes_no_locks_and_never_blocks(self, mode):
        db = make_db()
        lm = LockManager()
        reader = connect(db, lm, sql_exec=mode)
        writer = connect(db, lm, sql_exec=mode)
        txn = reader.begin(snapshot=True)
        reader.query("SELECT id FROM acct ORDER BY id")
        assert not lm.held_by(txn.id)
        # A writer is free to take X locks the reader would conflict
        # with under 2PL.
        writer.begin()
        writer.execute("UPDATE acct SET bal = 0.0 WHERE id = 1")
        reader.query("SELECT id FROM acct ORDER BY id")
        assert not lm.held_by(txn.id)
        writer.commit()
        reader.commit()

    @pytest.mark.parametrize("mode", SQL_EXEC_MODES)
    def test_writer_rollback_restores_snapshot_fast_path(self, mode):
        db = make_db()
        lm = LockManager()
        reader = connect(db, lm, sql_exec=mode)
        writer = connect(db, lm, sql_exec=mode)
        reader.begin(snapshot=True)
        writer.begin()
        writer.execute("UPDATE acct SET bal = -5.0 WHERE id = 4")
        assert reader.query_scalar(
            "SELECT bal FROM acct WHERE id = 4") == 400.0
        writer.rollback()
        assert reader.query_scalar(
            "SELECT bal FROM acct WHERE id = 4") == 400.0
        reader.commit()

    @pytest.mark.parametrize("mode", SQL_EXEC_MODES)
    @pytest.mark.parametrize("sql", SINGLE_WRITES.values(),
                             ids=SINGLE_WRITES.keys())
    def test_single_statement_writer_is_invisible_until_commit(
        self, mode, sql
    ):
        """A writer whose *only* mutation takes one executor path must
        register with the version store on that path: the source rung
        inlines the point insert and the point update, and a writer
        that never ran another kind of statement went unregistered."""
        db = make_db()
        lm = LockManager()
        reader = connect(db, lm, sql_exec=mode)
        writer = connect(db, lm, sql_exec=mode)
        def rows(conn):
            return [r.as_tuple() for r in conn.query(
                "SELECT id, bal FROM acct ORDER BY id")]

        reader.begin(snapshot=True)
        before = rows(reader)
        writer.begin()
        writer.execute(sql)
        assert rows(reader) == before
        late = connect(db, lm, sql_exec=mode)
        late.begin(snapshot=True)  # pinned beside the open writer
        assert rows(late) == before
        writer.commit()
        assert rows(reader) == before
        assert rows(late) == before
        reader.commit()
        late.commit()
        fresh = connect(db, lm, sql_exec=mode)
        fresh.begin(snapshot=True)
        assert rows(fresh) != before
        fresh.commit()


class TestVersionGc:
    def test_history_only_retained_while_pinned(self):
        db = make_db()
        lm = LockManager()
        writer = connect(db, lm)
        mvcc = db.enable_mvcc()
        writer.execute("UPDATE acct SET bal = 1.0 WHERE id = 1")
        assert mvcc.version_entries() == 0  # no pins: nothing retained
        reader = connect(db, lm)
        reader.begin(snapshot=True)
        writer.execute("UPDATE acct SET bal = 2.0 WHERE id = 1")
        assert mvcc.version_entries() > 0
        reader.commit()
        assert mvcc.version_entries() == 0  # unpin is the GC watermark

    def test_gc_watermark_is_oldest_pin(self):
        db = make_db()
        lm = LockManager()
        writer = connect(db, lm)
        mvcc = db.enable_mvcc()
        r1 = connect(db, lm)
        r1.begin(snapshot=True)
        writer.execute("UPDATE acct SET bal = 1.0 WHERE id = 1")
        r2 = connect(db, lm)
        r2.begin(snapshot=True)
        writer.execute("UPDATE acct SET bal = 2.0 WHERE id = 1")
        assert mvcc.version_entries() == 2
        r1.commit()  # r2 still pins the newer snapshot
        assert mvcc.version_entries() == 1
        assert r2.query_scalar("SELECT bal FROM acct WHERE id = 1") == 1.0
        r2.commit()
        assert mvcc.version_entries() == 0


class TestSerialDifferential:
    """Under a serial schedule the MVCC engine must be bit-identical
    to the lock-based engine, in every execution rung."""

    QUERIES = [
        ("SELECT id, owner, bal FROM acct ORDER BY id", ()),
        ("SELECT owner, COUNT(*), SUM(bal) FROM acct GROUP BY owner "
         "ORDER BY owner", ()),
        ("SELECT bal FROM acct WHERE id = ?", (3,)),
        ("SELECT id FROM acct WHERE bal > ? ORDER BY bal DESC", (150.0,)),
    ]

    @pytest.mark.parametrize("mode", SQL_EXEC_MODES)
    def test_serial_schedule_bit_identical(self, mode):
        results = {}
        for variant in ("locked", "snapshot"):
            db = make_db()
            lm = LockManager()
            conn = connect(db, lm, sql_exec=mode)
            conn.execute("UPDATE acct SET bal = bal * 2 WHERE owner = ?",
                         "owner1")
            conn.execute("INSERT INTO acct (id, owner, bal) "
                         "VALUES (7, 'owner0', 70.0)")
            if variant == "snapshot":
                conn.begin(snapshot=True)
            else:
                conn.begin()
            collected = []
            for sql, params in self.QUERIES:
                rs = conn.query(sql, *params)
                collected.append(
                    (list(rs.columns), [r.as_tuple() for r in rs])
                )
            conn.commit()
            results[variant] = collected
        assert results["locked"] == results["snapshot"]

    @pytest.mark.parametrize("mode", SQL_EXEC_MODES)
    def test_divergent_snapshot_matches_tree_oracle(self, mode):
        """Once the snapshot diverges from the live state, every rung
        must reconstruct the same rows as the tree rung."""
        per_mode = {}
        for run_mode in ("tree", mode):
            db = make_db()
            lm = LockManager()
            writer = connect(db, lm, sql_exec=run_mode)
            reader = connect(db, lm, sql_exec=run_mode)
            reader.begin(snapshot=True)
            writer.execute("UPDATE acct SET bal = 0.0 WHERE id <= 2")
            writer.execute("DELETE FROM acct WHERE id = 4")
            collected = []
            for sql, params in TestSerialDifferential.QUERIES:
                rs = reader.query(sql, *params)
                collected.append(
                    (list(rs.columns), [r.as_tuple() for r in rs])
                )
            reader.commit()
            per_mode[run_mode] = collected
        assert per_mode["tree"] == per_mode[mode]
