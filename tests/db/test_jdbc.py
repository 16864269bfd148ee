"""JDBC-like connection API."""

import pytest

from repro.db import Database, connect
from repro.db.errors import ExecutionError, TransactionError
from repro.db.jdbc import _NO_INDEX, ResultSet, Row, column_index
from repro.db.sql.executor import StatementResult
from repro.runtime.serializer import wire_copy


@pytest.fixture()
def conn(people_db):
    return people_db[1]


class TestResultSet:
    def test_cursor_api(self, conn):
        rs = conn.query("SELECT id, name FROM person ORDER BY id LIMIT 2")
        assert rs.next()
        assert rs.get("id") == 1
        assert rs.get(1) == "ann"
        assert rs.next()
        assert rs.get("id") == 2
        assert not rs.next()

    def test_get_before_next_rejected(self, conn):
        rs = conn.query("SELECT id FROM person")
        with pytest.raises(ExecutionError):
            rs.get("id")

    def test_rewind(self, conn):
        rs = conn.query("SELECT id FROM person ORDER BY id LIMIT 1")
        rs.next()
        rs.rewind()
        assert rs.next()
        assert rs.get("id") == 1

    def test_one_requires_single_row(self, conn):
        with pytest.raises(ExecutionError):
            conn.query("SELECT id FROM person").one()

    def test_scalar_requires_single_column(self, conn):
        with pytest.raises(ExecutionError):
            conn.query("SELECT id, name FROM person WHERE id = 1").scalar()

    def test_first_and_bool(self, conn):
        empty = conn.query("SELECT id FROM person WHERE id = -1")
        assert not empty
        assert empty.first() is None
        nonempty = conn.query("SELECT id FROM person WHERE id = 1")
        assert nonempty
        assert nonempty.first()["id"] == 1

    def test_iteration(self, conn):
        rows = list(conn.query("SELECT id FROM person ORDER BY id"))
        assert [r["id"] for r in rows] == [1, 2, 3, 4, 5, 6]


def _result_set(columns, rows, index=None):
    return ResultSet(
        StatementResult(columns=columns, rows=rows, rowcount=len(rows),
                        rows_touched=len(rows)),
        index,
    )


class TestResultSetRows:
    """``ResultSet`` fills each ``Row``'s slots itself: the rows must be
    the ones ``Row(columns, values, index)`` builds."""

    COLUMNS = ["id", "Name", "ID"]
    ROWS = [(1, "ann", 10), (2, "bob", 20)]

    @pytest.mark.parametrize("indexed", [True, False])
    def test_rows_match_the_constructor(self, indexed):
        index = column_index(self.COLUMNS) if indexed else None
        rs = _result_set(self.COLUMNS, list(self.ROWS), index)
        assert rs._index is index
        for row, values in zip(rs._rows, self.ROWS):
            built = Row(rs.columns, values, index)
            assert type(row) is Row
            assert row._columns is rs.columns  # one list, shared
            assert row._values is values
            assert row._index is (index if indexed else _NO_INDEX)
            assert row._index is built._index
            assert row._wire_size is None
            assert (row["name"], row["ID"], row[2]) == (
                built["name"], built["ID"], built[2])

    def test_wire_copies_keep_the_sharing(self):
        index = column_index(self.COLUMNS)
        rs = _result_set(self.COLUMNS, list(self.ROWS), index)
        rs._rows[0]._wire_size = 99
        copy = wire_copy(rs)
        assert copy is not rs and copy.columns == rs.columns
        assert copy._index is index
        for row, original in zip(copy._rows, rs._rows):
            assert row is not original
            assert row._columns is copy.columns
            assert row._values is original._values
            assert row._index is index
        assert copy._rows[1]._wire_size is None
        one = wire_copy(rs._rows[0])
        assert (one._columns, one._values, one._index, one._wire_size) == (
            rs.columns, (1, "ann", 10), index, 99)

    @pytest.mark.parametrize("rows, call, message", [
        ([], "one", "expected exactly one row, got 0"),
        ([(1, 2), (3, 4)], "one", "expected exactly one row, got 2"),
        ([], "scalar", "expected exactly one row, got 0"),
        ([(1, 2), (3, 4)], "scalar", "expected exactly one row, got 2"),
        ([(1, 2)], "scalar", "expected exactly one column, got 2"),
    ])
    def test_one_and_scalar_errors(self, rows, call, message):
        rs = _result_set(["a", "b"], rows, column_index(["a", "b"]))
        with pytest.raises(ExecutionError) as raised:
            getattr(rs, call)()
        assert str(raised.value) == message

    def test_one_and_scalar_answers(self):
        rs = _result_set(["a"], [(7,)], column_index(["a"]))
        assert rs.one() is rs._rows[0]
        assert rs.scalar() == 7


class TestRow:
    def test_access_by_name_case_insensitive(self, conn):
        row = conn.query_one("SELECT name FROM person WHERE id = 1")
        assert row["NAME"] == "ann"

    def test_access_by_index(self, conn):
        row = conn.query_one("SELECT id, name FROM person WHERE id = 1")
        assert row[0] == 1

    def test_missing_key(self, conn):
        row = conn.query_one("SELECT id FROM person WHERE id = 1")
        with pytest.raises(KeyError):
            row["nope"]
        assert row.get("nope", "dflt") == "dflt"

    def test_equality_with_tuple(self, conn):
        row = conn.query_one("SELECT id, name FROM person WHERE id = 1")
        assert row == (1, "ann")

    def test_column_index_keeps_the_first_case_insensitive_match(self):
        assert column_index(["X", "x", "y", "X", "Y"]) == {
            "X": 0, "x": 0, "y": 2, "Y": 2,
        }

    @pytest.mark.parametrize("sql_exec", ["tree", "source"])
    def test_indexed_rows_answer_as_the_scan_does(self, people_db, sql_exec):
        """Names that differ only by case (``Ab`` / ``aB``) give the
        first column for every casing, on every rung, after a wire copy
        and on a row built without an index; unknown names, defaults and
        negative positions behave as before."""
        conn = connect(people_db[0], sql_exec=sql_exec)
        sql = "SELECT id AS Ab, name AS aB FROM person WHERE id = ?"
        rs = conn.query(sql, 2)
        row = rs.one()
        rows = [row, wire_copy(row), wire_copy(rs).one(),
                Row(["Ab", "aB"], (2, "bob"))]
        for candidate in rows:
            assert candidate == (2, "bob")
            for key in ("Ab", "aB", "AB", "ab"):
                assert candidate[key] == 2
                assert candidate.get(key) == 2
            assert candidate[-1] == "bob"
            assert candidate.get(-3, "dflt") == "dflt"
            assert candidate.get("name", "dflt") == "dflt"
            with pytest.raises(KeyError):
                candidate["name"]
            with pytest.raises(IndexError):
                candidate[2]


class TestConnection:
    def test_plan_cache_reuses_prepared(self, conn):
        first = conn.prepare("SELECT id FROM person WHERE id = ?")
        second = conn.prepare("SELECT id FROM person WHERE id = ?")
        assert first is second

    def test_plan_cache_counts_hits_and_misses(self, conn):
        stats = conn.plan_cache_stats
        stats.reset()
        conn.prepare("SELECT id FROM person WHERE id = ?")
        conn.prepare("SELECT id FROM person WHERE id = ?")
        conn.prepare("SELECT name FROM person WHERE id = ?")
        assert stats.misses == 2
        assert stats.hits == 1

    def test_plan_cache_bounded_lru(self, people_db):
        db, _ = people_db
        conn = connect(db, plan_cache_size=2)
        a = "SELECT id FROM person WHERE id = 1"
        b = "SELECT id FROM person WHERE id = 2"
        c = "SELECT id FROM person WHERE id = 3"
        conn.prepare(a)
        conn.prepare(b)
        conn.prepare(a)  # refresh a: b becomes least recently used
        conn.prepare(c)  # evicts b
        assert conn.plan_cache_stats.evictions == 1
        # Cache entries are keyed on (executor mode, sql).
        assert set(conn._plan_cache) == {
            (conn.sql_exec, a), (conn.sql_exec, c)
        }
        assert len(conn._plan_cache) <= 2

    def test_execute_rejects_select(self, conn):
        with pytest.raises(ExecutionError):
            conn.execute("SELECT id FROM person")

    def test_query_rejects_update_via_prepared(self, conn):
        stmt = conn.prepare("DELETE FROM person WHERE id = ?")
        with pytest.raises(ExecutionError):
            stmt.query(1)

    def test_observer_sees_calls(self, conn):
        events = []
        conn.observer = lambda kind, sql, touched, rows: events.append(kind)
        conn.query("SELECT id FROM person WHERE id = 1")
        conn.execute("UPDATE person SET age = 1 WHERE id = 1")
        assert events == ["query", "update"]

    def test_call_counter(self, conn):
        before = conn.calls
        conn.query("SELECT id FROM person WHERE id = 1")
        assert conn.calls == before + 1

    def test_closed_connection_rejects_use(self, people_db):
        _, conn = people_db
        conn.close()
        with pytest.raises(ExecutionError):
            conn.query("SELECT id FROM person")

    def test_context_manager_closes(self, people_db):
        db, _ = people_db
        with connect(db) as conn:
            conn.query("SELECT id FROM person WHERE id = 1")
        assert conn.closed


class TestTransactions:
    def test_explicit_commit(self, people_db):
        db, _ = people_db
        conn = connect(db, use_locks=True)
        conn.begin()
        conn.execute("DELETE FROM person WHERE id = 1")
        conn.commit()
        assert conn.query_scalar("SELECT COUNT(*) FROM person") == 5

    def test_explicit_rollback(self, people_db):
        db, _ = people_db
        conn = connect(db, use_locks=True)
        conn.begin()
        conn.execute("DELETE FROM person")
        assert conn.query_scalar("SELECT COUNT(*) FROM person") == 0
        conn.rollback()
        assert conn.query_scalar("SELECT COUNT(*) FROM person") == 6

    def test_nested_begin_rejected(self, people_db):
        db, _ = people_db
        conn = connect(db, use_locks=True)
        conn.begin()
        with pytest.raises(TransactionError):
            conn.begin()

    def test_commit_without_begin_rejected(self, conn):
        with pytest.raises(TransactionError):
            conn.commit()

    def test_close_rolls_back_open_transaction(self, people_db):
        db, _ = people_db
        conn = connect(db, use_locks=True)
        conn.begin()
        conn.execute("DELETE FROM person WHERE id = 1")
        conn.close()
        verify = connect(db)
        assert verify.query_scalar("SELECT COUNT(*) FROM person") == 6

    def test_in_transaction_flag(self, people_db):
        db, _ = people_db
        conn = connect(db, use_locks=True)
        assert not conn.in_transaction
        conn.begin()
        assert conn.in_transaction
        conn.commit()
        assert not conn.in_transaction
