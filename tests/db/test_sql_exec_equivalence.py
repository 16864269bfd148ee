"""Differential tests: tree executor vs generated-source plans.

Every statement runs against two identically-loaded databases, once
through the tree executor and once through the source rung, and the
two must agree **bit-identically**: same ``StatementResult`` (columns,
rows in order, rowcount, rows_touched), same undo-log growth, same
post-statement table contents, same errors, and same state after
rollback.  Covered mixes: the TPC-C new-order script, the TPC-W
browsing statements (joins, grouped aggregates, ORDER BY ... LIMIT),
the micro key-value statements, plus targeted NULL-handling, DISTINCT
aggregate and range-predicate cases.
"""

import pytest

from repro.db import Database, connect
from repro.db.catalog import IndexSpec
from repro.db.errors import IntegrityError
from repro.db.jdbc import Connection
from repro.db.txn import Transaction


# The rung under test; the tree executor is always the oracle.
_MODE = "source"


def _make_pair(factory):
    """Two identically-built (db, tree-conn, compiled-conn) fixtures."""
    db_tree, _ = factory()
    db_comp, _ = factory()
    return (
        (db_tree, connect(db_tree, sql_exec="tree")),
        (db_comp, connect(db_comp, sql_exec=_MODE)),
    )


def _state(db: Database) -> dict:
    """Full table contents keyed by rowid (rowids advance identically
    in both databases because they execute identical scripts)."""
    return {
        table.schema.name: dict(table.scan()) for table in db.tables()
    }


def _run(conn: Connection, sql: str, params: tuple, txn=None):
    prepared = conn.prepare(sql)
    if prepared.compiled is not None:
        return prepared.compiled.execute(params, txn)
    return conn.executor.execute(prepared.plan, params, txn)


def assert_statement_equivalence(pair, script, use_txn=False):
    """Run ``script`` on both connections, comparing every result."""
    (db_tree, conn_tree), (db_comp, conn_comp) = pair
    assert conn_tree.sql_exec == "tree"
    assert conn_comp.sql_exec == _MODE
    txn_tree = Transaction(db_tree, None) if use_txn else None
    txn_comp = Transaction(db_comp, None) if use_txn else None
    for sql, params in script:
        tree_result = _run(conn_tree, sql, params, txn_tree)
        comp_result = _run(conn_comp, sql, params, txn_comp)
        assert tree_result.columns == comp_result.columns, sql
        assert tree_result.rows == comp_result.rows, sql
        assert tree_result.rowcount == comp_result.rowcount, sql
        assert tree_result.rows_touched == comp_result.rows_touched, sql
        if use_txn:
            assert txn_tree.undo_depth == txn_comp.undo_depth, sql
    assert _state(db_tree) == _state(db_comp)
    return txn_tree, txn_comp


# ---------------------------------------------------------------------------
# Workload statement mixes
# ---------------------------------------------------------------------------


class TestTpccMix:
    def _pair(self):
        from repro.workloads.tpcc import TpccScale, make_tpcc_database

        scale = TpccScale(warehouses=1, customers_per_district=30, items=200)
        return _make_pair(lambda: make_tpcc_database(scale)), scale

    def test_new_order_script(self):
        from repro.workloads.tpcc import new_order_statement_script

        pair, scale = self._pair()
        script = new_order_statement_script(scale, transactions=12, seed=3)
        assert_statement_equivalence(pair, script)

    def test_new_order_script_in_txn_then_rollback(self):
        from repro.workloads.tpcc import new_order_statement_script

        pair, scale = self._pair()
        before = (_state(pair[0][0]), _state(pair[1][0]))
        assert before[0] == before[1]
        script = new_order_statement_script(scale, transactions=6, seed=5)
        txn_tree, txn_comp = assert_statement_equivalence(
            pair, script, use_txn=True
        )
        assert txn_tree.undo_depth == txn_comp.undo_depth > 0
        txn_tree.rollback()
        txn_comp.rollback()
        after = (_state(pair[0][0]), _state(pair[1][0]))
        assert after[0] == after[1] == before[0]

    def test_payment_and_order_status_statements(self):
        pair, scale = self._pair()
        script = []
        for c_id in (1, 2, 7):
            script.extend([
                ("UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
                 (10.5, 1)),
                ("UPDATE district SET d_ytd = d_ytd + ? "
                 "WHERE d_w_id = ? AND d_id = ?", (10.5, 1, c_id)),
                ("SELECT c_balance, c_ytd_payment, c_payment_cnt, c_credit "
                 "FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
                 (1, 1, c_id)),
                ("UPDATE customer SET c_balance = ?, c_ytd_payment = ?, "
                 "c_payment_cnt = ? WHERE c_w_id = ? AND c_d_id = ? "
                 "AND c_id = ?", (-20.5, 20.5, 2, 1, 1, c_id)),
                # Ordered-index equality prefix + ORDER BY DESC LIMIT.
                ("SELECT o_id, o_entry_d, o_ol_cnt FROM orders "
                 "WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ? "
                 "ORDER BY o_id DESC LIMIT 1", (1, 1, c_id)),
                # Secondary ordered index on customer last name.
                ("SELECT c_id, c_first FROM customer WHERE c_w_id = ? "
                 "AND c_d_id = ? AND c_last = ? ORDER BY c_first",
                 (1, 1, "BARBARBAR")),
            ])
        assert_statement_equivalence(pair, script)


class TestTpcwMix:
    def _pair(self):
        from repro.workloads.tpcw import TpcwScale, make_tpcw_database

        scale = TpcwScale(items=120, authors=40, customers=60, orders=80)
        return _make_pair(lambda: make_tpcw_database(scale))

    def test_browsing_statements(self):
        pair = self._pair()
        script = []
        for c_id, i_id, subject, lname in (
            (1, 5, "ARTS", "last3"),
            (17, 44, "COOKING", "last11"),
            (33, 99, "HISTORY", "last40"),
        ):
            script.extend([
                ("SELECT c_fname, c_lname, c_discount FROM tw_customer "
                 "WHERE c_id = ?", (c_id,)),
                ("SELECT i_title, i_cost FROM tw_item WHERE i_id = ?",
                 (i_id,)),
                # Join + ordered-index range + multi-key sort + LIMIT.
                ("SELECT i.i_id, i.i_title, i.i_pub_date, i.i_cost, "
                 "a.a_fname, a.a_lname FROM tw_item i JOIN author a "
                 "ON i.i_a_id = a.a_id WHERE i.i_subject = ? "
                 "ORDER BY i.i_pub_date DESC, i.i_title LIMIT 10",
                 (subject,)),
                # Join + GROUP BY + SUM + ORDER BY alias DESC + LIMIT.
                ("SELECT i.i_id, i.i_title, SUM(ol.ol_qty) AS sold "
                 "FROM tw_order_line ol JOIN tw_item i "
                 "ON ol.ol_i_id = i.i_id WHERE i.i_subject = ? "
                 "GROUP BY i.i_id, i.i_title ORDER BY sold DESC LIMIT 10",
                 (subject,)),
                ("SELECT i.i_id, i.i_title FROM tw_item i JOIN author a "
                 "ON i.i_a_id = a.a_id WHERE a.a_lname = ? "
                 "ORDER BY i.i_title LIMIT 20", (lname,)),
                ("SELECT o_id, o_date, o_total FROM tw_orders "
                 "WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1", (c_id,)),
                ("SELECT ol_i_id, ol_qty FROM tw_order_line "
                 "WHERE ol_o_id = ?", (c_id,)),
            ])
        assert_statement_equivalence(pair, script)


class TestMicroMix:
    def test_kv_statements(self):
        from repro.workloads.micro import make_micro_database

        pair = _make_pair(lambda: make_micro_database(rows=64))
        script = [
            ("SELECT v FROM kv WHERE k = ?", (k,)) for k in range(0, 64, 7)
        ]
        script.append(("SELECT COUNT(*) FROM kv", ()))
        script.append(("SELECT k FROM kv WHERE v >= ? ORDER BY k", (0.5,)))
        assert_statement_equivalence(pair, script)


# ---------------------------------------------------------------------------
# Targeted semantic cases
# ---------------------------------------------------------------------------


def _make_typed_db():
    db = Database("typed")
    db.create_table(
        "t",
        [("id", "int", False), ("grp", "text"), ("val", "int"),
         ("score", "float"), ("flag", "bool")],
        primary_key=["id"],
        indexes=[
            IndexSpec("t_by_grp", ("grp",)),
            IndexSpec("t_by_val", ("val",), ordered=True),
        ],
    )
    conn = connect(db)
    rows = [
        (1, "a", 10, 1.5, True),
        (2, "a", None, 2.5, False),
        (3, "b", 10, None, None),
        (4, "b", 30, 4.0, True),
        (5, None, 50, 5.5, False),
        (6, "c", 50, 1.5, True),
    ]
    for r in rows:
        conn.execute(
            "INSERT INTO t (id, grp, val, score, flag) "
            "VALUES (?, ?, ?, ?, ?)", *r,
        )
    return db, conn


TYPED_QUERIES = [
    # NULL comparison/filter semantics.
    ("SELECT id FROM t WHERE val > ? ORDER BY id", (5,)),
    ("SELECT id FROM t WHERE val IS NULL", ()),
    ("SELECT id FROM t WHERE val IS NOT NULL ORDER BY id", ()),
    ("SELECT id FROM t WHERE grp IS NULL", ()),
    ("SELECT id FROM t WHERE NOT (val > 20) ORDER BY id", ()),
    ("SELECT id FROM t WHERE val = ? OR score > ? ORDER BY id", (10, 4.5)),
    # Aggregates skip NULLs; empty input still yields one row.
    ("SELECT COUNT(*), COUNT(val), SUM(val), AVG(score), MIN(val), "
     "MAX(score) FROM t", ()),
    ("SELECT SUM(val) FROM t WHERE id > ?", (100,)),
    # DISTINCT aggregates (val=10 and 50 repeat, score=1.5 repeats).
    ("SELECT COUNT(DISTINCT val), SUM(DISTINCT val) FROM t", ()),
    ("SELECT COUNT(DISTINCT score), AVG(score) FROM t", ()),
    # GROUP BY with NULL-ish group keys and aggregates.
    ("SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM t GROUP BY grp "
     "ORDER BY n DESC, s", ()),
    # DISTINCT projection.
    ("SELECT DISTINCT score FROM t", ()),
    # Range predicates on the ordered index (inclusive / exclusive).
    ("SELECT id FROM t WHERE val >= ? AND val < ? ORDER BY id", (10, 50)),
    ("SELECT id FROM t WHERE val > ? ORDER BY id", (10,)),
    ("SELECT id FROM t WHERE val BETWEEN ? AND ? ORDER BY id", (10, 30)),
    ("SELECT id FROM t WHERE val NOT BETWEEN ? AND ? ORDER BY id", (10, 30)),
    # IN lists and LIKE with NULL operands.
    ("SELECT id FROM t WHERE grp IN ('a', 'c') ORDER BY id", ()),
    ("SELECT id FROM t WHERE grp NOT IN ('a') ORDER BY id", ()),
    ("SELECT id FROM t WHERE grp LIKE ? ORDER BY id", ("%a%",)),
    # Expression projections with NULL propagation + scalar functions.
    ("SELECT id, val * 2 + 1, upper(grp), coalesce(val, -1), "
     "round(score, 0) FROM t ORDER BY id", ()),
    # Sorting with NULLs first and mixed hidden sort keys.
    ("SELECT id FROM t ORDER BY val, id DESC", ()),
    ("SELECT id, score FROM t ORDER BY score DESC LIMIT 3", ()),
]


class TestSemanticCases:
    def test_typed_queries(self):
        pair = _make_pair(_make_typed_db)
        assert_statement_equivalence(pair, TYPED_QUERIES)

    def test_mutations_and_rollback(self):
        pair = _make_pair(_make_typed_db)
        (db_tree, _), (db_comp, _) = pair
        before = _state(db_tree)
        assert before == _state(db_comp)
        script = [
            # Multi-row update through the secondary hash index.
            ("UPDATE t SET score = score + ? WHERE grp = ?", (1.0, "a")),
            # Update touching an index-key column (general update path).
            ("UPDATE t SET val = ? WHERE id = ?", (99, 3)),
            # Update with residual filter over a scan.
            ("UPDATE t SET flag = ? WHERE score > ? AND flag = ?",
             (False, 3.0, True)),
            # NULL assignment.
            ("UPDATE t SET grp = ? WHERE id = ?", (None, 6)),
            # Insert with partial column list (others default to NULL).
            ("INSERT INTO t (id, grp) VALUES (?, ?)", (7, "d")),
            # Range-targeted delete.
            ("DELETE FROM t WHERE val >= ?", (50,)),
            # Delete with no matches.
            ("DELETE FROM t WHERE id = ?", (1000,)),
        ]
        txn_tree, txn_comp = assert_statement_equivalence(
            pair, script, use_txn=True
        )
        assert txn_tree.undo_depth == txn_comp.undo_depth > 0
        txn_tree.rollback()
        txn_comp.rollback()
        assert _state(db_tree) == _state(db_comp) == before

    def test_mid_statement_failure_preserves_partial_undo(self):
        """A multi-row update that fails on a later row must leave both
        executors in the same partially-mutated state, with the same
        undo records, and roll back to the same place."""
        def factory():
            db = Database("fail")
            db.create_table(
                "u", [("id", "int", False), ("val", "int")],
                primary_key=["id"],
            )
            conn = connect(db)
            for i in (1, 2, 3):
                conn.execute(
                    "INSERT INTO u (id, val) VALUES (?, ?)", i, i * 10
                )
            return db, conn

        pair = _make_pair(factory)
        (db_tree, conn_tree), (db_comp, conn_comp) = pair
        before = _state(db_tree)
        assert before == _state(db_comp)
        txn_tree = Transaction(db_tree, None)
        txn_comp = Transaction(db_comp, None)
        # Setting every matching row's id to the same constant succeeds
        # on the first row and collides on the second: the statement
        # fails mid-loop with one row already mutated.
        sql = "UPDATE u SET id = ? WHERE val >= ?"
        with pytest.raises(IntegrityError) as tree_err:
            _run(conn_tree, sql, (7, 10), txn_tree)
        with pytest.raises(IntegrityError) as comp_err:
            _run(conn_comp, sql, (7, 10), txn_comp)
        assert str(tree_err.value) == str(comp_err.value)
        # The first row's undo record must have reached the transaction
        # in both executors (the compiled batch flushes on error).
        assert txn_tree.undo_depth == txn_comp.undo_depth == 1
        assert _state(db_tree) == _state(db_comp) != before
        txn_tree.rollback()
        txn_comp.rollback()
        assert _state(db_tree) == _state(db_comp) == before

    def test_uniform_type_error_fails_identically(self):
        def factory():
            db = Database("fail2")
            db.create_table(
                "u", [("id", "int", False), ("val", "int")],
                primary_key=["id"],
            )
            conn = connect(db)
            for i in (1, 2, 3):
                conn.execute(
                    "INSERT INTO u (id, val) VALUES (?, ?)", i, i * 10
                )
            return db, conn

        pair = _make_pair(factory)
        (db_tree, conn_tree), (db_comp, conn_comp) = pair
        sql = "UPDATE u SET val = val + ? WHERE id >= ?"
        with pytest.raises(TypeError):
            _run(conn_tree, sql, ("x", 1))
        with pytest.raises(TypeError):
            _run(conn_comp, sql, ("x", 1))
        assert _state(db_tree) == _state(db_comp)

    def test_duplicate_pk_insert_fails_identically(self):
        pair = _make_pair(_make_typed_db)
        (db_tree, conn_tree), (db_comp, conn_comp) = pair
        sql = "INSERT INTO t (id, grp) VALUES (?, ?)"
        with pytest.raises(IntegrityError) as tree_err:
            _run(conn_tree, sql, (1, "dup"))
        with pytest.raises(IntegrityError) as comp_err:
            _run(conn_comp, sql, (1, "dup"))
        assert str(tree_err.value) == str(comp_err.value)
        assert _state(db_tree) == _state(db_comp)

    def test_type_validation_fails_identically(self):
        pair = _make_pair(_make_typed_db)
        (db_tree, conn_tree), (db_comp, conn_comp) = pair
        cases = [
            ("INSERT INTO t (id, grp, val) VALUES (?, ?, ?)",
             (8, "x", "not-an-int")),
            ("INSERT INTO t (id, flag) VALUES (?, ?)", (9, 1)),
            ("UPDATE t SET val = ? WHERE id = ?", ("nope", 1)),
            ("UPDATE t SET score = ? WHERE id = ?", ("nope", 1)),
        ]
        for sql, params in cases:
            with pytest.raises(IntegrityError) as tree_err:
                _run(conn_tree, sql, params)
            with pytest.raises(IntegrityError) as comp_err:
                _run(conn_comp, sql, params)
            assert str(tree_err.value) == str(comp_err.value), sql
        assert _state(db_tree) == _state(db_comp)

    def test_pk_update_changing_key_uses_general_path(self):
        pair = _make_pair(_make_typed_db)
        script = [
            ("UPDATE t SET id = ? WHERE id = ?", (100, 1)),
            ("SELECT id, grp FROM t WHERE id = ?", (100,)),
            ("SELECT COUNT(*) FROM t", ()),
        ]
        assert_statement_equivalence(pair, script)

    def test_output_key_before_expression_key_sorts_correctly(self):
        """Regression: a sort key naming an output column *before* an
        expression key must not shift the expression key onto the
        wrong hidden slot (both executors share the sort helper, so
        this asserts correctness, not just agreement)."""
        pair = _make_pair(_make_typed_db)
        sql = "SELECT id, val FROM t ORDER BY val, id + 0 DESC"
        (db_tree, conn_tree), (db_comp, conn_comp) = pair
        tree_result = _run(conn_tree, sql, ())
        comp_result = _run(conn_comp, sql, ())
        assert tree_result.rows == comp_result.rows
        # val=10 ties (ids 1 and 3) must come in descending id order;
        # val=50 ties (ids 5 and 6) likewise.  NULL val sorts first.
        ids = [row[0] for row in tree_result.rows]
        assert ids == [2, 3, 1, 4, 6, 5]

    def test_compiled_update_maintains_index_created_at_runtime(self):
        """Regression: the key-safety proof must consult the table's
        live indexes, not just the schema's static list, so an index
        added via create_index stays maintained."""
        from repro.db.catalog import IndexSpec

        def factory():
            db, conn = _make_typed_db()
            db.table("t").create_index(IndexSpec("t_live_score", ("score",)))
            return db, conn

        pair = _make_pair(factory)
        script = [
            ("UPDATE t SET score = ? WHERE id = ?", (9.9, 1)),
            ("SELECT id FROM t WHERE score = ?", (9.9,)),
        ]
        assert_statement_equivalence(pair, script)
        (db_tree, _), (db_comp, _) = pair
        for db in (db_tree, db_comp):
            index = db.table("t").secondary["t_live_score"]
            assert index.lookup((9.9,)) == frozenset({1})
            assert index.lookup((1.5,)) == frozenset({6})

    def test_failed_insert_lock_state_matches_under_lock_manager(self):
        """Regression: a validation-failed INSERT must leave the same
        lock state in both executors (the tree executor locks the
        table before validating; compiled must too)."""
        from repro.db.txn import LockManager

        results = {}
        for mode in ("tree", _MODE):
            db, _ = _make_typed_db()
            manager = LockManager()
            conn = connect(db, manager, sql_exec=mode)
            txn = Transaction(db, manager)
            with pytest.raises(IntegrityError):
                _run(conn, "INSERT INTO t (id, val) VALUES (?, ?)",
                     (50, "bad"), txn)
            results[mode] = manager.holders(("table", "t"))
            txn.rollback()
        assert results["tree"] and results[_MODE]
        assert (
            list(results["tree"].values())
            == list(results[_MODE].values())
        )

    def test_hand_built_plans_fall_back_to_tree_executor(self):
        """Plans missing generator metadata must compile to None (tree
        fallback), never escape with AssertionError/KeyError."""
        from repro.db.sql.codegen_plan import maybe_compile_plan_source
        from repro.db.sql.planner import (
            AccessPath,
            DeletePlan,
            SelectPlan,
            TableAccess,
            UpdatePlan,
        )

        db, _ = _make_typed_db()
        bare_target = TableAccess(
            table_name="t", binding="t",
            access=AccessPath(kind="index_eq", index_name="missing"),
        )
        hand_built = [
            SelectPlan(
                tables=[bare_target], columns=[], aggregates=[],
                group_exprs=[], sort_keys=[], limit=None, distinct=False,
                for_update=False, column_names=[],
            ),
            UpdatePlan(target=bare_target, assignments=[]),
            DeletePlan(target=bare_target),
            DeletePlan(
                target=TableAccess(
                    table_name="t", binding="t",
                    access=AccessPath(kind="pk"),
                ),
                scope=None,
            ),
        ]
        for plan in hand_built:
            assert maybe_compile_plan_source(plan, db) is None

    def test_autocommit_through_connection_api(self):
        """End-to-end through Connection.query/execute (ResultSet layer)."""
        (db_tree, conn_tree), (db_comp, conn_comp) = _make_pair(
            _make_typed_db
        )
        for conn in (conn_tree, conn_comp):
            assert conn.execute(
                "UPDATE t SET val = val + 1 WHERE grp = ?", "b"
            ) == 2
        rows_tree = [
            r.as_tuple()
            for r in conn_tree.query("SELECT id, val FROM t ORDER BY id")
        ]
        rows_comp = [
            r.as_tuple()
            for r in conn_comp.query("SELECT id, val FROM t ORDER BY id")
        ]
        assert rows_tree == rows_comp
        assert (
            conn_comp.plan_cache_stats.compiled_plans > 0
        )
        assert conn_tree.plan_cache_stats.compiled_plans == 0
