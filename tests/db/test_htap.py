"""HTAP columnar mirror: incremental maintenance from the redo
stream, collector chaining, and analytics vs the SQL oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import Database, LockManager, ReplicaGroup, connect
from repro.db.errors import TransactionError, UnknownTableError
from repro.db.htap import (
    ColumnTable,
    HtapMirror,
    TpccAnalytics,
    filter_positions,
    gather,
    group_aggregate,
    hash_join_lookup,
    top_k,
)


def make_db():
    db = Database("htap")
    db.create_table(
        "acct",
        [("id", "int", False), ("owner", "text"), ("bal", "float")],
        primary_key=["id"],
    )
    conn = connect(db)
    for i in range(1, 6):
        conn.execute(
            "INSERT INTO acct (id, owner, bal) VALUES (?, ?, ?)",
            i, f"owner{i % 2}", 100.0 * i,
        )
    return db


def _group_aggregate_oracle(table, group_columns, aggregates, positions=None):
    """The row-at-a-time GROUP BY fold ``group_aggregate`` replaced:
    the reference its one-pass-per-aggregate form must equal."""
    key_cols = [table.column(c) for c in group_columns]
    agg_cols = [
        table.column(c) if c is not None else None for _, c in aggregates
    ]
    ops = [op for op, _ in aggregates]
    scan = range(len(table)) if positions is None else positions
    groups: dict[tuple, list] = {}
    for i in scan:
        key = tuple(col[i] for col in key_cols)
        state = groups.get(key)
        if state is None:
            state = groups[key] = [None] * len(ops)
        for j, op in enumerate(ops):
            value = agg_cols[j][i] if agg_cols[j] is not None else 1
            acc = state[j]
            if op == "count":
                state[j] = (acc or 0) + 1
            elif op == "sum":
                state[j] = (acc or 0) + value
            elif op == "min":
                state[j] = value if acc is None else min(acc, value)
            elif op == "max":
                state[j] = value if acc is None else max(acc, value)
            else:
                if acc is None:
                    acc = state[j] = [0, 0]
                acc[0] += value
                acc[1] += 1
    out = []
    for key in sorted(groups):
        state = groups[key]
        folded = tuple(
            (s[0] / s[1]) if isinstance(s, list) else s for s in state
        )
        out.append(key + folded)
    return out


def mirror_rows(mirror, name):
    """Mirror contents as {rowid: row} for comparison with the store."""
    table = mirror.table(name)
    return {
        rowid: table.row(pos)
        for rowid, pos in zip(table.rowids, range(len(table)))
    }


class TestMirrorMaintenance:
    def test_attach_seeds_existing_rows(self):
        db = make_db()
        mirror = HtapMirror(db, ["acct"]).attach()
        assert mirror_rows(mirror, "acct") == dict(db.table("acct").scan())
        assert mirror.table("acct").ops_applied == 0  # seeding isn't redo

    def test_mirror_tracks_insert_update_delete(self):
        db = make_db()
        mirror = HtapMirror(db, ["acct"]).attach()
        conn = connect(db, LockManager())
        conn.execute("INSERT INTO acct (id, owner, bal) VALUES (9, 'z', 9.0)")
        conn.execute("UPDATE acct SET bal = bal + 1.0 WHERE owner = 'owner1'")
        conn.execute("DELETE FROM acct WHERE id = 2")
        assert mirror_rows(mirror, "acct") == dict(db.table("acct").scan())
        assert mirror.commits_applied == 3
        assert mirror.ops_applied > 0

    def test_rollback_leaves_mirror_untouched(self):
        db = make_db()
        mirror = HtapMirror(db, ["acct"]).attach()
        before = mirror_rows(mirror, "acct")
        conn = connect(db, LockManager())
        conn.begin()
        conn.execute("UPDATE acct SET bal = 0.0 WHERE id = 1")
        conn.execute("DELETE FROM acct WHERE id = 3")
        assert mirror_rows(mirror, "acct") == before  # uncommitted
        conn.rollback()
        assert mirror_rows(mirror, "acct") == before
        assert mirror.commits_applied == 0

    def test_multi_statement_commit_applies_once(self):
        db = make_db()
        mirror = HtapMirror(db, ["acct"]).attach()
        conn = connect(db, LockManager())
        conn.begin()
        conn.execute("UPDATE acct SET bal = 1.5 WHERE id = 1")
        conn.execute("INSERT INTO acct (id, owner, bal) VALUES (8, 'y', 8.0)")
        conn.commit()
        assert mirror.commits_applied == 1
        assert mirror_rows(mirror, "acct") == dict(db.table("acct").scan())

    def test_detach_restores_collector_and_stops_tracking(self):
        db = make_db()
        mirror = HtapMirror(db, ["acct"]).attach()
        mirror.detach()
        assert db.redo_collector is None
        stale = mirror_rows(mirror, "acct")
        connect(db, LockManager()).execute("DELETE FROM acct WHERE id = 1")
        assert mirror_rows(mirror, "acct") == stale

    def test_unknown_table_rejected(self):
        db = make_db()
        with pytest.raises(UnknownTableError):
            HtapMirror(db, ["nope"])
        with pytest.raises(UnknownTableError):
            HtapMirror(db, ["acct"]).attach().table("nope")

    def test_mirror_chains_to_replica_group(self):
        """HTAP interposes without disturbing log shipping: the replica
        group still sees every op batch and replicas converge."""
        db = Database("htap")
        group = ReplicaGroup(db, 1)
        columns = [("id", "int", False), ("owner", "text"),
                   ("bal", "float")]
        db.create_table("acct", columns, primary_key=["id"])
        group.mirror_create_table("acct", columns, ["id"])
        seed = connect(db)
        for i in range(1, 6):
            seed.execute(
                "INSERT INTO acct (id, owner, bal) VALUES (?, ?, ?)",
                i, f"owner{i % 2}", 100.0 * i,
            )
        group.catch_up(0)
        base_tip = group.log.tip
        mirror = HtapMirror(db, ["acct"]).attach()
        conn = connect(db, LockManager())
        conn.execute("UPDATE acct SET bal = 0.0 WHERE id = 5")
        conn.execute("INSERT INTO acct (id, owner, bal) VALUES (6, 'n', 6.0)")
        group.catch_up(0)
        live = dict(db.table("acct").scan())
        assert mirror_rows(mirror, "acct") == live
        assert dict(
            group.replicas[0].database.table("acct").scan()
        ) == live
        assert group.log.tip == base_tip + 2

    def test_snapshot_counters(self):
        db = make_db()
        mirror = HtapMirror(db).attach()
        counters = mirror.snapshot_counters()
        assert counters["mirrored_tables"] == 1
        assert counters["mirrored_rows"] == 5
        assert counters["commits_applied"] == 0


class TestBatchOperators:
    def make_column_table(self):
        t = ColumnTable("t", ["k", "g", "v"])
        from repro.db.replica import RedoOp
        for i, (k, g, v) in enumerate(
            [(1, "a", 10.0), (2, "b", 20.0), (3, "a", 30.0),
             (4, "b", 40.0), (5, "a", 50.0)]
        ):
            t.apply(RedoOp("t", "insert", i + 1, (k, g, v)))
        return t

    def test_filter_and_gather(self):
        t = self.make_column_table()
        pos = filter_positions(t, "v", lambda v: v > 25.0)
        assert gather(t, "k", pos) == [3, 4, 5]
        assert gather(t, "v") == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_group_aggregate_all_ops(self):
        t = self.make_column_table()
        out = group_aggregate(
            t, ("g",),
            (("count", None), ("sum", "v"), ("min", "v"),
             ("max", "v"), ("avg", "v")),
        )
        assert out == [
            ("a", 3, 90.0, 10.0, 50.0, 30.0),
            ("b", 2, 60.0, 20.0, 40.0, 30.0),
        ]

    def test_group_aggregate_with_positions(self):
        t = self.make_column_table()
        pos = filter_positions(t, "g", lambda g: g == "a")
        assert group_aggregate(t, ("g",), (("sum", "v"),), pos) == [
            ("a", 90.0)
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2, 1.0, -0.0, 0.0, True, 2.5]),
                st.sampled_from(["a", "b"]),
                st.one_of(
                    st.integers(-3, 3),
                    # Bounded: a sum that overflows to inf - inf = nan
                    # would compare unequal to itself.
                    st.floats(-1e300, 1e300),
                    st.sampled_from([0.0, -0.0, 1e16, -1e16, 0.1]),
                ),
            ),
            max_size=40,
        ),
        group_columns=st.sampled_from([(), ("k",), ("g",), ("k", "g")]),
        aggregates=st.lists(
            st.tuples(
                st.sampled_from(["count", "sum", "min", "max", "avg"]),
                st.sampled_from(["v", None]),
            ),
            min_size=1, max_size=4,
        ),
        positions=st.one_of(
            st.none(), st.lists(st.integers(0, 39), max_size=50)
        ),
    )
    # (0.0 or 0) is the int 0: the sum after it is 1, not 1.0.
    @example(
        rows=[(0, "a", 0.0), (0, "a", 1), (1.0, "b", -0.0), (True, "b", 2)],
        group_columns=("k",), aggregates=[("sum", "v")], positions=None,
    )
    def test_group_aggregate_matches_the_row_at_a_time_fold(
        self, rows, group_columns, aggregates, positions
    ):
        """Repeated and numerically-equal keys (1 / 1.0 / True, 0.0 /
        -0.0) keep their first occurrence; every group folds in scan
        order with the same arithmetic: equal results, equal reprs."""
        from repro.db.replica import RedoOp

        t = ColumnTable("t", ["k", "g", "v"])
        for rowid, row in enumerate(rows, start=1):
            t.apply(RedoOp("t", "insert", rowid, row))
        if positions is not None:
            positions = [p for p in positions if p < len(rows)]
        got = group_aggregate(t, group_columns, aggregates, positions)
        expected = _group_aggregate_oracle(
            t, group_columns, aggregates, positions
        )
        assert got == expected
        assert repr(got) == repr(expected)

    def test_hash_join_lookup_and_top_k(self):
        t = self.make_column_table()
        lookup = hash_join_lookup(t, "k", ("g", "v"))
        assert lookup[3] == ("a", 30.0)
        ranked = top_k(
            [(1, 5.0), (2, 9.0), (3, 9.0), (4, 1.0)], 1, 2
        )
        assert ranked == [(2, 9.0), (3, 9.0)]  # ties broken by full row


class TestTpccAnalytics:
    def make_tpcc_like(self):
        db = Database("mini-tpcc")
        db.create_table(
            "item",
            [("i_id", "int", False), ("i_name", "text"),
             ("i_price", "float")],
            primary_key=["i_id"],
        )
        db.create_table(
            "order_line",
            [("ol_w_id", "int", False), ("ol_d_id", "int", False),
             ("ol_o_id", "int", False), ("ol_number", "int", False),
             ("ol_i_id", "int"), ("ol_quantity", "int"),
             ("ol_amount", "float")],
            primary_key=["ol_w_id", "ol_d_id", "ol_o_id", "ol_number"],
        )
        conn = connect(db, LockManager())
        for i in range(1, 6):
            conn.execute(
                "INSERT INTO item (i_id, i_name, i_price) VALUES (?, ?, ?)",
                i, f"item{i}", float(i),
            )
        n = 0
        for (w, d, o, i_id, qty) in [
            (1, 1, 1, 3, 5), (1, 1, 1, 1, 2), (1, 2, 1, 3, 7),
            (2, 1, 1, 2, 4), (2, 1, 2, 3, 1), (2, 1, 2, 5, 9),
        ]:
            n += 1
            conn.execute(
                "INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, "
                "ol_number, ol_i_id, ol_quantity, ol_amount) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                w, d, o, n, i_id, qty, qty * float(i_id),
            )
        return db, conn

    def test_best_sellers_matches_sql_oracle(self):
        db, conn = self.make_tpcc_like()
        analytics = TpccAnalytics(
            HtapMirror(db, ["item", "order_line"]).attach()
        )
        got = analytics.best_sellers(k=3)
        oracle = [
            r.as_tuple() for r in conn.query(
                "SELECT ol.ol_i_id, i.i_name, SUM(ol.ol_quantity) AS sold "
                "FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id "
                "GROUP BY ol.ol_i_id, i.i_name "
                "ORDER BY sold DESC, ol_i_id LIMIT 3"
            )
        ]
        assert got == oracle
        assert analytics.reports_run == 1
        assert analytics.rows_scanned > 0

    def test_district_volume_matches_sql_oracle(self):
        db, conn = self.make_tpcc_like()
        analytics = TpccAnalytics(
            HtapMirror(db, ["item", "order_line"]).attach()
        )
        got = analytics.district_volume()
        oracle = [
            r.as_tuple() for r in conn.query(
                "SELECT ol_w_id, ol_d_id, COUNT(*), SUM(ol_amount) "
                "FROM order_line GROUP BY ol_w_id, ol_d_id "
                "ORDER BY ol_w_id, ol_d_id"
            )
        ]
        assert got == oracle

    def test_reports_track_concurrent_writes(self):
        db, conn = self.make_tpcc_like()
        analytics = TpccAnalytics(
            HtapMirror(db, ["item", "order_line"]).attach()
        )
        first = analytics.best_sellers(k=1)
        conn.execute(
            "INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, "
            "ol_i_id, ol_quantity, ol_amount) VALUES (3, 1, 1, 7, 1, 99, 99.0)"
        )
        assert analytics.best_sellers(k=1) != first
        assert analytics.best_sellers(k=1)[0][0] == 1
