"""Differential acceptance suite: sharded tier vs single server.

Every script runs against a plain single :class:`Database` and a
:class:`ShardedDatabase` behind the statement router, under the
``tree``, ``compiled`` and ``source`` SQL executors, and the two
deployments must
agree **bit-identically**: same columns, same rows *in the same
order* (including scan order, sort-tie order and GROUP BY emission
order after the router's scatter-gather merge), same rowcount and
rows_touched, same undo-log growth, same post-statement state, same
errors, and same state after rollback.  A 1-shard ShardedDatabase is
included as the degenerate case.  Covered mixes: the TPC-C new-order
script (warehouse-affine single-shard routing), TPC-C payment /
order-status statements, TPC-W browsing (scatter joins against
replicated dimension tables, grouped aggregates, ORDER BY ... LIMIT),
the micro key-value statements, plus targeted scatter, rollback and
mid-statement-failure cases.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Database,
    IntegrityError,
    ShardedDatabase,
    ShardingScheme,
    TableSharding,
    connect,
    connect_sharded,
)
from repro.db.errors import ShardRoutingError

MODES = ("tree", "compiled", "source")
SHARD_COUNTS = (1, 3)


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def _observed(conn):
    """Capture (kind, sql, rows_touched, rowcount) per statement."""
    log = []
    conn.observer = lambda kind, sql, touched, rows: log.append(
        (kind, sql, touched, rows)
    )
    return log


def _single_state(db: Database) -> dict:
    return {
        table.schema.name: list(table.scan()) for table in db.tables()
    }


def _sharded_state(sdb: ShardedDatabase) -> dict:
    return {
        name: list(sdb.logical_rows(name).items())
        for name in sdb.catalog.names()
    }


def _assert_replicas_consistent(sdb: ShardedDatabase) -> None:
    """Every replicated table's copies must be identical."""
    for name in sdb.catalog.names():
        if sdb.scheme.sharding(name) is not None:
            continue
        reference = list(sdb.shards[0].table(name).scan())
        for shard in sdb.shards[1:]:
            assert list(shard.table(name).scan()) == reference, name


def _run_statement(conn, sql, params):
    prepared = conn.prepare(sql)
    if prepared.is_query:
        rs = prepared.query(*params)
        return (
            list(rs.columns),
            [row.as_tuple() for row in rs.rows],
            len(rs),
            rs.rows_touched,
        )
    count = prepared.update(*params)
    return ([], [], count, None)


def assert_shard_equivalence(
    single_pair, sharded_pair, script, use_txn=False
):
    """Run ``script`` on both deployments, comparing every statement."""
    single_db, single_conn = single_pair
    sharded_db, sharded_conn = sharded_pair
    single_log = _observed(single_conn)
    sharded_log = _observed(sharded_conn)
    txn_single = single_conn.begin() if use_txn else None
    txn_sharded = sharded_conn.begin() if use_txn else None
    for sql, params in script:
        got_single = _run_statement(single_conn, sql, params)
        got_sharded = _run_statement(sharded_conn, sql, params)
        assert got_single == got_sharded, sql
        if use_txn:
            assert (
                txn_single.undo_depth == txn_sharded.undo_depth
            ), sql
    # The observer stream carries rows_touched for mutations too.
    assert single_log == sharded_log
    assert _single_state(single_db) == _sharded_state(sharded_db)
    _assert_replicas_consistent(sharded_db)
    if single_conn.sql_exec == "source":
        _assert_no_fallback(single_conn, sharded_conn)
    return txn_single, txn_sharded


def _assert_no_fallback(single_conn, sharded_conn):
    """The source rung generated every statement of the script: none
    fell back to the closure compiler or the tree executor.  (The
    router compiles a statement once per shard it reaches, so only the
    single server's count also equals its cache misses.)"""
    single = single_conn.plan_cache_stats
    assert single.source_plans == single.compiled_plans == single.misses > 0
    sharded = sharded_conn.plan_cache_stats
    assert sharded.source_plans == sharded.compiled_plans > 0


def make_pair(factory, scheme, shards, sql_exec):
    """(single, sharded) deployments loaded with identical rows."""
    single_db, _ = factory()
    source_db, _ = factory()
    sharded_db = ShardedDatabase.from_database(source_db, shards, scheme)
    return (
        (single_db, connect(single_db, sql_exec=sql_exec)),
        (sharded_db, connect_sharded(sharded_db, sql_exec=sql_exec)),
    )


# ---------------------------------------------------------------------------
# TPC-C
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql_exec", MODES)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestTpccMix:
    def _pair(self, shards, sql_exec):
        from repro.workloads.tpcc import (
            TpccScale,
            make_tpcc_database,
            tpcc_sharding_scheme,
        )

        scale = TpccScale(
            warehouses=3, customers_per_district=20, items=120
        )
        return make_pair(
            lambda: make_tpcc_database(scale),
            tpcc_sharding_scheme("warehouse"),
            shards,
            sql_exec,
        ), scale

    def test_new_order_script(self, shards, sql_exec):
        from repro.workloads.tpcc import new_order_statement_script

        pair, scale = self._pair(shards, sql_exec)
        script = new_order_statement_script(scale, transactions=10, seed=3)
        assert_shard_equivalence(pair[0], pair[1], script)

    def test_new_order_script_in_txn_then_rollback(self, shards, sql_exec):
        from repro.workloads.tpcc import new_order_statement_script

        pair, scale = self._pair(shards, sql_exec)
        (single_db, single_conn), (sharded_db, sharded_conn) = pair
        before = _single_state(single_db)
        assert before == _sharded_state(sharded_db)
        script = new_order_statement_script(scale, transactions=5, seed=5)
        txn_single, txn_sharded = assert_shard_equivalence(
            pair[0], pair[1], script, use_txn=True
        )
        assert txn_single.undo_depth == txn_sharded.undo_depth > 0
        single_conn.rollback()
        sharded_conn.rollback()
        assert _single_state(single_db) == before
        assert _sharded_state(sharded_db) == before

    def test_payment_order_status_and_scatter_statements(
        self, shards, sql_exec
    ):
        pair, scale = self._pair(shards, sql_exec)
        script = []
        for w_id, c_id in ((1, 1), (2, 2), (3, 7)):
            script.extend([
                ("UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
                 (10.5, w_id)),
                ("UPDATE district SET d_ytd = d_ytd + ? "
                 "WHERE d_w_id = ? AND d_id = ?", (10.5, w_id, c_id)),
                ("SELECT c_balance, c_ytd_payment, c_payment_cnt "
                 "FROM customer WHERE c_w_id = ? AND c_d_id = ? "
                 "AND c_id = ?", (w_id, 1, c_id)),
                ("UPDATE customer SET c_balance = ?, c_payment_cnt = ? "
                 "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
                 (-20.5, 2, w_id, 1, c_id)),
                # Ordered secondary index, single shard (w_id bound).
                ("SELECT c_id, c_first FROM customer WHERE c_w_id = ? "
                 "AND c_d_id = ? AND c_last = ? ORDER BY c_first",
                 (w_id, 1, "BARBARBAR")),
                # Replicated dimension read.
                ("SELECT i_price FROM item WHERE i_id = ?", (c_id * 7,)),
            ])
        # Scatter-gather: no warehouse key bound.
        script.extend([
            ("SELECT COUNT(*) FROM district", ()),
            ("SELECT d_w_id, SUM(d_ytd) AS ytd, COUNT(*) AS n "
             "FROM district GROUP BY d_w_id ORDER BY ytd DESC, d_w_id",
             ()),
            ("SELECT w_id, w_ytd FROM warehouse ORDER BY w_ytd DESC", ()),
            ("SELECT d_id, d_next_o_id FROM district WHERE d_id = ? "
             "ORDER BY d_w_id", (3,)),
            ("SELECT DISTINCT d_next_o_id FROM district", ()),
            ("UPDATE district SET d_tax = d_tax * ? WHERE d_id > ?",
             (1.0, 7)),
            ("SELECT MIN(s_quantity), MAX(s_quantity), COUNT(*) "
             "FROM stock WHERE s_quantity BETWEEN ? AND ?", (20, 60)),
        ])
        assert_shard_equivalence(pair[0], pair[1], script)


# ---------------------------------------------------------------------------
# TPC-W (scatter joins against replicated dimensions)
# ---------------------------------------------------------------------------


def tpcw_sharding_scheme() -> ShardingScheme:
    return ShardingScheme({
        "tw_customer": TableSharding(("c_id",), "hash"),
        "tw_orders": TableSharding(("o_id",), "hash"),
        "tw_order_line": TableSharding(("ol_o_id",), "hash"),
        "tw_item": None,   # replicated
        "author": None,    # replicated
    })


@pytest.mark.parametrize("sql_exec", MODES)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestTpcwMix:
    def test_browsing_statements(self, shards, sql_exec):
        from repro.workloads.tpcw import TpcwScale, make_tpcw_database

        scale = TpcwScale(items=80, authors=30, customers=40, orders=60)
        single, sharded = make_pair(
            lambda: make_tpcw_database(scale),
            tpcw_sharding_scheme(),
            shards,
            sql_exec,
        )
        script = []
        for c_id, i_id, subject, lname in (
            (1, 5, "ARTS", "last3"),
            (17, 44, "COOKING", "last11"),
            (33, 79, "HISTORY", "last29"),
        ):
            script.extend([
                # Single-shard point reads.
                ("SELECT c_fname, c_lname, c_discount FROM tw_customer "
                 "WHERE c_id = ?", (c_id,)),
                ("SELECT i_title, i_cost FROM tw_item WHERE i_id = ?",
                 (i_id,)),
                # Replicated join (pinned to the affinity shard).
                ("SELECT i.i_id, i.i_title, i.i_pub_date, a.a_lname "
                 "FROM tw_item i JOIN author a ON i.i_a_id = a.a_id "
                 "WHERE i.i_subject = ? "
                 "ORDER BY i.i_pub_date DESC, i.i_title LIMIT 10",
                 (subject,)),
                # Scatter join: sharded order lines drive, item
                # replicated; grouped aggregate merged at the router.
                ("SELECT i.i_id, i.i_title, SUM(ol.ol_qty) AS sold "
                 "FROM tw_order_line ol JOIN tw_item i "
                 "ON ol.ol_i_id = i.i_id WHERE i.i_subject = ? "
                 "GROUP BY i.i_id, i.i_title ORDER BY sold DESC LIMIT 10",
                 (subject,)),
                # Scatter via a secondary index (o_c_id is not the
                # shard key) with ORDER BY ... LIMIT merged globally.
                ("SELECT o_id, o_date, o_total FROM tw_orders "
                 "WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1", (c_id,)),
                # Single shard: ol_o_id is the shard key.
                ("SELECT ol_i_id, ol_qty FROM tw_order_line "
                 "WHERE ol_o_id = ?", (c_id,)),
            ])
        assert_shard_equivalence(single, sharded, script)


# ---------------------------------------------------------------------------
# Scatter with the sharded table below a replicated driver
# ---------------------------------------------------------------------------


def _star_factory():
    """A sharded fact table between two replicated dimensions."""
    from repro.db.catalog import IndexSpec

    db = Database("star")
    db.create_table(
        "cat", [("c_id", "int", False), ("c_name", "text")],
        primary_key=["c_id"],
    )
    db.create_table(
        "fact",
        [("f_id", "int", False), ("f_c_id", "int"), ("f_d_id", "int"),
         ("qty", "int")],
        primary_key=["f_id"],
        indexes=[IndexSpec("fact_by_cat", ("f_c_id",))],
    )
    db.create_table(
        "dim", [("d_id", "int", False), ("d_label", "text")],
        primary_key=["d_id"],
    )
    conn = connect(db)
    for c in range(6):
        conn.execute("INSERT INTO cat (c_id, c_name) VALUES (?, ?)",
                     c, f"cat{c % 3}")
    for d in range(4):
        conn.execute("INSERT INTO dim (d_id, d_label) VALUES (?, ?)",
                     d, f"dim{d}")
    for f in range(60):
        conn.execute(
            "INSERT INTO fact (f_id, f_c_id, f_d_id, qty) "
            "VALUES (?, ?, ?, ?)", f, (f * 7) % 6, f % 5, f % 4,
        )
    return db, conn


STAR_SCHEME = ShardingScheme({"fact": TableSharding(("f_id",), "hash")})
# Placed cat (filtered scan) -> fact (fact_by_cat) -> dim (pk): the
# sharded table is gathered per cat row, in the middle of the join.
STAR_SQL = (
    "SELECT c.c_id, f.f_id, d.d_label FROM fact f "
    "JOIN cat c ON f.f_c_id = c.c_id JOIN dim d ON d.d_id = f.f_d_id "
    "WHERE c.c_name = ?"
)


@pytest.mark.parametrize("sql_exec", MODES)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestScatterBelowReplicatedDriver:
    def test_sharded_table_in_the_middle(self, shards, sql_exec):
        single, sharded = make_pair(
            _star_factory, STAR_SCHEME, shards, sql_exec
        )
        plan = sharded[1].prepare(STAR_SQL).plan
        assert [t.table_name for t in plan.tables] == ["cat", "fact", "dim"]
        script = [(STAR_SQL, (name,)) for name in ("cat0", "cat2", "none")]
        script.append((
            "SELECT c.c_name, SUM(f.qty) AS total FROM fact f "
            "JOIN cat c ON f.f_c_id = c.c_id WHERE c.c_id < ? "
            "GROUP BY c.c_name ORDER BY total DESC", (4,),
        ))
        # Keyed and pinned neighbours, which do run per-shard plans.
        script.append(("SELECT qty FROM fact WHERE f_id = ?", (17,)))
        script.append(("SELECT d_label FROM dim WHERE d_id = ?", (2,)))
        assert_shard_equivalence(single, sharded, script, use_txn=True)

    def test_dominant_shard_is_decided_by_the_sharded_level(
        self, shards, sql_exec
    ):
        """Per-shard notifies under a replicated driver: the driver's
        rows are charged to the affinity shard but do not rank it; the
        shard that fetched the most fact rows still fires last, which
        is where the cluster then attributes the statement's DB CPU."""
        from repro.sim.cluster import Cluster, ClusterConfig

        _, (sdb, conn) = make_pair(
            _star_factory, STAR_SCHEME, shards, sql_exec
        )
        cluster = Cluster(ClusterConfig(db_shards=shards))
        cluster.attach_sharded_database(sdb)
        notified = []
        for index, shard_db in enumerate(sdb.shards):
            steer = shard_db.observer
            shard_db.observer = (
                lambda op, table, rows, index=index, steer=steer: (
                    notified.append((index, op, table, rows)),
                    steer(op, table, rows),
                )
            )
        result = conn.query(STAR_SQL, "cat1")
        assert {n[1:3] for n in notified} == {("select", "cat")}
        assert sum(n[3] for n in notified) == result.rows_touched
        # cat1 is c_id 1 and 4: 20 facts, each with at most one dim row.
        fact_rows = {
            index: sum(
                1 for _, row in shard_db.table("fact").scan()
                if row[1] in (1, 4)
            )
            for index, shard_db in enumerate(sdb.shards)
        }
        assert sum(fact_rows.values()) == 20
        dominant = max(fact_rows, key=lambda i: (fact_rows[i], i))
        assert notified[-1][0] == dominant
        assert cluster._statement_shard == dominant
        # The six cat rows were read once, on the affinity shard.
        touched = {index: rows for index, _, _, rows in notified}
        assert touched[conn._affinity] >= 6


# ---------------------------------------------------------------------------
# Micro key-value mix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql_exec", MODES)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestMicroMix:
    def test_kv_statements(self, shards, sql_exec):
        from repro.workloads.micro import make_micro_database

        single, sharded = make_pair(
            lambda: make_micro_database(rows=64),
            ShardingScheme({"kv": TableSharding(("k",), "hash")}),
            shards,
            sql_exec,
        )
        script = [
            ("SELECT v FROM kv WHERE k = ?", (k,)) for k in range(0, 64, 7)
        ]
        script.append(("SELECT COUNT(*) FROM kv", ()))
        script.append(("SELECT k FROM kv WHERE v >= ? ORDER BY k", (0.5,)))
        script.append(("SELECT k, v FROM kv", ()))  # raw scan order
        script.append(("UPDATE kv SET v = v + ? WHERE v < ?", (1.0, 0.5)))
        script.append(("DELETE FROM kv WHERE k > ?", (57,)))
        script.append(("SELECT k, v FROM kv", ()))
        assert_shard_equivalence(single, sharded, script)


# ---------------------------------------------------------------------------
# Failure / rollback edge cases
# ---------------------------------------------------------------------------


def _grouped_factory():
    """pk (g, id), sharded by g -- id stays updatable."""
    db = Database("fail")
    db.create_table(
        "u",
        [("g", "int", False), ("id", "int", False), ("val", "int")],
        primary_key=["g", "id"],
    )
    conn = connect(db)
    for g, i, v in ((1, 1, 10), (1, 2, 20), (2, 3, 30), (2, 4, 40)):
        conn.execute("INSERT INTO u (g, id, val) VALUES (?, ?, ?)", g, i, v)
    return db, conn


GROUPED_SCHEME = ShardingScheme({"u": TableSharding(("g",), "mod")})


@pytest.mark.parametrize("sql_exec", MODES)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestFailureCases:
    def test_single_shard_mid_statement_failure(self, shards, sql_exec):
        """A keyed multi-row update failing on its second row leaves
        identical partial state and undo in both deployments."""
        single, sharded = make_pair(
            _grouped_factory, GROUPED_SCHEME, shards, sql_exec
        )
        (single_db, single_conn), (sharded_db, sharded_conn) = single, sharded
        before = _single_state(single_db)
        txn_single = single_conn.begin()
        txn_sharded = sharded_conn.begin()
        sql = "UPDATE u SET id = ? WHERE g = ? AND val >= ?"
        with pytest.raises(IntegrityError) as err_single:
            single_conn.execute(sql, 7, 1, 10)
        with pytest.raises(IntegrityError) as err_sharded:
            sharded_conn.execute(sql, 7, 1, 10)
        assert str(err_single.value) == str(err_sharded.value)
        assert txn_single.undo_depth == txn_sharded.undo_depth == 1
        assert _single_state(single_db) == _sharded_state(sharded_db)
        single_conn.rollback()
        sharded_conn.rollback()
        assert _single_state(single_db) == before
        assert _sharded_state(sharded_db) == before

    def test_scatter_mid_statement_failure(self, shards, sql_exec):
        """An unkeyed update processes rows in global rowid order, so
        a mid-statement duplicate-key failure happens at the same
        global row on both deployments."""
        single, sharded = make_pair(
            _grouped_factory, GROUPED_SCHEME, shards, sql_exec
        )
        (single_db, single_conn), (sharded_db, sharded_conn) = single, sharded
        txn_single = single_conn.begin()
        txn_sharded = sharded_conn.begin()
        # Rows (1,1) and (1,2) collide on (g=1, id=7): the first
        # mutates, the second fails -- one undo record each.
        sql = "UPDATE u SET id = ? WHERE val >= ?"
        with pytest.raises(IntegrityError) as err_single:
            single_conn.execute(sql, 7, 10)
        with pytest.raises(IntegrityError) as err_sharded:
            sharded_conn.execute(sql, 7, 10)
        assert str(err_single.value) == str(err_sharded.value)
        assert txn_single.undo_depth == txn_sharded.undo_depth == 1
        assert _single_state(single_db) == _sharded_state(sharded_db)
        single_conn.rollback()
        sharded_conn.rollback()
        assert _single_state(single_db) == _sharded_state(sharded_db)

    def test_duplicate_pk_insert_fails_identically(self, shards, sql_exec):
        single, sharded = make_pair(
            _grouped_factory, GROUPED_SCHEME, shards, sql_exec
        )
        (single_db, single_conn), (sharded_db, sharded_conn) = single, sharded
        sql = "INSERT INTO u (g, id, val) VALUES (?, ?, ?)"
        with pytest.raises(IntegrityError) as err_single:
            single_conn.execute(sql, 1, 1, 99)
        with pytest.raises(IntegrityError) as err_sharded:
            sharded_conn.execute(sql, 1, 1, 99)
        assert str(err_single.value) == str(err_sharded.value)
        assert _single_state(single_db) == _sharded_state(sharded_db)

    def test_rollback_restores_scan_order(self, shards, sql_exec):
        """Delete + rollback must restore row order, not just content
        (the invariant the scatter merge depends on)."""
        single, sharded = make_pair(
            _grouped_factory, GROUPED_SCHEME, shards, sql_exec
        )
        (single_db, single_conn), (sharded_db, sharded_conn) = single, sharded
        probe = ("SELECT g, id, val FROM u", ())
        before_single = _run_statement(single_conn, *probe)
        assert before_single == _run_statement(sharded_conn, *probe)
        for conn in (single_conn, sharded_conn):
            conn.begin()
            conn.execute("DELETE FROM u WHERE id = ?", 2)
            conn.execute("INSERT INTO u (g, id, val) VALUES (?, ?, ?)",
                         2, 9, 90)
            conn.rollback()
        assert _run_statement(single_conn, *probe) == before_single
        assert _run_statement(sharded_conn, *probe) == before_single


# ---------------------------------------------------------------------------
# Route resolution at prepare
# ---------------------------------------------------------------------------

ROUTE_SCHEMES = {
    "mod": TableSharding(columns=("k",), strategy="mod"),
    "hash": TableSharding(columns=("k",), strategy="hash"),
    "range": TableSharding(
        columns=("k",), strategy="range", boundaries=(10, 20, 30)
    ),
}

# The shard each key routes to on 4 shards, recorded from the router
# before single-shard routes were resolved at prepare (when every
# execution looked up the table's sharding and called ``shard_for``).
ROUTE_KEYS = (0, 1, 7, -3, 41, 2**70, True, False, 3.0, -2.0, 2.5, -0.5,
              1e300, "a", "wh-7", "", None)
ROUTE_DECISIONS = {
    "mod": (0, 1, 3, 1, 1, 0, 1, 0, 3, 2, 2, 3, 0, 1, 2, 0, 0),
    "hash": (3, 2, 2, 3, 3, 0, 2, 3, 1, 2, 2, 3, 1, 1, 2, 0, 0),
    "range": (0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0, 0, 3, 1, 2, 0, 3),
}
# Two-column keys and two keyed tables; a string is the error message.
ROUTE_MULTI_DECISIONS = [
    ("pair", (1, "x"), 2), ("pair", (2, "x"), 1), ("pair", (1.0, "y"), 1),
    ("pair", (True, "y"), 1), ("pair", (None, "z"), 2),
    ("pair", (7, ""), 2),
    ("join", (1, 1), "statement binds shard keys on different shards "
                     "[1, 2]; cross-shard joins are not supported"),
    ("join", (0, 4), 0),
    ("join", (2, "x"), "statement binds shard keys on different shards "
                       "[0, 2]; cross-shard joins are not supported"),
]

ROUTE_SQL = {
    "pair": "SELECT v FROM pair WHERE a = ? AND b = ?",
    "join": (
        "SELECT t_mod.v FROM t_mod JOIN t_hash ON t_mod.v = t_hash.v "
        "WHERE t_mod.k = ? AND t_hash.k = ?"
    ),
    **{name: f"SELECT v FROM t_{name} WHERE k = ?" for name in ROUTE_SCHEMES},
}


def _route_conn():
    tables = {f"t_{name}": sharding for name, sharding in ROUTE_SCHEMES.items()}
    tables["pair"] = TableSharding(columns=("a", "b"), strategy="hash")
    sdb = ShardedDatabase("r", shards=4, scheme=ShardingScheme(tables))
    for name in ROUTE_SCHEMES:
        sdb.create_table(
            f"t_{name}", [("k", "int", False), ("v", "int")],
            primary_key=["k"],
        )
    sdb.create_table(
        "pair", [("a", "int", False), ("b", "text", False), ("v", "int")],
        primary_key=["a", "b"],
    )
    return connect_sharded(sdb)


def _resolve(conn, name, params):
    """The shard the prepared route picks, or its routing error text."""
    route = conn.prepare(ROUTE_SQL[name]).route
    assert route.mode == "single"
    try:
        return route.shard_of(params)
    except ShardRoutingError as exc:
        return str(exc)


_route_keys = st.one_of(
    st.integers(-10**20, 10**20),
    st.booleans(),
    st.integers(-10**6, 10**6).map(float),  # integral floats
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.none(),
)


class TestRouteResolvedAtPrepare:
    def test_recorded_decisions(self):
        conn = _route_conn()
        for name, shards in ROUTE_DECISIONS.items():
            for key, expected in zip(ROUTE_KEYS, shards):
                assert _resolve(conn, name, (key,)) == expected, (name, key)
        for name, params, expected in ROUTE_MULTI_DECISIONS:
            assert _resolve(conn, name, params) == expected, (name, params)

    @settings(max_examples=200, deadline=None)
    @given(scheme=st.sampled_from(sorted(ROUTE_SCHEMES)), key=_route_keys,
           other=_route_keys)
    def test_shard_of_equals_the_scheme_lookup(self, scheme, key, other):
        """``shard_of`` equals what each execution used to compute:
        the table's ``shard_for`` over the evaluated key values, and
        for several keyed tables one shard or the routing error."""
        conn = _route_conn()
        scheme_of = conn.scheme
        expected = scheme_of.shard_for(f"t_{scheme}", (key,), 4)
        assert _resolve(conn, scheme, (key,)) == expected
        insert = conn.prepare(f"INSERT INTO t_{scheme} (v, k) VALUES (?, ?)")
        assert insert.route.shard_of((0, key)) == expected
        assert _resolve(conn, "pair", (key, "x")) == scheme_of.shard_for(
            "pair", (key, "x"), 4
        )
        shards = {
            scheme_of.shard_for("t_mod", (key,), 4),
            scheme_of.shard_for("t_hash", (other,), 4),
        }
        got = _resolve(conn, "join", (key, other))
        if len(shards) == 1:
            assert got == shards.pop()
        else:
            assert got == (
                f"statement binds shard keys on different shards "
                f"{sorted(shards)}; cross-shard joins are not supported"
            )
