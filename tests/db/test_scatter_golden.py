"""Golden digests of the router's scatter behaviour.

Recorded before the scatter route became a gather level of the plan,
by running this file with ``--record``.  The corpus is the scatter
side of ``test_shard_equivalence.py``: the TPC-C payment / scatter
script, the TPC-W browsing joins, the sharded table below a
replicated driver, the key-value mix with its scatter UPDATE and
DELETE, and an unkeyed update that fails mid-statement.  Each script
runs inside one router transaction, on 2 and 3 shards, under both
``sql_exec`` rungs.  Per statement the digest covers:

* the route mode;
* rows, rowcount and ``rows_touched`` (or the error a statement raised);
* the per-shard notify sequence ``(shard, op, table, touched)``, which
  is where the simulated cluster charges the statement's DB CPU;
* the undo records the statement appended, per shard branch.

The final logical table state closes each digest.
"""

import hashlib
import sys

import pytest

from repro.db import (
    Database,
    ShardedDatabase,
    ShardingScheme,
    TableSharding,
    connect_sharded,
)
from repro.db.errors import IntegrityError, ShardDownError
from test_shard_equivalence import (
    GROUPED_SCHEME,
    STAR_SCHEME,
    STAR_SQL,
    _grouped_factory,
    _sharded_state,
    _star_factory,
    tpcw_sharding_scheme,
)


def _tpcc():
    from repro.workloads.tpcc import (
        TpccScale,
        make_tpcc_database,
        tpcc_sharding_scheme,
    )

    scale = TpccScale(warehouses=3, customers_per_district=20, items=120)
    script = []
    for w_id, c_id in ((1, 1), (2, 2), (3, 7)):
        script.extend([
            ("UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
             (10.5, w_id)),
            ("SELECT c_id, c_first FROM customer WHERE c_w_id = ? "
             "AND c_d_id = ? AND c_last = ? ORDER BY c_first",
             (w_id, 1, "BARBARBAR")),
            ("SELECT i_price FROM item WHERE i_id = ?", (c_id * 7,)),
        ])
    script.extend([
        ("SELECT COUNT(*) FROM district", ()),
        ("SELECT d_w_id, SUM(d_ytd) AS ytd, COUNT(*) AS n "
         "FROM district GROUP BY d_w_id ORDER BY ytd DESC, d_w_id", ()),
        ("SELECT w_id, w_ytd FROM warehouse ORDER BY w_ytd DESC", ()),
        ("SELECT d_id, d_next_o_id FROM district WHERE d_id = ? "
         "ORDER BY d_w_id", (3,)),
        ("SELECT DISTINCT d_next_o_id FROM district", ()),
        ("UPDATE district SET d_tax = d_tax * ? WHERE d_id > ?", (1.0, 7)),
        ("SELECT MIN(s_quantity), MAX(s_quantity), COUNT(*) "
         "FROM stock WHERE s_quantity BETWEEN ? AND ?", (20, 60)),
        ("SELECT s_i_id, s_quantity FROM stock WHERE s_quantity < ? "
         "ORDER BY s_i_id LIMIT 5", (15,)),
        ("DELETE FROM district WHERE d_id > ?", (9,)),
        # Ordered-index ranges on the shard key: the merge orders by the
        # ranked index key, then rowid.  High-only, with a residual:
        ("SELECT c_w_id, c_d_id, c_last, c_id FROM customer "
         "WHERE c_w_id < ? AND c_d_id = ?", (3, 2)),
        ("UPDATE customer SET c_balance = c_balance + ? "
         "WHERE c_w_id >= ? AND c_id < ?", (1.5, 2, 4)),
        ("SELECT o_w_id, o_d_id, o_id FROM orders WHERE o_w_id > ? "
         "LIMIT 7", (1,)),
        ("DELETE FROM orders WHERE o_w_id <= ? AND o_id > ?", (2, 28)),
        ("SELECT COUNT(*), SUM(o_id) FROM orders", ()),
    ])
    return (
        lambda: make_tpcc_database(scale)[0],
        tpcc_sharding_scheme("warehouse"),
        script,
    )


def _tpcw():
    from repro.workloads.tpcw import TpcwScale, make_tpcw_database

    scale = TpcwScale(items=80, authors=30, customers=40, orders=60)
    script = []
    for c_id, subject in ((1, "ARTS"), (17, "COOKING"), (33, "HISTORY")):
        script.extend([
            ("SELECT i.i_id, i.i_title, SUM(ol.ol_qty) AS sold "
             "FROM tw_order_line ol JOIN tw_item i "
             "ON ol.ol_i_id = i.i_id WHERE i.i_subject = ? "
             "GROUP BY i.i_id, i.i_title ORDER BY sold DESC LIMIT 10",
             (subject,)),
            ("SELECT o_id, o_date, o_total FROM tw_orders "
             "WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1", (c_id,)),
            ("SELECT ol_i_id, ol_qty FROM tw_order_line "
             "WHERE ol_o_id = ?", (c_id,)),
        ])
    return (
        lambda: make_tpcw_database(scale)[0],
        tpcw_sharding_scheme(),
        script,
    )


def _star():
    script = [(STAR_SQL, (name,)) for name in ("cat0", "cat1", "none")]
    script.extend([
        ("SELECT c.c_name, SUM(f.qty) AS total FROM fact f "
         "JOIN cat c ON f.f_c_id = c.c_id WHERE c.c_id < ? "
         "GROUP BY c.c_name ORDER BY total DESC", (4,)),
        ("SELECT qty FROM fact WHERE f_id = ?", (17,)),
        ("UPDATE fact SET qty = qty + ? WHERE f_c_id = ?", (5, 2)),
        ("DELETE FROM fact WHERE qty > ?", (6,)),
        (STAR_SQL, ("cat2",)),
    ])
    return (lambda: _star_factory()[0], STAR_SCHEME, script)


def _kv():
    from repro.workloads.micro import make_micro_database

    script = [("SELECT v FROM kv WHERE k = ?", (k,)) for k in (0, 7, 49)]
    script.extend([
        ("SELECT COUNT(*) FROM kv", ()),
        ("SELECT k FROM kv WHERE v >= ? ORDER BY k", (0.5,)),
        ("SELECT k, v FROM kv", ()),
        ("UPDATE kv SET v = v + ? WHERE v < ?", (1.0, 0.5)),
        ("DELETE FROM kv WHERE k > ?", (57,)),
        ("SELECT k, v FROM kv", ()),
    ])
    return (
        lambda: make_micro_database(rows=64)[0],
        ShardingScheme({"kv": TableSharding(("k",), "hash")}),
        script,
    )


def _failure():
    script = [
        ("SELECT g, id, val FROM u", ()),
        # (1, 1) and (1, 2) collide on (g=1, id=7): the first row
        # mutates, the second fails.
        ("UPDATE u SET id = ? WHERE val >= ?", (7, 10)),
        ("SELECT g, id, val FROM u", ()),
        ("DELETE FROM u WHERE val > ?", (25,)),
        ("UPDATE u SET val = val + ? WHERE id < ?", (1, 9)),
        ("SELECT g, id, val FROM u ORDER BY val DESC", ()),
    ]
    return (lambda: _grouped_factory()[0], GROUPED_SCHEME, script)


SCRIPTS = {
    "tpcc": _tpcc,
    "tpcw": _tpcw,
    "star": _star,
    "kv": _kv,
    "failure": _failure,
}
SHARDS = (2, 3)
MODES = ("tree", "source")


def _records(script_name: str, shards: int, sql_exec: str) -> list:
    """Per statement: what the router returned, notified and logged."""
    factory, scheme, script = SCRIPTS[script_name]()
    source: Database = factory()
    sdb = ShardedDatabase.from_database(source, shards, scheme)
    notified: list = []
    for index, shard_db in enumerate(sdb.shards):
        shard_db.observer = (
            lambda op, table, rows, index=index:
            notified.append((index, op, table, rows))
        )
    conn = connect_sharded(sdb, sql_exec=sql_exec)
    txn = conn.begin()
    records = []
    for sql, params in script:
        notified.clear()
        depths = {
            shard: txn.branch(shard).undo_depth
            for shard in txn.touched_shards()
        }
        prepared = conn.prepare(sql)
        try:
            if prepared.is_query:
                rs = prepared.query(*params)
                outcome = (
                    "rows", list(rs.columns),
                    [row.as_tuple() for row in rs.rows],
                    len(rs), rs.rows_touched,
                )
            else:
                outcome = ("count", prepared.update(*params))
        except IntegrityError as err:
            outcome = ("error", type(err).__name__, str(err))
        undo = [
            (shard, record.table, record.kind, record.rowid)
            for shard in txn.touched_shards()
            for record in txn.branch(shard)._undo[depths.get(shard, 0):]
        ]
        records.append((
            sql, params, prepared.route.mode, outcome, list(notified), undo,
        ))
    records.append(("state", _sharded_state(sdb)))
    conn.rollback()
    return records


def _digest(records: list) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


# GOLDEN-BEGIN (python tests/db/test_scatter_golden.py --record)
GOLDEN = {
    'tpcc/2': 'a320e38b89e9cfa8',
    'tpcc/3': '93ce41db353d5a78',
    'tpcw/2': '9a2a5acdeacef179',
    'tpcw/3': 'eff335f4cb5445c6',
    'star/2': '5cc3fb672742b61d',
    'star/3': 'dca9a0c2abc2d06e',
    'kv/2': 'cbb5408acabc16c9',
    'kv/3': 'db6bc351d1b75152',
    'failure/2': 'eac5defa8ffd9152',
    'failure/3': '5fffd79359e36dcc',
}
# GOLDEN-END


@pytest.mark.parametrize("sql_exec", MODES)
@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("script", SCRIPTS)
def test_scatter_behaviour_matches_golden(script, shards, sql_exec):
    # One digest per script and shard count: both rungs recorded it.
    records = _records(script, shards, sql_exec)
    assert _digest(records) == GOLDEN[f"{script}/{shards}"]


def test_corpus_scatters_every_statement_kind():
    """The corpus reaches scatter SELECTs (below a replicated driver
    too), UPDATEs and DELETEs, by scan, hash index and ordered range,
    and a scatter statement that fails."""
    seen = set()
    for script in SCRIPTS:
        for record in _records(script, 3, "source")[:-1]:
            sql, _, mode, outcome, notified, _ = record
            if mode == "scatter":
                seen.add((sql.split()[0], outcome[0]))
                # A failed statement reports nothing; every other one does.
                assert bool(notified) == (outcome[0] != "error"), sql
        factory, scheme, statements = SCRIPTS[script]()
        conn = connect_sharded(
            ShardedDatabase.from_database(factory(), 3, scheme)
        )
        for sql, _ in statements:
            prepared = conn.prepare(sql)
            if prepared.route.mode == "scatter":
                plan = prepared.plan
                levels = plan.tables if prepared.is_query else [plan.target]
                seen.update(
                    (sql.split()[0], level, access.access.kind)
                    for level, access in enumerate(levels)
                )
    assert seen >= {
        ("SELECT", "rows"), ("UPDATE", "count"), ("DELETE", "count"),
        ("UPDATE", "error"),
        ("SELECT", 0, "scan"), ("SELECT", 0, "index_range"),
        ("SELECT", 1, "index_eq"), ("SELECT", 2, "pk"),
        ("UPDATE", 0, "scan"), ("UPDATE", 0, "index_eq"),
        ("UPDATE", 0, "index_range"), ("DELETE", 0, "scan"),
        ("DELETE", 0, "index_range"),
    }


@pytest.mark.parametrize("sql_exec", MODES)
@pytest.mark.parametrize("crashed", (0, 2))
def test_scatter_refuses_a_down_shard_before_any_write(sql_exec, crashed):
    """A scatter statement that reaches a crashed primary raises
    ShardDownError naming it, and a scatter mutation does so before it
    writes on any shard: its gather reads every shard first."""
    factory, scheme, _ = _kv()
    sdb = ShardedDatabase.from_database(factory(), 3, scheme, replicas=1)
    conn = connect_sharded(sdb, sql_exec=sql_exec)
    before = _sharded_state(sdb)
    sdb.crash_primary(crashed)
    for sql, params in (
        ("SELECT k, v FROM kv", ()),
        ("UPDATE kv SET v = v + ? WHERE v < ?", (1.0, 0.5)),
        ("DELETE FROM kv WHERE k > ?", (20,)),
    ):
        with pytest.raises(ShardDownError) as err:
            conn.prepare(sql).execute(*params)
        assert err.value.shard == crashed, sql
    sdb.promote(crashed)
    assert _sharded_state(sdb) == before
    assert conn.query_scalar("SELECT COUNT(*) FROM kv") == 64


if __name__ == "__main__" and "--record" in sys.argv:
    print("GOLDEN = {")
    for script in SCRIPTS:
        for shards in SHARDS:
            tree, source = (
                _digest(_records(script, shards, mode)) for mode in MODES
            )
            assert tree == source, (script, shards)
            print(f"    {f'{script}/{shards}'!r}: {tree!r},")
    print("}")
