"""Golden plans for every statement the workload entry points prepare.

Recorded on the parent commit (6f80e28, joins in written order) *before*
the planner chose its own join order, by running this file with
``--record`` there: per distinct statement the plan's table order, the
source rung's ``join_meta``, the generated-source signature, and --
over a fixed script of entry-point invocations -- every execution's
``rows_touched`` plus a digest of its result rows.

Every single-table statement (all of TPC-C and the micro benchmark,
most of TPC-W) must still read exactly as recorded: same signature,
same rows, same ``rows_touched``.  The three TPC-W joins were re-pinned
once to the access-path-rank order; ``REORDERED`` keeps what the
written order touched beside what the new order touches.  Whatever the
order, rows, row order and ``rows_touched`` must agree across the
``tree`` / ``compiled`` / ``source`` executors and between the single
server and the 1- and 3-shard router.
"""

import hashlib
import sys

import pytest

from repro.db import ShardedDatabase, ShardingScheme, TableSharding
from repro.db import connect, connect_sharded
from repro.lang import IRInterpreter, parse_source
from test_shard_equivalence import tpcw_sharding_scheme
from tests.conftest import tpcc_invocations


class _Recorder:
    """Connection stand-in that notes (sql, params) per call."""

    def __init__(self, conn, log):
        self._conn = conn
        self._log = log

    def __getattr__(self, name):
        target = getattr(self._conn, name)
        if name not in ("query", "query_one", "query_scalar", "execute"):
            return target

        def call(sql, *params):
            self._log.append((sql, params))
            return target(sql, *params)
        return call


def _tpcc():
    from repro.workloads.tpcc import (
        TPCC_ENTRY_POINTS,
        TPCC_SOURCE,
        TpccScale,
        make_tpcc_database,
        tpcc_sharding_scheme,
    )

    scale = TpccScale(warehouses=3, customers_per_district=20, items=120)
    return (
        lambda: make_tpcc_database(scale),
        tpcc_sharding_scheme("warehouse"),
        parse_source(TPCC_SOURCE, entry_points=TPCC_ENTRY_POINTS),
        tpcc_invocations(scale, seed=3, rounds=4),
    )


def _tpcw():
    from repro.workloads.tpcw import (
        TPCW_ENTRY_POINTS,
        TPCW_SOURCE,
        make_tpcw_database,
    )

    invocations = []
    for c_id, i_id, subject, lname in (
        (1, 5, "ARTS", "last3"),
        (17, 440, "COOKING", "last11"),
        (333, 979, "HISTORY", "last96"),
    ):
        invocations.extend([
            ("TpcwBrowsing", "home", (c_id,)),
            ("TpcwBrowsing", "new_products", (subject,)),
            ("TpcwBrowsing", "best_sellers", (subject,)),
            ("TpcwBrowsing", "product_detail", (i_id,)),
            ("TpcwBrowsing", "search_by_author", (lname,)),
            ("TpcwBrowsing", "order_inquiry", (f"user{c_id}",)),
            ("TpcwBrowsing", "order_display", (c_id,)),
        ])
    return (
        make_tpcw_database,  # the benchmark's scale: 1 000 items
        tpcw_sharding_scheme(),
        parse_source(TPCW_SOURCE, entry_points=TPCW_ENTRY_POINTS),
        invocations,
    )


def _micro():
    from repro.workloads.micro import (
        THREE_PHASE_ENTRY_POINTS,
        THREE_PHASE_SOURCE,
        make_micro_database,
    )

    return (
        lambda: make_micro_database(rows=64),
        ShardingScheme({"kv": TableSharding(("k",), "hash")}),
        parse_source(THREE_PHASE_SOURCE, entry_points=THREE_PHASE_ENTRY_POINTS),
        [("ThreePhase", "run", (5, 3, 64))],
    )


WORKLOADS = {"tpcc": _tpcc, "tpcw": _tpcw, "micro": _micro}


def _script(factory, program, invocations):
    """The statement-level script the invocations issue, in order."""
    _, conn = factory()
    log = []
    interp = IRInterpreter(program, _Recorder(conn, log))
    for cls, method, args in invocations:
        interp.invoke(cls, method, *args)
    return log


def _replay(conn, script):
    """Per distinct statement: plan shape plus every execution's
    rows_touched and a digest over its result rows, in script order."""
    seen = {}
    for sql, params in script:
        prepared = conn.prepare(sql)
        entry = seen.get(sql)
        if entry is None:
            plan = prepared.plan
            tables = (
                [t.table_name for t in plan.tables]
                if hasattr(plan, "tables") else None
            )
            compiled = getattr(prepared, "compiled", None)
            entry = seen[sql] = {
                "tables": tables,
                "join_meta": [
                    list(pair) for pair in getattr(compiled, "join_meta", ())
                ],
                "signature": getattr(compiled, "signature", "")[:16],
                "touched": [],
                "rows": hashlib.sha256(),
            }
        if prepared.is_query:
            rs = prepared.query(*params)
            entry["touched"].append(rs.rows_touched)
            entry["rows"].update(
                repr([row.as_tuple() for row in rs.rows]).encode()
            )
        else:
            entry["rows"].update(repr(prepared.update(*params)).encode())
    for entry in seen.values():
        entry["rows"] = entry["rows"].hexdigest()[:16]
    return seen


def _measure(workload, sql_exec, shards=None):
    factory, scheme, program, invocations = WORKLOADS[workload]()
    script = _script(factory, program, invocations)
    db, _ = factory()
    if shards is None:
        conn = connect(db, sql_exec=sql_exec)
    else:
        conn = connect_sharded(
            ShardedDatabase.from_database(db, shards, scheme),
            sql_exec=sql_exec,
        )
    return _replay(conn, script)


# GOLDEN-BEGIN (python tests/db/test_join_order_golden.py --record)
GOLDEN = {
    'tpcc': {
        'SELECT w_tax FROM warehouse WHERE w_id = ?': {
            'tables': ['warehouse'],
            'join_meta': [],
            'signature': '1f8837fd482d466f',
            'touched': [1, 1, 1, 1],
            'rows': '7a3aca12d223744b',
        },
        'SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?': {
            'tables': ['district'],
            'join_meta': [],
            'signature': 'd78578b11fafd244',
            'touched': [1, 1, 1, 1],
            'rows': '8e34c9a6759421f8',
        },
        'UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?': {
            'tables': None,
            'join_meta': [],
            'signature': '12ca1a306bdfda05',
            'touched': [],
            'rows': '0ffe1abd1a082153',
        },
        'SELECT c_discount, c_last, c_credit FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?': {
            'tables': ['customer'],
            'join_meta': [],
            'signature': 'cd9758d1e79a2947',
            'touched': [1, 1, 1, 1],
            'rows': 'c3ef0c0c58085304',
        },
        'INSERT INTO orders (o_id, o_d_id, o_w_id, o_c_id, o_entry_d, o_ol_cnt, o_all_local) VALUES (?, ?, ?, ?, ?, ?, ?)': {
            'tables': None,
            'join_meta': [],
            'signature': '6d67d42991c4e5bd',
            'touched': [],
            'rows': '0ffe1abd1a082153',
        },
        'INSERT INTO new_order (no_o_id, no_d_id, no_w_id) VALUES (?, ?, ?)': {
            'tables': None,
            'join_meta': [],
            'signature': '4976371bf83db4cc',
            'touched': [],
            'rows': '0ffe1abd1a082153',
        },
        'SELECT i_price FROM item WHERE i_id = ?': {
            'tables': ['item'],
            'join_meta': [],
            'signature': 'ee52eeff3a61eeeb',
            'touched': [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            'rows': '33f548e2f7fa9c4f',
        },
        'SELECT s_quantity, s_dist_info FROM stock WHERE s_w_id = ? AND s_i_id = ?': {
            'tables': ['stock'],
            'join_meta': [],
            'signature': '8db3ddf50daab3c6',
            'touched': [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            'rows': 'c55f296e96463618',
        },
        'UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + 1, s_remote_cnt = s_remote_cnt + ? WHERE s_w_id = ? AND s_i_id = ?': {
            'tables': None,
            'join_meta': [],
            'signature': '32feda16ade8ad07',
            'touched': [],
            'rows': '1c823edded1a79af',
        },
        'INSERT INTO order_line (ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, ol_dist_info) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)': {
            'tables': None,
            'join_meta': [],
            'signature': '4b5a0ebcf84e8e56',
            'touched': [],
            'rows': '1c823edded1a79af',
        },
        'UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?': {
            'tables': None,
            'join_meta': [],
            'signature': '997e807b2d21ecfe',
            'touched': [],
            'rows': '0ffe1abd1a082153',
        },
        'UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?': {
            'tables': None,
            'join_meta': [],
            'signature': 'f058495ce4a33777',
            'touched': [],
            'rows': '0ffe1abd1a082153',
        },
        'SELECT c_balance, c_ytd_payment, c_payment_cnt, c_credit FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?': {
            'tables': ['customer'],
            'join_meta': [],
            'signature': '32ddcbe6eebecf17',
            'touched': [1, 1, 1, 1],
            'rows': '46df103c0b5caf07',
        },
        'UPDATE customer SET c_balance = ?, c_ytd_payment = ?, c_payment_cnt = ? WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?': {
            'tables': None,
            'join_meta': [],
            'signature': 'f2d8db9e39218aac',
            'touched': [],
            'rows': '0ffe1abd1a082153',
        },
        'INSERT INTO history (h_id, h_c_id, h_c_d_id, h_c_w_id, h_d_id, h_w_id, h_amount, h_data) VALUES (?, ?, ?, ?, ?, ?, ?, ?)': {
            'tables': None,
            'join_meta': [],
            'signature': '0cf73c6869087552',
            'touched': [],
            'rows': '0ffe1abd1a082153',
        },
        'SELECT c_balance, c_first, c_last FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?': {
            'tables': ['customer'],
            'join_meta': [],
            'signature': 'fa0a4abc23c5a66d',
            'touched': [1, 1, 1, 1],
            'rows': '812e47abcefdfca4',
        },
        'SELECT o_id, o_entry_d, o_ol_cnt FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ? ORDER BY o_id DESC LIMIT 1': {
            'tables': ['orders'],
            'join_meta': [],
            'signature': '73e82d887f4520da',
            'touched': [1, 1, 1, 1],
            'rows': 'a74d321459e7d108',
        },
        'SELECT ol_i_id, ol_quantity, ol_amount FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?': {
            'tables': ['order_line'],
            'join_meta': [],
            'signature': '83608cc4a91cfbf2',
            'touched': [14, 27, 36, 49],
            'rows': '9b9f93cf81c3dee4',
        },
    },
    'tpcw': {
        'SELECT c_fname, c_lname, c_discount FROM tw_customer WHERE c_id = ?': {
            'tables': ['tw_customer'],
            'join_meta': [],
            'signature': '5cec22399d596909',
            'touched': [1, 1, 1],
            'rows': '768bc0f50dc2bb16',
        },
        'SELECT i_title, i_cost FROM tw_item WHERE i_id = ?': {
            'tables': ['tw_item'],
            'join_meta': [],
            'signature': '9c28bf83a651c8b8',
            'touched': [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            'rows': '19ffa2482f98612e',
        },
        'SELECT i.i_id, i.i_title, i.i_pub_date, i.i_cost, a.a_fname, a.a_lname FROM tw_item i JOIN author a ON i.i_a_id = a.a_id WHERE i.i_subject = ? ORDER BY i.i_pub_date DESC, i.i_title LIMIT 10': {
            'tables': ['tw_item', 'author'],
            'join_meta': [['i', 'driver'], ['a', 'nested']],
            'signature': 'a9fbbcfefe9d5bef',
            'touched': [82, 84, 84],
            'rows': '788d0bde489d332d',
        },
        'SELECT i.i_id, i.i_title, SUM(ol.ol_qty) AS sold FROM tw_order_line ol JOIN tw_item i ON ol.ol_i_id = i.i_id WHERE i.i_subject = ? GROUP BY i.i_id, i.i_title ORDER BY sold DESC LIMIT 10': {
            'tables': ['tw_item', 'tw_order_line'],
            'join_meta': [['i', 'driver'], ['ol', 'nested']],
            'signature': '026eb24bc90babe5',
            'touched': [105, 102, 115],
            'rows': '9da45bb3815a457a',
        },
        'SELECT i_title, i_a_id, i_subject, i_cost, i_stock FROM tw_item WHERE i_id = ?': {
            'tables': ['tw_item'],
            'join_meta': [],
            'signature': 'c3ca62f01aa750d3',
            'touched': [1, 1, 1],
            'rows': '99b0097ee0d736d4',
        },
        'SELECT a_fname, a_lname FROM author WHERE a_id = ?': {
            'tables': ['author'],
            'join_meta': [],
            'signature': '21e95a9eb3ecd1fd',
            'touched': [1, 1, 1],
            'rows': 'a517b20d79b051da',
        },
        'SELECT i.i_id, i.i_title FROM tw_item i JOIN author a ON i.i_a_id = a.a_id WHERE a.a_lname = ? ORDER BY i.i_title LIMIT 20': {
            'tables': ['author', 'tw_item'],
            'join_meta': [['a', 'driver'], ['i', 'nested']],
            'signature': '5ab695b658d47b82',
            'touched': [261, 269, 257],
            'rows': '85728546f749abea',
        },
        'SELECT o_id, o_date, o_total FROM tw_orders WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1': {
            'tables': ['tw_orders'],
            'join_meta': [],
            'signature': '3a6f803359da246e',
            'touched': [1, 1, 2],
            'rows': '3afcd8719b3249ec',
        },
        'SELECT ol_i_id, ol_qty FROM tw_order_line WHERE ol_o_id = ?': {
            'tables': ['tw_order_line'],
            'join_meta': [],
            'signature': 'f863953ba9c3bab0',
            'touched': [3, 3, 5],
            'rows': '86eef861a56e71dd',
        },
        'SELECT i_title FROM tw_item WHERE i_id = ?': {
            'tables': ['tw_item'],
            'join_meta': [],
            'signature': '983ee25b29026438',
            'touched': [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            'rows': '2164d5c53bcbb769',
        },
    },
    'micro': {
        'SELECT v FROM kv WHERE k = ?': {
            'tables': ['kv'],
            'join_meta': [],
            'signature': 'e2b909a42d9fd895',
            'touched': [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            'rows': '45ea121bfde5645b',
        },
    },
}
# GOLDEN-END

# The three TPC-W joins, re-pinned once: rows_touched per execution in
# the written order (recorded on the parent) -> in the access-path-rank
# order.  ``best_sellers`` now drives ``tw_item`` by ``item_by_subject``
# and probes ``ol_by_item`` (its tie order among equal ``sold`` moves
# with the group emission order; the grouped multiset does not);
# ``search_by_author`` drives ``author`` and probes ``item_by_author``;
# ``new_products`` keeps its order and only loses its hash build.
_BEST_SELLERS = (
    "SELECT i.i_id, i.i_title, SUM(ol.ol_qty) AS sold FROM tw_order_line ol "
    "JOIN tw_item i ON ol.ol_i_id = i.i_id WHERE i.i_subject = ? "
    "GROUP BY i.i_id, i.i_title ORDER BY sold DESC LIMIT 10"
)
_SEARCH_BY_AUTHOR = (
    "SELECT i.i_id, i.i_title FROM tw_item i JOIN author a "
    "ON i.i_a_id = a.a_id WHERE a.a_lname = ? ORDER BY i.i_title LIMIT 20"
)
_NEW_PRODUCTS = (
    "SELECT i.i_id, i.i_title, i.i_pub_date, i.i_cost, a.a_fname, a.a_lname "
    "FROM tw_item i JOIN author a ON i.i_a_id = a.a_id WHERE i.i_subject = ? "
    "ORDER BY i.i_pub_date DESC, i.i_title LIMIT 10"
)
REORDERED = {
    _BEST_SELLERS: ([3668, 3668, 3668], [105, 102, 115]),
    _SEARCH_BY_AUTHOR: ([2000, 2000, 2000], [261, 269, 257]),
}
PARENT_JOINS = {
    # sql: (tables, join_meta) as recorded on the parent
    _BEST_SELLERS: (
        ["tw_order_line", "tw_item"], [["ol", "driver"], ["i", "hash"]],
    ),
    _SEARCH_BY_AUTHOR: (
        ["tw_item", "author"], [["i", "driver"], ["a", "hash"]],
    ),
    _NEW_PRODUCTS: (
        ["tw_item", "author"], [["i", "driver"], ["a", "hash"]],
    ),
}


class TestGoldenDeterminism:
    """Table order, strategies and the generated text's signature are a
    pure function of statement + schema (CI's determinism step runs
    this class too)."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_source_plans_match_golden(self, workload):
        measured = _measure(workload, "source")
        assert list(measured) == list(GOLDEN[workload])
        for sql, want in GOLDEN[workload].items():
            assert measured[sql] == want, sql


@pytest.mark.parametrize("sql_exec", ("tree", "compiled"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_rungs_agree_with_golden(workload, sql_exec):
    measured = _measure(workload, sql_exec)
    for sql, want in GOLDEN[workload].items():
        got = measured[sql]
        assert got["tables"] == want["tables"], sql
        assert got["touched"] == want["touched"], sql
        assert got["rows"] == want["rows"], sql


# Routed to one warehouse's shard but fetched by a full scan (no index
# covers the predicate): the single server also touches the other
# warehouses' order lines, which that shard does not hold.
SHARD_LOCAL_TOUCHES = {
    "SELECT ol_i_id, ol_quantity, ol_amount FROM order_line "
    "WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
}


@pytest.mark.parametrize("shards", (1, 3))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_router_agrees_with_golden(workload, shards):
    measured = _measure(workload, "source", shards=shards)
    for sql, want in GOLDEN[workload].items():
        got = measured[sql]
        assert got["rows"] == want["rows"], sql
        if shards == 1 or sql not in SHARD_LOCAL_TOUCHES:
            assert got["touched"] == want["touched"], sql


def test_reordered_joins_touch_fewer_rows():
    for sql, (before, after) in REORDERED.items():
        assert GOLDEN["tpcw"][sql]["touched"] == after, sql
        assert sum(after) * 7 < sum(before), sql


def test_only_the_three_joins_were_repinned():
    joins = {
        sql for workload in GOLDEN.values() for sql, entry in workload.items()
        if entry["tables"] is not None and len(entry["tables"]) > 1
    }
    assert joins == set(PARENT_JOINS)
    new_products = GOLDEN["tpcw"][_NEW_PRODUCTS]
    assert new_products["tables"] == PARENT_JOINS[_NEW_PRODUCTS][0]
    assert new_products["join_meta"] == [["i", "driver"], ["a", "nested"]]
    for sql in REORDERED:
        assert GOLDEN["tpcw"][sql]["tables"] == PARENT_JOINS[sql][0][::-1]
        assert [s for _, s in GOLDEN["tpcw"][sql]["join_meta"]] == [
            "driver", "nested",
        ]


if __name__ == "__main__" and "--record" in sys.argv:
    print("GOLDEN = {")
    for name in WORKLOADS:
        print(f"    {name!r}: {{")
        for sql, entry in _measure(name, "source").items():
            print(f"        {sql!r}: {{")
            for key, value in entry.items():
                print(f"            {key!r}: {value!r},")
            print("        },")
        print("    },")
    print("}")
