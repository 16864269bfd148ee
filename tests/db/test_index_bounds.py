"""Prefix range bounds and NULL keys in unique indexes.

A range bound on the leading column of an ordered ``(b, c)`` index
compares on ``b`` alone: ``b > 5`` skips every ``(5, *)`` key and
``b < 9`` stops before every ``(9, *)`` key.  A unique index never
lets two rows share a key, but a key holding a NULL equals nothing, so
any number of such rows may coexist.  Every case runs on the tree and
source rungs and through the 1- and 3-shard router, and the range
cases must give what the same predicate gives with the index bypassed
(``b + 0``).
"""

import pytest

from repro.db import (
    Database,
    ShardedDatabase,
    ShardingScheme,
    TableSharding,
    connect,
    connect_sharded,
)
from repro.db.catalog import IndexSpec
from repro.db.errors import IntegrityError

DEPLOYMENTS = ("tree", "source", "router-1", "router-3")
# (id, b, c, e): two rows share b = 5, every e is NULL.
ROWS = [(1, 9, 1, None), (2, 5, 2, None), (3, 5, 3, None)]


def _connect(deployment, unique_e):
    db = Database("bounds")
    indexes = [IndexSpec("t_bc", ("b", "c"), ordered=True)]
    if unique_e:
        indexes.append(IndexSpec("t_e", ("e",), unique=True))
    db.create_table(
        "t",
        [("id", "int", False), ("b", "int"), ("c", "int"), ("e", "int")],
        primary_key=["id"],
        indexes=indexes,
    )
    if deployment in ("tree", "source"):
        return connect(db, sql_exec=deployment)
    # A unique index on a sharded table must hold the shard key, so the
    # table with one on ``e`` is replicated.
    scheme = ShardingScheme(
        {} if unique_e else {"t": TableSharding(("id",), "hash")}
    )
    shards = int(deployment.split("-")[1])
    return connect_sharded(ShardedDatabase.from_database(db, shards, scheme))


def _insert_rows(conn):
    for row in ROWS:
        conn.execute("INSERT INTO t (id, b, c, e) VALUES (?, ?, ?, ?)", *row)


def _ids(conn, sql, *params):
    return sorted(row.as_tuple()[0] for row in conn.query(sql, *params).rows)


@pytest.fixture(params=DEPLOYMENTS)
def ranged(request):
    conn = _connect(request.param, unique_e=False)
    _insert_rows(conn)
    return conn


PREDICATES = [
    ("b > ?", (5,), [1]),
    ("b >= ?", (5,), [1, 2, 3]),
    ("b < ?", (9,), [2, 3]),
    ("b <= ?", (9,), [1, 2, 3]),
    ("b > ? AND b < ?", (5, 9), []),
    ("b >= ? AND b < ?", (5, 9), [2, 3]),
    ("b > ? AND b <= ?", (5, 9), [1]),
    ("b = ? AND c > ?", (5, 2), [3]),
    ("b = ? AND c < ?", (5, 3), [2]),
]


@pytest.mark.parametrize("where, params, expected", PREDICATES)
def test_prefix_range_matches_the_bypassed_index(ranged, where, params,
                                                 expected):
    bypassed = where.replace("b ", "b + 0 ").replace("c ", "c + 0 ")
    assert _ids(ranged, f"SELECT id FROM t WHERE {bypassed}", *params) \
        == expected
    assert _ids(ranged, f"SELECT id FROM t WHERE {where}", *params) \
        == expected


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_unique_index_admits_many_null_keys(deployment):
    conn = _connect(deployment, unique_e=True)
    _insert_rows(conn)
    assert _ids(conn, "SELECT id FROM t WHERE e IS NULL") == [1, 2, 3]
    assert _ids(conn, "SELECT id FROM t WHERE e = ?", None) == []
    # A NULL-free key still conflicts, whether inserted or updated to.
    conn.execute("UPDATE t SET e = ? WHERE id = ?", 7, 1)
    with pytest.raises(IntegrityError, match="t_e"):
        conn.execute(
            "INSERT INTO t (id, b, c, e) VALUES (?, ?, ?, ?)", 4, 1, 1, 7
        )
    with pytest.raises(IntegrityError, match="t_e"):
        conn.execute("UPDATE t SET e = ? WHERE id = ?", 7, 2)
    # Back to NULL, and the key is free again.
    conn.execute("UPDATE t SET e = ? WHERE id = ?", None, 1)
    conn.execute("UPDATE t SET e = ? WHERE id = ?", 7, 2)
    assert _ids(conn, "SELECT id FROM t WHERE e = ?", 7) == [2]
    assert _ids(conn, "SELECT id FROM t WHERE e IS NULL") == [1, 3]
