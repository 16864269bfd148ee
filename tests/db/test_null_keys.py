"""A NULL key never matches through an index.

SQL's ``=``, ``<`` and ``>`` are never true against a NULL, so an
equality probe, a range bound or a join probe holding a NULL matches no
row, and a range with only a high bound does not reach the NULL keys
(they sort first in an ordered index).  Every case runs on the tree and
source rungs and through the 1- and 3-shard router, and must give what
the same predicate gives with the index bypassed (``k + 0``).
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
from repro.db.sql.planner import HASH_JOIN_MIN_ROWS

SMALL = [(1, None, None), (2, 5, 7), (3, None, None)]
# Past the hash-join threshold, so the source rung builds a hash table
# over the inner table instead of probing its index row by row.
LARGE = [
    (i, None if i % 3 == 0 else i % 4, None if i % 5 == 0 else i % 6)
    for i in range(HASH_JOIN_MIN_ROWS + 4)
]
DEPLOYMENTS = ("tree", "source", "router-1", "router-3")


def _load(rows):
    db = Database("nulls")
    for name in ("t", "a", "b"):
        db.create_table(
            name,
            [("id", "int", False), ("k", "int"), ("v", "int")],
            primary_key=["id"],
            indexes=[
                IndexSpec(f"{name}_k", ("k",)),
                IndexSpec(f"{name}_v", ("v",), ordered=True),
            ],
        )
        for row in rows:
            db.table(name).insert(row)
    return db


def _connect(deployment, rows):
    if deployment in ("tree", "source"):
        return connect(_load(rows), sql_exec=deployment)
    scheme = ShardingScheme({
        "t": TableSharding(("id",), "hash"),
        "a": TableSharding(("id",), "hash"),
    })
    shards = int(deployment.split("-")[1])
    return connect_sharded(
        ShardedDatabase.from_database(_load(rows), shards, scheme)
    )


def _ids(conn, sql, *params):
    return sorted(row.as_tuple()[0] for row in conn.query(sql, *params).rows)


@pytest.fixture(params=DEPLOYMENTS)
def small(request):
    return _connect(request.param, SMALL)


class TestProbes:
    def test_equality_probe_with_null_matches_nothing(self, small):
        assert _ids(small, "SELECT id FROM t WHERE k = ?", None) == []
        assert _ids(small, "SELECT id FROM t WHERE k + 0 = ?", None) == []
        assert _ids(small, "SELECT id FROM t WHERE v = ?", None) == []
        assert _ids(small, "SELECT id FROM t WHERE k = NULL") == []

    def test_is_null_still_finds_the_null_rows(self, small):
        assert _ids(small, "SELECT id FROM t WHERE k IS NULL") == [1, 3]

    def test_null_range_bound_matches_nothing(self, small):
        assert _ids(small, "SELECT id FROM t WHERE v > ?", None) == []
        assert _ids(small, "SELECT id FROM t WHERE v < ?", None) == []
        assert _ids(
            small, "SELECT id FROM t WHERE v >= ? AND v <= ?", None, 9
        ) == []

    def test_open_low_range_skips_null_keys(self, small):
        assert _ids(small, "SELECT id FROM t WHERE v < ?", 9) == [2]
        assert _ids(small, "SELECT id FROM t WHERE v <= ?", 9) == [2]
        assert _ids(small, "SELECT id FROM t WHERE v + 0 < ?", 9) == [2]

    def test_index_join_does_not_pair_nulls(self, small):
        indexed = "SELECT a.id FROM a JOIN b ON a.k = b.k"
        bypassed = "SELECT a.id FROM a JOIN b ON a.k + 0 = b.k + 0"
        assert _ids(small, indexed) == _ids(small, bypassed) == [2]
        assert _ids(small, "SELECT a.id FROM a JOIN b ON a.v = b.v") == [2]


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_hash_join_build_skips_null_keys(deployment):
    conn = _connect(deployment, LARGE)
    expected = sorted(
        left[0] for left in LARGE for right in LARGE
        if left[1] is not None and left[1] == right[1]
    )
    assert _ids(conn, "SELECT a.id FROM a JOIN b ON a.k = b.k") == expected
    assert _ids(
        conn, "SELECT a.id FROM a JOIN b ON a.k + 0 = b.k + 0"
    ) == expected


def test_source_rung_hashes_the_large_join():
    conn = connect(_load(LARGE), sql_exec="source")
    compiled = conn.prepare("SELECT a.id FROM a JOIN b ON a.k = b.k").compiled
    assert ("b", "hash") in [tuple(meta) for meta in compiled.join_meta]


@pytest.mark.parametrize("mode", ["tree", "source"])
def test_prefix_range_still_reaches_a_null_suffix(mode):
    """``b = 5`` on an ``(b, c)`` ordered index must return the row
    whose ``c`` is NULL: only the probed columns are compared."""
    db = Database("prefix")
    db.create_table(
        "t", [("id", "int", False), ("b", "int"), ("c", "int")],
        primary_key=["id"],
        indexes=[IndexSpec("t_bc", ("b", "c"), ordered=True)],
    )
    for row in [(1, 5, None), (2, 5, 7), (3, None, 2), (4, 6, 1)]:
        db.table("t").insert(row)
    conn = connect(db, sql_exec=mode)
    assert _ids(conn, "SELECT id FROM t WHERE b = ?", 5) == [1, 2]
    assert _ids(conn, "SELECT id FROM t WHERE b = ? AND c < ?", 5, 9) == [2]
    assert _ids(conn, "SELECT id FROM t WHERE b = ? AND c = ?", 5, None) == []


def test_primary_key_cannot_be_updated_to_null():
    db = Database("pk")
    db.create_table("t", [("id", "int"), ("v", "int")], primary_key=["id"])
    conn = connect(db)
    conn.execute("INSERT INTO t (id, v) VALUES (?, ?)", 1, 2)
    with pytest.raises(IntegrityError, match="cannot contain NULL"):
        conn.execute("UPDATE t SET id = ? WHERE id = ?", None, 1)
    assert _ids(conn, "SELECT id FROM t WHERE id = ?", 1) == [1]
