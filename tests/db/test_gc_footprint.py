"""The storage tier's collector footprint: no per-row tracked container.

Python's cyclic collector walks every GC-tracked container on a full
collection, so anything the tier allocates *per row per copy* makes
every transaction slower as the data grows.  The contract pinned here
(DESIGN.md, "Storage footprint"): rows, keys and one-row index buckets
are untracked atoms or tuples of atoms; a ``set`` exists only for a key
with two or more rows; and a healthy replica group's in-memory commit
log is empty between commits.
"""

import gc
import types

from repro.db import Database
from repro.db.catalog import IndexSpec
from repro.workloads.tpcc import (
    TpccScale,
    make_sharded_tpcc_database,
    new_order_statement_script,
)


def _tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def _tracked_reachable(root) -> int:
    """GC-tracked objects reachable from ``root``, stopping at code and
    classes (through which everything is reachable).  Not a process-wide
    census: what an earlier test left behind -- the frames a failure's
    traceback pins, say -- must not move this count."""
    gc.collect()  # also untracks row tuples of atomic values
    shared = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType)
    seen = {id(root)}
    stack = [root]
    tracked = 0
    while stack:
        obj = stack.pop()
        tracked += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, shared):
                seen.add(id(ref))
                stack.append(ref)
    return tracked


def _tracked_sets() -> int:
    gc.collect()
    return sum(type(obj) is set for obj in gc.get_objects())


def _indexes(table):
    return [table.primary_index, *table.secondary.values()]


# ---------------------------------------------------------------------------
# One table: growth per added row
# ---------------------------------------------------------------------------


def test_tracked_objects_do_not_grow_with_rows():
    db = Database("footprint")
    table = db.create_table(
        "t",
        [("k", "int", False), ("code", "text", False), ("score", "float")],
        primary_key=["k"],
        indexes=[
            IndexSpec("t_by_code", ("code",), unique=True),
            # Not declared unique, but every key is distinct.
            IndexSpec("t_by_score", ("score",), ordered=True),
        ],
    )
    n = 4000

    def load(start: int) -> None:
        for k in range(start, start + n):
            table.insert((k, f"code-{k}", k / 8.0))

    load(0)
    before = _tracked_reachable(table)
    load(n)
    grown = _tracked_reachable(table) - before
    assert len(table) == 2 * n
    assert grown < 0.05 * n, f"{grown} tracked objects for {n} added rows"
    for index in _indexes(table):
        assert len(index) == 2 * n
        assert all(type(b) is int for b in index.buckets.values()), index.name


# ---------------------------------------------------------------------------
# The sharded, replicated tier under new-order commits
# ---------------------------------------------------------------------------


def _new_order_transactions(count: int) -> list[list[tuple[str, tuple]]]:
    transactions: list[list[tuple[str, tuple]]] = []
    for sql, params in new_order_statement_script(
        TpccScale(), transactions=count
    ):
        if sql.startswith("SELECT w_tax"):  # a transaction's first statement
            transactions.append([])
        transactions[-1].append((sql, params))
    return transactions


def _commit_all(conn, transactions) -> None:
    for statements in transactions:
        conn.begin()
        for sql, params in statements:
            conn.prepare(sql).execute(*params)
        conn.commit()


def _copies(sdb):
    """Every row-store copy of the tier: primaries and replicas."""
    for group in sdb.groups:
        yield group.primary
        for replica in group.replicas:
            yield replica.database


def _stored_rows(sdb) -> int:
    return sum(database.total_rows() for database in _copies(sdb))


def _multi_row_buckets(sdb) -> int:
    """Index buckets that hold two or more rows -- the only sets the
    tier may own."""
    return sum(
        type(bucket) is set
        for database in _copies(sdb)
        for table in database.tables()
        for index in _indexes(table)
        for bucket in index.buckets.values()
    )


def test_commits_leave_no_set_and_no_log_entry_behind():
    sdb, conn = make_sharded_tpcc_database(shards=2, replicas=2)
    transactions = _new_order_transactions(260)
    # Warm the plan caches and lazy code generation first.
    _commit_all(conn, transactions[:30])
    sets_before, multi_before = _tracked_sets(), _multi_row_buckets(sdb)
    objects_before, rows_before = _tracked_objects(), _stored_rows(sdb)
    _commit_all(conn, transactions[30:230])
    added = _stored_rows(sdb) - rows_before
    assert added > 200 * 3 * 5  # >= 5 order lines, on three copies
    # The only new sets are keys that gained a second row.
    assert (
        _tracked_sets() - sets_before
        <= _multi_row_buckets(sdb) - multi_before
    )
    grown = _tracked_objects() - objects_before
    assert grown < 0.05 * added, f"{grown} tracked objects, {added} rows"
    for group in sdb.groups:
        assert group.log.entries == []
        assert group.log.base_lsn == group.log.tip

    # A partitioned replica pins exactly the commits it missed, and a
    # reconnect drains them by plain catch-up.
    group = sdb.groups[0]
    group.set_replica_connected(1, False)
    tip = group.log.tip
    _commit_all(conn, transactions[230:])
    missed = group.log.tip - tip
    assert missed > 0
    assert [e.lsn for e in group.log.entries] == list(
        range(tip + 1, tip + missed + 1)
    )
    assert sdb.groups[1].log.entries == []  # the healthy group: still empty
    group.set_replica_connected(1, True)
    assert group.log.entries == []
    assert group.stats.resyncs == 0
    assert group.replication_lag() == [0, 0]
    sdb.assert_replica_groups_consistent()
