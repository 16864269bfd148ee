"""The benchmark ledger's seams stay live.

The end-to-end benchmark's traced run (``benchmarks/e2e``) attributes
wall time by wrapping public callables *after* ``PartitionedApp(...)``
is built: the connection's ``query`` / ``execute`` / ``prepare`` on the
instance, ``PreparedStatement`` / ``ShardPreparedStatement``
``query`` / ``update`` on the class, ``record_cpu`` / ``record_message``
on the cluster instance, and ``acquire`` / ``release_all`` on each lock
manager.  Generated code that bound one of them at load time, or went
around it to a private entry, would run unseen and blind the ledger.
Here the same callables are wrapped with counters at the same moment,
and each must fire as often as the statements that need it.
"""

import collections

import pytest

from repro.core.pipeline import Pyxis
from repro.db import connect, connect_sharded
from repro.db.jdbc import PreparedStatement
from repro.db.shard import ShardPreparedStatement
from repro.runtime.entrypoints import PartitionedApp
from repro.sim.cluster import Cluster, ClusterConfig
from repro.workloads.tpcc import (
    TPCC_ENTRY_POINTS,
    TPCC_SOURCE,
    TpccInputGenerator,
    TpccScale,
    make_sharded_tpcc_database,
    make_tpcc_database,
)
from tests.conftest import tpcc_invocations

SCALE = TpccScale(warehouses=2, districts_per_warehouse=2,
                  customers_per_district=30, items=60)
NEW_ORDERS = 5


@pytest.fixture(scope="module")
def partitions():
    pyxis = Pyxis.from_source(TPCC_SOURCE, TPCC_ENTRY_POINTS)
    _, conn = make_tpcc_database(SCALE)

    def workload(profiler):
        for class_name, method, args in tpcc_invocations(SCALE, 31, 4):
            profiler.invoke(class_name, method, *args)

    pset = pyxis.partition(
        pyxis.profile_with(conn, workload), budgets=[0.0, 1e9]
    )
    return {"lowest": pset.lowest().compiled,
            "highest": pset.highest().compiled}


class Counters:
    """Counting wrappers, installed the way the benchmark installs its
    spans (instance attribute where the object exists, else the class),
    and removed again."""

    def __init__(self) -> None:
        self.calls = collections.Counter()
        self.table_locks: set[tuple[int, tuple]] = set()
        self._undo = []

    def wrap(self, owner, attribute: str, name: str, seen=None) -> None:
        original = getattr(owner, attribute)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            if seen is not None:
                seen(args)
            return original(*args, **kwargs)

        self._undo.append((owner, attribute, vars(owner).get(attribute)))
        setattr(owner, attribute, counted)

    def on_acquire(self, args) -> None:
        txn_id, resource = args[0], args[1]
        if resource[0] == "table":
            self.table_locks.add((txn_id, resource))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def _bare_app(compiled):
    database, _ = make_tpcc_database(SCALE)
    conn = connect(database, use_locks=True)
    app = PartitionedApp(compiled, Cluster(), conn)
    return app, [conn.lock_manager]


def _tier_app(compiled):
    sdb, _ = make_sharded_tpcc_database(SCALE, shards=2)
    conn = connect_sharded(sdb, use_locks=True)
    cluster = Cluster(ClusterConfig(db_shards=2))
    cluster.attach_sharded_database(sdb)
    app = PartitionedApp(compiled, cluster, conn)
    return app, conn.lock_managers


def _branches(txn):
    """The single-server transaction, or a sharded one's branches."""
    return list(getattr(txn, "_branches", {0: txn}).values())


@pytest.mark.parametrize("build,budget", [
    (_bare_app, "lowest"),
    (_tier_app, "lowest"),
    (_tier_app, "highest"),
], ids=["bare", "tier-jdbc", "tier-proc"])
def test_every_statement_passes_every_seam(partitions, build, budget):
    app, managers = build(partitions[budget])
    conn, stats = app.connection, app.executor.stats
    counters = Counters()
    try:
        for attribute in ("query", "execute", "prepare"):
            counters.wrap(conn, attribute, f"conn.{attribute}")
        for cls in (PreparedStatement, ShardPreparedStatement):
            for attribute in ("query", "update"):
                counters.wrap(cls, attribute, "statement")
        for attribute in ("record_cpu", "record_message"):
            counters.wrap(app.cluster, attribute, attribute)
        for manager in managers:
            counters.wrap(manager, "acquire", "acquire", counters.on_acquire)
            counters.wrap(manager, "release_all", "release_all")
        gen = TpccInputGenerator(SCALE, seed=5)
        for _ in range(NEW_ORDERS):
            order = gen.new_order(rollback_fraction=0.0)
            txn = conn.begin()
            app.invoke("TpccTransactions", "new_order", order.w_id,
                       order.d_id, order.c_id, order.item_ids,
                       order.supply_w_ids, order.quantities)
            # Every table lock a transaction holds reached the manager.
            for branch in _branches(txn):
                held = {(branch.id, r) for r in branch._table_locks}
                assert held and held <= counters.table_locks
            conn.commit()
    finally:
        counters.restore()

    calls = counters.calls
    statements = stats.db_calls
    assert statements >= NEW_ORDERS * 20
    assert calls["conn.query"] + calls["conn.execute"] == statements
    assert calls["conn.prepare"] == statements
    assert calls["statement"] == statements
    assert calls["record_message"] == (
        2 * stats.db_round_trips + stats.control_transfers
    )
    assert calls["record_cpu"] > 0
    assert calls["release_all"] >= NEW_ORDERS
    if budget == "lowest":
        assert stats.db_round_trips == statements
    else:
        assert stats.db_round_trips == 0
