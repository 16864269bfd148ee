"""Entry-point wrappers."""

import pytest

from repro.runtime.entrypoints import PartitionedApp
from repro.sim.cluster import Cluster
from tests.conftest import make_order_database


class TestPartitionedApp:
    def test_invoke_returns_plain_result(self, order_partitions):
        _, conn = make_order_database()
        app = PartitionedApp(
            order_partitions.highest().compiled, Cluster(), conn
        )
        assert app.invoke("Order", "place_order", 7, 0.9) == pytest.approx(54.0)

    def test_invoke_traced_outcome_fields(self, order_partitions):
        _, conn = make_order_database()
        app = PartitionedApp(
            order_partitions.highest().compiled, Cluster(), conn
        )
        outcome = app.invoke_traced("Order", "place_order", 7, 0.9)
        assert outcome.latency > 0
        assert outcome.trace.stages
        assert outcome.control_transfers >= 1
        assert outcome.trace.name.endswith("Order.place_order")

    def test_trace_latency_consistent_with_stages(self, order_partitions):
        _, conn = make_order_database()
        cluster = Cluster()
        app = PartitionedApp(
            order_partitions.highest().compiled, cluster, conn
        )
        outcome = app.invoke_traced("Order", "place_order", 7, 0.9)
        # Unloaded replay of the trace equals the recorded latency.
        replayed = outcome.trace.unloaded_latency(cluster.network)
        assert replayed == pytest.approx(outcome.latency, rel=1e-6)

    def test_stats_accumulate_across_invocations(self, order_partitions):
        _, conn = make_order_database()
        app = PartitionedApp(
            order_partitions.lowest().compiled, Cluster(), conn
        )
        first = app.invoke_traced("Order", "place_order", 7, 0.9)
        conn.execute("DELETE FROM line_item")
        second = app.invoke_traced("Order", "place_order", 7, 0.9)
        # Per-invocation deltas stay per-invocation.
        assert first.db_round_trips == second.db_round_trips

    def test_result_set_results_unwrapped(self):
        """Entry points returning a query result hand back the plain
        result set, not an internal NativeRef."""
        from repro.core.pipeline import Pyxis
        from repro.db import Database, connect
        from repro.db.jdbc import ResultSet

        source = '''
class Q:
    def fetch(self, x):
        rs = self.db.query("SELECT k FROM kv WHERE k >= ?", x)
        return rs
'''
        db = Database()
        db.create_table("kv", [("k", "int", False)], primary_key=["k"])
        conn = connect(db)
        for k in range(4):
            conn.execute("INSERT INTO kv (k) VALUES (?)", k)
        pyx = Pyxis.from_source(source, [("Q", "fetch")])
        profile = pyx.profile_with(conn, lambda p: p.invoke("Q", "fetch", 0))
        part = pyx.partition(profile, budgets=[1e9]).partitions[0]
        app = PartitionedApp(part.compiled, Cluster(), conn)
        result = app.invoke("Q", "fetch", 2)
        assert isinstance(result, ResultSet)
        assert [r["k"] for r in result] == [2, 3]


class TestInvokeProfiled:
    def test_counts_returned_and_result_intact(self, order_partitions):
        _, conn = make_order_database()
        app = PartitionedApp(
            order_partitions.highest().compiled, Cluster(), conn
        )
        outcome, sid_counts = app.invoke_profiled(
            "Order", "place_order", 7, 0.9
        )
        assert outcome.result == pytest.approx(54.0)
        assert sid_counts
        assert all(
            isinstance(sid, int) and count > 0
            for sid, count in sid_counts.items()
        )
        # The loop body executed once per costs row (3 rows loaded).
        assert max(sid_counts.values()) >= 3

    def test_deltas_are_per_invocation(self, order_partitions):
        _, conn = make_order_database()
        app = PartitionedApp(
            order_partitions.lowest().compiled, Cluster(), conn
        )
        _, first = app.invoke_profiled("Order", "place_order", 7, 0.9)
        conn.execute("DELETE FROM line_item")
        _, second = app.invoke_profiled("Order", "place_order", 7, 0.9)
        assert first == second

    def test_both_interpreters_count_identically(self, order_partitions):
        counts = {}
        for interp in ("tree", "source"):
            _, conn = make_order_database()
            app = PartitionedApp(
                order_partitions.highest().compiled, Cluster(), conn,
                interp=interp,
            )
            _, counts[interp] = app.invoke_profiled(
                "Order", "place_order", 7, 0.9
            )
        assert counts["tree"] == counts["source"]
