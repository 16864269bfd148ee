"""Block interpreter: oracle equivalence and transfer accounting."""

import pytest

from repro.core.partition_graph import Placement
from repro.core.pipeline import Pyxis
from repro.db import Database, connect
from repro.lang import IRInterpreter, parse_source
from repro.runtime.entrypoints import PartitionedApp
from repro.runtime.interpreter import PyxisExecutor, RuntimeError_
from repro.sim.cluster import Cluster
from tests.conftest import make_order_database


def build_apps(source, entry_points, workload, budgets=(0.0, 1e9),
               make_db=None):
    """Compile a program under several budgets and pair each partition
    with a fresh database + cluster."""
    pyx = Pyxis.from_source(source, entry_points)
    if make_db is None:
        make_db = lambda: (None, connect(Database()))  # noqa: E731
    _, conn = make_db()
    profile = pyx.profile_with(conn, workload)
    pset = pyx.partition(profile, budgets=list(budgets))
    apps = []
    for part in pset.by_budget():
        _, run_conn = make_db()
        apps.append(
            (part, PartitionedApp(part.compiled, Cluster(), run_conn))
        )
    return pyx, apps


class TestOracleEquivalence:
    def test_running_example_all_budgets(self, order_pyxis, order_partitions):
        _, oracle_conn = make_order_database()
        oracle = IRInterpreter(order_pyxis.program, oracle_conn)
        expected = oracle.invoke("Order", "place_order", 7, 0.9)
        expected_items = oracle_conn.query(
            "SELECT li_id, li_cost FROM line_item ORDER BY li_id"
        ).rows
        for part in order_partitions.partitions:
            _, conn = make_order_database()
            app = PartitionedApp(part.compiled, Cluster(), conn)
            outcome = app.invoke_traced("Order", "place_order", 7, 0.9)
            assert outcome.result == pytest.approx(expected)
            items = conn.query(
                "SELECT li_id, li_cost FROM line_item ORDER BY li_id"
            ).rows
            assert items == expected_items

    def test_control_flow_program(self):
        source = '''
class Flow:
    def run(self, n):
        total = 0
        i = 0
        while i < n:
            i = i + 1
            if i % 3 == 0:
                continue
            if i > 14:
                break
            if i % 2 == 0:
                total = total + i
            else:
                total = total - 1
        return total
'''
        pyx, apps = build_apps(
            source, [("Flow", "run")], lambda p: p.invoke("Flow", "run", 9)
        )
        oracle = IRInterpreter(pyx.program, connect(Database()))
        for n in (0, 1, 5, 30):
            expected = oracle.invoke("Flow", "run", n)
            for part, app in apps:
                assert app.invoke("Flow", "run", n) == expected

    def test_object_graph_program(self):
        source = '''
class Pair:
    def fill(self, a, b):
        self.left = a
        self.right = b

    def total(self):
        return self.left + self.right

class Builder:
    def run(self, x):
        p = Pair()
        p.fill(x, x * 2)
        q = Pair()
        q.fill(p.total(), 1)
        return q.total()
'''
        pyx, apps = build_apps(
            source, [("Builder", "run")],
            lambda p: p.invoke("Builder", "run", 4),
        )
        oracle = IRInterpreter(pyx.program, connect(Database()))
        for x in (0, 3, 10):
            expected = oracle.invoke("Builder", "run", x)
            for part, app in apps:
                assert app.invoke("Builder", "run", x) == expected

    def test_list_heavy_program(self):
        source = '''
class Lists:
    def run(self, n):
        squares = [0] * n
        i = 0
        while i < n:
            squares[i] = i * i
            i = i + 1
        evens = []
        for value in squares:
            if value % 2 == 0:
                evens.append(value)
        return sum(evens) + len(evens)
'''
        pyx, apps = build_apps(
            source, [("Lists", "run")], lambda p: p.invoke("Lists", "run", 6)
        )
        oracle = IRInterpreter(pyx.program, connect(Database()))
        for n in (0, 1, 8):
            expected = oracle.invoke("Lists", "run", n)
            for part, app in apps:
                assert app.invoke("Lists", "run", n) == expected

    def test_repeated_invocations_share_no_state(self, order_partitions):
        # Each invoke creates a fresh receiver: results must repeat.
        part = order_partitions.highest()
        _, conn = make_order_database()
        app = PartitionedApp(part.compiled, Cluster(), conn)
        first = app.invoke("Order", "place_order", 7, 0.9)
        conn.execute("DELETE FROM line_item")  # avoid duplicate keys
        second = app.invoke("Order", "place_order", 7, 0.9)
        assert first == pytest.approx(second)


class TestTransferAccounting:
    def test_all_app_partition_never_transfers(self, order_partitions):
        part = order_partitions.lowest()
        _, conn = make_order_database()
        app = PartitionedApp(part.compiled, Cluster(), conn)
        outcome = app.invoke_traced("Order", "place_order", 7, 0.9)
        assert outcome.control_transfers == 0
        assert outcome.db_round_trips == 5  # one per DB call

    def test_db_partition_eliminates_round_trips(self, order_partitions):
        part = order_partitions.highest()
        _, conn = make_order_database()
        app = PartitionedApp(part.compiled, Cluster(), conn)
        outcome = app.invoke_traced("Order", "place_order", 7, 0.9)
        assert outcome.db_round_trips == 0
        assert 0 < outcome.control_transfers <= 6

    def test_db_partition_faster(self, order_partitions):
        latencies = {}
        for part in order_partitions.partitions:
            _, conn = make_order_database()
            app = PartitionedApp(part.compiled, Cluster(), conn)
            outcome = app.invoke_traced("Order", "place_order", 7, 0.9)
            latencies[part.budget] = outcome.latency
        assert latencies[max(latencies)] < latencies[min(latencies)] / 2

    def test_jdbc_partition_sends_more_bytes(self, order_partitions):
        # Paper fig9c: Pyxis (DB-heavy) sends less than JDBC.
        byte_counts = {}
        for part in order_partitions.partitions:
            _, conn = make_order_database()
            app = PartitionedApp(part.compiled, Cluster(), conn)
            outcome = app.invoke_traced("Order", "place_order", 7, 0.9)
            byte_counts[part.budget] = (
                outcome.trace.bytes_to_db + outcome.trace.bytes_to_app
            )
        assert byte_counts[max(byte_counts)] < byte_counts[min(byte_counts)]

    def test_trace_stages_alternate_sensibly(self, order_partitions):
        part = order_partitions.highest()
        _, conn = make_order_database()
        app = PartitionedApp(part.compiled, Cluster(), conn)
        trace = app.invoke_traced("Order", "place_order", 7, 0.9).trace
        # No two adjacent CPU stages on the same server (they merge).
        from repro.sim.queueing import StageKind

        for first, second in zip(trace.stages, trace.stages[1:]):
            if first.is_cpu and second.is_cpu:
                assert first.kind is not second.kind


class TestInterpSelection:
    def test_explicit_mode_wins(self, order_partitions):
        part = order_partitions.lowest()
        _, conn = make_order_database()
        executor = PyxisExecutor(part.compiled, Cluster(), conn, interp="tree")
        assert executor.interp == "tree"

    def test_env_var_selects_mode(self, order_partitions, monkeypatch):
        monkeypatch.setenv("REPRO_INTERP", "tree")
        part = order_partitions.lowest()
        _, conn = make_order_database()
        executor = PyxisExecutor(part.compiled, Cluster(), conn)
        assert executor.interp == "tree"

    def test_unknown_mode_rejected(self, order_partitions):
        part = order_partitions.lowest()
        _, conn = make_order_database()
        with pytest.raises(RuntimeError_, match="unknown interpreter mode"):
            PyxisExecutor(part.compiled, Cluster(), conn, interp="jit")

    def test_compiled_code_cached_on_program(self, order_partitions):
        part = order_partitions.lowest()
        _, conn = make_order_database()
        PyxisExecutor(part.compiled, Cluster(), conn, interp="compiled")
        first = part.compiled.code_cache
        assert first is not None
        PyxisExecutor(part.compiled, Cluster(), conn, interp="compiled")
        assert part.compiled.code_cache is first  # compiled exactly once
        bids = [b.bid for b in part.compiled.blocks.values()]
        assert all(part.compiled.blocks[b].code is not None for b in bids)


class TestErrors:
    def test_unknown_class(self, order_partitions):
        part = order_partitions.lowest()
        _, conn = make_order_database()
        executor = PyxisExecutor(part.compiled, Cluster(), conn)
        with pytest.raises(RuntimeError_, match="unknown class"):
            executor.invoke("Ghost", "run")

    def test_unknown_method(self, order_partitions):
        part = order_partitions.lowest()
        _, conn = make_order_database()
        executor = PyxisExecutor(part.compiled, Cluster(), conn)
        with pytest.raises(RuntimeError_, match="unknown method"):
            executor.invoke("Order", "missing")

    def test_wrong_arity(self, order_partitions):
        part = order_partitions.lowest()
        _, conn = make_order_database()
        executor = PyxisExecutor(part.compiled, Cluster(), conn)
        with pytest.raises(RuntimeError_, match="expects"):
            executor.invoke("Order", "place_order", 1)

    def test_block_budget_guard(self, order_partitions):
        part = order_partitions.lowest()
        _, conn = make_order_database()
        executor = PyxisExecutor(
            part.compiled, Cluster(), conn, max_blocks=3
        )
        with pytest.raises(RuntimeError_, match="exceeded"):
            executor.invoke("Order", "place_order", 7, 0.9)
