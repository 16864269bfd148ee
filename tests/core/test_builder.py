"""Partition-graph construction: weights per the paper's formulas."""

import pytest

from repro.analysis.access_map import AccessMap
from repro.analysis.interproc import build_call_graph
from repro.analysis.points_to import analyze_points_to
from repro.core.builder import BuilderConfig, build_partition_graph
from repro.core.partition_graph import (
    DBCODE_NODE_ID,
    EdgeKind,
    NodeKind,
    Placement,
    field_node_id,
    stmt_node_id,
)
from repro.db import Database, connect
from repro.lang import parse_source
from repro.profiler.instrument import Profiler

SOURCE = '''
class App:
    def run(self, n):
        total = 0.0
        items = range(0, n)
        for item in items:
            v = self.db.query_scalar("SELECT v FROM kv WHERE k = ?", item)
            total = total + v
        self.last_total = total
        print("done", total)
        return total
'''


@pytest.fixture(scope="module")
def built():
    program = parse_source(SOURCE, entry_points=[("App", "run")])
    pts = analyze_points_to(program)
    cg = build_call_graph(program, pts)
    db = Database()
    db.create_table("kv", [("k", "int", False), ("v", "float")], primary_key=["k"])
    conn = connect(db)
    for k in range(10):
        conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", k, float(k))
    profiler = Profiler(program, conn)
    profiler.invoke("App", "run", 5)
    config = BuilderConfig(latency=0.001)
    graph = build_partition_graph(
        program, cg, AccessMap(cg), profiler.data, config
    )
    return program, profiler.data, graph


class TestNodes:
    def test_every_statement_has_a_node(self, built):
        program, _, graph = built
        for stmt in program.all_statements():
            assert graph.has_node(stmt_node_id(stmt.sid))

    def test_dbcode_pinned_to_db(self, built):
        _, _, graph = built
        assert graph.node(DBCODE_NODE_ID).pin is Placement.DB

    def test_print_pinned_to_app(self, built):
        program, _, graph = built
        from repro.analysis.defuse import accesses_of

        print_sids = [
            s.sid for s in program.all_statements()
            if accesses_of(s).is_print
        ]
        assert print_sids
        for sid in print_sids:
            assert graph.node(stmt_node_id(sid)).pin is Placement.APP

    def test_statement_weight_is_execution_count(self, built):
        program, profile, graph = built
        for stmt in program.all_statements():
            node = graph.node(stmt_node_id(stmt.sid))
            expected = profile.count(stmt.sid)
            if expected:
                assert node.weight == pytest.approx(float(expected))

    def test_field_node_weight_zero(self, built):
        _, _, graph = built
        node = graph.node(field_node_id("App", "last_total"))
        assert node.weight == 0.0
        assert node.kind is NodeKind.FIELD

    def test_jdbc_statements_colocated(self, built):
        program, _, graph = built
        from repro.analysis.defuse import accesses_of

        jdbc = {
            stmt_node_id(s.sid)
            for s in program.all_statements()
            if accesses_of(s).has_db_call
        }
        assert any(jdbc <= group for group in graph.colocate_groups)

    def test_array_node_colocated_with_alloc_stmt(self, built):
        _, _, graph = built
        array_nodes = [
            n for n in graph.nodes.values() if n.kind is NodeKind.ARRAY
        ]
        assert array_nodes
        for node in array_nodes:
            partner = stmt_node_id(node.sid)
            assert any(
                {node.id, partner} <= group
                for group in graph.colocate_groups
            )


class TestEdgeWeights:
    def test_jdbc_edge_weight_is_round_trip_per_execution(self, built):
        program, profile, graph = built
        from repro.analysis.defuse import accesses_of

        jdbc_sid = next(
            s.sid for s in program.all_statements()
            if accesses_of(s).has_db_call
        )
        edge = next(
            e for e in graph.edges
            if e.src == stmt_node_id(jdbc_sid) and e.dst == DBCODE_NODE_ID
        )
        expected = 2.0 * 0.001 * profile.count(jdbc_sid)
        assert edge.weight == pytest.approx(expected)

    def test_control_edge_weight_formula(self, built):
        # Control edge: LAT * min(cnt(src), cnt(dst)).
        program, profile, graph = built
        control = [
            e for e in graph.edges
            if e.kind is EdgeKind.CONTROL and e.label == "ctrl"
        ]
        assert control
        for edge in control:
            src_sid = int(edge.src[1:])
            dst_sid = int(edge.dst[1:])
            expected = 0.001 * min(
                max(profile.count(src_sid), 1),
                max(profile.count(dst_sid), 1),
            )
            assert edge.weight == pytest.approx(expected)

    def test_data_edges_much_lighter_than_control(self, built):
        # Paper: "the weights of data edges are much smaller than the
        # weights of control edges" for small payloads.
        _, _, graph = built
        data = [e for e in graph.edges if e.kind is EdgeKind.DATA and e.weight]
        control = [
            e for e in graph.edges
            if e.kind is EdgeKind.CONTROL and e.weight
        ]
        assert max(e.weight for e in data) < min(e.weight for e in control)

    def test_update_edges_exist_for_field_writes(self, built):
        _, _, graph = built
        updates = [e for e in graph.edges if e.kind is EdgeKind.UPDATE]
        assert any(
            e.src == field_node_id("App", "last_total") for e in updates
        )

    def test_order_edges_unweighted(self, built):
        _, _, graph = built
        for edge in graph.order_edges():
            assert edge.weight == 0.0
