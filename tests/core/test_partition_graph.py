"""Partition graph data structure."""

import pytest

from repro.core.partition_graph import (
    Edge,
    EdgeKind,
    Node,
    NodeKind,
    PartitionGraph,
    Placement,
    stmt_node_id,
)


def small_graph() -> PartitionGraph:
    g = PartitionGraph()
    for i in range(1, 4):
        g.add_node(Node(stmt_node_id(i), NodeKind.STMT, weight=float(i), sid=i))
    g.add_node(Node("dbcode", NodeKind.DBCODE, pin=Placement.DB))
    g.add_edge("s1", "s2", EdgeKind.DATA, weight=1.0)
    g.add_edge("s2", "s3", EdgeKind.CONTROL, weight=2.0)
    g.add_edge("s3", "dbcode", EdgeKind.CONTROL, weight=4.0)
    g.add_edge("s1", "s3", EdgeKind.ORDER)
    return g


class TestConstruction:
    def test_parallel_edges_merge_weights(self):
        g = small_graph()
        g.add_edge("s1", "s2", EdgeKind.DATA, weight=0.5)
        edges = [
            e for e in g.edges if e.src == "s1" and e.dst == "s2"
            and e.kind is EdgeKind.DATA
        ]
        assert len(edges) == 1
        assert edges[0].weight == pytest.approx(1.5)

    def test_self_edges_dropped(self):
        g = small_graph()
        g.add_edge("s1", "s1", EdgeKind.DATA, weight=9.0)
        assert not any(e.src == e.dst for e in g.edges)

    def test_edge_requires_existing_nodes(self):
        g = small_graph()
        with pytest.raises(KeyError):
            g.add_edge("s1", "missing", EdgeKind.DATA)

    def test_order_edges_excluded_from_weighted(self):
        g = small_graph()
        kinds = {e.kind for e in g.weighted_edges()}
        assert EdgeKind.ORDER not in kinds
        assert len(g.order_edges()) == 1

    def test_conflicting_pins_rejected(self):
        g = small_graph()
        g.pin("s1", Placement.APP)
        with pytest.raises(ValueError):
            g.pin("s1", Placement.DB)

    def test_colocate_unknown_node_rejected(self):
        g = small_graph()
        with pytest.raises(KeyError):
            g.colocate(["s1", "ghost"])


class TestEvaluation:
    def test_db_load(self):
        g = small_graph()
        assignment = {
            "s1": Placement.APP,
            "s2": Placement.DB,
            "s3": Placement.DB,
            "dbcode": Placement.DB,
        }
        assert g.db_load(assignment) == pytest.approx(2.0 + 3.0)

    def test_check_assignment_pin_violation(self):
        g = small_graph()
        assignment = {nid: Placement.APP for nid in g.nodes}
        with pytest.raises(ValueError, match="pin"):
            g.check_assignment(assignment)

    def test_check_assignment_colocation_violation(self):
        g = small_graph()
        g.colocate(["s1", "s2"])
        assignment = {nid: Placement.DB for nid in g.nodes}
        assignment["s1"] = Placement.APP
        with pytest.raises(ValueError, match="co-location"):
            g.check_assignment(assignment)

    def test_check_assignment_missing_node(self):
        g = small_graph()
        with pytest.raises(ValueError, match="missing"):
            g.check_assignment({"s1": Placement.APP})

    def test_placement_other(self):
        assert Placement.APP.other is Placement.DB
        assert Placement.DB.other is Placement.APP

    def test_summary_counts(self):
        g = small_graph()
        text = g.summary()
        assert "stmt" in text and "dbcode" in text
