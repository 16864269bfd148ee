"""Statement reordering (dual-queue topological sort)."""

import pytest

from repro.core.partition_graph import (
    EdgeKind,
    Node,
    NodeKind,
    PartitionGraph,
    Placement,
    stmt_node_id,
)
from repro.lang import parse_source
from repro.lang.ir import Assign, Block
from repro.pyxil.reorder import reorder_block


def make_block_with_graph(n: int, placements: dict[int, Placement],
                          deps: list[tuple[int, int]]):
    """A synthetic straight-line block of n statements with given deps."""
    from repro.lang.ir import Const, VarLV

    block = Block()
    graph = PartitionGraph()
    for i in range(1, n + 1):
        stmt = Assign(VarLV(f"v{i}"), Const(i))
        stmt.sid = i
        block.stmts.append(stmt)
        graph.add_node(Node(stmt_node_id(i), NodeKind.STMT, sid=i))
    for src, dst in deps:
        graph.add_edge(
            stmt_node_id(src), stmt_node_id(dst), EdgeKind.ORDER
        )
    return block, graph, (lambda sid: placements[sid])


class TestReorderBlock:
    def test_groups_same_placement_runs(self):
        # Alternating placements with no deps: reordering should group
        # all APP statements together then all DB (or vice versa).
        placements = {
            1: Placement.APP, 2: Placement.DB,
            3: Placement.APP, 4: Placement.DB,
        }
        block, graph, placement_of = make_block_with_graph(4, placements, [])
        reorder_block(block, placement_of, graph)
        order = [placement_of(s.sid) for s in block.stmts]
        switches = sum(
            1 for a, b in zip(order, order[1:]) if a is not b
        )
        assert switches == 1

    def test_dependencies_respected(self):
        placements = {
            1: Placement.APP, 2: Placement.DB,
            3: Placement.APP, 4: Placement.DB,
        }
        deps = [(1, 2), (2, 3), (3, 4)]  # a strict chain
        block, graph, placement_of = make_block_with_graph(4, placements, deps)
        reorder_block(block, placement_of, graph)
        assert [s.sid for s in block.stmts] == [1, 2, 3, 4]

    def test_partial_dependencies(self):
        placements = {
            1: Placement.APP, 2: Placement.DB,
            3: Placement.APP, 4: Placement.DB,
        }
        deps = [(1, 4)]
        block, graph, placement_of = make_block_with_graph(4, placements, deps)
        reorder_block(block, placement_of, graph)
        positions = {s.sid: i for i, s in enumerate(block.stmts)}
        assert positions[1] < positions[4]

    def test_no_statements_lost(self):
        placements = {i: Placement.APP for i in range(1, 6)}
        block, graph, placement_of = make_block_with_graph(5, placements, [])
        before = sorted(s.sid for s in block.stmts)
        reorder_block(block, placement_of, graph)
        assert sorted(s.sid for s in block.stmts) == before

    def test_tiny_blocks_untouched(self):
        placements = {1: Placement.APP, 2: Placement.DB}
        block, graph, placement_of = make_block_with_graph(2, placements, [])
        reorder_block(block, placement_of, graph)
        assert [s.sid for s in block.stmts] == [1, 2]


class TestReorderSemantics:
    """Reordering must never change program results (checked through
    the full pipeline in integration tests; here: dependence order)."""

    def test_paper_example_lines_20_22(self):
        # The paper notes lines 20-22 of Fig. 2 can run in any order as
        # long as they follow line 19.  Verify our dependence edges
        # allow that reordering but keep line 19 first.
        source = '''
class Order:
    def body(self, item_cost, dct, i):
        real_cost = item_cost * dct
        self.total_cost += real_cost
        self.real_costs[i] = real_cost
        self.db.execute("INSERT INTO li (a, b) VALUES (?, ?)", i, real_cost)
        return real_cost
'''
        from repro.analysis.access_map import AccessMap
        from repro.analysis.interproc import build_call_graph
        from repro.analysis.points_to import analyze_points_to
        from repro.core.builder import build_partition_graph
        from repro.profiler.profile_data import ProfileData

        program = parse_source(source, entry_points=[("Order", "body")])
        pts = analyze_points_to(program)
        cg = build_call_graph(program, pts)
        graph = build_partition_graph(
            program, cg, AccessMap(cg), ProfileData()
        )
        func = program.function("Order", "body")
        first = func.body.stmts[0]
        order_edges = {
            (e.src, e.dst) for e in graph.edges
            if e.kind.value in ("order", "data")
        }
        # real_cost definition must precede all its uses.
        for stmt in func.body.stmts[1:]:
            from repro.analysis.defuse import accesses_of

            if "real_cost" in accesses_of(stmt).var_reads:
                key = (stmt_node_id(first.sid), stmt_node_id(stmt.sid))
                assert key in order_edges
