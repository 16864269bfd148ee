"""Every legal placement computes what the program computes.

The solver only ever picks a few placements per program, so the
equivalence suites see only those.  This property draws random *legal*
assignments -- every pin kept, every co-location group on one server
(union-find over the groups), ``PartitionGraph.check_assignment``
passing -- compiles each with ``compute_sync_plan`` + ``compile_program``
and runs it on the tree and source block rungs.  Results and final
tables must equal the unpartitioned ``IRInterpreter``'s.
"""

import random

import pytest

from repro.core.ilp import PartitioningResult
from repro.core.partition_graph import Placement
from repro.core.pipeline import Pyxis
from repro.db import connect
from repro.lang import IRInterpreter
from repro.pyxil.compiler import compile_program
from repro.pyxil.program import PlacedProgram
from repro.pyxil.sync_insertion import compute_sync_plan
from repro.runtime.entrypoints import PartitionedApp
from repro.sim.cluster import Cluster
from repro.workloads.micro import (
    LINKED_LIST_ENTRY_POINTS,
    LINKED_LIST_SOURCE,
    THREE_PHASE_ENTRY_POINTS,
    THREE_PHASE_SOURCE,
    make_micro_database,
)
from repro.workloads.tpcc import (
    TPCC_ENTRY_POINTS,
    TPCC_SOURCE,
    TpccScale,
    make_tpcc_database,
)
from repro.workloads.tpcw import (
    TPCW_ENTRY_POINTS,
    TPCW_SOURCE,
    BrowsingMix,
    TpcwScale,
    make_tpcw_database,
)
from tests.conftest import (
    ORDER_ENTRY_POINTS,
    ORDER_SOURCE,
    make_order_database,
    tpcc_invocations,
)

PLACEMENTS = 50
TPCC_SCALE = TpccScale(warehouses=1, districts_per_warehouse=2,
                       customers_per_district=10, items=20)
# The browsing program derives promotion ids modulo 97: items >= 98.
TPCW_SCALE = TpcwScale(items=100, authors=20, customers=20, orders=30)


def _tpcw_calls():
    mix = BrowsingMix(TPCW_SCALE, seed=23)
    return [("TpcwBrowsing", i.method, i.args)
            for i in (mix.next_interaction() for _ in range(12))]


# name -> (source, entry points, database factory, invocations)
PROGRAMS = {
    "tpcc": (TPCC_SOURCE, TPCC_ENTRY_POINTS,
             lambda: make_tpcc_database(TPCC_SCALE),
             tpcc_invocations(TPCC_SCALE, seed=5, rounds=1)),
    "tpcw": (TPCW_SOURCE, TPCW_ENTRY_POINTS,
             lambda: make_tpcw_database(TPCW_SCALE), _tpcw_calls()),
    "three_phase": (THREE_PHASE_SOURCE, THREE_PHASE_ENTRY_POINTS,
                    lambda: make_micro_database(rows=10),
                    [("ThreePhase", "run", (4, 3, 10))]),
    "linked_list": (LINKED_LIST_SOURCE, LINKED_LIST_ENTRY_POINTS,
                    make_micro_database, [("LinkedList", "run", (6,))]),
    "order": (ORDER_SOURCE, ORDER_ENTRY_POINTS, make_order_database,
              [("Order", "place_order", (7, 0.9))]),
}


def random_assignment(graph, rng):
    """A uniformly drawn placement per co-location group, pins kept."""
    parent = {node_id: node_id for node_id in graph.nodes}

    def find(node_id):
        while parent[node_id] != node_id:
            parent[node_id] = parent[parent[node_id]]
            node_id = parent[node_id]
        return node_id

    for group in graph.colocate_groups:
        first, *rest = sorted(group)
        for node_id in rest:
            parent[find(node_id)] = find(first)
    placement = {}
    for node in graph.nodes.values():
        if node.pin is not None:
            placement[find(node.id)] = node.pin
    assignment = {}
    for node_id in sorted(graph.nodes):
        root = find(node_id)
        if root not in placement:
            placement[root] = rng.choice((Placement.APP, Placement.DB))
        assignment[node_id] = placement[root]
    graph.check_assignment(assignment)
    return assignment


def _run(program_or_compiled, make_db, calls, interp=None):
    database, conn = make_db()
    if interp is None:
        runner = IRInterpreter(program_or_compiled, conn)
    else:
        runner = PartitionedApp(program_or_compiled, Cluster(), conn,
                                interp=interp)
    results = [runner.invoke(c, m, *args) for c, m, args in calls]
    tables = {t.schema.name: list(t.scan()) for t in database.tables()}
    return results, tables


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_random_legal_placements_match_the_oracle(name):
    source, entry_points, make_db, calls = PROGRAMS[name]
    pyxis = Pyxis.from_source(source, entry_points)
    graph = pyxis.structure
    expected = _run(pyxis.program, make_db, calls)
    rng = random.Random(f"placements:{name}")
    for draw in range(PLACEMENTS):
        result = PartitioningResult(
            assignment=random_assignment(graph, rng), objective=0.0,
            db_load=0.0, budget=0.0, solver="random",
        )
        placed = PlacedProgram(pyxis.program, result, name=f"draw{draw}")
        sync_plan = compute_sync_plan(placed, pyxis.access_map)
        compiled = compile_program(placed, pyxis.call_graph, sync_plan,
                                   graph=graph)
        for interp in ("tree", "source"):
            assert _run(compiled, make_db, calls, interp) == expected, (
                draw, interp,
            )
