"""Heap-synchronization planning."""

import pytest

from repro.analysis.access_map import AccessMap
from repro.analysis.interproc import build_call_graph
from repro.core.ilp import PartitioningResult
from repro.core.partition_graph import (
    Placement,
    array_node_id,
    field_node_id,
    stmt_node_id,
)
from repro.lang import parse_source
from repro.pyxil.program import PlacedProgram
from repro.pyxil.sync_insertion import compute_sync_plan

SOURCE = '''
class Sync:
    def run(self, x):
        self.shared = x * 2
        self.local_only = x + 1
        arr = [0] * x
        arr[0] = self.shared
        return self.read()

    def read(self):
        return self.shared
'''


def place_all(program, placement_map):
    """Build a PlacedProgram from an explicit sid -> Placement map."""
    assignment = {}
    for stmt in program.all_statements():
        assignment[stmt_node_id(stmt.sid)] = placement_map(stmt.sid)
    for cls in program.classes.values():
        for fname in cls.fields:
            assignment[field_node_id(cls.name, fname)] = Placement.APP
    result = PartitioningResult(
        assignment=assignment, objective=0.0, db_load=0.0,
        budget=1e9, solver="manual",
    )
    return PlacedProgram(program=program, result=result, name="test")


@pytest.fixture(scope="module")
def analyzed():
    program = parse_source(SOURCE, entry_points=[("Sync", "run")])
    return program, AccessMap(build_call_graph(program))


class TestSyncPlan:
    def test_single_server_nothing_ships(self, analyzed):
        program, access = analyzed
        placed = place_all(program, lambda sid: Placement.APP)
        plan = compute_sync_plan(placed, access)
        assert not plan.field_ships("Sync", "shared")
        assert not plan.field_ships("Sync", "local_only")

    def test_cross_server_field_ships(self, analyzed):
        program, access = analyzed
        # Put Sync.read on the DB, everything else on APP: `shared` is
        # written on APP and read on DB, so it must ship.
        read_sids = {
            s.sid for s in program.function("Sync", "read").walk()
        }
        placed = place_all(
            program,
            lambda sid: Placement.DB if sid in read_sids else Placement.APP,
        )
        plan = compute_sync_plan(placed, access)
        assert plan.field_ships("Sync", "shared")
        # local_only never crosses: stays local.
        assert not plan.field_ships("Sync", "local_only")

    def test_unknown_locations_default_to_shipping(self, analyzed):
        program, access = analyzed
        placed = place_all(program, lambda sid: Placement.APP)
        plan = compute_sync_plan(placed, access)
        # Conservative default for anything the plan has not seen.
        assert plan.field_ships("Sync", "never_mentioned")
        assert plan.array_ships(99999)


USES_SOURCE = '''
class Uses:
    def run(self, n):
        rs = self.db.query("SELECT k FROM kv WHERE k < ?", n)
        head = rs.first()
        count = len(rs)
        for row in rs:
            count = count + 1
        arr = [0] * n
        arr[0] = count
        return arr[0]
'''
# source line -> the statement's role; rs is allocated on line 4, arr
# on line 9.
RS_LINE, ARR_LINE = 4, 9
USES = {
    "allocation (rs)": (4, RS_LINE),
    "native-method receiver rs.first()": (5, RS_LINE),
    "native argument len(rs)": (6, RS_LINE),
    "for-each over rs": (7, RS_LINE),
    "allocation (arr)": (9, ARR_LINE),
    "element write arr[0] = ...": (10, ARR_LINE),
    "element read arr[0]": (11, ARR_LINE),
}


class TestEveryUseCounts:
    """An object ships when any one use sits on the other server --
    whichever kind of use that is, the allocation included."""

    @pytest.fixture(scope="class")
    def uses(self):
        program = parse_source(USES_SOURCE, entry_points=[("Uses", "run")])
        access = AccessMap(build_call_graph(program))
        sids = {}
        for stmt in program.function("Uses", "run").walk():
            sids.setdefault(stmt.line, stmt.sid)
        return program, access, sids

    def test_one_server_ships_nothing(self, uses):
        program, access, sids = uses
        plan = compute_sync_plan(
            place_all(program, lambda sid: Placement.APP), access
        )
        assert not plan.array_ships(sids[RS_LINE])
        assert not plan.array_ships(sids[ARR_LINE])

    @pytest.mark.parametrize("use", sorted(USES))
    def test_a_use_on_the_other_server_ships(self, uses, use):
        program, access, sids = uses
        line, alloc_line = USES[use]
        moved = sids[line]
        plan = compute_sync_plan(
            place_all(program, lambda sid: (
                Placement.DB if sid == moved else Placement.APP
            )),
            access,
        )
        assert plan.array_ships(sids[alloc_line])
