"""Heap-synchronization planning (Sections 4.5 and 3.2).

Each source-level object is represented by two partial objects (APP
part and DB part); arrays and native objects live wholly where their
allocation site is placed.  Writes made on one server must be visible
on the other before any access there.  The paper's code generator
emits explicit ``sendAPP`` / ``sendDB`` / ``sendNative`` operations
after writing statements; updates batch and travel with the next
control transfer.

This module computes the equivalent static plan:

* ``field_sync[(class, field)]`` -- True when some statement on the
  server *opposite* the writer may access the field, i.e. a dirty
  write must ship on the next control transfer.
* ``array_sync[alloc_sid]`` -- same for arrays / native objects.
* ``sync_ops_after[sid]`` -- the explicit operations a PyxIL listing
  shows after statement ``sid`` (for display and tests).

The plan is conservative (may ship updates never read -- the paper's
eager strategy has the same property) but never misses a required
update: if any potentially-remote access exists, the value ships.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.interproc import CallGraph
from repro.analysis.points_to import AllocKind, PointsToResult
from repro.core.partition_graph import Placement
from repro.lang.ir import CallKind, VarRef
from repro.pyxil.program import PlacedProgram


@dataclass(frozen=True)
class SyncOp:
    """An explicit synchronization operation in a PyxIL listing."""

    kind: str  # "sendAPP" | "sendDB" | "sendNative"
    target: str  # human-readable: "Class.field" or "alloc@sid"


@dataclass
class SyncPlan:
    """Which heap locations must ship with control transfers."""

    field_sync: dict[tuple[str, str], bool] = field(default_factory=dict)
    array_sync: dict[int, bool] = field(default_factory=dict)
    sync_ops_after: dict[int, list[SyncOp]] = field(default_factory=dict)

    def field_ships(self, class_name: str, field_name: str) -> bool:
        return self.field_sync.get((class_name, field_name), True)

    def array_ships(self, alloc_sid: int) -> bool:
        return self.array_sync.get(alloc_sid, True)


def compute_sync_plan(
    placed: PlacedProgram,
    call_graph: CallGraph,
    points_to: PointsToResult,
) -> SyncPlan:
    plan = SyncPlan()
    program = placed.program

    # Gather, per field and per allocation site, the placements of all
    # statements that access it, and the writer statements.
    field_access_placements: dict[tuple[str, str], set[Placement]] = {}
    field_writers: dict[tuple[str, str], list[int]] = {}
    array_access_placements: dict[int, set[Placement]] = {}
    array_writers: dict[int, list[int]] = {}
    array_uses: dict[int, set[Placement]] = {}  # natives handed the object

    for func in program.functions():
        analysis = call_graph.analysis(func.qualified_name)
        for stmt in func.walk():
            placement = placed.placement_of(stmt.sid)
            acc = analysis.defuse.accesses[stmt.sid]

            def classes_for(obj) -> list[str]:
                classes: set[str] = set()
                if isinstance(obj, VarRef):
                    if obj.name == "self":
                        classes.add(func.class_name)
                    classes.update(
                        points_to.classes_of(func.qualified_name, obj.name)
                    )
                return sorted(c for c in classes if c in program.classes)

            for obj, field_name in acc.field_reads:
                for cls in classes_for(obj):
                    if field_name in program.classes[cls].fields:
                        field_access_placements.setdefault(
                            (cls, field_name), set()
                        ).add(placement)
            for obj, field_name in acc.field_writes:
                for cls in classes_for(obj):
                    if field_name in program.classes[cls].fields:
                        key = (cls, field_name)
                        field_access_placements.setdefault(key, set()).add(
                            placement
                        )
                        field_writers.setdefault(key, []).append(stmt.sid)

            def sites_for(atom) -> list[int]:
                out = []
                if isinstance(atom, VarRef):
                    for site in points_to.pts(
                        func.qualified_name, atom.name
                    ):
                        if site.kind is not AllocKind.OBJECT and site.sid > 0:
                            out.append(site.sid)
                return sorted(set(out))

            for call in acc.calls:
                if call.kind is CallKind.NATIVE_METHOD:
                    atoms = (call.target,)
                elif call.kind is CallKind.NATIVE:
                    atoms = call.args
                else:
                    continue
                for atom in atoms:
                    for alloc_sid in sites_for(atom):
                        array_uses.setdefault(alloc_sid, set()).add(placement)
            for atom in acc.index_reads:
                for alloc_sid in sites_for(atom):
                    array_access_placements.setdefault(alloc_sid, set()).add(
                        placement
                    )
            for atom in acc.index_writes:
                for alloc_sid in sites_for(atom):
                    array_access_placements.setdefault(alloc_sid, set()).add(
                        placement
                    )
                    array_writers.setdefault(alloc_sid, []).append(stmt.sid)

    # An object whose elements some statement accesses is also used
    # where it was allocated and wherever a native gets it (``len(rs)``,
    # ``rs.first()``).  One whose elements nothing accesses stays out of
    # the plan and so ships on every transfer.
    for alloc_sid, placements in array_access_placements.items():
        placements.add(placed.placement_of(alloc_sid))
        placements |= array_uses.get(alloc_sid, set())
    # A location must ship iff it is accessed from both servers.
    for key, placements in field_access_placements.items():
        plan.field_sync[key] = len(placements) > 1
    for alloc_sid, placements in array_access_placements.items():
        plan.array_sync[alloc_sid] = len(placements) > 1

    # Explicit sync ops for listings: after each write whose location
    # is remotely accessed.
    for (cls, field_name), writer_sids in field_writers.items():
        if not plan.field_sync.get((cls, field_name)):
            continue
        part = placed.field_placement(cls, field_name)
        kind = "sendAPP" if part is Placement.APP else "sendDB"
        for sid in writer_sids:
            plan.sync_ops_after.setdefault(sid, []).append(
                SyncOp(kind=kind, target=f"{cls}.{field_name}")
            )
    for alloc_sid, writer_sids in array_writers.items():
        if not plan.array_sync.get(alloc_sid):
            continue
        for sid in writer_sids:
            plan.sync_ops_after.setdefault(sid, []).append(
                SyncOp(kind="sendNative", target=f"alloc@{alloc_sid}")
            )
    return plan
