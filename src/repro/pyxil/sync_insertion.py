"""Heap-synchronization planning (Sections 4.5 and 3.2).

Each source-level object is represented by two partial objects (APP
part and DB part); arrays and native objects live wholly where their
allocation site is placed.  Writes made on one server must be visible
on the other before any access there.  The paper's code generator
emits explicit ``sendAPP`` / ``sendDB`` / ``sendNative`` operations
after writing statements; updates batch and travel with the next
control transfer.

This module computes the equivalent static plan:

* ``field_sync[(class, field)]`` -- True when the statements accessing
  the field span both servers, i.e. a dirty write must ship on the
  next control transfer.
* ``array_sync[alloc_sid]`` -- same for arrays / native objects.

Which statements access which location is the program's
:class:`~repro.analysis.access_map.AccessMap` -- the same derivation
the partition graph prices -- so the plan is a pure function of that
map and the placement.

The plan is conservative (may ship updates never read -- the paper's
eager strategy has the same property) but never misses a required
update: if any potentially-remote access exists, the value ships.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.access_map import AccessMap
from repro.pyxil.program import PlacedProgram


@dataclass
class SyncPlan:
    """Which heap locations must ship with control transfers."""

    field_sync: dict[tuple[str, str], bool] = field(default_factory=dict)
    array_sync: dict[int, bool] = field(default_factory=dict)

    def field_ships(self, class_name: str, field_name: str) -> bool:
        return self.field_sync.get((class_name, field_name), True)

    def array_ships(self, alloc_sid: int) -> bool:
        return self.array_sync.get(alloc_sid, True)


def compute_sync_plan(
    placed: PlacedProgram, access_map: AccessMap
) -> SyncPlan:
    """A location must ship iff the statements accessing it span both
    servers."""

    def spans(sids: set[int]) -> bool:
        return len({placed.placement_of(sid) for sid in sids}) > 1

    return SyncPlan(
        field_sync={
            key: spans(sids)
            for key, sids in access_map.field_accessors.items()
        },
        array_sync={
            alloc_sid: spans(sids)
            for alloc_sid, sids in access_map.site_accessors.items()
        },
    )
