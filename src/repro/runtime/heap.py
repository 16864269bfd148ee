"""Distributed heap stores.

Each server keeps a :class:`HeapStore`: the authoritative values for
heap locations placed on it, plus a cache of remote locations (Section
3.2).  The executing side reads and writes its local store; writes are
marked dirty and shipped with the next control transfer when the sync
plan says the peer may access them.  A read of a location the peer
never shipped raises :class:`HeapError` -- that is exactly the bug the
sync analysis must prevent, and the test suite exercises it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.core.partition_graph import Placement


class HeapError(Exception):
    """Access to a heap location that is not present on this server."""


@dataclass(frozen=True)
class ObjRef:
    """Reference to a partitioned object (its fields are split)."""

    oid: int
    class_name: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"obj#{self.oid}:{self.class_name}"


@dataclass(frozen=True)
class NativeRef:
    """Reference to an array / native object placed by allocation site."""

    oid: int
    alloc_sid: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"nat#{self.oid}@{self.alloc_sid}"


_MISSING = object()


class HeapStore:
    """One server's view of the distributed heap."""

    def __init__(self, side: Placement) -> None:
        self.side = side
        # oid -> {field: value}; holds local *and* cached remote fields.
        self._fields: dict[int, dict[str, Any]] = {}
        # oid -> container / native value.
        self._natives: dict[int, Any] = {}
        # Writes since the last control transfer, as insertion-ordered
        # key -> None dicts: control transfers ship exactly this delta,
        # deterministically ordered, instead of re-walking the heap.
        # (repro.runtime.codegen_blocks inlines the write path; keep
        # write_field and these structures in sync with it.)
        self.dirty_fields: dict[tuple[int, str, str], None] = {}  # (oid, cls, field)
        self.dirty_natives: dict[int, None] = {}

    # -- objects -------------------------------------------------------------

    def register_object(self, ref: ObjRef) -> None:
        self._fields.setdefault(ref.oid, {})

    def read_field(self, ref: ObjRef, field_name: str) -> Any:
        fields = self._fields.get(ref.oid)
        if fields is None or field_name not in fields:
            raise HeapError(
                f"{self.side.value} heap has no value for "
                f"{ref.class_name}.{field_name} of object {ref.oid}"
            )
        return fields[field_name]

    def write_field(
        self, ref: ObjRef, field_name: str, value: Any, mark_dirty: bool = True
    ) -> None:
        fields = self._fields.get(ref.oid)
        if fields is None:
            fields = self._fields[ref.oid] = {}
        fields[field_name] = value
        if mark_dirty:
            self.dirty_fields[(ref.oid, ref.class_name, field_name)] = None

    # -- natives ---------------------------------------------------------------

    def register_native(self, ref: NativeRef, value: Any, mark_dirty: bool = True) -> None:
        self._natives[ref.oid] = value
        if mark_dirty:
            self.dirty_natives[ref.oid] = None

    def get_native(self, ref: NativeRef) -> Any:
        if ref.oid not in self._natives:
            raise HeapError(
                f"{self.side.value} heap has no native object {ref.oid} "
                f"(alloc site {ref.alloc_sid})"
            )
        return self._natives[ref.oid]

    def mark_native_dirty(self, ref: NativeRef) -> None:
        self.dirty_natives[ref.oid] = None

    # -- synchronization ---------------------------------------------------------

    def collect_updates(
        self,
        field_ships: dict[tuple[str, str], bool],
        array_ships: dict[int, bool],
        native_sites: dict[int, int],
    ) -> tuple[dict[tuple[int, str, str], Any], dict[int, Any]]:
        """Dirty entries the peer may need (clears the dirty sets).

        ``native_sites`` maps oid -> alloc_sid for shipping decisions.
        Locations whose ship flag is False are silently retained
        locally -- the static analysis proved the peer never reads them
        before the next write.
        """
        field_updates: dict[tuple[int, str, str], Any] = {}
        fields = self._fields
        for key in self.dirty_fields:
            oid, cls, field_name = key
            if field_ships.get((cls, field_name), True):
                field_updates[key] = fields[oid][field_name]
        native_updates: dict[int, Any] = {}
        natives = self._natives
        for oid in self.dirty_natives:
            alloc_sid = native_sites.get(oid)
            ships = True if alloc_sid is None else array_ships.get(
                alloc_sid, True
            )
            if ships and oid in natives:
                native_updates[oid] = natives[oid]
        self.dirty_fields.clear()
        self.dirty_natives.clear()
        return field_updates, native_updates

    def apply_updates(
        self,
        field_updates: dict[tuple[int, str, str], Any],
        native_updates: dict[int, Any],
    ) -> None:
        """Install updates received from the peer (not marked dirty)."""
        for (oid, _cls, field_name), value in field_updates.items():
            self._fields.setdefault(oid, {})[field_name] = value
        for oid, value in native_updates.items():
            self._natives[oid] = value

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "objects": len(self._fields),
            "natives": len(self._natives),
            "dirty_fields": len(self.dirty_fields),
            "dirty_natives": len(self.dirty_natives),
        }
