"""Which heap location each statement touches.

The partition graph (Section 4.2) prices a heap access as an edge from
a field or allocation-site node to the statement, and the heap-sync
plan (Section 4.5) ships exactly the locations accessed from both
servers.  For the runtime to run the partition the BIP priced, both
must agree on *which* locations a statement touches, so that decision
is made here, once per program, from the def/use footprints and the
points-to sets the call graph carries:

* ``obj.f`` touches ``(C, f)`` for every partitioned class ``C`` that
  declares ``f`` and that ``obj`` may point to (``self`` always
  includes the method's own class);
* ``a[i]`` -- and iterating ``a``, or a mutating native method on it --
  touches every array / native allocation site ``a`` may point to;
* a native call is *handed* the sites of its receiver (``rs.first()``)
  or of its arguments (``len(rs)``).

Per statement the lists keep one entry per access, duplicates
included: the graph builder charges each access its own weight recipe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.defuse import StatementAccess
from repro.analysis.interproc import CallGraph
from repro.analysis.points_to import AllocKind
from repro.lang.ir import Atom, CallKind, FunctionIR, VarRef

FieldKey = tuple[str, str]  # (class name, field name)


@dataclass(frozen=True)
class HeapAccess:
    """The heap locations one statement touches."""

    field_reads: tuple[FieldKey, ...] = ()
    field_writes: tuple[FieldKey, ...] = ()
    # Array / native allocation sids whose elements are read / written.
    index_reads: tuple[int, ...] = ()
    index_writes: tuple[int, ...] = ()
    # Allocation sids handed to a native call.
    native_uses: tuple[int, ...] = ()


class AccessMap:
    """Every statement's :class:`HeapAccess`, plus the per-location
    views the sync plan reads.

    * ``statements`` -- sid -> :class:`HeapAccess`, in program order;
    * ``array_sites`` -- alloc sid -> kind, for every array / native
      allocation site (objects are split per field, not placed whole);
    * ``field_accessors`` -- ``(class, field)`` -> the sids that read
      or write it;
    * ``site_accessors`` -- alloc sid -> the sids that use the object:
      its element readers and writers, its allocation, and the
      statements handing it to a native.  Only sites whose elements
      some statement accesses appear; an object nothing indexes has no
      entry, so the sync plan leaves it out and it ships on every
      transfer.
    """

    def __init__(self, call_graph: CallGraph) -> None:
        self._points_to = call_graph.points_to
        self._classes = call_graph.program.classes
        self.array_sites: dict[int, AllocKind] = {
            sid: site.kind
            for sid, site in self._points_to.alloc_sites.items()
            if site.kind is not AllocKind.OBJECT
        }
        self.statements: dict[int, HeapAccess] = {}
        self.field_accessors: dict[FieldKey, set[int]] = {}
        self.site_accessors: dict[int, set[int]] = {}
        native_users: dict[int, set[int]] = {}
        for func in call_graph.program.functions():
            defuse = call_graph.analysis(func.qualified_name).defuse
            for stmt in func.walk():
                access = self._resolve(func, defuse.accesses[stmt.sid])
                self.statements[stmt.sid] = access
                for key in access.field_reads + access.field_writes:
                    self.field_accessors.setdefault(key, set()).add(stmt.sid)
                for alloc_sid in access.index_reads + access.index_writes:
                    self.site_accessors.setdefault(alloc_sid, set()).add(
                        stmt.sid
                    )
                for alloc_sid in access.native_uses:
                    native_users.setdefault(alloc_sid, set()).add(stmt.sid)
        for alloc_sid, sids in self.site_accessors.items():
            sids.add(alloc_sid)
            sids |= native_users.get(alloc_sid, set())

    def sites_of(self, func: str, var: str) -> tuple[int, ...]:
        """Array / native allocation sids ``var`` in ``func`` may name."""
        return tuple(sorted({
            site.sid
            for site in self._points_to.pts(func, var)
            if site.kind is not AllocKind.OBJECT and site.sid > 0
        }))

    def _resolve(self, func: FunctionIR, acc: StatementAccess) -> HeapAccess:
        handed: list[Atom] = []
        for call in acc.calls:
            if call.kind is CallKind.NATIVE_METHOD:
                handed.append(call.target)
            elif call.kind is CallKind.NATIVE:
                handed.extend(call.args)
        return HeapAccess(
            field_reads=self._fields(func, acc.field_reads),
            field_writes=self._fields(func, acc.field_writes),
            index_reads=self._atom_sites(func, acc.index_reads),
            index_writes=self._atom_sites(func, acc.index_writes),
            native_uses=self._atom_sites(func, handed),
        )

    def _fields(
        self, func: FunctionIR, pairs: list[tuple[Atom, str]]
    ) -> tuple[FieldKey, ...]:
        out: list[FieldKey] = []
        for obj, field_name in pairs:
            if not isinstance(obj, VarRef):
                continue
            classes = set(
                self._points_to.classes_of(func.qualified_name, obj.name)
            )
            if obj.name == "self":
                classes.add(func.class_name)
            out.extend(
                (cls, field_name)
                for cls in sorted(classes)
                if cls in self._classes
                and field_name in self._classes[cls].fields
            )
        return tuple(out)

    def _atom_sites(
        self, func: FunctionIR, atoms: list[Atom]
    ) -> tuple[int, ...]:
        return tuple(
            alloc_sid
            for atom in atoms
            if isinstance(atom, VarRef)
            for alloc_sid in self.sites_of(func.qualified_name, atom.name)
        )
