"""Heap-table storage engine.

Rows live in per-table dictionaries keyed by a monotonically increasing
row id.  Every table has a unique primary-key index plus any declared
secondary indexes, all maintained transparently on insert / update /
delete.  Mutating operations return undo records so the transaction
layer can roll back.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Sequence

from repro.db.catalog import (
    Catalog,
    Column,
    ColumnType,
    IndexSpec,
    TableSchema,
    tuple_getter,
)
from repro.db.errors import ExecutionError, IntegrityError, UnknownTableError
from repro.db.index import HashIndex, OrderedIndex


class UndoRecord:
    """Inverse of one mutation, applied on rollback.

    ``kind`` is one of ``insert`` / ``delete`` / ``update``; the stored
    payload is whatever is needed to reverse it.  A slotted plain class
    rather than a (frozen) dataclass: one record is allocated per
    mutated row, making construction cost part of every write's hot
    path.  Treat instances as immutable.
    """

    __slots__ = ("table", "kind", "rowid", "before")

    def __init__(
        self,
        table: str,
        kind: str,
        rowid: int,
        before: Optional[tuple] = None,
    ) -> None:
        self.table = table
        self.kind = kind
        self.rowid = rowid
        self.before = before

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndoRecord):
            return NotImplemented
        return (
            self.table == other.table
            and self.kind == other.kind
            and self.rowid == other.rowid
            and self.before == other.before
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UndoRecord(table={self.table!r}, kind={self.kind!r}, "
            f"rowid={self.rowid}, before={self.before!r})"
        )


class RowidAllocator:
    """Monotone rowid source (an inspectable ``itertools.count``).

    Checkpoint/recovery must restore allocation at exactly the
    pre-crash position or post-restart inserts diverge from an
    uncrashed run, so unlike ``itertools.count`` the allocator exposes
    its next value (:meth:`peek`) and can be moved forward without
    consuming (:meth:`advance_to`).  Supports plain ``next()`` -- the
    generated-source rung calls ``next(table._next_rowid)`` directly.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def __next__(self) -> int:
        value = self._next
        self._next = value + 1
        return value

    def __iter__(self) -> "RowidAllocator":
        return self

    def peek(self) -> int:
        """The rowid the next insert would receive (not consumed)."""
        return self._next

    def advance_to(self, next_value: int) -> None:
        """Move forward so the next rowid is >= ``next_value``."""
        if next_value > self._next:
            self._next = next_value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowidAllocator(next={self._next})"


class Table:
    """One heap table plus its indexes."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[int, tuple] = {}
        self._next_rowid = RowidAllocator()
        # True while deferred delete-undos have left the row store out
        # of ascending-rowid order (see ensure_scan_order).
        self._scan_order_dirty = False
        self.primary_index = HashIndex(f"{schema.name}.pk", unique=True)
        self.secondary: dict[str, HashIndex | OrderedIndex] = {}
        self._index_specs: dict[str, IndexSpec] = {}
        # Precomputed column offsets / key getters per secondary index:
        # index maintenance is the engine's hottest loop and must not
        # resolve column names per row.
        self._index_offsets: dict[str, tuple[int, ...]] = {}
        self._index_getters: dict[str, Any] = {}
        # Every index with its key getter, the primary first.
        self._keyed_indexes: list[tuple[HashIndex | OrderedIndex, Any]] = [
            (self.primary_index, schema.key_of)
        ]
        for spec in schema.indexes:
            self._add_index(spec)

    def _add_index(self, spec: IndexSpec) -> None:
        index: HashIndex | OrderedIndex
        if spec.ordered:
            index = OrderedIndex(spec.name, unique=spec.unique)
        else:
            index = HashIndex(spec.name, unique=spec.unique)
        self.secondary[spec.name] = index
        self._index_specs[spec.name] = spec
        offsets = tuple(self.schema.offset(col) for col in spec.columns)
        self._index_offsets[spec.name] = offsets
        self._index_getters[spec.name] = tuple_getter(offsets)
        self._keyed_indexes.append((index, self._index_getters[spec.name]))
        for rowid, row in self._rows.items():
            index.insert(tuple(row[i] for i in offsets), rowid)

    def create_index(self, spec: IndexSpec) -> None:
        """Add a secondary index after table creation (backfills)."""
        if spec.name in self.secondary:
            raise ExecutionError(f"index {spec.name!r} already exists")
        self._add_index(spec)

    def use_rowid_counter(self, counter: "RowidAllocator") -> None:
        """Share a rowid allocator with other tables.

        The sharded database tier gives every partition of one logical
        table the same counter, so rowids are globally unique and
        ascend in global insertion order -- that is what lets the
        statement router merge per-shard scans back into the exact
        single-server row order."""
        self._next_rowid = counter

    # -- accessors -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def get(self, rowid: int) -> tuple:
        try:
            return self._rows[rowid]
        except KeyError:
            raise ExecutionError(
                f"table {self.schema.name!r} has no row id {rowid}"
            ) from None

    def has_rowid(self, rowid: int) -> bool:
        return rowid in self._rows

    def fetch(self, rowid: int) -> Optional[tuple]:
        """The row stored under ``rowid``, or None (single dict probe;
        the compiled executor's combined has_rowid + get)."""
        return self._rows.get(rowid)

    @property
    def row_store(self) -> dict[int, tuple]:
        """The live rowid -> row mapping.  The plan compiler binds this
        dict's ``get`` in its fused loops; treat it as read-only -- all
        writes go through insert / update / delete."""
        return self._rows

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Yield (rowid, row) in insertion order (dict preserves it)."""
        yield from self._rows.items()

    def snapshot(self) -> list[tuple[int, tuple]]:
        """Materialized (rowid, row) list in insertion order.  Full-scan
        fast path: safe to iterate while the table is mutated."""
        return list(self._rows.items())

    def rowids(self) -> Iterator[int]:
        yield from self._rows.keys()

    def lookup_pk(self, key: tuple) -> Optional[int]:
        return self.primary_index.get_unique(key)

    def index_key(self, spec_name: str, row: Sequence[Any]) -> tuple:
        return self._index_getters[spec_name](row)

    def key_column_offsets(self) -> frozenset[int]:
        """Offsets of every primary-key and secondary-index key column,
        including indexes added after creation via :meth:`create_index`
        (the schema's static index list would miss those).  The plan
        compiler proves updates key-safe against this set."""
        offsets = set(self.schema.primary_key_offsets())
        for index_offsets in self._index_offsets.values():
            offsets.update(index_offsets)
        return frozenset(offsets)

    # -- mutations -----------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> tuple[int, UndoRecord]:
        row = self.schema.validate_row(values)
        return self._insert_row(row)

    def insert_validated(self, row: tuple) -> tuple[int, UndoRecord]:
        """Insert a full row whose values the caller already validated
        and coerced (the plan compiler fuses the schema's column
        validators into its value closures, so re-validating here would
        do the work twice).  Key and uniqueness checks still apply."""
        return self._insert_row(row)

    def _insert_row(self, row: tuple) -> tuple[int, UndoRecord]:
        key = self.schema.key_of(row)
        if any(part is None for part in key):
            raise IntegrityError(
                f"primary key of {self.schema.name!r} cannot contain NULL"
            )
        if self.primary_index.contains(key):
            raise IntegrityError(
                f"duplicate primary key {key!r} in table {self.schema.name!r}"
            )
        rowid = next(self._next_rowid)
        if not self.secondary:
            # No secondary indexes (most tables): the primary insert
            # cannot half-fail, so skip the rollback bookkeeping.
            self.primary_index.insert(key, rowid)
            self._rows[rowid] = row
            return rowid, UndoRecord(self.schema.name, "insert", rowid)
        # Insert into all indexes first so a uniqueness failure in a
        # secondary index leaves the table unchanged.
        inserted: list[tuple[HashIndex | OrderedIndex, tuple]] = []
        getters = self._index_getters
        try:
            self.primary_index.insert(key, rowid)
            inserted.append((self.primary_index, key))
            for name, index in self.secondary.items():
                ikey = getters[name](row)
                index.insert(ikey, rowid)
                inserted.append((index, ikey))
        except IntegrityError:
            for index, ikey in inserted:
                index.delete(ikey, rowid)
            raise
        self._rows[rowid] = row
        return rowid, UndoRecord(self.schema.name, "insert", rowid)

    def delete(self, rowid: int) -> UndoRecord:
        row = self.get(rowid)
        self.primary_index.delete(self.schema.key_of(row), rowid)
        for name, index in self.secondary.items():
            index.delete(self.index_key(name, row), rowid)
        del self._rows[rowid]
        return UndoRecord(self.schema.name, "delete", rowid, before=row)

    def update(self, rowid: int, changes: dict[str, Any]) -> UndoRecord:
        before = self.get(rowid)
        new_values = list(before)
        for column, value in changes.items():
            offset = self.schema.offset(column)
            new_values[offset] = self.schema.column(column).validate(value)
        after = tuple(new_values)
        old_key = self.schema.key_of(before)
        new_key = self.schema.key_of(after)
        if old_key != new_key:
            if None in new_key:
                raise IntegrityError(
                    f"primary key of {self.schema.name!r} cannot contain NULL"
                )
            if self.primary_index.contains(new_key):
                raise IntegrityError(
                    f"update would duplicate primary key {new_key!r} "
                    f"in table {self.schema.name!r}"
                )
        self._reindex(rowid, before, after)
        self._rows[rowid] = after
        return UndoRecord(self.schema.name, "update", rowid, before=before)

    def _reindex(self, rowid: int, before: tuple, after: tuple) -> None:
        """Move ``rowid`` to ``after``'s key in every index whose key
        changed.  A uniqueness failure moves back what already moved, so
        the row stays indexed under ``before``'s keys."""
        for done, (index, key_of) in enumerate(self._keyed_indexes):
            old_key = key_of(before)
            new_key = key_of(after)
            if old_key == new_key:
                continue
            index.delete(old_key, rowid)
            try:
                index.insert(new_key, rowid)
            except IntegrityError:
                index.insert(old_key, rowid)
                for index, key_of in self._keyed_indexes[:done]:
                    old_key = key_of(before)
                    new_key = key_of(after)
                    if old_key != new_key:
                        index.delete(new_key, rowid)
                        index.insert(old_key, rowid)
                raise

    def replace_nonkey(
        self, rowid: int, after: tuple, before: Optional[tuple] = None
    ) -> UndoRecord:
        """Replace a row whose primary-key and index-key columns are
        unchanged (the caller proves this statically -- the plan
        compiler checks assigned offsets against every key's offsets),
        with values already validated.  Skips all index maintenance:
        one dict store plus the undo record.  ``before`` lets a caller
        that already fetched the row skip the second lookup."""
        if before is None:
            before = self.get(rowid)
        self._rows[rowid] = after
        return UndoRecord(self.schema.name, "update", rowid, before=before)

    def undo(self, record: UndoRecord, *, defer_reorder: bool = False) -> None:
        """Reverse a prior mutation (used by transaction rollback).

        ``defer_reorder`` postpones the ascending-rowid reordering a
        delete-undo may require: the transaction layer undoes many
        records and calls :meth:`ensure_scan_order` once per table,
        instead of re-sorting the row store per restored row.
        """
        if record.kind == "insert":
            if not self.has_rowid(record.rowid):  # pragma: no cover - defensive
                raise ExecutionError(
                    f"cannot undo insert of missing row {record.rowid}"
                )
            self.delete(record.rowid)
        elif record.kind == "delete":
            assert record.before is not None
            row = record.before
            rowid = record.rowid
            self.primary_index.insert(self.schema.key_of(row), rowid)
            for name, index in self.secondary.items():
                index.insert(self.index_key(name, row), rowid)
            # Restore the row at its original scan position, not at the
            # dict tail: the row store stays in ascending-rowid order
            # (inserts always allocate increasing ids), so rollback is
            # a full identity -- contents *and* scan order.  The shard
            # router's scatter merge relies on this invariant.
            rows = self._rows
            if rows and rowid < next(reversed(rows)):
                rows[rowid] = row
                if defer_reorder:
                    self._scan_order_dirty = True
                else:
                    self.ensure_scan_order(force=True)
            else:
                rows[rowid] = row
        elif record.kind == "update":
            assert record.before is not None
            after = self._rows[record.rowid]
            # Re-run update with the original values; ignore its undo.
            changes = {
                col.name: record.before[i]
                for i, col in enumerate(self.schema.columns)
                if record.before[i] != after[i]
            }
            if changes:
                self.update(record.rowid, changes)
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"unknown undo kind {record.kind!r}")

    # -- redo application (replica apply path) -------------------------------

    def apply_insert(self, rowid: int, row: tuple) -> None:
        """Install ``row`` under an explicit ``rowid`` (log shipping).

        Replicas never allocate rowids -- the primary's commit log
        carries them -- so the shared-counter invariant the scatter
        merge depends on is preserved byte-for-byte.  Commit order may
        interleave rowids out of ascending order, so the scan-order
        flag is raised when the insert lands below the current tail.
        """
        key = self.schema.key_of(row)
        self.primary_index.insert(key, rowid)
        for name, index in self.secondary.items():
            index.insert(self.index_key(name, row), rowid)
        rows = self._rows
        if rows and rowid < next(reversed(rows)):
            self._scan_order_dirty = True
        rows[rowid] = row

    def apply_update(self, rowid: int, after: tuple) -> None:
        """Replace the row under ``rowid`` with its after-image."""
        self._reindex(rowid, self.get(rowid), after)
        self._rows[rowid] = after

    def apply_delete(self, rowid: int) -> None:
        """Remove the row under ``rowid`` (log shipping)."""
        self.delete(rowid)

    def ensure_scan_order(self, *, force: bool = False) -> None:
        """Restore ascending-rowid scan order after delete-undos.

        Rebuilds in place -- compiled plans bind this dict object --
        and only when a deferred undo actually left it out of order.
        """
        if not (force or self._scan_order_dirty):
            return
        self._scan_order_dirty = False
        rows = self._rows
        ordered = sorted(rows.items())
        rows.clear()
        rows.update(ordered)

    def truncate(self) -> None:
        self._rows.clear()
        self.primary_index.clear()
        for index in self.secondary.values():
            index.clear()


class Database:
    """A named collection of tables sharing a catalog."""

    def __init__(self, name: str = "main") -> None:
        self.name = name
        self.catalog = Catalog()
        self._tables: dict[str, Table] = {}
        # Observer invoked as (operation, table, rows_touched); the
        # cluster simulator hooks this to charge CPU per DB operation.
        self.observer: Optional[Callable[[str, str, int], None]] = None
        # When this database is the primary of a replica group, the
        # group installs a collector here; the transaction layer then
        # captures after-images alongside undo records and ships them
        # on commit.  None on unreplicated databases: the redo path
        # costs nothing unless replication is on.
        self.redo_collector: Optional[Callable[[list], int]] = None
        # Multi-version state (repro.db.mvcc.MvccState) once snapshot
        # reads are enabled; None keeps the engine purely lock-based
        # with zero version-tracking overhead.
        self.mvcc: Optional[Any] = None

    def enable_mvcc(self):
        """Turn on snapshot-isolation support (idempotent).

        Call before opening writer transactions: each transaction
        binds the MVCC state at ``begin``, so writers started earlier
        would not report their uncommitted rows to snapshot readers.
        """
        if self.mvcc is None:
            from repro.db.mvcc import MvccState

            self.mvcc = MvccState(self)
        return self.mvcc

    def adopt_table(self, schema: TableSchema) -> Table:
        """Register an empty table around an existing schema object.

        Snapshot reconstruction builds per-transaction table copies
        that must plan/compile exactly like the originals, so the
        schema is shared rather than re-declared column by column.
        """
        self.catalog.add(schema)
        table = Table(schema)
        self._tables[schema.name.lower()] = table
        return table

    def create_table(
        self,
        name: str,
        columns: Sequence[Column | tuple],
        primary_key: Sequence[str],
        indexes: Sequence[IndexSpec] = (),
    ) -> Table:
        normalized: list[Column] = []
        for col in columns:
            if isinstance(col, Column):
                normalized.append(col)
            else:
                col_name, type_name = col[0], col[1]
                nullable = col[2] if len(col) > 2 else True
                normalized.append(
                    Column(col_name, ColumnType.from_name(type_name), nullable)
                )
        schema = TableSchema(name, normalized, primary_key, indexes)
        self.catalog.add(schema)
        table = Table(schema)
        self._tables[name.lower()] = table
        return table

    def drop_table(self, name: str) -> None:
        self.catalog.drop(name)
        del self._tables[name.lower()]

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> list[Table]:
        return [self._tables[key] for key in sorted(self._tables)]

    def notify(self, operation: str, table: str, rows: int) -> None:
        if self.observer is not None:
            self.observer(operation, table, rows)

    def total_rows(self) -> int:
        return sum(len(t) for t in self._tables.values())
