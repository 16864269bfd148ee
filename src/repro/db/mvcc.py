"""Multi-version rows and snapshot-isolation reads.

The paper's central complaint is that longer-latency transactions hold
locks longer and cap throughput.  This module removes read locks from
the equation: a snapshot transaction pins a *snapshot timestamp* at
``begin`` and reads the database exactly as of that virtual instant,
never blocking writers and never being blocked by them.

The version store is undo-derived.  The engine mutates rows in place
and transactions carry :class:`~repro.db.engine.UndoRecord` before
images; at commit those before-images are re-stamped with the commit's
virtual timestamp and appended to a per-table, ascending-``commit_ts``
history list.  Reconstructing table ``t`` at snapshot ``S`` is then:

1. copy the live row store (which may contain uncommitted writes);
2. strip every *active* writer's changes by applying its undo records
   in reverse (strict 2PL guarantees an active writer's rows are not
   also covered by a newer committed version);
3. walk the history suffix with ``commit_ts > S`` newest-first,
   restoring each before-image.

History is only recorded while at least one snapshot is pinned -- an
unpinned database pays nothing for MVCC -- and the oldest pinned
snapshot is the garbage-collection watermark: :meth:`MvccState.unpin`
drops every version entry at or below it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle (txn imports engine)
    from repro.db.engine import Database, Table
    from repro.db.txn import Transaction

# One version entry: (commit_ts, kind, rowid, before_image).  ``kind``
# follows UndoRecord ("insert" entries have no before-image: the row
# did not exist below this version).
VersionEntry = tuple[int, str, int, Optional[tuple]]


def _apply_before(
    rows: dict[int, tuple], kind: str, rowid: int, before: Optional[tuple]
) -> None:
    """Rewind one mutation on a plain rowid -> row dict."""
    if kind == "insert":
        rows.pop(rowid, None)
    else:
        rows[rowid] = before


class MvccState:
    """Version history, snapshot pins, and active-writer registry for
    one :class:`~repro.db.engine.Database`."""

    def __init__(self, database: "Database") -> None:
        self.database = database
        # Virtual commit timestamp of the newest committed write.
        self.commit_ts = 0
        # snapshot_ts -> number of transactions pinned there.
        self._pins: dict[int, int] = {}
        # table name (lowered) -> ascending-commit_ts version entries.
        self._history: dict[str, list[VersionEntry]] = {}
        # Writers with uncommitted mutations (txn id -> transaction).
        self._active: dict[int, "Transaction"] = {}

    # -- snapshot pins -------------------------------------------------------

    def pin(self) -> int:
        """Pin a snapshot at the current commit timestamp."""
        ts = self.commit_ts
        self._pins[ts] = self._pins.get(ts, 0) + 1
        return ts

    def unpin(self, snapshot_ts: int) -> None:
        remaining = self._pins.get(snapshot_ts, 0) - 1
        if remaining > 0:
            self._pins[snapshot_ts] = remaining
        else:
            self._pins.pop(snapshot_ts, None)
        self._gc()

    def oldest_pin(self) -> Optional[int]:
        return min(self._pins) if self._pins else None

    def version_entries(self) -> int:
        """Total retained version entries (observability / GC tests)."""
        return sum(len(entries) for entries in self._history.values())

    def _gc(self) -> None:
        """Drop version entries no pinned snapshot can ever need."""
        if not self._history:
            return
        watermark = self.oldest_pin()
        if watermark is None:
            self._history.clear()
            return
        for name, entries in list(self._history.items()):
            cut = 0
            for entry in entries:
                if entry[0] > watermark:
                    break
                cut += 1
            if cut:
                del entries[:cut]
                if not entries:
                    del self._history[name]

    # -- writer registry -----------------------------------------------------

    def register(self, txn: "Transaction") -> None:
        """Track a writer whose undo log holds uncommitted mutations."""
        self._active[txn.id] = txn

    def forget(self, txn: "Transaction") -> None:
        self._active.pop(txn.id, None)

    def note_commit(self, txn: "Transaction") -> None:
        """Stamp a committing writer's before-images into the history.

        Called by :meth:`Transaction.commit` *before* it clears the
        undo log.  History is recorded only while a snapshot is pinned:
        a snapshot taken later pins at the new (bumped) timestamp and
        can never need these before-images.
        """
        self._active.pop(txn.id, None)
        undo = txn._undo
        if not undo:
            return
        self.commit_ts += 1
        if not self._pins:
            return
        ts = self.commit_ts
        history = self._history
        for record in undo:
            history.setdefault(record.table.lower(), []).append(
                (ts, record.kind, record.rowid, record.before)
            )

    # -- snapshot reads ------------------------------------------------------

    def table_is_clean(
        self, name: str, snapshot_ts: int, reader_id: int
    ) -> bool:
        """True when the live table already *is* the snapshot state:
        no version committed after ``snapshot_ts`` and no uncommitted
        writer touching it.  Clean tables are read in place -- the
        serial-schedule fast path that keeps snapshot reads bit
        identical to the lock-based engine."""
        lowered = name.lower()
        entries = self._history.get(lowered)
        if entries and entries[-1][0] > snapshot_ts:
            return False
        for txn in self._active.values():
            if txn.id == reader_id:
                continue
            for record in txn._undo:
                if record.table.lower() == lowered:
                    return False
        return True

    def visible_rows(
        self, name: str, snapshot_ts: int, reader_id: int
    ) -> dict[int, tuple]:
        """Reconstruct ``name``'s rowid -> row mapping at the snapshot."""
        table = self.database.table(name)
        lowered = table.schema.name.lower()
        rows = dict(table.row_store)
        # Strict 2PL means an active writer's rows cannot also carry a
        # committed version newer than the snapshot, so stripping the
        # uncommitted layer first, then the too-new committed layer,
        # rewinds each row through its true mutation order.
        for txn in self._active.values():
            if txn.id == reader_id:
                continue
            for record in reversed(txn._undo):
                if record.table.lower() == lowered:
                    _apply_before(rows, record.kind, record.rowid,
                                  record.before)
        entries = self._history.get(lowered)
        if entries:
            for ts, kind, rowid, before in reversed(entries):
                if ts <= snapshot_ts:
                    break
                _apply_before(rows, kind, rowid, before)
        return rows

    def materialize(
        self,
        snapshot_db: "Database",
        name: str,
        snapshot_ts: int,
        reader_id: int,
    ) -> "Table":
        """Build ``name`` inside ``snapshot_db`` as a real table holding
        the snapshot-visible rows (ascending rowid, the scan order every
        execution rung assumes).  The copy shares the live schema object
        so both rungs plan and generate against it unchanged."""
        source = self.database.table(name)
        rows = self.visible_rows(name, snapshot_ts, reader_id)
        table = snapshot_db.adopt_table(source.schema)
        for rowid in sorted(rows):
            table.apply_insert(rowid, rows[rowid])
        return table
