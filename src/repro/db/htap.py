"""HTAP: an incrementally-maintained columnar copy for analytics.

Polynesia-style hybrid transactional/analytical processing: the
transactional side keeps running the row-store engine under 2PL/MVCC,
while analytical scans are served from a per-table **columnar batch
copy** that is maintained incrementally from the same
:class:`~repro.db.replica.RedoOp` after-image stream the replication
tier ships.  :class:`HtapMirror` chains onto the database's
``redo_collector`` slot (wrapping any replica-group or WAL collector
already installed, which keeps the shipped after-images bit
compatible) and applies each committed op to its column arrays in
O(1).

Scans run batch-at-a-time over whole column lists -- the same
technique as the PR 8 source-codegen rung's batch operators, applied
to columnar storage (PIMDAL's vectorized analytics shape): filter
produces a position list, joins build hash tables over key columns,
and aggregation folds column slices, so analytical reads never touch
the row store and never take locks.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.db.engine import Database
from repro.db.errors import ExecutionError, UnknownTableError
from repro.db.replica import RedoOp


class ColumnTable:
    """Columnar copy of one table: parallel per-column value lists.

    Positions are dense; deletes swap the last row into the vacated
    position, so maintenance is O(1) per op and scans never skip
    tombstones.  Row order is therefore *not* insertion order --
    analytical consumers sort their (small) result sets instead.
    """

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        self.name = name
        self.column_names = tuple(columns)
        self.columns: dict[str, list[Any]] = {c: [] for c in columns}
        self._column_list = [self.columns[c] for c in columns]
        self._position: dict[int, int] = {}  # rowid -> dense position
        self.rowids: list[int] = []
        self.ops_applied = 0

    def __len__(self) -> int:
        return len(self.rowids)

    def column(self, name: str) -> list[Any]:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(
                f"columnar table {self.name!r} has no column {name!r}"
            ) from None

    def row(self, position: int) -> tuple:
        return tuple(col[position] for col in self._column_list)

    # -- incremental maintenance -------------------------------------------

    def apply(self, op: RedoOp) -> None:
        self.ops_applied += 1
        if op.kind == "insert":
            self._position[op.rowid] = len(self.rowids)
            self.rowids.append(op.rowid)
            for col, value in zip(self._column_list, op.after):
                col.append(value)
        elif op.kind == "update":
            position = self._position[op.rowid]
            for col, value in zip(self._column_list, op.after):
                col[position] = value
        elif op.kind == "delete":
            position = self._position.pop(op.rowid)
            last = len(self.rowids) - 1
            moved = self.rowids[last]
            if position != last:
                self.rowids[position] = moved
                self._position[moved] = position
                for col in self._column_list:
                    col[position] = col[last]
            self.rowids.pop()
            for col in self._column_list:
                col.pop()
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"unknown redo kind {op.kind!r}")

    def seed(self, rows: Iterable[tuple[int, tuple]]) -> None:
        """Bootstrap from the live table's (rowid, row) pairs."""
        for rowid, row in rows:
            self.apply(RedoOp(self.name, "insert", rowid, row))
            self.ops_applied -= 1  # seeding is not propagation


class HtapMirror:
    """Columnar mirrors for a database, fed by its redo stream.

    ``attach`` seeds each mirrored table from the live row store, then
    interposes on ``database.redo_collector``; any previously
    installed collector (replica group, WAL) keeps receiving the
    identical op batches first, so the replication/durability wire
    format is untouched.  Attaching also turns redo capture on for
    otherwise-unreplicated databases (the transaction layer captures
    after-images whenever a collector is installed).
    """

    def __init__(
        self, database: Database, tables: Optional[Sequence[str]] = None
    ) -> None:
        self.database = database
        names = [t.lower() for t in tables] if tables is not None else [
            t.schema.name.lower() for t in database.tables()
        ]
        for name in names:
            if not database.has_table(name):
                raise UnknownTableError(name)
        self._names = names
        self.tables: dict[str, ColumnTable] = {}
        self._downstream: Optional[Callable[[list], int]] = None
        self._attached = False
        self._lsn = 0
        self.commits_applied = 0
        self.ops_applied = 0

    def table(self, name: str) -> ColumnTable:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise UnknownTableError(name) from None

    def attach(self) -> "HtapMirror":
        if self._attached:
            return self
        for name in self._names:
            source = self.database.table(name)
            mirror = ColumnTable(
                source.schema.name,
                [c.name for c in source.schema.columns],
            )
            mirror.seed(source.scan())
            self.tables[name] = mirror
        self._downstream = self.database.redo_collector
        self.database.redo_collector = self._collect
        self._attached = True
        return self

    def _collect(self, ops: list[RedoOp]) -> int:
        if self._downstream is not None:
            lsn = self._downstream(ops)
        else:
            self._lsn += 1
            lsn = self._lsn
        tables = self.tables
        applied = 0
        for op in ops:
            mirror = tables.get(op.table.lower())
            if mirror is not None:
                mirror.apply(op)
                applied += 1
        self.commits_applied += 1
        self.ops_applied += applied
        return lsn

    def snapshot_counters(self) -> dict[str, int]:
        return {
            "commits_applied": self.commits_applied,
            "ops_applied": self.ops_applied,
            "mirrored_tables": len(self.tables),
            "mirrored_rows": sum(len(t) for t in self.tables.values()),
        }


# ---------------------------------------------------------------------------
# Batch operators (columnar, batch-at-a-time)
# ---------------------------------------------------------------------------


def gather(table: ColumnTable, column: str,
           positions: Optional[Sequence[int]] = None) -> list[Any]:
    """Materialize ``column`` (optionally only at ``positions``)."""
    values = table.column(column)
    if positions is None:
        return list(values)
    return [values[i] for i in positions]


def group_aggregate(
    table: ColumnTable,
    group_columns: Sequence[str],
    aggregates: Sequence[tuple[str, Optional[str]]],
    positions: Optional[Sequence[int]] = None,
) -> list[tuple]:
    """Full-scan GROUP BY over column arrays.

    ``aggregates`` is a list of ``(op, column)`` with op in
    ``{"count", "sum", "min", "max", "avg"}`` (column None for count).
    Returns ``[(group_key..., agg...)...]`` sorted by group key so the
    output is deterministic regardless of mirror row order.

    One pass per aggregate over the zipped key and value columns, each
    folding into a dict keyed by group; every group folds its rows in
    scan order, so sums are the same floats a row-at-a-time fold gives.
    Each group keeps the first of its numerically equal keys (1, 1.0,
    True), as that fold does.
    """

    def picked(column: str) -> list[Any]:
        values = table.column(column)
        return values if positions is None else [values[i] for i in positions]

    key_cols = [picked(c) for c in group_columns]
    # A value-less aggregate folds the constant 1 per row.
    agg_cols = [
        picked(c) if c is not None else repeat(1) for _, c in aggregates
    ]
    rows = len(table) if positions is None else len(positions)
    # One key column groups by its raw values: they hash, compare and
    # sort as the 1-tuples reported, without building one per row.
    single = len(key_cols) == 1
    if single:
        keys = key_cols[0]
    else:
        keys = list(zip(*key_cols)) if key_cols else [()] * rows
    folds: list[dict] = []
    for (op, _), values in zip(aggregates, agg_cols):
        acc: dict = {}
        get = acc.get
        if op == "count":
            acc = Counter(keys)  # (acc or 0) + 1 per row, in C
        elif op == "sum":
            for key, value in zip(keys, values):
                acc[key] = (get(key) or 0) + value
        elif op == "min" or op == "max":
            better = min if op == "min" else max
            for key, value in zip(keys, values):
                held = get(key)
                acc[key] = value if held is None else better(held, value)
        elif op == "avg":
            for key, value in zip(keys, values):
                state = get(key)
                if state is None:
                    state = acc[key] = [0, 0]
                state[0] += value
                state[1] += 1
            acc = {key: total / count for key, (total, count) in acc.items()}
        else:
            raise ExecutionError(f"unknown aggregate {op!r}")
        folds.append(acc)
    groups = folds[0] if folds else dict.fromkeys(keys)
    return [
        ((key,) if single else key) + tuple(acc[key] for acc in folds)
        for key in sorted(groups)
    ]


def hash_join_lookup(
    table: ColumnTable, key_column: str, value_columns: Sequence[str]
) -> dict[Any, tuple]:
    """Build-side of a hash join: key column -> projected row tuple
    (unique keys; last writer wins, matching redo apply order)."""
    keys = table.column(key_column)
    projected = [table.column(c) for c in value_columns]
    return {
        keys[i]: tuple(col[i] for col in projected)
        for i in range(len(keys))
    }


def top_k(rows: Iterable[tuple], key_index: int, k: int,
          *, descending: bool = True) -> list[tuple]:
    """Deterministic top-k: order by the key then by the full row, so
    ties cannot depend on the mirror's physical row order."""
    return sorted(
        rows,
        key=lambda r: ((-r[key_index]) if descending else r[key_index], r),
    )[:k]


class TpccAnalytics:
    """The serve scenario's analytical report suite over a TPC-C mirror.

    Two long-running scans shaped like the TPC-W browsing reports: a
    best-seller ranking (join order_line against item, group by item,
    sum quantities, top k) and a full-table district order-volume
    GROUP BY.  Both run purely on the columnar mirror -- no locks, no
    row-store access -- and report how many mirror rows they scanned
    so the serving layer can charge a proportional CPU cost.
    """

    def __init__(self, mirror: HtapMirror) -> None:
        self.mirror = mirror
        self.rows_scanned = 0
        self.reports_run = 0

    def best_sellers(self, k: int = 10) -> list[tuple]:
        """(i_id, i_name, total_qty) for the k best-selling items."""
        lines = self.mirror.table("order_line")
        items = self.mirror.table("item")
        sold = group_aggregate(
            lines, ("ol_i_id",), (("sum", "ol_quantity"),)
        )
        names = hash_join_lookup(items, "i_id", ("i_name",))
        joined = [
            (i_id, names[i_id][0], qty)
            for i_id, qty in sold
            if i_id in names
        ]
        self.rows_scanned += len(lines) + len(items)
        self.reports_run += 1
        return top_k(joined, 2, k)

    def district_volume(self) -> list[tuple]:
        """(w_id, d_id, orders, total_amount) per district -- the
        full-table GROUP BY."""
        lines = self.mirror.table("order_line")
        self.rows_scanned += len(lines)
        self.reports_run += 1
        return group_aggregate(
            lines,
            ("ol_w_id", "ol_d_id"),
            (("count", None), ("sum", "ol_amount")),
        )
