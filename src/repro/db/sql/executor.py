"""Plan executor.

Walks the operator tree produced by the planner and returns a
:class:`StatementResult`.  Mutations append undo records to the active
transaction (when one is supplied) so rollback can restore state.
The executor also counts rows touched, which the cluster simulator
converts into CPU cost for the database server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.db.engine import Database, Table
from repro.db.errors import ExecutionError
from repro.db.index import ABOVE_NULL, OrderedIndex
from repro.db.sql.planner import (
    AccessPath,
    AggregateSpec,
    DeletePlan,
    InsertPlan,
    Plan,
    SelectPlan,
    TableAccess,
    UpdatePlan,
)

if False:  # pragma: no cover - import cycle guard for type checkers
    from repro.db.txn import Transaction


class StatementResult:
    """Result of executing one statement.

    A slotted plain class rather than a dataclass: one is allocated
    per statement on the hot path of both executors.
    """

    __slots__ = ("columns", "rows", "rowcount", "rows_touched")

    def __init__(
        self,
        columns: Optional[list[str]] = None,
        rows: Optional[list[tuple]] = None,
        rowcount: int = 0,
        rows_touched: int = 0,
    ) -> None:
        self.columns = columns if columns is not None else []
        self.rows = rows if rows is not None else []
        self.rowcount = rowcount
        self.rows_touched = rows_touched

    @property
    def is_query(self) -> bool:
        return bool(self.columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatementResult):
            return NotImplemented
        return (
            self.columns == other.columns
            and self.rows == other.rows
            and self.rowcount == other.rowcount
            and self.rows_touched == other.rows_touched
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StatementResult(columns={self.columns!r}, "
            f"rows={len(self.rows)}, rowcount={self.rowcount}, "
            f"rows_touched={self.rows_touched})"
        )


class _Aggregator:
    """Accumulates one aggregate function over a group.

    Shared between the tree executor (which feeds it via :meth:`add`
    with a dict environment) and the compiled executor (which evaluates
    the argument positionally and calls :meth:`add_value` directly).
    """

    def __init__(self, spec: AggregateSpec) -> None:
        self.spec = spec
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None
        self.seen: set = set()

    def add(self, env: dict, params: Sequence[Any]) -> None:
        if self.spec.arg is None:
            self.count += 1
            return
        self.add_value(self.spec.arg(env, params))

    def add_value(self, value: Any) -> None:
        """Fold one already-evaluated argument value (None = SQL NULL)."""
        if value is None:
            return
        if self.spec.distinct:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        self.total = value if self.total is None else self.total + value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def result(self) -> Any:
        func = self.spec.func
        if func == "count":
            return self.count
        if func == "sum":
            return self.total
        if func == "min":
            return self.minimum
        if func == "max":
            return self.maximum
        if func == "avg":
            return None if self.count == 0 else self.total / self.count
        raise ExecutionError(f"unknown aggregate {func!r}")  # pragma: no cover


def _none_safe_key(value: Any) -> tuple:
    """Sort key that orders None first and mixed types deterministically."""
    if value is None:
        return (0, "", 0, "")
    if isinstance(value, bool):
        return (1, "", int(value), "")
    if isinstance(value, (int, float)):
        return (2, "", value, "")
    return (3, type(value).__name__, 0, str(value))


def distinct_rows(rows: list[tuple]) -> list[tuple]:
    """First occurrence of each row, in order (shared DISTINCT helper)."""
    seen: set = set()
    unique: list[tuple] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            unique.append(row)
    return unique


_PLAIN_CLASSES = frozenset((int, float, str, bool, type(None)))
_NUMERIC_CLASSES = frozenset((int, float))
_STR_CLASSES = frozenset((str,))


def hashable_group_key(key: tuple) -> tuple:
    """GROUP BY key made hashable (unhashable values degrade to str).

    A key of exactly-plain values is returned as is: the rebuilt tuple
    would hold the same objects."""
    if _PLAIN_CLASSES.issuperset(map(type, key)):
        return key
    return tuple(
        (v if isinstance(v, (int, float, str, bool, type(None))) else str(v))
        for v in key
    )


def limit_rows(rows: list[tuple], value: Any) -> list[tuple]:
    """Apply a LIMIT value: None keeps every row; a non-negative integer
    (an ``int`` that is not a ``bool``, or an integral float) keeps that
    many; anything else raises :class:`ExecutionError` naming it."""
    if value is None:
        return rows
    count = value
    if isinstance(value, float) and value.is_integer():
        count = int(value)
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ExecutionError(
            f"LIMIT must be a non-negative integer, got {value!r}"
        )
    return rows[:count]


def sort_result_rows(
    plan: SelectPlan, rows: list[tuple], hidden: int
) -> list[tuple]:
    """Apply ORDER BY to materialized output rows.

    ``hidden`` trailing values hold source-scope sort keys: when
    nonzero, the row loop appended one trailing slot *per sort key*
    (None for keys that index an output column), so the k-th sort
    key's hidden slot sits at ``width + k``.  They are stripped from
    the returned rows.  Shared by the tree and compiled executors --
    sorting happens on plain value tuples, so there is nothing
    environment-specific to specialize.

    A key whose values are all exactly ``int`` / ``float``, or all
    exactly ``str``, sorts on the bare value: for those classes
    :func:`_none_safe_key` puts a constant prefix before the value, so
    every comparison the sort makes has the same outcome either way
    (NaN included).  Any other class mix, NULL included, keeps
    :func:`_none_safe_key`.
    """
    if not plan.sort_keys:
        return [row[: len(row) - hidden] for row in rows] if hidden else rows
    width = len(plan.columns)
    key_positions: list[int] = []
    for position, key in enumerate(plan.sort_keys):
        if key.output_index is not None:
            key_positions.append(key.output_index)
        else:
            key_positions.append(width + position)
    # Stable multi-key sort: apply keys from last to first.
    ordered = list(rows)
    for key, pos in reversed(list(zip(plan.sort_keys, key_positions))):
        value_at = itemgetter(pos)
        classes = set(map(type, map(value_at, ordered)))
        if classes <= _NUMERIC_CLASSES or classes == _STR_CLASSES:
            ordered.sort(key=value_at, reverse=key.descending)
        else:
            ordered.sort(
                key=lambda row: _none_safe_key(row[pos]),
                reverse=key.descending,
            )
    if hidden:
        ordered = [row[:width] for row in ordered]
    return ordered


def project_envs(
    plan: SelectPlan, envs: "Iterator[dict] | Iterable[dict]",
    params: Sequence[Any],
) -> list[tuple]:
    """Project a non-aggregate env stream and apply ORDER BY.

    Hidden sort values (one trailing slot per sort key) are appended
    per row and stripped by :func:`sort_result_rows`.  Shared by the
    tree executor and the shard router's scatter-gather path, which
    feeds it a cross-shard merged env stream.
    """
    rows: list[tuple] = []
    for env in envs:
        values = tuple(
            col.expr(env, params) if col.expr is not None else None
            for col in plan.columns
        )
        sort_values = tuple(
            key.expr(env, params) if key.expr is not None else None
            for key in plan.sort_keys
        )
        rows.append(values + sort_values)
    return sort_result_rows(plan, rows, hidden=len(plan.sort_keys))


def aggregate_envs(
    plan: SelectPlan, envs: "Iterator[dict] | Iterable[dict]",
    params: Sequence[Any],
) -> list[tuple]:
    """Aggregate an env stream (GROUP BY / whole-input) and sort.

    Group emission order is first appearance in the stream -- the
    reason the shard router must merge per-shard streams back into
    global scan order before aggregating.
    """
    groups: dict[tuple, tuple[list[Any], list[_Aggregator]]] = {}
    order: list[tuple] = []
    for env in envs:
        key = tuple(expr(env, params) for expr in plan.group_exprs)
        hashable_key = hashable_group_key(key)
        if hashable_key not in groups:
            groups[hashable_key] = (
                list(key),
                [_Aggregator(spec) for spec in plan.aggregates],
            )
            order.append(hashable_key)
        entry = groups[hashable_key]
        for agg in entry[1]:
            agg.add(env, params)
        # For non-aggregate output columns, remember first row values.
        if any(
            col.aggregate_index is None and col.expr is not None
            for col in plan.columns
        ):
            if len(entry[0]) == len(plan.group_exprs):
                for col in plan.columns:
                    if col.aggregate_index is None and col.expr is not None:
                        entry[0].append(col.expr(env, params))

    if not plan.group_exprs and not groups:
        # Aggregates over empty input still yield one row.
        groups[()] = ([], [_Aggregator(spec) for spec in plan.aggregates])
        order.append(())

    rows: list[tuple] = []
    for key in order:
        group_values, aggregators = groups[key]
        extras = group_values[len(plan.group_exprs):]
        extra_iter = iter(extras)
        values: list[Any] = []
        for col in plan.columns:
            if col.aggregate_index is not None:
                values.append(aggregators[col.aggregate_index].result())
            elif col.expr is not None:
                values.append(next(extra_iter, None))
            else:  # pragma: no cover - defensive
                values.append(None)
        rows.append(tuple(values))
    return sort_result_rows(plan, rows, hidden=0)


def select_output_rows(
    plan: SelectPlan, envs: "Iterator[dict] | Iterable[dict]",
    params: Sequence[Any],
) -> list[tuple]:
    """The full SELECT tail over an env stream: project or aggregate,
    then DISTINCT and LIMIT.  The env stream's order is the output
    order (before ORDER BY), so callers that merge multiple sources
    must merge into single-server order first."""
    if plan.aggregates or plan.group_exprs:
        rows = aggregate_envs(plan, envs, params)
    else:
        rows = project_envs(plan, envs, params)
    if plan.distinct:
        rows = distinct_rows(rows)
    if plan.limit is not None:
        rows = limit_rows(rows, plan.limit({}, params))
    return rows


class Executor:
    """Executes plans against a :class:`Database`."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # -- row sources ----------------------------------------------------------

    def _candidate_rowids(
        self,
        table: Table,
        access: AccessPath,
        env: dict,
        params: Sequence[Any],
    ) -> Iterator[int]:
        if access.kind == "scan":
            yield from list(table.rowids())
            return
        if access.kind == "pk":
            key = tuple(expr(env, params) for expr in access.key_exprs)
            rowid = table.lookup_pk(key)
            if rowid is not None:
                yield rowid
            return
        if access.kind == "index_eq":
            assert access.index_name is not None
            index = table.secondary[access.index_name]
            key = tuple(expr(env, params) for expr in access.key_exprs)
            yield from index.lookup_sorted(key)
            return
        if access.kind == "index_range":
            assert access.index_name is not None
            index = table.secondary[access.index_name]
            if not isinstance(index, OrderedIndex):  # pragma: no cover
                raise ExecutionError(
                    f"index {access.index_name!r} does not support ranges"
                )
            low = (
                tuple(expr(env, params) for expr in access.low_exprs)
                if access.low_exprs
                else None
            )
            high = (
                tuple(expr(env, params) for expr in access.high_exprs)
                if access.high_exprs
                else None
            )
            low_inclusive = access.low_inclusive
            if len(access.high_exprs) > len(access.low_exprs):
                # Only a high bound on the range column: start above
                # its NULLs, which ``<`` / ``<=`` never match.
                low = (low or ()) + (ABOVE_NULL,)
                low_inclusive = True
            yield from index.range_scan(
                low=low,
                high=high,
                low_inclusive=low_inclusive,
                high_inclusive=access.high_inclusive,
            )
            return
        raise ExecutionError(f"unknown access kind {access.kind!r}")

    def candidate_rowids(
        self,
        table: Table,
        access: AccessPath,
        env: dict,
        params: Sequence[Any],
    ) -> Iterator[int]:
        """Public access-path row source (shard router scatter path)."""
        return self._candidate_rowids(table, access, env, params)

    def _iter_table(
        self,
        table_access: TableAccess,
        env: dict,
        params: Sequence[Any],
        touched: list[int],
    ) -> Iterator[dict]:
        table = self.database.table(table_access.table_name)
        for rowid in self._candidate_rowids(
            table, table_access.access, env, params
        ):
            if not table.has_rowid(rowid):
                continue
            row = table.get(rowid)
            touched[0] += 1
            new_env = dict(env)
            new_env[table_access.binding] = row
            if table_access.residual is not None:
                verdict = table_access.residual(new_env, params)
                if verdict is None or not verdict:
                    continue
            yield new_env

    def _join_rows(
        self,
        tables: list[TableAccess],
        params: Sequence[Any],
        touched: list[int],
    ) -> Iterator[dict]:
        yield from self.join_envs(tables, params, touched)

    def join_envs(
        self,
        tables: list[TableAccess],
        params: Sequence[Any],
        touched: list[int],
        start: int = 0,
        env: Optional[dict] = None,
    ) -> Iterator[dict]:
        """Nested-loop join starting at table ``start`` with ``env``
        already bound.  The shard router uses the seeded form to join
        a sharded outer row against that shard's replicated inner
        tables."""

        def recurse(idx: int, env: dict) -> Iterator[dict]:
            if idx >= len(tables):
                yield env
                return
            for new_env in self._iter_table(tables[idx], env, params, touched):
                yield from recurse(idx + 1, new_env)

        yield from recurse(start, env if env is not None else {})

    # -- SELECT ------------------------------------------------------------------

    def execute_select(
        self, plan: SelectPlan, params: Sequence[Any]
    ) -> StatementResult:
        touched = [0]
        result = StatementResult(columns=list(plan.column_names))
        envs = self._join_rows(plan.tables, params, touched)
        rows = select_output_rows(plan, envs, params)
        result.rows = rows
        result.rowcount = len(rows)
        result.rows_touched = touched[0]
        self.database.notify("select", plan.tables[0].table_name, touched[0])
        return result

    # -- mutations ---------------------------------------------------------------

    def execute_insert(
        self,
        plan: InsertPlan,
        params: Sequence[Any],
        txn: Optional["Transaction"] = None,
    ) -> StatementResult:
        table = self.database.table(plan.table_name)
        schema = table.schema
        provided = {
            column: expr({}, params)
            for column, expr in zip(plan.columns, plan.values)
        }
        values = [provided.get(name) for name in schema.column_names]
        if txn is not None:
            txn.lock_table(plan.table_name)
        _, undo = table.insert(values)
        if txn is not None:
            txn.record_undo(undo)
        self.database.notify("insert", plan.table_name, 1)
        return StatementResult(rowcount=1, rows_touched=1)

    def _target_rowids(
        self,
        target: TableAccess,
        params: Sequence[Any],
        touched: list[int],
    ) -> list[int]:
        table = self.database.table(target.table_name)
        matches: list[int] = []
        for rowid in self._candidate_rowids(table, target.access, {}, params):
            if not table.has_rowid(rowid):
                continue
            row = table.get(rowid)
            touched[0] += 1
            if target.residual is not None:
                env = {target.binding: row}
                verdict = target.residual(env, params)
                if verdict is None or not verdict:
                    continue
            matches.append(rowid)
        return matches

    def execute_update(
        self,
        plan: UpdatePlan,
        params: Sequence[Any],
        txn: Optional["Transaction"] = None,
    ) -> StatementResult:
        table = self.database.table(plan.target.table_name)
        touched = [0]
        rowids = self._target_rowids(plan.target, params, touched)
        for rowid in rowids:
            if txn is not None:
                txn.lock_row(plan.target.table_name, rowid)
            row = table.get(rowid)
            env = {plan.target.binding: row}
            changes = {
                column: expr(env, params) for column, expr in plan.assignments
            }
            undo = table.update(rowid, changes)
            if txn is not None:
                txn.record_undo(undo)
        self.database.notify("update", plan.target.table_name, touched[0])
        return StatementResult(rowcount=len(rowids), rows_touched=touched[0])

    def execute_delete(
        self,
        plan: DeletePlan,
        params: Sequence[Any],
        txn: Optional["Transaction"] = None,
    ) -> StatementResult:
        table = self.database.table(plan.target.table_name)
        touched = [0]
        rowids = self._target_rowids(plan.target, params, touched)
        for rowid in rowids:
            if txn is not None:
                txn.lock_row(plan.target.table_name, rowid)
            undo = table.delete(rowid)
            if txn is not None:
                txn.record_undo(undo)
        self.database.notify("delete", plan.target.table_name, touched[0])
        return StatementResult(rowcount=len(rowids), rows_touched=touched[0])

    # -- dispatch ----------------------------------------------------------------

    def execute(
        self,
        plan: Plan,
        params: Sequence[Any] = (),
        txn: Optional["Transaction"] = None,
    ) -> StatementResult:
        if isinstance(plan, SelectPlan):
            if txn is not None:
                for name in plan.lock_tables:
                    txn.lock_table(name, exclusive=False)
            return self.execute_select(plan, params)
        if isinstance(plan, InsertPlan):
            return self.execute_insert(plan, params, txn)
        if isinstance(plan, UpdatePlan):
            return self.execute_update(plan, params, txn)
        if isinstance(plan, DeletePlan):
            return self.execute_delete(plan, params, txn)
        raise ExecutionError(f"cannot execute {type(plan).__name__}")
