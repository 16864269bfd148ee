"""Plan executor.

Walks the operator tree produced by the planner and returns a
:class:`StatementResult`.  Mutations append undo records to the active
transaction (when one is supplied) so rollback can restore state.
The executor also counts rows touched, which the cluster simulator
converts into CPU cost for the database server.  A plan's gather level
runs the same loops over a sharded tier's shards (:class:`Shards`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.db.engine import Database, Table
from repro.db.errors import ExecutionError
from repro.db.index import OrderedIndex
from repro.db.sql.planner import (
    AccessPath,
    AggregateSpec,
    DeletePlan,
    Gather,
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
    per row and stripped by :func:`sort_result_rows`.
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
    reason a gather level merges per-shard rows back into global scan
    order before aggregating.
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
    """Executes plans against a :class:`Database`.

    A plan with a :class:`~repro.db.sql.planner.Gather` level runs on a
    sharded tier's per-shard executors at once (:class:`Shards`), through
    the same loops: each row is read, locked and logged on the shard
    that holds it.
    """

    def __init__(self, database: Database) -> None:
        self.database = database

    # -- row sources ----------------------------------------------------------

    def _access_rowids(
        self,
        table: Table,
        access: AccessPath,
        env: dict,
        params: Sequence[Any],
    ) -> Iterable[int]:
        kind = access.kind
        if kind == "scan":
            return list(table.rowids())
        if kind == "pk":
            key = tuple(expr(env, params) for expr in access.key_exprs)
            rowid = table.lookup_pk(key)
            return () if rowid is None else (rowid,)
        if kind == "index_eq":
            key = tuple(expr(env, params) for expr in access.key_exprs)
            return table.secondary[access.index_name].lookup_sorted(key)
        if kind == "index_range":
            index = table.secondary[access.index_name]
            if not isinstance(index, OrderedIndex):  # pragma: no cover
                raise ExecutionError(
                    f"index {access.index_name!r} does not support ranges"
                )
            # The planner stored the bounds normalised.
            return index.range_scan(
                low=_bound(access.low_exprs, env, params),
                high=_bound(access.high_exprs, env, params),
                low_inclusive=access.low_inclusive,
                high_inclusive=access.high_inclusive,
            )
        raise ExecutionError(f"unknown access kind {kind!r}")

    def _matches(
        self,
        table_access: TableAccess,
        env: dict,
        params: Sequence[Any],
        touched: list[int],
    ) -> Iterator[tuple[int, dict]]:
        """The fetch / touched / residual loop: (rowid, ``env`` with the
        row bound) per candidate row that passes the residual, counting
        every fetched row in ``touched[0]``."""
        table = self.database.table(table_access.table_name)
        binding, residual = table_access.binding, table_access.residual
        for rowid in self._access_rowids(
            table, table_access.access, env, params
        ):
            row = table.fetch(rowid)
            if row is None:
                continue
            touched[0] += 1
            new_env = dict(env)
            new_env[binding] = row
            if residual is not None:
                verdict = residual(new_env, params)
                if verdict is None or not verdict:
                    continue
            yield rowid, new_env

    # -- dispatch ----------------------------------------------------------------

    def execute(
        self,
        plan: Plan,
        params: Sequence[Any] = (),
        txn: Optional["Transaction"] = None,
    ) -> StatementResult:
        if isinstance(plan, InsertPlan):
            return self.execute_insert(plan, params, txn)
        return Shards([self], lambda _: txn).execute(plan, params)

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


def _bound(exprs: Sequence[Any], env: dict, params: Sequence[Any]):
    return tuple(expr(env, params) for expr in exprs) if exprs else None


def _ready(shard: int) -> None:
    """A single server's shard is always there."""


class Shards:
    """The executors one SELECT / UPDATE / DELETE runs on, and the rows
    it touched on each.

    A single server is one shard.  A plan with a gather level runs on a
    sharded tier's every shard: ``executors[i]`` reads shard ``i``;
    ``ready(i)`` runs before a shard is read (a router refuses a down
    shard there and may re-mint ``executors[i]``); ``branch(i)`` is the
    transaction that locks and logs on shard ``i``, None outside one.
    Levels above the gather read replicated tables on ``home``.
    """

    def __init__(
        self,
        executors: list[Executor],
        branch: Callable[[int], Optional["Transaction"]],
        home: int = 0,
        ready: Callable[[int], None] = _ready,
    ) -> None:
        self.executors = executors
        self.branch = branch
        self.home = home
        self.ready = ready
        self.touched = [[0] for _ in executors]
        self.above = [0]  # rows of the levels above the gather, on home

    def execute(self, plan: Plan, params: Sequence[Any]) -> StatementResult:
        """Run a SELECT, UPDATE or DELETE."""
        if isinstance(plan, SelectPlan):
            for shard in range(len(self.executors)):
                txn = self.branch(shard)
                if txn is not None:
                    for name in plan.lock_tables:
                        txn.lock_table(name, exclusive=False)
            self.ready(self.home)
            envs = (
                env for _, _, env in self._join(plan.tables, plan.gather, params)
            )
            rows = select_output_rows(plan, envs, params)
            touched = self.notify("select", plan.tables[0].table_name)
            return StatementResult(
                list(plan.column_names), rows, len(rows), touched
            )
        if not isinstance(plan, (UpdatePlan, DeletePlan)):
            raise ExecutionError(f"cannot execute {type(plan).__name__}")
        target = plan.target
        name = target.table_name
        update = isinstance(plan, UpdatePlan)
        # Every target row is found before the first one changes.
        found = [
            (shard, rowid)
            for shard, rowid, _ in self._join([target], plan.gather, params)
        ]
        for shard, rowid in found:
            txn = self.branch(shard)
            if txn is not None:
                txn.lock_row(name, rowid)
            table = self.executors[shard].database.table(name)
            if update:
                env = {target.binding: table.get(rowid)}
                changes = {
                    column: expr(env, params)
                    for column, expr in plan.assignments
                }
                undo = table.update(rowid, changes)
            else:
                undo = table.delete(rowid)
            if txn is not None:
                txn.record_undo(undo)
        touched = self.notify("update" if update else "delete", name)
        return StatementResult(rowcount=len(found), rows_touched=touched)

    def _join(
        self,
        tables: Sequence[TableAccess],
        gather: Optional[Gather],
        params: Sequence[Any],
    ) -> Iterator[tuple[int, int, dict]]:
        """Nested-loop join in the single server's order: (shard, rowid,
        env) per result, the shard and rowid of the last level's row.
        Levels above the gather read on ``home``, the gather level on
        every shard, and the levels below it on the gathered row's."""
        level = -1 if gather is None else gather.level

        def recurse(idx: int, shard: int, rowid: int, env: dict):
            if idx == len(tables):
                yield shard, rowid, env
                return
            if idx == level:
                found = self.gather(gather, tables[idx], env, params)
            else:
                touched = self.above if idx < level else self.touched[shard]
                found = (
                    (shard, row_id, new_env)
                    for row_id, new_env in self.executors[shard]._matches(
                        tables[idx], env, params, touched
                    )
                )
            for owner, row_id, new_env in found:
                yield from recurse(idx + 1, owner, row_id, new_env)

        return recurse(0, self.home, -1, {})

    def gather(
        self,
        gather: Gather,
        table_access: TableAccess,
        env: dict,
        params: Sequence[Any],
    ) -> list[tuple[int, int, dict]]:
        """(shard, rowid, env) for the gathered level's rows under
        ``env`` on every shard, merged into the single server's
        candidate order.  Every shard is read before the caller uses
        any row: a mutation, like the single server's, fails at the
        same global row."""
        found = []
        for shard in range(len(self.executors)):
            self.ready(shard)
            executor = self.executors[shard]
            table = executor.database.table(table_access.table_name)
            for rowid, new_env in executor._matches(
                table_access, env, params, self.touched[shard]
            ):
                row = new_env[table_access.binding]
                found.append(
                    (gather.merge_key(table, row, rowid), shard, rowid,
                     new_env)
                )
        found.sort(key=itemgetter(0))
        return [(shard, rowid, new_env) for _, shard, rowid, new_env in found]

    def notify(self, operation: str, table_name: str) -> int:
        """Report the statement's row touches per shard; returns the
        total.

        Shards notify in ascending-touched order so the *dominant*
        shard fires last: the simulated cluster's observer attributes
        the statement's subsequent DB-CPU charge to the most recent
        shard, and the heaviest participant is the least-wrong home
        for a scatter statement's cost.  Rows of the levels above the
        gather (replicated tables, read on ``home``) are reported there
        but do not rank: every shard holds those rows, so only the
        sharded levels say where the work was.  Untouched shards stay
        silent (no work, no attribution change); a statement that
        touched nothing anywhere still notifies ``home`` once.  A
        single server therefore notifies once, with every row touched.
        """
        ranked = sorted(
            range(len(self.executors)),
            key=lambda shard: (self.touched[shard][0], shard),
        )
        total = 0
        for shard in ranked:
            touched = self.touched[shard][0]
            if shard == self.home:
                touched += self.above[0]
            if touched > 0:
                self.executors[shard].database.notify(
                    operation, table_name, touched
                )
                total += touched
        if total == 0:
            self.executors[self.home].database.notify(
                operation, table_name, 0
            )
        return total
