"""JDBC-like client API.

Applications in the paper talk to MySQL through JDBC: connections,
prepared statements with ``?`` parameters, and result sets.  This
module provides the same surface over the in-memory engine.  The Pyxis
partitioner pins all calls made through a :class:`Connection` to one
partition (the JDBC driver holds unserializable native state, Section
4.3), and the runtime charges a network round trip when the calling
code runs on the application server.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.db.engine import Database
from repro.db.errors import ExecutionError, TransactionError
from repro.db.sql.ast import Insert as InsertStmt, Select as SelectStmt
from repro.db.sql.codegen_plan import (
    SourcePlan,
    maybe_compile_plan_source,
    resolve_sql_exec_mode,
)
from repro.db.sql.executor import Executor, StatementResult
from repro.db.sql.parser import parse
from repro.db.sql.planner import Plan, Planner, SelectPlan
from repro.db.txn import LockManager, Transaction

_NO_INDEX: dict[str, int] = {}  # a row built without one scans


def column_index(columns: Sequence[str]) -> dict[str, int]:
    """Column name -> position of the first column equal to it ignoring
    case (:class:`Row`'s scan), built once per prepared statement."""
    first: dict[str, int] = {}
    return {n: first.setdefault(n.lower(), i) for i, n in enumerate(columns)}


class Row:
    """One result row, by column name (:func:`column_index`) or position."""

    __slots__ = ("_columns", "_values", "_wire_size", "_index")

    def __init__(self, columns: Sequence[str], values: tuple,
                 index: Optional[dict[str, int]] = None) -> None:
        self._columns = columns
        self._values = values
        # Memoized estimate_size result; rows are immutable records.
        self._wire_size: Optional[int] = None
        self._index = _NO_INDEX if index is None else index

    def __getitem__(self, key: int | str) -> Any:
        if key.__class__ is str:
            position = self._index.get(key)
            if position is not None:
                return self._values[position]
        elif isinstance(key, int):
            return self._values[key]
        lowered = key.lower()
        for i, name in enumerate(self._columns):
            if name.lower() == lowered:
                return self._values[i]
        raise KeyError(key)

    def get(self, key: int | str, default: Any = None) -> Any:
        try:
            return self[key]
        except (KeyError, IndexError):
            return default

    def as_tuple(self) -> tuple:
        return self._values

    def as_dict(self) -> dict[str, Any]:
        return dict(zip(self._columns, self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._values == other._values
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(
            f"{c}={v!r}" for c, v in zip(self._columns, self._values)
        )
        return f"Row({pairs})"


_new_row = object.__new__


class ResultSet:
    """A materialized query result with cursor-style and list-style access."""

    def __init__(self, result: StatementResult,
                 index: Optional[dict[str, int]] = None) -> None:
        self.columns = columns = list(result.columns)
        self._index = index  # the producing statement's column_index
        # Row(columns, values, index) per row, without a call per row.
        if index is None:
            index = _NO_INDEX
        self._rows = rows = []
        for values in result.rows:
            row = _new_row(Row)
            row._columns = columns
            row._values = values
            row._wire_size = None
            row._index = index
            rows.append(row)
        self.rows_touched = result.rows_touched
        self._cursor = -1
        # Memoized estimate_size result; the row list is fixed.
        self._wire_size: Optional[int] = None

    # -- cursor API (JDBC style) ----------------------------------------------

    def next(self) -> bool:
        if self._cursor + 1 < len(self._rows):
            self._cursor += 1
            return True
        return False

    def get(self, key: int | str) -> Any:
        if self._cursor < 0:
            raise ExecutionError("call next() before reading the result set")
        return self._rows[self._cursor][key]

    def rewind(self) -> None:
        self._cursor = -1

    # -- list API ---------------------------------------------------------------

    @property
    def rows(self) -> list[Row]:
        return list(self._rows)

    def first(self) -> Optional[Row]:
        return self._rows[0] if self._rows else None

    def one(self) -> Row:
        rows = self._rows
        if len(rows) != 1:
            raise ExecutionError(f"expected exactly one row, got {len(rows)}")
        return rows[0]

    def scalar(self) -> Any:
        rows = self._rows
        if len(rows) != 1:
            raise ExecutionError(f"expected exactly one row, got {len(rows)}")
        values = rows[0]._values
        if len(values) != 1:
            raise ExecutionError(
                f"expected exactly one column, got {len(values)}"
            )
        return values[0]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)


# Observer signature: (kind, sql, rows_touched, result_rows)
CallObserver = Callable[[str, str, int, int], None]

# Default bound on the per-connection prepared-plan cache.  Long sweeps
# over generated SQL (distinct literals instead of ? parameters) would
# otherwise grow the cache without limit.
DEFAULT_PLAN_CACHE_SIZE = 256


# Counter keys shared by every snapshot/merge/delta of plan-cache
# stats (serve layer, bench reports).
PLAN_CACHE_COUNTERS = ("hits", "misses", "evictions", "compiled_plans")


@dataclass
class PlanCacheStats:
    """ExecutionStats-style counters for the prepared-plan cache.

    ``compiled_plans`` counts statements generated to Python source at
    prepare time (the remainder run on the tree executor).
    The class also owns the counter-dict algebra (snapshot / merge /
    delta) used by the serving layer's reports, so the counter list
    and hit-ratio formula live in exactly one place.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compiled_plans: int = 0

    @property
    def source_plans(self) -> int:
        """Read-only alias of ``compiled_plans`` (source is the only
        generating rung), kept for readers that still ask for it."""
        return self.compiled_plans

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, int | float]:
        return self.with_ratio(
            {key: getattr(self, key) for key in PLAN_CACHE_COUNTERS}
        )

    @staticmethod
    def with_ratio(counters: dict) -> dict:
        """Attach the recomputed hit ratio to a counter dict."""
        lookups = counters["hits"] + counters["misses"]
        counters["hit_ratio"] = (
            round(counters["hits"] / lookups, 4) if lookups else 0.0
        )
        return counters

    @staticmethod
    def merge(total: Optional[dict], delta: Optional[dict]) -> Optional[dict]:
        """Fold one counter dict into a running total (None-tolerant)."""
        if delta is None:
            return total
        if total is None:
            total = {key: 0 for key in PLAN_CACHE_COUNTERS}
        for key in PLAN_CACHE_COUNTERS:
            total[key] = total.get(key, 0) + delta.get(key, 0)
        return PlanCacheStats.with_ratio(total)

    @staticmethod
    def delta(before: Optional[dict], after: Optional[dict]) -> Optional[dict]:
        """Counter growth between two snapshots (None-tolerant)."""
        if after is None:
            return None
        if before is None:
            before = {}
        grown = {
            key: after.get(key, 0) - before.get(key, 0)
            for key in PLAN_CACHE_COUNTERS
        }
        if "connections" in after:
            grown["connections"] = after["connections"]
        return PlanCacheStats.with_ratio(grown)

    def reset(self) -> None:
        for key in PLAN_CACHE_COUNTERS:
            setattr(self, key, 0)


class PreparedStatement:
    """A parsed and planned statement, executable with ``?`` parameters.

    ``compiled`` holds the generated-source :class:`SourcePlan` in
    ``source`` mode; None (``tree`` mode, or a shape the generator does
    not emit) means the statement executes on the tree executor.
    """

    def __init__(
        self,
        connection: "Connection",
        sql: str,
        plan: Plan,
        compiled: Optional[SourcePlan] = None,
    ) -> None:
        self.connection = connection
        self.sql = sql
        self.plan = plan
        self.compiled = compiled
        self.is_query = isinstance(plan, SelectPlan)
        self.index = (
            column_index(plan.column_names) if self.is_query else None
        )

    def query(self, *params: Any) -> ResultSet:
        if not self.is_query:
            raise ExecutionError(f"not a query: {self.sql!r}")
        return self.connection._run(self, params)  # noqa: SLF001

    def update(self, *params: Any) -> int:
        if self.is_query:
            raise ExecutionError(f"not an update: {self.sql!r}")
        result = self.connection._run(self, params)  # noqa: SLF001
        return result

    def execute(self, *params: Any) -> ResultSet | int:
        return self.query(*params) if self.is_query else self.update(*params)


class Connection:
    """A client connection with a plan cache and transaction management.

    ``autocommit`` mirrors JDBC: when no explicit transaction is open,
    each statement commits immediately.
    """

    def __init__(
        self,
        database: Database,
        lock_manager: Optional[LockManager] = None,
        *,
        use_locks: bool = False,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        sql_exec: Optional[str] = None,
    ) -> None:
        self.database = database
        self.lock_manager = (
            lock_manager
            if lock_manager is not None
            else (LockManager() if use_locks else None)
        )
        self.planner = Planner(database)
        self.executor = Executor(database)
        # "source" generates Python source per plan at prepare time
        # (repro.db.sql.codegen_plan) and falls back to the tree
        # executor; "tree" walks the operator tree.
        self.sql_exec = resolve_sql_exec_mode(sql_exec)
        # LRU: most recently used statements at the end.  Keyed on
        # (executor mode, sql): a cached statement embeds the rung it
        # was prepared under, so a mode switch on a live connection
        # must not serve the other rung's entry.
        self._plan_cache: OrderedDict[
            tuple[str, str], PreparedStatement
        ] = OrderedDict()
        self.plan_cache_size = max(1, plan_cache_size)
        self.plan_cache_stats = PlanCacheStats()
        self._txn: Optional[Transaction] = None
        self.observer: Optional[CallObserver] = None
        self.closed = False
        self.calls = 0

    # -- statement preparation ------------------------------------------------

    def prepare(self, sql: str) -> PreparedStatement:
        if self.closed:
            self._check_open()
        cache = self._plan_cache
        cache_key = (self.sql_exec, sql)
        cached = cache.get(cache_key)
        stats = self.plan_cache_stats
        if cached is not None:
            cache.move_to_end(cache_key)
            stats.hits += 1
            return cached
        stats.misses += 1
        stmt = parse(sql)
        plan = self.planner.plan(stmt)
        compiled: Optional[SourcePlan] = None
        if self.sql_exec == "source":
            compiled = maybe_compile_plan_source(
                plan, self.database, tracer=getattr(self, "tracer", None)
            )
            if compiled is not None:
                stats.compiled_plans += 1
        prepared = PreparedStatement(self, sql, plan, compiled)
        cache[cache_key] = prepared
        if len(cache) > self.plan_cache_size:
            cache.popitem(last=False)
            stats.evictions += 1
        return prepared

    # -- execution ----------------------------------------------------------------

    def _run(self, prepared: PreparedStatement, params: Sequence[Any]):
        if self.closed:
            self._check_open()
        self.calls += 1
        auto = False
        txn = self._txn
        if txn is None and (
            self.lock_manager is not None
            or (
                not prepared.is_query
                and self.database.redo_collector is not None
            )
        ):
            # A redo collector (replication primary or attached WAL)
            # needs an implicit transaction around each mutation: redo
            # capture and commit-time logging hang off the txn layer.
            txn = Transaction(self.database, self.lock_manager)
            auto = True
        try:
            if (
                txn is not None
                and txn.snapshot_ts is not None
                and prepared.is_query
            ):
                result = self._snapshot_query(prepared, params, txn)
            elif prepared.compiled is not None:
                result = prepared.compiled.run(params, txn)
            else:
                result = self.executor.execute(prepared.plan, params, txn)
        except BaseException:
            if auto and txn is not None:
                if self.lock_manager is not None:
                    # A failed autocommit statement must not strand its
                    # locks (later statements would time out forever) or
                    # leave a half-applied mutation with live undo
                    # records nobody will ever replay.
                    txn.rollback()
                else:
                    # No locks: the plain engine persists a failed
                    # statement's partial mutations, so the redo log
                    # must record them too or a restart diverges.
                    txn.commit()
            raise
        if auto and txn is not None:
            txn.commit()
        if self.observer is not None:
            kind = "query" if prepared.is_query else "update"
            self.observer(
                kind, prepared.sql, result.rows_touched, result.rowcount
            )
        if prepared.is_query:
            return ResultSet(result, prepared.index)
        return result.rowcount

    def _snapshot_query(
        self,
        prepared: PreparedStatement,
        params: Sequence[Any],
        txn: Transaction,
    ) -> StatementResult:
        """Run a SELECT as of the transaction's pinned snapshot.

        Fast path: when every table the plan touches is *clean* (no
        version committed after the snapshot, no uncommitted writer),
        the live tables already are the snapshot state and the
        statement runs through the connection's normal rung -- which
        is what makes a serial schedule bit-identical to the
        lock-based engine.  Divergent tables are reconstructed once
        per transaction into a private snapshot database and the
        statement is re-prepared against it under the same executor
        mode, so both rungs serve snapshot-visible scans.
        """
        mvcc = self.database.mvcc
        names = [access.table_name for access in prepared.plan.tables]
        if all(
            mvcc.table_is_clean(name, txn.snapshot_ts, txn.id)
            for name in names
        ):
            if prepared.compiled is not None:
                return prepared.compiled.run(params, txn)
            return self.executor.execute(prepared.plan, params, txn)
        conn = txn.snapshot_conn
        if conn is None:
            txn.snapshot_db = Database(f"{self.database.name}@snapshot")
            conn = Connection(
                txn.snapshot_db, None, sql_exec=self.sql_exec
            )
            txn.snapshot_conn = conn
        for name in names:
            lowered = name.lower()
            if lowered not in txn.snapshot_tables:
                mvcc.materialize(
                    txn.snapshot_db, name, txn.snapshot_ts, txn.id
                )
                txn.snapshot_tables.add(lowered)
        snap_prepared = conn.prepare(prepared.sql)
        if snap_prepared.compiled is not None:
            return snap_prepared.compiled.run(params, None)
        return conn.executor.execute(snap_prepared.plan, params, None)

    def query(self, sql: str, *params: Any) -> ResultSet:
        """Parse (cached), plan and run a SELECT."""
        return self.prepare(sql).query(*params)

    def query_one(self, sql: str, *params: Any) -> Row:
        """Run a SELECT expected to return exactly one row."""
        return self.query(sql, *params).one()

    def query_scalar(self, sql: str, *params: Any) -> Any:
        """Run a SELECT expected to return one row with one column."""
        return self.query(sql, *params).scalar()

    def execute(self, sql: str, *params: Any) -> int:
        """Run an INSERT / UPDATE / DELETE; returns affected row count."""
        prepared = self.prepare(sql)
        if prepared.is_query:
            raise ExecutionError(
                f"use query() for SELECT statements: {sql!r}"
            )
        return prepared.update(*params)

    # -- transactions ---------------------------------------------------------------

    def begin(self, *, snapshot: bool = False) -> Transaction:
        """Open a transaction; ``snapshot=True`` pins a read-only
        snapshot-isolation transaction that takes no locks."""
        self._check_open()
        if self._txn is not None:
            raise TransactionError("a transaction is already open")
        self._txn = Transaction(
            self.database, self.lock_manager, snapshot=snapshot
        )
        return self._txn

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def commit(self) -> None:
        if self._txn is None:
            raise TransactionError("no open transaction to commit")
        self._txn.commit()
        self._txn = None

    def rollback(self) -> None:
        if self._txn is None:
            raise TransactionError("no open transaction to roll back")
        self._txn.rollback()
        self._txn = None

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        if self._txn is not None:
            self._txn.rollback()
            self._txn = None
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise ExecutionError("connection is closed")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def connect(
    database: Database,
    lock_manager: Optional[LockManager] = None,
    *,
    use_locks: bool = False,
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    sql_exec: Optional[str] = None,
) -> Connection:
    """Open a connection to ``database`` (the module-level entry point).

    ``sql_exec`` selects the statement executor (``tree`` /
    ``compiled`` / ``source``); None reads ``REPRO_SQL_EXEC``
    (default: source).
    """
    return Connection(
        database, lock_manager,
        use_locks=use_locks, plan_cache_size=plan_cache_size,
        sql_exec=sql_exec,
    )
