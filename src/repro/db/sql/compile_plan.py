"""Plan compilation: SQL plans translated to flat fused closures.

The tree executor in :mod:`repro.db.sql.executor` re-discovers the
structure of every statement on every execution: generator chains per
table access, a fresh dict environment per row, closure dispatch per
output column and an undo-log append per mutated row.  That structure
is static -- a plan's access paths, offsets and projections never
change after :meth:`~repro.db.sql.planner.Planner.plan` -- so this
module performs the dispatch exactly once, at
:meth:`~repro.db.jdbc.Connection.prepare` time (composing with the
prepared-plan LRU cache), symmetric to the block-compilation layer in
:mod:`repro.runtime.compile_blocks`.

Each plan becomes a :class:`CompiledPlan` whose single closure fuses

* **access-path specialized row loops** -- hash-index point lookup
  (``pk`` / ``index_eq``), ordered-index range scan and full scan each
  get their own loop over row *tuples* with precomputed column
  offsets; no per-row dict environments;
* **predicate + projection fusion** -- residual filters and output
  columns are recompiled into positional closures (``row[offset]``
  instead of ``env[binding][offset]``); all-column projections
  collapse into one :func:`operator.itemgetter`;
* **batched accounting** -- ``rows_touched`` is kept in a local and
  surfaces once per statement, and mutation loops collect their undo
  records locally, handing them to the transaction with a single
  :meth:`~repro.db.txn.Transaction.record_undo_many` call;
* **specialized mutations** -- updates whose assigned columns touch no
  primary-key or index-key column statically skip all index
  maintenance via :meth:`~repro.db.engine.Table.replace_nonkey`.

The compiled form preserves the tree executor's observable semantics:
identical :class:`~repro.db.sql.executor.StatementResult` (columns,
rows, rowcount, rows_touched), identical ``Database.notify`` charges,
identical lock acquisition order and identical undo-log contents --
``tests/db/test_sql_exec_equivalence.py`` checks this differentially,
including rollback paths.

This rung is no longer the default: ``REPRO_SQL_EXEC`` defaults to
``source`` (:mod:`repro.db.sql.codegen_plan`), and these closures are
what a plan shape the generator does not emit falls back to
(``PlanCacheStats.compiled_plans - source_plans`` counts those).
``REPRO_SQL_EXEC=compiled`` selects them outright,
``REPRO_SQL_EXEC=tree`` the tree executor.
"""

from __future__ import annotations

import operator
import os
from typing import Any, Callable, Optional, Sequence

from repro.db.engine import Database, Table
from repro.db.errors import ExecutionError
from repro.db.index import MAX_KEY, OrderedIndex
from repro.db.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Parameter,
    UnaryOp,
)
from repro.db.sql.executor import (
    StatementResult,
    _Aggregator,
    distinct_rows,
    hashable_group_key,
    limit_rows,
    sort_result_rows,
)
from repro.db.sql.planner import (
    _SCALAR_FUNCS,
    AccessPath,
    DeletePlan,
    InsertPlan,
    Plan,
    Scope,
    SelectPlan,
    TableAccess,
    UpdatePlan,
    _like_matcher,
)

if False:  # pragma: no cover - import cycle guard for type checkers
    from repro.db.txn import Transaction

# SQL executor selection: "source" (the default) generates Python
# source text per plan (repro.db.sql.codegen_plan, falling back to this
# module's closures for shapes it does not emit); "compiled" runs
# statements through the plan compilation in this module; "tree" walks
# the planner's operator tree (the debugging / differential-testing
# reference).  All rungs produce bit-identical StatementResults; see
# the module docstrings.
SQL_EXEC_ENV_VAR = "REPRO_SQL_EXEC"
SQL_EXEC_MODES = ("tree", "compiled", "source")
DEFAULT_SQL_EXEC = "source"


def resolve_sql_exec_mode(mode: Optional[str] = None) -> str:
    """Resolve a SQL executor mode from an argument or the environment.

    Fails fast on unknown values (no silent fallback): misspelling the
    env var must not silently run the wrong executor.
    """
    source = mode if mode is not None else os.environ.get(SQL_EXEC_ENV_VAR, "")
    resolved = source.strip().lower() or DEFAULT_SQL_EXEC
    if resolved not in SQL_EXEC_MODES:
        raise ExecutionError(
            f"unknown SQL executor mode {resolved!r}; "
            f"expected one of {SQL_EXEC_MODES}"
        )
    return resolved


class PlanCompileError(Exception):
    """The plan lacks the metadata the compiler needs (e.g. it was
    constructed by hand rather than by the planner)."""


# Positional closure signatures:
#   multi-table:  (env, params) -> value, env a list of row tuples
#                 indexed by binding position;
#   single-table: (row, params) -> value, the row tuple itself.
PosCompiled = Callable[[Any, Sequence[Any]], Any]


# -- positional expression compiler -------------------------------------------


def _positions(scope: Scope) -> dict[str, int]:
    return {binding: i for i, (binding, _) in enumerate(scope.bindings)}


def compile_pos_expr(expr: Expr, scope: Scope, single: bool) -> PosCompiled:
    """Compile ``expr`` to a positional closure.

    With ``single`` the environment argument *is* the current row tuple
    (no per-binding indirection); otherwise it is a list of row tuples
    in scope order.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda env, params: value
    if isinstance(expr, Parameter):
        index = expr.index
        return lambda env, params: params[index]
    if isinstance(expr, ColumnRef):
        binding, offset = scope.resolve(expr)
        if single:
            return lambda env, params: env[offset]
        position = _positions(scope)[binding]
        return lambda env, params: env[position][offset]
    if isinstance(expr, UnaryOp):
        operand = compile_pos_expr(expr.operand, scope, single)
        if expr.op == "-":
            def neg(env, params):
                value = operand(env, params)
                return None if value is None else -value
            return neg
        if expr.op == "not":
            def negate(env, params):
                value = operand(env, params)
                return None if value is None else not bool(value)
            return negate
        raise PlanCompileError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BinaryOp):
        left = compile_pos_expr(expr.left, scope, single)
        right = compile_pos_expr(expr.right, scope, single)
        op = expr.op
        if op == "and":
            def conj(env, params):
                lval = left(env, params)
                if lval is not None and not lval:
                    return False
                rval = right(env, params)
                if rval is not None and not rval:
                    return False
                if lval is None or rval is None:
                    return None
                return True
            return conj
        if op == "or":
            def disj(env, params):
                lval = left(env, params)
                if lval is not None and lval:
                    return True
                rval = right(env, params)
                if rval is not None and rval:
                    return True
                if lval is None or rval is None:
                    return None
                return False
            return disj
        if op in _COMPARISONS:
            return _COMPARISONS[op](left, right)
        if op == "like":
            def like(env, params):
                lval = left(env, params)
                rval = right(env, params)
                if lval is None or rval is None:
                    return None
                return _like_matcher(rval)(lval)
            return like
        if op in _ARITH:
            return _ARITH[op](left, right)
        raise PlanCompileError(f"unknown binary operator {op!r}")
    if isinstance(expr, IsNull):
        operand = compile_pos_expr(expr.operand, scope, single)
        if expr.negated:
            return lambda env, params: operand(env, params) is not None
        return lambda env, params: operand(env, params) is None
    if isinstance(expr, InList):
        operand = compile_pos_expr(expr.operand, scope, single)
        options = [compile_pos_expr(o, scope, single) for o in expr.options]
        negated = expr.negated
        def in_list(env, params):
            value = operand(env, params)
            if value is None:
                return None
            found = any(value == opt(env, params) for opt in options)
            return (not found) if negated else found
        return in_list
    if isinstance(expr, Between):
        operand = compile_pos_expr(expr.operand, scope, single)
        low = compile_pos_expr(expr.low, scope, single)
        high = compile_pos_expr(expr.high, scope, single)
        negated = expr.negated
        def between(env, params):
            value = operand(env, params)
            lo = low(env, params)
            hi = high(env, params)
            if value is None or lo is None or hi is None:
                return None
            result = lo <= value <= hi
            return (not result) if negated else result
        return between
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            raise PlanCompileError(
                f"aggregate {expr.name!r} not allowed in this context"
            )
        name = expr.name.lower()
        if name not in _SCALAR_FUNCS:
            raise PlanCompileError(f"unknown function {expr.name!r}")
        func = _SCALAR_FUNCS[name]
        args = [compile_pos_expr(arg, scope, single) for arg in expr.args]
        return lambda env, params: func(*(arg(env, params) for arg in args))
    raise PlanCompileError(f"cannot compile expression {expr!r}")


def _cmp_factory(op: str):
    """Specialized NULL-propagating comparison closures, one per op."""
    apply = {
        "=": operator.eq,
        "<>": operator.ne,
        "<": operator.lt,
        ">": operator.gt,
        "<=": operator.le,
        ">=": operator.ge,
    }[op]

    def factory(left: PosCompiled, right: PosCompiled) -> PosCompiled:
        def compare(env, params):
            lval = left(env, params)
            if lval is None:
                return None
            rval = right(env, params)
            if rval is None:
                return None
            return apply(lval, rval)
        return compare

    return factory


_COMPARISONS = {op: _cmp_factory(op) for op in ("=", "<>", "<", ">", "<=", ">=")}


def _arith_factory(op: str):
    apply = {
        "+": operator.add,
        "-": operator.sub,
        "*": operator.mul,
        "/": operator.truediv,
        "||": lambda a, b: str(a) + str(b),
    }[op]

    def factory(left: PosCompiled, right: PosCompiled) -> PosCompiled:
        def arith(env, params):
            lval = left(env, params)
            if lval is None:
                return None
            rval = right(env, params)
            if rval is None:
                return None
            return apply(lval, rval)
        return arith

    return factory


_ARITH = {op: _arith_factory(op) for op in ("+", "-", "*", "/", "||")}


# -- key builders -------------------------------------------------------------


def make_key_fn(
    asts: Sequence[Expr], scope: Scope
) -> Optional[Callable[[Any, Sequence[Any]], tuple]]:
    """Compile index-key expressions into one tuple-building closure.

    Key expressions may reference *outer* bindings (index nested-loop
    join probes), so the closure takes the multi-table environment; the
    common parameter-only shapes specialize to direct tuple literals.
    """
    if not asts:
        return None
    if all(isinstance(a, Parameter) for a in asts):
        idxs = tuple(a.index for a in asts)
        if len(idxs) == 1:
            i0, = idxs
            return lambda env, params: (params[i0],)
        if len(idxs) == 2:
            i0, i1 = idxs
            return lambda env, params: (params[i0], params[i1])
        if len(idxs) == 3:
            i0, i1, i2 = idxs
            return lambda env, params: (params[i0], params[i1], params[i2])
        getter = operator.itemgetter(*idxs)
        return lambda env, params: getter(params)
    if all(isinstance(a, Literal) for a in asts):
        constant = tuple(a.value for a in asts)
        return lambda env, params: constant
    fns = [compile_pos_expr(a, scope, single=False) for a in asts]
    if len(fns) == 1:
        f0, = fns
        return lambda env, params: (f0(env, params),)
    return lambda env, params: tuple(f(env, params) for f in fns)


# -- single-table row loops ---------------------------------------------------


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise PlanCompileError(f"plan is missing {what}")


def _secondary_index(table: Table, name: Optional[str]):
    """The named secondary index, as a compile-time requirement."""
    _require(name is not None, "index name")
    index = table.secondary.get(name)
    _require(index is not None, f"index {name!r}")
    return index


def _make_range_bounds(access: AccessPath, scope: Scope):
    """Range-bound closures plus the static MAX_KEY prefix extension."""
    low_fn = make_key_fn(access.low_asts, scope)
    high_fn = make_key_fn(access.high_asts, scope)
    # A prefix-only high bound must include all longer keys with that
    # prefix (see the tree executor); the extension decision is static
    # here because the planner records the index width.
    extend_high = bool(access.high_asts) and (
        len(access.high_asts) < access.index_width
    )
    high_inclusive = True if extend_high else access.high_inclusive
    return low_fn, high_fn, extend_high, access.low_inclusive, high_inclusive


def make_select_gather(
    table: Table,
    access: AccessPath,
    residual: Optional[PosCompiled],
    scope: Scope,
    project: Callable[[tuple, Sequence[Any]], tuple],
) -> Callable[[Sequence[Any]], tuple[list[tuple], int]]:
    """Fused row loop for a single-table SELECT: fetch, count, filter
    and project in one pass, returning (projected rows, rows_touched).
    ``rows_touched`` counts every fetched row, matching the tree
    executor's accounting."""
    # The compiler is a privileged engine client: it binds the live
    # storage dicts (row_store, index buckets) so the per-row hot loop
    # is dict probes, not method calls.
    fetch = table.row_store.get
    kind = access.kind

    if kind == "pk":
        _require(bool(access.key_asts), "pk key expressions")
        key_fn = make_key_fn(access.key_asts, scope)
        assert key_fn is not None
        pk_buckets = table.primary_index.buckets

        def gather_pk(params: Sequence[Any]) -> tuple[list[tuple], int]:
            rowid = pk_buckets.get(key_fn(None, params))
            if rowid is None:
                return [], 0
            row = fetch(rowid)
            if row is None:
                return [], 0
            if residual is not None:
                verdict = residual(row, params)
                if verdict is None or not verdict:
                    return [], 1
            return [project(row, params)], 1
        return gather_pk

    if kind == "index_eq":
        index = _secondary_index(table, access.index_name)
        _require(bool(access.key_asts), "index key expressions")
        key_fn = make_key_fn(access.key_asts, scope)
        assert key_fn is not None
        lookup = index.lookup_sorted

        def gather_eq(params: Sequence[Any]) -> tuple[list[tuple], int]:
            touched = 0
            out: list[tuple] = []
            for rowid in lookup(key_fn(None, params)):
                row = fetch(rowid)
                if row is None:
                    continue
                touched += 1
                if residual is not None:
                    verdict = residual(row, params)
                    if verdict is None or not verdict:
                        continue
                out.append(project(row, params))
            return out, touched
        return gather_eq

    if kind == "index_range":
        index = _secondary_index(table, access.index_name)
        if not isinstance(index, OrderedIndex):  # pragma: no cover - planner
            raise ExecutionError(
                f"index {access.index_name!r} does not support ranges"
            )
        low_fn, high_fn, extend_high, low_inclusive, high_inclusive = (
            _make_range_bounds(access, scope)
        )
        range_rowids = index.range_rowids

        def gather_range(params: Sequence[Any]) -> tuple[list[tuple], int]:
            touched = 0
            out: list[tuple] = []
            low = low_fn(None, params) if low_fn is not None else None
            high = high_fn(None, params) if high_fn is not None else None
            if high is not None and extend_high:
                high = high + (MAX_KEY,)
            for rowid in range_rowids(
                low, high,
                low_inclusive=low_inclusive, high_inclusive=high_inclusive,
            ):
                row = fetch(rowid)
                if row is None:
                    continue
                touched += 1
                if residual is not None:
                    verdict = residual(row, params)
                    if verdict is None or not verdict:
                        continue
                out.append(project(row, params))
            return out, touched
        return gather_range

    if kind == "scan":
        snapshot = table.snapshot

        def gather_scan(params: Sequence[Any]) -> tuple[list[tuple], int]:
            touched = 0
            out: list[tuple] = []
            for _, row in snapshot():
                touched += 1
                if residual is not None:
                    verdict = residual(row, params)
                    if verdict is None or not verdict:
                        continue
                out.append(project(row, params))
            return out, touched
        return gather_scan

    raise ExecutionError(f"unknown access kind {kind!r}")


def make_rowid_collector(
    table: Table,
    target: TableAccess,
    scope: Scope,
) -> Callable[[Sequence[Any]], tuple[list[int], int]]:
    """Target-row collection for UPDATE / DELETE: materializes matching
    rowids before any mutation (same as the tree executor)."""
    fetch = table.row_store.get
    access = target.access
    residual = (
        compile_pos_expr(target.residual_ast, scope, single=True)
        if target.residual_ast is not None
        else None
    )
    if target.residual is not None and residual is None:
        raise PlanCompileError("target residual source expression")
    kind = access.kind

    if kind == "pk":
        _require(bool(access.key_asts), "pk key expressions")
        key_fn = make_key_fn(access.key_asts, scope)
        assert key_fn is not None
        pk_buckets = table.primary_index.buckets

        def collect_pk(params: Sequence[Any]) -> tuple[list[int], int]:
            rowid = pk_buckets.get(key_fn(None, params))
            if rowid is None:
                return [], 0
            row = fetch(rowid)
            if row is None:
                return [], 0
            if residual is not None:
                verdict = residual(row, params)
                if verdict is None or not verdict:
                    return [], 1
            return [rowid], 1
        return collect_pk

    if kind == "scan":
        snapshot = table.snapshot

        def collect_scan(params: Sequence[Any]) -> tuple[list[int], int]:
            touched = 0
            matches: list[int] = []
            for rowid, row in snapshot():
                touched += 1
                if residual is not None:
                    verdict = residual(row, params)
                    if verdict is None or not verdict:
                        continue
                matches.append(rowid)
            return matches, touched
        return collect_scan

    if kind == "index_eq":
        index = _secondary_index(table, access.index_name)
        _require(bool(access.key_asts), "index key expressions")
        key_fn = make_key_fn(access.key_asts, scope)
        assert key_fn is not None
        lookup = index.lookup_sorted

        def collect_eq(params: Sequence[Any]) -> tuple[list[int], int]:
            touched = 0
            matches: list[int] = []
            for rowid in lookup(key_fn(None, params)):
                row = fetch(rowid)
                if row is None:
                    continue
                touched += 1
                if residual is not None:
                    verdict = residual(row, params)
                    if verdict is None or not verdict:
                        continue
                matches.append(rowid)
            return matches, touched
        return collect_eq

    if kind == "index_range":
        index = _secondary_index(table, access.index_name)
        if not isinstance(index, OrderedIndex):  # pragma: no cover - planner
            raise ExecutionError(
                f"index {access.index_name!r} does not support ranges"
            )
        low_fn, high_fn, extend_high, low_inclusive, high_inclusive = (
            _make_range_bounds(access, scope)
        )
        range_rowids = index.range_rowids

        def collect_range(params: Sequence[Any]) -> tuple[list[int], int]:
            touched = 0
            matches: list[int] = []
            low = low_fn(None, params) if low_fn is not None else None
            high = high_fn(None, params) if high_fn is not None else None
            if high is not None and extend_high:
                high = high + (MAX_KEY,)
            for rowid in range_rowids(
                low, high,
                low_inclusive=low_inclusive, high_inclusive=high_inclusive,
            ):
                row = fetch(rowid)
                if row is None:
                    continue
                touched += 1
                if residual is not None:
                    verdict = residual(row, params)
                    if verdict is None or not verdict:
                        continue
                matches.append(rowid)
            return matches, touched
        return collect_range

    raise ExecutionError(f"unknown access kind {kind!r}")  # pragma: no cover


# -- SELECT compilation -------------------------------------------------------


def _make_projection_single(
    plan: SelectPlan, scope: Scope
) -> Callable[[tuple, Sequence[Any]], tuple]:
    """Project one row (plus hidden sort values) in single-table mode."""
    offsets: list[int] = []
    all_columns = True
    for col in plan.columns:
        if col.ast is not None and isinstance(col.ast, ColumnRef):
            offsets.append(scope.resolve(col.ast)[1])
        else:
            all_columns = False
            break
    if all_columns and not plan.sort_keys:
        if len(offsets) == 1:
            off0 = offsets[0]
            return lambda row, params: (row[off0],)
        getter = operator.itemgetter(*offsets)
        return lambda row, params: getter(row)

    col_fns: list[Optional[PosCompiled]] = []
    for col in plan.columns:
        if col.expr is None:
            col_fns.append(None)
        else:
            _require(col.ast is not None, "output column source expression")
            col_fns.append(compile_pos_expr(col.ast, scope, single=True))
    sort_fns: list[Optional[PosCompiled]] = []
    for key in plan.sort_keys:
        if key.expr is None:
            sort_fns.append(None)
        else:
            _require(key.ast is not None, "sort key source expression")
            sort_fns.append(compile_pos_expr(key.ast, scope, single=True))
    fns = col_fns + sort_fns

    def project(row: tuple, params: Sequence[Any]) -> tuple:
        return tuple(
            fn(row, params) if fn is not None else None for fn in fns
        )
    return project


def _make_projection_multi(
    plan: SelectPlan, scope: Scope
) -> Callable[[list, Sequence[Any]], tuple]:
    col_fns: list[Optional[PosCompiled]] = []
    for col in plan.columns:
        if col.expr is None:
            col_fns.append(None)
        else:
            _require(col.ast is not None, "output column source expression")
            col_fns.append(compile_pos_expr(col.ast, scope, single=False))
    sort_fns: list[Optional[PosCompiled]] = []
    for key in plan.sort_keys:
        if key.expr is None:
            sort_fns.append(None)
        else:
            _require(key.ast is not None, "sort key source expression")
            sort_fns.append(compile_pos_expr(key.ast, scope, single=False))
    fns = col_fns + sort_fns

    def project(env: list, params: Sequence[Any]) -> tuple:
        return tuple(
            fn(env, params) if fn is not None else None for fn in fns
        )
    return project


def _make_post(
    plan: SelectPlan, scope: Scope, hidden: int
) -> Optional[Callable[[list[tuple], Sequence[Any]], list[tuple]]]:
    """Sort / DISTINCT / LIMIT tail; None when there is nothing to do
    (the runner skips the call entirely)."""
    limit_fn = (
        compile_pos_expr(plan.limit_ast, scope, single=False)
        if plan.limit_ast is not None
        else None
    )
    if plan.limit is not None and limit_fn is None:
        raise PlanCompileError("limit source expression")
    has_sort = bool(plan.sort_keys) or hidden
    distinct = plan.distinct
    if not has_sort and not distinct and limit_fn is None:
        return None

    def post(rows: list[tuple], params: Sequence[Any]) -> list[tuple]:
        if has_sort:
            rows = sort_result_rows(plan, rows, hidden)
        if distinct:
            rows = distinct_rows(rows)
        if limit_fn is not None:
            rows = limit_rows(rows, limit_fn(None, params))
        return rows
    return post


def _make_select_lock(
    lock_names: list[str],
) -> Callable[["Transaction"], None]:
    """Shared-lock acquisition for a SELECT inside a transaction.

    Without a lock manager every lock_table call is just a liveness
    check, so one inline state test (falling back to
    :meth:`~repro.db.txn.Transaction.ensure_active` for the error
    path) suffices -- the state cannot change mid-statement."""
    active = _active_state()

    def lock(txn: "Transaction") -> None:
        if txn.lock_manager is None:
            if txn.state is not active:
                txn.ensure_active()
        else:
            for name in lock_names:
                txn.lock_table(name, exclusive=False)
    return lock


def _active_state():
    """TxnState.ACTIVE, imported lazily (txn.py imports engine.py; a
    top-level import here would not cycle today, but keeping the hot
    constant behind a function keeps the module dependency one-way)."""
    from repro.db.txn import TxnState

    return TxnState.ACTIVE


def _compile_select(
    plan: SelectPlan, database: Database
) -> Callable[[Sequence[Any], Optional["Transaction"]], StatementResult]:
    scope = plan.scope
    _require(scope is not None, "scope")
    assert scope is not None
    tables = plan.tables
    names = list(plan.column_names)
    first_table = tables[0].table_name
    notify = database.notify
    lock_names = plan.lock_tables
    aggregate = bool(plan.aggregates or plan.group_exprs)

    lock = _make_select_lock(lock_names)

    if not aggregate and len(tables) == 1:
        ta = tables[0]
        table = database.table(ta.table_name)
        residual = (
            compile_pos_expr(ta.residual_ast, scope, single=True)
            if ta.residual_ast is not None
            else None
        )
        if ta.residual is not None and residual is None:
            raise PlanCompileError("residual source expression")
        project = _make_projection_single(plan, scope)
        post = _make_post(plan, scope, hidden=len(plan.sort_keys))

        if ta.access.kind == "pk":
            # The hottest statement shape -- point SELECT by primary
            # key -- fuses lookup, filter, projection and result
            # construction into one straight-line closure.  ``names``
            # is shared across results (read-only by convention;
            # ResultSet copies it immediately).
            _require(bool(ta.access.key_asts), "pk key expressions")
            key_fn = make_key_fn(ta.access.key_asts, scope)
            assert key_fn is not None
            pk_buckets = table.primary_index.buckets
            fetch = table.row_store.get

            active = _active_state()

            def run_select_pk(
                params: Sequence[Any], txn: Optional["Transaction"]
            ) -> StatementResult:
                if txn is not None:
                    if txn.lock_manager is None:
                        if txn.state is not active:
                            txn.ensure_active()
                    else:
                        txn.lock_table(first_table, exclusive=False)
                touched = 0
                rows: list[tuple] = []
                rowid = pk_buckets.get(key_fn(None, params))
                if rowid is not None:
                    row = fetch(rowid)
                    if row is not None:
                        touched = 1
                        if residual is None:
                            rows = [project(row, params)]
                        else:
                            verdict = residual(row, params)
                            if verdict is not None and verdict:
                                rows = [project(row, params)]
                if post is not None:
                    rows = post(rows, params)
                notify("select", first_table, touched)
                return StatementResult(names, rows, len(rows), touched)
            return run_select_pk

        gather = make_select_gather(table, ta.access, residual, scope, project)

        active = _active_state()

        def run_single(
            params: Sequence[Any], txn: Optional["Transaction"]
        ) -> StatementResult:
            if txn is not None:
                if txn.lock_manager is None:
                    if txn.state is not active:
                        txn.ensure_active()
                else:
                    txn.lock_table(first_table, exclusive=False)
            rows, touched = gather(params)
            if post is not None:
                rows = post(rows, params)
            notify("select", first_table, touched)
            return StatementResult(names, rows, len(rows), touched)
        return run_single

    # Generic driver: nested-loop joins and/or aggregation, with a
    # positional environment list instead of per-row dict copies.
    n = len(tables)
    positions = _positions(scope)
    level_meta = []
    for ta in tables:
        table = database.table(ta.table_name)
        residual = (
            compile_pos_expr(ta.residual_ast, scope, single=False)
            if ta.residual_ast is not None
            else None
        )
        if ta.residual is not None and residual is None:
            raise PlanCompileError("residual source expression")
        level_meta.append(
            (table, ta.access, residual, positions[ta.binding])
        )

    def make_candidates(
        table: Table, access: AccessPath
    ) -> Callable[[list, Sequence[Any]], Any]:
        """Candidate (rowid, row) pairs for one join level."""
        fetch = table.fetch
        kind = access.kind
        if kind == "scan":
            snapshot = table.snapshot
            return lambda env, params: snapshot()
        if kind == "pk":
            _require(bool(access.key_asts), "pk key expressions")
            key_fn = make_key_fn(access.key_asts, scope)
            assert key_fn is not None
            pk_get = table.primary_index.get_unique

            def pk_candidates(env, params):
                rowid = pk_get(key_fn(env, params))
                if rowid is None:
                    return ()
                row = fetch(rowid)
                if row is None:
                    return ()
                return ((rowid, row),)
            return pk_candidates
        if kind == "index_eq":
            index = _secondary_index(table, access.index_name)
            _require(bool(access.key_asts), "index key expressions")
            key_fn = make_key_fn(access.key_asts, scope)
            assert key_fn is not None
            lookup = index.lookup_sorted

            def eq_candidates(env, params):
                out = []
                for rowid in lookup(key_fn(env, params)):
                    row = fetch(rowid)
                    if row is not None:
                        out.append((rowid, row))
                return out
            return eq_candidates
        if kind == "index_range":
            index = _secondary_index(table, access.index_name)
            if not isinstance(index, OrderedIndex):  # pragma: no cover
                raise ExecutionError(
                    f"index {access.index_name!r} does not support ranges"
                )
            low_fn, high_fn, extend_high, low_inclusive, high_inclusive = (
                _make_range_bounds(access, scope)
            )
            range_rowids = index.range_rowids

            def range_candidates(env, params):
                low = low_fn(env, params) if low_fn is not None else None
                high = high_fn(env, params) if high_fn is not None else None
                if high is not None and extend_high:
                    high = high + (MAX_KEY,)
                out = []
                for rowid in range_rowids(
                    low, high,
                    low_inclusive=low_inclusive,
                    high_inclusive=high_inclusive,
                ):
                    row = fetch(rowid)
                    if row is not None:
                        out.append((rowid, row))
                return out
            return range_candidates
        raise ExecutionError(f"unknown access kind {kind!r}")

    candidates = [
        make_candidates(table, access) for table, access, _, _ in level_meta
    ]

    def drive(
        params: Sequence[Any],
        consume: Callable[[list, Sequence[Any]], None],
    ) -> int:
        touched = 0
        env: list = [None] * n

        def rec(level: int) -> None:
            nonlocal touched
            if level == n:
                consume(env, params)
                return
            _, _, residual, position = level_meta[level]
            for _, row in candidates[level](env, params):
                touched += 1
                env[position] = row
                if residual is not None:
                    verdict = residual(env, params)
                    if verdict is None or not verdict:
                        continue
                rec(level + 1)

        rec(0)
        return touched

    if not aggregate:
        project_multi = _make_projection_multi(plan, scope)
        post = _make_post(plan, scope, hidden=len(plan.sort_keys))

        def run_join(
            params: Sequence[Any], txn: Optional["Transaction"]
        ) -> StatementResult:
            if txn is not None:
                lock(txn)
            out: list[tuple] = []
            append = out.append

            def consume(env: list, p: Sequence[Any]) -> None:
                append(project_multi(env, p))

            touched = drive(params, consume)
            rows = post(out, params) if post is not None else out
            notify("select", first_table, touched)
            return StatementResult(names, rows, len(rows), touched)
        return run_join

    # Aggregation (with or without GROUP BY), multi-mode environment.
    _require(
        len(plan.group_asts) == len(plan.group_exprs), "group expressions"
    )
    group_fns = [
        compile_pos_expr(g, scope, single=False) for g in plan.group_asts
    ]
    agg_specs = list(plan.aggregates)
    agg_arg_fns: list[Optional[PosCompiled]] = []
    for spec in agg_specs:
        if spec.arg is None:
            agg_arg_fns.append(None)
        else:
            _require(spec.arg_ast is not None, "aggregate source expression")
            agg_arg_fns.append(
                compile_pos_expr(spec.arg_ast, scope, single=False)
            )
    has_extras = any(
        col.aggregate_index is None and col.expr is not None
        for col in plan.columns
    )
    extra_fns: list[PosCompiled] = []
    if has_extras:
        for col in plan.columns:
            if col.aggregate_index is None and col.expr is not None:
                _require(col.ast is not None, "output column source expression")
                extra_fns.append(compile_pos_expr(col.ast, scope, single=False))
    n_groups = len(group_fns)
    post = _make_post(plan, scope, hidden=0)
    columns = list(plan.columns)

    def run_aggregate(
        params: Sequence[Any], txn: Optional["Transaction"]
    ) -> StatementResult:
        if txn is not None:
            lock(txn)
        groups: dict[tuple, tuple[list[Any], list[_Aggregator]]] = {}
        order: list[tuple] = []

        def consume(env: list, p: Sequence[Any]) -> None:
            key = tuple(g(env, p) for g in group_fns)
            hashable_key = hashable_group_key(key)
            entry = groups.get(hashable_key)
            if entry is None:
                entry = (
                    list(key),
                    [_Aggregator(spec) for spec in agg_specs],
                )
                groups[hashable_key] = entry
                order.append(hashable_key)
            aggregators = entry[1]
            for agg, arg_fn in zip(aggregators, agg_arg_fns):
                if arg_fn is None:
                    agg.count += 1
                else:
                    agg.add_value(arg_fn(env, p))
            if has_extras and len(entry[0]) == n_groups:
                for fn in extra_fns:
                    entry[0].append(fn(env, p))

        touched = drive(params, consume)
        if not group_fns and not groups:
            # Aggregates over empty input still yield one row.
            groups[()] = ([], [_Aggregator(spec) for spec in agg_specs])
            order.append(())
        rows: list[tuple] = []
        for key in order:
            group_values, aggregators = groups[key]
            extras = group_values[n_groups:]
            extra_iter = iter(extras)
            values: list[Any] = []
            for col in columns:
                if col.aggregate_index is not None:
                    values.append(aggregators[col.aggregate_index].result())
                elif col.expr is not None:
                    values.append(next(extra_iter, None))
                else:  # pragma: no cover - defensive
                    values.append(None)
            rows.append(tuple(values))
        if post is not None:
            rows = post(rows, params)
        notify("select", first_table, touched)
        return StatementResult(names, rows, len(rows), touched)
    return run_aggregate


# -- mutation compilation -----------------------------------------------------


def _compile_insert(
    plan: InsertPlan, database: Database
) -> Callable[[Sequence[Any], Optional["Transaction"]], StatementResult]:
    _require(len(plan.value_asts) == len(plan.values), "insert value sources")
    table = database.table(plan.table_name)
    schema = table.schema
    scope = Scope()  # VALUES sees no tables
    # Evaluation slots in statement order (duplicate columns: every
    # expression still evaluates, the last one wins -- matching the
    # tree executor's dict build), then validation in schema order with
    # the schema's fused column validators.
    eval_entries = [
        (schema.offset(column), compile_pos_expr(ast, scope, single=False))
        for column, ast in zip(plan.columns, plan.value_asts)
    ]
    n_columns = len(schema.columns)
    validators = schema.validators
    table_name = plan.table_name
    notify = database.notify
    insert_validated = table.insert_validated

    all_parameters = all(
        isinstance(ast, Parameter) for ast in plan.value_asts
    )
    if (
        all_parameters
        and [offset for offset, _ in eval_entries] == list(range(n_columns))
    ):
        # Full-width all-parameter insert in schema order (the common
        # generated shape): evaluate and validate in one fused pass.
        # The upfront max-index probe preserves the tree executor's
        # error precedence (a missing parameter raises IndexError
        # before any validation runs; the message is identical
        # wherever the probe happens).
        param_pairs = [
            (validators[offset], ast.index)
            for (offset, _), ast in zip(eval_entries, plan.value_asts)
        ]
        max_param = max(ast.index for ast in plan.value_asts)
        active = _active_state()

        def run_insert_params(
            params: Sequence[Any], txn: Optional["Transaction"]
        ) -> StatementResult:
            # The probe stands in for the tree executor's eval phase
            # (a missing parameter raises IndexError before the lock);
            # the lock then precedes validation, exactly as the tree
            # executor locks before Table.insert validates.
            params[max_param]
            if txn is not None:
                if txn.lock_manager is None:
                    if txn.state is not active:
                        txn.ensure_active()
                else:
                    txn.lock_table(table_name)
            row = tuple(
                [validate(params[index]) for validate, index in param_pairs]
            )
            _, undo = insert_validated(row)
            if txn is not None:
                txn.record_undo_unchecked(undo)
            notify("insert", table_name, 1)
            return StatementResult(rowcount=1, rows_touched=1)
        return run_insert_params

    if [offset for offset, _ in eval_entries] == list(range(n_columns)):
        # Full-width insert in schema order (the common generated
        # shape): evaluate straight into the value list, no slot
        # remapping.
        fns = [fn for _, fn in eval_entries]
        active = _active_state()

        def run_insert_full(
            params: Sequence[Any], txn: Optional["Transaction"]
        ) -> StatementResult:
            values = [fn(None, params) for fn in fns]
            # Lock between evaluation and validation, matching the
            # tree executor (which locks before Table.insert validates).
            if txn is not None:
                if txn.lock_manager is None:
                    if txn.state is not active:
                        txn.ensure_active()
                else:
                    txn.lock_table(table_name)
            row = tuple(
                [validate(value)
                 for validate, value in zip(validators, values)]
            )
            _, undo = insert_validated(row)
            if txn is not None:
                txn.record_undo_unchecked(undo)
            notify("insert", table_name, 1)
            return StatementResult(rowcount=1, rows_touched=1)
        return run_insert_full

    active = _active_state()

    def run_insert(
        params: Sequence[Any], txn: Optional["Transaction"]
    ) -> StatementResult:
        slots: list[Any] = [None] * n_columns
        for offset, fn in eval_entries:
            slots[offset] = fn(None, params)
        # Lock between evaluation and validation, matching the tree
        # executor (which locks before Table.insert validates).
        if txn is not None:
            if txn.lock_manager is None:
                if txn.state is not active:
                    txn.ensure_active()
            else:
                txn.lock_table(table_name)
        row = tuple(
            [validate(value) for validate, value in zip(validators, slots)]
        )
        _, undo = insert_validated(row)
        if txn is not None:
            txn.record_undo_unchecked(undo)
        notify("insert", table_name, 1)
        return StatementResult(rowcount=1, rows_touched=1)
    return run_insert


def make_assign_applier(
    assigns: list[tuple[int, Callable[[Any], Any], PosCompiled]],
) -> Callable[[tuple, Sequence[Any]], tuple]:
    """One closure computing the post-assignment row.

    Every value expression is evaluated before any validator runs
    (matching the tree executor's changes-dict order of effects);
    small arities unroll into straight-line code.
    """
    if len(assigns) == 1:
        ((o0, v0, f0),) = assigns

        def apply1(row: tuple, params: Sequence[Any]) -> tuple:
            value = f0(row, params)
            new_row = list(row)
            new_row[o0] = v0(value)
            return tuple(new_row)
        return apply1
    if len(assigns) == 2:
        (o0, v0, f0), (o1, v1, f1) = assigns

        def apply2(row: tuple, params: Sequence[Any]) -> tuple:
            a = f0(row, params)
            b = f1(row, params)
            new_row = list(row)
            new_row[o0] = v0(a)
            new_row[o1] = v1(b)
            return tuple(new_row)
        return apply2
    if len(assigns) == 4:
        (o0, v0, f0), (o1, v1, f1), (o2, v2, f2), (o3, v3, f3) = assigns

        def apply4(row: tuple, params: Sequence[Any]) -> tuple:
            a = f0(row, params)
            b = f1(row, params)
            c = f2(row, params)
            d = f3(row, params)
            new_row = list(row)
            new_row[o0] = v0(a)
            new_row[o1] = v1(b)
            new_row[o2] = v2(c)
            new_row[o3] = v3(d)
            return tuple(new_row)
        return apply4

    def apply_n(row: tuple, params: Sequence[Any]) -> tuple:
        values = [fn(row, params) for _, _, fn in assigns]
        new_row = list(row)
        for (offset, validate, _), value in zip(assigns, values):
            new_row[offset] = validate(value)
        return tuple(new_row)
    return apply_n


def _compile_update(
    plan: UpdatePlan, database: Database
) -> Callable[[Sequence[Any], Optional["Transaction"]], StatementResult]:
    scope = plan.scope
    _require(scope is not None, "scope")
    assert scope is not None
    _require(
        len(plan.assignment_asts) == len(plan.assignments),
        "assignment sources",
    )
    table = database.table(plan.target.table_name)
    schema = table.schema
    collect = make_rowid_collector(table, plan.target, scope)
    table_name = plan.target.table_name
    notify = database.notify

    # (offset, fused validator, positional value fn) per assignment;
    # value expressions see the current row (single-table scope).
    assigns: list[tuple[int, Callable[[Any], Any], PosCompiled]] = []
    for column, ast in plan.assignment_asts:
        assigns.append(
            (
                schema.offset(column),
                schema.column(column).validator,
                compile_pos_expr(ast, scope, single=True),
            )
        )
    assigned_offsets = {off for off, _, _ in assigns}
    # Live key offsets (includes indexes added via create_index after
    # table creation).  Like any prepared statement, a compiled plan
    # must be re-prepared if indexes are created after compilation.
    keys_safe = assigned_offsets.isdisjoint(table.key_column_offsets())
    assignment_columns = [column for column, _ in plan.assignment_asts]
    get_row = table.get
    access = plan.target.access

    if keys_safe and access.kind == "pk":
        # The TPC-C hot shape -- point update of non-key columns --
        # fuses lookup, residual, validation, replacement and the undo
        # append into one straight-line closure.
        key_fn = make_key_fn(access.key_asts, scope)
        _require(key_fn is not None, "pk key expressions")
        assert key_fn is not None
        pk_buckets = table.primary_index.buckets
        fetch = table.row_store.get
        residual = (
            compile_pos_expr(plan.target.residual_ast, scope, single=True)
            if plan.target.residual_ast is not None
            else None
        )
        if plan.target.residual is not None and residual is None:
            raise PlanCompileError("target residual source expression")
        replace_nonkey = table.replace_nonkey
        apply_assigns = make_assign_applier(assigns)
        active = _active_state()

        def run_update_pk(
            params: Sequence[Any], txn: Optional["Transaction"]
        ) -> StatementResult:
            touched = 0
            count = 0
            rowid = pk_buckets.get(key_fn(None, params))
            if rowid is not None:
                row = fetch(rowid)
                if row is not None:
                    touched = 1
                    verdict = (
                        True if residual is None else residual(row, params)
                    )
                    if verdict is not None and verdict:
                        if txn is not None:
                            if txn.lock_manager is None:
                                if txn.state is not active:
                                    txn.ensure_active()
                            else:
                                txn.lock_row(table_name, rowid)
                        undo = replace_nonkey(
                            rowid, apply_assigns(row, params), row
                        )
                        if txn is not None:
                            txn.record_undo_unchecked(undo)
                        count = 1
            notify("update", table_name, touched)
            return StatementResult(rowcount=count, rows_touched=touched)
        return run_update_pk

    if keys_safe:
        replace_nonkey = table.replace_nonkey
        apply_assigns = make_assign_applier(assigns)

        def run_update_fast(
            params: Sequence[Any], txn: Optional["Transaction"]
        ) -> StatementResult:
            rowids, touched = collect(params)
            lock_rows = txn is not None and txn.lock_manager is not None
            if txn is not None and not lock_rows and rowids:
                txn.ensure_active()
            undos: list = []
            try:
                for rowid in rowids:
                    if lock_rows:
                        txn.lock_row(table_name, rowid)
                    row = get_row(rowid)
                    undos.append(
                        replace_nonkey(rowid, apply_assigns(row, params), row)
                    )
            finally:
                if txn is not None and undos:
                    txn.record_undo_many(undos)
            notify("update", table_name, touched)
            return StatementResult(
                rowcount=len(rowids), rows_touched=touched
            )
        return run_update_fast

    update = table.update

    def run_update_general(
        params: Sequence[Any], txn: Optional["Transaction"]
    ) -> StatementResult:
        rowids, touched = collect(params)
        lock_rows = txn is not None and txn.lock_manager is not None
        if txn is not None and not lock_rows and rowids:
            txn.ensure_active()
        undos: list = []
        try:
            for rowid in rowids:
                if lock_rows:
                    txn.lock_row(table_name, rowid)
                row = get_row(rowid)
                changes = {
                    column: fn(row, params)
                    for column, (_, _, fn) in zip(assignment_columns, assigns)
                }
                undos.append(update(rowid, changes))
        finally:
            if txn is not None and undos:
                txn.record_undo_many(undos)
        notify("update", table_name, touched)
        return StatementResult(rowcount=len(rowids), rows_touched=touched)
    return run_update_general


def _compile_delete(
    plan: DeletePlan, database: Database
) -> Callable[[Sequence[Any], Optional["Transaction"]], StatementResult]:
    scope = plan.scope
    _require(scope is not None, "scope")
    assert scope is not None
    table = database.table(plan.target.table_name)
    collect = make_rowid_collector(table, plan.target, scope)
    table_name = plan.target.table_name
    notify = database.notify
    delete = table.delete

    def run_delete(
        params: Sequence[Any], txn: Optional["Transaction"]
    ) -> StatementResult:
        rowids, touched = collect(params)
        lock_rows = txn is not None and txn.lock_manager is not None
        if txn is not None and not lock_rows and rowids:
            txn.ensure_active()
        undos: list = []
        try:
            for rowid in rowids:
                if lock_rows:
                    txn.lock_row(table_name, rowid)
                undos.append(delete(rowid))
        finally:
            if txn is not None and undos:
                txn.record_undo_many(undos)
        notify("delete", table_name, touched)
        return StatementResult(rowcount=len(rowids), rows_touched=touched)
    return run_delete


# -- public entry points ------------------------------------------------------


class CompiledPlan:
    """One plan fused into a single closure, bound to its database.

    ``run`` is the raw ``(params, txn) -> StatementResult`` closure;
    hot callers invoke it directly, :meth:`execute` adds defaults.
    """

    __slots__ = ("kind", "table_names", "run")

    def __init__(
        self,
        kind: str,
        table_names: tuple[str, ...],
        run: Callable[[Sequence[Any], Optional["Transaction"]], StatementResult],
    ) -> None:
        self.kind = kind
        self.table_names = table_names
        self.run = run

    def execute(
        self,
        params: Sequence[Any] = (),
        txn: Optional["Transaction"] = None,
    ) -> StatementResult:
        return self.run(params, txn)


def compile_plan(plan: Plan, database: Database) -> CompiledPlan:
    """Compile ``plan`` against ``database``.

    Raises :class:`PlanCompileError` when the plan lacks compiler
    metadata (plans built by :class:`~repro.db.sql.planner.Planner`
    always carry it).  The compiled closure binds table objects (and
    key-safety proofs against the tables' live indexes) directly; like
    prepared statements generally, it must not outlive a DROP/CREATE
    of the tables it touches or a ``create_index`` on them.
    """
    if isinstance(plan, SelectPlan):
        return CompiledPlan(
            "select",
            tuple(ta.table_name for ta in plan.tables),
            _compile_select(plan, database),
        )
    if isinstance(plan, InsertPlan):
        return CompiledPlan(
            "insert", (plan.table_name,), _compile_insert(plan, database)
        )
    if isinstance(plan, UpdatePlan):
        return CompiledPlan(
            "update",
            (plan.target.table_name,),
            _compile_update(plan, database),
        )
    if isinstance(plan, DeletePlan):
        return CompiledPlan(
            "delete",
            (plan.target.table_name,),
            _compile_delete(plan, database),
        )
    raise PlanCompileError(f"cannot compile {type(plan).__name__}")


def maybe_compile_plan(
    plan: Plan, database: Database
) -> Optional[CompiledPlan]:
    """Best-effort compilation: None when the plan cannot be compiled
    (the caller falls back to the tree executor for that statement)."""
    try:
        return compile_plan(plan, database)
    except PlanCompileError:
        return None
