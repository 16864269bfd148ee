"""Plan source codegen: SQL plans translated to generated Python text.

The production SQL rung; the tree executor (:mod:`repro.db.sql.executor`)
stays the oracle.  The tree executor re-discovers the structure of
every statement on every execution: generator chains per table
access, a fresh dict environment per row, closure dispatch per
expression node and output column.  That structure is static -- a
plan's access paths, offsets and projections never change after
:meth:`~repro.db.sql.planner.Planner.plan` -- so each plan becomes one
flat generated Python function -- built as text, compiled with
:func:`compile` and ``exec``'d once at
:meth:`~repro.db.jdbc.Connection.prepare` time -- in which

* **expressions inline** -- NULL-propagating comparisons, arithmetic
  and three-valued AND/OR become conditional expressions over walrus
  temporaries; column references are direct tuple indexes;
* **operators run batch-at-a-time** -- full scans materialize the row
  batch once and run residual filters / projections as comprehension
  loops; aggregates fold column lists; point statements collapse to
  straight-line code;
* **joins pick a strategy per level** -- in the planner's order, an
  outer-dependent key probe under an indexed or filtered driver is an
  index nested loop; where every driver row probes (an unfiltered
  driving scan) or the inner has no index to probe (a scan with an
  equality key) the level builds a hash table, sized at generation
  time: tiny inputs keep nested-loop probes, mid-size inputs build one
  table per statement, and inputs past a deterministic spill threshold
  build :data:`HASH_JOIN_PARTITIONS` partitioned tables (bounding
  per-dict size the way a grace hash join bounds per-partition memory);
* **the sort / DISTINCT / LIMIT tail** calls the tree executor's own
  :func:`~repro.db.sql.executor.sort_result_rows`,
  :func:`~repro.db.sql.executor.distinct_rows` and
  :func:`~repro.db.sql.executor.limit_rows`, with the LIMIT operand
  inlined like any other expression;
* **mutations inline the engine** -- column validators become exact
  ``type(x) is T`` fast paths over the schema's fused closures, the
  no-secondary-index insert path writes the primary index bucket and
  the row store directly, mutation loops collect undo records locally
  and append them to the transaction log without a method call, and
  updates that touch no key column skip index maintenance.

Generated text is deterministic: the same plan against the same schema
yields byte-identical source (CI checks this), and every module can be
dumped for inspection via ``REPRO_DUMP_CODEGEN`` / ``--dump-codegen``.

Observable semantics match the tree executor bit-for-bit -- identical
StatementResults, notify charges, lock order, undo contents and MVCC
writer registration -- with two documented batch-evaluation caveats
(DESIGN.md, "Source codegen rung": the *Batch-at-a-time operators* and
*Hybrid hash join* paragraphs): when several expressions over
*different* rows can raise, batching can surface a different row's
error first, and join strategies are chosen from table sizes at
prepare time.  This rung is the default (``REPRO_SQL_EXEC=source``);
plans it cannot generate run on the tree executor, and
``PlanCacheStats.compiled_plans`` counts the ones it did.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional, Sequence

from repro.core.codegen import SourceWriter, maybe_dump_source, source_signature
from repro.db.engine import Database, Table, UndoRecord
from repro.db.errors import ExecutionError, IntegrityError
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
    AggregateSpec,
    DeletePlan,
    InsertPlan,
    Plan,
    Scope,
    SelectPlan,
    TableAccess,
    UpdatePlan,
    _like_matcher,
    extract_equi_conjuncts,
    scope_positions,
)

if False:  # pragma: no cover - import cycle guard for type checkers
    from repro.db.txn import Transaction

# Hash-build thresholds for the levels that build at all (the planner's
# ``hash`` / ``hash_scan`` classes), fixed at generation time from the
# inner table's size.  Below MIN_ROWS a hash build costs more than it
# saves (an index probe is already one dict lookup), so
# the generated code keeps nested-loop probes; at or past SPILL_ROWS the
# build partitions into HASH_JOIN_PARTITIONS separate dicts so no
# single table grows unboundedly (the in-memory analogue of a grace
# hash join's spill files).  Deterministic by construction: the
# decision depends only on len(table) at prepare time.
HASH_JOIN_MIN_ROWS = 16
HASH_JOIN_SPILL_ROWS = 4096
HASH_JOIN_PARTITIONS = 8


# SQL executor selection: "source" (the default) generates Python source
# text per plan (this module), falling back to the tree executor for a
# shape it does not emit; "tree" walks the planner's operator tree (the
# oracle).  Both produce bit-identical StatementResults.
SQL_EXEC_ENV_VAR = "REPRO_SQL_EXEC"
SQL_EXEC_MODES = ("tree", "source")
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


class PlanCodegenError(Exception):
    """The plan has a shape this generator does not emit, or lacks the
    metadata it needs (e.g. it was constructed by hand rather than by
    the planner); the statement runs on the tree executor instead."""


def _active_state():
    """TxnState.ACTIVE, imported lazily (txn.py imports engine.py; a
    top-level import here would not cycle today, but keeping the hot
    constant behind a function keeps the module dependency one-way)."""
    from repro.db.txn import TxnState

    return TxnState.ACTIVE


def _sql_like(value: Any, pattern: Any) -> Optional[bool]:
    """LIKE with both operands eagerly evaluated (matching the tree
    executor, which evaluates left and right before the NULL check)."""
    if value is None or pattern is None:
        return None
    return _like_matcher(pattern)(value)


def _sql_between(value: Any, low: Any, high: Any, negated: bool) -> Optional[bool]:
    """BETWEEN with all three operands eagerly evaluated (the tree
    executor evaluates value, low and high before any NULL check; an
    inlined and-chain would skip the later operands)."""
    if value is None or low is None or high is None:
        return None
    result = low <= value <= high
    return (not result) if negated else result


def _fold_agg(spec, values: list) -> _Aggregator:
    """Fold one aggregate over a materialized argument column; the
    caller takes ``result()`` once every per-row expression has run."""
    agg = _Aggregator(spec)
    add = agg.add_value
    for value in values:
        add(value)
    return agg


# -- the generator ------------------------------------------------------------


class _PlanCodegen:
    """Builds the generated module text plus its binding namespace.

    Runtime objects (index buckets, row stores, validators, helper
    functions) are captured once as closure cells: a module-level
    ``_make(...)`` receives them via stable ``_B<i>`` namespace keys
    and returns the two-argument ``run``, whose body references fast
    ``_g_<hint>`` cell names.  The emitted text stays
    byte-deterministic while the bindings carry live objects, and
    ``run(params, txn)`` pays no per-call binding cost (keyword-only
    defaults would re-fill every ``_g_`` name from a dict on each
    call -- measurable at microsecond statement latencies).
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self.w = SourceWriter()
        self._bind_names: list[str] = []      # _g_<hint> in bind order
        self._bind_objects: list[Any] = []    # same order; exec namespace
        self._bound: dict[tuple[int, str], str] = {}
        self._used_names: set[str] = set()
        self._temps = 0
        self._tbinds: dict[tuple[int, str], dict[str, str]] = {}
        self.join_meta: list[tuple[str, str]] = []
        self.join_header: Optional[str] = None

    # -- binding -------------------------------------------------------------

    def bind(self, obj: Any, hint: str) -> str:
        """Bind ``obj`` as a closure cell; returns its local name."""
        key = (id(obj), hint)
        existing = self._bound.get(key)
        if existing is not None:
            return existing
        name = f"_g_{hint}"
        if name in self._used_names:
            serial = 2
            while f"{name}_{serial}" in self._used_names:
                serial += 1
            name = f"{name}_{serial}"
        self._used_names.add(name)
        self._bound[key] = name
        self._bind_names.append(name)
        self._bind_objects.append(obj)
        return name

    def temp(self, prefix: str = "_t") -> str:
        self._temps += 1
        return f"{prefix}{self._temps}"

    def namespace(self) -> dict[str, Any]:
        return {
            f"_B{i}": obj for i, obj in enumerate(self._bind_objects)
        }

    # -- expression emission --------------------------------------------------

    def expr(
        self,
        ast: Expr,
        scope: Scope,
        row_ref: Optional[Callable[[ColumnRef], str]],
    ) -> str:
        """Emit ``ast`` as one Python expression string.

        ``row_ref`` maps a ColumnRef to its row-indexing expression
        (None in row-free contexts such as INSERT values, where a
        column reference is a generator bug guard).  NULL propagation,
        evaluation order and short-circuiting replicate the tree
        executor's compiled expressions exactly.
        """
        w = self.expr  # recursion shorthand
        if isinstance(ast, Literal):
            return repr(ast.value)
        if isinstance(ast, Parameter):
            return f"params[{ast.index}]"
        if isinstance(ast, ColumnRef):
            if row_ref is None:
                raise PlanCodegenError(
                    f"column {ast.column!r} in a row-free context"
                )
            return row_ref(ast)
        if isinstance(ast, UnaryOp):
            operand = w(ast.operand, scope, row_ref)
            t = self.temp()
            if ast.op == "-":
                return f"(None if ({t} := {operand}) is None else (-{t}))"
            if ast.op == "not":
                return (
                    f"(None if ({t} := {operand}) is None "
                    f"else (not bool({t})))"
                )
            raise PlanCodegenError(f"unknown unary operator {ast.op!r}")
        if isinstance(ast, BinaryOp):
            op = ast.op
            if op == "and":
                left = w(ast.left, scope, row_ref)
                right = w(ast.right, scope, row_ref)
                tl, tr = self.temp(), self.temp()
                # Right-associative conditional chain: evaluates left,
                # early-Falses without touching right, then evaluates
                # right -- the tree executor's exact order.
                return (
                    f"(False if ({tl} := {left}) is not None and not {tl} "
                    f"else False if ({tr} := {right}) is not None "
                    f"and not {tr} "
                    f"else None if {tl} is None or {tr} is None else True)"
                )
            if op == "or":
                left = w(ast.left, scope, row_ref)
                right = w(ast.right, scope, row_ref)
                tl, tr = self.temp(), self.temp()
                return (
                    f"(True if ({tl} := {left}) is not None and {tl} "
                    f"else True if ({tr} := {right}) is not None and {tr} "
                    f"else None if {tl} is None or {tr} is None else False)"
                )
            if op in ("=", "<>", "<", ">", "<=", ">="):
                py = {"=": "==", "<>": "!="}.get(op, op)
                left = w(ast.left, scope, row_ref)
                right = w(ast.right, scope, row_ref)
                tl, tr = self.temp(), self.temp()
                return (
                    f"(None if ({tl} := {left}) is None "
                    f"else None if ({tr} := {right}) is None "
                    f"else ({tl} {py} {tr}))"
                )
            if op in ("+", "-", "*", "/"):
                left = w(ast.left, scope, row_ref)
                right = w(ast.right, scope, row_ref)
                tl, tr = self.temp(), self.temp()
                return (
                    f"(None if ({tl} := {left}) is None "
                    f"else None if ({tr} := {right}) is None "
                    f"else ({tl} {op} {tr}))"
                )
            if op == "||":
                left = w(ast.left, scope, row_ref)
                right = w(ast.right, scope, row_ref)
                tl, tr = self.temp(), self.temp()
                return (
                    f"(None if ({tl} := {left}) is None "
                    f"else None if ({tr} := {right}) is None "
                    f"else (str({tl}) + str({tr})))"
                )
            if op == "like":
                like = self.bind(_sql_like, "like")
                left = w(ast.left, scope, row_ref)
                right = w(ast.right, scope, row_ref)
                return f"{like}({left}, {right})"
            raise PlanCodegenError(f"unknown binary operator {op!r}")
        if isinstance(ast, IsNull):
            operand = w(ast.operand, scope, row_ref)
            test = "is not None" if ast.negated else "is None"
            return f"(({operand}) {test})"
        if isinstance(ast, InList):
            operand = w(ast.operand, scope, row_ref)
            t = self.temp()
            if not ast.options:
                found = "False"
            else:
                found = " or ".join(
                    f"({t} == ({w(o, scope, row_ref)}))" for o in ast.options
                )
            if ast.negated:
                found = f"not ({found})"
            return f"(None if ({t} := {operand}) is None else ({found}))"
        if isinstance(ast, Between):
            between = self.bind(_sql_between, "between")
            value = w(ast.operand, scope, row_ref)
            low = w(ast.low, scope, row_ref)
            high = w(ast.high, scope, row_ref)
            return f"{between}({value}, {low}, {high}, {ast.negated!r})"
        if isinstance(ast, FuncCall):
            if ast.is_aggregate:
                raise PlanCodegenError(
                    f"aggregate {ast.name!r} not allowed in this context"
                )
            name = ast.name.lower()
            if name not in _SCALAR_FUNCS:
                raise PlanCodegenError(f"unknown function {ast.name!r}")
            fn = self.bind(_SCALAR_FUNCS[name], f"fn_{name}")
            args = ", ".join(w(a, scope, row_ref) for a in ast.args)
            return f"{fn}({args})"
        raise PlanCodegenError(f"cannot generate expression {ast!r}")

    def key_tuple(
        self,
        asts: Sequence[Expr],
        scope: Scope,
        row_ref: Optional[Callable[[ColumnRef], str]],
    ) -> str:
        """A tuple-display expression for index-key values."""
        if not asts:
            raise PlanCodegenError("empty key expression list")
        parts = [self.expr(a, scope, row_ref) for a in asts]
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    # -- row-reference contexts ----------------------------------------------

    def single_ref(
        self, scope: Scope, var: str = "row"
    ) -> Callable[[ColumnRef], str]:
        def ref(node: ColumnRef) -> str:
            _, offset = scope.resolve(node)
            return f"{var}[{offset}]"
        return ref

    def multi_ref(self, scope: Scope) -> Callable[[ColumnRef], str]:
        positions = scope_positions(scope)

        def ref(node: ColumnRef) -> str:
            binding, offset = scope.resolve(node)
            return f"_r{positions[binding]}[{offset}]"
        return ref

    # -- shared statement fragments -------------------------------------------

    def validator_expr(self, table: Table, offset: int, value: str) -> str:
        """Validate ``value`` (a simple name or indexing expression)
        with an exact-type fast path over the fused column validator.

        ``type(x) is int`` rejects bools (whose type is bool) and
        subclasses, so every value the fast path accepts is returned
        unchanged by the closure too; everything else -- None, floats
        into INTEGER columns, wrong types -- takes the closure and
        raises the exact original IntegrityError.
        """
        column = table.schema.columns[offset]
        validate = self.bind(column.validator, f"vd{offset}")
        fast = {
            "integer": "int",
            "float": "float",
            "text": "str",
            "boolean": "bool",
        }[column.type.value]
        return f"({value} if type({value}) is {fast} else {validate}({value}))"

    def emit_txn_check(self, lock_lines: list[str]) -> None:
        """The per-statement liveness / locking preamble: one state test
        without a lock manager, the statement's lock calls with one."""
        active = self.bind(_active_state(), "ACTIVE")
        w = self.w
        w.line("if txn is not None:")
        w.indent()
        w.line("if txn.lock_manager is None:")
        w.indent()
        w.line(f"if txn.state is not {active}:")
        w.indent()
        w.line("txn.ensure_active()")
        w.dedent()
        w.dedent()
        w.line("else:")
        w.indent()
        for line in lock_lines:
            w.line(line)
        w.dedent()
        w.dedent()

    def emit_record_undo(self, undo_var: str) -> None:
        """Inline record_undo_unchecked: the MVCC writer registration
        (one attribute test when MVCC is off), a list append, plus the
        redo capture call on replicated primaries."""
        w = self.w
        w.line("if txn is not None:")
        w.indent()
        w.line("if txn._mvcc is not None:")
        w.indent()
        w.line("txn._register_mvcc()")
        w.dedent()
        w.line(f"txn._undo.append({undo_var})")
        w.line("if txn._redo is not None:")
        w.indent()
        w.line(f"txn._capture_redo({undo_var})")
        w.dedent()
        w.dedent()

    def emit_notify(self, op: str, table_name: str, count: str) -> None:
        db = self.bind(self.database, "db")
        w = self.w
        w.line(f"if {db}.observer is not None:")
        w.indent()
        w.line(f"{db}.observer({op!r}, {table_name!r}, {count})")
        w.dedent()

    def emit_return_result(
        self, columns: str, rows: str, rowcount: str, touched: str
    ) -> None:
        """Allocate the StatementResult via ``__new__`` plus direct
        slot stores -- ~25% cheaper than calling the class, and one
        result is built per statement.  ``__init__``'s None-to-[]
        defaulting is resolved here at generation time (the literal
        ``"None"`` argument becomes a fresh ``[]``, exactly what
        ``__init__`` would build)."""
        sr_cls = self.bind(StatementResult, "SRC")
        new = self.bind(object.__new__, "NEW")
        w = self.w
        w.line(f"_r = {new}({sr_cls})")
        w.line(f"_r.columns = {'[]' if columns == 'None' else columns}")
        w.line(f"_r.rows = {'[]' if rows == 'None' else rows}")
        w.line(f"_r.rowcount = {rowcount}")
        w.line(f"_r.rows_touched = {touched}")
        w.line("return _r")

    def emit_undo_record(
        self, target: str, table_name: str, kind: str, before: str = "None"
    ) -> None:
        """Allocate an UndoRecord for the live ``rowid`` via ``__new__``
        plus direct slot stores (same rationale as
        :meth:`emit_return_result`: one record per mutated row)."""
        ur_cls = self.bind(UndoRecord, "URC")
        new = self.bind(object.__new__, "NEW")
        w = self.w
        w.line(f"{target} = {new}({ur_cls})")
        w.line(f"{target}.table = {table_name!r}")
        w.line(f"{target}.kind = {kind!r}")
        w.line(f"{target}.rowid = rowid")
        w.line(f"{target}.before = {before}")

    # -- SELECT ----------------------------------------------------------------

    def projection_tuple(
        self,
        plan: SelectPlan,
        scope: Scope,
        row_ref: Callable[[ColumnRef], str],
    ) -> str:
        """Output columns plus hidden sort-key slots as a tuple display
        (element order and evaluation order match the tree executor's
        projection)."""
        parts: list[str] = []
        for col in plan.columns:
            if col.expr is None:
                parts.append("None")
            else:
                if col.ast is None:
                    raise PlanCodegenError("output column source expression")
                parts.append(self.expr(col.ast, scope, row_ref))
        for key in plan.sort_keys:
            if key.expr is None:
                parts.append("None")
            else:
                if key.ast is None:
                    raise PlanCodegenError("sort key source expression")
                parts.append(self.expr(key.ast, scope, row_ref))
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    def _projection_is_pure(self, plan: SelectPlan) -> bool:
        """True when every output is a plain column reference and there
        are no hidden sort slots: projecting cannot raise, so running
        it as a separate batch after the residual filter cannot reorder
        which row's error surfaces."""
        if plan.sort_keys:
            return False
        return all(
            col.ast is not None and isinstance(col.ast, ColumnRef)
            for col in plan.columns
        )

    def _residual_expr(
        self,
        ta: TableAccess,
        scope: Scope,
        row_ref: Callable[[ColumnRef], str],
    ) -> Optional[str]:
        if ta.residual_ast is not None:
            return self.expr(ta.residual_ast, scope, row_ref)
        if ta.residual is not None:
            raise PlanCodegenError("residual source expression")
        return None

    def _emit_range_bounds(
        self,
        access: AccessPath,
        scope: Scope,
        row_ref: Optional[Callable[[ColumnRef], str]],
        lo_var: str,
        hi_var: str,
    ) -> tuple[str, str]:
        """Assign range-bound tuples (with the static MAX_KEY prefix
        extension) to ``lo_var`` / ``hi_var``; returns the inclusive
        flags as repr'd keyword text."""
        w = self.w
        if access.low_asts:
            w.line(f"{lo_var} = {self.key_tuple(access.low_asts, scope, row_ref)}")
        else:
            w.line(f"{lo_var} = None")
        if access.high_asts:
            w.line(f"{hi_var} = {self.key_tuple(access.high_asts, scope, row_ref)}")
            extend_high = len(access.high_asts) < access.index_width
            if extend_high:
                maxk = self.bind(MAX_KEY, "MAXK")
                w.line(f"if {hi_var} is not None:")
                w.indent()
                w.line(f"{hi_var} = {hi_var} + ({maxk},)")
                w.dedent()
            high_inclusive = True if extend_high else access.high_inclusive
        else:
            w.line(f"{hi_var} = None")
            high_inclusive = access.high_inclusive
        return repr(access.low_inclusive), repr(high_inclusive)

    def _table_binds(self, table: Table, level: str) -> dict[str, str]:
        """Common per-table bindings, suffixed for uniqueness by level.

        Cached per (table, level): bound methods are fresh objects on
        every attribute access, so the id-keyed bind() dedup alone
        would mint a second name for the same fetch."""
        cache_key = (id(table), level)
        cached = self._tbinds.get(cache_key)
        if cached is None:
            store = table.row_store
            cached = {
                "rows": self.bind(store, f"rows{level}"),
                "fetch": self.bind(store.get, f"fetch{level}"),
            }
            self._tbinds[cache_key] = cached
        return cached

    def _secondary(self, table: Table, access: AccessPath):
        if access.index_name is None:
            raise PlanCodegenError("index name")
        index = table.secondary.get(access.index_name)
        if index is None:
            raise PlanCodegenError(f"index {access.index_name!r}")
        return index

    def _emit_single_batch(
        self,
        ta: TableAccess,
        table: Table,
        scope: Scope,
        residual: Optional[str],
        match_var: str,
    ) -> None:
        """Materialize the residual-filtered batch for one table into
        ``match_var`` and the fetch count into ``touched`` (batch
        operators: access, then filter, each one comprehension)."""
        w = self.w
        access = ta.access
        kind = access.kind
        binds = self._table_binds(table, "0")
        if kind == "pk":
            pkb = self.bind(table.primary_index.buckets, "pkb0")
            key = self.key_tuple(access.key_asts, scope, None)
            w.line(f"{match_var} = []")
            w.line("touched = 0")
            w.line(f"rowid = {pkb}.get({key})")
            w.line("if rowid is not None:")
            w.indent()
            w.line(f"row = {binds['fetch']}(rowid)")
            w.line("if row is not None:")
            w.indent()
            w.line("touched = 1")
            if residual is not None:
                w.line(f"if ({residual}):")
                w.indent()
            w.line(f"{match_var}.append(row)")
            if residual is not None:
                w.dedent()
            w.dedent()
            w.dedent()
            return
        if kind == "scan":
            w.line(f"touched = len({binds['rows']})")
            if residual is not None:
                w.line(
                    f"{match_var} = [row for row in {binds['rows']}.values() "
                    f"if ({residual})]"
                )
            else:
                w.line(f"{match_var} = list({binds['rows']}.values())")
            return
        if kind == "index_eq":
            index = self._secondary(table, access)
            lookup = self.bind(index.lookup_sorted, "lookup0")
            key = self.key_tuple(access.key_asts, scope, None)
            w.line(
                f"batch = [row for row in map({binds['fetch']}, "
                f"{lookup}({key})) if row is not None]"
            )
            w.line("touched = len(batch)")
            if residual is not None:
                w.line(f"{match_var} = [row for row in batch if ({residual})]")
            else:
                w.line(f"{match_var} = batch")
            return
        if kind == "index_range":
            index = self._secondary(table, access)
            if not isinstance(index, OrderedIndex):  # pragma: no cover
                raise ExecutionError(
                    f"index {access.index_name!r} does not support ranges"
                )
            range_fn = self.bind(index.range_rowids, "range0")
            lo_inc, hi_inc = self._emit_range_bounds(
                access, scope, None, "_lo0", "_hi0"
            )
            w.line(
                f"batch = [row for row in map({binds['fetch']}, "
                f"{range_fn}(_lo0, _hi0, low_inclusive={lo_inc}, "
                f"high_inclusive={hi_inc})) if row is not None]"
            )
            w.line("touched = len(batch)")
            if residual is not None:
                w.line(f"{match_var} = [row for row in batch if ({residual})]")
            else:
                w.line(f"{match_var} = batch")
            return
        raise ExecutionError(f"unknown access kind {kind!r}")

    def emit_select(self, plan: SelectPlan) -> None:
        scope = plan.scope
        if scope is None:
            raise PlanCodegenError("plan is missing scope")
        if not plan.tables:
            raise PlanCodegenError("select without tables")
        aggregate = bool(plan.aggregates or plan.group_exprs)
        if len(plan.tables) == 1 and not aggregate:
            self._emit_select_single(plan, scope)
        elif len(plan.tables) == 1 and aggregate and not plan.group_exprs:
            self._emit_select_fold(plan, scope)
        else:
            self._emit_select_generic(plan, scope, aggregate)

    def _select_prologue(self, plan: SelectPlan) -> tuple[str, str, list[str]]:
        """Lock preamble plus the shared column-name list and the
        sort / DISTINCT / LIMIT tail; returns (first table name, names
        binding, tail lines -- empty when there is nothing to do)."""
        aggregate = bool(plan.aggregates or plan.group_exprs)
        first = plan.tables[0].table_name
        self.emit_txn_check(
            [
                f"txn.lock_table({name!r}, exclusive=False)"
                for name in plan.lock_tables
            ]
        )
        names = self.bind(list(plan.column_names), "names")
        hidden = 0 if aggregate else len(plan.sort_keys)
        tail: list[str] = []
        if plan.sort_keys or hidden:
            sort = self.bind(sort_result_rows, "sort")
            tail.append(
                f"rows = {sort}({self.bind(plan, 'plan')}, rows, {hidden})"
            )
        if plan.distinct:
            tail.append(f"rows = {self.bind(distinct_rows, 'distinct')}(rows)")
        if plan.limit_ast is not None:
            assert plan.scope is not None
            count = self.expr(plan.limit_ast, plan.scope, None)
            tail.append(f"rows = {self.bind(limit_rows, 'limit')}(rows, {count})")
        elif plan.limit is not None:
            raise PlanCodegenError("limit source expression")
        return first, names, tail

    def _emit_select_tail(
        self, first: str, names: str, tail: list[str], touched: str
    ) -> None:
        w = self.w
        for line in tail:
            w.line(line)
        self.emit_notify("select", first, touched)
        self.emit_return_result(names, "rows", "len(rows)", touched)

    def _emit_select_single(self, plan: SelectPlan, scope: Scope) -> None:
        ta = plan.tables[0]
        table = self.database.table(ta.table_name)
        row_ref = self.single_ref(scope)
        residual = self._residual_expr(ta, scope, row_ref)
        first, names, tail = self._select_prologue(plan)
        w = self.w
        access = ta.access

        if access.kind == "pk":
            # Point SELECT: straight-line probe, inline projection.
            if not access.key_asts:
                raise PlanCodegenError("pk key expressions")
            binds = self._table_binds(table, "0")
            pkb = self.bind(table.primary_index.buckets, "pkb0")
            key = self.key_tuple(access.key_asts, scope, None)
            proj = self.projection_tuple(plan, scope, row_ref)
            if not tail:
                # No post-processing: each outcome returns directly
                # with constant rowcounts (the TPC-C hot shape -- no
                # merge variables, no len() call, no empty-list
                # allocation on the hit path).
                w.line(f"rowid = {pkb}.get({key})")
                w.line("if rowid is not None:")
                w.indent()
                w.line(f"row = {binds['fetch']}(rowid)")
                w.line("if row is not None:")
                w.indent()
                if residual is not None:
                    w.line(f"if ({residual}):")
                    w.indent()
                self.emit_notify("select", first, "1")
                self.emit_return_result(names, f"[{proj}]", "1", "1")
                if residual is not None:
                    w.dedent()
                    # Row found but filtered out: touched, no rows.
                    self.emit_notify("select", first, "1")
                    self.emit_return_result(names, "[]", "0", "1")
                w.dedent()
                w.dedent()
                self.emit_notify("select", first, "0")
                self.emit_return_result(names, "[]", "0", "0")
                return
            w.line("touched = 0")
            w.line("rows = []")
            w.line(f"rowid = {pkb}.get({key})")
            w.line("if rowid is not None:")
            w.indent()
            w.line(f"row = {binds['fetch']}(rowid)")
            w.line("if row is not None:")
            w.indent()
            w.line("touched = 1")
            if residual is not None:
                w.line(f"if ({residual}):")
                w.indent()
            w.line(f"rows = [{proj}]")
            if residual is not None:
                w.dedent()
            w.dedent()
            w.dedent()
            self._emit_select_tail(first, names, tail, "touched")
            return

        pure = self._projection_is_pure(plan)
        if not plan.batch_eligible:
            raise PlanCodegenError("single-table select not batch eligible")
        if residual is None or pure:
            # Batch pipeline: materialize, filter, project -- each one
            # comprehension over the previous batch.
            self._emit_single_batch(ta, table, scope, residual, "match")
            proj = self.projection_tuple(plan, scope, row_ref)
            w.line(f"rows = [{proj} for row in match]")
        else:
            # Computed projection behind a filter: fuse into one loop so
            # a raising projection surfaces at the same row it would in
            # the tree executor.
            self._emit_single_batch(ta, table, scope, None, "batch")
            proj = self.projection_tuple(plan, scope, row_ref)
            w.line("rows = []")
            w.line("_ap = rows.append")
            w.line("for row in batch:")
            w.indent()
            w.line(f"if ({residual}):")
            w.indent()
            w.line(f"_ap({proj})")
            w.dedent()
            w.dedent()
        self._emit_select_tail(first, names, tail, "touched")

    def _emit_select_fold(self, plan: SelectPlan, scope: Scope) -> None:
        """Single-table aggregates without GROUP BY: materialize the
        matching batch once, then fold each aggregate over its argument
        column (batch-at-a-time aggregation)."""
        ta = plan.tables[0]
        table = self.database.table(ta.table_name)
        row_ref = self.single_ref(scope)
        residual = self._residual_expr(ta, scope, row_ref)
        first, names, tail = self._select_prologue(plan)
        w = self.w
        self._emit_single_batch(ta, table, scope, residual, "match")

        # Argument rows evaluate row-major (all aggregate arguments per
        # row, in spec order) so per-row evaluation order matches the
        # tree executor; the folds then consume per-spec columns.
        arg_specs = [
            (i, spec) for i, spec in enumerate(plan.aggregates)
            if spec.arg is not None
        ]
        for _, spec in arg_specs:
            if spec.arg_ast is None:
                raise PlanCodegenError("aggregate source expression")
        if arg_specs:
            parts = [
                self.expr(spec.arg_ast, scope, row_ref)
                for _, spec in arg_specs
            ]
            tup = (
                "(" + ", ".join(parts)
                + ("," if len(parts) == 1 else "") + ")"
            )
            w.line(f"_argrows = [{tup} for row in match]")
        fold = self.bind(_fold_agg, "fold") if arg_specs else None
        for column, (i, spec) in enumerate(arg_specs):
            spec_name = self.bind(spec, f"agg{i}")
            w.line(
                f"_a{i} = {fold}({spec_name}, "
                f"[_av[{column}] for _av in _argrows])"
            )
        for i, spec in enumerate(plan.aggregates):
            if spec.arg is None:
                w.line(f"_a{i} = len(match)")

        extras = [
            (j, col) for j, col in enumerate(plan.columns)
            if col.aggregate_index is None and col.expr is not None
        ]
        if extras:
            # The tree executor evaluates extras on the group's first
            # row only (with no GROUP BY, the first match), while it
            # folds -- before any aggregate's result(), whose errors
            # (AVG over text) therefore come second.
            w.line("if match:")
            w.indent()
            w.line("row = match[0]")
            for j, col in extras:
                if col.ast is None:
                    raise PlanCodegenError("output column source expression")
                w.line(f"_e{j} = {self.expr(col.ast, scope, row_ref)}")
            w.dedent()
            w.line("else:")
            w.indent()
            for j, _ in extras:
                w.line(f"_e{j} = None")
            w.dedent()
        values: list[str] = []
        for j, col in enumerate(plan.columns):
            if col.aggregate_index is not None:
                index = col.aggregate_index
                folded = plan.aggregates[index].arg is not None
                values.append(f"_a{index}.result()" if folded else f"_a{index}")
            elif col.expr is not None:
                values.append(f"_e{j}")
            else:  # pragma: no cover - defensive, mirrors the tree
                values.append("None")
        tup = (
            "(" + ", ".join(values)
            + ("," if len(values) == 1 else "") + ")"
        )
        w.line(f"rows = [{tup}]")
        self._emit_select_tail(first, names, tail, "touched")

    # -- joins ----------------------------------------------------------------

    def _choose_strategy(self, ta: TableAccess, table: Table) -> str:
        """Resolve the planner's static strategy class for one join
        level against the inner table's current size (a prepare-time
        snapshot, like every other binding a prepared plan carries).
        Hash candidates degrade to scan/nested below MIN_ROWS and
        upgrade to partitioned spill builds at SPILL_ROWS."""
        static = ta.join_strategy
        if static in ("driver", "lookup", "scan", "nested"):
            return static
        size = len(table)
        if static == "hash_scan":
            if size < HASH_JOIN_MIN_ROWS:
                return "scan"
            if size >= HASH_JOIN_SPILL_ROWS:
                return "hash_scan_spill"
            return "hash_scan"
        if static != "hash":
            raise PlanCodegenError(f"unknown join strategy {static!r}")
        if size < HASH_JOIN_MIN_ROWS:
            return "nested"
        if size >= HASH_JOIN_SPILL_ROWS:
            return "hash_spill"
        return "hash"

    def _emit_join_prelude(
        self,
        level: int,
        ta: TableAccess,
        table: Table,
        scope: Scope,
        strategy: str,
        equi: Optional[tuple[list[int], list[str]]] = None,
    ) -> None:
        """Hoisted work for one level: candidate lists for constant
        probes and full scans, hash-table builds for hash joins."""
        w = self.w
        access = ta.access
        binds = self._table_binds(table, str(level))
        if strategy == "scan":
            w.line(f"_c{level} = list({binds['rows']}.values())")
            return
        if strategy in ("hash_scan", "hash_scan_spill"):
            # Build over the scanned rows, keyed by the peeled equality
            # columns.  SQL `=` never matches NULL, so rows with a NULL
            # key column stay out of the table; every scanned row still
            # counts as a probed candidate via _n<level>.
            assert equi is not None
            offsets, _ = equi
            spill = strategy == "hash_scan_spill"
            mask = HASH_JOIN_PARTITIONS - 1
            key = (
                "(" + ", ".join(f"_hr[{o}]" for o in offsets)
                + ("," if len(offsets) == 1 else "") + ")"
            )
            null_test = " or ".join(
                f"_hk[{i}] is None" for i in range(len(offsets))
            )
            w.line(f"_n{level} = len({binds['rows']})")
            if spill:
                w.line(
                    f"_h{level} = [{{}} for _ in "
                    f"range({HASH_JOIN_PARTITIONS})]"
                )
            else:
                w.line(f"_h{level} = {{}}")
            w.line(f"for _hr in {binds['rows']}.values():")
            w.indent()
            w.line(f"_hk = {key}")
            w.line(f"if {null_test}:")
            w.indent()
            w.line("continue")
            w.dedent()
            if spill:
                w.line(f"_hp = _h{level}[hash(_hk) & {mask}]")
            else:
                w.line(f"_hp = _h{level}")
            w.line("_hb = _hp.get(_hk)")
            w.line("if _hb is None:")
            w.indent()
            w.line("_hp[_hk] = [_hr]")
            w.dedent()
            w.line("else:")
            w.indent()
            w.line("_hb.append(_hr)")
            w.dedent()
            w.dedent()
            # Buckets keep row-store insertion order, which is exactly
            # the order the nested scan loop would visit matches in.
            return
        if strategy == "lookup":
            if access.kind == "pk":
                pkget = self.bind(
                    table.primary_index.get_unique, f"pkget{level}"
                )
                key = self.key_tuple(access.key_asts, scope, None)
                w.line(f"_c{level} = []")
                w.line(f"_cr{level} = {pkget}({key})")
                w.line(f"if _cr{level} is not None:")
                w.indent()
                w.line(f"_cw{level} = {binds['fetch']}(_cr{level})")
                w.line(f"if _cw{level} is not None:")
                w.indent()
                w.line(f"_c{level}.append(_cw{level})")
                w.dedent()
                w.dedent()
                return
            if access.kind == "index_eq":
                index = self._secondary(table, access)
                lookup = self.bind(index.lookup_sorted, f"lookup{level}")
                key = self.key_tuple(access.key_asts, scope, None)
                w.line(
                    f"_c{level} = [_cw{level} for _cw{level} in "
                    f"map({binds['fetch']}, {lookup}({key})) "
                    f"if _cw{level} is not None]"
                )
                return
            if access.kind == "index_range":
                index = self._secondary(table, access)
                if not isinstance(index, OrderedIndex):  # pragma: no cover
                    raise ExecutionError(
                        f"index {access.index_name!r} does not support ranges"
                    )
                range_fn = self.bind(index.range_rowids, f"range{level}")
                lo_inc, hi_inc = self._emit_range_bounds(
                    access, scope, None, f"_lo{level}", f"_hi{level}"
                )
                w.line(
                    f"_c{level} = [_cw{level} for _cw{level} in "
                    f"map({binds['fetch']}, {range_fn}(_lo{level}, "
                    f"_hi{level}, low_inclusive={lo_inc}, "
                    f"high_inclusive={hi_inc})) if _cw{level} is not None]"
                )
                return
            raise ExecutionError(f"unknown access kind {access.kind!r}")
        if strategy in ("hash", "hash_spill"):
            spill = strategy == "hash_spill"
            mask = HASH_JOIN_PARTITIONS - 1
            if access.kind == "pk":
                offsets = table.schema.primary_key_offsets()
                key = (
                    "(" + ", ".join(f"_hr[{o}]" for o in offsets)
                    + ("," if len(offsets) == 1 else "") + ")"
                )
                if spill:
                    w.line(
                        f"_h{level} = [{{}} for _ in "
                        f"range({HASH_JOIN_PARTITIONS})]"
                    )
                    w.line(f"for _hr in {binds['rows']}.values():")
                    w.indent()
                    w.line(f"_hk = {key}")
                    w.line(f"_h{level}[hash(_hk) & {mask}][_hk] = _hr")
                    w.dedent()
                else:
                    w.line(f"_h{level} = {{}}")
                    w.line(f"for _hr in {binds['rows']}.values():")
                    w.indent()
                    w.line(f"_h{level}[{key}] = _hr")
                    w.dedent()
                return
            if access.kind == "index_eq":
                index = self._secondary(table, access)
                offsets = table._index_offsets[access.index_name]
                key = (
                    "(" + ", ".join(f"_hr[{o}]" for o in offsets)
                    + ("," if len(offsets) == 1 else "") + ")"
                )
                if spill:
                    w.line(
                        f"_h{level} = [{{}} for _ in "
                        f"range({HASH_JOIN_PARTITIONS})]"
                    )
                    w.line(f"for _hx, _hr in {binds['rows']}.items():")
                    w.indent()
                    w.line(f"_hk = {key}")
                    w.line(f"_hp = _h{level}[hash(_hk) & {mask}]")
                    w.line("_hb = _hp.get(_hk)")
                    w.line("if _hb is None:")
                    w.indent()
                    w.line("_hp[_hk] = [(_hx, _hr)]")
                    w.dedent()
                    w.line("else:")
                    w.indent()
                    w.line("_hb.append((_hx, _hr))")
                    w.dedent()
                    w.dedent()
                    w.line(f"for _hp in _h{level}:")
                    w.indent()
                    w.line("for _hb in _hp.values():")
                    w.indent()
                    w.line("_hb.sort()")
                    w.dedent()
                    w.dedent()
                else:
                    w.line(f"_h{level} = {{}}")
                    w.line(f"for _hx, _hr in {binds['rows']}.items():")
                    w.indent()
                    w.line(f"_hk = {key}")
                    w.line(f"_hb = _h{level}.get(_hk)")
                    w.line("if _hb is None:")
                    w.indent()
                    w.line(f"_h{level}[_hk] = [(_hx, _hr)]")
                    w.dedent()
                    w.line("else:")
                    w.indent()
                    w.line("_hb.append((_hx, _hr))")
                    w.dedent()
                    w.dedent()
                    # Probe order must match lookup_sorted: ascending
                    # rowid within a key (rowids are unique, so the
                    # pair sort never compares rows).
                    w.line(f"for _hb in _h{level}.values():")
                    w.indent()
                    w.line("_hb.sort()")
                    w.dedent()
                return
            raise PlanCodegenError(
                f"hash join over access kind {access.kind!r}"
            )

    def _emit_join_level(
        self,
        idx: int,
        levels: list,
        scope: Scope,
        consume: Callable[[], None],
    ) -> None:
        if idx == len(levels):
            consume()
            return
        ta, table, residual, pos, strategy, equi = levels[idx]
        w = self.w
        rv = f"_r{pos}"
        multi = self.multi_ref(scope)
        access = ta.access

        def body() -> None:
            w.line("touched += 1")
            if residual is not None:
                w.line(f"if ({residual}):")
                w.indent()
                self._emit_join_level(idx + 1, levels, scope, consume)
                w.dedent()
            else:
                self._emit_join_level(idx + 1, levels, scope, consume)

        if strategy in ("hash_scan", "hash_scan_spill"):
            # Every scanned row is a candidate the nested loop would
            # have touched; count them in bulk, then visit only the
            # hash matches.  A NULL in the probe key matches nothing
            # (SQL `=`), mirroring the skipped NULL build keys.
            assert equi is not None
            _, probe_parts = equi
            probe = (
                "(" + ", ".join(probe_parts)
                + ("," if len(probe_parts) == 1 else "") + ")"
            )
            null_test = " and ".join(
                f"_pk{idx}[{i}] is not None"
                for i in range(len(probe_parts))
            )
            w.line(f"touched += _n{idx}")
            w.line(f"_pk{idx} = {probe}")
            w.line(f"if {null_test}:")
            w.indent()
            if strategy == "hash_scan_spill":
                mask = HASH_JOIN_PARTITIONS - 1
                w.line(
                    f"for {rv} in _h{idx}[hash(_pk{idx}) & {mask}]"
                    f".get(_pk{idx}, ()):"
                )
            else:
                w.line(f"for {rv} in _h{idx}.get(_pk{idx}, ()):")
            w.indent()
            if residual is not None:
                w.line(f"if {residual}:")
                w.indent()
                self._emit_join_level(idx + 1, levels, scope, consume)
                w.dedent()
            else:
                self._emit_join_level(idx + 1, levels, scope, consume)
            w.dedent()
            w.dedent()
            return
        if strategy in ("scan", "lookup"):
            w.line(f"for {rv} in _c{idx}:")
            w.indent()
            body()
            w.dedent()
            return
        if strategy == "hash":
            key = self.key_tuple(access.key_asts, scope, multi)
            if access.kind == "pk":
                w.line(f"{rv} = _h{idx}.get({key})")
                w.line(f"if {rv} is not None:")
                w.indent()
                body()
                w.dedent()
            else:
                w.line(f"for _x{idx}, {rv} in _h{idx}.get({key}, ()):")
                w.indent()
                body()
                w.dedent()
            return
        if strategy == "hash_spill":
            mask = HASH_JOIN_PARTITIONS - 1
            key = self.key_tuple(access.key_asts, scope, multi)
            w.line(f"_hk{idx} = {key}")
            if access.kind == "pk":
                w.line(
                    f"{rv} = _h{idx}[hash(_hk{idx}) & {mask}].get(_hk{idx})"
                )
                w.line(f"if {rv} is not None:")
                w.indent()
                body()
                w.dedent()
            else:
                w.line(
                    f"for _x{idx}, {rv} in _h{idx}[hash(_hk{idx}) "
                    f"& {mask}].get(_hk{idx}, ()):"
                )
                w.indent()
                body()
                w.dedent()
            return
        # driver / nested: direct access-path probes (the tree
        # executor's candidate loops, inlined).
        binds = self._table_binds(table, str(idx))
        kind = access.kind
        if kind == "scan":
            w.line(f"for {rv} in {binds['rows']}.values():")
            w.indent()
            body()
            w.dedent()
            return
        if kind == "pk":
            if not access.key_asts:
                raise PlanCodegenError("pk key expressions")
            pkget = self.bind(table.primary_index.get_unique, f"pkget{idx}")
            key = self.key_tuple(access.key_asts, scope, multi)
            w.line(f"_prid{idx} = {pkget}({key})")
            w.line(f"if _prid{idx} is not None:")
            w.indent()
            w.line(f"{rv} = {binds['fetch']}(_prid{idx})")
            w.line(f"if {rv} is not None:")
            w.indent()
            body()
            w.dedent()
            w.dedent()
            return
        if kind == "index_eq":
            index = self._secondary(table, access)
            if not access.key_asts:
                raise PlanCodegenError("index key expressions")
            lookup = self.bind(index.lookup_sorted, f"lookup{idx}")
            key = self.key_tuple(access.key_asts, scope, multi)
            w.line(f"for _x{idx} in {lookup}({key}):")
            w.indent()
            w.line(f"{rv} = {binds['fetch']}(_x{idx})")
            w.line(f"if {rv} is not None:")
            w.indent()
            body()
            w.dedent()
            w.dedent()
            return
        if kind == "index_range":
            index = self._secondary(table, access)
            if not isinstance(index, OrderedIndex):  # pragma: no cover
                raise ExecutionError(
                    f"index {access.index_name!r} does not support ranges"
                )
            range_fn = self.bind(index.range_rowids, f"range{idx}")
            lo_inc, hi_inc = self._emit_range_bounds(
                access, scope, multi, f"_lo{idx}", f"_hi{idx}"
            )
            w.line(
                f"for _x{idx} in {range_fn}(_lo{idx}, _hi{idx}, "
                f"low_inclusive={lo_inc}, high_inclusive={hi_inc}):"
            )
            w.indent()
            w.line(f"{rv} = {binds['fetch']}(_x{idx})")
            w.line(f"if {rv} is not None:")
            w.indent()
            body()
            w.dedent()
            w.dedent()
            return
        raise ExecutionError(f"unknown access kind {kind!r}")

    def _emit_select_generic(
        self, plan: SelectPlan, scope: Scope, aggregate: bool
    ) -> None:
        """Joins and/or aggregation: generated nested candidate loops
        with per-level hybrid hash strategies."""
        first, names, tail = self._select_prologue(plan)
        w = self.w
        positions = scope_positions(scope)
        multi = self.multi_ref(scope)
        levels: list = []
        for L, ta in enumerate(plan.tables):
            table = self.database.table(ta.table_name)
            strategy = self._choose_strategy(ta, table)
            equi = None
            if strategy in ("hash_scan", "hash_scan_spill"):
                # A scanned inner table is the nested-loop worst case;
                # peel the equality conjuncts off its residual and turn
                # the scan into a hash-join build + probe.
                extracted = extract_equi_conjuncts(
                    ta, scope, positions[ta.binding]
                )
                if extracted is None:
                    raise PlanCodegenError(
                        f"hash_scan strategy without equi conjuncts on "
                        f"{ta.binding!r}"
                    )
                build_offsets, probe_asts, leftover = extracted
                probe_parts = [
                    self.expr(a, scope, multi) for a in probe_asts
                ]
                equi = (build_offsets, probe_parts)
                residual = " and ".join(
                    f"({self.expr(c, scope, multi)})" for c in leftover
                ) or None
            else:
                residual = self._residual_expr(ta, scope, multi)
            levels.append(
                (ta, table, residual, positions[ta.binding], strategy, equi)
            )
            self.join_meta.append((ta.binding, strategy))
        if len(levels) > 1:
            # Why this order and these strategies, readable from a dump.
            self.join_header = " | ".join(
                f"{ta.binding} {ta.access.kind} {strategy} "
                f"rank={ta.join_rank}"
                for ta, _, _, _, strategy, _ in levels
            )

        w.line("touched = 0")
        for L, (ta, table, _, _, strategy, equi) in enumerate(levels):
            self._emit_join_prelude(L, ta, table, scope, strategy, equi)

        if not aggregate:
            proj = self.projection_tuple(plan, scope, multi)
            w.line("out = []")
            w.line("_ap = out.append")

            def consume() -> None:
                w.line(f"_ap({proj})")

            self._emit_join_level(0, levels, scope, consume)
            w.line("rows = out")
            self._emit_select_tail(first, names, tail, "touched")
            return

        # Aggregation (with or without GROUP BY).  Each group is one
        # list ``_ge``: the non-aggregate output values (taken from the
        # group's first row), then each aggregate's fold slots.
        if len(plan.group_asts) != len(plan.group_exprs):
            raise PlanCodegenError("group expressions")
        extra_exprs: list[str] = []
        for col in plan.columns:
            if col.aggregate_index is None and col.expr is not None:
                if col.ast is None:
                    raise PlanCodegenError("output column source expression")
                extra_exprs.append(self.expr(col.ast, scope, multi))
        init = ["None"] * len(extra_exprs)
        folds: list[str] = []
        results: list[str] = []
        for i, spec in enumerate(plan.aggregates):
            s = len(init)
            inline = self._inline_fold(spec, s, scope, multi)
            if inline is None:
                if spec.arg_ast is None:
                    raise PlanCodegenError("aggregate source expression")
                agg_cls = self.bind(_Aggregator, "AG")
                arg = self.expr(spec.arg_ast, scope, multi)
                inline = (
                    [f"{agg_cls}({self.bind(spec, f'agg{i}')})"],
                    [f"_ge[{s}].add_value({arg})"],
                    f"_ge[{s}].result()",
                )
            init += inline[0]
            folds += inline[1]
            results.append(inline[2])
        new_entry = "[" + ", ".join(init) + "]"
        group_parts = [
            self.expr(g, scope, multi) for g in plan.group_asts
        ]
        if not group_parts:
            group_key = "()"
        else:
            group_key = (
                "(" + ", ".join(group_parts)
                + ("," if len(group_parts) == 1 else "") + ")"
            )
            # Column values are validated int / float / str / bool /
            # None (or subclasses): already their own hashable key.
            if not all(isinstance(g, ColumnRef) for g in plan.group_asts):
                hashkey = self.bind(hashable_group_key, "hashkey")
                group_key = f"{hashkey}({group_key})"

        def emit_folds() -> None:
            for line in folds:
                w.line(line)

        w.line("groups = {}")

        def agg_consume() -> None:
            w.line(f"_gk = {group_key}")
            w.line("_ge = groups.get(_gk)")
            w.line("if _ge is None:")
            w.indent()
            w.line(f"_ge = groups[_gk] = {new_entry}")
            if extra_exprs:
                # First row of the group: fold, then capture the
                # output values (the tree executor's evaluation order).
                emit_folds()
                for k, expr_text in enumerate(extra_exprs):
                    w.line(f"_ge[{k}] = {expr_text}")
                w.dedent()
                w.line("else:")
                w.indent()
                emit_folds()
                w.dedent()
            else:
                w.dedent()
                emit_folds()

        self._emit_join_level(0, levels, scope, agg_consume)

        if not group_parts:
            # Aggregates over empty input still yield one row.
            w.line("if not groups:")
            w.indent()
            w.line(f"groups[()] = {new_entry}")
            w.dedent()
        values: list[str] = []
        extra_slot = 0
        for col in plan.columns:
            if col.aggregate_index is not None:
                values.append(results[col.aggregate_index])
            elif col.expr is not None:
                values.append(f"_ge[{extra_slot}]")
                extra_slot += 1
            else:  # pragma: no cover - defensive, mirrors the tree
                values.append("None")
        tup = (
            "(" + ", ".join(values)
            + ("," if len(values) == 1 else "") + ")"
        )
        w.line(f"rows = [{tup} for _ge in groups.values()]")
        self._emit_select_tail(first, names, tail, "touched")

    def _inline_fold(
        self, spec: AggregateSpec, s: int, scope: Scope,
        row_ref: Callable[[ColumnRef], str],
    ) -> Optional[tuple[list[str], list[str], str]]:
        """(initial slot values, fold lines, result expression) for one
        aggregate kept in slot ``s`` (and ``s + 1`` for AVG's count) of
        the group list, or None when it needs an ``_Aggregator``:
        DISTINCT, or an argument that is an expression.  Operands and
        their order are ``_Aggregator.add_value``'s, so float results
        are identical."""
        slot = f"_ge[{s}]"
        if spec.arg is None:
            return ["0"], [f"{slot} += 1"], slot
        if spec.distinct or not isinstance(spec.arg_ast, ColumnRef):
            return None
        func = spec.func
        lines = [
            f"_av = {self.expr(spec.arg_ast, scope, row_ref)}",
            "if _av is not None:",
        ]
        if func == "count":
            return ["0"], lines + [f"    {slot} += 1"], slot
        if func in ("min", "max"):
            op = "<" if func == "min" else ">"
            return ["None"], lines + [
                f"    _at = {slot}",
                f"    if _at is None or _av {op} _at:",
                f"        {slot} = _av",
            ], slot
        count = f"_ge[{s + 1}]"
        if func == "avg":
            lines.append(f"    {count} += 1")
        lines += [
            f"    _at = {slot}",
            f"    {slot} = _av if _at is None else _at + _av",
        ]
        if func == "sum":
            return ["None"], lines, slot
        return ["None", "0"], lines, (
            f"(None if {count} == 0 else {slot} / {count})"
        )

    # -- INSERT ----------------------------------------------------------------

    def _emit_insert_commit(self, plan: InsertPlan, table: Table) -> None:
        """Key checks, index insert, row store write and undo record
        for an already-validated ``row`` tuple.

        Tables without secondary indexes (most of them) get the engine's
        no-rollback fast path fully inlined: the duplicate-key probe
        plus a fresh-bucket primary-index insert plus one dict store.
        Non-unique secondary indexes cannot raise on insert, so those
        inline too (key tuple from row offsets plus one index.insert
        call each); only a *unique* secondary index keeps the engine
        call, so its half-failure rollback stays in one place."""
        w = self.w
        name = plan.table_name
        if any(index.unique for index in table.secondary.values()):
            insv = self.bind(table.insert_validated, "insv")
            w.line(f"undo = {insv}(row)[1]")
        else:
            tbl = self.bind(table, "tbl")
            pki = self.bind(table.primary_index, "pki")
            pkm = self.bind(table.primary_index.buckets, "pkm")
            rows_name = self._table_binds(table, "t")["rows"]
            ie = self.bind(IntegrityError, "IE")
            offsets = table.schema.primary_key_offsets()
            key = (
                "(" + ", ".join(f"row[{o}]" for o in offsets)
                + ("," if len(offsets) == 1 else "") + ")"
            )
            w.line(f"_pk = {key}")
            null_test = " or ".join(
                f"_pk[{i}] is None" for i in range(len(offsets))
            )
            w.line(f"if {null_test}:")
            w.indent()
            w.line(
                f"raise {ie}("
                f"{f'primary key of {name!r} cannot contain NULL'!r})"
            )
            w.dedent()
            w.line(f"if _pk in {pkm}:")
            w.indent()
            w.line(
                f"raise {ie}(f\"duplicate primary key {{_pk!r}} "
                f"in table '{name}'\")"
            )
            w.dedent()
            w.line(f"rowid = next({tbl}._next_rowid)")
            # Fresh-key HashIndex.insert: the duplicate probe above
            # guarantees the bucket does not exist, and a one-row
            # bucket is the bare rowid.
            w.line(f"{pkm}[_pk] = rowid")
            w.line(f"{pki}._entries += 1")
            for iname, index in table.secondary.items():
                ins = self.bind(index.insert, f"ins_{iname}")
                ioffsets = table._index_offsets[iname]
                ikey = (
                    "(" + ", ".join(f"row[{o}]" for o in ioffsets)
                    + ("," if len(ioffsets) == 1 else "") + ")"
                )
                w.line(f"{ins}({ikey}, rowid)")
            w.line(f"{rows_name}[rowid] = row")
            self.emit_undo_record("undo", name, "insert")
        self.emit_record_undo("undo")
        self.emit_notify("insert", name, "1")
        self.emit_return_result("None", "None", "1", "1")

    def emit_insert(self, plan: InsertPlan) -> None:
        if len(plan.value_asts) != len(plan.values):
            raise PlanCodegenError("insert value sources")
        table = self.database.table(plan.table_name)
        schema = table.schema
        scope = Scope()  # VALUES sees no tables
        w = self.w
        name = plan.table_name
        eval_offsets = [schema.offset(column) for column in plan.columns]
        n_columns = len(schema.columns)
        lock_lines = [f"txn.lock_table({name!r})"]
        full_width = eval_offsets == list(range(n_columns))
        all_parameters = all(
            isinstance(ast, Parameter) for ast in plan.value_asts
        )

        if full_width and all_parameters:
            # Full-width all-parameter insert (the TPC-C hot shape):
            # probe the highest parameter (the missing-parameter
            # IndexError precedes the lock, as in the tree executor's
            # eval phase), lock, then validate straight into the row
            # tuple with inline exact-type fast paths.
            max_param = max(ast.index for ast in plan.value_asts)
            w.line(f"params[{max_param}]")
            self.emit_txn_check(lock_lines)
            parts = [
                self.validator_expr(table, offset, f"params[{ast.index}]")
                for offset, ast in zip(eval_offsets, plan.value_asts)
            ]
            tup = (
                "(" + ", ".join(parts)
                + ("," if len(parts) == 1 else "") + ")"
            )
            w.line(f"row = {tup}")
            self._emit_insert_commit(plan, table)
            return

        if full_width:
            # Evaluate every value before the lock, validate after it
            # (the tree executor's order of effects).
            for i, ast in enumerate(plan.value_asts):
                w.line(f"_v{i} = {self.expr(ast, scope, None)}")
            self.emit_txn_check(lock_lines)
            parts = [
                self.validator_expr(table, offset, f"_v{i}")
                for i, offset in enumerate(eval_offsets)
            ]
            tup = (
                "(" + ", ".join(parts)
                + ("," if len(parts) == 1 else "") + ")"
            )
            w.line(f"row = {tup}")
            self._emit_insert_commit(plan, table)
            return

        # Partial-width or reordered column list: evaluate in statement
        # order into per-offset slots (duplicate columns all evaluate,
        # the last wins), then validate in schema order.
        assigned: set[int] = set()
        for i, (offset, ast) in enumerate(zip(eval_offsets, plan.value_asts)):
            w.line(f"_s{offset} = {self.expr(ast, scope, None)}")
            assigned.add(offset)
        self.emit_txn_check(lock_lines)
        parts = []
        for offset in range(n_columns):
            value = f"_s{offset}" if offset in assigned else "None"
            parts.append(self.validator_expr(table, offset, value))
        tup = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
        w.line(f"row = {tup}")
        self._emit_insert_commit(plan, table)

    # -- UPDATE / DELETE -------------------------------------------------------

    def _emit_collect(
        self, table: Table, target: TableAccess, scope: Scope
    ) -> None:
        """Materialize matching target rowids into ``rowids`` and the
        candidate count into ``touched`` before any mutation, emitted
        as batch code."""
        w = self.w
        access = target.access
        row_ref = self.single_ref(scope)
        residual = self._residual_expr(target, scope, row_ref)
        kind = access.kind
        binds = self._table_binds(table, "0")
        if kind == "pk":
            if not access.key_asts:
                raise PlanCodegenError("pk key expressions")
            pkb = self.bind(table.primary_index.buckets, "pkb0")
            key = self.key_tuple(access.key_asts, scope, None)
            w.line("rowids = []")
            w.line("touched = 0")
            w.line(f"rowid = {pkb}.get({key})")
            w.line("if rowid is not None:")
            w.indent()
            w.line(f"row = {binds['fetch']}(rowid)")
            w.line("if row is not None:")
            w.indent()
            w.line("touched = 1")
            if residual is not None:
                w.line(f"if ({residual}):")
                w.indent()
            w.line("rowids.append(rowid)")
            if residual is not None:
                w.dedent()
            w.dedent()
            w.dedent()
            return
        if kind == "scan":
            snap = self.bind(table.snapshot, "snap0")
            w.line(f"_pairs = {snap}()")
            w.line("touched = len(_pairs)")
            if residual is not None:
                w.line(
                    f"rowids = [rowid for rowid, row in _pairs "
                    f"if ({residual})]"
                )
            else:
                w.line("rowids = [rowid for rowid, row in _pairs]")
            return
        if kind == "index_eq":
            index = self._secondary(table, access)
            if not access.key_asts:
                raise PlanCodegenError("index key expressions")
            lookup = self.bind(index.lookup_sorted, "lookup0")
            key = self.key_tuple(access.key_asts, scope, None)
            w.line(
                f"_pairs = [(rowid, row) for rowid in {lookup}({key}) "
                f"if (row := {binds['fetch']}(rowid)) is not None]"
            )
        elif kind == "index_range":
            index = self._secondary(table, access)
            if not isinstance(index, OrderedIndex):  # pragma: no cover
                raise ExecutionError(
                    f"index {access.index_name!r} does not support ranges"
                )
            range_fn = self.bind(index.range_rowids, "range0")
            lo_inc, hi_inc = self._emit_range_bounds(
                access, scope, None, "_lo0", "_hi0"
            )
            w.line(
                f"_pairs = [(rowid, row) for rowid in {range_fn}(_lo0, "
                f"_hi0, low_inclusive={lo_inc}, high_inclusive={hi_inc}) "
                f"if (row := {binds['fetch']}(rowid)) is not None]"
            )
        else:
            raise ExecutionError(f"unknown access kind {kind!r}")
        w.line("touched = len(_pairs)")
        if residual is not None:
            w.line(f"rowids = [rowid for rowid, row in _pairs if ({residual})]")
        else:
            w.line("rowids = [rowid for rowid, row in _pairs]")

    def _emit_assigns(
        self,
        table: Table,
        plan: UpdatePlan,
        scope: Scope,
        after_var: str,
    ) -> None:
        """The post-assignment row: every value expression evaluates
        before any validator runs (the tree executor's order)."""
        w = self.w
        schema = table.schema
        row_ref = self.single_ref(scope)
        final: dict[int, int] = {}  # offset -> last assignment index
        for i, (column, ast) in enumerate(plan.assignment_asts):
            offset = schema.offset(column)
            w.line(f"_v{i} = {self.expr(ast, scope, row_ref)}")
            final[offset] = i
        # Rebuild as one tuple display (faster than list(row) copy +
        # stores + tuple()); untouched columns pass through as row[j].
        parts = []
        for offset in range(len(schema.columns)):
            i = final.get(offset)
            if i is None:
                parts.append(f"row[{offset}]")
            else:
                parts.append(self.validator_expr(table, offset, f"_v{i}"))
        tup = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
        w.line(f"{after_var} = {tup}")

    def emit_update(self, plan: UpdatePlan) -> None:
        scope = plan.scope
        if scope is None:
            raise PlanCodegenError("scope")
        if len(plan.assignment_asts) != len(plan.assignments):
            raise PlanCodegenError("assignment sources")
        table = self.database.table(plan.target.table_name)
        schema = table.schema
        name = plan.target.table_name
        w = self.w
        assigned_offsets = {
            schema.offset(column) for column, _ in plan.assignment_asts
        }
        keys_safe = assigned_offsets.isdisjoint(table.key_column_offsets())
        access = plan.target.access

        if keys_safe and access.kind == "pk":
            # The TPC-C hot shape: point update of non-key columns as
            # one straight-line block -- probe, residual, lock,
            # validate, one dict store, inline undo append.
            if not access.key_asts:
                raise PlanCodegenError("pk key expressions")
            binds = self._table_binds(table, "0")
            pkb = self.bind(table.primary_index.buckets, "pkb0")
            row_ref = self.single_ref(scope)
            residual = self._residual_expr(plan.target, scope, row_ref)
            key = self.key_tuple(access.key_asts, scope, None)
            w.line("touched = 0")
            w.line("count = 0")
            w.line(f"rowid = {pkb}.get({key})")
            w.line("if rowid is not None:")
            w.indent()
            w.line(f"row = {binds['fetch']}(rowid)")
            w.line("if row is not None:")
            w.indent()
            w.line("touched = 1")
            if residual is not None:
                w.line(f"if ({residual}):")
                w.indent()
            self.emit_txn_check([f"txn.lock_row({name!r}, rowid)"])
            self._emit_assigns(table, plan, scope, "after")
            # replace_nonkey inlined: key columns are untouched, so no
            # index maintenance -- one store plus the undo record.
            w.line(f"{binds['rows']}[rowid] = after")
            self.emit_undo_record("undo", name, "update", before="row")
            self.emit_record_undo("undo")
            w.line("count = 1")
            if residual is not None:
                w.dedent()
            w.dedent()
            w.dedent()
            self.emit_notify("update", name, "touched")
            self.emit_return_result("None", "None", "count", "touched")
            return

        self._emit_collect(table, plan.target, scope)
        w.line("lock_rows = txn is not None and txn.lock_manager is not None")
        w.line("if txn is not None and not lock_rows and rowids:")
        w.indent()
        w.line("txn.ensure_active()")
        w.dedent()
        w.line("undos = []")
        w.line("try:")
        w.indent()
        w.line("for rowid in rowids:")
        w.indent()
        w.line("if lock_rows:")
        w.indent()
        w.line(f"txn.lock_row({name!r}, rowid)")
        w.dedent()
        get_row = self.bind(table.get, "get")
        w.line(f"row = {get_row}(rowid)")
        if keys_safe:
            binds = self._table_binds(table, "0")
            self._emit_assigns(table, plan, scope, "after")
            w.line(f"{binds['rows']}[rowid] = after")
            self.emit_undo_record("_u", name, "update", before="row")
            w.line("undos.append(_u)")
        else:
            # Key columns may change: keep the engine's update (index
            # maintenance, duplicate-key checks) and hand it the raw
            # changes dict it validates itself.
            update_fn = self.bind(table.update, "upd")
            row_ref = self.single_ref(scope)
            changes = ", ".join(
                f"{column!r}: {self.expr(ast, scope, row_ref)}"
                for column, ast in plan.assignment_asts
            )
            w.line(f"undos.append({update_fn}(rowid, {{{changes}}}))")
        w.dedent()
        w.dedent()
        w.line("finally:")
        w.indent()
        w.line("if txn is not None and undos:")
        w.indent()
        w.line("txn.record_undo_many(undos)")
        w.dedent()
        w.dedent()
        self.emit_notify("update", name, "touched")
        self.emit_return_result("None", "None", "len(rowids)", "touched")

    def emit_delete(self, plan: DeletePlan) -> None:
        scope = plan.scope
        if scope is None:
            raise PlanCodegenError("scope")
        table = self.database.table(plan.target.table_name)
        name = plan.target.table_name
        w = self.w
        self._emit_collect(table, plan.target, scope)
        delete_fn = self.bind(table.delete, "del")
        w.line("lock_rows = txn is not None and txn.lock_manager is not None")
        w.line("if txn is not None and not lock_rows and rowids:")
        w.indent()
        w.line("txn.ensure_active()")
        w.dedent()
        w.line("undos = []")
        w.line("try:")
        w.indent()
        w.line("for rowid in rowids:")
        w.indent()
        w.line("if lock_rows:")
        w.indent()
        w.line(f"txn.lock_row({name!r}, rowid)")
        w.dedent()
        w.line(f"undos.append({delete_fn}(rowid))")
        w.dedent()
        w.dedent()
        w.line("finally:")
        w.indent()
        w.line("if txn is not None and undos:")
        w.indent()
        w.line("txn.record_undo_many(undos)")
        w.dedent()
        w.dedent()
        self.emit_notify("delete", name, "touched")
        self.emit_return_result("None", "None", "len(rowids)", "touched")


# -- public entry points ------------------------------------------------------


class SourcePlan:
    """One plan generated to Python source, compiled and bound.

    ``kind``, ``table_names``, the raw ``run(params, txn)`` hot callers
    invoke directly, :meth:`execute` with defaults, the generated
    ``source`` text, its content ``signature`` and the per-binding
    ``join_meta`` strategy choices for observability."""

    __slots__ = (
        "kind", "table_names", "run", "source", "signature", "join_meta"
    )

    def __init__(
        self,
        kind: str,
        table_names: tuple[str, ...],
        run: Callable[[Sequence[Any], Optional["Transaction"]], StatementResult],
        source: str,
        signature: str,
        join_meta: tuple[tuple[str, str], ...],
    ) -> None:
        self.kind = kind
        self.table_names = table_names
        self.run = run
        self.source = source
        self.signature = signature
        self.join_meta = join_meta

    def execute(
        self,
        params: Sequence[Any] = (),
        txn: Optional["Transaction"] = None,
    ) -> StatementResult:
        return self.run(params, txn)


def generate_plan_source(
    plan: Plan, database: Database
) -> tuple[str, dict[str, Any], str, tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Generate module text for ``plan``; returns (text, namespace,
    kind, table names, join strategy metadata).

    The ``_make`` signature is composed after the body: bindings
    accumulate while statements emit, and each becomes a parameter of
    the closure-maker, applied to a stable ``_B<i>`` key from the
    returned namespace.  ``run`` itself takes only ``(params, txn)``
    so statement execution pays no per-call binding cost."""
    gen = _PlanCodegen(database)
    gen.w.indent()  # body emits inside _make's inner run
    gen.w.indent()
    if isinstance(plan, SelectPlan):
        kind = "select"
        table_names = tuple(ta.table_name for ta in plan.tables)
        gen.emit_select(plan)
    elif isinstance(plan, InsertPlan):
        kind = "insert"
        table_names = (plan.table_name,)
        gen.emit_insert(plan)
    elif isinstance(plan, UpdatePlan):
        kind = "update"
        table_names = (plan.target.table_name,)
        gen.emit_update(plan)
    elif isinstance(plan, DeletePlan):
        kind = "delete"
        table_names = (plan.target.table_name,)
        gen.emit_delete(plan)
    else:
        raise PlanCodegenError(f"cannot generate {type(plan).__name__}")
    body = gen.w.text()
    names = ", ".join(gen._bind_names)
    keys = ", ".join(f"_B{i}" for i in range(len(gen._bind_names)))
    text = (
        "# generated by repro.db.sql.codegen_plan\n"
        f"# plan: {kind} {gen.join_header or ', '.join(table_names)}\n"
        f"def _make({names}):\n"
        "    def run(params, txn):\n"
        f"{body}"
        "    return run\n"
        f"run = _make({keys})\n"
    )
    return text, gen.namespace(), kind, table_names, tuple(gen.join_meta)


def compile_plan_source(plan: Plan, database: Database) -> SourcePlan:
    """Generate, ``compile()`` and ``exec`` the source rung for ``plan``.

    Raises :class:`PlanCodegenError` for shapes this rung does not emit;
    callers fall back to the tree executor.  Like any prepared statement,
    the result must not outlive DROP/CREATE or ``create_index`` on the
    tables it binds.
    """
    text, namespace, kind, table_names, join_meta = generate_plan_source(
        plan, database
    )
    signature = source_signature(text)
    code = compile(text, f"<codegen:plan:{signature[:12]}>", "exec")
    exec(code, namespace)
    maybe_dump_source(
        "plan", f"{kind}_{table_names[0] if table_names else 'none'}", text
    )
    return SourcePlan(
        kind, table_names, namespace["run"], text, signature, join_meta
    )


def maybe_compile_plan_source(
    plan: Plan, database: Database, tracer: Any = None
) -> Optional[SourcePlan]:
    """Best-effort source generation: None when this rung cannot emit
    the plan (the caller runs it on the tree executor)."""
    try:
        if tracer is not None and getattr(tracer, "active", False):
            with tracer.span("codegen.plan", track="codegen"):
                return compile_plan_source(plan, database)
        return compile_plan_source(plan, database)
    except PlanCodegenError:
        return None
