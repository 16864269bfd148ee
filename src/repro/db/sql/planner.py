"""Query planner.

Turns a parsed statement into a :class:`Plan`: a small operator tree
with compiled expression closures.  Access-path selection mirrors what
a simple RDBMS would do:

1. equality predicates covering the whole primary key -> point lookup,
2. equality predicates covering a secondary index -> index lookup,
3. range predicates on an ordered index prefix -> index range scan,
4. otherwise -> full table scan.

Predicates consumed by the access path are removed from the residual
filter.  Joins are nested-loop in a greedy order: at each step the
unplaced table whose access path -- given the tables already placed --
ranks best in the list above (unique before non-unique index, a
filtered scan before a bare one), ties keeping the written order.  The
order reads the schema and the statement only, never a table size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.db.catalog import Catalog, TableSchema
from repro.db.engine import Database
from repro.db.errors import PlanError, UnknownColumnError
from repro.db.sql.ast import (
    Assignment,
    Between,
    BinaryOp,
    ColumnRef,
    Delete,
    Expr,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Literal,
    OrderItem,
    Parameter,
    Select,
    SelectItem,
    Statement,
    TableRef,
    UnaryOp,
    Update,
)

# A compiled expression: (env, params) -> value, where env maps a table
# binding name to the current row tuple for that table.
Compiled = Callable[[dict, Sequence[Any]], Any]


@dataclass
class Scope:
    """Name-resolution scope: visible table bindings in order."""

    bindings: list[tuple[str, TableSchema]] = field(default_factory=list)

    def add(self, binding: str, schema: TableSchema) -> None:
        if any(b == binding for b, _ in self.bindings):
            raise PlanError(f"duplicate table binding {binding!r}")
        self.bindings.append((binding, schema))

    def resolve(self, ref: ColumnRef) -> tuple[str, int]:
        """Resolve a column reference to (binding, offset)."""
        if ref.table is not None:
            for binding, schema in self.bindings:
                if binding.lower() == ref.table.lower():
                    return binding, schema.offset(ref.column)
            raise PlanError(f"unknown table binding {ref.table!r}")
        matches = [
            (binding, schema.offset(ref.column))
            for binding, schema in self.bindings
            if schema.has_column(ref.column)
        ]
        if not matches:
            raise UnknownColumnError(ref.column)
        if len(matches) > 1:
            raise PlanError(f"ambiguous column {ref.column!r}")
        return matches[0]

    def binding_of(self, ref: ColumnRef) -> str:
        return self.resolve(ref)[0]


def _like_matcher(pattern: str) -> Callable[[str], bool]:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    compiled = re.compile(f"^{regex}$", re.DOTALL)
    return lambda text: compiled.match(text) is not None


def _apply_comparison(op: str, left: Any, right: Any) -> Optional[bool]:
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    raise AssertionError(f"unhandled comparison {op}")  # pragma: no cover


def compile_expr(expr: Expr, scope: Scope) -> Compiled:
    """Compile ``expr`` to a closure evaluated per row."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda env, params: value
    if isinstance(expr, Parameter):
        index = expr.index
        return lambda env, params: params[index]
    if isinstance(expr, ColumnRef):
        binding, offset = scope.resolve(expr)
        return lambda env, params: env[binding][offset]
    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand, scope)
        if expr.op == "-":
            def neg(env, params):
                value = operand(env, params)
                return None if value is None else -value
            return neg
        if expr.op == "not":
            def negate(env, params):
                value = operand(env, params)
                return None if value is None else not _truthy(value)
            return negate
        raise PlanError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BinaryOp):
        left = compile_expr(expr.left, scope)
        right = compile_expr(expr.right, scope)
        op = expr.op
        if op == "and":
            def conj(env, params):
                lval = left(env, params)
                if lval is not None and not _truthy(lval):
                    return False
                rval = right(env, params)
                if rval is not None and not _truthy(rval):
                    return False
                if lval is None or rval is None:
                    return None
                return True
            return conj
        if op == "or":
            def disj(env, params):
                lval = left(env, params)
                if lval is not None and _truthy(lval):
                    return True
                rval = right(env, params)
                if rval is not None and _truthy(rval):
                    return True
                if lval is None or rval is None:
                    return None
                return False
            return disj
        if op in {"=", "<>", "<", ">", "<=", ">="}:
            return lambda env, params: _apply_comparison(
                op, left(env, params), right(env, params)
            )
        if op == "like":
            def like(env, params):
                lval = left(env, params)
                rval = right(env, params)
                if lval is None or rval is None:
                    return None
                return _like_matcher(rval)(lval)
            return like
        if op in {"+", "-", "*", "/", "||"}:
            def arith(env, params):
                lval = left(env, params)
                rval = right(env, params)
                if lval is None or rval is None:
                    return None
                if op == "+":
                    return lval + rval
                if op == "-":
                    return lval - rval
                if op == "*":
                    return lval * rval
                if op == "/":
                    return lval / rval
                return str(lval) + str(rval)
            return arith
        raise PlanError(f"unknown binary operator {op!r}")
    if isinstance(expr, IsNull):
        operand = compile_expr(expr.operand, scope)
        negated = expr.negated
        def isnull(env, params):
            value = operand(env, params)
            return (value is not None) if negated else (value is None)
        return isnull
    if isinstance(expr, InList):
        operand = compile_expr(expr.operand, scope)
        options = [compile_expr(o, scope) for o in expr.options]
        negated = expr.negated
        def in_list(env, params):
            value = operand(env, params)
            if value is None:
                return None
            found = any(value == opt(env, params) for opt in options)
            return (not found) if negated else found
        return in_list
    if isinstance(expr, Between):
        operand = compile_expr(expr.operand, scope)
        low = compile_expr(expr.low, scope)
        high = compile_expr(expr.high, scope)
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
            raise PlanError(
                f"aggregate {expr.name!r} not allowed in this context"
            )
        return _compile_scalar_func(expr, scope)
    raise PlanError(f"cannot compile expression {expr!r}")


def _truthy(value: Any) -> bool:
    return bool(value)


_SCALAR_FUNCS: dict[str, Callable[..., Any]] = {
    "abs": abs,
    "length": lambda s: None if s is None else len(s),
    "lower": lambda s: None if s is None else s.lower(),
    "upper": lambda s: None if s is None else s.upper(),
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
    "round": lambda x, n=0: None if x is None else round(x, int(n)),
    "mod": lambda a, b: None if a is None or b is None else a % b,
    "substr": lambda s, start, length=None: (
        None if s is None
        else s[int(start) - 1:] if length is None
        else s[int(start) - 1:int(start) - 1 + int(length)]
    ),
}


def _compile_scalar_func(expr: FuncCall, scope: Scope) -> Compiled:
    name = expr.name.lower()
    if name not in _SCALAR_FUNCS:
        raise PlanError(f"unknown function {expr.name!r}")
    func = _SCALAR_FUNCS[name]
    args = [compile_expr(arg, scope) for arg in expr.args]
    return lambda env, params: func(*(arg(env, params) for arg in args))


# -- access paths ------------------------------------------------------------


@dataclass
class AccessPath:
    """How rows of one table will be fetched.

    ``kind`` is ``pk`` / ``index_eq`` / ``index_range`` / ``scan``.
    Key expressions are compiled against the *outer* scope so that a
    join's inner table can be probed with values from the outer row.

    The ``*_asts`` fields keep the source expressions of the compiled
    key closures and ``index_width`` the declared column count of the
    chosen index: the plan compiler (:mod:`repro.db.sql.compile_plan`)
    recompiles them into positional form and decides the prefix-bound
    MAX_KEY extension statically.
    """

    kind: str
    index_name: Optional[str] = None
    key_exprs: tuple[Compiled, ...] = ()
    low_exprs: tuple[Compiled, ...] = ()
    high_exprs: tuple[Compiled, ...] = ()
    low_inclusive: bool = True
    high_inclusive: bool = True
    reverse: bool = False
    key_asts: tuple[Expr, ...] = ()
    low_asts: tuple[Expr, ...] = ()
    high_asts: tuple[Expr, ...] = ()
    index_width: int = 0


@dataclass
class TableAccess:
    """One table in the FROM clause with its access path and residual filter.

    ``join_strategy`` is the planner's static classification of how
    this level can fetch join candidates (``driver`` / ``lookup`` /
    ``hash_scan`` / ``scan`` / ``hash`` / ``nested``); the codegen rung
    resolves the two hash classes against prepare-time table sizes
    (falling back to nested loops on tiny inners, partitioned spill
    builds on large ones) and records the final pick per plan.
    """

    table_name: str
    binding: str
    access: AccessPath
    residual: Optional[Compiled] = None
    residual_ast: Optional[Expr] = None
    join_strategy: Optional[str] = None
    # Access-path rank that placed this table in a SELECT's join order.
    join_rank: Optional[int] = None


@dataclass
class AggregateSpec:
    """One aggregate in the projection (or HAVING-free group query)."""

    func: str  # count/sum/min/max/avg
    arg: Optional[Compiled]  # None for COUNT(*)
    distinct: bool = False
    arg_ast: Optional[Expr] = None


@dataclass
class OutputColumn:
    """One output column: either a plain compiled expression or an aggregate."""

    name: str
    expr: Optional[Compiled] = None
    aggregate_index: Optional[int] = None
    ast: Optional[Expr] = None


@dataclass
class SortKey:
    """Compiled ORDER BY key.

    ``source`` keys evaluate in the row scope; ``output`` keys index
    into the projected row (used for aggregate queries).
    """

    descending: bool
    expr: Optional[Compiled] = None
    output_index: Optional[int] = None
    ast: Optional[Expr] = None


@dataclass
class SelectPlan:
    tables: list[TableAccess]
    columns: list[OutputColumn]
    aggregates: list[AggregateSpec]
    group_exprs: list[Compiled]
    sort_keys: list[SortKey]
    limit: Optional[Compiled]
    distinct: bool
    for_update: bool
    column_names: list[str]
    group_asts: list[Expr] = field(default_factory=list)
    limit_ast: Optional[Expr] = None
    scope: Optional[Scope] = None
    # ``tables`` and ``scope`` are in join (placement) order;
    # ``lock_tables`` keeps the written order, so two statements lock
    # in the order each was written whatever order their joins run in.
    lock_tables: list[str] = field(default_factory=list)
    # Batch metadata: single-table, non-aggregate, non-point shapes can
    # run scan/filter/project batch-at-a-time (materialize candidates
    # once, then comprehension passes) instead of row-at-a-time.
    batch_eligible: bool = False


@dataclass
class InsertPlan:
    table_name: str
    columns: tuple[str, ...]
    values: list[Compiled]
    value_asts: list[Expr] = field(default_factory=list)


@dataclass
class UpdatePlan:
    target: TableAccess
    assignments: list[tuple[str, Compiled]]
    assignment_asts: list[tuple[str, Expr]] = field(default_factory=list)
    scope: Optional[Scope] = None


@dataclass
class DeletePlan:
    target: TableAccess
    scope: Optional[Scope] = None


Plan = SelectPlan | InsertPlan | UpdatePlan | DeletePlan


# -- join-strategy analysis ---------------------------------------------------
#
# Static (size-independent) classification of join levels, shared by the
# planner (which records the class on each TableAccess) and the source
# codegen rung (which resolves hash candidates against table sizes).


def scope_positions(scope: Scope) -> dict[str, int]:
    """FROM-clause position of each binding, in placement order."""
    return {binding: i for i, (binding, _) in enumerate(scope.bindings)}


def flatten_conjuncts(ast: Expr) -> list[Expr]:
    """AND-flatten an expression into its conjuncts, left to right."""
    if isinstance(ast, BinaryOp) and ast.op == "and":
        return flatten_conjuncts(ast.left) + flatten_conjuncts(ast.right)
    return [ast]


def outer_only_expr(ast: Expr, scope: Scope, position: int) -> bool:
    """True when every column in ``ast`` binds before ``position``."""
    positions = scope_positions(scope)
    for node in ast.walk():
        if isinstance(node, ColumnRef):
            binding, _ = scope.resolve(node)
            if positions[binding] >= position:
                return False
    return True


def extract_equi_conjuncts(
    ta: TableAccess, scope: Scope, position: int
) -> Optional[tuple[list[int], list[Expr], list[Expr]]]:
    """Peel hash-joinable equality conjuncts from a scanned inner
    table's residual: ``inner_col = <outer-only expr>`` in either
    operand order.  Returns (inner build offsets, outer probe
    expressions, leftover conjuncts in original order), or None when
    no conjunct qualifies."""
    if ta.residual_ast is None:
        return None
    positions = scope_positions(scope)
    build: list[int] = []
    probe: list[Expr] = []
    leftover: list[Expr] = []
    for conjunct in flatten_conjuncts(ta.residual_ast):
        peeled = False
        if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
            for inner_side, outer_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not isinstance(inner_side, ColumnRef):
                    continue
                binding, offset = scope.resolve(inner_side)
                if positions[binding] != position:
                    continue
                if not outer_only_expr(outer_side, scope, position):
                    continue
                build.append(offset)
                probe.append(outer_side)
                peeled = True
                break
        if not peeled:
            leftover.append(conjunct)
    if not build:
        return None
    return build, probe, leftover


def classify_join_access(
    position: int, ta: TableAccess, scope: Scope, driver: TableAccess
) -> str:
    """Static strategy class for one join level.

    ``driver`` (outermost), ``lookup`` (constant probe, hoistable),
    ``hash_scan`` (scanned inner with peelable equi conjuncts --
    hash-join candidate), ``scan`` (scanned inner, no equi key),
    ``hash`` (outer-dependent pk/index_eq probe under an unfiltered
    driving scan -- every driver row probes, so one build per execution
    can pay), ``nested`` (any other outer-dependent probe: under an
    indexed or filtered driver few rows reach it, and the index it
    probes is already built).
    """
    kind = ta.access.kind
    if position == 0:
        return "driver"
    if kind == "scan":
        if extract_equi_conjuncts(ta, scope, position) is not None:
            return "hash_scan"
        return "scan"
    probe_asts = (
        list(ta.access.key_asts)
        + list(ta.access.low_asts)
        + list(ta.access.high_asts)
    )
    has_column = any(
        isinstance(node, ColumnRef)
        for ast in probe_asts
        for node in ast.walk()
    )
    if not has_column:
        return "lookup"
    if kind == "index_range":
        return "nested"
    if driver.access.kind == "scan" and driver.residual_ast is None:
        return "hash"
    return "nested"


def _split_conjuncts(expr: Optional[Expr]) -> list[Expr]:
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _join_conjuncts(conjuncts: Sequence[Expr]) -> Optional[Expr]:
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for nxt in conjuncts[1:]:
        combined = BinaryOp("and", combined, nxt)
    return combined


def _refs_only(expr: Expr, allowed: set[str], scope: Scope) -> bool:
    """True if every column in ``expr`` resolves into ``allowed`` bindings."""
    for node in expr.walk():
        if isinstance(node, ColumnRef):
            try:
                binding, _ = scope.resolve(node)
            except PlanError:
                return False
            if binding not in allowed:
                return False
    return True


class Planner:
    """Plans statements against a database's catalog."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.catalog: Catalog = database.catalog

    # -- public API ------------------------------------------------------------

    def plan(self, stmt: Statement) -> Plan:
        if isinstance(stmt, Select):
            return self.plan_select(stmt)
        if isinstance(stmt, Insert):
            return self.plan_insert(stmt)
        if isinstance(stmt, Update):
            return self.plan_update(stmt)
        if isinstance(stmt, Delete):
            return self.plan_delete(stmt)
        raise PlanError(f"cannot plan {type(stmt).__name__}")

    # -- SELECT -----------------------------------------------------------------

    def plan_select(self, stmt: Select) -> SelectPlan:
        refs = [stmt.table] + [j.table for j in stmt.joins]
        # Names resolve, ``SELECT *`` expands and table locks are taken
        # in the order the query was written; only the join runs in
        # placement order.
        written = Scope()
        for ref in refs:
            written.add(ref.binding, self.catalog.get(ref.name))

        remaining = _split_conjuncts(stmt.where)
        for join in stmt.joins:
            remaining.extend(_split_conjuncts(join.condition))

        tables: list[TableAccess] = []
        placed: set[str] = set()
        unplaced = list(refs)
        while unplaced:
            # Greedy: the unplaced table with the best access-path rank
            # given what is already placed; ties keep the written order.
            rank, ref, access, usable, used = min(
                (
                    self._rank_access(ref, remaining, placed, written)
                    for ref in unplaced
                ),
                key=lambda candidate: candidate[0],
            )
            unplaced.remove(ref)
            remaining = [c for c in remaining if c not in usable]
            # Conjuncts usable at this table but not consumed stay as the
            # residual filter here; conjuncts mentioning later tables wait.
            residual_expr = _join_conjuncts(
                [c for c in usable if c not in used]
            )
            residual = (
                compile_expr(residual_expr, written)
                if residual_expr is not None
                else None
            )
            tables.append(
                TableAccess(
                    table_name=ref.name,
                    binding=ref.binding,
                    access=access,
                    residual=residual,
                    residual_ast=residual_expr,
                    join_rank=rank,
                )
            )
            placed.add(ref.binding)

        if remaining:
            leftover = _join_conjuncts(remaining)
            raise PlanError(f"could not place predicate {leftover!r}")

        # Executors index rows by scope position: placement order.
        scope = Scope()
        for access_entry in tables:
            scope.add(
                access_entry.binding,
                self.catalog.get(access_entry.table_name),
            )
        for position, access_entry in enumerate(tables):
            access_entry.join_strategy = classify_join_access(
                position, access_entry, scope, tables[0]
            )

        # Projection.
        columns: list[OutputColumn] = []
        aggregates: list[AggregateSpec] = []
        names: list[str] = []
        has_aggregates = stmt.has_aggregates or bool(stmt.group_by)
        for item in stmt.items:
            if item.star:
                if has_aggregates:
                    raise PlanError("cannot mix * with aggregates")
                for binding, schema in written.bindings:
                    for col in schema.column_names:
                        ref = ColumnRef(column=col, table=binding)
                        columns.append(
                            OutputColumn(
                                name=col,
                                expr=compile_expr(ref, scope),
                                ast=ref,
                            )
                        )
                        names.append(col)
                continue
            assert item.expr is not None
            name = item.alias or _default_name(item.expr)
            if has_aggregates and _contains_aggregate(item.expr):
                agg = _extract_single_aggregate(item.expr)
                arg = (
                    compile_expr(agg.args[0], scope)
                    if agg.args and not agg.star
                    else None
                )
                aggregates.append(
                    AggregateSpec(
                        func=agg.name.lower(), arg=arg, distinct=agg.distinct,
                        arg_ast=(
                            agg.args[0] if agg.args and not agg.star else None
                        ),
                    )
                )
                columns.append(
                    OutputColumn(name=name, aggregate_index=len(aggregates) - 1)
                )
            else:
                columns.append(
                    OutputColumn(
                        name=name,
                        expr=compile_expr(item.expr, scope),
                        ast=item.expr,
                    )
                )
            names.append(name)

        group_exprs = [compile_expr(g, scope) for g in stmt.group_by]
        if has_aggregates and not stmt.group_by:
            # Whole-input aggregation: every non-aggregate output is invalid.
            for col in columns:
                if col.aggregate_index is None and stmt.group_by == ():
                    if col.expr is not None and len(stmt.items) > len(aggregates):
                        # Allow constants; reject bare columns for clarity.
                        pass

        sort_keys = self._plan_order_by(stmt, scope, names, has_aggregates)
        limit = (
            compile_expr(stmt.limit, scope) if stmt.limit is not None else None
        )
        return SelectPlan(
            tables=tables,
            columns=columns,
            aggregates=aggregates,
            group_exprs=group_exprs,
            sort_keys=sort_keys,
            limit=limit,
            distinct=stmt.distinct,
            for_update=stmt.for_update,
            column_names=names,
            group_asts=list(stmt.group_by),
            limit_ast=stmt.limit,
            scope=scope,
            lock_tables=[ref.name for ref in refs],
            batch_eligible=(
                len(tables) == 1
                and not has_aggregates
                and tables[0].access.kind != "pk"
            ),
        )

    def _plan_order_by(
        self,
        stmt: Select,
        scope: Scope,
        output_names: list[str],
        has_aggregates: bool,
    ) -> list[SortKey]:
        sort_keys: list[SortKey] = []
        for item in stmt.order_by:
            expr = item.expr
            # ORDER BY may name an output alias (common with aggregates).
            if isinstance(expr, ColumnRef) and expr.table is None:
                lowered = [n.lower() for n in output_names]
                if expr.column.lower() in lowered:
                    sort_keys.append(
                        SortKey(
                            descending=item.descending,
                            output_index=lowered.index(expr.column.lower()),
                        )
                    )
                    continue
            if has_aggregates:
                raise PlanError(
                    "ORDER BY in aggregate queries must reference output columns"
                )
            sort_keys.append(
                SortKey(
                    descending=item.descending,
                    expr=compile_expr(expr, scope),
                    ast=expr,
                )
            )
        return sort_keys

    # -- access-path selection -----------------------------------------------

    def _rank_access(
        self,
        ref: TableRef,
        conjuncts: list[Expr],
        placed: set[str],
        scope: Scope,
    ) -> tuple[int, TableRef, AccessPath, list[Expr], list[Expr]]:
        """``ref``'s access path if it were joined next, ranked: full
        primary key (0), unique index equality (1), index equality (2),
        index range (3), filtered scan (4), bare scan (5).  Schema and
        statement only -- no table size -- so the single server and
        every shard place identically."""
        schema = self.catalog.get(ref.name)
        usable = [
            c for c in conjuncts
            if _refs_only(c, placed | {ref.binding}, scope)
        ]
        access, used = self._choose_access(ref, schema, usable, placed, scope)
        if access.kind == "pk":
            rank = 0
        elif access.kind == "index_eq":
            unique = any(
                spec.unique and spec.name == access.index_name
                for spec in schema.indexes
            )
            rank = 1 if unique else 2
        elif access.kind == "index_range":
            rank = 3
        else:
            rank = 4 if usable else 5
        return rank, ref, access, usable, used

    def _choose_access(
        self,
        ref: TableRef,
        schema: TableSchema,
        conjuncts: list[Expr],
        outer_bindings: set[str],
        scope: Scope,
    ) -> tuple[AccessPath, list[Expr]]:
        """Pick the cheapest access path for ``ref`` given usable conjuncts.

        ``outer_bindings`` are tables already placed (their columns may
        appear in key expressions -- that is how index nested-loop joins
        probe the inner table).
        """
        binding = ref.binding
        equalities: dict[str, tuple[Expr, Expr]] = {}
        ranges: dict[str, list[tuple[str, Expr, Expr]]] = {}
        for conj in conjuncts:
            extracted = self._extract_predicate(
                conj, binding, outer_bindings, scope
            )
            if extracted is None:
                continue
            column, op, value_expr = extracted
            if op == "=":
                equalities.setdefault(column, (conj, value_expr))
            elif op in {"<", ">", "<=", ">="}:
                ranges.setdefault(column, []).append((op, conj, value_expr))

        # 1. Full primary-key match.
        if all(col in equalities for col in schema.primary_key):
            used = [equalities[col][0] for col in schema.primary_key]
            keys = tuple(
                compile_expr(equalities[col][1], scope)
                for col in schema.primary_key
            )
            return (
                AccessPath(
                    kind="pk",
                    key_exprs=keys,
                    key_asts=tuple(
                        equalities[col][1] for col in schema.primary_key
                    ),
                    index_width=len(schema.primary_key),
                ),
                used,
            )

        # 2. Secondary index equality match (prefer unique, then widest).
        best: Optional[tuple[AccessPath, list[Expr]]] = None
        best_score = -1
        for spec in schema.indexes:
            if all(col in equalities for col in spec.columns):
                score = len(spec.columns) + (100 if spec.unique else 0)
                if score > best_score:
                    used = [equalities[col][0] for col in spec.columns]
                    keys = tuple(
                        compile_expr(equalities[col][1], scope)
                        for col in spec.columns
                    )
                    best = (
                        AccessPath(
                            kind="index_eq",
                            index_name=spec.name,
                            key_exprs=keys,
                            key_asts=tuple(
                                equalities[col][1] for col in spec.columns
                            ),
                            index_width=len(spec.columns),
                        ),
                        used,
                    )
                    best_score = score
        if best is not None:
            return best

        # 3. Ordered-index range scan: equality prefix + range on next column.
        for spec in schema.indexes:
            if not spec.ordered:
                continue
            prefix: list[Expr] = []
            prefix_used: list[Expr] = []
            idx = 0
            for col in spec.columns:
                if col in equalities:
                    prefix.append(equalities[col][1])
                    prefix_used.append(equalities[col][0])
                    idx += 1
                else:
                    break
            range_col = spec.columns[idx] if idx < len(spec.columns) else None
            range_preds = ranges.get(range_col, []) if range_col else []
            if not prefix and not range_preds:
                continue
            low_exprs = list(prefix)
            high_exprs = list(prefix)
            low_inc = True
            high_inc = True
            used = list(prefix_used)
            low_bound: Optional[Expr] = None
            high_bound: Optional[Expr] = None
            for op, conj, value in range_preds:
                if op in {">", ">="} and low_bound is None:
                    low_bound = value
                    low_inc = op == ">="
                    used.append(conj)
                elif op in {"<", "<="} and high_bound is None:
                    high_bound = value
                    high_inc = op == "<="
                    used.append(conj)
            if low_bound is not None:
                low_exprs = low_exprs + [low_bound]
            if high_bound is not None:
                high_exprs = high_exprs + [high_bound]
            if not used:
                continue
            return (
                AccessPath(
                    kind="index_range",
                    index_name=spec.name,
                    low_exprs=tuple(compile_expr(e, scope) for e in low_exprs),
                    high_exprs=tuple(compile_expr(e, scope) for e in high_exprs),
                    low_inclusive=low_inc,
                    high_inclusive=high_inc,
                    low_asts=tuple(low_exprs),
                    high_asts=tuple(high_exprs),
                    index_width=len(spec.columns),
                ),
                used,
            )

        # 4. Full scan.
        return AccessPath(kind="scan"), []

    def _extract_predicate(
        self,
        conj: Expr,
        binding: str,
        outer_bindings: set[str],
        scope: Scope,
    ) -> Optional[tuple[str, str, Expr]]:
        """Extract ``(column, op, value_expr)`` if ``conj`` is sargable.

        The column must belong to ``binding``; the value side may only
        reference already-placed outer tables (or no tables at all).
        """
        if not isinstance(conj, BinaryOp):
            return None
        if conj.op not in {"=", "<", ">", "<=", ">="}:
            return None
        flipped = {"=": "=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}
        for left, right, op in (
            (conj.left, conj.right, conj.op),
            (conj.right, conj.left, flipped[conj.op]),
        ):
            if not isinstance(left, ColumnRef):
                continue
            try:
                resolved_binding, _ = scope.resolve(left)
            except PlanError:
                continue
            if resolved_binding != binding:
                continue
            if _refs_only(right, outer_bindings, scope):
                return left.column, op, right
        return None

    # -- INSERT / UPDATE / DELETE ------------------------------------------------

    def plan_insert(self, stmt: Insert) -> InsertPlan:
        schema = self.catalog.get(stmt.table.name)
        columns = stmt.columns if stmt.columns else schema.column_names
        if len(columns) != len(stmt.values):
            raise PlanError(
                f"INSERT into {stmt.table.name!r}: {len(columns)} columns "
                f"but {len(stmt.values)} values"
            )
        for col in columns:
            schema.offset(col)  # validates existence
        scope = Scope()  # no tables visible in VALUES
        values = [compile_expr(v, scope) for v in stmt.values]
        return InsertPlan(
            table_name=stmt.table.name, columns=tuple(columns), values=values,
            value_asts=list(stmt.values),
        )

    def _plan_target(self, table: TableRef, where: Optional[Expr]) -> tuple[TableAccess, Scope]:
        scope = Scope()
        schema = self.catalog.get(table.name)
        scope.add(table.binding, schema)
        conjuncts = _split_conjuncts(where)
        access, used = self._choose_access(table, schema, conjuncts, set(), scope)
        residual_expr = _join_conjuncts([c for c in conjuncts if c not in used])
        residual = (
            compile_expr(residual_expr, scope)
            if residual_expr is not None
            else None
        )
        return (
            TableAccess(
                table_name=table.name,
                binding=table.binding,
                access=access,
                residual=residual,
                residual_ast=residual_expr,
            ),
            scope,
        )

    def plan_update(self, stmt: Update) -> UpdatePlan:
        target, scope = self._plan_target(stmt.table, stmt.where)
        schema = self.catalog.get(stmt.table.name)
        assignments: list[tuple[str, Compiled]] = []
        for assign in stmt.assignments:
            schema.offset(assign.column)  # validates existence
            assignments.append(
                (assign.column, compile_expr(assign.value, scope))
            )
        return UpdatePlan(
            target=target,
            assignments=assignments,
            assignment_asts=[(a.column, a.value) for a in stmt.assignments],
            scope=scope,
        )

    def plan_delete(self, stmt: Delete) -> DeletePlan:
        target, scope = self._plan_target(stmt.table, stmt.where)
        return DeletePlan(target=target, scope=scope)


def _default_name(expr: Expr) -> str:
    if isinstance(expr, ColumnRef):
        return expr.column
    if isinstance(expr, FuncCall):
        return expr.name.lower()
    return "expr"


def _contains_aggregate(expr: Expr) -> bool:
    return any(
        isinstance(node, FuncCall) and node.is_aggregate for node in expr.walk()
    )


def _extract_single_aggregate(expr: Expr) -> FuncCall:
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return expr
    raise PlanError(
        "aggregate expressions must be a bare aggregate call "
        f"(got {expr!r})"
    )
