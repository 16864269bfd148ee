"""Sharded database tier: horizontal partitioning plus a statement router.

The paper's deployment has one application server talking to one
database server.  This module breaks that last single-server
assumption: a :class:`ShardedDatabase` hash- or range-partitions each
table across N independent :class:`~repro.db.engine.Database`
instances, and a :class:`ShardedConnection` routes planned statements:

* **single-shard** -- every sharded table in the statement has its
  full shard key bound by equality predicates (extracted from the
  planner's recorded ASTs and :class:`~repro.db.sql.planner.Scope`),
  so the whole plan executes point-to-point on one shard, through the
  tree executor or a per-shard compiled plan;
* **scatter-gather** -- one sharded table without its full key (every
  other table replicated) becomes the plan's
  :class:`~repro.db.sql.planner.Gather` level, at whatever level of the
  join the planner placed it.  The tree executor reads that level on
  every shard and merges the rows back into *global scan order* before
  the rest of the statement runs, so ORDER BY / GROUP BY / DISTINCT /
  LIMIT semantics -- including group emission order and sort-tie order
  -- and UPDATE / DELETE row order are bit-identical to a single
  server;
* **broadcast** -- mutations of replicated tables apply to every
  shard's copy in lockstep;
* **pinned** -- reads touching only replicated tables run on the
  connection's current affinity shard.

Two invariants make the scatter merge exact rather than best-effort:
partitions of one logical table share a global rowid allocator (see
:meth:`~repro.db.engine.Table.use_rowid_counter`), and the row store
stays in ascending-rowid scan order across rollbacks.  The gather's
merge key mirrors the single-server executor: rowid for scans, pk and
hash-index lookups; (index key, rowid) for ordered-index range scans.

Cross-shard transactions run two-phase commit through
:class:`~repro.db.txn.ShardedTransaction`, with per-shard undo logs
and per-shard lock managers.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.db.catalog import Column, IndexSpec, TableSchema
from repro.db.engine import Database, RowidAllocator, Table
from repro.db.errors import (
    ExecutionError,
    ShardDownError,
    ShardError,
    ShardRoutingError,
    TransactionError,
    TwoPhaseAbortError,
)
from repro.db.jdbc import (
    DEFAULT_PLAN_CACHE_SIZE,
    CallObserver,
    PlanCacheStats,
    ResultSet,
    column_index,
)
from repro.db.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    Select,
    Statement,
)
from repro.db.sql.codegen_plan import (
    SourcePlan,
    maybe_compile_plan_source,
    resolve_sql_exec_mode,
)
from repro.db.sql.executor import (
    Executor,
    Shards,
    StatementResult,
)
from repro.db.sql.parser import parse
from repro.db.sql.planner import (
    Compiled,
    DeletePlan,
    Gather,
    InsertPlan,
    Plan,
    Planner,
    Scope,
    SelectPlan,
    TableAccess,
    UpdatePlan,
    _refs_only,
    _split_conjuncts,
    compile_expr,
)
from repro.db.replica import PromotionReport, ReplicaGroup
from repro.db.txn import LockManager, ShardedTransaction, TxnState
from repro.obs.trace import NULL_TRACER

SHARD_STRATEGIES = ("hash", "mod", "range")


def _canonical_key_value(value: Any) -> Any:
    """Collapse values the engine treats as equal onto one token.

    Python equality (and therefore index lookup) makes ``1``, ``1.0``
    and ``True`` the same key, so the router must send them to the
    same shard: numerics canonicalize to ``('i', int)`` when integral
    and ``('f', repr(float))`` otherwise.
    """
    if isinstance(value, bool):
        return ("i", int(value))
    if isinstance(value, int):
        return ("i", value)
    if isinstance(value, float):
        if value == int(value):
            return ("i", int(value))
        return ("f", repr(value))
    return value


def stable_shard_hash(values: tuple) -> int:
    """Deterministic hash of a key tuple (process- and run-stable).

    Python's own ``hash`` is salted for strings, so a router using it
    would route differently across runs; CRC32 over the canonicalized
    repr keeps placement reproducible and type-insensitive for
    numerically equal keys.
    """
    canonical = tuple(_canonical_key_value(v) for v in values)
    return zlib.crc32(repr(canonical).encode("utf-8"))


@dataclass(frozen=True)
class TableSharding:
    """How one table is split across shards.

    ``columns`` name the shard key (must be a subset of the table's
    primary key, so uniqueness checks stay local to one shard).
    ``strategy`` is one of:

    * ``hash`` -- :func:`stable_shard_hash` of the key tuple modulo N;
    * ``mod`` -- the first key column (an int) modulo N, e.g. the
      warehouse-affine TPC-C placement;
    * ``range`` -- ``boundaries`` holds ascending *exclusive* upper
      bounds for shards 0..k-1 on the first key column; values at or
      above the last boundary go to shard k.
    """

    columns: tuple[str, ...]
    strategy: str = "hash"
    boundaries: tuple = ()

    def __post_init__(self) -> None:
        if not self.columns:
            raise ShardError("a sharded table needs at least one key column")
        if self.strategy not in SHARD_STRATEGIES:
            raise ShardError(
                f"unknown shard strategy {self.strategy!r}; "
                f"options: {SHARD_STRATEGIES}"
            )
        if self.strategy == "range" and not self.boundaries:
            raise ShardError("range sharding needs boundaries")
        object.__setattr__(
            self, "columns", tuple(c.lower() for c in self.columns)
        )

    def shard_for(self, key_values: tuple, n_shards: int) -> int:
        if self.strategy == "mod":
            first = _canonical_key_value(key_values[0])
            if isinstance(first, tuple) and first[0] == "i":
                return first[1] % n_shards
            return stable_shard_hash(key_values) % n_shards
        if self.strategy == "range":
            shard = 0
            first = key_values[0]
            for bound in self.boundaries:
                try:
                    below = first is not None and first < bound
                except TypeError:
                    return stable_shard_hash(key_values) % n_shards
                if below:
                    break
                shard += 1
            if shard >= n_shards:
                raise ShardError(
                    f"range boundaries map key {key_values!r} to shard "
                    f"{shard}, but only {n_shards} shard(s) exist"
                )
            return shard
        return stable_shard_hash(key_values) % n_shards


class ShardingScheme:
    """Table name -> :class:`TableSharding` (absent = replicated).

    Replication is the default: small dimension tables (TPC-C ``item``)
    keep a full copy on every shard, so joins against them stay local.
    A table may be declared replicated explicitly with ``None``, or
    sharded with a :class:`TableSharding` / a bare column sequence
    (hash strategy).
    """

    def __init__(
        self,
        tables: Optional[
            dict[str, Optional[TableSharding | Sequence[str]]]
        ] = None,
    ) -> None:
        self._tables: dict[str, Optional[TableSharding]] = {}
        for name, sharding in (tables or {}).items():
            if sharding is not None and not isinstance(sharding, TableSharding):
                sharding = TableSharding(columns=tuple(sharding))
            self._tables[name.lower()] = sharding

    def add(self, table: str, sharding: Optional[TableSharding]) -> None:
        self._tables[table.lower()] = sharding

    def sharding(self, table: str) -> Optional[TableSharding]:
        return self._tables.get(table.lower())

    def shard_for(self, table: str, key_values: tuple, n_shards: int) -> int:
        sharding = self.sharding(table)
        if sharding is None:
            raise ShardError(f"table {table!r} is not sharded")
        return sharding.shard_for(key_values, n_shards)


class ShardedDatabase:
    """N independent :class:`Database` shards behind one logical schema.

    Every shard holds the full catalog; sharded tables hold disjoint
    row subsets (sharing a global rowid allocator), replicated tables
    hold identical full copies.  All access goes through a
    :class:`ShardedConnection`; the loader fast path
    (:meth:`insert`) routes direct engine inserts the same way.
    """

    def __init__(
        self,
        name: str = "main",
        shards: int = 2,
        scheme: Optional[ShardingScheme] = None,
        replicas: int = 0,
    ) -> None:
        if shards < 1:
            raise ShardError("a sharded database needs at least one shard")
        if replicas < 0:
            raise ShardError("replicas must be >= 0")
        self.name = name
        self.shards = [Database(f"{name}/shard{i}") for i in range(shards)]
        self.scheme = scheme if scheme is not None else ShardingScheme()
        # With replicas > 0 every shard becomes a replica group: the
        # entry in ``self.shards`` is always the group's *current*
        # primary (promote() swaps it in place, so routers holding the
        # shards list see the new primary immediately).
        self.replicas = replicas
        self.groups: list[Optional[ReplicaGroup]] = [
            ReplicaGroup(shard, replicas) if replicas else None
            for shard in self.shards
        ]
        # Set by repro.db.wal.attach_wal; when present, mutations are
        # made durable (per-shard redo frames + coordinator decision
        # records) and implicit statement transactions capture redo.
        self.wal_manager = None

    @property
    def replicated(self) -> bool:
        return self.replicas > 0

    @classmethod
    def from_database(
        cls,
        database: Database,
        shards: int,
        scheme: ShardingScheme,
        replicas: int = 0,
    ) -> "ShardedDatabase":
        """Shard an existing single-server database.

        Recreates the schema on every shard and routes each table's
        rows in rowid order, so per-table rowids in the sharded
        deployment match the source exactly (the property the
        differential test harness compares against).
        """
        sharded = cls(
            database.name, shards=shards, scheme=scheme, replicas=replicas
        )
        for table in database.tables():
            schema = table.schema
            sharded.create_table(
                schema.name, schema.columns, schema.primary_key,
                schema.indexes,
            )
            for _, row in table.scan():
                sharded.insert(schema.name, row)
        return sharded

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def catalog(self):
        return self.shards[0].catalog

    # -- schema ---------------------------------------------------------------

    def _validate_sharding(
        self, schema: TableSchema, sharding: TableSharding
    ) -> None:
        pk = {c.lower() for c in schema.primary_key}
        for col in sharding.columns:
            if not schema.has_column(col):
                raise ShardError(
                    f"shard key column {col!r} does not exist in table "
                    f"{schema.name!r}"
                )
            if col not in pk:
                raise ShardError(
                    f"shard key column {col!r} of table {schema.name!r} "
                    "must be part of the primary key (uniqueness is "
                    "enforced per shard)"
                )
        for spec in schema.indexes:
            self._validate_unique_index(schema.name, sharding, spec)

    @staticmethod
    def _validate_unique_index(
        table: str, sharding: TableSharding, spec: IndexSpec
    ) -> None:
        if not spec.unique:
            return
        index_cols = {c.lower() for c in spec.columns}
        if not set(sharding.columns) <= index_cols:
            raise ShardError(
                f"unique index {spec.name!r} on sharded table {table!r} "
                "must include the shard key columns"
            )

    def create_table(
        self,
        name: str,
        columns: Sequence[Column | tuple],
        primary_key: Sequence[str],
        indexes: Sequence[IndexSpec] = (),
    ) -> None:
        tables = [
            shard.create_table(name, columns, primary_key, indexes)
            for shard in self.shards
        ]
        sharding = self.scheme.sharding(name)
        if sharding is not None:
            self._validate_sharding(tables[0].schema, sharding)
            # One global rowid sequence: merged per-shard scans
            # reconstruct single-server insertion order exactly.
            counter = RowidAllocator()
            for table in tables:
                table.use_rowid_counter(counter)
        # DDL is not logged: mirror it onto every replica now.  The
        # mirror runs after counter sharing so replica tables pick up
        # the live allocator (global for sharded tables) and a
        # promoted replica keeps allocating from the right position.
        for group in self.groups:
            if group is not None:
                group.mirror_create_table(name, columns, primary_key, indexes)

    def create_index(self, table_name: str, spec: IndexSpec) -> None:
        sharding = self.scheme.sharding(table_name)
        if sharding is not None:
            self._validate_unique_index(table_name, sharding, spec)
        for shard in self.shards:
            shard.table(table_name).create_index(spec)
        for group in self.groups:
            if group is not None:
                for replica in group.replicas:
                    replica.database.table(table_name).create_index(spec)

    def drop_table(self, name: str) -> None:
        for shard in self.shards:
            shard.drop_table(name)
        for group in self.groups:
            if group is not None:
                for replica in group.replicas:
                    replica.database.drop_table(name)

    def has_table(self, name: str) -> bool:
        return self.shards[0].has_table(name)

    def table(self, name: str, shard: int = 0) -> Table:
        return self.shards[shard].table(name)

    # -- loading --------------------------------------------------------------

    def shard_for_row(self, table_name: str, values: Sequence[Any]) -> int:
        """The owning shard of a full row of ``table_name``."""
        sharding = self.scheme.sharding(table_name)
        if sharding is None:
            raise ShardError(f"table {table_name!r} is replicated")
        schema = self.shards[0].table(table_name).schema
        key = tuple(values[schema.offset(col)] for col in sharding.columns)
        return sharding.shard_for(key, self.n_shards)

    def insert(self, table_name: str, values: Sequence[Any]) -> int:
        """Route one direct engine insert (bulk-loader fast path)."""
        if self.scheme.sharding(table_name) is None:
            rowid = 0
            for index, shard in enumerate(self.shards):
                table = shard.table(table_name)
                rowid, _ = table.insert(values)
                group = self.groups[index]
                if group is not None:
                    group.bootstrap_insert(
                        table_name, rowid, table.fetch(rowid)
                    )
            return rowid
        shard = self.shard_for_row(table_name, values)
        table = self.shards[shard].table(table_name)
        rowid, _ = table.insert(values)
        group = self.groups[shard]
        if group is not None:
            group.bootstrap_insert(table_name, rowid, table.fetch(rowid))
        return rowid

    # -- replication / failover ----------------------------------------------

    def generation(self, shard: int) -> int:
        """The replica group's promotion generation (0 unreplicated).
        Routers compare this against a cached value to notice that a
        promotion replaced the shard's database object."""
        group = self.groups[shard]
        return group.generation if group is not None else 0

    def crash_primary(self, shard: int) -> None:
        """Kill ``shard``'s primary; routing there fails with
        :class:`ShardDownError` until :meth:`promote`."""
        group = self.groups[shard]
        if group is None:
            raise ShardError(
                f"shard {shard} has no replicas; cannot survive a crash"
            )
        group.crash_primary()

    def promote(self, shard: int) -> PromotionReport:
        """Fail ``shard`` over to its most caught-up replica."""
        group = self.groups[shard]
        if group is None:
            raise ShardError(f"shard {shard} is not replicated")
        report = group.promote()
        self.shards[shard] = group.primary
        return report

    def replication_lag(self, shard: int) -> list[int]:
        group = self.groups[shard]
        return group.replication_lag() if group is not None else []

    def assert_replica_groups_consistent(self) -> None:
        """Catch every replica up, then require bit-identity with its
        primary (the tentpole's zero-divergence check)."""
        for group in self.groups:
            if group is not None:
                group.assert_replicas_consistent()

    # -- introspection --------------------------------------------------------

    def logical_rows(self, table_name: str) -> dict[int, tuple]:
        """rowid -> row across shards, in global rowid order.

        For replicated tables this is shard 0's copy (all copies are
        identical by construction).
        """
        if self.scheme.sharding(table_name) is None:
            return dict(self.shards[0].table(table_name).scan())
        merged: dict[int, tuple] = {}
        for shard in self.shards:
            merged.update(shard.table(table_name).scan())
        return dict(sorted(merged.items()))

    def total_rows(self) -> int:
        """Logical row count (replicated copies counted once)."""
        return sum(
            len(self.logical_rows(name)) for name in self.catalog.names()
        )


# ---------------------------------------------------------------------------
# Statement routing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoutePlan:
    """Where a prepared statement executes.

    ``single`` routes point-to-point through ``shard_of(params)``, the
    shard function resolved at prepare (keys are usually ``?``
    parameters, so only the key values are left to evaluate);
    ``scatter`` runs the plan's gather level over every shard;
    ``broadcast`` applies a replicated-table mutation to every copy;
    ``pinned`` runs a replicated-only read on the affinity shard.
    """

    mode: str  # single | scatter | broadcast | pinned
    shard_of: Optional[Callable[[Sequence[Any]], int]] = None


_NULL_GETTER: Compiled = lambda env, params: None  # noqa: E731

# (the table's sharding, its shard-key value closures ((env, params)))
_Keyed = tuple[TableSharding, tuple[Compiled, ...]]


def _single_shard_of(
    keyed: Sequence[_Keyed], n_shards: int
) -> Callable[[Sequence[Any]], int]:
    """The shard function of a single-shard route.

    One keyed table with one key column (every TPC-C statement)
    evaluates its getter and applies the partition function, with
    ``mod`` on an exact ``int`` inlined; every other value goes through
    :meth:`TableSharding.shard_for`, so canonicalization stays in one
    place.  Several keyed tables must agree on one shard.
    """
    if len(keyed) == 1 and len(keyed[0][1]) == 1:
        sharding, (getter,) = keyed[0]
        shard_for = sharding.shard_for
        if sharding.strategy == "mod":
            def shard_of(params: Sequence[Any]) -> int:
                value = getter({}, params)
                if type(value) is int:
                    return value % n_shards
                return shard_for((value,), n_shards)
        else:
            def shard_of(params: Sequence[Any]) -> int:
                return shard_for((getter({}, params),), n_shards)
        return shard_of

    def shard_of(params: Sequence[Any]) -> int:
        shards = {
            sharding.shard_for(
                tuple(getter({}, params) for getter in getters), n_shards
            )
            for sharding, getters in keyed
        }
        if len(shards) != 1:
            raise ShardRoutingError(
                "statement binds shard keys on different shards "
                f"{sorted(shards)}; cross-shard joins are not supported"
            )
        return shards.pop()

    return shard_of


def _equality_conjuncts(
    stmt: Statement, scope: Scope
) -> dict[tuple[str, str], Expr]:
    """(binding, column) -> value AST for sargable shard-key equalities.

    Mirrors the planner's predicate extraction, restricted to ``=``
    with a parameter/literal/expression side free of column references
    (so the router can evaluate it before choosing a shard).
    """
    conjuncts = list(_split_conjuncts(getattr(stmt, "where", None)))
    if isinstance(stmt, Select):
        for join in stmt.joins:
            conjuncts.extend(_split_conjuncts(join.condition))
    equalities: dict[tuple[str, str], Expr] = {}
    for conj in conjuncts:
        if not isinstance(conj, BinaryOp) or conj.op != "=":
            continue
        for left, right in ((conj.left, conj.right), (conj.right, conj.left)):
            if not isinstance(left, ColumnRef):
                continue
            try:
                binding, _ = scope.resolve(left)
            except Exception:
                continue
            if not _refs_only(right, set(), scope):
                continue
            equalities.setdefault((binding, left.column.lower()), right)
    return equalities


def _scatter(plan: Plan, target: TableAccess, level: int) -> RoutePlan:
    """The scatter route: ``plan`` gains a gather level at ``target``."""
    access = target.access
    plan.gather = Gather(
        level,
        access.index_name if access.kind == "index_range" else None,
    )
    return RoutePlan(mode="scatter")


def route_statement(
    scheme: ShardingScheme, stmt: Statement, plan: Plan, n_shards: int
) -> RoutePlan:
    """Decide the routing mode for one planned statement."""
    if isinstance(plan, InsertPlan):
        sharding = scheme.sharding(plan.table_name)
        if sharding is None:
            return RoutePlan(mode="broadcast")
        provided = {c.lower(): i for i, c in enumerate(plan.columns)}
        getters = []
        for col in sharding.columns:
            index = provided.get(col)
            # A missing shard-key column inserts NULL and fails the
            # NOT-NULL primary-key check on whichever shard NULL maps
            # to -- identical to the single-server error.
            getters.append(
                plan.values[index] if index is not None else _NULL_GETTER
            )
        return RoutePlan(
            mode="single",
            shard_of=_single_shard_of(
                [(sharding, tuple(getters))], n_shards
            ),
        )

    if isinstance(plan, SelectPlan):
        accesses = list(plan.tables)
        scope = plan.scope
    else:
        accesses = [plan.target]
        scope = plan.scope

    if isinstance(plan, UpdatePlan):
        sharding = scheme.sharding(plan.target.table_name)
        if sharding is not None:
            for column, _ in plan.assignments:
                if column.lower() in sharding.columns:
                    raise ShardRoutingError(
                        f"cannot update shard key column {column!r} of "
                        f"table {plan.target.table_name!r} (rows would "
                        "have to migrate between shards)"
                    )

    sharded = [
        (access, scheme.sharding(access.table_name))
        for access in accesses
        if scheme.sharding(access.table_name) is not None
    ]
    if not sharded:
        if isinstance(plan, SelectPlan):
            return RoutePlan(mode="pinned")
        return RoutePlan(mode="broadcast")

    if scope is None:
        raise ShardRoutingError(
            "cannot route a plan without planner scope metadata"
        )
    equalities = _equality_conjuncts(stmt, scope)
    keyed: list[_Keyed] = []
    unkeyed: list[TableAccess] = []
    for access, sharding in sharded:
        getters = []
        for col in sharding.columns:
            ast = equalities.get((access.binding, col))
            if ast is None:
                break
            getters.append(compile_expr(ast, Scope()))
        else:
            keyed.append((sharding, tuple(getters)))
            continue
        unkeyed.append(access)

    if not unkeyed:
        return RoutePlan(
            mode="single", shard_of=_single_shard_of(keyed, n_shards)
        )

    if isinstance(plan, (UpdatePlan, DeletePlan)):
        return _scatter(plan, plan.target, 0)

    if len(sharded) == 1:
        return _scatter(plan, unkeyed[0], accesses.index(unkeyed[0]))

    missing = {
        access.table_name: [
            col for col in sharding.columns
            if (access.binding, col) not in equalities
        ]
        for access, sharding in sharded
        if access in unkeyed
    }
    raise ShardRoutingError(
        "cannot route SELECT over sharded tables "
        f"{sorted(a.table_name for a, _ in sharded)}: no equality "
        f"predicate binds shard-key column(s) {missing}, and "
        "scatter-gather fans out one sharded table only (every other "
        "table replicated)"
    )


# ---------------------------------------------------------------------------
# The router connection
# ---------------------------------------------------------------------------


class ShardPreparedStatement:
    """A parsed, planned and *routed* statement.

    Compiled plans are per shard (each binds one shard's tables and
    indexes) and minted lazily on the first execution routed there.
    """

    def __init__(
        self,
        connection: "ShardedConnection",
        sql: str,
        plan: Plan,
        route: RoutePlan,
    ) -> None:
        self.connection = connection
        self.sql = sql
        self.plan = plan
        self.route = route
        self.is_query = isinstance(plan, SelectPlan)
        self.index = (
            column_index(plan.column_names) if self.is_query else None
        )
        # Keyed by shard (source rung only); the value remembers the
        # replica-group generation the plan was generated under, because
        # a generated plan binds the primary's table/index objects and
        # must be re-minted after a failover swaps the primary.
        self._compiled: dict[int, tuple[int, Optional[SourcePlan]]] = {}

    def compiled_for(self, shard: int) -> Optional[SourcePlan]:
        generation = self.connection.database.generation(shard)
        cached = self._compiled.get(shard)
        if cached is not None and cached[0] == generation:
            return cached[1]
        if self.connection.sql_exec != "source":
            return None
        compiled = maybe_compile_plan_source(
            self.plan, self.connection.database.shards[shard],
            tracer=getattr(self.connection, "tracer", None),
        )
        if compiled is not None:
            self.connection.plan_cache_stats.compiled_plans += 1
        self._compiled[shard] = (generation, compiled)
        return compiled

    def query(self, *params: Any) -> ResultSet:
        if not self.is_query:
            raise ExecutionError(f"not a query: {self.sql!r}")
        return self.connection._run(self, params)  # noqa: SLF001

    def update(self, *params: Any) -> int:
        if self.is_query:
            raise ExecutionError(f"not an update: {self.sql!r}")
        return self.connection._run(self, params)  # noqa: SLF001

    def execute(self, *params: Any) -> ResultSet | int:
        return self.query(*params) if self.is_query else self.update(*params)


class ShardedConnection:
    """Client connection to a :class:`ShardedDatabase`.

    Mirrors :class:`~repro.db.jdbc.Connection` -- prepared statements
    with a bounded LRU plan cache, ``?`` parameters, autocommit,
    explicit transactions -- but transactions are
    :class:`~repro.db.txn.ShardedTransaction` coordinators and every
    statement goes through the router.  ``clock`` /
    ``one_way_latency`` price the two-phase commit message rounds on a
    virtual clock when provided.
    """

    def __init__(
        self,
        database: ShardedDatabase,
        *,
        use_locks: bool = False,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        sql_exec: Optional[str] = None,
        clock=None,
        one_way_latency: float = 0.0,
        replica_reads: bool = False,
    ) -> None:
        self.database = database
        self.scheme = database.scheme
        self.planner = Planner(database.shards[0])
        self.executors = [Executor(shard) for shard in database.shards]
        self.sql_exec = resolve_sql_exec_mode(sql_exec)
        # Replication state: per-shard generation each Executor was
        # built against, read-your-writes session watermarks (highest
        # commit LSN this connection produced per shard), and cached
        # executors over replica databases for watermark-safe reads.
        self._executor_gens = [database.generation(i) for i in range(database.n_shards)]
        self.replica_reads = replica_reads and database.replicated
        self._watermarks: dict[int, int] = {}
        self._replica_executors: dict[int, tuple[Any, Executor]] = {}
        self.replica_read_count = 0
        self.replica_fallback_count = 0
        # Observability: the serving engine swaps in its tracer so
        # router dispatch and 2PC rounds land on the shared timeline.
        self.tracer = NULL_TRACER
        # 2PC outcome counters surfaced by serve reports.
        self.two_pc_aborts = 0
        self.two_pc_commits = 0
        self.lock_managers: Optional[list[Optional[LockManager]]] = (
            [LockManager() for _ in database.shards] if use_locks else None
        )
        self.clock = clock
        self.one_way_latency = one_way_latency
        # Keyed on (executor mode, sql) so flipping ``sql_exec`` on a
        # live connection cannot serve a plan minted for another rung.
        self._plan_cache: OrderedDict[
            tuple[str, str], ShardPreparedStatement
        ] = OrderedDict()
        self.plan_cache_size = max(1, plan_cache_size)
        self.plan_cache_stats = PlanCacheStats()
        self._txn: Optional[ShardedTransaction] = None
        self.observer: Optional[CallObserver] = None
        self.closed = False
        self.calls = 0
        # Replicated-only reads run on the shard the connection last
        # routed to: co-located with the conversation, like reading a
        # dimension table on whichever server you are already at.
        self._affinity = 0

    # -- statement preparation ------------------------------------------------

    def prepare(self, sql: str) -> ShardPreparedStatement:
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
        route = route_statement(
            self.scheme, stmt, plan, self.database.n_shards
        )
        prepared = ShardPreparedStatement(self, sql, plan, route)
        cache[cache_key] = prepared
        if len(cache) > self.plan_cache_size:
            cache.popitem(last=False)
            stats.evictions += 1
        return prepared

    # -- execution ----------------------------------------------------------------

    def _run(self, prepared: ShardPreparedStatement, params: Sequence[Any]):
        self._check_open()
        self.calls += 1
        auto = False
        txn = self._txn
        if txn is None and (
            self.lock_managers is not None
            or (
                not prepared.is_query
                and (
                    self.database.replicated
                    or self.database.wal_manager is not None
                )
            )
        ):
            # With locks off, a replicated or WAL-backed tier still
            # needs an implicit transaction around mutations: redo
            # capture, commit-time log shipping and durable logging
            # all hang off the transaction layer.
            txn = self._new_transaction()
            auto = True
        try:
            if self.tracer.active:
                result = self._execute_routed(prepared, params, txn)
            else:
                result = self._route_and_run(prepared, params, txn, None)
        except BaseException:
            if auto and txn is not None:
                if self.lock_managers is not None:
                    # Statement atomicity for the implicit transaction:
                    # a failed autocommit statement must not strand
                    # branch locks (wedging the shard) or abandon
                    # partial cross-shard mutations with their undo
                    # discarded.
                    txn.rollback()
                else:
                    # No locks: the single server persists a failed
                    # statement's partial mutations, so the replicated
                    # tier must ship them too or replicas diverge from
                    # their primary.
                    try:
                        self._commit_auto(txn)
                    except TransactionError:
                        if txn.state in (TxnState.ACTIVE, TxnState.PREPARED):
                            txn.rollback()
            raise
        if auto and txn is not None:
            self._commit_auto(txn)
        if self.observer is not None:
            kind = "query" if prepared.is_query else "update"
            self.observer(
                kind, prepared.sql, result.rows_touched, result.rowcount
            )
        if prepared.is_query:
            return ResultSet(result, prepared.index)
        return result.rowcount

    def _new_transaction(self) -> ShardedTransaction:
        return ShardedTransaction(
            self.database.shards,
            self.lock_managers,
            clock=self.clock,
            one_way_latency=self.one_way_latency,
            groups=self.database.groups if self.database.replicated else None,
            tracer=self.tracer,
            wal=self.database.wal_manager,
        )

    def _commit_auto(self, txn: ShardedTransaction) -> None:
        try:
            txn.commit()
        except TwoPhaseAbortError:
            self.two_pc_aborts += 1
            raise
        self.two_pc_commits += 1
        self._absorb_watermarks(txn)

    def _absorb_watermarks(self, txn: ShardedTransaction) -> None:
        for shard, lsn in txn.commit_lsns.items():
            if lsn > self._watermarks.get(shard, 0):
                self._watermarks[shard] = lsn

    def _branch(self, txn: Optional[ShardedTransaction], shard: int):
        return txn.branch(shard) if txn is not None else None

    def _shard_ready(self, shard: int) -> None:
        """Refuse a down shard; refresh state bound to a dead primary.

        Tree plans are name-based and survive promotion untouched, but
        each shard's :class:`Executor` holds the database object it was
        built on -- a generation bump means a promotion swapped the
        primary, so the executor is re-minted over the new one.
        """
        if not self.database.replicated:
            return
        group = self.database.groups[shard]
        if group.crashed:
            raise ShardDownError(shard)
        generation = group.generation
        if generation != self._executor_gens[shard]:
            self.executors[shard] = Executor(self.database.shards[shard])
            self._executor_gens[shard] = generation

    def _execute_routed(
        self,
        prepared: ShardPreparedStatement,
        params: Sequence[Any],
        txn: Optional[ShardedTransaction],
    ) -> StatementResult:
        """:meth:`_route_and_run` in a span (while the tracer is on)."""
        span = self.tracer.span(
            "router.dispatch", track="router", mode=prepared.route.mode
        )
        try:
            return self._route_and_run(prepared, params, txn, span)
        finally:
            span.finish()

    def _route_and_run(
        self,
        prepared: ShardPreparedStatement,
        params: Sequence[Any],
        txn: Optional[ShardedTransaction],
        span,
    ) -> StatementResult:
        route = prepared.route
        mode = route.mode
        if mode == "single":
            shard = self._affinity = route.shard_of(params)
        elif mode == "pinned":
            shard = self._affinity
        elif mode == "broadcast":
            return self._run_broadcast(prepared, params, txn)
        else:
            # Scatter: the tree executor runs the plan's gather level
            # over every shard's executor.
            return Shards(
                self.executors, partial(self._branch, txn),
                self._affinity, self._shard_ready,
            ).execute(prepared.plan, params)
        if span is not None:
            span.annotate(shard=shard)
        # Read-your-writes replica offload applies to plain reads only:
        # a query outside any transaction (open transactions must see
        # their own uncommitted branch state on the primary).
        if txn is None and self.replica_reads and prepared.is_query:
            result = self._run_on_replica(prepared, shard, params)
            if result is not None:
                if span is not None:
                    span.annotate(replica=True)
                return result
        # Crash and promotion are checked per statement: either can
        # happen between two statements of one transaction.
        self._shard_ready(shard)
        branch = self._branch(txn, shard)
        compiled = prepared.compiled_for(shard)
        if compiled is not None:
            return compiled.run(params, branch)
        return self.executors[shard].execute(prepared.plan, params, branch)

    def _run_on_replica(
        self,
        prepared: ShardPreparedStatement,
        shard: int,
        params: Sequence[Any],
    ) -> Optional[StatementResult]:
        """Serve a read from a caught-up replica, or None to fall back
        to the primary (every replica behind the session watermark)."""
        group = self.database.groups[shard]
        replica_db = group.read_replica(self._watermarks.get(shard, 0))
        if replica_db is None:
            # Every replica is behind the session watermark (or
            # partitioned away): the read falls back to the primary.
            self.replica_fallback_count += 1
            return None
        cached = self._replica_executors.get(shard)
        if cached is None or cached[0] is not replica_db:
            cached = (replica_db, Executor(replica_db))
            self._replica_executors[shard] = cached
        self.replica_read_count += 1
        return cached[1].execute(prepared.plan, params, None)

    def _run_broadcast(
        self,
        prepared: ShardPreparedStatement,
        params: Sequence[Any],
        txn: Optional[ShardedTransaction],
    ) -> StatementResult:
        """Apply a replicated-table statement to every shard's copy.

        A mid-statement failure is replayed on every copy (all copies
        hold identical rows, so each fails at the same row with the
        same partial state) and the first error re-raised -- replicas
        never diverge, and the observable behavior matches the single
        server exactly.
        """
        first_result: Optional[StatementResult] = None
        first_error: Optional[BaseException] = None
        for shard in range(self.database.n_shards):
            # Refuse up front: a down shard must not leave the other
            # copies mutated (the no-locks autocommit path would commit
            # that partial broadcast and the copies would diverge).
            self._shard_ready(shard)
        for shard in range(self.database.n_shards):
            branch = self._branch(txn, shard)
            try:
                compiled = prepared.compiled_for(shard)
                if compiled is not None:
                    result = compiled.run(params, branch)
                else:
                    result = self.executors[shard].execute(
                        prepared.plan, params, branch
                    )
            except Exception as err:  # noqa: BLE001 - replayed verbatim
                if first_error is None:
                    first_error = err
                continue
            if first_result is None:
                first_result = result
        if first_error is not None:
            raise first_error
        assert first_result is not None
        return first_result

    # -- convenience API (mirrors Connection) ---------------------------------

    def query(self, sql: str, *params: Any) -> ResultSet:
        """Parse (cached), route and run a SELECT."""
        return self.prepare(sql).query(*params)

    def query_one(self, sql: str, *params: Any):
        return self.query(sql, *params).one()

    def query_scalar(self, sql: str, *params: Any) -> Any:
        return self.query(sql, *params).scalar()

    def execute(self, sql: str, *params: Any) -> int:
        prepared = self.prepare(sql)
        if prepared.is_query:
            raise ExecutionError(
                f"use query() for SELECT statements: {sql!r}"
            )
        return prepared.update(*params)

    # -- transactions ---------------------------------------------------------------

    def begin(self) -> ShardedTransaction:
        self._check_open()
        if self._txn is not None:
            raise TransactionError("a transaction is already open")
        self._txn = self._new_transaction()
        return self._txn

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def commit(self) -> None:
        if self._txn is None:
            raise TransactionError("no open transaction to commit")
        try:
            self._commit_auto(self._txn)
        finally:
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

    def __enter__(self) -> "ShardedConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def connect_sharded(
    database: ShardedDatabase,
    *,
    use_locks: bool = False,
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    sql_exec: Optional[str] = None,
    clock=None,
    one_way_latency: float = 0.0,
    replica_reads: bool = False,
) -> ShardedConnection:
    """Open a router connection to ``database``.

    ``sql_exec`` selects the statement executor for single-shard /
    broadcast statements (``tree`` / ``source``);
    scatter-gather statements run their gather level on the tree
    executor.  None reads
    ``REPRO_SQL_EXEC`` (default: source).  ``replica_reads`` lets
    out-of-transaction point reads run on a replica that has caught up
    to this session's commit watermark (read-your-writes).
    """
    return ShardedConnection(
        database,
        use_locks=use_locks,
        plan_cache_size=plan_cache_size,
        sql_exec=sql_exec,
        clock=clock,
        one_way_latency=one_way_latency,
        replica_reads=replica_reads,
    )
