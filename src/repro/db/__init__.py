"""In-memory relational database substrate.

The paper runs its benchmarks against MySQL through JDBC.  This package
is the reproduction's synthetic equivalent: a small but real relational
engine with

* a typed catalog (:mod:`repro.db.catalog`),
* hash and ordered secondary indexes (:mod:`repro.db.index`),
* a heap-table storage engine (:mod:`repro.db.engine`),
* a SQL front end -- lexer, parser, planner, executor
  (:mod:`repro.db.sql`),
* transactions with strict two-phase locking and deadlock detection
  (:mod:`repro.db.txn`), and
* a JDBC-like client API with prepared statements and result sets
  (:mod:`repro.db.jdbc`).

The engine executes for real (every query returns correct rows); the
cluster simulator charges CPU time for each operation so partitioned
programs observe realistic relative costs.
"""

from repro.db.errors import (
    DatabaseError,
    SqlSyntaxError,
    PlanError,
    ExecutionError,
    IntegrityError,
    UnknownTableError,
    UnknownColumnError,
    TransactionError,
    DeadlockError,
    LockTimeoutError,
    ShardError,
    ShardRoutingError,
    ShardDownError,
    TwoPhaseAbortError,
    WalCorruptionError,
    WalError,
)
from repro.db.catalog import Column, ColumnType, TableSchema, Catalog
from repro.db.index import HashIndex, OrderedIndex
from repro.db.engine import Database, Table
from repro.db.jdbc import (
    Connection,
    PlanCacheStats,
    PreparedStatement,
    ResultSet,
    connect,
)
from repro.db.sql import (
    DEFAULT_SQL_EXEC,
    SQL_EXEC_ENV_VAR,
    SQL_EXEC_MODES,
    resolve_sql_exec_mode,
)
from repro.db.mvcc import MvccState
from repro.db.htap import ColumnTable, HtapMirror, TpccAnalytics
from repro.db.txn import (
    LockManager,
    LockMode,
    ShardedTransaction,
    Transaction,
)
from repro.db.replica import (
    CommitLog,
    CommitLogStats,
    LogEntry,
    PromotionReport,
    RedoOp,
    Replica,
    ReplicaGroup,
)
from repro.db.shard import (
    ShardedConnection,
    ShardedDatabase,
    ShardingScheme,
    TableSharding,
    connect_sharded,
)
from repro.db.wal import (
    CoordinatorLog,
    ShardWal,
    WalManager,
    WalStats,
    attach_wal,
)
from repro.db.recovery import (
    RecoveryReport,
    ShardRecovery,
    recover,
    recover_database,
    recover_sharded,
)

__all__ = [
    "DatabaseError",
    "SqlSyntaxError",
    "PlanError",
    "ExecutionError",
    "IntegrityError",
    "UnknownTableError",
    "UnknownColumnError",
    "TransactionError",
    "DeadlockError",
    "LockTimeoutError",
    "Column",
    "ColumnType",
    "TableSchema",
    "Catalog",
    "HashIndex",
    "OrderedIndex",
    "Database",
    "Table",
    "Connection",
    "PlanCacheStats",
    "PreparedStatement",
    "ResultSet",
    "connect",
    "DEFAULT_SQL_EXEC",
    "SQL_EXEC_ENV_VAR",
    "SQL_EXEC_MODES",
    "resolve_sql_exec_mode",
    "LockManager",
    "LockMode",
    "MvccState",
    "ColumnTable",
    "HtapMirror",
    "TpccAnalytics",
    "Transaction",
    "ShardError",
    "ShardRoutingError",
    "ShardDownError",
    "TwoPhaseAbortError",
    "CommitLog",
    "CommitLogStats",
    "LogEntry",
    "PromotionReport",
    "RedoOp",
    "Replica",
    "ReplicaGroup",
    "ShardedTransaction",
    "ShardedConnection",
    "ShardedDatabase",
    "ShardingScheme",
    "TableSharding",
    "connect_sharded",
    "WalError",
    "WalCorruptionError",
    "CoordinatorLog",
    "ShardWal",
    "WalManager",
    "WalStats",
    "attach_wal",
    "RecoveryReport",
    "ShardRecovery",
    "recover",
    "recover_database",
    "recover_sharded",
]
