"""SQL front end: lexer, AST, parser, planner, executor.

Supports the dialect used by the TPC-C / TPC-W workloads:

* ``SELECT`` with projections, aggregates (COUNT/SUM/MIN/MAX/AVG),
  inner joins, ``WHERE`` conjunctions/disjunctions of comparisons,
  ``GROUP BY``, ``ORDER BY ... [DESC]``, ``LIMIT`` and ``FOR UPDATE``.
* ``INSERT INTO ... VALUES``.
* ``UPDATE ... SET col = expr [, ...] WHERE ...`` with arithmetic.
* ``DELETE FROM ... WHERE ...``.
* ``?`` positional parameters everywhere a literal is allowed.
"""

from repro.db.sql.lexer import Token, TokenKind, tokenize
from repro.db.sql.ast import (
    Statement,
    Select,
    Insert,
    Update,
    Delete,
    SelectItem,
    TableRef,
    Expr,
    ColumnRef,
    Literal,
    Parameter,
    BinaryOp,
    FuncCall,
    OrderItem,
)
from repro.db.sql.parser import parse
from repro.db.sql.planner import Planner, Plan
from repro.db.sql.executor import Executor, StatementResult
from repro.db.sql.codegen_plan import (
    DEFAULT_SQL_EXEC,
    SQL_EXEC_ENV_VAR,
    SQL_EXEC_MODES,
    resolve_sql_exec_mode,
)

__all__ = [
    "Token",
    "TokenKind",
    "tokenize",
    "Statement",
    "Select",
    "Insert",
    "Update",
    "Delete",
    "SelectItem",
    "TableRef",
    "Expr",
    "ColumnRef",
    "Literal",
    "Parameter",
    "BinaryOp",
    "FuncCall",
    "OrderItem",
    "parse",
    "Planner",
    "Plan",
    "Executor",
    "StatementResult",
    "DEFAULT_SQL_EXEC",
    "SQL_EXEC_ENV_VAR",
    "SQL_EXEC_MODES",
    "resolve_sql_exec_mode",
]
