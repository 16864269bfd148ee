"""Wire copies and byte accounting.

Heap updates crossing the network must be *copies*: the two runtimes
live in one Python process here, but sharing mutable objects between
their heap stores would mask exactly the class of staleness bugs the
synchronization analysis exists to prevent.  ``wire_copy`` produces an
isolated copy; ``wire_size`` estimates its encoded size for the
network model.

``Row`` and ``ResultSet`` get fast paths: rows are immutable records,
so their ``values`` tuples can be shared between the copy and the
original (only the containers are rebuilt), and their sizes are
memoized by :mod:`repro.profiler.sizes`.
"""

from __future__ import annotations

from typing import Any

from repro.db.jdbc import ResultSet, Row
from repro.db.sql.executor import StatementResult
from repro.profiler.sizes import NUMBER_SIZE, estimate_size
from repro.runtime.heap import NativeRef, ObjRef


def _copy_row(row: Row) -> Row:
    # Rows are immutable records of primitives: the values tuple and
    # the column list are never mutated, so both can be shared (only
    # the Row object itself is rebuilt), and the memoized size carries
    # over.
    clone = Row(row._columns, row._values)
    clone._wire_size = row._wire_size
    return clone


def _copy_result_set(rs: ResultSet) -> ResultSet:
    result = StatementResult(
        columns=list(rs.columns),
        rows=[row._values for row in rs._rows],
        rowcount=len(rs._rows),
        rows_touched=rs.rows_touched,
    )
    clone = ResultSet(result)
    clone._wire_size = rs._wire_size
    return clone


def wire_copy(value: Any) -> Any:
    """Deep copy for transfer; refs stay refs, rows stay immutable."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (ObjRef, NativeRef)):
        return value
    if isinstance(value, list):
        return [wire_copy(v) for v in value]
    if isinstance(value, tuple):
        return tuple(wire_copy(v) for v in value)
    if isinstance(value, dict):
        return {k: wire_copy(v) for k, v in value.items()}
    if isinstance(value, Row):
        return _copy_row(value)
    if isinstance(value, ResultSet):
        return _copy_result_set(value)
    raise TypeError(f"cannot serialize {type(value).__name__} for transfer")


def wire_size(value: Any) -> int:
    """Estimated encoded size in bytes (see repro.profiler.sizes)."""
    # Exact types first: most sized values are statement parameters,
    # and most of those plain numbers (type(True) is bool, not int).
    kind = type(value)
    if kind is int or kind is float:
        return NUMBER_SIZE
    if kind is ObjRef or kind is NativeRef:
        return 12  # oid + tag
    return estimate_size(value)
