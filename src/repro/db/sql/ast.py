"""SQL abstract syntax tree."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union


class Expr:
    """Base class for scalar expressions."""

    def walk(self):
        """Yield this node and all descendants."""
        yield self


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def walk(self):
        yield self


@dataclass(frozen=True)
class Parameter(Expr):
    """A ``?`` placeholder; ``index`` is its 0-based position."""

    index: int

    def walk(self):
        yield self


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly table-qualified column reference."""

    column: str
    table: Optional[str] = None

    def walk(self):
        yield self

    @property
    def display(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary operator: comparison, boolean, or arithmetic."""

    op: str
    left: Expr
    right: Expr

    def walk(self):
        yield self
        yield from self.left.walk()
        yield from self.right.walk()


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "not" or "-"
    operand: Expr

    def walk(self):
        yield self
        yield from self.operand.walk()


@dataclass(frozen=True)
class FuncCall(Expr):
    """Aggregate or scalar function call.  ``star`` marks COUNT(*)."""

    name: str
    args: tuple[Expr, ...] = ()
    star: bool = False
    distinct: bool = False

    def walk(self):
        yield self
        for arg in self.args:
            yield from arg.walk()

    @property
    def is_aggregate(self) -> bool:
        return self.name.lower() in {"count", "sum", "min", "max", "avg"}


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def walk(self):
        yield self
        yield from self.operand.walk()


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    options: tuple[Expr, ...]
    negated: bool = False

    def walk(self):
        yield self
        yield from self.operand.walk()
        for option in self.options:
            yield from option.walk()


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def walk(self):
        yield self
        yield from self.operand.walk()
        yield from self.low.walk()
        yield from self.high.walk()


@dataclass(frozen=True)
class SelectItem:
    """One projection: an expression with an optional alias, or ``*``."""

    expr: Optional[Expr]
    alias: Optional[str] = None
    star: bool = False


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias if self.alias else self.name


@dataclass(frozen=True)
class JoinClause:
    table: TableRef
    condition: Expr


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


class Statement:
    """Base class for SQL statements."""


@dataclass(frozen=True)
class Select(Statement):
    items: tuple[SelectItem, ...]
    table: TableRef
    joins: tuple[JoinClause, ...] = ()
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[Expr] = None
    distinct: bool = False
    for_update: bool = False

    @property
    def has_aggregates(self) -> bool:
        for item in self.items:
            if item.expr is None:
                continue
            for node in item.expr.walk():
                if isinstance(node, FuncCall) and node.is_aggregate:
                    return True
        return False


@dataclass(frozen=True)
class Insert(Statement):
    table: TableRef
    columns: tuple[str, ...]
    values: tuple[Expr, ...]


@dataclass(frozen=True)
class Assignment:
    column: str
    value: Expr


@dataclass(frozen=True)
class Update(Statement):
    table: TableRef
    assignments: tuple[Assignment, ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete(Statement):
    table: TableRef
    where: Optional[Expr] = None
