"""Three-address normalization.

The partitioner places *statements*, so compound expressions must be
flattened until every operation's operands are atoms (constants or
variables).  :class:`StmtBuilder` is the flattening engine used by the
parser: it accumulates simple statements and hands back atoms for
nested sub-expressions, introducing compiler temporaries ``$t0, $t1,
...`` as needed.

``normalize_program`` is the final pass: it assigns statement ids,
validates structural invariants, and records per-class field lists
(every field ever written through ``self``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.lang.errors import IRValidationError
from repro.lang.ir import (
    Assign,
    Atom,
    Block,
    CallExpr,
    CallKind,
    Const,
    Expr,
    FieldGet,
    FieldLV,
    ForEach,
    FunctionIR,
    If,
    IndexGet,
    IndexLV,
    ListLiteral,
    ProgramIR,
    Return,
    Stmt,
    VarLV,
    VarRef,
    While,
    assign_sids,
    is_atom,
)

TEMP_PREFIX = "$t"


class TempAllocator:
    """Per-function temp-variable name allocator."""

    def __init__(self) -> None:
        self._count = 0

    def fresh(self) -> str:
        name = f"{TEMP_PREFIX}{self._count}"
        self._count += 1
        return name

    @property
    def count(self) -> int:
        return self._count


@dataclass
class StmtBuilder:
    """Accumulates normalized statements for one block."""

    temps: TempAllocator
    stmts: list[Stmt] = field(default_factory=list)

    def emit(self, stmt: Stmt, line: int = 0) -> Stmt:
        stmt.line = line
        self.stmts.append(stmt)
        return stmt

    def materialize(self, expr: Expr, line: int = 0) -> Atom:
        """Return an atom for ``expr``, emitting a temp assignment if needed."""
        if is_atom(expr):
            return expr  # type: ignore[return-value]
        temp = self.temps.fresh()
        self.emit(Assign(VarLV(temp), expr), line)
        return VarRef(temp)

    def child(self) -> "StmtBuilder":
        """A builder for a nested block sharing the temp allocator."""
        return StmtBuilder(temps=self.temps)

    def block(self) -> Block:
        return Block(self.stmts)


def normalize_program(program: ProgramIR) -> ProgramIR:
    """Finalize a parsed program: assign sids, validate, collect fields.

    Statements are numbered from 1 within the program, so everything
    derived from them -- PyxIL listings, allocation-site ids, generated
    block source -- depends on the program alone, not on what else the
    process parsed before it.
    """
    sids = itertools.count(1)
    for cls in program.classes.values():
        fields: set[str] = set()
        for func in cls.methods.values():
            assign_sids(func.body, sids)
            _validate_function(func)
            fields.update(_written_fields(func))
        # Fields read but never written still need declarations.
        for func in cls.methods.values():
            fields.update(_read_fields(func))
        cls.fields = sorted(fields)
    program.validate()
    return program


def _written_fields(func: FunctionIR) -> set[str]:
    written: set[str] = set()
    for stmt in func.walk():
        if isinstance(stmt, Assign) and isinstance(stmt.target, FieldLV):
            written.add(stmt.target.field)
    return written


def _read_fields(func: FunctionIR) -> set[str]:
    read: set[str] = set()
    for stmt in func.walk():
        for expr in stmt.exprs():
            if isinstance(expr, FieldGet):
                read.add(expr.field)
    return read


def _validate_function(func: FunctionIR) -> None:
    """Check the three-address property: operation operands are atoms."""
    for stmt in func.walk():
        for expr in stmt.exprs():
            if isinstance(expr, (Const, VarRef)):
                continue
            for atom in expr.atoms():
                if not is_atom(atom):
                    raise IRValidationError(
                        f"{func.qualified_name} sid={stmt.sid}: operand "
                        f"{atom!r} of {expr!r} is not an atom"
                    )
        if isinstance(stmt, Assign):
            for atom in stmt.target.atoms():
                if not is_atom(atom):
                    raise IRValidationError(
                        f"{func.qualified_name} sid={stmt.sid}: l-value "
                        f"operand {atom!r} is not an atom"
                    )
        if isinstance(stmt, (If, While)):
            if not is_atom(stmt.cond):
                raise IRValidationError(
                    f"{func.qualified_name} sid={stmt.sid}: condition "
                    f"{stmt.cond!r} is not an atom"
                )
        if isinstance(stmt, ForEach) and not is_atom(stmt.iterable):
            raise IRValidationError(
                f"{func.qualified_name} sid={stmt.sid}: iterable is not an atom"
            )
        if isinstance(stmt, Return) and stmt.value is not None:
            if not is_atom(stmt.value):
                raise IRValidationError(
                    f"{func.qualified_name} sid={stmt.sid}: return value "
                    "is not an atom"
                )


def is_temp(name: str) -> bool:
    return name.startswith(TEMP_PREFIX)
