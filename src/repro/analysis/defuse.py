"""Def/use analysis.

Computes, per function, reaching definitions for local variables over
the CFG and links every use to the definitions that may reach it.
Heap accesses (fields, array elements) are *not* chained here -- they
are mediated by field/array nodes in the partition graph, matching the
paper's update-edge design -- but this module centralizes the
read/write footprint of every statement (:func:`accesses_of`), which
the graph builder, the reordering pass and the synchronization
inserter all share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.dataflow import DataflowProblem, solve_forward
from repro.lang.cfg import CFG, ENTRY
from repro.lang.ir import (
    Assign,
    Atom,
    BinExpr,
    CallExpr,
    Const,
    Expr,
    ExprStmt,
    FieldGet,
    FieldLV,
    ForEach,
    FunctionIR,
    If,
    IndexGet,
    IndexLV,
    ListLiteral,
    Return,
    Stmt,
    UnaryExpr,
    VarLV,
    VarRef,
    While,
)


@dataclass
class StatementAccess:
    """Read/write footprint of one statement."""

    sid: int
    var_reads: set[str] = field(default_factory=set)
    var_writes: set[str] = field(default_factory=set)
    # (object atom, field name) pairs.
    field_reads: list[tuple[Atom, str]] = field(default_factory=list)
    field_writes: list[tuple[Atom, str]] = field(default_factory=list)
    # container atoms whose elements are read / written.
    index_reads: list[Atom] = field(default_factory=list)
    index_writes: list[Atom] = field(default_factory=list)
    calls: list[CallExpr] = field(default_factory=list)

    @property
    def has_db_call(self) -> bool:
        from repro.lang.ir import CallKind

        return any(c.kind is CallKind.DB for c in self.calls)

    @property
    def is_print(self) -> bool:
        from repro.lang.ir import CallKind

        return any(
            c.kind is CallKind.NATIVE and c.name == "print" for c in self.calls
        )


def _read_atom(atom: Atom, acc: StatementAccess) -> None:
    if isinstance(atom, VarRef):
        acc.var_reads.add(atom.name)


def _read_expr(expr: Expr, acc: StatementAccess) -> None:
    if isinstance(expr, (Const,)):
        return
    if isinstance(expr, VarRef):
        acc.var_reads.add(expr.name)
        return
    if isinstance(expr, BinExpr):
        _read_atom(expr.left, acc)
        _read_atom(expr.right, acc)
        return
    if isinstance(expr, UnaryExpr):
        _read_atom(expr.operand, acc)
        return
    if isinstance(expr, FieldGet):
        _read_atom(expr.obj, acc)
        acc.field_reads.append((expr.obj, expr.field))
        return
    if isinstance(expr, IndexGet):
        _read_atom(expr.obj, acc)
        _read_atom(expr.index, acc)
        acc.index_reads.append(expr.obj)
        return
    if isinstance(expr, ListLiteral):
        for element in expr.elements:
            _read_atom(element, acc)
        return
    if isinstance(expr, CallExpr):
        acc.calls.append(expr)
        if expr.target is not None:
            _read_atom(expr.target, acc)
        for arg in expr.args:
            _read_atom(arg, acc)
        # Calls on containers may mutate them (append etc.); treat the
        # receiver of a native-method call as an element write when the
        # method is a known mutator.
        from repro.lang.ir import CallKind

        if expr.kind is CallKind.NATIVE_METHOD and expr.name in {
            "append",
            "extend",
            "pop",
        }:
            if expr.target is not None:
                acc.index_writes.append(expr.target)
        return
    raise AssertionError(f"unhandled expr {expr!r}")  # pragma: no cover


def accesses_of(stmt: Stmt) -> StatementAccess:
    """Compute the read/write footprint of a single statement."""
    acc = StatementAccess(sid=stmt.sid)
    if isinstance(stmt, Assign):
        _read_expr(stmt.value, acc)
        target = stmt.target
        if isinstance(target, VarLV):
            acc.var_writes.add(target.name)
        elif isinstance(target, FieldLV):
            _read_atom(target.obj, acc)
            acc.field_writes.append((target.obj, target.field))
        elif isinstance(target, IndexLV):
            _read_atom(target.obj, acc)
            _read_atom(target.index, acc)
            acc.index_writes.append(target.obj)
    elif isinstance(stmt, ExprStmt):
        _read_expr(stmt.expr, acc)
    elif isinstance(stmt, If):
        _read_atom(stmt.cond, acc)
    elif isinstance(stmt, While):
        _read_atom(stmt.cond, acc)
    elif isinstance(stmt, ForEach):
        _read_atom(stmt.iterable, acc)
        acc.index_reads.append(stmt.iterable)
        acc.var_writes.add(stmt.var)
    elif isinstance(stmt, Return):
        if stmt.value is not None:
            _read_atom(stmt.value, acc)
    return acc


@dataclass
class DefUseResult:
    """Def/use chains for one function.

    ``chains`` maps a use (sid, var) to the set of defining sids;
    ENTRY (-1) as a defining sid means "defined by a parameter".
    ``accesses`` caches the per-statement footprint.
    """

    func: str
    chains: dict[tuple[int, str], frozenset[int]] = field(default_factory=dict)
    accesses: dict[int, StatementAccess] = field(default_factory=dict)

    def defs_reaching(self, sid: int, var: str) -> frozenset[int]:
        return self.chains.get((sid, var), frozenset())

    def edges(self) -> Iterator[tuple[int, int, str]]:
        """Yield (def_sid, use_sid, var) triples (excluding ENTRY defs)."""
        for (use_sid, var), defs in self.chains.items():
            for def_sid in sorted(defs):
                if def_sid != ENTRY:
                    yield def_sid, use_sid, var

    def param_uses(self, param: str) -> list[int]:
        """Statements that may read the parameter's initial value."""
        return sorted(
            use_sid
            for (use_sid, var), defs in self.chains.items()
            if var == param and ENTRY in defs
        )


def def_use_chains(func: FunctionIR, cfg: CFG) -> DefUseResult:
    """Reaching-definitions-based def/use chains for ``func``."""
    accesses = {stmt.sid: accesses_of(stmt) for stmt in func.walk()}
    params = set(func.params) | {"self"}

    def transfer(sid: int, in_fact: frozenset) -> frozenset:
        if sid == ENTRY:
            return frozenset((param, ENTRY) for param in params)
        acc = accesses.get(sid)
        if acc is None or not acc.var_writes:
            return in_fact
        surviving = {
            (var, def_sid)
            for (var, def_sid) in in_fact
            if var not in acc.var_writes
        }
        surviving.update((var, sid) for var in acc.var_writes)
        return frozenset(surviving)

    in_facts, _ = solve_forward(
        cfg, DataflowProblem(transfer=transfer)
    )

    result = DefUseResult(func=func.qualified_name, accesses=accesses)
    for sid, acc in accesses.items():
        if not acc.var_reads:
            continue
        fact = in_facts.get(sid, frozenset())
        # Sorted, like ``edges``: the chains' order reaches the
        # partition graph, and a string set's order follows the hash seed.
        for var in sorted(acc.var_reads):
            defs = frozenset(
                def_sid for (fact_var, def_sid) in fact if fact_var == var
            )
            if defs:
                result.chains[(sid, var)] = defs
    return result
