"""Intermediate representation.

The IR is a structured (not flattened) statement tree whose *simple*
statements are three-address after normalization: every operand of an
operation is an atom (constant or variable reference).  Each statement
carries a unique ``sid`` -- the node identity used by the control-flow
graph, the analyses, the profiler and the partition graph.

Design notes
------------
* Expressions are pure; all side effects (calls, allocations, heap
  writes) live in statements.  This matches the PDG view of the paper,
  where nodes are statements and edges are dependencies.
* ``self`` is an ordinary variable; fields are accessed via
  :class:`FieldGet` / :class:`FieldLV` on it.
* Calls carry a :class:`CallKind` so later phases can tell apart
  intra-program method calls, DB API calls (pinned together, Section
  4.3), native calls, and allocations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union


class CallKind(enum.Enum):
    METHOD = "method"            # self.helper(...)
    DB = "db"                    # self.db.query(...) etc.
    NATIVE = "native"            # len(...), sha1(...), print(...)
    NATIVE_METHOD = "native_method"  # rs.one(), costs.append(x)
    ALLOC_LIST = "alloc_list"    # [0] * n, [] , list_of(...)
    ALLOC_OBJECT = "alloc_object"  # OtherPartitionedClass(...)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for IR expressions."""

    def atoms(self) -> Iterator["Atom"]:
        """Yield the atomic operands of this expression."""
        return iter(())


@dataclass(frozen=True)
class Const(Expr):
    value: object

    def atoms(self) -> Iterator["Atom"]:
        yield self


@dataclass(frozen=True)
class VarRef(Expr):
    name: str

    def atoms(self) -> Iterator["Atom"]:
        yield self


Atom = Union[Const, VarRef]


def is_atom(expr: Expr) -> bool:
    return isinstance(expr, (Const, VarRef))


@dataclass(frozen=True)
class BinExpr(Expr):
    """Binary operation; ``op`` is a Python-style operator string.

    Arithmetic: ``+ - * / // %``; comparison: ``== != < <= > >=``;
    boolean: ``and or`` (normalized to non-short-circuit over atoms).
    """

    op: str
    left: Atom
    right: Atom

    def atoms(self) -> Iterator[Atom]:
        yield self.left
        yield self.right


@dataclass(frozen=True)
class UnaryExpr(Expr):
    op: str  # "-" or "not"
    operand: Atom

    def atoms(self) -> Iterator[Atom]:
        yield self.operand


@dataclass(frozen=True)
class FieldGet(Expr):
    obj: Atom
    field: str

    def atoms(self) -> Iterator[Atom]:
        yield self.obj


@dataclass(frozen=True)
class IndexGet(Expr):
    obj: Atom
    index: Atom

    def atoms(self) -> Iterator[Atom]:
        yield self.obj
        yield self.index


@dataclass(frozen=True)
class ListLiteral(Expr):
    """A list allocation from element atoms (an array allocation site)."""

    elements: tuple[Atom, ...]

    def atoms(self) -> Iterator[Atom]:
        yield from self.elements


@dataclass(frozen=True)
class CallExpr(Expr):
    """A call; the sole expression kind with effects (hence statement-only).

    ``target`` is the receiver atom for NATIVE_METHOD calls, None
    otherwise.  For DB calls, ``name`` is the API method (``query``,
    ``query_one``, ``query_scalar``, ``execute``) and ``args[0]`` is by
    convention the SQL string constant.
    """

    kind: CallKind
    name: str
    args: tuple[Atom, ...]
    target: Optional[Atom] = None

    def atoms(self) -> Iterator[Atom]:
        if self.target is not None:
            yield self.target
        yield from self.args


# ---------------------------------------------------------------------------
# L-values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarLV:
    name: str

    def atoms(self) -> Iterator[Atom]:
        return iter(())


@dataclass(frozen=True)
class FieldLV:
    obj: Atom
    field: str

    def atoms(self) -> Iterator[Atom]:
        yield self.obj


@dataclass(frozen=True)
class IndexLV:
    obj: Atom
    index: Atom

    def atoms(self) -> Iterator[Atom]:
        yield self.obj
        yield self.index


LValue = Union[VarLV, FieldLV, IndexLV]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    """Base class; every statement has an identity and source line."""

    sid: int = field(default=0, init=False)
    line: int = field(default=0, init=False)

    def blocks(self) -> Iterator["Block"]:
        """Yield nested blocks (empty for simple statements)."""
        return iter(())

    def exprs(self) -> Iterator[Expr]:
        """Yield expressions evaluated by this statement."""
        return iter(())


@dataclass
class Assign(Stmt):
    target: LValue
    value: Expr

    def exprs(self) -> Iterator[Expr]:
        yield self.value


@dataclass
class ExprStmt(Stmt):
    """A call evaluated for effect only."""

    expr: CallExpr

    def exprs(self) -> Iterator[Expr]:
        yield self.expr


@dataclass
class If(Stmt):
    cond: Atom
    then: "Block"
    orelse: "Block"

    def blocks(self) -> Iterator["Block"]:
        yield self.then
        yield self.orelse

    def exprs(self) -> Iterator[Expr]:
        yield self.cond


@dataclass
class While(Stmt):
    """``while`` loop.

    ``header`` recomputes the condition into a temp before each test;
    the While node itself is the branch node carrying control
    dependencies (like the paper's loop-condition node).
    """

    header: "Block"
    cond: Atom
    body: "Block"

    def blocks(self) -> Iterator["Block"]:
        yield self.header
        yield self.body

    def exprs(self) -> Iterator[Expr]:
        yield self.cond


@dataclass
class ForEach(Stmt):
    """``for var in iterable`` -- the paper's ``for (itemCost : costs)``."""

    var: str
    iterable: Atom
    body: "Block"

    def blocks(self) -> Iterator["Block"]:
        yield self.body

    def exprs(self) -> Iterator[Expr]:
        yield self.iterable


@dataclass
class Return(Stmt):
    value: Optional[Atom] = None

    def exprs(self) -> Iterator[Expr]:
        if self.value is not None:
            yield self.value


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Block:
    """A sequence of statements."""

    stmts: list[Stmt] = field(default_factory=list)

    def __iter__(self) -> Iterator[Stmt]:
        return iter(self.stmts)

    def __len__(self) -> int:
        return len(self.stmts)

    def walk(self) -> Iterator[Stmt]:
        """Yield every statement in this block, depth-first, pre-order."""
        for stmt in self.stmts:
            yield stmt
            for block in stmt.blocks():
                yield from block.walk()


# ---------------------------------------------------------------------------
# Functions / classes / programs
# ---------------------------------------------------------------------------


@dataclass
class FunctionIR:
    """One partitionable method."""

    name: str
    params: list[str]
    body: Block
    class_name: str = ""
    is_entry: bool = False

    @property
    def qualified_name(self) -> str:
        return f"{self.class_name}.{self.name}" if self.class_name else self.name

    def walk(self) -> Iterator[Stmt]:
        yield from self.body.walk()

    def statement_map(self) -> dict[int, Stmt]:
        return {stmt.sid: stmt for stmt in self.walk()}


@dataclass
class ClassIR:
    """One partitionable class: its fields and methods."""

    name: str
    methods: dict[str, FunctionIR] = field(default_factory=dict)
    fields: list[str] = field(default_factory=list)
    db_attr: str = "db"

    def method(self, name: str) -> FunctionIR:
        return self.methods[name]


@dataclass
class ProgramIR:
    """The unit of partitioning: one or more classes."""

    classes: dict[str, ClassIR] = field(default_factory=dict)
    entry_points: list[tuple[str, str]] = field(default_factory=list)

    def cls(self, name: str) -> ClassIR:
        return self.classes[name]

    def functions(self) -> Iterator[FunctionIR]:
        for cls in self.classes.values():
            yield from cls.methods.values()

    def function(self, class_name: str, method: str) -> FunctionIR:
        return self.classes[class_name].methods[method]

    def all_statements(self) -> Iterator[Stmt]:
        for func in self.functions():
            yield from func.walk()

    def statement_map(self) -> dict[int, Stmt]:
        return {stmt.sid: stmt for stmt in self.all_statements()}

    def validate(self) -> None:
        """Check sid uniqueness across the whole program."""
        from repro.lang.errors import IRValidationError

        seen: set[int] = set()
        for stmt in self.all_statements():
            if stmt.sid == 0:
                raise IRValidationError(f"statement missing sid: {stmt!r}")
            if stmt.sid in seen:
                raise IRValidationError(f"duplicate sid {stmt.sid}")
            seen.add(stmt.sid)


def assign_sids(block: Block, sids: Iterator[int]) -> None:
    """Give every unnumbered statement in ``block`` the next of ``sids``
    (idempotent-safe)."""
    for stmt in block.walk():
        if stmt.sid == 0:
            stmt.sid = next(sids)
