"""Python ``ast`` -> IR parser.

Parses application classes written in the supported Java-like subset.
The subset is deliberately strict (see :mod:`repro.lang.errors`):

* classes with methods; ``self.<field>`` for state, ``self.db`` for
  database access;
* assignments (including augmented), ``if``/``while``/``for-in``,
  ``return``, ``break``, ``continue``, ``pass``, call statements;
* expressions over locals, fields, list elements, arithmetic /
  comparison / boolean operators, list literals, ``[x] * n``
  allocations, calls to whitelisted natives, ``self`` methods, other
  partitioned classes (allocation) and the DB API.

Boolean ``and`` / ``or`` are *strict* (both operands evaluate) in this
subset -- the normalizer hoists operands into temps, which is the
standard PDG-friendly form; application code must not rely on
short-circuit evaluation for effects.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Iterable, Optional, Sequence

from repro.lang.errors import UnsupportedConstructError
from repro.lang.ir import (
    Assign,
    Atom,
    Block,
    Break,
    CallExpr,
    CallKind,
    ClassIR,
    Const,
    Continue,
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
    ProgramIR,
    Return,
    UnaryExpr,
    BinExpr,
    VarLV,
    VarRef,
    While,
)
from repro.lang.normalizer import StmtBuilder, TempAllocator, normalize_program

# Natives callable by bare name from partitioned code.  The runtime's
# NativeRegistry must provide implementations for all of these.
NATIVE_FUNCTIONS = frozenset(
    {
        "len", "range", "abs", "min", "max", "sum", "int", "float",
        "str", "bool", "round", "print", "sha1_hex", "new_list",
        "sorted_list", "concat",
    }
)

# Whitelisted methods on native objects (result sets, rows, lists).
NATIVE_METHODS = frozenset(
    {
        "append", "pop", "get", "one", "first", "scalar", "rows",
        "as_dict", "as_tuple", "next", "size", "extend", "index",
    }
)

DB_API_METHODS = frozenset(
    {"query", "query_one", "query_scalar", "execute"}
)

_BIN_OPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
}

_CMP_OPS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
}


def _fail(construct: str, node: ast.AST) -> None:
    raise UnsupportedConstructError(construct, getattr(node, "lineno", None))


class _FunctionParser:
    """Parses one method body into normalized IR."""

    def __init__(
        self,
        class_name: str,
        known_classes: set[str],
        db_attr: str,
        known_methods: frozenset[str] = frozenset(),
    ) -> None:
        self.class_name = class_name
        self.known_classes = known_classes
        self.db_attr = db_attr
        self.known_methods = known_methods
        self.temps = TempAllocator()

    # -- statements ---------------------------------------------------------

    def parse_block(self, body: Sequence[ast.stmt]) -> Block:
        builder = StmtBuilder(temps=self.temps)
        for node in body:
            self.parse_stmt(node, builder)
        return builder.block()

    def parse_stmt(self, node: ast.stmt, builder: StmtBuilder) -> None:
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Pass):
            return
        if isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, str
            ):
                return  # docstring
            if not isinstance(node.value, ast.Call):
                _fail("expression statement that is not a call", node)
            call = self.parse_call(node.value, builder)
            builder.emit(ExprStmt(call), line)
            return
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1:
                _fail("multiple assignment targets", node)
            self._parse_assign(node.targets[0], node.value, builder, line)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is None:
                return  # bare declaration
            self._parse_assign(node.target, node.value, builder, line)
            return
        if isinstance(node, ast.AugAssign):
            self._parse_aug_assign(node, builder, line)
            return
        if isinstance(node, ast.If):
            cond = self._atom(node.test, builder)
            stmt = If(
                cond=cond,
                then=self.parse_block(node.body),
                orelse=self.parse_block(node.orelse),
            )
            builder.emit(stmt, line)
            return
        if isinstance(node, ast.While):
            if node.orelse:
                _fail("while-else", node)
            header = StmtBuilder(temps=self.temps)
            cond = self._atom(node.test, header)
            stmt = While(
                header=header.block(),
                cond=cond,
                body=self.parse_block(node.body),
            )
            builder.emit(stmt, line)
            return
        if isinstance(node, ast.For):
            if node.orelse:
                _fail("for-else", node)
            if not isinstance(node.target, ast.Name):
                _fail("destructuring loop target", node)
            iterable = self._atom(node.iter, builder)
            stmt = ForEach(
                var=node.target.id,
                iterable=iterable,
                body=self.parse_block(node.body),
            )
            builder.emit(stmt, line)
            return
        if isinstance(node, ast.Return):
            value: Optional[Atom] = None
            if node.value is not None:
                value = self._atom(node.value, builder)
            builder.emit(Return(value), line)
            return
        if isinstance(node, ast.Break):
            builder.emit(Break(), line)
            return
        if isinstance(node, ast.Continue):
            builder.emit(Continue(), line)
            return
        _fail(type(node).__name__, node)

    def _parse_assign(
        self,
        target: ast.expr,
        value: ast.expr,
        builder: StmtBuilder,
        line: int,
    ) -> None:
        rhs = self.parse_expr(value, builder)
        lvalue = self._parse_lvalue(target, builder)
        builder.emit(Assign(lvalue, rhs), line)

    def _parse_aug_assign(
        self, node: ast.AugAssign, builder: StmtBuilder, line: int
    ) -> None:
        op = _BIN_OPS.get(type(node.op))
        if op is None:
            _fail(f"augmented operator {type(node.op).__name__}", node)
        # Read current value, compute, write back.
        if isinstance(node.target, ast.Name):
            current: Expr = VarRef(node.target.id)
        elif isinstance(node.target, ast.Attribute):
            obj = self._atom(node.target.value, builder)
            current = FieldGet(obj, node.target.attr)
        elif isinstance(node.target, ast.Subscript):
            obj = self._atom(node.target.value, builder)
            index = self._atom(node.target.slice, builder)
            current = IndexGet(obj, index)
        else:
            _fail("augmented assignment target", node)
            return
        cur_atom = builder.materialize(current, line)
        rhs_atom = self._atom(node.value, builder)
        combined = builder.materialize(BinExpr(op, cur_atom, rhs_atom), line)
        lvalue = self._parse_lvalue(node.target, builder)
        builder.emit(Assign(lvalue, combined), line)

    def _parse_lvalue(self, target: ast.expr, builder: StmtBuilder):
        if isinstance(target, ast.Name):
            return VarLV(target.id)
        if isinstance(target, ast.Attribute):
            obj = self._atom(target.value, builder)
            if target.attr == self.db_attr:
                _fail("assignment to the db connection attribute", target)
            return FieldLV(obj, target.attr)
        if isinstance(target, ast.Subscript):
            obj = self._atom(target.value, builder)
            index = self._atom(target.slice, builder)
            return IndexLV(obj, index)
        _fail(f"assignment target {type(target).__name__}", target)

    # -- expressions ---------------------------------------------------------

    def _atom(self, node: ast.expr, builder: StmtBuilder) -> Atom:
        expr = self.parse_expr(node, builder)
        return builder.materialize(expr, getattr(node, "lineno", 0))

    def parse_expr(self, node: ast.expr, builder: StmtBuilder) -> Expr:
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant):
            if node.value is Ellipsis:
                _fail("ellipsis", node)
            return Const(node.value)
        if isinstance(node, ast.Name):
            return VarRef(node.id)
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr == self.db_attr
            ):
                _fail("self.db used outside a DB API call", node)
            obj = self._atom(node.value, builder)
            return FieldGet(obj, node.attr)
        if isinstance(node, ast.Subscript):
            obj = self._atom(node.value, builder)
            index = self._atom(node.slice, builder)
            return IndexGet(obj, index)
        if isinstance(node, ast.BinOp):
            op = _BIN_OPS.get(type(node.op))
            if op is None:
                _fail(f"operator {type(node.op).__name__}", node)
            # [elem] * n is an array allocation (paper: new double[n]).
            if op == "*" and isinstance(node.left, ast.List):
                if len(node.left.elts) != 1:
                    _fail("list-repeat with multiple elements", node)
                elem = self._atom(node.left.elts[0], builder)
                count = self._atom(node.right, builder)
                return CallExpr(CallKind.ALLOC_LIST, "repeat", (elem, count))
            left = self._atom(node.left, builder)
            right = self._atom(node.right, builder)
            return BinExpr(op, left, right)
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                _fail("chained comparison", node)
            op = _CMP_OPS.get(type(node.ops[0]))
            if op is None:
                _fail(f"comparison {type(node.ops[0]).__name__}", node)
            left = self._atom(node.left, builder)
            right = self._atom(node.comparators[0], builder)
            return BinExpr(op, left, right)
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            atoms = [self._atom(v, builder) for v in node.values]
            expr: Expr = BinExpr(op, atoms[0], atoms[1])
            for extra in atoms[2:]:
                expr = BinExpr(op, builder.materialize(expr, line), extra)
            return expr
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                operand = self._atom(node.operand, builder)
                return UnaryExpr("-", operand)
            if isinstance(node.op, ast.Not):
                operand = self._atom(node.operand, builder)
                return UnaryExpr("not", operand)
            _fail(f"unary {type(node.op).__name__}", node)
        if isinstance(node, ast.List):
            elements = tuple(self._atom(e, builder) for e in node.elts)
            return ListLiteral(elements)
        if isinstance(node, ast.Call):
            return self.parse_call(node, builder)
        _fail(type(node).__name__, node)
        raise AssertionError  # pragma: no cover

    def parse_call(self, node: ast.Call, builder: StmtBuilder) -> CallExpr:
        if node.keywords:
            _fail("keyword arguments", node)
        args = tuple(self._atom(a, builder) for a in node.args)
        func = node.func
        # self.db.<api>(...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
            and func.value.attr == self.db_attr
        ):
            if func.attr not in DB_API_METHODS:
                _fail(f"unknown DB API method {func.attr!r}", node)
            return CallExpr(CallKind.DB, func.attr, args)
        # self.<method>(...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return CallExpr(
                CallKind.METHOD, func.attr, args, target=VarRef("self")
            )
        # <receiver>.<method>(...)
        if isinstance(func, ast.Attribute):
            receiver = self._atom(func.value, builder)
            # Methods defined by partitioned classes shadow the native
            # whitelist (a class may define e.g. ``get``).
            if (
                func.attr in NATIVE_METHODS
                and func.attr not in self.known_methods
            ):
                return CallExpr(
                    CallKind.NATIVE_METHOD, func.attr, args, target=receiver
                )
            # A method on another partitioned object.
            return CallExpr(CallKind.METHOD, func.attr, args, target=receiver)
        # <name>(...)
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.known_classes:
                return CallExpr(CallKind.ALLOC_OBJECT, name, args)
            if name in NATIVE_FUNCTIONS:
                return CallExpr(CallKind.NATIVE, name, args)
            _fail(f"call to unknown function {name!r}", node)
        _fail("unsupported call form", node)
        raise AssertionError  # pragma: no cover


def parse_class(
    node: ast.ClassDef,
    known_classes: set[str],
    db_attr: str = "db",
    known_methods: frozenset[str] = frozenset(),
) -> ClassIR:
    """Parse one ``ast.ClassDef`` into a :class:`ClassIR`."""
    cls = ClassIR(name=node.name, db_attr=db_attr)
    for item in node.body:
        if isinstance(item, ast.Expr) and isinstance(item.value, ast.Constant):
            continue  # docstring
        if not isinstance(item, ast.FunctionDef):
            _fail(f"class-level {type(item).__name__}", item)
        parser = _FunctionParser(
            node.name, known_classes, db_attr, known_methods
        )
        params = [a.arg for a in item.args.args]
        if not params or params[0] != "self":
            _fail(f"method {item.name!r} must take self first", item)
        if (
            item.args.vararg
            or item.args.kwarg
            or item.args.kwonlyargs
            or item.args.defaults
        ):
            _fail(f"method {item.name!r} has non-simple parameters", item)
        body = parser.parse_block(item.body)
        func = FunctionIR(
            name=item.name,
            params=params[1:],
            body=body,
            class_name=node.name,
        )
        cls.methods[item.name] = func
    return cls


def parse_source(
    source: str,
    entry_points: Optional[Iterable[tuple[str, str]]] = None,
    db_attr: str = "db",
) -> ProgramIR:
    """Parse Python source text containing partitionable classes."""
    module = ast.parse(textwrap.dedent(source))
    class_defs = [n for n in module.body if isinstance(n, ast.ClassDef)]
    if not class_defs:
        raise UnsupportedConstructError("no classes found in source")
    known = {c.name for c in class_defs}
    known_methods = frozenset(
        item.name
        for cls_def in class_defs
        for item in cls_def.body
        if isinstance(item, ast.FunctionDef)
    )
    program = ProgramIR()
    for node in class_defs:
        program.classes[node.name] = parse_class(
            node, known, db_attr, known_methods
        )
    if entry_points is None:
        # Default: every public method of every class is an entry point.
        for cls in program.classes.values():
            for name, func in cls.methods.items():
                if not name.startswith("_"):
                    func.is_entry = True
                    program.entry_points.append((cls.name, name))
    else:
        for class_name, method in entry_points:
            cls = program.classes.get(class_name)
            if cls is None or method not in cls.methods:
                raise UnsupportedConstructError(
                    f"entry point {class_name}.{method} is not a method "
                    "of a class in the source"
                )
            cls.methods[method].is_entry = True
            program.entry_points.append((class_name, method))
    return normalize_program(program)


def parse_program(
    *classes: type,
    entry_points: Optional[Iterable[tuple[str, str]]] = None,
    db_attr: str = "db",
) -> ProgramIR:
    """Parse live Python classes via :func:`inspect.getsource`."""
    sources = [textwrap.dedent(inspect.getsource(cls)) for cls in classes]
    return parse_source(
        "\n\n".join(sources), entry_points=entry_points, db_attr=db_attr
    )
