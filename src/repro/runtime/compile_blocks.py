"""Block compilation: execution blocks translated to flat closures.

The tree-walking interpreter in :mod:`repro.runtime.interpreter`
re-discovers the structure of every op on every execution: recursive
``isinstance`` dispatch over the expression tree, attribute-chained
cost-model lookups, and a ``record_cpu`` call per statement.  That
structure is static -- a block's ops, placements and cost profile never
change after :func:`repro.pyxil.compiler.compile_program` -- so this
module performs the dispatch exactly once, at load time, and caches the
result on the :class:`~repro.pyxil.blocks.ExecutionBlock` itself.

Each block becomes a :class:`BlockCode`:

* one closure per op (``(executor, frame, heap) -> None``) with the
  expression tree flattened into nested closures specialized per node
  kind (variable/constant operand combinations of binary ops, field
  reads through ``self``, ...);
* one closure for the terminator returning the next block id (or
  ``None`` when the program finished);
* the block's deterministic CPU cost folded into per-segment
  :class:`CostCounts`, charged with a single ``record_cpu`` call per
  segment instead of one per op.  Segments split only around DB calls,
  whose request/response messages flush pending CPU into trace stages
  -- so the stage structure of the produced traces matches the
  tree-walker's.

The compiled form preserves the tree-walker's observable semantics on
successful runs: identical results, identical :class:`ExecutionStats`
(blocks, ops, control transfers, DB calls, bytes sent) and identical
error messages.  After a mid-block error the batched accounting may
include the whole failing block where the tree-walker stops counting
at the failing op (see DESIGN.md for the accepted divergences).

This rung is no longer the default: ``REPRO_INTERP`` defaults to
``source`` (:mod:`repro.runtime.codegen_blocks`), which still builds
this module's :class:`CostCounts` to verify its own cost accounting
against.  ``REPRO_INTERP=compiled`` selects these closures,
``REPRO_INTERP=tree`` the tree-walker.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Optional

from repro.core.partition_graph import Placement
from repro.db.jdbc import ResultSet, Row
from repro.lang.interp import _apply_binop
from repro.lang.ir import (
    BinExpr,
    CallExpr,
    CallKind,
    Const,
    FieldGet,
    FieldLV,
    IndexGet,
    IndexLV,
    ListLiteral,
    LValue,
    UnaryExpr,
    VarLV,
    VarRef,
)
from repro.pyxil.blocks import (
    CompiledProgram,
    ExecutionBlock,
    OpAssign,
    TBranch,
    TCall,
    TGoto,
    THalt,
    TReturn,
)
from repro.runtime.heap import _MISSING, HeapError, NativeRef, ObjRef
from repro.runtime.rpc import DbRequestMessage, DbResponseMessage

# Circular-import note: the interpreter imports this module lazily
# (inside PyxisExecutor.__init__), so a top-level import here is safe.
from repro.runtime.interpreter import NATIVE_CPU_COSTS, RuntimeError_, _Frame

# Closure signatures:
#   reader / step:  (executor, frame, heap) -> value / None
#   terminator:     (executor, frame, heap) -> next bid | None (finished)
#   result store:   (executor, frame, value) -> None  (heap via executor,
#                   used on call-return paths where the side is dynamic)
Reader = Callable[[Any, Any, Any], Any]

_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "%": operator.mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "and": lambda left, right: bool(left) and bool(right),
    "or": lambda left, right: bool(left) or bool(right),
}

_CONTAINER_TYPES = (list, ResultSet, Row, tuple, dict)


class CostCounts:
    """Deterministic CPU charges of one block segment, by cost-model term.

    The counts are fixed at compile time; the executor multiplies them
    by its cluster's cost model once at construction, so the hot loop
    charges a precomputed float.  ``fixed`` holds absolute seconds from
    :data:`NATIVE_CPU_COSTS` overrides (e.g. ``sha1_hex``).
    """

    __slots__ = ("dispatch", "statements", "heap_ops", "natives", "fixed")

    def __init__(self) -> None:
        self.dispatch = 0
        self.statements = 0
        self.heap_ops = 0
        self.natives = 0
        self.fixed = 0.0

    def is_zero(self) -> bool:
        return not (
            self.dispatch
            or self.statements
            or self.heap_ops
            or self.natives
            or self.fixed
        )

    def merge(self, other: "CostCounts") -> None:
        self.dispatch += other.dispatch
        self.statements += other.statements
        self.heap_ops += other.heap_ops
        self.natives += other.natives
        self.fixed += other.fixed

    def seconds(self, model) -> float:
        return (
            self.dispatch * model.block_dispatch_cost
            + self.statements * model.statement_cost
            + self.heap_ops * model.heap_op_cost
            + self.natives * model.native_call_cost
            + self.fixed
        )


class BlockCode:
    """The compiled form of one :class:`ExecutionBlock`."""

    __slots__ = ("bid", "placement", "side", "n_ops", "steps", "term", "segments")

    def __init__(
        self,
        bid: int,
        placement: Placement,
        n_ops: int,
        steps: list,
        term: Callable,
        segments: list[CostCounts],
    ) -> None:
        self.bid = bid
        self.placement = placement
        self.side = "app" if placement is Placement.APP else "db"
        self.n_ops = n_ops
        self.steps = steps
        self.term = term
        self.segments = segments


# ---------------------------------------------------------------------------
# Atom readers
# ---------------------------------------------------------------------------


def _const_reader(value: Any) -> Reader:
    def read(ex, frame, heap):
        return value

    return read


def _var_reader(name: str) -> Reader:
    def read(ex, frame, heap):
        try:
            return frame.values[name]
        except KeyError:
            raise RuntimeError_(
                f"unbound variable {name!r} in {frame.method}"
            ) from None

    return read


def _compile_atom(atom) -> Reader:
    if isinstance(atom, Const):
        return _const_reader(atom.value)
    if isinstance(atom, VarRef):
        return _var_reader(atom.name)
    msg = f"not an atom: {atom!r}"

    def bad(ex, frame, heap):  # pragma: no cover - defensive
        raise RuntimeError_(msg)

    return bad


def _deref_container(heap, value: Any) -> Any:
    """Mirror of PyxisExecutor._container against an explicit heap."""
    if value.__class__ is NativeRef:
        return heap.get_native(value)
    if isinstance(value, _CONTAINER_TYPES):
        return value
    raise RuntimeError_(f"not a container: {value!r}")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _compile_bin(expr: BinExpr) -> Reader:
    fn = _BINOPS.get(expr.op)
    if fn is None:
        op_name, lc, rc = expr.op, _compile_atom(expr.left), _compile_atom(expr.right)

        def fallback(ex, frame, heap):
            return _apply_binop(op_name, lc(ex, frame, heap), rc(ex, frame, heap))

        return fallback
    left, right = expr.left, expr.right
    left_const = isinstance(left, Const)
    right_const = isinstance(right, Const)
    if left_const and right_const:
        lv, rv = left.value, right.value

        def run_cc(ex, frame, heap):
            return fn(lv, rv)

        return run_cc
    if left_const:
        lv, rn = left.value, right.name

        def run_cv(ex, frame, heap):
            try:
                rv = frame.values[rn]
            except KeyError:
                raise RuntimeError_(
                    f"unbound variable {rn!r} in {frame.method}"
                ) from None
            return fn(lv, rv)

        return run_cv
    if right_const:
        ln, rv = left.name, right.value

        def run_vc(ex, frame, heap):
            try:
                lv = frame.values[ln]
            except KeyError:
                raise RuntimeError_(
                    f"unbound variable {ln!r} in {frame.method}"
                ) from None
            return fn(lv, rv)

        return run_vc
    ln, rn = left.name, right.name

    def run_vv(ex, frame, heap):
        values = frame.values
        try:
            lv = values[ln]
            rv = values[rn]
        except KeyError:
            missing = ln if ln not in values else rn
            raise RuntimeError_(
                f"unbound variable {missing!r} in {frame.method}"
            ) from None
        return fn(lv, rv)

    return run_vv


def _compile_field_get(expr: FieldGet, op: OpAssign, counts: CostCounts) -> Reader:
    counts.heap_ops += 1
    fname = expr.field
    sid = op.sid
    obj_c = _compile_atom(expr.obj)

    def run(ex, frame, heap):
        obj = obj_c(ex, frame, heap)
        if obj.__class__ is ObjRef:
            # Inlined HeapStore.read_field (see heap.py).
            fields = heap._fields.get(obj.oid)
            if fields is not None:
                value = fields.get(fname, _MISSING)
                if value is not _MISSING:
                    return value
            raise HeapError(
                f"{heap.side.value} heap has no value for "
                f"{obj.class_name}.{fname} of object {obj.oid}"
            )
        raise RuntimeError_(f"field read on {obj!r} (sid={sid})")

    return run


def _compile_index_get(expr: IndexGet, counts: CostCounts) -> Reader:
    counts.heap_ops += 1
    obj_c = _compile_atom(expr.obj)
    idx_c = _compile_atom(expr.index)

    def run(ex, frame, heap):
        container = _deref_container(heap, obj_c(ex, frame, heap))
        index = idx_c(ex, frame, heap)
        if isinstance(container, ResultSet):
            return container._rows[index]
        return container[index]

    return run


def _compile_list_literal(expr: ListLiteral, op: OpAssign) -> Reader:
    elem_cs = [_compile_atom(e) for e in expr.elements]
    sid = op.sid

    def run(ex, frame, heap):
        return ex.new_native(sid, [c(ex, frame, heap) for c in elem_cs])

    return run


def _compile_native_call(expr: CallExpr, op: OpAssign, counts: CostCounts) -> Reader:
    name = expr.name
    fixed = NATIVE_CPU_COSTS.get(name)
    if fixed is not None:
        counts.fixed += fixed
    else:
        counts.natives += 1
    arg_cs = [_compile_atom(a) for a in expr.args]
    sid = op.sid

    def run(ex, frame, heap):
        args = []
        for c in arg_cs:
            value = c(ex, frame, heap)
            if value.__class__ is NativeRef:
                value = heap.get_native(value)
            args.append(value)
        result = ex.natives.call(name, args)
        if isinstance(result, list):
            return ex.new_native(sid, result)
        return result

    return run


def _compile_native_method(expr: CallExpr, counts: CostCounts) -> Reader:
    counts.natives += 1
    assert expr.target is not None
    target_c = _compile_atom(expr.target)
    arg_cs = [_compile_atom(a) for a in expr.args]
    name = expr.name
    is_size = name == "size"
    mutates = name in {"append", "extend", "pop"}

    def run(ex, frame, heap):
        ref = target_c(ex, frame, heap)
        receiver = _deref_container(heap, ref)
        args = [c(ex, frame, heap) for c in arg_cs]
        if is_size:
            result = len(receiver)
        else:
            method = getattr(receiver, name, None)
            if method is None:
                raise RuntimeError_(
                    f"{type(receiver).__name__} has no method {name!r}"
                )
            result = method(*args)
        if mutates and ref.__class__ is NativeRef:
            heap.mark_native_dirty(ref)
        return result

    return run


def _compile_alloc_list(expr: CallExpr, op: OpAssign) -> Reader:
    if expr.name != "repeat":
        msg = f"unknown allocation {expr.name!r}"

        def bad(ex, frame, heap):
            raise RuntimeError_(msg)

        return bad
    elem_c = _compile_atom(expr.args[0])
    count_c = _compile_atom(expr.args[1])
    sid = op.sid

    def run(ex, frame, heap):
        elem = elem_c(ex, frame, heap)
        count = int(count_c(ex, frame, heap))
        return ex.new_native(sid, [elem] * count)

    return run


def _compile_expr(expr, op: OpAssign, counts: CostCounts) -> Reader:
    if isinstance(expr, Const):
        return _const_reader(expr.value)
    if isinstance(expr, VarRef):
        return _var_reader(expr.name)
    if isinstance(expr, BinExpr):
        return _compile_bin(expr)
    if isinstance(expr, UnaryExpr):
        operand_c = _compile_atom(expr.operand)
        if expr.op == "-":
            return lambda ex, frame, heap: -operand_c(ex, frame, heap)
        return lambda ex, frame, heap: not operand_c(ex, frame, heap)
    if isinstance(expr, FieldGet):
        return _compile_field_get(expr, op, counts)
    if isinstance(expr, IndexGet):
        return _compile_index_get(expr, counts)
    if isinstance(expr, ListLiteral):
        return _compile_list_literal(expr, op)
    if isinstance(expr, CallExpr):
        if expr.kind is CallKind.NATIVE:
            return _compile_native_call(expr, op, counts)
        if expr.kind is CallKind.NATIVE_METHOD:
            return _compile_native_method(expr, counts)
        if expr.kind is CallKind.ALLOC_LIST:
            return _compile_alloc_list(expr, op)
        kind = expr.kind
        msg = f"call kind {kind} must be compiled to a terminator"

        def bad_kind(ex, frame, heap):  # pragma: no cover - defensive
            raise RuntimeError_(msg)

        return bad_kind
    msg = f"cannot evaluate {expr!r}"

    def bad(ex, frame, heap):  # pragma: no cover - defensive
        raise RuntimeError_(msg)

    return bad


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


def _compile_op_store(target: Optional[LValue], counts: CostCounts):
    """Store closure ``(ex, frame, heap, value)`` for in-block ops.

    Heap charges are folded into ``counts`` -- the executing side is the
    block's static placement, so the cost is deterministic.
    """
    if target is None:
        return None
    if isinstance(target, VarLV):
        name = target.name

        def store_var(ex, frame, heap, value):
            frame.values[name] = value
            frame.dirty.add(name)

        return store_var
    if isinstance(target, FieldLV):
        counts.heap_ops += 1
        obj_c = _compile_atom(target.obj)
        fname = target.field

        def store_field(ex, frame, heap, value):
            obj = obj_c(ex, frame, heap)
            if obj.__class__ is not ObjRef:
                raise RuntimeError_(f"field write on {obj!r}")
            # Inlined HeapStore.write_field (see heap.py).
            fields = heap._fields.get(obj.oid)
            if fields is None:
                fields = heap._fields[obj.oid] = {}
            fields[fname] = value
            heap.dirty_fields[(obj.oid, obj.class_name, fname)] = None

        return store_field
    if isinstance(target, IndexLV):
        counts.heap_ops += 1
        obj_c = _compile_atom(target.obj)
        idx_c = _compile_atom(target.index)

        def store_index(ex, frame, heap, value):
            ref = obj_c(ex, frame, heap)
            container = _deref_container(heap, ref)
            container[idx_c(ex, frame, heap)] = value
            if ref.__class__ is NativeRef:
                heap.mark_native_dirty(ref)

        return store_index
    msg = f"bad l-value {target!r}"

    def bad(ex, frame, heap, value):  # pragma: no cover - defensive
        raise RuntimeError_(msg)

    return bad


def _compile_result_store(target: Optional[LValue]):
    """Store closure ``(ex, frame, value)`` for call-return paths.

    Return stores execute on whatever side the returning block ran on,
    so the heap and the heap-op charge are resolved dynamically through
    the executor, exactly like the tree-walker's ``_store``.
    """
    if target is None:
        return None
    if isinstance(target, VarLV):
        name = target.name

        def store_var(ex, frame, value):
            frame.values[name] = value
            frame.dirty.add(name)

        return store_var
    if isinstance(target, FieldLV):
        obj_c = _compile_atom(target.obj)
        fname = target.field

        def store_field(ex, frame, value):
            ex._charge(ex._heap_cost)
            obj = obj_c(ex, frame, None)
            if obj.__class__ is not ObjRef:
                raise RuntimeError_(f"field write on {obj!r}")
            ex.heaps[ex.side].write_field(obj, fname, value)

        return store_field
    if isinstance(target, IndexLV):
        obj_c = _compile_atom(target.obj)
        idx_c = _compile_atom(target.index)

        def store_index(ex, frame, value):
            ex._charge(ex._heap_cost)
            heap = ex.heaps[ex.side]
            ref = obj_c(ex, frame, None)
            container = _deref_container(heap, ref)
            container[idx_c(ex, frame, None)] = value
            if ref.__class__ is NativeRef:
                heap.mark_native_dirty(ref)

        return store_index
    msg = f"bad l-value {target!r}"

    def bad(ex, frame, value):  # pragma: no cover - defensive
        raise RuntimeError_(msg)

    return bad


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def _fused_bin_to_var(name: str, expr: BinExpr):
    """``x = a <op> b`` in a single closure (the hottest op shape)."""
    fn = _BINOPS.get(expr.op)
    if fn is None:
        return None
    left, right = expr.left, expr.right
    left_const = isinstance(left, Const)
    right_const = isinstance(right, Const)
    if left_const and right_const:
        lv, rv = left.value, right.value

        def step_cc(ex, frame, heap):
            frame.values[name] = fn(lv, rv)
            frame.dirty.add(name)

        return step_cc
    if left_const:
        lv, rn = left.value, right.name

        def step_cv(ex, frame, heap):
            values = frame.values
            try:
                rv = values[rn]
            except KeyError:
                raise RuntimeError_(
                    f"unbound variable {rn!r} in {frame.method}"
                ) from None
            values[name] = fn(lv, rv)
            frame.dirty.add(name)

        return step_cv
    if right_const:
        ln, rv = left.name, right.value

        def step_vc(ex, frame, heap):
            values = frame.values
            try:
                lv = values[ln]
            except KeyError:
                raise RuntimeError_(
                    f"unbound variable {ln!r} in {frame.method}"
                ) from None
            values[name] = fn(lv, rv)
            frame.dirty.add(name)

        return step_vc
    ln, rn = left.name, right.name

    def step_vv(ex, frame, heap):
        values = frame.values
        try:
            lv = values[ln]
            rv = values[rn]
        except KeyError:
            missing = ln if ln not in values else rn
            raise RuntimeError_(
                f"unbound variable {missing!r} in {frame.method}"
            ) from None
        values[name] = fn(lv, rv)
        frame.dirty.add(name)

    return step_vv


def _fused_assign_to_var(name: str, op: OpAssign, counts: CostCounts):
    """Single-closure forms of ``x = <expr>`` for the common exprs."""
    value = op.value
    if isinstance(value, BinExpr):
        return _fused_bin_to_var(name, value)
    if isinstance(value, Const):
        const = value.value

        def step_const(ex, frame, heap):
            frame.values[name] = const
            frame.dirty.add(name)

        return step_const
    if isinstance(value, VarRef):
        src = value.name

        def step_copy(ex, frame, heap):
            values = frame.values
            try:
                values[name] = values[src]
            except KeyError:
                raise RuntimeError_(
                    f"unbound variable {src!r} in {frame.method}"
                ) from None
            frame.dirty.add(name)

        return step_copy
    if isinstance(value, FieldGet) and isinstance(value.obj, VarRef):
        counts.heap_ops += 1
        oname = value.obj.name
        fname = value.field
        sid = op.sid

        def step_field(ex, frame, heap):
            values = frame.values
            try:
                obj = values[oname]
            except KeyError:
                raise RuntimeError_(
                    f"unbound variable {oname!r} in {frame.method}"
                ) from None
            if obj.__class__ is ObjRef:
                fields = heap._fields.get(obj.oid)
                if fields is not None:
                    v = fields.get(fname, _MISSING)
                    if v is not _MISSING:
                        values[name] = v
                        frame.dirty.add(name)
                        return
                raise HeapError(
                    f"{heap.side.value} heap has no value for "
                    f"{obj.class_name}.{fname} of object {obj.oid}"
                )
            raise RuntimeError_(f"field read on {obj!r} (sid={sid})")

        return step_field
    return None


def _compile_op_step(op: OpAssign, counts: CostCounts):
    target = op.target
    if isinstance(target, VarLV):
        fused = _fused_assign_to_var(target.name, op, counts)
        if fused is not None:
            return fused
    value_c = _compile_expr(op.value, op, counts)
    if target is None:
        def step_discard(ex, frame, heap):
            value_c(ex, frame, heap)

        return step_discard
    if isinstance(target, VarLV):
        name = target.name

        def step_var(ex, frame, heap):
            frame.values[name] = value_c(ex, frame, heap)
            frame.dirty.add(name)

        return step_var
    if isinstance(target, FieldLV):
        counts.heap_ops += 1
        obj_c = _compile_atom(target.obj)
        fname = target.field

        def step_field_store(ex, frame, heap):
            value = value_c(ex, frame, heap)
            obj = obj_c(ex, frame, heap)
            if obj.__class__ is not ObjRef:
                raise RuntimeError_(f"field write on {obj!r}")
            # Inlined HeapStore.write_field (see heap.py).
            fields = heap._fields.get(obj.oid)
            if fields is None:
                fields = heap._fields[obj.oid] = {}
            fields[fname] = value
            heap.dirty_fields[(obj.oid, obj.class_name, fname)] = None

        return step_field_store
    if isinstance(target, IndexLV):
        counts.heap_ops += 1
        obj_c = _compile_atom(target.obj)
        idx_c = _compile_atom(target.index)

        def step_index_store(ex, frame, heap):
            value = value_c(ex, frame, heap)
            ref = obj_c(ex, frame, heap)
            container = _deref_container(heap, ref)
            container[idx_c(ex, frame, heap)] = value
            if ref.__class__ is NativeRef:
                heap.mark_native_dirty(ref)

        return step_index_store
    store = _compile_op_store(target, counts)

    def step(ex, frame, heap):
        store(ex, frame, heap, value_c(ex, frame, heap))

    return step


def _compile_db_step(op: OpAssign, expr: CallExpr, placement: Placement, store):
    """A DB-API call: request/response messages, DB CPU, result store."""
    api = expr.name
    arg_cs = [_compile_atom(a) for a in expr.args]
    sid = op.sid
    remote = placement is Placement.APP
    known_api = api in {"query", "query_one", "query_scalar", "execute"}

    def step(ex, frame, heap):
        args = [c(ex, frame, heap) for c in arg_cs]
        if not args or not isinstance(args[0], str):
            raise RuntimeError_("DB call needs a SQL string first argument")
        sql = args[0]
        params = tuple(args[1:])
        ex.stats.db_calls += 1
        if remote:
            request = DbRequestMessage(api, sql, params)
            ex.cluster.record_message(request.nbytes(), to_db=True)
            ex.stats.db_round_trips += 1
        if not known_api:  # pragma: no cover - parser whitelists
            raise RuntimeError_(f"unknown DB API {api!r}")
        if api == "execute":
            count = ex.connection.execute(sql, *params)
            rows_touched = max(count, 1)
            result: Any = count
        else:
            rs = ex.connection.query(sql, *params)
            rows_touched = rs.rows_touched
            if api == "query":
                result = rs
            elif api == "query_one":
                result = rs.one()
            else:
                result = rs.scalar()
        ex.cluster.record_cpu("db", ex._cost_model.db_operation(int(rows_touched)))
        if remote:
            response = DbResponseMessage(
                result.rows if isinstance(result, ResultSet) else result
            )
            ex.cluster.record_message(response.nbytes(), to_db=False)
        if isinstance(result, ResultSet):
            result = ex.new_native(sid, result)
        if store is not None:
            store(ex, frame, heap, result)

    return step


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


def _compile_branch(term: TBranch):
    then_bid, else_bid = term.then_target, term.else_target
    cond = term.cond
    if isinstance(cond, Const):
        target = then_bid if cond.value else else_bid
        return lambda ex, frame, heap: target
    name = cond.name

    def run(ex, frame, heap):
        try:
            value = frame.values[name]
        except KeyError:
            raise RuntimeError_(
                f"unbound variable {name!r} in {frame.method}"
            ) from None
        return then_bid if value else else_bid

    return run


def _compile_call(term: TCall, compiled: CompiledProgram):
    arg_cs = [_compile_atom(a) for a in term.args]
    result_store = _compile_result_store(term.result)
    return_target = term.return_target
    alloc_class = term.alloc_class
    callee = term.callee
    sid = term.sid
    if alloc_class is not None and not callee:
        # Pure allocation: no constructor, completes immediately.
        def run_alloc(ex, frame, heap):
            for c in arg_cs:
                c(ex, frame, heap)
            receiver = ex.new_object(alloc_class)
            if result_store is not None:
                result_store(ex, frame, receiver)
            return return_target

        return run_alloc

    params = tuple(compiled.params[callee])
    entry_bid = compiled.entries[callee]
    n_params = len(params)
    result_lvalue = term.result
    recv_c = None if alloc_class is not None else _compile_atom(term.receiver)
    arity_ok = len(arg_cs) == n_params

    if alloc_class is None and arity_ok and n_params <= 2:
        # Specialized frames for the common arities: the values dict
        # and dirty set are built literally, no zip/update round trip.
        if n_params == 0:
            def run_call0(ex, frame, heap):
                receiver = recv_c(ex, frame, heap)
                if receiver.__class__ is not ObjRef:
                    raise RuntimeError_(
                        f"method call on non-object {receiver!r} (sid={sid})"
                    )
                ex.stack.append(_Frame(
                    callee, {"self": receiver}, {"self"},
                    return_target, result_lvalue, None, result_store,
                ))
                return entry_bid

            return run_call0
        if n_params == 1:
            p0 = params[0]
            a0 = arg_cs[0]

            def run_call1(ex, frame, heap):
                arg0 = a0(ex, frame, heap)
                receiver = recv_c(ex, frame, heap)
                if receiver.__class__ is not ObjRef:
                    raise RuntimeError_(
                        f"method call on non-object {receiver!r} (sid={sid})"
                    )
                ex.stack.append(_Frame(
                    callee, {"self": receiver, p0: arg0}, {"self", p0},
                    return_target, result_lvalue, None, result_store,
                ))
                return entry_bid

            return run_call1
        p0, p1 = params
        a0, a1 = arg_cs

        def run_call2(ex, frame, heap):
            arg0 = a0(ex, frame, heap)
            arg1 = a1(ex, frame, heap)
            receiver = recv_c(ex, frame, heap)
            if receiver.__class__ is not ObjRef:
                raise RuntimeError_(
                    f"method call on non-object {receiver!r} (sid={sid})"
                )
            ex.stack.append(_Frame(
                callee, {"self": receiver, p0: arg0, p1: arg1},
                {"self", p0, p1},
                return_target, result_lvalue, None, result_store,
            ))
            return entry_bid

        return run_call2

    def run_call(ex, frame, heap):
        args = tuple(c(ex, frame, heap) for c in arg_cs)
        if alloc_class is not None:
            receiver: Any = ex.new_object(alloc_class)
            ctor_result: Optional[ObjRef] = receiver
        else:
            receiver = recv_c(ex, frame, heap)
            if receiver.__class__ is not ObjRef:
                raise RuntimeError_(
                    f"method call on non-object {receiver!r} (sid={sid})"
                )
            ctor_result = None
        if not arity_ok:
            raise RuntimeError_(
                f"{callee} expects {n_params} args, got {len(args)}"
            )
        values: dict[str, Any] = {"self": receiver}
        values.update(zip(params, args))
        new_frame = _Frame(
            method=callee,
            values=values,
            dirty=set(values),
            return_target=return_target,
            result_lvalue=result_lvalue,
            ctor_result=ctor_result,
            result_store=result_store,
        )
        ex.stack.append(new_frame)
        return entry_bid

    return run_call


def _compile_return(term):
    value_c = _compile_atom(term.value) if term.value is not None else None

    def run(ex, frame, heap):
        value = value_c(ex, frame, heap) if value_c is not None else None
        stack = ex.stack
        finished = stack.pop()
        if finished.ctor_result is not None:
            value = finished.ctor_result
        if not stack:
            ex._ret = value
            return None
        if finished.result_store is not None:
            finished.result_store(ex, stack[-1], value)
        return finished.return_target

    return run


def _compile_terminator(term, compiled: CompiledProgram):
    if isinstance(term, TGoto):
        target = term.target
        return lambda ex, frame, heap: target
    if isinstance(term, TBranch):
        return _compile_branch(term)
    if isinstance(term, TCall):
        return _compile_call(term, compiled)
    if isinstance(term, (TReturn, THalt)):
        return _compile_return(term)
    msg = f"bad terminator {term!r}"

    def bad(ex, frame, heap):  # pragma: no cover - defensive
        raise RuntimeError_(msg)

    return bad


# ---------------------------------------------------------------------------
# Blocks and programs
# ---------------------------------------------------------------------------


def _make_charge_step(bid: int, index: int, side: str):
    def step(ex, frame, heap):
        ex.cluster.record_cpu(side, ex._block_costs[bid][index])

    return step


def _compile_block(block: ExecutionBlock, compiled: CompiledProgram) -> BlockCode:
    placement = block.placement
    side = "app" if placement is Placement.APP else "db"
    bid = block.bid
    segments: list[CostCounts] = []
    steps: list = []
    pending: list = []
    counts = CostCounts()
    counts.dispatch = 1  # charged per block execution by the tree-walker

    def flush() -> None:
        """Emit the charge for the accumulated segment, then its steps.

        Segment 0 (always present: it carries the dispatch cost) is
        charged directly by the executor's block loop, so only later
        segments get an explicit charge step.
        """
        nonlocal counts
        if not counts.is_zero():
            segments.append(counts)
            index = len(segments) - 1
            if index:
                steps.append(_make_charge_step(bid, index, side))
        steps.extend(pending)
        pending.clear()
        counts = CostCounts()

    for op in block.ops:
        counts.statements += 1
        value = op.value
        if isinstance(value, CallExpr) and value.kind is CallKind.DB:
            # The DB call's messages flush pending CPU into trace
            # stages, so the segment must close before it runs; the
            # result store's heap charge lands after the response, in
            # the next segment.
            store_counts = CostCounts()
            store = _compile_op_store(op.target, store_counts)
            db_step = _compile_db_step(op, value, placement, store)
            flush()
            steps.append(db_step)
            counts.merge(store_counts)
        else:
            pending.append(_compile_op_step(op, counts))
    term = block.terminator
    if isinstance(term, (TBranch, TCall)):
        counts.statements += 1
    flush()
    return BlockCode(
        bid=bid,
        placement=placement,
        n_ops=len(block.ops),
        steps=steps,
        term=_compile_terminator(term, compiled),
        segments=segments,
    )


def ensure_program_code(compiled: CompiledProgram) -> list[Optional[BlockCode]]:
    """Compile every block once, caching the result on the program.

    Returns a dense list indexed by block id (``None`` for gaps).  The
    per-block code is also stored in ``ExecutionBlock.code`` so tooling
    can inspect what a block compiled to.
    """
    cache = compiled.code_cache
    if cache is not None:
        return cache
    max_bid = max(compiled.blocks) if compiled.blocks else -1
    codes: list[Optional[BlockCode]] = [None] * (max_bid + 1)
    for bid, block in compiled.blocks.items():
        code = _compile_block(block, compiled)
        block.code = code
        codes[bid] = code
    compiled.code_cache = codes
    return codes
