"""Source codegen: execution blocks translated to generated Python text.

Third compilation rung.  The closure compiler
(:mod:`repro.runtime.compile_blocks`) removed per-op dispatch but still
pays a Python call per op closure and per atom reader.  This module goes
one step further: every block becomes **one flat generated function**
(``_b<bid>(ex, frame, heap) -> next bid | None``) with the op bodies and
the terminator inlined as plain statements, compiled once with
``compile()``/``exec`` and cached on the program.

The generated module bakes the cost model in: per-segment CPU charges
are emitted as float literals, so the cache on
``CompiledProgram.source_cache`` is keyed by the cost-model signature.
Generation is deterministic -- the same program and model always produce
byte-identical text (CI checks this), and ``REPRO_DUMP_CODEGEN`` /
``repro partition --dump-codegen`` write each module to disk under a
stable content-hash name.

Equivalence contract (the tree-walker stays the oracle):

* identical results, ``ExecutionStats`` and error messages on the same
  runs as the closure rung;
* identical trace stages: the driver loop
  (``PyxisExecutor._loop_source``) batches per-side CPU into locals and
  flushes before every message boundary (control transfers, DB-call
  blocks, loop exit).  Between two messages all CPU lands on one side,
  so the batched sums flush into exactly the stages the closure rung
  produces;
* the per-segment cost structure is *verified* against the closure
  compiler's :class:`~repro.runtime.compile_blocks.CostCounts` at
  generation time -- any accounting drift raises
  :class:`BlockCodegenError` instead of silently diverging.

Unbound-variable errors keep their exact messages without per-read
``try``/``except``: each generated function wraps its whole body once,
and the handler re-derives the failing name from the ``KeyError`` key
(the first missing name in evaluation order, exactly what the closure
rung reports).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.codegen import SourceWriter, maybe_dump_source, source_signature
from repro.core.partition_graph import Placement
from repro.db.jdbc import ResultSet
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
    UnaryExpr,
    VarLV,
    VarRef,
)
from repro.pyxil.blocks import (
    CompiledProgram,
    ExecutionBlock,
    TBranch,
    TCall,
    TGoto,
    THalt,
    TReturn,
)
from repro.runtime.compile_blocks import (
    _CONTAINER_TYPES,
    _compile_result_store,
    ensure_program_code,
)
from repro.runtime.heap import _MISSING, HeapError, NativeRef, ObjRef
from repro.runtime.interpreter import NATIVE_CPU_COSTS, RuntimeError_, _Frame
from repro.runtime.rpc import MESSAGE_OVERHEAD
from repro.runtime.serializer import wire_size


class BlockCodegenError(RuntimeError_):
    """Source generation failed (or diverged from the closure rung)."""


_PYOPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "//": "//",
    "%": "%",
    "==": "==",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}

_MUTATING_METHODS = frozenset({"append", "extend", "pop"})


# ---------------------------------------------------------------------------
# Runtime helpers referenced by generated code (error paths only)
# ---------------------------------------------------------------------------


def _raise_rt(message: str):
    raise RuntimeError_(message)


def _heap_missing(heap, obj, fname: str):
    raise HeapError(
        f"{heap.side.value} heap has no value for "
        f"{obj.class_name}.{fname} of object {obj.oid}"
    )


def _bad_field_read(obj, sid: int):
    raise RuntimeError_(f"field read on {obj!r} (sid={sid})")


def _bad_field_write(obj):
    raise RuntimeError_(f"field write on {obj!r}")


def _not_container(value):
    raise RuntimeError_(f"not a container: {value!r}")


def _no_method(receiver, name: str):
    raise RuntimeError_(f"{type(receiver).__name__} has no method {name!r}")


def _bad_receiver(receiver, sid: int):
    raise RuntimeError_(f"method call on non-object {receiver!r} (sid={sid})")


def _runaway(ex):
    raise RuntimeError_(
        f"exceeded {ex.max_blocks} blocks; runaway program?"
    )


# Namespace every generated module executes in.  Only error-path
# helpers and runtime types: the hot path is pure generated code.
_BASE_NAMESPACE: dict[str, Any] = {
    "_Frame": _Frame,
    "ObjRef": ObjRef,
    "NativeRef": NativeRef,
    "_MISSING": _MISSING,
    "_CONTAINERS": _CONTAINER_TYPES,
    "RuntimeError_": RuntimeError_,
    "HeapError": HeapError,
    "_wire_size": wire_size,
    "_apply_binop": _apply_binop,
    "_raise_rt": _raise_rt,
    "_heap_missing": _heap_missing,
    "_bad_field_read": _bad_field_read,
    "_bad_field_write": _bad_field_write,
    "_not_container": _not_container,
    "_no_method": _no_method,
    "_bad_receiver": _bad_receiver,
    "_runaway": _runaway,
    "ResultSet": ResultSet,
}


class SourceProgram:
    """One generated module: text, identity, and the driver's metadata.

    ``meta`` is a dense bid-indexed list of ``(fn, placement,
    flush_before)`` tuples for every *driver entry* (``None``
    elsewhere).  Driver entries are method entry blocks, return targets
    of real (non-inlined) calls, and targets of edges that leave a
    fused region; all other blocks are executed inside the superblock
    function of the region that contains them.  ``flush_before`` marks
    DB-call blocks, whose request messages flush batched CPU (see
    ``PyxisExecutor._loop_source``).
    """

    __slots__ = ("text", "signature", "meta", "namespace")

    def __init__(self, text, signature, meta, namespace):
        self.text = text
        self.signature = signature
        self.meta = meta
        self.namespace = namespace


# ---------------------------------------------------------------------------
# Cost mirroring (verified against compile_blocks)
# ---------------------------------------------------------------------------


class _Counts:
    """Mirror of compile_blocks.CostCounts, tracked during emission."""

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

    def merge(self, other: "_Counts") -> None:
        self.dispatch += other.dispatch
        self.statements += other.statements
        self.heap_ops += other.heap_ops
        self.natives += other.natives
        self.fixed += other.fixed

    def key(self) -> tuple:
        return (
            self.dispatch,
            self.statements,
            self.heap_ops,
            self.natives,
            self.fixed,
        )


def _float_literal(value: float) -> str:
    """A float literal that round-trips exactly (repr is exact for
    finite floats; cost models are finite by construction)."""
    text = repr(float(value))
    if text in ("inf", "-inf", "nan"):  # pragma: no cover - defensive
        raise BlockCodegenError(f"non-finite cost literal {value!r}")
    return text


def _is_literal_const(value: Any) -> bool:
    if value is None or value is True or value is False:
        return True
    if type(value) is int or type(value) is str:
        return True
    if type(value) is float:
        return value == value and value not in (float("inf"), float("-inf"))
    return False


# ---------------------------------------------------------------------------
# Per-function emitter
# ---------------------------------------------------------------------------


class _FnEmitter:
    """Emits the body of one generated block function.

    Lines carry their own relative indentation (4-space units); the
    assembler prefixes the base function indentation.  ``out`` is
    switchable so the block loop can buffer op lines per cost segment
    (mirroring compile_blocks' pending/flush structure).
    """

    def __init__(
        self,
        module: "_ModuleEmitter",
        track_dirty: bool,
        fused: bool = False,
    ) -> None:
        self.module = module
        self.track_dirty = track_dirty
        # dirty_on is the *current* var-store dirty policy: it matches
        # track_dirty except inside an inlined callee body, whose frame
        # would be popped before any transfer could read it.
        self.dirty_on = track_dirty
        self.fused = fused
        # Fused emission routes jumps through this callback (which
        # writes ``_b = t; continue`` or ``_r = t; break``); the
        # singleton style returns the next bid directly.
        self.transition = None
        self.values_var = "_v"
        self.tag = ""
        self.out: list[str] = []
        self.reads: list[str] = []
        self.prelude: list[str] = []
        self._tmp = 0
        self._site = 0
        self.counts = _Counts()

    # -- plumbing ---------------------------------------------------------

    def w(self, line: str) -> None:
        self.out.append(line)

    def tmp(self) -> str:
        name = f"_t{self._tmp}"
        self._tmp += 1
        return name

    def site(self) -> int:
        n = self._site
        self._site += 1
        return n

    def bind(self, obj: Any) -> str:
        return self.module.bind(obj)

    def jump(self, target: int) -> None:
        if self.transition is not None:
            self.transition(self, target)
        else:
            self.w(f"return {target}")

    # -- atoms ------------------------------------------------------------

    def atom(self, atom) -> str:
        """Expression text for an atom; records variable reads."""
        if isinstance(atom, Const):
            return self.const(atom.value)
        if isinstance(atom, VarRef):
            self.reads.append(atom.name)
            return f"{self.values_var}[{atom.name!r}]"
        # Defensive mirror of compile_blocks._compile_atom: raise at
        # evaluation time, not generation time.
        return f"_raise_rt({self.bind(f'not an atom: {atom!r}')})"

    def const(self, value: Any) -> str:
        if _is_literal_const(value):
            return repr(value)
        return self.bind(value)

    # -- expression fragments --------------------------------------------

    def emit_bin(self, expr: BinExpr) -> str:
        op = expr.op
        py = _PYOPS.get(op)
        if py is not None:
            return f"({self.atom(expr.left)} {py} {self.atom(expr.right)})"
        if op in ("and", "or"):
            # The closure rung evaluates BOTH operands before applying
            # bool(l) and/or bool(r); temps keep that non-short-circuit
            # behaviour (and its error ordering).
            lt, rt = self.tmp(), self.tmp()
            self.w(f"{lt} = {self.atom(expr.left)}")
            self.w(f"{rt} = {self.atom(expr.right)}")
            return f"(bool({lt}) {op} bool({rt}))"
        return (
            f"_apply_binop({op!r}, {self.atom(expr.left)}, "
            f"{self.atom(expr.right)})"
        )

    def emit_deref(self, ref_expr: str) -> tuple[str, str]:
        """Container dereference; returns (ref_temp, container_temp)."""
        ref, cont = self.tmp(), self.tmp()
        self.w(f"{ref} = {ref_expr}")
        self.w(f"if {ref}.__class__ is NativeRef:")
        self.w(f"    {cont} = heap.get_native({ref})")
        self.w(f"elif isinstance({ref}, _CONTAINERS):")
        self.w(f"    {cont} = {ref}")
        self.w("else:")
        self.w(f"    _not_container({ref})")
        return ref, cont

    def emit_field_read(self, obj_expr: str, fname: str, sid: int) -> str:
        self.counts.heap_ops += 1
        obj, fields, value = self.tmp(), self.tmp(), self.tmp()
        self.w(f"{obj} = {obj_expr}")
        self.w(f"if {obj}.__class__ is ObjRef:")
        self.w(f"    {fields} = heap._fields.get({obj}.oid)")
        self.w(
            f"    {value} = {fields}.get({fname!r}, _MISSING) "
            f"if {fields} is not None else _MISSING"
        )
        self.w(f"    if {value} is _MISSING:")
        self.w(f"        _heap_missing(heap, {obj}, {fname!r})")
        self.w("else:")
        self.w(f"    _bad_field_read({obj}, {sid})")
        return value

    def emit_expr(self, expr, op) -> str:
        """Evaluate ``expr``; returns an expression string (emitting
        supporting statements as needed).  Mirrors _compile_expr."""
        if isinstance(expr, (Const, VarRef)):
            return self.atom(expr)
        if isinstance(expr, BinExpr):
            return self.emit_bin(expr)
        if isinstance(expr, UnaryExpr):
            operand = self.atom(expr.operand)
            if expr.op == "-":
                return f"(-({operand}))"
            return f"(not ({operand}))"
        if isinstance(expr, FieldGet):
            return self.emit_field_read(self.atom(expr.obj), expr.field, op.sid)
        if isinstance(expr, IndexGet):
            self.counts.heap_ops += 1
            _ref, cont = self.emit_deref(self.atom(expr.obj))
            idx = self.tmp()
            self.w(f"{idx} = {self.atom(expr.index)}")
            return (
                f"({cont}._rows[{idx}] if isinstance({cont}, ResultSet) "
                f"else {cont}[{idx}])"
            )
        if isinstance(expr, ListLiteral):
            elems = ", ".join(self.atom(e) for e in expr.elements)
            return f"ex.new_native({op.sid}, [{elems}])"
        if isinstance(expr, CallExpr):
            if expr.kind is CallKind.NATIVE:
                return self.emit_native_call(expr, op)
            if expr.kind is CallKind.NATIVE_METHOD:
                return self.emit_native_method(expr)
            if expr.kind is CallKind.ALLOC_LIST:
                return self.emit_alloc_list(expr, op)
            msg = f"call kind {expr.kind} must be compiled to a terminator"
            return f"_raise_rt({self.bind(msg)})"
        return f"_raise_rt({self.bind(f'cannot evaluate {expr!r}')})"

    def emit_native_call(self, expr: CallExpr, op) -> str:
        fixed = NATIVE_CPU_COSTS.get(expr.name)
        if fixed is not None:
            self.counts.fixed += fixed
        else:
            self.counts.natives += 1
        args = []
        for arg in expr.args:
            t = self.tmp()
            self.w(f"{t} = {self.atom(arg)}")
            self.w(f"if {t}.__class__ is NativeRef:")
            self.w(f"    {t} = heap.get_native({t})")
            args.append(t)
        result = self.tmp()
        self.w(f"{result} = ex.natives.call({expr.name!r}, [{', '.join(args)}])")
        self.w(f"if isinstance({result}, list):")
        self.w(f"    {result} = ex.new_native({op.sid}, {result})")
        return result

    def emit_native_method(self, expr: CallExpr) -> str:
        self.counts.natives += 1
        ref, recv = self.emit_deref(self.atom(expr.target))
        args = []
        for arg in expr.args:
            t = self.tmp()
            self.w(f"{t} = {self.atom(arg)}")
            args.append(t)
        result = self.tmp()
        name = expr.name
        if name == "size":
            self.w(f"{result} = len({recv})")
        else:
            method = self.tmp()
            self.w(f"{method} = getattr({recv}, {name!r}, None)")
            self.w(f"if {method} is None:")
            self.w(f"    _no_method({recv}, {name!r})")
            self.w(f"{result} = {method}({', '.join(args)})")
        if name in _MUTATING_METHODS:
            self.w(f"if {ref}.__class__ is NativeRef:")
            self.w(f"    heap.mark_native_dirty({ref})")
        return result

    def emit_alloc_list(self, expr: CallExpr, op) -> str:
        if expr.name != "repeat":
            msg = f"unknown allocation {expr.name!r}"
            return f"_raise_rt({self.bind(msg)})"
        elem = self.tmp()
        self.w(f"{elem} = {self.atom(expr.args[0])}")
        count = self.atom(expr.args[1])
        return f"ex.new_native({op.sid}, [{elem}] * int({count}))"

    # -- stores -----------------------------------------------------------

    def emit_var_store(self, name: str, value_expr: str) -> None:
        self.w(f"{self.values_var}[{name!r}] = {value_expr}")
        if self.dirty_on:
            self.w(f"frame.dirty.add({name!r})")

    def emit_heap_store(self, target, value_expr: str) -> None:
        """FieldLV/IndexLV store against the block's static heap.

        The value is materialized first (matching the closure rung's
        evaluation order), then the target is resolved.
        """
        self.counts.heap_ops += 1
        value = self.tmp()
        self.w(f"{value} = {value_expr}")
        if isinstance(target, FieldLV):
            obj = self.tmp()
            fields = self.tmp()
            fname = target.field
            self.w(f"{obj} = {self.atom(target.obj)}")
            self.w(f"if {obj}.__class__ is not ObjRef:")
            self.w(f"    _bad_field_write({obj})")
            self.w(f"{fields} = heap._fields.get({obj}.oid)")
            self.w(f"if {fields} is None:")
            self.w(f"    {fields} = heap._fields[{obj}.oid] = {{}}")
            self.w(f"{fields}[{fname!r}] = {value}")
            self.w(
                f"heap.dirty_fields[({obj}.oid, {obj}.class_name, "
                f"{fname!r})] = None"
            )
            return
        assert isinstance(target, IndexLV)
        ref, cont = self.emit_deref(self.atom(target.obj))
        self.w(f"{cont}[{self.atom(target.index)}] = {value}")
        self.w(f"if {ref}.__class__ is NativeRef:")
        self.w(f"    heap.mark_native_dirty({ref})")

    def emit_store(self, target, value_expr: str) -> None:
        if target is None:
            self.w(value_expr)  # evaluate for effect, mirror step_discard
            return
        if isinstance(target, VarLV):
            self.emit_var_store(target.name, value_expr)
            return
        if isinstance(target, (FieldLV, IndexLV)):
            self.emit_heap_store(target, value_expr)
            return
        self.w(f"_raise_rt({self.bind(f'bad l-value {target!r}')})")

    # -- whole ops --------------------------------------------------------

    def emit_fused_var(self, name: str, op) -> bool:
        """Single-statement forms of ``x = <expr>``; mirrors
        _fused_assign_to_var (returns False when not applicable)."""
        value = op.value
        if isinstance(value, BinExpr):
            if value.op in _PYOPS or value.op in ("and", "or"):
                self.emit_var_store(name, self.emit_bin(value))
                return True
            return False
        if isinstance(value, Const):
            self.emit_var_store(name, self.const(value.value))
            return True
        if isinstance(value, VarRef):
            self.reads.append(value.name)
            self.emit_var_store(name, f"{self.values_var}[{value.name!r}]")
            return True
        if isinstance(value, FieldGet) and isinstance(value.obj, VarRef):
            read = self.emit_field_read(
                self.atom(value.obj), value.field, op.sid
            )
            self.emit_var_store(name, read)
            return True
        return False

    def emit_op(self, op) -> None:
        target = op.target
        if isinstance(target, VarLV) and self.emit_fused_var(target.name, op):
            return
        value_expr = self.emit_expr(op.value, op)
        self.emit_store(target, value_expr)

    # -- DB steps ---------------------------------------------------------

    def emit_db_step(self, op, expr: CallExpr, placement: Placement) -> None:
        """Mirror of _compile_db_step, specialized per API and side."""
        api = expr.name
        remote = placement is Placement.APP
        args = []
        for arg in expr.args:
            t = self.tmp()
            self.w(f"{t} = {self.atom(arg)}")
            args.append(t)
        if not args:
            self.w(
                "_raise_rt('DB call needs a SQL string first argument')"
            )
            return
        sql = args[0]
        params = args[1:]
        self.w(f"if not isinstance({sql}, str):")
        self.w(
            "    _raise_rt('DB call needs a SQL string first argument')"
        )
        self.w("ex.stats.db_calls += 1")
        if remote:
            # DbRequestMessage.nbytes() without building the message:
            # the envelope and the API name fold into one constant.
            size = " + ".join(
                [f"{MESSAGE_OVERHEAD + len(api)} + len({sql})"]
                + [f"_wire_size({p})" for p in params]
            )
            self.w(f"ex.cluster.record_message({size}, to_db=True)")
            self.w("ex.stats.db_round_trips += 1")
        if api not in ("query", "query_one", "query_scalar", "execute"):
            self.w(f"_raise_rt({self.bind(f'unknown DB API {api!r}')})")
            return
        call_args = ", ".join([sql] + params)
        result = self.tmp()
        touched = self.tmp()
        if api == "execute":
            self.w(f"{result} = ex.connection.execute({call_args})")
            self.w(f"{touched} = {result} if {result} > 1 else 1")
        else:
            rs = self.tmp()
            self.w(f"{rs} = ex.connection.query({call_args})")
            self.w(f"{touched} = {rs}.rows_touched")
            if api == "query":
                self.w(f"{result} = {rs}")
            elif api == "query_one":
                self.w(f"{result} = {rs}.one()")
            else:
                self.w(f"{result} = {rs}.scalar()")
        self.w(
            "ex.cluster.record_cpu('db', "
            f"ex._cost_model.db_operation(int({touched})))"
        )
        if remote:
            # DbResponseMessage.nbytes() likewise.  A ResultSet sizes
            # as its row list does (container overhead plus its rows),
            # and keeps the sum on the instance for a later transfer.
            self.w(
                "ex.cluster.record_message("
                f"{MESSAGE_OVERHEAD} + _wire_size({result}), to_db=False)"
            )
        if api == "query":
            wrapped = self.tmp()
            self.w(f"{wrapped} = ex.new_native({op.sid}, {result})")
            result = wrapped
        elif api != "execute":
            self.w(f"if isinstance({result}, ResultSet):")
            self.w(f"    {result} = ex.new_native({op.sid}, {result})")
        if op.target is not None:
            self.emit_store(op.target, result)

    # -- terminators ------------------------------------------------------

    def emit_result_store_inline(self, lvalue, value_expr: str) -> None:
        """Store a call/alloc result on the *current* frame.

        VarLV (the overwhelmingly common case) is inlined; heap lvalues
        go through the closure rung's dynamic-side result store, which
        charges and resolves the heap through the executor.
        """
        if lvalue is None:
            return
        if isinstance(lvalue, VarLV):
            # Result stores always mark dirty (mirrors store_var in
            # _compile_result_store, which is placement-agnostic).
            self.w(f"{self.values_var}[{lvalue.name!r}] = {value_expr}")
            if self.track_dirty:
                self.w(f"frame.dirty.add({lvalue.name!r})")
            return
        store = self.bind(_compile_result_store(lvalue))
        self.w(f"{store}(ex, frame, {value_expr})")

    def emit_terminator(self, term, compiled: CompiledProgram) -> None:
        if isinstance(term, TGoto):
            self.jump(term.target)
            return
        if isinstance(term, TBranch):
            self.emit_branch(term)
            return
        if isinstance(term, TCall):
            self.emit_call(term, compiled)
            return
        if isinstance(term, (TReturn, THalt)):
            self.emit_return(term)
            return
        self.w(f"_raise_rt({self.bind(f'bad terminator {term!r}')})")

    def emit_branch(self, term: TBranch) -> None:
        if isinstance(term.cond, Const):
            target = term.then_target if term.cond.value else term.else_target
            self.jump(target)
            return
        cond = self.atom(term.cond)
        self.w(f"return {term.then_target} if {cond} else {term.else_target}")

    def emit_return(self, term) -> None:
        value = self.tmp()
        if term.value is not None:
            self.w(f"{value} = {self.atom(term.value)}")
        else:
            self.w(f"{value} = None")
        st, fr = self.tmp(), self.tmp()
        self.w(f"{st} = ex.stack")
        self.w(f"{fr} = {st}.pop()")
        self.w(f"if {fr}.ctor_result is not None:")
        self.w(f"    {value} = {fr}.ctor_result")
        self.w(f"if not {st}:")
        self.w(f"    ex._ret = {value}")
        if self.fused:
            self.w("    _r = None")
            self.w("    break")
        else:
            self.w("    return None")
        rs = self.tmp()
        self.w(f"{rs} = {fr}.result_store")
        self.w(f"if {rs} is not None:")
        self.w(f"    {rs}(ex, {st}[-1], {value})")
        if self.fused:
            self.w(f"_r = {fr}.return_target")
            self.w("break")
        else:
            self.w(f"return {fr}.return_target")

    def _frame_literal(
        self,
        callee: str,
        receiver: str,
        params: tuple,
        args: list[str],
        return_target: int,
        rlv: str,
        ctor: str,
        rs: str,
    ) -> str:
        pairs = [f"'self': {receiver}"]
        keys = ["'self'"]
        for pname, atemp in zip(params, args):
            pairs.append(f"{pname!r}: {atemp}")
            keys.append(repr(pname))
        values = "{" + ", ".join(pairs) + "}"
        dirty = "{" + ", ".join(keys) + "}"
        return (
            f"_Frame({callee!r}, {values}, {dirty}, {return_target}, "
            f"{rlv}, {ctor}, {rs})"
        )

    def emit_alloc_call(self, term: TCall) -> None:
        """Pure allocation: argument atoms still evaluate (for their
        error behaviour), then the object is stored directly."""
        for arg in term.args:
            expr = self.atom(arg)
            if isinstance(arg, VarRef):
                self.w(expr)
        recv = self.tmp()
        self.w(f"{recv} = ex.new_object({term.alloc_class!r})")
        self.emit_result_store_inline(term.result, recv)

    def emit_call(self, term: TCall, compiled: CompiledProgram) -> None:
        result_store = _compile_result_store(term.result)
        alloc_class = term.alloc_class
        callee = term.callee
        if alloc_class is not None and not callee:
            self.emit_alloc_call(term)
            self.jump(term.return_target)
            return

        params = tuple(compiled.params[callee])
        entry_bid = compiled.entries[callee]
        arity_ok = len(term.args) == len(params)
        rlv = "None" if term.result is None else self.bind(term.result)
        rs = "None" if result_store is None else self.bind(result_store)
        args = []
        for arg in term.args:
            t = self.tmp()
            self.w(f"{t} = {self.atom(arg)}")
            args.append(t)
        if alloc_class is not None:
            recv = self.tmp()
            self.w(f"{recv} = ex.new_object({alloc_class!r})")
            ctor = recv
        else:
            recv = self.tmp()
            self.w(f"{recv} = {self.atom(term.receiver)}")
            self.w(f"if {recv}.__class__ is not ObjRef:")
            self.w(f"    _bad_receiver({recv}, {term.sid})")
            ctor = "None"
        if not arity_ok:
            msg = f"{callee} expects {len(params)} args, got {len(term.args)}"
            self.w(f"_raise_rt({self.bind(msg)})")
            return
        frame = self._frame_literal(
            callee, recv, params, args, term.return_target, rlv, ctor, rs
        )
        self.w(f"ex.stack.append({frame})")
        if self.fused:
            self.w(f"_r = {entry_bid}")
            self.w("break")
        else:
            self.w(f"return {entry_bid}")


# ---------------------------------------------------------------------------
# Module emitter
# ---------------------------------------------------------------------------


class _ModuleEmitter:
    def __init__(self) -> None:
        self.namespace: dict[str, Any] = dict(_BASE_NAMESPACE)
        self._bound = 0

    def bind(self, obj: Any) -> str:
        name = f"_k{self._bound}"
        self._bound += 1
        self.namespace[name] = obj
        return name


def _block_has_db(block: ExecutionBlock) -> bool:
    return any(
        isinstance(op.value, CallExpr) and op.value.kind is CallKind.DB
        for op in block.ops
    )


def _counts_reference(code) -> list[tuple]:
    return [
        (seg.dispatch, seg.statements, seg.heap_ops, seg.natives, seg.fixed)
        for seg in code.segments
    ]


def _emit_plain_ops(em: _FnEmitter, block: ExecutionBlock, code) -> None:
    """Emit a DB-free block's ops into ``em.out``, verifying that the
    mirrored accounting matches the closure rung's single segment."""
    saved = em.counts
    em.counts = _Counts()
    em.counts.dispatch = 1
    for op in block.ops:
        em.counts.statements += 1
        em.emit_op(op)
    term = block.terminator
    if isinstance(term, (TBranch, TCall)):
        em.counts.statements += 1
    mirrored = [em.counts.key()]
    em.counts = saved
    reference = _counts_reference(code)
    if mirrored != reference:  # pragma: no cover - generator bug guard
        raise BlockCodegenError(
            f"segment accounting diverged for block {block.bid}: "
            f"{mirrored} != {reference}"
        )


# ---------------------------------------------------------------------------
# Superblock regions
# ---------------------------------------------------------------------------

# Edge kinds along which a successor with a single in-region
# predecessor merges into the predecessor's straight-line arm.
_MERGEABLE = ("goto", "alloc", "inline")

# Fused-region size cap: bounds generated-function size (and the
# worst-case block over-attribution on a mid-arm error).
_REGION_CAP = 64


def _inline_entry(
    term: TCall, placement: Placement, compiled: CompiledProgram
) -> Optional[int]:
    """Entry bid of an inlinable leaf callee, or None.

    A call inlines when the callee is a single block on the same
    placement ending in TReturn/THalt with no DB ops, the arity
    matches, and the result lands in a variable (or nowhere): the
    callee frame then has no observable life -- it would be popped
    before any control transfer or error could expose it.
    """
    callee = term.callee
    if not callee:
        return None
    if term.alloc_class is None and term.receiver is None:
        return None  # pragma: no cover - malformed call, take slow path
    entry = compiled.entries.get(callee)
    if entry is None:
        return None
    cb = compiled.blocks[entry]
    if cb.placement is not placement:
        return None
    if not isinstance(cb.terminator, (TReturn, THalt)):
        return None
    if _block_has_db(cb):
        return None
    params = compiled.params.get(callee)
    if params is None or len(term.args) != len(params):
        return None
    if term.result is not None and not isinstance(term.result, VarLV):
        return None
    return entry


def _build_region(entry: int, compiled: CompiledProgram):
    """Grow a fused region from a driver entry over fusable edges.

    Fusable edges are gotos (including constant branches), branch
    arms, pure-allocation continuations, and inlined-call
    continuations -- always to a same-placement, DB-free block, up to
    ``_REGION_CAP`` nodes.  Returns ``(placement, nodes, plan, indeg,
    in_kind, exits)`` where ``plan[bid]`` is ``(kind, payload,
    targets, in_region_flags)`` and ``exits`` lists every bid the
    region can hand back to the driver (used for the entry fixpoint).
    """
    blocks = compiled.blocks
    placement = blocks[entry].placement
    plan: dict[int, tuple] = {}
    nodes = [entry]
    node_set = {entry}
    indeg = {entry: 1}  # the driver dispatch counts as an in-edge
    in_kind: dict[int, str] = {}
    exits: list[int] = []
    queue = [entry]
    while queue:
        bid = queue.pop(0)
        block = blocks[bid]
        term = block.terminator
        if isinstance(term, TGoto):
            kind, payload, targets = "goto", term.target, [term.target]
        elif isinstance(term, TBranch):
            if isinstance(term.cond, Const):
                taken = (
                    term.then_target if term.cond.value else term.else_target
                )
                kind, payload, targets = "goto", taken, [taken]
            else:
                kind, payload = "branch", term
                targets = [term.then_target, term.else_target]
        elif isinstance(term, TCall):
            if term.alloc_class is not None and not term.callee:
                kind, payload = "alloc", term
                targets = [term.return_target]
            else:
                centry = _inline_entry(term, placement, compiled)
                if centry is not None:
                    kind, payload = "inline", (term, centry)
                    targets = [term.return_target]
                else:
                    kind, payload, targets = "call", term, []
                    exits.append(compiled.entries[term.callee])
                    exits.append(term.return_target)
        elif isinstance(term, (TReturn, THalt)):
            kind, payload, targets = "return", term, []
        else:  # pragma: no cover - defensive
            kind, payload, targets = "bad", term, []
        in_region = []
        for t in targets:
            if t in node_set:
                indeg[t] = indeg.get(t, 0) + 1
                in_region.append(True)
            elif (
                len(nodes) < _REGION_CAP
                and blocks[t].placement is placement
                and not _block_has_db(blocks[t])
            ):
                node_set.add(t)
                nodes.append(t)
                queue.append(t)
                indeg[t] = 1
                in_kind[t] = kind
                in_region.append(True)
            else:
                exits.append(t)
                in_region.append(False)
        plan[bid] = (kind, payload, targets, in_region)
    return placement, nodes, plan, indeg, in_kind, exits


def _region_arms(entry, nodes, plan, indeg, in_kind):
    """Partition region nodes into dispatch arms (straight-line runs).

    An arm head is the entry, any join (in-region in-degree != 1), or
    any branch target; every other node merges into its predecessor's
    run and executes by fallthrough.
    """
    heads = [
        bid
        for bid in nodes
        if bid == entry
        or indeg.get(bid, 0) != 1
        or in_kind.get(bid) not in _MERGEABLE
    ]
    head_set = set(heads)
    chains = []
    for head in heads:
        chain = [head]
        cur = head
        while True:
            kind, _payload, targets, in_region = plan[cur]
            if kind not in _MERGEABLE:
                break
            t = targets[0]
            if not in_region[0] or t in head_set:
                break
            chain.append(t)
            cur = t
        chains.append(chain)
    covered = sum(len(c) for c in chains)
    if covered != len(nodes):  # pragma: no cover - generator bug guard
        raise BlockCodegenError(
            f"region {entry}: arms cover {covered} of {len(nodes)} blocks"
        )
    return chains, head_set


def _emit_inline_call(
    em: _FnEmitter,
    term: TCall,
    centry: int,
    compiled: CompiledProgram,
    codes,
    arm_bids: list[int],
) -> None:
    """Inline a leaf callee at its call site.

    The callee body runs against its own values dict (no frame push);
    its frame-local dirty marks are skipped because the frame would be
    popped before any transfer could ship them.  Unbound-variable
    errors keep the callee's method name via a per-site handler.
    """
    cb = compiled.blocks[centry]
    callee = term.callee
    params = compiled.params[callee]
    args = []
    for arg in term.args:
        t = em.tmp()
        em.w(f"{t} = {em.atom(arg)}")
        args.append(t)
    recv = em.tmp()
    if term.alloc_class is not None:
        em.w(f"{recv} = ex.new_object({term.alloc_class!r})")
        ctor = True
    else:
        em.w(f"{recv} = {em.atom(term.receiver)}")
        em.w(f"if {recv}.__class__ is not ObjRef:")
        em.w(f"    _bad_receiver({recv}, {term.sid})")
        ctor = False
    site = em.site()
    cv = f"_cv{site}"
    pairs = [f"'self': {recv}"]
    for pname, atemp in zip(params, args):
        pairs.append(f"{pname!r}: {atemp}")
    em.w(f"{cv} = {{{', '.join(pairs)}}}")

    saved_out, em.out = em.out, []
    saved_reads, em.reads = em.reads, []
    saved_vv, em.values_var = em.values_var, cv
    saved_dirty, em.dirty_on = em.dirty_on, False
    saved_counts, em.counts = em.counts, _Counts()
    em.counts.dispatch = 1
    for op in cb.ops:
        em.counts.statements += 1
        em.emit_op(op)
    cterm = cb.terminator
    ret = em.tmp()
    if cterm.value is not None:
        em.w(f"{ret} = {em.atom(cterm.value)}")
    else:
        em.w(f"{ret} = None")
    mirrored = [em.counts.key()]
    body = em.out
    creads = sorted(set(em.reads))
    em.out = saved_out
    em.reads = saved_reads
    em.values_var = saved_vv
    em.dirty_on = saved_dirty
    em.counts = saved_counts
    reference = _counts_reference(codes[centry])
    if mirrored != reference:  # pragma: no cover - generator bug guard
        raise BlockCodegenError(
            f"inline accounting diverged for block {centry}: "
            f"{mirrored} != {reference}"
        )

    if creads:
        rd = f"_rdi{em.tag}_{site}"
        names = ", ".join(repr(n) for n in creads)
        em.prelude.append(f"{rd} = frozenset(({names},))")
        em.w("try:")
        for line in body:
            em.w("    " + line)
        em.w("except KeyError as _e:")
        em.w("    _n = _e.args[0] if _e.args else None")
        em.w(f"    if _n in {rd} and _n not in {cv}:")
        em.w(
            "        raise RuntimeError_("
            f'f"unbound variable {{_n!r}} in {callee}") from None'
        )
        em.w("    raise")
    else:
        em.out.extend(body)
    if ctor:
        em.w(f"{ret} = {recv}")
    em.emit_result_store_inline(term.result, ret)
    arm_bids.append(centry)


def _emit_region_fn(
    module: _ModuleEmitter,
    writer: SourceWriter,
    entry: int,
    compiled: CompiledProgram,
    codes,
    model,
    track_dirty: bool,
    region,
) -> None:
    """Emit one superblock function for a fused region.

    The function dispatches internally on a block-id int (``_b``) so
    loops run without returning to the driver; straight-line runs
    share one dispatch arm.  Per-arm visit counters fold into the
    driver's accumulator (``acc = [cpu_app, cpu_db, blocks, ops]``)
    in a ``finally`` so stats survive mid-run errors; every arm entry
    checks its counter against ``ex.max_blocks`` so runaway loops
    still raise the interpreter's exact error.
    """
    placement, nodes, plan, indeg, in_kind, _exits = region
    side_idx = 0 if placement is Placement.APP else 1
    chains, head_set = _region_arms(entry, nodes, plan, indeg, in_kind)

    em = _FnEmitter(module, track_dirty, fused=True)
    em.tag = str(entry)

    def transition(e: _FnEmitter, t: int) -> None:
        if t in head_set:
            e.w(f"_b = {t}")
            e.w("continue")
        else:
            e.w(f"_r = {t}")
            e.w("break")

    em.transition = transition

    arms = []
    for chain in chains:
        em.out = []
        arm_bids: list[int] = []
        for i, bid in enumerate(chain):
            block = compiled.blocks[bid]
            _emit_plain_ops(em, block, codes[bid])
            arm_bids.append(bid)
            kind, payload, targets, in_region = plan[bid]
            nxt = chain[i + 1] if i + 1 < len(chain) else None
            if kind in ("goto", "alloc", "inline"):
                if kind == "alloc":
                    em.emit_alloc_call(payload)
                elif kind == "inline":
                    _emit_inline_call(
                        em, payload[0], payload[1], compiled, codes, arm_bids
                    )
                if targets[0] != nxt:
                    em.jump(targets[0])
            elif kind == "branch":
                cond = em.atom(payload.cond)
                t1, t2 = targets
                r1, r2 = in_region
                if r1 and r2:
                    em.w(f"_b = {t1} if {cond} else {t2}")
                    em.w("continue")
                elif not r1 and not r2:
                    em.w(f"_r = {t1} if {cond} else {t2}")
                    em.w("break")
                else:
                    em.w(f"if {cond}:")
                    if r1:
                        em.w(f"    _b = {t1}")
                        em.w("    continue")
                    else:
                        em.w(f"    _r = {t1}")
                        em.w("    break")
                    if r2:
                        em.w(f"_b = {t2}")
                        em.w("continue")
                    else:
                        em.w(f"_r = {t2}")
                        em.w("break")
            elif kind == "call":
                em.emit_call(payload, compiled)
            elif kind == "return":
                em.emit_return(payload)
            else:  # pragma: no cover - defensive
                em.w(f"_raise_rt({em.bind(f'bad terminator {payload!r}')})")
        arms.append((chain[0], em.out, arm_bids))

    reads = sorted(set(em.reads))
    for line in em.prelude:
        writer.line(line)
    if reads:
        names = ", ".join(repr(n) for n in reads)
        writer.line(f"_rdf{entry} = frozenset(({names},))")
    writer.line(f"def _f{entry}(ex, frame, heap, acc):")
    writer.indent()
    writer.line("_v = frame.values")
    writer.line("_mb = ex.max_blocks")
    for k in range(len(arms)):
        writer.line(f"_a{k} = 0")
    writer.line(f"_b = {entry}")
    writer.line("try:")
    writer.indent()
    if reads:
        writer.line("try:")
        writer.indent()
    writer.line("while True:")
    writer.indent()
    for k, (head, lines, _bids) in enumerate(arms):
        writer.line(f"{'if' if k == 0 else 'elif'} _b == {head}:")
        writer.indent()
        writer.line(f"_a{k} += 1")
        writer.line(f"if _a{k} > _mb:")
        writer.line("    _runaway(ex)")
        for line in lines:
            writer.line(line)
        writer.dedent()
    writer.line("else:")
    bad = module.bind(f"unknown dispatch target in region {entry}")
    writer.line(f"    _raise_rt({bad})")
    writer.dedent()  # while
    if reads:
        writer.dedent()
        writer.line("except KeyError as _e:")
        writer.indent()
        writer.line("_n = _e.args[0] if _e.args else None")
        writer.line(f"if _n in _rdf{entry} and _n not in _v:")
        writer.indent()
        writer.line(
            "raise RuntimeError_("
            'f"unbound variable {_n!r} in {frame.method}") from None'
        )
        writer.dedent()
        writer.line("raise")
        writer.dedent()
    writer.dedent()  # try
    writer.line("finally:")
    writer.indent()
    cpu_terms = []
    blk_terms = []
    op_terms = []
    for k, (_head, _lines, bids) in enumerate(arms):
        cpu = 0.0
        n_ops = 0
        for b in bids:
            cpu += codes[b].segments[0].seconds(model)
            n_ops += codes[b].n_ops
        if cpu:
            cpu_terms.append(f"_a{k}*{_float_literal(cpu)}")
        blk_terms.append(f"_a{k}" if len(bids) == 1 else f"_a{k}*{len(bids)}")
        if n_ops:
            op_terms.append(f"_a{k}" if n_ops == 1 else f"_a{k}*{n_ops}")
    if cpu_terms:
        writer.line(f"acc[{side_idx}] += " + " + ".join(cpu_terms))
    writer.line("acc[2] += " + " + ".join(blk_terms))
    if op_terms:
        writer.line("acc[3] += " + " + ".join(op_terms))
    writer.line("_bc = ex.block_counts")
    writer.line("if _bc is not None:")
    writer.indent()
    for k, (_head, _lines, bids) in enumerate(arms):
        mult: dict[int, int] = {}
        for b in bids:
            mult[b] = mult.get(b, 0) + 1
        writer.line(f"if _a{k}:")
        writer.indent()
        for b, m in mult.items():
            inc = f"_a{k}" if m == 1 else f"_a{k}*{m}"
            writer.line(f"_bc[{b}] = _bc.get({b}, 0) + {inc}")
        writer.dedent()
    writer.dedent()
    writer.dedent()  # finally
    writer.line("return _r")
    writer.dedent()
    writer.line("")


def _emit_db_fn(
    module: _ModuleEmitter,
    writer: SourceWriter,
    block: ExecutionBlock,
    compiled: CompiledProgram,
    code,
    model,
    track_dirty: bool,
) -> None:
    """Emit the singleton function for a DB-call block.

    Reproduces _compile_block's pending/flush structure: op lines
    buffer per segment; a DB call closes the segment, and the next
    segment's CPU charge (a baked float literal) lands right after the
    DB lines -- exactly where the closure rung places its charge step.
    Stats land in ``acc`` at entry and segment 0's CPU is recorded
    directly (before the request message can flush pending CPU).
    """
    em = _FnEmitter(module, track_dirty)
    placement = block.placement
    side = "app" if placement is Placement.APP else "db"
    body: list[str] = []
    pending: list[str] = []
    segments: list[_Counts] = []
    em.counts.dispatch = 1

    def flush() -> None:
        if not em.counts.is_zero():
            segments.append(em.counts)
            index = len(segments) - 1
            if index:
                seconds = code.segments[index].seconds(model)
                if seconds:
                    body.append(
                        f"ex.cluster.record_cpu({side!r}, "
                        f"{_float_literal(seconds)})"
                    )
                else:
                    # Mirror record_cpu's zero fast path with no call.
                    body.append(f"pass  # segment {index}: zero-cost model")
        body.extend(pending)
        pending.clear()
        em.counts = _Counts()

    for op in block.ops:
        em.counts.statements += 1
        value = op.value
        if isinstance(value, CallExpr) and value.kind is CallKind.DB:
            store_counts = _Counts()
            em.out = []
            saved = em.counts
            em.counts = store_counts
            em.emit_db_step(op, value, placement)
            db_lines = em.out
            em.counts = saved
            flush()
            body.extend(db_lines)
            em.counts.merge(store_counts)
        else:
            em.out = []
            em.emit_op(op)
            pending.extend(em.out)
    term = block.terminator
    if isinstance(term, (TBranch, TCall)):
        em.counts.statements += 1
    flush()
    em.out = body
    em.emit_terminator(term, compiled)

    # Accounting parity with the closure rung, checked field by field.
    mirrored = [seg.key() for seg in segments]
    reference = _counts_reference(code)
    if mirrored != reference:  # pragma: no cover - generator bug guard
        raise BlockCodegenError(
            f"segment accounting diverged for block {block.bid}: "
            f"{mirrored} != {reference}"
        )

    bid = block.bid
    seg0 = code.segments[0].seconds(model)
    reads = sorted(set(em.reads))
    if reads:
        names = ", ".join(repr(n) for n in reads)
        writer.line(f"_rd{bid} = frozenset(({names},))")
    writer.line(f"def _f{bid}(ex, frame, heap, acc):")
    writer.indent()
    writer.line("_v = frame.values")
    writer.line("acc[2] += 1")
    if code.n_ops:
        writer.line(f"acc[3] += {code.n_ops}")
    writer.line("_bc = ex.block_counts")
    writer.line("if _bc is not None:")
    writer.line(f"    _bc[{bid}] = _bc.get({bid}, 0) + 1")
    if seg0:
        writer.line(
            f"ex.cluster.record_cpu({side!r}, {_float_literal(seg0)})"
        )
    if reads:
        writer.line("try:")
        writer.indent()
    for line in body:
        writer.line(line)
    if reads:
        writer.dedent()
        writer.line("except KeyError as _e:")
        writer.indent()
        writer.line("_n = _e.args[0] if _e.args else None")
        writer.line(f"if _n in _rd{bid} and _n not in _v:")
        writer.indent()
        writer.line(
            "raise RuntimeError_("
            'f"unbound variable {_n!r} in {frame.method}") from None'
        )
        writer.dedent()
        writer.line("raise")
        writer.dedent()
    writer.dedent()
    writer.line("")


def _db_exits(block: ExecutionBlock, compiled: CompiledProgram) -> list[int]:
    """Driver targets a DB-block singleton can return."""
    term = block.terminator
    if isinstance(term, TGoto):
        return [term.target]
    if isinstance(term, TBranch):
        if isinstance(term.cond, Const):
            return [term.then_target if term.cond.value else term.else_target]
        return [term.then_target, term.else_target]
    if isinstance(term, TCall):
        if term.alloc_class is not None and not term.callee:
            return [term.return_target]
        return [compiled.entries[term.callee], term.return_target]
    return []


def generate_program_source(
    compiled: CompiledProgram, model
) -> tuple[str, dict[str, Any]]:
    """Generate the module text (deterministic) and its exec namespace.

    Functions are emitted per *driver entry*: method entries first,
    then (fixpoint) every bid a previously emitted function can hand
    back to the driver.  A bid reachable from several entries is
    simply emitted into each region -- duplication costs text, never
    correctness, since stats fold per logical block id.
    """
    codes = ensure_program_code(compiled)
    track_dirty = any(
        block.placement is Placement.DB for block in compiled.blocks.values()
    )
    module = _ModuleEmitter()
    writer = SourceWriter()
    sig = (
        model.block_dispatch_cost,
        model.statement_cost,
        model.heap_op_cost,
        model.native_call_cost,
    )
    writer.line("# Generated by repro.runtime.codegen_blocks; do not edit.")
    writer.line(f"# program: {compiled.name}")
    writer.line(f"# cost-model signature: {sig!r}")
    writer.line(f"# dirty-tracking: {'on' if track_dirty else 'off'}")
    writer.line("")
    seen = set()
    queue: list[int] = []
    for name in compiled.entries:
        e = compiled.entries[name]
        if e not in seen:
            seen.add(e)
            queue.append(e)
    emitted: list[int] = []
    while queue:
        e = queue.pop(0)
        block = compiled.blocks[e]
        if _block_has_db(block):
            _emit_db_fn(
                module, writer, block, compiled, codes[e], model, track_dirty
            )
            exits = _db_exits(block, compiled)
        else:
            region = _build_region(e, compiled)
            _emit_region_fn(
                module, writer, e, compiled, codes, model, track_dirty, region
            )
            exits = region[5]
        emitted.append(e)
        for t in exits:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    fn_items = ", ".join(f"{e}: _f{e}" for e in emitted)
    writer.line(f"ENTRY_FNS = {{{fn_items}}}")
    return writer.text(), module.namespace


def _exec_module_text(text: str, filename: str, namespace: dict) -> None:
    """``exec`` a generated module one top-level definition at a time.

    Compiling the whole text at once holds the AST of every function
    together -- a transient of several MB that stays in the process's
    peak RSS.  A blank line ends each definition (the emitters write
    none inside one); every piece is padded with the newlines before
    it, so line numbers still refer to the module text.
    """
    line = 0
    for piece in text.split("\n\n"):
        exec(compile("\n" * line + piece, filename, "exec"), namespace)
        line += piece.count("\n") + 2


def _build_source_program(compiled: CompiledProgram, model) -> SourceProgram:
    text, namespace = generate_program_source(compiled, model)
    _exec_module_text(text, f"<codegen:{compiled.name}>", namespace)
    fns = namespace["ENTRY_FNS"]
    max_bid = max(compiled.blocks) if compiled.blocks else -1
    meta: list[Optional[tuple]] = [None] * (max_bid + 1)
    for bid, fn in fns.items():
        block = compiled.blocks[bid]
        meta[bid] = (fn, block.placement, _block_has_db(block))
    program = SourceProgram(text, source_signature(text), meta, namespace)
    maybe_dump_source("blocks", compiled.name, text)
    return program


def ensure_program_source(
    compiled: CompiledProgram, model, tracer=None
) -> SourceProgram:
    """Generate (or fetch the cached) source executor for one program.

    Cached per cost-model signature: the generated text bakes segment
    charges as float literals, so two models with different per-op
    costs need distinct modules.
    """
    sig = (
        model.block_dispatch_cost,
        model.statement_cost,
        model.heap_op_cost,
        model.native_call_cost,
    )
    cache = compiled.source_cache
    if cache is None:
        cache = compiled.source_cache = {}
    program = cache.get(sig)
    if program is not None:
        return program
    if tracer is not None and getattr(tracer, "active", False):
        with tracer.span(
            "codegen.blocks", track="codegen", program=compiled.name
        ):
            program = _build_source_program(compiled, model)
    else:
        program = _build_source_program(compiled, model)
    cache[sig] = program
    return program
