"""The execution-block interpreter and control-transfer loop.

A single thread of control moves between the two simulated servers
(Section 2): the executor runs blocks on the side they are placed,
and whenever the next block lives on the other server it performs a
control transfer -- one message carrying the next block id, modified
stack slots, and batched heap updates.  DB API calls execute on the
database connection; when the JDBC group is partitioned to the
application server each call costs an explicit request/response round
trip, exactly like the paper's JDBC baseline.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.partition_graph import Placement
from repro.db.jdbc import Connection, ResultSet, Row
from repro.lang.interp import NativeRegistry, default_natives
from repro.lang.ir import (
    Atom,
    BinExpr,
    CallExpr,
    CallKind,
    Const,
    Expr,
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
from repro.runtime.heap import HeapStore, NativeRef, ObjRef
from repro.runtime.rpc import (
    ControlTransferMessage,
    DbRequestMessage,
    DbResponseMessage,
)
from repro.runtime.serializer import wire_copy, wire_size
from repro.sim.cluster import Cluster


class RuntimeError_(Exception):
    """Failure inside the Pyxis runtime."""


# CPU cost (seconds) of compute-heavy natives, charged to the
# executing server; everything else uses the cost model default.
NATIVE_CPU_COSTS: dict[str, float] = {
    "sha1_hex": 10e-6,
    "print": 2e-6,
}

# Interpreter selection: "source" (the default) runs
# generated-Python-source block functions (repro.runtime.codegen_blocks);
# "tree" walks the Expr trees directly.  On successful runs both produce
# identical results and identical ExecutionStats (after a mid-block
# error the batched op/CPU accounting of the source rung may cover the
# whole failing block); the tree-walker is the oracle.
INTERP_ENV_VAR = "REPRO_INTERP"
INTERP_MODES = ("tree", "source")
DEFAULT_INTERP = "source"


def resolve_interp_mode(interp: Optional[str] = None) -> str:
    """Resolve an interpreter mode from an argument or the environment."""
    source = interp if interp is not None else os.environ.get(INTERP_ENV_VAR, "")
    mode = source.strip().lower() or DEFAULT_INTERP
    if mode not in INTERP_MODES:
        raise RuntimeError_(
            f"unknown interpreter mode {mode!r}; expected one of {INTERP_MODES}"
        )
    return mode


@dataclass
class ExecutionStats:
    blocks: int = 0
    ops: int = 0
    control_transfers: int = 0
    db_calls: int = 0
    db_round_trips: int = 0
    bytes_sent: int = 0

    def reset(self) -> None:
        self.blocks = 0
        self.ops = 0
        self.control_transfers = 0
        self.db_calls = 0
        self.db_round_trips = 0
        self.bytes_sent = 0


class _Frame:
    """One activation record (a plain slots class: frames are the
    runtime's hottest allocation)."""

    __slots__ = (
        "method",
        "values",
        "dirty",
        "return_target",
        "result_lvalue",
        "ctor_result",
        "result_store",
    )

    def __init__(
        self,
        method: str,
        values: dict[str, Any],
        dirty: set[str],
        return_target: int = -1,
        result_lvalue: Optional[LValue] = None,
        ctor_result: Optional[ObjRef] = None,
        # Source-rung twin of result_lvalue: the store closure the
        # generated return path invokes on the caller frame.
        result_store: Optional[Callable[..., None]] = None,
    ) -> None:
        self.method = method
        self.values = values
        self.dirty = dirty
        self.return_target = return_target
        self.result_lvalue = result_lvalue
        self.ctor_result = ctor_result
        self.result_store = result_store


class PyxisExecutor:
    """Executes one compiled partitioning on a simulated cluster."""

    def __init__(
        self,
        compiled: CompiledProgram,
        cluster: Cluster,
        connection: Connection,
        natives: Optional[NativeRegistry] = None,
        max_blocks: int = 5_000_000,
        interp: Optional[str] = None,
    ) -> None:
        self.compiled = compiled
        self.cluster = cluster
        self.connection = connection
        self.natives = natives if natives is not None else default_natives()
        self.max_blocks = max_blocks
        self.heaps: dict[Placement, HeapStore] = {
            Placement.APP: HeapStore(Placement.APP),
            Placement.DB: HeapStore(Placement.DB),
        }
        self.stats = ExecutionStats()
        # Optional per-block execution counters for live profiling:
        # None (the default) keeps the hot loop branch-free in spirit
        # -- a single None check per block.  Enable via
        # enable_block_counting(); CompiledProgram.sid_multiplicities
        # converts block counts back to per-statement counts.
        self.block_counts: Optional[dict[int, int]] = None
        self._oids = itertools.count(1)
        self._native_sites: dict[int, int] = {}
        self.stack: list[_Frame] = []
        self.side: Placement = Placement.APP
        # Cost-model constants hoisted off the per-op path; the model is
        # treated as fixed for the lifetime of the executor.
        self._cost_model = cluster.app.cost_model
        self._heap_cost = self._cost_model.heap_op_cost
        self._ret: Any = None
        self.interp = resolve_interp_mode(interp)
        if self.interp == "source":
            from repro.runtime.codegen_blocks import ensure_program_source

            source = ensure_program_source(
                compiled,
                self._cost_model,
                tracer=getattr(connection, "tracer", None),
            )
            self._source = source
            self._source_meta = source.meta
            self._loop_fn = self._loop_source
        else:
            self._loop_fn = self._loop

    # -- allocation -----------------------------------------------------------

    def enable_block_counting(self) -> dict[int, int]:
        """Turn on per-block execution counting; returns the live dict."""
        if self.block_counts is None:
            self.block_counts = {}
        return self.block_counts

    def new_object(self, class_name: str) -> ObjRef:
        ref = ObjRef(next(self._oids), class_name)
        for heap in self.heaps.values():
            heap.register_object(ref)
        return ref

    def new_native(self, alloc_sid: int, value: Any) -> NativeRef:
        ref = NativeRef(next(self._oids), alloc_sid)
        self._native_sites[ref.oid] = alloc_sid
        self.heaps[self.side].register_native(ref, value)
        return ref

    # -- cost charging -----------------------------------------------------------

    def _side_name(self) -> str:
        return "app" if self.side is Placement.APP else "db"

    def _charge(self, seconds: float) -> None:
        self.cluster.record_cpu(self._side_name(), seconds)

    @property
    def _cost(self):
        return self.cluster.app.cost_model

    # -- entry point ---------------------------------------------------------------

    def invoke(self, class_name: str, method: str, *args: Any) -> Any:
        """Create a fresh instance and run ``method`` (entry wrapper)."""
        if class_name not in self.compiled.classes:
            raise RuntimeError_(f"unknown class {class_name!r}")
        receiver = self.new_object(class_name)
        init = f"{class_name}.__init__"
        if init in self.compiled.entries:
            self._run(init, receiver, ())
        return self._run(f"{class_name}.{method}", receiver, tuple(args))

    def _run(self, qualified: str, receiver: ObjRef, args: tuple) -> Any:
        entry_bid = self.compiled.entries.get(qualified)
        if entry_bid is None:
            raise RuntimeError_(f"unknown method {qualified!r}")
        params = self.compiled.params[qualified]
        if len(args) != len(params):
            raise RuntimeError_(
                f"{qualified} expects {len(params)} args, got {len(args)}"
            )
        values: dict[str, Any] = {"self": receiver}
        values.update(zip(params, args))
        frame = _Frame(
            method=qualified, values=values, dirty=set(values),
        )
        self.stack = [frame]
        self.side = Placement.APP  # execution starts at the app server
        result = self._loop_fn(entry_bid)
        if self.side is Placement.DB:
            # Return control (and final heap updates) to the app server.
            self._control_transfer(Placement.APP, -1)
            self.side = Placement.APP
        return result

    # -- main loop -----------------------------------------------------------------

    def _loop(self, bid: int) -> Any:
        executed = 0
        while True:
            executed += 1
            if executed > self.max_blocks:
                raise RuntimeError_(
                    f"exceeded {self.max_blocks} blocks; runaway program?"
                )
            block = self.compiled.block(bid)
            if block.placement is not self.side:
                self._control_transfer(block.placement, bid)
                self.side = block.placement
            if self.block_counts is not None:
                self.block_counts[bid] = self.block_counts.get(bid, 0) + 1
            self.stats.blocks += 1
            self._charge(self._cost.block_dispatch_cost)
            frame = self.stack[-1]
            for op in block.ops:
                self._exec_op(op, frame)
            term = block.terminator
            if isinstance(term, TGoto):
                bid = term.target
            elif isinstance(term, TBranch):
                self._charge(self._cost.statement_cost)
                cond = self._eval_atom(term.cond, frame)
                bid = term.then_target if cond else term.else_target
            elif isinstance(term, TCall):
                bid = self._do_call(term, frame)
            elif isinstance(term, (TReturn, THalt)):
                value = (
                    self._eval_atom(term.value, frame)
                    if term.value is not None
                    else None
                )
                finished = self.stack.pop()
                if finished.ctor_result is not None:
                    value = finished.ctor_result
                if not self.stack:
                    return value
                caller = self.stack[-1]
                if finished.result_lvalue is not None:
                    self._store(finished.result_lvalue, value, caller)
                bid = finished.return_target
            else:  # pragma: no cover - defensive
                raise RuntimeError_(f"bad terminator {term!r}")

    def _loop_source(self, bid: int) -> Any:
        """Run generated superblock functions (see codegen_blocks).

        Each driver entry is a fused region: gotos, branch arms,
        allocations and inlined leaf calls all execute inside one
        generated function, so this loop only runs at real call/return
        boundaries, region exits, and DB blocks.  The generated
        functions fold block/op counts and per-side CPU into ``acc``
        (``[cpu_app, cpu_db, blocks, ops]``); batched CPU flushes
        right before every point where the cluster can observe it -- a
        control transfer, a DB-call block (whose request message
        flushes pending CPU into trace stages), and loop exit.
        Between two such points all charges land on one side, so the
        batched sums produce the same stages as per-block
        ``record_cpu`` calls would.  The runaway guard
        lives in two places: logical block counts are checked here per
        dispatch, and every generated dispatch arm checks its own
        visit counter, so loops that never leave a region still raise.
        """
        meta = self._source_meta
        stats = self.stats
        app = Placement.APP
        heap_app = self.heaps[app]
        heap_db = self.heaps[Placement.DB]
        record_cpu = self.cluster.record_cpu
        stack = self.stack
        max_blocks = self.max_blocks
        acc = [0.0, 0.0, 0, 0]
        try:
            while True:
                fn, placement, flush = meta[bid]
                if placement is not self.side:
                    if acc[0]:
                        record_cpu("app", acc[0])
                        acc[0] = 0.0
                    if acc[1]:
                        record_cpu("db", acc[1])
                        acc[1] = 0.0
                    self._control_transfer(placement, bid)
                    self.side = placement
                elif flush:
                    if acc[0]:
                        record_cpu("app", acc[0])
                        acc[0] = 0.0
                    if acc[1]:
                        record_cpu("db", acc[1])
                        acc[1] = 0.0
                if acc[2] > max_blocks:
                    raise RuntimeError_(
                        f"exceeded {self.max_blocks} blocks; runaway program?"
                    )
                nxt = fn(
                    self,
                    stack[-1],
                    heap_app if placement is app else heap_db,
                    acc,
                )
                if nxt is None:
                    return self._ret
                bid = nxt
        finally:
            if acc[0]:
                record_cpu("app", acc[0])
            if acc[1]:
                record_cpu("db", acc[1])
            stats.blocks += acc[2]
            stats.ops += acc[3]

    def _do_call(self, term: TCall, frame: _Frame) -> int:
        self._charge(self._cost.statement_cost)
        args = tuple(self._eval_atom(a, frame) for a in term.args)
        if term.alloc_class is not None:
            receiver: Any = self.new_object(term.alloc_class)
            ctor_result: Optional[ObjRef] = receiver
            if not term.callee:
                # No constructor: allocation completes immediately.
                if term.result is not None:
                    self._store(term.result, receiver, frame)
                return term.return_target
        else:
            assert term.receiver is not None
            receiver = self._eval_atom(term.receiver, frame)
            ctor_result = None
            if not isinstance(receiver, ObjRef):
                raise RuntimeError_(
                    f"method call on non-object {receiver!r} "
                    f"(sid={term.sid})"
                )
        params = self.compiled.params[term.callee]
        if len(args) != len(params):
            raise RuntimeError_(
                f"{term.callee} expects {len(params)} args, got {len(args)}"
            )
        values: dict[str, Any] = {"self": receiver}
        values.update(zip(params, args))
        new_frame = _Frame(
            method=term.callee,
            values=values,
            dirty=set(values),
            return_target=term.return_target,
            result_lvalue=term.result,
            ctor_result=ctor_result,
        )
        self.stack.append(new_frame)
        return self.compiled.entries[term.callee]

    # -- control transfer --------------------------------------------------------

    def _control_transfer(self, target: Placement, next_bid: int) -> None:
        source_heap = self.heaps[self.side]
        field_updates, native_updates = source_heap.collect_updates(
            self.compiled.field_ships,
            self.compiled.array_ships,
            self._native_sites,
        )
        stack_updates: dict[str, Any] = {}
        for depth, frame in enumerate(self.stack):
            for name in frame.dirty:
                stack_updates[f"{depth}:{name}"] = frame.values.get(name)
            frame.dirty.clear()
        message = ControlTransferMessage(
            next_bid=next_bid,
            stack_updates=stack_updates,
            field_updates=field_updates,
            native_updates=native_updates,
        )
        nbytes = message.nbytes()
        self._charge(self._cost.serialize_byte_cost * nbytes)
        self.cluster.record_message(nbytes, to_db=(target is Placement.DB))
        self.heaps[target].apply_updates(
            {key: wire_copy(v) for key, v in field_updates.items()},
            {oid: wire_copy(v) for oid, v in native_updates.items()},
        )
        self.stats.control_transfers += 1
        self.stats.bytes_sent += nbytes

    # -- operations ----------------------------------------------------------------

    def _exec_op(self, op: OpAssign, frame: _Frame) -> None:
        self.stats.ops += 1
        self._charge(self._cost.statement_cost)
        value = self._eval(op.value, frame, op)
        if op.target is not None:
            self._store(op.target, value, frame)

    def _store(self, target: LValue, value: Any, frame: _Frame) -> None:
        if isinstance(target, VarLV):
            frame.values[target.name] = value
            frame.dirty.add(target.name)
            return
        heap = self.heaps[self.side]
        self._charge(self._cost.heap_op_cost)
        if isinstance(target, FieldLV):
            obj = self._eval_atom(target.obj, frame)
            if not isinstance(obj, ObjRef):
                raise RuntimeError_(f"field write on {obj!r}")
            heap.write_field(obj, target.field, value)
            return
        if isinstance(target, IndexLV):
            container = self._container(
                self._eval_atom(target.obj, frame), frame
            )
            index = self._eval_atom(target.index, frame)
            container[index] = value
            ref = self._eval_atom(target.obj, frame)
            if isinstance(ref, NativeRef):
                heap.mark_native_dirty(ref)
            return
        raise RuntimeError_(f"bad l-value {target!r}")  # pragma: no cover

    # -- expression evaluation -------------------------------------------------------

    def _eval_atom(self, atom: Atom, frame: _Frame) -> Any:
        if isinstance(atom, Const):
            return atom.value
        if isinstance(atom, VarRef):
            if atom.name not in frame.values:
                raise RuntimeError_(
                    f"unbound variable {atom.name!r} in {frame.method}"
                )
            return frame.values[atom.name]
        raise RuntimeError_(f"not an atom: {atom!r}")  # pragma: no cover

    def _container(self, value: Any, frame: _Frame) -> Any:
        """Dereference a container value (NativeRef -> heap object)."""
        if isinstance(value, NativeRef):
            return self.heaps[self.side].get_native(value)
        if isinstance(value, (list, ResultSet, Row, tuple, dict)):
            return value
        raise RuntimeError_(f"not a container: {value!r}")

    def _eval(self, expr: Expr, frame: _Frame, op: OpAssign) -> Any:
        if isinstance(expr, (Const, VarRef)):
            return self._eval_atom(expr, frame)
        if isinstance(expr, BinExpr):
            left = self._eval_atom(expr.left, frame)
            right = self._eval_atom(expr.right, frame)
            from repro.lang.interp import _apply_binop

            return _apply_binop(expr.op, left, right)
        if isinstance(expr, UnaryExpr):
            operand = self._eval_atom(expr.operand, frame)
            return -operand if expr.op == "-" else not operand
        if isinstance(expr, FieldGet):
            obj = self._eval_atom(expr.obj, frame)
            if not isinstance(obj, ObjRef):
                raise RuntimeError_(f"field read on {obj!r} (sid={op.sid})")
            self._charge(self._cost.heap_op_cost)
            return self.heaps[self.side].read_field(obj, expr.field)
        if isinstance(expr, IndexGet):
            container = self._container(
                self._eval_atom(expr.obj, frame), frame
            )
            index = self._eval_atom(expr.index, frame)
            self._charge(self._cost.heap_op_cost)
            if isinstance(container, ResultSet):
                return container.rows[index]
            return container[index]
        if isinstance(expr, ListLiteral):
            elements = [self._eval_atom(e, frame) for e in expr.elements]
            return self.new_native(op.sid, elements)
        if isinstance(expr, CallExpr):
            return self._eval_call(expr, frame, op)
        raise RuntimeError_(f"cannot evaluate {expr!r}")  # pragma: no cover

    def _eval_call(self, expr: CallExpr, frame: _Frame, op: OpAssign) -> Any:
        if expr.kind is CallKind.DB:
            return self._db_call(expr, frame, op)
        if expr.kind is CallKind.ALLOC_LIST:
            if expr.name == "repeat":
                elem = self._eval_atom(expr.args[0], frame)
                count = int(self._eval_atom(expr.args[1], frame))
                return self.new_native(op.sid, [elem] * count)
            raise RuntimeError_(f"unknown allocation {expr.name!r}")
        if expr.kind is CallKind.NATIVE:
            args = [
                self._deref_arg(self._eval_atom(a, frame)) for a in expr.args
            ]
            self._charge(
                NATIVE_CPU_COSTS.get(expr.name, self._cost.native_call_cost)
            )
            result = self.natives.call(expr.name, args)
            if isinstance(result, list):
                return self.new_native(op.sid, result)
            return result
        if expr.kind is CallKind.NATIVE_METHOD:
            assert expr.target is not None
            ref = self._eval_atom(expr.target, frame)
            receiver = self._container(ref, frame)
            args = [
                self._deref_arg_shallow(self._eval_atom(a, frame))
                for a in expr.args
            ]
            self._charge(self._cost.native_call_cost)
            result = self._native_method(receiver, expr.name, args)
            if expr.name in {"append", "extend", "pop"} and isinstance(
                ref, NativeRef
            ):
                self.heaps[self.side].mark_native_dirty(ref)
            return result
        raise RuntimeError_(
            f"call kind {expr.kind} must be compiled to a terminator"
        )  # pragma: no cover

    def _deref_arg(self, value: Any) -> Any:
        """Natives receive plain containers, not refs."""
        if isinstance(value, NativeRef):
            return self.heaps[self.side].get_native(value)
        return value

    def _deref_arg_shallow(self, value: Any) -> Any:
        # Arguments to container methods keep refs as refs (a list may
        # legitimately hold an ObjRef), except containers themselves.
        return value

    def _native_method(self, receiver: Any, name: str, args: list) -> Any:
        if name == "size":
            return len(receiver)
        method = getattr(receiver, name, None)
        if method is None:
            raise RuntimeError_(
                f"{type(receiver).__name__} has no method {name!r}"
            )
        return method(*args)

    # -- DB calls --------------------------------------------------------------------

    def _db_call(self, expr: CallExpr, frame: _Frame, op: OpAssign) -> Any:
        args = [self._eval_atom(a, frame) for a in expr.args]
        if not args or not isinstance(args[0], str):
            raise RuntimeError_("DB call needs a SQL string first argument")
        sql, params = args[0], tuple(args[1:])
        self.stats.db_calls += 1
        remote = self.side is Placement.APP
        if remote:
            request = DbRequestMessage(expr.name, sql, params)
            self.cluster.record_message(request.nbytes(), to_db=True)
            self.stats.db_round_trips += 1

        api = expr.name
        if api == "query":
            rs = self.connection.query(sql, *params)
            rows_touched = rs.rows_touched
            result: Any = rs
        elif api == "query_one":
            rs = self.connection.query(sql, *params)
            rows_touched = rs.rows_touched
            result = rs.one()
        elif api == "query_scalar":
            rs = self.connection.query(sql, *params)
            rows_touched = rs.rows_touched
            result = rs.scalar()
        elif api == "execute":
            count = self.connection.execute(sql, *params)
            rows_touched = max(count, 1)
            result = count
        else:  # pragma: no cover - parser whitelists
            raise RuntimeError_(f"unknown DB API {api!r}")
        self.cluster.record_cpu(
            "db", self._cost.db_operation(int(rows_touched))
        )
        if remote:
            response = DbResponseMessage(
                result.rows if isinstance(result, ResultSet) else result
            )
            self.cluster.record_message(response.nbytes(), to_db=False)
        if isinstance(result, ResultSet):
            return self.new_native(op.sid, result)
        return result
