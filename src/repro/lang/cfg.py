"""Per-method control-flow graphs.

Nodes are statement ids (sids) plus synthetic ``ENTRY`` and ``EXIT``
nodes.  Branch statements (``If``, ``While``, ``ForEach``) are single
nodes whose outgoing edges are their branch outcomes -- exactly the
granularity at which the paper computes control dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.lang.ir import (
    Assign,
    Block,
    Break,
    Continue,
    ExprStmt,
    ForEach,
    FunctionIR,
    If,
    Return,
    Stmt,
    While,
)

ENTRY = -1
EXIT = -2


@dataclass
class CFGNode:
    """One CFG node: a statement id with its successors/predecessors."""

    sid: int
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)


class CFG:
    """Control-flow graph over statement ids."""

    def __init__(self, func_name: str) -> None:
        self.func_name = func_name
        self.nodes: dict[int, CFGNode] = {
            ENTRY: CFGNode(ENTRY),
            EXIT: CFGNode(EXIT),
        }

    def ensure(self, sid: int) -> CFGNode:
        node = self.nodes.get(sid)
        if node is None:
            node = self.nodes[sid] = CFGNode(sid)
        return node

    def add_edge(self, src: int, dst: int) -> None:
        src_node = self.ensure(src)
        dst_node = self.ensure(dst)
        if dst not in src_node.succs:
            src_node.succs.append(dst)
        if src not in dst_node.preds:
            dst_node.preds.append(src)

    def succs(self, sid: int) -> list[int]:
        return list(self.nodes[sid].succs)

    def preds(self, sid: int) -> list[int]:
        return list(self.nodes[sid].preds)

    def sids(self) -> list[int]:
        """All real statement ids (excludes ENTRY/EXIT)."""
        return [sid for sid in self.nodes if sid >= 0]

    def __contains__(self, sid: int) -> bool:
        return sid in self.nodes


@dataclass
class _LoopContext:
    """Targets for break/continue inside the innermost loop."""

    continue_target: int
    break_joins: list[int] = field(default_factory=list)


def build_cfg(func: FunctionIR) -> CFG:
    """Build the CFG for one function."""
    cfg = CFG(func.qualified_name)

    def wire_block(
        block: Block,
        entry_preds: list[int],
        loop: Optional[_LoopContext],
    ) -> list[int]:
        """Wire ``block`` after ``entry_preds``; returns dangling exits.

        ``entry_preds`` are nodes whose control falls into the block;
        the return value is the set of nodes whose control falls out.
        An empty return means the block never falls through (all paths
        return/break/continue).
        """
        current = list(entry_preds)
        for stmt in block.stmts:
            if not current:
                # Unreachable code after return/break; still create the
                # node so analyses see it, but leave it disconnected.
                cfg.ensure(stmt.sid)
                continue
            for pred in current:
                cfg.add_edge(pred, stmt.sid)
            current = _wire_stmt(stmt, loop)
        return current

    def _wire_stmt(stmt: Stmt, loop: Optional[_LoopContext]) -> list[int]:
        if isinstance(stmt, If):
            then_exits = wire_block(stmt.then, [stmt.sid], loop)
            else_exits = wire_block(stmt.orelse, [stmt.sid], loop)
            if not stmt.orelse.stmts:
                # Fall-through edge for a missing else branch is the If
                # node itself flowing onward.
                else_exits = [stmt.sid]
            if not stmt.then.stmts:
                then_exits = [stmt.sid]
            return _dedup(then_exits + else_exits)
        if isinstance(stmt, While):
            # Header statements execute before each test.
            header_first = (
                stmt.header.stmts[0].sid if stmt.header.stmts else stmt.sid
            )
            # Incoming edge goes to the header (already wired by caller
            # to stmt.sid); re-route: the caller wired pred->stmt.sid,
            # which is correct when the header is empty.  With a header,
            # we instead treat the While node as the test reached from
            # the header's end.
            exits: list[int] = [stmt.sid]  # false edge
            inner = _LoopContext(continue_target=header_first)
            if stmt.header.stmts:
                # Redirect: preds currently point at stmt.sid; move them
                # to the header head, then header tail -> While node.
                _redirect_preds(cfg, stmt.sid, header_first)
                tail = _chain(stmt.header, inner)
                for t in tail:
                    cfg.add_edge(t, stmt.sid)
            body_exits = wire_block(stmt.body, [stmt.sid], inner)
            for exit_sid in body_exits:
                cfg.add_edge(exit_sid, header_first)
            exits.extend(inner.break_joins)
            return _dedup(exits)
        if isinstance(stmt, ForEach):
            inner = _LoopContext(continue_target=stmt.sid)
            body_exits = wire_block(stmt.body, [stmt.sid], inner)
            for exit_sid in body_exits:
                cfg.add_edge(exit_sid, stmt.sid)
            return _dedup([stmt.sid] + inner.break_joins)
        if isinstance(stmt, Return):
            cfg.add_edge(stmt.sid, EXIT)
            return []
        if isinstance(stmt, Break):
            if loop is None:
                from repro.lang.errors import IRValidationError

                raise IRValidationError(f"break outside loop (sid={stmt.sid})")
            loop.break_joins.append(stmt.sid)
            return []
        if isinstance(stmt, Continue):
            if loop is None:
                from repro.lang.errors import IRValidationError

                raise IRValidationError(
                    f"continue outside loop (sid={stmt.sid})"
                )
            cfg.add_edge(stmt.sid, loop.continue_target)
            return []
        # Simple statement: falls through.
        return [stmt.sid]

    def _chain(block: Block, loop: Optional[_LoopContext]) -> list[int]:
        """Wire a straight-line block internally; returns its tail nodes."""
        current: list[int] = []
        first = True
        for stmt in block.stmts:
            if first:
                current = [stmt.sid]
                first = False
                continue
            for pred in current:
                cfg.add_edge(pred, stmt.sid)
            current = _wire_stmt(stmt, loop)
        return current if block.stmts else []

    exits = wire_block(func.body, [ENTRY], None)
    for sid in exits:
        cfg.add_edge(sid, EXIT)
    if not func.body.stmts:
        cfg.add_edge(ENTRY, EXIT)
    return cfg


def _redirect_preds(cfg: CFG, old_dst: int, new_dst: int) -> None:
    """Move all existing edges ``p -> old_dst`` to ``p -> new_dst``."""
    node = cfg.ensure(old_dst)
    preds = list(node.preds)
    for pred in preds:
        pred_node = cfg.nodes[pred]
        if old_dst in pred_node.succs:
            pred_node.succs.remove(old_dst)
        node.preds.remove(pred)
        cfg.add_edge(pred, new_dst)


def _dedup(items: list[int]) -> list[int]:
    seen: set[int] = set()
    out: list[int] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out
