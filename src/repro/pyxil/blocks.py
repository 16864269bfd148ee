"""Execution blocks (Section 5.1).

Each method compiles to a set of straight-line blocks; each block runs
entirely on one server and ends with a terminator naming the next
block -- continuation-passing style, exactly like the paper's Fig. 7.
The runtime regains control after every block, transferring control to
the peer runtime whenever the next block's placement differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.partition_graph import Placement
from repro.lang.ir import Atom, Expr, LValue


@dataclass
class OpAssign:
    """Evaluate ``value`` and store into ``target`` (None = discard).

    ``value`` may be any normalized IR expression except METHOD and
    ALLOC_OBJECT calls (those become :class:`TCall` terminators).
    ``sid`` ties the op back to its source statement for CPU
    accounting and tracing; compiler-introduced ops reuse the sid of
    the construct they lower (e.g. loop bookkeeping uses the loop sid).
    """

    target: Optional[LValue]
    value: Expr
    sid: int


@dataclass
class TGoto:
    target: int


@dataclass
class TBranch:
    cond: Atom
    then_target: int
    else_target: int
    sid: int


@dataclass
class TCall:
    """Call a partitioned method: push a frame, jump to its entry block.

    ``receiver`` evaluates to the target object (or None when the call
    allocates: the runtime then creates the object first).  On return,
    the callee's TReturn pops the frame and stores the value into
    ``result`` in the caller frame, continuing at ``return_target``.
    """

    callee: str  # qualified method name
    receiver: Optional[Atom]
    args: tuple[Atom, ...]
    result: Optional[LValue]
    return_target: int
    sid: int
    alloc_class: Optional[str] = None  # set for constructor calls
    alloc_sid: Optional[int] = None


@dataclass
class TReturn:
    value: Optional[Atom]


@dataclass
class THalt:
    value: Optional[Atom] = None


Terminator = Union[TGoto, TBranch, TCall, TReturn, THalt]


@dataclass
class ExecutionBlock:
    """A straight-line run of ops on one server."""

    bid: int
    placement: Placement
    label: str = ""
    ops: list[OpAssign] = field(default_factory=list)
    terminator: Optional[Terminator] = None

    def describe(self) -> str:
        where = "APP" if self.placement is Placement.APP else "DB"
        return f"block {self.bid} [{where}] {self.label} ({len(self.ops)} ops)"


@dataclass
class CompiledProgram:
    """All blocks for one partitioning, plus placement metadata."""

    name: str
    blocks: dict[int, ExecutionBlock] = field(default_factory=dict)
    entries: dict[str, int] = field(default_factory=dict)  # method -> bid
    # Placement metadata consumed by the runtime heap.
    field_placements: dict[tuple[str, str], Placement] = field(
        default_factory=dict
    )
    array_placements: dict[int, Placement] = field(default_factory=dict)
    # Which heap locations ship with control transfers (sync plan).
    field_ships: dict[tuple[str, str], bool] = field(default_factory=dict)
    array_ships: dict[int, bool] = field(default_factory=dict)
    # Method signatures: qualified name -> parameter list.
    params: dict[str, list[str]] = field(default_factory=dict)
    classes: dict[str, list[str]] = field(default_factory=dict)
    # Generated-source executors keyed by cost-model signature (see
    # repro.runtime.codegen_blocks.ensure_program_source); generated text
    # bakes model-derived cost literals, so each signature gets its own
    # module.  Populated on first use.
    source_cache: Optional[dict] = field(
        default=None, init=False, repr=False, compare=False
    )
    # Lazily computed per-block statement multiplicities (see
    # sid_multiplicities); blocks are immutable after compilation.
    _sid_mult: Optional[dict] = field(
        default=None, init=False, repr=False, compare=False
    )

    def block(self, bid: int) -> ExecutionBlock:
        return self.blocks[bid]

    def field_placement(self, class_name: str, field_name: str) -> Placement:
        return self.field_placements.get(
            (class_name, field_name), Placement.APP
        )

    def array_placement(self, alloc_sid: int) -> Placement:
        return self.array_placements.get(alloc_sid, Placement.APP)

    def sid_multiplicities(self) -> dict[int, dict[int, int]]:
        """``{bid: {sid: ops charged to sid}}`` for live profiling.

        One block execution implies executing each of its ops (plus a
        branching/calling terminator) once, so per-block execution
        counts times these multiplicities reconstruct per-statement
        execution counts without any per-op instrumentation.
        """
        if self._sid_mult is None:
            mult: dict[int, dict[int, int]] = {}
            for bid, block in self.blocks.items():
                counts: dict[int, int] = {}
                for op in block.ops:
                    counts[op.sid] = counts.get(op.sid, 0) + 1
                term = block.terminator
                if isinstance(term, (TBranch, TCall)):
                    counts[term.sid] = counts.get(term.sid, 0) + 1
                if counts:
                    mult[bid] = counts
            self._sid_mult = mult
        return self._sid_mult

    def stats(self) -> dict[str, int]:
        app = sum(
            1 for b in self.blocks.values() if b.placement is Placement.APP
        )
        return {
            "blocks": len(self.blocks),
            "app_blocks": app,
            "db_blocks": len(self.blocks) - app,
            "methods": len(self.entries),
        }
