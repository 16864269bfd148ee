"""Call graph and interprocedural summaries.

Wraps the points-to solver's on-the-fly call resolution into an
explicit :class:`CallGraph` and adds the per-function summaries the
partition-graph builder needs: which statements are each method's
entry-level (unconditionally executed) statements, which statements
are return statements, and argument/parameter linkage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.control_deps import control_dependencies
from repro.analysis.defuse import DefUseResult, def_use_chains
from repro.analysis.points_to import PointsToResult, analyze_points_to
from repro.lang.cfg import CFG, ENTRY, build_cfg
from repro.lang.ir import (
    Assign,
    CallExpr,
    CallKind,
    ExprStmt,
    FunctionIR,
    ProgramIR,
    Return,
    Stmt,
)


class AnalysisError(Exception):
    """The static analysis could not soundly handle the program."""


@dataclass
class FunctionAnalysis:
    """All per-function analysis artifacts in one bundle."""

    func: FunctionIR
    cfg: CFG
    defuse: DefUseResult
    control_deps: dict[int, set[int]]

    @property
    def name(self) -> str:
        return self.func.qualified_name

    def entry_level_sids(self) -> set[int]:
        """Statements control-dependent only on method entry."""
        return set(self.control_deps.get(ENTRY, set()))

    def return_stmts(self) -> list[Return]:
        return [s for s in self.func.walk() if isinstance(s, Return)]


@dataclass
class CallSite:
    """One resolved call site."""

    sid: int
    caller: str
    callees: frozenset[str]
    expr: CallExpr
    # Variable receiving the result, if the call is an assignment.
    result_var: Optional[str] = None


class CallGraph:
    """Resolved call graph plus per-function analyses."""

    def __init__(
        self,
        program: ProgramIR,
        points_to: PointsToResult,
    ) -> None:
        self.program = program
        self.points_to = points_to
        self.functions: dict[str, FunctionAnalysis] = {}
        self.call_sites: dict[int, CallSite] = {}
        self.stmt_func: dict[int, str] = {}
        self._build()

    def _build(self) -> None:
        for func in self.program.functions():
            cfg = build_cfg(func)
            analysis = FunctionAnalysis(
                func=func,
                cfg=cfg,
                defuse=def_use_chains(func, cfg),
                control_deps=control_dependencies(cfg),
            )
            self.functions[func.qualified_name] = analysis
            for stmt in func.walk():
                self.stmt_func[stmt.sid] = func.qualified_name
                call = _call_of(stmt)
                if call is None:
                    continue
                if call.kind is CallKind.METHOD:
                    callees = self.points_to.call_edges.get(stmt.sid)
                    if not callees:
                        raise AnalysisError(
                            f"unresolved call at sid={stmt.sid} in "
                            f"{func.qualified_name}"
                        )
                elif call.kind is CallKind.ALLOC_OBJECT:
                    init = f"{call.name}.__init__"
                    callees = (
                        frozenset({init})
                        if init in {f.qualified_name for f in self.program.functions()}
                        else frozenset()
                    )
                else:
                    continue
                result_var = None
                if isinstance(stmt, Assign):
                    from repro.lang.ir import VarLV

                    if isinstance(stmt.target, VarLV):
                        result_var = stmt.target.name
                self.call_sites[stmt.sid] = CallSite(
                    sid=stmt.sid,
                    caller=func.qualified_name,
                    callees=frozenset(callees),
                    expr=call,
                    result_var=result_var,
                )

    # -- queries -----------------------------------------------------------------

    def analysis(self, qualified_name: str) -> FunctionAnalysis:
        return self.functions[qualified_name]

    def callees_of(self, sid: int) -> frozenset[str]:
        site = self.call_sites.get(sid)
        return site.callees if site else frozenset()

    def callers_of(self, qualified_name: str) -> list[CallSite]:
        return [
            site
            for site in self.call_sites.values()
            if qualified_name in site.callees
        ]

    def function_of(self, sid: int) -> str:
        return self.stmt_func[sid]

    def check_no_recursion(self) -> None:
        """The execution-block compiler supports recursion, but the
        partition graph's call summaries assume a finite call DAG for
        entry-level control edges; reject recursive programs loudly."""
        colors: dict[str, int] = {}

        def visit(name: str, stack: tuple[str, ...]) -> None:
            colors[name] = 1
            analysis = self.functions.get(name)
            if analysis is not None:
                for stmt in analysis.func.walk():
                    for callee in sorted(self.callees_of(stmt.sid)):
                        if colors.get(callee) == 1:
                            raise AnalysisError(
                                "recursive call cycle: "
                                + " -> ".join(stack + (name, callee))
                            )
                        if colors.get(callee, 0) == 0:
                            visit(callee, stack + (name,))
            colors[name] = 2

        for name in self.functions:
            if colors.get(name, 0) == 0:
                visit(name, ())


def _call_of(stmt: Stmt) -> Optional[CallExpr]:
    if isinstance(stmt, ExprStmt):
        return stmt.expr
    if isinstance(stmt, Assign) and isinstance(stmt.value, CallExpr):
        return stmt.value
    return None


def build_call_graph(
    program: ProgramIR, points_to: Optional[PointsToResult] = None
) -> CallGraph:
    """Build the call graph (running points-to if not supplied)."""
    if points_to is None:
        points_to = analyze_points_to(program)
    graph = CallGraph(program, points_to)
    graph.check_no_recursion()
    return graph
