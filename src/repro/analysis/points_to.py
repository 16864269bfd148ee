"""Points-to analysis with on-the-fly call-graph construction.

An Andersen-style, flow-insensitive, allocation-site-based analysis
(the reproduction's stand-in for the paper's "2full+1H"
object-sensitive Accrue analysis -- see DESIGN.md).  Abstract objects
are allocation sites:

* ``LIST`` -- list literals, ``[x] * n``, list-returning natives;
* ``OBJECT`` -- instances of partitioned classes (plus one synthetic
  site per class for externally created receivers);
* ``NATIVE`` -- DB API results (result sets / rows) and other opaque
  native values.

The analysis simultaneously resolves method-call receivers, producing
the call graph used by every later phase.  Unresolvable calls raise
:class:`repro.analysis.interproc.AnalysisError` -- the front end
prefers loud failure over unsound dependence information.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Optional

from repro.lang.ir import (
    Assign,
    Atom,
    CallExpr,
    CallKind,
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
    ProgramIR,
    Return,
    Stmt,
    VarLV,
    VarRef,
    While,
)

# Natives returning fresh lists.
_LIST_RETURNING_NATIVES = {"range", "new_list", "sorted_list"}
# Native methods returning (possibly aliased) native objects.
_NATIVE_RESULT_METHODS = {"one", "first", "rows", "get", "pop", "next"}
RETURN_VAR = "$ret"


class AllocKind(enum.Enum):
    LIST = "list"
    OBJECT = "object"
    NATIVE = "native"


@dataclass(frozen=True)
class AllocSite:
    """One abstract object.  ``sid == 0`` marks synthetic per-class sites."""

    sid: int
    kind: AllocKind
    class_name: Optional[str] = None

    @property
    def synthetic(self) -> bool:
        return self.sid == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.class_name or self.kind.value
        return f"site({self.sid}:{tag})"


VarKey = tuple[str, str]  # (qualified function name, variable name)


@dataclass
class PointsToResult:
    """Fixpoint solution plus the resolved call graph."""

    var_pts: dict[VarKey, frozenset[AllocSite]] = dataclass_field(
        default_factory=dict
    )
    field_pts: dict[tuple[AllocSite, str], frozenset[AllocSite]] = (
        dataclass_field(default_factory=dict)
    )
    elem_pts: dict[AllocSite, frozenset[AllocSite]] = dataclass_field(
        default_factory=dict
    )
    # call sid -> qualified callee names
    call_edges: dict[int, frozenset[str]] = dataclass_field(default_factory=dict)
    # alloc sid -> site (statement-level allocation sites)
    alloc_sites: dict[int, AllocSite] = dataclass_field(default_factory=dict)

    def pts(self, func: str, var: str) -> frozenset[AllocSite]:
        return self.var_pts.get((func, var), frozenset())

    def classes_of(self, func: str, var: str) -> frozenset[str]:
        return frozenset(
            site.class_name
            for site in self.pts(func, var)
            if site.kind is AllocKind.OBJECT and site.class_name
        )


class _Solver:
    def __init__(self, program: ProgramIR) -> None:
        self.program = program
        self.var_pts: dict[VarKey, set[AllocSite]] = {}
        self.field_pts: dict[tuple[AllocSite, str], set[AllocSite]] = {}
        self.elem_pts: dict[AllocSite, set[AllocSite]] = {}
        self.call_edges: dict[int, set[str]] = {}
        self.alloc_sites: dict[int, AllocSite] = {}
        self.changed = False
        # Pre-index functions and method owners.
        self.functions: dict[str, FunctionIR] = {
            f.qualified_name: f for f in program.functions()
        }
        self.method_owners: dict[str, list[str]] = {}
        for cls in program.classes.values():
            for method in cls.methods:
                self.method_owners.setdefault(method, []).append(cls.name)
        self.synthetic: dict[str, AllocSite] = {
            name: AllocSite(0, AllocKind.OBJECT, name)
            for name in program.classes
        }

    # -- set helpers ----------------------------------------------------------

    def _var(self, func: str, var: str) -> set[AllocSite]:
        return self.var_pts.setdefault((func, var), set())

    def _field(self, site: AllocSite, name: str) -> set[AllocSite]:
        return self.field_pts.setdefault((site, name), set())

    def _elem(self, site: AllocSite) -> set[AllocSite]:
        return self.elem_pts.setdefault(site, set())

    def _include(self, dst: set[AllocSite], extra: Iterable[AllocSite]) -> None:
        before = len(dst)
        dst.update(extra)
        if len(dst) != before:
            self.changed = True

    def _atom_pts(self, func: str, atom: Atom) -> set[AllocSite]:
        if isinstance(atom, VarRef):
            return set(self._var(func, atom.name))
        return set()

    def _site_for(self, stmt: Stmt, kind: AllocKind, cls: Optional[str] = None) -> AllocSite:
        site = self.alloc_sites.get(stmt.sid)
        if site is None:
            site = AllocSite(stmt.sid, kind, cls)
            self.alloc_sites[stmt.sid] = site
            self.changed = True
        return site

    # -- main loop ----------------------------------------------------------------

    def solve(self) -> PointsToResult:
        # Seed: every method's self points to its class's synthetic site.
        for func in self.functions.values():
            if func.class_name:
                self._include(
                    self._var(func.qualified_name, "self"),
                    {self.synthetic[func.class_name]},
                )
        iterations = 0
        while True:
            self.changed = False
            for func in self.functions.values():
                for stmt in func.walk():
                    self._process(func, stmt)
            iterations += 1
            if not self.changed:
                break
            if iterations > 1000:  # pragma: no cover - safety net
                raise RuntimeError("points-to did not converge")
        return PointsToResult(
            var_pts={k: frozenset(v) for k, v in self.var_pts.items()},
            field_pts={k: frozenset(v) for k, v in self.field_pts.items()},
            elem_pts={k: frozenset(v) for k, v in self.elem_pts.items()},
            call_edges={k: frozenset(v) for k, v in self.call_edges.items()},
            alloc_sites=dict(self.alloc_sites),
        )

    # -- statement processing ---------------------------------------------------

    def _process(self, func: FunctionIR, stmt: Stmt) -> None:
        fname = func.qualified_name
        if isinstance(stmt, Assign):
            value_sites = self._eval(func, stmt, stmt.value)
            target = stmt.target
            if isinstance(target, VarLV):
                self._include(self._var(fname, target.name), value_sites)
            elif isinstance(target, FieldLV):
                for obj_site in self._atom_pts(fname, target.obj):
                    self._include(
                        self._field(obj_site, target.field), value_sites
                    )
            elif isinstance(target, IndexLV):
                for arr_site in self._atom_pts(fname, target.obj):
                    self._include(self._elem(arr_site), value_sites)
            return
        if isinstance(stmt, ExprStmt):
            self._eval(func, stmt, stmt.expr)
            return
        if isinstance(stmt, ForEach):
            sites: set[AllocSite] = set()
            for container in self._atom_pts(fname, stmt.iterable):
                sites.update(self._elem(container))
                if container.kind is AllocKind.NATIVE:
                    sites.add(container)
            self._include(self._var(fname, stmt.var), sites)
            return
        if isinstance(stmt, Return):
            if stmt.value is not None:
                self._include(
                    self._var(fname, RETURN_VAR),
                    self._atom_pts(fname, stmt.value),
                )
            return
        # If/While/Break/Continue carry no pointer flow of their own.

    def _eval(self, func: FunctionIR, stmt: Stmt, expr: Expr) -> set[AllocSite]:
        fname = func.qualified_name
        if isinstance(expr, VarRef):
            return self._atom_pts(fname, expr)
        if isinstance(expr, Const):
            return set()
        if isinstance(expr, FieldGet):
            out: set[AllocSite] = set()
            for obj_site in self._atom_pts(fname, expr.obj):
                out.update(self._field(obj_site, expr.field))
            return out
        if isinstance(expr, IndexGet):
            out = set()
            for container in self._atom_pts(fname, expr.obj):
                out.update(self._elem(container))
                if container.kind is AllocKind.NATIVE:
                    out.add(container)
            return out
        if isinstance(expr, ListLiteral):
            site = self._site_for(stmt, AllocKind.LIST)
            for element in expr.elements:
                self._include(self._elem(site), self._atom_pts(fname, element))
            return {site}
        if isinstance(expr, CallExpr):
            return self._eval_call(func, stmt, expr)
        # BinExpr / UnaryExpr produce primitives (list concatenation is
        # not in the subset).
        return set()

    def _eval_call(
        self, func: FunctionIR, stmt: Stmt, expr: CallExpr
    ) -> set[AllocSite]:
        fname = func.qualified_name
        if expr.kind is CallKind.ALLOC_LIST:
            site = self._site_for(stmt, AllocKind.LIST)
            if expr.args:
                self._include(
                    self._elem(site), self._atom_pts(fname, expr.args[0])
                )
            return {site}
        if expr.kind is CallKind.ALLOC_OBJECT:
            site = self._site_for(stmt, AllocKind.OBJECT, expr.name)
            init = f"{expr.name}.__init__"
            if init in self.functions:
                self._bind_call(stmt, fname, init, expr.args, receiver={site})
            return {site}
        if expr.kind is CallKind.DB:
            site = self._site_for(stmt, AllocKind.NATIVE)
            return {site}
        if expr.kind is CallKind.NATIVE:
            if expr.name in _LIST_RETURNING_NATIVES:
                site = self._site_for(stmt, AllocKind.LIST)
                if expr.name == "sorted_list" and expr.args:
                    for container in self._atom_pts(fname, expr.args[0]):
                        self._include(self._elem(site), self._elem(container))
                return {site}
            return set()
        if expr.kind is CallKind.NATIVE_METHOD:
            assert expr.target is not None
            receiver_sites = self._atom_pts(fname, expr.target)
            if expr.name in {"append", "extend"} and expr.args:
                arg_sites = self._atom_pts(fname, expr.args[0])
                for container in receiver_sites:
                    self._include(self._elem(container), arg_sites)
                return set()
            if expr.name in _NATIVE_RESULT_METHODS:
                out: set[AllocSite] = set()
                for container in receiver_sites:
                    out.update(self._elem(container))
                    if container.kind is AllocKind.NATIVE:
                        out.add(container)
                return out
            return set()
        if expr.kind is CallKind.METHOD:
            return self._eval_method_call(func, stmt, expr)
        raise AssertionError(f"unhandled call kind {expr.kind}")

    def _eval_method_call(
        self, func: FunctionIR, stmt: Stmt, expr: CallExpr
    ) -> set[AllocSite]:
        from repro.analysis.interproc import AnalysisError

        fname = func.qualified_name
        assert expr.target is not None
        receiver_sites = self._atom_pts(fname, expr.target)
        classes = {
            s.class_name
            for s in receiver_sites
            if s.kind is AllocKind.OBJECT and s.class_name
        }
        if not classes:
            if isinstance(expr.target, VarRef) and expr.target.name == "self":
                classes = {func.class_name}
            else:
                owners = self.method_owners.get(expr.name, [])
                if len(owners) == 1:
                    classes = {owners[0]}
                else:
                    raise AnalysisError(
                        f"cannot resolve receiver class of call to "
                        f"{expr.name!r} at sid={stmt.sid} in {fname}"
                    )
        out: set[AllocSite] = set()
        for cls in sorted(c for c in classes if c):
            callee = f"{cls}.{expr.name}"
            if callee not in self.functions:
                # Receiver may conservatively include classes lacking
                # the method; skip those.
                continue
            self._bind_call(
                stmt, fname, callee, expr.args, receiver=receiver_sites
            )
            out.update(self._var(callee, RETURN_VAR))
        edges = self.call_edges.setdefault(stmt.sid, set())
        before = len(edges)
        for cls in classes:
            callee = f"{cls}.{expr.name}"
            if callee in self.functions:
                edges.add(callee)
        if len(edges) != before:
            self.changed = True
        if not edges:
            raise AnalysisError(
                f"no class providing method {expr.name!r} for call at "
                f"sid={stmt.sid} in {fname}"
            )
        return out

    def _bind_call(
        self,
        stmt: Stmt,
        caller: str,
        callee: str,
        args: tuple[Atom, ...],
        receiver: set[AllocSite],
    ) -> None:
        callee_func = self.functions[callee]
        self._include(self._var(callee, "self"), receiver)
        for param, arg in zip(callee_func.params, args):
            self._include(self._var(callee, param), self._atom_pts(caller, arg))
        edges = self.call_edges.setdefault(stmt.sid, set())
        if callee not in edges:
            edges.add(callee)
            self.changed = True


def analyze_points_to(program: ProgramIR) -> PointsToResult:
    """Run the points-to analysis to fixpoint."""
    return _Solver(program).solve()
