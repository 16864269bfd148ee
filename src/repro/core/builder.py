"""Partition-graph construction (Section 4.2).

Combines the static analyses (control dependence, def/use, points-to,
call graph) with dynamic profile data into the weighted partition
graph.  Edge weights follow the paper exactly:

=============  =======================================
Control edge   ``LAT * cnt(e)``
Data edge      ``size(src) / BW * cnt(e)``
Update edge    ``size(src) / BW * cnt(dst)``
Statement      node weight ``cnt(s)``
Field node     weight 0
=============  =======================================

with ``cnt(e) = min(cnt(src), cnt(dst))``.

Construction is split in two so the partitioning service can cache the
expensive half and redo the cheap half:

* :func:`build_graph_structure` runs the static analyses only --
  nodes, edges, pins, co-location groups and per-edge *weight recipes*
  (:class:`WeightSpec`), no profile required;
* :func:`reweight_graph` evaluates the recorded recipes against a
  :class:`~repro.profiler.profile_data.ProfileData`, assigning numeric
  node and edge weights in place.

:func:`build_partition_graph` composes the two and is the batch
(one-shot) entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from repro.analysis.access_map import AccessMap
from repro.analysis.defuse import StatementAccess
from repro.analysis.interproc import CallGraph
from repro.lang.cfg import ENTRY
from repro.lang.ir import (
    Block,
    CallKind,
    FunctionIR,
    ProgramIR,
    Stmt,
)
from repro.core.partition_graph import (
    DBCODE_NODE_ID,
    Edge,
    EdgeKind,
    Node,
    NodeKind,
    PartitionGraph,
    Placement,
    array_node_id,
    entry_node_id,
    field_node_id,
    stmt_node_id,
)
from repro.profiler.profile_data import ProfileData


@dataclass
class _AggregateAccess:
    """Transitive read/write footprint used for ordering decisions."""

    var_reads: set[str] = dataclass_field(default_factory=set)
    var_writes: set[str] = dataclass_field(default_factory=set)
    field_reads: set[str] = dataclass_field(default_factory=set)
    field_writes: set[str] = dataclass_field(default_factory=set)
    array_reads: set[int] = dataclass_field(default_factory=set)
    array_writes: set[int] = dataclass_field(default_factory=set)
    effectful: bool = False

    def merge(self, other: "_AggregateAccess") -> None:
        self.var_reads |= other.var_reads
        self.var_writes |= other.var_writes
        self.field_reads |= other.field_reads
        self.field_writes |= other.field_writes
        self.array_reads |= other.array_reads
        self.array_writes |= other.array_writes
        self.effectful = self.effectful or other.effectful

    def conflicts(self, other: "_AggregateAccess") -> bool:
        if self.var_writes & other.var_writes:
            return True
        if self.var_reads & other.var_writes:
            return True
        if self.var_writes & other.var_reads:
            return True
        if (self.field_reads | self.field_writes) & other.field_writes:
            return True
        if self.field_writes & (other.field_reads | other.field_writes):
            return True
        if (self.array_reads | self.array_writes) & other.array_writes:
            return True
        if self.array_writes & (other.array_reads | other.array_writes):
            return True
        return self.effectful and other.effectful


@dataclass
class BuilderConfig:
    """Network parameters for edge weights (Section 4.2).

    ``latency`` is the one-way control-transfer latency in seconds and
    ``bandwidth`` is in bytes/second, matching the simulator defaults.
    """

    latency: float = 0.001
    bandwidth: float = 125_000_000.0
    # Statements never observed during profiling still get a small
    # weight so the solver keeps rarely-run code near its dependencies.
    unprofiled_count: int = 1


@dataclass(frozen=True)
class WeightSpec:
    """A symbolic edge-weight recipe, evaluated against a profile.

    ``kind`` is ``"lat"`` (control-transfer cost: ``factor * LAT *
    cnt``) or ``"size"`` (data-shipping cost: ``size / BW * cnt``)
    where ``cnt`` is the minimum profiled count over ``cnt_sids`` and
    ``size`` is looked up via ``size_kind`` / ``size_key``:

    =============  ==========================================
    ``assign``     ``profile.assign_size(size_key[0])``
    ``arg``        ``profile.arg_size(size_key[0])``
    ``result``     ``profile.result_size(size_key[0])``
    ``field``      ``profile.field_size(*size_key)``
    =============  ==========================================
    """

    kind: str
    cnt_sids: tuple
    factor: float = 1.0
    size_kind: str = ""
    size_key: tuple = ()

    def evaluate(self, profile: ProfileData, config: BuilderConfig) -> float:
        cnt = min(
            float(profile.count(sid) or config.unprofiled_count)
            for sid in self.cnt_sids
        )
        if self.kind == "lat":
            return self.factor * config.latency * cnt
        if self.size_kind == "assign":
            size = profile.assign_size(self.size_key[0])
        elif self.size_kind == "arg":
            size = profile.arg_size(self.size_key[0])
        elif self.size_kind == "result":
            size = profile.result_size(self.size_key[0])
        else:  # "field"
            size = profile.field_size(*self.size_key)
        return size / config.bandwidth * cnt


class GraphBuilder:
    """Builds the *structure* of a :class:`PartitionGraph` for one
    analyzed program: nodes, edges, pins, co-location groups, weight
    recipes.  Numeric weights come from :func:`reweight_graph`.

    Which field or allocation site a statement touches comes from the
    program's :class:`~repro.analysis.access_map.AccessMap` -- the
    derivation the sync plan ships from -- and from nowhere else."""

    def __init__(
        self,
        program: ProgramIR,
        call_graph: CallGraph,
        access_map: AccessMap,
    ) -> None:
        self.program = program
        self.cg = call_graph
        self.access = access_map
        self.graph = PartitionGraph()

    # -- top level ------------------------------------------------------------------

    def build(self) -> PartitionGraph:
        self._add_nodes()
        self._add_control_edges()
        self._add_seq_edges()
        self._add_db_edges()
        self._add_local_data_edges()
        self._add_interproc_data_edges()
        self._add_field_edges()
        self._add_array_edges()
        self._add_order_edges()
        return self.graph

    # -- nodes ---------------------------------------------------------------------

    def _add_nodes(self) -> None:
        graph = self.graph
        graph.add_node(
            Node(DBCODE_NODE_ID, NodeKind.DBCODE, pin=Placement.DB,
                 label="database code")
        )
        jdbc_sids: list[int] = []
        for func in self.program.functions():
            analysis = self.cg.analysis(func.qualified_name)
            for stmt in func.walk():
                node = Node(
                    stmt_node_id(stmt.sid),
                    NodeKind.STMT,
                    sid=stmt.sid,
                    label=f"{func.qualified_name}:{stmt.sid}",
                )
                graph.add_node(node)
                acc = analysis.defuse.accesses[stmt.sid]
                if acc.has_db_call:
                    jdbc_sids.append(stmt.sid)
                if acc.is_print:
                    graph.pin(node.id, Placement.APP)
            if func.is_entry:
                entry = graph.add_node(
                    Node(
                        entry_node_id(func.qualified_name),
                        NodeKind.ENTRY,
                        pin=Placement.APP,
                        label=f"entry {func.qualified_name}",
                    )
                )
        # All JDBC calls share the connection's native state: one variable.
        if jdbc_sids:
            graph.colocate(stmt_node_id(sid) for sid in jdbc_sids)
        # Field nodes.
        for cls in self.program.classes.values():
            for field_name in cls.fields:
                graph.add_node(
                    Node(
                        field_node_id(cls.name, field_name),
                        NodeKind.FIELD,
                        weight=0.0,
                        label=f"field {cls.name}.{field_name}",
                    )
                )
        # Array/native allocation-site nodes, placed with their site.
        for sid, kind in self.access.array_sites.items():
            node_id = array_node_id(sid)
            graph.add_node(
                Node(node_id, NodeKind.ARRAY, weight=0.0, sid=sid,
                     label=f"alloc@{sid}:{kind.value}")
            )
            graph.colocate([node_id, stmt_node_id(sid)])

    # -- control edges ------------------------------------------------------------

    def _add_control_edges(self) -> None:
        for func in self.program.functions():
            analysis = self.cg.analysis(func.qualified_name)
            entry_sids = sorted(analysis.control_deps.get(ENTRY, set()))
            for src_sid, dependents in analysis.control_deps.items():
                if src_sid == ENTRY:
                    continue
                for dst_sid in dependents:
                    if dst_sid == src_sid:
                        continue
                    self.graph.add_edge(
                        stmt_node_id(src_sid),
                        stmt_node_id(dst_sid),
                        EdgeKind.CONTROL,
                        label="ctrl",
                        spec=WeightSpec("lat", (src_sid, dst_sid)),
                    )
            # Entry-level statements: control-dependent on every caller.
            callers = self.cg.callers_of(func.qualified_name)
            for dst_sid in entry_sids:
                for site in callers:
                    self.graph.add_edge(
                        stmt_node_id(site.sid),
                        stmt_node_id(dst_sid),
                        EdgeKind.CONTROL,
                        label="call",
                        spec=WeightSpec("lat", (site.sid, dst_sid)),
                    )
            # Entry-point methods are invoked from unpartitioned code on
            # the application server.  Entering (and leaving) the method
            # costs one control transfer regardless of how many
            # statements it contains, so charge a single edge to the
            # first statement (2x latency: the transfer in and the
            # return transfer out) rather than one edge per entry-level
            # statement -- the paper's cost model notes that charging
            # every such edge "leads to overestimation".
            if func.is_entry and func.body.stmts:
                first_sid = func.body.stmts[0].sid
                self.graph.add_edge(
                    entry_node_id(func.qualified_name),
                    stmt_node_id(first_sid),
                    EdgeKind.CONTROL,
                    label="entry",
                    spec=WeightSpec("lat", (first_sid,), factor=2.0),
                )

    def _add_db_edges(self) -> None:
        """Control edges from JDBC-call statements to the database code.

        A JDBC call issued from the application server costs a full
        request/response round trip, so the edge carries 2x latency.
        """
        for func in self.program.functions():
            analysis = self.cg.analysis(func.qualified_name)
            for stmt in func.walk():
                acc = analysis.defuse.accesses[stmt.sid]
                if acc.has_db_call:
                    self.graph.add_edge(
                        stmt_node_id(stmt.sid),
                        DBCODE_NODE_ID,
                        EdgeKind.CONTROL,
                        label="jdbc",
                        spec=WeightSpec("lat", (stmt.sid,), factor=2.0),
                    )

    def _add_seq_edges(self) -> None:
        """Sequencing edges between consecutive statements of a block.

        The runtime transfers control whenever consecutive statements
        have different placements, even when no control or data
        dependency links them (e.g. two independent loops in a row).
        One edge per adjacent pair, weighted like a control edge,
        models exactly that cost.
        """
        for func in self.program.functions():
            pending: list[Block] = [func.body]
            while pending:
                block = pending.pop()
                stmts = block.stmts
                for first, second in zip(stmts, stmts[1:]):
                    self.graph.add_edge(
                        stmt_node_id(first.sid),
                        stmt_node_id(second.sid),
                        EdgeKind.CONTROL,
                        label="seq",
                        spec=WeightSpec("lat", (first.sid, second.sid)),
                    )
                for stmt in stmts:
                    pending.extend(stmt.blocks())

    # -- data edges -----------------------------------------------------------------

    def _add_local_data_edges(self) -> None:
        for func in self.program.functions():
            analysis = self.cg.analysis(func.qualified_name)
            for def_sid, use_sid, var in analysis.defuse.edges():
                if def_sid == use_sid:
                    continue
                self.graph.add_edge(
                    stmt_node_id(def_sid),
                    stmt_node_id(use_sid),
                    EdgeKind.DATA,
                    label=var,
                    spec=WeightSpec(
                        "size", (def_sid, use_sid),
                        size_kind="assign", size_key=(def_sid,),
                    ),
                )

    def _add_interproc_data_edges(self) -> None:
        """Call-argument and return-value data edges."""
        for site in self.cg.call_sites.values():
            # Sorted: a callee set's own order follows the hash seed,
            # and the graph's edge order must not.
            for callee_name in sorted(site.callees):
                callee = self.cg.functions.get(callee_name)
                if callee is None:
                    continue
                for param in callee.func.params:
                    for use_sid in callee.defuse.param_uses(param):
                        self.graph.add_edge(
                            stmt_node_id(site.sid),
                            stmt_node_id(use_sid),
                            EdgeKind.DATA,
                            label=f"arg:{param}",
                            spec=WeightSpec(
                                "size", (site.sid, use_sid),
                                size_kind="arg", size_key=(site.sid,),
                            ),
                        )
                for ret in callee.return_stmts():
                    self.graph.add_edge(
                        stmt_node_id(ret.sid),
                        stmt_node_id(site.sid),
                        EdgeKind.DATA,
                        label="ret",
                        spec=WeightSpec(
                            "size", (ret.sid, site.sid),
                            size_kind="result", size_key=(site.sid,),
                        ),
                    )

    def _add_field_edges(self) -> None:
        for sid, access in self.access.statements.items():
            for kind, verb, fields in (
                (EdgeKind.DATA, "read", access.field_reads),
                (EdgeKind.UPDATE, "write", access.field_writes),
            ):
                for cls, field_name in fields:
                    self.graph.add_edge(
                        field_node_id(cls, field_name),
                        stmt_node_id(sid),
                        kind,
                        label=f"{verb} {field_name}",
                        spec=WeightSpec(
                            "size", (sid,),
                            size_kind="field", size_key=(cls, field_name),
                        ),
                    )

    def _add_array_edges(self) -> None:
        for sid, access in self.access.statements.items():
            for kind, label, sites in (
                (EdgeKind.DATA, "elem-read", access.index_reads),
                (EdgeKind.UPDATE, "elem-write", access.index_writes),
            ):
                for alloc_sid in sites:
                    if alloc_sid == sid:
                        continue
                    self.graph.add_edge(
                        array_node_id(alloc_sid),
                        stmt_node_id(sid),
                        kind,
                        label=label,
                        spec=WeightSpec(
                            "size", (sid,),
                            size_kind="assign", size_key=(alloc_sid,),
                        ),
                    )

    # -- ordering edges (Section 4.4) ---------------------------------------------
    #
    # Reordering permutes the *direct children* of a block, so a
    # compound statement (loop, if) or a call must be ordered using the
    # accesses of everything it transitively executes -- its nested
    # statements and its callees' statements.  The aggregates below
    # summarize exactly that ("side-effects and data dependencies due
    # to calls are summarized at the call site", Section 4.4).

    def _is_effectful(self, acc: StatementAccess) -> bool:
        for call in acc.calls:
            if call.kind in (CallKind.DB, CallKind.METHOD, CallKind.ALLOC_OBJECT):
                return True
            if call.kind is CallKind.NATIVE and call.name == "print":
                return True
        return False

    def _function_summary(self, name: str) -> "_AggregateAccess":
        cached = self._summaries.get(name)
        if cached is not None:
            return cached
        # Pre-seed to guard against (rejected) recursion.
        summary = _AggregateAccess()
        self._summaries[name] = summary
        analysis = self.cg.functions.get(name)
        if analysis is not None:
            for stmt in analysis.func.walk():
                summary.merge(self._stmt_direct(analysis.func, stmt))
        return summary

    def _stmt_direct(self, func: FunctionIR, stmt: Stmt) -> "_AggregateAccess":
        """Aggregate for one statement alone plus its callees."""
        acc = self.cg.analysis(func.qualified_name).defuse.accesses[stmt.sid]
        heap = self.access.statements[stmt.sid]
        # Any read of a variable that may alias an array observes the
        # array's contents (it may escape via return or call), so it
        # must be ordered after element writes.
        aliased_reads = {
            s
            for var in acc.var_reads
            for s in self.access.sites_of(func.qualified_name, var)
        }
        agg = _AggregateAccess(
            var_reads=set(acc.var_reads),
            var_writes=set(acc.var_writes),
            field_reads={f for _, f in acc.field_reads},
            field_writes={f for _, f in acc.field_writes},
            array_reads=aliased_reads | set(heap.index_reads),
            array_writes=set(heap.index_writes),
            effectful=self._is_effectful(acc),
        )
        for callee in sorted(self.cg.callees_of(stmt.sid)):
            agg.merge(self._function_summary(callee))
        return agg

    def _aggregate(self, func: FunctionIR, stmt: Stmt) -> "_AggregateAccess":
        """Aggregate for a statement including its nested statements."""
        agg = self._stmt_direct(func, stmt)
        for block in stmt.blocks():
            for inner in block.walk():
                agg.merge(self._stmt_direct(func, inner))
        return agg

    def _add_order_edges(self) -> None:
        """Output/anti dependence edges within each straight-line block."""
        self._summaries: dict[str, _AggregateAccess] = {}
        for func in self.program.functions():
            blocks: list[Block] = [func.body]
            seen: list[Block] = []
            while blocks:
                block = blocks.pop()
                seen.append(block)
                for stmt in block.stmts:
                    blocks.extend(stmt.blocks())
            for block in seen:
                stmts = block.stmts
                aggregates = [self._aggregate(func, s) for s in stmts]
                barriers = [_is_barrier(s) for s in stmts]
                for i, first in enumerate(stmts):
                    for j in range(i + 1, len(stmts)):
                        if (
                            barriers[i]
                            or barriers[j]
                            or aggregates[i].conflicts(aggregates[j])
                        ):
                            self.graph.add_edge(
                                stmt_node_id(first.sid),
                                stmt_node_id(stmts[j].sid),
                                EdgeKind.ORDER,
                                label="order",
                            )


def _is_barrier(stmt: Stmt) -> bool:
    """True when ``stmt`` may exit its enclosing block early.

    Such statements cannot move relative to *anything* in the block:
    code hoisted above them may wrongly execute on the early-exit path,
    and effectful code sunk below them may wrongly be skipped.

    * ``return`` (or any compound statement containing one) exits
      through every nesting level;
    * ``break`` / ``continue`` exit their block, as does an ``if``
      containing them -- but a loop *consumes* its own breaks and
      continues, so they do not propagate out of While/ForEach.
    """
    from repro.lang.ir import Break as _Break
    from repro.lang.ir import Continue as _Continue
    from repro.lang.ir import ForEach as _ForEach
    from repro.lang.ir import If as _If
    from repro.lang.ir import Return as _Return
    from repro.lang.ir import While as _While

    if isinstance(stmt, (_Return, _Break, _Continue)):
        return True
    if isinstance(stmt, _If):
        return any(
            _is_barrier(inner)
            for block in stmt.blocks()
            for inner in block.stmts
        )
    if isinstance(stmt, (_While, _ForEach)):
        # Breaks/continues are consumed; only returns escape.
        return any(
            isinstance(inner, _Return)
            for block in stmt.blocks()
            for inner in block.walk()
        )
    return False


def build_graph_structure(
    program: ProgramIR,
    call_graph: CallGraph,
    access_map: AccessMap,
) -> PartitionGraph:
    """Build the profile-independent partition-graph structure.

    All node and edge weights are zero; every weighted edge carries
    the :class:`WeightSpec` recipes needed to assign them later.  The
    result is cacheable across profiles: call :func:`reweight_graph`
    (cheap) whenever new profile data arrives.
    """
    return GraphBuilder(program, call_graph, access_map).build()


def reweight_graph(
    graph: PartitionGraph,
    profile: ProfileData,
    config: Optional[BuilderConfig] = None,
) -> PartitionGraph:
    """Assign numeric weights from ``profile`` in place (and return
    ``graph``).  Statement nodes get ``cnt(s)``; weighted edges get the
    sum of their recorded :class:`WeightSpec` recipes.  Idempotent per
    profile; safe to call repeatedly as observations evolve."""
    config = config if config is not None else BuilderConfig()
    for node in graph.nodes.values():
        if node.kind is NodeKind.STMT:
            count = profile.count(node.sid)
            node.weight = float(
                count if count > 0 else config.unprofiled_count
            )
    for edge in graph.edges:
        if edge.specs:
            edge.weight = sum(
                spec.evaluate(profile, config) for spec in edge.specs
            )
    return graph


def build_partition_graph(
    program: ProgramIR,
    call_graph: CallGraph,
    access_map: AccessMap,
    profile: ProfileData,
    config: Optional[BuilderConfig] = None,
) -> PartitionGraph:
    """Build the weighted partition graph for ``program`` (one-shot)."""
    return reweight_graph(
        build_graph_structure(program, call_graph, access_map),
        profile,
        config,
    )
