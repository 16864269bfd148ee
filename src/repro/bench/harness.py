"""Baseline runners and trace collection.

The paper compares three implementations of every benchmark
(Section 7):

* **JDBC** -- all program logic on the application server; every DB
  operation is a request/response round trip.
* **Manual** -- all program logic runs on the database server; the
  application sends one RPC per transaction (hand-written stored
  procedures).
* **Pyxis** -- the automatically partitioned program, executed by the
  block runtime (:class:`repro.runtime.entrypoints.PartitionedApp`).

All three run the *same* IR against the *same* database engine, with
CPU and network costs charged to the simulated cluster, producing
:class:`~repro.sim.queueing.TransactionTrace` objects the queueing
simulator replays under load.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.db.jdbc import Connection, ResultSet
from repro.lang.interp import IRInterpreter, NativeRegistry
from repro.lang.ir import Const, ProgramIR, Stmt
from repro.profiler.sizes import estimate_size
from repro.runtime.interpreter import NATIVE_CPU_COSTS
from repro.runtime.rpc import MESSAGE_OVERHEAD
from repro.sim.cluster import Cluster
from repro.sim.queueing import (
    QueueingSimulator,
    SimNetworkParams,
    SimResult,
    TransactionTrace,
)


class BaselineMode(enum.Enum):
    JDBC = "jdbc"
    MANUAL = "manual"


def run_baseline_traced(
    program: ProgramIR,
    connection: Connection,
    cluster: Cluster,
    class_name: str,
    method: str,
    args: Sequence[Any],
    mode: BaselineMode,
    natives: Optional[NativeRegistry] = None,
) -> tuple[Any, TransactionTrace]:
    """Run one transaction under a baseline implementation.

    JDBC charges program logic to the application server and a round
    trip per DB call; Manual charges logic to the database server with
    a single request/response pair around the whole transaction.
    """
    side = "app" if mode is BaselineMode.JDBC else "db"
    cost = cluster.app.cost_model

    def on_stmt(stmt: Stmt) -> None:
        cluster.record_cpu(side, cost.statement_cost)

    def on_db_call(stmt: Stmt, api: str, rows: int, result: Any) -> None:
        if mode is BaselineMode.JDBC:
            # Request: SQL text + parameters.
            sql_len = _sql_length(stmt)
            request = MESSAGE_OVERHEAD + sql_len + 8 * _param_count(stmt)
            cluster.record_message(request, to_db=True)
        cluster.record_cpu("db", cost.db_operation(rows))
        if mode is BaselineMode.JDBC:
            payload = (
                [r.as_tuple() for r in result.rows]
                if isinstance(result, ResultSet)
                else result
            )
            response = MESSAGE_OVERHEAD + estimate_size(payload)
            cluster.record_message(response, to_db=False)

    def on_call(stmt: Stmt, expr, call_args: list, result: Any) -> None:
        from repro.lang.ir import CallKind

        if expr.kind is CallKind.NATIVE:
            extra = NATIVE_CPU_COSTS.get(expr.name)
            if extra is not None:
                cluster.record_cpu(side, extra - cost.statement_cost)

    interp = IRInterpreter(
        program,
        connection,
        natives=natives,
        on_stmt=on_stmt,
        on_db_call=on_db_call,
        on_call=on_call,
    )
    cluster.start_trace()
    if mode is BaselineMode.MANUAL:
        request = MESSAGE_OVERHEAD + sum(estimate_size(a) for a in args)
        cluster.record_message(request, to_db=True)
    result = interp.invoke(class_name, method, *args)
    if mode is BaselineMode.MANUAL:
        response = MESSAGE_OVERHEAD + estimate_size(result)
        cluster.record_message(response, to_db=False)
    trace = cluster.finish_trace(f"{mode.value}:{class_name}.{method}")
    return result, trace


def _sql_length(stmt: Stmt) -> int:
    for expr in stmt.exprs():
        from repro.lang.ir import CallExpr, CallKind

        if isinstance(expr, CallExpr) and expr.kind is CallKind.DB:
            if expr.args and isinstance(expr.args[0], Const):
                return len(str(expr.args[0].value))
    return 64


def _param_count(stmt: Stmt) -> int:
    for expr in stmt.exprs():
        from repro.lang.ir import CallExpr, CallKind

        if isinstance(expr, CallExpr) and expr.kind is CallKind.DB:
            return max(len(expr.args) - 1, 0)
    return 0


def tag_lock_groups(trace: TransactionTrace, groups: int) -> TransactionTrace:
    """Return a copy of ``trace`` that contends on ``groups`` hot rows."""
    return TransactionTrace(
        name=trace.name, stages=trace.stages, lock_groups=groups
    )


@dataclass
class TraceSet:
    """Per-implementation trace samples for one benchmark."""

    traces: dict[str, list[TransactionTrace]] = field(default_factory=dict)

    def add(self, name: str, trace: TransactionTrace) -> None:
        self.traces.setdefault(name, []).append(trace)

    def names(self) -> list[str]:
        return sorted(self.traces)

    def mean_trace(self, name: str) -> TransactionTrace:
        """Trace list for a name is used directly; this returns one
        representative (the median by unloaded latency) for analytic
        models like fig14."""
        network = SimNetworkParams()
        ordered = sorted(
            self.traces[name], key=lambda t: t.unloaded_latency(network)
        )
        return ordered[len(ordered) // 2]


def sweep(
    trace_set: TraceSet,
    rates: Sequence[float],
    duration: float,
    app_cores: int,
    db_cores: int,
    network: Optional[SimNetworkParams] = None,
    seed: int = 17,
) -> dict[str, list[SimResult]]:
    """Offered-rate sweep for each implementation's trace sample."""
    curves: dict[str, list[SimResult]] = {}
    for name in trace_set.names():
        samples = trace_set.traces[name]
        curves[name] = []
        for rate in rates:
            sim = QueueingSimulator(
                app_cores=app_cores,
                db_cores=db_cores,
                network=network,
                seed=seed,
            )
            curves[name].append(
                sim.run(samples, rate=rate, duration=duration, name=name)
            )
    return curves


# ---------------------------------------------------------------------------
# Workload-specific collectors
# ---------------------------------------------------------------------------


def collect_tpcc_traces(
    pyxis_partitions: dict[str, Any],
    program: ProgramIR,
    make_connection: Callable[[], Connection],
    inputs: Sequence[Any],
    cluster_factory: Callable[[], Cluster],
    lock_groups: Optional[int] = None,
    interp: Optional[str] = None,
) -> TraceSet:
    """Collect JDBC / Manual / Pyxis traces for TPC-C new-order inputs.

    ``pyxis_partitions`` maps a label (e.g. ``"pyxis"``) to a compiled
    partition; each implementation replays the same input sequence on
    its own database copy.  ``interp`` selects the block-runtime
    implementation (``tree`` / ``source``; None = REPRO_INTERP or
    the default).
    """
    from repro.runtime.entrypoints import PartitionedApp

    out = TraceSet()
    for mode in (BaselineMode.JDBC, BaselineMode.MANUAL):
        connection = make_connection()
        cluster = cluster_factory()
        for item in inputs:
            _, trace = run_baseline_traced(
                program, connection, cluster,
                "TpccTransactions", "new_order", item, mode,
            )
            if lock_groups:
                trace = tag_lock_groups(trace, lock_groups)
            out.add(mode.value, trace)
    for label, compiled in pyxis_partitions.items():
        connection = make_connection()
        cluster = cluster_factory()
        app = PartitionedApp(compiled, cluster, connection, interp=interp)
        for item in inputs:
            outcome = app.invoke_traced("TpccTransactions", "new_order", *item)
            trace = outcome.trace
            if lock_groups:
                trace = tag_lock_groups(trace, lock_groups)
            out.add(label, trace)
    return out


def collect_tpcw_traces(
    pyxis_partitions: dict[str, Any],
    program: ProgramIR,
    make_connection: Callable[[], Connection],
    interactions: Sequence[Any],
    cluster_factory: Callable[[], Cluster],
    interp: Optional[str] = None,
) -> TraceSet:
    """Collect traces for a sequence of TPC-W interactions."""
    from repro.runtime.entrypoints import PartitionedApp

    out = TraceSet()
    for mode in (BaselineMode.JDBC, BaselineMode.MANUAL):
        connection = make_connection()
        cluster = cluster_factory()
        for interaction in interactions:
            _, trace = run_baseline_traced(
                program, connection, cluster,
                "TpcwBrowsing", interaction.method, interaction.args, mode,
            )
            out.add(mode.value, trace)
    for label, compiled in pyxis_partitions.items():
        connection = make_connection()
        cluster = cluster_factory()
        app = PartitionedApp(compiled, cluster, connection, interp=interp)
        for interaction in interactions:
            outcome = app.invoke_traced(
                "TpcwBrowsing", interaction.method, *interaction.args
            )
            out.add(label, outcome.trace)
    return out
