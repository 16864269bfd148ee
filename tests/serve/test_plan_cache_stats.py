"""Plan-cache counters surfacing through the serving layer."""

import random

from repro.db import Database, PlanCacheStats, connect
from repro.runtime.entrypoints import InvocationOutcome
from repro.serve.engine import ServeConfig, ServeEngine, _plan_cache_delta
from repro.serve.workload import LiveWorkload, ProgramOption, TraceWorkload
from repro.sim.queueing import Stage, StageKind, TransactionTrace


def _make_connection(statements: int = 3):
    db = Database("pc")
    db.create_table(
        "kv", [("k", "int", False), ("v", "int")], primary_key=["k"]
    )
    conn = connect(db, sql_exec="source")
    for k in range(8):
        conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", k, k * k)
    for _ in range(statements):
        conn.query_scalar("SELECT v FROM kv WHERE k = ?", 3)
    return conn


class StubAppWithConnection:
    """PartitionedApp stand-in that carries a real JDBC connection."""

    def __init__(self, connection) -> None:
        self.connection = connection
        self.invocations = 0

    def invoke_traced(self, class_name, method, *args):
        self.invocations += 1
        self.connection.query_scalar("SELECT v FROM kv WHERE k = ?", 1)
        trace = TransactionTrace(
            name=f"{method}#{self.invocations}",
            stages=(Stage(StageKind.DB_CPU, 0.001),),
        )
        return InvocationOutcome(
            result=None, trace=trace, latency=0.0,
            control_transfers=0, db_round_trips=0,
        )


def _live_workload():
    conn = _make_connection()
    option = ProgramOption(
        label="opt", class_name="C", app=StubAppWithConnection(conn),
        next_call=lambda: ("m", ()),
    )
    return LiveWorkload([option], pool_size=2)


class TestPlanCacheSnapshot:
    def test_trace_workload_has_no_snapshot(self):
        trace = TransactionTrace("t", (Stage(StageKind.DB_CPU, 0.001),))
        assert TraceWorkload([[trace]]).plan_cache_snapshot() is None

    def test_live_workload_aggregates_connection_stats(self):
        workload = _live_workload()
        snap = workload.plan_cache_snapshot()
        assert snap is not None
        assert snap["connections"] == 1
        # INSERT + SELECT were both compiled at prepare time.
        assert snap["compiled_plans"] == 2
        assert snap["misses"] == 2
        assert snap["hits"] > 0
        assert 0.0 < snap["hit_ratio"] < 1.0

    def test_serve_result_reports_run_delta(self):
        workload = _live_workload()
        engine = ServeEngine(
            workload, config=ServeConfig(app_cores=1, db_cores=1)
        )
        result = engine.run(clients=2, duration=0.5, name="t")
        assert result.plan_cache is not None
        # The SELECT statement was prepared before the run: the run's
        # delta is all cache hits, no new compilations.
        assert result.plan_cache["misses"] == 0
        assert result.plan_cache["compiled_plans"] == 0
        assert result.plan_cache["hits"] == workload.live_executions
        assert result.plan_cache["hit_ratio"] == 1.0

    def test_delta_helper_handles_missing_snapshots(self):
        assert _plan_cache_delta(None, None) is None
        after = {"hits": 3, "misses": 1, "evictions": 0,
                 "compiled_plans": 1, "connections": 2}
        fresh = _plan_cache_delta(None, after)
        assert fresh["hits"] == 3 and fresh["connections"] == 2
        before = {"hits": 1, "misses": 1, "evictions": 0,
                  "compiled_plans": 1}
        delta = _plan_cache_delta(before, after)
        assert delta["hits"] == 2
        assert delta["misses"] == 0
        assert delta["hit_ratio"] == 1.0


class TestRunDeltaAggregation:
    """Per-run deltas over a shared workload must sum to the full
    counters -- the invariant the sweeps' merged notes rely on."""

    def test_consecutive_runs_report_disjoint_deltas(self):
        workload = _live_workload()
        deltas = []
        for _ in range(3):
            engine = ServeEngine(
                workload, config=ServeConfig(app_cores=1, db_cores=1)
            )
            result = engine.run(clients=2, duration=0.5, name="t")
            deltas.append(result.plan_cache)
        total = None
        for delta in deltas:
            total = PlanCacheStats.merge(total, delta)
        final = workload.plan_cache_snapshot()
        # The workload was warmed before the first run (compilation +
        # misses happened at build time), so the merged run deltas are
        # pure hits and account for every post-warmup hit.
        assert total["misses"] == 0
        assert total["compiled_plans"] == 0
        assert total["hits"] == sum(d["hits"] for d in deltas)
        assert final["hits"] - total["hits"] > 0  # warmup hits remain

    def test_shard_sweep_merges_plan_cache_across_points(self):
        from repro.bench.serve_experiments import serve_shard_sweep

        sweep = serve_shard_sweep(
            fast=True, shard_counts=(1, 2), clients=4, db_cores=1,
            duration=2.0, think_time=0.02, seed=11,
        )
        merged = sweep.notes.get("plan_cache")
        assert merged is not None
        # Each sweep point builds a fresh workload whose statements
        # compile during the run, so the merged delta shows real
        # compilations and a healthy hit ratio.
        assert merged["compiled_plans"] > 0
        assert merged["hits"] > 0
        assert 0.0 < merged["hit_ratio"] <= 1.0


class TestSweepNotes:
    def test_sweep_merges_plan_cache_into_notes(self):
        total = PlanCacheStats.merge(None, {"hits": 2, "misses": 2,
                                            "evictions": 0,
                                            "compiled_plans": 2})
        total = PlanCacheStats.merge(total, {"hits": 6, "misses": 0,
                                             "evictions": 0,
                                             "compiled_plans": 0})
        assert total["hits"] == 8
        assert total["misses"] == 2
        assert total["compiled_plans"] == 2
        assert total["hit_ratio"] == 0.8
        assert PlanCacheStats.merge(total, None) is total

    def test_report_line(self):
        from repro.bench.report import _plan_cache_line

        assert _plan_cache_line({}) is None
        line = _plan_cache_line({
            "plan_cache": {"hits": 8, "misses": 2, "evictions": 1,
                           "hit_ratio": 0.8, "compiled_plans": 2},
        })
        assert "8 hit(s)" in line
        assert "80.00%" in line
        assert "2 plan(s) compiled" in line
