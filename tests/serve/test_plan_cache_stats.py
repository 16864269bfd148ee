"""Backend counters surfacing through the serving layer's metrics."""

from repro.db import Database, connect
from repro.db.shard import connect_sharded
from repro.runtime.entrypoints import InvocationOutcome
from repro.serve.controller import AdaptiveController
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.workload import (
    LiveWorkload,
    ProgramOption,
    TraceWorkload,
    make_tpcc_workload,
)
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


class TestPlanCacheMetrics:
    def test_trace_workload_reports_no_plan_cache(self):
        trace = TransactionTrace("t", (Stage(StageKind.DB_CPU, 0.001),))
        engine = ServeEngine(TraceWorkload([[trace]]))
        metrics = engine.run(clients=1, duration=0.5).metrics
        assert not any(key.startswith("plan_cache.") for key in metrics)

    def test_serve_result_reports_run_delta(self):
        workload = _live_workload()
        engine = ServeEngine(
            workload, config=ServeConfig(app_cores=1, db_cores=1)
        )
        metrics = engine.run(clients=2, duration=0.5, name="t").metrics
        assert metrics["plan_cache.connections"] == 1
        # The SELECT statement was prepared before the run: the run's
        # delta is all cache hits, no new compilations.
        assert metrics["plan_cache.misses"] == 0
        assert metrics["plan_cache.compiled_plans"] == 0
        assert metrics["plan_cache.hits"] == workload.live_executions
        assert metrics["plan_cache.hit_ratio"] == 1.0


def _backend_totals(built):
    """Every counter the run reports, read straight off the backends."""
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for opt in built.workload.options:
        conn = opt.app.connection
        cache = conn.plan_cache_stats
        for name in ("hits", "misses", "evictions", "compiled_plans"):
            add(f"plan_cache.{name}", getattr(cache, name))
        add("two_pc.commits", conn.two_pc_commits)
        add("two_pc.aborts", conn.two_pc_aborts)
        add("replica_reads.served", conn.replica_read_count)
        add("replica_reads.fallback", conn.replica_fallback_count)
    for sdb in built.databases:
        for shard, group in enumerate(sdb.groups):
            add(f"replication.entries_shipped{{shard={shard}}}",
                group.stats.entries_shipped)
    return totals


class TestRunDeltaAggregation:
    """Engines run in sequence over one shared workload: each run's
    metrics are that run's share, and the shares sum to the growth of
    the backends' own counters -- the invariant the sweeps' summed
    notes rely on."""

    def test_two_runs_split_the_backend_counters(self):
        built = make_tpcc_workload(
            db_cores=2, seed=5, pool_size=2, shards=2, replicas=1,
        )
        for opt, sdb in zip(built.workload.options, built.databases):
            conn = connect_sharded(sdb, replica_reads=True)
            opt.app.connection = conn
            opt.app.executor.connection = conn
        # Every third draw runs live, so both runs touch the backends.
        built.workload.refresh_every = 3
        base = _backend_totals(built)
        shares = []
        for seed in (1, 2):
            engine = ServeEngine(
                built.workload,
                AdaptiveController(n_options=2, poll_interval=0.5),
                ServeConfig(app_cores=8, db_cores=2, db_shards=2,
                            network=built.network, think_time=0.02,
                            seed=seed),
            )
            engine.attach_backends(built.databases, built.clusters)
            metrics = engine.run(clients=4, duration=1.0).metrics
            now = _backend_totals(built)
            share = {key: metrics[key] for key in now}
            assert share == {key: now[key] - base[key] for key in now}
            assert metrics["plan_cache.connections"] == 2
            shares.append(share)
            base = now
        first, second = shares
        for key in ("plan_cache.hits", "two_pc.commits",
                    "replica_reads.served",
                    "replication.entries_shipped{shard=0}",
                    "replication.entries_shipped{shard=1}"):
            assert first[key] > 0 and second[key] > 0, key
        # The fresh connections compile their plans in the first run.
        assert first["plan_cache.compiled_plans"] > 0
        assert second["plan_cache.compiled_plans"] == 0

    def test_shard_sweep_merges_plan_cache_across_points(self):
        from repro.bench.serve_experiments import serve_shard_sweep

        sweep = serve_shard_sweep(
            fast=True, shard_counts=(1, 2), clients=4, db_cores=1,
            duration=2.0, think_time=0.02, seed=11,
        )
        merged = sweep.notes.get("plan_cache")
        assert merged is not None
        # Each sweep point builds a fresh workload whose statements
        # compile during the run, so the summed counters show real
        # compilations and hits.
        assert merged["compiled_plans"] > 0
        assert merged["hits"] > 0


class TestSweepNotes:
    def test_report_line(self):
        from repro.bench.report import _plan_cache_line

        assert _plan_cache_line({}) is None
        line = _plan_cache_line({
            "plan_cache": {"hits": 8, "misses": 2, "evictions": 1,
                           "compiled_plans": 2},
        })
        assert "8 hit(s)" in line
        assert "80.00%" in line
        assert "2 plan(s) compiled" in line
