"""Determinism regression: identical seed/config => identical results.

Two completely independent serve runs -- each building its own
workload (fresh databases, fresh partitioning pipeline, fresh trace
pools) with the same seed and configuration, including a sharded
database tier -- must produce identical ``ServeResult``s: throughput,
latency percentiles, per-shard utilization, controller switch events
and plan-cache deltas.  Everything runs on the virtual clock, so any
nondeterminism (an unordered dict, a salted hash in the router, a
wall-clock leak) shows up as a diff here.
"""

from repro.serve.controller import AdaptiveController
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.workload import make_tpcc_workload

SHARDS = 2
CLIENTS = 12
DURATION = 6.0
SEED = 29


def _run_once():
    built = make_tpcc_workload(
        db_cores=2, seed=SEED, pool_size=4, shards=SHARDS,
    )
    engine = ServeEngine(
        built.workload,
        AdaptiveController(n_options=2, poll_interval=DURATION / 6.0),
        ServeConfig(
            app_cores=8, db_cores=2, db_shards=SHARDS,
            network=built.network, think_time=0.02, seed=SEED,
            warmup=1.0, ramp=0.02,
        ),
    )
    return engine.run(clients=CLIENTS, duration=DURATION, name="det")


def _fingerprint(result):
    controller = result.controller
    return {
        "completed": result.completed,
        "throughput": result.throughput,
        "p50": result.percentile(50),
        "p95": result.percentile(95),
        "p99": result.percentile(99),
        "app_utilization": result.app_utilization,
        "db_utilization": result.db_utilization,
        "db_shard_utilization": list(result.db_shard_utilization),
        "live_executions": result.live_executions,
        "trace_replays": result.trace_replays,
        "metrics": result.metrics,
        "switches": controller.switches if controller else None,
        "switch_events": [
            (event.now, event.from_index, event.to_index, event.level)
            for event in controller.recent_switches
        ] if controller else None,
        "samples": [
            (s.when, s.latency, s.trace_name, s.client_id, s.option)
            for s in result.samples
        ],
    }


def test_sharded_serve_runs_are_deterministic():
    first = _fingerprint(_run_once())
    second = _fingerprint(_run_once())
    assert first == second
    # The run must have actually exercised the tier.
    assert first["completed"] > 0
    assert len(first["db_shard_utilization"]) == SHARDS
    assert first["metrics"]["plan_cache.compiled_plans"] > 0


def _run_faulted(tracing=False):
    """A replicated run with a mid-run primary crash and failover."""
    from repro.sim.cluster import FaultInjector, parse_fault_spec

    built = make_tpcc_workload(
        db_cores=2, seed=SEED, pool_size=4, shards=SHARDS, replicas=1,
    )
    engine = ServeEngine(
        built.workload,
        AdaptiveController(n_options=2, poll_interval=DURATION / 6.0),
        ServeConfig(
            app_cores=8, db_cores=2, db_shards=SHARDS,
            network=built.network, think_time=0.02, seed=SEED,
            warmup=1.0, ramp=0.02,
        ),
        tracing=tracing,
    )
    engine.attach_backends(built.databases, built.clusters)
    injector = FaultInjector([parse_fault_spec("crash:db1@2.5")])
    engine.inject_faults(injector)
    result = engine.run(clients=CLIENTS, duration=DURATION, name="det")
    return result, list(injector.fired), engine


def _faulted_fingerprint(result, fired):
    base = _fingerprint(result)
    base.update(
        fired=fired,
        aborted=result.aborted,
        txn_retries=result.txn_retries,
        failovers=[
            (e.shard, e.crashed_at, e.detected_at, e.promoted_at,
             e.chosen_replica, e.replayed_entries, e.generation)
            for e in result.failovers
        ],
    )
    return base


def test_fault_injected_runs_are_deterministic():
    """Identical seeds => identical crash, detection and promotion
    timeline, identical abort/retry counts, identical samples."""
    result1, fired1, _ = _run_faulted()
    result2, fired2, _ = _run_faulted()
    first = _faulted_fingerprint(result1, fired1)
    second = _faulted_fingerprint(result2, fired2)
    assert first == second
    assert first["fired"] == [(2.5, "crash db1")]
    assert len(first["failovers"]) == 1
    assert first["failovers"][0][0] == 1  # shard
    assert first["failovers"][0][6] == 1  # generation
    assert first["completed"] > 0
    # The unified metrics snapshot is part of the deterministic
    # surface too.
    assert result1.metrics == result2.metrics
    assert result1.metrics["serve.txn.completed"] > 0


def test_trace_and_metrics_exports_are_byte_identical():
    """Two independent identically-seeded traced runs must export
    byte-identical Chrome trace JSON and metrics JSON."""
    from repro.obs import render_chrome_trace, render_metrics

    result1, _, engine1 = _run_faulted(tracing=True)
    result2, _, engine2 = _run_faulted(tracing=True)
    trace1 = render_chrome_trace(engine1.tracer)
    trace2 = render_chrome_trace(engine2.tracer)
    assert trace1 == trace2
    assert len(trace1) > 1000
    metrics1 = render_metrics(result1.metrics)
    metrics2 = render_metrics(result2.metrics)
    assert metrics1 == metrics2


def test_tracing_does_not_perturb_the_run():
    """Tracing must be observation-only: the traced run's results are
    identical to the untraced run's."""
    result_off, fired_off, _ = _run_faulted(tracing=False)
    result_on, fired_on, _ = _run_faulted(tracing=True)
    assert _faulted_fingerprint(result_off, fired_off) == (
        _faulted_fingerprint(result_on, fired_on)
    )


def test_failover_span_tree_matches_failover_event():
    """The exported crash -> detect -> promote -> replay span tree
    carries exactly the FailoverEvent's timeline."""
    import json

    from repro.obs import render_chrome_trace

    result, _, engine = _run_faulted(tracing=True)
    (event,) = result.failovers
    doc = json.loads(render_chrome_trace(engine.tracer))
    spans = {
        e["name"]: e
        for e in doc["traceEvents"]
        if e["ph"] == "X" and e["name"].startswith("failover")
    }
    assert set(spans) == {
        "failover", "failover.detect", "failover.promote",
        "failover.replay",
    }

    def usec(seconds):
        return round(seconds * 1e6, 3)

    root = spans["failover"]
    detect = spans["failover.detect"]
    promote = spans["failover.promote"]
    replay = spans["failover.replay"]
    assert root["ts"] == usec(event.crashed_at)
    assert root["dur"] == usec(event.recovery_time)
    assert detect["ts"] == usec(event.crashed_at)
    assert detect["ts"] + detect["dur"] == usec(event.detected_at)
    assert promote["ts"] == usec(event.detected_at)
    assert promote["ts"] + promote["dur"] == usec(event.promoted_at)
    assert replay["ts"] + replay["dur"] == usec(event.promoted_at)
    # Parentage: detect and promote under the root, replay under
    # promote.
    assert detect["args"]["parent_id"] == root["args"]["span_id"]
    assert promote["args"]["parent_id"] == root["args"]["span_id"]
    assert replay["args"]["parent_id"] == promote["args"]["span_id"]
    # The span args carry the event's promotion facts.
    assert promote["args"]["chosen_replica"] == event.chosen_replica
    assert promote["args"]["generation"] == event.generation
    assert replay["args"]["replayed_entries"] == event.replayed_entries
    # All four spans live on the supervisor track.
    tids = {spans[name]["tid"] for name in spans}
    assert len(tids) == 1
    (meta,) = [
        e for e in doc["traceEvents"]
        if e["ph"] == "M" and e["tid"] in tids
    ]
    assert meta["args"]["name"] == "supervisor"
