"""Golden runs: the closed-loop engine's virtual results, pinned.

``test_serve_determinism.py`` compares two runs of the *same* code, so
it cannot notice a change that flips a tie-break consistently.  Here
every scenario's full result -- each ``TxnSample``, the utilization
floats, switch events, aborts / retries and failovers -- is digested
and compared with a recorded digest.  Clients that replay pooled
traces fall into lock-step (many events fire at exactly the previous
event's time), so the tie order decides real outcomes and any change
to it shows here.

Scenarios: the ``serve_sim`` benchmark configuration (three slice
seeds); back-to-back clients (``think_time=0``);
``set_db_external_load`` mid-run; two shards with ``crash``
and ``slow`` faults and failover, on hand-built traces and on the
replicated TPC-C tier; and each of those traced as well as untraced
(identical virtual results, plus the sha256 of the exported spans).
"""

import hashlib
import os
import random

import pytest

from repro.obs import render_chrome_trace
from repro.serve.controller import AdaptiveController
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.workload import TraceWorkload, make_tpcc_workload
from repro.sim.cluster import FaultInjector, parse_fault_spec
from repro.sim.queueing import (
    SimNetworkParams,
    Stage,
    StageKind,
    TransactionTrace,
)
from tests.conftest import exported_span_multiset

# The TPC-C scenarios execute a few transactions live; their CPU
# durations differ between rungs in the last float bits, and the
# digests below were recorded on the default (source) rungs.
NON_DEFAULT_RUNGS = (
    os.environ.get("REPRO_INTERP", "source") != "source"
    or os.environ.get("REPRO_SQL_EXEC", "source") != "source"
)
RUNG_REASON = "digests recorded on the default source rungs"

APP, DB = StageKind.APP_CPU, StageKind.DB_CPU
TO_DB, TO_APP = StageKind.NET_TO_DB, StageKind.NET_TO_APP


def _chatty(name, shard=0, lock_groups=None):
    """Many short round trips (a JDBC-like partition)."""
    stages = [Stage(APP, 0.0004)]
    for i in range(6):
        stages += [
            Stage(TO_DB, nbytes=120 + 8 * i),
            Stage(DB, 0.0005, shard=shard),
            Stage(TO_APP, nbytes=300),
            Stage(APP, 0.00025),
        ]
    return TransactionTrace(name, tuple(stages), lock_groups=lock_groups)


def _batched(name, shard=0, lock_groups=None):
    """One round trip, DB-heavy (a stored-procedure-like partition)."""
    return TransactionTrace(
        name,
        (
            Stage(APP, 0.0002),
            Stage(TO_DB, nbytes=400),
            Stage(DB, 0.004, shard=shard),
            Stage(TO_APP, nbytes=900),
            Stage(APP, 0.0002),
        ),
        lock_groups=lock_groups,
    )


def _synthetic_workload(shards=1):
    return TraceWorkload(
        [
            [_chatty(f"chatty{s}", s % shards, 3) for s in range(4)]
            + [_chatty("chatty_free")],
            [_batched(f"batched{s}", s % shards, 3) for s in range(4)]
            + [_batched("batched_free")],
        ],
        labels=["low", "high"],
    )


def fingerprint(result, fired=()):
    controller = result.controller
    return {
        "completed": result.completed,
        "aborted": result.aborted,
        "txn_retries": result.txn_retries,
        "app_utilization": result.app_utilization,
        "db_utilization": result.db_utilization,
        "db_shard_utilization": list(result.db_shard_utilization),
        "live_executions": result.live_executions,
        "trace_replays": result.trace_replays,
        "switches": controller.switches,
        "switch_events": [
            (e.now, e.from_index, e.to_index, e.level)
            for e in controller.recent_switches
        ],
        "samples": [
            (s.when, s.latency, s.trace_name, s.client_id, s.option)
            for s in result.samples
        ],
        "latencies": list(result.latencies),
        "failovers": [
            (e.shard, e.crashed_at, e.detected_at, e.promoted_at,
             e.chosen_replica, e.replayed_entries, e.generation)
            for e in result.failovers
        ],
        "fired": list(fired),
    }


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_engine(engine, clients, duration, faults=(), script=None):
    """Run ``engine`` and return ``(completed, result digest, trace
    digest)``; the trace digest is over the exported spans' multiset."""
    injector = FaultInjector([parse_fault_spec(spec) for spec in faults])
    engine.inject_faults(injector)
    if script is not None:
        script(engine)
    result = engine.run(clients=clients, duration=duration, name="golden")
    trace = (
        _digest("\n".join(
            exported_span_multiset(render_chrome_trace(engine.tracer))
        ))
        if engine.tracer.enabled else None
    )
    virtual = _digest(repr(fingerprint(result, injector.fired)))
    return result.completed, virtual, trace


# -- scenarios ---------------------------------------------------------------


def back_to_back(tracing):
    engine = ServeEngine(
        _synthetic_workload(),
        AdaptiveController(n_options=2, poll_interval=0.25),
        ServeConfig(app_cores=2, db_cores=2, think_time=0.0, seed=5,
                    warmup=0.2, trace_sample=3),
        tracing=tracing,
    )
    return run_engine(engine, clients=12, duration=2.0)


def external_load(tracing):
    def script(engine):
        engine.schedule(0.6, lambda: engine.set_db_external_load(0.75))
        engine.schedule(1.4, lambda: engine.set_db_external_load(0.0))

    engine = ServeEngine(
        _synthetic_workload(),
        AdaptiveController(n_options=2, poll_interval=0.1),
        ServeConfig(
            app_cores=8, db_cores=4, think_time=0.01, seed=23, ramp=0.05,
            network=SimNetworkParams(one_way_latency=0.0005),
            trace_sample=5,
        ),
        tracing=tracing,
    )
    return run_engine(engine, clients=24, duration=2.0, script=script)


def synthetic_faults(tracing):
    engine = ServeEngine(
        _synthetic_workload(shards=2),
        AdaptiveController(n_options=2, poll_interval=0.2),
        ServeConfig(app_cores=4, db_cores=2, db_shards=2,
                    think_time=0.005, seed=7, ramp=0.02,
                    retry_backoff=0.03, trace_sample=2),
        tracing=tracing,
    )
    engine.enable_failover(heartbeat=0.1)
    return run_engine(
        engine, clients=10, duration=2.0,
        faults=["slow:db0@0.3x3:until=0.9", "crash:db1@0.8"],
    )


def tpcc_faults(tracing):
    built = make_tpcc_workload(
        db_cores=2, seed=29, pool_size=4, shards=2, replicas=1,
    )
    engine = ServeEngine(
        built.workload,
        AdaptiveController(n_options=2, poll_interval=1.0),
        ServeConfig(app_cores=8, db_cores=2, db_shards=2,
                    network=built.network, think_time=0.02, seed=29,
                    warmup=1.0, ramp=0.02),
        tracing=tracing,
    )
    engine.attach_backends(built.databases, built.clusters)
    return run_engine(
        engine, clients=12, duration=6.0,
        faults=["slow:db0@1.5x3:until=4", "crash:db1@2.5"],
    )


def serve_sim_slices():
    """The ``serve_sim`` workload of ``benchmarks/e2e``: pools filled
    up front, then 0.5-virtual-second slices that only replay."""
    built = make_tpcc_workload(pool_size=8)
    workload = built.workload
    rng = random.Random(0)
    for option in range(workload.n_options):
        for _ in range(8):
            workload.draw(option, rng)
    out = []
    for slice_seed in (100_004, 100_005, 100_006):
        engine = ServeEngine(
            workload,
            AdaptiveController(poll_interval=0.1),
            ServeConfig(app_cores=8, db_cores=3, network=built.network,
                        think_time=0.05, ramp=0.05, seed=slice_seed),
        )
        out.append(run_engine(engine, clients=32, duration=0.5)[:2])
    return out


SCENARIOS = {
    "back_to_back": back_to_back,
    "external_load": external_load,
    "synthetic_faults": synthetic_faults,
    "tpcc_faults": tpcc_faults,
}

# scenario -> (completed, sha256 of the fingerprint, sha256 of the
# exported spans' multiset), recorded on bad5b61.  The fingerprint
# digests were re-recorded twice: when the session-pool and rejection
# counters left the fingerprint, and when the per-client copy of the
# samples did.  Everything was re-recorded once more, when walk events
# at one instant began to run in (transaction, stage) order and busy
# time began to be read from per-core free times; the loop's event
# count left the fingerprint then (it is the walk's cost, not a model
# output), and the trace digest became the spans' multiset (span ids
# follow creation order).
GOLDEN = {
    "back_to_back": (
        470,
        "8fb405cc62aff7a3b55ecf6de25ebd5808419cf9291e2dcd9409244dbd93c290",
        "3e522e4435b8a6e241d6f2affd7e5213c1c59bc30d80d158e96a5dc55fbf5f91",
    ),
    "external_load": (
        752,
        "80e1634b29976ba9e2238ec44d01b97acf4ba99e9a2551a4cdc866c859b85716",
        "af51bc4ad649bf12ae1a013ee65ce8bdcd150e5b488a657ddf5bfd3770a391e9",
    ),
    "synthetic_faults": (
        643,
        "5dea685ff210784799a650f6d5914508567b9df8b169cf6d623431d20709bd5b",
        "46d825d7ff9f35ff02d578805b66bfd409605f659a6404330a0392a260b6d0af",
    ),
    "tpcc_faults": (
        838,
        "8c0f0557a675ba696d3328a85d80b24b571027c35f41f50800c7e0d6896c70df",
        "2a0c1a2bb4bb34ad1cec39ceea28d0db84e3a792b37cab269ffb04e54a9dfe3a",
    ),
}

# (completed, sha256 of the fingerprint) per slice seed, same commits.
GOLDEN_SERVE_SIM = [
    (129, "be792938525cca96a286013bcd4e6ac8614c3efc8dab9984c4104c862fbf68d7"),
    (136, "36fc3141f4d0cc54678104dde4793873a546f80afe7478f87e448afb61e5d4c9"),
    (129, "f4a3b9c2b36e154b52dfc80df6cc5aaee2ba0fec1a99b3ca93964dd657c2da13"),
]


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_virtual_results_match_the_recorded_run(scenario, tracing):
    if scenario.startswith("tpcc") and NON_DEFAULT_RUNGS:
        pytest.skip(RUNG_REASON)
    completed, virtual, trace = SCENARIOS[scenario](tracing)
    want_completed, want_virtual, want_trace = GOLDEN[scenario]
    assert completed == want_completed
    # Tracing observes only: traced and untraced share one digest.
    assert virtual == want_virtual
    if tracing:
        assert trace == want_trace


@pytest.mark.skipif(NON_DEFAULT_RUNGS, reason=RUNG_REASON)
def test_serve_sim_slices_match_the_recorded_run():
    assert serve_sim_slices() == GOLDEN_SERVE_SIM
