"""Golden runs: the closed-loop engine's virtual results, pinned.

``test_serve_determinism.py`` compares two runs of the *same* code, so
it cannot notice a change that flips a tie-break consistently.  Here
every scenario's full result -- each ``TxnSample``, the utilization
floats, switch events, rejections, aborts / retries, failovers and the
loop's event count -- is digested and compared with the digest the
commit *before* the event-core rewrite (bad5b61) produced.  Clients
that replay pooled traces fall into lock-step (2.8% of the ``serve_sim``
configuration's events fire at exactly the previous event's time), so
scheduling order decides real outcomes and any reordering shows here.

Scenarios: the ``serve_sim`` benchmark configuration (three slice
seeds); back-to-back clients (``think_time=0``); a session pool smaller
than the client count behind a bounded accept queue (rejection +
backoff); ``set_db_external_load`` mid-run; two shards with ``crash``
and ``slow`` faults and failover, on hand-built traces and on the
replicated TPC-C tier; and each of those traced as well as untraced
(identical virtual results, plus the exported trace's sha256).
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


def fingerprint(result, events, fired=()):
    controller = result.controller
    pool = result.pool
    return {
        "events": events,
        "completed": result.completed,
        "rejected": result.rejected,
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
        "per_client": [
            (c.completed, c.rejected, c.aborted, sum(c.latencies))
            for c in result.per_client
        ],
        "pool": (pool.accepted, pool.rejected, pool.peak_waiting,
                 pool.peak_in_use),
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
    digest)``.  The loop's ``run`` is replaced on the instance -- the
    seam ``benchmarks/e2e`` uses to read the event count."""
    injector = FaultInjector([parse_fault_spec(spec) for spec in faults])
    engine.inject_faults(injector)
    if script is not None:
        script(engine)
    events = []
    inner = engine.loop.run

    def counted_run(*args, **kwargs):
        events.append(inner(*args, **kwargs))
        return events[-1]

    engine.loop.run = counted_run
    result = engine.run(clients=clients, duration=duration, name="golden")
    trace = (
        _digest(render_chrome_trace(engine.tracer))
        if engine.tracer.enabled else None
    )
    virtual = _digest(repr(fingerprint(result, events, injector.fired)))
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


def small_pool(tracing):
    engine = ServeEngine(
        _synthetic_workload(),
        AdaptiveController(n_options=2, poll_interval=0.2),
        ServeConfig(app_cores=4, db_cores=2, think_time=0.002, seed=11,
                    session_pool_size=3, accept_queue_limit=2,
                    retry_backoff=0.004, ramp=0.01, trace_sample=4),
        tracing=tracing,
    )
    return run_engine(engine, clients=16, duration=1.5)


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
    "small_pool": small_pool,
    "external_load": external_load,
    "synthetic_faults": synthetic_faults,
    "tpcc_faults": tpcc_faults,
}

# scenario -> (completed, sha256 of the fingerprint, sha256 of the
# exported trace JSON), recorded on bad5b61.
GOLDEN = {
    "back_to_back": (
        470,
        "1d722e43f2a9d74f89c22411b1cbe7f461251e12ba715b4ba7ac5cf40945ce98",
        "61d41a0e1d694a6fe337b35ae039844edfab52d957cb0678c8b38fbde76cb7ce",
    ),
    "external_load": (
        752,
        "6fe7121235b6b7a04ff5b43e9dfaaa7549db13116bdfbaa94ceccadde0a93f94",
        "8ead4ab24053ca72d791c82f12825f529bc616746871cd8d1d773bcda8f0087e",
    ),
    "small_pool": (
        355,
        "6de6b0f49c2738938b2e656a50b2c10dc073de104f7dab64d2257224117abbe9",
        "d41174094f80033e213fd6c16a47fd060f6410b843c151d83e060f5a97c4f681",
    ),
    "synthetic_faults": (
        615,
        "661d363e004763d4c935c7a6ee2bbbab58ad14ab945c237d33014e8dd8feaba7",
        "484df46fac30cdbd3f5c7f86bec7b13d9040096620e0c32dbd9efad45ae6c6ec",
    ),
    "tpcc_faults": (
        838,
        "46cdf3e1b98f4f300c0bfcdf64733df7beac5da31d2a2a460d8f188f97cd9021",
        "30b970350919c7b1c1cb1be2f9a38693f5eb7594dcb6b14f34d79c52b025e3fb",
    ),
}

# (completed, sha256 of the fingerprint) per slice seed, same commit.
GOLDEN_SERVE_SIM = [
    (128, "6994fc1f36559231ccf765d441305336717c19fb4d27d4d44b3b8e188b433b59"),
    (133, "ec3e19710a901a5a3a64844adc0ee09c3639051ee6f548a092c625dc38e848a7"),
    (131, "2bd316f52f503f6133c861db60275b583ac3fa6056c32b4ce8ecabc36da65c85"),
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
