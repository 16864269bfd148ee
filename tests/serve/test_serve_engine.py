"""Closed-loop serving engine: laws, locks, determinism."""

import pytest

from repro.serve import (
    AdaptiveController,
    ServeConfig,
    ServeEngine,
    StaticController,
    TraceWorkload,
)
from repro.sim.queueing import Stage, StageKind, TransactionTrace


def cpu_trace(app=0.0, db=0.0, name="t", lock_groups=None):
    stages = []
    if app:
        stages.append(Stage(StageKind.APP_CPU, app))
    if db:
        stages.append(Stage(StageKind.DB_CPU, db))
    return TransactionTrace(
        name=name, stages=tuple(stages), lock_groups=lock_groups
    )


def single_option(trace):
    return TraceWorkload([[trace]], labels=["only"])


class TestClosedLoopLaws:
    def test_single_client_throughput_is_inverse_latency(self):
        # One client, no think time: txns complete back to back, so
        # throughput = 1 / service_time.
        trace = cpu_trace(db=0.01)
        engine = ServeEngine(single_option(trace))
        result = engine.run(clients=1, duration=20.0)
        assert result.throughput == pytest.approx(100.0, rel=0.05)
        assert result.percentile(50) == pytest.approx(0.01, rel=0.01)

    def test_think_time_reduces_throughput(self):
        trace = cpu_trace(db=0.01)
        engine = ServeEngine(
            single_option(trace), config=ServeConfig(think_time=0.09)
        )
        result = engine.run(clients=1, duration=30.0)
        # Expected cycle: 10ms service + ~90ms think = ~10/s.
        assert result.throughput == pytest.approx(10.0, rel=0.25)

    def test_clients_scale_until_cores_saturate(self):
        trace = cpu_trace(db=0.01)

        def run(clients):
            engine = ServeEngine(
                single_option(trace), config=ServeConfig(db_cores=2)
            )
            return engine.run(clients=clients, duration=10.0).throughput

        # 2 cores x 10ms => ~200/s capacity.
        assert run(1) == pytest.approx(100.0, rel=0.1)
        assert run(2) == pytest.approx(200.0, rel=0.1)
        assert run(8) == pytest.approx(200.0, rel=0.1)

    def test_latency_includes_queueing(self):
        trace = cpu_trace(db=0.01)
        engine = ServeEngine(
            single_option(trace), config=ServeConfig(db_cores=1)
        )
        result = engine.run(clients=4, duration=10.0)
        # 4 clients share one core: each waits ~3 service times.
        assert result.percentile(50) == pytest.approx(0.04, rel=0.1)

    def test_utilization_reported(self):
        trace = cpu_trace(app=0.002, db=0.006)
        engine = ServeEngine(
            single_option(trace), config=ServeConfig(db_cores=2)
        )
        result = engine.run(clients=2, duration=10.0)
        assert 0.0 < result.app_utilization < result.db_utilization <= 1.0


class TestLocksAndClients:
    def test_lock_groups_serialize_hot_rows(self):
        locked = cpu_trace(db=0.01, lock_groups=1)

        def run(trace):
            engine = ServeEngine(
                single_option(trace), config=ServeConfig(db_cores=16)
            )
            return engine.run(clients=16, duration=10.0).throughput

        free = cpu_trace(db=0.01)
        assert run(locked) == pytest.approx(100.0, rel=0.1)
        assert run(free) > 5 * run(locked) * 0.9

    def test_samples_cover_all_clients(self):
        trace = cpu_trace(db=0.005)
        engine = ServeEngine(single_option(trace))
        result = engine.run(clients=4, duration=10.0)
        assert {s.client_id for s in result.samples} == set(range(4))
        # Samples also hold the drain after the horizon.
        in_window = [s for s in result.samples if s.when <= 10.0]
        assert len(in_window) == result.completed
        summary = result.latency_summary()
        assert summary.p50 <= summary.p95 <= summary.p99


class TestSubmission:
    """A closed-loop client holds at most one transaction, so nothing
    ever waits to start one."""

    def traced_run(self):
        engine = ServeEngine(
            single_option(cpu_trace(app=0.001, db=0.004)),
            config=ServeConfig(db_cores=1, think_time=0.002, trace_sample=1),
            tracing=True,
        )
        return engine, engine.run(clients=8, duration=1.0)

    def test_every_transaction_starts_the_moment_it_is_submitted(self):
        engine, result = self.traced_run()
        txns = {s.span_id: s for s in engine.tracer.find("client.txn")}
        queues = engine.tracer.find("client.queue")
        assert len(queues) == len(txns) >= result.completed > 0
        for queue in queues:
            assert queue.end == queue.start == txns[queue.parent_id].start

    def test_metrics_snapshot_has_no_pool_or_admission_keys(self):
        _, result = self.traced_run()
        assert result.metrics["serve.txn.completed"] > 0
        assert not [
            key for key in result.metrics
            if key.startswith(("pool.", "serve.admission."))
        ]


class TestDeterminismAndValidation:
    def test_same_seed_same_samples(self):
        trace = cpu_trace(app=0.001, db=0.004)

        def run():
            engine = ServeEngine(
                single_option(trace),
                config=ServeConfig(think_time=0.01, seed=5),
            )
            return engine.run(clients=4, duration=5.0)

        first, second = run(), run()
        assert first.samples == second.samples
        assert first.completed == second.completed

    def test_different_seeds_differ(self):
        trace = cpu_trace(db=0.004)

        def run(seed):
            engine = ServeEngine(
                single_option(trace),
                config=ServeConfig(think_time=0.01, seed=seed),
            )
            return engine.run(clients=4, duration=5.0)

        assert run(1).latencies != run(2).latencies

    def test_invalid_runs_rejected(self):
        trace = cpu_trace(db=0.001)
        engine = ServeEngine(single_option(trace))
        with pytest.raises(ValueError):
            engine.run(clients=0, duration=1.0)
        with pytest.raises(ValueError):
            engine.run(clients=1, duration=0.0)

    def test_engine_is_single_use(self):
        trace = cpu_trace(db=0.001)
        engine = ServeEngine(single_option(trace))
        engine.run(clients=1, duration=1.0)
        with pytest.raises(RuntimeError, match="single-use"):
            engine.run(clients=1, duration=1.0)

    def test_empty_trace_with_think_time_advances(self):
        # Stage-less transactions are legal as long as think time moves
        # the clock; completion must not blow the Python stack.
        empty = TransactionTrace("empty", ())
        engine = ServeEngine(
            single_option(empty), config=ServeConfig(think_time=0.01)
        )
        result = engine.run(clients=2, duration=2.0)
        assert result.completed > 0
        assert all(latency == 0.0 for latency in result.latencies)

    def test_empty_trace_without_think_time_rejected(self):
        empty = TransactionTrace("empty", ())
        engine = ServeEngine(single_option(empty))
        with pytest.raises(ValueError, match="virtual clock"):
            engine.run(clients=1, duration=1.0)

    @pytest.mark.parametrize("factor", [0.0, -2.0, float("nan"), float("inf")])
    def test_unsound_slowdown_rejected_naming_the_value(self, factor):
        # It stretches stage delays pushed without schedule()'s checks.
        engine = ServeEngine(single_option(cpu_trace(db=0.001)))
        with pytest.raises(ValueError, match="slowdown factor") as raised:
            engine.set_shard_slowdown(0, factor)
        assert repr(factor) in str(raised.value)
        assert engine.shard_slowdowns == [1.0]

    def test_warmup_must_fit_duration(self):
        trace = cpu_trace(db=0.001)
        engine = ServeEngine(
            single_option(trace), config=ServeConfig(warmup=5.0)
        )
        with pytest.raises(ValueError, match="warmup"):
            engine.run(clients=1, duration=2.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(think_time=-1.0)
        with pytest.raises(ValueError):
            ServeConfig(retry_backoff=0.0)


class TestAdaptiveServing:
    def two_option_workload(self):
        # Option 0 (low budget): cheap on the DB, pricier end to end.
        # Option 1 (high budget): DB-heavy but fast when idle.
        low = cpu_trace(app=0.004, db=0.002, name="low")
        high = cpu_trace(db=0.004, name="high")
        return TraceWorkload([[low], [high]], labels=["low", "high"])

    def test_controller_switches_under_load(self):
        workload = self.two_option_workload()
        engine = ServeEngine(
            workload,
            AdaptiveController(n_options=2, poll_interval=0.5),
            ServeConfig(db_cores=1, seed=3),
        )
        result = engine.run(clients=8, duration=10.0)
        assert result.controller is not None
        assert result.controller.switches >= 1
        assert result.controller.current_index == 0
        # The mix flips to the low-budget option once saturated.
        final_mix = result.option_mix(5.0)[-1][1]
        assert final_mix.get(0, 0.0) > 0.9

    def test_idle_system_stays_on_high_budget(self):
        workload = self.two_option_workload()
        engine = ServeEngine(
            workload,
            AdaptiveController(n_options=2, poll_interval=0.5),
            ServeConfig(db_cores=16, think_time=0.1, seed=3),
        )
        result = engine.run(clients=2, duration=10.0)
        assert result.controller is not None
        assert result.controller.switches == 0
        assert result.controller.current_index == 1

    def test_external_load_triggers_switch(self):
        workload = self.two_option_workload()
        engine = ServeEngine(
            workload,
            AdaptiveController(n_options=2, poll_interval=0.5),
            ServeConfig(db_cores=8, think_time=0.02, seed=3),
        )
        engine.schedule(5.0, lambda: engine.set_db_external_load(0.9))
        result = engine.run(clients=4, duration=15.0)
        assert result.controller is not None
        assert result.controller.switches >= 1
        first_switch = result.controller.recent_switches[0]
        assert first_switch.now > 5.0
        assert (first_switch.from_index, first_switch.to_index) == (1, 0)

    def test_live_and_replay_counters_surface(self):
        workload = self.two_option_workload()
        engine = ServeEngine(workload, StaticController(-1))
        result = engine.run(clients=2, duration=2.0)
        assert result.live_executions == 0
        # Every started transaction drew one pooled trace.
        assert result.trace_replays == len(result.samples)
