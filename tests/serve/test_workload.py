"""Workload sources: pooling, live execution, factories."""

import random

import pytest

from repro.runtime.entrypoints import InvocationOutcome
from repro.serve.workload import (
    SERVE_TPCC_ONE_WAY_LATENCY,
    SERVE_TPCW_ONE_WAY_LATENCY,
    SHIFT_ONE_WAY_LATENCY,
    LiveWorkload,
    ProgramOption,
    TraceWorkload,
    make_micro_workload,
    make_shifting_workload,
    make_tpcc_workload,
    make_tpcw_workload,
)
from repro.sim.queueing import Stage, StageKind, TransactionTrace


class StubApp:
    """Stands in for PartitionedApp: each invocation yields a fresh trace."""

    def __init__(self) -> None:
        self.invocations = 0

    def invoke_traced(self, class_name, method, *args):
        self.invocations += 1
        trace = TransactionTrace(
            name=f"{class_name}.{method}#{self.invocations}",
            stages=(Stage(StageKind.DB_CPU, 0.001 * self.invocations),),
        )
        return InvocationOutcome(
            result=None, trace=trace, latency=0.0,
            control_transfers=0, db_round_trips=0,
        )


def stub_option(label="opt", lock_groups=None):
    return ProgramOption(
        label=label, class_name="C", app=StubApp(),
        next_call=lambda: ("m", ()), lock_groups=lock_groups,
    )


class TestTraceWorkload:
    def test_requires_traces(self):
        with pytest.raises(ValueError):
            TraceWorkload([])
        with pytest.raises(ValueError):
            TraceWorkload([[]])

    def test_labels_must_match(self):
        trace = TransactionTrace("t", ())
        with pytest.raises(ValueError):
            TraceWorkload([[trace]], labels=["a", "b"])

    def test_draws_from_requested_option(self):
        a = TransactionTrace("a", ())
        b = TransactionTrace("b", ())
        workload = TraceWorkload([[a], [b]], labels=["low", "high"])
        rng = random.Random(1)
        assert workload.draw(0, rng).name == "a"
        assert workload.draw(1, rng).name == "b"
        assert workload.trace_replays == 2


class TestLiveWorkload:
    def test_first_draws_execute_live(self):
        option = stub_option()
        workload = LiveWorkload([option], pool_size=3)
        rng = random.Random(1)
        names = [workload.draw(0, rng).name for _ in range(3)]
        assert workload.live_executions == 3
        assert workload.trace_replays == 0
        assert len(set(names)) == 3  # each execution produced a new trace

    def test_pool_replays_after_fill(self):
        option = stub_option()
        workload = LiveWorkload([option], pool_size=2)
        rng = random.Random(1)
        for _ in range(10):
            workload.draw(0, rng)
        assert workload.live_executions == 2
        assert workload.trace_replays == 8
        assert option.app.invocations == 2

    def test_refresh_every_keeps_sampling_the_program(self):
        option = stub_option()
        workload = LiveWorkload([option], pool_size=2, refresh_every=4)
        rng = random.Random(1)
        for _ in range(12):
            workload.draw(0, rng)
        assert workload.live_executions > 2

    def test_lock_groups_tagged_onto_traces(self):
        option = stub_option(lock_groups=7)
        workload = LiveWorkload([option], pool_size=1)
        rng = random.Random(1)
        trace = workload.draw(0, rng)
        assert trace.lock_groups == 7

    def test_options_pool_independently(self):
        workload = LiveWorkload(
            [stub_option("a"), stub_option("b")], pool_size=1
        )
        rng = random.Random(1)
        workload.draw(0, rng)
        workload.draw(1, rng)
        assert workload.labels == ["a", "b"]
        assert workload.live_executions == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LiveWorkload([])
        with pytest.raises(ValueError):
            LiveWorkload([stub_option()], pool_size=0)


class TestFactories:
    def test_micro_factory_builds_two_budget_options(self):
        built = make_micro_workload(pool_size=1)
        workload = built.workload
        assert workload.labels == ["app_like", "db_like"]
        rng = random.Random(1)
        app_trace = workload.draw(0, rng)
        db_trace = workload.draw(1, rng)
        assert workload.live_executions == 2
        # The low-budget option keeps work on the app server; the
        # high-budget option pushes it to the database server.
        assert app_trace.app_cpu > app_trace.db_cpu
        assert db_trace.db_cpu > db_trace.app_cpu

    @pytest.mark.parametrize("factory, kwargs, latency", [
        (make_micro_workload, {}, 0.001),
        (make_tpcc_workload, {}, SERVE_TPCC_ONE_WAY_LATENCY),
        (make_tpcc_workload, {"shards": 2}, SERVE_TPCC_ONE_WAY_LATENCY),
        (make_tpcw_workload, {}, SERVE_TPCW_ONE_WAY_LATENCY),
        (make_shifting_workload, {}, SHIFT_ONE_WAY_LATENCY),
    ], ids=["micro", "tpcc", "tpcc_sharded", "tpcw", "shifting"])
    def test_pooled_traces_replay_on_the_link_they_were_traced_on(
        self, factory, kwargs, latency
    ):
        built = factory(pool_size=1, **kwargs)
        built = getattr(built, "built", built)
        assert built.network.one_way_latency == latency
        for option in built.workload.options:
            assert option.app.cluster.network == built.network
            method, args = option.next_call()
            outcome = option.app.invoke_traced(option.class_name, method, *args)
            # Unloaded, a pooled trace replays in exactly the time its
            # live run took: both price messages with message_delay.
            assert outcome.trace.unloaded_latency(built.network) == outcome.latency
