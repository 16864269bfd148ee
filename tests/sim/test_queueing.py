"""Queueing simulator: sanity laws, contention, determinism."""

import math
from heapq import heappush

import pytest

from repro.sim import queueing
from repro.sim.cluster import Cluster
from repro.sim.queueing import (
    CorePool,
    LockTable,
    QueueingSimulator,
    SimNetworkParams,
    Stage,
    StageKind,
    StageWalker,
    TransactionTrace,
    Txn,
)


def cpu_trace(app: float = 0.0, db: float = 0.0, name: str = "t") -> TransactionTrace:
    stages = []
    if app:
        stages.append(Stage(StageKind.APP_CPU, app))
    if db:
        stages.append(Stage(StageKind.DB_CPU, db))
    return TransactionTrace(name=name, stages=tuple(stages))


class TestStage:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Stage(StageKind.APP_CPU, -1.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1e-9])
    def test_unsound_duration_names_field_and_value(self, duration):
        # A NaN duration used to pass and silently break the heap order.
        with pytest.raises(ValueError, match="duration") as raised:
            Stage(StageKind.APP_CPU, duration)
        assert repr(duration) in str(raised.value)

    def test_negative_bytes_name_field_and_value(self):
        with pytest.raises(ValueError, match=r"nbytes .*-5"):
            Stage(StageKind.NET_TO_DB, nbytes=-5)


class TestSimNetworkParams:
    @pytest.mark.parametrize("field, value", [
        ("one_way_latency", -0.01),
        ("one_way_latency", math.nan),
        ("one_way_latency", math.inf),
        ("bandwidth", 0.0),
        ("bandwidth", -1.0),
        ("bandwidth", math.nan),
        ("bandwidth", math.inf),
        ("per_message_overhead", -1),
    ])
    def test_unsound_parameter_fails_at_construction(self, field, value):
        # Each of these used to fail mid-run, or not at all.
        with pytest.raises(ValueError, match=field) as raised:
            SimNetworkParams(**{field: value})
        assert repr(value) in str(raised.value)

    def test_zero_latency_and_overhead_accepted(self):
        network = SimNetworkParams(one_way_latency=0.0, per_message_overhead=0)
        assert network.message_delay(0) == 0.0

    def test_delay_adds_wire_time_to_latency(self):
        network = SimNetworkParams(
            one_way_latency=0.001, bandwidth=1000.0, per_message_overhead=0
        )
        # 500 bytes at 1000 B/s = 0.5 s on the wire.
        assert network.message_delay(500) == pytest.approx(0.501)

    def test_overhead_is_sent_with_every_message(self):
        network = SimNetworkParams(
            one_way_latency=0.0, bandwidth=100.0, per_message_overhead=50
        )
        assert network.message_delay(0) == pytest.approx(0.5)


class TestTransactionTrace:
    def test_cpu_demand_sums(self):
        trace = TransactionTrace(
            "t",
            (
                Stage(StageKind.APP_CPU, 0.001),
                Stage(StageKind.DB_CPU, 0.002),
                Stage(StageKind.APP_CPU, 0.003),
            ),
        )
        assert trace.app_cpu == pytest.approx(0.004)
        assert trace.db_cpu == pytest.approx(0.002)

    def test_round_trips_counts_to_db_messages(self):
        trace = TransactionTrace(
            "t",
            (
                Stage(StageKind.NET_TO_DB, nbytes=10),
                Stage(StageKind.NET_TO_APP, nbytes=10),
                Stage(StageKind.NET_TO_DB, nbytes=10),
            ),
        )
        assert trace.round_trips == 2

    def test_unloaded_latency(self):
        network = SimNetworkParams(
            one_way_latency=0.001, per_message_overhead=0,
            bandwidth=1e12,
        )
        trace = TransactionTrace(
            "t",
            (
                Stage(StageKind.APP_CPU, 0.005),
                Stage(StageKind.NET_TO_DB, nbytes=0),
                Stage(StageKind.DB_CPU, 0.002),
                Stage(StageKind.NET_TO_APP, nbytes=0),
            ),
        )
        assert trace.unloaded_latency(network) == pytest.approx(0.009)


class TestQueueingSimulator:
    def test_light_load_latency_matches_unloaded(self):
        trace = cpu_trace(db=0.001)
        sim = QueueingSimulator(db_cores=16)
        result = sim.run(trace, rate=10, duration=30)
        assert result.mean_latency == pytest.approx(0.001, rel=0.05)

    def test_throughput_matches_offered_when_underloaded(self):
        trace = cpu_trace(db=0.001)
        sim = QueueingSimulator(db_cores=16)
        result = sim.run(trace, rate=100, duration=60)
        assert result.throughput == pytest.approx(100, rel=0.15)

    def test_utilization_law(self):
        # U = lambda * service_time / cores (within stochastic noise).
        service = 0.004
        rate = 1000.0
        cores = 8
        sim = QueueingSimulator(db_cores=cores)
        result = sim.run(cpu_trace(db=service), rate=rate, duration=60)
        expected = rate * service / cores
        assert result.db_utilization == pytest.approx(expected, rel=0.1)

    def test_overload_inflates_latency(self):
        trace = cpu_trace(db=0.01)
        sim_low = QueueingSimulator(db_cores=2)
        low = sim_low.run(trace, rate=50, duration=30)
        sim_high = QueueingSimulator(db_cores=2)
        high = sim_high.run(trace, rate=300, duration=30)
        assert high.mean_latency > 5 * low.mean_latency

    def test_network_stage_bytes_counted(self):
        trace = TransactionTrace(
            "t",
            (
                Stage(StageKind.NET_TO_DB, nbytes=1000),
                Stage(StageKind.NET_TO_APP, nbytes=500),
            ),
        )
        sim = QueueingSimulator()
        result = sim.run(trace, rate=10, duration=10)
        assert result.bytes_to_db > result.bytes_to_app
        assert result.messages == 2 * result.completed

    def test_deterministic_given_seed(self):
        trace = cpu_trace(app=0.001, db=0.002)
        r1 = QueueingSimulator(seed=5).run(trace, rate=100, duration=10)
        r2 = QueueingSimulator(seed=5).run(trace, rate=100, duration=10)
        assert r1.latencies == r2.latencies

    def test_different_seeds_differ(self):
        trace = cpu_trace(db=0.002)
        r1 = QueueingSimulator(seed=1).run(trace, rate=100, duration=10)
        r2 = QueueingSimulator(seed=2).run(trace, rate=100, duration=10)
        assert r1.latencies != r2.latencies

    def test_invalid_rate_and_duration(self):
        sim = QueueingSimulator()
        with pytest.raises(ValueError):
            sim.run(cpu_trace(db=0.001), rate=0, duration=10)
        with pytest.raises(ValueError):
            sim.run(cpu_trace(db=0.001), rate=10, duration=0)

    def test_external_load_reserves_cores(self):
        trace = cpu_trace(db=0.01)
        sim = QueueingSimulator(db_cores=4)
        sim.set_db_external_load(0.75)  # one core left
        result = sim.run(trace, rate=150, duration=30)
        # 150/s * 10ms = 1.5 core demand > 1 free core: overload.
        assert result.mean_latency > 0.05

    def test_trace_selector_called(self):
        fast = cpu_trace(db=0.001, name="fast")
        slow = cpu_trace(db=0.004, name="slow")
        chosen = []

        def selector(now, sim):
            trace = fast if len(chosen) % 2 == 0 else slow
            chosen.append(trace.name)
            return trace

        sim = QueueingSimulator()
        result = sim.run(selector, rate=50, duration=20)
        names = {name for _, name in result.trace_names}
        assert names == {"fast", "slow"}


class TestLockGroups:
    def test_lock_contention_caps_throughput(self):
        # One hot row, 10ms per transaction: at most ~100/s complete.
        trace = TransactionTrace(
            "locked", (Stage(StageKind.DB_CPU, 0.01),), lock_groups=1
        )
        sim = QueueingSimulator(db_cores=16)
        result = sim.run(trace, rate=500, duration=20)
        assert result.throughput < 120

    def test_more_groups_raise_cap(self):
        def run(groups):
            trace = TransactionTrace(
                "locked", (Stage(StageKind.DB_CPU, 0.01),),
                lock_groups=groups,
            )
            sim = QueueingSimulator(db_cores=16)
            return sim.run(trace, rate=400, duration=20).throughput

        assert run(8) > 2 * run(1)

    def test_no_groups_unconstrained(self):
        trace = cpu_trace(db=0.001)
        sim = QueueingSimulator(db_cores=16)
        result = sim.run(trace, rate=500, duration=20)
        assert result.throughput == pytest.approx(500, rel=0.15)


class TestSimResult:
    def test_latency_buckets(self):
        trace = cpu_trace(db=0.001)
        sim = QueueingSimulator()
        result = sim.run(trace, rate=100, duration=20)
        buckets = result.latency_buckets(5.0)
        assert len(buckets) >= 3
        for _, latency in buckets:
            assert latency > 0

    def test_trace_mix_fractions_sum_to_one(self):
        traces = [cpu_trace(db=0.001, name="a"), cpu_trace(db=0.001, name="b")]
        sim = QueueingSimulator()
        result = sim.run(traces, rate=200, duration=10)
        for _, fractions in result.trace_mix(2.0):
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_percentiles_ordered(self):
        trace = cpu_trace(db=0.002)
        sim = QueueingSimulator(db_cores=1)
        result = sim.run(trace, rate=300, duration=10)
        assert result.percentile(50) <= result.percentile(95)
        assert result.percentile(95) <= result.percentile(99)


class TestEdgeCases:
    """Config validation, degenerate traces, event-order determinism."""

    def test_zero_core_config_rejected(self):
        with pytest.raises(ValueError, match="at least one core"):
            QueueingSimulator(app_cores=0)
        with pytest.raises(ValueError, match="at least one core"):
            QueueingSimulator(db_cores=0)
        with pytest.raises(ValueError, match="at least one core"):
            CorePool("app", 0)
        with pytest.raises(ValueError, match="at least one core"):
            CorePool("db", -3)

    def test_empty_trace_replays_with_zero_latency(self):
        # A trace with no stages completes the instant it arrives.
        trace = TransactionTrace("empty", ())
        sim = QueueingSimulator()
        result = sim.run(trace, rate=50, duration=10)
        assert result.completed > 0
        assert result.throughput == pytest.approx(50, rel=0.2)
        assert all(latency == 0.0 for latency in result.latencies)
        assert result.messages == 0
        assert result.db_utilization == 0.0

    def test_simultaneous_events_processed_in_scheduling_order(self):
        # Two zero-duration stages scheduled at the same virtual time
        # must run FIFO: arrivals complete in arrival order, every run.
        trace = TransactionTrace("zero", (Stage(StageKind.APP_CPU, 0.0),))
        sim = QueueingSimulator(seed=9)
        result = sim.run(trace, rate=200, duration=5)
        completions = [when for when, _ in result.samples]
        assert completions == sorted(completions)
        repeat = QueueingSimulator(seed=9).run(trace, rate=200, duration=5)
        assert [s for s in repeat.samples] == result.samples

    def test_mixed_trace_tie_order_deterministic(self):
        fast = TransactionTrace("fast", (Stage(StageKind.DB_CPU, 0.001),))
        slow = TransactionTrace(
            "slow",
            (Stage(StageKind.APP_CPU, 0.002), Stage(StageKind.DB_CPU, 0.003)),
        )
        runs = [
            QueueingSimulator(seed=4).run([fast, slow], rate=300, duration=5)
            for _ in range(2)
        ]
        assert runs[0].trace_names == runs[1].trace_names
        assert runs[0].latencies == runs[1].latencies


class _BareWalker(StageWalker):
    """The walk alone: transactions started by hand, completions logged."""

    def __init__(self, app_cores=1, db_cores=1):
        super().__init__(None, app_cores, db_cores)
        self.done = []

    def start(self, trace):
        txn = Txn(self.now, self._txn_key())
        txn.trace = trace
        txn.walk = trace.walk(self.network, len(self.dbs)).steps
        self.step(txn)
        return txn

    def _complete(self, txn):
        self.done.append((txn.trace.name, self.now))


class TestCorePool:
    def test_a_busy_core_queues_and_its_free_time_starts_the_waiter(self):
        walker = _BareWalker(app_cores=1)
        pool = walker.app
        walker.start(cpu_trace(app=1.0, name="a"))
        second = walker.start(cpu_trace(app=1.0, name="b"))
        assert pool.free == [1.0] and list(pool.queue) == [(second, 1.0)]
        walker.loop.run()
        assert walker.done == [("a", 1.0), ("b", 2.0)]
        assert pool.free == [2.0] and not pool.queue
        assert pool.utilization(2.0) == 1.0

    def test_drain_starts_waiters_when_the_reservation_shrinks(self):
        walker = _BareWalker(db_cores=2)
        walker.set_db_external_load(0.5)
        walker.start(cpu_trace(db=1.0, name="a"))
        walker.start(cpu_trace(db=1.0, name="b"))
        assert len(walker.db.queue) == 1
        walker.set_db_external_load(0.0)
        assert not walker.db.queue
        walker.loop.run()
        assert walker.done == [("a", 1.0), ("b", 1.0)]

    def test_reservation_shrinks_capacity(self):
        pool = CorePool("db", 4)
        pool.set_reserved(0.0, 3)
        assert len(pool.free) == 1
        # Reservation can never take the last core.
        pool.set_reserved(0.0, 99)
        assert len(pool.free) == 1

    def test_reservation_takes_the_soonest_free_cores_and_returns_the_latest(
        self,
    ):
        pool = CorePool("db", 4)
        pool.free[:] = [1.0, 2.0, 3.0, 4.0]  # a heap already
        pool.set_reserved(0.0, 2)
        assert (pool.held, sorted(pool.free)) == ([1.0, 2.0], [3.0, 4.0])
        pool.set_reserved(0.0, 1)
        assert (pool.held, sorted(pool.free)) == ([1.0], [2.0, 3.0, 4.0])

    def test_busy_time_is_work_started_less_work_ahead_plus_reserved(self):
        walker = _BareWalker(db_cores=2)
        pool = walker.db
        walker.start(cpu_trace(db=1.0))
        # Half of one core's second is still ahead at t=0.5.
        assert pool.utilization(0.5) == 0.5 / (2 * 0.5)
        walker.loop.run()
        assert pool.utilization(2.0) == 1.0 / (2 * 2.0)
        pool.set_reserved(2.0, 1)
        assert pool.utilization(3.0) == (1.0 + 1.0) / (2 * 3.0)


class TestWalkKeys:
    def test_walk_events_at_one_instant_run_in_txn_order_however_pushed(
        self,
    ):
        def run(order):
            walker = _BareWalker(db_cores=1)
            txns = []
            for name, seconds in (("a", 1.0), ("b", 2.0)):
                txn = Txn(0.0, walker._txn_key())
                txn.trace = cpu_trace(db=seconds, name=name)
                txn.walk = txn.trace.walk(walker.network, 1).steps
                txns.append(txn)
            for i in order:
                heappush(walker.loop._heap,
                         [0.5, txns[i].key, walker._step, (txns[i],)])
            seen = []
            # Scheduled after them, and still run before them.
            walker.loop.schedule_at(
                0.5, lambda: seen.append(list(walker.db.free))
            )
            walker.loop.run()
            return walker.done, seen

        done = [("a", 1.5), ("b", 3.5)]
        assert run([0, 1]) == run([1, 0]) == (done, [[0.0]])

    def test_a_wake_runs_before_the_walk_events_at_its_instant(self):
        walker = _BareWalker(app_cores=1)
        # The waiter is made first, so its walk key is the lower one.
        waiter = Txn(0.0, walker._txn_key())
        waiter.trace = TransactionTrace("w", (Stage(StageKind.APP_CPU),))
        waiter.walk = waiter.trace.walk(walker.network, 1).steps
        walker.start(cpu_trace(app=1.0, name="a"))
        walker.loop.schedule_at(0.5, walker.step, waiter)
        walker.loop.run()
        # At 1.0 the wake starts the waiter's zero-second stage, whose
        # end then sorts before a's.
        assert walker.done == [("w", 1.0), ("a", 1.0)]

    def test_an_uncontended_walk_costs_one_event_per_cpu_stage(self):
        stages = []
        for kind in (StageKind.APP_CPU, StageKind.DB_CPU) * 2 + (
            StageKind.APP_CPU,
        ):
            stages += [Stage(kind, 0.001),
                       Stage(StageKind.NET_TO_DB, nbytes=100)]
        trace = TransactionTrace("k5", tuple(stages))
        walker = _BareWalker()
        walker.start(trace)
        # Four arrivals at a CPU stage after the first, and the end.
        assert walker.loop.run() == 5
        assert walker.done == [
            ("k5", trace.unloaded_latency(walker.network))
        ]

    def test_a_stage_that_queues_adds_one_wake(self):
        walker = _BareWalker(db_cores=1)
        for name in ("a", "b"):
            walker.start(cpu_trace(db=1.0, name=name))
        # Two ends, and the wake at 1.0 that starts b.
        assert walker.loop.run() == 3
        assert walker.done == [("a", 1.0), ("b", 2.0)]


def _round_trip(name="rt", shard=0):
    return TransactionTrace(name, (
        Stage(StageKind.APP_CPU, 0.001),
        Stage(StageKind.NET_TO_DB, nbytes=100),
        Stage(StageKind.DB_CPU, 0.002, shard=shard),
        Stage(StageKind.NET_TO_APP, nbytes=300),
    ))


class TestWalk:
    """A trace is decoded once per (network, DB server count), outside
    the per-event path, and kept on the trace."""

    @pytest.fixture
    def builds(self, monkeypatch):
        made = []
        walk_type = queueing.Walk

        def counting_walk(*fields):
            made.append(fields)
            return walk_type(*fields)

        monkeypatch.setattr(queueing, "Walk", counting_walk)
        return made

    def test_built_once_per_key_across_replays(self, builds):
        trace = _round_trip()
        for seed in (1, 2):
            result = QueueingSimulator(seed=seed).run(
                trace, rate=200, duration=5
            )
            assert result.completed > 500
        assert len(builds) == 1
        assert list(trace.walks) == [(SimNetworkParams(), 1)]

    def test_built_once_per_key_by_the_serve_engine(self, builds):
        from repro.serve.engine import ServeConfig, ServeEngine
        from repro.serve.workload import TraceWorkload

        trace = _round_trip(shard=3)
        config = ServeConfig(db_shards=2, think_time=0.001, seed=3)
        for _ in range(2):
            engine = ServeEngine(TraceWorkload([[trace]]), config=config)
            assert engine.run(clients=4, duration=1.0).completed > 500
        assert len(builds) == 1
        (key, walk), = trace.walks.items()
        assert key == (SimNetworkParams(), 2)
        assert walk.steps[2] == (0, 0.002)  # shard 3 clamped to server 0

    def test_each_network_gets_its_own_walk(self):
        trace = _round_trip(shard=1)
        near = SimNetworkParams(one_way_latency=0.0005)
        far = SimNetworkParams(one_way_latency=0.002, per_message_overhead=0)
        for network in (near, far):
            walk = trace.walk(network, 2)
            assert walk.steps == (
                (-1, 0.001),
                (None, network.message_delay(100)),
                (1, 0.002),
                (None, network.message_delay(300)),
            )
            overhead = network.per_message_overhead
            assert (walk.bytes_to_db, walk.bytes_to_app, walk.messages) == (
                100 + overhead, 300 + overhead, 2,
            )
            assert trace.walk(network, 2) is walk
        assert trace.walk(near, 1).steps[2] == (0, 0.002)
        assert set(trace.walks) == {(near, 2), (far, 2), (near, 1)}

    def test_finish_trace_allocates_no_walk(self):
        cluster = Cluster()
        cluster.start_trace()
        cluster.record_cpu("app", 0.001)
        cluster.record_message(64, to_db=True)
        trace = cluster.finish_trace("live")
        assert trace.walks is None
        # The memo is no part of a trace's value.
        twin = TransactionTrace("live", trace.stages)
        twin.walk(SimNetworkParams(), 1)
        assert twin == trace and repr(twin) == repr(trace)


class TestLockTable:
    def test_fifo_handoff(self):
        locks = LockTable()
        order = []
        locks.acquire(1, lambda: order.append("first"))
        locks.acquire(1, lambda: order.append("second"))
        locks.acquire(1, lambda: order.append("third"))
        assert order == ["first"]
        assert locks.held == 1
        assert locks.waiting == 2
        locks.release(1)
        locks.release(1)
        assert order == ["first", "second", "third"]

    def test_distinct_groups_independent(self):
        locks = LockTable()
        order = []
        locks.acquire(1, lambda: order.append("g1"))
        locks.acquire(2, lambda: order.append("g2"))
        assert order == ["g1", "g2"]
