"""Cluster trace recording."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.network import NetworkPartitionedError
from repro.sim.queueing import StageKind


class TestClusterBasics:
    def test_default_paper_configuration(self):
        cluster = Cluster()
        assert cluster.app.cores == 8
        assert cluster.db.cores == 16
        assert cluster.network.round_trip_latency == pytest.approx(0.002)

    def test_server_lookup(self):
        cluster = Cluster()
        assert cluster.server("app") is cluster.app
        assert cluster.server("db") is cluster.db
        with pytest.raises(KeyError):
            cluster.server("other")


class TestTraceRecording:
    def test_consecutive_cpu_merges_into_one_stage(self):
        cluster = Cluster()
        cluster.start_trace()
        cluster.record_cpu("app", 0.001)
        cluster.record_cpu("app", 0.002)
        trace = cluster.finish_trace("t")
        assert len(trace.stages) == 1
        assert trace.stages[0].duration == pytest.approx(0.003)

    def test_side_switch_creates_new_stage(self):
        cluster = Cluster()
        cluster.start_trace()
        cluster.record_cpu("app", 0.001)
        cluster.record_cpu("db", 0.002)
        cluster.record_cpu("app", 0.001)
        trace = cluster.finish_trace("t")
        kinds = [s.kind for s in trace.stages]
        assert kinds == [
            StageKind.APP_CPU, StageKind.DB_CPU, StageKind.APP_CPU,
        ]

    def test_messages_interleave_with_cpu(self):
        cluster = Cluster()
        cluster.start_trace()
        cluster.record_cpu("app", 0.001)
        cluster.record_message(100, to_db=True)
        cluster.record_cpu("db", 0.002)
        cluster.record_message(200, to_db=False)
        trace = cluster.finish_trace("t")
        kinds = [s.kind for s in trace.stages]
        assert kinds == [
            StageKind.APP_CPU,
            StageKind.NET_TO_DB,
            StageKind.DB_CPU,
            StageKind.NET_TO_APP,
        ]
        assert trace.round_trips == 1

    def test_clock_advances_for_cpu_and_network(self):
        cluster = Cluster()
        cluster.start_trace()
        cluster.record_cpu("app", 0.005)
        cluster.record_message(0, to_db=True)
        cluster.finish_trace("t")
        assert cluster.clock.now > 0.005

    def test_pending_cpu_flushed_by_finish(self):
        cluster = Cluster()
        cluster.start_trace()
        cluster.record_cpu("db", 0.004)
        before = cluster.clock.now
        trace = cluster.finish_trace("t")
        assert cluster.clock.now == pytest.approx(before + 0.004)
        assert trace.db_cpu == pytest.approx(0.004)

    def test_trace_isolated_between_runs(self):
        cluster = Cluster()
        cluster.start_trace()
        cluster.record_cpu("app", 0.001)
        first = cluster.finish_trace("first")
        cluster.start_trace()
        cluster.record_cpu("db", 0.002)
        second = cluster.finish_trace("second")
        assert len(first.stages) == 1
        assert len(second.stages) == 1
        assert second.stages[0].kind is StageKind.DB_CPU

    def test_negative_cpu_rejected(self):
        cluster = Cluster()
        with pytest.raises(ValueError):
            cluster.record_cpu("app", -0.001)

    def test_network_stats_accumulate(self):
        cluster = Cluster()
        cluster.record_message(100, to_db=True)
        cluster.record_message(50, to_db=False)
        assert cluster.network.total_messages() == 2

    def test_reset(self):
        cluster = Cluster()
        cluster.record_cpu("app", 0.001)
        cluster.record_message(10, to_db=True)
        cluster.reset()
        assert cluster.clock.now == 0.0
        assert cluster.network.total_messages() == 0

    def test_custom_config(self):
        config = ClusterConfig(app_cores=2, db_cores=3, one_way_latency=0.01)
        cluster = Cluster(config)
        assert cluster.db.cores == 3
        delay = cluster.record_message(0, to_db=True)
        assert delay >= 0.01


# ---------------------------------------------------------------------------
# The recorder's invariants under arbitrary call sequences
# ---------------------------------------------------------------------------

SHARDS = 3
# Every quantity is a dyadic rational (charges in 2**-20 s, slowdowns
# powers of two, a network whose delays are multiples of 2**-20 s), so
# float sums are exact in any order and the checks can use ==.
TICK = 2.0 ** -20
recorder_ops = st.lists(
    st.one_of(
        st.tuples(st.just("cpu"),
                  st.sampled_from(["app", "db", "db0", "db1", "db2"]),
                  st.integers(0, 4000)),
        st.tuples(st.just("message"), st.integers(0, 5000), st.booleans()),
        st.tuples(st.just("shard"), st.integers(0, SHARDS - 1)),
        st.tuples(st.just("slow"), st.integers(0, SHARDS - 1),
                  st.sampled_from([0.5, 1.0, 2.0, 4.0])),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(recorder_ops)
def test_recorder_invariants(ops):
    cluster = Cluster(ClusterConfig(
        db_shards=SHARDS, one_way_latency=64 * TICK,
        bandwidth=2.0 ** 20, per_message_overhead=64,
    ))
    cluster.start_trace()
    charged = {}          # (kind, shard) -> seconds, slowdown applied
    messages = []         # (kind, nbytes) in order
    delays = 0.0
    shard, slow = 0, {}
    for op in ops:
        if op[0] == "cpu":
            _, server, ticks = op
            if server == "app":
                key, factor = (StageKind.APP_CPU, 0), 1.0
            else:
                target = shard if server == "db" else int(server[2:])
                key, factor = (StageKind.DB_CPU, target), slow.get(target, 1.0)
            cluster.record_cpu(server, ticks * TICK)
            charged[key] = charged.get(key, 0.0) + ticks * TICK * factor
        elif op[0] == "message":
            _, nbytes, to_db = op
            delays += cluster.record_message(nbytes, to_db=to_db)
            messages.append((
                StageKind.NET_TO_DB if to_db else StageKind.NET_TO_APP, nbytes,
            ))
        elif op[0] == "shard":
            shard = op[1]
            cluster.set_statement_shard(shard)
        else:
            _, target, factor = op
            slow[target] = factor
            cluster.set_shard_slowdown(target, factor)
    stages = cluster.finish_trace("t").stages

    for first, second in zip(stages, stages[1:]):
        if first.is_cpu and second.is_cpu:
            assert (first.kind, first.shard) != (second.kind, second.shard)
    recorded = {}
    for stage in stages:
        if stage.is_cpu:
            assert stage.duration > 0
            key = (stage.kind, stage.shard)
            recorded[key] = recorded.get(key, 0.0) + stage.duration
    assert recorded == {k: v for k, v in charged.items() if v}
    assert [(s.kind, s.nbytes) for s in stages if s.is_network] == messages
    assert cluster.clock.now == sum(recorded.values()) + delays


# ---------------------------------------------------------------------------
# A message that carries its sender's CPU
# ---------------------------------------------------------------------------

charge_ops = st.lists(
    st.one_of(
        st.tuples(st.just("cpu"), st.sampled_from(["app", "db", "db1"]),
                  st.floats(0.0, 1e-3)),
        st.tuples(
            st.just("message"), st.integers(0, 5000), st.booleans(),
            st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e-4, 1e-3)),
        ),
        st.tuples(st.just("shard"), st.integers(0, SHARDS - 1)),
        st.tuples(st.just("slow"), st.integers(0, SHARDS - 1),
                  st.sampled_from([1.0, 1.5, 3.0])),
        st.tuples(st.just("link"), st.booleans(), st.booleans()),
    ),
    max_size=60,
)


def _apply(cluster, op, fused):
    """One op; returns the class of the exception it raised, if any."""
    try:
        if op[0] == "cpu":
            cluster.record_cpu(op[1], op[2])
        elif op[0] == "message":
            _, nbytes, to_db, cpu = op
            if fused:
                cluster.record_message(nbytes, to_db=to_db, cpu=cpu)
            else:
                cluster.record_cpu("app" if to_db else "db", cpu)
                cluster.record_message(nbytes, to_db=to_db)
        elif op[0] == "shard":
            cluster.set_statement_shard(op[1])
        elif op[0] == "slow":
            cluster.set_shard_slowdown(op[1], op[2])
        else:
            cluster.network.set_link_down(op[1], to_db=True, to_app=False)
            cluster.network.set_link_down(op[2], to_db=False, to_app=True)
    except (ValueError, NetworkPartitionedError) as exc:
        return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(charge_ops)
def test_message_cpu_equals_record_cpu_then_message(ops):
    """``record_message(..., cpu=s)`` is ``record_cpu`` on the sending
    side followed by the message: same errors at the same step, same
    stages, clock and per-direction network counters (dropped messages
    included) -- compared exactly, since both do the same float
    additions in the same order."""
    config = ClusterConfig(db_shards=SHARDS)
    fused, split = Cluster(config), Cluster(config)
    fused.start_trace()
    split.start_trace()
    for op in ops:
        assert _apply(fused, op, True) == _apply(split, op, False), op
        assert fused.clock.now == split.clock.now
        assert fused._stages == split._stages  # noqa: SLF001
    assert fused.finish_trace("t") == split.finish_trace("t")
    assert fused.clock.now == split.clock.now
    assert fused.network.app_to_db == split.network.app_to_db
    assert fused.network.db_to_app == split.network.db_to_app


def test_partitioned_reply_keeps_its_flushed_cpu():
    cluster = Cluster()
    cluster.start_trace()
    cluster.network.set_link_down(True, to_db=False, to_app=True)
    with pytest.raises(NetworkPartitionedError):
        cluster.record_message(10, to_db=False, cpu=0.004)
    assert cluster.network.db_to_app.dropped == 1
    # The next charge on that side extends the flushed stage.
    cluster.record_cpu("db", 0.001)
    stages = cluster.finish_trace("t").stages
    assert [s.kind for s in stages] == [StageKind.DB_CPU]
    assert stages[0].duration == 0.004 + 0.001


def test_negative_message_cpu_changes_nothing():
    cluster = Cluster()
    cluster.start_trace()
    cluster.record_cpu("app", 0.001)
    with pytest.raises(ValueError):
        cluster.record_message(10, to_db=True, cpu=-0.001)
    assert cluster.clock.now == 0.0
    assert cluster.network.total_messages() == 0
    assert cluster.finish_trace("t").app_cpu == 0.001
