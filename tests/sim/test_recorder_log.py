"""The recorder's flat log against the eager recorder it replaced.

``Cluster`` appends numbers to a flat log and a finished trace decodes
it into stages on first read.  The recorder that built a ``Stage`` per
flush and per message is kept below, verbatim, as the oracle: on any
sequence of calls -- shard switches, slowdowns, zero / negative CPU,
negative byte counts -- both must raise the same errors and leave the
same stages and clock.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.cluster import (
    _APP_CPU,
    _APP_SIDE,
    _DB_CPU,
    _NET_TO_APP,
    _NET_TO_DB,
    Cluster,
    ClusterConfig,
    _decode_log,
    _new_stage,
)
from repro.sim.queueing import (
    SimNetworkParams,
    Stage,
    StageKind,
    TransactionTrace,
)


class EagerCluster(Cluster):
    """The replaced recorder: a ``Stage`` per flush and per message."""

    def __init__(self, config=None):
        super().__init__(config)
        self._stages = []

    def record_cpu(self, server: str, seconds: float) -> None:
        """Charge CPU time on ``server`` and extend the current trace."""
        if seconds <= 0:
            if seconds < 0:
                raise ValueError("cannot charge negative CPU time")
            return
        if server == "app":
            side = _APP_SIDE
        else:
            if server == "db":
                side = self._statement_shard
            elif server.startswith("db"):
                side = int(server[2:])
            else:
                raise KeyError(f"unknown server {server!r}")
            if self._shard_slowdowns:
                factor = self._shard_slowdowns.get(side)
                if factor is not None:
                    seconds *= factor
        if side != self._pending_side:
            if self._pending:
                self._flush_cpu()
            self._pending_side = side
        self._pending += seconds

    def _flush_cpu(self) -> None:
        seconds = self._pending
        if not seconds:
            return
        self._pending = 0.0
        side = self._pending_side
        if side == _APP_SIDE:
            kind, shard = _APP_CPU, 0
        else:
            kind, shard = _DB_CPU, side
        # record_cpu refused negative charges, so the clock's and
        # Stage's own re-validation is skipped here and below.
        self.clock._now += seconds  # noqa: SLF001
        stages = self._stages
        # Only a message that failed after its flush (a negative byte
        # count) leaves a CPU stage last; extend it rather than split.
        if stages:
            prev = stages[-1]
            if prev.kind is kind and prev.shard == shard:
                stages[-1] = _new_stage(
                    Stage, (kind, prev.duration + seconds, prev.nbytes, shard)
                )
                return
        stages.append(_new_stage(Stage, (kind, seconds, 0, shard)))

    def record_message(
        self, nbytes: int, *, to_db: bool, cpu: float = 0.0
    ) -> float:
        """Record a one-way message; returns its delivery delay.  ``cpu``
        (a DB reply carries its statement's cost) makes this exactly
        ``record_cpu('app' if to_db else 'db', cpu)`` first, in one frame.
        """
        if cpu:
            if cpu < 0:
                raise ValueError("cannot charge negative CPU time")
            side = _APP_SIDE if to_db else self._statement_shard
            if not to_db and self._shard_slowdowns:
                cpu *= self._shard_slowdowns.get(side, 1.0)  # x * 1.0 == x
            if side != self._pending_side:
                if self._pending:
                    self._flush_cpu()
                self._pending_side = side
            self._pending += cpu
        if self._pending:
            self._flush_cpu()
        if nbytes < 0:
            raise ValueError("cannot send a negative number of bytes")
        delay = self.network.message_delay(nbytes)
        self.clock._now += delay  # noqa: SLF001
        self._stages.append(_new_stage(
            Stage, (_NET_TO_DB if to_db else _NET_TO_APP, 0.0, nbytes, 0)
        ))
        return delay

    def start_trace(self) -> None:
        self._flush_cpu()
        self._stages = []

    def finish_trace(self, name: str) -> TransactionTrace:
        self._flush_cpu()
        trace = TransactionTrace(name=name, stages=tuple(self._stages))
        self._stages = []
        return trace

    def reset(self) -> None:
        super().reset()
        self._stages = []


SHARDS = 3
cpu_seconds = st.one_of(
    st.just(0.0), st.just(-0.0), st.just(5e-324),
    st.floats(-1e-4, 1e-3, allow_nan=False),
)
recorder_calls = st.lists(
    st.one_of(
        st.tuples(st.just("cpu"),
                  st.sampled_from(["app", "db", "db0", "db1", "db2"]),
                  cpu_seconds),
        st.tuples(st.just("message"), st.integers(-3, 5000), st.booleans(),
                  cpu_seconds),
        st.tuples(st.just("shard"), st.integers(0, SHARDS - 1)),
        st.tuples(st.just("slow"), st.integers(0, SHARDS - 1),
                  st.sampled_from([0.5, 1.0, 1.5, 3.0])),
        st.tuples(st.just("finish")),
        st.tuples(st.just("start")),
        st.tuples(st.just("reset")),
    ),
    max_size=60,
)


def _call(cluster, op):
    """Apply one op; returns (its value, the class of what it raised)."""
    try:
        kind = op[0]
        if kind == "cpu":
            return cluster.record_cpu(op[1], op[2]), None
        if kind == "message":
            return cluster.record_message(op[1], to_db=op[2], cpu=op[3]), None
        if kind == "shard":
            return cluster.set_statement_shard(op[1]), None
        if kind == "slow":
            return cluster.set_shard_slowdown(op[1], op[2]), None
        if kind == "finish":
            return cluster.finish_trace("t"), None
        if kind == "start":
            return cluster.start_trace(), None
        return cluster.reset(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def _assert_stages(stages, expected):
    assert stages == expected
    for stage, want in zip(stages, expected):
        assert type(stage) is Stage
        assert stage.kind is want.kind
        assert repr(stage.duration) == repr(want.duration)  # bit-equal


@settings(max_examples=400, deadline=None)
@given(recorder_calls)
# A reply's CPU that a slowdown rounds to zero, after another side's.
@example([("cpu", "app", 1e-3), ("slow", 0, 0.5),
          ("message", 10, False, 5e-324), ("finish",)])
def test_log_recorder_matches_the_eager_recorder(ops):
    config = ClusterConfig(db_shards=SHARDS)
    log, eager = Cluster(config), EagerCluster(config)
    for op in ops:
        got, want = _call(log, op), _call(eager, op)
        assert got[1] == want[1], op
        if isinstance(want[0], TransactionTrace):
            assert type(got[0]) is TransactionTrace
            _assert_stages(got[0].stages, want[0].stages)
            assert got[0] == want[0]
        else:
            assert got[0] == want[0], op
        assert log.clock.now == eager.clock.now, op
        flushed = _decode_log(log._log)  # noqa: SLF001
        _assert_stages(flushed, tuple(eager._stages))  # noqa: SLF001
        assert log._pending == eager._pending  # noqa: SLF001
    _assert_stages(log.finish_trace("end").stages,
                   eager.finish_trace("end").stages)
    assert log.clock.now == eager.clock.now


def _recorded_trace():
    cluster = Cluster()
    cluster.start_trace()
    cluster.record_cpu("app", 0.001)
    cluster.record_message(120, to_db=True)
    cluster.record_message(90, to_db=False, cpu=0.002)
    cluster.record_cpu("app", 0.003)
    return cluster.finish_trace("t")


def test_an_unread_trace_holds_no_stage():
    trace = _recorded_trace()
    assert "stages" not in vars(trace)
    decode, log = trace._log  # noqa: SLF001
    assert decode is _decode_log
    assert [type(entry) for entry in log] == [
        int, float, StageKind, int, int, float, StageKind, int, int, float,
    ]


def test_stages_decode_once():
    trace = _recorded_trace()
    first = trace.stages
    assert trace.stages is first
    assert "_log" not in vars(trace)
    assert [s.kind for s in first] == [
        StageKind.APP_CPU, StageKind.NET_TO_DB, StageKind.DB_CPU,
        StageKind.NET_TO_APP, StageKind.APP_CPU,
    ]


def test_a_decoded_trace_is_an_ordinary_trace():
    trace = _recorded_trace()
    eager = TransactionTrace(name="t", stages=_recorded_trace().stages)
    assert type(trace) is TransactionTrace
    assert trace == eager
    assert repr(_recorded_trace()) == repr(eager)
    assert replace(_recorded_trace(), lock_groups=4) == replace(
        eager, lock_groups=4
    )
    network = SimNetworkParams()
    assert trace.walk(network, 1) is trace.walk(network, 1)
    assert trace.walk(network, 1) == eager.walk(network, 1)


def test_a_failed_send_leaves_consecutive_cpu_that_decodes_merged():
    cluster = Cluster()
    cluster.start_trace()
    cluster.record_cpu("db", 0.25)
    with pytest.raises(ValueError, match="negative number of bytes"):
        cluster.record_message(-1, to_db=False, cpu=0.5)
    cluster.record_cpu("db", 0.125)
    trace = cluster.finish_trace("t")
    assert trace._log[1] == [0, 0.75, 0, 0.125]  # noqa: SLF001
    assert trace.stages == (Stage(StageKind.DB_CPU, 0.75 + 0.125, 0, 0),)
