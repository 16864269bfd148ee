"""The stage walk against a reference walker, on random trace sets.

The reference is the per-stage walk: one event per stage, each keyed by
(transaction, stage), with cores released lazily and a run queue's
waiters started by its wake.  Its ``set_db_external_load``, ``step``,
``_arm`` and ``_wake`` are kept here unchanged as an oracle mixin.
Both walkers run the same random trace sets -- zero-duration stages
(ties), DB shard indexes past the server count (the clamp), lock
groups, empty traces -- open-loop through ``QueueingSimulator`` and
closed-loop through ``ServeEngine`` with crash / slowdown /
external-load changes mid-run and every transaction traced.  Every
result field, the loop's final ``seq`` and the spans must be equal;
the spans as a multiset, since their ids follow creation order.
"""

from collections import Counter
from heapq import heappush, heapreplace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.controller import AdaptiveController
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.workload import TraceWorkload
from repro.sim.queueing import (
    CorePool,
    QueueingSimulator,
    SimNetworkParams,
    Stage,
    StageKind,
    TransactionTrace,
    Txn,
)
from tests.conftest import examples, span_multiset

_APP_CPU = StageKind.APP_CPU
_DB_CPU = StageKind.DB_CPU
_NET_TO_DB = StageKind.NET_TO_DB
_NET_TO_APP = StageKind.NET_TO_APP


# -- the oracle: the per-stage walk, unchanged -------------------------------


class ReferenceWalk:
    """Mixin over a simulator: the per-stage walk."""

    def set_db_external_load(self, fraction: float) -> None:
        """Reserve a fraction of DB cores for external work, effective
        now (applied uniformly across the shard servers)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("external load fraction must be in [0, 1]")
        now = self.now
        for pool in self.dbs:
            pool.set_reserved(now, int(round(fraction * pool.cores)))
            self._wake(pool)

    def step(self, txn: Txn) -> None:
        """End the stage in progress; start the next, or finish.  The
        core of a finished CPU stage needs no release: it is free once
        the clock reaches its free time."""
        loop = self.loop
        now = loop.clock._now
        span = txn.span
        if span is not None:
            span.finish()
        index = txn.index
        walk = txn.walk
        if index >= len(walk):
            group = txn.lock_group
            if group is not None:
                self._lock_table_for(group).release(group)
            self._complete(txn)
            return
        txn.index = index + 1
        server, delay = walk[index]
        track = txn.track
        if server is None:
            if track is not None:
                txn.span = self.tracer.span(
                    "stage.net", parent=txn.root, track=track,
                    nbytes=txn.trace.stages[index].nbytes,
                )
        else:
            if server < 0:
                pool = self.app
                if track is not None:
                    txn.span = self.tracer.span(
                        "stage.app_cpu", parent=txn.root, track=track
                    )
            elif self.shard_down[server]:
                self._abort(txn)
                return
            else:
                pool = self.dbs[server]
                delay *= self.shard_slowdowns[server]
                if track is not None:
                    txn.span = self.tracer.span(
                        "stage.db_cpu", parent=txn.root, track=track,
                        shard=txn.trace.stages[index].shard,
                    )
            free = pool.free
            if pool.queue or free[0] > now:
                pool.queue.append((txn, delay))
                if pool.wake is None:
                    self._arm(pool)
                return
            heapreplace(free, now + delay)
            pool.assigned += delay
        heappush(
            loop._heap, [now + delay, txn.key + index + 1, self._step, (txn,)]
        )

    def _arm(self, pool: CorePool) -> None:
        """Push ``pool``'s one pending wake, at its soonest free time."""
        key = self._next_wake
        self._next_wake = key + 1
        pool.wake = wake = [pool.free[0], key, self._wake_action, (pool,)]
        heappush(self.loop._heap, wake)

    def _wake(self, pool: CorePool) -> None:
        """Start ``pool``'s waiting stages, FIFO, while a core is free;
        while any still wait, keep one wake pending."""
        wake = pool.wake
        if wake is not None:
            wake[2] = None  # fired, or superseded by this call
            pool.wake = None
        loop = self.loop
        now = loop.clock._now
        queue = pool.queue
        free = pool.free
        while queue and free[0] <= now:
            txn, seconds = queue.popleft()
            heapreplace(free, now + seconds)
            pool.assigned += seconds
            heappush(
                loop._heap,
                [now + seconds, txn.key + txn.index, self._step, (txn,)],
            )
        if queue:
            self._arm(pool)


class ReferenceSimulator(ReferenceWalk, QueueingSimulator):
    pass


class ReferenceEngine(ReferenceWalk, ServeEngine):
    pass


# -- random trace sets -----------------------------------------------------------

# Few distinct durations and sizes, zeros included: most runs tie.
_SECONDS = st.sampled_from([0.0, 0.0, 0.0005, 0.001, 0.001, 0.004])
_NBYTES = st.sampled_from([0, 0, 120, 4000])
_STAGE = st.one_of(
    st.builds(Stage, st.just(_APP_CPU), _SECONDS),
    st.builds(
        lambda seconds, shard: Stage(_DB_CPU, seconds, shard=shard),
        _SECONDS, st.integers(0, 3),  # past the server count: clamped
    ),
    st.builds(lambda n: Stage(_NET_TO_DB, nbytes=n), _NBYTES),
    st.builds(lambda n: Stage(_NET_TO_APP, nbytes=n), _NBYTES),
)
_TRACE = st.builds(
    TransactionTrace,
    name=st.sampled_from(["a", "b", "c"]),
    stages=st.lists(_STAGE, max_size=7).map(tuple),
    lock_groups=st.sampled_from([None, None, 1, 3]),
)
_TRACES = st.lists(_TRACE, min_size=1, max_size=4)
_NETWORK = st.sampled_from([
    SimNetworkParams(),
    SimNetworkParams(one_way_latency=0.0005),
    # Empty messages take no time at all: more ties.
    SimNetworkParams(one_way_latency=0.0, per_message_overhead=0),
])


def _open_loop(cls, traces, network, cores, rate, seed, load):
    sim = cls(app_cores=cores[0], db_cores=cores[1], network=network,
              seed=seed)
    if load is not None:
        at, fraction = load
        sim.schedule(at, sim.set_db_external_load, fraction)
        sim.schedule(at + 0.1, sim.set_db_external_load, 0.0)
    result = sim.run(traces, rate=rate, duration=0.4)
    return (
        result.completed, result.latencies, result.samples,
        result.trace_names, result.app_utilization, result.db_utilization,
        result.bytes_to_db, result.bytes_to_app, result.messages,
        sim.loop._seq,
    )


class TestOpenLoop:
    @settings(max_examples=examples(60), deadline=None)
    @given(
        traces=_TRACES,
        network=_NETWORK,
        cores=st.tuples(st.integers(1, 3), st.integers(1, 2)),
        rate=st.sampled_from([300.0, 1500.0]),
        seed=st.integers(0, 2**16),
        load=st.none() | st.tuples(
            st.sampled_from([0.05, 0.2]), st.sampled_from([0.5, 1.0])
        ),
    )
    def test_results_equal_the_reference_walk(
        self, traces, network, cores, rate, seed, load
    ):
        args = (traces, network, cores, rate, seed, load)
        assert _open_loop(QueueingSimulator, *args) == _open_loop(
            ReferenceSimulator, *args
        )


# Mid-run changes a closed-loop run may see: (time, method, args).
_CHANGES = st.lists(
    st.tuples(
        st.sampled_from([0.05, 0.1, 0.15, 0.3]),
        st.sampled_from([
            ("crash_shard", (1,)),
            ("crash_shard", (0,)),
            ("set_shard_slowdown", (0, 3.0)),
            ("set_shard_slowdown", (1, 0.5)),
            ("set_shard_slowdown", (0, 1.0)),
            ("set_db_external_load", (0.5,)),
            ("set_db_external_load", (0.0,)),
        ]),
    ),
    max_size=4,
)


def _closed_loop(cls, options, network, cores, seed, think, changes):
    engine = cls(
        TraceWorkload(options),
        AdaptiveController(n_options=len(options), poll_interval=0.05),
        ServeConfig(app_cores=cores[0], db_cores=cores[1], db_shards=2,
                    network=network, think_time=think, seed=seed,
                    retry_backoff=0.01, ramp=0.01, trace_sample=1),
        tracing=True,
    )
    engine.enable_failover(heartbeat=0.05)
    for at, (method, args) in changes:
        engine.schedule(at, getattr(engine, method), *args)
    result = engine.run(clients=6, duration=0.4)
    return (
        result.completed, result.aborted, result.txn_retries,
        result.app_utilization, result.db_utilization,
        result.db_shard_utilization,
        [(s.when, s.latency, s.trace_name, s.client_id, s.option)
         for s in result.samples],
        result.latencies,
        sorted(Counter(s.client_id for s in result.samples).items()),
        [(e.shard, e.crashed_at, e.detected_at, e.promoted_at)
         for e in result.failovers],
        result.controller.switches,
        engine.loop._seq,
        span_multiset(engine.tracer),
    )


class TestClosedLoop:
    @settings(max_examples=examples(40), deadline=None)
    @given(
        options=st.lists(_TRACES, min_size=1, max_size=2),
        network=_NETWORK,
        cores=st.tuples(st.integers(1, 3), st.integers(1, 2)),
        seed=st.integers(0, 2**16),
        think=st.sampled_from([0.001, 0.005]),
        changes=_CHANGES,
    )
    def test_results_and_spans_equal_the_reference_walk(
        self, options, network, cores, seed, think, changes
    ):
        args = (options, network, cores, seed, think, changes)
        assert _closed_loop(ServeEngine, *args) == _closed_loop(
            ReferenceEngine, *args
        )
