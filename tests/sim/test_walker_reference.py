"""The stage walk against a reference walker, on random trace sets.

``StageWalker.step`` does in one frame per event what four methods and
``CorePool.acquire`` / ``release`` did before it.  Those are kept here,
copied unchanged from the walker they replaced, as an oracle mixin,
with two deviations: the simulators enter it through ``step``, and it
reads the stages from ``txn.trace`` (a ``Txn`` no longer carries
them).  Both walkers then
run the same random trace sets -- zero-duration stages (ties), DB shard
indexes past the server count (the clamp), lock groups, empty traces --
open-loop through ``QueueingSimulator`` and closed-loop through
``ServeEngine`` with crash / slowdown / external-load changes mid-run
and every transaction traced.  Every result field, the loop's final
``seq`` and the exported spans must be equal: "bit-identical" is
checked against the replaced code, not only against the goldens'
fixed scenarios.
"""

from collections import Counter
from typing import Callable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import render_chrome_trace
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

_APP_CPU = StageKind.APP_CPU
_DB_CPU = StageKind.DB_CPU
_NET_TO_DB = StageKind.NET_TO_DB
_NET_TO_APP = StageKind.NET_TO_APP


# -- the oracle: the replaced walk, unchanged ----------------------------------


class ReferenceCorePool(CorePool):
    def acquire(self, now: float, work: Callable[..., None], *args) -> None:
        """Run ``work(*args)`` on a free core now, or queue it FCFS."""
        if self.busy < self.available:
            self.busy_time += (self.busy + self.reserved) * (
                now - self._last_change
            )
            self._last_change = now
            self.busy += 1
            work(*args)
        else:
            self.queue.append((work, args))

    def release(self, now: float) -> None:
        """Free one core and start queued work that now fits."""
        self.busy_time += (self.busy + self.reserved) * (now - self._last_change)
        self._last_change = now
        self.busy -= 1
        if self.queue:
            self.drain(now)


class ReferenceWalk:
    """Mixin over a simulator: the four step methods it replaced."""

    def _use_reference_pools(self) -> None:
        for pool in (self.app, *self.dbs):
            pool.__class__ = ReferenceCorePool

    def step(self, txn: Txn) -> None:
        # The simulators start a transaction with step(); the oracle's
        # entry point was advance().
        self.advance(txn)

    def advance(self, txn: Txn) -> None:
        """Start the transaction's next stage, or finish it."""
        index = txn.index
        stages = txn.trace.stages  # was: txn.stages
        if index >= len(stages):
            group = txn.lock_group
            if group is not None:
                self._lock_table_for(group).release(group)
            self._complete(txn)
            return
        txn.index = index + 1
        kind, duration, nbytes, shard = stages[index]
        track = txn.track
        if kind is _APP_CPU:
            pool = self.app
            if track is not None:
                txn.span = self.tracer.span(
                    "stage.app_cpu", parent=txn.root, track=track
                )
        elif kind is _DB_CPU:
            dbs = self.dbs
            server = shard if shard < len(dbs) else 0
            if self.shard_down[server]:
                self._abort(txn)
                return
            pool = dbs[server]
            duration *= self.shard_slowdowns[server]
            if track is not None:
                txn.span = self.tracer.span(
                    "stage.db_cpu", parent=txn.root, track=track, shard=shard
                )
        else:
            if track is not None:
                txn.span = self.tracer.span(
                    "stage.net", parent=txn.root, track=track, nbytes=nbytes
                )
            self.loop.schedule(
                self.network.message_delay(nbytes), self.after_net, txn
            )
            return
        txn.pool = pool
        txn.duration = duration
        pool.acquire(self.loop.clock._now, self.occupy, txn)

    def occupy(self, txn: Txn) -> None:
        """A core is free: hold it for the stage's duration."""
        self.loop.schedule(txn.duration, self.finish_cpu, txn)

    def finish_cpu(self, txn: Txn) -> None:
        if txn.track is not None:
            txn.span.finish()
        # Release first: a waiter this starts schedules its finish
        # before this transaction's next stage is scheduled.
        txn.pool.release(self.loop.clock._now)
        self.advance(txn)

    def after_net(self, txn: Txn) -> None:
        if txn.track is not None:
            txn.span.finish()
        self.advance(txn)


class ReferenceSimulator(ReferenceWalk, QueueingSimulator):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._use_reference_pools()

    def _arrive(self, selector, rate: float, horizon: float) -> None:
        # The arrival that counted messages stage by stage (the one
        # deviation: no txn.stages to set).
        now = self.now
        if now >= horizon:
            return
        # rng order is part of the model: selection, the lock group,
        # then the next inter-arrival gap.
        trace = selector(now, self)
        txn = Txn(now)
        txn.trace = trace
        # Every arrival runs to completion (the run drains), so its
        # messages are counted up front rather than stage by stage.
        result = self._result
        overhead = self.network.per_message_overhead
        for kind, _, nbytes, _ in trace.stages:
            if kind is _NET_TO_DB:
                result.bytes_to_db += nbytes + overhead
            elif kind is _NET_TO_APP:
                result.bytes_to_app += nbytes + overhead
            else:
                continue
            result.messages += 1
        if trace.lock_groups:
            group = txn.lock_group = self.rng.randrange(trace.lock_groups)
            self.locks.acquire(group, self.advance, txn)
        else:
            self.advance(txn)
        self.loop.schedule(
            self.rng.expovariate(rate), self._arrive, selector, rate, horizon
        )


class ReferenceEngine(ReferenceWalk, ServeEngine):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._use_reference_pools()


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
    @settings(max_examples=60, deadline=None)
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
        render_chrome_trace(engine.tracer),
    )


class TestClosedLoop:
    @settings(max_examples=40, deadline=None)
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
