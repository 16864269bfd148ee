"""Event-driven concurrent serving engine (closed-loop load).

The queueing simulator in :mod:`repro.sim.queueing` replays traces
under *open-loop* Poisson arrivals -- the paper's figure methodology.
This engine models the system the paper actually built: N client
sessions in a closed loop (think, submit, wait for the reply, repeat)
driving the partitioned runtime through per-server multi-core run
queues, row-group locks and an online controller that can switch
partitionings mid-run.  A closed-loop client holds at most one
transaction, so a submission starts at once: there is no session pool
to wait for.

Everything runs on one :class:`~repro.sim.clock.VirtualClock`, so a
"ten minute" run with 64 clients finishes in seconds of wall time
while still producing contention-accurate latency percentiles and
throughput.  The engine is a :class:`~repro.sim.queueing.StageWalker`
-- the stage walk it shares with the open-loop simulator -- and adds
what is closed-loop: clients, the controller, live draws,
aborts with retry, and the client-level spans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.db.errors import ShardDownError, TwoPhaseAbortError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, Tracer
from repro.serve.controller import Controller, StaticController
from repro.serve.stats import FailoverEvent, ServeResult, TxnSample
from repro.serve.workload import ServeWorkload
from repro.sim.queueing import SimNetworkParams, StageWalker, Txn


@dataclass
class ServeConfig:
    """Knobs of one serving deployment.

    ``think_time`` is the mean of an exponential think delay between a
    client's transactions (0 = back-to-back).  A client whose
    transaction a shard failure aborts backs off ``retry_backoff``
    seconds and resubmits.  ``ramp`` staggers client start times across
    the given window so a run does not begin with a synchronized
    thundering herd.

    ``trace_sample`` bounds tracing overhead: with tracing enabled,
    every Nth transaction (deterministically, by submission order)
    gets a full span tree -- think/queue/stages plus the router and
    2PC spans its statements emit -- while the rest are not traced.
    ``1`` traces everything.  Rare events (faults, heartbeats, the
    failover tree) and all metrics are never sampled: counters and
    histograms stay exact regardless of the sampling rate.
    """

    app_cores: int = 8
    db_cores: int = 16
    db_shards: int = 1
    network: Optional[SimNetworkParams] = None
    think_time: float = 0.0
    retry_backoff: float = 0.05
    warmup: float = 0.0
    ramp: float = 0.0
    seed: int = 17
    trace_sample: int = 16

    def __post_init__(self) -> None:
        if self.think_time < 0:
            raise ValueError("think_time must be non-negative")
        if self.retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        if self.warmup < 0 or self.ramp < 0:
            raise ValueError("warmup and ramp must be non-negative")
        if self.db_shards < 1:
            raise ValueError("db_shards must be at least 1")
        if self.trace_sample < 1:
            raise ValueError("trace_sample must be at least 1")


class _ServeTxn(Txn):
    """A client's transaction: the walk plus who runs it and how."""

    __slots__ = ("cid", "option")

    def __init__(self, cid: int, arrived: float, key: int, root):
        Txn.__init__(self, arrived, key)
        self.cid = cid
        self.root = root


class ServeEngine(StageWalker):
    """Drive a workload with N closed-loop clients on the virtual clock."""

    def __init__(
        self,
        workload: ServeWorkload,
        controller: Optional[Controller] = None,
        config: Optional[ServeConfig] = None,
        *,
        tracing: bool = False,
    ) -> None:
        self.workload = workload
        self.controller = (
            controller if controller is not None else StaticController(-1)
        )
        self.config = config if config is not None else ServeConfig()
        super().__init__(
            self.config.network, self.config.app_cores,
            self.config.db_cores, self.config.db_shards,
        )
        self.rng = random.Random(self.config.seed)
        self._result: Optional[ServeResult] = None
        self._horizon = 0.0
        # Fault-injection state (beside the walker's shard_down and
        # shard_slowdowns, which the supervisor clears on promotion).
        self.failovers: list[FailoverEvent] = []
        self._crash_times: dict[int, float] = {}
        self._databases: list = []
        self._clusters: list = []
        self._wal_managers: list = []
        # tornwrite/corrupt faults damage bytes already on disk, so
        # they arm here and are applied to the log files at crash time
        # (by the recovery scenario) rather than while the run is live.
        self.armed_storage_faults: list[tuple[str, int]] = []
        self._supervisor: Optional["ReplicaSupervisor"] = None
        # Observability: spans on the engine's virtual clock (zero-cost
        # when tracing is off) and the unified metrics registry whose
        # snapshot lands on the ServeResult.  Hot-path instruments are
        # bound once here so completions cost one attribute access.
        self.tracer = Tracer(clock=self.loop.clock, enabled=tracing)
        self.metrics = MetricsRegistry()
        self._m_completed = self.metrics.counter("serve.txn.completed")
        self._m_aborted = self.metrics.counter("serve.txn.aborted")
        self._m_retried = self.metrics.counter("serve.txn.retried")
        self._m_latency = self.metrics.histogram("serve.latency.seconds")
        self._m_lock_wait = self.metrics.histogram("serve.lock.wait_seconds")
        self._m_latency_by_trace: dict = {}
        self._m_completed_by_option: dict = {}
        self._client_tracks: list[str] = []
        self._trace_seq = 0

    # -- fault injection and failover --------------------------------------

    def attach_backends(self, databases, clusters=()) -> None:
        """Register the workload's sharded databases (one per partition
        option) and their clusters so injected faults and failovers hit
        every live-execution backend, not just the queueing model."""
        self._databases = list(databases)
        self._clusters = list(clusters)

    def attach_wal_managers(self, managers) -> None:
        """Register the write-ahead-log managers (one per attached
        database) so storage faults have a durable surface to hit."""
        self._wal_managers = list(managers)

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < len(self.dbs):
            raise ValueError(f"unknown database shard {shard}")

    def crash_shard(self, shard: int) -> None:
        """Kill ``shard``'s primary: the router raises
        :class:`ShardDownError` there and queued stage work aborts
        until the supervisor fails over."""
        self._check_shard(shard)
        if not self.shard_down[shard]:
            self._crash_times[shard] = self.now
        self.shard_down[shard] = True
        self.metrics.counter("faults.injected", kind="crash").inc()
        self.tracer.instant("fault.crash", track="faults", shard=shard)
        for sdb in self._databases:
            sdb.crash_primary(shard)

    def set_shard_slowdown(self, shard: int, factor: float) -> None:
        """Inflate (or with 1.0 restore) one shard's DB service time."""
        self._check_shard(shard)
        if not 0 < factor < float("inf"):
            raise ValueError(f"slowdown factor {factor!r} not in (0, inf)")
        self.shard_slowdowns[shard] = factor
        self.metrics.counter("faults.injected", kind="slow").inc()
        self.tracer.instant(
            "fault.slow", track="faults", shard=shard, factor=factor
        )
        for cluster in self._clusters:
            cluster.set_shard_slowdown(shard, factor)

    def set_shard_partition(self, shard: int, down: bool) -> None:
        """Partition (or heal) ``shard``'s replication links: replicas
        stop receiving the primary's commit log and fall behind;
        healing triggers catch-up delivery."""
        self._check_shard(shard)
        self.metrics.counter("faults.injected", kind="partition").inc()
        self.tracer.instant(
            "fault.partition", track="faults", shard=shard, down=down
        )
        for sdb in self._databases:
            group = sdb.groups[shard] if shard < len(sdb.groups) else None
            if group is None:
                continue
            for idx in range(len(group.replicas)):
                group.set_replica_connected(idx, not down)

    def set_storage_fault(self, kind: str, shard: int, active: bool) -> None:
        """Apply (or with ``active=False`` heal) one storage fault.

        ``fsyncfail`` takes effect immediately: every attached WAL
        manager's fsync for that shard fails until healed, so group
        commits stop acknowledging.  ``tornwrite`` and ``corrupt``
        damage on-disk bytes, which only matters at a crash boundary --
        they arm here and the crash/recovery scenario applies them to
        the log files when the cluster dies.
        """
        self._check_shard(shard)
        if kind not in ("tornwrite", "corrupt", "fsyncfail"):
            raise ValueError(f"unknown storage fault kind {kind!r}")
        if not self._wal_managers:
            raise ValueError(
                f"storage fault {kind!r} needs an attached WAL "
                "(serve with --wal DIR)"
            )
        if active:
            self.metrics.counter("faults.injected", kind=kind).inc()
        self.tracer.instant(
            f"fault.{kind}", track="faults", shard=shard, active=active
        )
        if kind == "fsyncfail":
            for manager in self._wal_managers:
                manager.set_fsync_fail(shard, active)
        elif active:
            self.armed_storage_faults.append((kind, shard))

    def inject_faults(self, injector) -> None:
        """Arm a :class:`~repro.sim.cluster.FaultInjector`'s schedule
        against this engine's shard tier."""
        injector.schedule(
            lambda when, action: self.loop.schedule_at(
                max(when, self.now), action
            ),
            crash_shard=self.crash_shard,
            set_shard_slowdown=self.set_shard_slowdown,
            set_shard_partition=self.set_shard_partition,
            set_storage_fault=self.set_storage_fault,
        )

    def enable_failover(self, **kwargs) -> "ReplicaSupervisor":
        """Install (and return) the replica supervisor explicitly;
        :meth:`run` starts one automatically when the attached
        databases are replicated."""
        self._supervisor = ReplicaSupervisor(self, **kwargs)
        return self._supervisor

    # -- client lifecycle -------------------------------------------------

    def _client_next(self, cid: int) -> None:
        """Schedule this client's next transaction (or retire it).

        Always trampolines through the event loop -- even with zero
        think time -- so a degenerate trace (no stages) cannot recurse
        complete -> next -> submit -> complete off the Python stack.
        """
        if self.now >= self._horizon:
            return
        mean = self.config.think_time
        delay = self.rng.expovariate(1.0 / mean) if mean > 0 else 0.0
        if self.tracer.enabled and self._sample_trace():
            think = self.tracer.span(
                "client.think", track=self._client_tracks[cid], client=cid
            )
            self.loop.schedule(delay, self._after_think, cid, think)
        else:
            self.loop.schedule(delay, self._submit, cid)

    def _after_think(self, cid: int, think) -> None:
        think.finish()
        self._submit(cid, detail=True)

    def _sample_trace(self) -> bool:
        """Deterministic head sampling: trace every Nth transaction."""
        seq = self._trace_seq
        self._trace_seq = seq + 1
        return seq % self.config.trace_sample == 0

    def _submit(self, cid: int, detail: bool = False) -> None:
        if self.now >= self._horizon:
            return
        if detail and self.tracer.enabled:
            track = self._client_tracks[cid]
            root = self.tracer.span("client.txn", track=track, client=cid)
            # Nothing queues a closed-loop submission: the span is
            # zero-length, kept so the exported trace keeps its shape.
            self.tracer.span("client.queue", parent=root, track=track).finish()
        else:
            root = NULL_SPAN
        self._begin_txn(_ServeTxn(cid, self.now, self._txn_key(), root))

    def _abort(self, txn: _ServeTxn) -> None:
        """A shard failure aborted this transaction (live, or at a
        replayed stage pinned to the dead primary): release its lock,
        count the abort, and resubmit after the backoff."""
        group = txn.lock_group
        if group is not None:
            self._lock_table_for(group).release(group)
        result = self._result
        assert result is not None
        result.aborted += 1
        self._m_aborted.inc()
        root = txn.root
        root.annotate(outcome="aborted")
        root.finish()
        if self.now < self._horizon:
            result.txn_retries += 1
            self._m_retried.inc()
            # A sampled transaction's retry stays sampled, so the
            # trace shows the whole abort/backoff/retry story.
            self.loop.schedule(
                self.config.retry_backoff,
                self._submit, txn.cid, root is not NULL_SPAN,
            )

    def _begin_txn(self, txn: _ServeTxn) -> None:
        option = txn.option = self.controller.choose_index(
            self.workload.n_options
        )
        tracer = self.tracer
        root = txn.root
        if tracer.enabled:
            # Statement-level spans (router dispatch, 2PC, log
            # shipping) emitted during the live execution follow this
            # transaction's sampling decision.
            tracer.set_detail(root is not NULL_SPAN)
        try:
            trace = self.workload.draw(option, self.rng)
        except (ShardDownError, TwoPhaseAbortError):
            # A live execution hit the dead primary (directly or via an
            # in-flight two-phase branch).  The router already rolled
            # the transaction back; the client backs off and retries.
            self._abort(txn)
            return
        finally:
            if tracer.enabled:
                tracer.set_detail(True)
        root.annotate(trace=trace.name, option=option)
        if not trace.stages and self.config.think_time <= 0:
            # A stage-less transaction with no think time would loop
            # forever without advancing virtual time.
            raise ValueError(
                f"trace {trace.name!r} has no stages and think_time is 0; "
                "a closed-loop client cannot advance the virtual clock"
            )
        txn.trace = trace
        txn.walk = trace.walk(self.network, len(self.dbs)).steps
        if root is not NULL_SPAN:
            txn.track = self._client_tracks[txn.cid]
        if trace.lock_groups:
            group = txn.lock_group = self.rng.randrange(trace.lock_groups)
            self._lock_table_for(group).acquire(
                group, self._locked, txn, self.now
            )
        else:
            self.step(txn)

    def _locked(self, txn: _ServeTxn, lock_from: float) -> None:
        """The transaction holds its row-group lock: start walking."""
        waited = self.now - lock_from
        self._m_lock_wait.observe(waited)
        if waited > 0 and txn.track is not None:
            self.tracer.span(
                "client.lock_wait", parent=txn.root, track=txn.track,
                start=lock_from, group=txn.lock_group,
            ).finish()
        self.step(txn)

    def _complete(self, txn: _ServeTxn) -> None:
        result = self._result
        assert result is not None
        now = self.now
        latency = now - txn.arrived
        name = txn.trace.name
        cid = txn.cid
        option = txn.option
        result.samples.append(
            TxnSample(
                when=now, latency=latency, trace_name=name,
                client_id=cid, option=option,
            )
        )
        self._m_completed.inc()
        self._m_latency.observe(latency)
        by_trace = self._m_latency_by_trace.get(name)
        if by_trace is None:
            by_trace = self.metrics.histogram(
                "serve.latency.seconds", trace=name
            )
            self._m_latency_by_trace[name] = by_trace
        by_trace.observe(latency)
        by_option = self._m_completed_by_option.get(option)
        if by_option is None:
            by_option = self.metrics.counter(
                "serve.txn.completed", option=option
            )
            self._m_completed_by_option[option] = by_option
        by_option.inc()
        txn.root.annotate(outcome="ok")
        txn.root.finish()
        if result.warmup <= now <= result.duration:
            result.completed += 1
            result.latencies.append(latency)
        self._client_next(cid)

    # -- top-level run -----------------------------------------------------

    def run(
        self, clients: int, duration: float, name: str = "serve"
    ) -> ServeResult:
        """Serve ``clients`` closed-loop sessions for ``duration``
        virtual seconds, then drain in-flight work."""
        if clients < 1:
            raise ValueError("need at least one client")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if self._result is not None:
            raise RuntimeError("engine instances are single-use; make a new one")
        config = self.config
        if config.warmup >= duration:
            raise ValueError("warmup must be shorter than the duration")
        self._horizon = duration
        self._client_tracks = [f"client/{cid}" for cid in range(clients)]
        self._result = ServeResult(
            name=name, clients=clients, duration=duration,
            warmup=config.warmup,
        )
        self._attach_observability()
        live0 = self.workload.live_executions
        replays0 = self.workload.trace_replays
        counters0 = self._backend_counters()
        self.controller.attach(self, until=duration)
        if self._supervisor is None and any(
            getattr(sdb, "replicated", False) for sdb in self._databases
        ):
            self._supervisor = ReplicaSupervisor(self)
        if self._supervisor is not None:
            self._supervisor.start(until=duration)
        for cid in range(clients):
            offset = config.ramp * cid / clients if config.ramp > 0 else 0.0
            self.loop.schedule(offset, self._client_next, cid)
        self.loop.run()

        result = self._result
        end = max(self.now, duration)
        result.app_utilization = self.app.utilization(end)
        result.db_shard_utilization = [
            pool.utilization(end) for pool in self.dbs
        ]
        result.db_utilization = sum(result.db_shard_utilization) / len(
            result.db_shard_utilization
        )
        result.controller = self.controller.summary()
        # Workloads may be shared across runs; report this run's share.
        result.live_executions = self.workload.live_executions - live0
        result.trace_replays = self.workload.trace_replays - replays0
        result.failovers = list(self.failovers)
        self._absorb_run_metrics(result, counters0)
        result.metrics = self.metrics.snapshot()
        return result

    def _attach_observability(self) -> None:
        """Hand the engine's tracer to the live-execution backends so
        router dispatch, 2PC rounds and replication shipping show up on
        the same timeline as the client spans."""
        for conn in self._workload_connections():
            if hasattr(conn, "tracer"):
                conn.tracer = self.tracer
        for sdb in self._databases:
            for group in getattr(sdb, "groups", ()):
                if group is not None:
                    group.tracer = self.tracer

    def _workload_connections(self) -> list:
        conns = []
        for opt in getattr(self.workload, "options", ()):
            conn = getattr(getattr(opt, "app", None), "connection", None)
            if conn is not None:
                conns.append(conn)
        return conns

    def _backend_counters(self) -> dict[tuple[str, Optional[int]], int]:
        """Every backend counter a run reports, keyed by registry name
        and shard label (None when unlabelled).

        Plan-cache counts are summed over the workload's connections,
        2PC counts over its sharded ones, replica-read counts over
        those that offload reads, and replication counts per shard over
        the attached databases' replica groups.  A key is present only
        when some backend keeps that counter.
        """
        counts: dict[tuple[str, Optional[int]], int] = {}

        def add(name: str, value: int, shard: Optional[int] = None) -> None:
            key = (name, shard)
            counts[key] = counts.get(key, 0) + value

        for conn in self._workload_connections():
            cache = getattr(conn, "plan_cache_stats", None)
            if cache is not None:
                add("plan_cache.connections", 1)
                add("plan_cache.hits", cache.hits)
                add("plan_cache.misses", cache.misses)
                add("plan_cache.evictions", cache.evictions)
                add("plan_cache.compiled_plans", cache.compiled_plans)
            if hasattr(conn, "two_pc_aborts"):
                add("two_pc.commits", conn.two_pc_commits)
                add("two_pc.aborts", conn.two_pc_aborts)
            if getattr(conn, "replica_reads", False):
                add("replica_reads.served", conn.replica_read_count)
                add("replica_reads.fallback", conn.replica_fallback_count)
        for sdb in self._databases:
            for shard, group in enumerate(getattr(sdb, "groups", ())):
                if group is not None:
                    add("replication.entries_shipped",
                        group.stats.entries_shipped, shard)
        return counts

    def _absorb_run_metrics(
        self, result: ServeResult,
        before: dict[tuple[str, Optional[int]], int],
    ) -> None:
        """Fold the run's share of the backend counters, utilization
        and failovers into the registry so the snapshot on the result
        is the one queryable surface.  Workloads (and their
        connections) may be shared across runs: counters report their
        growth since ``before``, the connection count its end value."""
        metrics = self.metrics
        after = self._backend_counters()
        for (name, shard), value in after.items():
            if name != "plan_cache.connections":
                value -= before.get((name, shard), 0)
            labels = {} if shard is None else {"shard": shard}
            metrics.counter(name, **labels).inc(value)
        if ("plan_cache.hits", None) in after:
            hits = metrics.counter("plan_cache.hits").value
            lookups = hits + metrics.counter("plan_cache.misses").value
            metrics.gauge("plan_cache.hit_ratio").set(
                round(hits / lookups, 4) if lookups else 0.0
            )
        metrics.gauge("serve.app.utilization").set(result.app_utilization)
        for shard, util in enumerate(result.db_shard_utilization):
            metrics.gauge("serve.db.utilization", shard=shard).set(util)
        if result.failovers:
            metrics.counter("failover.promotions").inc(len(result.failovers))
            metrics.counter("failover.replayed_entries").inc(
                sum(ev.replayed_entries for ev in result.failovers)
            )
            metrics.gauge("failover.last_recovery_seconds").set(
                result.failovers[-1].recovery_time
            )


class ReplicaSupervisor:
    """Failure detector + failover controller on the engine's clock.

    A heartbeat probes the shard tier every ``heartbeat`` virtual
    seconds; a primary seen down for ``misses`` consecutive probes is
    declared failed, and a promotion is scheduled after a delay
    proportional to the commit-log tail the most caught-up replica must
    replay (``base_delay + per_entry_delay * entries``).  The promotion
    installs the winner in every attached database copy, clears the
    engine's down flag -- re-opening the shard to traffic -- and
    records a :class:`~repro.serve.stats.FailoverEvent`.
    """

    def __init__(
        self,
        engine: ServeEngine,
        heartbeat: float = 0.25,
        misses: int = 2,
        base_delay: float = 0.05,
        per_entry_delay: float = 0.0005,
    ) -> None:
        if heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        if misses < 1:
            raise ValueError("need at least one missed heartbeat")
        self.engine = engine
        self.heartbeat = heartbeat
        self.misses = misses
        self.base_delay = base_delay
        self.per_entry_delay = per_entry_delay
        self._missed: dict[int, int] = {}
        self._promoting: set[int] = set()

    def start(self, until: Optional[float] = None) -> None:
        self.engine.loop.schedule_periodic(
            self.heartbeat, self._probe, until=until
        )

    def _probe(self) -> None:
        engine = self.engine
        engine.tracer.instant(
            "supervisor.heartbeat",
            track="supervisor",
            down=sum(engine.shard_down),
        )
        for shard, down in enumerate(engine.shard_down):
            if not down or shard in self._promoting:
                continue
            self._missed[shard] = self._missed.get(shard, 0) + 1
            if self._missed[shard] < self.misses:
                continue
            self._promoting.add(shard)
            detected_at = engine.now
            entries = 0
            for sdb in engine._databases:
                lags = sdb.replication_lag(shard)
                if lags:
                    entries += min(lags)
            delay = self.base_delay + self.per_entry_delay * entries
            engine.loop.schedule(delay, self._promote, shard, detected_at)

    def _promote(self, shard: int, detected_at: float) -> None:
        engine = self.engine
        reports = [sdb.promote(shard) for sdb in engine._databases]
        engine.shard_down[shard] = False
        self._promoting.discard(shard)
        self._missed.pop(shard, None)
        event = FailoverEvent(
            shard=shard,
            crashed_at=engine._crash_times.get(shard, detected_at),
            detected_at=detected_at,
            promoted_at=engine.now,
            chosen_replica=reports[0].chosen if reports else -1,
            replayed_entries=sum(r.replayed for r in reports),
            generation=reports[0].generation if reports else 0,
        )
        engine.failovers.append(event)
        self._trace_failover(event)

    def _trace_failover(self, event: FailoverEvent) -> None:
        """Emit the crash -> detect -> promote -> replay span tree for
        one failover.  Spans are built retroactively (the timestamps
        are only all known once the promotion lands) with explicit
        start/end times, so the exported tree matches the
        :class:`FailoverEvent` record exactly."""
        tracer = self.engine.tracer
        if not tracer.enabled:
            return
        root = tracer.span(
            "failover",
            track="supervisor",
            start=event.crashed_at,
            shard=event.shard,
        )
        tracer.span(
            "failover.detect",
            parent=root,
            track="supervisor",
            start=event.crashed_at,
        ).finish(end=event.detected_at)
        promote = tracer.span(
            "failover.promote",
            parent=root,
            track="supervisor",
            start=event.detected_at,
            chosen_replica=event.chosen_replica,
            generation=event.generation,
        )
        replay_start = max(
            event.detected_at,
            event.promoted_at
            - self.per_entry_delay * event.replayed_entries,
        )
        tracer.span(
            "failover.replay",
            parent=promote,
            track="supervisor",
            start=replay_start,
            replayed_entries=event.replayed_entries,
        ).finish(end=event.promoted_at)
        promote.finish(end=event.promoted_at)
        root.finish(end=event.promoted_at)

