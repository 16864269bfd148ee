"""Serving-engine experiments: the closed-loop ``repro serve`` scenarios.

These reproduce the *shape* of the paper's load figures with the
closed-loop serving engine instead of open-loop trace replay:

* :func:`serve_load_sweep` -- throughput / latency percentiles versus
  client count for the two static partitionings and the adaptive
  switcher (the Figure 9 / 10 regimes);
* :func:`serve_dynamic_switching` -- an external tenant seizes most DB
  cores mid-run and the controller switches partitionings online (the
  Figure 11 scenario);
* :func:`serve_repartition` -- a mid-run load-mix shift answered by
  minting new partitionings from the live profile;
* :func:`serve_shard_sweep`, :func:`serve_failover`,
  :func:`serve_wal_recovery` and :func:`serve_htap` -- the sharded,
  replicated, durable and analytical database tiers under load.

Every scenario builds, wires and runs its engines through one private
function, :func:`_serve`, and executes real compiled-block programs
through the serving workload layer (:mod:`repro.serve.workload`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.obs.export import render_chrome_trace, render_metrics
from repro.runtime.switcher import SwitcherSummary
from repro.serve.controller import (
    AdaptiveController,
    Controller,
    RepartitionController,
    RepartitionPolicy,
    RepartitionSummary,
    StaticController,
)
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.stats import (
    FailoverEvent,
    LoadSweepResult,
    ServeResult,
    SweepPoint,
)
from repro.serve.workload import (
    WORKLOAD_FACTORIES,
    BuiltWorkload,
    ShiftingWorkload,
    make_shifting_workload,
    make_tpcc_workload,
)
from repro.sim.cluster import (
    STORAGE_FAULT_KINDS,
    FaultInjector,
    parse_fault_spec,
)

SWEEP_CLIENTS_FAST = (1, 4, 16, 64)
SWEEP_CLIENTS_FULL = (1, 2, 4, 8, 16, 32, 48, 64)

# The three configurations every serve experiment compares.  The
# static indices follow the switcher convention: 0 = lowest budget
# (JDBC-like), -1 = highest (stored-procedure-like).
STATIC_LOW = "static_low"
STATIC_HIGH = "static_high"
ADAPTIVE = "adaptive"
# Adaptive switching plus online minting of new partitionings.
REPARTITION = "repartition"


def _controller(
    label: str, poll: float, shifting: Optional[ShiftingWorkload] = None
) -> Controller:
    """The controller a configuration label names; ``REPARTITION``
    mints onto ``shifting``'s live workload."""
    if label == STATIC_LOW:
        return StaticController(0)
    if label == STATIC_HIGH:
        return StaticController(-1)
    if label == ADAPTIVE:
        return AdaptiveController(n_options=2, poll_interval=poll)
    if label == REPARTITION and shifting is not None:
        return RepartitionController(
            service=shifting.service,
            workload=shifting.built.workload,
            profiler=shifting.profiler,
            make_option=shifting.make_option,
            policy=RepartitionPolicy(
                check_interval=poll, min_window_txns=32, cooldown=2 * poll,
            ),
            poll_interval=poll,
        )
    raise ValueError(f"unknown configuration {label!r}")


def _serve(
    built: BuiltWorkload,
    label: str,
    *,
    clients: int,
    duration: float,
    poll: float,
    db_cores: int,
    think_time: float,
    seed: int,
    shards: int = 1,
    warmup: bool = True,
    name: Optional[str] = None,
    shifting: Optional[ShiftingWorkload] = None,
    faults: Optional[FaultInjector] = None,
    wal_managers: Sequence = (),
    periodic: Sequence[tuple[float, Callable[[], None]]] = (),
    events: Sequence[tuple[float, Callable[[ServeEngine], None]]] = (),
    tracing: bool = False,
    notes: Optional[dict] = None,
) -> tuple[ServeEngine, ServeResult]:
    """Build, wire and run one engine of a scenario.

    Every scenario run goes through here: eight application cores,
    ``label``'s controller, a measurement warm-up of two polls (capped
    at a quarter of the run; ``warmup=False`` measures from t=0) and a
    client ramp of one think time (capped at a tenth).  A fault
    injector or WAL managers also attach the workload's database
    backends.  ``periodic`` actions re-arm until the end of the run;
    each ``events`` action gets the engine at its virtual time.  The
    run's plan-cache counters are summed into ``notes["plan_cache"]``.
    """
    engine = ServeEngine(
        built.workload,
        _controller(label, poll, shifting),
        ServeConfig(
            app_cores=8, db_cores=db_cores, db_shards=shards,
            network=built.network, think_time=think_time, seed=seed,
            warmup=min(2 * poll, duration / 4.0) if warmup else 0.0,
            ramp=min(think_time, duration / 10.0),
        ),
        tracing=tracing,
    )
    if faults is not None or wal_managers:
        engine.attach_backends(built.databases, built.clusters)
        engine.attach_wal_managers(wal_managers)
    if faults is not None:
        engine.inject_faults(faults)
    for interval, action in periodic:
        engine.loop.schedule_periodic(interval, action, until=duration)
    for when, action in events:
        engine.schedule(when, action, engine)
    run = engine.run(clients=clients, duration=duration, name=name or label)
    if notes is not None and "plan_cache.hits" in run.metrics:
        total = notes.setdefault("plan_cache", dict.fromkeys(
            ("hits", "misses", "evictions", "compiled_plans"), 0
        ))
        for key in total:
            total[key] += run.metrics[f"plan_cache.{key}"]
    return engine, run


def _export(result, engine: ServeEngine, run: ServeResult, meta: dict):
    """Attach a run's metrics and rendered exporter payloads (the
    trace only when the engine traced) to a scenario result."""
    result.metrics = run.metrics
    result.metrics_json = render_metrics(run.metrics, meta=meta)
    if engine.tracer.enabled:
        result.trace_json = render_chrome_trace(engine.tracer)


def _built_workload(workload: str, fast: bool, **kwargs) -> BuiltWorkload:
    """A named workload factory's output, pooled for a fast or full run."""
    if workload not in WORKLOAD_FACTORIES:
        raise ValueError(
            f"unknown workload {workload!r}; "
            f"options: {sorted(WORKLOAD_FACTORIES)}"
        )
    return WORKLOAD_FACTORIES[workload](pool_size=8 if fast else 24, **kwargs)


def serve_load_sweep(
    fast: bool = True,
    workload: str = "tpcc",
    client_counts: Optional[Sequence[int]] = None,
    db_cores: int = 3,
    duration: Optional[float] = None,
    think_time: float = 0.05,
    poll_interval: Optional[float] = None,
    seed: int = 17,
    built: Optional[BuiltWorkload] = None,
    shards: int = 1,
    shard_key: str = "warehouse",
    replicas: int = 0,
) -> LoadSweepResult:
    """Sweep client counts for static-low/static-high/adaptive configs.

    ``built`` lets callers reuse an already-constructed workload (the
    expensive part is partitioning the program and the first live
    executions that fill the trace pools).  ``shards`` > 1 deploys the
    sharded database tier (TPC-C only): ``db_cores`` then sizes *each*
    shard server.
    """
    counts = list(
        client_counts
        if client_counts is not None
        else (SWEEP_CLIENTS_FAST if fast else SWEEP_CLIENTS_FULL)
    )
    if not counts or any(c < 1 for c in counts):
        raise ValueError("client counts must be positive")
    duration = duration if duration is not None else (20.0 if fast else 120.0)
    poll = poll_interval if poll_interval is not None else duration / 10.0
    if built is None:
        built = _built_workload(
            workload, fast, db_cores=db_cores, seed=seed, shards=shards,
            shard_key=shard_key, replicas=replicas,
        )

    result = LoadSweepResult(workload=workload)
    result.notes.update(built.notes)
    result.notes.update(
        db_cores=db_cores, duration=duration, think_time=think_time,
        poll_interval=poll, client_counts=counts,
        labels=built.workload.labels,
    )
    controllers: dict[str, list[SwitcherSummary]] = {}
    for label in (STATIC_LOW, STATIC_HIGH, ADAPTIVE):
        points = []
        for clients in counts:
            _, run = _serve(
                built, label, clients=clients, duration=duration,
                poll=poll, db_cores=db_cores, think_time=think_time,
                seed=seed, shards=shards,
                name=f"{label}@{clients}", notes=result.notes,
            )
            points.append(SweepPoint.from_result(run))
            if run.controller is not None:
                controllers.setdefault(label, []).append(run.controller)
        result.curves[label] = points
    result.notes["controllers"] = controllers
    return result


# ---------------------------------------------------------------------------
# Sharded-tier scaling sweep
# ---------------------------------------------------------------------------


@dataclass
class ShardSweepPoint:
    """Adaptive serving at one shard count."""

    shards: int
    throughput: float
    p95_ms: float
    app_utilization: float
    db_shard_utilization: list[float] = field(default_factory=list)
    switches: int = 0

    @property
    def db_utilization(self) -> float:
        series = self.db_shard_utilization
        return sum(series) / len(series) if series else 0.0


@dataclass
class ShardSweepResult:
    """Adaptive TPC-C throughput versus database shard count."""

    clients: int
    db_cores: int
    duration: float
    shard_key: str
    points: list[ShardSweepPoint] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    def point(self, shards: int) -> ShardSweepPoint:
        for point in self.points:
            if point.shards == shards:
                return point
        raise KeyError(f"no point for {shards} shard(s)")

    @property
    def speedup(self) -> float:
        """Max-shard-count throughput over the single-server baseline."""
        if len(self.points) < 2:
            return 1.0
        base = self.point(min(p.shards for p in self.points)).throughput
        top = self.point(max(p.shards for p in self.points)).throughput
        return top / base if base > 0 else 0.0


def serve_shard_sweep(
    fast: bool = True,
    shard_counts: Sequence[int] = (1, 2, 4),
    clients: int = 96,
    db_cores: int = 2,
    duration: Optional[float] = None,
    think_time: float = 0.01,
    shard_key: str = "warehouse",
    seed: int = 17,
) -> ShardSweepResult:
    """Adaptive TPC-C serving across a growing sharded database tier.

    Every point runs the *same* logical workload (four-warehouse TPC-C
    new-order, warehouse-affine routing) with ``db_cores`` per shard
    server; a client population large enough to saturate the
    single-server baseline shows how far the tier scales throughput.
    """
    if not shard_counts or any(s < 1 for s in shard_counts):
        raise ValueError("shard counts must be positive")
    duration = duration if duration is not None else (15.0 if fast else 90.0)
    poll = duration / 10.0

    result = ShardSweepResult(
        clients=clients, db_cores=db_cores, duration=duration,
        shard_key=shard_key,
    )
    result.notes.update(think_time=think_time, seed=seed)
    warehouses = max(4, max(shard_counts))
    for shards in shard_counts:
        built = make_tpcc_workload(
            db_cores=db_cores, seed=seed, pool_size=6 if fast else 16,
            shards=shards, shard_key=shard_key, warehouses=warehouses,
        )
        _, run = _serve(
            built, ADAPTIVE, clients=clients, duration=duration, poll=poll,
            db_cores=db_cores, think_time=think_time, seed=seed,
            shards=shards, name=f"shards{shards}", notes=result.notes,
        )
        controller = run.controller
        result.points.append(
            ShardSweepPoint(
                shards=shards,
                throughput=run.throughput,
                p95_ms=1000.0 * run.percentile(95),
                app_utilization=run.app_utilization,
                db_shard_utilization=list(run.db_shard_utilization),
                switches=controller.switches if controller else 0,
            )
        )
        result.notes.setdefault("warehouses", built.notes.get("warehouses"))
    return result


# ---------------------------------------------------------------------------
# Replicated tier: fault injection and automatic failover
# ---------------------------------------------------------------------------


@dataclass
class FailoverRunResult:
    """One fault-injected serve run against the replicated shard tier."""

    clients: int
    duration: float
    shards: int
    replicas: int
    fault_specs: list[str] = field(default_factory=list)
    faults_fired: list[tuple[float, str]] = field(default_factory=list)
    failovers: list[FailoverEvent] = field(default_factory=list)
    throughput: float = 0.0
    pre_fault_throughput: float = 0.0
    post_failover_throughput: float = 0.0
    aborted: int = 0
    txn_retries: int = 0
    metrics: Optional[dict] = None
    replicas_consistent: bool = False
    # Rendered exporter payloads (deterministic: identically seeded
    # runs produce byte-identical strings).  trace_json is None unless
    # the run was started with tracing=True.
    trace_json: Optional[str] = None
    metrics_json: Optional[str] = None
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def recovery_time(self) -> float:
        """Crash-to-promotion gap of the first failover (0 if none)."""
        return self.failovers[0].recovery_time if self.failovers else 0.0

    @property
    def recovered_fraction(self) -> float:
        """Post-failover throughput relative to the pre-fault window."""
        if self.pre_fault_throughput <= 0:
            return 0.0
        return self.post_failover_throughput / self.pre_fault_throughput


def serve_failover(
    fast: bool = True,
    clients: int = 96,
    shards: int = 2,
    replicas: int = 2,
    db_cores: int = 2,
    duration: Optional[float] = None,
    think_time: float = 0.01,
    fault_specs: Optional[Sequence[str]] = None,
    seed: int = 17,
    built: Optional[BuiltWorkload] = None,
    tracing: bool = False,
) -> FailoverRunResult:
    """Kill a primary mid-run and measure the automatic failover.

    A saturating client population drives adaptive TPC-C against the
    replicated shard tier while a :class:`~repro.sim.cluster.
    FaultInjector` fires the given fault specs (default: crash shard
    ``shards - 1``'s primary at 40% of the run).  The replica
    supervisor detects the dead primary, promotes the most caught-up
    replica, and traffic resumes; the result captures the recovery
    time, the throughput on either side of the fault, the abort/retry
    counts, and a final bit-identity check across every replica group.
    """
    if replicas < 1:
        raise ValueError("serve_failover needs at least one replica")
    duration = duration if duration is not None else (15.0 if fast else 60.0)
    poll = duration / 10.0
    if fault_specs is None:
        fault_specs = (f"crash:db{shards - 1}@{0.4 * duration:g}",)
    events = [parse_fault_spec(spec) for spec in fault_specs]
    if not events:
        raise ValueError("serve_failover needs at least one fault spec")
    storage = [
        spec for spec, event in zip(fault_specs, events)
        if event.kind in STORAGE_FAULT_KINDS
    ]
    if storage:
        raise ValueError(
            f"storage fault(s) {storage} need a WAL to damage; add --wal DIR"
        )
    if built is None:
        built = make_tpcc_workload(
            db_cores=db_cores, seed=seed, pool_size=6 if fast else 16,
            shards=shards, shard_key="warehouse", replicas=replicas,
        )

    injector = FaultInjector(events)
    engine, run = _serve(
        built, ADAPTIVE, clients=clients, duration=duration, poll=poll,
        db_cores=db_cores, think_time=think_time, seed=seed, shards=shards,
        name="failover", faults=injector, tracing=tracing,
    )
    result = FailoverRunResult(
        clients=clients, duration=duration, shards=shards,
        replicas=replicas, fault_specs=list(fault_specs),
        faults_fired=list(injector.fired),
        failovers=list(run.failovers),
        throughput=run.throughput,
        aborted=run.aborted, txn_retries=run.txn_retries,
    )
    _export(result, engine, run, {
        "scenario": "failover", "seed": seed, "clients": clients,
        "shards": shards, "replicas": replicas,
    })
    first_fault = min(e.at for e in events)
    result.pre_fault_throughput = run.window_throughput(
        run.warmup, first_fault
    )
    if run.failovers:
        recovered_at = run.failovers[0].promoted_at
    else:
        # No promotion (e.g. slow/partition-only faults): measure from
        # the moment the last transient fault lifts.
        recovered_at = max(
            e.until if e.until is not None else e.at for e in events
        )
    result.post_failover_throughput = run.window_throughput(
        recovered_at, duration
    )
    for sdb in built.databases:
        sdb.assert_replica_groups_consistent()
    result.replicas_consistent = True
    result.notes.update(
        db_cores=db_cores, think_time=think_time, seed=seed,
        warehouses=built.notes.get("warehouses"),
        completed=run.completed,
    )
    return result


# ---------------------------------------------------------------------------
# Durable WAL: whole-cluster crash, recovery, restart
# ---------------------------------------------------------------------------


@dataclass
class WalRecoveryResult:
    """One crash/recover(/restart) run against WAL-backed shards.

    ``identical`` is the differential verdict: for every partition
    option, the database rebuilt from checkpoint + redo replay matches
    the killed cluster's in-memory state table-for-table, row-for-row,
    rowid-for-rowid.  Torn-write and corrupt-frame injection damage
    only on-disk bytes, so that in-memory state *is* the uninjected
    oracle.  The check is skipped (``identity_checked`` False) when an
    active ``fsyncfail`` fault lost acknowledged commits -- durability
    loss is then the expected outcome and ``lost_frames`` reports it.
    """

    clients: int
    duration: float
    kill_at: float
    shards: int
    sync_policy: str
    wal_dir: str
    fault_specs: list[str] = field(default_factory=list)
    faults_fired: list[tuple[float, str]] = field(default_factory=list)
    pre_kill_throughput: float = 0.0
    pre_kill_completed: int = 0
    checkpoints: int = 0
    wal_bytes: int = 0
    sync_failures: int = 0
    lost_frames: int = 0
    commits_applied: int = 0
    in_doubt_committed: list[str] = field(default_factory=list)
    in_doubt_aborted: list[str] = field(default_factory=list)
    torn_tails: int = 0
    frames_skipped: int = 0
    identity_checked: bool = False
    identical: bool = False
    mismatches: list[str] = field(default_factory=list)
    restarted: bool = False
    post_restart_throughput: float = 0.0
    post_restart_completed: int = 0
    metrics: Optional[dict] = None
    metrics_json: Optional[str] = None
    trace_json: Optional[str] = None
    notes: dict[str, Any] = field(default_factory=dict)


def _state_fingerprint(sdb) -> list[dict]:
    """Physical per-shard state: every table's rows in scan order plus
    its next-rowid position (the bit-identity comparison surface)."""
    state = []
    for shard_db in sdb.shards:
        tables = {}
        for table in shard_db.tables():
            table.ensure_scan_order()
            tables[table.schema.name] = (
                list(table.scan()),
                table._next_rowid.peek(),
            )
        state.append(tables)
    return state


def _fingerprint_mismatches(
    label: str, oracle: list[dict], recovered: list[dict]
) -> list[str]:
    problems = []
    for shard, (want, got) in enumerate(zip(oracle, recovered)):
        if set(want) != set(got):
            problems.append(
                f"{label} shard {shard}: tables {sorted(want)} != "
                f"{sorted(got)}"
            )
            continue
        for name in sorted(want):
            if want[name][0] != got[name][0]:
                problems.append(
                    f"{label} shard {shard} table {name}: rows differ"
                )
            elif want[name][1] != got[name][1]:
                problems.append(
                    f"{label} shard {shard} table {name}: next rowid "
                    f"{got[name][1]} != {want[name][1]}"
                )
    return problems


def _corrupt_covered_frame(wal) -> Optional[int]:
    """Flip a byte in a commit frame the checkpoint already covers --
    the recoverable corruption case.  Frames past the checkpoint have
    no second copy, so corrupting one would (correctly) fail recovery;
    with none covered the injection is skipped."""
    from repro.db.wal import scan_wal

    checkpoint = wal.read_checkpoint()
    if checkpoint is None:
        return None
    wal.sync()
    covered = [
        frame.lsn
        for frame in scan_wal(wal.path).frames
        if frame.kind == "commit" and frame.lsn <= checkpoint["lsn"]
    ]
    if not covered:
        return None
    return wal.inject_corruption(covered[0])


def serve_wal_recovery(
    wal_dir,
    fast: bool = True,
    clients: int = 48,
    shards: int = 2,
    db_cores: int = 2,
    duration: Optional[float] = None,
    kill_at: Optional[float] = None,
    think_time: float = 0.01,
    fault_specs: Optional[Sequence[str]] = None,
    seed: int = 17,
    sync_policy: str = "commit",
    checkpoint_interval: Optional[float] = None,
    restart: bool = False,
    built: Optional[BuiltWorkload] = None,
    tracing: bool = False,
) -> WalRecoveryResult:
    """Crash the whole cluster mid-run and restart it from disk.

    Phase 1 serves TPC-C against WAL-backed shards (one log directory
    per partition option, periodic non-truncating checkpoints on the
    virtual clock) until ``kill_at``, when the entire cluster dies:
    the group-commit window is flushed (an "ack follows fsync" server
    would have done so per acknowledgement), unsynced bytes are
    dropped, and any armed torn-write / corrupt-frame faults damage
    the log files.  Recovery then rebuilds every option's database
    from checkpoint + redo replay -- resolving in-doubt two-phase
    transactions from the coordinator's decision log -- and the result
    records whether each is bit-identical to the killed cluster's
    state.  With ``restart`` the recovered databases are rebound into
    the workload and a second engine serves the rest of ``duration``.
    """
    from pathlib import Path

    from repro.db.errors import TwoPhaseAbortError
    from repro.db.shard import connect_sharded
    from repro.db.wal import attach_wal
    from repro.db.recovery import recover_sharded

    if shards < 2:
        raise ValueError(
            "serve_wal_recovery needs a sharded tier (--shards >= 2) so "
            "cross-shard transactions exercise the 2PC decision log"
        )
    duration = duration if duration is not None else (12.0 if fast else 45.0)
    kill_at = kill_at if kill_at is not None else 0.6 * duration
    if not 0 < kill_at <= duration:
        raise ValueError("kill_at must fall inside the run duration")
    if restart and kill_at >= duration:
        raise ValueError("--restart needs run time left after the kill")
    # Default interval deliberately does not divide kill_at: the crash
    # then lands mid-window, so recovery has a real redo tail to
    # replay instead of reloading a checkpoint taken at the kill.
    interval = (
        checkpoint_interval
        if checkpoint_interval is not None
        else kill_at / 3.5
    )
    if fault_specs is None:
        at = 0.5 * kill_at
        fault_specs = (
            f"tornwrite:db0@{at:g}",
            f"corrupt:db{shards - 1}@{at:g}",
        )
    events = [parse_fault_spec(spec) for spec in fault_specs]
    if built is None:
        built = make_tpcc_workload(
            db_cores=db_cores, seed=seed, pool_size=6 if fast else 16,
            shards=shards, shard_key="warehouse",
        )
    # Once the trace pools fill, draws stop touching the database --
    # and a log with no tail past the last checkpoint proves nothing.
    # Refreshing every few draws keeps real commits (and cross-shard
    # 2PC) flowing into the WAL right up to the kill.
    if built.workload.refresh_every == 0:
        built.workload.refresh_every = 4

    wal_dir = Path(wal_dir)
    managers = [
        attach_wal(sdb, wal_dir / f"opt{i}", sync_policy=sync_policy)
        for i, sdb in enumerate(built.databases)
    ]
    # TPC-C statements auto-commit one shard at a time, so on their
    # own they never cross shards in a single transaction.  A periodic
    # settlement sweep moves w_ytd across every warehouse in ONE
    # explicit transaction -- the cross-shard 2PC traffic that writes
    # prepare / decision / resolve frames into the logs under load.
    warehouses = int(built.notes.get("warehouses") or shards)
    settle_conns = [connect_sharded(sdb) for sdb in built.databases]

    def settle() -> None:
        for conn in settle_conns:
            conn.begin()
            stmt = conn.prepare(
                "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?"
            )
            try:
                for w_id in range(1, warehouses + 1):
                    stmt.update(1.0, w_id)
                conn.commit()
            except TwoPhaseAbortError:
                # An fsyncfail fault turned a prepare or decision force
                # into a no vote: presumed abort, cleanly rolled back.
                pass

    checkpoints = [
        (interval, lambda m=m, s=s: m.checkpoint(s.shards, truncate=False))
        for m, s in zip(managers, built.databases)
    ]
    injector = FaultInjector(events)
    engine, run = _serve(
        built, ADAPTIVE, clients=clients, duration=kill_at,
        poll=kill_at / 5.0, db_cores=db_cores, think_time=think_time,
        seed=seed, shards=shards, name="wal_pre_kill", faults=injector,
        wal_managers=managers,
        periodic=checkpoints + [(interval / 2.0, settle)],
        tracing=tracing,
    )
    result = WalRecoveryResult(
        clients=clients, duration=duration, kill_at=kill_at,
        shards=shards, sync_policy=sync_policy, wal_dir=str(wal_dir),
        fault_specs=list(fault_specs),
        pre_kill_throughput=run.throughput,
        pre_kill_completed=run.completed,
    )
    result.faults_fired = list(injector.fired)
    _export(result, engine, run, {
        "scenario": "wal_recovery", "seed": seed, "clients": clients,
        "shards": shards, "sync_policy": sync_policy,
    })

    # -- the crash: flush acknowledged commits, lose the rest ------------
    for manager in managers:
        manager.sync_all()
        for wal in manager.wals:
            result.lost_frames += wal.tip - wal.durable_lsn
        manager.drop_unsynced()
        result.checkpoints += sum(w.stats.checkpoints for w in manager.wals)
        result.sync_failures += sum(
            w.stats.sync_failures for w in manager.wals
        )
        result.wal_bytes += sum(w.stats.bytes_written for w in manager.wals)
    oracles = [_state_fingerprint(sdb) for sdb in built.databases]
    for (kind, shard) in engine.armed_storage_faults:
        for manager in managers:
            wal = manager.wals[shard]
            if kind == "tornwrite":
                wal.inject_torn_write()
            else:
                _corrupt_covered_frame(wal)
    for manager in managers:
        manager.close()

    # -- recovery + differential check -----------------------------------
    recovered_dbs = []
    for i, oracle in enumerate(oracles):
        recovered, report = recover_sharded(wal_dir / f"opt{i}")
        recovered_dbs.append(recovered)
        result.commits_applied += report.commits_applied
        result.in_doubt_committed.extend(report.in_doubt_committed)
        result.in_doubt_aborted.extend(report.in_doubt_aborted)
        result.torn_tails += sum(
            1 for r in report.shard_reports if r.torn_tail
        )
        result.frames_skipped += sum(
            r.frames_skipped for r in report.shard_reports
        )
        if result.lost_frames == 0:
            result.mismatches.extend(
                _fingerprint_mismatches(f"opt{i}", oracle,
                                        _state_fingerprint(recovered))
            )
    result.identity_checked = result.lost_frames == 0
    result.identical = result.identity_checked and not result.mismatches
    result.notes.update(
        db_cores=db_cores, think_time=think_time, seed=seed,
        checkpoint_interval=interval,
        warehouses=built.notes.get("warehouses"),
        armed_faults=list(engine.armed_storage_faults),
    )

    # -- optional restart: serve the rest of the run from disk -----------
    if restart:
        managers2 = [
            attach_wal(sdb, wal_dir / f"opt{i}", sync_policy=sync_policy)
            for i, sdb in enumerate(recovered_dbs)
        ]
        for i, (sdb, opt) in enumerate(
            zip(recovered_dbs, built.workload.options)
        ):
            conn = connect_sharded(sdb)
            opt.app.connection = conn
            opt.app.executor.connection = conn
            if i < len(built.clusters):
                built.clusters[i].attach_sharded_database(sdb)
            built.databases[i] = sdb
        remaining = duration - kill_at
        _, run2 = _serve(
            built, ADAPTIVE, clients=clients, duration=remaining,
            poll=remaining / 5.0, db_cores=db_cores, think_time=think_time,
            seed=seed, shards=shards, warmup=False, name="wal_post_restart",
            wal_managers=managers2,
        )
        result.restarted = True
        result.post_restart_throughput = run2.throughput
        result.post_restart_completed = run2.completed
        for manager in managers2:
            manager.sync_all()
            manager.close()
    return result


@dataclass
class ServeSwitchResult:
    """Latency time series per configuration plus the adaptive mix."""

    clients: int
    duration: float
    load_time: float
    buckets: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    adaptive_mix: list[tuple[float, float]] = field(default_factory=list)
    controller: Optional[SwitcherSummary] = None
    throughput: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)


def serve_dynamic_switching(
    fast: bool = True,
    workload: str = "tpcc",
    clients: int = 20,
    db_cores: int = 16,
    duration: Optional[float] = None,
    think_time: float = 0.05,
    external_load: float = 0.85,
    seed: int = 17,
    built: Optional[BuiltWorkload] = None,
    shards: int = 1,
    shard_key: str = "warehouse",
    replicas: int = 0,
) -> ServeSwitchResult:
    """Fixed client population; an external tenant grabs DB cores
    mid-run and the adaptive controller switches partitionings."""
    duration = duration if duration is not None else (45.0 if fast else 300.0)
    load_time = duration * 0.3
    poll = duration / 20.0
    bucket = duration / 12.0
    if built is None:
        built = _built_workload(
            workload, fast, db_cores=db_cores, seed=seed, shards=shards,
            shard_key=shard_key, replicas=replicas,
        )

    result = ServeSwitchResult(
        clients=clients, duration=duration, load_time=load_time
    )
    result.notes.update(built.notes)
    result.notes.update(
        db_cores=db_cores, think_time=think_time,
        external_load=external_load, poll_interval=poll,
        labels=built.workload.labels,
    )

    def spike(engine: ServeEngine) -> None:
        engine.set_db_external_load(external_load)

    for label in (STATIC_LOW, STATIC_HIGH, ADAPTIVE):
        _, serve_result = _serve(
            built, label, clients=clients, duration=duration, poll=poll,
            db_cores=db_cores, think_time=think_time, seed=seed,
            shards=shards, warmup=False, events=[(load_time, spike)],
            notes=result.notes,
        )
        result.buckets[label] = serve_result.latency_buckets(bucket)
        result.throughput[label] = serve_result.throughput
        if label == ADAPTIVE:
            result.controller = serve_result.controller
            result.adaptive_mix = [
                (when, mix.get(0, 0.0))
                for when, mix in serve_result.option_mix(bucket)
            ]
    return result


# ---------------------------------------------------------------------------
# Online repartitioning under a load-mix shift
# ---------------------------------------------------------------------------


@dataclass
class RepartitionRunResult:
    """Throughput per configuration under a mid-run mix shift."""

    clients: int
    duration: float
    shift_time: float
    throughput: dict[str, float] = field(default_factory=dict)
    post_shift_throughput: dict[str, float] = field(default_factory=dict)
    buckets: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict
    )
    option_mix: list[tuple[float, dict[int, float]]] = field(
        default_factory=list
    )
    repartition: Optional[RepartitionSummary] = None
    notes: dict[str, Any] = field(default_factory=dict)

    def best_static(self, post_shift: bool = True) -> float:
        series = (
            self.post_shift_throughput if post_shift else self.throughput
        )
        return max(series[STATIC_LOW], series[STATIC_HIGH])


def serve_repartition(
    fast: bool = True,
    clients: int = 16,
    db_cores: int = 2,
    duration: Optional[float] = None,
    think_time: float = 0.005,
    seed: int = 17,
) -> RepartitionRunResult:
    """Mid-run load-mix shift with online repartitioning.

    The storefront workload starts all-browse (the mix the offline
    profile and the initial two-budget ladder were built from) and
    flips to all-checkout at ``shift_time``.  Four configurations run
    the identical scenario: the two static ladder rungs, the adaptive
    switcher over the static ladder, and the repartitioning
    controller, which additionally mints new partitionings from the
    live profile (incremental session: cached artifacts, reweighted
    graph, warm-started solves) and switches onto them online.
    """
    duration = duration if duration is not None else (60.0 if fast else 240.0)
    shift_time = duration * 0.35
    poll = duration / 20.0
    bucket = duration / 12.0

    result = RepartitionRunResult(
        clients=clients, duration=duration, shift_time=shift_time
    )
    result.notes.update(
        db_cores=db_cores, think_time=think_time, poll_interval=poll,
    )

    for label in (STATIC_LOW, STATIC_HIGH, ADAPTIVE, REPARTITION):
        # Fresh workload per configuration: minted options and trace
        # pools must not leak across runs.
        shifting = make_shifting_workload(
            db_cores=db_cores, seed=seed, pool_size=6,
        )
        n_initial_options = len(shifting.built.workload.labels)
        engine, serve_result = _serve(
            shifting.built, label, clients=clients, duration=duration,
            poll=poll, db_cores=db_cores, think_time=think_time, seed=seed,
            warmup=False, shifting=shifting,
            events=[(shift_time,
                     lambda _: shifting.mix.set_phase("checkout"))],
        )
        result.throughput[label] = serve_result.throughput
        result.post_shift_throughput[label] = serve_result.window_throughput(
            shift_time, serve_result.duration
        )
        result.buckets[label] = serve_result.latency_buckets(bucket)
        if label == REPARTITION:
            result.repartition = engine.controller.repartition_summary()
            result.option_mix = serve_result.option_mix(bucket)
            result.notes["minted_labels"] = list(
                shifting.built.workload.labels[n_initial_options:]
            )
            result.notes["session_stats"] = (
                shifting.service.stats.snapshot()
            )
    return result


# ---------------------------------------------------------------------------
# HTAP: analytical sessions on the columnar mirror alongside OLTP
# ---------------------------------------------------------------------------


@dataclass
class HtapRunResult:
    """OLTP throughput with and without concurrent analytics.

    The analytical sessions never touch the row store: they scan the
    :class:`~repro.db.htap.HtapMirror` columnar copy that the redo
    stream maintains, so the only OLTP cost is the DB CPU the reports
    reserve while they run.  ``degradation`` is the fraction of
    OLTP-only throughput lost to that reservation.
    """

    clients: int
    duration: float
    analytics_interval: float
    report_window: float
    analytics_load: float
    oltp_only_throughput: float = 0.0
    htap_throughput: float = 0.0
    reports_run: int = 0
    analytics_rows_scanned: int = 0
    best_sellers: list = field(default_factory=list)
    district_groups: int = 0
    mirror_counters: dict = field(default_factory=dict)
    mirrors_consistent: bool = False
    metrics: Optional[dict] = None
    metrics_json: Optional[str] = None
    trace_json: Optional[str] = None
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def degradation(self) -> float:
        if self.oltp_only_throughput <= 0:
            return 0.0
        return max(
            0.0, 1.0 - self.htap_throughput / self.oltp_only_throughput
        )


HTAP_MIRROR_TABLES = ("order_line", "item", "district")


def serve_htap(
    fast: bool = True,
    clients: int = 32,
    db_cores: int = 4,
    duration: Optional[float] = None,
    think_time: float = 0.02,
    seed: int = 23,
    analytics_interval: Optional[float] = None,
    report_window: Optional[float] = None,
    analytics_load: float = 0.25,
    tracing: bool = False,
) -> HtapRunResult:
    """Run TPC-C OLTP with and without concurrent analytical sessions.

    Two identically seeded serve runs: the baseline drives the adaptive
    TPC-C mix alone; the HTAP run additionally attaches an
    :class:`~repro.db.htap.HtapMirror` to every partition option's
    database and schedules recurring analytic client sessions.  Each
    session executes the TPC-W-style best-seller report (order_line x
    item join, GROUP BY, top-k) and the full-table district-volume
    GROUP BY against the columnar mirror -- real scans over the data
    the OLTP mix is mutating -- and reserves ``analytics_load`` of the
    DB cores for ``report_window`` virtual seconds, modelling the CPU
    the analytical query steals from the transactional tier.  Because
    the mirror serves the scans lock-free, that reservation is the
    *entire* interference channel; the acceptance bar is <= 10%
    throughput degradation.
    """
    from repro.db.htap import HtapMirror, TpccAnalytics

    duration = duration if duration is not None else (12.0 if fast else 40.0)
    poll = duration / 10.0
    interval = (
        analytics_interval if analytics_interval is not None
        else duration / 8.0
    )
    window = report_window if report_window is not None else interval / 10.0
    if not 0.0 <= analytics_load <= 1.0:
        raise ValueError("analytics_load must be in [0, 1]")
    if window >= interval:
        raise ValueError("report_window must be shorter than the interval")

    result = HtapRunResult(
        clients=clients, duration=duration,
        analytics_interval=interval, report_window=window,
        analytics_load=analytics_load,
    )

    def one_run(with_htap: bool):
        built = make_tpcc_workload(
            db_cores=db_cores, seed=seed, pool_size=6 if fast else 16,
        )
        sessions = [
            TpccAnalytics(HtapMirror(
                opt.app.connection.database, HTAP_MIRROR_TABLES
            ).attach())
            for opt in built.workload.options
        ] if with_htap else []

        def analytic_session(engine: ServeEngine) -> None:
            if engine.now >= duration:
                return  # run is over: let the loop drain
            for analytics in sessions:
                analytics.best_sellers()
                analytics.district_volume()
            engine.set_db_external_load(analytics_load)
            engine.schedule(window, engine.set_db_external_load, 0.0)
            engine.schedule(interval, analytic_session, engine)

        engine, run = _serve(
            built, ADAPTIVE, clients=clients, duration=duration, poll=poll,
            db_cores=db_cores, think_time=think_time, seed=seed,
            name="htap" if with_htap else "oltp_only",
            events=[(interval, analytic_session)] if with_htap else (),
            tracing=tracing and with_htap,
        )
        return built, engine, run, sessions

    _, _, baseline, _ = one_run(with_htap=False)
    result.oltp_only_throughput = baseline.throughput

    built, engine, run, sessions = one_run(with_htap=True)
    result.htap_throughput = run.throughput
    _export(result, engine, run,
            {"scenario": "htap", "seed": seed, "clients": clients})
    result.reports_run = sum(s.reports_run for s in sessions)
    result.analytics_rows_scanned = sum(s.rows_scanned for s in sessions)
    # Final reports from the first option's mirror: the analytics path
    # produced real answers over the freshly mutated data.
    primary = sessions[0]
    result.best_sellers = primary.best_sellers(k=5)
    result.district_groups = len(primary.district_volume())
    result.mirror_counters = primary.mirror.snapshot_counters()
    # Acceptance: after the run drains, every mirror is byte-equal to
    # its row store -- the redo stream kept the columnar copy exact.
    for session in sessions:
        mirror = session.mirror
        for name in HTAP_MIRROR_TABLES:
            table = mirror.table(name)
            mirrored = {
                rowid: table.row(pos)
                for pos, rowid in enumerate(table.rowids)
            }
            if mirrored != dict(mirror.database.table(name).scan()):
                result.notes["mirror_divergence"] = name
                return result
    result.mirrors_consistent = True
    result.notes.update(
        db_cores=db_cores, think_time=think_time, seed=seed,
        warehouses=built.notes.get("warehouses"),
        completed=run.completed,
        live_executions=run.live_executions,
    )
    return result
