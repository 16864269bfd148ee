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

A scenario's result keeps the :class:`~repro.serve.stats.ServeResult`
runs it made, keyed by configuration label or phase, next to what no
run holds (the scenario's settings, fault and recovery ledgers,
analytics answers); reports read throughput, windows and time series
from the runs.  The sweeps are the exception: they keep one
:class:`~repro.serve.stats.SweepPoint` summary per run, as a sweep's
runs hold tens of thousands of samples each.
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
from repro.serve.stats import LoadSweepResult, ServeResult, SweepPoint
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


def _exports(engine: ServeEngine, run: ServeResult, meta: dict) -> dict:
    """A run's rendered exporter payloads as result keywords: the
    metrics always, the trace only when the engine traced."""
    return dict(
        metrics_json=render_metrics(run.metrics, meta=meta),
        trace_json=(render_chrome_trace(engine.tracer)
                    if engine.tracer.enabled else None),
    )


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
    result.notes.update(
        db_cores=db_cores, think_time=think_time,
        labels=built.workload.labels,
        fraction_on_db=built.notes.get("fraction_on_db"),
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
class ShardSweepResult:
    """Adaptive TPC-C throughput versus database shard count: one
    sweep point per shard count, in sweep order."""

    clients: int
    db_cores: int
    duration: float
    shard_key: str
    points: dict[int, SweepPoint] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Max-shard-count throughput over the single-server baseline."""
        if len(self.points) < 2:
            return 1.0
        base = self.points[min(self.points)].throughput
        top = self.points[max(self.points)].throughput
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
        result.points[shards] = SweepPoint.from_result(run)
        result.notes.setdefault("warehouses", built.notes.get("warehouses"))
    return result


# ---------------------------------------------------------------------------
# Replicated tier: fault injection and automatic failover
# ---------------------------------------------------------------------------


@dataclass
class FailoverRunResult:
    """One fault-injected serve run against the replicated shard tier.

    ``run`` holds the throughput, aborts, retries, failovers and
    metrics; the windows either side of the fault are read from it.
    """

    shards: int
    replicas: int
    fault_specs: list[str]
    faults_fired: list[tuple[float, str]]
    run: ServeResult
    replicas_consistent: bool
    # Rendered exporter payloads (deterministic: identically seeded
    # runs produce byte-identical strings).  trace_json is None unless
    # the run was started with tracing=True.
    metrics_json: str
    trace_json: Optional[str]

    @property
    def recovery_time(self) -> float:
        """Crash-to-promotion gap of the first failover (0 if none)."""
        failovers = self.run.failovers
        return failovers[0].recovery_time if failovers else 0.0

    @property
    def pre_fault_throughput(self) -> float:
        """Throughput from the end of warm-up to the first fault."""
        first = min(parse_fault_spec(s).at for s in self.fault_specs)
        return self.run.window_throughput(self.run.warmup, first)

    @property
    def post_failover_throughput(self) -> float:
        """Throughput from the first promotion to the end of the run.

        With no promotion (e.g. slow / partition-only faults), the
        window opens when the last transient fault lifts."""
        if self.run.failovers:
            start = self.run.failovers[0].promoted_at
        else:
            start = max(
                e.until if e.until is not None else e.at
                for e in map(parse_fault_spec, self.fault_specs)
            )
        return self.run.window_throughput(start, self.run.duration)

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
    exports = _exports(engine, run, {
        "scenario": "failover", "seed": seed, "clients": clients,
        "shards": shards, "replicas": replicas,
    })
    for sdb in built.databases:
        sdb.assert_replica_groups_consistent()
    return FailoverRunResult(
        shards=shards, replicas=replicas, fault_specs=list(fault_specs),
        faults_fired=list(injector.fired), run=run,
        replicas_consistent=True, **exports,
    )


# ---------------------------------------------------------------------------
# Durable WAL: whole-cluster crash, recovery, restart
# ---------------------------------------------------------------------------


@dataclass
class WalRecoveryResult:
    """One crash/recover(/restart) run against WAL-backed shards.

    ``pre_kill`` is the run the crash ended (its duration is the kill
    time); ``post_restart`` is the run served from the recovered state,
    None without a restart.  ``identical`` is the differential verdict:
    for every partition option, the database rebuilt from checkpoint +
    redo replay matches the killed cluster's in-memory state
    table-for-table, row-for-row, rowid-for-rowid.  Torn-write and
    corrupt-frame injection damage only on-disk bytes, so that
    in-memory state *is* the uninjected oracle.  The check is skipped
    (``identity_checked`` False) when an active ``fsyncfail`` fault
    lost acknowledged commits -- durability loss is then the expected
    outcome and ``lost_frames`` reports it.
    """

    duration: float
    shards: int
    sync_policy: str
    wal_dir: str
    fault_specs: list[str]
    faults_fired: list[tuple[float, str]]
    pre_kill: ServeResult
    metrics_json: str
    trace_json: Optional[str]
    post_restart: Optional[ServeResult] = None
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
        duration=duration, shards=shards, sync_policy=sync_policy,
        wal_dir=str(wal_dir), fault_specs=list(fault_specs),
        faults_fired=list(injector.fired), pre_kill=run,
        **_exports(engine, run, {
            "scenario": "wal_recovery", "seed": seed, "clients": clients,
            "shards": shards, "sync_policy": sync_policy,
        }),
    )

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
        _, result.post_restart = _serve(
            built, ADAPTIVE, clients=clients, duration=remaining,
            poll=remaining / 5.0, db_cores=db_cores, think_time=think_time,
            seed=seed, shards=shards, warmup=False, name="wal_post_restart",
            wal_managers=managers2,
        )
        for manager in managers2:
            manager.sync_all()
            manager.close()
    return result


@dataclass
class ServeSwitchResult:
    """One run per configuration under the same mid-run DB load spike;
    reports read each run per ``bucket`` seconds of completion time."""

    load_time: float
    bucket: float
    runs: dict[str, ServeResult] = field(default_factory=dict)
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
    if built is None:
        built = _built_workload(
            workload, fast, db_cores=db_cores, seed=seed, shards=shards,
            shard_key=shard_key, replicas=replicas,
        )

    result = ServeSwitchResult(load_time=load_time, bucket=duration / 12.0)

    def spike(engine: ServeEngine) -> None:
        engine.set_db_external_load(external_load)

    for label in (STATIC_LOW, STATIC_HIGH, ADAPTIVE):
        _, result.runs[label] = _serve(
            built, label, clients=clients, duration=duration, poll=poll,
            db_cores=db_cores, think_time=think_time, seed=seed,
            shards=shards, warmup=False, events=[(load_time, spike)],
            notes=result.notes,
        )
    return result


# ---------------------------------------------------------------------------
# Online repartitioning under a load-mix shift
# ---------------------------------------------------------------------------


@dataclass
class RepartitionRunResult:
    """One run per configuration under the same mid-run mix shift."""

    shift_time: float
    runs: dict[str, ServeResult] = field(default_factory=dict)
    repartition: Optional[RepartitionSummary] = None
    notes: dict[str, Any] = field(default_factory=dict)

    def post_shift_throughput(self, label: str) -> float:
        """``label``'s throughput from the shift to the end of its run."""
        run = self.runs[label]
        return run.window_throughput(self.shift_time, run.duration)

    def best_static(self, post_shift: bool = True) -> float:
        return max(
            self.post_shift_throughput(label) if post_shift
            else self.runs[label].throughput
            for label in (STATIC_LOW, STATIC_HIGH)
        )


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
    result = RepartitionRunResult(shift_time=shift_time)

    for label in (STATIC_LOW, STATIC_HIGH, ADAPTIVE, REPARTITION):
        # Fresh workload per configuration: minted options and trace
        # pools must not leak across runs.
        shifting = make_shifting_workload(
            db_cores=db_cores, seed=seed, pool_size=6,
        )
        n_initial_options = len(shifting.built.workload.labels)
        engine, result.runs[label] = _serve(
            shifting.built, label, clients=clients, duration=duration,
            poll=poll, db_cores=db_cores, think_time=think_time, seed=seed,
            warmup=False, shifting=shifting,
            events=[(shift_time,
                     lambda _: shifting.mix.set_phase("checkout"))],
        )
        if label == REPARTITION:
            result.repartition = engine.controller.repartition_summary()
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

    ``oltp_only`` and ``htap`` are the two identically seeded runs,
    without and with the analytical sessions.  The analytical sessions
    never touch the row store: they scan the
    :class:`~repro.db.htap.HtapMirror` columnar copy that the redo
    stream maintains, so the only OLTP cost is the DB CPU the reports
    reserve while they run.  ``degradation`` is the fraction of
    OLTP-only throughput lost to that reservation.
    """

    analytics_interval: float
    report_window: float
    analytics_load: float
    oltp_only: ServeResult
    htap: ServeResult
    metrics_json: str
    trace_json: Optional[str]
    reports_run: int = 0
    analytics_rows_scanned: int = 0
    best_sellers: list = field(default_factory=list)
    district_groups: int = 0
    mirror_counters: dict = field(default_factory=dict)
    mirrors_consistent: bool = False
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def degradation(self) -> float:
        base = self.oltp_only.throughput
        if base <= 0:
            return 0.0
        return max(0.0, 1.0 - self.htap.throughput / base)


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
        return engine, run, sessions

    _, baseline, _ = one_run(with_htap=False)
    engine, run, sessions = one_run(with_htap=True)
    result = HtapRunResult(
        analytics_interval=interval, report_window=window,
        analytics_load=analytics_load, oltp_only=baseline, htap=run,
        **_exports(engine, run,
                   {"scenario": "htap", "seed": seed, "clients": clients}),
        reports_run=sum(s.reports_run for s in sessions),
        analytics_rows_scanned=sum(s.rows_scanned for s in sessions),
    )
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
    return result
