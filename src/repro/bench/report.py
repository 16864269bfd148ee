"""Text reporting: tables mirroring the paper's plots."""

from __future__ import annotations

from repro.bench.experiments import (
    ExperimentResult,
    Fig11Result,
    Fig14Result,
    Micro1Result,
)
from repro.bench.serve_experiments import (
    ADAPTIVE,
    REPARTITION,
    FailoverRunResult,
    HtapRunResult,
    RepartitionRunResult,
    ServeSwitchResult,
    ShardSweepResult,
    WalRecoveryResult,
)
from repro.serve.stats import LoadSweepResult


def format_curves(result: ExperimentResult) -> str:
    """Latency / CPU / network table per implementation and rate."""
    lines = [f"== {result.name} (db_cores={result.notes.get('db_cores')}) =="]
    header = (
        f"{'impl':<8} {'offered':>9} {'tput':>9} {'lat ms':>9} "
        f"{'p95 ms':>9} {'app%':>6} {'db%':>6} {'KB/s':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for impl in result.implementations():
        for point in result.curves[impl]:
            lines.append(
                f"{impl:<8} {point.offered_rate:>9.0f} "
                f"{point.throughput:>9.0f} {point.latency_ms:>9.2f} "
                f"{point.p95_latency_ms:>9.2f} "
                f"{100 * point.app_util:>6.1f} {100 * point.db_util:>6.1f} "
                f"{point.net_kb_per_sec:>9.1f}"
            )
        lines.append("-" * len(header))
    return "\n".join(lines)


def _by_time(runs: dict, width: float) -> dict[float, dict[str, float]]:
    """Mean latency per ``width``-second bucket of each run, keyed by
    the bucket's rounded midpoint and then by run label."""
    by_time: dict[float, dict[str, float]] = {}
    for name, run in runs.items():
        for when, latency in run.latency_buckets(width):
            by_time.setdefault(round(when, 3), {})[name] = latency
    return by_time


def format_fig11(result: Fig11Result) -> str:
    names = sorted(result.runs)
    lines = [
        f"== fig11: dynamic switching "
        f"(rate={result.runs['pyxis'].offered_rate:.0f}/s, "
        f"DB loaded at t={result.load_time:.0f}s) =="
    ]
    header = f"{'t (s)':>8} " + " ".join(f"{name:>12}" for name in names)
    lines.append(header + "   jdbc-like %")
    by_time = _by_time(result.runs, result.bucket)
    mix = result.runs["pyxis"].trace_mix(result.mix_bucket)
    mix_lookup = {round(t, 3): f.get(result.jdbc_like, 0.0) for t, f in mix}
    for when in sorted(by_time):
        row = f"{when:>8.0f} "
        for name in names:
            latency = by_time[when].get(name)
            row += (
                f"{1000 * latency:>11.1f}ms" if latency is not None
                else f"{'-':>12}"
            )
        nearest = min(
            mix_lookup, key=lambda t: abs(t - when), default=None
        )
        if nearest is not None and abs(nearest - when) <= result.load_time:
            row += f"   {100 * mix_lookup[nearest]:.0f}%"
        lines.append(row)
    return "\n".join(lines)


def format_fig14(result: Fig14Result) -> str:
    lines = ["== fig14: microbenchmark 2 completion times (s) =="]
    header = f"{'partition':<10}" + "".join(
        f"{load:>15}" for load in result.loads
    )
    lines.append(header)
    for label in result.partitions:
        row = f"{label:<10}"
        for load in result.loads:
            value = result.times[(label, load)]
            marker = "*" if result.best_for(load) == label else " "
            row += f"{value:>14.3f}{marker}"
        lines.append(row)
    lines.append("(* = fastest partition for that load; paper's diagonal)")
    return "\n".join(lines)


def _plan_cache_line(notes: dict) -> str | None:
    """One-line summary of the plan-cache counters summed over a
    scenario's runs."""
    stats = notes.get("plan_cache")
    if not stats:
        return None
    lookups = stats["hits"] + stats["misses"]
    ratio = round(stats["hits"] / lookups, 4) if lookups else 0.0
    return (
        f"plan cache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
        f"{stats['evictions']} eviction(s) (hit ratio {ratio:.2%}); "
        f"{stats['compiled_plans']} plan(s) compiled to Python source"
    )


def format_serve_sweep(result: LoadSweepResult) -> str:
    """Throughput / latency percentiles versus client count."""
    lines = [
        f"== serve load sweep: {result.workload} "
        f"(db_cores={result.notes.get('db_cores')}, "
        f"think={result.notes.get('think_time')}s) =="
    ]
    header = (
        f"{'config':<12} {'clients':>7} {'tput/s':>8} {'p50 ms':>8} "
        f"{'p95 ms':>8} {'p99 ms':>8} {'db%':>6} {'sw':>3}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label, points in result.curves.items():
        for p in points:
            lines.append(
                f"{label:<12} {p.clients:>7} {p.throughput:>8.1f} "
                f"{p.p50_ms:>8.2f} {p.p95_ms:>8.2f} {p.p99_ms:>8.2f} "
                f"{100 * p.db_util:>6.1f} {p.switches:>3}"
            )
        lines.append("-" * len(header))
    cache_line = _plan_cache_line(result.notes)
    if cache_line is not None:
        lines.append(cache_line)
    return "\n".join(lines)


def format_serve_shard_sweep(result: ShardSweepResult) -> str:
    """Adaptive throughput versus database shard count."""
    lines = [
        f"== serve shard sweep: tpcc ({result.clients} clients, "
        f"{result.db_cores} cores/shard, "
        f"shard_key={result.shard_key}) =="
    ]
    header = (
        f"{'shards':>6} {'tput/s':>8} {'p95 ms':>8} {'app%':>6} "
        f"{'db% per shard':<24} {'sw':>3}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for shards, p in result.points.items():
        per_shard = " ".join(
            f"{100 * u:.0f}" for u in p.db_shard_utilization
        )
        lines.append(
            f"{shards:>6} {p.throughput:>8.1f} {p.p95_ms:>8.2f} "
            f"{100 * p.app_util:>6.1f} {per_shard:<24} "
            f"{p.switches:>3}"
        )
    lines.append(
        f"speedup at {max(result.points)} shards: "
        f"{result.speedup:.2f}x over the single-server baseline"
    )
    return "\n".join(lines)


def _two_pc_line(metrics: dict, aborted: int, retries: int) -> str:
    """The 2PC abort/retry summary line of a replicated serve run."""
    parts = []
    if "two_pc.commits" in metrics:
        parts.append(
            f"2PC: {metrics['two_pc.commits']} commit(s), "
            f"{metrics['two_pc.aborts']} abort(s)"
        )
    parts.append(f"txn aborts: {aborted}, retries: {retries}")
    return "; ".join(parts)


def _replica_reads_line(metrics: dict) -> str | None:
    """Replica-offload summary of a replicated serve run (None when
    replica reads were not enabled)."""
    if "replica_reads.served" not in metrics:
        return None
    served = metrics["replica_reads.served"]
    fallback = metrics["replica_reads.fallback"]
    total = served + fallback
    offloaded = 100.0 * served / total if total else 0.0
    return (
        f"replica reads: {served} served by replicas, {fallback} "
        f"primary fallback(s) ({offloaded:.0f}% offloaded)"
    )


def format_serve_failover(result: FailoverRunResult) -> str:
    """Fault-injected run: recovery time and throughput on both sides."""
    run = result.run
    lines = [
        f"== serve failover: tpcc ({run.clients} clients, "
        f"{result.shards} shard(s) x (primary + {result.replicas} "
        f"replica(s))) =="
    ]
    lines.append("faults fired:")
    for when, label in result.faults_fired:
        lines.append(f"  t={when:6.2f}s  {label}")
    for event in run.failovers:
        lines.append(
            f"failover: shard {event.shard} -> replica "
            f"{event.chosen_replica} (replayed {event.replayed_entries} "
            f"log entr(ies), generation {event.generation}); detected "
            f"+{event.detected_at - event.crashed_at:.2f}s, promoted "
            f"+{event.recovery_time:.2f}s after the crash"
        )
    if not run.failovers:
        lines.append("failover: none (no promotion happened)")
    lines.append(
        f"throughput: {run.throughput:.1f} txn/s overall; "
        f"pre-fault {result.pre_fault_throughput:.1f}, post-failover "
        f"{result.post_failover_throughput:.1f} "
        f"({100 * result.recovered_fraction:.0f}% recovered)"
    )
    lines.append(_two_pc_line(run.metrics, run.aborted, run.txn_retries))
    reads_line = _replica_reads_line(run.metrics)
    if reads_line is not None:
        lines.append(reads_line)
    lines.append(
        "replica groups: "
        + ("bit-identical after catch-up"
           if result.replicas_consistent else "DIVERGED")
    )
    return "\n".join(lines)


def format_serve_htap(result: HtapRunResult) -> str:
    """HTAP run: OLTP cost of the concurrent analytics sessions."""
    lines = [
        f"== serve htap: tpcc ({result.htap.clients} clients, analytics "
        f"every {result.analytics_interval:g}s reserving "
        f"{100 * result.analytics_load:.0f}% of DB cores for "
        f"{result.report_window:g}s) =="
    ]
    lines.append(
        f"throughput: {result.oltp_only.throughput:.1f} txn/s OLTP-only "
        f"-> {result.htap.throughput:.1f} txn/s with analytics "
        f"({100 * result.degradation:.1f}% degradation)"
    )
    lines.append(
        f"analytics: {result.reports_run} report(s), "
        f"{result.analytics_rows_scanned} mirror row(s) scanned, "
        f"{result.district_groups} district group(s)"
    )
    for i_id, name, qty in result.best_sellers:
        lines.append(f"  best seller: {name} (item {i_id}) sold {qty}")
    counters = result.mirror_counters
    if counters:
        lines.append(
            f"mirror: {counters['mirrored_tables']} table(s), "
            f"{counters['mirrored_rows']} row(s), "
            f"{counters['commits_applied']} commit(s) / "
            f"{counters['ops_applied']} op(s) applied"
        )
    lines.append(
        "columnar copy: "
        + ("bit-identical to the row store"
           if result.mirrors_consistent else "DIVERGED")
    )
    return "\n".join(lines)


def format_wal_recovery(result: WalRecoveryResult) -> str:
    """Whole-cluster crash: durability ledger and the recovery verdict."""
    pre_kill = result.pre_kill
    lines = [
        f"== wal crash/recovery: tpcc ({pre_kill.clients} clients, "
        f"{result.shards} shard(s), sync={result.sync_policy}, "
        f"killed at t={pre_kill.duration:g}s of {result.duration:g}s) =="
    ]
    lines.append(f"wal dir: {result.wal_dir}")
    lines.append("faults fired:")
    for when, label in result.faults_fired:
        lines.append(f"  t={when:6.2f}s  {label}")
    if not result.faults_fired:
        lines.append("  none")
    lines.append(
        f"pre-kill: {pre_kill.completed} txn(s) at "
        f"{pre_kill.throughput:.1f}/s; {result.checkpoints} "
        f"checkpoint(s), {result.wal_bytes} log byte(s) written"
    )
    if result.sync_failures or result.lost_frames:
        lines.append(
            f"durability loss: {result.sync_failures} failed fsync(s), "
            f"{result.lost_frames} acknowledged frame(s) lost at the crash"
        )
    lines.append(
        f"recovery: {result.commits_applied} redo frame(s) replayed, "
        f"{result.frames_skipped} skipped below checkpoints, "
        f"{result.torn_tails} torn tail(s) dropped"
    )
    if result.in_doubt_committed or result.in_doubt_aborted:
        lines.append(
            f"in-doubt 2PC: {len(result.in_doubt_committed)} committed "
            f"by durable decision, {len(result.in_doubt_aborted)} "
            f"presumed abort"
        )
    if result.identity_checked:
        lines.append(
            "state vs killed cluster: "
            + ("bit-identical" if result.identical else "DIVERGED")
        )
        for problem in result.mismatches:
            lines.append(f"  {problem}")
    else:
        lines.append(
            "state check skipped: the crash lost acknowledged commits "
            "(fsync faults), so divergence is the expected outcome"
        )
    restart = result.post_restart
    if restart is not None:
        lines.append(
            f"restart: served {restart.completed} txn(s) at "
            f"{restart.throughput:.1f}/s from the recovered state"
        )
    return "\n".join(lines)


def format_serve_switching(result: ServeSwitchResult) -> str:
    """Latency time series plus the adaptive partition mix."""
    adaptive = result.runs[ADAPTIVE]
    lines = [
        f"== serve dynamic switching ({adaptive.clients} clients, "
        f"DB loaded at t={result.load_time:.0f}s) =="
    ]
    labels = list(result.runs)
    header = f"{'t (s)':>8} " + " ".join(f"{name:>13}" for name in labels)
    lines.append(header + "   jdbc-like %")
    by_time = _by_time(result.runs, result.bucket)
    # Option 0 is the JDBC-like partition (the lowest budget).
    mix = adaptive.option_mix(result.bucket)
    mix_lookup = {round(t, 3): f.get(0, 0.0) for t, f in mix}
    # As few decimals as keep every bucket's time label distinct.
    times = sorted(by_time)
    digits = next(
        (d for d in range(3) if len({f"{t:.{d}f}" for t in times})
         == len(times)),
        3,
    )
    for when in times:
        row = f"{when:>8.{digits}f} "
        for name in labels:
            latency = by_time[when].get(name)
            row += (
                f"{1000 * latency:>12.1f}ms" if latency is not None
                else f"{'-':>13}"
            )
        if when in mix_lookup:
            row += f"   {100 * mix_lookup[when]:.0f}%"
        lines.append(row)
    lines.append(
        "throughput: "
        + ", ".join(
            f"{name} {run.throughput:.1f}/s"
            for name, run in result.runs.items()
        )
    )
    ctrl = adaptive.controller
    if ctrl is not None:
        events = ", ".join(
            f"t={e.now:.0f}s {e.from_index}->{e.to_index} "
            f"(ewma {e.level:.0f}%)"
            for e in ctrl.recent_switches
        ) or "none"
        lines.append(
            f"controller: {ctrl.samples} samples, {ctrl.switches} "
            f"switch(es); events: {events}"
        )
    cache_line = _plan_cache_line(result.notes)
    if cache_line is not None:
        lines.append(cache_line)
    return "\n".join(lines)


def format_serve_repartition(result: RepartitionRunResult) -> str:
    """Mix-shift scenario: static ladder vs adaptive vs repartition."""
    clients = result.runs[ADAPTIVE].clients
    lines = [
        f"== online repartitioning ({clients} clients, "
        f"mix shifts browse->checkout at t={result.shift_time:.0f}s) =="
    ]
    header = (
        f"{'config':<14} {'tput/s':>8} {'post-shift/s':>13}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label, run in result.runs.items():
        post = result.post_shift_throughput(label)
        lines.append(f"{label:<14} {run.throughput:>8.1f} {post:>13.1f}")
    lines.append("-" * len(header))
    best = result.best_static(post_shift=True)
    repart = result.post_shift_throughput(REPARTITION)
    if best > 0:
        lines.append(
            f"post-shift: repartition {repart:.1f}/s vs best static "
            f"{best:.1f}/s ({repart / best:.2f}x)"
        )
    summary = result.repartition
    if summary is not None:
        events = ", ".join(
            f"t={e.now:.0f}s drift={e.drift:.2f} "
            f"budget={e.budget:.0f} -> option {e.index}"
            for e in summary.events
        ) or "none"
        lines.append(
            f"repartition controller: {summary.checks} checks, "
            f"{summary.mints} mint(s); {events}"
        )
    stats = result.notes.get("session_stats")
    if stats:
        lines.append(
            "session: "
            f"{stats['structure_builds']} structure build(s), "
            f"{stats['reweights']} reweight(s), "
            f"{stats['solves']} solve(s) "
            f"({stats['warm_solves']} warm), "
            f"{stats['pyxil_compiles']} compile(s), "
            f"{stats['pyxil_reuses']} reuse(s)"
        )
    return "\n".join(lines)


def format_recovery_report(report) -> str:
    """Per-shard replay summary of one WAL directory's recovery."""
    lines = [
        f"== recovered {report.name!r} from {report.directory} "
        f"(epoch {report.epoch}) =="
    ]
    lines.append(
        f"{report.shards} shard(s), {report.replicas} replica(s) per "
        f"shard, {report.decisions} durable commit decision(s)"
    )
    for shard in report.shard_reports:
        line = (
            f"shard {shard.shard}: checkpoint lsn "
            f"{shard.checkpoint_lsn} ({shard.checkpoint_rows} row(s)), "
            f"replayed {shard.commits_applied + shard.resolves_applied} "
            f"frame(s), skipped {shard.frames_skipped}, tip "
            f"{shard.tip}"
        )
        if shard.torn_tail:
            line += "; torn tail dropped"
        lines.append(line)
    committed = report.in_doubt_committed
    aborted = report.in_doubt_aborted
    if committed:
        lines.append(
            f"in-doubt committed (decision durable): {', '.join(committed)}"
        )
    if aborted:
        lines.append(
            f"in-doubt presumed abort: {', '.join(aborted)}"
        )
    return "\n".join(lines)


def format_micro1(result: Micro1Result) -> str:
    return (
        f"== micro1: runtime overhead (n={result.n}) ==\n"
        f"native : {result.native_seconds * 1000:.3f} ms\n"
        f"pyxis  : {result.pyxis_seconds * 1000:.3f} ms\n"
        f"overhead: {result.overhead:.1f}x (paper: ~6x vs native Java)"
    )
