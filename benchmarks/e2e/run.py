"""Live wall-clock end-to-end benchmark with a per-layer ledger.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--scale tiny|full]
        [--record] [--check-agreement]

Every transaction really executes, closed-loop, one client, one thread,
one connection, through the repo's *default* rungs.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Metric
names, units, directions and bounds are read from ``BENCHMARK.json``;
README.md beside this file defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
HISTORY = HERE / "history.jsonl"
WORKLOADS = ("tpcc_bare", "tpcc_tier", "tpcw_browse", "serve_sim")
RUNG_ENV_VARS = ("REPRO_INTERP", "REPRO_SQL_EXEC")
# Share of --seconds the traced run spends on its untraced reference
# pass; the traced pass then repeats exactly the same operations.
REFERENCE_SHARE = 0.4


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program():
    """Import the program under test; returns (module, seconds)."""
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)  # this checkout's source wins
    start = time.perf_counter()
    try:
        import e2e_workloads
    except ImportError as exc:
        sys.exit(f"cannot import the program under test from "
                 f"{ROOT / 'src'}: {exc}")
    return e2e_workloads, time.perf_counter() - start


def _percentile(ordered: list[float], share: float) -> float:
    """Nearest rank; 0.0 when every operation of the round failed."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _best_quartile(best_first: list[float]) -> float:
    """The value a quarter of the way in from the best round.  The
    sandbox's neighbours only ever slow a round down, often half the
    rounds of a run, so the median round moves with their load while
    the best quartile stays with the program; the very best round
    would add the luck of one sample."""
    return best_first[len(best_first) // 4]


class FlushWaits:
    """Seconds the process has spent blocked in ``os.fsync``.

    The sandbox's virtual disk flushes in 0.15 ms or in 4 ms, and flips
    between the two for minutes at a time; on unchanged code that moved
    ``tpcc_tier`` between 300 and 440 transactions per second.  So the
    waits are timed here, reported on their own, and taken out of the
    wall times the end-to-end metrics are made of.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self._fsync = os.fsync

    def __enter__(self) -> "FlushWaits":
        os.fsync = self._timed
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._fsync

    def _timed(self, fd) -> None:
        start = time.perf_counter()
        try:
            self._fsync(fd)
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1


def _pace() -> float:
    """Seconds one pass of a fixed pure-Python loop takes right now:
    the sandbox's speed, which its neighbours move by a quarter for
    minutes at a time."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(20_000):
        key = str(i % 500)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


@dataclass
class Window:
    """A few dozen milliseconds of operations between two passes of the
    pace loop."""

    txns: int = 0
    wall: float = 0.0  # without the time blocked in fsync
    latencies: list[float] = field(default_factory=list)  # likewise
    pace: float = 0.0  # mean of the pace-loop passes before and after


@dataclass
class Timed:
    """What one timed phase measured.

    Wall times are reported *corrected for the sandbox's slowdown*:
    each window's times are divided by how much slower the pace loop
    ran around it than on its fastest pass of the phase.  On a quiet
    machine that factor is 1 and the numbers are plain wall clock; on
    this sandbox it wanders between 1.05 and 1.4, and uncorrected
    medians wander with it.
    """

    rounds: list[list[Window]] = field(default_factory=list)
    quiet_pace: float = float("inf")
    flush_wait: float = 0.0
    model_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    rss_mb_after_first_round: float = 0.0

    @property
    def txns(self) -> int:
        return sum(w.txns for windows in self.rounds for w in windows)

    def slowdown(self, window: Window, corrected: bool = True) -> float:
        return window.pace / self.quiet_pace if corrected else 1.0

    def median_slowdown(self) -> float:
        return statistics.median(
            self.slowdown(w) for windows in self.rounds for w in windows
        )

    def wall(self, corrected: bool = True) -> float:
        return sum(
            w.wall / self.slowdown(w, corrected)
            for windows in self.rounds for w in windows
        )

    def per_second(self, corrected: bool = True) -> list[float]:
        """Throughput of each round, best first."""
        return sorted((
            sum(w.txns for w in windows)
            / sum(w.wall / self.slowdown(w, corrected) for w in windows)
            for windows in self.rounds
        ), reverse=True)

    def latency_ms(self, share: float, corrected: bool = True) -> float:
        return 1e3 * _best_quartile(sorted(
            _percentile(sorted(
                sample / self.slowdown(w, corrected)
                for w in windows for sample in w.latencies
            ), share)
            for windows in self.rounds
        ))


def timed_loop(wl, scale, name: str, rounds: int, waits: FlushWaits, *,
               seconds: Optional[float] = None, rec=None) -> Timed:
    """Run ``rounds`` whole rounds of operations, fewer if ``seconds``
    pass first; a round is so many windows, and between windows the
    pace loop runs once.  One latency sample per operation: its wall
    time per transaction it completed."""
    out = Timed()
    clock = time.perf_counter
    window_ops = scale.window_ops[name]
    windows_per_round = scale.round_ops[name] // window_ops
    if rec is not None:
        input_span = rec.name_id("harness.input")
        op_span = rec.name_id("harness.op")
        pace_span = rec.name_id("harness.pace")
    deadline = clock() + seconds if seconds is not None else None
    pace_before = out.quiet_pace = _pace()
    while True:
        windows = []
        for _ in range(windows_per_round):
            window = Window()
            window_start = clock()
            waited_before_window = waits.seconds
            for _ in range(window_ops):
                if rec is not None:
                    rec.txn = out.attempted
                    rec.begin(input_span)
                inp = wl.next_input()
                if rec is not None:
                    rec.end()
                    rec.begin(op_span)
                waited = waits.seconds
                start = clock()
                try:
                    txns, model_seconds, result = wl.run_op(inp)
                    ok = True
                except Exception:  # an operation that raises is a failure
                    ok = False
                end = clock()
                if rec is not None:
                    rec.end()
                out.attempted += 1
                if not ok:
                    if not out.failed:
                        traceback.print_exc()
                    out.failed += 1
                    wl.recover_op()
                    continue
                if not wl.check(inp, result):
                    out.failed += 1
                if txns:
                    window.latencies.append(
                        (end - start - (waits.seconds - waited)) / txns
                    )
                window.txns += txns
                out.model_seconds += model_seconds
            waited = waits.seconds - waited_before_window
            window.wall = clock() - window_start - waited
            out.flush_wait += waited
            if rec is not None:
                rec.begin(pace_span)
            pace_after = _pace()
            if rec is not None:
                rec.end()
            window.pace = (pace_before + pace_after) / 2.0
            out.quiet_pace = min(out.quiet_pace, pace_after)
            pace_before = pace_after
            windows.append(window)
        out.rounds.append(windows)
        if len(out.rounds) == 1:
            out.rss_mb_after_first_round = _peak_rss_mb()
        if len(out.rounds) == rounds or (
            deadline is not None and clock() >= deadline
        ):
            return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(workloads, name, seed, scale, waits: FlushWaits, rec=None):
    """One set-up: everything before the first timed operation.
    Returns the workload and the seconds it took, flush waits taken out."""
    start = time.perf_counter()
    waited = waits.seconds
    wl = workloads.build(name, seed, scale, rec)
    wl.warm_up()
    return wl, time.perf_counter() - start - (waits.seconds - waited)


def _finish(wl, checks, timed: Timed) -> tuple[int, int]:
    wl.close()
    for check in checks:
        status = "ok  " if check.ok else "FAIL"
        print(f"  {status} {check.name}"
              + (f" ({check.detail})" if check.detail and not check.ok else ""))
    attempted = timed.attempted + len(checks)
    failed = timed.failed + sum(not check.ok for check in checks)
    return attempted, failed


def probe_set_up(name: str, seed: int, scale) -> float:
    """Import, build and warm up once more in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--scale", scale.name, "--setup-only"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_end_to_end(workloads, import_seconds, name, seed, seconds, scale,
                   waits: FlushWaits):
    set_ups = [probe_set_up(name, seed, scale)
               for _ in range(scale.setup_probes)]
    wl, elapsed = _set_up(workloads, name, seed, scale, waits)
    set_ups.append(import_seconds + elapsed)
    wl.capture_baseline()
    timed = timed_loop(wl, scale, name, scale.rounds[name], waits,
                       seconds=seconds)
    attempted, failed = _finish(wl, wl.verify(), timed)
    per_second = timed.per_second()
    metrics = {
        "txn_per_s": _best_quartile(per_second),
        "txn_p50_ms": timed.latency_ms(0.50),
        "txn_p95_ms": timed.latency_ms(0.95),
        "model_latency_ms": 1e3 * timed.model_seconds / max(timed.txns, 1),
        "setup_s": statistics.median(set_ups),
        "peak_rss_mb": timed.rss_mb_after_first_round,
    }
    notes = (f"{timed.txns} transactions in {len(timed.rounds)} rounds "
             f"({per_second[-1]:.0f}..{per_second[0]:.0f} per second), "
             f"{timed.wall(corrected=False):.2f} s timed and "
             f"{timed.flush_wait:.2f} s blocked in fsync; sandbox slowdown "
             f"{timed.median_slowdown():.3f}, uncorrected "
             f"{_best_quartile(timed.per_second(corrected=False)):.6g} 1/s "
             f"{timed.latency_ms(0.50, corrected=False):.6g} / "
             f"{timed.latency_ms(0.95, corrected=False):.6g} ms; set-ups "
             + "/".join(f"{s:.2f}" for s in set_ups) + " s")
    return metrics, attempted, failed, notes


def run_traced(workloads, import_seconds, name, seed, seconds, scale, spec,
               waits: FlushWaits):
    """The per-layer run: an untraced reference pass, then a second
    set-up with spans around every layer's public callables that
    repeats exactly the same operations."""
    from e2e_spans import SpanRecorder

    reference_wl, _ = _set_up(workloads, name, seed, scale, waits)
    reference = timed_loop(reference_wl, scale, name, scale.rounds[name],
                           waits, seconds=REFERENCE_SHARE * seconds)
    setup_parts = reference_wl.setup_parts
    reference_wl.close()
    del reference_wl

    rec = SpanRecorder()
    workloads.trace_classes(rec)
    try:
        wl, _ = _set_up(workloads, name, seed, scale, waits, rec)
        wl.capture_baseline()
        rec.clear()
        before = wl.counters()
        root = rec.name_id("harness.run")
        start = time.perf_counter()
        rec.begin(root)
        timed = timed_loop(wl, scale, name, len(reference.rounds), waits,
                           rec=rec)
        rec.end()
        traced_wall = time.perf_counter() - start
        after = wl.counters()
        ledger = rec.ledger()
        spans = sum(row.calls for row in ledger.values())
        rec.write(workloads.OUT_DIR / f"{name}.spans.i64")
    finally:
        rec.restore()
    # Counters grow over the traced pass; levels (*_max, *_total) are
    # read at its end.
    counters = {
        key: (after[key] if key.endswith(("_max", "_total"))
              else after[key] - before[key])
        for key in after
    }
    micro = wl.micro()
    attempted, failed = _finish(wl, wl.verify(), timed)
    attempted += reference.attempted
    failed += reference.failed
    metrics = layer_metrics(
        ledger, counters, micro, wl, timed, reference, traced_wall, spans,
        setup_parts, import_seconds,
    )
    names = {m["name"] for m in spec["per_layer"]}
    if set(metrics) != names:
        raise SystemExit(
            "per-layer metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ names)}"
        )
    notes = (f"{timed.txns} traced transactions, {spans} spans; reference "
             f"pass {reference.wall(corrected=False):.2f} s, traced pass "
             f"{timed.wall(corrected=False):.2f} s")
    return metrics, attempted, failed, notes


def layer_metrics(ledger, counters, micro, wl, timed, reference,
                  traced_wall, spans, setup_parts, import_seconds) -> dict:
    txns = max(timed.txns, 1)
    root_ns = ledger["harness.run"].total_ns

    def row(name):
        return ledger.get(name)

    def self_us(*names) -> float:
        """Self time of the named spans, in microseconds per transaction."""
        total = sum(row(n).self_ns for n in names if row(n) is not None)
        return total / txns / 1e3

    def calls(*names) -> int:
        return sum(row(n).calls for n in names if row(n) is not None)

    def per_call_ms(name) -> float:
        found = row(name)
        return found.total_ns / found.calls / 1e6 if found else 0.0

    def count(key) -> float:
        return counters.get(key, 0)

    def per_txn(key) -> float:
        return count(key) / txns

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    captured = getattr(wl, "captured", None)
    statements = captured.statements if captured else 0
    routes = captured.routes if captured else {}
    commits = count("commits")
    lookups = count("cache_hits") + count("cache_misses")
    harness_ns = sum(
        row(n).self_ns
        for n in ("harness.run", "harness.input", "harness.op", "harness.pace")
        if row(n) is not None
    )
    reference_ordered = sorted(
        sample for windows in reference.rounds for w in windows
        for sample in w.latencies
    )
    checkpoint = row("db.wal.checkpoint")
    session = row("htap.session")
    recovery = getattr(wl, "recovery", {})
    return {
        # set-up path (from the untraced reference set-up)
        "core.import_ms": 1e3 * import_seconds,
        "core.from_source_ms": setup_parts.get("core.from_source_ms", 0.0),
        "profiler.profile_ms": setup_parts.get("profiler.profile_ms", 0.0),
        "core.partition_ms": setup_parts.get("core.partition_ms", 0.0),
        "core.solves": setup_parts.get("core.solves", 0),
        "core.pyxil_compiles": setup_parts.get("core.pyxil_compiles", 0),
        "workloads.load_ms": setup_parts.get("workloads.load_ms", 0.0),
        "runtime.load_ms": setup_parts.get("runtime.load_ms", 0.0),
        "db.wal.attach_ms": setup_parts.get("db.wal.attach_ms", 0.0),
        "db.htap.attach_ms": setup_parts.get("db.htap.attach_ms", 0.0),
        # block runtime
        "runtime.invokes_per_txn": calls("runtime.exec") / txns,
        "runtime.exec_self_us": self_us("runtime.exec"),
        "runtime.blocks_per_txn": per_txn("blocks"),
        "runtime.control_transfers_per_txn": per_txn("control_transfers"),
        "runtime.db_round_trips_per_txn": per_txn("db_round_trips"),
        "runtime.heap_sync_us": self_us("runtime.heap_sync"),
        "runtime.heap_sync_calls_per_txn": calls("runtime.heap_sync") / txns,
        "runtime.wire_size_ns": micro.get("wire_size_ns", 0.0),
        "runtime.wire_copy_ns": micro.get("wire_copy_ns", 0.0),
        "sim.cluster_us": self_us("sim.cluster"),
        "sim.cluster_calls_per_txn": calls("sim.cluster") / txns,
        # connection, plan cache, SQL
        "db.jdbc.call_us": self_us("db.jdbc.call"),
        "db.jdbc.prepare_us": self_us("db.jdbc.prepare"),
        "db.jdbc.plan_cache_hit_ratio": ratio(count("cache_hits"), lookups),
        "db.jdbc.plan_cache_misses": count("cache_misses"),
        "db.jdbc.cold_prepare_ms": micro.get("cold_prepare_ms", 0.0),
        "db.sql.exec_us": self_us("db.sql.exec"),
        "db.sql.statements_per_txn": statements / txns,
        "db.sql.rows_touched_per_row_returned": ratio(
            captured.rows_touched if captured else 0,
            captured.rows_returned if captured else 0,
        ),
        "db.sql.compiled_plans": count("compiled_plans_total"),
        "db.sql.source_plans": count("source_plans_total"),
        # transactions
        "db.txn.lock_us": self_us("db.txn.lock_acquire",
                                  "db.txn.lock_release"),
        "db.txn.lock_acquires_per_txn": calls("db.txn.lock_acquire") / txns,
        "db.txn.commit_us": self_us("db.txn.commit"),
        "db.txn.rollback_us": self_us("db.txn.rollback"),
        "db.txn.undo_records_per_txn": per_txn("undo_records"),
        "db.txn.rollbacks": count("rollbacks"),
        # sharded tier
        "db.shard.route_us": self_us("db.shard.route"),
        "db.shard.scatter_frac": ratio(
            routes.get("scatter", 0), sum(routes.values())
        ),
        "db.shard.cross_shard_frac": ratio(count("cross_shard"), commits),
        "db.shard.two_pc_commits": count("two_pc_commits"),
        "db.shard.two_pc_us": self_us("db.shard.two_pc"),
        "db.replica.ship_us": self_us("db.replica.ship"),
        "db.replica.ops_shipped_per_txn": per_txn("ops_shipped"),
        "db.replica.lag_max": count("lag_max"),
        "db.replica.read_served_frac": ratio(
            count("replica_reads"), statements
        ),
        # durability
        "db.wal.append_us": self_us("db.wal.append"),
        "db.wal.decide_us": self_us("db.wal.decide"),
        "db.wal.sync_us": self_us("db.wal.sync"),
        "db.wal.fsync_wait_us": self_us("db.wal.fsync"),
        "db.wal.syncs": count("wal_syncs"),
        "db.wal.frames_per_txn": per_txn("wal_frames"),
        "db.wal.bytes_per_txn": per_txn("wal_bytes"),
        "db.wal.bytes_per_user_byte": ratio(
            count("wal_bytes"), micro.get("user_bytes", 0)
        ),
        "db.wal.checkpoints": count("checkpoints"),
        "db.wal.checkpoint_ms": per_call_ms("db.wal.checkpoint"),
        "db.wal.checkpoint_stall_ms_max": (
            checkpoint.max_ns / 1e6 if checkpoint else 0.0
        ),
        "db.recovery.replay_s": recovery.get("replay_s", 0.0),
        "db.recovery.frames_per_s": recovery.get("frames_per_s", 0.0),
        # snapshots and the columnar mirror
        "db.mvcc.note_commit_us": self_us("db.mvcc.note_commit"),
        "db.mvcc.materialize_calls": calls("db.mvcc.materialize"),
        "db.mvcc.materialize_ms": per_call_ms("db.mvcc.materialize"),
        "db.mvcc.snapshot_query_ms": per_call_ms("db.mvcc.snapshot_query"),
        "db.mvcc.version_entries_max": count("version_entries_max"),
        "db.htap.apply_us": self_us("db.htap.apply"),
        "db.htap.ops_applied_per_txn": per_txn("mirror_ops"),
        "db.htap.report_ms": per_call_ms("db.htap.report"),
        "db.htap.rows_scanned_per_report": ratio(
            count("rows_scanned"), count("reports")
        ),
        "db.htap.session_share": ratio(
            session.total_ns if session else 0, root_ns
        ),
        # the serving simulator
        "sim.events_per_txn": ratio(count("events"), count("completed")),
        "sim.event_us": ratio(
            row("sim.loop").self_ns / 1e3 if row("sim.loop") else 0.0,
            count("events"),
        ),
        "serve.engine_self_us": self_us("serve.engine"),
        "serve.draw_us": self_us("serve.draw"),
        "serve.live_executions": count("live_executions"),
        "serve.trace_replays": count("trace_replays"),
        "serve.switches": count("switches"),
        "serve.model_txn_per_virtual_s": ratio(
            count("completed"), count("virtual_seconds")
        ),
        # the ledger itself
        "ledger.other_frac": ratio(harness_ns, root_ns),
        "ledger.sum_frac": ratio(
            sum(r.self_ns for r in ledger.values()) / 1e9, traced_wall
        ),
        "trace.overhead_frac": ratio(timed.wall(), reference.wall()) - 1.0,
        "sandbox.slowdown": timed.median_slowdown(),
        "trace.spans_per_txn": spans / txns,
        "txn_p99_ms_diag": 1e3 * _percentile(reference_ordered, 0.99),
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def environment_stamp(seed: int, scale_name: str) -> dict:
    """Where and on what this result was measured."""
    from repro.db.sql import resolve_sql_exec_mode
    from repro.runtime import resolve_interp_mode

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        described = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=False,
        )
        if described.returncode == 0:
            commit = described.stdout.strip()
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "pace_ms": round(
            1e3 * statistics.median(_pace() for _ in range(5)), 3
        ),
        "commit": commit,
        "interp": resolve_interp_mode(None),
        "sql_exec": resolve_sql_exec_mode(None),
        "seed": seed,
        "scale": scale_name,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 scale_name: str, record: bool = False) -> dict:
    """Build, run and verify one workload; print every metric by name
    with its unit, then the result object as the last line."""
    spec = _load_spec()
    workloads, import_seconds = _import_program()
    scale = workloads.SCALES[scale_name]
    stamp = environment_stamp(seed, scale_name)
    print(f"workload {name}  trace {trace}  "
          + "  ".join(f"{key}={value}" for key, value in stamp.items()))
    with FlushWaits() as waits:
        if trace:
            metrics, attempted, failed, notes = run_traced(
                workloads, import_seconds, name, seed, seconds, scale, spec,
                waits,
            )
            declared = spec["per_layer"]
        else:
            metrics, attempted, failed, notes = run_end_to_end(
                workloads, import_seconds, name, seed, seconds, scale, waits
            )
            declared = spec["end_to_end"]
    print(f"  {notes}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    for metric_name, entry in result["metrics"].items():
        print(f"  {metric_name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  attempted {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.6g}")
    if record:
        with open(HISTORY, "a") as fh:
            fh.write(json.dumps(
                {"workload": name, "trace": trace, **stamp, **result}
            ) + "\n")
    print(json.dumps(result))
    return result


def run_in_fresh_process(name: str, args, seed: int) -> dict:
    """Each workload builds in a fresh process; returns its result."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale,
    ] + (["--record"] if args.record else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        sys.exit(f"workload {name} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_agreement(args) -> int:
    """Two full sets back to back (alternating workload order) must
    agree within every end-to-end bound; a third set with another seed
    shows that the seed argument reaches the inputs."""
    spec = _load_spec()
    first = {w: run_in_fresh_process(w, args, args.seed) for w in WORKLOADS}
    second = {
        w: run_in_fresh_process(w, args, args.seed)
        for w in reversed(WORKLOADS)
    }
    other = {
        w: run_in_fresh_process(w, args, args.seed + 1) for w in WORKLOADS
    }
    disagreements = []
    print(f"\nagreement of two sets at seed {args.seed} "
          f"(third column: seed {args.seed + 1})")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in WORKLOADS:
            a, b, c = (
                run[workload]["metrics"][name]["value"]
                for run in (first, second, other)
            )
            apart = abs(b - a) / a
            verdict = "ok" if apart <= bound else "DISAGREE"
            print(f"  {workload:12s} {name:18s} {a:12.6g} {b:12.6g} "
                  f"{c:12.6g}  apart {apart:7.2%}  bound {bound:.0%}  "
                  f"{verdict}")
            if apart > bound:
                disagreements.append(f"{name} on {workload}")
    failed = [
        w for run in (first, second, other) for w in WORKLOADS
        if not run[w]["correct"]
    ]
    if failed:
        print(f"incorrect outputs on: {failed}")
    if disagreements:
        print("sets disagree beyond the bound on: "
              + "; ".join(disagreements))
    return 1 if failed or disagreements else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("tiny", "full"), default="full")
    parser.add_argument("--record", action="store_true",
                        help="append each result to history.jsonl")
    parser.add_argument("--check-agreement", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds one set-up takes (used by "
                             "the end-to-end run to time fresh processes)")
    args = parser.parse_args(argv)
    for variable in RUNG_ENV_VARS:
        if os.environ.get(variable):
            sys.exit(f"{variable} is set: the benchmark measures the "
                     "repo's default rungs; unset it and run again")
    if args.seconds is None:
        args.seconds = float(_load_spec()["run_seconds"])
    if args.check_agreement:
        return check_agreement(args)
    if args.workload is None:
        results = [
            run_in_fresh_process(w, args, args.seed) for w in WORKLOADS
        ]
        return 0 if all(r["correct"] for r in results) else 1
    if args.setup_only:
        workloads, import_seconds = _import_program()
        with FlushWaits() as waits:
            wl, elapsed = _set_up(workloads, args.workload, args.seed,
                                  workloads.SCALES[args.scale], waits)
        wl.close()
        print(import_seconds + elapsed)
        return 0
    run_workload(args.workload, args.seed, args.seconds, args.trace,
                 args.scale, args.record)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Randomised str hashes give every process its own dict layouts,
        # worth several percent of throughput either way; one fixed
        # layout keeps runs of the same code comparable.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
