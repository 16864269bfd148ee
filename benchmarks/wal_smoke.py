"""Durability performance smoke: group-commit overhead + recovery rate.

Runs the 32-client adaptive TPC-C serve configuration twice -- once
in-memory, once with per-shard write-ahead logs under group commit
(one fsync per virtual sync interval, not per transaction) -- and
then recovers the logged run from disk.  Writes ``BENCH_wal.json`` at
the repository root with three acceptance numbers:

* **Frame budget** -- logging must cost at most ``FRAME_BUDGET_US``
  of wall time per appended frame, measured in situ (time actually
  spent inside ``commit_ops``/``sync``, captured by wrapping the
  log's hot methods).  The budget is absolute because the relative
  overhead's denominator is the in-memory run, i.e. the simulator's
  own speed: every time the engine or the event loop got faster the
  fraction rose with the WAL's seconds unchanged.  Both fractions
  (median-wall delta and in-situ attribution over the in-memory
  median) are still recorded.
* **Recovery floor** -- redo replay must process at least
  ``RECOVERY_RATE_FLOOR`` frames per wall second (the measured rate
  is orders of magnitude higher; the floor guards regressions, not
  the margin).
* **Checkpoint repeat** -- one TPC-C shard grown past
  ``CHECKPOINT_ROWS`` rows by new-order transactions is checkpointed
  cold (nothing cached), then again after about 1% of its rows changed
  the way new-order changes them (order lines appended, stock and
  district rows updated).  The repeat re-encodes only the row chunks
  that changed, so it must take at most ``CHECKPOINT_REPEAT_CEILING``
  of the cold checkpoint's wall time (medians over the trials).

Like the other smokes, it only executes under ``-m perfsmoke``
(``pytest benchmarks/wal_smoke.py -m perfsmoke``); run as a script
for a quick local check: ``PYTHONPATH=src python
benchmarks/wal_smoke.py``.
"""

import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import pytest

from repro.db import wal as wal_module
from repro.db.recovery import recover_sharded
from repro.db.wal import ShardWal, attach_wal
from repro.serve.controller import AdaptiveController
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.workload import make_tpcc_workload
from repro.workloads.tpcc import (
    TpccScale,
    make_tpcc_database,
    new_order_statement_script,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_wal.json"

CLIENTS = 32
SHARDS = 2
DB_CORES = 2
DURATION = 8.0
THINK_TIME = 0.01
SYNC_INTERVAL = 0.25  # virtual seconds between group fsyncs
TRIALS = 3

# 1.5x what the commit before the closure-free event core (bad5b61)
# measured on the development sandbox: 21 us per frame (0.30 s for
# 14 275 frames).
FRAME_BUDGET_US = 32.0
RECOVERY_RATE_FLOOR = 5000.0  # replayed frames per wall second

CHECKPOINT_ROWS = 20_000
CHECKPOINT_CHANGED_FRACTION = 0.01
CHECKPOINT_REPEAT_CEILING = 0.5  # repeat / cold wall time


def _timed(fn, acc):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[0] += time.perf_counter() - start
    return wrapper


def _serve_once(wal_dir=None):
    """One serve run; returns (wall, completed, wal_seconds, stats)."""
    built = make_tpcc_workload(
        db_cores=DB_CORES, seed=17, pool_size=24, shards=SHARDS,
        shard_key="warehouse",
    )
    # Replay alone never touches the database; every 4th draw executes
    # live so committed redo keeps flowing into the logs.
    built.workload.refresh_every = 4
    wal_seconds = [0.0]
    managers = []
    if wal_dir is not None:
        for index, sdb in enumerate(built.databases):
            manager = attach_wal(
                sdb, wal_dir / f"opt{index}", sync_policy="group"
            )
            for shard, wal in enumerate(manager.wals):
                wal.commit_ops = _timed(wal.commit_ops, wal_seconds)
                wal.sync = _timed(wal.sync, wal_seconds)
                # attach_wal captured the unwrapped bound method.
                sdb.shards[shard].redo_collector = wal.commit_ops
            managers.append(manager)
    config = ServeConfig(
        db_shards=SHARDS, db_cores=DB_CORES,
        think_time=THINK_TIME, seed=17,
    )
    engine = ServeEngine(
        built.workload, AdaptiveController(poll_interval=1.0), config
    )
    engine.attach_backends(built.databases, built.clusters)
    if managers:
        engine.attach_wal_managers(managers)
        for manager in managers:
            engine.loop.schedule_periodic(
                SYNC_INTERVAL, manager.sync_all, until=DURATION
            )
    start = time.perf_counter()
    result = engine.run(clients=CLIENTS, duration=DURATION, name="wal")
    wall = time.perf_counter() - start
    stats = {"appends": 0, "syncs": 0, "bytes_written": 0}
    for manager in managers:
        manager.sync_all()
        for wal in manager.wals:
            for key in stats:
                stats[key] += getattr(wal.stats, key)
        manager.close()
    return wall, result.completed, wal_seconds[0], stats


def _new_orders(scale: TpccScale, count: int) -> list[list[tuple]]:
    """The new-order script split into transactions."""
    transactions: list[list[tuple]] = []
    for sql, params in new_order_statement_script(scale, transactions=count):
        if sql.startswith("SELECT w_tax"):  # a transaction's first statement
            transactions.append([])
        transactions[-1].append((sql, params))
    return transactions


def _checkpoint_case(directory: Path) -> dict:
    """Cold vs repeat checkpoint wall time of one grown TPC-C shard."""
    scale = TpccScale(warehouses=1)
    database, conn = make_tpcc_database(scale)
    pending = iter(_new_orders(scale, 4000))

    def run_one() -> None:
        for sql, params in next(pending):
            conn.prepare(sql).execute(*params)

    while database.total_rows() < CHECKPOINT_ROWS:
        run_one()
    cold_ms, repeat_ms, changed = [], [], []
    for trial in range(TRIALS):
        (directory / f"ckpt{trial}").mkdir()
        wal = ShardWal(directory / f"ckpt{trial}" / "shard0.wal")  # cold
        start = time.perf_counter()
        wal.write_checkpoint(database)
        cold_ms.append(1e3 * (time.perf_counter() - start))
        # Kept alive here, so no identity below can be a recycled one.
        before = [
            row for t in database.tables() for row in t.row_store.values()
        ]
        seen = {id(row) for row in before}
        target = CHECKPOINT_CHANGED_FRACTION * database.total_rows()
        moved = 0
        while moved < target:
            run_one()
            moved = sum(
                id(row) not in seen
                for t in database.tables() for row in t.row_store.values()
            )
        changed.append(moved)
        start = time.perf_counter()
        wal.write_checkpoint(database)
        repeat_ms.append(1e3 * (time.perf_counter() - start))
        wal.close()
    return {
        "rows": database.total_rows(),
        "chunk_rows": wal_module.CHECKPOINT_CHUNK_ROWS,
        "changed_rows": changed,
        "cold_ms": cold_ms,
        "repeat_ms": repeat_ms,
        "repeat_over_cold": (
            statistics.median(repeat_ms) / statistics.median(cold_ms)
        ),
        "repeat_ceiling": CHECKPOINT_REPEAT_CEILING,
    }


def run_wal_smoke() -> dict:
    base_walls = [_serve_once()[0] for _ in range(TRIALS)]
    wal_root = Path(tempfile.mkdtemp(prefix="wal_smoke_"))
    try:
        wal_walls, wal_in_situ, completed, stats = [], [], 0, {}
        for trial in range(TRIALS):
            wal_dir = wal_root / f"trial{trial}"
            wall, completed, spent, stats = _serve_once(wal_dir)
            wal_walls.append(wall)
            wal_in_situ.append(spent)
        base_median = statistics.median(base_walls)
        wal_median = statistics.median(wal_walls)
        overhead_wall = (wal_median - base_median) / base_median
        in_situ_median = statistics.median(wal_in_situ)
        overhead_attributed = in_situ_median / base_median
        # Recover the last trial's directories (never checkpointed
        # mid-run, so replay walks every logged frame).
        recoveries = []
        for index in range(2):
            target = wal_root / f"trial{TRIALS - 1}" / f"opt{index}"
            start = time.perf_counter()
            _, report = recover_sharded(target)
            elapsed = time.perf_counter() - start
            frames = sum(r.frames_seen for r in report.shard_reports)
            recoveries.append({
                "option": index,
                "frames_replayed": frames,
                "commits_applied": report.commits_applied,
                "wall_ms": elapsed * 1e3,
                "frames_per_second": frames / elapsed if elapsed else 0.0,
            })
        checkpoint = _checkpoint_case(wal_root)
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)
    payload = {
        "workload": "tpcc-new-order",
        "clients": CLIENTS,
        "shards": SHARDS,
        "db_cores_per_shard": DB_CORES,
        "virtual_duration_seconds": DURATION,
        "sync_policy": "group",
        "sync_interval_virtual_seconds": SYNC_INTERVAL,
        "completed_txns": completed,
        "frames_appended": stats["appends"],
        "group_fsyncs": stats["syncs"],
        "wal_bytes": stats["bytes_written"],
        "in_memory_wall_seconds": base_walls,
        "wal_wall_seconds": wal_walls,
        "wal_in_situ_seconds": wal_in_situ,
        "overhead_wall_fraction": overhead_wall,
        "overhead_attributed_fraction": overhead_attributed,
        "wal_us_per_frame": 1e6 * in_situ_median / stats["appends"],
        "frame_budget_us": FRAME_BUDGET_US,
        "recovery": recoveries,
        "recovery_rate_floor": RECOVERY_RATE_FLOOR,
        "checkpoint": checkpoint,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.perfsmoke
def test_wal_smoke(request):
    if "perfsmoke" not in (request.config.getoption("-m") or ""):
        pytest.skip("select with -m perfsmoke to record BENCH_wal.json")
    payload = run_wal_smoke()
    print()
    print(
        "wal perf smoke: "
        f"{payload['frames_appended']} frames / "
        f"{payload['group_fsyncs']} group fsyncs; "
        f"{payload['wal_us_per_frame']:.1f} us per frame (budget "
        f"{FRAME_BUDGET_US:g}), overhead "
        f"{100 * payload['overhead_wall_fraction']:+.1f}% wall / "
        f"{100 * payload['overhead_attributed_fraction']:.1f}% "
        "attributed; recovery "
        f"{payload['recovery'][0]['frames_per_second']:,.0f} frames/s; "
        f"checkpoint of {payload['checkpoint']['rows']} rows: repeat / "
        f"cold {payload['checkpoint']['repeat_over_cold']:.2f} (ceiling "
        f"{CHECKPOINT_REPEAT_CEILING:g}) -> {OUTPUT.name}"
    )
    assert payload["frames_appended"] > 0
    assert payload["group_fsyncs"] > 0
    # Group commit batches fsyncs: far fewer syncs than frames.
    assert payload["group_fsyncs"] < payload["frames_appended"] / 10
    assert payload["wal_us_per_frame"] <= FRAME_BUDGET_US
    for recovery in payload["recovery"]:
        assert recovery["commits_applied"] > 0
        assert recovery["frames_per_second"] >= RECOVERY_RATE_FLOOR
    checkpoint = payload["checkpoint"]
    assert checkpoint["rows"] >= CHECKPOINT_ROWS
    assert checkpoint["repeat_over_cold"] <= CHECKPOINT_REPEAT_CEILING


if __name__ == "__main__":
    print(json.dumps(run_wal_smoke(), indent=2))
