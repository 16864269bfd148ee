"""Partitioning-pipeline performance smoke: cold vs incremental.

Times the TPC-C partitioning pipeline twice and writes
``BENCH_pipeline.json`` at the repository root:

* **cold** -- the paper's Figure-1 pipeline from scratch for a new
  batch of observations: the instrumented profiling run, static
  analyses, partition-graph structure build, cold solves for the
  two-budget ladder, PyxIL compilation (database *setup* is excluded
  -- it is environment, not pipeline);
* **incremental** -- the warm session absorbing the same observations:
  no instrumented re-profiling (live statement counts arrive for free
  from the serve layer), cached structure, reweight only, the previous
  placement handed to the solver as its first incumbent
  (``warm_solves``), and PyxIL reuse whenever the assignment hash is
  unchanged.

Like the other smokes it only executes under ``-m perfsmoke``
(``pytest benchmarks/pipeline_smoke.py -m perfsmoke``) so plain test
runs never rewrite the tracked JSON; run as a script for a quick local
check: ``PYTHONPATH=src python benchmarks/pipeline_smoke.py``.
"""

import json
import statistics
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_pipeline.json"

BUDGET_LADDER = [0.0, 1e9]
REPEATS = 3


def _fresh_tpcc_connection():
    from repro.workloads.tpcc import TpccScale, make_tpcc_database

    _, conn = make_tpcc_database(TpccScale())
    return conn


def _profile_tpcc(pyxis, conn, seed: int = 31):
    from repro.workloads.tpcc import TpccInputGenerator, TpccScale

    gen = TpccInputGenerator(TpccScale(), seed=seed)

    def workload(profiler):
        for _ in range(10):
            order = gen.new_order(rollback_fraction=0.0)
            profiler.invoke(
                "TpccTransactions", "new_order",
                order.w_id, order.d_id, order.c_id,
                order.item_ids, order.supply_w_ids, order.quantities,
            )

    return pyxis.profile_with(conn, workload)


def run_pipeline_smoke() -> dict:
    from repro.core.pipeline import Pyxis, PyxisConfig
    from repro.workloads.tpcc import TPCC_ENTRY_POINTS, TPCC_SOURCE

    # Parse once; sids are per-parse, so every profile must be
    # recorded against the same program object the sessions use.
    base = Pyxis.from_source(TPCC_SOURCE, TPCC_ENTRY_POINTS)
    program = base.program

    def cold_once() -> float:
        conn = _fresh_tpcc_connection()  # environment, not timed
        start = time.perf_counter()
        session = Pyxis(program, PyxisConfig())
        profile = _profile_tpcc(session, conn)
        session.partition(profile, budgets=BUDGET_LADDER)
        return time.perf_counter() - start

    cold_samples = [cold_once() for _ in range(REPEATS)]

    # One warm session: the first pass pays the cold cost, then each
    # timed incremental pass absorbs a fresh batch of observations.
    # Those counts are collected *outside* the timed region: in the
    # serving system they arrive for free from the live profiler.
    warm = Pyxis(program, PyxisConfig())
    warm.partition(
        _profile_tpcc(warm, _fresh_tpcc_connection()),
        budgets=BUDGET_LADDER,
    )

    def incremental_once() -> float:
        shifted = _profile_tpcc(base, _fresh_tpcc_connection())
        start = time.perf_counter()
        warm.partition(shifted, budgets=BUDGET_LADDER)
        return time.perf_counter() - start

    incremental_samples = [incremental_once() for _ in range(REPEATS)]

    cold = statistics.median(cold_samples)
    incremental = statistics.median(incremental_samples)
    payload = {
        "workload": "tpcc-new-order",
        "budgets": BUDGET_LADDER,
        "repeats": REPEATS,
        # Cold includes the instrumented profiling run (part of the
        # Figure-1 pipeline); incremental replaces it with counts the
        # serve layer already collected.
        "cold_pipeline_seconds": cold,
        "incremental_resolve_seconds": incremental,
        "speedup": cold / incremental if incremental > 0 else float("inf"),
        "session_stats": warm.stats.snapshot(),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.perfsmoke
def test_pipeline_smoke(request):
    if "perfsmoke" not in (request.config.getoption("-m") or ""):
        pytest.skip("select with -m perfsmoke to record BENCH_pipeline.json")
    payload = run_pipeline_smoke()
    print()
    print(
        f"pipeline perf smoke: cold "
        f"{payload['cold_pipeline_seconds'] * 1000:.1f} ms, incremental "
        f"{payload['incremental_resolve_seconds'] * 1000:.1f} ms "
        f"({payload['speedup']:.1f}x) -> {OUTPUT.name}"
    )
    stats = payload["session_stats"]
    assert stats["structure_builds"] == 1
    # The default solver takes warm-start seeds: every re-solve got one.
    assert stats["warm_solves"] > 0
    # Every incremental pass reused the cached PyxIL artifacts.
    assert stats["pyxil_reuses"] >= 2 * REPEATS
    # The incremental path must beat the cold pipeline clearly; the
    # cached-artifact design gives far more than this floor.
    assert payload["speedup"] >= 3.0


if __name__ == "__main__":
    print(json.dumps(run_pipeline_smoke(), indent=2))
