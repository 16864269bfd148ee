"""Sharded-tier performance smoke: TPC-C scaling 1 -> 4 shards.

Runs the adaptive serve configuration against the sharded database
tier at 1, 2 and 4 shards (warehouse-affine routing, identical
four-warehouse workload at every point) and writes
``BENCH_shard.json`` at the repository root.  Throughput is per
*virtual* second -- deterministic across machines -- so the recorded
speedup is a hard acceptance floor, not a flaky perf number: the
differential suites prove the sharded tier returns bit-identical
results, and this smoke proves the distribution actually buys
throughput.

Like the other smokes, it only executes under ``-m perfsmoke``
(``pytest benchmarks/shard_smoke.py -m perfsmoke``); run as a script
for a quick local check: ``PYTHONPATH=src python
benchmarks/shard_smoke.py``.
"""

import json
import time
from pathlib import Path

import pytest

from repro.bench.serve_experiments import serve_shard_sweep

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_shard.json"

SHARD_COUNTS = (1, 2, 4)
CLIENTS = 96
DB_CORES = 2
DURATION = 15.0
SPEEDUP_FLOOR = 2.5


def run_shard_smoke() -> dict:
    start = time.perf_counter()
    sweep = serve_shard_sweep(
        fast=True,
        shard_counts=SHARD_COUNTS,
        clients=CLIENTS,
        db_cores=DB_CORES,
        duration=DURATION,
        shard_key="warehouse",
        seed=17,
    )
    wall = time.perf_counter() - start
    payload = {
        "workload": "tpcc-new-order",
        "shard_key": "warehouse",
        "clients": CLIENTS,
        "db_cores_per_shard": DB_CORES,
        "virtual_duration_seconds": DURATION,
        "warehouses": sweep.notes.get("warehouses"),
        "points": [
            {
                "shards": shards,
                "adaptive_txn_per_virtual_second": p.throughput,
                "p95_latency_ms": p.p95_ms,
                "db_shard_utilization": [
                    round(u, 4) for u in p.db_shard_utilization
                ],
                "switches": p.switches,
            }
            for shards, p in sweep.points.items()
        ],
        "speedup_4_shards_vs_1": sweep.speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "wall_seconds_all_points": wall,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.perfsmoke
def test_shard_smoke(request):
    if "perfsmoke" not in (request.config.getoption("-m") or ""):
        pytest.skip("select with -m perfsmoke to record BENCH_shard.json")
    payload = run_shard_smoke()
    print()
    speedup = payload["speedup_4_shards_vs_1"]
    tputs = {
        p["shards"]: p["adaptive_txn_per_virtual_second"]
        for p in payload["points"]
    }
    print(
        "shard perf smoke: adaptive "
        + " / ".join(f"{tputs[s]:.1f}@{s}sh" for s in sorted(tputs))
        + f" txn/vs -> {speedup:.2f}x at 4 shards, "
        f"{payload['wall_seconds_all_points']:.1f}s wall -> {OUTPUT.name}"
    )
    # Virtual-clock deterministic, so a hard floor is safe: the
    # acceptance criterion for the sharded tier.
    assert speedup >= SPEEDUP_FLOOR


if __name__ == "__main__":
    print(json.dumps(run_shard_smoke(), indent=2))
