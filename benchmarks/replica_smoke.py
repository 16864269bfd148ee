"""Failover performance smoke: kill a primary, measure the recovery.

Runs the 96-client adaptive TPC-C serve configuration against the
replicated shard tier (2 shards x (primary + 2 replicas)), crashes
shard 1's primary mid-run via the fault injector, and writes
``BENCH_replica.json`` at the repository root: the detection +
promotion (recovery) time, throughput on either side of the fault,
and the abort/retry counts.  All times are *virtual* seconds --
deterministic across machines -- so the recorded floors are hard
acceptance criteria, not flaky perf numbers: the differential suites
prove promoted replicas are bit-identical to the single-server
oracle, and this smoke proves the failover is fast enough to keep
serving.

Like the other smokes, it only executes under ``-m perfsmoke``
(``pytest benchmarks/replica_smoke.py -m perfsmoke``); run as a
script for a quick local check: ``PYTHONPATH=src python
benchmarks/replica_smoke.py``.
"""

import json
import time
from pathlib import Path

import pytest

from repro.bench.serve_experiments import serve_failover

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_replica.json"

CLIENTS = 96
SHARDS = 2
REPLICAS = 2
DB_CORES = 2
DURATION = 15.0
CRASH_AT = 6.0

# Acceptance floors (virtual-clock deterministic, so hard asserts):
# the supervisor must promote within a virtual second of the crash,
# and post-failover throughput must recover to at least half the
# pre-fault level.
RECOVERY_TIME_CEILING = 1.0
RECOVERED_FRACTION_FLOOR = 0.5


def run_replica_smoke() -> dict:
    start = time.perf_counter()
    result = serve_failover(
        fast=True,
        clients=CLIENTS,
        shards=SHARDS,
        replicas=REPLICAS,
        db_cores=DB_CORES,
        duration=DURATION,
        fault_specs=(f"crash:db{SHARDS - 1}@{CRASH_AT:g}",),
        seed=17,
    )
    wall = time.perf_counter() - start
    run = result.run
    event = run.failovers[0] if run.failovers else None
    metrics = run.metrics
    payload = {
        "workload": "tpcc-new-order",
        "clients": CLIENTS,
        "shards": SHARDS,
        "replicas_per_shard": REPLICAS,
        "db_cores_per_shard": DB_CORES,
        "virtual_duration_seconds": DURATION,
        "fault_specs": result.fault_specs,
        "failover": {
            "shard": event.shard,
            "crashed_at": event.crashed_at,
            "detected_at": event.detected_at,
            "promoted_at": event.promoted_at,
            "chosen_replica": event.chosen_replica,
            "replayed_entries": event.replayed_entries,
            "generation": event.generation,
            "recovery_virtual_seconds": event.recovery_time,
        } if event is not None else None,
        "throughput_txn_per_virtual_second": run.throughput,
        "pre_fault_throughput": result.pre_fault_throughput,
        "post_failover_throughput": result.post_failover_throughput,
        "recovered_fraction": result.recovered_fraction,
        "txn_aborts": run.aborted,
        "txn_retries": run.txn_retries,
        "two_pc": {
            "commits": metrics["two_pc.commits"],
            "aborts": metrics["two_pc.aborts"],
        } if "two_pc.commits" in metrics else None,
        "replica_groups_bit_identical": result.replicas_consistent,
        "recovery_time_ceiling": RECOVERY_TIME_CEILING,
        "recovered_fraction_floor": RECOVERED_FRACTION_FLOOR,
        "wall_seconds": wall,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.perfsmoke
def test_replica_smoke(request):
    if "perfsmoke" not in (request.config.getoption("-m") or ""):
        pytest.skip("select with -m perfsmoke to record BENCH_replica.json")
    payload = run_replica_smoke()
    print()
    failover = payload["failover"]
    print(
        "replica perf smoke: crash db1 @"
        f"{CRASH_AT:g}vs -> promoted in "
        f"{failover['recovery_virtual_seconds']:.2f}vs; "
        f"{payload['pre_fault_throughput']:.1f} -> "
        f"{payload['post_failover_throughput']:.1f} txn/vs "
        f"({100 * payload['recovered_fraction']:.0f}% recovered), "
        f"{payload['txn_aborts']} abort(s)/"
        f"{payload['txn_retries']} retr(ies), "
        f"{payload['wall_seconds']:.1f}s wall -> {OUTPUT.name}"
    )
    assert failover is not None, "no failover happened"
    assert failover["generation"] == 1
    assert failover["recovery_virtual_seconds"] <= RECOVERY_TIME_CEILING
    assert payload["recovered_fraction"] >= RECOVERED_FRACTION_FLOOR
    assert payload["replica_groups_bit_identical"]


if __name__ == "__main__":
    print(json.dumps(run_replica_smoke(), indent=2))
