"""Sharded database tier walkthrough.

Builds a small TPC-C database twice -- one single server, one
four-shard deployment behind the statement router -- runs the same
statement mix against both, and checks bit-identical results; then
demonstrates a cross-shard transaction resolving through two-phase
commit on a virtual clock, and finishes with a short serve-engine
comparison of 1 vs 4 database shards.

Run with ``PYTHONPATH=src python examples/sharded_tier.py``.
Exits non-zero if the deployments disagree or sharding fails to scale.
"""

import sys

from repro.db import ShardedDatabase, connect, connect_sharded
from repro.sim.clock import VirtualClock
from repro.workloads.tpcc import (
    TpccScale,
    make_tpcc_database,
    new_order_statement_script,
    tpcc_sharding_scheme,
)


def main() -> int:
    print("== sharded database tier ==")
    scale = TpccScale(warehouses=4, customers_per_district=20, items=150)
    single_db, single_conn = make_tpcc_database(scale)
    source_db, _ = make_tpcc_database(scale)
    sharded_db = ShardedDatabase.from_database(
        source_db, shards=4, scheme=tpcc_sharding_scheme("warehouse")
    )
    clock = VirtualClock()
    sharded_conn = connect_sharded(
        sharded_db, clock=clock, one_way_latency=0.001
    )

    per_shard = [
        len(shard.table("customer")) for shard in sharded_db.shards
    ]
    print(f"customers per shard: {per_shard} "
          f"(replicated item copies: {len(sharded_db.shards)})")

    # Same statement mix against both deployments, compared row by row.
    script = new_order_statement_script(scale, transactions=20, seed=11)
    script.append(("SELECT COUNT(*) FROM order_line", ()))
    script.append((
        "SELECT d_w_id, SUM(d_ytd) AS ytd, COUNT(*) AS n FROM district "
        "GROUP BY d_w_id ORDER BY d_w_id", (),
    ))
    mismatches = 0
    for sql, params in script:
        prepared_single = single_conn.prepare(sql)
        prepared_sharded = sharded_conn.prepare(sql)
        if prepared_single.is_query:
            got_single = [
                r.as_tuple() for r in prepared_single.query(*params)
            ]
            got_sharded = [
                r.as_tuple() for r in prepared_sharded.query(*params)
            ]
        else:
            got_single = prepared_single.update(*params)
            got_sharded = prepared_sharded.update(*params)
        if got_single != got_sharded:
            mismatches += 1
            print(f"MISMATCH on {sql!r}")
    print(f"ran {len(script)} statements through both deployments: "
          f"{mismatches} mismatch(es)")

    # A cross-shard transaction: warehouses 1 and 2 live on different
    # shards, so commit runs two-phase on the virtual clock.
    txn = sharded_conn.begin()
    sharded_conn.execute(
        "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?", 10.0, 1
    )
    sharded_conn.execute(
        "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?", 10.0, 2
    )
    touched = txn.touched_shards()
    t0 = clock.now
    sharded_conn.commit()
    commit_ms = 1000.0 * (clock.now - t0)
    print(f"cross-shard commit touched shards {touched}; "
          f"2PC took {commit_ms:.1f} ms on the virtual clock:")
    for when, phase, event in txn.timeline:
        print(f"  t={1000.0 * when:8.1f} ms  [{phase}] {event}")

    # Serve-engine scaling: the same workload at 1 and 4 shards.
    from repro.bench.serve_experiments import serve_shard_sweep

    print("\n== serve scaling, 1 -> 4 shards ==")
    sweep = serve_shard_sweep(
        fast=True, shard_counts=(1, 4), clients=64, db_cores=2,
        duration=8.0,
    )
    for shards, point in sweep.points.items():
        util = ", ".join(
            f"{100 * u:.0f}%" for u in point.db_shard_utilization
        )
        print(f"  {shards} shard(s): {point.throughput:7.1f} txn/s "
              f"(p95 {point.p95_ms:.0f} ms; db [{util}])")
    print(f"speedup: {sweep.speedup:.2f}x")

    if mismatches:
        print("FAILED: sharded results diverged from the single server")
        return 1
    if len(touched) < 2:
        print("FAILED: the demo transaction stayed on one shard")
        return 1
    if sweep.speedup < 1.5:
        print("FAILED: sharding did not scale throughput")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
