"""Online repartitioning under a load-mix shift.

The paper's runtime can only *switch* among partitionings baked
offline.  This example drives the serving engine through a scenario
where that is not enough: a storefront workload starts all-browse
(the mix the offline profile was collected from) and flips to
all-checkout mid-run.  The right placement for checkout -- the
per-item query loop on the database, the receipt-digest loop on the
application server -- does not exist in the offline ladder at all.

The repartitioning controller watches the live profile the workload
layer accumulates, detects the drift, and asks the incremental
`PartitionService` to mint a fresh partitioning online: cached static
artifacts, graph reweighted from live statement counts, solver
warm-started from the previous placement.  The minted program is
registered with the switcher mid-run and takes the traffic.

Run:  PYTHONPATH=src python examples/online_repartitioning.py
"""

from repro.bench.report import format_serve_repartition
from repro.bench.serve_experiments import REPARTITION, serve_repartition


def main(fast: bool = True) -> None:
    result = serve_repartition(fast=fast, duration=40.0 if fast else None)
    print(format_serve_repartition(result))
    print()
    print("Reading the table: after the mix shift both static rungs "
          "degrade (all-APP\npays per-item round trips, all-DB saturates "
          "the 2-core database); the\nrepartition configuration mints a "
          "new partitioning from the live profile\nand recovers.")
    summary = result.repartition
    assert summary is not None
    if summary.mints == 0:
        raise SystemExit("expected at least one online repartitioning")
    best_static = result.best_static(post_shift=True)
    repart = result.post_shift_throughput(REPARTITION)
    if repart < best_static:
        raise SystemExit(
            f"repartition ({repart:.1f}/s) lost to the best static "
            f"ladder rung ({best_static:.1f}/s)"
        )


if __name__ == "__main__":
    main()
