"""HTAP smoke: OLTP throughput with vs without concurrent analytics.

Runs the 32-client TPC-C serve scenario twice with identical seeds --
once OLTP-only, once with recurring analytical sessions (TPC-W-style
best-seller report and full-table district GROUP BY) served by the
redo-maintained columnar mirror -- and writes ``BENCH_htap.json`` at
the repository root.

Two invariants are asserted, not just recorded:

* the analytics mix costs at most 10% OLTP throughput (the mirror
  serves every scan lock-free, so the only interference is the DB CPU
  the reports reserve while running);
* after the run drains, every columnar mirror is bit-identical to its
  row store.

Only executes under ``-m perfsmoke``; run as a script for a quick
local check: ``PYTHONPATH=src python benchmarks/htap_smoke.py``.
"""

import json
from pathlib import Path

import pytest

from repro.bench.serve_experiments import serve_htap

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_htap.json"

CLIENTS = 32
DB_CORES = 4
DURATION = 12.0
SEED = 23
DEGRADATION_CEILING = 0.10


def run_htap_smoke() -> dict:
    result = serve_htap(
        fast=True, clients=CLIENTS, db_cores=DB_CORES,
        duration=DURATION, seed=SEED,
    )
    assert result.mirrors_consistent, (
        "columnar mirror diverged from the row store: "
        f"{result.notes.get('mirror_divergence')}"
    )
    assert result.reports_run > 0
    payload = {
        "workload": "tpcc-new-order + analytics",
        "clients": CLIENTS,
        "db_cores": DB_CORES,
        "virtual_duration_seconds": DURATION,
        "analytics_interval_seconds": result.analytics_interval,
        "report_window_seconds": result.report_window,
        "analytics_load_fraction": result.analytics_load,
        "oltp_only_throughput_txn_s": result.oltp_only.throughput,
        "htap_throughput_txn_s": result.htap.throughput,
        "degradation_fraction": result.degradation,
        "degradation_ceiling": DEGRADATION_CEILING,
        "analytics_reports": result.reports_run,
        "analytics_rows_scanned": result.analytics_rows_scanned,
        "best_sellers_top5": [list(row) for row in result.best_sellers],
        "mirror": result.mirror_counters,
        "mirrors_consistent": result.mirrors_consistent,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.perfsmoke
def test_htap_smoke(request):
    if "perfsmoke" not in (request.config.getoption("-m") or ""):
        pytest.skip("select with -m perfsmoke to record BENCH_htap.json")
    payload = run_htap_smoke()
    print()
    print(
        f"htap perf smoke: {payload['oltp_only_throughput_txn_s']:.1f} "
        f"-> {payload['htap_throughput_txn_s']:.1f} txn/s "
        f"({100 * payload['degradation_fraction']:.1f}% degradation, "
        f"{payload['analytics_reports']} reports) -> {OUTPUT.name}"
    )
    assert payload["oltp_only_throughput_txn_s"] > 0
    assert payload["degradation_fraction"] <= DEGRADATION_CEILING


if __name__ == "__main__":
    print(json.dumps(run_htap_smoke(), indent=2))
