"""Observability overhead smoke: tracing-enabled vs tracing-disabled.

Runs the 32-client TPC-C serve scenario twice per mode (tracing off,
tracing on) with identical seeds and fresh workloads, takes the
best-of-two wall time per mode, and writes ``BENCH_obs.json`` at the
repository root with the relative overhead of span collection.  It
also exports one Chrome ``trace_event`` JSON (``BENCH_obs_trace.json``,
Perfetto-loadable) from a short fault-injected failover run so CI
archives a real trace artifact.

Two invariants are asserted, not just recorded:

* the traced run's *virtual* results (completions, aborts, retries)
  are identical to the untraced run's -- tracing observes, never
  perturbs;
* a recorded span costs at most ``SPAN_BUDGET_US`` of wall time:
  ``(enabled - disabled) / spans_recorded``.  The budget is absolute
  because the relative overhead's denominator is the simulator's own
  speed: halving the event loop's cost doubles the fraction without
  tracing getting any dearer.  The fraction is still recorded.

Only executes under ``-m perfsmoke``; run as a script for a quick
local check: ``PYTHONPATH=src python benchmarks/obs_smoke.py``.
"""

import json
import time
from pathlib import Path

import pytest

from repro.bench.serve_experiments import serve_failover
from repro.serve.controller import AdaptiveController
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.workload import make_tpcc_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_obs.json"
TRACE_OUTPUT = REPO_ROOT / "BENCH_obs_trace.json"

CLIENTS = 32
DB_CORES = 3
DURATION = 20.0
SEED = 17
# 1.5x what the commit before the closure-free event core (bad5b61)
# measured on the development sandbox: 5.9-6.5 us per span (7% of a
# 6.5-7.0 s run).
SPAN_BUDGET_US = 9.0
REPEATS = 2


def _run_serve(tracing: bool):
    """One adaptive 32-client TPC-C run on a fresh workload."""
    built = make_tpcc_workload(db_cores=DB_CORES, seed=SEED, pool_size=6)
    engine = ServeEngine(
        built.workload,
        AdaptiveController(n_options=2, poll_interval=DURATION / 10.0),
        ServeConfig(
            app_cores=8, db_cores=DB_CORES, network=built.network,
            think_time=0.01, seed=SEED, warmup=DURATION / 5.0,
            ramp=0.01,
        ),
        tracing=tracing,
    )
    start = time.perf_counter()
    result = engine.run(clients=CLIENTS, duration=DURATION, name="obs")
    wall = time.perf_counter() - start
    return result, wall, engine


def run_obs_smoke() -> dict:
    fingerprints = {}
    walls = {False: [], True: []}
    spans = 0
    for tracing in (False, True, False, True)[: 2 * REPEATS]:
        result, wall, engine = _run_serve(tracing)
        walls[tracing].append(wall)
        fingerprints.setdefault(
            tracing,
            (result.completed, result.aborted, result.txn_retries,
             result.rejected),
        )
        if tracing:
            spans = max(spans, len(engine.tracer.finished()))
    assert fingerprints[True] == fingerprints[False], (
        "tracing perturbed the virtual run: "
        f"{fingerprints[True]} != {fingerprints[False]}"
    )
    disabled = min(walls[False])
    enabled = min(walls[True])
    overhead = enabled / disabled - 1.0

    # Export one real failover trace (short run: the artifact should
    # open instantly in Perfetto, not weigh hundreds of megabytes).
    failover = serve_failover(
        fast=True, clients=16, shards=2, replicas=1, db_cores=2,
        duration=6.0, fault_specs=["crash:db1@2.5"], seed=SEED,
        tracing=True,
    )
    TRACE_OUTPUT.write_text(failover.trace_json)

    payload = {
        "workload": "tpcc-new-order",
        "clients": CLIENTS,
        "db_cores": DB_CORES,
        "virtual_duration_seconds": DURATION,
        "completed_txns": fingerprints[False][0],
        "trace_sample": ServeConfig().trace_sample,
        "spans_recorded": spans,
        "wall_seconds_tracing_disabled": disabled,
        "wall_seconds_tracing_enabled": enabled,
        "tracing_overhead_fraction": overhead,
        "tracing_us_per_span": 1e6 * (enabled - disabled) / spans,
        "span_budget_us": SPAN_BUDGET_US,
        "trace_artifact": TRACE_OUTPUT.name,
        "trace_artifact_bytes": TRACE_OUTPUT.stat().st_size,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.perfsmoke
def test_obs_smoke(request):
    if "perfsmoke" not in (request.config.getoption("-m") or ""):
        pytest.skip("select with -m perfsmoke to record BENCH_obs.json")
    payload = run_obs_smoke()
    print()
    print(
        f"obs perf smoke: tracing costs "
        f"{payload['tracing_us_per_span']:.2f} us per span "
        f"(budget {SPAN_BUDGET_US:g}), overhead "
        f"{100 * payload['tracing_overhead_fraction']:.1f}% "
        f"({payload['wall_seconds_tracing_disabled']:.2f}s -> "
        f"{payload['wall_seconds_tracing_enabled']:.2f}s wall, "
        f"{payload['spans_recorded']} spans) -> {OUTPUT.name}"
    )
    assert payload["completed_txns"] > 0
    assert payload["spans_recorded"] > 0
    assert payload["tracing_us_per_span"] <= SPAN_BUDGET_US


if __name__ == "__main__":
    print(json.dumps(run_obs_smoke(), indent=2))
