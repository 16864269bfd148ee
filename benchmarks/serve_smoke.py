"""Serving-engine performance smoke: 32-client TPC-C throughput.

Runs the closed-loop serve engine at 32 clients with the adaptive
controller on a 3-core database server and writes ``BENCH_serve.json``
at the repository root -- transactions per *virtual* second (the
modeled system's throughput, deterministic across machines) plus the
wall-clock cost of simulating it (machine-dependent, recorded for the
performance trajectory): the wall of all three configurations, and the
adaptive run's event count with its wall time per event, the
discrete-event core's own number.

Every other field is a virtual-clock model output, so a re-record may
not move it: before rewriting the file the smoke fails, naming the
field, if any of them differs from the file already there.  After a
change that is meant to move the model, delete the file and record it
afresh.

Like the interpreter smoke, it only executes under ``-m perfsmoke``
(``pytest benchmarks/serve_smoke.py -m perfsmoke``) so plain test runs
never rewrite the tracked JSON; run as a script for a quick local
check: ``PYTHONPATH=src python benchmarks/serve_smoke.py``.
"""

import json
import time
from pathlib import Path
from unittest import mock

import pytest

from repro.bench.serve_experiments import serve_load_sweep
from repro.sim.clock import EventLoop

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_serve.json"

CLIENTS = 32
DB_CORES = 3
DURATION = 20.0
# Machine-dependent: the only fields a re-record may change.
WALL_FIELDS = ("wall_seconds_all_configs", "adaptive_wall_us_per_event")


def check_model_unchanged(recorded: dict, measured: dict) -> None:
    """Raise if a virtual-clock field of ``measured`` differs from the
    ``recorded`` file's, naming the first such field."""
    for key in sorted(recorded.keys() | measured.keys()):
        if key not in WALL_FIELDS and recorded.get(key) != measured.get(key):
            raise AssertionError(
                f"{OUTPUT.name}: virtual-clock field {key!r} moved from "
                f"{recorded.get(key)!r} to {measured.get(key)!r}; the model "
                "changed (delete the file to re-record it on purpose)"
            )


def run_serve_smoke() -> dict:
    loop_runs = []  # (events, wall seconds) of each engine's event loop
    inner = EventLoop.run

    def timed_run(loop, *args, **kwargs):
        begin = time.perf_counter()
        events = inner(loop, *args, **kwargs)
        loop_runs.append((events, time.perf_counter() - begin))
        return events

    start = time.perf_counter()
    with mock.patch.object(EventLoop, "run", timed_run):
        sweep = serve_load_sweep(
            fast=True,
            client_counts=[CLIENTS],
            db_cores=DB_CORES,
            duration=DURATION,
            seed=17,
        )
    wall = time.perf_counter() - start
    point = sweep.curves["adaptive"][0]
    events, loop_wall = loop_runs[-1]  # the sweep runs adaptive last
    payload = {
        "workload": "tpcc-new-order",
        "clients": CLIENTS,
        "db_cores": DB_CORES,
        "virtual_duration_seconds": DURATION,
        "adaptive_txn_per_virtual_second": point.throughput,
        "adaptive_p95_latency_ms": point.p95_ms,
        "adaptive_switches": point.switches,
        "static_low_txn_per_virtual_second":
            sweep.curves["static_low"][0].throughput,
        "static_high_txn_per_virtual_second":
            sweep.curves["static_high"][0].throughput,
        "wall_seconds_all_configs": wall,
        "adaptive_events": events,
        "adaptive_wall_us_per_event": 1e6 * loop_wall / events,
    }
    if OUTPUT.exists():
        check_model_unchanged(json.loads(OUTPUT.read_text()), payload)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_model_guard_names_the_moved_field():
    recorded = json.loads(OUTPUT.read_text())
    faster = dict(recorded, adaptive_wall_us_per_event=0.5,
                  wall_seconds_all_configs=1.0)
    check_model_unchanged(recorded, faster)  # wall fields may move
    for key in ("adaptive_events", "adaptive_p95_latency_ms",
                "adaptive_switches", "static_low_txn_per_virtual_second"):
        moved = dict(recorded, **{key: recorded[key] + 1})
        with pytest.raises(AssertionError, match=repr(key)):
            check_model_unchanged(recorded, moved)


@pytest.mark.perfsmoke
def test_serve_smoke(request):
    if "perfsmoke" not in (request.config.getoption("-m") or ""):
        pytest.skip("select with -m perfsmoke to record BENCH_serve.json")
    payload = run_serve_smoke()
    print()
    print(
        f"serve perf smoke: adaptive "
        f"{payload['adaptive_txn_per_virtual_second']:.1f} txn/vs at "
        f"{CLIENTS} clients "
        f"(static {payload['static_low_txn_per_virtual_second']:.1f} / "
        f"{payload['static_high_txn_per_virtual_second']:.1f}), "
        f"{payload['wall_seconds_all_configs']:.1f}s wall, "
        f"{payload['adaptive_wall_us_per_event']:.2f} us per event -> "
        f"{OUTPUT.name}"
    )
    # Non-failing perf record, but the modeled throughput is virtual-
    # clock deterministic, so a hard floor is safe: the adaptive config
    # must at least keep up with the weaker static partitioning.
    weakest = min(
        payload["static_low_txn_per_virtual_second"],
        payload["static_high_txn_per_virtual_second"],
    )
    assert payload["adaptive_txn_per_virtual_second"] > 0
    assert payload["adaptive_txn_per_virtual_second"] >= 0.85 * weakest


if __name__ == "__main__":
    print(json.dumps(run_serve_smoke(), indent=2))
