"""Tier-1 self-test of the end-to-end benchmark.

Runs all four workloads at ``--scale tiny`` (at most 200 operations /
4 slices each), untraced and traced, in this process, and checks the
contract the benchmark makes with its readers: every metric declared
in ``BENCHMARK.json`` is printed, finite and carries its unit; outputs
are verified; the traced ledger adds up; layers a workload bypasses
report no work.
"""

import contextlib
import io
import json
import math
import os
import re

import pytest

import run as e2e

SPEC = json.loads((e2e.ROOT / "BENCHMARK.json").read_text())
DECLARED = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
TIER_LAYERS = ("db.shard.", "db.replica.", "db.wal.", "db.recovery.",
               "db.mvcc.", "db.htap.")


@pytest.fixture(scope="module")
def outputs():
    """(workload, trace) -> everything the run printed."""
    saved = {v: os.environ.pop(v) for v in e2e.RUNG_ENV_VARS
             if v in os.environ}
    printed = {}
    try:
        for workload in e2e.WORKLOADS:
            for trace in (0, 1):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = e2e.main(["--workload", workload, "--scale",
                                     "tiny", "--trace", str(trace)])
                assert code == 0
                printed[workload, trace] = buffer.getvalue()
    finally:
        os.environ.update(saved)
    return printed


def result_of(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def layer(outputs, workload: str) -> dict:
    metrics = result_of(outputs[workload, 1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def test_benchmark_json_shape():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(e2e.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]{1,64}", n) for n in names)


def test_every_declared_metric_is_printed(outputs):
    for (workload, trace), text in outputs.items():
        result = result_of(text)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        declared = DECLARED[trace]
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            entry = result["metrics"][metric["name"]]
            assert math.isfinite(entry["value"]), (workload, metric["name"])
            assert entry["unit"] == metric["unit"] != ""
            # ... and by name, with its unit, in the readable part.
            assert re.search(
                rf"^\s+{re.escape(metric['name'])}\s+\S+ "
                rf"{re.escape(metric['unit'])}$", text, re.M,
            ), (workload, metric["name"])


def test_outputs_are_verified(outputs):
    for (workload, trace), text in outputs.items():
        result = result_of(text)
        assert result["correct"] and result["failed"] == 0, text
        assert result["attempted"] >= 1
        assert "FAIL" not in text
    for workload in ("tpcc_bare", "tpcc_tier", "tpcw_browse"):
        assert "tree/tree oracle" in outputs[workload, 0]
    assert "recover_sharded() equals" in outputs["tpcc_tier", 0]
    assert "second pass" in outputs["serve_sim", 0]


def test_end_to_end_metrics_are_never_zero(outputs):
    for workload in e2e.WORKLOADS:
        metrics = result_of(outputs[workload, 0])["metrics"]
        assert all(entry["value"] > 0 for entry in metrics.values())


def test_ledger_sums_to_the_traced_wall(outputs):
    for workload in e2e.WORKLOADS:
        assert abs(layer(outputs, workload)["ledger.sum_frac"] - 1.0) < 0.01


def test_every_operation_really_executes(outputs):
    for workload in ("tpcc_bare", "tpcc_tier", "tpcw_browse"):
        assert layer(outputs, workload)["runtime.invokes_per_txn"] == 1.0
    serve = layer(outputs, "serve_sim")
    assert serve["serve.live_executions"] == 0
    assert serve["serve.trace_replays"] > 0
    assert serve["sim.events_per_txn"] > 0


def test_tier_layers_are_idle_without_a_tier(outputs):
    for workload in ("tpcc_bare", "tpcw_browse", "serve_sim"):
        busy = {
            name: value for name, value in layer(outputs, workload).items()
            if name.startswith(TIER_LAYERS) and value != 0
        }
        assert not busy, (workload, busy)


def test_tier_layers_all_work_on_tpcc_tier(outputs):
    tier = layer(outputs, "tpcc_tier")
    for name in ("db.shard.route_us", "db.shard.two_pc_commits",
                 "db.replica.ops_shipped_per_txn", "db.wal.frames_per_txn",
                 "db.wal.syncs", "db.wal.sync_us", "db.recovery.frames_per_s",
                 "db.mvcc.materialize_calls", "db.htap.ops_applied_per_txn",
                 "db.htap.report_ms", "runtime.heap_sync_calls_per_txn"):
        assert tier[name] > 0, name
    assert tier["db.wal.checkpoints"] == 2  # one per round


def test_rung_override_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_SQL_EXEC", "tree")
    with pytest.raises(SystemExit) as refusal:
        e2e.main(["--workload", "tpcw_browse", "--scale", "tiny"])
    assert "REPRO_SQL_EXEC" in str(refusal.value)


def test_tracing_leaves_no_patch_behind(outputs):
    from repro.db.jdbc import PreparedStatement
    from repro.db.txn import ShardedTransaction, Transaction

    for function in (PreparedStatement.query, Transaction.commit,
                     ShardedTransaction.commit):
        assert "traced" not in function.__qualname__
    assert os.fsync.__module__ == "posix"  # neither span nor flush timer
