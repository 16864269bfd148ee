"""SQL executor performance smoke: tree walker vs compiled vs source.

Times the TPC-C new-order statement mix under all three SQL executors
(``REPRO_SQL_EXEC=tree``, ``compiled`` and ``source``) and writes
``BENCH_sql.json`` at the repository root -- per mode, the fastest
pass *and* the median of seven timed passes side by side, statement
throughput, plus the speedup ratios -- so the embedded engine's
performance trajectory stays comparable across PRs.

Like the other smokes it only executes under ``-m perfsmoke``
(``pytest benchmarks/sql_smoke.py -m perfsmoke``) so plain test runs
never rewrite the tracked JSON; run as a script for a quick local
check: ``PYTHONPATH=src python benchmarks/sql_smoke.py``.

The speedup floors asserted here are wall-clock, but the ratio of two
measurements taken back-to-back on the same machine is stable (same
approach as ``pipeline_smoke.py``), and the headline ratios compare
the *fastest* pass per implementation -- external noise only ever
adds time -- so a few clean passes out of seven suffice.  The
closure executor measures ~3.5-4x over tree against a 3.0x floor;
the source rung measures well over its 2.0x floor against the
closure executor on the development machine.
"""

import json
import random
import time
from pathlib import Path

import pytest

from repro.bench.experiments import sql_exec_comparison
from repro.db import Database, connect
from repro.db.sql.codegen_plan import HASH_JOIN_MIN_ROWS, HASH_JOIN_SPILL_ROWS
from repro.workloads.tpcw import (
    SUBJECTS,
    create_tpcw_schema,
    make_tpcw_database,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_sql.json"

SPEEDUP_FLOOR = 3.0
SOURCE_SPEEDUP_FLOOR = 2.0

# The browsing mix's three joins (source rung, benchmark scale).
TPCW_JOINS = {
    "new_products": (
        "SELECT i.i_id, i.i_title, i.i_pub_date, i.i_cost, a.a_fname, "
        "a.a_lname FROM tw_item i JOIN author a ON i.i_a_id = a.a_id "
        "WHERE i.i_subject = ? ORDER BY i.i_pub_date DESC, i.i_title "
        "LIMIT 10",
        [(subject,) for subject in SUBJECTS],
    ),
    "best_sellers": (
        "SELECT i.i_id, i.i_title, SUM(ol.ol_qty) AS sold "
        "FROM tw_order_line ol JOIN tw_item i ON ol.ol_i_id = i.i_id "
        "WHERE i.i_subject = ? GROUP BY i.i_id, i.i_title "
        "ORDER BY sold DESC LIMIT 10",
        [(subject,) for subject in SUBJECTS],
    ),
    "search_by_author": (
        "SELECT i.i_id, i.i_title FROM tw_item i JOIN author a "
        "ON i.i_a_id = a.a_id WHERE a.a_lname = ? "
        "ORDER BY i.i_title LIMIT 20",
        [(f"last{n}",) for n in range(0, 97, 8)],
    ),
}

# The same three measured by this file on the parent commit (6f80e28:
# joins in written order, a hash build per execution), same machine:
# microseconds and rows touched per statement.
PARENT_TPCW_JOINS = {
    "new_products": {"us_per_statement": 96.5, "rows_touched": 83.3},
    "best_sellers": {"us_per_statement": 549.0, "rows_touched": 3668.0},
    "search_by_author": {"us_per_statement": 160.2, "rows_touched": 2000.0},
}

# A join must cost about the same one row either side of each
# hash-join threshold: no strategy cliff.
NO_CLIFF_RATIO = 2.0
SWEEP_SIZES = [
    threshold + delta
    for threshold in (HASH_JOIN_MIN_ROWS, HASH_JOIN_SPILL_ROWS)
    for delta in (-1, 0, 1)
]


def time_statement(conn, sql, param_sets, repeats=7, loops=20):
    """(fastest microseconds, mean rows touched) per execution."""
    run = conn.prepare(sql).compiled.run
    touched = sum(run(params, None).rows_touched for params in param_sets)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            for params in param_sets:
                run(params, None)
        best = min(best, time.perf_counter() - start)
    executions = loops * len(param_sets)
    return best / executions * 1e6, touched / len(param_sets)


def run_tpcw_joins() -> dict:
    _, conn = make_tpcw_database()
    rows = {}
    for name, (sql, param_sets) in TPCW_JOINS.items():
        micros, touched = time_statement(conn, sql, param_sets)
        rows[name] = {"us_per_statement": micros, "rows_touched": touched}
        if name in PARENT_TPCW_JOINS:
            rows[name]["parent"] = PARENT_TPCW_JOINS[name]
    return rows


def _sweep_database(items: int, order_lines: int):
    """TPC-W tables with exact row counts in the two probed tables."""
    rng = random.Random(11)
    db = Database("tpcw-sweep")
    create_tpcw_schema(db)
    for a_id in range(1, 41):
        db.table("author").insert((a_id, f"first{a_id}", f"last{a_id % 8}"))
    for i_id in range(1, items + 1):
        db.table("tw_item").insert(
            (i_id, f"Title {i_id}", rng.randint(1, 40),
             SUBJECTS[i_id % len(SUBJECTS)], 9.5, 2000 + i_id % 12, 10, 0)
        )
    for ol_id in range(1, order_lines + 1):
        db.table("tw_order_line").insert(
            (ol_id, 1 + ol_id // 4, rng.randint(1, items), 1 + ol_id % 5, 0.1)
        )
    return connect(db, sql_exec="source")


def run_no_cliff_sweep() -> dict:
    """best_sellers / search_by_author timed with the table each one
    probes one row either side of both hash-join thresholds."""
    sweep = {}
    for name, sized, param_sets in (
        ("best_sellers", lambda n: _sweep_database(120, n),
         [(subject,) for subject in SUBJECTS]),
        ("search_by_author", lambda n: _sweep_database(n, 0),
         [(f"last{n}",) for n in range(8)]),
    ):
        sql, _ = TPCW_JOINS[name]
        sweep[name] = {
            str(size): time_statement(sized(size), sql, param_sets)[0]
            for size in SWEEP_SIZES
        }
    return sweep


def run_sql_smoke(transactions: int = 50, repeats: int = 7) -> dict:
    result = sql_exec_comparison(transactions=transactions, repeats=repeats)
    modes = {}
    for mode in ("tree", "compiled", "source"):
        median = getattr(result, f"{mode}_seconds")
        modes[mode] = {
            "median_seconds": median,
            "best_seconds": getattr(result, f"{mode}_best_seconds"),
            "statements_per_second": result.statements / median,
        }
    payload = {
        "workload": "tpcc-new-order-mix",
        "transactions": result.transactions,
        "statements": result.statements,
        "repeats": result.repeats,
        # Per-mode fastest and median side by side.
        "modes": modes,
        # Historical flat keys, kept so the BENCH trajectory recorded
        # by earlier PRs stays directly comparable.
        "tree_median_seconds": result.tree_seconds,
        "compiled_median_seconds": result.compiled_seconds,
        "source_median_seconds": result.source_seconds,
        "tree_best_seconds": result.tree_best_seconds,
        "compiled_best_seconds": result.compiled_best_seconds,
        "source_best_seconds": result.source_best_seconds,
        "tree_statements_per_second": result.tree_statements_per_second,
        "compiled_statements_per_second":
            result.compiled_statements_per_second,
        "source_statements_per_second":
            result.source_statements_per_second,
        "speedup": result.speedup,
        "median_speedup": result.median_speedup,
        "source_speedup": result.source_speedup,
        "source_median_speedup": result.source_median_speedup,
        "tpcw_joins": run_tpcw_joins(),
        # Microseconds per statement by probed-table rows.
        "tpcw_no_cliff_sweep": run_no_cliff_sweep(),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.perfsmoke
def test_sql_smoke(request):
    if "perfsmoke" not in (request.config.getoption("-m") or ""):
        pytest.skip("select with -m perfsmoke to record BENCH_sql.json")
    payload = run_sql_smoke()
    print()
    for mode, row in payload["modes"].items():
        print(
            f"sql perf smoke [{mode}]: best "
            f"{row['best_seconds'] * 1e3:.2f} ms, median "
            f"{row['median_seconds'] * 1e3:.2f} ms, "
            f"{row['statements_per_second']:,.0f} stmt/s"
        )
    print(
        f"sql perf smoke: compiled/tree {payload['speedup']:.2f}x, "
        f"source/compiled {payload['source_speedup']:.2f}x "
        f"-> {OUTPUT.name}"
    )
    for name, row in payload["tpcw_joins"].items():
        print(
            f"sql perf smoke [{name}]: {row['us_per_statement']:.1f} us, "
            f"{row['rows_touched']:.0f} rows touched per statement"
        )
    for name, by_size in payload["tpcw_no_cliff_sweep"].items():
        print(f"sql perf smoke [{name} sweep]: " + ", ".join(
            f"{size} rows {micros:.1f} us" for size, micros in by_size.items()
        ))
        for size in SWEEP_SIZES[:-1]:
            if str(size + 1) in by_size:
                pair = (by_size[str(size)], by_size[str(size + 1)])
                assert max(pair) <= NO_CLIFF_RATIO * min(pair), (
                    name, size, pair
                )
    for mode in ("tree", "compiled", "source"):
        assert payload["modes"][mode]["median_seconds"] > 0
        assert payload["modes"][mode]["best_seconds"] > 0
    # Ratios of back-to-back runs on one machine.  Noise can depress
    # either estimator independently (a transiently fast outlier pass
    # skews best-of, a transiently loaded stretch skews the median),
    # so each floor holds if either estimator clears it.
    assert (
        max(payload["speedup"], payload["median_speedup"]) >= SPEEDUP_FLOOR
    )
    assert (
        max(payload["source_speedup"], payload["source_median_speedup"])
        >= SOURCE_SPEEDUP_FLOOR
    )


if __name__ == "__main__":
    print(json.dumps(run_sql_smoke(), indent=2))
