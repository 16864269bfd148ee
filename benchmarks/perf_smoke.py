"""Interpreter performance smoke: tree walker vs source.

Times the micro1 linked-list workload under both block-runtime
implementations (``REPRO_INTERP=tree`` and ``source``) and writes
``BENCH_interp.json`` at the repository root -- per mode, the median
and fastest of the timed runs, plus the speedup ratios -- so the
interpreter's performance trajectory is recorded by every CI run.

The source rung carries a hard floor: the generated-source executors
must beat the tree-walker by ``SPEEDUP_FLOOR`` on this mix.  Ratios of
back-to-back runs on one machine are stable, and the floor holds if
either the best-of or the median estimator clears it, so CI noise on a
single pass cannot fail the check.

The test only executes when the ``perfsmoke`` marker is selected
(``pytest benchmarks/perf_smoke.py -m perfsmoke``) so plain test runs
never rewrite the tracked JSON with local machine timings; otherwise
it reports as skipped.  Run as a script for a quick local check:
``PYTHONPATH=src python benchmarks/perf_smoke.py``.
"""

import json
from pathlib import Path

import pytest

from repro.bench.experiments import interp_comparison

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_interp.json"

# The floor of the deleted middle rung, carried over: source over
# closures (2.0) times closures over tree (about 4 when last recorded).
SPEEDUP_FLOOR = 8.0


def run_perf_smoke(n: int = 600, repeats: int = 5) -> dict:
    result = interp_comparison(n=n, repeats=repeats)
    modes = {}
    for mode in ("tree", "source"):
        modes[mode] = {
            "median_seconds": getattr(result, f"{mode}_seconds"),
            "best_seconds": getattr(result, f"{mode}_best_seconds"),
        }
    payload = {
        "workload": "micro1-linked-list",
        "n": result.n,
        "repeats": result.repeats,
        # Per-mode fastest and median side by side.
        "modes": modes,
        # Flat keys, kept so the BENCH trajectory recorded by earlier
        # PRs stays directly comparable.
        "tree_median_seconds": result.tree_seconds,
        "source_median_seconds": result.source_seconds,
        "tree_best_seconds": result.tree_best_seconds,
        "source_best_seconds": result.source_best_seconds,
        # Source over tree, medians and fastest runs.
        "speedup": result.speedup,
        "best_speedup": result.best_speedup,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.perfsmoke
def test_perf_smoke(request):
    if "perfsmoke" not in (request.config.getoption("-m") or ""):
        pytest.skip("select with -m perfsmoke to record BENCH_interp.json")
    payload = run_perf_smoke()
    print()
    for mode, row in payload["modes"].items():
        print(
            f"interp perf smoke [{mode}]: best "
            f"{row['best_seconds'] * 1e3:.2f} ms, median "
            f"{row['median_seconds'] * 1e3:.2f} ms"
        )
    print(
        f"interp perf smoke: source/tree {payload['speedup']:.2f}x "
        f"-> {OUTPUT.name}"
    )
    for mode in ("tree", "source"):
        assert payload["modes"][mode]["median_seconds"] > 0
        assert payload["modes"][mode]["best_seconds"] > 0
    # The floor holds if either estimator clears it (noise can depress
    # best-of and the median independently).
    assert (
        max(payload["speedup"], payload["best_speedup"]) >= SPEEDUP_FLOOR
    )


if __name__ == "__main__":
    print(json.dumps(run_perf_smoke(), indent=2))
