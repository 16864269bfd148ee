"""Figure 14: microbenchmark 2 -- three budgets x three loads.

Paper claims: the generated partitions are APP, APP--DB and DB, and
the fastest partition per load level follows the diagonal (DB when
unloaded, APP--DB under partial load, APP under full load) -- the
middle partition being one a developer writing only the two extremes
by hand would have missed.
"""

from benchmarks.conftest import assert_report_digest, run_once
from repro.bench.experiments import fig14
from repro.bench.report import format_fig14

# sha256 of the printed report (see ``assert_report_digest``).
REPORT_SHA256 = (
    "95e1eb0932ba4c3c85f5663a4bda4772b0537331dbbb14d7ad8d640a08f26e1d"
)


def test_fig14_micro2(benchmark):
    result = run_once(benchmark, fig14)
    report = format_fig14(result)
    print()
    print(report)
    assert_report_digest(report, REPORT_SHA256)
    print(f"fractions on DB: {result.fractions_on_db}")

    assert result.best_for("no_load") == "DB"
    assert result.best_for("partial_load") == "APP-DB"
    assert result.best_for("full_load") == "APP"

    # The three partitions are genuinely different programs.
    fractions = [result.fractions_on_db[p] for p in result.partitions]
    assert fractions[0] == 0.0 and fractions[0] < fractions[1] < fractions[2]
