"""Figure 13: TPC-W browsing mix on a 3-core database server.

Paper claims: Manual wins at low WIPS, but its extra DB-side program
logic saturates the 3 cores; JDBC and the Pyxis low-budget partition
sustain higher WIPS.
"""

from benchmarks.conftest import assert_report_digest, run_once
from repro.bench.experiments import fig13
from repro.bench.report import format_curves

# sha256 of the printed report (see ``assert_report_digest``).
REPORT_SHA256 = (
    "cfa1544be870cd6be3cfbbc460bbd14ec96561d3996422c2c644e6b565ff1ffb"
)


def test_fig13_tpcw_3core(benchmark):
    result = run_once(benchmark, lambda: fig13(fast=True))
    report = format_curves(result)
    print()
    print(report)
    assert_report_digest(report, REPORT_SHA256)

    lowest = {
        impl: result.curves[impl][0].latency_ms
        for impl in result.implementations()
    }
    highest = {
        impl: result.curves[impl][-1].latency_ms
        for impl in result.implementations()
    }
    # Crossover: Manual best when idle, worst when saturated.
    assert lowest["manual"] < lowest["jdbc"]
    assert highest["manual"] > highest["jdbc"]
    assert highest["manual"] > highest["pyxis"]

    # The low-budget Pyxis partition tracks JDBC.
    for p_jdbc, p_pyxis in zip(result.curves["jdbc"], result.curves["pyxis"]):
        assert p_pyxis.latency_ms <= p_jdbc.latency_ms * 1.3 + 2.0
