"""Figure 10: TPC-C on a 3-core database server.

Paper claims: Manual wins at low throughput but saturates the limited
CPUs; Pyxis (given a small budget) produces a JDBC-like partition that
sustains higher throughput under DB CPU pressure.
"""

from benchmarks.conftest import assert_report_digest, run_once
from repro.bench.experiments import fig10
from repro.bench.report import format_curves

# sha256 of the printed report (see ``assert_report_digest``).
REPORT_SHA256 = (
    "6fd12c4810761abe8a2458fb701b1f8fc602b4ea3fb4f69e055d7245af435e08"
)


def test_fig10_tpcc_3core(benchmark):
    result = run_once(benchmark, lambda: fig10(fast=True))
    report = format_curves(result)
    print()
    print(report)
    assert_report_digest(report, REPORT_SHA256)

    # Manual is fastest at the lowest offered rate...
    lowest = {
        impl: result.curves[impl][0].latency_ms
        for impl in result.implementations()
    }
    assert lowest["manual"] < lowest["jdbc"]

    # ...but at the highest rate Manual saturates the 3 cores and its
    # latency blows past JDBC and Pyxis.
    highest = {
        impl: result.curves[impl][-1].latency_ms
        for impl in result.implementations()
    }
    assert highest["manual"] > highest["jdbc"]
    assert highest["manual"] > highest["pyxis"]

    # Pyxis's low-budget partition behaves like JDBC (within 20%).
    for p_jdbc, p_pyxis in zip(result.curves["jdbc"], result.curves["pyxis"]):
        assert p_pyxis.latency_ms <= p_jdbc.latency_ms * 1.3 + 2.0

    # Manual's DB utilization reaches saturation first.
    assert result.curves["manual"][-1].db_util > 0.95
