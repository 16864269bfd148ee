"""Figure 9: TPC-C on a 16-core database server.

Paper claims reproduced here: Manual and Pyxis(high budget) nearly
coincide; JDBC pays ~3x the latency; JDBC's throughput caps earlier
(lock contention on district rows).
"""

from benchmarks.conftest import assert_report_digest, run_once
from repro.bench.experiments import fig9
from repro.bench.report import format_curves

# sha256 of the printed report (see ``assert_report_digest``).
REPORT_SHA256 = (
    "36997f329947be24c00f316219ab75a6df6efe4b4e549c713255d652ca1265fc"
)


def test_fig9_tpcc_16core(benchmark):
    result = run_once(benchmark, lambda: fig9(fast=True))
    report = format_curves(result)
    print()
    print(report)
    assert_report_digest(report, REPORT_SHA256)

    jdbc_best = result.best_latency("jdbc")
    manual_best = result.best_latency("manual")
    pyxis_best = result.best_latency("pyxis")

    # Pyxis tracks Manual within 25%.
    assert pyxis_best <= manual_best * 1.25
    # JDBC pays at least 2x the latency of Manual (paper: ~3x).
    assert jdbc_best >= 2.0 * manual_best

    # At a 3x-unloaded-latency cap, Manual/Pyxis sustain more
    # throughput than JDBC (paper: 1.7x).
    cap = 3.0 * manual_best
    assert result.max_throughput("manual", cap) > result.max_throughput(
        "jdbc", cap
    )
    assert result.max_throughput("pyxis", cap) > result.max_throughput(
        "jdbc", cap
    )

    # Figure 9c: JDBC moves the most bytes; Pyxis less than JDBC.
    jdbc_net = max(p.net_kb_per_sec for p in result.curves["jdbc"])
    pyxis_net = max(p.net_kb_per_sec for p in result.curves["pyxis"])
    assert pyxis_net < jdbc_net
