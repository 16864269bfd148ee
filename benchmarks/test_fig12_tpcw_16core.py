"""Figure 12: TPC-W browsing mix on a 16-core database server.

Paper claims: same ordering as TPC-C with a somewhat larger
Pyxis-versus-Manual gap (more program logic flows through the
runtime), and the Pyxis partition keeps no-database interactions on
the application server.
"""

import pytest

from benchmarks.conftest import run_once
from repro.bench.experiments import fig12
from repro.bench.report import format_curves

# ``pyxis - manual`` best latency (ms) recorded on the commit before the
# planner chose join orders (JDBC 8.81 / Manual 6.31 / Pyxis 7.39 ms).
# The runtime's absolute overhead does not depend on how many rows a
# join touches, so it must stay put while the SQL base under all three
# partitionings shrinks (DESIGN.md, "TPC-W calibration").
PARENT_PYXIS_MINUS_MANUAL_MS = 1.0736
# Figure 9's Pyxis / Manual best-latency ratio (TPC-C, 11.34 / 10.48 ms
# from ``fig9(fast=True)``; TPC-C has no joins, so it did not move).
FIG9_PYXIS_OVER_MANUAL = 1.082


def test_fig12_tpcw_16core(benchmark):
    result = run_once(benchmark, lambda: fig12(fast=True))
    print()
    print(format_curves(result))

    jdbc = result.best_latency("jdbc")
    manual = result.best_latency("manual")
    pyxis = result.best_latency("pyxis")

    # Section 7.2: same ordering as TPC-C -- Manual < Pyxis < JDBC --
    # with Pyxis closer to Manual than to JDBC ...
    assert manual < pyxis < jdbc
    assert pyxis - manual < jdbc - pyxis
    # ... and "a bit more overhead" than on TPC-C: more program logic
    # flows through the runtime, so the relative gap to Manual is
    # larger than Figure 9's.
    assert pyxis / manual > FIG9_PYXIS_OVER_MANUAL
    # The overhead itself is the runtime's, not the SQL engine's.
    assert pyxis - manual == pytest.approx(
        PARENT_PYXIS_MINUS_MANUAL_MS, rel=0.10
    )

    # Network: the DB-heavy Pyxis partition ships less than JDBC.
    jdbc_net = max(p.net_kb_per_sec for p in result.curves["jdbc"])
    pyxis_net = max(p.net_kb_per_sec for p in result.curves["pyxis"])
    assert pyxis_net < jdbc_net
