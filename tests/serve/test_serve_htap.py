"""The HTAP serve scenario: analytics ride the columnar mirror with a
bounded OLTP cost, and the mirror stays exact under the live write mix."""

from repro.bench.report import format_serve_htap
from repro.bench.serve_experiments import serve_htap

CLIENTS = 16
DURATION = 8.0
SEED = 23


def run_scenario():
    return serve_htap(
        fast=True, clients=CLIENTS, duration=DURATION, seed=SEED,
    )


class TestServeHtap:
    def test_htap_run_meets_acceptance(self):
        result = run_scenario()
        # The analytics mix ran for real against live data...
        assert result.reports_run > 0
        assert result.analytics_rows_scanned > 0
        assert result.best_sellers and result.best_sellers[0][2] > 0
        assert result.district_groups > 0
        # ...the redo stream kept every columnar mirror exact...
        assert result.mirrors_consistent
        assert result.mirror_counters["commits_applied"] > 0
        # ...and the OLTP mix paid at most the acceptance bound.
        assert result.oltp_only.throughput > 0
        assert result.degradation <= 0.10

    def test_htap_run_is_deterministic(self):
        a = run_scenario()
        b = run_scenario()
        assert a.oltp_only.throughput == b.oltp_only.throughput
        assert a.htap.throughput == b.htap.throughput
        assert a.best_sellers == b.best_sellers
        assert a.reports_run == b.reports_run

    def test_report_formatter(self):
        text = format_serve_htap(run_scenario())
        assert "serve htap: tpcc" in text
        assert "degradation" in text
        assert "best seller" in text
        assert "bit-identical to the row store" in text
