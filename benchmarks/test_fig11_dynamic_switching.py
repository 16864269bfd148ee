"""Figure 11: dynamic partition switching under a mid-run load spike.

Paper claims: before the load arrives Pyxis tracks Manual; after the
DB is loaded the EWMA-driven switcher moves to the JDBC-like partition
(the reported mix goes 0% -> 100%), and Pyxis's settled latency tracks
the better of the two static implementations.
"""

from benchmarks.conftest import assert_report_digest, run_once
from repro.bench.experiments import fig11
from repro.bench.report import format_fig11

# sha256 of the printed report (see ``assert_report_digest``).
REPORT_SHA256 = (
    "03c859b26789a4aecff3079fbf16d2b178afc71564fc1464e71ff1eaff3a4a89"
)


def test_fig11_dynamic_switching(benchmark):
    result = run_once(benchmark, lambda: fig11(fast=True))
    report = format_fig11(result)
    print()
    print(report)
    assert_report_digest(report, REPORT_SHA256)

    buckets = {
        name: run.latency_buckets(result.bucket)
        for name, run in result.runs.items()
    }

    def phase_mean(name: str, start: float, end: float) -> float:
        samples = [
            latency for when, latency in buckets[name]
            if start <= when < end
        ]
        return sum(samples) / len(samples)

    load_time = result.load_time
    end = max(when for when, _ in buckets["pyxis"])

    # Before the load: Pyxis tracks Manual (within 25%), beats JDBC.
    pre_pyxis = phase_mean("pyxis", 0, load_time)
    pre_manual = phase_mean("manual", 0, load_time)
    pre_jdbc = phase_mean("jdbc", 0, load_time)
    assert pre_pyxis < pre_manual * 1.25
    assert pre_pyxis < pre_jdbc * 0.6

    # After settling (skip the adaptation window): Pyxis tracks JDBC
    # while Manual is degraded.
    settle = load_time + (end - load_time) * 0.4
    post_pyxis = phase_mean("pyxis", settle, end)
    post_jdbc = phase_mean("jdbc", settle, end)
    post_manual = phase_mean("manual", settle, end)
    assert post_pyxis < post_manual
    assert post_pyxis < post_jdbc * 1.5

    # The partition mix flips from manual-like to jdbc-like.
    mix = result.runs["pyxis"].trace_mix(result.mix_bucket)
    fractions = [frac.get(result.jdbc_like, 0.0) for _, frac in mix]
    assert fractions[0] < 0.05
    assert fractions[-1] > 0.95
