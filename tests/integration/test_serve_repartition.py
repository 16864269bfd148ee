"""Acceptance: online repartitioning under a mid-run load-mix shift.

The storefront workload starts all-browse (the mix the offline profile
and the initial two-budget ladder were built from) and flips to
all-checkout mid-run.  The repartition controller must notice the
drift in the live profile, mint at least one genuinely new
partitioning through the incremental session (cached structure,
reweighted graph, warm-started solve), switch traffic onto it, and
end up at least as fast as the best static-ladder configuration --
in this scenario clearly faster, because the right placement for
checkout (query loop on the DB, digest loop on the app server) is not
in the offline ladder at all.
"""

import pytest

from repro.bench.serve_experiments import (
    ADAPTIVE,
    REPARTITION,
    STATIC_HIGH,
    STATIC_LOW,
    serve_repartition,
)

DURATION = 40.0


@pytest.fixture(scope="module")
def run():
    return serve_repartition(
        fast=True, clients=16, db_cores=2, duration=DURATION, seed=17
    )


class TestScenarioShape:
    def test_all_configurations_ran(self, run):
        expected = {STATIC_LOW, STATIC_HIGH, ADAPTIVE, REPARTITION}
        assert set(run.runs) == expected
        assert 0.0 < run.shift_time < run.runs[ADAPTIVE].duration

    def test_static_ladder_degrades_after_shift(self, run):
        # Both pre-baked rungs lose throughput once the mix flips:
        # all-APP pays per-item round trips, all-DB saturates the
        # 2-core database with checkout digests.
        for label in (STATIC_LOW, STATIC_HIGH):
            assert (
                run.post_shift_throughput(label)
                < 0.8 * run.runs[label].throughput
            )


class TestRepartitionMintsOnline:
    def test_at_least_one_new_partitioning_minted(self, run):
        summary = run.repartition
        assert summary is not None
        assert summary.mints >= 1
        event = summary.events[0]
        # Minted after the shift, as a genuinely new candidate
        # appended beyond the two offline rungs.
        assert event.now >= run.shift_time
        assert event.index >= 2
        assert event.drift > 0.35
        assert run.notes["minted_labels"]

    def test_minted_partition_takes_the_traffic(self, run):
        # The final option-mix bucket routes to a minted candidate.
        option_mix = run.runs[REPARTITION].option_mix(DURATION / 12.0)
        assert option_mix, "expected option mix buckets"
        _, final_mix = option_mix[-1]
        minted_share = sum(
            share for option, share in final_mix.items() if option >= 2
        )
        assert minted_share > 0.9

    def test_session_worked_incrementally(self, run):
        stats = run.notes["session_stats"]
        assert stats["structure_builds"] == 1  # never rebuilt
        # The online mints re-solved on the reweighted cached graph.
        assert stats["reweights"] >= 2
        assert stats["solves"] >= 3
        # Exactly one compilation per distinct assignment: the two
        # offline rungs plus one per online mint -- nothing recompiled.
        mints = run.repartition.mints
        assert stats["pyxil_compiles"] == 2 + mints


class TestRepartitionBeatsStaticLadder:
    def test_post_shift_throughput_at_least_best_static(self, run):
        best = run.best_static(post_shift=True)
        repart = run.post_shift_throughput(REPARTITION)
        assert repart >= best, (
            f"repartition {repart:.1f}/s lost to best static {best:.1f}/s"
        )
        # And in this scenario the gap should be decisive.
        assert repart >= 1.3 * best

    def test_whole_run_throughput_at_least_best_static(self, run):
        best = run.best_static(post_shift=False)
        assert run.runs[REPARTITION].throughput >= best

    def test_repartition_beats_plain_adaptive_after_shift(self, run):
        # The adaptive switcher only has the two offline rungs to
        # choose from; minting is what wins the post-shift phase.
        assert (
            run.post_shift_throughput(REPARTITION)
            >= 1.2 * run.post_shift_throughput(ADAPTIVE)
        )
