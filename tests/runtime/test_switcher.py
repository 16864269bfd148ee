"""Dynamic partition switching (Section 6.3)."""

import pytest

from repro.runtime.switcher import DynamicSwitcher, SwitchEvent, SwitcherConfig


def make_switcher(**kwargs):
    config = SwitcherConfig(**kwargs) if kwargs else SwitcherConfig()
    return DynamicSwitcher(["low_budget", "high_budget"], config)


class TestDynamicSwitcher:
    def test_defaults_match_paper(self):
        config = SwitcherConfig()
        assert config.alpha == 0.2
        assert config.poll_interval == 10.0
        assert config.threshold_percent == 40.0

    def test_starts_on_high_budget(self):
        switcher = make_switcher()
        assert switcher.choose() == "high_budget"

    def test_switches_to_low_budget_under_load(self):
        switcher = make_switcher()
        switcher.observe_load(0.0, 90.0)
        assert switcher.choose() == "low_budget"

    def test_stays_high_when_idle(self):
        switcher = make_switcher()
        switcher.observe_load(0.0, 10.0)
        assert switcher.choose() == "high_budget"

    def test_poll_interval_suppresses_rapid_samples(self):
        switcher = make_switcher()
        switcher.observe_load(0.0, 10.0)
        # A burst 1s later is ignored (poll every 10s).
        switcher.observe_load(1.0, 100.0)
        assert switcher.choose() == "high_budget"
        switcher.observe_load(11.0, 100.0)
        assert switcher.choose() == "low_budget"

    def test_ewma_delays_switch(self):
        # Paper: "due to the use of EWMA, it took a short period of
        # time for Pyxis to adapt to load changes".
        switcher = make_switcher(alpha=0.8, poll_interval=1.0,
                                 threshold_percent=40.0)
        switcher.observe_load(0.0, 0.0)
        switcher.observe_load(1.0, 100.0)  # level = 0.8*0 + 0.2*100 = 20
        assert switcher.choose() == "high_budget"
        switcher.observe_load(2.0, 100.0)  # 36
        assert switcher.choose() == "high_budget"
        switcher.observe_load(3.0, 100.0)  # 48.8 > 40
        assert switcher.choose() == "low_budget"

    def test_recovers_when_load_drops(self):
        switcher = make_switcher(alpha=0.2, poll_interval=1.0)
        switcher.observe_load(0.0, 90.0)
        assert switcher.choose() == "low_budget"
        for t in range(1, 6):
            switcher.observe_load(float(t), 5.0)
        assert switcher.choose() == "high_budget"

    def test_history_recorded(self):
        switcher = make_switcher(poll_interval=1.0)
        switcher.observe_load(0.0, 50.0)
        switcher.observe_load(1.0, 60.0)
        assert len(switcher.history) == 2

    def test_requires_options(self):
        with pytest.raises(ValueError):
            DynamicSwitcher([])

    def test_single_option_always_chosen(self):
        switcher = DynamicSwitcher(["only"])
        switcher.observe_load(0.0, 99.0)
        assert switcher.choose() == "only"


class TestBoundedHistory:
    def test_history_is_a_ring_buffer(self):
        switcher = make_switcher(poll_interval=1.0, history_limit=10)
        for t in range(100):
            switcher.observe_load(float(t), 50.0)
        assert len(switcher.history) == 10
        # Oldest entries rolled off; the tail is the most recent polls.
        assert switcher.history[0][0] == 90.0
        assert switcher.history[-1][0] == 99.0
        assert switcher.samples_total == 100

    def test_invalid_history_limit_rejected(self):
        with pytest.raises(ValueError):
            SwitcherConfig(history_limit=0)

    def test_switch_events_recorded(self):
        switcher = make_switcher(poll_interval=1.0)
        switcher.observe_load(0.0, 10.0)   # high budget
        switcher.observe_load(1.0, 100.0)  # EWMA jumps to 82%: switch
        switcher.observe_load(2.0, 100.0)  # no further change
        switcher.observe_load(3.0, 100.0)
        events = list(switcher.switch_events)
        assert len(events) == 1
        event = events[0]
        assert isinstance(event, SwitchEvent)
        assert (event.from_index, event.to_index) == (1, 0)
        assert event.level > 40.0
        assert switcher.switches_total == 1

    def test_summary_survives_ring_rollover(self):
        switcher = make_switcher(poll_interval=1.0, history_limit=4)
        loads = [10.0, 100.0, 100.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]
        for t, load in enumerate(loads):
            switcher.observe_load(float(t), load)
        summary = switcher.summary(recent=3)
        assert summary.samples == len(loads)
        assert summary.switches == 2  # high -> low -> high
        assert summary.current_index == 1
        assert len(summary.recent) == 3
        assert summary.last_sample_at == float(len(loads) - 1)
        # The ring only holds 4 samples but totals are preserved.
        assert len(switcher.history) == 4

    def test_summary_on_fresh_switcher(self):
        switcher = make_switcher()
        summary = switcher.summary()
        assert summary.samples == 0
        assert summary.switches == 0
        assert summary.recent == []
        assert summary.last_sample_at is None


class TestAddOption:
    def test_appended_option_becomes_idle_choice(self):
        switcher = make_switcher()
        index = switcher.add_option("minted")
        assert index == 2
        assert switcher.options[-1] == "minted"
        # Idle (no samples): the highest-budget option is chosen.
        assert switcher.choose() == "minted"
        assert switcher.current_index() == 2

    def test_low_budget_refuge_preserved_under_load(self):
        switcher = make_switcher(poll_interval=1.0)
        switcher.add_option("minted")
        for t in range(6):
            switcher.observe_load(float(t), 95.0)
        assert switcher.choose() == "low_budget"

    def test_existing_indices_never_shift(self):
        # The serve engine uses positional indices as workload option
        # ids, so appending must be the only growth mode.
        switcher = make_switcher()
        switcher.add_option("minted_a")
        switcher.add_option("minted_b")
        assert switcher.options == [
            "low_budget", "high_budget", "minted_a", "minted_b"
        ]
