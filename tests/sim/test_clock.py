"""Virtual clock and event loop."""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import Event, EventLoop, PeriodicTask, VirtualClock
from repro.sim.queueing import StageWalker


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(-1.0)

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0

    def test_advance_negative_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_to_backwards_rejected(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_advance_to_same_time_ok(self):
        clock = VirtualClock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_reset(self):
        clock = VirtualClock(9.0)
        clock.reset()
        assert clock.now == 0.0


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(3.0, lambda: fired.append("c"))
        loop.schedule(1.0, lambda: fired.append("a"))
        loop.schedule(2.0, lambda: fired.append("b"))
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        loop = EventLoop()
        fired = []
        for tag in ("first", "second", "third"):
            loop.schedule(1.0, lambda t=tag: fired.append(t))
        loop.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_with_events(self):
        loop = EventLoop()
        times = []
        loop.schedule(2.5, lambda: times.append(loop.clock.now))
        loop.schedule(5.0, lambda: times.append(loop.clock.now))
        loop.run()
        assert times == [2.5, 5.0]

    def test_cancelled_events_skipped(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule(1.0, lambda: fired.append("cancelled"))
        loop.schedule(2.0, lambda: fired.append("kept"))
        event.cancel()
        loop.run()
        assert fired == ["kept"]

    def test_run_until_stops_before_later_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.schedule(10.0, lambda: fired.append(10))
        loop.run(until=5.0)
        assert fired == [1]
        assert loop.clock.now == 5.0
        assert loop.pending == 1

    def test_events_scheduled_during_run(self):
        loop = EventLoop()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                loop.schedule(1.0, lambda: chain(n + 1))

        loop.schedule(1.0, lambda: chain(1))
        loop.run()
        assert fired == [1, 2, 3]
        assert loop.clock.now == 3.0

    def test_schedule_in_past_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)

    def test_max_events_guard(self):
        loop = EventLoop()

        def forever():
            loop.schedule(0.001, forever)

        loop.schedule(0.001, forever)
        with pytest.raises(RuntimeError, match="max_events"):
            loop.run(max_events=100)

    def test_returns_processed_count(self):
        loop = EventLoop()
        for _ in range(5):
            loop.schedule(1.0, lambda: None)
        assert loop.run() == 5

    def test_step_on_empty_returns_false(self):
        assert EventLoop().step() is False


class TestPeriodicTask:
    def test_fires_every_interval(self):
        loop = EventLoop()
        times = []
        loop.schedule_periodic(2.0, lambda: times.append(loop.clock.now))
        loop.schedule(7.0, lambda: None)  # drives the clock past 3 fires
        loop.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_until_stops_rearming(self):
        loop = EventLoop()
        task = loop.schedule_periodic(1.0, lambda: None, until=3.0)
        loop.run()
        assert task.fired == 3
        assert not task.active

    def test_cancel_stops_future_fires(self):
        loop = EventLoop()
        fired = []

        def tick():
            fired.append(loop.clock.now)
            if len(fired) == 2:
                task.cancel()

        task = loop.schedule_periodic(1.0, tick)
        loop.run()
        assert fired == [1.0, 2.0]

    def test_non_positive_interval_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule_periodic(0.0, lambda: None)

    def test_interleaves_deterministically_with_plain_events(self):
        # A periodic fire and a plain event at the same instant run in
        # scheduling order -- the tie-break rule the serving engine
        # relies on for reproducibility.
        loop = EventLoop()
        order = []
        loop.schedule_periodic(2.0, lambda: order.append("poll"))
        loop.schedule(2.0, lambda: order.append("event"))
        loop.run(until=2.0)
        assert order == ["poll", "event"]


# -- the loop against a reference model -------------------------------------
#
# Random programs of schedule / schedule_at / cancel / schedule_periodic /
# nested scheduling from inside actions / run(until=...) / step() run on
# the real loop and on a model that keeps a plain list and always fires
# the live entry with the least (when, seq).  Delays come from a coarse
# grid, so most programs contain ties.


class ModelEntry:
    def __init__(self, when, seq, action, args):
        self.when, self.seq, self.action, self.args = when, seq, action, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ModelPeriodic:
    def __init__(self, loop, interval, action, until):
        self.loop, self.interval = loop, interval
        self.action, self.until = action, until
        self.cancelled = False
        self.entry = None
        self.arm()

    def arm(self):
        when = self.loop.now + self.interval
        if self.until is None or when <= self.until + 1e-12:
            self.entry = self.loop.schedule_at(when, self.fire)

    def fire(self):
        self.action()
        if not self.cancelled:
            self.arm()

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            if self.entry is not None:
                self.entry.cancel()


class ModelLoop:
    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.entries = []

    def schedule(self, delay, action, *args):
        assert delay >= 0
        return self.schedule_at(self.now + delay, action, *args)

    def schedule_at(self, when, action, *args):
        assert when >= self.now - 1e-12
        entry = ModelEntry(when, self.seq, action, args)
        self.seq += 1
        self.entries.append(entry)
        return entry

    def schedule_periodic(self, interval, action, until=None):
        return ModelPeriodic(self, interval, action, until)

    @property
    def pending(self):
        return len(self.entries)

    def _head(self):
        return min(self.entries, key=lambda e: (e.when, e.seq))

    def _fire(self, entry):
        self.entries.remove(entry)
        self.now = max(self.now, entry.when)
        entry.action(*entry.args)

    def step(self):
        while self.entries:
            head = self._head()
            if head.cancelled:
                self.entries.remove(head)
                continue
            self._fire(head)
            return True
        return False

    def run(self, until=None):
        processed = 0
        while self.entries:
            head = self._head()
            if head.cancelled:
                self.entries.remove(head)
            elif until is not None and head.when > until:
                self.now = max(self.now, until)
                break
            else:
                self._fire(head)
                processed += 1
        return processed


class RealLoop(EventLoop):
    @property
    def now(self):
        return self.clock.now


_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.25, 0.5, 1.0, 1.75])
# What a fired action does next: cancel some handle, or schedule
# children (relative or absolute) that act in turn.
_NESTED = st.recursive(
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    lambda children: st.tuples(
        st.sampled_from(["schedule", "schedule_at"]),
        _DELAYS,
        st.lists(children, max_size=3),
    ),
    max_leaves=8,
)
_COMMANDS = st.one_of(
    _NESTED,
    st.tuples(
        st.just("periodic"),
        st.sampled_from([0.25, 0.5, 1.0]),
        st.one_of(st.none(), st.sampled_from([0.5, 1.0, 3.0])),
        st.lists(_NESTED, max_size=2),
    ),
    st.tuples(st.just("run_until"), _DELAYS),
    st.tuples(st.just("step")),
)


def _interpret(loop, program):
    """Run ``program`` on ``loop``; return everything observable."""
    log = []
    handles = []
    periodics = []
    labels = iter(range(10**9))

    def fire(label, payload, then):
        # *args must arrive intact: payload is checked against label.
        log.append(("fired", label, payload, loop.now))
        for command in then:
            execute(command)

    def execute(command):
        kind = command[0]
        if kind == "cancel":
            if handles:
                handles[command[1] % len(handles)].cancel()
        elif kind in ("schedule", "schedule_at"):
            _, delay, then = command
            label = next(labels)
            args = (label, [label, delay], then)
            if kind == "schedule":
                handles.append(loop.schedule(delay, fire, *args))
            else:
                handles.append(loop.schedule_at(loop.now + delay, fire, *args))
        elif kind == "periodic":
            _, interval, horizon, then = command
            label = next(labels)
            until = None if horizon is None else loop.now + horizon
            task = loop.schedule_periodic(
                interval, lambda: fire(label, "tick", then), until=until
            )
            handles.append(task)
            periodics.append(task)
        elif kind == "run_until":
            log.append(("ran", loop.run(until=loop.now + command[1])))
        else:
            log.append(("stepped", loop.step()))
        log.append(("pending", loop.pending, loop.now))

    for command in program:
        execute(command)
    for task in periodics:  # an unbounded periodic task never drains
        task.cancel()
    log.append(("drained", loop.run(), loop.pending, loop.now))
    return log


class TestEventLoopAgainstModel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_COMMANDS, max_size=10))
    def test_same_firings_clock_counts_and_pending(self, program):
        assert _interpret(RealLoop(), program) == _interpret(
            ModelLoop(), program
        )

    def test_cancelling_a_fired_event_is_a_no_op(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule(1.0, fired.append, "once")
        loop.schedule(2.0, fired.append, "later")
        assert loop.step() is True
        event.cancel()
        assert event.cancelled
        assert loop.pending == 1
        assert loop.run() == 1
        assert fired == ["once", "later"]

    def test_pending_counts_cancelled_entries_until_popped(self):
        loop = EventLoop()
        first = loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        first.cancel()
        assert loop.pending == 2
        assert loop.run(until=0.5) == 0  # the cancelled head is dropped
        assert loop.pending == 1

    def test_event_keeps_its_public_surface(self):
        loop = EventLoop()
        action = lambda: None  # noqa: E731
        event = loop.schedule_at(2.0, action)
        assert isinstance(event, Event)
        assert (event.when, event.seq, event.action) == (2.0, 0, action)
        assert not event.cancelled
        event.cancel()
        assert event.cancelled and event.action is None

    @given(st.floats(max_value=-1e-9, allow_nan=False, allow_infinity=False))
    def test_negative_delay_names_the_value(self, delay):
        with pytest.raises(ValueError, match="delay=") as raised:
            EventLoop().schedule(delay, lambda: None)
        assert repr(delay) in str(raised.value)

    @given(st.floats(min_value=2e-12, max_value=5.0))
    def test_past_when_names_the_value(self, behind):
        loop = EventLoop(VirtualClock(5.0))
        when = 5.0 - behind
        with pytest.raises(ValueError) as raised:
            loop.schedule_at(when, lambda: None)
        assert repr(when) in str(raised.value)

    def test_when_inside_the_tolerance_is_accepted(self):
        loop = EventLoop(VirtualClock(5.0))
        seen = []
        loop.schedule_at(5.0 - 5e-13, lambda: seen.append(loop.clock.now))
        assert loop.run() == 1
        assert seen == [5.0]  # fired without moving the clock back

    def test_clock_moved_past_an_entry_is_refused(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.clock.advance_to(2.0)
        with pytest.raises(ValueError, match="backwards"):
            loop.run()


def test_no_closure_per_event():
    """The per-event path allocates no function object: the walker's
    step and occupy and the loop's schedule / run contain no nested
    code (no lambda, def or comprehension), so a closure per stage
    cannot come back unnoticed."""
    for function in (
        StageWalker.step, StageWalker.occupy, EventLoop.schedule,
        EventLoop.schedule_at, EventLoop.run,
    ):
        nested = [
            const for const in function.__code__.co_consts
            if isinstance(const, types.CodeType)
        ]
        assert not nested, (function.__qualname__, nested)
