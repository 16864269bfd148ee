"""Virtual time.

Every latency number reported by the reproduction is measured against a
:class:`VirtualClock` rather than wall-clock time, so experiments that
cover "10 minutes" of benchmark time complete in well under a second of
real time.  The clock only moves when a component explicitly charges
time to it (CPU work, network transfers, or event-loop scheduling).

:class:`EventLoop` is the discrete-event core under both simulators.
A heap entry is the list ``[when, key, action, args]``: ``heapq``
orders entries with the C list comparison (keys are unique, so
``action`` is never compared) and an action needs no closure.  The
loop's own entries carry ``seq``, their scheduling order; the stage
walker pushes plain-list entries with a wake key or a walk key, both
above every ``seq`` (below).  Events at the same instant are common,
so their order is part of the model: the loop's own events first, in
scheduling order, then run-queue wakes, then walk events in
(transaction, stage) order, whenever they were pushed (DESIGN.md,
"Event-order contract").
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Optional

# A stage walk's heap entry carries a walk key where other entries carry
# ``seq``: WALK_KEY + serial * WALK_STRIDE + stage index, for the
# transaction's serial in its run.  ``seq`` stays far below WALK_KEY, so
# at one instant walk events run after every other event, in
# (transaction, stage) order, whenever they were pushed.
WALK_KEY = 1 << 62
WALK_STRIDE = 1 << 24
# A run queue's wake carries WAKE_KEY + its own serial: after every
# other event at its instant, before the walk events.
WAKE_KEY = 1 << 61


class VirtualClock:
    """A monotonically advancing virtual clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before t=0")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta!r}")
        self._now += delta
        return self._now

    def advance_to(self, when: float) -> float:
        """Move the clock forward to absolute time ``when``.

        Moving backwards is an error: events must be processed in order.
        """
        if when < self._now - 1e-12:
            raise ValueError(
                f"cannot move clock backwards from {self._now} to {when}"
            )
        self._now = max(self._now, when)
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock (used between experiment runs)."""
        if start < 0:
            raise ValueError("clock cannot start before t=0")
        self._now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.6f})"


class Event(list):
    """A scheduled callback: the heap entry ``[when, seq, action, args]``."""

    __slots__ = ()
    when = property(itemgetter(0))
    seq = property(itemgetter(1))
    action = property(itemgetter(2))

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        """Blank the action so the loop skips the entry when popped."""
        self[2] = None


class PeriodicTask:
    """Handle for a repeating callback scheduled on an :class:`EventLoop`.

    The loop re-arms the task after every firing until :meth:`cancel`
    is called or the optional ``until`` horizon is reached.  Used by
    the serving subsystem for monitor polls and load scripts.
    """

    __slots__ = ("loop", "interval", "action", "until", "fired", "_event")

    def __init__(
        self,
        loop: "EventLoop",
        interval: float,
        action: Callable[[], None],
        until: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("periodic interval must be positive")
        self.loop = loop
        self.interval = interval
        self.action = action
        self.until = until
        self.fired = 0
        self._event: Optional[Event] = None
        self._arm()

    def _arm(self) -> None:
        when = self.loop.clock.now + self.interval
        if self.until is not None and when > self.until + 1e-12:
            self._event = None
            return
        self._event = self.loop.schedule_at(when, self._fire)

    def _fire(self) -> None:
        self.fired += 1
        self.action()
        if self._event is not None:  # not cancelled from inside action
            self._arm()

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def active(self) -> bool:
        return self._event is not None and not self._event.cancelled


class EventLoop:
    """A minimal discrete-event loop over a :class:`VirtualClock`.

    Components schedule callbacks at absolute virtual times; :meth:`run`
    pops them in time order, advancing the clock as it goes.  Ties among
    the entries it pushes are broken by scheduling order (``seq``), so
    runs are deterministic.
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._heap: list[Event] = []
        self._seq = 0

    def schedule(
        self, delay: float, action: Callable[..., None], *args
    ) -> Event:
        """Schedule ``action(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        event = Event((self.clock._now + delay, seq, action, args))
        heappush(self._heap, event)
        return event

    def schedule_at(
        self, when: float, action: Callable[..., None], *args
    ) -> Event:
        """Schedule ``action(*args)`` at absolute virtual time ``when``."""
        if when < self.clock._now - 1e-12:
            raise ValueError(
                f"cannot schedule event at {when} before now={self.clock.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event((when, seq, action, args))
        heappush(self._heap, event)
        return event

    def schedule_periodic(
        self,
        interval: float,
        action: Callable[[], None],
        until: Optional[float] = None,
    ) -> PeriodicTask:
        """Run ``action`` every ``interval`` seconds of virtual time.

        The first firing happens one interval from now; ``until`` (an
        absolute virtual time) stops re-arming past the horizon.
        """
        return PeriodicTask(self, interval, action, until=until)

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    def step(self) -> bool:
        """Process the next event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            when, _, action, args = heappop(heap)
            if action is None:
                continue
            self.clock.advance_to(when)
            action(*args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> int:
        """Run until the queue drains or the clock passes ``until``.

        Returns the number of events processed.  ``max_events`` guards
        against runaway simulations in tests.
        """
        heap = self._heap
        clock = self.clock
        processed = 0
        while heap:
            if processed >= max_events:
                raise RuntimeError(
                    f"event loop exceeded max_events={max_events}; "
                    "likely a runaway simulation"
                )
            when, _, action, args = entry = heappop(heap)
            if action is None:
                continue
            if until is not None and when > until:
                heappush(heap, entry)  # (when, seq) is unique: same order
                clock.advance_to(until)
                break
            # VirtualClock.advance_to, inlined: this is the hot loop.
            now = clock._now
            if when > now:
                clock._now = when
            elif when < now - 1e-12:
                raise ValueError(
                    f"cannot move clock backwards from {now} to {when}"
                )
            action(*args)
            processed += 1
        return processed
