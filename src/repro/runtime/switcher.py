"""Dynamic partition selection (Section 6.3).

The database-server runtime reports CPU load every ``poll_interval``
seconds; the application server smooths it with an EWMA
(``L_t = alpha * L_{t-1} + (1 - alpha) * S_t``, alpha = 0.2 in the
paper) and picks a partitioning at each entry-point call: above the
threshold (40% in the TPC-C experiment) it uses a low-budget
(JDBC-like) partition, otherwise a high-budget (stored-procedure-like)
one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Generic, Optional, TypeVar

from repro.sim.metrics import LoadMonitor

T = TypeVar("T")


@dataclass
class SwitcherConfig:
    """Paper values: alpha=0.2, poll every 10 s, threshold 40%.

    ``history_limit`` bounds the sample/switch-event ring buffers so a
    long-running server does not grow memory with every poll (the
    serving engine polls for the whole run); older entries are dropped
    oldest-first.  Totals survive in :meth:`DynamicSwitcher.summary`.
    """

    alpha: float = 0.2
    poll_interval: float = 10.0
    threshold_percent: float = 40.0
    history_limit: int = 256

    def __post_init__(self) -> None:
        if self.history_limit < 1:
            raise ValueError("history_limit must be at least 1")


@dataclass(frozen=True)
class SwitchEvent:
    """One controller decision change: which option took over, when."""

    now: float
    level: float
    from_index: int
    to_index: int


@dataclass
class SwitcherSummary:
    """Compact view of a switcher's lifetime (bounded-memory safe)."""

    samples: int
    switches: int
    current_index: int
    level: float
    last_sample_at: Optional[float]
    recent: list[tuple[float, float, int]] = field(default_factory=list)
    recent_switches: list[SwitchEvent] = field(default_factory=list)


class DynamicSwitcher(Generic[T]):
    """Chooses between partitionings ordered by CPU budget.

    ``options`` maps a budget rank to an arbitrary payload (a compiled
    program, a transaction trace, ...): index 0 is the lowest budget
    (safest under load), the last index the highest.

    ``history`` is a bounded ring buffer of ``(now, ewma_level,
    chosen_index)`` samples; ``switch_events`` records only the polls
    where the decision changed.  Use :meth:`summary` for reporting --
    it carries lifetime totals even after old entries roll off.
    """

    def __init__(
        self,
        options: list[T],
        config: Optional[SwitcherConfig] = None,
    ) -> None:
        if not options:
            raise ValueError("need at least one partitioning")
        self.options = list(options)
        self.config = config if config is not None else SwitcherConfig()
        self.monitor = LoadMonitor(alpha=self.config.alpha)
        self._last_poll: Optional[float] = None
        limit = self.config.history_limit
        self.history: Deque[tuple[float, float, int]] = deque(maxlen=limit)
        self.switch_events: Deque[SwitchEvent] = deque(maxlen=limit)
        self.samples_total = 0
        self.switches_total = 0

    def add_option(self, option: T, now: Optional[float] = None) -> int:
        """Register a dynamically minted candidate; returns its index.

        The online repartitioning policy calls this when it solves a
        fresh partitioning mid-run.  Candidates always *append*: the
        new option becomes the highest-budget / idle choice, and the
        positional indices of existing options -- which consumers like
        the serve engine use as workload option ids -- never shift.

        Appending can change the effective choice immediately (under
        low load the last option is selected); that change is recorded
        as a :class:`SwitchEvent` so the headline "traffic moved onto
        the minted partitioning" is visible in :meth:`summary`.
        """
        before = self._index()
        self.options.append(option)
        after = self._index()
        if after != before:
            when = (
                now
                if now is not None
                else (self._last_poll if self._last_poll is not None else 0.0)
            )
            self.switches_total += 1
            self.switch_events.append(
                SwitchEvent(
                    now=when,
                    level=self.monitor.level,
                    from_index=before,
                    to_index=after,
                )
            )
        return len(self.options) - 1

    def observe_load(self, now: float, load_percent: float) -> float:
        """Feed a load sample (percent) if the poll interval elapsed."""
        if (
            self._last_poll is not None
            and now - self._last_poll < self.config.poll_interval
        ):
            return self.monitor.level
        self._last_poll = now
        before = self._index()
        level = self.monitor.observe(load_percent)
        after = self._index()
        self.samples_total += 1
        self.history.append((now, level, after))
        if after != before:
            self.switches_total += 1
            self.switch_events.append(
                SwitchEvent(
                    now=now, level=level, from_index=before, to_index=after
                )
            )
        return level

    def _index(self) -> int:
        if self.monitor.observations == 0:
            return len(self.options) - 1
        if self.monitor.level > self.config.threshold_percent:
            return 0
        return len(self.options) - 1

    def choose(self) -> T:
        """The partitioning to use for the next entry-point call."""
        return self.options[self._index()]

    def current_index(self) -> int:
        return self._index()

    def summary(self, recent: int = 8) -> SwitcherSummary:
        """Lifetime totals plus the tail of the bounded ring buffers."""
        return SwitcherSummary(
            samples=self.samples_total,
            switches=self.switches_total,
            current_index=self._index(),
            level=self.monitor.level,
            last_sample_at=self._last_poll,
            recent=list(self.history)[-recent:],
            recent_switches=list(self.switch_events)[-recent:],
        )
