"""Load monitoring.

Implements the feedback loop of Section 6.3: the database-server
runtime polls CPU utilization every ``poll_interval`` seconds and the
application server maintains an exponentially weighted moving average
``L_t = alpha * L_{t-1} + (1 - alpha) * S_t`` used to pick a
partitioning.  The paper uses alpha = 0.2, a 10-second poll interval
and a 40% switching threshold.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LoadMonitor:
    """EWMA tracker of database-server CPU load (Section 6.3)."""

    alpha: float = 0.2
    initial: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        self._level: float = self.initial
        self._observations: int = 0

    @property
    def level(self) -> float:
        """Current smoothed load estimate, a percentage in [0, 100]."""
        return self._level

    @property
    def observations(self) -> int:
        return self._observations

    def observe(self, sample: float) -> float:
        """Fold in a new raw load sample (percent) and return the EWMA."""
        if sample < 0:
            raise ValueError("load sample cannot be negative")
        sample = min(sample, 100.0)
        if self._observations == 0:
            # Seed with the first sample rather than biasing toward initial.
            self._level = sample
        else:
            self._level = self.alpha * self._level + (1.0 - self.alpha) * sample
        self._observations += 1
        return self._level

    def reset(self) -> None:
        self._level = self.initial
        self._observations = 0

