"""Latency + bandwidth network model.

The paper's two servers sit in the same data center with a 2 ms ping
round-trip.  Control transfers pay propagation latency per message plus
a bandwidth term proportional to payload size; piggy-backed heap
updates only pay the bandwidth term.  This mirrors the cost model of
Section 4.2 of the paper (control edges charge ``LAT * cnt``, data
edges charge ``size / BW * cnt``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class NetworkPartitionedError(RuntimeError):
    """A message was sent on a link whose direction is partitioned."""

    def __init__(self, direction: str) -> None:
        self.direction = direction
        super().__init__(f"network link is down ({direction})")


@dataclass
class NetworkStats:
    """Byte and message accounting for one direction of a link."""

    messages: int = 0
    bytes: int = 0
    # Fault-injection accounting: messages lost to a partitioned link
    # and messages that paid an inflated (degraded) latency.
    dropped: int = 0
    delayed: int = 0

    def record(self, nbytes: int) -> None:
        self.messages += 1
        self.bytes += nbytes

    def merge(self, other: "NetworkStats") -> None:
        self.messages += other.messages
        self.bytes += other.bytes
        self.dropped += other.dropped
        self.delayed += other.delayed

    def reset(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.dropped = 0
        self.delayed = 0


@dataclass
class NetworkModel:
    """A symmetric point-to-point link between two servers.

    Parameters
    ----------
    one_way_latency:
        Propagation delay per message, in seconds.  The paper's 2 ms
        ping RTT corresponds to 1 ms one-way.
    bandwidth:
        Link bandwidth in bytes/second (default 1 Gbit/s).
    per_message_overhead:
        Fixed byte overhead per message (framing / headers).
    """

    one_way_latency: float = 0.001
    bandwidth: float = 125_000_000.0  # 1 Gbit/s in bytes/s
    per_message_overhead: int = 64
    app_to_db: NetworkStats = field(default_factory=NetworkStats)
    db_to_app: NetworkStats = field(default_factory=NetworkStats)
    # Fault injection: a partitioned direction drops every message
    # (raising NetworkPartitionedError); a latency multiplier > 1
    # inflates propagation delay (slow link / congestion).
    link_down_to_db: bool = False
    link_down_to_app: bool = False
    latency_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.one_way_latency < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_multiplier <= 0:
            raise ValueError("latency multiplier must be positive")

    @property
    def round_trip_latency(self) -> float:
        return 2.0 * self.one_way_latency * self.latency_multiplier

    def set_link_down(self, down: bool, *, to_db: bool = True,
                      to_app: bool = True) -> None:
        """Partition (or heal) the link, per direction."""
        if to_db:
            self.link_down_to_db = down
        if to_app:
            self.link_down_to_app = down

    @property
    def partitioned(self) -> bool:
        return self.link_down_to_db or self.link_down_to_app

    def set_latency_multiplier(self, factor: float) -> None:
        """Degrade (or restore, with 1.0) the link's latency."""
        if factor <= 0:
            raise ValueError("latency multiplier must be positive")
        self.latency_multiplier = factor

    def transfer_time(self, nbytes: int) -> float:
        """Time for a single one-way message carrying ``nbytes``."""
        if nbytes < 0:
            raise ValueError("cannot send a negative number of bytes")
        wire_bytes = nbytes + self.per_message_overhead
        return (
            self.one_way_latency * self.latency_multiplier
            + wire_bytes / self.bandwidth
        )

    def send(self, nbytes: int, to_db: bool) -> float:
        """Record a message and return its one-way delivery time.

        Raises :class:`NetworkPartitionedError` (after counting the
        drop) when the direction is partitioned; counts the message as
        delayed when a degradation multiplier is active.
        """
        if to_db:
            stats, down = self.app_to_db, self.link_down_to_db
        else:
            stats, down = self.db_to_app, self.link_down_to_app
        if down:
            stats.dropped += 1
            raise NetworkPartitionedError("to_db" if to_db else "to_app")
        # transfer_time + NetworkStats.record, in this frame: the live
        # recorder sends two messages per statement.
        if nbytes < 0:
            raise ValueError("cannot send a negative number of bytes")
        wire_bytes = nbytes + self.per_message_overhead
        multiplier = self.latency_multiplier
        stats.messages += 1
        stats.bytes += wire_bytes
        if multiplier != 1.0:
            stats.delayed += 1
        return self.one_way_latency * multiplier + wire_bytes / self.bandwidth

    def total_bytes(self) -> int:
        return self.app_to_db.bytes + self.db_to_app.bytes

    def total_messages(self) -> int:
        return self.app_to_db.messages + self.db_to_app.messages

    def reset_stats(self) -> None:
        self.app_to_db.reset()
        self.db_to_app.reset()
