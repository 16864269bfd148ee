"""Virtual-clock-native distributed tracing.

A :class:`Tracer` records parent/child spans whose timestamps come
from the simulation's virtual clock, so identically-seeded runs emit
identical traces.  Disabled tracers are zero-cost: every ``span()`` /
``instant()`` call returns the shared :data:`NULL_SPAN` without
allocating, which lets instrumentation live permanently on hot paths
(client lifecycle, statement router, 2PC rounds, log shipping).

Spans carry a ``track`` -- a logical timeline such as ``client/3``,
``router``, ``2pc`` or ``supervisor`` -- which the Chrome
``trace_event`` exporter maps to one thread lane each, plus free-form
``args`` (shard, replica, txn, option, trace name ...).
"""

from __future__ import annotations

from typing import Any, Optional


class Span:
    """One traced operation: a named [start, end) interval on a track."""

    __slots__ = (
        "name", "track", "kind", "start", "end",
        "span_id", "parent_id", "args", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        track: str,
        kind: str,
        start: float,
        span_id: int,
        parent_id: Optional[int],
        args: dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.track = track
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.span_id = span_id
        self.parent_id = parent_id
        self.args = args

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def annotate(self, **args: Any) -> "Span":
        self.args.update(args)
        return self

    def finish(self, end: Optional[float] = None) -> "Span":
        """Close the span (idempotent); ``end`` defaults to now."""
        if self.end is None:
            self.end = end if end is not None else self._tracer._now()
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, track={self.track!r}, "
            f"[{self.start}, {self.end}], id={self.span_id}, "
            f"parent={self.parent_id}, args={self.args!r})"
        )


class _NullSpan:
    """Shared no-op span returned by disabled tracers."""

    __slots__ = ()
    name = ""
    track = ""
    kind = "span"
    start = 0.0
    end = 0.0
    duration = 0.0
    span_id = 0
    parent_id = None
    args: dict = {}

    def annotate(self, **args: Any) -> "_NullSpan":
        return self

    def finish(self, end: Optional[float] = None) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Span recorder bound to a (virtual) clock.

    ``clock`` is any object with a ``now`` attribute (e.g.
    :class:`~repro.sim.clock.VirtualClock`); ``None`` stamps
    everything at 0.0, which keeps bare db-layer unit tests working
    without a clock.  Span ids are sequential in creation order, so a
    deterministic run yields a deterministic span list.
    """

    def __init__(self, clock: Any = None, enabled: bool = True) -> None:
        self.enabled = enabled
        # ``active`` is the hot-path gate: ``enabled`` AND the current
        # transaction sampled for detail.  Hosts running many similar
        # transactions (the serving engine) flip it via
        # :meth:`set_detail` so sampled-out transactions skip span
        # allocation entirely; outside such a window it equals
        # ``enabled``, so rare events (faults, failover, heartbeats)
        # are never sampled away.
        self.active = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._next_id = 1

    def set_detail(self, on: bool) -> None:
        """Gate detail spans for the current unit of work (sampling)."""
        self.active = self.enabled and on

    def _now(self) -> float:
        clock = self.clock
        return clock.now if clock is not None else 0.0

    def span(
        self,
        name: str,
        *,
        parent: Any = None,
        track: str = "main",
        start: Optional[float] = None,
        **args: Any,
    ):
        """Open a span (finish it via ``.finish()`` or ``with``).

        Returns :data:`NULL_SPAN` when disabled (or when the current
        transaction is sampled out) -- callers never need to guard the
        finish side.
        """
        if not self.active:
            return NULL_SPAN
        span_id = self._next_id
        self._next_id += 1
        parent_id = parent.span_id if parent is not None else None
        if parent_id == 0:  # NULL_SPAN parent == no parent
            parent_id = None
        span = Span(
            self, name, track, "span",
            start if start is not None else self._now(),
            span_id, parent_id, args,
        )
        self.spans.append(span)
        return span

    def instant(
        self,
        name: str,
        *,
        parent: Any = None,
        track: str = "main",
        when: Optional[float] = None,
        **args: Any,
    ):
        """Record a zero-duration point event."""
        if not self.active:
            return NULL_SPAN
        span_id = self._next_id
        self._next_id += 1
        parent_id = parent.span_id if parent is not None else None
        if parent_id == 0:
            parent_id = None
        at = when if when is not None else self._now()
        span = Span(self, name, track, "instant", at, span_id, parent_id, args)
        span.end = at
        self.spans.append(span)
        return span

    # -- queries (tests, exporters) --------------------------------------

    def finished(self) -> list[Span]:
        """Spans with a recorded end, in creation order."""
        return [s for s in self.spans if s.end is not None]

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


NULL_TRACER = Tracer(enabled=False)
