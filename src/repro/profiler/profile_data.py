"""Profile data store."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class SizeStat:
    """Running average of observed sizes."""

    total: float = 0.0
    samples: int = 0

    def record(self, size: float) -> None:
        self.total += size
        self.samples += 1

    @property
    def average(self) -> float:
        return self.total / self.samples if self.samples else 0.0

    def merge(self, other: "SizeStat") -> None:
        self.total += other.total
        self.samples += other.samples


@dataclass
class ProfileData:
    """Everything the partitioner needs from a profiling run.

    * ``counts[sid]`` -- number of executions of statement ``sid``
      (``cnt(s)`` in the paper).
    * ``assign_sizes[sid]`` -- sizes of values assigned by ``sid``
      (``size(def)``).
    * ``field_sizes[(class, field)]`` -- sizes of values stored into a
      field, across all instances.
    * ``arg_sizes[sid]`` / ``result_sizes[sid]`` -- total argument and
      result sizes of calls at ``sid`` (interprocedural data edges).
    * ``db_rows[sid]`` -- rows touched by the DB call at ``sid``
      (database CPU cost model).
    """

    counts: dict[int, int] = field(default_factory=dict)
    assign_sizes: dict[int, SizeStat] = field(default_factory=dict)
    field_sizes: dict[tuple[str, str], SizeStat] = field(default_factory=dict)
    arg_sizes: dict[int, SizeStat] = field(default_factory=dict)
    result_sizes: dict[int, SizeStat] = field(default_factory=dict)
    db_rows: dict[int, SizeStat] = field(default_factory=dict)
    invocations: int = 0

    # -- recording -----------------------------------------------------------

    def record_stmt(self, sid: int) -> None:
        self.counts[sid] = self.counts.get(sid, 0) + 1

    def record_assign(self, sid: int, size: float) -> None:
        self.assign_sizes.setdefault(sid, SizeStat()).record(size)

    def record_field(self, class_name: str, fld: str, size: float) -> None:
        self.field_sizes.setdefault((class_name, fld), SizeStat()).record(size)

    def record_call(self, sid: int, args_size: float, result_size: float) -> None:
        self.arg_sizes.setdefault(sid, SizeStat()).record(args_size)
        self.result_sizes.setdefault(sid, SizeStat()).record(result_size)

    def record_db(self, sid: int, rows: int) -> None:
        self.db_rows.setdefault(sid, SizeStat()).record(rows)

    # -- queries --------------------------------------------------------------

    def count(self, sid: int) -> int:
        return self.counts.get(sid, 0)

    def assign_size(self, sid: int, default: float = 8.0) -> float:
        stat = self.assign_sizes.get(sid)
        return stat.average if stat and stat.samples else default

    def field_size(self, class_name: str, fld: str, default: float = 8.0) -> float:
        stat = self.field_sizes.get((class_name, fld))
        return stat.average if stat and stat.samples else default

    def arg_size(self, sid: int, default: float = 8.0) -> float:
        stat = self.arg_sizes.get(sid)
        return stat.average if stat and stat.samples else default

    def result_size(self, sid: int, default: float = 8.0) -> float:
        stat = self.result_sizes.get(sid)
        return stat.average if stat and stat.samples else default

    def total_statement_weight(self) -> int:
        """Total executed-statement count (the CPU budget denominator)."""
        return sum(self.counts.values())

    def per_invocation_weight(self) -> float:
        if self.invocations == 0:
            return float(self.total_statement_weight())
        return self.total_statement_weight() / self.invocations

    def merge(self, other: "ProfileData") -> None:
        """Fold another run's observations into this profile."""
        for sid, count in other.counts.items():
            self.counts[sid] = self.counts.get(sid, 0) + count
        for dst, src in (
            (self.assign_sizes, other.assign_sizes),
            (self.arg_sizes, other.arg_sizes),
            (self.result_sizes, other.result_sizes),
            (self.db_rows, other.db_rows),
        ):
            for key, stat in src.items():
                dst.setdefault(key, SizeStat()).merge(stat)
        for key, stat in other.field_sizes.items():
            self.field_sizes.setdefault(key, SizeStat()).merge(stat)
        self.invocations += other.invocations
