"""Secondary index structures.

Two index kinds back the planner's access paths:

* :class:`HashIndex` -- equality lookups, O(1) expected.
* :class:`OrderedIndex` -- a sorted-key index supporting range scans,
  kept sorted with binary insertion (adequate at benchmark scale and
  fully deterministic).

Both map key tuples to **buckets**, and one rule gives a bucket its
shape: a bare rowid ``int`` while its key has one row, a ``set`` of
rowids from the second row on, canonically (shrinking back to one row
returns to the ``int``, so equal contents mean equal buckets whatever
the history).  ``unique`` indexes enforce at most one row per key and
so never allocate a set for it -- that is every primary index -- except
for a key holding a NULL, which equals nothing and so never conflicts.
The point of the shape is the cyclic collector: an ``int`` is not a
GC-tracked container, a one-element ``set`` is (216 bytes, walked by
every full collection), and nearly every bucket of a real table holds
one row.

Probes follow SQL's comparisons: a key or range bound holding a NULL
matches nothing.  Keys holding a NULL are still stored (NULL sorts
first), since a prefix range scan must reach ``(5, NULL)`` for
``a = 5`` on an ``(a, b)`` index.

A range bound may be a *prefix* of the stored keys: it compares on
the columns it has, so ``b > 5`` on a ``(b, c)`` index skips every
``(5, *)`` key and ``b <= 5`` reaches every one.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional, Union

from repro.db.errors import IntegrityError

Key = tuple
Bucket = Union[int, "set[int]"]


class _Sentinel:
    """A range-bound key component with a fixed rank (never stored)."""

    __slots__ = ("name", "rank")

    def __init__(self, name: str, rank: tuple) -> None:
        self.name = name
        self.rank = rank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name}>"

    def __reduce__(self) -> str:
        return self.name  # copies and pickles resolve to the module global


# Sorts above every other value: closes prefix range bounds.
MAX_KEY = _Sentinel("MAX_KEY", (9, "", 0.0, ""))
# Appended to an encoded bound, it sorts after every key the bound
# is a prefix of.
_PAST_EXTENSIONS = (MAX_KEY.rank,)
# Sorts just above NULL: opens a range whose low end is unbounded
# past the NULL keys, which no comparison matches.
ABOVE_NULL = _Sentinel("ABOVE_NULL", (0, "", 1.0, ""))


def _rank(value) -> tuple:
    """Total order over heterogeneous values: None < ABOVE_NULL < bool
    < numbers < strings < other, with MAX_KEY above everything."""
    if type(value) is _Sentinel:
        return value.rank
    if value is None:
        return (0, "", 0.0, "")
    if isinstance(value, bool):
        return (1, "", float(value), "")
    if isinstance(value, (int, float)):
        return (2, "", float(value), "")
    if isinstance(value, str):
        return (3, "", 0.0, value)
    return (4, type(value).__name__, 0.0, str(value))


def _sortable(key: Key) -> tuple:
    return tuple(_rank(v) for v in key)


class HashIndex:
    """Hash index from key tuples to row ids (see the module docstring
    for the bucket shape)."""

    def __init__(self, name: str, unique: bool = False) -> None:
        self.name = name
        self.unique = unique
        self._map: dict[Key, Bucket] = {}
        self._entries = 0

    @property
    def buckets(self) -> dict[Key, Bucket]:
        """The live key -> bucket mapping: a bare rowid ``int`` while
        the key has one row, a ``set`` of rowids from the second row on
        -- so on a unique index ``buckets.get(key)`` *is* the rowid.
        Test the result with ``is not None``, never truthiness: 0 is a
        legal rowid.  The plan compilers bind this dict and probe it
        directly; treat it as read-only."""
        return self._map

    def insert(self, key: Key, rowid: int) -> None:
        bucket = self._map.get(key)
        if bucket is None:
            self._map[key] = rowid
        elif bucket == rowid or (type(bucket) is set and rowid in bucket):
            return
        elif self.unique and None not in key:
            raise IntegrityError(
                f"unique index {self.name!r} already has key {key!r}"
            )
        elif type(bucket) is set:
            bucket.add(rowid)
        else:
            self._map[key] = {bucket, rowid}
        self._entries += 1

    def delete(self, key: Key, rowid: int) -> None:
        bucket = self._map.get(key)
        if bucket == rowid:
            del self._map[key]
        elif type(bucket) is set and rowid in bucket:
            bucket.discard(rowid)
            if len(bucket) == 1:
                # Back to the canonical shape: one row <=> bare int.
                (self._map[key],) = bucket
        else:
            raise KeyError(f"index {self.name!r} has no entry {key!r}->{rowid}")
        self._entries -= 1

    def lookup(self, key: Key) -> frozenset[int]:
        return frozenset(self.lookup_sorted(key))

    def lookup_sorted(self, key: Key) -> list[int]:
        """Row ids for ``key`` in ascending order (none when ``key``
        holds a NULL: SQL ``=`` never matches one)."""
        bucket = self._map.get(key)
        if bucket is None or None in key:
            return []
        return sorted(bucket) if type(bucket) is set else [bucket]

    def get_unique(self, key: Key) -> Optional[int]:
        """The row id for ``key`` on a unique index (None if absent)."""
        return self._map.get(key)

    def contains(self, key: Key) -> bool:
        return key in self._map

    def keys(self) -> Iterator[Key]:
        return iter(self._map)

    def __len__(self) -> int:
        return self._entries

    def clear(self) -> None:
        self._map.clear()
        self._entries = 0


class OrderedIndex(HashIndex):
    """A :class:`HashIndex` that also supports range scans.

    Beside the bucket map, keys are kept in a list sorted by a
    type-ranked encoding (so NULLs and mixed types order
    deterministically, NULL first).  Range scans yield row ids in key
    order, which the planner uses to satisfy ``ORDER BY`` on the indexed
    column without sorting.
    """

    def __init__(self, name: str, unique: bool = False) -> None:
        super().__init__(name, unique)
        # Sorted list of (sortable encoding, original key).
        self._keys: list[tuple[tuple, Key]] = []

    def insert(self, key: Key, rowid: int) -> None:
        if key not in self._map:
            # A fresh key cannot fail the uniqueness check below.
            bisect.insort_left(self._keys, (_sortable(key), key))
        super().insert(key, rowid)

    def delete(self, key: Key, rowid: int) -> None:
        super().delete(key, rowid)
        if key not in self._map:
            entry = (_sortable(key), key)
            idx = bisect.bisect_left(self._keys, entry)
            if idx < len(self._keys) and self._keys[idx][1] == key:
                self._keys.pop(idx)

    def _range_bounds(
        self,
        low: Optional[Key],
        high: Optional[Key],
        low_inclusive: bool,
        high_inclusive: bool,
    ) -> tuple[int, int]:
        """Resolve [low, high] bounds to a slice of the sorted key list
        (empty when a bound holds a NULL: no comparison matches one).

        A bound shorter than the keys compares on its own columns: an
        encoded prefix sorts before all of its extensions, so an
        inclusive low and an exclusive high bound bisect on it as it
        is, while an exclusive low bound skips, and an inclusive high
        bound reaches, past every extension."""
        if (low is not None and None in low) or (
            high is not None and None in high
        ):
            return 0, 0
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(
                self._keys, _sortable(low), key=lambda e: e[0]
            )
        else:
            start = bisect.bisect_right(
                self._keys, _sortable(low) + _PAST_EXTENSIONS,
                key=lambda e: e[0],
            )
        if high is None:
            stop = len(self._keys)
        elif high_inclusive:
            stop = bisect.bisect_right(
                self._keys, _sortable(high) + _PAST_EXTENSIONS,
                key=lambda e: e[0],
            )
        else:
            stop = bisect.bisect_left(
                self._keys, _sortable(high), key=lambda e: e[0]
            )
        return start, stop

    def range_scan(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        reverse: bool = False,
    ) -> Iterator[int]:
        """Yield row ids with keys in [low, high], in key order.

        ``None`` bounds are open.  A bound may be a prefix of the
        stored keys (see :meth:`_range_bounds`), so a single-column
        bound works on a multi-column index.
        """
        start, stop = self._range_bounds(
            low, high, low_inclusive, high_inclusive
        )
        selected = self._keys[start:stop]
        if reverse:
            selected = list(reversed(selected))
        rowmap = self._map
        for _, key in selected:
            # Ascending row ids: determinism within duplicate keys.
            bucket = rowmap[key]
            yield from sorted(bucket) if type(bucket) is set else (bucket,)

    def range_rowids(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[int]:
        """Materialized :meth:`range_scan` (compiled-plan fast path: one
        flat list, no generator frames; same order and determinism)."""
        start, stop = self._range_bounds(
            low, high, low_inclusive, high_inclusive
        )
        rowids: list[int] = []
        rowmap = self._map
        for _, key in self._keys[start:stop]:
            bucket = rowmap[key]
            if type(bucket) is set:
                rowids.extend(sorted(bucket))
            else:
                rowids.append(bucket)
        return rowids

    def keys(self) -> Iterator[Key]:
        return (key for _, key in self._keys)

    def clear(self) -> None:
        super().clear()
        self._keys.clear()
