"""Serialized-size estimation.

Sizes drive the bandwidth term of data-edge weights
(``size(src) / BW * cnt(e)``, Section 4.2) and the byte accounting of
control-transfer messages.  The model approximates a compact binary
wire format rather than Python's in-memory object sizes.

Immutable values are memoized: ``Row`` and ``ResultSet`` cache their
size on the instance (their contents never change after construction),
and tuples of primitives go through a small value-keyed cache -- the
same result rows are sized repeatedly as DB responses and again as
heap updates on later control transfers.
"""

from __future__ import annotations

from typing import Any

# Fixed overhead per heap object reference shipped across the wire.
REF_SIZE = 8
# An int or a float.
NUMBER_SIZE = 8
CONTAINER_OVERHEAD = 16

# Value-keyed cache for tuples of primitives.  bool is deliberately
# excluded: True == 1 as a dict key but sizes differ (1 vs 8 bytes),
# so tuples containing bools never touch the cache.
_CACHEABLE_TYPES = (int, float, str, type(None))
_TUPLE_CACHE_LIMIT = 4096
_tuple_sizes: dict[tuple, int] = {}


def _primitive_tuple(value: tuple) -> bool:
    # Exact type checks: type(True) is bool, so bools are excluded.
    for item in value:
        if type(item) not in _CACHEABLE_TYPES:
            return False
    return True


def estimate_size(value: Any) -> int:
    """Estimated wire size of ``value`` in bytes."""
    # Exact types first: nearly every sized value is a plain int, float
    # or str (type(True) is bool, so bools take the ladder below, as do
    # subclasses).
    kind = type(value)
    if kind is int or kind is float:
        return NUMBER_SIZE
    if kind is str:
        return CONTAINER_OVERHEAD + (
            len(value) if value.isascii() else len(value.encode("utf-8"))
        )
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return NUMBER_SIZE
    if isinstance(value, str):
        return CONTAINER_OVERHEAD + len(value.encode("utf-8"))
    if isinstance(value, tuple):
        cacheable = _primitive_tuple(value)
        if cacheable:
            cached = _tuple_sizes.get(value)
            if cached is not None:
                return cached
        size = CONTAINER_OVERHEAD + sum(estimate_size(v) for v in value)
        if cacheable:
            if len(_tuple_sizes) >= _TUPLE_CACHE_LIMIT:
                _tuple_sizes.clear()
            _tuple_sizes[value] = size
        return size
    if isinstance(value, list):
        return CONTAINER_OVERHEAD + sum(estimate_size(v) for v in value)
    if isinstance(value, dict):
        return CONTAINER_OVERHEAD + sum(
            estimate_size(k) + estimate_size(v) for k, v in value.items()
        )
    # JDBC result rows / result sets.
    from repro.db.jdbc import ResultSet, Row

    if isinstance(value, Row):
        cached = value._wire_size
        if cached is None:
            cached = CONTAINER_OVERHEAD + sum(
                estimate_size(v) for v in value.as_tuple()
            )
            value._wire_size = cached
        return cached
    if isinstance(value, ResultSet):
        cached = value._wire_size
        if cached is None:
            cached = CONTAINER_OVERHEAD + sum(
                estimate_size(row) for row in value.rows
            )
            value._wire_size = cached
        return cached
    from repro.lang.interp import InterpObject

    if isinstance(value, InterpObject):
        return CONTAINER_OVERHEAD + sum(
            estimate_size(v) for v in value.fields.values()
        )
    # Opaque objects travel as references.
    return REF_SIZE
