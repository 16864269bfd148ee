"""In-memory span recorder for the traced benchmark run.

The benchmark records spans from its own files, around the public
callables of each layer (tracing inside ``src/`` is a later issue).  A
span is five integers -- name id, start ns, end ns, parent offset,
transaction id -- appended to one flat ``array('q')``, so a run of a
few hundred thousand spans costs tens of megabytes, not hundreds.

A layer's *self time* is its spans' duration minus the part their
child spans cover; because every span but the root has a parent, the
self times of all names sum to the root span's duration by
construction -- that is the ledger.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Optional

FIELDS = 5  # name id, start ns, end ns, parent offset (-1 = root), txn id

_clock = time.perf_counter_ns


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.data = array("q")
        self._stack = [-1]
        # Set by the harness before each operation; spans copy it.
        self.txn = -1
        # (owner, attribute, original or _ABSENT) for restore().
        self._patched: list[tuple[Any, str, Any]] = []

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    # -- recording -----------------------------------------------------------

    def begin(self, ident: int) -> None:
        data = self.data
        stack = self._stack
        offset = len(data)
        data.extend((ident, 0, 0, stack[-1], self.txn))
        stack.append(offset)
        data[offset + 1] = _clock()

    def end(self) -> None:
        now = _clock()
        self.data[self._stack.pop() + 2] = now

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` with a span around each call.  ``after(args, result)``
        runs once the span has closed (its cost lands on the parent)."""
        ident = self.name_id(name)
        data = self.data
        stack = self._stack

        def traced(*args, **kwargs):
            offset = len(data)
            data.extend((ident, 0, 0, stack[-1], self.txn))
            stack.append(offset)
            data[offset + 1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                data[offset + 2] = _clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Wrap ``owner.attribute`` in place -- an instance where the
        object exists at set-up, a class otherwise -- and remember how
        to undo it."""
        original = vars(owner).get(attribute, _ABSENT)
        setattr(
            owner, attribute,
            self.wrap(name, getattr(owner, attribute), after),
        )
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patched.clear()

    def clear(self) -> None:
        """Forget recorded spans (after warm-up); wrappers stay valid."""
        del self.data[:]
        del self._stack[1:]

    # -- analysis ------------------------------------------------------------

    def ledger(self) -> dict[str, "LedgerRow"]:
        """Per span name: calls, self ns, total ns, longest span ns."""
        rows = [LedgerRow() for _ in self.names]
        data = self.data
        for offset in range(0, len(data), FIELDS):
            duration = data[offset + 2] - data[offset + 1]
            row = rows[data[offset]]
            row.calls += 1
            row.self_ns += duration
            row.total_ns += duration
            if duration > row.max_ns:
                row.max_ns = duration
            parent = data[offset + 3]
            if parent >= 0:
                rows[data[parent]].self_ns -= duration
        return dict(zip(self.names, rows))

    def write(self, path: Path) -> None:
        """Spans as raw little-endian int64 quintuples, names beside."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            self.data.tofile(fh)
        path.with_suffix(".names.json").write_text(
            json.dumps({
                "fields": ["name", "start_ns", "end_ns", "parent_offset",
                           "txn"],
                "names": self.names,
            }) + "\n"
        )


class LedgerRow:
    __slots__ = ("calls", "self_ns", "total_ns", "max_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.max_ns = 0


_ABSENT = object()
