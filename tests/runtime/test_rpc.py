"""RPC message byte accounting."""

from enum import IntEnum

import pytest

from repro.db.jdbc import ResultSet, Row
from repro.db.sql.executor import StatementResult
from repro.runtime.heap import NativeRef, ObjRef
from repro.runtime.rpc import (
    MESSAGE_OVERHEAD,
    ControlTransferMessage,
    DbRequestMessage,
    DbResponseMessage,
)
from repro.runtime.serializer import wire_size


def _result_set(rows):
    return ResultSet(StatementResult(
        columns=["a", "b"], rows=rows, rowcount=len(rows),
        rows_touched=len(rows),
    ))


class TestControlTransferMessage:
    def test_empty_message_costs_overhead(self):
        msg = ControlTransferMessage(next_bid=7)
        assert msg.nbytes() == MESSAGE_OVERHEAD

    def test_stack_updates_add_bytes(self):
        empty = ControlTransferMessage(next_bid=1).nbytes()
        msg = ControlTransferMessage(
            next_bid=1, stack_updates={"0:x": 5, "0:name": "hello"}
        )
        assert msg.nbytes() > empty

    def test_heap_updates_add_bytes(self):
        empty = ControlTransferMessage(next_bid=1).nbytes()
        msg = ControlTransferMessage(
            next_bid=1,
            field_updates={(1, "Order", "total"): 12.5},
            native_updates={2: [1.0, 2.0, 3.0]},
        )
        assert msg.nbytes() > empty + 20

    def test_larger_payloads_cost_more(self):
        small = ControlTransferMessage(
            next_bid=1, native_updates={1: [0.0] * 2}
        )
        large = ControlTransferMessage(
            next_bid=1, native_updates={1: [0.0] * 200}
        )
        assert large.nbytes() > small.nbytes()


class TestDbMessages:
    def test_request_scales_with_sql_and_params(self):
        short = DbRequestMessage("query", "SELECT 1", ())
        long = DbRequestMessage(
            "query", "SELECT " + "x, " * 50 + "y FROM t", (1, 2, 3)
        )
        assert long.nbytes() > short.nbytes()

    def test_response_scales_with_result(self):
        small = DbResponseMessage(1)
        big = DbResponseMessage([(i, "row") for i in range(100)])
        assert big.nbytes() > small.nbytes()

    def test_overhead_floor(self):
        assert DbResponseMessage(None).nbytes() >= MESSAGE_OVERHEAD


class TestPinnedByteCounts:
    """Byte counts are part of the virtual-clock results: every number
    below was computed on commit fcd66e5, before the exact-type fast
    paths in ``estimate_size`` / ``wire_size`` and the generated size
    expressions, and must not move by one."""

    VALUES = [
        (None, 1),
        (True, 1),
        (False, 1),
        (1, 8),
        (0, 8),
        (2 ** 80, 8),
        (-1.5, 8),
        (IntEnum("E", "A").A, 8),          # an int subclass
        ("", 16),
        ("new-order", 25),
        ("prix: 12 €", 28),                # non-ASCII: UTF-8 bytes
        ((1, True), 25),                   # bools keep tuples off the cache
        ((1, 1), 32),
        ([1, [2.0, [None, "x"]], True], 83),
        ({"k": [1, 2]}, 65),
        (ObjRef(3, "Order"), 12),
        (NativeRef(4, 17), 12),
        ([ObjRef(3, "Order")], 24),        # nested refs travel as 8 bytes
        (Row(["a", "b"], (7, "seven")), 45),
        (_result_set([(1, "x"), (2, None)]), 82),
        (_result_set([]), 16),
        (object(), 8),
    ]

    @pytest.mark.parametrize("value,expected", VALUES, ids=repr)
    def test_wire_size(self, value, expected):
        assert wire_size(value) == expected
        assert DbResponseMessage(value).nbytes() == MESSAGE_OVERHEAD + expected

    def test_a_result_set_sizes_as_its_row_list(self):
        # The generated DB-call code sizes a query response from the
        # ResultSet itself (memoized) instead of from ``.rows``.
        rs = _result_set([(1, "x"), (2, None), (3, "three")])
        assert wire_size(rs) == wire_size(rs.rows) == 127

    def test_request(self):
        msg = DbRequestMessage(
            "query_one", "SELECT a FROM t WHERE k = ? AND f = ?",
            (1, True, None, "p", 2.5, ObjRef(1, "T")),
        )
        assert msg.nbytes() == 125

    def test_control_transfer(self):
        msg = ControlTransferMessage(
            next_bid=9,
            stack_updates={"0:self": ObjRef(1, "T"), "0:flag": True,
                           "1:n": 1, "1:rs": _result_set([(1, "x")])},
            field_updates={(1, "T", "total"): 2.5,
                           (1, "T", "items"): NativeRef(2, 5)},
            native_updates={2: [1, True, None, ObjRef(7, "U")],
                            3: Row(["a"], (1,))},
        )
        assert msg.nbytes() == 251
