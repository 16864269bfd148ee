"""Wire copies and sizes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.jdbc import ResultSet, Row
from repro.db.sql.executor import StatementResult
from repro.runtime.heap import NativeRef, ObjRef
from repro.runtime.serializer import wire_copy, wire_size


class TestWireCopy:
    def test_primitives_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert wire_copy(value) == value

    def test_list_is_deep_copied(self):
        original = [1, [2, 3]]
        copy = wire_copy(original)
        copy[1].append(4)
        assert original == [1, [2, 3]]

    def test_refs_stay_refs(self):
        obj = ObjRef(1, "T")
        nat = NativeRef(2, 5)
        assert wire_copy(obj) is obj
        assert wire_copy(nat) is nat

    def test_list_of_refs(self):
        obj = ObjRef(1, "T")
        copied = wire_copy([obj, 2])
        assert copied[0] is obj

    def test_row_copy_equal_but_rebuilt(self):
        row = Row(["a", "b"], (1, "x"))
        copy = wire_copy(row)
        assert copy == row
        assert copy is not row

    def test_result_set_copy_isolated(self):
        rs = ResultSet(
            StatementResult(columns=["a"], rows=[(1,), (2,)], rowcount=2)
        )
        copy = wire_copy(rs)
        assert [r["a"] for r in copy] == [1, 2]
        assert copy is not rs

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            wire_copy(object())


class TestWireSize:
    def test_refs_are_small(self):
        assert wire_size(ObjRef(1, "LongClassName")) == 12

    def test_larger_payloads_cost_more(self):
        assert wire_size([1.0] * 100) > wire_size([1.0] * 10)
        assert wire_size("x" * 100) > wire_size("x")

    def test_none_nearly_free(self):
        assert wire_size(None) <= 1


# ---------------------------------------------------------------------------
# wire_size against the estimator it replaced
# ---------------------------------------------------------------------------

# ``estimate_size`` as it stood at commit 14ad2e3, before rows and result
# sets were sized at exact type, copied verbatim with its tuple cache (the
# oracle keeps its own).
_REF_SIZE = 8
_NUMBER_SIZE = 8
_CONTAINER_OVERHEAD = 16
_CACHEABLE_TYPES = (int, float, str, type(None))
_TUPLE_CACHE_LIMIT = 4096
_tuple_sizes: dict = {}


def _primitive_tuple(value):
    for item in value:
        if type(item) not in _CACHEABLE_TYPES:
            return False
    return True


def parent_estimate_size(value):
    kind = type(value)
    if kind is int or kind is float:
        return _NUMBER_SIZE
    if kind is str:
        return _CONTAINER_OVERHEAD + (
            len(value) if value.isascii() else len(value.encode("utf-8"))
        )
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return _NUMBER_SIZE
    if isinstance(value, str):
        return _CONTAINER_OVERHEAD + len(value.encode("utf-8"))
    if isinstance(value, tuple):
        cacheable = _primitive_tuple(value)
        if cacheable:
            cached = _tuple_sizes.get(value)
            if cached is not None:
                return cached
        size = _CONTAINER_OVERHEAD + sum(
            parent_estimate_size(v) for v in value
        )
        if cacheable:
            if len(_tuple_sizes) >= _TUPLE_CACHE_LIMIT:
                _tuple_sizes.clear()
            _tuple_sizes[value] = size
        return size
    if isinstance(value, list):
        return _CONTAINER_OVERHEAD + sum(
            parent_estimate_size(v) for v in value
        )
    if isinstance(value, dict):
        return _CONTAINER_OVERHEAD + sum(
            parent_estimate_size(k) + parent_estimate_size(v)
            for k, v in value.items()
        )
    # JDBC result rows / result sets.
    from repro.db.jdbc import ResultSet, Row

    if isinstance(value, Row):
        cached = value._wire_size
        if cached is None:
            cached = _CONTAINER_OVERHEAD + sum(
                parent_estimate_size(v) for v in value.as_tuple()
            )
            value._wire_size = cached
        return cached
    if isinstance(value, ResultSet):
        cached = value._wire_size
        if cached is None:
            cached = _CONTAINER_OVERHEAD + sum(
                parent_estimate_size(row) for row in value.rows
            )
            value._wire_size = cached
        return cached
    from repro.lang.interp import InterpObject

    if isinstance(value, InterpObject):
        return _CONTAINER_OVERHEAD + sum(
            parent_estimate_size(v) for v in value.fields.values()
        )
    # Opaque objects travel as references.
    return _REF_SIZE


# Values are generated as specs and built twice, so the oracle and the
# implementation never share a memoized size.
_leaves = st.one_of(
    st.integers(), st.integers(-2, 2), st.booleans(), st.none(),
    st.floats(), st.just(-0.0),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=6),
    st.text(max_size=6),
).map(lambda v: ("leaf", v))
_keys = st.one_of(st.integers(-3, 3), st.booleans(), st.none(),
                  st.text(max_size=3))
_rows = st.lists(_leaves, max_size=4).map(lambda vs: ("row", vs))
_result_sets = st.integers(0, 3).flatmap(lambda width: st.lists(
    st.lists(_leaves, min_size=width, max_size=width), max_size=4,
)).map(lambda rows: ("rs", rows))
_records = st.one_of(_rows, _result_sets)
_values = st.recursive(
    st.one_of(_leaves, _records),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda vs: ("list", vs)),
        st.lists(inner, max_size=4).map(lambda vs: ("tuple", vs)),
        st.lists(st.tuples(_keys, inner), max_size=3).map(
            lambda kvs: ("dict", kvs)),
        st.lists(st.tuples(st.text(max_size=3), inner), max_size=3).map(
            lambda kvs: ("obj", kvs)),
    ),
    max_leaves=16,
)


def _build(spec):
    from repro.lang.interp import InterpObject

    kind, payload = spec
    if kind == "leaf":
        return payload
    if kind == "list":
        return [_build(s) for s in payload]
    if kind == "tuple":
        return tuple(_build(s) for s in payload)
    if kind == "dict":
        return {k: _build(v) for k, v in payload}
    if kind == "obj":
        return InterpObject("T", {k: _build(v) for k, v in payload})
    if kind == "row":
        columns = [f"c{i}" for i in range(len(payload))]
        return Row(columns, tuple(_build(s) for s in payload))
    width = len(payload[0]) if payload else 0
    return ResultSet(StatementResult(
        columns=[f"c{i}" for i in range(width)],
        rows=[tuple(_build(s) for s in row) for row in payload],
        rowcount=len(payload),
    ))


class TestWireSizeOracle:
    @settings(max_examples=400, deadline=None)
    @given(_values)
    def test_equals_the_estimator_it_replaced(self, spec):
        assert wire_size(_build(spec)) == parent_estimate_size(_build(spec))

    def test_bool_tuples_stay_off_the_cache(self):
        assert wire_size((1, 1)) == parent_estimate_size((1, 1)) == 32
        assert wire_size((1, True)) == parent_estimate_size((1, True)) == 25

    @settings(max_examples=200, deadline=None)
    @given(_records)
    def test_memo_carried_by_wire_copy(self, spec):
        expected = parent_estimate_size(_build(spec))
        original = _build(spec)
        assert wire_size(original) == expected
        copy = wire_copy(original)
        assert copy._wire_size == expected
        assert wire_size(copy) == expected
        assert wire_size([copy, original]) == parent_estimate_size(
            [_build(spec), _build(spec)]
        )
