"""Index structures, including property-based checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.db import Database, connect
from repro.db.engine import RowidAllocator
from repro.db.errors import IntegrityError
from repro.db.index import ABOVE_NULL, MAX_KEY, HashIndex, OrderedIndex


class TestHashIndex:
    def test_insert_lookup(self):
        index = HashIndex("i")
        index.insert(("a",), 1)
        index.insert(("a",), 2)
        assert index.lookup(("a",)) == {1, 2}
        assert len(index) == 2

    def test_lookup_missing_empty(self):
        assert HashIndex("i").lookup(("x",)) == frozenset()

    def test_unique_enforced(self):
        index = HashIndex("i", unique=True)
        index.insert(("a",), 1)
        with pytest.raises(IntegrityError):
            index.insert(("a",), 2)

    def test_duplicate_rowid_idempotent(self):
        index = HashIndex("i")
        index.insert(("a",), 1)
        index.insert(("a",), 1)
        assert len(index) == 1

    def test_delete(self):
        index = HashIndex("i")
        index.insert(("a",), 1)
        index.delete(("a",), 1)
        assert not index.contains(("a",))
        assert len(index) == 0

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            HashIndex("i").delete(("a",), 1)

    def test_clear(self):
        index = HashIndex("i")
        index.insert(("a",), 1)
        index.clear()
        assert len(index) == 0


class TestOrderedIndex:
    def test_range_scan_inclusive(self):
        index = OrderedIndex("i")
        for key in [5, 1, 3, 9, 7]:
            index.insert((key,), key * 10)
        assert list(index.range_scan((3,), (7,))) == [30, 50, 70]

    def test_range_scan_exclusive_bounds(self):
        index = OrderedIndex("i")
        for key in range(1, 6):
            index.insert((key,), key)
        result = list(
            index.range_scan(
                (1,), (5,), low_inclusive=False, high_inclusive=False
            )
        )
        assert result == [2, 3, 4]

    def test_open_bounds(self):
        index = OrderedIndex("i")
        for key in [2, 4, 6]:
            index.insert((key,), key)
        assert list(index.range_scan(None, (4,))) == [2, 4]
        assert list(index.range_scan((4,), None)) == [4, 6]
        assert list(index.range_scan()) == [2, 4, 6]

    def test_reverse_scan(self):
        index = OrderedIndex("i")
        for key in [1, 2, 3]:
            index.insert((key,), key)
        assert list(index.range_scan(reverse=True)) == [3, 2, 1]

    def test_duplicate_keys_yield_sorted_rowids(self):
        index = OrderedIndex("i")
        index.insert(("x",), 9)
        index.insert(("x",), 3)
        assert list(index.range_scan()) == [3, 9]

    def test_prefix_bounds_on_composite_keys(self):
        index = OrderedIndex("i")
        index.insert((1, "a"), 10)
        index.insert((1, "b"), 11)
        index.insert((2, "a"), 20)
        # Prefix low bound (1,) selects all keys starting at (1, ...).
        assert list(index.range_scan(low=(1,), high=(1, "zzz"))) == [10, 11]

    def test_keys_in_order(self):
        index = OrderedIndex("i")
        assert list(index.keys()) == []
        index.insert((5,), 1)
        index.insert((2,), 2)
        assert list(index.keys()) == [(2,), (5,)]

    def test_delete_removes_key_when_empty(self):
        index = OrderedIndex("i")
        index.insert((1,), 1)
        index.insert((1,), 2)
        index.delete((1,), 1)
        assert index.contains((1,))
        index.delete((1,), 2)
        assert not index.contains((1,))
        assert list(index.keys()) == []

    def test_unique_enforced(self):
        index = OrderedIndex("i", unique=True)
        index.insert((1,), 1)
        with pytest.raises(IntegrityError):
            index.insert((1,), 2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 10_000))))
def test_ordered_index_matches_sorted_model(entries):
    """Property: range_scan over the full range yields row ids sorted by
    (key, rowid), matching a plain sorted list model."""
    index = OrderedIndex("prop")
    model = []
    seen = set()
    for key, rowid in entries:
        if (key, rowid) in seen:
            continue
        seen.add((key, rowid))
        index.insert((key,), rowid)
        model.append((key, rowid))
    model.sort()
    assert list(index.range_scan()) == [rowid for _, rowid in model]
    assert len(index) == len(model)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-30, 30), unique=True),
    st.integers(-35, 35),
    st.integers(-35, 35),
)
def test_ordered_index_range_matches_filter(keys, low, high):
    """Property: a bounded range scan equals filtering the key list."""
    index = OrderedIndex("prop")
    for key in keys:
        index.insert((key,), key)
    lo, hi = min(low, high), max(low, high)
    expected = sorted(k for k in keys if lo <= k <= hi)
    assert list(index.range_scan((lo,), (hi,))) == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1))
def test_hash_index_delete_inverse_of_insert(keys):
    """Property: inserting then deleting all entries empties the index."""
    index = HashIndex("prop")
    inserted = []
    for i, key in enumerate(keys):
        index.insert((key,), i)
        inserted.append((key, i))
    for key, rowid in inserted:
        index.delete((key,), rowid)
    assert len(index) == 0
    for key, _ in inserted:
        assert not index.contains((key,))


# ---------------------------------------------------------------------------
# Stateful model check: both index kinds, unique and not
# ---------------------------------------------------------------------------

# Two-column keys with a NULLable second column: 20 keys, so buckets
# collide, grow past one row and shrink back all the time.
_KEYS = [(a, b) for a in range(4) for b in (None, 0, 1, 2, 3)]
_keys = st.sampled_from(_KEYS)
_rowids = st.integers(0, 7)  # 0 is a legal rowid
_bounds = st.one_of(
    st.none(),
    _keys,
    st.integers(0, 3).map(lambda a: (a,)),           # prefix bound
    st.integers(0, 3).map(lambda a: (a, MAX_KEY)),   # inclusive prefix
    st.integers(0, 3).map(lambda a: (a, ABOVE_NULL)),  # past the NULLs
)


def _model_rank(value) -> tuple:
    """The documented order (NULL < ABOVE_NULL < numbers < MAX_KEY),
    restated here so the model does not lean on the module's own
    encoding."""
    if value is None:
        return (0, 0)
    if value is ABOVE_NULL:
        return (0, 1)
    if value is MAX_KEY:
        return (2, 0)
    return (1, value)


def _model_sort(key) -> tuple:
    return tuple(_model_rank(v) for v in key)


class IndexMachine(RuleBasedStateMachine):
    """Random insert / delete / re-insert / key-moving update against
    a ``dict[key, set[rowid]]`` model; every read path and the
    canonical bucket shape are checked after every step."""

    index_class = HashIndex
    unique = False

    def __init__(self) -> None:
        super().__init__()
        self.index = self.index_class("idx", unique=self.unique)
        self.model: dict[tuple, set[int]] = {}

    # -- model helpers -------------------------------------------------------

    def _model_insert(self, key, rowid) -> None:
        self.model.setdefault(key, set()).add(rowid)

    def _model_delete(self, key, rowid) -> None:
        self.model[key].discard(rowid)
        if not self.model[key]:
            del self.model[key]

    def _conflicts(self, key, rowid) -> bool:
        # A key holding a NULL equals nothing, so it never conflicts.
        return (
            self.unique and None not in key and key in self.model
            and rowid not in self.model[key]
        )

    def _entries(self) -> list:
        return [(k, r) for k, rows in self.model.items() for r in sorted(rows)]

    def _expect_integrity_error(self, key, rowid) -> None:
        with pytest.raises(IntegrityError) as err:
            self.index.insert(key, rowid)
        assert "'idx'" in str(err.value) and repr(key) in str(err.value)

    # -- rules ---------------------------------------------------------------

    @rule(key=_keys, rowid=_rowids)
    def insert(self, key, rowid):
        if self._conflicts(key, rowid):
            self._expect_integrity_error(key, rowid)
        else:
            self.index.insert(key, rowid)  # idempotent on a present pair
            self._model_insert(key, rowid)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_present(self, data):
        key, rowid = data.draw(st.sampled_from(self._entries()))
        self.index.delete(key, rowid)
        self._model_delete(key, rowid)

    @rule(key=_keys, rowid=_rowids)
    def delete_absent(self, key, rowid):
        if rowid in self.model.get(key, ()):
            return
        with pytest.raises(KeyError) as err:
            self.index.delete(key, rowid)
        message = str(err.value)
        assert "'idx'" in message and f"{key!r}->{rowid}" in message

    @precondition(lambda self: self.model)
    @rule(data=st.data(), new_key=_keys)
    def move(self, data, new_key):
        """What an UPDATE of a key column does: delete under the old
        key, insert under the new; a uniqueness failure puts the row
        back where it was."""
        old_key, rowid = data.draw(st.sampled_from(self._entries()))
        self.index.delete(old_key, rowid)
        self._model_delete(old_key, rowid)
        if self._conflicts(new_key, rowid):
            self._expect_integrity_error(new_key, rowid)
            new_key = old_key
        self.index.insert(new_key, rowid)
        self._model_insert(new_key, rowid)

    @precondition(lambda self: self.index_class is OrderedIndex)
    @rule(low=_bounds, high=_bounds, low_inclusive=st.booleans(),
          high_inclusive=st.booleans(), reverse=st.booleans())
    def range_matches_filter(self, low, high, low_inclusive,
                             high_inclusive, reverse):
        def selected(key) -> bool:
            # No comparison with a NULL bound holds.
            if any(None in b for b in (low, high) if b is not None):
                return False
            # A bound compares on its own columns: a prefix bound
            # ``(a,)`` is equal to every ``(a, *)`` key.
            if low is not None:
                bound = _model_sort(low)
                rank = _model_sort(key)[:len(bound)]
                if rank < bound or (rank == bound and not low_inclusive):
                    return False
            if high is not None:
                bound = _model_sort(high)
                rank = _model_sort(key)[:len(bound)]
                if rank > bound or (rank == bound and not high_inclusive):
                    return False
            return True

        keys = sorted(filter(selected, self.model), key=_model_sort)
        forward = [r for k in keys for r in sorted(self.model[k])]
        bounds = dict(low_inclusive=low_inclusive,
                      high_inclusive=high_inclusive)
        assert self.index.range_rowids(low, high, **bounds) == forward
        # Reverse walks the keys backwards; rowids within one key stay
        # ascending.
        expected = (
            [r for k in reversed(keys) for r in sorted(self.model[k])]
            if reverse else forward
        )
        assert list(
            self.index.range_scan(low, high, reverse=reverse, **bounds)
        ) == expected

    # -- invariants ----------------------------------------------------------

    @invariant()
    def reads_agree_with_the_model(self):
        index, model = self.index, self.model
        for key in _KEYS:
            rows = model.get(key, set())
            # An equality probe never matches a key holding a NULL.
            probed = set() if None in key else rows
            assert index.lookup(key) == frozenset(probed)
            assert index.lookup_sorted(key) == sorted(probed)
            assert index.contains(key) == bool(rows)
            if self.unique and None not in key:
                (expected,) = rows or (None,)
                assert index.get_unique(key) == expected
                assert (index.get_unique(key) is not None) == bool(rows)
        assert len(index) == sum(len(rows) for rows in model.values())
        if self.index_class is OrderedIndex:
            ordered = sorted(model, key=_model_sort)
            assert list(index.keys()) == ordered
        else:
            # Dict order: a key that emptied and came back goes last.
            assert list(index.keys()) == list(model)

    @invariant()
    def buckets_are_canonical(self):
        buckets = self.index.buckets
        assert set(buckets) == set(self.model)  # no empty bucket survives
        for key, bucket in buckets.items():
            rows = self.model[key]
            assert (type(bucket) is int) == (len(rows) == 1)
            if type(bucket) is int:
                assert {bucket} == rows
            else:
                assert type(bucket) is set and bucket == rows
                assert not self.unique or None in key


def _machine(index_class, unique):
    name = f"{index_class.__name__}{'Unique' if unique else ''}Machine"
    machine = type(
        name, (IndexMachine,), {"index_class": index_class, "unique": unique}
    )
    case = machine.TestCase
    case.settings = settings(
        max_examples=40, stateful_step_count=40, deadline=None
    )
    return case


TestHashIndexMachine = _machine(HashIndex, False)
TestHashIndexUniqueMachine = _machine(HashIndex, True)
TestOrderedIndexMachine = _machine(OrderedIndex, False)
TestOrderedIndexUniqueMachine = _machine(OrderedIndex, True)


# ---------------------------------------------------------------------------
# Rowid 0: the truthiness trap
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index_class", [HashIndex, OrderedIndex])
def test_rowid_zero_is_found_by_every_lookup_path(index_class):
    index = index_class("idx", unique=True)
    index.insert((7,), 0)
    assert index.buckets[(7,)] == 0 and type(index.buckets[(7,)]) is int
    assert index.get_unique((7,)) == 0
    assert index.get_unique((7,)) is not None
    assert index.lookup((7,)) == frozenset({0})
    assert index.lookup_sorted((7,)) == [0]
    assert index.contains((7,)) and len(index) == 1
    if index_class is OrderedIndex:
        assert index.range_rowids() == [0]
        assert list(index.range_scan(reverse=True)) == [0]
    index.delete((7,), 0)
    assert not index.contains((7,)) and len(index) == 0


@pytest.mark.parametrize("mode", ["tree", "source"])
def test_pk_point_statements_find_rowid_zero(mode):
    """``RowidAllocator(start=0)`` (and replayed rowids) make 0 a legal
    rowid; a point probe that tested its bucket for truth instead of
    ``is not None`` would miss exactly this row."""
    db = Database("zero")
    table = db.create_table(
        "kv", [("k", "int", False), ("v", "int")], primary_key=["k"]
    )
    table.use_rowid_counter(RowidAllocator(start=0))
    conn = connect(db, sql_exec=mode)
    assert conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", 5, 50) == 1
    assert table.lookup_pk((5,)) == 0
    assert dict(table.scan()) == {0: (5, 50)}
    select = "SELECT v FROM kv WHERE k = ?"
    assert [r.as_tuple() for r in conn.query(select, 5)] == [(50,)]
    # With a residual predicate and with post-processing (other shapes
    # of the generated point probe).
    assert conn.query_scalar(
        "SELECT v FROM kv WHERE k = ? AND v > ?", 5, 1
    ) == 50
    assert conn.query_scalar("SELECT COUNT(*) FROM kv WHERE k = ?", 5) == 1
    assert conn.execute("UPDATE kv SET v = ? WHERE k = ?", 51, 5) == 1
    assert conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?", 5) == 1
    assert conn.query_scalar(select, 5) == 52
    assert conn.execute("DELETE FROM kv WHERE k = ?", 5) == 1
    assert len(table) == 0 and list(conn.query(select, 5)) == []
