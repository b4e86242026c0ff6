"""Tests for the in-memory write store."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import FromRecord, ToRecord
from repro.core.write_store import WriteStore


class TestTypeSafety:
    def test_rejects_unknown_table(self):
        with pytest.raises(ValueError):
            WriteStore("combined")

    def test_from_store_rejects_to_records(self):
        store = WriteStore("from")
        with pytest.raises(TypeError):
            store.insert(ToRecord(1, 1, 0, 0, 5))

    def test_to_store_rejects_from_records(self):
        store = WriteStore("to")
        with pytest.raises(TypeError):
            store.insert(FromRecord(1, 1, 0, 0, 5))


class TestInsertRemove:
    def test_insert_and_len(self):
        store = WriteStore("from")
        store.insert(FromRecord(10, 1, 0, 0, 3))
        store.insert(FromRecord(11, 1, 1, 0, 3))
        assert len(store) == 2
        assert store

    def test_duplicate_insert_is_idempotent(self):
        store = WriteStore("from")
        record = FromRecord(10, 1, 0, 0, 3)
        store.insert(record)
        store.insert(record)
        assert len(store) == 1
        assert store.inserts == 2

    def test_remove_present_and_absent(self):
        store = WriteStore("to")
        record = ToRecord(10, 1, 0, 0, 3)
        store.insert(record)
        assert store.remove(record) is True
        assert store.remove(record) is False
        assert len(store) == 0
        assert store.records_for_block(10) == []

    def test_clear(self):
        store = WriteStore("from")
        for block in range(20):
            store.insert(FromRecord(block, 1, 0, 0, 1))
        store.clear()
        assert len(store) == 0
        assert store.records_for_block_range(0, 20) == []


class TestLookups:
    def test_contains_and_find(self):
        store = WriteStore("from")
        record = FromRecord(10, 2, 5, 0, 7)
        store.insert(record)
        assert store.contains(10, 2, 5, 0, 7)
        assert not store.contains(10, 2, 5, 0, 8)
        assert store.find(10, 2, 5, 0, 7) == record
        assert store.find(10, 2, 5, 0, 8) is None

    def test_records_for_block_and_range(self):
        store = WriteStore("to")
        for block in [5, 6, 7, 20]:
            store.insert(ToRecord(block, 1, 0, 0, 2))
        assert [r.block for r in store.records_for_block(6)] == [6]
        assert [r.block for r in store.records_for_block_range(5, 3)] == [5, 6, 7]
        assert store.records_for_block_range(8, 10) == []

    def test_distinct_blocks_tracking(self):
        store = WriteStore("from")
        store.insert(FromRecord(10, 1, 0, 0, 1))
        store.insert(FromRecord(10, 2, 0, 0, 1))
        store.insert(FromRecord(11, 1, 0, 0, 1))
        store.remove(FromRecord(10, 1, 0, 0, 1))
        assert store.records_for_block(10) == [FromRecord(10, 2, 0, 0, 1)]
        store.remove(FromRecord(10, 2, 0, 0, 1))
        assert store.records_for_block(10) == []
        assert store.records_for_block(11) == [FromRecord(11, 1, 0, 0, 1)]


class TestIterationOrder:
    def test_sorted_iteration(self):
        store = WriteStore("from")
        records = [
            FromRecord(20, 1, 0, 0, 1),
            FromRecord(10, 2, 0, 0, 1),
            FromRecord(10, 1, 5, 0, 1),
            FromRecord(10, 1, 0, 0, 2),
            FromRecord(10, 1, 0, 0, 1),
        ]
        for record in records:
            store.insert(record)
        assert list(store) == sorted(records, key=FromRecord.sort_key)

    def test_memory_estimate_scales(self):
        store = WriteStore("from")
        assert store.memory_estimate_bytes() == 0
        store.insert(FromRecord(1, 1, 0, 0, 1))
        assert store.memory_estimate_bytes() > 0


_record = st.tuples(
    st.integers(0, 50), st.integers(1, 10), st.integers(0, 10),
    st.integers(0, 3), st.integers(1, 20),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_record, max_size=100))
def test_write_store_matches_set_model(raw_records):
    """Property: the store behaves like a set ordered by the sort key."""
    store = WriteStore("from")
    model = set()
    for fields in raw_records:
        record = FromRecord(*fields)
        store.insert(record)
        model.add(record)
    assert list(store) == sorted(model, key=FromRecord.sort_key)
    # Point queries consult the per-block counts before sorting.
    assert [r for block in range(51) for r in store.records_for_block(block)] == \
        sorted(model)
