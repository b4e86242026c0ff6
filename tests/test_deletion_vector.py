"""Tests for the C-store-style deletion vector."""

from __future__ import annotations

from repro.core.deletion_vector import DeletionVector
from repro.core.records import CombinedRecord, FromRecord, INFINITY, ReferenceKey, ToRecord


class TestSuppression:
    def test_empty_vector_suppresses_nothing(self):
        vector = DeletionVector()
        assert not vector
        assert len(vector) == 0
        assert not vector.is_suppressed(FromRecord(1, 1, 0, 0, 1))

    def test_suppress_hides_all_record_types(self):
        vector = DeletionVector()
        vector.suppress(block=10, inode=2, offset=3, line=0)
        assert vector.is_suppressed(FromRecord(10, 2, 3, 0, 1))
        assert vector.is_suppressed(ToRecord(10, 2, 3, 0, 9))
        assert vector.is_suppressed(CombinedRecord(10, 2, 3, 0, 1, 9))
        assert not vector.is_suppressed(FromRecord(10, 2, 4, 0, 1))
        assert not vector.is_suppressed(FromRecord(11, 2, 3, 0, 1))

    def test_filter(self):
        vector = DeletionVector()
        vector.suppress(5, 1, 0, 0)
        records = [FromRecord(5, 1, 0, 0, 1), FromRecord(6, 1, 0, 0, 1)]
        assert list(vector.filter(records)) == [FromRecord(6, 1, 0, 0, 1)]

    def test_clear_and_keys(self):
        vector = DeletionVector()
        vector.suppress(5, 1, 0, 0)
        assert vector.keys() == {ReferenceKey(5, 1, 0, 0)}
        assert vector.memory_estimate_bytes() > 0
        vector.clear()
        assert not vector
        assert not vector.is_suppressed(FromRecord(5, 1, 0, 0, 1))
