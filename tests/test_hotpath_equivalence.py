"""Equivalence tests for the hot-path rework.

The memtable :class:`WriteStore` must be observationally identical to a
sorted-set model (a ``set`` of records plus ``sorted()``): identical flush
order, range-query results and pruning behaviour for any operation sequence.
The Bloom filter must round-trip through its serialization format, reject
damaged headers, and keep its no-false-negative guarantee through the
stride-based range probes.  (The fail-closed fuzz of ``from_bytes`` is in
``tests/test_bloom.py``.)
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import (
    BloomFilter,
    STRIDE_SHIFT,
)
from repro.core.records import FromRecord
from repro.core.write_store import WriteStore


# ----------------------------------------------------- write-store equivalence

_record_fields = st.tuples(
    st.integers(0, 40), st.integers(1, 8), st.integers(0, 8),
    st.integers(0, 2), st.integers(1, 12),
)

# An op is (kind, payload): insert/remove carry record fields, flush/prune
# probe states shared by the store and its model.
_op = st.one_of(
    st.tuples(st.just("insert"), _record_fields),
    st.tuples(st.just("remove"), _record_fields),
    st.tuples(st.just("prune"), _record_fields),
    st.tuples(st.just("flush"), st.none()),
)


def _discard(model: set, record: FromRecord) -> bool:
    present = record in model
    model.discard(record)
    return present


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, max_size=150), st.integers(0, 40), st.integers(1, 10))
def test_memtable_matches_rbtree_store(ops, probe_block, probe_width):
    """Property: the store agrees with a sorted-set model on every observable.

    (The test keeps the name it had when the reference was the red-black-tree
    store; the model states the same contract without a second back end.)
    """
    store = WriteStore("from")
    model: set = set()

    for kind, payload in ops:
        record = FromRecord(*payload) if payload is not None else None
        if kind == "insert":
            store.insert(record)
            model.add(record)
        elif kind == "remove":
            assert store.remove(record) == _discard(model, record)
        elif kind == "prune":
            assert store.remove_key(*payload) == _discard(model, record)
        else:  # flush: drain in sorted order and start over
            assert list(store) == sorted(model)
            store.clear()
            model.clear()

        # Invariants checked after every op keep shrunk failures small.
        assert len(store) == len(model)

    ordered = sorted(model)
    assert list(store) == ordered
    assert store.sorted_records() == ordered
    assert store.distinct_blocks() == sorted({record.block for record in model})
    assert (store.records_for_block_range(probe_block, probe_width)
            == [record for record in ordered
                if probe_block <= record.block < probe_block + probe_width])
    assert (store.records_for_block(probe_block)
            == [record for record in ordered if record.block == probe_block])
    for kind, payload in ops:
        if kind in ("insert", "remove", "prune"):
            record = FromRecord(*payload)
            assert store.contains(*payload) == (record in model)
            assert store.find(*payload) == (record if record in model else None)


def test_memtable_interleaved_queries_resort():
    """The sort-on-demand snapshot must stay correct across mutations."""
    store = WriteStore("from")
    store.insert(FromRecord(5, 1, 0, 0, 1))
    assert [r.block for r in store] == [5]
    store.insert(FromRecord(2, 1, 0, 0, 1))  # dirties the snapshot
    assert [r.block for r in store] == [2, 5]
    store.remove_key(5, 1, 0, 0, 1)
    assert [r.block for r in store.records_for_block_range(0, 10)] == [2]


# ------------------------------------------------------ bloom format versions

class TestBloomFormatVersions:
    def test_v2_roundtrip_preserves_everything(self):
        bloom = BloomFilter(8192, num_hashes=4)
        bloom.add_many([1, 5, 9, 1000, 123456])
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert restored.num_bits == bloom.num_bits
        assert restored.num_hashes == bloom.num_hashes
        assert restored.num_items == bloom.num_items
        for item in [1, 5, 9, 1000, 123456]:
            assert restored.might_contain(item)
            # stride keys survive serialization: range probes stay FN-free
            assert restored.might_contain_range(max(0, item - 50), 120)

    def test_trailing_page_padding_tolerated(self):
        bloom = BloomFilter(1024)
        bloom.add(42)
        padded = bloom.to_bytes() + b"\x00" * 4096
        assert BloomFilter.from_bytes(padded).might_contain(42)


class TestBloomCorruptInput:
    #: The first header field of a valid blob: format magic and version.
    MAGIC = struct.unpack_from("<Q", BloomFilter(1024).to_bytes(), 0)[0]

    def test_short_blob_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"\x01\x02")

    def test_non_power_of_two_bits_rejected(self):
        blob = struct.pack("<QQQQ", self.MAGIC, 1000, 4, 1) + b"\x00" * 125
        with pytest.raises(ValueError, match="power of two"):
            BloomFilter.from_bytes(blob)

    def test_implausible_hash_count_rejected(self):
        blob = struct.pack("<QQQQ", self.MAGIC, 1024, 10_000, 1) + b"\x00" * 128
        with pytest.raises(ValueError, match="num_hashes"):
            BloomFilter.from_bytes(blob)

    def test_truncated_payload_rejected(self):
        bloom = BloomFilter(8192)
        bloom.add(7)
        with pytest.raises(ValueError, match="truncated"):
            BloomFilter.from_bytes(bloom.to_bytes()[:-100])

    def test_unknown_version_rejected(self):
        good = BloomFilter(1024).to_bytes()
        (magic,) = struct.unpack_from("<Q", good, 0)
        bad = struct.pack("<Q", (magic & ~0xFF) | 0x63) + good[8:]
        with pytest.raises(ValueError, match="version"):
            BloomFilter.from_bytes(bad)

    def test_constructor_rejects_unknown_hash_version(self):
        """There is one hash; the argument that chose between two is gone."""
        for version in (1, 2, 3):
            with pytest.raises(TypeError):
                BloomFilter(1024, hash_version=version)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 1 << 20), min_size=1, max_size=150),
       st.integers(0, 1 << 20), st.integers(1, 256))
def test_v2_range_probe_has_no_false_negatives(blocks, first, width):
    """Property: stride-based range probes never miss an inserted block."""
    bloom = BloomFilter(32 * 1024)
    bloom.add_many(sorted(blocks))
    if any(first <= block < first + width for block in blocks):
        assert bloom.might_contain_range(first, width)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 1 << 20), min_size=1, max_size=100))
def test_v2_range_probe_survives_halving(blocks):
    bloom = BloomFilter(32 * 1024)
    bloom.add_many(sorted(blocks))
    bloom.shrink_to(4 * 1024)
    for block in blocks:
        start = max(0, block - (1 << STRIDE_SHIFT))
        assert bloom.might_contain_range(start, 3 << STRIDE_SHIFT)
