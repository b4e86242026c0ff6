"""Tests for the on-disk read-store runs (dense bottom-up B-trees)."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import COMBINED_FILTER_BITS, DEFAULT_FILTER_BITS
from repro.core.read_store import ReadStoreReader, ReadStoreWriter
from repro.core.records import (
    CombinedRecord,
    FromRecord,
    INFINITY,
    ToRecord,
    records_to_rows,
    rows_to_records,
)
from repro.fsim.blockdev import MemoryBackend
from repro.fsim.cache import PageCache


def _build(records, table="from", backend=None, name="p000000/from/L0_0000000001"):
    backend = backend or MemoryBackend()
    writer = ReadStoreWriter(backend, name, table)
    reader = writer.build(iter(records))
    return backend, reader


def _stream(records, table="from", bloom_bits=DEFAULT_FILTER_BITS, max_records=None):
    """Build through the streaming ``begin``/``add_row``/``finish`` interface."""
    backend = MemoryBackend()
    writer = ReadStoreWriter(backend, "run", table, bloom_bits=bloom_bits)
    writer.begin(max_records)
    for row in records_to_rows(records, 6 if table == "combined" else 5):
        writer.add_row(row)
    return backend, writer.finish()


def _pages(backend, name):
    page_file = backend.open(name)
    return [page_file.read_page(index) for index in range(page_file.num_pages)]


def _from_records(count, stride=1):
    return [FromRecord(block=i * stride, inode=i % 7 + 1, offset=i % 3, line=0, from_cp=i % 11 + 1)
            for i in range(count)]


class TestBuild:
    def test_empty_input_creates_no_file(self):
        backend = MemoryBackend()
        writer = ReadStoreWriter(backend, "empty", "from")
        assert writer.build(iter([])) is None
        assert not backend.exists("empty")

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            ReadStoreWriter(MemoryBackend(), "x", "bogus")

    def test_unsorted_input_rejected(self):
        backend = MemoryBackend()
        writer = ReadStoreWriter(backend, "x", "from")
        records = [FromRecord(5, 1, 0, 0, 1), FromRecord(3, 1, 0, 0, 1)]
        with pytest.raises(ValueError):
            writer.build(iter(records))

    def test_build_writes_no_reads(self):
        """Constructing a run is pure sequential writing (§5.1).

        The only read allowed is the single header-page read performed when
        the freshly written run is opened for use afterwards.
        """
        backend = MemoryBackend()
        writer = ReadStoreWriter(backend, "x", "from")
        writer.build(iter(_from_records(5000)))
        assert backend.stats.pages_read <= 1
        assert backend.stats.pages_written > 0

    def test_header_fields(self):
        records = _from_records(1000)
        _, reader = _build(records)
        assert reader.num_records == 1000
        assert reader.table == "from"
        assert reader.record_size == 40
        assert reader.min_block == 0
        assert reader.max_block == 999
        assert reader.num_leaf_pages >= 1000 // reader.records_per_page


class TestWriterInterfacesAgree:
    """``build`` and ``begin``/``add_row``/``finish`` emit the same bytes,
    however the Bloom filter was sized."""

    @pytest.mark.parametrize("count,stride", [
        (1, 1),         # one record: the filter starts at its 1 Kbit floor
        (300, 1),       # dense blocks: few stride keys
        (300, 1000),    # scattered: stride keys push _keys_inserted to 2x num_items
        (2000, 64),     # one stride key per block, several leaves
    ])
    @pytest.mark.parametrize("bloom_bits", [1000, 4096, DEFAULT_FILTER_BITS])
    def test_bulk_and_streaming_routes_are_byte_identical(self, count, stride, bloom_bits):
        records = _from_records(count, stride)
        bulk_backend = MemoryBackend()
        bulk = ReadStoreWriter(bulk_backend, "run", "from", bloom_bits=bloom_bits).build(records)
        unsized_backend, unsized = _stream(records, bloom_bits=bloom_bits)
        sized_backend, sized = _stream(records, bloom_bits=bloom_bits, max_records=count)
        assert _pages(bulk_backend, "run") == _pages(unsized_backend, "run")
        assert _pages(bulk_backend, "run") == _pages(sized_backend, "run")
        assert bulk.bloom.to_bytes() == unsized.bloom.to_bytes() == sized.bloom.to_bytes()
        if stride >= 64 and count > 1:
            assert bulk.bloom._keys_inserted > bulk.bloom.num_items

    def test_add_row_rejects_unsorted_rows_and_use_without_begin(self):
        writer = ReadStoreWriter(MemoryBackend(), "run", "from")
        rows = records_to_rows(_from_records(3), 5)
        with pytest.raises(ValueError):
            writer.add_row(rows[0])
        writer.begin()
        writer.add_row(rows[1])
        with pytest.raises(ValueError):
            writer.add_row(rows[0])

    def test_no_filter_or_file_before_the_first_record(self):
        backend = MemoryBackend()
        writer = ReadStoreWriter(backend, "run", "combined", bloom_bits=COMBINED_FILTER_BITS)
        writer.begin()
        assert writer._bloom is None
        assert writer.finish() is None
        assert not backend.exists("run")

    def test_finish_opens_the_run_once_through_the_cache(self):
        backend = MemoryBackend()
        cache = PageCache(1 << 20)
        writer = ReadStoreWriter(backend, "run", "from")
        reader = writer.build(_from_records(10), cache=cache)
        assert reader.cache is cache
        assert backend.stats.pages_read == 1  # the header page, via the cache
        assert cache.stats.misses == 1

    def test_run_files_match_the_previous_release(self):
        """Golden hashes (SHA-256 over every page) recorded from the commit
        before the Bloom fold and build-time sizing changed: no format change."""
        froms = sorted(FromRecord((i * 7919) % 20011, i % 7 + 1, i % 3, i % 2, i % 11 + 1)
                       for i in range(300))
        backend = MemoryBackend()
        ReadStoreWriter(backend, "run", "from").build(froms)
        assert hashlib.sha256(b"".join(_pages(backend, "run"))).hexdigest() == (
            "0ba15e3606d010ee21019db71098c50013f64056f54a3d6c968fc0d78f429492")
        combined = sorted(
            CombinedRecord((i * 104729) % (1 << 22), i % 5 + 1, i % 4, 0, i % 9 + 1, i % 9 + 3)
            for i in range(500))
        backend, _ = _stream(combined, "combined", bloom_bits=COMBINED_FILTER_BITS)
        assert hashlib.sha256(b"".join(_pages(backend, "run"))).hexdigest() == (
            "ae337399ee5cf037a86b64896dad534081c6fad9fb94cb6b6c44b5e61a314bf9")


class TestIteration:
    def test_iter_all_roundtrip(self):
        records = _from_records(777)
        _, reader = _build(records)
        assert list(reader.iter_all()) == records
        assert rows_to_records(list(reader.iter_rows()), FromRecord) == records

    def test_single_leaf_file(self):
        records = _from_records(3)
        _, reader = _build(records)
        assert reader.num_levels == 0
        assert list(reader.iter_all()) == records
        assert reader.records_for_block(1) == [records[1]]

    def test_multi_level_index(self):
        """Enough records to need at least two index levels."""
        records = _from_records(30_000)
        _, reader = _build(records)
        assert reader.num_levels >= 2
        assert reader.records_for_block(12_345) == [records[12_345]]

    def test_iter_from_positions_correctly(self):
        records = _from_records(500, stride=2)  # blocks 0, 2, 4, ...
        _, reader = _build(records)
        result = list(reader.iter_from(block=100))
        assert result[0].block == 100
        assert len(result) == 500 - 50
        # Start between two existing blocks.
        result = list(reader.iter_from(block=101))
        assert result[0].block == 102

    def test_records_for_block_range(self):
        records = _from_records(300)
        _, reader = _build(records)
        subset = reader.records_for_block_range(100, 20)
        assert [r.block for r in subset] == list(range(100, 120))
        assert reader.records_for_block_range(1000, 5) == []

    def test_combined_and_to_record_kinds(self):
        to_records = [ToRecord(i, 1, 0, 0, i + 1) for i in range(100)]
        _, reader = _build(to_records, table="to", name="p0/to/L0_1")
        assert list(reader.iter_all()) == to_records

        combined = [CombinedRecord(i, 1, 0, 0, 1, INFINITY if i % 2 else i + 2)
                    for i in range(100)]
        _, reader = _build(combined, table="combined", name="p0/combined/c_1")
        assert list(reader.iter_all()) == combined
        assert reader.record_size == 48


class TestBloomIntegration:
    def test_might_contain_block(self):
        records = _from_records(200, stride=10)  # blocks 0, 10, ..., 1990
        _, reader = _build(records)
        assert reader.might_contain_block(500)
        assert not reader.might_contain_block(5_000)  # outside min/max bounds
        assert not reader.might_contain_range(10_000, 50)
        assert reader.might_contain_range(0, 5)

    def test_bloom_reloaded_from_disk(self):
        backend, reader = _build(_from_records(100))
        fresh = ReadStoreReader(backend, reader.name)
        assert all(fresh.bloom.might_contain(r.block) for r in _from_records(100))


class TestCacheIntegration:
    def test_reads_go_through_cache(self):
        backend, reader = _build(_from_records(5000))
        cache = PageCache(4 * 1024 * 1024)
        cached_reader = ReadStoreReader(backend, reader.name, cache=cache)
        before = backend.stats.pages_read
        cached_reader.records_for_block(42)
        first_reads = backend.stats.pages_read - before
        assert first_reads > 0
        before = backend.stats.pages_read
        cached_reader.records_for_block(42)
        assert backend.stats.pages_read - before == 0  # served from cache
        assert cache.stats.hits > 0

    def test_open_missing_file(self):
        with pytest.raises(FileNotFoundError):
            ReadStoreReader(MemoryBackend(), "nope")

    def test_non_run_file_rejected(self):
        backend = MemoryBackend()
        page_file = backend.create("junk")
        page_file.append_page(b"garbage")
        with pytest.raises(ValueError):
            ReadStoreReader(backend, "junk")


_record_fields = st.tuples(
    st.integers(0, 10_000), st.integers(1, 100), st.integers(0, 50),
    st.integers(0, 4), st.integers(1, 500),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(_record_fields, min_size=1, max_size=400))
def test_roundtrip_property(raw):
    """Property: any sorted record set written to a run reads back identically."""
    records = sorted({FromRecord(*fields) for fields in raw}, key=FromRecord.sort_key)
    _, reader = _build(records)
    assert list(reader.iter_all()) == records


@settings(max_examples=25, deadline=None)
@given(st.lists(_record_fields, min_size=1, max_size=300), st.integers(0, 10_000))
def test_iter_from_property(raw, start_block):
    """Property: iter_from(block) returns exactly the records with block >= start."""
    records = sorted({FromRecord(*fields) for fields in raw}, key=FromRecord.sort_key)
    _, reader = _build(records)
    expected = [r for r in records if r.block >= start_block]
    assert list(reader.iter_from(start_block)) == expected
