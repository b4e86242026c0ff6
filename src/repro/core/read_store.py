"""On-disk read stores (RS): densely packed B-trees built bottom-up.

At every consistency point the contents of a write store are written out as a
new read-store *run*.  Because the write store is already sorted, the run can
be constructed strictly sequentially (§5.1):

1. records are packed densely into leaf pages in sort order;
2. while the leaf pages stream out, the first key of each leaf page is
   accumulated into the level-1 index, which is written next;
3. index levels are stacked until a level fits in a single page (the root).

No page is ever read while writing a run.  A Bloom filter over the run's
physical block numbers is built during the leaf pass and stored in the file
after the index levels; the last page of the file is a header describing the
layout, so a reader needs exactly one page read to open a run.

File layout (4 KB pages)::

    [leaf pages][level-1 pages][level-2 pages]...[bloom pages][header page]

Checksums
---------

Every leaf and index page header stores a CRC32 in its second field,
covering the whole 4 KB page except the checksum field itself; the header
page (magic ``BACKLOG2``) carries a CRC over the (page-padded) Bloom region
and a CRC over its own bytes.  Readers verify the header checksum at open
time and each page checksum on decode, always; a mismatch raises
:class:`CorruptPageError`, which the query and compaction layers convert
into quarantine + degraded operation.  This is the only format: a header
page with any other magic -- including the checksum-less ``BACKLOG1`` of
early builds, two bits away -- is not a read store, and opening it raises
:class:`ValueError`.
"""

from __future__ import annotations

import operator
import struct
import threading
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union
from zlib import crc32

from repro.core.bloom import BloomFilter, DEFAULT_FILTER_BITS, fit_bits
from repro.core.records import (
    COMBINED_RECORD_SIZE,
    COMBINED_STRUCT,
    CombinedRecord,
    FROM_RECORD_SIZE,
    FROM_STRUCT,
    FromRecord,
    RecordBlock,
    TO_RECORD_SIZE,
    TO_STRUCT,
    ToRecord,
    pack_key_prefix,
    rows_from_le_payload,
    rows_to_le_bytes,
)
from repro.fsim.blockdev import PAGE_SIZE, PageFile, StorageBackend
from repro.fsim.cache import PageCache

__all__ = ["ReadStoreWriter", "ReadStoreReader", "CorruptPageError", "RECORD_KINDS"]

_MAGIC_V2 = 0x4241434B4C4F4732  # "BACKLOG2" -- CRC32 per page
_PAGE_HEADER = struct.Struct("<II")  # number of entries, CRC32
_INDEX_ENTRY = struct.Struct("<5QQ")  # 5-field separator key + child page number
_MAX_LEVELS = 8
_HEADER_V2_BODY = struct.Struct("<QQQQQQ" + "QQ" * _MAX_LEVELS + "QQQQQ")
# magic, record_kind, record_size, num_records, num_leaf_pages, num_levels,
# (level_first_page, level_num_pages) * 8, bloom_first_page, bloom_num_pages,
# min_block, max_block, bloom_crc
_HEADER_CRC = struct.Struct("<Q")  # CRC32 of the packed body, appended last
_HEADER_PADDING = bytes(PAGE_SIZE - _HEADER_V2_BODY.size - _HEADER_CRC.size)


class CorruptPageError(ValueError):
    """A page failed checksum verification (or the header page is damaged).

    Subclasses :class:`ValueError` so recovery's invalid-run detection treats
    a corrupt-at-open run exactly like a truncated one.  Carries enough
    context (``run_name``, ``page_index``, ``kind``) for the quarantine and
    scrub paths to report and act on the damage.
    """

    def __init__(self, run_name: str, page_index: int, kind: str) -> None:
        super().__init__(
            f"{run_name!r}: checksum mismatch on {kind} page {page_index}")
        self.run_name = run_name
        self.page_index = page_index
        self.kind = kind


def _page_crc(data: bytes) -> int:
    """CRC32 of one 4 KB page, skipping the 4-byte checksum field itself."""
    view = memoryview(data)
    return crc32(view[8:], crc32(view[:4]))

RECORD_KINDS = {"from": 1, "to": 2, "combined": 3}
_KIND_TO_CLASS = {1: FromRecord, 2: ToRecord, 3: CombinedRecord}
_KIND_TO_SIZE = {1: FROM_RECORD_SIZE, 2: TO_RECORD_SIZE, 3: COMBINED_RECORD_SIZE}
_KIND_TO_STRUCT = {1: FROM_STRUCT, 2: TO_STRUCT, 3: COMBINED_STRUCT}

AnyRecord = Union[FromRecord, ToRecord, CombinedRecord]

#: An index separator: the first five sort-key fields of a leaf's first record.
SeparatorKey = Tuple[int, int, int, int, int]


# Per-thread scratch list reused by every bulk build() on that thread: a
# flush worker writes one run after another, and re-extending one arena
# avoids allocating a fresh len(records) key list per run.  Thread-local
# because parallel flush workers bulk-build concurrently.
_SCRATCH = threading.local()


def _bloom_scratch_arena() -> List[int]:
    """This thread's (cleared) block-key scratch list."""
    arena = getattr(_SCRATCH, "blocks", None)
    if arena is None:
        arena = _SCRATCH.blocks = []
    else:
        arena.clear()
    return arena


@lru_cache(maxsize=None)
def _flat_struct(fields: int, count: int) -> struct.Struct:
    """One Struct packing ``count`` whole records of ``fields`` u64s each.

    Cached: a run sees exactly two shapes (full leaves and one final
    partial leaf), so compiling the format once per shape makes leaf
    packing a single C call.
    """
    return struct.Struct(f"<{fields * count}Q")


class ReadStoreWriter:
    """Builds one read-store run from sorted records.

    Two equivalent interfaces produce byte-identical files:

    * :meth:`build` writes a whole sorted record sequence at once (the flush
      path; any other iterable is materialised first);
    * :meth:`begin` / :meth:`add_row` / :meth:`finish` accept big-endian
      rows (:mod:`repro.core.records`) one at a time, so a streaming
      producer -- the compaction join -- can route rows into several writers
      without materialising any table or building a record object.  At most
      one unflushed leaf page of rows is buffered at any moment.

    Either way, no file is created until the first record arrives -- quiet
    consistency points do not produce empty runs.
    """

    def __init__(self, backend: StorageBackend, name: str, table: str,
                 bloom_bits: int = DEFAULT_FILTER_BITS) -> None:
        if table not in RECORD_KINDS:
            raise ValueError(f"unknown table {table!r}")
        self.backend = backend
        self.name = name
        self.table = table
        self.record_kind = RECORD_KINDS[table]
        self.record_size = _KIND_TO_SIZE[self.record_kind]
        self.records_per_page = (PAGE_SIZE - _PAGE_HEADER.size) // self.record_size
        self.entries_per_index_page = (PAGE_SIZE - _PAGE_HEADER.size) // _INDEX_ENTRY.size
        self.bloom_bits = bloom_bits
        self._page_file: Optional[PageFile] = None
        self._open = False

    def build(self, records: Iterable[AnyRecord],
              cache: Optional[PageCache] = None) -> Optional["ReadStoreReader"]:
        """Write all ``records`` (which must be pre-sorted) and return a reader.

        Returns ``None`` without creating a file when there are no records.
        ``cache`` is handed to :meth:`finish`.  An input that is not a
        ``Sequence`` is materialised first: every run is written in bulk.

        The record count bounds the Bloom filter, so the filter is created
        at its final size instead of at ``bloom_bits`` (see :meth:`begin`);
        the whole record array's block keys are copied once into a
        per-thread scratch arena and inserted with a single
        :class:`~repro.core.bloom.BloomBulkAdder` chunk; sortedness is
        validated with one C sweep instead of a per-record compare; and each
        leaf body is a single flat ``struct`` pack spliced into the page
        buffer.  The adder, the leaf layout and the filter sizing are all
        chunk-invariant, so the run file is byte-identical to the streaming
        ``begin``/``add_row``/``finish`` route over the same records.
        """
        if not isinstance(records, Sequence):
            records = list(records)
        self.begin(max_records=len(records))
        if records:
            self._add_sorted_sequence(records)
        return self.finish(cache)

    def _add_sorted_sequence(self, records: Sequence[AnyRecord]) -> None:
        """A whole run in bulk: one sweep, one Bloom chunk, whole leaves."""
        if not all(map(operator.le, records, islice(records, 1, None))):
            raise ValueError("records passed to ReadStoreWriter must be sorted")
        page_file = self._create_file()
        arena = _bloom_scratch_arena()
        arena.extend(map(itemgetter(0), records))
        self._bloom_adder.add_chunk(arena)
        per_page = self.records_per_page
        fields = self.record_size // 8
        for start in range(0, len(records), per_page):
            chunk = records[start:start + per_page]
            body = _flat_struct(fields, len(chunk)).pack(*chain.from_iterable(chunk))
            self._write_leaf(page_file, body, len(chunk), tuple(chunk[0][:5]))
        self._num_records = len(records)
        self._max_block = records[-1][0]

    # ------------------------------------------------------- streaming API

    def begin(self, max_records: Optional[int] = None) -> None:
        """Start (or restart) an incremental build.

        Nothing is allocated here: the file and the Bloom filter (1 MB for a
        Combined run) are created by the first record, so a writer that
        never receives one costs nothing.  ``max_records`` is an upper bound
        on the records that will follow, for callers that know one; it
        sizes the filter at build time.  The filter then starts at
        :func:`~repro.core.bloom.fit_bits` of the most keys those records
        can insert (a block key and a stride key each) rather than at
        ``bloom_bits``, which leaves :meth:`finish` little or nothing to
        fold and changes no byte of the file.
        """
        self._page_file = None
        self._filter_bits = (self.bloom_bits if max_records is None
                             else min(self.bloom_bits, fit_bits(2 * max_records)))
        self._bloom: Optional[BloomFilter] = None
        self._num_records = 0
        self._max_block = 0
        self._leaf_keys: List[Tuple[SeparatorKey, int]] = []
        self._buffer: List[bytes] = []
        # The empty row sorts before every row, so the first add_row passes.
        self._previous = b""
        self._open = True

    def _create_file(self) -> PageFile:
        """First record: create the run file and its Bloom filter."""
        self._page_file = self.backend.create(self.name)
        self._bloom = BloomFilter(self._filter_bits)
        self._bloom_adder = self._bloom.bulk_adder()
        return self._page_file

    def add_row(self, row: bytes) -> None:
        """Append one big-endian record row; rows must arrive in sort order.

        Big-endian rows compare with ``memcmp`` in record order, so the
        sortedness check is one bytes comparison.
        """
        if not self._open:
            # Auto-beginning here would silently truncate a finished run of
            # the same name on the next create(); make the misuse loud.
            raise ValueError("add_row() without begin() (or after finish())")
        if row < self._previous:
            raise ValueError("records passed to ReadStoreWriter must be sorted")
        self._previous = row
        if self._page_file is None:
            self._create_file()
        buffer = self._buffer
        buffer.append(row)
        if len(buffer) == self.records_per_page:
            self._flush_rows()

    def _flush_rows(self) -> None:
        """Write the buffered rows as one leaf: one byteswap, one unpack."""
        rows = self._buffer
        self._buffer = []
        fields = self.record_size // 8
        body = rows_to_le_bytes(rows)
        # One C unpack yields every field: the Bloom chunk takes each
        # record's block, the index its first five fields.
        values = _flat_struct(fields, len(rows)).unpack(body)
        self._bloom_adder.add_chunk(values[::fields])
        self._write_leaf(self._page_file, body, len(rows), values[:5])
        self._num_records += len(rows)
        self._max_block = values[-fields]

    @property
    def num_records_added(self) -> int:
        """Records accepted so far in the current incremental build."""
        return self._num_records + len(self._buffer) if self._open else 0

    def finish(self, cache: Optional[PageCache] = None) -> Optional["ReadStoreReader"]:
        """Write the index, Bloom and header pages; return a reader.

        Returns ``None`` (and creates no file) when no record was added.
        The returned reader is the run's one open: it is constructed with
        ``cache`` (and the filter just built, so nothing is reloaded), which
        is why the catalogue passes its shared
        :class:`~repro.fsim.cache.PageCache` here instead of reopening the
        file afterwards.
        """
        if not self._open:
            raise ValueError("finish() without begin()")
        if self._buffer:
            self._flush_rows()
        self._open = False
        page_file = self._page_file
        if page_file is None:
            return None
        bloom = self._bloom
        leaf_keys = self._leaf_keys
        # Sorted input means the block bounds are just the ends of the stream.
        min_block = leaf_keys[0][0][0]
        max_block = self._max_block

        num_leaf_pages = len(leaf_keys)

        # Build the index levels bottom-up.  Each level indexes the one below
        # it; we stop once a level fits in a single page.
        levels: List[Tuple[int, int]] = []  # (first_page, num_pages)
        current = leaf_keys
        while len(current) > 1:
            first_page = page_file.num_pages
            next_level: List[Tuple[SeparatorKey, int]] = []
            for start in range(0, len(current), self.entries_per_index_page):
                chunk = current[start:start + self.entries_per_index_page]
                page_index = self._flush_index_page(page_file, chunk)
                next_level.append((chunk[0][0], page_index))
            levels.append((first_page, page_file.num_pages - first_page))
            current = next_level
        if len(levels) > _MAX_LEVELS:
            raise ValueError("read store exceeds the maximum number of index levels")

        # Bloom filter pages.  The checksum covers the page-padded region --
        # exactly the bytes a reader concatenates back -- so it can be
        # computed while streaming without buffering the padded copy.
        bloom.shrink_to_fit()
        bloom_bytes = bloom.to_bytes()
        bloom_first_page = page_file.num_pages
        for start in range(0, len(bloom_bytes), PAGE_SIZE):
            page_file.append_page(bloom_bytes[start:start + PAGE_SIZE])
        bloom_num_pages = page_file.num_pages - bloom_first_page
        bloom_crc = crc32(bloom_bytes)
        padding = -len(bloom_bytes) % PAGE_SIZE
        if padding and bloom_num_pages:
            bloom_crc = crc32(b"\x00" * padding, bloom_crc)

        # Header page (always the last page of the file).
        level_fields: List[int] = []
        for index in range(_MAX_LEVELS):
            if index < len(levels):
                level_fields.extend(levels[index])
            else:
                level_fields.extend((0, 0))
        body = _HEADER_V2_BODY.pack(
            _MAGIC_V2,
            self.record_kind,
            self.record_size,
            self._num_records,
            num_leaf_pages,
            len(levels),
            *level_fields,
            bloom_first_page,
            bloom_num_pages,
            min_block,
            max_block,
            bloom_crc,
        )
        page_file.append_page(body + _HEADER_CRC.pack(crc32(body)))
        return ReadStoreReader(self.backend, self.name, cache=cache, bloom=bloom)

    # ------------------------------------------------------------ internals

    def _write_leaf(self, page_file: PageFile, body: bytes, count: int,
                    first_key: SeparatorKey) -> None:
        """Write one leaf page holding ``count`` records packed in ``body``.

        Both interfaces hand over a leaf's little-endian record bytes whole
        (one flat ``struct`` pack, or one byteswap of the rows), spliced into
        a full-page buffer so the checksum covers the padding a reader sees:
        run files don't depend on which interface wrote them.  The Bloom
        inserts are the callers' -- one chunk per leaf or one per run, the
        adder sets the same bits either way.
        """
        payload = bytearray(PAGE_SIZE)
        payload[_PAGE_HEADER.size:_PAGE_HEADER.size + len(body)] = body
        _PAGE_HEADER.pack_into(payload, 0, count, 0)
        _PAGE_HEADER.pack_into(payload, 0, count, _page_crc(payload))
        page_index = page_file.append_page(bytes(payload))
        self._leaf_keys.append((first_key, page_index))

    def _flush_index_page(self, page_file: PageFile,
                          entries: Sequence[Tuple[SeparatorKey, int]]) -> int:
        payload = bytearray(PAGE_SIZE)
        _PAGE_HEADER.pack_into(payload, 0, len(entries), 0)
        pack_into = _INDEX_ENTRY.pack_into
        position = _PAGE_HEADER.size
        for key, child in entries:
            pack_into(payload, position, *key, child)
            position += _INDEX_ENTRY.size
        _PAGE_HEADER.pack_into(payload, 0, len(entries), _page_crc(payload))
        return page_file.append_page(bytes(payload))


class ReadStoreReader:
    """Reads one read-store run.

    The reader loads only the header page at construction time; leaf and index
    pages are read on demand (optionally through a :class:`PageCache`).  The
    Bloom filter can be provided by the run catalogue (it keeps filters in
    memory between queries) or lazily loaded from the file.
    """

    def __init__(self, backend: StorageBackend, name: str,
                 cache: Optional[PageCache] = None,
                 bloom: Optional[BloomFilter] = None) -> None:
        self.backend = backend
        self.name = name
        self.cache = cache
        self._page_file = backend.open(name)
        self._bloom = bloom
        #: The partition the run is catalogued under, stamped by
        #: ``RunManager.add_run`` / ``replace_partition`` so the query path
        #: groups candidate runs without parsing their names.
        self.partition: Optional[int] = None
        if self._page_file.num_pages == 0:
            # An empty file cannot even hold a header: it is the remnant of a
            # writer that crashed before its first leaf page reached disk.
            raise ValueError(f"{name!r} is empty, not a Backlog read store")
        header_page = self._read_page(self._page_file.num_pages - 1)
        fields = _HEADER_V2_BODY.unpack_from(header_page, 0)
        if fields[0] != _MAGIC_V2:
            raise ValueError(f"{name!r} is not a Backlog read store")
        body_end = _HEADER_V2_BODY.size
        stored_crc = _HEADER_CRC.unpack_from(header_page, body_end)[0]
        # The header checksum is verified unconditionally -- it costs one
        # CRC per open and guards every layout field below; the writer's
        # zero padding is held to the same standard, so no byte of the page
        # can change unnoticed.
        if (crc32(header_page[:body_end]) != stored_crc
                or header_page[body_end + _HEADER_CRC.size:] != _HEADER_PADDING):
            raise CorruptPageError(name, self._page_file.num_pages - 1, "header")
        self.record_kind = fields[1]
        self.record_size = fields[2]
        self.num_records = fields[3]
        self.num_leaf_pages = fields[4]
        self.num_levels = fields[5]
        self.levels: List[Tuple[int, int]] = []
        for index in range(_MAX_LEVELS):
            first_page, num_pages = fields[6 + 2 * index], fields[7 + 2 * index]
            if index < self.num_levels:
                self.levels.append((first_page, num_pages))
        offset = 6 + 2 * _MAX_LEVELS
        self.bloom_first_page = fields[offset]
        self.bloom_num_pages = fields[offset + 1]
        self.min_block = fields[offset + 2]
        self.max_block = fields[offset + 3]
        self.bloom_crc = fields[offset + 4]
        self._record_class = _KIND_TO_CLASS[self.record_kind]
        self._record_struct = _KIND_TO_STRUCT[self.record_kind]
        self._fields = self.record_size // 8
        self.records_per_page = (PAGE_SIZE - _PAGE_HEADER.size) // self.record_size

    # ------------------------------------------------------------ bloom

    @property
    def table(self) -> str:
        for name, kind in RECORD_KINDS.items():
            if kind == self.record_kind:
                return name
        raise ValueError(f"unknown record kind {self.record_kind}")

    @property
    def bloom(self) -> BloomFilter:
        """The run's Bloom filter (loaded from disk on first use)."""
        if self._bloom is None:
            data = bytearray()
            for index in range(self.bloom_num_pages):
                data.extend(self._read_page(self.bloom_first_page + index))
            if crc32(bytes(data)) != self.bloom_crc:
                raise CorruptPageError(self.name, self.bloom_first_page, "bloom")
            self._bloom = BloomFilter.from_bytes(bytes(data))
        return self._bloom

    def might_contain_range(self, first_block: int, num_blocks: int) -> bool:
        if num_blocks <= 0:
            return False
        if first_block + num_blocks <= self.min_block or first_block > self.max_block:
            return False
        return self.bloom.might_contain_range(first_block, num_blocks)

    @property
    def size_bytes(self) -> int:
        return self._page_file.size_bytes

    # ------------------------------------------------------------ iteration

    def iter_all(self) -> Iterator[AnyRecord]:
        """Yield every record in sort order."""
        for page_index in range(self.num_leaf_pages):
            yield from self._leaf_records(page_index)

    def iter_rows(self) -> Iterator[bytes]:
        """Yield every record as a big-endian row, in sort order.

        Compaction's input: one leaf page decoded at a time, no record
        objects.
        """
        for page_index in range(self.num_leaf_pages):
            yield from self._leaf_rows(page_index)

    def records_for_block_range(self, first_block: int, num_blocks: int) -> List[AnyRecord]:
        """All records whose block falls in ``[first_block, first_block + num_blocks)``.

        The entry point the query engine's narrow arm uses: a narrow range
        almost always lands inside a single leaf page, which this returns as
        one list slice with no generator frames at all.
        """
        if num_blocks <= 0 or self.num_leaf_pages == 0:
            return []
        start_key = (first_block,)
        stop_key = (first_block + num_blocks,)
        leaf_index = self._find_leaf((first_block, 0, 0, 0, 0))
        records = self._leaf_records(leaf_index)
        lo = bisect_left(records, start_key)
        hi = bisect_left(records, stop_key)
        if hi < len(records) or leaf_index + 1 == self.num_leaf_pages:
            return records[lo:hi]
        result = records[lo:]
        for page_index in range(leaf_index + 1, self.num_leaf_pages):
            records = self._leaf_records(page_index)
            hi = bisect_left(records, stop_key)
            result.extend(records[:hi])
            if hi < len(records):
                break
        return result

    def iter_rows_block_range(self, first_block: int, num_blocks: int,
                              start_key: Optional[Tuple[int, ...]] = None) -> Iterator[bytes]:
        """Lazily yield the range's records as big-endian row bytes.

        Decodes one leaf page at a time, so a wide range query merging many
        runs holds O(pages currently open) rows instead of every run's full
        result list.  Each leaf decodes into 40/48-byte big-endian row
        strings (one C byteswap pass per page), and the bisects compare
        packed key prefixes with ``memcmp``; rows compare in the same order
        as the records they encode.

        ``start_key`` (a record sort-key prefix ``>= (first_block,)``) begins
        the scan at the first record at or past that key instead of the start
        of the block range; the cursor API's resume pushdown uses it to
        re-enter a paginated scan at the interrupted reference group without
        re-reading the leaves before it.
        """
        if num_blocks <= 0 or self.num_leaf_pages == 0:
            return
        if start_key is None:
            seek = (first_block, 0, 0, 0, 0)
            lo_key = pack_key_prefix(first_block)
        else:
            seek = tuple(start_key) + (0,) * (5 - len(start_key))
            lo_key = pack_key_prefix(*start_key)
        stop_key = pack_key_prefix(first_block + num_blocks)
        leaf_index = self._find_leaf(seek)
        for page_index in range(leaf_index, self.num_leaf_pages):
            rows = self._leaf_rows(page_index)
            lo = bisect_left(rows, lo_key) if page_index == leaf_index else 0
            hi = bisect_left(rows, stop_key)
            yield from rows[lo:hi]
            if hi < len(rows):
                return

    def rows_for_block_range(self, first_block: int,
                             num_blocks: int) -> List[bytes]:
        """Row counterpart of :meth:`records_for_block_range`: one flat list.

        Same traversal and page reads as a full drain of
        :meth:`iter_rows_block_range`, without the per-row generator
        machinery -- the whole-range list surface gathers with this.
        """
        if num_blocks <= 0 or self.num_leaf_pages == 0:
            return []
        lo_key = pack_key_prefix(first_block)
        stop_key = pack_key_prefix(first_block + num_blocks)
        leaf_index = self._find_leaf((first_block, 0, 0, 0, 0))
        rows = self._leaf_rows(leaf_index)
        lo = bisect_left(rows, lo_key)
        hi = bisect_left(rows, stop_key)
        if hi < len(rows) or leaf_index + 1 == self.num_leaf_pages:
            return rows[lo:hi]
        result = rows[lo:]
        for page_index in range(leaf_index + 1, self.num_leaf_pages):
            rows = self._leaf_rows(page_index)
            hi = bisect_left(rows, stop_key)
            result.extend(rows[:hi])
            if hi < len(rows):
                break
        return result

    def iter_record_blocks(self, first_block: int,
                           num_blocks: int) -> Iterator[RecordBlock]:
        """Yield one trimmed zero-copy :class:`RecordBlock` per leaf page.

        The slab-granular view of :meth:`iter_rows_block_range`: each leaf's
        payload becomes a single :class:`~repro.core.records.RecordBlock`
        (one slab allocation per page), sliced -- without copying -- to the
        requested block range.  Callers that only need bulk row access
        (whole-device scans, the allocation regression guard in
        ``tools/check_allocs.py``) touch O(pages), not O(records), Python
        objects.
        """
        if num_blocks <= 0 or self.num_leaf_pages == 0:
            return
        lo_key = pack_key_prefix(first_block)
        stop_key = pack_key_prefix(first_block + num_blocks)
        leaf_index = self._find_leaf((first_block, 0, 0, 0, 0))
        for page_index in range(leaf_index, self.num_leaf_pages):
            block = self._leaf_block(page_index)
            lo = block.bisect_left(lo_key) if page_index == leaf_index else 0
            hi = block.bisect_left(stop_key)
            if lo < hi:
                yield block if (lo, hi) == (0, len(block)) else block.slice(lo, hi)
            if hi < len(block):
                return

    def records_for_block(self, block: int) -> List[AnyRecord]:
        return self.records_for_block_range(block, 1)

    # ------------------------------------------------------------ scrubbing

    def verify_checksums(self) -> List[CorruptPageError]:
        """Check every page of the run against its stored CRC32.

        Returns one :class:`CorruptPageError` per damaged page instead of
        raising, so a scrub can report the full extent of the damage.
        """
        problems: List[CorruptPageError] = []
        for page_index in range(self.num_leaf_pages):
            data = self._read_page(page_index)
            _, stored_crc = _PAGE_HEADER.unpack_from(data, 0)
            if _page_crc(data) != stored_crc:
                problems.append(CorruptPageError(self.name, page_index, "leaf"))
        for first_page, num_pages in self.levels:
            for page_index in range(first_page, first_page + num_pages):
                data = self._read_page(page_index)
                _, stored_crc = _PAGE_HEADER.unpack_from(data, 0)
                if _page_crc(data) != stored_crc:
                    problems.append(CorruptPageError(self.name, page_index, "index"))
        if self.bloom_num_pages:
            data = bytearray()
            for index in range(self.bloom_num_pages):
                data.extend(self._read_page(self.bloom_first_page + index))
            if crc32(bytes(data)) != self.bloom_crc:
                problems.append(
                    CorruptPageError(self.name, self.bloom_first_page, "bloom"))
        return problems

    # ------------------------------------------------------------ internals

    def _read_page(self, index: int) -> bytes:
        if self.cache is not None:
            return self.cache.read_page(self._page_file, index)
        return self._page_file.read_page(index)

    def _leaf_records(self, leaf_page_index: int) -> List[AnyRecord]:
        """Decode a whole leaf page in one batched ``iter_unpack`` pass."""
        data = self._read_page(leaf_page_index)
        count, stored_crc = _PAGE_HEADER.unpack_from(data, 0)
        if _page_crc(data) != stored_crc:
            raise CorruptPageError(self.name, leaf_page_index, "leaf")
        end = _PAGE_HEADER.size + count * self.record_size
        make = self._record_class._make
        return [make(fields)
                for fields in self._record_struct.iter_unpack(data[_PAGE_HEADER.size:end])]

    def _leaf_rows(self, leaf_page_index: int) -> List[bytes]:
        """Decode a whole leaf page into big-endian row strings.

        Columnar counterpart of :meth:`_leaf_records`: one byteswap pass
        plus one splitting ``iter_unpack`` per page, no per-record field
        tuples or NamedTuples.
        """
        data = self._read_page(leaf_page_index)
        count, stored_crc = _PAGE_HEADER.unpack_from(data, 0)
        if _page_crc(data) != stored_crc:
            raise CorruptPageError(self.name, leaf_page_index, "leaf")
        end = _PAGE_HEADER.size + count * self.record_size
        return rows_from_le_payload(memoryview(data)[_PAGE_HEADER.size:end],
                                    self._fields)

    def _leaf_block(self, leaf_page_index: int) -> RecordBlock:
        """One zero-copy :class:`RecordBlock` slab for a whole leaf page."""
        data = self._read_page(leaf_page_index)
        count, stored_crc = _PAGE_HEADER.unpack_from(data, 0)
        if _page_crc(data) != stored_crc:
            raise CorruptPageError(self.name, leaf_page_index, "leaf")
        end = _PAGE_HEADER.size + count * self.record_size
        return RecordBlock.from_le_payload(memoryview(data)[_PAGE_HEADER.size:end],
                                           self._fields)

    def _find_leaf(self, target: Tuple[int, int, int, int, int]) -> int:
        """Descend the index to the leaf page that may contain ``target``."""
        if self.num_levels == 0:
            return 0
        # The writer stacks index levels until one fits in a single page, so
        # the top level is always exactly one page: the root.
        first_page, num_pages = self.levels[-1]
        if num_pages != 1:
            raise ValueError(
                f"{self.name!r}: corrupt read store "
                f"(top index level spans {num_pages} pages, expected 1)"
            )
        level = self.num_levels - 1
        current_page = first_page
        while True:
            keys, children = self._index_entries(current_page)
            # Last separator <= target; fall back to the first child when the
            # target sorts before every separator.
            position = bisect_right(keys, target) - 1
            child = children[position] if position >= 0 else children[0]
            if level == 0:
                return child
            level -= 1
            current_page = child

    def _index_entries(self, page_index: int) -> Tuple[List[Tuple[int, ...]], List[int]]:
        """Separator keys and child page numbers of one index page."""
        data = self._read_page(page_index)
        count, stored_crc = _PAGE_HEADER.unpack_from(data, 0)
        if _page_crc(data) != stored_crc:
            raise CorruptPageError(self.name, page_index, "index")
        end = _PAGE_HEADER.size + count * _INDEX_ENTRY.size
        keys: List[Tuple[int, ...]] = []
        children: List[int] = []
        for fields in _INDEX_ENTRY.iter_unpack(data[_PAGE_HEADER.size:end]):
            keys.append(fields[:5])
            children.append(fields[5])
        return keys, children
