"""Back-reference record types and their on-disk encodings.

Backlog keeps three logical tables (§4):

* **From** -- one record per reference *allocation*: ``(block, inode, offset,
  line, from)`` where ``from`` is the global CP number at which the reference
  came into existence.
* **To** -- one record per reference *removal*: ``(block, inode, offset,
  line, to)`` where ``to`` is the CP number at which the reference was
  dropped (exclusive).
* **Combined** -- the outer join of the two: ``(block, inode, offset, line,
  from, to)``, with ``to == INFINITY`` for references that are still live.

All fields are 64-bit, so a From/To tuple is 40 bytes and a Combined tuple is
48 bytes on disk, exactly as in the paper's btrfs port.  Records are ordered
by ``(block, inode, offset, line, boundary)`` so that records describing the
same physical block are adjacent in the read stores and range queries over
physically adjacent blocks touch consecutive pages.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import chain
from typing import Iterable, List, NamedTuple, Sequence, Tuple, Union

from repro.util.intervals import INFINITY

__all__ = [
    "INFINITY",
    "FROM_STRUCT",
    "TO_STRUCT",
    "COMBINED_STRUCT",
    "FROM_RECORD_SIZE",
    "TO_RECORD_SIZE",
    "COMBINED_RECORD_SIZE",
    "ReferenceKey",
    "FromRecord",
    "ToRecord",
    "CombinedRecord",
    "BackReference",
    "RecordBlock",
    "pack_key_prefix",
    "pack_row",
    "unpack_row",
    "rows_from_le_payload",
    "rows_to_le_bytes",
    "rows_to_records",
    "records_to_rows",
]

FROM_STRUCT = struct.Struct("<5Q")
TO_STRUCT = struct.Struct("<5Q")
COMBINED_STRUCT = struct.Struct("<6Q")

FROM_RECORD_SIZE = FROM_STRUCT.size       # 40 bytes
TO_RECORD_SIZE = TO_STRUCT.size           # 40 bytes
COMBINED_RECORD_SIZE = COMBINED_STRUCT.size  # 48 bytes


class ReferenceKey(NamedTuple):
    """The identity of a back reference, shared by all three tables."""

    block: int
    inode: int
    offset: int
    line: int


class FromRecord(NamedTuple):
    """A reference allocation event: valid from CP ``from_cp`` onwards."""

    block: int
    inode: int
    offset: int
    line: int
    from_cp: int

    @property
    def key(self) -> ReferenceKey:
        return ReferenceKey(self.block, self.inode, self.offset, self.line)

    def sort_key(self) -> Tuple[int, int, int, int, int]:
        return (self.block, self.inode, self.offset, self.line, self.from_cp)

    def pack(self) -> bytes:
        return FROM_STRUCT.pack(self.block, self.inode, self.offset, self.line, self.from_cp)

    @classmethod
    def unpack(cls, data: bytes) -> "FromRecord":
        return cls(*FROM_STRUCT.unpack(data))


class ToRecord(NamedTuple):
    """A reference removal event: the reference is invalid from CP ``to_cp``."""

    block: int
    inode: int
    offset: int
    line: int
    to_cp: int

    @property
    def key(self) -> ReferenceKey:
        return ReferenceKey(self.block, self.inode, self.offset, self.line)

    def sort_key(self) -> Tuple[int, int, int, int, int]:
        return (self.block, self.inode, self.offset, self.line, self.to_cp)

    def pack(self) -> bytes:
        return TO_STRUCT.pack(self.block, self.inode, self.offset, self.line, self.to_cp)

    @classmethod
    def unpack(cls, data: bytes) -> "ToRecord":
        return cls(*TO_STRUCT.unpack(data))


class CombinedRecord(NamedTuple):
    """A joined record: the reference existed during ``[from_cp, to_cp)``."""

    block: int
    inode: int
    offset: int
    line: int
    from_cp: int
    to_cp: int

    @property
    def key(self) -> ReferenceKey:
        return ReferenceKey(self.block, self.inode, self.offset, self.line)

    @property
    def is_live(self) -> bool:
        """True when the reference is still part of the live file system."""
        return self.to_cp == INFINITY

    @property
    def is_override(self) -> bool:
        """True for structural-inheritance override records (``from == 0``)."""
        return self.from_cp == 0

    def sort_key(self) -> Tuple[int, int, int, int, int, int]:
        return (self.block, self.inode, self.offset, self.line, self.from_cp, self.to_cp)

    def pack(self) -> bytes:
        return COMBINED_STRUCT.pack(
            self.block, self.inode, self.offset, self.line, self.from_cp, self.to_cp
        )

    @classmethod
    def unpack(cls, data: bytes) -> "CombinedRecord":
        return cls(*COMBINED_STRUCT.unpack(data))

    def covers_version(self, version: int) -> bool:
        """True when the reference exists at CP number ``version``."""
        return self.from_cp <= version < self.to_cp


#: Any record type stored in a read store.
AnyRecord = Union[FromRecord, ToRecord, CombinedRecord]


class BackReference(NamedTuple):
    """A fully resolved query result: one owner of one physical block.

    ``ranges`` is a tuple of half-open ``(from, to)`` CP ranges during which
    the owner referenced the block, after clone expansion and masking of
    deleted snapshots.
    """

    block: int
    inode: int
    offset: int
    line: int
    ranges: Tuple[Tuple[int, int], ...]

    @property
    def is_live(self) -> bool:
        """True when any range extends to the live file system."""
        return any(stop == INFINITY for _, stop in self.ranges)

    def covers_version(self, version: int) -> bool:
        return any(start <= version < stop for start, stop in self.ranges)


# --------------------------------------------------------------- row slabs
#
# The columnar query pipeline does not shuttle NamedTuples between its
# stages.  A decoded leaf page becomes a *slab*: the page's record payload
# byte-swapped to big-endian in one C pass (``array('Q').byteswap``) and
# split into fixed-width per-record ``bytes`` *rows*.  Because every field
# is an unsigned 64-bit integer, big-endian fixed-width rows compare with
# ``memcmp`` in exactly the numeric order the NamedTuples compare in -- so
# heap merges, sort-merge joins, bisects and group folds all run on plain
# byte strings, and a record only becomes a Python object at the public API
# boundary (``BackReference`` emission) or in the narrow arm's record lists.
#
# A key *prefix* packed with :func:`pack_key_prefix` sorts strictly before
# every row that extends it, mirroring how a short tuple like
# ``(first_block,)`` bisects against full 5/6-field record tuples.

#: Big-endian row codecs by field count (4 = identity, 5 = From/To,
#: 6 = Combined).
ROW_STRUCTS = {
    1: struct.Struct(">Q"),
    2: struct.Struct(">2Q"),
    3: struct.Struct(">3Q"),
    4: struct.Struct(">4Q"),
    5: struct.Struct(">5Q"),
    6: struct.Struct(">6Q"),
}

#: Fixed-width row splitters: one C ``iter_unpack`` pass cuts a whole slab
#: into per-record ``bytes`` rows.
_ROW_SPLITTERS = {fields: struct.Struct(f"{fields * 8}s") for fields in (5, 6)}

_NEEDS_BYTESWAP = sys.byteorder == "little"

#: ``to = INFINITY`` as big-endian row bytes: appending it to a 40-byte
#: From row yields the 48-byte Combined row of a live reference.
INFINITY_BE = b"\xff" * 8


def pack_key_prefix(*fields: int) -> bytes:
    """Pack a sort-key prefix for bisecting against big-endian rows.

    ``pack_key_prefix(b)`` compares against full rows exactly like the
    tuple ``(b,)`` compares against full record tuples: before every row
    whose first field is ``>= b`` begins.
    """
    return ROW_STRUCTS[len(fields)].pack(*fields)


def pack_row(record: Sequence[int]) -> bytes:
    """One record tuple -> its big-endian row bytes."""
    return ROW_STRUCTS[len(record)].pack(*record)


def unpack_row(row: bytes) -> Tuple[int, ...]:
    """Big-endian row bytes -> the plain integer field tuple."""
    return ROW_STRUCTS[len(row) // 8].unpack(row)


def _swapped(payload) -> bytes:
    """A little-endian record payload as big-endian bytes (one C pass)."""
    arr = array("Q")
    arr.frombytes(payload)
    if _NEEDS_BYTESWAP:
        arr.byteswap()
    return arr.tobytes()


def rows_from_le_payload(payload, fields: int) -> List[bytes]:
    """Split a little-endian leaf payload into big-endian rows.

    ``payload`` is the page's record region (``count * fields * 8`` bytes,
    bytes or memoryview).  The whole conversion is three C calls: one
    byteswap pass and one fixed-width ``iter_unpack`` split, flattened with
    ``chain.from_iterable``.
    """
    return list(chain.from_iterable(
        _ROW_SPLITTERS[fields].iter_unpack(_swapped(payload))))


def rows_to_le_bytes(rows: Iterable[bytes]) -> bytes:
    """Concatenate big-endian rows back into a little-endian payload."""
    arr = array("Q")
    arr.frombytes(b"".join(rows))
    if _NEEDS_BYTESWAP:
        arr.byteswap()
    return arr.tobytes()


def rows_to_records(rows: Sequence[bytes], record_class) -> List:
    """Materialise rows as NamedTuples in one bulk unpack pass."""
    if not rows:
        return []
    fields = len(rows[0]) // 8
    return list(map(record_class._make,
                    ROW_STRUCTS[fields].iter_unpack(b"".join(rows))))


def records_to_rows(records: Iterable[Sequence[int]], fields: int) -> List[bytes]:
    """Pack record tuples as big-endian rows (write stores, tests)."""
    pack = ROW_STRUCTS[fields].pack
    return [pack(*record) for record in records]


class RecordBlock:
    """A zero-copy view over one decoded leaf page's records.

    Wraps the big-endian slab of a whole page; :meth:`slice` narrows the
    view without copying (memoryview slicing), :meth:`rows` splits it into
    per-record byte rows for the row pipeline, and :meth:`records`
    materialises NamedTuples.  Batch ``sort_key``
    extraction is :meth:`key_prefixes`; :meth:`bisect_left` seeks a packed
    key prefix (:func:`pack_key_prefix`) with 5-u64-wide ``memcmp``
    comparisons instead of per-record tuple construction.
    """

    __slots__ = ("data", "fields", "width")

    def __init__(self, data, fields: int) -> None:
        self.data = memoryview(data)
        self.fields = fields
        self.width = fields * 8

    @classmethod
    def from_le_payload(cls, payload, fields: int) -> "RecordBlock":
        """Decode a little-endian page payload into a block (one byteswap)."""
        return cls(_swapped(payload), fields)

    def __len__(self) -> int:
        return len(self.data) // self.width

    def slice(self, start: int, stop: int) -> "RecordBlock":
        """A narrowed view sharing this block's buffer (no copy)."""
        return RecordBlock(self.data[start * self.width:stop * self.width],
                           self.fields)

    def row(self, index: int) -> bytes:
        return bytes(self.data[index * self.width:(index + 1) * self.width])

    def rows(self) -> List[bytes]:
        """Per-record big-endian rows (one C split pass)."""
        return list(chain.from_iterable(
            _ROW_SPLITTERS[self.fields].iter_unpack(self.data)))

    def key_prefixes(self) -> List[bytes]:
        """Batch sort-key extraction: every record's identity as row bytes."""
        width = self.width
        data = self.data
        return [bytes(data[start:start + 32]) for start in range(0, len(data), width)]

    def records(self, record_class) -> List:
        """Materialise the block as NamedTuples."""
        return list(map(record_class._make,
                        ROW_STRUCTS[self.fields].iter_unpack(self.data)))

    def bisect_left(self, key_prefix: bytes) -> int:
        """First index whose row sorts at or after ``key_prefix``.

        Packed 5-u64 (or shorter) key-prefix comparison: a prefix sorts
        before any row extending it, matching tuple-bisect semantics.
        """
        lo, hi = 0, len(self)
        data, width = self.data, self.width
        prefix_len = len(key_prefix)
        while lo < hi:
            mid = (lo + hi) // 2
            start = mid * width
            head = bytes(data[start:start + prefix_len])
            # bytes compare is memcmp; pad-free prefix ordering matches the
            # short-tuple ordering because equal-prefix rows are longer.
            if head < key_prefix:
                lo = mid + 1
            else:
                hi = mid
        return lo
