"""Bloom filters over physical block numbers.

Queries specify a block or a range of blocks, and those blocks may be present
in only some of the Level-0 read-store runs that accumulate between
compactions.  To avoid opening every run, the query engine keeps one Bloom
filter per run, built over the physical block numbers the run contains
(§5.1).  The paper's configuration uses four hash functions and a default
filter size of 32 KB for runs of up to 32 000 operations (expected false
positive rate about 2.4 %), expandable to 1 MB for the Combined read store.

Filters built for small runs are shrunk by repeated halving -- a Bloom filter
whose size is a power of two can be halved by OR-ing its two halves together
without rehashing the underlying keys.  The fold runs on the whole bit array
as one integer (``(v & mask) | (v >> half)``), so it costs a few C passes
over the bytes, not an interpreted step per byte: ~60 us for a 32 KB filter,
~2 ms for a 1 MB one.  A writer that knows an upper bound on its keys skips
most of that too by creating the filter at :func:`fit_bits` of the bound --
the result is bit-identical.

Hashing
-------
Filters hash 64-bit block numbers with a splitmix64-style multiplicative
mixer (two multiply/xor-shift rounds producing the ``h1 + i * h2`` double
hashing pair): a handful of arithmetic operations per key, which matters
because the filter is probed on every query and fed on every flush.

Serialization format
--------------------
One layout: header ``<QQQQ`` = ``(magic | version, num_bits, num_hashes,
num_items)`` followed by the bit array.  The first field
(``_FORMAT_MAGIC``) carries the ASCII bytes ``BLOOMV`` in its upper bytes and
the format version (2) in its low byte.  :meth:`BloomFilter.from_bytes`
raises :class:`ValueError` for any blob that does not start with exactly that
field: the hash scheme is part of the format, so bits written under another
one cannot be probed safely.

Range probes
------------
Besides its block key, every block inserts one *stride key* per
``2**STRIDE_SHIFT``-block aligned group it falls into.  A range query over
hundreds of blocks then probes the filter once per aligned stride
overlapping the range instead of once per block (``num_hashes`` bit tests
per probe either way), at the cost of up to a stride's worth of slack at the
range edges; ranges of at most ``_PER_BLOCK_RANGE_LIMIT`` blocks are still
asked per block.  :func:`range_probe_keys` is that rule as data: the keys a
range asks about, of which any one present admits the range.

Banks
-----
A query over an aged database asks the same question of every run of a
partition, and a filter per run answers it one interpreted probe at a time.
:class:`BloomFilterBank` holds the bit arrays of same-shaped filters
(``num_bits``, ``num_hashes``) end to end, so one key's bit
position is the same in every member and a strided slice
``joined[position >> 3::nbytes]`` picks that byte out of all of them in one C
pass.  The key is hashed once (:func:`hash_pair`), and ``num_hashes`` slices,
each turned into an integer, shifted by ``position & 7`` and AND-ed under a
``0x01``-per-byte mask, leave one byte per member saying whether it may hold
the key -- exactly what ``num_hashes`` bit tests on each member would say.
:meth:`BloomFilter.might_contain` and :meth:`~BloomFilter.might_contain_range`
remain the per-filter reference the bank is tested against.
"""

from __future__ import annotations

import struct
from typing import Iterable, Optional, Sequence, Tuple

__all__ = [
    "BloomFilter",
    "BloomBulkAdder",
    "BloomFilterBank",
    "DEFAULT_FILTER_BITS",
    "COMBINED_FILTER_BITS",
    "STRIDE_SHIFT",
    "MAX_RANGE_BLOCKS",
    "fit_bits",
    "hash_pair",
    "range_probe_keys",
]

#: Default filter size for a From/To run covering one CP (32 KB of bits).
DEFAULT_FILTER_BITS = 32 * 1024 * 8
#: Maximum filter size used for the Combined read store (1 MB of bits).
COMBINED_FILTER_BITS = 1024 * 1024 * 8

#: Range probes test one key per 2**STRIDE_SHIFT-block aligned stride.
STRIDE_SHIFT = 6

#: Ranges wider than this short-circuit to True (the cost of a false
#: negative-free answer would exceed just reading the run).
MAX_RANGE_BLOCKS = 256

#: Below this width a range query probes per block: a stride probe carries up
#: to ``2**STRIDE_SHIFT - 1`` blocks of slack on each edge, which would
#: dominate the false-positive rate of a narrow range.
_PER_BLOCK_RANGE_LIMIT = 16

_HEADER = struct.Struct("<QQQQ")  # magic|version, num_bits, num_hashes, num_items

#: First header field of every serialized filter: "BLOOMV" + NUL in the upper
#: seven bytes, the format version in the low byte.
_FORMAT_MAGIC = 0x424C4F4F4D560000 | 2

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: XORed into stride identifiers so stride keys and block keys cannot alias.
_STRIDE_SEED = 0x8C95B8C1F0F2D3E5

# int.bit_count() arrived in 3.10; requires-python is >= 3.9.
_popcount = int.bit_count if hasattr(int, "bit_count") else lambda value: bin(value).count("1")


def hash_pair(key: int) -> Tuple[int, int]:
    """Splitmix64 double-hashing pair ``(h1, h2)`` for a 64-bit key.

    One full splitmix64 finalizer round; ``h1`` is the mixed value and
    ``h2`` its upper half (made odd), so the ``h1 + i * h2`` probe sequence
    draws both legs from independent, well-mixed bits.  The ``i``-th bit a
    filter of ``num_bits`` bits tests or sets for the key is
    ``(h1 + i * h2) & (num_bits - 1)``, so one pair serves every filter size.
    """
    z = (key + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z ^= z >> 31
    return z, (z >> 32) | 1


def fit_bits(num_keys: int, bits_per_item: int = 10, min_bits: int = 1024) -> int:
    """The power-of-two size :meth:`BloomFilter.shrink_to_fit` settles on.

    Monotonic in ``num_keys``, so a writer holding an upper bound on its
    keys can create the filter at ``fit_bits(bound)`` instead of at the
    configured maximum: positions are ``h & (num_bits - 1)``, which makes a
    filter built small bit-identical to one built large and halved down.
    """
    return 1 << (max(min_bits, num_keys * bits_per_item, 8) - 1).bit_length()


def range_probe_keys(first_block: int, num_blocks: int) -> Iterable[int]:
    """The keys a filter is asked about for ``[first_block, first_block + num_blocks)``.

    Any one of them present admits the range.  Ranges wider than
    ``_PER_BLOCK_RANGE_LIMIT`` are answered from the stride key of every
    aligned stride the range overlaps; narrower ranges are asked about each
    block.  Only meaningful up to :data:`MAX_RANGE_BLOCKS`: wider ranges are
    admitted unasked.
    """
    if num_blocks > _PER_BLOCK_RANGE_LIMIT:
        first_stride = first_block >> STRIDE_SHIFT
        last_stride = (first_block + num_blocks - 1) >> STRIDE_SHIFT
        return [stride ^ _STRIDE_SEED for stride in range(first_stride, last_stride + 1)]
    return range(first_block, first_block + num_blocks)


class BloomFilter:
    """A standard Bloom filter with ``k`` independent hash functions.

    The filter hashes 64-bit block numbers.  Membership tests never produce
    false negatives; the false-positive rate depends on the bit size and the
    number of inserted items.
    """

    def __init__(self, num_bits: int = DEFAULT_FILTER_BITS, num_hashes: int = 4) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        # Round the size up to a power of two so the filter can be halved.
        self.num_bits = 1 << (num_bits - 1).bit_length()
        self.num_hashes = num_hashes
        self._bits = bytearray(self.num_bits // 8)
        self.num_items = 0
        # Distinct keys actually hashed into the filter (block keys plus
        # stride keys).  Drives shrink_to_fit sizing: a filter over scattered
        # blocks inserts up to two keys per item and must not be shrunk as if
        # it held one.
        self._keys_inserted = 0

    # ------------------------------------------------------------ interface

    def add(self, block: int) -> None:
        """Insert a block number."""
        self._insert_blocks((block,))

    def add_many(self, blocks: Iterable[int]) -> None:
        """Bulk insert.  Consecutive duplicate blocks are hashed only once.

        The read-store builder feeds this the (block-sorted) record stream of
        a run, where long runs of records share one physical block -- and
        one aligned stride; skipping the repeat hashing makes the flush
        cheaper without changing the bit array.  ``num_items`` still counts
        every supplied item, so filter sizing follows the record count.
        """
        self._insert_blocks(blocks)

    def bulk_adder(self) -> "BloomBulkAdder":
        """A stateful bulk inserter that deduplicates *across* chunks.

        :meth:`add_many` forgets its last-block/last-stride dedup state when
        it returns, so feeding it one leaf at a time re-hashes every block
        that spans a leaf boundary (idempotent for the bit array, but wasted
        hashing and an inflated ``_keys_inserted``).  The read-store writer
        obtains one adder per run and feeds it every leaf's key slice; the
        bulk ``build`` path feeds the same adder the whole sorted record
        array in one chunk.  Both routes run the one insertion loop
        (:meth:`_insert_blocks`), so the filter bits and key counts are
        chunk-invariant -- the two writer interfaces stay byte-identical.
        """
        return BloomBulkAdder(self)

    def might_contain(self, block: int) -> bool:
        """True if ``block`` may have been inserted (no false negatives)."""
        h1, h2 = hash_pair(block)
        bits = self._bits
        mask = self.num_bits - 1
        for _ in range(self.num_hashes):
            position = h1 & mask
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
            h1 += h2
        return True

    def might_contain_range(self, first_block: int, num_blocks: int) -> bool:
        """True if any block in ``[first_block, first_block + num_blocks)`` may be present.

        Wide ranges are answered with one probe per aligned
        ``2**STRIDE_SHIFT``-block stride (see the module docstring), narrow
        ones per block.  Ranges wider than ``MAX_RANGE_BLOCKS`` short-circuit
        to ``True``.
        """
        if num_blocks <= 0:
            return False
        if num_blocks > MAX_RANGE_BLOCKS:
            return True
        return any(map(self.might_contain, range_probe_keys(first_block, num_blocks)))

    # ------------------------------------------------------------- resizing

    def shrink_to(self, target_bits: int) -> None:
        """Halve the filter repeatedly until it is no larger than ``target_bits``.

        Halving ORs the upper half of the bit array onto the lower half; all
        previously inserted keys (including stride keys) remain members
        because the position masks are consistent power-of-two moduli.  The
        array is folded as one integer, so the cost is C passes over its
        bytes (module docstring), whatever the number of halvings.
        """
        if target_bits <= 0:
            raise ValueError("target_bits must be positive")
        num_bits = self.num_bits
        if num_bits <= target_bits or num_bits <= 8:
            return
        value = int.from_bytes(self._bits, "little")
        while num_bits > target_bits and num_bits > 8:
            num_bits >>= 1
            value = (value & ((1 << num_bits) - 1)) | (value >> num_bits)
        self.num_bits = num_bits
        self._bits = bytearray(value.to_bytes(num_bits // 8, "little"))

    def shrink_to_fit(self, bits_per_item: int = 10, min_bits: int = 1024) -> None:
        """Shrink the filter to roughly ``bits_per_item`` bits per inserted item.

        Runs flushed during quiet periods contain far fewer than 32 000
        records; shrinking their filters saves memory without a meaningful
        increase in false positives.  Sizing honours whichever is larger of
        the item count and the keys actually hashed, so a filter over
        scattered blocks (whose stride keys nearly double the inserted
        keys) is not shrunk below its real load.  :func:`fit_bits` is the
        sizing rule, shared with writers that size the filter up front.
        """
        self.shrink_to(fit_bits(max(self.num_items, self._keys_inserted),
                                bits_per_item, min_bits))

    # -------------------------------------------------------- serialization

    def to_bytes(self) -> bytes:
        """Serialize the filter (stored alongside its read-store run)."""
        header = _HEADER.pack(_FORMAT_MAGIC, self.num_bits, self.num_hashes, self.num_items)
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """Deserialize a :meth:`to_bytes` blob, validating the header.

        Raises :class:`ValueError` on foreign or corrupt input: short or
        truncated blobs, a first field that is not this format's magic and
        version, a non-power-of-two bit count, or an implausible hash count.
        Trailing padding after the bit array is tolerated (run files store
        the filter in whole pages).
        """
        if len(data) < _HEADER.size:
            raise ValueError("Bloom filter blob shorter than its header")
        magic, num_bits, num_hashes, num_items = _HEADER.unpack_from(data, 0)
        if magic != _FORMAT_MAGIC:
            raise ValueError(f"not a version-2 Bloom filter blob (first field {magic:#x})")
        if num_bits < 8 or num_bits & (num_bits - 1):
            raise ValueError(f"corrupt Bloom filter: num_bits={num_bits} is not a power of two >= 8")
        if not 1 <= num_hashes <= 64:
            raise ValueError(f"corrupt Bloom filter: implausible num_hashes={num_hashes}")
        payload_size = num_bits // 8
        if len(data) - _HEADER.size < payload_size:
            raise ValueError(
                f"truncated Bloom filter: need {payload_size} payload bytes, "
                f"have {len(data) - _HEADER.size}"
            )
        instance = cls.__new__(cls)
        instance.num_bits = num_bits
        instance.num_hashes = num_hashes
        instance.num_items = num_items
        # Not serialized; a conservative reconstruction for any later shrink.
        instance._keys_inserted = num_items * 2
        instance._bits = bytearray(data[_HEADER.size:_HEADER.size + payload_size])
        return instance

    # ----------------------------------------------------------- statistics

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

    def fill_ratio(self) -> float:
        """Fraction of bits set (a rough proxy for false-positive pressure)."""
        return _popcount(int.from_bytes(self._bits, "little")) / self.num_bits

    def expected_false_positive_rate(self) -> float:
        """False-positive probability estimated from the observed fill.

        Computed as ``fill_ratio() ** num_hashes`` rather than from the
        analytic ``num_items`` formula, so it stays accurate although stride
        keys set bits beyond the per-item accounting (and for filters that
        have been halved).
        """
        if self.num_items == 0:
            return 0.0
        return self.fill_ratio() ** self.num_hashes

    # ------------------------------------------------------------ internals

    def _insert_blocks(self, blocks: Iterable[int], last: Optional[int] = None,
                       last_stride: Optional[int] = None
                       ) -> Tuple[Optional[int], Optional[int]]:
        """The insertion loop: every ``add*`` entry point lands here.

        Hashes each block that differs from its predecessor and the stride
        key of each aligned group that differs from its predecessor's
        (block-sorted input repeats both for long stretches).  ``last`` and
        ``last_stride`` seed that duplicate-skipping state and the final
        state is returned, which is all :class:`BloomBulkAdder` adds.  The
        splitmix64 mixer of :func:`hash_pair` is inlined: a call per key
        costs more than the arithmetic.
        """
        bits = self._bits
        mask = self.num_bits - 1
        hashes = range(self.num_hashes)
        mask64, golden, mix1, mix2 = _MASK64, _GOLDEN, _MIX1, _MIX2
        count = keys = 0
        for block in blocks:
            count += 1
            if block == last:
                continue
            last = block
            keys += 1
            h1 = (block + golden) & mask64
            h1 = ((h1 ^ (h1 >> 30)) * mix1) & mask64
            h1 = ((h1 ^ (h1 >> 27)) * mix2) & mask64
            h1 ^= h1 >> 31
            h2 = (h1 >> 32) | 1
            for _ in hashes:
                position = h1 & mask
                bits[position >> 3] |= 1 << (position & 7)
                h1 += h2
            stride = block >> STRIDE_SHIFT
            if stride != last_stride:
                last_stride = stride
                keys += 1
                h1 = ((stride ^ _STRIDE_SEED) + golden) & mask64
                h1 = ((h1 ^ (h1 >> 30)) * mix1) & mask64
                h1 = ((h1 ^ (h1 >> 27)) * mix2) & mask64
                h1 ^= h1 >> 31
                h2 = (h1 >> 32) | 1
                for _ in hashes:
                    position = h1 & mask
                    bits[position >> 3] |= 1 << (position & 7)
                    h1 += h2
        self.num_items += count
        self._keys_inserted += keys
        return last, last_stride

class BloomFilterBank:
    """Same-shaped filters laid end to end and probed together.

    Immutable: :meth:`extended` returns a new bank.  Members are addressed by
    the order they were supplied in; :meth:`probe` answers for all of them at
    once as an integer with bit ``8 * i`` set iff member ``i`` may contain
    one of the keys (see the module docstring for how).  The bank copies the
    members' bits, so filters must be complete before they join one.
    """

    __slots__ = ("num_bits", "num_hashes", "_joined", "_nbytes", "_ones")

    def __init__(self, filters: Sequence[BloomFilter],
                 base: Optional["BloomFilterBank"] = None) -> None:
        shape = self.shape_of(base if base is not None else filters[0])
        if any(self.shape_of(member) != shape for member in filters):
            raise ValueError("a BloomFilterBank holds filters of one shape")
        self.num_bits, self.num_hashes = shape
        self._nbytes = self.num_bits // 8
        parts = [member._bits for member in filters]
        if base is not None:
            parts.insert(0, base._joined)
        self._joined = b"".join(parts)
        self._ones = int.from_bytes(b"\x01" * len(self), "little")

    @staticmethod
    def shape_of(bloom_filter) -> Tuple[int, int]:
        """What members of one bank share: ``(num_bits, num_hashes)``."""
        return (bloom_filter.num_bits, bloom_filter.num_hashes)

    def extended(self, filters: Sequence[BloomFilter]) -> "BloomFilterBank":
        """A bank of this one's members followed by ``filters`` (one concatenation)."""
        return BloomFilterBank(filters, base=self)

    def __len__(self) -> int:
        return len(self._joined) // self._nbytes

    @property
    def size_bytes(self) -> int:
        """Memory held by the bank's copy of its members' bits."""
        return len(self._joined)

    def probe(self, pairs: Iterable[Tuple[int, int]]) -> int:
        """Members that may contain at least one of the hashed keys.

        ``pairs`` are the keys' :func:`hash_pair` s.  Bit ``8 * i`` of the
        result is set iff, for one of them, every one of member ``i``'s
        ``num_hashes`` bits is set -- the answer ``any(map(member.
        might_contain, keys))`` gives.
        """
        joined = self._joined
        nbytes = self._nbytes
        mask = self.num_bits - 1
        ones = self._ones
        hashes = range(self.num_hashes)
        found = 0
        for h1, h2 in pairs:
            hits = ones
            for _ in hashes:
                position = h1 & mask
                # One byte per member; the shift drags each byte's tested bit
                # down to its bit 0, which is all the 0x01-per-byte mask keeps.
                hits &= int.from_bytes(joined[position >> 3::nbytes], "little") \
                    >> (position & 7)
                if not hits:
                    break
                h1 += h2
            else:
                found |= hits
                if found == ones:
                    break
        return found


class BloomBulkAdder:
    """:meth:`BloomFilter.add_many` with dedup state that survives chunks.

    Created through :meth:`BloomFilter.bulk_adder`.  Feeding N chunks
    produces exactly the bits and key counts of feeding their concatenation
    in one call -- the chunk-invariance the read-store writer relies on to
    keep its streaming (leaf-at-a-time) and bulk (whole sorted array)
    interfaces byte-identical.  Not thread safe; each flush job owns its
    adder exclusively, like the filter under construction itself.
    """

    __slots__ = ("_filter", "_last", "_last_stride")

    def __init__(self, bloom_filter: BloomFilter) -> None:
        self._filter = bloom_filter
        self._last: Optional[int] = None
        self._last_stride: Optional[int] = None

    def add_chunk(self, blocks: Iterable[int]) -> None:
        """Insert one block-sorted chunk, skipping carried-over duplicates."""
        self._last, self._last_stride = self._filter._insert_blocks(
            blocks, self._last, self._last_stride)
