"""The in-memory write store (WS).

Between consistency points every back-reference update lands in a write
store.  The paper describes it as a balanced tree sorted by ``(block, inode,
offset, line)`` and then by the boundary CP number (§5.1); what that sort
order actually has to buy is:

* flushing -- the read store is a densely packed B-tree built bottom-up from
  an in-order traversal, so the flush must hand the builder a fully sorted
  stream, and
* proactive pruning -- when a reference is removed, the manager can look up a
  matching From entry with the same key and the current CP number and delete
  the pair outright (the reference never survived a consistency point, so it
  must never reach disk).

Neither requirement needs the buffer to be sorted *at every instant*, so
:class:`WriteStore` is a memtable rather than a tree: a hash map keyed by the
full record identity ``(block, inode, offset, line, cp)`` gives O(1) insert,
exact-match lookup and removal (pruning stays exact), and a sorted snapshot
of the records is built lazily -- once per flush, or when a range query needs
ordered records -- with a dirty flag tracking whether the snapshot is stale.
One ``sorted()`` pass over packed record tuples at consistency-point time is
far cheaper than per-operation tree rebalancing, and record tuples compare in
exactly the sort-key order (their fields *are* the sort key), so no key
function is needed.

There is one write store per table (From and To).  The store also remembers
the set of distinct physical blocks it contains so that queries can consult
it cheaply and the flush can size its Bloom filter.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Union

from repro.core.records import FromRecord, ToRecord

__all__ = ["WriteStore", "FrozenWriteStore"]

_Record = Union[FromRecord, ToRecord]


class FrozenWriteStore:
    """An immutable point-in-time view of a :class:`WriteStore`.

    Produced by :meth:`WriteStore.freeze` when a catalogue snapshot is
    pinned (see :mod:`repro.core.catalogue`): the view wraps the store's
    sorted snapshot list, which the live store *replaces* -- never mutates
    in place -- on every re-sort and on :meth:`WriteStore.clear`, so the
    frozen list stays valid forever without copying a single record.  It
    exposes exactly the read surface the query gather step needs.
    """

    __slots__ = ("_records",)

    def __init__(self, records: List[_Record]) -> None:
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def __iter__(self) -> Iterator[_Record]:
        return iter(self._records)

    def records_for_block_range(self, first_block: int, num_blocks: int) -> List[_Record]:
        """All frozen records for blocks in ``[first_block, first_block + num_blocks)``."""
        records = self._records
        lo = bisect_left(records, (first_block,))
        hi = bisect_left(records, (first_block + num_blocks,))
        return records[lo:hi]


class WriteStore:
    """A buffered set of From or To records with lazily sorted iteration.

    Parameters
    ----------
    table:
        ``"from"`` or ``"to"``; determines the record type accepted and is
        reported in diagnostics.
    """

    def __init__(self, table: str) -> None:
        if table not in ("from", "to"):
            raise ValueError(f"unknown table {table!r}")
        self.table = table
        self._record_class = FromRecord if table == "from" else ToRecord
        # The memtable: record identity -> record.  A From/To record is a
        # NamedTuple whose fields are exactly its sort key, so the record can
        # serve as its own hash key and plain 5-tuples probe it directly.
        self._records: Dict[_Record, _Record] = {}
        self._block_counts: Dict[int, int] = {}
        # Lazily maintained sorted snapshot of self._records.values(), plus
        # the records inserted since it was last built.  While no removal has
        # intervened, a stale snapshot can be refreshed by merging these two
        # sorted runs (O(n)) instead of a full O(n log n) re-sort, which
        # keeps interleaved update/query workloads cheap.
        self._sorted: List[_Record] = []
        self._pending: List[_Record] = []
        self._dirty = False
        self._removed_since_sort = False
        # Guards the containers against concurrent reader threads freezing
        # (or range-reading) the store while the owning thread mutates it.
        # Single-threaded use pays one uncontended acquire per operation.
        self._lock = threading.Lock()
        self.inserts = 0
        self.removals = 0

    # ------------------------------------------------------------ mutation

    def insert(self, record: _Record) -> None:
        """Add a record.  Duplicate keys (same identity and CP) are idempotent."""
        self._check_type(record)
        with self._lock:
            records = self._records
            if record not in records:
                records[record] = record
                counts = self._block_counts
                block = record[0]
                counts[block] = counts.get(block, 0) + 1
                self._pending.append(record)
                self._dirty = True
            self.inserts += 1

    def remove(self, record: _Record) -> bool:
        """Remove a record if present; returns True when something was removed."""
        self._check_type(record)
        return self.remove_key(*record)

    def remove_key(self, block: int, inode: int, offset: int, line: int, cp: int) -> bool:
        """O(1) removal by identity, without materialising a record object.

        This is the proactive-pruning fast path: the update handler can test
        and delete in a single hash-map operation.
        """
        with self._lock:
            record = self._records.pop((block, inode, offset, line, cp), None)
            if record is None:
                return False
            self.removals += 1
            self._dirty = True
            self._removed_since_sort = True
            count = self._block_counts.get(block, 0) - 1
            if count <= 0:
                self._block_counts.pop(block, None)
            else:
                self._block_counts[block] = count
            return True

    def clear(self) -> None:
        """Drop every buffered record (after a successful flush).

        A snapshot previously returned by :meth:`sorted_records` (or held by
        a :class:`FrozenWriteStore`) stays valid; the store starts over with
        fresh containers.
        """
        with self._lock:
            self._records = {}
            self._block_counts = {}
            self._sorted = []
            self._pending = []
            self._dirty = False
            self._removed_since_sort = False

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def contains(self, block: int, inode: int, offset: int, line: int, cp: int) -> bool:
        """Exact-match test used by proactive pruning."""
        return (block, inode, offset, line, cp) in self._records

    def find(self, block: int, inode: int, offset: int, line: int, cp: int) -> Optional[_Record]:
        """Return the exact record if buffered, else ``None``."""
        return self._records.get((block, inode, offset, line, cp))

    def _sorted_records_locked(self) -> List[_Record]:
        """:meth:`sorted_records` body; caller must hold :attr:`_lock`."""
        if self._dirty:
            # Records are NamedTuples whose field order is the sort order, so
            # they compare natively -- no key function, no tuple allocation.
            # Every rebuild binds a *new* list: a previously returned
            # snapshot (or a FrozenWriteStore wrapping one) never changes.
            if self._removed_since_sort:
                self._sorted = sorted(self._records.values())
            else:
                # Only inserts since the last snapshot: append the (small)
                # sorted batch of new records and re-sort; timsort detects
                # the two runs and gallops through the merge in O(n).
                merged = self._sorted + sorted(self._pending)
                merged.sort()
                self._sorted = merged
            self._pending = []
            self._removed_since_sort = False
            self._dirty = False
        return self._sorted

    def sorted_records(self) -> List[_Record]:
        """The records in ``(block, inode, offset, line, cp)`` order.

        Rebuilds the snapshot only when the store changed since the last call
        (sort-on-demand).  The returned list is the store's internal snapshot
        -- treat it as read-only.
        """
        with self._lock:
            return self._sorted_records_locked()

    def freeze(self) -> FrozenWriteStore:
        """An immutable view of the store's current contents.

        O(1) when the sorted snapshot is current (the common case for a
        read-mostly phase); otherwise it pays the one sort a query would have
        paid anyway.  The frozen view shares the snapshot list -- safe
        because the store replaces, never mutates, that list.
        """
        with self._lock:
            return FrozenWriteStore(self._sorted_records_locked())

    def records_for_key(self, block: int, inode: int, offset: int, line: int) -> List[_Record]:
        """All buffered records with the given reference identity."""
        with self._lock:
            snapshot = self._sorted_records_locked()
            lo = bisect_left(snapshot, (block, inode, offset, line))
            hi = bisect_left(snapshot, (block, inode, offset, line + 1))
            return snapshot[lo:hi]

    def records_for_block(self, block: int) -> List[_Record]:
        """All buffered records for one physical block."""
        return self.records_for_block_range(block, 1)

    def records_for_block_range(self, first_block: int, num_blocks: int) -> List[_Record]:
        """All buffered records for blocks in ``[first_block, first_block + num_blocks)``."""
        with self._lock:
            if num_blocks == 1 and first_block not in self._block_counts:
                return []  # point miss: answered from the block index, no sort
            snapshot = self._sorted_records_locked()
            lo = bisect_left(snapshot, (first_block,))
            hi = bisect_left(snapshot, (first_block + num_blocks,))
            return snapshot[lo:hi]

    def may_contain_block(self, block: int) -> bool:
        """Cheap membership check on the distinct-block index."""
        return block in self._block_counts

    def distinct_blocks(self) -> List[int]:
        """Sorted distinct physical blocks present in the store."""
        with self._lock:
            return sorted(self._block_counts)

    def __iter__(self) -> Iterator[_Record]:
        """Yield records in ``(block, inode, offset, line, cp)`` order."""
        return iter(self.sorted_records())

    def memory_estimate_bytes(self) -> int:
        """Rough memory footprint, for the space-overhead accounting."""
        # Each entry holds a record NamedTuple plus dict slots and its share
        # of the sorted snapshot; ~200 bytes is a conservative per-entry
        # figure for CPython.
        return len(self._records) * 200

    # ------------------------------------------------------------ internals

    def _check_type(self, record: _Record) -> None:
        if type(record) is not self._record_class:
            if self.table == "from" and not isinstance(record, FromRecord):
                raise TypeError(f"From write store cannot hold {type(record).__name__}")
            if self.table == "to" and not isinstance(record, ToRecord):
                raise TypeError(f"To write store cannot hold {type(record).__name__}")
