"""Deletion vectors: hiding read-store tuples without rewriting runs.

During normal operation nothing is ever deleted from a read store -- masking
handles snapshot deletion.  Maintenance operations that *relocate* blocks
(defragmentation, volume shrinking) are different: once a block has moved,
its old back references are stale and must not be returned by queries, yet
rewriting every run that mentions the block would be far too expensive.

Following C-Store, Backlog keeps a *deletion vector*: an in-memory (and
small) set of record identities that the query engine filters out of every
read-store result, completely transparently to the query logic (§5.1).  When
the vector grows large, compaction folds it into the rewritten runs and
clears it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Set

from repro.core.records import ReferenceKey, pack_key_prefix, unpack_row

__all__ = ["DeletionVector"]


class DeletionVector:
    """A set of suppressed back-reference identities.

    Entries are reference identities -- suppressing one hides every
    record (From, To, or Combined) with that ``(block, inode, offset, line)``
    identity.  This matches the relocation use case: when a block moves, all
    historical references to the old physical address become irrelevant at
    once.
    """

    def __init__(self) -> None:
        # Identities and their blocks, packed big-endian the way record rows
        # begin, so the columnar query pipeline tests a row with two
        # byte-slice probes and zero per-record unpacking.  Frozen views
        # share both sets.
        self._row_keys: Set[bytes] = set()
        self._row_blocks: Set[bytes] = set()
        # Cached freeze() view.  Valid until clear() rebinds the containers:
        # suppress() need not invalidate it, because views *share* the sets
        # (new suppressions are visible to existing views by design).
        self._frozen_view: Optional["DeletionVector"] = None

    def __len__(self) -> int:
        return len(self._row_keys)

    def __bool__(self) -> bool:
        return bool(self._row_keys)

    def suppress(self, block: int, inode: int, offset: int, line: int) -> None:
        """Hide one reference identity."""
        self._row_keys.add(pack_key_prefix(block, inode, offset, line))
        self._row_blocks.add(pack_key_prefix(block))

    def is_suppressed(self, record) -> bool:
        """True when a From/To/Combined record should be hidden."""
        if pack_key_prefix(record.block) not in self._row_blocks:
            return False
        return pack_key_prefix(record.block, record.inode, record.offset,
                               record.line) in self._row_keys

    def filter(self, records: Iterable) -> Iterator:
        """Yield only records that are not suppressed."""
        for record in records:
            if not self.is_suppressed(record):
                yield record

    def filter_rows(self, rows: Iterable[bytes]) -> Iterator[bytes]:
        """Yield only big-endian rows that are not suppressed."""
        row_blocks = self._row_blocks
        row_keys = self._row_keys
        for row in rows:
            if row[:8] not in row_blocks or row[:32] not in row_keys:
                yield row

    def keys(self) -> Set[ReferenceKey]:
        """The suppressed identities."""
        return {ReferenceKey(*unpack_row(key)) for key in self._row_keys}

    def freeze(self) -> "DeletionVector":
        """A view of the current suppressions for a pinned catalogue snapshot.

        The view *shares* the live sets rather than copying them, which is
        what a snapshot needs: :meth:`clear` after a compaction replaces the
        live containers, so a reader pinned over the *pre*-compaction runs
        keeps filtering with the suppressions those runs still contain --
        clearing must never resurrect suppressed tuples mid-scan.  New
        suppressions added between a ``clear`` and the next pin are visible
        to the view immediately (monotone hiding, same as the live path).
        """
        view = self._frozen_view
        if view is None:
            view = DeletionVector()
            view._row_keys = self._row_keys
            view._row_blocks = self._row_blocks
            self._frozen_view = view
        return view

    def clear(self) -> None:
        """Forget all suppressions (after compaction has rewritten the runs).

        Binds fresh containers instead of emptying the old ones: any frozen
        view pinned before the clear keeps the suppressions that its (old,
        not-yet-rewritten) runs rely on.
        """
        self._row_keys = set()
        self._row_blocks = set()
        self._frozen_view = None

    def memory_estimate_bytes(self) -> int:
        """Rough footprint; the vector is expected to stay small."""
        return len(self._row_keys) * 120 + len(self._row_blocks) * 60
