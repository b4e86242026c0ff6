"""Physical block allocation with snapshot-aware deferred freeing.

In a write-anywhere file system a physical block cannot be reused as soon as
the live file system stops referencing it: any retained snapshot whose tree
was captured while the block was allocated still points at it.  The allocator
therefore keeps, for every block whose live references have dropped to zero,
the half-open range of consistency points during which it was referenced, and
only returns the block to the free pool once no retained snapshot version
falls inside that range.

Deduplication adds plain reference counting on top: several logical pointers
(different inodes, offsets, or volumes) may share one physical block, and the
block only becomes a candidate for freeing when the last live reference goes
away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.util.intervals import any_version_in

__all__ = ["AllocatorStats", "BlockAllocator"]


@dataclass
class AllocatorStats:
    """Counters describing allocator activity."""

    allocations: int = 0
    frees: int = 0
    deferred: int = 0
    reclaimed: int = 0


@dataclass
class _DeferredFree:
    """A block waiting for the snapshots that pin it to go away."""

    block: int
    first_cp: int
    last_cp: int  # exclusive: the CP at which the last live reference was dropped


class BlockAllocator:
    """Allocates physical block numbers and tracks live reference counts.

    The allocator hands out monotonically increasing block numbers, recycling
    numbers from the free list first (lowest first) so that the physical
    address space stays dense -- this matters for the horizontal-partitioning
    experiments, which split the back-reference database by physical block
    ranges.
    """

    def __init__(self) -> None:
        self._next_block = 0
        self._free: List[int] = []
        self._refcounts: Dict[int, int] = {}
        self._first_cp: Dict[int, int] = {}
        self._deferred: List[_DeferredFree] = []
        self.stats = AllocatorStats()

    # ------------------------------------------------------------ allocation

    def allocate(self, current_cp: int) -> int:
        """Allocate a fresh physical block with one live reference."""
        if self._free:
            block = self._free.pop()
        else:
            block = self._next_block
            self._next_block += 1
        self._refcounts[block] = 1
        self._first_cp[block] = current_cp
        self.stats.allocations += 1
        return block

    def add_ref(self, block: int) -> int:
        """Add a live reference to an already-allocated block (dedup/clone).

        Returns the new reference count.
        """
        if block not in self._refcounts:
            raise KeyError(f"block {block} is not allocated")
        self._refcounts[block] += 1
        return self._refcounts[block]

    def drop_ref(self, block: int, current_cp: int) -> int:
        """Drop a live reference; defer the free until snapshots allow it.

        Returns the remaining live reference count.
        """
        count = self._refcounts.get(block)
        if count is None:
            raise KeyError(f"block {block} is not allocated")
        if count == 1:
            del self._refcounts[block]
            first_cp = self._first_cp.pop(block)
            self._deferred.append(_DeferredFree(block, first_cp, current_cp))
            self.stats.frees += 1
            self.stats.deferred += 1
            return 0
        self._refcounts[block] = count - 1
        return count - 1

    def revive(self, block: int) -> None:
        """Bring a deferred (snapshot-only) block back to one live reference.

        This happens when a writable clone is created from a snapshot that
        references blocks the live file system has already stopped using: the
        clone's image makes them live again.  The block keeps its original
        allocation CP.
        """
        for index, entry in enumerate(self._deferred):
            if entry.block == block:
                del self._deferred[index]
                self._refcounts[block] = 1
                self._first_cp[block] = entry.first_cp
                self.stats.deferred -= 1
                return
        raise KeyError(f"block {block} is not deferred")

    def add_ref_or_revive(self, block: int) -> int:
        """Add a live reference, reviving the block if it was deferred."""
        if block in self._refcounts:
            return self.add_ref(block)
        self.revive(block)
        return 1

    # --------------------------------------------------------------- queries

    def refcount(self, block: int) -> int:
        """Live reference count of ``block`` (0 if not live)."""
        return self._refcounts.get(block, 0)

    def is_allocated(self, block: int) -> bool:
        return block in self._refcounts

    @property
    def live_blocks(self) -> int:
        """Number of blocks with at least one live reference."""
        return len(self._refcounts)

    @property
    def physical_blocks_in_use(self) -> int:
        """Blocks that cannot be reused yet (live + pinned by snapshots)."""
        return len(self._refcounts) + len(self._deferred)

    @property
    def deferred_blocks(self) -> int:
        return len(self._deferred)

    def iter_live_blocks(self) -> Iterable[Tuple[int, int]]:
        """Yield ``(block, refcount)`` for every live block."""
        return iter(sorted(self._refcounts.items()))

    def refcount_histogram(self) -> Dict[int, int]:
        """Map reference count -> number of live blocks with that count.

        Used to validate the deduplication emulation against the paper's
        target distribution (roughly 75-78 % of blocks at refcount 1, 18 % at
        2, 5 % at 3, ...).
        """
        histogram: Dict[int, int] = {}
        for count in self._refcounts.values():
            histogram[count] = histogram.get(count, 0) + 1
        return histogram

    # ----------------------------------------------------------- reclamation

    def reclaim(self, retained_versions: Sequence[int]) -> List[int]:
        """Free deferred blocks not pinned by any retained snapshot version.

        Parameters
        ----------
        retained_versions:
            Sorted or unsorted collection of CP numbers that are still
            reachable (retained snapshots plus the current live CP).  A
            deferred block with lifetime ``[first_cp, last_cp)`` is pinned if
            any retained version ``v`` satisfies ``first_cp <= v < last_cp``.

        Returns
        -------
        The list of block numbers returned to the free pool.
        """
        retained = sorted(set(retained_versions))
        still_deferred: List[_DeferredFree] = []
        reclaimed: List[int] = []
        for entry in self._deferred:
            if any_version_in(retained, entry.first_cp, entry.last_cp):
                still_deferred.append(entry)
            else:
                reclaimed.append(entry.block)
        self._deferred = still_deferred
        if reclaimed:
            self._free.extend(reclaimed)
            self._free.sort(reverse=True)
            self.stats.reclaimed += len(reclaimed)
        return sorted(reclaimed)
