"""Snapshot-isolated views of the back-reference database.

The LSM catalogue's runs are immutable once written -- the same insight
LevelDB-style stores exploit for their version sets -- so a reader does not
need to exclude writers; it needs an *immutable view* of which runs (and
which in-memory records) existed when it started.  Before this module, a
query pipeline read the live catalogue and the live write stores, and a
concurrent ``checkpoint()``/``maintain()`` could delete a run file out from
under an open cursor mid-stream.

:class:`Catalogue` composes the pieces of that view:

* :meth:`Catalogue.select` pins the current catalogue version in the
  :class:`~repro.core.lsm.RunManager` (a refcount per version) and freezes
  the two write stores and the deletion vector, returning a
  :class:`CatalogueSnapshot`;
* while the snapshot is pinned, no run file it references is ever deleted --
  ``replace_partition``/``quarantine_run`` publish a new catalogue version
  and *defer* file deletion (with a durable ``.retired`` tombstone) until
  the last pin that can still see the file drops (epoch reclamation);
* :meth:`Catalogue.publishing` is the flush path's atomicity guard: run
  registration and the write-store clear happen under it, and ``select``
  takes the same lock, so a snapshot observes a consistency point either
  entirely (new runs, empty stores) or not at all (no runs, full stores) --
  never a state where flushed records are both on disk and in memory.

A snapshot is cheap: one lock acquisition, the manager's cached partition ->
runs mapping with its run-index memo (both shared by every snapshot pinned
between two catalogue mutations, and only the touched partitions' lists
copied after one), and three O(1) freezes (the write stores share their
sorted snapshot lists, which the live stores replace rather than mutate).
Releasing is mandatory -- the query engine releases in the same ``finally``
blocks that finalise query statistics -- and idempotent.

**The run index.**  ``runs_for_block_range`` is the prefilter of every
query, and on an aged database a partition holds a hundred runs of which two
or three hold the block.  :class:`PartitionRunIndex` answers for a whole
partition at once: its runs' Bloom filters grouped by shape into
:class:`~repro.core.bloom.BloomFilterBank` s, a key hashed once per query and
tested against each bank in ``num_hashes`` C-level passes, the
``[min_block, max_block]`` fence applied to the survivors only.  An index is
immutable and belongs to one run list; the first reader to ask about a
partition builds it (loading any filter recovery left on disk inside that
query's read tally), later readers of the same catalogue copy find it in the
shared memo, and the flush path never touches it.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.bloom import (
    MAX_RANGE_BLOCKS,
    BloomFilterBank,
    hash_pair,
    range_probe_keys,
)
from repro.core.deletion_vector import DeletionVector
from repro.core.lsm import RunManager
from repro.core.read_store import ReadStoreReader
from repro.core.write_store import FrozenWriteStore, WriteStore

__all__ = ["Catalogue", "CatalogueSnapshot", "PartitionRunIndex"]


class PartitionRunIndex:
    """Which runs of one partition admit a block range, asked of all at once.

    Built for one run list (:attr:`runs`, in catalogue order) and immutable.
    The admission rule is the per-run reference's --
    ``ReadStoreReader.might_contain_range``: the run's block fence, then for
    ranges of up to :data:`~repro.core.bloom.MAX_RANGE_BLOCKS` blocks any of
    :func:`~repro.core.bloom.range_probe_keys` present in its filter -- and
    :meth:`candidates` returns exactly the runs that rule admits, in
    catalogue order.
    """

    __slots__ = ("runs", "_position", "_banks")

    def __init__(self, runs: List[ReadStoreReader],
                 previous: Optional["PartitionRunIndex"] = None) -> None:
        """Index ``runs``; ``previous`` is an index of an earlier run list.

        When every run ``previous`` covers is still in ``runs`` (consistency
        points only add runs) its banks are extended by the new runs'
        filters, one concatenation per shape; otherwise they are regrouped
        from scratch.  Reading ``run.bloom`` loads a filter recovery left on
        disk, so the caller's open read tally pays for it.
        """
        self.runs = runs
        self._position = {run: index for index, run in enumerate(runs)}
        banks: Dict[Tuple[int, int], Tuple[BloomFilterBank, List[ReadStoreReader]]] = {}
        added: Iterable[ReadStoreReader] = runs
        if previous is not None and all(run in self._position for run in previous.runs):
            banks = dict(previous._banks)
            added = [run for run in runs if run not in previous._position]
        by_shape: Dict[Tuple[int, int], List[ReadStoreReader]] = {}
        for run in added:
            by_shape.setdefault(BloomFilterBank.shape_of(run.bloom), []).append(run)
        for shape, members in by_shape.items():
            filters = [run.bloom for run in members]
            if shape in banks:
                bank, earlier = banks[shape]
                banks[shape] = (bank.extended(filters), earlier + members)
            else:
                banks[shape] = (BloomFilterBank(filters), members)
        self._banks = banks

    @property
    def size_bytes(self) -> int:
        """Bytes of filter bits the index holds a second copy of."""
        return sum(bank.size_bytes for bank, _ in self._banks.values())

    def candidates(self, first_block: int, num_blocks: int) -> List[ReadStoreReader]:
        """The runs that may hold a block of ``[first_block, first_block + num_blocks)``."""
        if num_blocks <= 0:
            return []
        end_block = first_block + num_blocks
        if num_blocks > MAX_RANGE_BLOCKS:
            # Too wide for the filters to be asked: the fence alone decides.
            return [run for run in self.runs
                    if end_block > run.min_block and first_block <= run.max_block]
        admitted: List[ReadStoreReader] = []
        pairs = [hash_pair(key) for key in range_probe_keys(first_block, num_blocks)]
        for bank, members in self._banks.values():
            hits = bank.probe(pairs)
            while hits:
                lowest = hits & -hits
                hits ^= lowest
                run = members[lowest.bit_length() >> 3]
                if end_block > run.min_block and first_block <= run.max_block:
                    admitted.append(run)
        if len(admitted) > 1:
            # Banks interleave in the catalogue, and an extended bank holds
            # its members in the order they arrived.
            admitted.sort(key=self._position.__getitem__)
        return admitted


class CatalogueSnapshot:
    """A pinned, immutable view of runs + write stores + deletion vector.

    Everything the query read path consults, fixed at pin time:

    * :meth:`runs_for` / :meth:`runs_for_block_range` answer from the copied
      run lists -- concurrent flushes and compactions are invisible -- the
      latter through the per-partition :class:`PartitionRunIndex`;
    * :attr:`ws_from` / :attr:`ws_to` are :class:`~repro.core.write_store.
      FrozenWriteStore` views of the in-memory records;
    * :attr:`deletion_vector` keeps the suppressions the snapshot's runs
      still contain even if a compaction clears the live vector mid-scan.

    The snapshot is a context manager; :meth:`release` (idempotent, thread
    safe) drops the pin, which may reclaim deferred-delete files.
    """

    __slots__ = ("version", "ws_from", "ws_to", "deletion_vector",
                 "_runs", "_index", "_manager", "_release_lock")

    def __init__(self, version: int, runs: Dict[int, List[ReadStoreReader]],
                 index: Dict[int, PartitionRunIndex],
                 ws_from: FrozenWriteStore, ws_to: FrozenWriteStore,
                 deletion_vector: DeletionVector, manager: RunManager) -> None:
        self.version = version
        self.ws_from = ws_from
        self.ws_to = ws_to
        self.deletion_vector = deletion_vector
        self._runs = runs
        # The run-index memo shared with every snapshot pinned from the same
        # copy of the catalogue (RunManager.pin_catalogue).  Filled without a
        # lock: entries are immutable and checked against this snapshot's own
        # run list before use, so two readers racing to index one partition
        # both build a correct entry and the later store wins.
        self._index = index
        self._manager: Optional[RunManager] = manager
        self._release_lock = threading.Lock()

    # ------------------------------------------------------------- reading

    def partitions(self) -> List[int]:
        return sorted(self._runs)

    def runs_for(self, partition: int) -> List[ReadStoreReader]:
        return self._runs.get(partition, [])

    def runs_for_block_range(self, partitions: Sequence[int], first_block: int,
                             num_blocks: int) -> List[ReadStoreReader]:
        """Runs whose Bloom filter (and block bounds) admit the given range.

        In partition order and, within a partition, catalogue order.  Each
        partition answers through its :class:`PartitionRunIndex`, built here
        on first use -- or rebuilt, when the memo's entry belongs to another
        run list (a partition this snapshot sees mutated).
        """
        candidates: List[ReadStoreReader] = []
        for partition in partitions:
            runs = self._runs.get(partition)
            if not runs:
                continue
            index = self._index.get(partition)
            if index is None or index.runs is not runs:
                index = self._index[partition] = PartitionRunIndex(runs, index)
            candidates.extend(index.candidates(first_block, num_blocks))
        return candidates

    def run_names(self) -> List[str]:
        """Every run file this snapshot holds pinned (diagnostics, tests)."""
        return [run.name for runs in self._runs.values() for run in runs]

    # ------------------------------------------------------------ lifetime

    @property
    def released(self) -> bool:
        return self._manager is None

    def release(self) -> None:
        """Drop the pin (idempotent); may reclaim deferred-delete files."""
        with self._release_lock:
            manager, self._manager = self._manager, None
        if manager is not None:
            manager.release_version(self.version)

    def acquire(self):
        """Take an extra pin on this snapshot's version; returns its releaser.

        The query fan-out calls this when it submits a partition gather to a
        worker: the job holds its own pin (released exactly once in the job's
        ``finally``) so the run files it reads survive even if the cursor
        that spawned it releases the snapshot before the job completes.
        Raises ``ValueError`` if the snapshot is already released -- there is
        no pin left to extend.
        """
        with self._release_lock:
            manager = self._manager
            if manager is None:
                raise ValueError("cannot acquire a released CatalogueSnapshot")
            manager.acquire_version(self.version)
        version = self.version
        return lambda: manager.release_version(version)

    def __enter__(self) -> "CatalogueSnapshot":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


class Catalogue:
    """The versioned composition the query engine pins snapshots from."""

    def __init__(self, run_manager: RunManager, ws_from: WriteStore,
                 ws_to: WriteStore, deletion_vector: DeletionVector) -> None:
        self.run_manager = run_manager
        self.ws_from = ws_from
        self.ws_to = ws_to
        self.deletion_vector = deletion_vector
        # Serialises select() against the flush path's registration+clear
        # critical section (see ``publishing``).  Never held while doing
        # I/O; snapshot construction under it is a few dict/list copies.
        self._publish_lock = threading.Lock()

    def select(self) -> CatalogueSnapshot:
        """Pin the current database view and return its snapshot."""
        with self._publish_lock:
            version, runs, index = self.run_manager.pin_catalogue()
            return CatalogueSnapshot(
                version, runs, index,
                self.ws_from.freeze(), self.ws_to.freeze(),
                self.deletion_vector.freeze(),
                self.run_manager,
            )

    def publishing(self) -> "threading.Lock":
        """The flush path's publish guard, used as a context manager.

        ``Backlog.on_consistency_point`` holds this across run registration
        and the write-store clears, making the CP's visibility switch atomic
        with respect to :meth:`select`: a snapshot sees the flushed records
        either only in the new Level-0 runs or only in the write stores.
        """
        return self._publish_lock

    def pinned_snapshots(self) -> int:
        """Outstanding pins across all versions (diagnostics and tests)."""
        return self.run_manager.pinned_readers()
