"""Stepped-merge organisation of read-store runs.

Backlog follows the Stepped-Merge variant of the LSM-tree (§5.1): each
consistency point writes the whole write store as a new *Level-0 run* rather
than merging it into an existing tree (a consistency point must make all
accumulated updates durable, so partial merges are not an option).  Level-0
runs accumulate until database maintenance merges them -- together with any
existing Combined run -- into a single compacted run per partition.

:class:`RunManager` is the catalogue of live runs.  It tracks, for every
partition, the ordered list of runs per table and keeps their Bloom filters
in memory.  The query engine's
"which runs might contain this block range?" question is answered from a
pinned copy of the catalogue (:mod:`repro.core.catalogue`), through a
per-partition run index whose storage and invalidation live here, beside the
run lists the pins hand out (:meth:`RunManager.pin_catalogue`).
"""

from __future__ import annotations

import heapq
import struct
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.read_store import ReadStoreReader, ReadStoreWriter
from repro.fsim.blockdev import StorageBackend
from repro.fsim.cache import PageCache

__all__ = ["RunManager", "rebuild_run_manager", "run_name", "parse_run_name",
           "merge_sorted_runs", "tombstone_name", "parse_tombstone_name",
           "TOMBSTONE_SUFFIX"]

TABLES = ("from", "to", "combined")

#: Suffix of the durable marker written next to a run file whose deletion is
#: deferred behind pinned readers (epoch reclamation).  The marker is what
#: lets recovery and ``repro scrub`` distinguish a deferred-delete file --
#: retired from the catalogue but still streamed by a pinned snapshot at the
#: time of a crash -- from a genuine leak or crash leftover.  A tombstone's
#: leaf never parses as a run name (the sequence digits gain a non-digit
#: suffix), so every existing backend scan skips it naturally.
TOMBSTONE_SUFFIX = ".retired"


def tombstone_name(name: str) -> str:
    """The durable deferred-delete marker for run file ``name``."""
    return name + TOMBSTONE_SUFFIX


def parse_tombstone_name(name: str) -> Optional[str]:
    """The run name a tombstone marks, or ``None`` for any other file."""
    if not name.endswith(TOMBSTONE_SUFFIX):
        return None
    run = name[: -len(TOMBSTONE_SUFFIX)]
    return run if parse_run_name(run) is not None else None


def run_name(partition: int, table: str, level: str, sequence: int) -> str:
    """Canonical file name for a run: ``p<partition>/<table>/<level>_<sequence>``."""
    return f"p{partition:06d}/{table}/{level}_{sequence:010d}"


def parse_run_name(name: str) -> Optional[Tuple[int, str, str, int]]:
    """Parse a run file name into ``(partition, table, level, sequence)``.

    The inverse of :func:`run_name`.  Returns ``None`` for files that are not
    Backlog runs (a shared backend may contain other files).
    """
    parts = name.split("/")
    if len(parts) != 3:
        return None
    partition_part, table, leaf = parts
    if not partition_part.startswith("p") or not partition_part[1:].isdigit():
        return None
    if table not in TABLES:
        return None
    level, separator, sequence = leaf.rpartition("_")
    if not separator or not level.isalnum() or not sequence.isdigit():
        return None
    return int(partition_part[1:]), table, level, int(sequence)


def merge_sorted_runs(iterators: Sequence[Iterator]) -> Iterator:
    """Merge several already-sorted row (or record) iterators into one stream.

    Merging is cheap because every run is sorted identically (§5.2); this is
    the merge compaction runs over each table's
    :meth:`~repro.core.read_store.ReadStoreReader.iter_rows` streams.
    Big-endian rows compare with ``memcmp`` in record order (and record
    NamedTuples natively, their field order being the sort-key order), so
    ``heapq.merge`` needs no key function, and ties preserve input order
    (earlier iterators win).
    """
    return heapq.merge(*iterators)


@dataclass
class _PartitionRuns:
    """Run lists for one partition, per table, in creation order."""

    runs: Dict[str, List[ReadStoreReader]] = field(default_factory=lambda: {t: [] for t in TABLES})

    def all_runs(self) -> List[ReadStoreReader]:
        return [run for table in TABLES for run in self.runs[table]]


class RunManager:
    """Catalogue of on-disk read-store runs, organised by partition and table.

    Catalogue mutation is thread-safe: the flush and maintenance executors
    allocate sequence numbers and swap partitions from several workers, and
    both :meth:`next_sequence` (a read-modify-write on the counter) and the
    catalogue dict mutations take the manager's lock.  The read accessors
    take the same lock (they copy out small lists), so queries, accounting
    and the CLI can run concurrently with flush and maintenance.

    **Versioning and epoch reclamation.**  The catalogue is versioned: every
    retirement of run files (:meth:`replace_partition`,
    :meth:`quarantine_run`) publishes a new version.  A reader pins the
    current version via :meth:`pin_catalogue` (normally through
    :class:`repro.core.catalogue.Catalogue`) and receives an immutable copy
    of the run lists; while any pin with version ``V`` is outstanding, a
    file retired at version ``R > V`` is *deferred* -- a durable
    ``.retired`` tombstone is written next to it and the file stays readable
    -- instead of deleted.  The last release whose departure makes
    ``min(pinned) >= R`` (or leaves no pins at all) deletes the file and its
    tombstone.  With no pins outstanding, retirement deletes immediately:
    byte-for-byte the pre-snapshot behaviour, which is what keeps every
    single-threaded caller's I/O accounting unchanged.
    """

    def __init__(self, backend: StorageBackend, cache: Optional[PageCache] = None) -> None:
        self.backend = backend
        self.cache = cache
        self._partitions: Dict[int, _PartitionRuns] = {}
        self._sequence = 0
        self._lock = threading.Lock()
        #: Names of damaged runs dropped from the catalogue.  The files stay
        #: on the backend (``repro scrub`` reports and reclaims them) so a
        #: post-mortem can inspect the corruption.
        self.quarantined: List[str] = []
        #: On-disk size of each quarantined run at quarantine time, for the
        #: ``quarantined_bytes`` accounting (entries go stale only if an
        #: external scrub reclaims the file; the accessor re-checks).
        self._quarantined_sizes: Dict[str, int] = {}
        # --- epoch reclamation state (all guarded by self._lock) ---
        # The published catalogue version; bumped by every file retirement.
        self._version = 0
        # version -> number of outstanding pins at that version.
        self._pins: Dict[int, int] = {}
        # Files awaiting deletion: (retire_version, name, size_bytes).
        self._deferred: List[Tuple[int, str, int]] = []
        # Cached {partition: [runs...]} copy handed to pins, and beside it
        # the {partition: run index} memo the pinned snapshots fill in (see
        # pin_catalogue).  A catalogue mutation only records its partition
        # in _stale_partitions; the next pin replaces both dicts with fresh
        # ones -- never mutated in place, so earlier pins keep theirs -- that
        # share every untouched partition's list and copy only the stale
        # ones.  A hot query path therefore pays one set test per pin, and
        # the first pin after a consistency point one list per touched
        # partition, not a copy of the whole catalogue.
        self._pinned_runs_cache: Dict[int, List[ReadStoreReader]] = {}
        self._pinned_index_cache: Dict[int, object] = {}
        self._stale_partitions: Set[int] = set()

    # --------------------------------------------------------------- writing

    def next_sequence(self) -> int:
        with self._lock:
            self._sequence += 1
            return self._sequence

    def reserve_through(self, sequence: int) -> None:
        """Advance the counter so future names start past ``sequence``.

        Recovery uses this after scanning the backend for the highest
        sequence number already on disk, so rebuilt catalogues never
        allocate a name that collides with an existing file.
        """
        with self._lock:
            if sequence > self._sequence:
                self._sequence = sequence

    def write_run(self, partition: int, table: str, level: str,
                  records: Iterable, bloom_bits: int) -> Optional[ReadStoreReader]:
        """Write a new run and register it.  Returns None for empty inputs."""
        name = run_name(partition, table, level, self.next_sequence())
        reader = self.build_run(name, table, records, bloom_bits)
        if reader is None:
            return None
        self.add_run(partition, table, reader)
        return reader

    def build_run(self, name: str, table: str, records: Iterable,
                  bloom_bits: int, retry=None) -> Optional[ReadStoreReader]:
        """Write a run under a pre-allocated name without registering it.

        The parallel flush path allocates every run name up front (in the
        exact order the serial loop would), fans the ``build_run`` calls out
        across workers, and registers the finished readers afterwards in
        allocation order -- which is what keeps a parallel flush
        byte-identical to a serial one.  Returns ``None`` (and creates no
        file) for an empty input.

        The run is opened once, by the writer, through the shared page cache
        and with the Bloom filter it just built; the record count sizes that
        filter, so the cost of a run follows its records and not
        ``bloom_bits``.

        ``retry`` (a :class:`~repro.core.executor.RetryPolicy`) is for
        direct callers only: ``records`` must then be re-iterable (a
        sequence, not a generator).  The executors apply their own policy
        around the whole job, so ``Backlog`` leaves this ``None`` to avoid
        multiplying attempts.
        """
        def attempt() -> Optional[ReadStoreReader]:
            writer = ReadStoreWriter(self.backend, name, table, bloom_bits=bloom_bits)
            return writer.build(records, cache=self.cache)

        return retry.run(attempt) if retry is not None else attempt()

    def add_run(self, partition: int, table: str, reader: ReadStoreReader) -> None:
        if table not in TABLES:
            raise ValueError(f"unknown table {table!r}")
        reader.partition = partition
        with self._lock:
            self._partitions.setdefault(partition, _PartitionRuns()).runs[table].append(reader)
            self._stale_partitions.add(partition)

    # ----------------------------------------------- pinning / reclamation

    def pin_catalogue(self) -> Tuple[int, Dict[int, List[ReadStoreReader]],
                                     Dict[int, object]]:
        """Pin the current catalogue version and copy out its run lists.

        Returns ``(version, {partition: [runs...]}, {partition: index})``;
        the run mapping is a copy immune to subsequent catalogue mutation.
        Every pin must be paired with exactly one :meth:`release_version` --
        callers go through :class:`repro.core.catalogue.CatalogueSnapshot`,
        whose ``release`` enforces the pairing.  While the pin is
        outstanding, no file in the copied lists is ever deleted
        (retirements are deferred).

        The third element is the run-index memo of this copy of the
        catalogue: a dict every snapshot pinned from the same copy shares and
        fills in, one entry per partition, the first time a query asks that
        partition which runs admit a block range.  The manager only stores
        it -- nothing on the flush or maintenance path builds or reads an
        entry.  Each entry remembers the run list it was built for, and a
        snapshot serves it only for that very list object; a mutation gives
        its partition a new list (and the snapshots pinned afterwards a new
        memo dict seeded with the old entries), so an entry of an untouched
        partition carries over as it is, one of a touched partition is
        rebuilt -- or extended, when runs were only added -- by the next
        reader, and a snapshot pinned earlier keeps the memo it was given.
        """
        with self._lock:
            version = self._version
            self._pins[version] = self._pins.get(version, 0) + 1
            if self._stale_partitions:
                runs = dict(self._pinned_runs_cache)
                for partition in self._stale_partitions:
                    runs[partition] = self._partitions[partition].all_runs()
                self._pinned_runs_cache = runs
                self._pinned_index_cache = dict(self._pinned_index_cache)
                self._stale_partitions = set()
            return version, self._pinned_runs_cache, self._pinned_index_cache

    def _retire_pinned_locked(self, partition: int) -> None:
        """Invalidate the pinned copies of a partition that lost runs.

        An index over retired runs cannot be extended into the new one, and
        left in the memo it would keep their readers and a copy of their
        filter bits alive until the partition is next queried -- so later
        pins start without it (earlier pins keep the dict they were given).
        """
        self._stale_partitions.add(partition)
        if partition in self._pinned_index_cache:
            # dict() copies in one step; readers may be adding entries to the
            # shared memo right now, so it must not be iterated from Python.
            memo = dict(self._pinned_index_cache)
            del memo[partition]
            self._pinned_index_cache = memo

    def acquire_version(self, version: int) -> None:
        """Add a pin to an *already pinned* catalogue version.

        The read-side fan-out hands each prefetch job its own pin on the
        snapshot it drains, so a job's run files stay reclaim-proof even if
        the owning cursor releases (or is garbage collected) while the job
        is still in flight.  Pinning a version nothing holds any more would
        be a use-after-release bug, hence the ``ValueError``.
        """
        with self._lock:
            count = self._pins.get(version, 0)
            if count < 1:
                raise ValueError(
                    f"catalogue version {version} is not pinned; acquire_version "
                    f"may only extend a live pin")
            self._pins[version] = count + 1

    def release_version(self, version: int) -> None:
        """Drop one pin at ``version`` and reclaim newly deletable files."""
        with self._lock:
            count = self._pins.get(version, 0) - 1
            if count > 0:
                self._pins[version] = count
            else:
                self._pins.pop(version, None)
            reclaimable = self._take_reclaimable_locked()
        for name in reclaimable:
            self._delete_run_file(name)

    def _take_reclaimable_locked(self) -> List[str]:
        """Pop every deferred file no pinned snapshot can still hold."""
        if not self._deferred:
            return []
        min_pinned = min(self._pins) if self._pins else None
        # A snapshot pinned at version V holds a file retired at R iff the
        # file was still catalogued when V was published, i.e. iff V < R.
        if min_pinned is None:
            reclaimable = [name for _, name, _ in self._deferred]
            self._deferred = []
            return reclaimable
        keep: List[Tuple[int, str, int]] = []
        reclaimable = []
        for entry in self._deferred:
            if entry[0] <= min_pinned:
                reclaimable.append(entry[1])
            else:
                keep.append(entry)
        self._deferred = keep
        return reclaimable

    def _delete_run_file(self, name: str) -> None:
        """Delete a retired run file, its tombstone, and its cache pages."""
        if self.backend.exists(name):
            self.backend.delete(name)
        marker = tombstone_name(name)
        if self.backend.exists(marker):
            self.backend.delete(marker)
        if self.cache is not None:
            self.cache.invalidate_file(name)

    def _write_tombstone(self, name: str) -> None:
        """Publish the durable deferred-delete marker for ``name``."""
        marker = tombstone_name(name)
        if not self.backend.exists(marker):
            self.backend.create(marker).append_page(b"retired")

    def pinned_run_names(self) -> Set[str]:
        """Every run file some pinned snapshot may still be reading.

        The union of the current catalogue (files there are never deleted
        while catalogued) and the deferred files the oldest pin still holds.
        Empty when nothing is pinned.  Tests and the concurrency benchmark
        wrap ``backend.delete`` with this to assert the no-delete-under-a-
        pinned-reader invariant.
        """
        with self._lock:
            if not self._pins:
                return set()
            min_pinned = min(self._pins)
            names = {run.name for entry in self._partitions.values()
                     for run in entry.all_runs()}
            names.update(name for retire_version, name, _ in self._deferred
                         if retire_version > min_pinned)
            return names

    def pinned_readers(self) -> int:
        """Number of outstanding catalogue pins (diagnostics and tests)."""
        with self._lock:
            return sum(self._pins.values())

    def deferred_run_names(self) -> List[str]:
        """Names of retired files still awaiting epoch reclamation."""
        with self._lock:
            return [name for _, name, _ in self._deferred]

    def deferred_bytes(self) -> int:
        """On-disk bytes held by deferred-delete files."""
        with self._lock:
            return sum(size for _, _, size in self._deferred)

    def quarantined_bytes(self) -> int:
        """On-disk bytes held by quarantined runs still on the backend."""
        with self._lock:
            sizes = dict(self._quarantined_sizes)
        return sum(size for name, size in sizes.items()
                   if self.backend.exists(name))

    def replace_partition(self, partition: int,
                          new_runs: Dict[str, List[ReadStoreReader]]) -> List[str]:
        """Swap in compacted runs for ``partition`` and retire the old files.

        Returns the names of the retired run files.  With no pinned readers
        the files are deleted immediately (the pre-snapshot behaviour); with
        pins outstanding, deletion is deferred behind the pins -- a durable
        tombstone is written next to each file and the last release
        reclaims both (epoch reclamation).  Safe to call for distinct
        partitions from concurrent maintenance workers: the catalogue swap
        happens under the manager's lock, and the file deletions and cache
        invalidations only touch the replaced partition's own runs.
        """
        replacement = _PartitionRuns()
        for table, runs in new_runs.items():
            if table not in TABLES:
                raise ValueError(f"unknown table {table!r}")
            replacement.runs[table] = list(runs)
            for run in runs:
                run.partition = partition
        with self._lock:
            old = self._partitions.get(partition, _PartitionRuns())
            self._partitions[partition] = replacement
            self._retire_pinned_locked(partition)
            old_runs = old.all_runs()
            retired = [run.name for run in old_runs]
            if old_runs:
                self._version += 1
                retire_version = self._version
                if self._pins:
                    # Deferred path.  Tombstones are written while the lock
                    # is still held so no concurrent release can reclaim the
                    # deferred entry before its marker is durable; the write
                    # is one page per retired run and happens only when
                    # readers are actually pinned.
                    for run in old_runs:
                        self._write_tombstone(run.name)
                        self._deferred.append(
                            (retire_version, run.name, run.size_bytes))
                    return retired
        # No pinned readers (or nothing to retire): delete immediately,
        # exactly the pre-snapshot path.
        for name in retired:
            self._delete_run_file(name)
        return retired

    def quarantine_run(self, name: str) -> bool:
        """Drop a damaged run from the catalogue; the file stays on disk.

        Returns ``True`` if the run was catalogued (and is now quarantined);
        ``False`` if no such run is registered -- e.g. it was already
        quarantined by a concurrent detection, or the name never existed.
        Queries re-answered after a quarantine see the surviving runs plus
        the write stores: degraded, but correct with respect to the
        remaining data.  ``repro scrub --reclaim`` deletes the file.
        """
        found = False
        with self._lock:
            for partition, entry in self._partitions.items():
                for runs in entry.runs.values():
                    for index, run in enumerate(runs):
                        if run.name == name:
                            del runs[index]
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                self._retire_pinned_locked(partition)
                self.quarantined.append(name)
                self._quarantined_sizes[name] = run.size_bytes
                # Publish a new catalogue version: snapshots pinned from here
                # on exclude the damaged run.  No deferral is needed -- the
                # file is deliberately left on disk for the post-mortem, so
                # readers pinned over the old version can still stream it
                # (and will quarantine it themselves if they hit the damage).
                self._version += 1
        if found and self.cache is not None:
            self.cache.invalidate_file(name)
        return found

    # --------------------------------------------------------------- queries

    def partitions(self) -> List[int]:
        with self._lock:
            return sorted(self._partitions)

    def runs_for(self, partition: int, table: Optional[str] = None) -> List[ReadStoreReader]:
        with self._lock:
            entry = self._partitions.get(partition)
            if entry is None:
                return []
            if table is None:
                return entry.all_runs()
            return list(entry.runs[table])

    def run_count(self, table: Optional[str] = None) -> int:
        return sum(len(self.runs_for(p, table)) for p in self.partitions())

    def level0_run_count(self) -> int:
        """Number of runs written since the last compaction of their partition.

        Matches on the parsed level component of the run name, so compacted
        runs (level ``compact``) -- or any other level whose partition or
        sequence digits merely *contain* ``L0`` -- are never miscounted.
        """
        count = 0
        for partition in self.partitions():
            for table in ("from", "to"):
                for run in self.runs_for(partition, table):
                    parsed = parse_run_name(run.name)
                    if parsed is not None and parsed[2] == "L0":
                        count += 1
        return count

    def total_size_bytes(self) -> int:
        """Total on-disk size of all registered runs."""
        return sum(run.size_bytes for p in self.partitions() for run in self.runs_for(p))

    def total_records(self, table: Optional[str] = None) -> int:
        return sum(run.num_records for p in self.partitions() for run in self.runs_for(p, table))

    def bloom_memory_bytes(self) -> int:
        """Memory consumed by the in-memory Bloom filters of all runs.

        Counts each catalogued run's own filter and, for every partition
        queries have indexed, the second copy of the filter bits its run
        index holds (a snapshot pinned before a later mutation may keep an
        older index alive besides; that is transient and not counted).
        """
        with self._lock:
            indexes = list(self._pinned_index_cache.values())
        return (sum(run.bloom.size_bytes for p in self.partitions() for run in self.runs_for(p))
                + sum(index.size_bytes for index in indexes))


def rebuild_run_manager(backend: StorageBackend, cache: Optional[PageCache] = None,
                        remove_invalid: bool = False) -> RunManager:
    """Reconstruct the run catalogue by scanning the backend's files.

    This is how a :class:`~repro.core.backlog.Backlog` mounts its backend
    (with ``remove_invalid=True``); on an empty backend it costs one
    ``list_files()`` call.

    Runs are re-registered in sequence order so that the catalogue's notion
    of creation order (which matters for nothing functional, but keeps
    diagnostics stable) matches the original.  The sequence counter is
    advanced past the highest sequence seen so new runs get fresh names.

    A run file that cannot be opened -- empty, truncated mid-write, with a
    corrupt or foreign header (a CRC that does not match, any other magic), or
    unreadable at the OS level -- is the remnant of a compaction that
    crashed before registering its output, or storage damage.  Such a file
    is not part of the database (the catalogue swap happens only after
    every page is on disk), so it is skipped; with ``remove_invalid=True``
    it is also deleted to reclaim the space.  Its sequence number still
    advances the counter so a fresh run can never collide with the leftover
    name.

    A run file accompanied by a ``.retired`` tombstone was already retired
    from the catalogue -- its deletion was deferred behind a reader pinned
    at crash time (see :class:`RunManager`).  No pin survives a restart,
    so such a file is never re-registered; with ``remove_invalid=True`` the
    interrupted retirement is completed (file and marker deleted).  Its
    sequence number, like an invalid leftover's, still advances the counter.
    """
    manager = RunManager(backend, cache=cache)
    files = list(backend.list_files())
    tombstoned = {run for run in (parse_tombstone_name(name) for name in files)
                  if run is not None}
    runs = []
    for name in files:
        parsed = parse_run_name(name)
        if parsed is None:
            continue
        partition, table, level, sequence = parsed
        runs.append((sequence, partition, table, name))
    max_sequence = 0
    for sequence, partition, table, name in sorted(runs):
        max_sequence = max(max_sequence, sequence)
        if name in tombstoned:
            if remove_invalid:
                backend.delete(name)
                marker = tombstone_name(name)
                if backend.exists(marker):
                    backend.delete(marker)
            continue
        try:
            reader = ReadStoreReader(backend, name, cache=cache)
        except (ValueError, IndexError, struct.error, OSError):
            # CorruptPageError subclasses ValueError, so a run whose header
            # fails its CRC is treated like any other invalid leftover.
            if remove_invalid:
                backend.delete(name)
            continue
        manager.add_run(partition, table, reader)
    if remove_invalid:
        # Orphan markers -- retirement deleted the run file but crashed
        # before removing the marker -- hold no data; finish the job.
        present = set(files)
        for name in files:
            marked = parse_tombstone_name(name)
            if marked is not None and marked not in present:
                backend.delete(name)
    # Advance the sequence counter so future runs do not collide.
    manager.reserve_through(max_sequence)
    return manager
