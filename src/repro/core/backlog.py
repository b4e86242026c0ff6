"""The Backlog back-reference manager: the library's main entry point.

:class:`Backlog` implements the paper's contribution end to end.  It can be
used in two ways:

* **Attached to the simulator** -- pass a :class:`Backlog` instance to
  :class:`repro.fsim.FileSystem` as a listener; the file system then drives
  it through the :class:`~repro.fsim.filesystem.ReferenceListener` callbacks
  on every block allocation, deallocation, consistency point, clone creation
  and snapshot deletion.

* **Standalone** -- call :meth:`add_reference`, :meth:`remove_reference` and
  :meth:`checkpoint` directly; this is how a host file system other than the
  simulator would integrate it.

During normal operation Backlog never reads from disk: updates are buffered
in the in-memory write stores and flushed at each consistency point as new
Level-0 read-store runs.  Disk reads happen only during queries and during
database maintenance (:meth:`maintain`).  Queries run as a streaming
pipeline -- lazily merged run iterators, sort-merge join, incremental clone
expansion, single-pass grouping -- with a size-dispatched materialised fast
path for narrow queries (see :mod:`repro.core.query` and
``docs/ARCHITECTURE.md`` for the full walk of the record lifecycle).

The primary query entry point is :meth:`select`: a declarative
:class:`~repro.core.cursor.QuerySpec` in, a lazy
:class:`~repro.core.cursor.QueryResult` cursor out, with filters and limits
pushed into the pipeline and resumable pagination via opaque tokens.  The
four legacy list methods (:meth:`query`, :meth:`query_range`,
:meth:`owners_at_version`, :meth:`live_owners`) are thin shims over it.

Example
-------
>>> from repro import Backlog
>>> backlog = Backlog()
>>> backlog.add_reference(block=100, inode=2, offset=0)
>>> backlog.add_reference(block=101, inode=2, offset=1)
>>> backlog.checkpoint()
1
>>> backlog.remove_reference(block=101, inode=2, offset=1)
>>> backlog.checkpoint()
2
>>> [ref.inode for ref in backlog.query(100)]
[2]
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.catalogue import Catalogue
from repro.core.compaction import Compactor
from repro.core.config import BacklogConfig
from repro.core.cursor import QueryResult, QuerySpec
from repro.core.deletion_vector import DeletionVector
from repro.core.executor import PartitionExecutor, RetryPolicy
from repro.core.inheritance import CloneGraph
from repro.core.lsm import rebuild_run_manager, run_name
from repro.core.masking import AllVersionsAuthority, VersionAuthority
from repro.core.partitioning import Partitioner
from repro.core.query import QueryEngine
from repro.core.records import BackReference, FromRecord, ToRecord
from repro.core.stats import BacklogStats, CheckpointStats, MaintenanceStats
from repro.core.write_store import WriteStore
from repro.fsim.blockdev import MemoryBackend, StorageBackend
from repro.fsim.cache import PageCache
from repro.fsim.filesystem import ReferenceListener

__all__ = ["Backlog"]


class Backlog(ReferenceListener):
    """Log-structured back references for write-anywhere file systems.

    Opening one over a backend mounts the runs already stored there; what
    the file system must re-supply after a crash is the job of
    :func:`~repro.core.recovery.recover_backlog`.
    """

    def __init__(
        self,
        backend: Optional[StorageBackend] = None,
        config: Optional[BacklogConfig] = None,
        version_authority: Optional[VersionAuthority] = None,
    ) -> None:
        self.config = config or BacklogConfig()
        self.backend = backend if backend is not None else MemoryBackend()
        self.cache = PageCache(self.config.cache_bytes)
        self.partitioner = Partitioner(self.config.partition_size_blocks)
        # New runs are named past the highest sequence on the backend, so a
        # reopened database is never overwritten.
        self.run_manager = rebuild_run_manager(
            self.backend, cache=self.cache, remove_invalid=True)
        self.ws_from = WriteStore("from")
        self.ws_to = WriteStore("to")
        self.clone_graph = CloneGraph()
        self.deletion_vector = DeletionVector()
        self.version_authority = version_authority or AllVersionsAuthority()
        self.stats = BacklogStats()
        self.current_cp = 1
        self._ops_this_cp = 0
        self._pruned_this_cp = 0
        self._flush_executor = PartitionExecutor(
            self.config.flush_workers, name="flush",
            retry=self._retry_policy(self.stats.flush_pool))
        self._maintenance_executor = PartitionExecutor(
            self.config.maintenance_workers, name="maintenance",
            retry=self._retry_policy(self.stats.maintenance_pool))
        # The read-side fan-out pool.  No retry policy on purpose: a
        # partition gather is not idempotent mid-drain (re-running one would
        # double-read pages into the query's tally), and the serial read
        # path never retried transient faults either -- corruption handling
        # goes through quarantine, not retry.
        self._query_executor = PartitionExecutor(
            self.config.query_workers, name="query")
        self._compactor = Compactor(
            self.run_manager, self.config, self.version_authority,
            self.clone_graph, self.deletion_vector,
            executor=self._maintenance_executor,
            executor_stats=self.stats.maintenance_pool,
        )
        # The versioned snapshot source every reader pins its view from
        # (see core/catalogue.py): run catalogue + frozen write stores +
        # frozen deletion vector.  Flush publishes consistency points
        # through it so snapshots are atomic.
        self.catalogue = Catalogue(self.run_manager, self.ws_from,
                                   self.ws_to, self.deletion_vector)
        self._query_engine = QueryEngine(
            self.backend, self.run_manager, self.partitioner,
            self.ws_from, self.ws_to, self.clone_graph,
            self.version_authority, self.deletion_vector,
            self.config, self.stats.query,
            # Change detector for the cursor resume cache: the reference
            # counters move on every write-store mutation, so a parked page
            # pipeline is never resumed over a changed in-memory state.
            mutation_stamp=lambda: (self.stats.references_added,
                                    self.stats.references_removed),
            catalogue=self.catalogue,
            executor=self._query_executor,
            executor_stats=self.stats.query_pool,
        )

    def _retry_policy(self, pool_stats) -> Optional[RetryPolicy]:
        """The bounded retry-with-backoff applied around every executor job."""
        if self.config.io_retries == 0:
            return None
        return RetryPolicy(
            attempts=1 + self.config.io_retries,
            backoff_s=self.config.io_retry_backoff_s,
            on_retry=lambda _error: pool_stats.count_retry(),
        )

    # ------------------------------------------------------- authority setup

    def set_version_authority(self, authority: VersionAuthority) -> None:
        """Install the source of truth for which snapshot versions exist."""
        self.version_authority = authority
        self._compactor.authority = authority
        self._query_engine.authority = authority
        self._query_engine.invalidate_parked_cursors()

    # ------------------------------------------------- ReferenceListener API

    def on_reference_added(self, block: int, inode: int, offset: int, line: int, cp: int) -> None:
        """Record a new reference; prunes a same-CP removal if one is buffered.

        If the same reference was removed earlier within the same consistency
        point, the two events cancel: removing the buffered To entry restores
        the reference's original lifetime as a single record (§5.1).
        """
        start = time.perf_counter()
        self.stats.references_added += 1
        self._ops_this_cp += 1
        if self.config.proactive_pruning and self.ws_to.remove_key(block, inode, offset, line, cp):
            self.stats.pruned_pairs += 1
            self._pruned_this_cp += 1
        else:
            self.ws_from.insert(FromRecord(block, inode, offset, line, cp))
        self.stats.update_seconds += time.perf_counter() - start

    def on_reference_removed(self, block: int, inode: int, offset: int, line: int, cp: int) -> None:
        """Record a removed reference; prunes a same-CP allocation if buffered.

        A reference that was both created and removed between two consistency
        points never survives to disk: the buffered From entry is deleted
        instead of a To entry being added.
        """
        start = time.perf_counter()
        self.stats.references_removed += 1
        self._ops_this_cp += 1
        if self.config.proactive_pruning and self.ws_from.remove_key(block, inode, offset, line, cp):
            self.stats.pruned_pairs += 1
            self._pruned_this_cp += 1
        else:
            self.ws_to.insert(ToRecord(block, inode, offset, line, cp))
        self.stats.update_seconds += time.perf_counter() - start

    def on_consistency_point(self, cp: int) -> None:
        """Flush both write stores to new Level-0 read-store runs.

        The per-``(table, partition)`` run writes are independent -- disjoint
        files, job-local writer state -- and fan out across
        ``BacklogConfig.flush_workers`` threads.  Determinism is preserved by
        construction: every run name is allocated *before* dispatch, in the
        exact order the serial loop consumed sequence numbers, and the
        finished runs are registered *after* the workers join, in that same
        allocation order -- so a parallel flush writes byte-identical files
        and builds an identical catalogue (``tests/test_parallel_equivalence
        .py`` enforces both).  With the default ``flush_workers=1`` the jobs
        run inline, in order, in this thread.
        """
        start = time.perf_counter()
        pages_before = self.backend.stats.pages_written
        flushed = len(self.ws_from) + len(self.ws_to)

        plan: List[Tuple[int, str, str, Sequence]] = []
        for table, store in (("from", self.ws_from), ("to", self.ws_to)):
            if not store:
                continue
            # The memtable sorts once here (sort-on-demand) and hands the
            # partitioner the snapshot list directly.
            for partition, records in self.partitioner.split_sorted_records(
                    store.sorted_records()):
                name = run_name(partition, table, "L0",
                                self.run_manager.next_sequence())
                plan.append((partition, table, name, records))
        if plan:
            # The flush changes which runs exist, so no parked page pipeline
            # from before it may be resumed.  An *empty* checkpoint changes
            # nothing (no runs, no store contents) and deliberately leaves
            # the resume cache intact: periodic idle consistency points must
            # not defeat a hot paginated scan.  The mutation stamp cannot
            # stand in here -- the flushed records may all have been
            # buffered *before* the page was parked.
            self._query_engine.invalidate_parked_cursors()
            self.stats.flush_pool.dispatches += 1
            bloom_bits = self.config.run_bloom_bits
            jobs = [
                (lambda name=name, table=table, records=records:
                    self.run_manager.build_run(name, table, records, bloom_bits))
                for _, table, name, records in plan
            ]
            try:
                readers = self._flush_executor.map(jobs, self.stats.flush_pool)
            except OSError:
                # A job exhausted its retries (or hit a non-retryable fault
                # like ENOSPC or a torn write) but the process survived.
                # Nothing was registered, so the failed batch is invisible to
                # queries; discard the partial output files and -- when the
                # failure happened under parallel fan-out -- fall back to
                # running this CP's jobs serially, the smallest execution
                # mode that can still make progress.  A crash-style failure
                # (non-OSError) propagates untouched: its partial files are
                # the recovery path's responsibility.
                self._discard_planned_runs(plan)
                if self._flush_executor.workers > 1 and len(jobs) > 1:
                    self.stats.flush_pool.serial_fallbacks += 1
                    try:
                        readers = self._flush_executor.run_serial(
                            jobs, self.stats.flush_pool)
                    except OSError:
                        self._discard_planned_runs(plan)
                        raise
                else:
                    raise
        else:
            readers = []
        # Reached only on a fully successful flush: a failed CP re-raises
        # above with the write stores intact, so the buffered updates are
        # either durably in the new runs or still queryable in memory.
        # Registration and the write-store clears form one critical section
        # under the catalogue's publish lock, so a concurrently pinned
        # snapshot observes the consistency point atomically -- the flushed
        # records are visible either only in the new Level-0 runs or only in
        # the (frozen) write stores, never in both and never in neither.
        with self.catalogue.publishing():
            for (partition, table, _, _), reader in zip(plan, readers):
                if reader is not None:
                    self.run_manager.add_run(partition, table, reader)
            self.ws_from.clear()
            self.ws_to.clear()

        elapsed = time.perf_counter() - start
        self.stats.flush_seconds += elapsed
        self.stats.consistency_points += 1
        self.stats.checkpoints.append(
            CheckpointStats(
                cp=cp,
                block_ops=self._ops_this_cp,
                persistent_ops=flushed,
                pages_written=self.backend.stats.pages_written - pages_before,
                flush_seconds=elapsed,
                ws_records_flushed=flushed,
                pruned_pairs=self._pruned_this_cp,
                cumulative_update_seconds=self.stats.update_seconds,
            )
        )
        self._ops_this_cp = 0
        self._pruned_this_cp = 0
        self.current_cp = cp + 1

        interval = self.config.maintenance_interval_cps
        if interval is not None and cp % interval == 0:
            self.maintain()

    def _discard_planned_runs(self, plan: List[Tuple[int, str, str, Sequence]]) -> None:
        """Delete the output files of a failed flush batch.

        None of the planned runs were registered, so deleting whatever
        subset reached the backend (complete runs from jobs that succeeded,
        partial files from the one that failed) restores the exact pre-CP
        on-disk state.  The jobs will recreate them deterministically --
        same names, same bytes -- if the CP is retried.
        """
        for _partition, _table, name, _records in plan:
            if self.backend.exists(name):
                self.backend.delete(name)
            self.cache.invalidate_file(name)

    def on_clone_created(self, new_line: int, parent_line: int, parent_version: int, cp: int) -> None:
        """Track a writable clone.  No back-reference records are written."""
        self.clone_graph.add_clone(new_line, parent_line, parent_version)
        # Clone expansion happens inside parked pipelines; a new clone must
        # not be missing from a resumed page.
        self._query_engine.invalidate_parked_cursors()

    def on_snapshot_deleted(self, line: int, version: int, is_zombie: bool, cp: int) -> None:
        """Drop parked cursors: a deleted snapshot changes what masking hides.

        Which versions survive -- zombies included -- is the
        :class:`~repro.core.masking.VersionAuthority`'s answer, not state
        kept here.
        """
        self._query_engine.invalidate_parked_cursors()

    # ---------------------------------------------------------- standalone API

    def add_reference(self, block: int, inode: int, offset: int, line: int = 0,
                      cp: Optional[int] = None) -> None:
        """Record that ``(inode, offset)`` in ``line`` now references ``block``."""
        self.on_reference_added(block, inode, offset, line, cp if cp is not None else self.current_cp)

    def remove_reference(self, block: int, inode: int, offset: int, line: int = 0,
                         cp: Optional[int] = None) -> None:
        """Record that ``(inode, offset)`` in ``line`` no longer references ``block``."""
        self.on_reference_removed(block, inode, offset, line, cp if cp is not None else self.current_cp)

    def checkpoint(self) -> int:
        """Take a consistency point (standalone use) and return its CP number."""
        cp = self.current_cp
        self.on_consistency_point(cp)
        return cp

    def register_clone(self, new_line: int, parent_line: int, parent_version: int) -> None:
        """Standalone equivalent of the clone-created callback."""
        self.on_clone_created(new_line, parent_line, parent_version, self.current_cp)

    # ------------------------------------------------------------- queries

    def select(self, spec: Optional[QuerySpec] = None, /, **kwargs) -> QueryResult:
        """Open a lazy cursor over the owners described by ``spec``.

        The primary query entry point: pass a prebuilt
        :class:`~repro.core.cursor.QuerySpec`, or its fields as keyword
        arguments (``backlog.select(first_block=0, num_blocks=64,
        live_only=True)``).  Nothing is read until the returned
        :class:`~repro.core.cursor.QueryResult` is driven; see
        :mod:`repro.core.cursor` for iteration, the terminal helpers and the
        resume-token pagination contract.  The four legacy list methods below
        are thin shims over this.
        """
        if spec is None:
            spec = QuerySpec(**kwargs)
        elif kwargs:
            raise TypeError("pass either a QuerySpec or keyword fields, not both")
        return QueryResult(self._query_engine, spec)

    def query(self, block: int) -> List[BackReference]:
        """All owners of one physical block (across snapshots and clones)."""
        return self.select(QuerySpec(block)).all()

    def query_range(self, first_block: int, num_blocks: int) -> List[BackReference]:
        """All owners of a contiguous range of physical blocks."""
        return self.select(QuerySpec(first_block, num_blocks)).all()

    def owners_at_version(self, block: int, version: int) -> List[BackReference]:
        """Owners of ``block`` at a specific consistency point."""
        return self.select(QuerySpec(block).at_version(version)).all()

    def live_owners(self, block: int) -> List[BackReference]:
        """Owners of ``block`` in the live file system."""
        return self.select(QuerySpec(block).live()).all()

    @property
    def query_stats(self):
        return self.stats.query

    def clear_caches(self) -> None:
        """Drop the page cache (the paper does this before query benchmarks)."""
        self.cache.clear()

    def close(self) -> None:
        """Release the worker pools and any parked cursor pipelines.

        Optional: idle pools are reclaimed when the instance is garbage
        collected, so this exists for callers (tests, benchmarks) that
        create many short-lived instances and want deterministic teardown.
        """
        self._query_engine.invalidate_parked_cursors()
        self._flush_executor.close()
        self._maintenance_executor.close()
        self._query_executor.close()

    # -------------------------------------------------------- maintenance

    def maintain(self) -> MaintenanceStats:
        """Run database maintenance (merge runs, precompute Combined, purge).

        Per-partition compactions run concurrently across
        ``BacklogConfig.maintenance_workers`` threads (partitions share no
        run files); the result -- and every on-disk byte -- is identical to
        the serial pass, because the compactor allocates all output run
        names before dispatching any work.
        """
        # Maintenance replaces runs out from under any parked page pipeline.
        self._query_engine.invalidate_parked_cursors()
        result = self._compactor.compact_all()
        self.stats.maintenance_runs.append(result)
        return result

    def relocate_block(self, old_block: int, new_block: Optional[int] = None) -> int:
        """Suppress stale back references of a block that has been moved.

        Returns the number of reference identities suppressed.  The caller is
        responsible for issuing the corresponding ``remove_reference`` /
        ``add_reference`` updates for the new location (a file system does
        this naturally when it rewrites the pointers); ``new_block`` is
        accepted for symmetry and documentation purposes only.

        Suppression streams through the cursor surface: each owner identity
        is suppressed as the pipeline yields it, so no result list is ever
        materialised.  (Mutating the deletion vector mid-iteration is safe:
        the pipeline only consults it for records it has not yet gathered,
        and every identity is suppressed strictly *after* all of its records
        have been consumed and folded.)
        """
        # Suppression changes what other in-flight scans should see; parked
        # page pipelines have already gathered past the deletion vector.
        self._query_engine.invalidate_parked_cursors()
        suppressed = 0
        for ref in self.select(QuerySpec(old_block)):
            self.deletion_vector.suppress(ref.block, ref.inode, ref.offset, ref.line)
            suppressed += 1
        return suppressed

    # ------------------------------------------------------------ accounting

    def database_size_bytes(self) -> int:
        """On-disk size of the live back-reference database.

        Counts exactly the catalogued runs -- the bytes a fresh query can
        read.  Quarantined files (damaged, kept for post-mortem until
        ``scrub --reclaim``) and deferred-delete files (retired behind a
        pinned reader, reclaimed at its release) sit on the backend too but
        are *not* database size; they are surfaced separately by
        :meth:`quarantined_bytes` and :meth:`deferred_bytes` so space
        accounting (Figures 6/8) is not inflated by maintenance transients
        or damage.
        """
        return self.run_manager.total_size_bytes()

    def quarantined_bytes(self) -> int:
        """Bytes held by quarantined run files still on the backend."""
        return self.run_manager.quarantined_bytes()

    def deferred_bytes(self) -> int:
        """Bytes held by retired files awaiting epoch reclamation."""
        return self.run_manager.deferred_bytes()

    def memory_footprint_bytes(self) -> int:
        """Approximate memory held by write stores, Bloom filters and caches."""
        return (
            self.ws_from.memory_estimate_bytes()
            + self.ws_to.memory_estimate_bytes()
            + self.run_manager.bloom_memory_bytes()
            + self.cache.used_bytes
            + self.deletion_vector.memory_estimate_bytes()
        )

    def space_overhead(self, physical_data_bytes: int) -> float:
        """Database size as a fraction of the physical data size (Figures 6/8).

        Uses :meth:`database_size_bytes`, so quarantined and deferred-delete
        files are excluded -- overhead measures the database, not backend
        residue awaiting scrub or reclamation.
        """
        if physical_data_bytes <= 0:
            return 0.0
        return self.database_size_bytes() / physical_data_bytes

    def pending_updates(self) -> int:
        """Number of records currently buffered in the write stores."""
        return len(self.ws_from) + len(self.ws_to)

    def pinned_snapshots(self) -> int:
        """Catalogue snapshots currently pinned by in-flight readers."""
        return self.catalogue.pinned_snapshots()

    def service_stats(self) -> Dict[str, object]:
        """JSON-ready engine counters for the served-system surface.

        Everything ``GET /stats`` and ``repro query --stats`` report about
        the engine comes through here -- including the flush, maintenance
        and query pool timings (:class:`~repro.core.stats.ExecutorStats`),
        which were previously collected but never surfaced over the wire.
        :class:`repro.cluster.ShardedBacklog` duck-types this method (adding
        a per-shard breakdown), which is what lets the HTTP service front a
        cluster transparently.
        """
        query = self.stats.query
        return {
            "queries": query.queries,
            "cursors_opened": query.cursors_opened,
            "resume_cache_hits": query.resume_cache_hits,
            "pages_read": query.pages_read,
            "query": query.to_dict(),
            "flush_pool": self.stats.flush_pool.to_dict(),
            "maintenance_pool": self.stats.maintenance_pool.to_dict(),
            "query_pool": self.stats.query_pool.to_dict(),
            "pinned_snapshots": self.pinned_snapshots(),
            "database_size_bytes": self.database_size_bytes(),
            "quarantined_bytes": self.quarantined_bytes(),
            "deferred_bytes": self.deferred_bytes(),
        }
