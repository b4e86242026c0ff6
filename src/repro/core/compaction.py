"""Database maintenance: merging runs, precomputing Combined, purging.

Maintenance (§5.2) is the only time Backlog reads its own database outside of
queries.  For each partition it:

1. merges every existing run (Level-0 From/To runs plus any previously
   compacted Combined/From run) -- cheap, because all runs are sorted
   identically;
2. joins From and To into the precomputed Combined table;
3. purges complete records that refer only to deleted consistency points,
   respecting zombies and clone points (back references of a cloned snapshot
   are never purged while descendants remain); and
4. writes one compacted Combined run and one compacted From run (holding the
   still-incomplete, live records), replacing all previous runs.

Maintenance runs on the same big-endian rows (:mod:`repro.core.records`)
and the same join as queries, as one streaming generator chain: each table's
run rows (:meth:`~repro.core.read_store.ReadStoreReader.iter_rows`) merge
through :func:`~repro.core.lsm.merge_sorted_runs`, pass the deletion
vector's :meth:`~repro.core.deletion_vector.DeletionVector.filter_rows`, and
meet in the query engine's sort-merge join
(:func:`~repro.core.columnar.join_rows_for_query`).  Its sorted Combined
view splits in two: a row ending in ``to = INFINITY`` is a live reference
and goes back to the From table as its 40-byte From row; every other row
is complete and, unless the purge predicate drops it, goes to the Combined
table.  Both run writers take rows (``add_row``), so no record object is
built and a partition's compaction holds at most one unflushed output page
per table (plus one decoded leaf page per input run) in memory -- never the
partition's full record lists.

Entries suppressed by the deletion vector are dropped during the rewrite, so
a successful full compaction clears the vector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from struct import Struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.columnar import join_rows_for_query
from repro.core.config import BacklogConfig
from repro.core.deletion_vector import DeletionVector
from repro.core.executor import PartitionExecutor
from repro.core.inheritance import CloneGraph
from repro.core.lsm import TABLES, RunManager, merge_sorted_runs, run_name
from repro.core.masking import VersionAuthority
from repro.core.read_store import CorruptPageError, ReadStoreReader, ReadStoreWriter
from repro.core.records import FROM_RECORD_SIZE, INFINITY_BE
from repro.core.stats import ExecutorStats, MaintenanceStats
from repro.util.intervals import any_version_in

__all__ = ["PartitionCompactionResult", "Compactor"]

#: ``(line, from, to)`` off a 48-byte Combined row: the purge predicate's
#: three fields, in one C call.
_LINE_FROM_TO = Struct(">3Q").unpack_from


@dataclass
class PartitionCompactionResult:
    """Outcome of compacting one partition."""

    partition: int
    records_in: int
    records_out: int
    records_purged: int
    bytes_before: int
    bytes_after: int


class Compactor:
    """Runs database maintenance over the read-store runs.

    Parameters
    ----------
    executor:
        The worker pool over which :meth:`compact_all` fans its per-partition
        compactions (``BacklogConfig.maintenance_workers``).  Partitions are
        independent by construction -- disjoint input runs, disjoint output
        files, disjoint catalogue entries -- so the only coordination the
        parallel path needs is the up-front allocation of every output run
        name (consumed in ascending partition order, exactly as the serial
        loop would) and the locks inside ``RunManager``/``PageCache``/
        ``IOStats``.  With the default single-worker executor the jobs run
        inline in partition order: byte-for-byte the old serial behaviour.
    """

    def __init__(
        self,
        run_manager: RunManager,
        config: BacklogConfig,
        authority: VersionAuthority,
        clone_graph: CloneGraph,
        deletion_vector: DeletionVector,
        executor: Optional[PartitionExecutor] = None,
        executor_stats: Optional[ExecutorStats] = None,
    ) -> None:
        self.run_manager = run_manager
        self.config = config
        self.authority = authority
        self.clone_graph = clone_graph
        self.deletion_vector = deletion_vector
        self.executor = executor or PartitionExecutor(1, name="maintenance")
        self.executor_stats = executor_stats
        self._sequence = 0

    # ------------------------------------------------------------------ API

    def compact_all(self) -> MaintenanceStats:
        """Compact every partition and return aggregate statistics.

        The per-partition jobs run on :attr:`executor`.  Each job writes its
        partition's compacted runs and swaps them into the catalogue itself
        (``replace_partition`` is locked and touches only that partition), so
        a completed partition is durable regardless of what happens to its
        siblings -- the same incremental property the serial loop had.  If a
        job fails, the executor still waits for every other job to settle
        before re-raising, so no worker is left writing after ``maintain()``
        has returned control (the crash-injection suite leans on this).
        """
        self._sequence += 1
        start = time.perf_counter()
        partitions = self.run_manager.partitions()
        # Allocate every output name before dispatch, in ascending partition
        # order: sequence numbers must not depend on worker scheduling.
        names = {p: self._allocate_output_names(p) for p in partitions}
        jobs = [
            (lambda p=p: self.compact_partition(p, _names=names[p]))
            for p in partitions
        ]
        if self.executor_stats is not None and jobs:
            self.executor_stats.dispatches += 1
        try:
            results = self.executor.map(jobs, self.executor_stats)
        except OSError:
            # Graceful I/O failure (retries exhausted, torn write, device
            # full): partitions that completed have already swapped their
            # catalogues atomically and stay compacted; discard the
            # unregistered output files of the ones that did not, then
            # re-raise.  The deletion vector is NOT cleared -- the failed
            # partitions still hold suppressed tuples.  A crash-style
            # failure (non-OSError) propagates untouched, leaving its
            # partial files for the recovery path.
            self._discard_unregistered_outputs(names)
            raise
        # Every run has been rewritten without the suppressed tuples, so the
        # deletion vector can start from scratch.
        self.deletion_vector.clear()
        elapsed = time.perf_counter() - start
        return MaintenanceStats(
            sequence=self._sequence,
            partitions_processed=len(results),
            records_in=sum(r.records_in for r in results),
            records_out=sum(r.records_out for r in results),
            records_purged=sum(r.records_purged for r in results),
            bytes_before=sum(r.bytes_before for r in results),
            bytes_after=sum(r.bytes_after for r in results),
            seconds=elapsed,
        )

    def _allocate_output_names(self, partition: int) -> Tuple[str, str]:
        """Consume the partition's two output sequence numbers, in order."""
        combined_name = run_name(partition, "combined", "compact",
                                 self.run_manager.next_sequence())
        from_name = run_name(partition, "from", "compact",
                             self.run_manager.next_sequence())
        return combined_name, from_name

    def _discard_unregistered_outputs(self, names: Dict[int, Tuple[str, str]]) -> None:
        """Delete allocated output files that never made it into the catalogue."""
        backend = self.run_manager.backend
        for partition, allocated in names.items():
            registered = {run.name for run in self.run_manager.runs_for(partition)}
            for name in allocated:
                if name not in registered and backend.exists(name):
                    backend.delete(name)
                    if self.run_manager.cache is not None:
                        self.run_manager.cache.invalidate_file(name)

    def compact_partition(self, partition: int,
                          _names: Optional[Tuple[str, str]] = None,
                          ) -> PartitionCompactionResult:
        """Merge, join and purge the runs of one partition.

        ``_names`` carries the output run names :meth:`compact_all`
        pre-allocated; direct callers leave it unset and the names are
        allocated here instead.  Either way both names are fixed up front, in
        a fixed order, before it is known whether a table is empty; a
        sequence number consumed for an empty table is simply skipped.
        """
        bytes_before = sum(r.size_bytes for r in self.run_manager.runs_for(partition))

        combined_name, from_name = (
            _names if _names is not None else self._allocate_output_names(partition)
        )

        while True:
            try:
                records_in, records_out, purged, new_runs = self._compact_streaming(
                    partition, combined_name, from_name)
                break
            except CorruptPageError as error:
                # A damaged *input* page: quarantine the run and recompact
                # the partition from the survivors -- degraded, but correct
                # with respect to the remaining data.  Bounded: every round
                # removes one run from the catalogue, and an unrecognised
                # name (already quarantined, or one of our own half-written
                # outputs) re-raises immediately.  The writers recreate the
                # output files from scratch on the next round.
                if not self.run_manager.quarantine_run(error.run_name):
                    raise

        self.run_manager.replace_partition(partition, new_runs)

        bytes_after = sum(r.size_bytes for r in self.run_manager.runs_for(partition))
        return PartitionCompactionResult(
            partition=partition,
            records_in=records_in,
            records_out=records_out,
            records_purged=purged,
            bytes_before=bytes_before,
            bytes_after=bytes_after,
        )

    # ------------------------------------------------------------ streaming

    def _compact_streaming(
        self, partition: int, combined_name: str, from_name: str,
    ) -> tuple[int, int, int, Dict[str, List[ReadStoreReader]]]:
        """One pass: merge -> filter -> join -> split/purge -> write, all lazy."""
        runs = {table: self.run_manager.runs_for(partition, table) for table in TABLES}
        # Every input record is read exactly once, so the run headers'
        # counts are the records this pass takes in, deletion-vector
        # suppressions included.
        bound = {table: sum(run.num_records for run in runs[table]) for table in TABLES}
        vector = self.deletion_vector

        def table_rows(table: str):
            rows = merge_sorted_runs([run.iter_rows() for run in runs[table]])
            return vector.filter_rows(rows) if vector else rows

        combined_writer = ReadStoreWriter(
            self.run_manager.backend, combined_name, "combined",
            bloom_bits=self.config.combined_bloom_bits)
        from_writer = ReadStoreWriter(
            self.run_manager.backend, from_name, "from",
            bloom_bits=self.config.run_bloom_bits)
        # Every complete record consumes one To or one earlier Combined
        # record, and every leftover From is an input From: the inputs bound
        # the outputs, so neither filter starts at its configured maximum.
        combined_writer.begin(max_records=bound["to"] + bound["combined"])
        from_writer.begin(max_records=bound["from"])
        add_combined = combined_writer.add_row
        add_from = from_writer.add_row

        purged = 0
        keep = self._should_keep
        pinned_cache: Dict[int, Optional[Sequence[int]]] = {}
        for row in join_rows_for_query(
                table_rows("from"), table_rows("to"), table_rows("combined")):
            if row.endswith(INFINITY_BE):
                # Live: the reference stays incomplete in the From table.
                add_from(row[:FROM_RECORD_SIZE])
            elif keep(row, pinned_cache):
                add_combined(row)
            else:
                purged += 1

        records_out = combined_writer.num_records_added + from_writer.num_records_added
        new_runs: Dict[str, List[ReadStoreReader]] = {"combined": [], "from": [], "to": []}
        for table, writer in (("combined", combined_writer), ("from", from_writer)):
            built = writer.finish(cache=self.run_manager.cache)
            if built is not None:
                new_runs[table].append(built)
        return sum(bound.values()), records_out, purged, new_runs

    # ------------------------------------------------------------ internals

    def _should_keep(self, row: bytes,
                     pinned_cache: Dict[int, Optional[Sequence[int]]]) -> bool:
        """Purge predicate over a complete Combined row: can any surviving
        version still need it?"""
        line, start, stop = _LINE_FROM_TO(row, 24)
        # Override records (from == 0) of a clone line are tombstones
        # that suppress structural inheritance from the parent snapshot.
        # Purging one would silently resurrect the inherited reference,
        # so they are kept for as long as the clone line exists.
        if start == 0 and self.clone_graph.parent_of(line) is not None:
            return True
        if line not in pinned_cache:
            pinned_cache[line] = self._pinned_versions(line)
        pinned = pinned_cache[line]
        return pinned is None or any_version_in(pinned, start, stop)

    def _pinned_versions(self, line: int) -> Optional[Sequence[int]]:
        """Versions that pin records of ``line`` against purging.

        These are the line's valid versions (retained snapshots, zombies and
        the live CP, as reported by the version authority) plus the versions
        at which clones were taken -- a cloned snapshot's back references may
        be inherited by its descendants and must survive even if the
        snapshot itself is gone.
        """
        valid = self.authority.valid_versions(line)
        if valid is None:
            return None
        pinned = set(valid)
        pinned.update(self.clone_graph.clone_versions(line))
        return sorted(pinned)
