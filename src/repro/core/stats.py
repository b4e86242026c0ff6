"""Statistics collected by the Backlog manager.

The paper's evaluation reports three families of numbers, all of which are
derived from these counters:

* *maintenance overhead during normal operation* -- I/O page writes and CPU
  microseconds per block operation (Figures 5 and 7),
* *space overhead* -- size of the back-reference database as a percentage of
  the physical data size (Figures 6 and 8), and
* *query performance* -- queries per second and I/O reads per query
  (Figures 9 and 10).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "BacklogStats",
    "CheckpointStats",
    "ExecutorStats",
    "QueryStats",
    "MaintenanceStats",
    "WorkerStats",
]


@dataclass
class CheckpointStats:
    """Per-consistency-point accounting, appended at every flush."""

    cp: int
    block_ops: int
    persistent_ops: int
    pages_written: int
    flush_seconds: float
    ws_records_flushed: int
    pruned_pairs: int
    #: Cumulative time spent in reference updates up to and including this CP
    #: (differences between consecutive checkpoints give the per-CP figure).
    cumulative_update_seconds: float = 0.0

    @property
    def writes_per_block_op(self) -> float:
        """I/O page writes per block operation in this CP (Figure 5, left)."""
        if self.block_ops == 0:
            return 0.0
        return self.pages_written / self.block_ops

    @property
    def writes_per_persistent_op(self) -> float:
        """I/O writes per operation whose effects survived the CP."""
        if self.persistent_ops == 0:
            return 0.0
        return self.pages_written / self.persistent_ops

    def microseconds_per_block_op(self, previous_cumulative_update_seconds: float) -> float:
        """CPU µs per block op in this CP, given the previous CP's cumulative time."""
        if self.block_ops == 0:
            return 0.0
        update = self.cumulative_update_seconds - previous_cumulative_update_seconds
        return (update + self.flush_seconds) * 1e6 / self.block_ops


@dataclass
class WorkerStats:
    """Work done by one executor worker thread (or the calling thread)."""

    jobs: int = 0
    seconds: float = 0.0


@dataclass
class ExecutorStats:
    """Per-worker accounting for one :class:`~repro.core.executor.PartitionExecutor`.

    One instance each for the flush pool and the maintenance pool
    (:attr:`BacklogStats.flush_pool` / :attr:`BacklogStats.maintenance_pool`).
    ``workers`` maps a worker thread's name -- or the calling thread's, for
    inline serial execution -- to its cumulative job count and busy seconds,
    so a benchmark can read off both the fan-out achieved and the imbalance
    across workers.  ``record`` is called from worker threads and takes the
    stats lock; everything else is read single-threaded.
    """

    dispatches: int = 0
    jobs: int = 0
    #: Transient faults absorbed by the executor's retry policy.
    retries: int = 0
    #: Parallel batches that failed gracefully and were re-run serially.
    serial_fallbacks: int = 0
    workers: Dict[str, WorkerStats] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, worker: str, seconds: float) -> None:
        """Account one finished job to ``worker`` (thread-safe)."""
        with self._lock:
            self.jobs += 1
            entry = self.workers.get(worker)
            if entry is None:
                entry = self.workers[worker] = WorkerStats()
            entry.jobs += 1
            entry.seconds += seconds

    def count_retry(self) -> None:
        """Account one absorbed transient fault (thread-safe)."""
        with self._lock:
            self.retries += 1

    def count_dispatch(self) -> None:
        """Account one fanned-out batch (thread-safe).

        The flush/maintenance paths bump ``dispatches`` single-threaded, but
        the query pool is driven from arbitrarily many concurrent sessions,
        so the read side counts through here.
        """
        with self._lock:
            self.dispatches += 1

    @property
    def busy_seconds(self) -> float:
        """Total worker-busy time across all workers (sum, not wall time)."""
        return sum(worker.seconds for worker in self.workers.values())

    @property
    def max_worker_seconds(self) -> float:
        """Busy time of the most loaded worker (the parallel critical path)."""
        if not self.workers:
            return 0.0
        return max(worker.seconds for worker in self.workers.values())

    def reset(self) -> None:
        with self._lock:
            self.dispatches = 0
            self.jobs = 0
            self.retries = 0
            self.serial_fallbacks = 0
            self.workers.clear()

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot, taken under the stats lock.

        This is how pool timings reach the wire (``GET /stats``, the CLI's
        ``--stats`` footer, the cluster's per-shard STATS opcode): collected
        per worker thread in-process, folded into plain dicts here.
        """
        with self._lock:
            return {
                "dispatches": self.dispatches,
                "jobs": self.jobs,
                "retries": self.retries,
                "serial_fallbacks": self.serial_fallbacks,
                "busy_seconds": round(self.busy_seconds, 6),
                "max_worker_seconds": round(self.max_worker_seconds, 6),
                "workers": {
                    name: {"jobs": worker.jobs,
                           "seconds": round(worker.seconds, 6)}
                    for name, worker in self.workers.items()
                },
            }


@dataclass
class QueryStats:
    """Aggregated over one query batch (reset explicitly by the caller)."""

    queries: int = 0
    back_references_returned: int = 0
    pages_read: int = 0
    runs_probed: int = 0
    runs_skipped_by_bloom: int = 0
    #: Queries answered through the materialising narrow-query fast path
    #: (candidate run count <= BacklogConfig.narrow_dispatch_max_runs).
    narrow_fast_path_queries: int = 0
    #: Queries answered through the cursor surface (``Backlog.select`` /
    #: ``QueryEngine.open_cursor``); each cursor counts as one query.
    cursors_opened: int = 0
    #: Resumed pages answered from a parked pipeline (the session-scoped
    #: cursor resume cache) instead of re-running the Bloom prefilter and
    #: re-seeking every run in the active partition.
    resume_cache_hits: int = 0
    #: Checksum mismatches the query path detected while decoding pages.
    corrupt_pages_detected: int = 0
    #: Damaged runs dropped from the catalogue so the query could be
    #: re-answered from the surviving runs (degraded but correct answers
    #: with respect to the remaining data).
    runs_quarantined: int = 0
    seconds: float = 0.0

    @property
    def reads_per_query(self) -> float:
        if self.queries == 0:
            return 0.0
        return self.pages_read / self.queries

    @property
    def queries_per_second(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.queries / self.seconds

    def reset(self) -> None:
        self.queries = 0
        self.back_references_returned = 0
        self.pages_read = 0
        self.runs_probed = 0
        self.runs_skipped_by_bloom = 0
        self.narrow_fast_path_queries = 0
        self.cursors_opened = 0
        self.resume_cache_hits = 0
        self.corrupt_pages_detected = 0
        self.runs_quarantined = 0
        self.seconds = 0.0

    _COUNTER_FIELDS = (
        "queries", "back_references_returned", "pages_read", "runs_probed",
        "runs_skipped_by_bloom", "narrow_fast_path_queries", "cursors_opened",
        "resume_cache_hits", "corrupt_pages_detected", "runs_quarantined",
    )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of the counters (plus ``seconds``)."""
        snapshot: Dict[str, object] = {
            name: getattr(self, name) for name in self._COUNTER_FIELDS}
        snapshot["seconds"] = round(self.seconds, 6)
        return snapshot

    def snapshot_counters(self) -> Dict[str, int]:
        """The integer counters alone (the cluster's per-page delta basis)."""
        return {name: getattr(self, name) for name in self._COUNTER_FIELDS}

    def add_counters(self, delta: Dict[str, int]) -> None:
        """Fold a per-shard counter delta into this instance.

        The cluster coordinator folds each worker reply's page tally into
        its own :class:`QueryStats` through here, so the exact-page-
        accounting contract (`pages_read` et al.) holds across the process
        boundary.  Unknown keys are ignored so a newer worker can ship a
        counter an older coordinator does not track.
        """
        for name in self._COUNTER_FIELDS:
            value = delta.get(name)
            if value:
                setattr(self, name, getattr(self, name) + value)


@dataclass
class MaintenanceStats:
    """One database-maintenance (compaction) pass."""

    sequence: int
    partitions_processed: int
    records_in: int
    records_out: int
    records_purged: int
    bytes_before: int
    bytes_after: int
    seconds: float

    @property
    def reduction_ratio(self) -> float:
        """Fractional size reduction achieved by this maintenance pass."""
        if self.bytes_before == 0:
            return 0.0
        return 1.0 - (self.bytes_after / self.bytes_before)


@dataclass
class BacklogStats:
    """Top-level counters for one Backlog instance."""

    references_added: int = 0
    references_removed: int = 0
    pruned_pairs: int = 0
    consistency_points: int = 0
    update_seconds: float = 0.0
    flush_seconds: float = 0.0
    checkpoints: List[CheckpointStats] = field(default_factory=list)
    maintenance_runs: List[MaintenanceStats] = field(default_factory=list)
    query: QueryStats = field(default_factory=QueryStats)
    #: Per-worker timing of the flush fan-out and the parallel compactions
    #: (serial execution accounts to the calling thread).
    flush_pool: ExecutorStats = field(default_factory=ExecutorStats)
    maintenance_pool: ExecutorStats = field(default_factory=ExecutorStats)
    #: Per-worker timing of the read-side partition fan-out (empty unless
    #: ``BacklogConfig.query_workers > 1`` and a multi-partition query ran).
    query_pool: ExecutorStats = field(default_factory=ExecutorStats)

    @property
    def block_ops(self) -> int:
        """Total reference additions + removals observed."""
        return self.references_added + self.references_removed

    @property
    def total_pages_written(self) -> int:
        return sum(cp.pages_written for cp in self.checkpoints)

    @property
    def writes_per_block_op(self) -> float:
        """Average I/O writes per block operation over the whole run."""
        if self.block_ops == 0:
            return 0.0
        return self.total_pages_written / self.block_ops

    @property
    def microseconds_per_block_op(self) -> float:
        """Average CPU time (µs) per block operation, including flush time."""
        if self.block_ops == 0:
            return 0.0
        return (self.update_seconds + self.flush_seconds) * 1e6 / self.block_ops
