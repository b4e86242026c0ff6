"""Configuration of the Backlog back-reference manager."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.core.bloom import DEFAULT_FILTER_BITS

__all__ = ["BacklogConfig"]


def _workers_from_env(*variables: str) -> int:
    """Worker-count default: the first set environment variable, else 1.

    ``REPRO_FLUSH_WORKERS`` / ``REPRO_MAINTENANCE_WORKERS`` /
    ``REPRO_QUERY_WORKERS`` let the whole test suite (and any embedding
    process) run with parallel flush, maintenance and query fan-out
    without touching a single ``BacklogConfig(...)`` call site --
    CI's parallel matrix leg sets ``REPRO_FLUSH_WORKERS=4`` and every config
    that does not *explicitly* pin its worker counts picks it up.  The
    maintenance default falls back to the flush variable so one variable
    exercises both pools.
    """
    for variable in variables:
        value = os.environ.get(variable)
        if value:
            try:
                workers = int(value)
            except ValueError:
                raise ValueError(f"{variable} must be an integer, got {value!r}")
            if workers < 1:
                raise ValueError(f"{variable} must be >= 1, got {workers}")
            return workers
    return 1


@dataclass(frozen=True)
class BacklogConfig:
    """Tunable parameters of :class:`repro.core.backlog.Backlog`.

    The defaults correspond to the configuration evaluated in the paper:
    32 KB Bloom filters per Level-0 run (sized for up to 32 000 operations
    per consistency point), a 1 MB filter cap for the Combined read store, a
    32 MB page cache for queries, and proactive pruning enabled.

    Attributes
    ----------
    partition_size_blocks:
        Width of each horizontal partition in physical blocks.
    run_bloom_bits:
        Bloom filter size (in bits) for Level-0 runs.  Compacted Combined
        runs use :data:`~repro.core.bloom.COMBINED_FILTER_BITS`.
    cache_bytes:
        Page-cache capacity used by the query path.
    proactive_pruning:
        When True (the default and the paper's behaviour), a reference added
        and removed within the same consistency point never reaches disk.
    maintenance_interval_cps:
        If set, :meth:`Backlog.on_consistency_point` automatically runs
        database maintenance every N consistency points; if None (default),
        maintenance runs only when the caller invokes :meth:`Backlog.maintain`.
    use_bloom_filters:
        Ablation switch: when False, queries probe every run.
    narrow_dispatch_max_runs:
        Size dispatch for the query read path: when the Bloom prefilter
        leaves at most this many candidate runs, the query engine answers
        through the record-list pipeline (gather lists,
        ``materialized_join``, ``materialized_expand``, dict grouping)
        instead of the row pipeline (:mod:`repro.core.columnar`), whose
        fixed per-query cost is not worth paying for one or two tiny run
        slices.  The narrow arm additionally applies only to ranges of at
        most :data:`repro.core.query.NARROW_QUERY_MAX_BLOCKS` blocks, so
        wide queries keep the row pipeline's flat-memory guarantee even
        over a freshly compacted (few-run) database.  ``0`` disables the
        narrow arm and sends every query through the row pipeline (both
        return identical answers; the differential suite enforces it).
    flush_workers / maintenance_workers:
        Sizes of the partition-sharded worker pools
        (:class:`~repro.core.executor.PartitionExecutor`): ``flush_workers``
        fans the per-``(table, partition)`` Level-0 run writes of each
        consistency point out across threads, ``maintenance_workers`` runs
        ``maintain()``'s per-partition compactions concurrently.  The
        default of 1 is byte-for-byte today's serial behaviour (no pool is
        even created); any value produces an identical database -- run
        sequence numbers are allocated before dispatch and results are
        registered in allocation order, enforced by
        ``tests/test_parallel_equivalence.py``.  The defaults honour the
        ``REPRO_FLUSH_WORKERS`` / ``REPRO_MAINTENANCE_WORKERS`` environment
        variables (maintenance falls back to the flush variable), which is
        how CI's parallel matrix leg drives the whole suite through the
        parallel paths.
    query_workers:
        Size of the read-side pool: when greater than 1, a wide
        multi-partition query drains the gathers of *later* partitions on
        worker threads while the caller consumes earlier ones, merging
        strictly at the partition boundary so cursor emission order, resume
        tokens, answers and per-query page accounting are byte-identical to
        serial (``tests/test_parallel_equivalence.py`` read-side leg).  The
        lazy-gather guarantee is preserved: prefetch only starts once the
        first partition's stream is exhausted, so ``.first()`` on partition
        0 never pays for partition N.  Default 1 (serial, no pool); honours
        ``REPRO_QUERY_WORKERS``.
    cluster_shards:
        Default shard count for the multi-process cluster
        (:class:`repro.cluster.ShardedBacklog`): how many worker processes
        the coordinator spawns, each owning the partitions the
        :class:`repro.cluster.ShardMap` stripes onto it.  A plain
        :class:`~repro.core.backlog.Backlog` ignores this field -- it only
        parameterises the cluster entry points (``ShardedBacklog`` with no
        explicit ``num_shards``, ``repro serve --shards`` with no value,
        the ``shard_factory`` test fixture).  Default 1 (a one-shard
        cluster, behaviourally a single process behind an RPC hop); honours
        ``REPRO_CLUSTER_SHARDS`` like the worker-count knobs honour theirs.
    resume_cache_size:
        Capacity (in parked cursors) of the session-scoped resume cache:
        when a ``limit``-bounded cursor page fills, its suspended pipeline is
        parked keyed by the resume token, and resuming with that token
        continues the parked pipeline instead of re-running the Bloom
        prefilter and re-seeking every run in the active partition.  Parked
        cursors are invalidated by data-flushing checkpoints (idle ones
        leave them intact), maintenance, relocation, clone registration and
        snapshot deletion, and are discarded if the
        write stores changed since parking.  ``0`` disables parking
        entirely (every resumed page rebuilds the pipeline from the token).
    io_retries:
        How many times a transient storage fault (``TransientIOError``,
        ``EINTR``/``EAGAIN``/``EIO``) inside a flush or compaction job is
        retried before the batch fails; ``0`` disables retrying.  Torn
        writes, ``ENOSPC`` and crashes are never retried -- they fail the
        batch atomically (nothing is registered in the catalogue and the
        write stores keep their data, so the caller can retry the whole
        checkpoint or recover to the last complete CP).
    io_retry_backoff_s:
        Delay before the first retry; it doubles after each subsequent
        failure of the same job.
    """

    partition_size_blocks: int = 1 << 20
    run_bloom_bits: int = DEFAULT_FILTER_BITS
    cache_bytes: int = 32 * 1024 * 1024
    proactive_pruning: bool = True
    maintenance_interval_cps: Optional[int] = None
    use_bloom_filters: bool = True
    narrow_dispatch_max_runs: int = 2
    flush_workers: int = field(
        default_factory=lambda: _workers_from_env("REPRO_FLUSH_WORKERS"))
    maintenance_workers: int = field(
        default_factory=lambda: _workers_from_env(
            "REPRO_MAINTENANCE_WORKERS", "REPRO_FLUSH_WORKERS"))
    query_workers: int = field(
        default_factory=lambda: _workers_from_env("REPRO_QUERY_WORKERS"))
    cluster_shards: int = field(
        default_factory=lambda: _workers_from_env("REPRO_CLUSTER_SHARDS"))
    resume_cache_size: int = 4
    io_retries: int = 2
    io_retry_backoff_s: float = 0.002

    def __post_init__(self) -> None:
        if self.partition_size_blocks <= 0:
            raise ValueError("partition_size_blocks must be positive")
        if self.run_bloom_bits <= 0:
            raise ValueError("run_bloom_bits must be positive")
        if self.cache_bytes < 0:
            raise ValueError("cache_bytes must be non-negative")
        if self.maintenance_interval_cps is not None and self.maintenance_interval_cps <= 0:
            raise ValueError("maintenance_interval_cps must be positive when set")
        if self.narrow_dispatch_max_runs < 0:
            raise ValueError("narrow_dispatch_max_runs must be non-negative")
        if (self.flush_workers < 1 or self.maintenance_workers < 1
                or self.query_workers < 1):
            raise ValueError("worker counts must be >= 1")
        if self.cluster_shards < 1:
            raise ValueError("cluster_shards must be >= 1")
        if self.resume_cache_size < 0:
            raise ValueError("resume_cache_size must be non-negative")
        if self.io_retries < 0:
            raise ValueError("io_retries must be non-negative")
        if self.io_retry_backoff_s < 0:
            raise ValueError("io_retry_backoff_s must be non-negative")
