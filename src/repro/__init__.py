"""Backlog: log-structured back references for write-anywhere file systems.

A reproduction of *"Tracking Back References in a Write-Anywhere File
System"* (Macko, Seltzer, Smith -- FAST 2010).  The package contains:

* :mod:`repro.core` -- the Backlog back-reference database (write stores,
  LSM/stepped-merge read stores, Bloom filters, compaction, structural
  inheritance, query engine),
* :mod:`repro.fsim` -- a write-anywhere file system simulator with snapshots,
  writable clones and deduplication,
* :mod:`repro.cluster` -- a coordinator/worker process cluster sharding the
  device's partitions across N worker processes behind the same Backlog
  surface,
* :mod:`repro.baselines` -- the comparison points used in the paper's
  evaluation (the naive conceptual table, btrfs-style native back
  references, brute-force tree traversal),
* :mod:`repro.workloads` -- synthetic, NFS-trace-like, microbenchmark and
  application-mix workload generators, and
* :mod:`repro.analysis` -- metric collection and table/figure formatting for
  the benchmark harness.

Quickstart
----------
>>> from repro import Backlog, FileSystem, SnapshotManagerAuthority
>>> backlog = Backlog()
>>> fs = FileSystem(listeners=[backlog])
>>> backlog.set_version_authority(SnapshotManagerAuthority(fs))
>>> inode = fs.create_file(num_blocks=4)
>>> fs.take_consistency_point()
1
>>> block = fs.volume().inodes[inode].physical_block(0)
>>> [(ref.inode, ref.offset) for ref in backlog.query(block)]
[(2, 0)]
"""

from repro.core import (
    Backlog,
    BacklogConfig,
    BacklogStats,
    BackReference,
    BloomFilter,
    Catalogue,
    CatalogueSnapshot,
    CloneGraph,
    CombinedRecord,
    CorruptPageError,
    DeletionVector,
    ExplicitVersionAuthority,
    AllVersionsAuthority,
    FromRecord,
    INFINITY,
    Partitioner,
    QueryResult,
    QuerySpec,
    RecordBlock,
    RetryPolicy,
    ScrubReport,
    SnapshotManagerAuthority,
    ToRecord,
    VersionAuthority,
    WriteStore,
    decode_resume_token,
    encode_resume_token,
    recover_backlog,
    scrub_backend,
    verify_backlog,
)
from repro.cluster import ShardedBacklog, ShardMap
from repro.server import QueryService
from repro.fsim import (
    DedupConfig,
    DiskBackend,
    DiskImageBackend,
    FaultPlan,
    FaultStats,
    FaultyBackend,
    FileSystem,
    FileSystemConfig,
    MemoryBackend,
    ReferenceListener,
    SnapshotPolicy,
    TornWriteError,
    TransientIOError,
)

__version__ = "0.13.0"

__all__ = [
    "AllVersionsAuthority",
    "Backlog",
    "BacklogConfig",
    "BacklogStats",
    "BackReference",
    "BloomFilter",
    "Catalogue",
    "CatalogueSnapshot",
    "CloneGraph",
    "CombinedRecord",
    "CorruptPageError",
    "DedupConfig",
    "DeletionVector",
    "DiskBackend",
    "DiskImageBackend",
    "ExplicitVersionAuthority",
    "FaultPlan",
    "FaultStats",
    "FaultyBackend",
    "FileSystem",
    "FileSystemConfig",
    "FromRecord",
    "INFINITY",
    "MemoryBackend",
    "Partitioner",
    "QueryResult",
    "QueryService",
    "QuerySpec",
    "RecordBlock",
    "ReferenceListener",
    "RetryPolicy",
    "ScrubReport",
    "ShardMap",
    "ShardedBacklog",
    "SnapshotManagerAuthority",
    "SnapshotPolicy",
    "ToRecord",
    "TornWriteError",
    "TransientIOError",
    "VersionAuthority",
    "WriteStore",
    "decode_resume_token",
    "encode_resume_token",
    "recover_backlog",
    "scrub_backend",
    "verify_backlog",
    "__version__",
]
