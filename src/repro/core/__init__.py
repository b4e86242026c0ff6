"""Backlog: log-structured back references (the paper's core contribution)."""

from repro.core.backlog import Backlog
from repro.core.bloom import BloomFilter
from repro.core.catalogue import Catalogue, CatalogueSnapshot
from repro.core.compaction import Compactor, PartitionCompactionResult
from repro.core.config import BacklogConfig
from repro.core.cursor import (
    QueryResult,
    QuerySpec,
    decode_resume_token,
    encode_resume_token,
)
from repro.core.deletion_vector import DeletionVector
from repro.core.inheritance import CloneGraph, materialized_expand
from repro.core.join import materialized_join
from repro.core.lsm import RunManager, merge_sorted_runs, run_name
from repro.core.masking import (
    AllVersionsAuthority,
    ExplicitVersionAuthority,
    SnapshotManagerAuthority,
    VersionAuthority,
    mask_records,
)
from repro.core.partitioning import Partitioner
from repro.core.executor import PartitionExecutor, RetryPolicy
from repro.core.query import QueryEngine
from repro.core.read_store import CorruptPageError, ReadStoreReader, ReadStoreWriter
from repro.core.records import (
    BackReference,
    CombinedRecord,
    FromRecord,
    INFINITY,
    RecordBlock,
    ReferenceKey,
    ToRecord,
)
from repro.core.lsm import parse_run_name, rebuild_run_manager
from repro.core.recovery import ScrubReport, recover_backlog, scrub_backend
from repro.core.stats import BacklogStats, CheckpointStats, MaintenanceStats, QueryStats
from repro.core.verify import Mismatch, VerificationReport, verify_backlog
from repro.core.write_store import WriteStore

__all__ = [
    "Backlog",
    "BacklogConfig",
    "BacklogStats",
    "BackReference",
    "BloomFilter",
    "Catalogue",
    "CatalogueSnapshot",
    "CheckpointStats",
    "CloneGraph",
    "CombinedRecord",
    "Compactor",
    "CorruptPageError",
    "DeletionVector",
    "ExplicitVersionAuthority",
    "AllVersionsAuthority",
    "FromRecord",
    "INFINITY",
    "MaintenanceStats",
    "Mismatch",
    "PartitionCompactionResult",
    "PartitionExecutor",
    "Partitioner",
    "QueryEngine",
    "QueryResult",
    "QuerySpec",
    "QueryStats",
    "ReadStoreReader",
    "ReadStoreWriter",
    "RecordBlock",
    "ReferenceKey",
    "RetryPolicy",
    "RunManager",
    "ScrubReport",
    "SnapshotManagerAuthority",
    "ToRecord",
    "VerificationReport",
    "VersionAuthority",
    "WriteStore",
    "decode_resume_token",
    "encode_resume_token",
    "mask_records",
    "materialized_expand",
    "materialized_join",
    "merge_sorted_runs",
    "parse_run_name",
    "rebuild_run_manager",
    "recover_backlog",
    "run_name",
    "scrub_backend",
    "verify_backlog",
]
