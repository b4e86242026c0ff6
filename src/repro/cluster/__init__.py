"""Process-cluster deployment of the back-reference database.

A :class:`ShardedBacklog` coordinator stripes the device's partitions
across N spawned worker processes (:mod:`repro.cluster.worker`), each
owning an ordinary single-process :class:`~repro.core.backlog.Backlog`
over its own storage, and speaks a framed, versioned request/response
protocol (:mod:`repro.cluster.protocol`) over one pipe per worker.
Placement is the pure function in :mod:`repro.cluster.shard_map`; queries
scatter per-partition sub-queries to the owning shards and gather them
with the same partition-boundary merge the in-process lazy gather uses,
so answers, emission order, resume-token pagination and exact page
accounting are identical to a single-process Backlog.
"""

from repro.cluster.coordinator import (
    ClusterCheckpointError,
    ClusterError,
    ShardedBacklog,
)
from repro.cluster.protocol import (
    Channel,
    ChannelClosedError,
    Opcode,
    ProtocolError,
    WorkerError,
)
from repro.cluster.shard_map import ShardMap
from repro.cluster.worker import shard_directory, shard_meta_path, worker_main

__all__ = [
    "Channel",
    "ChannelClosedError",
    "ClusterCheckpointError",
    "ClusterError",
    "Opcode",
    "ProtocolError",
    "ShardMap",
    "ShardedBacklog",
    "WorkerError",
    "shard_directory",
    "shard_meta_path",
    "worker_main",
]
