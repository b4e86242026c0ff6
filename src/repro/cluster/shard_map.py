"""Deterministic partition-to-shard placement for the process cluster.

The cluster promotes the partition -- already the unit of deterministic
*thread* parallelism (flush fan-out, parallel compaction, read-side query
fan-out) -- to the unit of *distribution*: every partition is owned by
exactly one worker process, and the owner is a pure function of the
partition id and the shard count.  Partitions are striped round-robin
(``partition % num_shards``), which

* keeps contiguous block ranges spread across workers (a range scan touches
  all shards instead of hammering one),
* puts partition 0 on shard 0, preserving the lazy-gather guarantee that
  ``.first()`` on a whole-device range only ever opens the first shard, and
* makes placement identical across runs and across coordinator restarts
  with zero stored state -- the shard map *is* the function.

Because each partition has exactly one owner, the coordinator's gather can
merge per-shard answers with the same partition-boundary merge the
in-process lazy gather performs: iterate partitions in ascending order,
drain each partition's owner completely, and global ``(block, inode,
offset, line)`` emission order falls out by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.core.partitioning import Partitioner

__all__ = ["ShardMap"]


@dataclass(frozen=True)
class ShardMap:
    """Maps physical blocks to the worker shard that owns them.

    Parameters
    ----------
    num_shards:
        Number of worker processes in the cluster.
    partition_size_blocks:
        Width of each partition (must match the workers'
        :class:`~repro.core.config.BacklogConfig.partition_size_blocks`,
        since placement routes whole partitions).
    """

    num_shards: int
    partition_size_blocks: int = 1 << 20

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.partition_size_blocks <= 0:
            raise ValueError("partition_size_blocks must be positive")

    @property
    def partitioner(self) -> Partitioner:
        return Partitioner(self.partition_size_blocks)

    def shard_of_partition(self, partition: int) -> int:
        """Owning shard of ``partition`` (round-robin striping)."""
        if partition < 0:
            raise ValueError("partition ids are non-negative")
        return partition % self.num_shards

    def shard_of_block(self, block: int) -> int:
        """Owning shard of physical ``block``."""
        if block < 0:
            raise ValueError("block numbers are non-negative")
        return (block // self.partition_size_blocks) % self.num_shards

    def subranges(self, first_block: int, num_blocks: int,
                  ) -> Iterator[Tuple[int, int, int, int]]:
        """Decompose a block range at partition boundaries, in block order.

        Yields ``(partition, shard, first_block, num_blocks)`` pieces whose
        concatenation is exactly ``[first_block, first_block + num_blocks)``.
        This decomposition is what makes the scatter-gather *shard-count
        independent*: the sequence of per-partition sub-queries (and hence
        the pages each worker reads to answer them) is the same at one shard
        and at N -- only which process answers each piece changes.
        """
        if num_blocks <= 0:
            return
        size = self.partition_size_blocks
        block = first_block
        end = first_block + num_blocks
        while block < end:
            partition = block // size
            boundary = min(end, (partition + 1) * size)
            yield (partition, self.shard_of_partition(partition),
                   block, boundary - block)
            block = boundary
