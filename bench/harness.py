"""Shared pieces of the benchmark: configuration, statistics, spans, replay."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import BacklogConfig

from bench.traces import (CLONE, CP, MARK, OPS, SNAPSHOT_DELETED,
                          RecordedAuthority, Trace)

__all__ = ["now", "bench_config", "percentile", "Spans",
           "ReplayTiming", "replay", "Scale", "FULL", "SMOKE"]

now = time.perf_counter

#: Narrow enough that the synthetic trace spans 5 partitions and the NFS
#: trace 3; the default (1 << 20) would never exercise the partition split.
PARTITION_SIZE_BLOCKS = 16384


def bench_config(cluster_shards: int = 1, **overrides) -> BacklogConfig:
    """Every worker count pinned, so ``REPRO_*`` variables cannot leak in."""
    return BacklogConfig(flush_workers=1, maintenance_workers=1,
                         query_workers=1, cluster_shards=cluster_shards,
                         partition_size_blocks=PARTITION_SIZE_BLOCKS,
                         **overrides)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * fraction
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


@dataclass(frozen=True)
class Scale:
    """Trace sizes and per-round query counts."""

    name: str
    synthetic_cps: int
    cluster_cps: int
    nfs_hours: int
    clone_every: int
    clone_delete_every: int
    maintain_every: int
    points: int          # point queries per query round
    ranges: int
    firsts: int
    http_points: int     # the HTTP surface costs ~44 ms a round trip
    http_ranges: int
    http_firsts: int
    truth_sample: int    # blocks checked against the fs tree walk
    layer_points: int    # sample sizes of the traced run's ladders
    layer_ranges: int
    coordinator_points: int
    repeat_units: bool   # honour WorkloadSpec.min_replays / min_rounds


FULL = Scale("full", synthetic_cps=100, cluster_cps=40, nfs_hours=12,
             clone_every=14, clone_delete_every=45, maintain_every=25,
             points=1000, ranges=240, firsts=240,
             http_points=40, http_ranges=64, http_firsts=8,
             truth_sample=500, layer_points=500, layer_ranges=50,
             coordinator_points=1500, repeat_units=True)

SMOKE = Scale("smoke", synthetic_cps=10, cluster_cps=6, nfs_hours=1,
              clone_every=4, clone_delete_every=9, maintain_every=5,
              points=40, ranges=5, firsts=5,
              http_points=4, http_ranges=2, http_firsts=2,
              truth_sample=100, layer_points=20, layer_ranges=4,
              coordinator_points=30, repeat_units=False)


class Spans:
    """In-memory span log of a traced run, written out once at exit.

    A span is ``(name, start, end, parent, op)``: ``parent`` is the index
    of the span that caused it (-1 for a root) and ``op`` the identifier
    shared by every span of one operation.  An untraced run passes ``None``
    wherever a ``Spans`` is accepted, so it pays nothing.
    """

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, float, int, int]] = []
        self._origin = now()

    def add(self, name: str, start: float, end: float, parent: int = -1,
            op: int = 0) -> int:
        self.rows.append((name, start, end, parent, op))
        return len(self.rows) - 1

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part its children cover."""
        covered = [0.0] * len(self.rows)
        for _name, start, end, parent, _op in self.rows:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _parent, _op), child in zip(self.rows, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - child
        return totals

    def write(self, path: str, header: Dict[str, object]) -> None:
        origin = self._origin
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                **header,
                "columns": ["name", "start_us", "end_us", "parent", "op"],
                "spans": [[name, round((start - origin) * 1e6, 1),
                           round((end - origin) * 1e6, 1), parent, op]
                          for name, start, end, parent, op in self.rows],
                "self_time_us": {name: round(seconds * 1e6, 1) for name, seconds
                                 in sorted(self.self_times().items())},
            }, handle)


@dataclass
class ReplayTiming:
    """What one replay of a trace cost, as seen from outside the system."""

    block_ops: int = 0
    update_batches: List[float] = field(default_factory=list)  # add/remove callbacks
    cp_seconds: List[float] = field(default_factory=list)
    maintain: List[Tuple[float, int, int]] = field(default_factory=list)

    @property
    def update_seconds(self) -> float:
        return sum(self.update_batches)

    @property
    def maintain_seconds(self) -> List[float]:
        return [seconds for seconds, _records_in, _purged in self.maintain]

    @property
    def update_us_per_op(self) -> float:
        return (self.update_seconds + sum(self.cp_seconds)) * 1e6 / self.block_ops


def replay(trace: Trace, segments: Sequence[Tuple], system,
           authority: RecordedAuthority, maintain_every: Optional[int] = None,
           maintain_at_end: bool = False,
           after_chunk: Optional[Callable[[int], None]] = None,
           spans: Optional[Spans] = None, op: int = 0) -> ReplayTiming:
    """Drive ``system`` with the recorded callbacks, timing each public call.

    ``system`` is anything with the ``ReferenceListener`` methods and
    ``maintain()`` -- a ``Backlog`` or a ``ShardedBacklog``.  Updates are
    timed per batch (one clock pair around the loop over a batch, not per
    callback); every consistency point and maintenance pass on its own.
    ``after_chunk(i)`` runs untimed after the i-th OPS segment.
    """
    timing = ReplayTiming(block_ops=trace.block_ops)
    added = system.on_reference_added
    removed = system.on_reference_removed
    cps_done = 0
    maintained_at = -1
    chunk = 0
    root = spans.add("replay", now(), now(), -1, op) if spans is not None else -1

    def maintain() -> None:
        nonlocal maintained_at
        start = now()
        stats = system.maintain()
        end = now()
        timing.maintain.append((end - start, stats.records_in, stats.records_purged))
        maintained_at = cps_done
        if spans is not None:
            spans.add("compaction.pass", start, end, root, op)

    for item in segments:
        kind = item[0]
        if kind == OPS:
            start = now()
            for is_remove, block, inode, offset, line, cp in item[1]:
                if is_remove:
                    removed(block, inode, offset, line, cp)
                else:
                    added(block, inode, offset, line, cp)
            end = now()
            timing.update_batches.append(end - start)
            if spans is not None:
                spans.add("update.batch", start, end, root, op)
            if after_chunk is not None:
                after_chunk(chunk)
            chunk += 1
        elif kind == CP:
            start = now()
            system.on_consistency_point(item[1])
            end = now()
            timing.cp_seconds.append(end - start)
            cps_done += 1
            if spans is not None:
                spans.add("flush.cp", start, end, root, op)
        elif kind == CLONE:
            system.on_clone_created(*item[1:])
        elif kind == SNAPSHOT_DELETED:
            system.on_snapshot_deleted(*item[1:])
        elif kind == MARK:
            authority.table = trace.tables[item[1]]
            if maintain_every and cps_done % maintain_every == 0 \
                    and maintained_at != cps_done:
                maintain()
    if maintain_at_end and maintained_at != cps_done:
        maintain()
    if spans is not None:
        name, start, _end, parent, op_id = spans.rows[root]
        spans.rows[root] = (name, start, now(), parent, op_id)
    return timing
