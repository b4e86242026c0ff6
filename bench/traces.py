"""Trace capture and replay: the benchmark's load generator.

The paper's generators (:mod:`repro.workloads.synthetic`,
:mod:`repro.workloads.nfs_trace`) drive ``fsim``, which spends about twice
as long per block operation as Backlog does.  To keep that out of the timed
region the generators run once *during set-up* against a file system whose
only listener is a :class:`Recorder`; the timed region then replays the
recorded callback stream into a fresh system through the same
``ReferenceListener`` methods the file system would have called.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.masking import VersionAuthority
from repro.fsim.filesystem import FileSystem, ReferenceListener
from repro.workloads.nfs_trace import (NFSTraceConfig, NFSTracePlayer,
                                       generate_eecs03_like_trace)
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

__all__ = ["ADD", "REMOVE", "CP", "CLONE", "SNAPSHOT_DELETED", "MARK",
           "Trace", "Recorder", "RecordedAuthority", "record_synthetic",
           "record_nfs", "segment", "OPS"]

# Event kinds.  ADD/REMOVE are 0/1 so the replay loop branches on truthiness.
ADD, REMOVE, CP, CLONE, SNAPSHOT_DELETED, MARK = range(6)

VersionTable = Dict[int, List[int]]


class RecordedAuthority(VersionAuthority):
    """Serves the version table the file system had at the replayed position."""

    def __init__(self) -> None:
        self.table: VersionTable = {}

    def valid_versions(self, line: int) -> Sequence[int]:
        return self.table.get(line, ())


class Recorder(ReferenceListener):
    """Captures the listener callback stream as a flat event list."""

    def __init__(self) -> None:
        self.events: List[Tuple] = []
        self.tables: List[VersionTable] = []
        self.block_ops = 0

    def on_reference_added(self, block, inode, offset, line, cp) -> None:
        self.events.append((ADD, block, inode, offset, line, cp))
        self.block_ops += 1

    def on_reference_removed(self, block, inode, offset, line, cp) -> None:
        self.events.append((REMOVE, block, inode, offset, line, cp))
        self.block_ops += 1

    def on_consistency_point(self, cp) -> None:
        self.events.append((CP, cp))

    def on_clone_created(self, new_line, parent_line, parent_version, cp) -> None:
        self.events.append((CLONE, new_line, parent_line, parent_version, cp))

    def on_snapshot_deleted(self, line, version, is_zombie, cp) -> None:
        self.events.append((SNAPSHOT_DELETED, line, version, is_zombie, cp))

    def mark(self, fs: FileSystem) -> None:
        """Record the version table ``SnapshotManagerAuthority`` would serve now."""
        lines = set(fs.snapshots.lines()) | set(fs.volumes)
        self.tables.append({
            line: fs.snapshots.retained_versions(
                line, fs.global_cp if line in fs.volumes else None)
            for line in lines})
        self.events.append((MARK, len(self.tables) - 1))


@dataclass
class Trace:
    """A recorded run of one generator, plus the file system it left behind."""

    events: List[Tuple]
    tables: List[VersionTable]
    block_ops: int
    fs: FileSystem  # final state: the ground truth for the answer checks

    @property
    def max_block(self) -> int:
        return max(event[1] for event in self.events if event[0] <= REMOVE)


def record_synthetic(seed: int, num_cps: int, ops_per_cp: int = 2000,
                     initial_files: int = 150, clone_every: int = 14,
                     clone_delete_every: int = 45) -> Trace:
    """The paper's synthetic workload (fig5), recorded.

    The generator's own clone churn is a coin flip per CP, which makes the
    number of live clones -- and with it every query-side figure -- swing
    from 2 to 8 between seeds.  It is switched off and replaced by the same
    churn on a fixed schedule (a clone every ``clone_every`` CPs, touched
    once so it diverges; the oldest clone deleted every
    ``clone_delete_every`` CPs): ~7 clones per 100 CPs as in the paper, with
    the seed still choosing every file, size and offset.
    """
    recorder = Recorder()
    fs = FileSystem(listeners=[recorder])
    config = SyntheticWorkloadConfig(
        num_cps=num_cps, ops_per_cp=ops_per_cp, initial_files=initial_files,
        seed=seed, clones_per_100_cps=0.0, clone_delete_probability=0.0)
    rng = random.Random(seed)
    clones: List[int] = []

    def on_cp(cp: int, fs: FileSystem) -> None:
        if cp % clone_every == 0:
            line = fs.create_clone(0)
            clones.append(line)
            victim = rng.choice(fs.list_files(line))
            size = fs.file_size(victim, line=line)
            fs.write(victim, rng.randrange(max(1, size)), 1, line=line)
        if cp % clone_delete_every == 0 and clones:
            line = clones.pop(0)
            for version in list(fs.snapshots.versions(line)):
                fs.delete_snapshot(line, version)
            fs.delete_clone(line)
        recorder.mark(fs)

    SyntheticWorkload(config).run(fs, on_cp=on_cp)
    return Trace(recorder.events, recorder.tables, recorder.block_ops, fs)


def record_nfs(seed: int, hours: int, base_ops_per_hour: int = 2000,
               ops_per_cp: int = 400) -> Trace:
    """The EECS03-like NFS trace (fig7), recorded."""
    recorder = Recorder()
    fs = FileSystem(listeners=[recorder])
    config = NFSTraceConfig(seed=seed, hours=hours,
                            base_ops_per_hour=base_ops_per_hour)
    player = NFSTracePlayer(fs, ops_per_cp=ops_per_cp, seed=seed + 1)
    player.play(generate_eecs03_like_trace(config),
                on_hour=lambda _summary, fs: recorder.mark(fs))
    return Trace(recorder.events, recorder.tables, recorder.block_ops, fs)


OPS = -1  # segment kind: a batch of ADD/REMOVE events


def segment(events: Sequence[Tuple], chunk_ops: Optional[int] = None) -> List[Tuple]:
    """Group the flat event list into replay segments.

    Consecutive ADD/REMOVE events become one ``(OPS, [events])`` segment,
    cut at every other event and -- with ``chunk_ops`` -- after that many
    operations (``mixed_interleaved`` issues its queries between chunks).
    Done in set-up so the timed loop only walks prebuilt lists.
    """
    segments: List[Tuple] = []
    batch: List[Tuple] = []
    for event in events:
        if event[0] <= REMOVE:
            batch.append(event)
            if chunk_ops is not None and len(batch) >= chunk_ops:
                segments.append((OPS, batch))
                batch = []
            continue
        if batch:
            segments.append((OPS, batch))
            batch = []
        segments.append(event)
    if batch:
        segments.append((OPS, batch))
    return segments
