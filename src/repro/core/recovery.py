"""Crash recovery for the back-reference database.

Backlog's durability story (§5.4) piggybacks on the write-anywhere file
system: a consistency point is complete only once every read-store run it
produced is safely on disk, so after a crash the on-disk database is exactly
the state as of the last complete CP.  What is lost is the in-memory write
stores -- the updates made since that CP -- and those are rebuilt by replaying
the file system's journal.

This module provides the two halves of that story for the simulator:

* :func:`rebuild_run_manager` -- scan a storage backend for read-store runs
  and reconstruct the run catalogue (the equivalent of mounting the
  database after a restart);
* :func:`recover_backlog` -- build a fresh :class:`~repro.core.backlog.Backlog`
  over an existing backend and replay a journal into its write stores;

plus the integrity audit that complements them:

* :func:`scrub_backend` -- walk every run on a backend verifying page
  checksums (the engine behind ``repro scrub``), reporting -- and optionally
  reclaiming -- corrupt runs and invalid leftover files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.backlog import Backlog
from repro.core.config import BacklogConfig
from repro.core.masking import VersionAuthority
from repro.core.read_store import CorruptPageError, ReadStoreReader
from repro.core.lsm import (RunManager, parse_run_name, parse_tombstone_name,
                            tombstone_name)
from repro.fsim.blockdev import StorageBackend
from repro.fsim.cache import PageCache
from repro.fsim.journal import Journal

__all__ = ["rebuild_run_manager", "recover_backlog", "scrub_backend", "ScrubReport"]


def rebuild_run_manager(backend: StorageBackend, cache: Optional[PageCache] = None,
                        remove_invalid: bool = False) -> RunManager:
    """Reconstruct the run catalogue by scanning the backend's files.

    Runs are re-registered in sequence order so that the catalogue's notion
    of creation order (which matters for nothing functional, but keeps
    diagnostics stable) matches the original.  The sequence counter is
    advanced past the highest sequence seen so new runs get fresh names.

    A run file that cannot be opened -- empty, truncated mid-write, with a
    corrupt or foreign header (a CRC that does not match, any other magic), or
    unreadable at the OS level -- is the remnant of a compaction that
    crashed before registering its output, or storage damage.  Such a file
    is not part of the database (the catalogue swap happens only after
    every page is on disk), so it is skipped; with ``remove_invalid=True``
    it is also deleted to reclaim the space.  Its sequence number still
    advances the counter so a fresh run can never collide with the leftover
    name.

    A run file accompanied by a ``.retired`` tombstone was already retired
    from the catalogue -- its deletion was deferred behind a reader pinned
    at crash time (see :mod:`repro.core.lsm`).  No pin survives a restart,
    so such a file is never re-registered; with ``remove_invalid=True`` the
    interrupted retirement is completed (file and marker deleted).  Its
    sequence number, like an invalid leftover's, still advances the counter.
    """
    manager = RunManager(backend, cache=cache)
    files = list(backend.list_files())
    tombstoned = {run for run in (parse_tombstone_name(name) for name in files)
                  if run is not None}
    runs = []
    for name in files:
        parsed = parse_run_name(name)
        if parsed is None:
            continue
        partition, table, level, sequence = parsed
        runs.append((sequence, partition, table, name))
    max_sequence = 0
    for sequence, partition, table, name in sorted(runs):
        max_sequence = max(max_sequence, sequence)
        if name in tombstoned:
            if remove_invalid:
                backend.delete(name)
                marker = tombstone_name(name)
                if backend.exists(marker):
                    backend.delete(marker)
            continue
        try:
            reader = ReadStoreReader(backend, name, cache=cache)
        except (ValueError, IndexError, struct.error, OSError):
            # CorruptPageError subclasses ValueError, so a run whose header
            # fails its CRC is treated like any other invalid leftover.
            if remove_invalid:
                backend.delete(name)
            continue
        manager.add_run(partition, table, reader)
    if remove_invalid:
        # Orphan markers -- retirement deleted the run file but crashed
        # before removing the marker -- hold no data; finish the job.
        present = set(files)
        for name in files:
            marked = parse_tombstone_name(name)
            if marked is not None and marked not in present:
                backend.delete(name)
    # Advance the sequence counter so future runs do not collide.
    manager.reserve_through(max_sequence)
    return manager


def recover_backlog(
    backend: StorageBackend,
    journal: Optional[Journal] = None,
    config: Optional[BacklogConfig] = None,
    version_authority: Optional[VersionAuthority] = None,
    current_cp: Optional[int] = None,
    clone_parents: Optional[Iterable[Tuple[int, int, int]]] = None,
) -> Backlog:
    """Rebuild a Backlog instance after a simulated crash.

    Parameters
    ----------
    backend:
        The storage backend holding the read-store runs written before the
        crash (a :class:`~repro.fsim.blockdev.DiskBackend`, or a
        :class:`~repro.fsim.blockdev.MemoryBackend` kept alive by the test).
    journal:
        The file system's journal of reference events since the last complete
        consistency point.  If provided, its records are replayed into the
        fresh write stores, restoring the pre-crash in-memory state.
    current_cp:
        The CP number the recovered instance should consider current.
        Explicitly passing it always wins -- the caller (the file system)
        knows its own CP counter, so pass it whenever it is known.  When
        omitted, it is inferred from the journal: every journalled event
        carries the CP it belongs to, and the journal only ever holds events
        since the last complete CP, so the first record's CP *is* the CP
        that was open at the crash.  With no explicit value and an empty (or
        absent) journal there is nothing to infer from, and the fresh
        instance's default (CP 1) is kept.
    clone_parents:
        ``(line, parent_line, parent_version)`` triples describing the clone
        topology, replayed into the fresh clone graph.  Clone parentage is
        *file-system* metadata -- it survives a crash in the write-anywhere
        tree, not in the back-reference database -- so structural
        inheritance only works after recovery if the caller re-supplies it;
        pass ``fs.snapshots.clone_parentage()`` when recovering against the
        simulator.  Without it, queries silently miss inherited references
        on cloned lines.
    """
    backlog = Backlog(backend=backend, config=config, version_authority=version_authority)
    backlog.run_manager = rebuild_run_manager(
        backend, cache=backlog.cache, remove_invalid=True)
    # Re-wire the components that hold a reference to the run manager --
    # including the catalogue, which is where every pinned query snapshot
    # gets its run lists from.
    backlog._compactor.run_manager = backlog.run_manager
    backlog._query_engine.run_manager = backlog.run_manager
    backlog.catalogue.run_manager = backlog.run_manager

    if clone_parents is not None:
        for line, parent_line, parent_version in clone_parents:
            backlog.clone_graph.add_clone(line, parent_line, parent_version)

    if current_cp is not None:
        backlog.current_cp = current_cp
    elif journal is not None and len(journal) > 0:
        backlog.current_cp = next(iter(journal)).cp

    if journal is not None:
        journal.replay(
            on_add=backlog.on_reference_added,
            on_remove=backlog.on_reference_removed,
        )
    return backlog


@dataclass
class ScrubReport:
    """The result of one :func:`scrub_backend` pass."""

    #: Runs that opened and verified clean (every page checked).
    runs_ok: List[str] = field(default_factory=list)
    #: Runs with at least one checksum mismatch: name -> the failures,
    #: each a ``(page_index, kind)`` pair (``kind`` is ``"header"``,
    #: ``"leaf"``, ``"index"`` or ``"bloom"``).
    runs_corrupt: Dict[str, List[tuple]] = field(default_factory=dict)
    #: Run-named files that would not open at all (truncated, empty,
    #: unreadable, not headed by this format's magic) -- crash leftovers or
    #: foreign files rather than bit rot under a checksum.
    files_invalid: List[str] = field(default_factory=list)
    #: Deferred-delete files: runs retired from the catalogue behind a
    #: pinned reader (their ``.retired`` tombstone is present), plus orphan
    #: tombstones whose run file is already gone.  *Not* leaks or damage --
    #: an interrupted epoch reclamation; ``reclaim=True`` completes it.
    files_deferred: List[str] = field(default_factory=list)
    #: Files deleted by ``reclaim=True`` (corrupt runs, invalid leftovers,
    #: deferred-delete files and their tombstones).
    files_reclaimed: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing is corrupt and no invalid leftovers remain.

        Deferred-delete files do not make a backend unclean: they are an
        understood, self-describing state (retirement awaiting reclamation),
        not damage.
        """
        return not self.runs_corrupt and not self.files_invalid

    def summary(self) -> str:
        """One human-readable line per finding, plus a totals line."""
        lines = []
        for name in sorted(self.runs_corrupt):
            failures = ", ".join(
                f"page {page} ({kind})" for page, kind in self.runs_corrupt[name])
            lines.append(f"CORRUPT  {name}: {failures}")
        for name in self.files_invalid:
            lines.append(f"INVALID  {name}: cannot open")
        for name in self.files_deferred:
            lines.append(f"DEFERRED {name}: retired, awaiting reclamation")
        for name in self.files_reclaimed:
            lines.append(f"RECLAIMED {name}")
        lines.append(
            f"scrub: {len(self.runs_ok)} ok, "
            f"{len(self.runs_corrupt)} corrupt, {len(self.files_invalid)} invalid, "
            f"{len(self.files_deferred)} deferred, "
            f"{len(self.files_reclaimed)} reclaimed")
        return "\n".join(lines)


def scrub_backend(backend: StorageBackend, reclaim: bool = False) -> ScrubReport:
    """Walk every run on ``backend`` verifying page checksums.

    The engine behind ``repro scrub``: every run-named file is opened
    (header CRC verified) and every leaf, index and Bloom page is checked
    against its stored CRC32.  ``reclaim=True`` deletes corrupt
    runs and unopenable leftovers, reclaiming their space -- the database
    equivalent of dropping a damaged run from the catalogue, made durable.

    Files carrying a ``.retired`` tombstone are *deferred deletes* -- runs
    retired from the catalogue while a pinned reader still held them (epoch
    reclamation, :mod:`repro.core.lsm`) -- and are reported separately from
    leaks or damage; ``reclaim=True`` completes the interrupted retirement
    (file and marker).  Reclaiming assumes a quiescent backend: on a live
    system the deferred files may still be streamed by pinned snapshots.
    """
    report = ScrubReport()
    files = sorted(backend.list_files())
    present = set(files)
    tombstoned = {run for run in (parse_tombstone_name(name) for name in files)
                  if run is not None}
    for name in files:
        marked = parse_tombstone_name(name)
        if marked is not None and marked not in present:
            # Orphan marker: the retirement already deleted the run file but
            # crashed before the marker.  Report (and reclaim) the marker.
            report.files_deferred.append(name)
            continue
        if parse_run_name(name) is None:
            continue
        if name in tombstoned:
            # Retired behind a pinned reader; not part of the database, so
            # its checksums are not the database's problem.
            report.files_deferred.append(name)
            continue
        try:
            reader = ReadStoreReader(backend, name)
        except CorruptPageError as error:
            # The header page itself failed its CRC: a corrupt run, not a
            # crash leftover.  (Checked before the broad catch -- this
            # subclasses ValueError.)
            report.runs_corrupt[name] = [(error.page_index, error.kind)]
            continue
        except (ValueError, IndexError, struct.error, OSError):
            report.files_invalid.append(name)
            continue
        problems = reader.verify_checksums()
        if problems:
            report.runs_corrupt[name] = [
                (problem.page_index, problem.kind) for problem in problems]
        else:
            report.runs_ok.append(name)
    if reclaim:
        targets = list(report.runs_corrupt) + list(report.files_invalid)
        for name in report.files_deferred:
            targets.append(name)
            if parse_run_name(name) is not None:
                marker = tombstone_name(name)
                if backend.exists(marker):
                    targets.append(marker)
        for name in targets:
            if backend.exists(name):
                backend.delete(name)
            report.files_reclaimed.append(name)
    return report
