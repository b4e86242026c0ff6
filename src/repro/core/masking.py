"""Masking query results against the set of valid snapshot versions.

A Combined record's ``[from, to)`` range may include consistency points or
snapshots that have since been deleted; before returning query results, the
range must be checked against the versions that still exist (§4.2.1).  The
set of *valid* versions for a line is:

* the retained snapshot versions of that line,
* zombie versions (deleted snapshots that still have cloned descendants), and
* the current CP number (representing the live file system), when the line
  still has a writable volume.

Knowledge of which snapshots are retained lives outside Backlog (in the file
system), so the query engine consults a :class:`VersionAuthority`.  Three
implementations are provided: an adapter over the simulator's snapshot
manager, an explicit table for standalone use, and a permissive authority
that treats every version as valid (useful when the caller does not manage
snapshots at all).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.core.records import CombinedRecord
from repro.util.intervals import any_version_in

__all__ = [
    "VersionAuthority",
    "AllVersionsAuthority",
    "ExplicitVersionAuthority",
    "SnapshotManagerAuthority",
    "mask_records",
]


class VersionAuthority:
    """Answers "which versions of line ``l`` still exist?"."""

    def valid_versions(self, line: int) -> Optional[Sequence[int]]:
        """Sorted valid versions of ``line``, or ``None`` meaning "all valid"."""
        raise NotImplementedError


class AllVersionsAuthority(VersionAuthority):
    """Treats every version of every line as valid (masking is a no-op)."""

    def valid_versions(self, line: int) -> Optional[Sequence[int]]:
        return None


class ExplicitVersionAuthority(VersionAuthority):
    """A hand-maintained table of valid versions, for standalone callers.

    The live file system is represented by calling :meth:`set_current_cp`;
    snapshots are added and removed explicitly.
    """

    def __init__(self) -> None:
        self._versions: Dict[int, Set[int]] = {}
        self._live_lines: Set[int] = {0}
        self._current_cp = 1

    def set_current_cp(self, cp: int) -> None:
        self._current_cp = cp

    def add_line(self, line: int) -> None:
        self._live_lines.add(line)

    def remove_line(self, line: int) -> None:
        self._live_lines.discard(line)

    def add_snapshot(self, line: int, version: int) -> None:
        self._versions.setdefault(line, set()).add(version)

    def remove_snapshot(self, line: int, version: int) -> None:
        self._versions.get(line, set()).discard(version)

    def valid_versions(self, line: int) -> Optional[Sequence[int]]:
        versions = set(self._versions.get(line, set()))
        if line in self._live_lines:
            versions.add(self._current_cp)
        return sorted(versions)


class SnapshotManagerAuthority(VersionAuthority):
    """Adapter over the simulator's file system / snapshot manager."""

    def __init__(self, filesystem) -> None:
        self._fs = filesystem

    def valid_versions(self, line: int) -> Optional[Sequence[int]]:
        current_cp = self._fs.global_cp if line in self._fs.volumes else None
        return self._fs.snapshots.retained_versions(line, current_cp)


def mask_records(
    records: Iterable[CombinedRecord],
    authority: VersionAuthority,
) -> List[CombinedRecord]:
    """Drop records whose entire lifetime refers to deleted versions.

    Records keep their original ``[from, to)`` boundaries (callers may care
    about the true allocation lifetime); a record survives if at least one
    valid version of its line falls inside the range.

    A pure filter: the relative order of surviving records is the input
    order.  The authority is consulted once per distinct line, not once per
    record, and the per-record survival test is a direct bisect over the
    line's valid versions (:func:`repro.util.intervals.any_version_in`) --
    no per-record list allocation on the query hot path.
    """
    cache: Dict[int, Optional[Sequence[int]]] = {}
    kept: List[CombinedRecord] = []
    for record in records:
        line = record[3]
        if line not in cache:
            cache[line] = authority.valid_versions(line)
        valid = cache[line]
        if valid is None or any_version_in(valid, record[4], record[5]):
            kept.append(record)
    return kept
