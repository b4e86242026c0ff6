"""Half-open version ranges used by back-reference records.

A back reference is valid over a range of global consistency-point numbers
``[from, to)``; ``to == INFINITY`` means the reference is still alive.  The
query path needs a handful of small operations on these ranges:

* intersecting a record's range with the set of *retained* snapshot versions
  (the "masking" step of §4.2.1),
* merging adjacent ranges produced by proactive pruning (a reference removed
  and re-added within the same consistency point becomes one range), and
* subtracting deleted versions from a range.

Ranges are represented as plain tuples so they can be embedded in record
namedtuples without overhead; ``VersionRange`` is a thin convenience wrapper
used by the public query results.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "INFINITY",
    "VersionRange",
    "any_version_in",
    "intersect_ranges",
    "merge_adjacent_ranges",
    "subtract_versions",
]

#: Sentinel consistency-point number meaning "still alive".  Chosen so that it
#: compares greater than any realistic CP number and still packs into an
#: unsigned 64-bit field on disk.
INFINITY = 2**64 - 1


@dataclass(frozen=True, order=True)
class VersionRange:
    """A half-open range ``[start, stop)`` of global CP numbers."""

    start: int
    stop: int = INFINITY

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"range start must be non-negative, got {self.start}")
        if self.stop < self.start:
            raise ValueError(f"empty or inverted range [{self.start}, {self.stop})")

    @property
    def is_live(self) -> bool:
        """True when the range extends to the live file system."""
        return self.stop == INFINITY

    def __contains__(self, version: int) -> bool:
        return self.start <= version < self.stop

    def overlaps(self, other: "VersionRange") -> bool:
        """True when the two ranges share at least one version."""
        return self.start < other.stop and other.start < self.stop

    def intersection(self, other: "VersionRange") -> "VersionRange | None":
        """Return the overlapping sub-range, or ``None`` if disjoint."""
        start = max(self.start, other.start)
        stop = min(self.stop, other.stop)
        if start >= stop:
            return None
        return VersionRange(start, stop)

    def as_tuple(self) -> Tuple[int, int]:
        return (self.start, self.stop)


def intersect_ranges(
    ranges: Iterable[Tuple[int, int]], versions: Sequence[int]
) -> List[Tuple[int, int]]:
    """Restrict ``ranges`` to the given sorted set of retained ``versions``.

    Each input range ``[a, b)`` is replaced by the (possibly empty) list of
    maximal sub-ranges that contain at least one retained version.  This is
    the masking operation of §4.2.1: a back reference whose whole lifetime
    falls between two retained snapshots is not reported by queries.

    Parameters
    ----------
    ranges:
        Iterable of ``(from, to)`` half-open ranges.
    versions:
        Sorted sequence of retained CP numbers (snapshot versions plus the
        current CP for the live file system).

    Returns
    -------
    list of ``(from, to)`` ranges, clipped so that every returned range
    contains at least one retained version.
    """
    if not versions:
        return []
    result: List[Tuple[int, int]] = []
    for start, stop in ranges:
        # A range survives masking iff some retained version v satisfies
        # start <= v < stop.  We keep the original boundaries (the caller may
        # want to know the true allocation lifetime) but drop fully dead
        # ranges.
        if any_version_in(versions, start, stop):
            result.append((start, stop))
    return result


def any_version_in(versions: Sequence[int], start: int, stop: int) -> bool:
    """Binary search: is there a version v in sorted ``versions`` with
    start <= v < stop?

    The single-range masking primitive: the query pipeline calls this once
    per record (:func:`repro.core.masking.mask_records`, the row folds of
    :mod:`repro.core.columnar`), compaction's purge predicate once per
    complete record, and the block allocator once per deferred block per
    reclamation -- hence C :func:`bisect.bisect_left`, not a Python loop.
    """
    index = bisect_left(versions, start)
    return index < len(versions) and versions[index] < stop


def merge_adjacent_ranges(ranges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge touching or overlapping ``(from, to)`` ranges.

    The input does not need to be sorted.  Used when a block reference is
    removed and immediately re-added (proactive pruning collapses the two
    records into one lifetime).
    """
    ordered = sorted(ranges)
    merged: List[Tuple[int, int]] = []
    for start, stop in ordered:
        if merged and start <= merged[-1][1]:
            prev_start, prev_stop = merged[-1]
            merged[-1] = (prev_start, max(prev_stop, stop))
        else:
            merged.append((start, stop))
    return merged


def subtract_versions(
    ranges: Iterable[Tuple[int, int]], deleted: Sequence[int]
) -> List[Tuple[int, int]]:
    """Remove individual ``deleted`` versions from half-open ranges.

    A range ``[a, b)`` from which version ``v`` is removed splits into
    ``[a, v)`` and ``[v + 1, b)`` (empty pieces are dropped).  Used by tests
    and by the compaction purge logic to reason about which part of a
    record's lifetime still matters.
    """
    deleted_sorted = sorted(set(deleted))
    result: List[Tuple[int, int]] = []
    for start, stop in ranges:
        pieces = [(start, stop)]
        for version in deleted_sorted:
            if version >= stop:
                break
            next_pieces: List[Tuple[int, int]] = []
            for a, b in pieces:
                if a <= version < b:
                    if a < version:
                        next_pieces.append((a, version))
                    if version + 1 < b:
                        next_pieces.append((version + 1, b))
                else:
                    next_pieces.append((a, b))
            pieces = next_pieces
        result.extend(pieces)
    return result
