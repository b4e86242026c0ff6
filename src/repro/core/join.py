"""Joining the From and To tables into the Combined view.

The conceptual back-reference table is the outer join of From and To
(§4.2.1): a From tuple joins with the To tuple that has the same identity
``(block, inode, offset, line)`` and the smallest ``to`` such that
``from < to``.  A From tuple with no matching To is still live and joins with
an implicit ``to = INFINITY``; a To tuple with no matching From is a
structural-inheritance override (§4.2.2) and joins with an implicit
``from = 0``.

Two joins over NamedTuple records live here (the query engine's wide arm
joins packed rows instead, :func:`repro.core.columnar.join_rows_for_query`):

* :func:`materialized_join` -- the query engine's narrow-arm join: dict
  re-grouping plus a global sort over a handful of records in any order.
  Live references appear with ``to = INFINITY``.  It is also the reference
  the row join and :func:`stream_join_tables` are tested against.
* :func:`stream_join_tables` -- compaction's join.  Every source of records
  -- read-store runs and the write stores -- is sorted by ``(block, inode,
  offset, line, cp)``, so this is a classic sort-merge join: walk the streams
  key by key, join each key's small CP lists, and yield ``(table, record)``
  pairs so that complete Combined records and the leftover live From records
  stream into their respective compacted runs, each in its table's sort
  order, without ever materialising the inputs.

Streaming contract of :func:`stream_join_tables`:

* **Input ordering** -- each input iterable must be sorted by its table's
  sort key; behaviour on unsorted input is undefined.  Duplicate records
  are legal and pass through.
* **Output ordering** -- output is emitted in ascending join-key order; the
  records of one join key are emitted together, sorted per table, before the
  next key's.
* **Exhaustion** -- the generator reads at most one record ahead per input
  stream beyond the join key currently being emitted, and exhausts its
  inputs exactly once; abandoning it early is safe and stops pulling from
  the inputs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.core.records import CombinedRecord, FromRecord, INFINITY, ReferenceKey, ToRecord

__all__ = ["materialized_join", "stream_join_tables"]

#: The shared join key: the first four record fields of every table.
_KEY_WIDTH = 4


def _join_one_key(key: ReferenceKey, froms: List[int], tos: List[int]
                  ) -> Tuple[List[CombinedRecord], List[int]]:
    """Join the from/to CP lists of a single reference identity.

    Returns ``(complete_records, unmatched_from_cps)``.  Unmatched To entries
    become override records ``[0, to)``.
    """
    froms_sorted = sorted(froms)
    tos_sorted = sorted(tos)
    complete: List[CombinedRecord] = []
    unmatched_from: List[int] = []
    to_index = 0
    for from_cp in froms_sorted:
        # Find the smallest unconsumed to with from < to.
        while to_index < len(tos_sorted) and tos_sorted[to_index] <= from_cp:
            # This To entry precedes (or coincides with) the From entry; it
            # can only be an override record inherited from a parent line.
            complete.append(CombinedRecord(*key, 0, tos_sorted[to_index]))
            to_index += 1
        if to_index < len(tos_sorted):
            complete.append(CombinedRecord(*key, from_cp, tos_sorted[to_index]))
            to_index += 1
        else:
            unmatched_from.append(from_cp)
    # Remaining To entries have no From at all: implicit from = 0 overrides.
    for to_cp in tos_sorted[to_index:]:
        complete.append(CombinedRecord(*key, 0, to_cp))
    return complete, unmatched_from


# --------------------------------------------------------- streaming join


def _iter_key_groups(
    froms: Iterable[FromRecord],
    tos: Iterable[ToRecord],
    combined: Iterable[CombinedRecord],
) -> Iterator[Tuple[Tuple[int, int, int, int],
                    List[FromRecord], List[ToRecord], List[CombinedRecord]]]:
    """Walk three sorted streams in lock step, one join key at a time.

    Yields ``(key, from_group, to_group, combined_group)`` for every key
    present in at least one stream, in ascending key order.  The inputs must
    each be sorted by their table's sort key (which shares the leading four
    fields), as read-store runs and write-store snapshots are.

    This sits on the per-record compaction hot path, hence the flat, inlined
    shape: local iterator/lookahead variables and unpacked field comparisons
    instead of per-record key-tuple slicing.
    """
    from_iter, to_iter, combined_iter = iter(froms), iter(tos), iter(combined)
    from_head = next(from_iter, None)
    to_head = next(to_iter, None)
    combined_head = next(combined_iter, None)
    while True:
        key = None
        if from_head is not None:
            key = from_head[:_KEY_WIDTH]
        if to_head is not None:
            to_key = to_head[:_KEY_WIDTH]
            if key is None or to_key < key:
                key = to_key
        if combined_head is not None:
            combined_key = combined_head[:_KEY_WIDTH]
            if key is None or combined_key < key:
                key = combined_key
        if key is None:
            return
        k0, k1, k2, k3 = key
        from_group: List[FromRecord] = []
        while (from_head is not None and from_head[0] == k0 and from_head[1] == k1
               and from_head[2] == k2 and from_head[3] == k3):
            from_group.append(from_head)
            from_head = next(from_iter, None)
        to_group: List[ToRecord] = []
        while (to_head is not None and to_head[0] == k0 and to_head[1] == k1
               and to_head[2] == k2 and to_head[3] == k3):
            to_group.append(to_head)
            to_head = next(to_iter, None)
        combined_group: List[CombinedRecord] = []
        while (combined_head is not None and combined_head[0] == k0 and combined_head[1] == k1
               and combined_head[2] == k2 and combined_head[3] == k3):
            combined_group.append(combined_head)
            combined_head = next(combined_iter, None)
        yield key, from_group, to_group, combined_group


def stream_join_tables(
    froms: Iterable[FromRecord],
    tos: Iterable[ToRecord],
    combined: Iterable[CombinedRecord] = (),
) -> Iterator[Tuple[str, CombinedRecord | FromRecord]]:
    """Streaming whole-table join for compaction over *sorted* iterators.

    Yields ``("combined", record)`` for complete records (including pass-through
    pre-joined Combined records) and ``("from", record)`` for the live
    references that stay in the on-disk From table.  Within each tag the
    records arrive in their table's sort order, so both compacted runs can be
    written strictly sequentially while the join is still consuming input.
    """
    for key, from_group, to_group, combined_group in _iter_key_groups(froms, tos, combined):
        if not to_group:
            # No To entries: pre-joined records pass through complete and
            # every From stays incomplete, both groups already sorted.
            for record in combined_group:
                yield "combined", record
            for record in from_group:
                yield "from", record
            continue
        complete, live = _join_one_key(
            key, [r.from_cp for r in from_group], [r.to_cp for r in to_group]
        )
        complete.extend(combined_group)
        complete.sort()
        for record in complete:
            yield "combined", record
        for from_cp in live:
            yield "from", FromRecord(*key, from_cp)


# ------------------------------------------------------- materialising join


def _group_by_key(froms: Iterable[FromRecord], tos: Iterable[ToRecord]
                  ) -> Dict[ReferenceKey, Tuple[List[int], List[int]]]:
    grouped: Dict[ReferenceKey, Tuple[List[int], List[int]]] = defaultdict(lambda: ([], []))
    for record in froms:
        grouped[record.key][0].append(record.from_cp)
    for record in tos:
        grouped[record.key][1].append(record.to_cp)
    return grouped


def materialized_join(
    froms: Iterable[FromRecord],
    tos: Iterable[ToRecord],
    combined: Iterable[CombinedRecord] = (),
) -> List[CombinedRecord]:
    """The narrow-arm query join: dict re-grouping plus a global sort.

    Accepts records in any order and returns the Combined view sorted by
    record sort key, live references as ``to = INFINITY``.
    """
    results: List[CombinedRecord] = list(combined)
    for key, (from_cps, to_cps) in _group_by_key(froms, tos).items():
        complete, live = _join_one_key(key, from_cps, to_cps)
        results.extend(complete)
        for from_cp in live:
            results.append(CombinedRecord(*key, from_cp, INFINITY))
    results.sort(key=CombinedRecord.sort_key)
    return results
