"""Joining the From and To tables into the Combined view.

The conceptual back-reference table is the outer join of From and To
(§4.2.1): a From tuple joins with the To tuple that has the same identity
``(block, inode, offset, line)`` and the smallest ``to`` such that
``from < to``.  A From tuple with no matching To is still live and joins with
an implicit ``to = INFINITY``; a To tuple with no matching From is a
structural-inheritance override (§4.2.2) and joins with an implicit
``from = 0``.

One join over NamedTuple records lives here: :func:`materialized_join`, the
query engine's narrow-arm join -- dict re-grouping plus a global sort over a
handful of records in any order, live references appearing with ``to =
INFINITY``.  It is also the reference the row join is tested against.
Every other join -- the query engine's wide arm and database maintenance
alike -- is the sort-merge join over packed rows,
:func:`repro.core.columnar.join_rows_for_query`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from repro.core.records import CombinedRecord, FromRecord, INFINITY, ReferenceKey, ToRecord

__all__ = ["materialized_join"]


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
