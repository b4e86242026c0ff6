"""Structural inheritance: implicit back references of writable clones.

Creating a writable clone of snapshot ``(l, v)`` does not copy any back
references (that would be prohibitively expensive, §4.2.2).  Instead, every
back reference of ``(l, v)`` is *implicitly* present in all versions of the
clone line ``l'`` unless an overriding record exists for the clone -- an
override is a Combined record with the same ``(block, inode, offset)``, the
clone's line, and ``from = 0``.

At query time the initial result extracted from the Combined view must be
expanded: for every record that covers a cloned-from version, synthesize the
inherited record for the clone line (full range ``[0, INFINITY)``) unless an
override is present, and recurse, because clones can themselves be cloned.
The expansion is guaranteed to see every relevant override because the
initial extraction is per physical block: all records for the block,
whatever their line, are already in the input.

Two expansion implementations serve the two arms of the query engine:

* :func:`materialized_expand` -- the narrow arm's expansion over record
  NamedTuples in any order: deduplicate the whole (small) input, run the
  iterative fixpoint over it and sort the result.  It is also the reference
  the row expansion is tested against (``tests/test_clone_chains.py``,
  ``tests/test_inheritance.py``).

* :func:`expand_row_group` -- the wide arm's expansion over packed big-endian
  Combined rows, one ``(block, inode, offset)`` reference group at a time.
  :mod:`repro.core.columnar` feeds it the groups of a sorted row stream as
  they stream past, so the transient working set is one reference group --
  independent of the query width -- and deep clone chains over wide ranges
  expand in flat memory.

Splitting the expansion per reference group is exact, not an approximation:
the algorithm only ever synthesizes records with the *same* ``(block, inode,
offset)`` as the record it expands, and overrides are keyed by ``(block,
inode, offset, line)``, so no information flows between groups.

Clone visibility (both implementations): a record of line ``l`` covering
version ``v`` makes the reference visible in every clone taken from ``(l,
v)`` -- and transitively in clones of those clones -- as the full range
``[0, INFINITY)``, unless the initial result carries an override record
(``from = 0``) for that clone line.  Overrides are consulted from the
*initial* records of the group only, exactly as in §4.2.2: synthesized
records never suppress further inheritance.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.records import CombinedRecord, INFINITY, INFINITY_BE, ROW_STRUCTS

__all__ = ["CloneGraph", "expand_row_group", "materialized_expand",
           "pack_children_map"]


class CloneGraph:
    """Tracks which lines were cloned from which snapshots.

    Backlog maintains this graph from the file system's clone-created events;
    it is tiny (one entry per clone) and lives entirely in memory.  It is
    also consulted by compaction: back references of a cloned snapshot may
    not be purged while descendant lines survive.
    """

    def __init__(self) -> None:
        #: child line -> (parent line, parent version)
        self._parents: Dict[int, Tuple[int, int]] = {}
        #: parent line -> list of (child line, cloned version)
        self._children: Dict[int, List[Tuple[int, int]]] = {}

    def __bool__(self) -> bool:
        """True when at least one clone exists (expansion can be skipped
        entirely otherwise)."""
        return bool(self._parents)

    def add_clone(self, child_line: int, parent_line: int, parent_version: int) -> None:
        """Record that ``child_line`` was cloned from ``(parent_line, parent_version)``."""
        if child_line in self._parents:
            raise ValueError(f"line {child_line} already has a clone parent")
        if child_line == parent_line:
            raise ValueError("a line cannot be cloned from itself")
        self._parents[child_line] = (parent_line, parent_version)
        self._children.setdefault(parent_line, []).append((child_line, parent_version))

    def remove_line(self, line: int) -> None:
        """Forget a clone line that has been destroyed (volume and snapshots gone)."""
        parent = self._parents.pop(line, None)
        if parent is not None:
            parent_line, parent_version = parent
            children = self._children.get(parent_line, [])
            remaining = [(child, version) for child, version in children if child != line]
            if remaining:
                self._children[parent_line] = remaining
            else:
                del self._children[parent_line]

    def parent_of(self, line: int) -> Tuple[int, int] | None:
        return self._parents.get(line)

    def children_of(self, line: int) -> List[Tuple[int, int]]:
        """``(child_line, cloned_version)`` pairs cloned from ``line``."""
        return list(self._children.get(line, ()))

    def children_map(self) -> Dict[int, List[Tuple[int, int]]]:
        """The live parent-line -> children mapping, *not* a copy.

        The expansion hot loop probes this dict once per record; handing out
        the mapping itself avoids a list copy per probe.  Callers must not
        mutate it.
        """
        return self._children

    def clone_versions(self, line: int) -> List[int]:
        """Versions of ``line`` at which clones were taken (pins for purge)."""
        return sorted({version for _, version in self._children.get(line, ())})


_ROW1_PACK = ROW_STRUCTS[1].pack
_ZERO8 = b"\x00" * 8
#: The CP tail of a synthesized inherited row: ``from = 0, to = INFINITY``.
_INHERIT_TAIL = _ZERO8 + INFINITY_BE


def pack_children_map(
    children_map: Dict[int, List[Tuple[int, int]]],
) -> Dict[bytes, List[Tuple[bytes, bytes]]]:
    """:meth:`CloneGraph.children_map` with every field packed big-endian.

    One tiny conversion per query (the graph holds one entry per clone)
    buys :func:`expand_row_group` a fixpoint that never leaves row bytes:
    parent lines become the 8-byte slices the rows carry at ``[24:32]``,
    and clone versions become 8-byte CPs comparable against the rows'
    ``[32:40]``/``[40:48]`` slices (big-endian order equals integer order).
    """
    pack = _ROW1_PACK
    return {pack(line): [(pack(child), pack(version))
                         for child, version in children]
            for line, children in children_map.items()}


def expand_row_group(
    group: List[bytes],
    children_rows: Dict[bytes, List[Tuple[bytes, bytes]]],
) -> List[bytes]:
    """Run the §4.2.2 fixpoint over one big-endian Combined *row* group.

    The columnar pipeline's entry into inheritance resolution
    (:func:`repro.core.columnar.fold_rows_for_query`).  ``group`` must be
    sorted and duplicate-free row bytes sharing one ``(block, inode,
    offset)`` prefix; ``children_rows`` is the :func:`pack_children_map`
    form of the clone graph.  The returned list is sorted and
    duplicate-free; when no line in the group has clone children the group
    is returned unchanged (the common case: most blocks are not referenced
    by cloned snapshots).  Everything stays in byte slices: the
    no-clones-here case is one short-circuiting ``any`` of set probes, a
    match test is two slice compares, and a synthesized inherited record is
    one 48-byte splice (``key24 + child_line8 + _INHERIT_TAIL``) rather than
    a NamedTuple round trip.
    """
    if not any(row[24:32] in children_rows for row in group):
        return group
    # Overrides are taken from the *initial* rows only (from = 0); within a
    # group the identity collapses to the packed line.
    overrides = {row[24:32] for row in group if row[32:40] == _ZERO8}
    seen: Set[bytes] = set(group)
    out = list(group)
    queue = list(group)
    added = False
    while queue:
        row = queue.pop()
        children = children_rows.get(row[24:32])
        if not children:
            continue
        from8 = row[32:40]
        to8 = row[40:48]
        key24 = row[:24]
        for child_line8, version8 in children:
            if not from8 <= version8 < to8:
                continue
            if child_line8 in overrides:
                continue
            inherited = key24 + child_line8 + _INHERIT_TAIL
            if inherited in seen:
                continue
            seen.add(inherited)
            out.append(inherited)
            queue.append(inherited)
            added = True
    if added:
        # Rows compare natively in record sort-key order; the group prefix
        # is shared, so an in-group sort keeps the overall stream sorted.
        out.sort()
    return out


def materialized_expand(
    records: Sequence[CombinedRecord],
    clone_graph: CloneGraph,
) -> List[CombinedRecord]:
    """Expand an initial per-block result with inherited clone records.

    The iterative algorithm of §4.2.2 over the whole input at once:
    deduplicate, run the fixpoint over one global work queue (for every
    result record that covers a version from which a clone was taken, add an
    implicit record for the clone line unless an override is present, and
    repeat), then sort the entire result.  Accepts records in any order.
    The query engine's narrow arm uses it, where the result is small enough
    that materialising beats a generator chain.
    """
    # Deduplicate while preserving order: the same record can be gathered
    # more than once (e.g. buffered and flushed copies seen within one CP).
    result: List[CombinedRecord] = list(dict.fromkeys(records))
    overrides: Set[Tuple[int, int, int, int]] = {
        (r.block, r.inode, r.offset, r.line) for r in result if r.from_cp == 0
    }
    seen: Set[CombinedRecord] = set(result)
    queue: List[CombinedRecord] = list(result)
    while queue:
        record = queue.pop()
        for child_line, cloned_version in clone_graph.children_of(record.line):
            if not record.covers_version(cloned_version):
                continue
            identity = (record.block, record.inode, record.offset, child_line)
            if identity in overrides:
                continue
            inherited = CombinedRecord(
                record.block, record.inode, record.offset, child_line, 0, INFINITY
            )
            if inherited in seen:
                continue
            seen.add(inherited)
            result.append(inherited)
            queue.append(inherited)
    result.sort(key=CombinedRecord.sort_key)
    return result
