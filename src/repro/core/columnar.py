"""The columnar row pipeline: join and fold over big-endian record rows.

The wide arm of the query engine (:mod:`repro.core.query`) and database
maintenance (:mod:`repro.core.compaction`) never build a record object:
constructing one NamedTuple per record -- at leaf decode, under the heap
merge, inside the sort-merge join, and again per synthesized/grouped record
-- used to be the single-process hot path.  This module implements the
record-level stages over the slab *rows* of :mod:`repro.core.records`
instead:

* a row is a fixed-width big-endian ``bytes`` string (40 B for From/To,
  48 B for Combined) whose ``memcmp`` order equals the record tuple order,
  so merging, grouping and joining need no Python objects per record;
* :func:`join_rows_for_query` is the sort-merge join of §4.2.1 with one row
  of lookahead per input stream; CP-list joining is byte-prefix surgery
  (``row[:40] + to_bytes``) instead of ``CombinedRecord`` construction.
  It is the one streaming join: queries fold its output, and maintenance
  splits it into the compacted From (live rows) and Combined tables;
* :func:`fold_rows_for_query` fuses the remaining per-record stages --
  clone expansion (:func:`repro.core.inheritance.expand_row_group`),
  snapshot masking (one ``valid_versions`` lookup per distinct line, as in
  :func:`repro.core.masking.mask_records`) and the owner group fold -- into
  one pass that yields plain owner tuples ``(block, inode, offset, line,
  ranges)``.  The tuples are shape-identical to
  :class:`~repro.core.records.BackReference`; materialisation happens at
  the public API boundary (:class:`repro.core.cursor.QueryResult`);
* :func:`scan_rows_bulk` runs the same stages as flat list passes for the
  list surface, which drains its result anyway.

Equivalence contract: for identical inputs, ``fold_rows_for_query(
join_rows_for_query(...))`` and :func:`scan_rows_bulk` emit exactly the
owners -- same values, same order -- that the narrow arm's record stages
(:func:`~repro.core.join.materialized_join` ->
:func:`~repro.core.inheritance.materialized_expand` ->
:func:`~repro.core.masking.mask_records` -> ``QueryEngine._group``) produce
from the same records; ``tests/test_columnar_equivalence.py``,
``tests/test_streaming_equivalence.py`` and ``tests/test_clone_chains.py``
hold them to that.
"""

from __future__ import annotations

from bisect import bisect_left
from struct import Struct
from typing import AbstractSet, Iterable, Iterator, List, Optional, Tuple

from repro.core.inheritance import CloneGraph, expand_row_group, pack_children_map
from repro.core.masking import VersionAuthority
from repro.core.records import INFINITY_BE, ROW_STRUCTS
from repro.util.intervals import any_version_in, merge_adjacent_ranges

__all__ = ["join_rows_for_query", "fold_rows_for_query", "scan_rows_bulk"]

_ROW1_PACK = ROW_STRUCTS[1].pack
_ROW4_UNPACK = ROW_STRUCTS[4].unpack
_ROW6_UNPACK = ROW_STRUCTS[6].unpack
_VERSIONS_UNPACK = Struct(">QQ").unpack_from
_ZERO8 = b"\x00" * 8

#: Sentinel distinguishing "not cached" from a cached ``None`` ("all
#: versions valid") in the per-line masking cache.
_MISSING = object()


def _iter_row_key_groups(
    frows: Iterable[bytes],
    trows: Iterable[bytes],
    crows: Iterable[bytes],
) -> Iterator[Tuple[bytes, List[bytes], List[bytes], List[bytes]]]:
    """Walk three sorted row streams in lock step, one join key at a time.

    Yields ``(key32, from_group, to_group, combined_group)`` for every
    32-byte identity prefix present in at least one stream, in ascending key
    order, reading at most one row ahead per stream.  Group membership is a
    single ``bytes.startswith`` (a C ``memcmp``).
    """
    from_iter, to_iter, combined_iter = iter(frows), iter(trows), iter(crows)
    from_head = next(from_iter, None)
    to_head = next(to_iter, None)
    combined_head = next(combined_iter, None)
    while True:
        key = None
        if from_head is not None:
            key = from_head[:32]
        if to_head is not None:
            to_key = to_head[:32]
            if key is None or to_key < key:
                key = to_key
        if combined_head is not None:
            combined_key = combined_head[:32]
            if key is None or combined_key < key:
                key = combined_key
        if key is None:
            return
        from_group: List[bytes] = []
        while from_head is not None and from_head.startswith(key):
            from_group.append(from_head)
            from_head = next(from_iter, None)
        to_group: List[bytes] = []
        while to_head is not None and to_head.startswith(key):
            to_group.append(to_head)
            to_head = next(to_iter, None)
        combined_group: List[bytes] = []
        while combined_head is not None and combined_head.startswith(key):
            combined_group.append(combined_head)
            combined_head = next(combined_iter, None)
        yield key, from_group, to_group, combined_group


def join_rows_for_query(
    frows: Iterable[bytes],
    trows: Iterable[bytes],
    crows: Iterable[bytes] = (),
    *,
    inode_filter: Optional[AbstractSet[int]] = None,
) -> Iterator[bytes]:
    """Streaming Combined view over *sorted* big-endian row iterators.

    Emits, in fully sorted order, the rows of exactly the records
    :func:`repro.core.join.materialized_join` returns, holding only one join
    key's rows in memory at a time.  Keys with no To entries take fast paths
    (pre-joined Combined rows pass through; pure-live From groups need no
    list and no sort); otherwise unconsumed To entries become ``[0, to)``
    overrides, matched pairs take the smallest To past their From, leftover
    Froms go live to ``INFINITY``, and an in-group sort keeps the stream
    globally sorted.  No CP is ever converted to an integer: the ``from <
    to`` matching compares 8-byte big-endian field slices, and output rows
    are spliced from input bytes (``row + INFINITY_BE`` turns a live From
    row into its Combined row, and compaction's ``row[:40]`` turns it
    back).  Duplicate input rows are legal and pass through; abandoning the
    generator early is safe and stops pulling from the inputs.

    ``inode_filter`` is the cursor API's filter pushdown: join keys whose
    inode is not in the set are dropped *before* any CP-list joining, clone
    expansion, masking or grouping happens.  Dropping whole keys here is
    exact -- clone expansion groups by ``(block, inode, offset)`` and never
    synthesizes records for a different inode, so a filtered key cannot
    influence any surviving owner.
    """
    packed_inodes = (None if inode_filter is None
                     else {_ROW1_PACK(inode) for inode in inode_filter})
    for key, from_group, to_group, combined_group in _iter_row_key_groups(
            frows, trows, crows):
        if packed_inodes is not None and key[8:16] not in packed_inodes:
            continue
        if not to_group:
            if not from_group:
                # Pure pass-through key: pre-joined rows, already sorted.
                yield from combined_group
                continue
            if not combined_group:
                # Pure live key: every From is unmatched; the group is
                # already sorted by from_cp, so no list and no sort.
                for row in from_group:
                    yield row + INFINITY_BE
                continue
        # The groups arrive sorted by full row, so the CP fields within one
        # key are pre-sorted.
        output = list(combined_group)
        append = output.append
        to_index = 0
        num_tos = len(to_group)
        for row in from_group:
            from8 = row[32:40]
            while to_index < num_tos and to_group[to_index][32:40] <= from8:
                # This To precedes (or coincides with) the From: an
                # override record inherited from a parent line.
                append(key + _ZERO8 + to_group[to_index][32:40])
                to_index += 1
            if to_index < num_tos:
                append(row + to_group[to_index][32:40])
                to_index += 1
            else:
                append(row + INFINITY_BE)
        # Remaining To entries have no From at all: implicit from=0 overrides.
        for index in range(to_index, num_tos):
            append(key + _ZERO8 + to_group[index][32:40])
        output.sort()
        yield from output


def _expand_rows(rows: Iterable[bytes], children_rows) -> Iterator[bytes]:
    """Clone expansion over a sorted Combined row stream.

    Buffers one ``(block, inode, offset)`` group (deduplicating adjacent
    equal rows while building -- the same record can be gathered twice, e.g.
    buffered and flushed copies within one CP), expands it through
    :func:`~repro.core.inheritance.expand_row_group` and yields the sorted,
    duplicate-free result: byte-for-byte the rows of the list
    :func:`~repro.core.inheritance.materialized_expand` would return.  Reads
    just one row past the current group, never the whole input; abandoning
    the generator early is safe and releases the group buffer.
    ``children_rows`` is the clone graph in
    :func:`~repro.core.inheritance.pack_children_map` form.
    """
    group: List[bytes] = []
    g_prefix = None
    previous = None
    for row in rows:
        prefix = row[:24]
        if prefix != g_prefix:
            if group:
                yield from expand_row_group(group, children_rows)
            group = [row]
            g_prefix = prefix
        elif row != previous:
            group.append(row)
        previous = row
    if group:
        yield from expand_row_group(group, children_rows)


def fold_rows_for_query(
    rows: Iterable[bytes],
    clone_graph: CloneGraph,
    authority: VersionAuthority,
    *,
    line_filter: Optional[AbstractSet[int]] = None,
) -> Iterator[Tuple[int, int, int, int, Tuple[Tuple[int, int], ...]]]:
    """Fuse clone expansion, masking and the owner fold into one row pass.

    Consumes the sorted Combined row stream of :func:`join_rows_for_query`
    and yields one plain owner tuple ``(block, inode, offset, line,
    ranges)`` per surviving ``(block, inode, offset, line)`` identity, the
    moment the identity changes -- which is what lets a cursor's limit or an
    abandoned ``.first()`` stop the whole generator chain after one
    reference group.  Per surviving row the only Python objects built are
    the two range ints; identities stay 32-byte key slices until an owner is
    emitted.

    ``line_filter`` is the cursor API's filter pushdown: only rows whose
    line is in the set reach masking and the fold.  It cannot be applied any
    earlier: every row of a group still participates in inheritance
    resolution (a filtered parent line may make a reference visible in a
    clone line the caller did ask for), so the fixpoint always runs over
    the full group and the filter cuts the emitted stream only.
    """
    if clone_graph:
        rows = _expand_rows(rows, pack_children_map(clone_graph.children_map()))
    packed_lines = (None if line_filter is None
                    else {_ROW1_PACK(line) for line in line_filter})
    valid_cache = {}
    cache_get = valid_cache.get
    valid_versions = authority.valid_versions
    from_bytes = int.from_bytes
    identity = None
    ranges: List[Tuple[int, int]] = []
    previous = None
    for row in rows:
        # Adjacent-duplicate dedup: a no-op on clone-expanded input (already
        # duplicate-free), the expansion-stage dedup otherwise.
        if row == previous:
            continue
        previous = row
        line8 = row[24:32]
        if packed_lines is not None and line8 not in packed_lines:
            continue
        valid = cache_get(line8, _MISSING)
        if valid is _MISSING:
            valid = valid_versions(from_bytes(line8, "big"))
            valid_cache[line8] = valid
        start = from_bytes(row[32:40], "big")
        stop = from_bytes(row[40:48], "big")
        if valid is not None and not any_version_in(valid, start, stop):
            continue
        row_identity = row[:32]
        if row_identity != identity:
            if identity is not None:
                yield _ROW4_UNPACK(identity) + (
                    (ranges[0],) if len(ranges) == 1
                    else tuple(merge_adjacent_ranges(ranges)),)
            identity = row_identity
            ranges = []
        ranges.append((start, stop))
    if identity is not None:
        yield _ROW4_UNPACK(identity) + (
            (ranges[0],) if len(ranges) == 1
            else tuple(merge_adjacent_ranges(ranges)),)


def _bulk_join_rows(
    flist: List[bytes],
    tlist: List[bytes],
    clist: List[bytes],
) -> List[bytes]:
    """Materialised :func:`join_rows_for_query` over fully-gathered lists.

    Key-for-key identical output, but instead of walking three generators in
    lock step it *gallops*: a run of From keys with no To/Combined entry in
    sight (the common shape -- most blocks are simply live) is located with
    one :func:`bisect_left` against the next foreign key and appended with a
    single ``extend``, and likewise a run of pre-joined Combined keys below
    the next From/To key passes straight through as a list slice.  Only keys
    that actually have To entries (or collide across tables) take the
    per-key general branch.
    """
    joined: List[bytes] = []
    extend = joined.extend
    fi = ti = ci = 0
    fn, tn, cn = len(flist), len(tlist), len(clist)
    while True:
        fkey = flist[fi][:32] if fi < fn else None
        tkey = tlist[ti][:32] if ti < tn else None
        ckey = clist[ci][:32] if ci < cn else None
        if tkey is None:
            foreign = ckey
        elif ckey is None or tkey < ckey:
            foreign = tkey
        else:
            foreign = ckey
        if fkey is not None and (foreign is None or fkey < foreign):
            # Pure-live gallop: every From row strictly below the next
            # To/Combined key is unmatched (rows extending a 32-byte key
            # sort after it, so bisecting with the key itself excludes the
            # foreign key's own rows).
            hi = bisect_left(flist, foreign, fi) if foreign is not None else fn
            extend([row + INFINITY_BE for row in flist[fi:hi]])
            fi = hi
            continue
        if fkey is None:
            near = tkey
        elif tkey is None or fkey < tkey:
            near = fkey
        else:
            near = tkey
        if ckey is not None and (near is None or ckey < near):
            # Pure pass-through gallop: pre-joined rows below the next
            # From/To key are already sorted Combined output.
            hi = bisect_left(clist, near, ci) if near is not None else cn
            extend(clist[ci:hi])
            ci = hi
            continue
        if fkey is None and tkey is None and ckey is None:
            return joined
        # General key: at least one To entry (or a From/Combined collision)
        # at the smallest head key.  Same group logic as the generator.
        key = fkey
        if tkey is not None and (key is None or tkey < key):
            key = tkey
        if ckey is not None and (key is None or ckey < key):
            key = ckey
        output: List[bytes] = []
        while ci < cn and clist[ci].startswith(key):
            output.append(clist[ci])
            ci += 1
        append = output.append
        to_start = ti
        while ti < tn and tlist[ti].startswith(key):
            ti += 1
        to_index, num_tos = to_start, ti
        while fi < fn and flist[fi].startswith(key):
            row = flist[fi]
            fi += 1
            from8 = row[32:40]
            while to_index < num_tos and tlist[to_index][32:40] <= from8:
                append(key + _ZERO8 + tlist[to_index][32:40])
                to_index += 1
            if to_index < num_tos:
                append(row + tlist[to_index][32:40])
                to_index += 1
            else:
                append(row + INFINITY_BE)
        while to_index < num_tos:
            append(key + _ZERO8 + tlist[to_index][32:40])
            to_index += 1
        output.sort()
        extend(output)


def _bulk_expand_rows(rows: List[bytes], children_rows) -> List[bytes]:
    """Materialised :func:`_expand_rows`, gated per *row* instead of per group.

    The generator buffers every ``(block, inode, offset)`` group before
    probing it for cloned parent lines -- the pull discipline leaves it no
    choice.  Over a drained list the common no-clones-here case needs only
    one slice-probe per row: rows pass straight through until one carries a
    parent line, and only then is its group assembled -- members already
    passed through are taken back off the output, the rest consumed ahead --
    deduplicated and expanded.  Output can carry adjacent duplicate rows the
    generator's eager per-group dedup would have dropped; the fold's
    adjacent-duplicate guard removes them, so the emitted owners are
    identical.
    """
    out: List[bytes] = []
    append = out.append
    extend = out.extend
    # One C call gates each row: ``startswith`` with a prefix tuple and an
    # offset tests every parent line against the row's line bytes without
    # allocating a slice.
    parents = tuple(children_rows)
    # A group of one row expands to a result determined entirely by the
    # row's ``line/from/to`` tail (no sibling rows, so no override can
    # apply); memoise the fixpoint per distinct tail and replay it as a
    # prefix splice.  A handful of checkpoints times a handful of parent
    # lines keeps this dict tiny.
    singleton_cache: dict = {}
    cache_get = singleton_cache.get
    i, n = 0, len(rows)
    while i < n:
        row = rows[i]
        i += 1
        if not row.startswith(parents, 24):
            append(row)
            continue
        prefix = row[:24]
        gstart = len(out)
        while gstart > 0 and out[gstart - 1].startswith(prefix):
            gstart -= 1
        if gstart == len(out) and (i >= n or not rows[i].startswith(prefix)):
            tail = row[24:]
            suffixes = cache_get(tail)
            if suffixes is None:
                expanded = expand_row_group([row], children_rows)
                singleton_cache[tail] = [r[24:] for r in expanded]
                extend(expanded)
            else:
                extend([prefix + suffix for suffix in suffixes])
            continue
        group = out[gstart:]
        del out[gstart:]
        group.append(row)
        while i < n and rows[i].startswith(prefix):
            group.append(rows[i])
            i += 1
        if len(group) > 1:
            deduped = [group[0]]
            dappend = deduped.append
            previous = group[0]
            for member in group[1:]:
                if member != previous:
                    dappend(member)
                previous = member
            group = deduped
        extend(expand_row_group(group, children_rows))
    return out


def scan_rows_bulk(
    frows: Iterable[bytes],
    trows: Iterable[bytes],
    crows: Iterable[bytes],
    clone_graph: CloneGraph,
    authority: VersionAuthority,
) -> List[Tuple[int, int, int, int, Tuple[Tuple[int, int], ...]]]:
    """Whole-range join + expansion + masking + fold over drained row lists.

    The list surface's variant of ``fold_rows_for_query(
    join_rows_for_query(...))``: a full-range ``query_range`` drains the
    pipeline anyway, so nothing is gained from the cursor chain's one-row
    lookahead discipline -- and a lot is lost to it, since every row then
    costs a resumption in each stacked generator.  This function runs the
    same three stages as flat list passes (the join additionally gallops
    over runs of unmatched keys with ``bisect_left``) and returns the owner
    list directly.  Output is value- and order-identical to the generator
    chain; only the pull schedule differs, which the list surface cannot
    observe (its total page reads are the same either way).
    """
    flist = frows if type(frows) is list else list(frows)
    tlist = trows if type(trows) is list else list(trows)
    clist = crows if type(crows) is list else list(crows)
    joined = _bulk_join_rows(flist, tlist, clist)
    if clone_graph:
        joined = _bulk_expand_rows(
            joined, pack_children_map(clone_graph.children_map()))
    owners: List[Tuple[int, int, int, int, Tuple[Tuple[int, int], ...]]] = []
    append_owner = owners.append
    unpack4 = _ROW4_UNPACK
    unpack_versions = _VERSIONS_UNPACK
    valid_cache = {}
    cache_get = valid_cache.get
    valid_versions = authority.valid_versions
    identity = None
    identity_fields: Tuple[int, int, int, int] = ()
    ranges: List[Tuple[int, int]] = []
    previous = None
    valid = None
    for row in joined:
        if row == previous:
            continue
        previous = row
        # Identity first: every row of an identity shares its line, so the
        # mask lookup rides the identity change (keyed by the decoded line
        # int -- no extra slice) and per-row work is two C unpacks, the
        # version filter and an append.  An identity whose rows are all
        # masked flushes with no ranges and emits nothing, exactly as the
        # generator's skip-before-fold ordering does.
        row_identity = row[:32]
        if row_identity != identity:
            if ranges:
                append_owner(identity_fields + (
                    (ranges[0],) if len(ranges) == 1
                    else tuple(merge_adjacent_ranges(ranges)),))
            identity = row_identity
            identity_fields = unpack4(row_identity)
            line = identity_fields[3]
            valid = cache_get(line, _MISSING)
            if valid is _MISSING:
                valid = valid_versions(line)
                valid_cache[line] = valid
            ranges = []
        start, stop = unpack_versions(row, 32)
        if valid is None or any_version_in(valid, start, stop):
            ranges.append((start, stop))
    if ranges:
        append_owner(identity_fields + (
            (ranges[0],) if len(ranges) == 1
            else tuple(merge_adjacent_ranges(ranges)),))
    return owners
