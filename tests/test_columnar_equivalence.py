"""Differential tests locking the columnar row pipeline to the record stages.

Every layer of the packed-row pipeline is driven against a NamedTuple-level
reference:

* slab primitives in :mod:`repro.core.records` (``pack_row`` /
  ``records_to_rows`` round trips, memcmp order, :class:`RecordBlock`
  bisect and zero-copy slicing) via hypothesis properties;
* :func:`repro.core.columnar.scan_rows_bulk` against the cursor generator
  chain ``fold_rows_for_query(join_rows_for_query(...))`` on generated
  tables with clones and snapshots;
* whole Backlogs over seeded clone/snapshot/relocation workloads across
  all three storage backends, against ``_legacy_query`` (the narrow arm's
  record stages run over every run): identical full answers, concatenated
  pagination equal to the full answer, and -- between worker counts --
  identical page contents, resume tokens and *exactly* equal ``pages_read``;
* sharded clusters at 1 and 3 shards against the same reference, with
  exactly equal ``pages_read`` between the shard counts;
* the packed query-page wire codec: pack/unpack identity, page frames
  decoding into the coordinator's reply dict, version-1 pickle frames
  rejected unread, and malformed bodies rejected loudly.
"""

from __future__ import annotations

import bisect
import pickle
import random
import struct
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backlog import Backlog
from repro.core.columnar import (
    fold_rows_for_query,
    join_rows_for_query,
    scan_rows_bulk,
)
from repro.core.config import BacklogConfig
from repro.core.cursor import QuerySpec
from repro.core.inheritance import CloneGraph
from repro.core.masking import ExplicitVersionAuthority
from repro.core.records import (
    BackReference,
    CombinedRecord,
    FromRecord,
    RecordBlock,
    ToRecord,
    pack_key_prefix,
    pack_row,
    records_to_rows,
    rows_from_le_payload,
    rows_to_le_bytes,
    rows_to_records,
    unpack_row,
)
from repro.cluster.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    Opcode,
    ProtocolError,
    QueryPage,
    _HEADER,
    decode_frame,
    encode_frame,
    pack_back_references,
    unpack_back_references,
)

from test_streaming_equivalence import _legacy_query, _random_ops, _replay

# ------------------------------------------------------------ slab layer


_from_records = st.lists(
    st.builds(FromRecord, st.integers(0, 30), st.integers(1, 4),
              st.integers(0, 4), st.integers(0, 2), st.integers(1, 15)),
    max_size=60,
)
_to_records = st.lists(
    st.builds(ToRecord, st.integers(0, 30), st.integers(1, 4),
              st.integers(0, 4), st.integers(0, 2), st.integers(1, 15)),
    max_size=60,
)
_combined_records = st.lists(
    st.builds(CombinedRecord, st.integers(0, 30), st.integers(1, 4),
              st.integers(0, 4), st.integers(0, 2), st.integers(0, 10),
              st.integers(11, 20)),
    max_size=30,
)


@settings(max_examples=120, deadline=None)
@given(_from_records, _combined_records)
def test_pack_unpack_row_roundtrip(froms, combined):
    """Property: pack_row / unpack_row is the identity on record tuples."""
    for record in froms + combined:
        row = pack_row(record)
        assert len(row) == len(record) * 8
        assert unpack_row(row) == tuple(record)


@settings(max_examples=120, deadline=None)
@given(_from_records, _to_records, _combined_records)
def test_row_order_is_tuple_order(froms, tos, combined):
    """Property: memcmp order over packed rows == tuple sort order."""
    for records, fields in ((froms, 5), (tos, 5), (combined, 6)):
        rows = records_to_rows(records, fields)
        assert sorted(rows) == records_to_rows(sorted(records), fields)


@settings(max_examples=120, deadline=None)
@given(_from_records, _combined_records)
def test_rows_records_and_le_payload_roundtrip(froms, combined):
    """Property: rows <-> records <-> little-endian payload all round-trip."""
    for records, fields, cls in ((froms, 5, FromRecord),
                                 (combined, 6, CombinedRecord)):
        rows = records_to_rows(records, fields)
        assert rows_to_records(rows, cls) == records
        payload = rows_to_le_bytes(rows)
        assert rows_from_le_payload(payload, fields) == rows
        block = RecordBlock.from_le_payload(payload, fields)
        assert len(block) == len(records)
        assert block.rows() == rows
        assert block.records(cls) == records


@settings(max_examples=120, deadline=None)
@given(_from_records, st.integers(0, 31), st.integers(1, 4))
def test_recordblock_bisect_and_slice_match_tuples(froms, block_field, inode):
    """Property: packed-prefix bisect == tuple bisect; slices share bytes."""
    records = sorted(froms)
    block = RecordBlock(b"".join(records_to_rows(records, 5)), 5)
    for prefix in ((block_field,), (block_field, inode)):
        packed = pack_key_prefix(*prefix)
        expected = bisect.bisect_left(records, prefix)
        assert block.bisect_left(packed) == expected
    if records:
        mid = len(records) // 2
        view = block.slice(mid, len(records))
        assert view.rows() == records_to_rows(records[mid:], 5)
        assert view.row(0) == pack_row(records[mid])
        assert [r[:32] for r in block.rows()] == block.key_prefixes()


def _authority_with_snapshots() -> ExplicitVersionAuthority:
    authority = ExplicitVersionAuthority()
    authority.set_current_cp(16)
    for line in range(0, 3):
        authority.add_snapshot(line, 4)
        authority.add_snapshot(line, 9)
    for line in (5, 6):
        authority.add_line(line)
        authority.add_snapshot(line, 12)
    return authority


def _clone_graph() -> CloneGraph:
    graph = CloneGraph()
    graph.add_clone(5, 1, 7)     # clone of a snapshotted parent line
    graph.add_clone(6, 5, 9)     # second-generation clone
    return graph


@settings(max_examples=120, deadline=None)
@given(_from_records, _to_records, _combined_records)
def test_scan_rows_bulk_matches_generator_chain(froms, tos, combined):
    """Property: the bulk list scan emits exactly the cursor chain's owners."""
    frows = records_to_rows(sorted(froms), 5)
    trows = records_to_rows(sorted(tos), 5)
    crows = records_to_rows(sorted(combined), 6)
    graph = _clone_graph()
    authority = _authority_with_snapshots()
    streamed = list(fold_rows_for_query(
        join_rows_for_query(frows, trows, crows), graph, authority))
    bulk = scan_rows_bulk(frows, trows, crows, graph, authority)
    assert bulk == streamed
    # And without clones: the expansion stage must be a clean no-op.
    empty = CloneGraph()
    assert scan_rows_bulk(frows, trows, crows, empty, authority) == \
        list(fold_rows_for_query(join_rows_for_query(frows, trows, crows),
                                 empty, authority))


# ----------------------------------------- whole-backlog differential


def _replayed_backlog(backend_factory, ops, query_workers):
    authority = ExplicitVersionAuthority()
    backlog = Backlog(
        backend=backend_factory(),
        config=BacklogConfig(partition_size_blocks=64,
                             query_workers=query_workers),
        version_authority=authority)
    _replay(backlog, authority, ops)
    return backlog


def _paginate(system, device_blocks: int, limit: int) -> List[Tuple[List, str]]:
    """Every ``(page contents, resume token)`` of a whole-device scan."""
    pages, token = [], None
    for _ in range(200):
        page = system.select(
            QuerySpec(0, device_blocks, limit=limit, resume_token=token))
        owners = page.all()
        token = page.resume_token
        pages.append((owners, token))
        if page.exhausted:
            return pages
    raise AssertionError("pagination did not terminate")  # pragma: no cover


def _assert_matches_record_stages(backlog: Backlog, device_blocks: int) -> None:
    """Full answers and concatenated pages equal the record-stage answer."""
    for first, width in ((0, device_blocks), (device_blocks // 3, 17), (1, 3)):
        answer = backlog.query_range(first, width)
        assert answer == _legacy_query(backlog, first, width)
        assert all(type(ref) is BackReference for ref in answer)
    scanned = [ref for page, _ in _paginate(backlog, device_blocks, 7)
               for ref in page]
    assert scanned == _legacy_query(backlog, 0, device_blocks)


@pytest.mark.parametrize("seed", [11, 23])
def test_backlog_columnar_matches_tuple_path(backend_factory, seed):
    """Seeded clone/snapshot/relocation workloads: rows answer like records."""
    ops = _random_ops(seed, num_cps=6, ops_per_cp=30)
    backlog = _replayed_backlog(backend_factory, ops, query_workers=1)
    try:
        _assert_matches_record_stages(backlog, 512)
    finally:
        backlog.close()


def test_backlog_columnar_matches_tuple_path_with_workers(backend_factory):
    """Worker fan-out (1 vs 4) changes nothing observable either."""
    ops = _random_ops(37, num_cps=6, ops_per_cp=30)
    serial = _replayed_backlog(backend_factory, ops, query_workers=1)
    fanned = _replayed_backlog(backend_factory, ops, query_workers=4)
    try:
        for backlog in (serial, fanned):
            _assert_matches_record_stages(backlog, 512)
        # Identical work ran on both: page contents and resume tokens agree
        # at every page boundary, and the I/O accounting is exactly equal.
        assert _paginate(fanned, 512, 7) == _paginate(serial, 512, 7)
        assert (fanned.query_stats.pages_read
                == serial.query_stats.pages_read > 0)
    finally:
        serial.close()
        fanned.close()


# ------------------------------------------------------ cluster layer


def _cluster_workload(cluster, rng: random.Random) -> None:
    live: List[Tuple[int, int, int, int]] = []
    for cp in range(4):
        for i in range(40):
            if live and rng.random() < 0.25:
                cluster.remove_reference(*live.pop(rng.randrange(len(live))))
            else:
                entry = (rng.randrange(0, 400), 1 + i % 5, i, i % 3)
                cluster.add_reference(*entry)
                live.append(entry)
        if cp == 1:
            cluster.register_clone(7, 1, cluster.checkpoint())
        else:
            cluster.checkpoint()
    cluster.relocate_block(live[0][0])
    cluster.checkpoint()


def _cluster_scan(shard_factory, num_shards: int):
    """``(full answer, concatenated pages, pages_read)`` of a fresh cluster."""
    cluster = shard_factory(num_shards=num_shards,
                            config=BacklogConfig(partition_size_blocks=64))
    _cluster_workload(cluster, random.Random(4242))
    answer = cluster.query_range(0, 400)
    scanned = [ref for page, _ in _paginate(cluster, 400, 9) for ref in page]
    return answer, scanned, cluster.query_stats.pages_read


@pytest.mark.parametrize("num_shards", [1, 3])
def test_cluster_columnar_matches_tuple_path(shard_factory, num_shards):
    """Shard scatter-gather over v2 pages == the in-process record stages."""
    reference = Backlog(config=BacklogConfig(partition_size_blocks=64))
    try:
        _cluster_workload(reference, random.Random(4242))
        expected = _legacy_query(reference, 0, 400)
    finally:
        reference.close()

    answer, scanned, pages_read = _cluster_scan(shard_factory, num_shards)
    assert answer == expected
    assert all(type(ref) is BackReference for ref in answer)
    assert scanned == expected
    if num_shards != 1:
        # The same per-partition sub-queries ran; only the answering
        # process moved.
        assert _cluster_scan(shard_factory, 1) == (answer, scanned, pages_read)
    assert pages_read > 0


# ------------------------------------------------- packed page wire codec


_SINGLE_RANGE_PAGE = [
    (7, 1, 0, 0, ((3, 2 ** 64 - 1),)),
    (7, 1, 1, 2, ((5, 9),)),
    (900, 4, 2, 1, ((1, 2 ** 64 - 1),)),
]
_MIXED_PAGE = [
    (2, 1, 0, 0, ((1, 4), (6, 9), (11, 2 ** 64 - 1))),
    (3, 2, 5, 1, ((7, 2 ** 64 - 1),)),
    (3, 2, 6, 1, ((0, 2), (4, 8))),
]


@pytest.mark.parametrize("owners", [_SINGLE_RANGE_PAGE, _MIXED_PAGE, []])
def test_pack_back_references_roundtrip(owners):
    decoded = unpack_back_references(pack_back_references(owners))
    assert decoded == [BackReference._make(owner) for owner in owners]
    assert all(type(ref) is BackReference for ref in decoded)
    assert all(type(ref.ranges) is tuple for ref in decoded)


def test_query_page_frame_decodes_to_reply_dict():
    """A packed page frame decodes into the coordinator's reply dict."""
    stats = {"pages_read": 12, "queries": 1}
    page = QueryPage(_MIXED_PAGE, "bkq1.AAAA", False, stats)
    frame = encode_frame(Opcode.OK, page)
    assert _HEADER.unpack_from(frame)[1] == PROTOCOL_VERSION
    opcode, reply = decode_frame(frame)
    assert opcode is Opcode.OK
    assert reply == {
        "results": [BackReference._make(owner) for owner in _MIXED_PAGE],
        "resume_token": "bkq1.AAAA",
        "exhausted": False,
        "stats": stats,
    }


def test_v1_pickle_frames_raise_protocol_error():
    """A version-1 frame (a pickled reply dict) is rejected, never unpickled."""
    reply = {"results": [BackReference._make(o) for o in _SINGLE_RANGE_PAGE],
             "resume_token": None, "exhausted": True, "stats": {}}
    body = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
    v1_header = struct.Struct("<4sBBxxI")        # the pre-layout-byte header
    frame = v1_header.pack(MAGIC, 1, int(Opcode.OK), len(body)) + body
    with pytest.raises(ProtocolError, match="version"):
        decode_frame(frame)
    # ... and the same pickle under a current header is just a malformed body.
    current = _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(Opcode.OK), 0,
                           len(body)) + body
    with pytest.raises(ProtocolError, match="malformed"):
        decode_frame(current)


def test_unknown_frame_version_rejected():
    body = b"{}"
    frame = _HEADER.pack(MAGIC, PROTOCOL_VERSION + 1, int(Opcode.OK), 0,
                         len(body)) + body
    with pytest.raises(ProtocolError):
        decode_frame(frame)


def test_malformed_query_page_bodies_rejected():
    packed = pack_back_references(_MIXED_PAGE)
    with pytest.raises(ProtocolError):                # truncated columns
        unpack_back_references(packed[:-4])
    with pytest.raises(ProtocolError):                # short header
        unpack_back_references(b"\x01")
    corrupt = bytearray(packed)
    corrupt[0] += 1                                   # num_refs lies
    with pytest.raises(ProtocolError):
        unpack_back_references(bytes(corrupt))
    frame = encode_frame(Opcode.OK, QueryPage(_MIXED_PAGE, None, True, {}))
    with pytest.raises(ProtocolError):                # body/header length lies
        decode_frame(frame[:-3])
    body = b"\x02\x00\x00\x00" + b"\xff\xff\xff\x7f" + b"tokn"  # token > body
    lying = _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(Opcode.OK), 3,
                         len(body)) + body
    with pytest.raises(ProtocolError):                # token overruns frame
        decode_frame(lying)
