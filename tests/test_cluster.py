"""Unit and end-to-end tests for the process-cluster subsystem.

Covers the layers bottom-up: protocol framing (roundtrip, corruption,
version mismatch, error relay), the shard map's placement algebra, the
single resume-token format, and then live clusters -- lazy
``.first()``, limits, clones, relocation, the two-phase checkpoint's
fault/crash behaviour, cold restart, and the HTTP service running over a
cluster.  The shards {1, 3} *equivalence* leg (identical answers, page
boundaries and exact ``pages_read``) lives with its siblings in
``tests/test_parallel_equivalence.py``.
"""

from __future__ import annotations

import base64
import errno
import json
import os
import struct

import pytest

from repro.cluster import (
    ClusterCheckpointError,
    ClusterError,
    Opcode,
    ProtocolError,
    ShardMap,
    ShardedBacklog,
    WorkerError,
)
from repro.cluster.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    _HEADER,
    decode_frame,
    encode_frame,
    raise_reply_error,
)
from repro.cluster.worker import shard_directory, shard_meta_path
from repro.core.config import BacklogConfig
from repro.core.cursor import (
    QuerySpec,
    decode_resume_token,
    encode_resume_token,
)
from repro.core.records import ReferenceKey
from repro.fsim.faults import FaultPlan


# ---------------------------------------------------------------- protocol


def test_frame_roundtrip_all_opcodes():
    # Every control opcode carries a JSON object; the typed UPDATE / QUERY_*
    # layouts (and real payloads of every opcode) are round-tripped in
    # tests/test_wire_codec.py.
    payload = {"nested": [1, 2, {"three": [4, 5]}], "none": None}
    typed = {Opcode.UPDATE, Opcode.QUERY_OPEN, Opcode.QUERY_PAGE}
    for opcode in set(Opcode) - typed:
        kind, body = decode_frame(encode_frame(opcode, payload))
        assert kind is opcode
        assert body == payload
    for opcode in typed:
        with pytest.raises(ProtocolError, match="does not fit"):
            encode_frame(opcode, payload)


def test_frame_rejects_corruption():
    frame = encode_frame(Opcode.STATS, {"x": 1})
    body = frame[_HEADER.size:]
    with pytest.raises(ProtocolError, match="magic"):
        decode_frame(b"XXXX" + frame[4:])
    # One build, one version: the pickle-era versions 1 and 2 are as foreign
    # as a future one.
    for version in (1, 2, PROTOCOL_VERSION + 1):
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(_HEADER.pack(MAGIC, version, int(Opcode.STATS), 0,
                                      len(body)) + body)
    with pytest.raises(ProtocolError, match="length"):
        decode_frame(frame[:-1])
    with pytest.raises(ProtocolError, match="short frame"):
        decode_frame(frame[:4])
    with pytest.raises(ProtocolError, match="opcode"):
        decode_frame(_HEADER.pack(MAGIC, PROTOCOL_VERSION, 250, 0,
                                  len(body)) + body)
    with pytest.raises(ProtocolError, match="layout"):
        decode_frame(_HEADER.pack(MAGIC, PROTOCOL_VERSION, int(Opcode.STATS), 3,
                                  len(body)) + body)


def test_error_relay_preserves_dispatchable_types():
    with pytest.raises(OSError) as excinfo:
        raise_reply_error({"kind": "OSError", "message": "no space",
                           "errno": errno.ENOSPC})
    assert excinfo.value.errno == errno.ENOSPC
    with pytest.raises(ValueError, match="bad spec"):
        raise_reply_error({"kind": "ValueError", "message": "bad spec"})
    with pytest.raises(WorkerError, match="KeyError: boom") as excinfo:
        raise_reply_error({"kind": "KeyError", "message": "boom"})
    assert excinfo.value.kind == "KeyError"


# --------------------------------------------------------------- shard map


def test_shard_map_striping_and_validation():
    shard_map = ShardMap(3, partition_size_blocks=64)
    assert shard_map.shard_of_partition(0) == 0          # .first() laziness
    assert [shard_map.shard_of_partition(p) for p in range(6)] == [0, 1, 2, 0, 1, 2]
    assert shard_map.shard_of_block(0) == 0
    assert shard_map.shard_of_block(63) == 0
    assert shard_map.shard_of_block(64) == 1
    with pytest.raises(ValueError):
        ShardMap(0)
    with pytest.raises(ValueError):
        ShardMap(2, partition_size_blocks=0)
    with pytest.raises(ValueError):
        shard_map.shard_of_block(-1)


def test_subranges_partition_exact_and_shard_count_independent():
    for shards in (1, 2, 3, 5):
        shard_map = ShardMap(shards, partition_size_blocks=64)
        pieces = list(shard_map.subranges(10, 300))
        # Exact decomposition: concatenation == [10, 310), no overlap.
        assert pieces[0][2] == 10
        covered = 0
        for index, (partition, shard, first, count) in enumerate(pieces):
            assert shard == partition % shards
            assert first // 64 == partition
            assert (first + count - 1) // 64 == partition
            if index:
                assert first == pieces[index - 1][2] + pieces[index - 1][3]
            covered += count
        assert covered == 300
        # The (partition, first, count) skeleton never depends on the shard
        # count -- the equivalence proof's load-bearing property.
        assert [(p, f, c) for p, _, f, c in pieces] == \
            [(p, f, c) for p, _, f, c in ShardMap(1, 64).subranges(10, 300)]
    assert list(ShardMap(2, 64).subranges(5, 0)) == []


# ---------------------------------------------------------------- tokens


def _shard_extended(key, shard: int) -> str:
    """The five-field ``bkq2.`` token coordinators minted before there was one format."""
    payload = struct.pack("<5Q", key.block, key.inode, key.offset, key.line, shard)
    return "bkq2." + base64.urlsafe_b64encode(payload).decode("ascii").rstrip("=")


def test_shard_extended_resume_tokens():
    """There is one token format; a shard-extended token is a malformed one."""
    key = ReferenceKey(700, 12, 3, 1)
    token = encode_resume_token(key)
    assert token.startswith("bkq1.") and decode_resume_token(token) == key
    with pytest.raises(TypeError):
        encode_resume_token(key, shard=2)
    for foreign in (_shard_extended(key, 2), "bkq2.not-base64!!", "bkq9.AAAA",
                    "bkq2." + token[len("bkq1."):]):
        with pytest.raises(ValueError, match="malformed resume token"):
            decode_resume_token(foreign)


def test_v2_token_resumes_on_single_process_backlog():
    """What a coordinator mints is the engine's own token -- and the retired
    shard-extended form is refused by ``select`` like any foreign string."""
    from repro.core.backlog import Backlog

    backlog = Backlog(config=BacklogConfig(partition_size_blocks=64))
    for block in range(20):
        backlog.add_reference(block=block, inode=1, offset=block)
    backlog.checkpoint()
    page = backlog.select(QuerySpec(0, 100, limit=5))
    rows = page.all()
    token = encode_resume_token(rows[-1])           # as a cluster mints it
    assert token == page.resume_token
    rest = backlog.select(QuerySpec(0, 100, resume_token=token)).all()
    assert [ref.block for ref in rest] == list(range(5, 20))
    with pytest.raises(ValueError):
        backlog.select(QuerySpec(0, 100, resume_token=_shard_extended(rows[-1], 1))).all()
    backlog.close()


# ------------------------------------------------------------ live cluster


def _fill(cluster, blocks=range(0, 300, 7), inode=3):
    for block in blocks:
        cluster.add_reference(block, inode=inode, offset=block)
    return cluster.checkpoint()


def test_cluster_basic_query_limit_and_pagination(shard_factory):
    cluster = shard_factory(num_shards=3)
    _fill(cluster)
    expected = sorted(range(0, 300, 7))

    full = cluster.select(QuerySpec(0, 300))
    assert [ref.block for ref in full.all()] == expected
    assert full.exhausted and full.resume_token is None

    assert cluster.query(14)[0].inode == 3
    assert [r.block for r in cluster.query_range(60, 80)] == \
        [b for b in expected if 60 <= b < 140]

    page = cluster.select(QuerySpec(0, 300, limit=10))
    first_page = page.all()
    assert len(first_page) == 10 and not page.exhausted
    token = page.resume_token
    assert token == encode_resume_token(first_page[-1])  # the engine's own token
    rest = cluster.select(QuerySpec(0, 300, resume_token=token)).all()
    assert [r.block for r in first_page + rest] == expected


def test_cluster_first_opens_only_shard_zero(shard_factory):
    """`.first()` on a whole-device range must not touch shards 1..N-1."""
    cluster = shard_factory(num_shards=3)
    _fill(cluster)
    queries_before = [s["service"]["queries"] for s in cluster._broadcast_stats()]
    ref = cluster.select(QuerySpec(0, 300)).first()
    assert ref.block == 0
    queries_after = [s["service"]["queries"] for s in cluster._broadcast_stats()]
    assert queries_after[0] == queries_before[0] + 1
    assert queries_after[1:] == queries_before[1:]


def test_cluster_cursor_is_the_engine_cursor(shard_factory):
    """One cursor class: a cluster cursor reopened after ``.first()`` counts
    one query, as the engine's does, and has the engine cursor's surface."""
    from repro.core.backlog import Backlog
    from repro.core.cursor import QueryResult

    cluster = shard_factory(num_shards=2)
    backlog = Backlog(config=BacklogConfig(partition_size_blocks=64))
    answers = {}
    for system in (backlog, cluster):
        _fill(system)
        system.stats.query.reset()
        cursor = system.select(QuerySpec(0, 300))
        assert type(cursor) is QueryResult
        answers[system] = [cursor.first(), next(cursor)] + cursor.all()
        assert cursor.exhausted and cursor.resume_token is None
        assert system.stats.query.queries == system.stats.query.cursors_opened == 1
    assert answers[cluster] == answers[backlog]
    assert [ref.block for ref in answers[cluster]] == list(range(0, 300, 7))
    page = cluster.select(QuerySpec(0, 300, limit=5))
    assert page.all_rows() == answers[backlog][:5]
    assert page.resume_token == encode_resume_token(answers[backlog][4])
    backlog.close()


def test_cluster_one_or_none_count_and_emitted(shard_factory):
    cluster = shard_factory(num_shards=2)
    _fill(cluster)
    assert cluster.select(QuerySpec(7)).one_or_none().block == 7
    assert cluster.select(QuerySpec(1)).one_or_none() is None
    cluster.add_reference(7, inode=9, offset=0)
    cluster.checkpoint()
    with pytest.raises(ValueError, match="at most one"):
        cluster.select(QuerySpec(7)).one_or_none()
    assert cluster.select(QuerySpec(0, 300)).count() == len(range(0, 300, 7)) + 1
    limited = cluster.select(QuerySpec(0, 300)).limit(4)
    assert len(limited.all()) == limited.emitted == 4


def test_cluster_clone_expansion_and_relocation(shard_factory):
    cluster = shard_factory(num_shards=3)
    cluster.add_reference(100, inode=5, offset=0, line=0)
    cp = cluster.checkpoint()
    cluster.register_clone(1, 0, cp)
    cluster.add_reference(200, inode=6, offset=1, line=1)
    cluster.checkpoint()
    # The clone inherits its parent's reference through expansion -- which
    # runs inside the worker owning block 100's partition.
    owners = cluster.select(QuerySpec(100)).all()
    assert {(ref.line, ref.inode) for ref in owners} == {(0, 5), (1, 5)}
    # Relocation suppresses every identity of the block on its owner shard.
    suppressed = cluster.relocate_block(100)
    assert suppressed == 2
    assert cluster.select(QuerySpec(100)).all() == []
    assert [ref.inode for ref in cluster.select(QuerySpec(200)).all()] == [6]


def test_cluster_enospc_prepare_fails_whole_checkpoint(shard_factory):
    """A failed prepare on one shard publishes nothing and stays retryable."""
    plan = FaultPlan(enospc_after_pages=0, seed=7)
    cluster = shard_factory(num_shards=3, durable=True, fault_plans={1: plan})
    _fill(cluster)
    committed = cluster.committed_cp
    for block in range(1, 200, 13):
        cluster.add_reference(block, inode=9, offset=block)
    before = {(r.block, r.inode, r.offset) for r in
              cluster.select(QuerySpec(0, 300)).all()}

    cluster.debug_fault(1, "arm")
    with pytest.raises(ClusterCheckpointError, match="shard"):
        cluster.checkpoint()
    # No partial CP: the global CP did not move, and every update is still
    # queryable (prepared shards from their runs, the failed shard from its
    # intact write stores).
    assert cluster.committed_cp == committed
    assert {(r.block, r.inode, r.offset) for r in
            cluster.select(QuerySpec(0, 300)).all()} == before

    cluster.debug_fault(1, "disarm")
    cp = cluster.checkpoint()
    assert cluster.committed_cp == cp > committed
    assert {(r.block, r.inode, r.offset) for r in
            cluster.select(QuerySpec(0, 300)).all()} == before


def test_cluster_worker_crash_recovers_transparently(shard_factory):
    """Kill a worker; the next query revives it with no data loss."""
    cluster = shard_factory(num_shards=3, durable=True)
    _fill(cluster)
    # Buffered-but-unflushed updates must survive the crash via replay.
    cluster.add_reference(64, inode=42, offset=9)     # partition 1 -> shard 1
    before = {(r.block, r.inode, r.offset) for r in
              cluster.select(QuerySpec(0, 300)).all()}
    pid = cluster.debug_kill(1)
    after = {(r.block, r.inode, r.offset) for r in
             cluster.select(QuerySpec(0, 300)).all()}
    assert after == before
    assert pid not in cluster.worker_pids()
    # And the revived worker checkpoints normally.
    cluster.checkpoint()
    assert {(r.block, r.inode, r.offset) for r in
            cluster.select(QuerySpec(0, 300)).all()} == before


def test_cluster_crash_mid_checkpoint_no_partial_cp(shard_factory):
    """A worker killed during the checkpoint window never splits the CP."""
    cluster = shard_factory(num_shards=3, durable=True)
    _fill(cluster)
    committed = cluster.committed_cp
    for block in range(2, 250, 11):
        cluster.add_reference(block, inode=12, offset=block)
    expected = {(r.block, r.inode, r.offset) for r in
                cluster.select(QuerySpec(0, 300)).all()}
    cluster.debug_kill(0)
    # The checkpoint either fails cleanly (retryable, nothing published) or
    # succeeds after an in-line revive -- but never publishes a CP that is
    # missing a shard's updates.
    try:
        cluster.checkpoint()
    except ClusterCheckpointError:
        assert cluster.committed_cp == committed
        cluster.checkpoint()
    assert cluster.committed_cp > committed
    assert {(r.block, r.inode, r.offset) for r in
            cluster.select(QuerySpec(0, 300)).all()} == expected


def test_cluster_clone_after_worker_death_registers_once(shard_factory):
    """The revive's SYNC installs the clone on the dead shard; the clone
    event is not sent a second time, which the worker would refuse."""
    from repro.core.backlog import Backlog

    cluster = shard_factory(num_shards=2, durable=True)
    backlog = Backlog(config=BacklogConfig(partition_size_blocks=64))
    for system in (cluster, backlog):
        _fill(system)
    cluster.debug_kill(1)
    for system in (cluster, backlog):
        system.register_clone(5, 0, 1)
        system.add_reference(70, inode=8, offset=0, line=5)
        system.checkpoint()
    assert cluster.select(QuerySpec(0, 300)).all() == \
        backlog.select(QuerySpec(0, 300)).all()
    # Block 70 lives on the revived shard: it expands the clone, once.
    assert [(ref.line, ref.inode) for ref in cluster.query(70)] == \
        [(0, 3), (5, 3), (5, 8)]
    backlog.close()


def test_cluster_memory_shard_death_is_loud(shard_factory):
    cluster = shard_factory(num_shards=2)          # no directory: no recovery
    _fill(cluster)
    cluster.debug_kill(1)
    with pytest.raises(ClusterError, match="cannot recover"):
        cluster.select(QuerySpec(0, 300)).all()


def test_cluster_cold_restart_recovers_all_shards(tmp_path):
    config = BacklogConfig(partition_size_blocks=64)
    root = str(tmp_path / "cluster")
    with ShardedBacklog(num_shards=3, config=config, directory=root) as cluster:
        _fill(cluster)
        cluster.register_clone(1, 0, 1)
        cluster.add_reference(64, inode=7, offset=1, line=1)
        cluster.checkpoint()
        expected = {(r.block, r.inode, r.offset, r.line, r.ranges)
                    for r in cluster.select(QuerySpec(0, 300)).all()}
        committed = cluster.committed_cp
    # On-disk layout: one run directory and one meta file per shard, plus
    # the coordinator's published CP.
    for shard in range(3):
        assert os.path.isdir(shard_directory(root, shard))
        with open(shard_meta_path(root, shard), encoding="utf-8") as handle:
            meta = json.load(handle)
        assert meta["cp"] == committed
    with ShardedBacklog(num_shards=3, config=config, directory=root) as cluster:
        assert cluster.committed_cp == committed
        cluster.register_clone(1, 0, 1)            # clone state is in-memory
        assert {(r.block, r.inode, r.offset, r.line, r.ranges)
                for r in cluster.select(QuerySpec(0, 300)).all()} == expected


def test_cluster_maintain_folds_stats_and_purges(shard_factory):
    cluster = shard_factory(num_shards=3)
    for block in range(0, 200, 3):
        cluster.add_reference(block, inode=2, offset=block)
    cluster.checkpoint()
    for block in range(0, 200, 6):
        cluster.remove_reference(block, inode=2, offset=block)
    cluster.checkpoint()
    folded = cluster.maintain()
    assert folded.partitions_processed > 0
    assert folded.records_in >= folded.records_out
    assert cluster.stats.maintenance_runs[-1] is folded
    # Compaction is invisible in answers: live owners are exactly the
    # never-removed ones, and removed owners keep their historical ranges.
    live = [r.block for r in
            cluster.select(QuerySpec(0, 200, live_only=True)).all()]
    assert live == [b for b in range(0, 200, 3) if b % 6 != 0]
    assert [r.block for r in cluster.select(QuerySpec(0, 200)).all()] == \
        list(range(0, 200, 3))


def test_cluster_service_stats_shape(shard_factory):
    cluster = shard_factory(num_shards=2)
    _fill(cluster)
    cluster.select(QuerySpec(0, 300)).all()
    stats = cluster.service_stats()
    assert stats["cluster"]["num_shards"] == 2
    assert len(stats["cluster"]["worker_pids"]) == 2
    assert len(stats["shards"]) == 2
    for shard_stats in stats["shards"]:
        assert {"flush_pool", "maintenance_pool", "query_pool",
                "query"} <= set(shard_stats["service"])
    assert stats["pages_read"] == cluster.stats.query.pages_read > 0
    # The folded coordinator tally equals the sum of the per-shard tallies.
    assert stats["pages_read"] == sum(
        s["service"]["pages_read"] for s in stats["shards"])
    # One coordinator-level query counted per cluster cursor, however many
    # per-partition sub-queries it scattered.
    assert stats["queries"] == 1


def test_cluster_http_service(shard_factory):
    """The HTTP daemon serves a cluster exactly like a single Backlog."""
    import http.client

    from repro.server import QueryService

    cluster = shard_factory(num_shards=3)
    _fill(cluster)
    with QueryService(cluster) as service:
        conn = http.client.HTTPConnection(*service.address)
        conn.request("POST", "/query",
                     json.dumps({"first_block": 0, "num_blocks": 300,
                                 "limit": 12}),
                     {"Content-Type": "application/json"})
        page = json.loads(conn.getresponse().read())
        assert page["count"] == 12
        assert page["resume_token"].startswith("bkq1.")
        conn.request("POST", "/query",
                     json.dumps({"first_block": 0, "num_blocks": 300,
                                 "resume_token": page["resume_token"]}),
                     {"Content-Type": "application/json"})
        rest = json.loads(conn.getresponse().read())
        assert rest["exhausted"] is True
        assert page["count"] + rest["count"] == len(range(0, 300, 7))

        conn.request("GET", "/stats")
        stats = json.loads(conn.getresponse().read())
        assert stats["cluster"]["num_shards"] == 3
        assert len(stats["shards"]) == 3
        assert stats["requests_served"] == 2

        # A shard-extended token from before there was one format: HTTP 400.
        conn.request("POST", "/query",
                     json.dumps({"first_block": 0, "num_blocks": 300,
                                 "resume_token": _shard_extended(ReferenceKey(7, 3, 7, 0), 1)}),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400 and b"malformed resume token" in response.read()

        conn.request("GET", "/health")
        health = json.loads(conn.getresponse().read())
        assert health["status"] == "ok"
        conn.close()


def test_cluster_rejects_use_after_close(shard_factory):
    cluster = shard_factory(num_shards=2)
    _fill(cluster)
    cluster.close()
    with pytest.raises(ClusterError, match="closed"):
        cluster.add_reference(1, inode=1, offset=0)
    with pytest.raises(ClusterError, match="closed"):
        cluster.select(QuerySpec(0, 10))
    cluster.close()   # idempotent


def test_cluster_shards_config_knob(monkeypatch):
    monkeypatch.setenv("REPRO_CLUSTER_SHARDS", "3")
    assert BacklogConfig().cluster_shards == 3
    monkeypatch.delenv("REPRO_CLUSTER_SHARDS")
    assert BacklogConfig().cluster_shards == 1
    with pytest.raises(ValueError, match="cluster_shards"):
        BacklogConfig(cluster_shards=0)


def test_zipf_popularity_is_skewed_seeded_and_scattered():
    from repro.workloads.synthetic import ZipfBlockPopularity

    pop = ZipfBlockPopularity(num_blocks=4096, exponent=1.2, seed=11)
    again = ZipfBlockPopularity(num_blocks=4096, exponent=1.2, seed=11)
    draws = pop.sample_many(3000)
    assert draws == again.sample_many(3000)        # seeded determinism
    assert all(0 <= b < 4096 for b in draws)
    # Skew: the hot half-mass set is a small fraction of the device ...
    hot = pop.hot_set(0.5)
    assert len(hot) < 4096 // 10
    # ... and is scattered across partitions (hence shards), not clustered.
    partitions = {block // 64 for block in hot}
    assert len(partitions) > len(hot) // 4
    with pytest.raises(ValueError):
        ZipfBlockPopularity(0)
    with pytest.raises(ValueError):
        pop.hot_set(0.0)
