"""The typed cluster wire: fail-closed decoding and payload fidelity.

Three properties of ``repro.cluster.protocol``, none of them timed:

* whatever bytes arrive, ``decode_frame`` ends in a dict payload or a
  :class:`ProtocolError` -- random bytes, well-framed garbage for every
  opcode, and valid frames of every opcode with a byte flipped, the tail cut
  off or the length field skewed (the frame carries no checksum, so a flip
  inside a value may decode to a different *value*; it may never raise
  anything else, and a pickle inside a frame is never run);
* the real payloads of a live 2-shard run -- every opcode, the worker's
  hello and a relayed ERROR -- round-trip with the value *and* the types a
  handler depends on (int-keyed authority table, ``frozenset`` filters,
  tuple ``version_window``, SYNC's tuple lists, ``BackReference`` results);
* a worker that is sent a frame it cannot decode answers ERROR and stays
  in step, instead of dying or running the body.
"""

from __future__ import annotations

import os
import pickle
import threading
from multiprocessing import Pipe

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Opcode, ProtocolError, ShardedBacklog, WorkerError
from repro.cluster.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    _HEADER,
    Channel,
    QueryPage,
    decode_frame,
    encode_frame,
)
from repro.cluster.worker import worker_main
from repro.core.config import BacklogConfig
from repro.core.cursor import QuerySpec, encode_resume_token
from repro.core.masking import ExplicitVersionAuthority
from repro.core.records import INFINITY, BackReference, ReferenceKey
from repro.fsim.faults import FaultPlan

_AUTHORITY = {0: [1, 2, 9], 3: None, 7: []}
_TOKEN = encode_resume_token(ReferenceKey(100, 5, 0, 0))
_SPEC = {"first_block": 64, "num_blocks": 128, "version_window": (2, 9),
         "live_only": True, "lines": frozenset({0, 3}), "inodes": frozenset({5}),
         "limit": 40, "resume_token": _TOKEN}
_PLAIN_SPEC = {"first_block": 0, "num_blocks": 1, "version_window": None,
               "live_only": False, "lines": None, "inodes": None,
               "limit": None, "resume_token": None}

#: One representative payload per opcode (requests as the coordinator builds
#: them, replies as the worker does), plus the second shape where an opcode
#: has one: the worker's hello and a packed query page under OK, an
#: all-defaults query.
_SAMPLES = [
    (Opcode.SYNC, {"clones": [(1, 0, 3), (2, 1, 5)], "suppressed": [(9, 1, 0, 0)],
                   "zombies": [(1, 4)], "authority": _AUTHORITY, "current_cp": 6}),
    (Opcode.UPDATE, {"ops": [("add", 7, 3, 0, 0, 5), ("remove", 7, 3, 0, 0, 6),
                             ("add", INFINITY, INFINITY, 0, 2, 6)]}),
    (Opcode.UPDATE, {"ops": []}),
    (Opcode.CHECKPOINT_PREPARE, {"cp": 6, "authority": _AUTHORITY}),
    (Opcode.CHECKPOINT_COMMIT, {"cp": 6}),
    (Opcode.MAINTAIN, {"authority": None}),
    (Opcode.QUERY_OPEN, {"authority": _AUTHORITY, "spec": _SPEC}),
    (Opcode.QUERY_OPEN, {"authority": None, "spec": _PLAIN_SPEC}),
    (Opcode.QUERY_PAGE, {"authority": {}, "spec": dict(_SPEC, lines=frozenset())}),
    (Opcode.STATS, {}),
    (Opcode.RELOCATE, {"block": 9, "new_block": None, "authority": _AUTHORITY}),
    (Opcode.CLONE, {"line": 2, "parent_line": 0, "parent_version": 4, "cp": 5}),
    (Opcode.SNAPSHOT_DELETED, {"line": 0, "version": 4, "is_zombie": True, "cp": 7}),
    (Opcode.FAULT, {"action": "free_space", "pages": None}),
    (Opcode.SHUTDOWN, {}),
    (Opcode.OK, {"shard": 1, "pid": 4242, "cp": 6, "committed": 6,
                 "recovered_runs": 3}),
    (Opcode.OK, QueryPage(
        [(2, 1, 0, 0, ((1, 4), (6, INFINITY))), (3, 2, 5, 1, ((7, INFINITY),))],
        _TOKEN, False, {"pages_read": 12, "runs_probed": 2})),
    (Opcode.OK, QueryPage([], None, True, {})),
    (Opcode.ERROR, {"kind": "OSError", "message": "No space left on device",
                    "errno": 28}),
]


def _decoded_form(payload):
    """What ``decode_frame`` hands back for an encoded ``payload``."""
    if type(payload) is QueryPage:
        return {"results": [BackReference._make(owner) for owner in payload.results],
                "resume_token": payload.resume_token,
                "exhausted": payload.exhausted, "stats": payload.stats}
    return payload


def _reencodable(payload):
    """A decoded reply in the form its sender encoded it from."""
    if "results" in payload:
        return QueryPage(payload["results"], payload["resume_token"],
                         payload["exhausted"], payload["stats"])
    return payload


def _assert_wire_types(opcode, payload):
    """The types a handler relies on, beyond ``==``."""
    authority = payload.get("authority")
    if authority is not None:
        assert all(type(line) is int for line in authority)
        assert all(versions is None or type(versions) is list
                   for versions in authority.values())
    if opcode in (Opcode.QUERY_OPEN, Opcode.QUERY_PAGE):
        spec = payload["spec"]
        for name in ("lines", "inodes"):
            assert spec[name] is None or type(spec[name]) is frozenset
        assert spec["version_window"] is None or type(spec["version_window"]) is tuple
        assert type(spec["live_only"]) is bool
        QuerySpec(**spec)                    # what the worker does with it
    if opcode is Opcode.SYNC:
        for name in ("clones", "suppressed", "zombies"):
            assert all(type(entry) is tuple for entry in payload[name])
    if opcode is Opcode.UPDATE:
        assert all(type(op) is tuple and op[0] in ("add", "remove")
                   for op in payload["ops"])
    if "results" in payload:
        assert type(payload["exhausted"]) is bool
        for ref in payload["results"]:
            assert type(ref) is BackReference
            assert type(ref.ranges) is tuple
            assert all(type(pair) is tuple for pair in ref.ranges)


# ------------------------------------------------------------- hand-made frames


def test_sample_covers_every_opcode():
    assert {opcode for opcode, _ in _SAMPLES} == set(Opcode)


@pytest.mark.parametrize("opcode,payload", _SAMPLES,
                         ids=[f"{op.name}-{i}" for i, (op, _) in enumerate(_SAMPLES)])
def test_sample_frames_round_trip_with_types(opcode, payload):
    kind, decoded = decode_frame(encode_frame(opcode, payload))
    assert kind is opcode
    assert decoded == _decoded_form(payload)
    _assert_wire_types(opcode, decoded)


def test_payloads_that_do_not_fit_their_layout_fail_at_encode():
    for opcode, payload in [
        (Opcode.STATS, None),                                  # not an object
        (Opcode.STATS, {"when": object()}),                    # not JSON
        (Opcode.UPDATE, {"ops": [("add", 1, 2, 3)]}),          # short op
        (Opcode.UPDATE, {"ops": [("move", 1, 2, 3, 0, 1)]}),   # unknown kind
        (Opcode.UPDATE, {"ops": [("add", -1, 2, 3, 0, 1)]}),   # not a u64
        (Opcode.QUERY_OPEN, {"authority": None, "spec": {"first_block": 0}}),
        (Opcode.QUERY_OPEN, {"authority": None,
                             "spec": dict(_PLAIN_SPEC, first_block=1 << 64)}),
    ]:
        with pytest.raises(ProtocolError, match="does not fit"):
            encode_frame(opcode, payload)


# ------------------------------------------------------------------- the fuzz


def _decode_outcome(data):
    """A decoded payload, or None after a ProtocolError; nothing else escapes."""
    try:
        kind, payload = decode_frame(data)
    except ProtocolError:
        return None
    assert isinstance(kind, Opcode)
    assert type(payload) is dict
    return payload


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=256))
def test_random_bytes_never_escape_protocol_error(data):
    _decode_outcome(data)
    _decode_outcome(MAGIC + data)


@settings(max_examples=300, deadline=None)
@given(opcode=st.sampled_from(sorted(Opcode)), layout=st.integers(0, 4),
       body=st.binary(max_size=256))
def test_well_framed_garbage_never_escapes_protocol_error(opcode, layout, body):
    frame = _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(opcode), layout, len(body)) + body
    payload = _decode_outcome(frame)
    if payload is not None:
        # Arbitrary bytes only ever *decode* when they happen to spell a
        # valid body of the opcode's own layout.
        assert encode_frame(opcode, _reencodable(payload))


@settings(max_examples=400, deadline=None)
@given(sample=st.sampled_from(_SAMPLES), data=st.data())
def test_damaged_valid_frames_decode_or_raise_protocol_error(sample, data):
    opcode, payload = sample
    frame = encode_frame(opcode, payload)
    damage = data.draw(st.sampled_from(["flip", "truncate", "extend", "length"]))
    if damage == "flip":
        position = data.draw(st.integers(0, len(frame) - 1))
        bit = data.draw(st.integers(0, 7))
        damaged = bytearray(frame)
        damaged[position] ^= 1 << bit
        # The pad byte is ignored and a flip inside a value is a different
        # value; every other flip must be caught.
        _decode_outcome(bytes(damaged))
        return
    if damage == "truncate":
        damaged = frame[:data.draw(st.integers(0, len(frame) - 1))]
    elif damage == "extend":
        damaged = frame + data.draw(st.binary(min_size=1, max_size=16))
    else:
        skew = data.draw(st.integers(-len(frame), 1 << 20).filter(bool))
        declared = max(0, len(frame) - _HEADER.size + skew)
        damaged = _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(opcode), frame[6],
                               declared) + frame[_HEADER.size:]
        if declared == len(frame) - _HEADER.size:
            return
    with pytest.raises(ProtocolError):
        decode_frame(damaged)


def test_length_fields_inside_a_body_cannot_ask_for_memory():
    """Counts are checked against the body before anything is allocated."""
    huge = (1 << 32) - 1
    bodies = {
        1: huge.to_bytes(4, "little"),                                   # OPS
        2: bytes([0x40, 0, 0, 0]) + huge.to_bytes(4, "little") * 4 + bytes(40),
        3: bytes([2, 0, 0, 0]) + huge.to_bytes(4, "little") * 3,          # PAGE
    }
    for layout, opcode in ((1, Opcode.UPDATE), (2, Opcode.QUERY_OPEN), (3, Opcode.OK)):
        body = bodies[layout]
        frame = _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(opcode), layout, len(body)) + body
        with pytest.raises(ProtocolError):
            decode_frame(frame)
    nested = b"[" * 100_000
    with pytest.raises(ProtocolError, match="malformed"):
        decode_frame(_HEADER.pack(MAGIC, PROTOCOL_VERSION, int(Opcode.STATS), 0,
                                  len(nested)) + nested)


class _Detonator:
    """Unpickling this records that code ran on the sender's behalf."""

    fired = []

    def __reduce__(self):
        return (_Detonator.fired.append, ("boom",))


@pytest.mark.parametrize("opcode", sorted(Opcode), ids=lambda op: op.name)
def test_a_pickle_in_a_valid_frame_is_rejected_not_run(opcode):
    body = pickle.dumps({"payload": _Detonator()}, protocol=pickle.HIGHEST_PROTOCOL)
    for layout in range(4):
        frame = _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(opcode), layout,
                             len(body)) + body
        with pytest.raises(ProtocolError):
            decode_frame(frame)
    assert _Detonator.fired == []


# ------------------------------------------------- real payloads, live cluster


@pytest.fixture
def recorded_wire(monkeypatch):
    """Every (opcode, payload) the coordinator sends and receives."""
    sent, received = [], []
    real_send, real_recv = Channel.send, Channel.recv

    def send(self, opcode, payload):
        sent.append((opcode, payload))
        real_send(self, opcode, payload)

    def recv(self):
        reply = real_recv(self)
        received.append(reply)
        return reply

    monkeypatch.setattr(Channel, "send", send)
    monkeypatch.setattr(Channel, "recv", recv)
    return sent, received


def test_real_payloads_of_every_opcode_round_trip(recorded_wire, tmp_path):
    sent, received = recorded_wire
    authority = ExplicitVersionAuthority()
    authority.add_snapshot(0, 1)
    cluster = ShardedBacklog(
        num_shards=2, config=BacklogConfig(partition_size_blocks=64),
        directory=str(tmp_path / "cluster"), version_source=authority,
        fault_plans={0: FaultPlan(seed=1)}, query_page_records=4)
    try:
        for block in range(0, 256, 3):
            cluster.add_reference(block, inode=1 + block % 4, offset=block)
        cluster.checkpoint()
        authority.set_current_cp(cluster.current_cp)
        cluster.register_clone(1, 0, 1)
        cluster.add_reference(5, inode=9, offset=0, line=1)
        cluster.remove_reference(3, inode=4, offset=3)
        cluster.on_snapshot_deleted(0, 1, True, cluster.current_cp)
        cluster.checkpoint()
        authority.set_current_cp(cluster.current_cp)
        assert cluster.relocate_block(6) >= 1
        answer = cluster.select(QuerySpec(
            0, 256, version_window=(1, 50), lines={0, 1}, inodes={1, 2, 3, 4})).all()
        assert len(answer) > 8                     # several QUERY_PAGE hops
        assert cluster.select(QuerySpec(0, 256, limit=3)).all()
        cluster.maintain()
        cluster.service_stats()
        cluster.debug_fault(0, "disarm")
        with pytest.raises(ValueError, match="no fault plan"):
            cluster.debug_fault(1, "arm")          # relayed as an ERROR frame
    finally:
        cluster.close()

    assert {opcode for opcode, _ in sent} == set(Opcode) - {Opcode.OK, Opcode.ERROR}
    assert {opcode for opcode, _ in received} == {Opcode.OK, Opcode.ERROR}
    hellos = [reply for opcode, reply in received if "recovered_runs" in reply]
    assert len(hellos) == 2 and all(type(h["pid"]) is int for h in hellos)
    assert any("results" in reply and reply["resume_token"] for _, reply in received)

    for opcode, payload in sent:
        assert decode_frame(encode_frame(opcode, payload)) == (opcode, payload)
        _assert_wire_types(opcode, decode_frame(encode_frame(opcode, payload))[1])
    for opcode, payload in received:
        # What arrived was already decoded once; it must be a fixed point.
        _assert_wire_types(opcode, payload)
        again = decode_frame(encode_frame(opcode, _reencodable(payload)))
        assert again == (opcode, payload)
        _assert_wire_types(opcode, again[1])


# ------------------------------------------------------- the worker's own loop


def test_worker_refuses_an_undecodable_frame_and_stays_in_step():
    parent_end, child_end = Pipe(duplex=True)
    thread = threading.Thread(
        target=worker_main,
        args=(child_end, 0, 1, None, BacklogConfig(partition_size_blocks=64)))
    thread.start()
    try:
        channel = Channel(parent_end)
        opcode, hello = channel.recv()
        assert opcode is Opcode.OK and hello["pid"] == os.getpid()
        hostile = pickle.dumps({"payload": _Detonator()})
        for raw in (b"junk",
                    _HEADER.pack(MAGIC, 1, int(Opcode.STATS), 0, len(hostile)) + hostile,
                    _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(Opcode.UPDATE), 1,
                                 len(hostile)) + hostile):
            parent_end.send_bytes(raw)
            opcode, reply = channel.recv()
            assert opcode is Opcode.ERROR and reply["kind"] == "ProtocolError"
        assert _Detonator.fired == []
        # Still in step: the next well-formed request gets its own reply.
        assert channel.request(Opcode.STATS, {})["pid"] == os.getpid()
        with pytest.raises(WorkerError, match="KeyError"):
            channel.request(Opcode.CHECKPOINT_COMMIT, {})
        assert channel.request(Opcode.SHUTDOWN, {}) == {"shard": 0}
    finally:
        parent_end.close()
        thread.join(timeout=30)
    assert not thread.is_alive()
