"""The HTTP query service's wire behaviour and trust boundary, as exact counts.

Nothing here reads a clock to decide pass or fail:

* every response of every status leaves the server in exactly **one**
  ``send``/``sendall`` call on a ``TCP_NODELAY`` socket (two sends is what
  cost every keep-alive round trip the kernel's 40 ms delayed-ACK timer);
* the request line, ``Content-Length`` and body fail closed: 400/413
  *before* the body is read, and the connection is closed after either;
* a request body is random JSON, random bytes or a bad length, against a
  ``Backlog`` and a 2-shard ``ShardedBacklog``: only 200/400/413 come back,
  the session's next well-formed request is answered, stderr stays empty;
* an engine or cluster failure is a JSON 500 on a still-usable connection;
* N threads x M requests move the request counters by exactly N x M.
"""

from __future__ import annotations

import errno
import http.client
import json
import socket
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Backlog, BacklogConfig, QueryService
from repro.cluster import ShardedBacklog
from repro.server.service import (
    MAX_BODY_BYTES,
    MAX_QUERY_PARTITIONS,
    _build_spec,
)

BLOCKS = 192


def _fill(system):
    for block in range(BLOCKS):
        system.add_reference(block=block, inode=1 + block % 5, offset=block)
    system.checkpoint()
    return system


@pytest.fixture(scope="module")
def backlog():
    system = _fill(Backlog(config=BacklogConfig(partition_size_blocks=64)))
    yield system
    system.close()


@pytest.fixture(scope="module")
def cluster():
    system = _fill(ShardedBacklog(
        num_shards=2, config=BacklogConfig(partition_size_blocks=64)))
    yield system
    system.close()


@pytest.fixture(params=["backlog", "cluster"])
def system(request):
    return request.getfixturevalue(request.param)


def _exchange(conn, method, path, body=None, headers=None):
    conn.request(method, path, body, headers or {})
    response = conn.getresponse()
    return response.status, json.loads(response.read()), response


# -------------------------------------------------- one segment per response


class _RecordingSocket:
    """An accepted socket that logs every ``send``/``sendall`` it is given."""

    def __init__(self, sock, sends):
        self._sock = sock
        self._sends = sends

    def send(self, data, *flags):
        self._sends.append(bytes(data))
        return self._sock.send(data, *flags)

    def sendall(self, data, *flags):
        self._sends.append(bytes(data))
        return self._sock.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _record_sends(service):
    """Wrap every socket the service accepts; returns (sends, accepted)."""
    sends, accepted = [], []
    real_get_request = service._server.get_request

    def get_request():
        sock, address = real_get_request()
        accepted.append(sock)
        return _RecordingSocket(sock, sends), address

    service._server.get_request = get_request
    return sends, accepted


def _raw(service, request_bytes):
    """One raw request on a fresh connection; the full reply until EOF."""
    with socket.create_connection(service.address, timeout=10) as sock:
        sock.sendall(request_bytes)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def test_every_response_is_one_send_on_a_nodelay_socket(backlog, monkeypatch):
    with QueryService(backlog) as service:
        sends, accepted = _record_sends(service)
        conn = http.client.HTTPConnection(*service.address, timeout=10)
        post = {"Content-Type": "application/json"}
        big = json.dumps({"first_block": 0, "num_blocks": BLOCKS})
        keep_alive = [
            ("GET", "/health", None, 200),
            ("GET", "/stats", None, 200),
            ("POST", "/query", json.dumps({"first_block": 7}), 200),
            ("POST", "/query", big, 200),
            ("POST", "/query", "{not json", 400),
            ("POST", "/query", json.dumps({"num_blocks": 1e3}), 400),
            ("GET", "/nope", None, 404),
        ]
        for method, path, body, expected in keep_alive:
            status, _, _ = _exchange(conn, method, path, body, post if body else None)
            assert status == expected
        # An engine failure behind an accepted request: a 500, same socket.
        monkeypatch.setattr(backlog, "select", _raise_eio)
        assert _exchange(conn, "POST", "/query", "{}", post)[0] == 500
        monkeypatch.undo()
        assert _exchange(conn, "GET", "/health")[0] == 200
        assert len(accepted) == 1                  # all of it on one connection
        assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
        conn.close()

        # The rejections that close the connection, and the stdlib's own.
        closing = [
            (b"POST /query HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
            (b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
             % (MAX_BODY_BYTES + 1), 413),
            (b"POST /nope HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 404),
            (b"PUT /query HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501),
            (b"GET\r\n\r\n", 400),
            (b"GET /health HTTP/9.9\r\n\r\n", 505),
        ]
        for request_bytes, expected in closing:
            reply = _raw(service, request_bytes)
            assert reply.startswith(b"HTTP/1.1 %d " % expected), reply[:80]
            assert b"Connection: close\r\n" in reply

    statuses = [int(segment[9:12]) for segment in sends]
    assert statuses == [expected for *_, expected in keep_alive] + [500, 200] + [
        expected for _, expected in closing]
    for segment in sends:
        # One send carries the whole response: header block and the body
        # its Content-Length promises.
        head, _, body = segment.partition(b"\r\n\r\n")
        length = [line for line in head.split(b"\r\n")
                  if line.startswith(b"Content-Length: ")]
        assert len(length) == 1 and int(length[0].split()[1]) == len(body)
        assert b"Content-Type: application/json" in head
        json.loads(body)


def _raise_eio(*_args, **_kwargs):
    raise OSError(errno.EIO, "device gone")


# ----------------------------------------------- request line, length and body


def test_bad_lengths_are_refused_before_the_body_is_read(backlog):
    """No body byte follows these headers, so a handler that read the body
    first would hang here until the socket timeout, not answer."""
    with QueryService(backlog) as service:
        for declared, expected in [(b"-1", 400), (b"abc", 400), (b"1e3", 400),
                                   (b"", 400), (b"+5", 400), (b"\xb2", 400),
                                   (b"%d" % (MAX_BODY_BYTES + 1), 413),
                                   (b"9" * 40, 413)]:
            reply = _raw(service, b"POST /query HTTP/1.1\r\nContent-Length: "
                         + declared + b"\r\n\r\n")
            assert reply.startswith(b"HTTP/1.1 %d " % expected), (declared, reply[:60])
            assert "error" in json.loads(reply.partition(b"\r\n\r\n")[2])
        # The largest accepted body is still read and answered (as bad JSON).
        body = b" " * MAX_BODY_BYTES
        conn = http.client.HTTPConnection(*service.address, timeout=10)
        status, _, _ = _exchange(conn, "POST", "/query", body)
        assert status == 400
        assert _exchange(conn, "POST", "/query", "{}")[0] == 200   # same socket
        conn.close()
        assert service.requests_rejected == 9
        assert service.requests_served == 1
    assert service.inflight == 0                   # after the drain


def test_a_range_over_too_many_partitions_is_refused(system):
    """``num_blocks`` is memory in the engine and round trips in a cluster."""
    widest = MAX_QUERY_PARTITIONS * system.config.partition_size_blocks
    post = {"Content-Type": "application/json"}
    with QueryService(system) as service:
        conn = http.client.HTTPConnection(*service.address, timeout=60)
        for num_blocks in (widest + system.config.partition_size_blocks, 1 << 63):
            status, reply, _ = _exchange(
                conn, "POST", "/query", json.dumps({"num_blocks": num_blocks}), post)
            assert status == 400 and "partitions" in reply["error"]
        status, page, _ = _exchange(
            conn, "POST", "/query", json.dumps({"num_blocks": widest}), post)
        assert status == 200 and page["count"] == BLOCKS
        conn.close()


class TestBuildSpecTypes:
    def test_every_field_is_type_checked(self):
        for payload in (
            {"first_block": 7, "num_blocks": 1e3},      # float where an int goes
            {"first_block": 7.0},
            {"first_block": True},                      # bool is not a block
            {"first_block": -1},
            {"first_block": 1 << 64},                   # not a u64
            {"first_block": 2, "num_blocks": (1 << 64) - 1},   # ends past 2**64
            {"at_version": (1 << 64) - 1},              # window would end past it
            {"limit": "5"}, {"limit": 2.5}, {"limit": False},
            {"at_version": "3"}, {"at_version": 1.5},
            {"version_window": [1, 2.0]}, {"version_window": "12"},
            {"version_window": {"lo": 1, "hi": 2}},
            {"lines": 3}, {"lines": "01"}, {"lines": [0, "1"]},
            {"lines": [[0]]}, {"lines": {"0": 1}}, {"lines": [True]},
            {"inodes": [1.0]}, {"inodes": [-4]},
            {"live_only": 1}, {"live_only": "yes"},
            {"resume_token": 17}, {"resume_token": ["bkq1.AAAA"]},
        ):
            with pytest.raises(ValueError):
                _build_spec(payload)

    def test_valid_shapes_still_build(self):
        spec = _build_spec({"first_block": 0, "num_blocks": (1 << 64) - 1,
                            "version_window": [0, 5], "lines": [], "inodes": [2, 2],
                            "live_only": False, "limit": 1, "resume_token": None})
        assert spec.version_window == (0, 5)
        assert spec.lines is None and spec.inodes == frozenset({2})


# ---------------------------------------------------------- the request fuzz

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False)
    | st.sampled_from([0, 1, 7, 64, -1, 1 << 63, 1 << 64, 1e3, 10 ** 30]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8)
_FIELDS = ["first_block", "num_blocks", "version_window", "at_version",
           "live_only", "lines", "inodes", "limit", "resume_token", "bogus"]
_BODIES = st.one_of(
    st.dictionaries(st.sampled_from(_FIELDS), _JSON_VALUES, max_size=5)
    .map(lambda spec: json.dumps(spec).encode("utf-8")),
    _JSON_VALUES.map(lambda value: json.dumps(value).encode("utf-8")),
    st.binary(max_size=64),
)
_LENGTHS = st.sampled_from(["-1", "-0", "abc", "", "1e3", "0x10", "7 7", "١٢",
                            str(MAX_BODY_BYTES + 1), "9" * 30])


def test_fuzzed_requests_get_200_400_or_413_and_a_usable_session(system, capfd):
    post = {"Content-Type": "application/json"}
    with QueryService(system) as service:
        conn = http.client.HTTPConnection(*service.address, timeout=10)
        expected = system.query(5)

        def session_still_answers():
            status, page, _ = _exchange(conn, "POST", "/query",
                                        json.dumps({"first_block": 5}), post)
            assert status == 200
            assert [r["inode"] for r in page["results"]] == [r.inode for r in expected]

        @settings(max_examples=120, deadline=None)
        @given(body=_BODIES)
        def bodies(body):
            status, reply, _ = _exchange(conn, "POST", "/query", body, post)
            assert status in (200, 400), (body, reply)
            assert ("error" in reply) == (status == 400)
            assert conn.sock is not None            # keep-alive survived
            session_still_answers()

        @settings(max_examples=25, deadline=None)
        @given(declared=_LENGTHS)
        def lengths(declared):
            conn.putrequest("POST", "/query")
            conn.putheader("Content-Length", declared.encode("utf-8"))
            conn.endheaders()
            response = conn.getresponse()
            reply = json.loads(response.read())
            assert response.status in (400, 413) and "error" in reply
            assert response.getheader("Connection") == "close"
            session_still_answers()                 # http.client reconnects

        try:
            bodies()
            lengths()
        finally:
            conn.close()         # or a failure here would stall the drain
        assert service.requests_failed == 0
    assert service.inflight == 0                   # after the drain
    assert capfd.readouterr().err == ""


# ----------------------------------------------------- failures become 500s


def test_a_dead_cluster_is_a_json_500_not_a_dropped_connection(capfd):
    dying = _fill(ShardedBacklog(
        num_shards=2, config=BacklogConfig(partition_size_blocks=64)))
    try:
        with QueryService(dying) as service:
            conn = http.client.HTTPConnection(*service.address, timeout=10)
            post = {"Content-Type": "application/json"}
            assert _exchange(conn, "POST", "/query", "{}", post)[0] == 200
            dying.debug_kill(0)               # memory-backed: unrecoverable
            status, reply, _ = _exchange(conn, "POST", "/query", "{}", post)
            assert status == 500 and "ClusterError" in reply["error"]
            for path in ("/health", "/stats"):
                status, reply, _ = _exchange(conn, "GET", path)
                assert status == 500 and "error" in reply
            status, reply, _ = _exchange(conn, "POST", "/query", "{oops", post)
            assert status == 400                      # still parsing requests
            assert conn.sock is not None
            conn.close()
            assert (service.requests_served, service.requests_rejected,
                    service.requests_failed) == (1, 1, 1)
    finally:
        dying.close()
    assert capfd.readouterr().err == ""


# ------------------------------------------------------------- exact counters


def test_counters_sum_exactly_across_concurrent_sessions(backlog):
    threads, requests = 8, 40
    errors = []
    post = {"Content-Type": "application/json"}

    def session(worker):
        try:
            conn = http.client.HTTPConnection(*service.address, timeout=30)
            for i in range(requests):
                good = (i + worker) % 4 != 0
                body = json.dumps({"first_block": i} if good else {"first_blok": i})
                status, _, _ = _exchange(conn, "POST", "/query", body, post)
                assert status == (200 if good else 400)
            conn.close()
        except Exception as exc:  # pragma: no cover - regression
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)      # make a lost read-modify-write likely
    try:
        with QueryService(backlog) as service:
            workers = [threading.Thread(target=session, args=(worker,))
                       for worker in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in workers)
            stats = _exchange(http.client.HTTPConnection(*service.address, timeout=10),
                              "GET", "/stats")[1]
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    rejected = sum(1 for worker in range(threads) for i in range(requests)
                   if (i + worker) % 4 == 0)
    assert stats["requests_rejected"] == service.requests_rejected == rejected
    assert stats["requests_served"] == service.requests_served == threads * requests - rejected
    assert stats["requests_failed"] == 0 and stats["inflight"] == 0
