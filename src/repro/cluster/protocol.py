"""The coordinator/worker wire protocol: framed, typed request/response.

Every message is one frame::

    +-------+---------+--------+--------+-----+----------------+---------+
    | magic | version | opcode | layout | pad | payload length |  body   |
    |  4 B  |   1 B   |  1 B   |  1 B   | 1 B |     4 B LE     | variable|
    +-------+---------+--------+--------+-----+----------------+---------+

The header is validated on every receive -- wrong magic, unknown protocol
version, unknown opcode, a layout the opcode does not use or a length
mismatch all raise :class:`ProtocolError`.  The body is one of four typed
layouts, chosen by the opcode (nothing on this wire is ``pickle``, so a
hostile body can at worst be *rejected*):

``JSON``
    Every control message -- SYNC, the checkpoint phases, MAINTAIN, STATS,
    RELOCATE, CLONE, SNAPSHOT_DELETED, FAULT, SHUTDOWN, their OK replies,
    the worker's hello and every ERROR reply -- is a UTF-8 JSON object.
    What JSON cannot say and a handler relies on is restored on decode:
    the version-authority table's integer keys, and SYNC's tuple lists.
``OPS``
    An UPDATE batch: a count, one byte per op (add/remove), then five u64
    columns (block, inode, offset, line, cp), each filled in one C pass.
``QUERY``
    A QUERY_OPEN / QUERY_PAGE request: a fixed struct (flags, block range,
    version window, limit), then one u64 column holding the line filter,
    the inode filter and the version-authority table, then the resume token.
``PAGE``
    A worker's reply to a query: flags, the resume token, the per-page
    :class:`~repro.core.stats.QueryStats` delta as a name list and an i64
    column, then the owners as six packed columns
    (:func:`pack_back_references`).

The frame layout is transport agnostic: today frames travel over a duplex
:class:`multiprocessing.connection.Connection` pipe, but the explicit
length prefix means the identical bytes could stream over a TCP socket for
a true multi-node deployment.  Coordinator and workers are spawned from one
build, so there is exactly one protocol version and no negotiation: a frame
of any other version fails the exchange loudly.

The conversation is strict request/response: the coordinator sends one
request frame and reads exactly one reply frame (:data:`Opcode.OK` or
:data:`Opcode.ERROR`) before the next request on that channel.
:class:`Channel` enforces this with a per-channel lock, which is also what
lets concurrent coordinator threads (HTTP sessions, the churn thread)
multiplex one pipe per worker safely.

An ``ERROR`` reply carries the worker-side exception's type name and
message; :func:`raise_reply_error` re-raises it as the matching local
exception type for the handful of types callers genuinely dispatch on
(``OSError`` for failed flushes, ``ValueError`` for bad specs) and as
:class:`WorkerError` otherwise.
"""

from __future__ import annotations

import json
import struct
import sys
import threading
from array import array
from enum import IntEnum
from functools import partial
from itertools import accumulate, chain
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.records import BackReference

__all__ = [
    "Channel",
    "ChannelClosedError",
    "Opcode",
    "ProtocolError",
    "QueryPage",
    "WorkerError",
    "PROTOCOL_VERSION",
    "encode_frame",
    "decode_frame",
    "pack_back_references",
    "unpack_back_references",
    "raise_reply_error",
]

#: Frame magic: "BacKlog Cluster".
MAGIC = b"BKLC"

#: Bumped whenever the frame layout or any payload schema changes shape, so
#: a mixed-version coordinator/worker pair fails its first exchange loudly.
#: Versions 1 (pickled payloads) and 2 (packed page + pickled metadata) are
#: gone; there is no peer left that speaks them.
PROTOCOL_VERSION = 3

_HEADER = struct.Struct("<4sBBBxI")

#: Upper bound on a single frame's payload; a length beyond this is treated
#: as a corrupt header rather than an allocation request.
MAX_PAYLOAD_BYTES = 1 << 30

#: Body layouts (the header's ``layout`` byte).
_JSON, _OPS, _QUERY, _PAGE = range(4)


class Opcode(IntEnum):
    """Versioned message kinds (requests, then replies)."""

    # Coordinator -> worker requests.
    SYNC = 1              # (re)install clone graph, suppressions, CP state
    UPDATE = 2            # batch of buffered add/remove reference ops
    CHECKPOINT_PREPARE = 3  # phase one: flush write stores, persist meta
    CHECKPOINT_COMMIT = 4   # phase two: global CP published, advance
    MAINTAIN = 5          # run database maintenance on the shard
    QUERY_OPEN = 6        # open a per-partition sub-query, return a page
    QUERY_PAGE = 7        # continue a sub-query from a resume token
    STATS = 8             # shard counters (query stats, pools, sizes)
    RELOCATE = 9          # suppress stale refs of one moved block
    CLONE = 10            # register a writable clone
    SNAPSHOT_DELETED = 11  # propagate snapshot deletion / zombie state
    FAULT = 12            # test harness: drive the shard's FaultyBackend
    SHUTDOWN = 13         # drain and exit the worker loop

    # Worker -> coordinator replies.
    OK = 64
    ERROR = 65


#: The one layout each request opcode travels in (JSON when not listed).  An
#: OK reply is JSON too, unless it answers a query (``_PAGE``).
_REQUEST_LAYOUT = {
    Opcode.UPDATE: _OPS,
    Opcode.QUERY_OPEN: _QUERY,
    Opcode.QUERY_PAGE: _QUERY,
}

#: JSON requests that carry the coordinator's version-authority table.
_AUTHORITY_OPCODES = frozenset({
    Opcode.SYNC, Opcode.CHECKPOINT_PREPARE, Opcode.MAINTAIN, Opcode.RELOCATE})


class ProtocolError(RuntimeError):
    """A malformed or version-incompatible frame."""


class WorkerError(RuntimeError):
    """A worker-side failure relayed over an ERROR reply."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class ChannelClosedError(ConnectionError):
    """The transport under a channel broke (worker crash or shutdown).

    Distinct from any *relayed* worker exception on purpose: a relayed
    ``OSError`` means the worker is alive and reported a failure (say, an
    ENOSPC flush), while this means the pipe itself died -- which is the
    coordinator's cue to run the respawn/recover/replay path.
    """


class QueryPage:
    """One shard's page of query results, shipped as packed columns.

    The worker builds it from the cursor's *raw* owner tuples
    (:meth:`repro.core.cursor.QueryResult.all_rows`) -- a record that
    travelled the columnar pipeline never becomes a BackReference on the
    worker at all.  :func:`encode_frame` recognises the type and emits a
    ``PAGE`` body; :func:`decode_frame` materialises it into the
    ``{"results": [BackReference, ...], "resume_token": ..., "exhausted":
    ..., "stats": ...}`` reply dict the coordinator's scatter-gather loop
    reads.
    """

    __slots__ = ("results", "resume_token", "exhausted", "stats")

    def __init__(self, results: List[Tuple], resume_token: Optional[str],
                 exhausted: bool, stats: Dict[str, int]) -> None:
        self.results = results
        self.resume_token = resume_token
        self.exhausted = exhausted
        self.stats = stats


_NATIVE_IS_BE = sys.byteorder == "big"


def _wire_bytes(values: array) -> bytes:
    """The array's items as little-endian wire bytes."""
    if _NATIVE_IS_BE:
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def _wire_array(typecode: str, data: bytes) -> array:
    """Little-endian wire bytes back into a native array."""
    values = array(typecode)
    values.frombytes(data)
    if _NATIVE_IS_BE:
        values.byteswap()
    return values


_ITEMSIZE = {"I": 4, "Q": 8, "q": 8}


class _Reader:
    """Sequential, bounds-checked reads over one frame body."""

    __slots__ = ("view", "pos")

    def __init__(self, view: memoryview) -> None:
        self.view = view
        self.pos = 0

    def take(self, size: int) -> memoryview:
        end = self.pos + size
        if end > len(self.view):
            raise ProtocolError(
                f"frame body overrun: need {size} bytes at offset {self.pos}, "
                f"body has {len(self.view)}")
        chunk = self.view[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, layout: struct.Struct) -> Tuple:
        return layout.unpack(self.take(layout.size))

    def column(self, typecode: str, count: int) -> array:
        return _wire_array(typecode, self.take(count * _ITEMSIZE[typecode]))

    def text(self, size: int) -> str:
        return str(self.take(size), "utf-8")

    def finish(self) -> None:
        if self.pos != len(self.view):
            raise ProtocolError(
                f"{len(self.view) - self.pos} trailing bytes after the frame body")


# ------------------------------------------------------- packed owner columns

#: Packed owner-column prefix: number of owners, total number of range pairs.
_REFS_HEADER = struct.Struct("<II")

#: ``tuple.__new__`` bound to :class:`BackReference`: what ``_make`` does
#: per call, minus its Python stack frame -- the decode loop's constructor.
_MAKE_REF = partial(tuple.__new__, BackReference)


def pack_back_references(refs: List[Tuple]) -> bytes:
    """Pack owner tuples into flat columnar arrays (the page's owner section).

    ``refs`` holds ``(block, inode, offset, line, ranges)`` tuples --
    :class:`BackReference` or the columnar pipeline's raw owners, both pack
    identically.  Layout: the :data:`_REFS_HEADER` counts, then six flat
    little-endian column sections -- u64 blocks, u64 inodes, u64 offsets,
    u64 lines, u32 range counts, then 2 u64s per range pair.  One C-level
    ``zip`` transposes the tuples into columns and every section fills in
    one C pass.
    """
    if not refs:
        return _REFS_HEADER.pack(0, 0)
    blocks, inodes, offsets, lines, ranges_list = zip(*refs)
    counts = array("I", list(map(len, ranges_list)))
    pairs = array("Q", list(chain.from_iterable(chain.from_iterable(ranges_list))))
    return b"".join((
        _REFS_HEADER.pack(len(refs), len(pairs) // 2),
        _wire_bytes(array("Q", blocks)), _wire_bytes(array("Q", inodes)),
        _wire_bytes(array("Q", offsets)), _wire_bytes(array("Q", lines)),
        _wire_bytes(counts), _wire_bytes(pairs)))


def unpack_back_references(data: bytes, offset: int = 0) -> List[BackReference]:
    """Materialise packed owner columns into :class:`BackReference` results.

    The inverse of :func:`pack_back_references` *and* the wire's
    materialisation boundary: the one place a shipped owner becomes a
    NamedTuple.  The whole reconstruction is chained C loops -- each column
    decodes with one ``array`` fill, the pair columns interleave lazily
    under ``zip``, and every owner is built by ``tuple.__new__`` directly
    (:data:`_MAKE_REF`).  Raises :class:`ProtocolError` on truncated or
    inconsistent bodies instead of building garbage results.
    """
    view = memoryview(data)[offset:]
    if len(view) < _REFS_HEADER.size:
        raise ProtocolError(f"short query page body: {len(view)} bytes")
    num_refs, num_pairs = _REFS_HEADER.unpack_from(view, 0)
    n8 = num_refs * 8
    counts_start = _REFS_HEADER.size + 4 * n8
    pairs_start = counts_start + num_refs * 4
    pairs_end = pairs_start + num_pairs * 16
    if len(view) != pairs_end:
        raise ProtocolError(
            f"query page length mismatch: {num_refs} owners / {num_pairs} "
            f"pairs need {pairs_end} bytes, got {len(view)}")
    pos = _REFS_HEADER.size
    blocks = _wire_array("Q", view[pos:pos + n8])
    inodes = _wire_array("Q", view[pos + n8:pos + 2 * n8])
    offsets = _wire_array("Q", view[pos + 2 * n8:pos + 3 * n8])
    lines = _wire_array("Q", view[pos + 3 * n8:counts_start])
    counts = _wire_array("I", view[counts_start:pairs_start])
    flat = _wire_array("Q", view[pairs_start:pairs_end])
    if sum(counts) != num_pairs:
        raise ProtocolError("query page range counts do not sum to the pair count")
    pairs = zip(flat[0::2], flat[1::2])
    if counts.count(1) == num_refs:
        # The common shape (every owner one merged range): the 1-tuple
        # range sets come straight off a lazy zip-of-zip.
        rngs: Iterable[Tuple] = zip(pairs)
    else:
        # Mixed counts: cut the pair list by cumulative offsets, everything
        # staying inside C map loops (slice objects -> list slices ->
        # tuples) rather than one islice consumer per owner.
        pair_list = list(pairs)
        bounds = list(accumulate(counts))
        rngs = list(map(tuple, map(pair_list.__getitem__,
                                   map(slice, chain((0,), bounds), bounds))))
    return list(map(_MAKE_REF, zip(blocks, inodes, offsets, lines, rngs)))


# ---------------------------------------------------------------- body codecs


def _authority_from_json(table: Any) -> Optional[Dict[int, Optional[List[int]]]]:
    """Restore the integer line keys JSON turned into strings."""
    if table is None:
        return None
    if type(table) is not dict:
        raise ProtocolError("authority table must be an object or null")
    restored: Dict[int, Optional[List[int]]] = {}
    for line, versions in table.items():
        if versions is not None and not (
                type(versions) is list and set(map(type, versions)) <= {int}):
            raise ProtocolError("authority versions must be a list of integers or null")
        restored[int(line)] = versions
    return restored


_JSON_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def _encode_json(payload: Any) -> bytes:
    if type(payload) is not dict:
        raise TypeError(
            f"control payloads are JSON objects, not {type(payload).__name__}")
    return _JSON_ENCODE(payload).encode("utf-8")


def _decode_json(kind: Opcode, body: memoryview) -> Dict[str, Any]:
    payload = json.loads(str(body, "utf-8"))
    if type(payload) is not dict:
        raise ProtocolError("control payloads are JSON objects")
    if kind in _AUTHORITY_OPCODES and "authority" in payload:
        payload["authority"] = _authority_from_json(payload["authority"])
    if kind is Opcode.SYNC:
        # The clone graph, suppressions and zombie set are lists of tuples
        # on the coordinator and are unpacked as such by the handler.
        for name in ("clones", "suppressed", "zombies"):
            if name in payload:
                payload[name] = list(map(tuple, payload[name]))
    return payload


#: UPDATE batch prefix: number of ops.
_OPS_HEADER = struct.Struct("<I")
_OP_KINDS = ("remove", "add")
_OP_CODES = {kind: code for code, kind in enumerate(_OP_KINDS)}


def _encode_ops(payload: Dict[str, Any]) -> bytes:
    ops = payload["ops"]
    if not ops:
        return _OPS_HEADER.pack(0)
    kinds, *columns = zip(*ops)
    if len(columns) != 5:
        raise ValueError("update ops are (kind, block, inode, offset, line, cp)")
    return b"".join((
        _OPS_HEADER.pack(len(ops)), bytes(map(_OP_CODES.__getitem__, kinds)),
        *(_wire_bytes(array("Q", column)) for column in columns)))


def _decode_ops(kind: Opcode, body: memoryview) -> Dict[str, Any]:
    reader = _Reader(body)
    (count,) = reader.unpack(_OPS_HEADER)
    kinds = reader.take(count)
    columns = [reader.column("Q", count) for _ in range(5)]
    reader.finish()
    if count and max(kinds) >= len(_OP_KINDS):
        raise ProtocolError("unknown update kind code")
    return {"ops": list(zip(map(_OP_KINDS.__getitem__, kinds), *columns))}


#: Query request prefix: flags; line-filter, inode-filter, authority-table
#: and resume-token sizes; first block, block count, version window, limit.
#: One u64 column follows -- the line filter, the inode filter, then the
#: version-authority table as ``line, count, versions...`` per line
#: (:data:`_ALL_VERSIONS` as the count of a line whose entry is ``None``) --
#: and the resume token's bytes end the body.
_QUERY_HEADER = struct.Struct("<BxxxIIIIQQQQQ")
(_LIVE_ONLY, _HAS_WINDOW, _HAS_LIMIT, _HAS_LINES, _HAS_INODES, _HAS_TOKEN,
 _HAS_AUTHORITY) = (1 << bit for bit in range(7))
_ALL_VERSIONS = (1 << 64) - 1


def _encode_query(payload: Dict[str, Any]) -> bytes:
    spec, authority = payload["spec"], payload["authority"]
    window, limit = spec["version_window"], spec["limit"]
    lines, inodes, token = spec["lines"], spec["inodes"], spec["resume_token"]
    flags = _LIVE_ONLY if spec["live_only"] else 0
    lo = hi = 0
    if window is not None:
        flags |= _HAS_WINDOW
        lo, hi = window
    if limit is not None:
        flags |= _HAS_LIMIT
    words: List[int] = []
    if lines is not None:
        flags |= _HAS_LINES
        words.extend(lines)
    if inodes is not None:
        flags |= _HAS_INODES
        words.extend(inodes)
    if authority is not None:
        flags |= _HAS_AUTHORITY
        for line, versions in authority.items():
            if versions is None:
                words += (line, _ALL_VERSIONS)
            else:
                words += (line, len(versions))
                words += versions
    token_bytes = b""
    if token is not None:
        flags |= _HAS_TOKEN
        token_bytes = token.encode("utf-8")
    return b"".join((
        _QUERY_HEADER.pack(
            flags, len(lines or ()), len(inodes or ()), len(authority or ()),
            len(token_bytes), spec["first_block"], spec["num_blocks"],
            lo, hi, limit or 0),
        _wire_bytes(array("Q", words)), token_bytes))


def _decode_query(kind: Opcode, body: memoryview) -> Dict[str, Any]:
    if len(body) < _QUERY_HEADER.size:
        raise ProtocolError(f"short query request body: {len(body)} bytes")
    (flags, num_lines, num_inodes, authority_lines, token_size, first_block,
     num_blocks, lo, hi, limit) = _QUERY_HEADER.unpack_from(body)
    if flags >= _HAS_AUTHORITY << 1:
        raise ProtocolError(f"unknown query flags {flags:#x}")
    words_end = len(body) - token_size
    if words_end < _QUERY_HEADER.size or (words_end - _QUERY_HEADER.size) % 8:
        raise ProtocolError("query request token overruns the body")
    words = _wire_array("Q", body[_QUERY_HEADER.size:words_end]).tolist()
    pos = num_lines + num_inodes
    authority: Dict[int, Optional[List[int]]] = {}
    for _ in range(authority_lines):
        if pos + 2 > len(words):
            raise ProtocolError("query request authority table is cut short")
        line, count = words[pos], words[pos + 1]
        pos += 2
        if count == _ALL_VERSIONS:
            authority[line] = None
        else:
            authority[line] = words[pos:pos + count]
            pos += count
    if pos != len(words):
        raise ProtocolError("query request columns do not match their counts")
    return {
        "authority": authority if flags & _HAS_AUTHORITY else None,
        "spec": {
            "first_block": first_block,
            "num_blocks": num_blocks,
            "version_window": (lo, hi) if flags & _HAS_WINDOW else None,
            "live_only": bool(flags & _LIVE_ONLY),
            "lines": (frozenset(words[:num_lines])
                      if flags & _HAS_LINES else None),
            "inodes": (frozenset(words[num_lines:num_lines + num_inodes])
                       if flags & _HAS_INODES else None),
            "limit": limit if flags & _HAS_LIMIT else None,
            "resume_token": (str(body[words_end:], "utf-8")
                             if flags & _HAS_TOKEN else None),
        },
    }


#: Query page prefix: flags; resume-token size, stat-name bytes, stat count.
_PAGE_HEADER = struct.Struct("<BxxxIII")
_EXHAUSTED, _PAGE_HAS_TOKEN = 1, 2


def _encode_page(page: QueryPage) -> bytes:
    token, stats = page.resume_token, page.stats
    flags = ((_EXHAUSTED if page.exhausted else 0)
             | (_PAGE_HAS_TOKEN if token is not None else 0))
    token_bytes = token.encode("utf-8") if token is not None else b""
    names = "\0".join(stats).encode("utf-8")
    return b"".join((
        _PAGE_HEADER.pack(flags, len(token_bytes), len(names), len(stats)),
        token_bytes, names, _wire_bytes(array("q", stats.values())),
        pack_back_references(page.results)))


def _decode_page(kind: Opcode, body: memoryview) -> Dict[str, Any]:
    reader = _Reader(body)
    flags, token_size, names_size, num_stats = reader.unpack(_PAGE_HEADER)
    if flags > (_EXHAUSTED | _PAGE_HAS_TOKEN):
        raise ProtocolError(f"unknown query page flags {flags:#x}")
    token = reader.text(token_size)
    names = reader.text(names_size).split("\0") if num_stats else []
    if len(names) != num_stats:
        raise ProtocolError("query page stat names do not match the stat count")
    stats = dict(zip(names, reader.column("q", num_stats)))
    return {
        "results": unpack_back_references(body, reader.pos),
        "resume_token": token if flags & _PAGE_HAS_TOKEN else None,
        "exhausted": bool(flags & _EXHAUSTED),
        "stats": stats,
    }


_ENCODERS: Dict[int, Callable[[Any], bytes]] = {
    _JSON: _encode_json, _OPS: _encode_ops, _QUERY: _encode_query,
    _PAGE: _encode_page,
}
_DECODERS: Dict[int, Callable[[Opcode, memoryview], Dict[str, Any]]] = {
    _JSON: _decode_json, _OPS: _decode_ops, _QUERY: _decode_query,
    _PAGE: _decode_page,
}


def encode_frame(opcode: Opcode, payload: Any) -> bytes:
    """Serialise one message into its framed wire bytes.

    The opcode picks the body layout (see the module docstring); a
    :class:`QueryPage` payload is the packed reply to a query.  A payload
    that does not fit its opcode's layout -- a missing field, a value
    outside u64, something JSON cannot carry -- raises
    :class:`ProtocolError` here rather than a frame the peer would reject.
    """
    layout = (_PAGE if type(payload) is QueryPage
              else _REQUEST_LAYOUT.get(opcode, _JSON))
    try:
        body = _ENCODERS[layout](payload)
    except (KeyError, TypeError, ValueError, OverflowError, struct.error) as exc:
        raise ProtocolError(
            f"payload does not fit the {Opcode(opcode).name} frame: {exc!r}") from exc
    if len(body) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"payload too large: {len(body)} bytes")
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(opcode), layout, len(body)) + body


def decode_frame(data: bytes) -> Tuple[Opcode, Any]:
    """Parse framed wire bytes; raises :class:`ProtocolError` on bad input.

    Whatever the bytes are, the outcome is a well-typed payload or a
    :class:`ProtocolError` -- never another exception, and never code run
    on the sender's behalf.
    """
    if len(data) < _HEADER.size:
        raise ProtocolError(f"short frame: {len(data)} bytes")
    magic, version, opcode, layout, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic: {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version}, "
            f"this process speaks {PROTOCOL_VERSION}")
    if length > MAX_PAYLOAD_BYTES or len(data) - _HEADER.size != length:
        raise ProtocolError(
            f"frame length mismatch: header says {length}, "
            f"got {len(data) - _HEADER.size} payload bytes")
    try:
        kind = Opcode(opcode)
    except ValueError as exc:
        raise ProtocolError(f"unknown opcode {opcode}") from exc
    if layout != _REQUEST_LAYOUT.get(kind, _JSON) and not (
            layout == _PAGE and kind is Opcode.OK):
        raise ProtocolError(f"{kind.name} frames do not use body layout {layout}")
    try:
        return kind, _DECODERS[layout](kind, memoryview(data)[_HEADER.size:])
    except (ValueError, TypeError, RecursionError) as exc:
        raise ProtocolError(f"malformed {kind.name} frame body: {exc!r}") from exc


def raise_reply_error(payload: Any) -> None:
    """Re-raise a worker's ERROR reply as the matching local exception.

    ``OSError`` keeps its errno so the coordinator's two-phase checkpoint
    surfaces a worker's ENOSPC exactly like a local failed flush would;
    ``ValueError`` keeps spec/token validation errors as client errors.
    Everything else becomes :class:`WorkerError` (the kind is preserved for
    diagnostics) -- the coordinator must not fabricate arbitrary exception
    types from wire data.
    """
    kind = payload.get("kind", "RuntimeError")
    message = payload.get("message", "worker failure")
    if kind == "OSError":
        raise OSError(payload.get("errno") or 0, message)
    if kind == "ValueError":
        raise ValueError(message)
    raise WorkerError(kind, message)


class Channel:
    """One framed request/response conduit to a worker process.

    Wraps a duplex :class:`multiprocessing.connection.Connection`.  The
    lock serialises whole request/response exchanges, so any number of
    coordinator threads can share the channel without interleaving frames.
    """

    def __init__(self, connection) -> None:
        self._connection = connection
        self._lock = threading.Lock()

    def send(self, opcode: Opcode, payload: Any) -> None:
        self._connection.send_bytes(encode_frame(opcode, payload))

    def recv(self) -> Tuple[Opcode, Any]:
        return decode_frame(self._connection.recv_bytes())

    def request(self, opcode: Opcode, payload: Any) -> Any:
        """One locked request/response round trip.

        Returns the OK reply's payload; re-raises a relayed worker error.
        A closed or broken pipe surfaces as :class:`ChannelClosedError`
        for the coordinator's crash-detection path -- deliberately NOT a
        plain ``OSError``, which is reserved for relayed worker failures.
        """
        with self._lock:
            try:
                self.send(opcode, payload)
                reply, body = self.recv()
            except (EOFError, OSError) as exc:
                raise ChannelClosedError(str(exc) or "pipe closed") from exc
        if reply is Opcode.OK:
            return body
        if reply is Opcode.ERROR:
            raise_reply_error(body)
        raise ProtocolError(f"unexpected reply opcode {reply!r}")

    def close(self) -> None:
        self._connection.close()
