"""A threaded HTTP query service over one :class:`~repro.core.backlog.Backlog`.

The paper's interactivity claim is only interesting if queries are served
*while the file system keeps writing*; this module is the served-system
posture of that claim.  :class:`QueryService` runs a
:class:`~http.server.ThreadingHTTPServer` (stdlib only -- one handler thread
per connection) against a single shared Backlog:

* ``POST /query`` takes a JSON body covering the full
  :class:`~repro.core.cursor.QuerySpec` surface -- block range, version
  window, line/inode filters, live-only, limit -- plus an optional
  ``resume_token``, and answers with the page of owners and the next token.
  The request is untrusted and fails closed: a non-numeric or negative
  ``Content-Length`` is a ``400`` and a body over :data:`MAX_BODY_BYTES` a
  ``413``, both before a byte of the body is read and both closing the
  connection; malformed JSON, unknown fields, wrongly typed values and
  stale or garbage resume tokens are a ``400`` with a clear message.  A
  failure *behind* an accepted request (a relayed worker error, a dead
  shard, a storage error) is a JSON ``500`` on a connection that stays
  usable -- never a traceback and a dropped socket.
* ``GET /health`` and ``GET /stats`` expose liveness and the engine's
  counters (queries, pages read, pinned snapshots, quarantined/deferred
  bytes) next to the service's own request counters.

A served query is meant to cost what the engine costs plus a small
constant, so every response -- whatever its status -- leaves as **one**
``sendall`` of status line, headers and body, on a ``TCP_NODELAY`` socket.
Sent as two segments (headers, then body), the second waits under Nagle
for the ACK of the first while the client sits on that ACK for its 40 ms
delayed-ACK timer: every keep-alive round trip, ``GET /health`` included,
then takes 44 ms against 0.1 ms in the engine.

Safety comes from the layer below, not from locking here: every request
pins a :class:`~repro.core.catalogue.CatalogueSnapshot` for the duration of
its page, so checkpoint/maintenance in the host (or a churn thread) never
deletes a run file under an in-flight session.  The handlers add no
serialisation of their own -- N sessions genuinely read in parallel.

Shutdown is a graceful drain: :meth:`QueryService.stop` stops accepting new
connections, then joins every in-flight handler thread
(``block_on_close``), so a session that already sent its request always
receives its page.
"""

from __future__ import annotations

import json
import threading
import time
from operator import itemgetter
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.core.backlog import Backlog
from repro.core.cursor import QuerySpec
from repro.core.records import INFINITY

__all__ = ["QueryService"]

#: The JSON fields ``POST /query`` accepts; anything else is a 400 so client
#: typos fail loudly instead of silently querying without their filter.
_SPEC_FIELDS = frozenset({
    "first_block", "num_blocks", "version_window", "at_version", "live_only",
    "lines", "inodes", "limit", "resume_token",
})

#: Largest ``POST /query`` body read off the socket; a longer one is a 413
#: before a byte of it is read.  (A spec with thousands of filter entries
#: is a few tens of KiB.)
MAX_BODY_BYTES = 1 << 20

#: Most partitions one request's block range may span.  The engine lists a
#: range's partitions and a cluster sends each a sub-query, so an unbounded
#: ``num_blocks`` is memory and round trips a client can demand at will;
#: 4096 partitions of the default size are a 16 TiB device of 4 KiB blocks.
MAX_QUERY_PARTITIONS = 1 << 12

_RANGE_STOP = itemgetter(1)

#: Every integer of a spec is a u64 on disk and on the cluster wire.
_U64_MAX = (1 << 64) - 1


def _u64(name: str, value: Any) -> int:
    """``value`` if it is a JSON integer a u64 field can hold; else ValueError."""
    if type(value) is not int or not 0 <= value <= _U64_MAX:
        raise ValueError(f"{name} must be an integer in [0, 2**64)")
    return value


def _u64_set(name: str, values: Any) -> Optional[frozenset]:
    if values is None:
        return None
    if type(values) is not list:
        raise ValueError(f"{name} must be a list of integers")
    return frozenset(_u64(f"{name} entries", value) for value in values) or None


def _build_spec(payload: Dict[str, Any]) -> QuerySpec:
    """A validated QuerySpec from a request body; ValueError on bad input.

    Every field is type-checked here, at the trust boundary: JSON happily
    produces ``1e3``, ``true``, nested lists or a 30-digit integer where a
    block number belongs, and none of those may travel further in.
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    unknown = set(payload) - _SPEC_FIELDS
    if unknown:
        raise ValueError(f"unknown query field(s): {', '.join(sorted(unknown))}")
    at_version = payload.get("at_version")
    window = payload.get("version_window")
    if at_version is not None and window is not None:
        raise ValueError("pass either at_version or version_window, not both")
    if at_version is not None:
        window = [at_version, _u64("at_version", at_version) + 1]
    elif window is not None and (type(window) is not list or len(window) != 2):
        raise ValueError("version_window must be a [lo, hi) pair")
    if window is not None:
        window = (_u64("version bounds", window[0]),
                  _u64("version bounds", window[1]))
    first_block = _u64("first_block", payload.get("first_block", 0))
    num_blocks = _u64("num_blocks", payload.get("num_blocks", 1))
    if first_block + num_blocks > _U64_MAX + 1:
        raise ValueError("the block range must end within [0, 2**64)")
    limit = payload.get("limit")
    token = payload.get("resume_token")
    if token is not None and type(token) is not str:
        raise ValueError("resume_token must be a string")
    live_only = payload.get("live_only", False)
    if type(live_only) is not bool:
        raise ValueError("live_only must be true or false")
    return QuerySpec(
        first_block=first_block,
        num_blocks=num_blocks,
        version_window=window,
        live_only=live_only,
        lines=_u64_set("lines", payload.get("lines")),
        inodes=_u64_set("inodes", payload.get("inodes")),
        limit=None if limit is None else _u64("limit", limit),
        resume_token=token,
    )


def _json_body(payload: Any) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _refusal(status: int, message: str,
             close: bool = False) -> Tuple[str, int, bytes, bool]:
    """A rejected request as ``_answer_query`` reports it."""
    return "rejected", status, _json_body({"error": message}), close


class _QueryHTTPServer(ThreadingHTTPServer):
    """One handler thread per connection; joined -- not abandoned -- on close.

    ``daemon_threads = False`` + ``block_on_close = True`` is the graceful
    drain: ``server_close`` blocks until every in-flight handler thread has
    finished writing its response.
    """

    daemon_threads = False
    block_on_close = True
    # Accept queued connections promptly under concurrent session bursts.
    request_queue_size = 32

    def __init__(self, address: Tuple[str, int], handler, service: "QueryService"):
        self.service = service
        #: ``(unix second, Date header value)``: the header is formatted
        #: once per second, not once per response.
        self.date = (0, b"")
        super().__init__(address, handler)


class _Handler(BaseHTTPRequestHandler):
    server_version = "backlog-query-service/1.0"
    # Keep-alive: a paginating session reuses one connection for all its
    # pages (requires exact Content-Length on every response, which _send
    # guarantees).
    protocol_version = "HTTP/1.1"
    # A response is one segment (see _send); TCP_NODELAY on top of it
    # means a body larger than the send buffer cannot park its tail behind
    # the peer's delayed ACK either.
    disable_nagle_algorithm = True

    # ----------------------------------------------------------- plumbing

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.service.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, close: bool = False) -> None:
        """The whole response -- status line, headers, body -- in one send.

        Two sends (headers, then body) is what made every keep-alive round
        trip cost the kernel's 40 ms delayed-ACK timer: the second small
        segment waits under Nagle for the ACK of the first, and the client
        withholds that ACK waiting for data to piggyback it on.  ``close``
        announces and then closes the connection: for responses sent with
        request bytes still unread.
        """
        now = int(time.time())
        server = self.server
        if server.date[0] != now:
            server.date = (now, formatdate(now, usegmt=True).encode("latin-1"))
        if close:
            self.close_connection = True
        head = (b"HTTP/1.1 %d %s\r\nServer: %s\r\nDate: %s\r\n"
                b"Content-Type: application/json\r\nContent-Length: %d\r\n%s\r\n"
                % (status, HTTPStatus(status).phrase.encode("latin-1"),
                   self.version_string().encode("latin-1"), server.date[1],
                   len(body), b"Connection: close\r\n" if close else b""))
        if not server.service.quiet:  # pragma: no cover - debug aid
            self.log_request(status, len(body))
        self.wfile.write(head + body)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """The stdlib's own rejections (bad request line, unsupported
        method, oversized headers) leave through the same single send."""
        error = message or HTTPStatus(code).phrase
        self._send(code, _json_body({"error": error}), close=True)

    # ----------------------------------------------------------- endpoints

    def _failure(self, error: Exception) -> bytes:
        """The JSON 500 body for an error behind the serving boundary.

        A shard that died for good, a relayed worker failure, a storage
        error: the session gets an answer and keeps its connection; the
        handler thread must not die with a traceback.
        """
        self.log_error("%s failed: %r", self.requestline, error)
        return _json_body({"error": f"{type(error).__name__}: {error}"})

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        service = self.server.service
        status = 200
        try:
            if self.path == "/health":
                payload = {
                    "status": "draining" if service.draining else "ok",
                    "pinned_snapshots": service.backlog.pinned_snapshots(),
                }
            elif self.path == "/stats":
                payload = service.stats()
            else:
                status, payload = 404, {"error": f"unknown path {self.path!r}"}
            body = _json_body(payload)
        except Exception as error:  # noqa: BLE001 - the serving boundary
            status, body = 500, self._failure(error)
        self._send(status, body)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        if self.path != "/query":
            # Closed, because whatever body the request carries stays unread.
            self._send(404, _json_body({"error": f"unknown path {self.path!r}"}),
                       close=True)
            return
        service = self.server.service
        service._begin_request()
        try:
            outcome, status, body, close = self._answer_query(service)
            # Counted before the send, so a client holding its reply always
            # finds the request in /stats.
            service._count_request(outcome)
            self._send(status, body, close)
        finally:
            service._end_request()

    def _answer_query(self, service: "QueryService") -> Tuple[str, int, bytes, bool]:
        """One ``POST /query`` as ``(outcome, status, body, close)``."""
        # Fail closed on the length before reading: a negative length would
        # park this thread in read() until the peer hangs up, and an
        # unbounded one lets a client make the server buffer anything.  The
        # unread body makes the connection unusable, so it is closed.
        declared = self.headers.get("Content-Length", "0")
        if not (declared.isascii() and declared.isdigit()):
            return _refusal(400, "Content-Length must be a non-negative integer",
                            close=True)
        length = int(declared)
        if length > MAX_BODY_BYTES:
            return _refusal(413, f"request body over {MAX_BODY_BYTES} bytes",
                            close=True)
        try:
            raw = self.rfile.read(length) if length else b"{}"
            try:
                payload = json.loads(raw.decode("utf-8") or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"invalid JSON body: {exc}") from exc
            spec = _build_spec(payload)
            partition_blocks = service.backlog.config.partition_size_blocks
            if spec.num_blocks // partition_blocks > MAX_QUERY_PARTITIONS:
                raise ValueError(
                    f"num_blocks spans more than {MAX_QUERY_PARTITIONS} partitions "
                    f"of {partition_blocks} blocks; scan it in narrower ranges")
        except ValueError as error:
            return _refusal(400, str(error))
        # The cursor below pins its own catalogue snapshot; no service-
        # level lock is taken, so sessions stream truly concurrently
        # with each other and with the host's checkpoint/maintenance.
        try:
            result = service.backlog.select(spec)
            owners = result.all()
            body = _json_body({
                "results": [{
                    "block": block, "inode": inode, "offset": offset,
                    "line": line, "live": INFINITY in map(_RANGE_STOP, ranges),
                    "ranges": ranges,
                } for block, inode, offset, line, ranges in owners],
                "count": len(owners),
                "resume_token": result.resume_token,
                "exhausted": result.exhausted,
            })
        except Exception as error:  # noqa: BLE001 - the serving boundary
            return "failed", 500, self._failure(error), False
        return "served", 200, body, False


class QueryService:
    """Serve concurrent query sessions over one shared Backlog.

    >>> from repro import Backlog
    >>> backlog = Backlog()
    >>> backlog.add_reference(block=7, inode=3, offset=0)
    >>> _ = backlog.checkpoint()
    >>> service = QueryService(backlog)          # port=0: ephemeral port
    >>> with service:                            # start() .. stop() (drain)
    ...     import http.client, json
    ...     conn = http.client.HTTPConnection(*service.address)
    ...     conn.request("POST", "/query", json.dumps({"first_block": 7}),
    ...                  {"Content-Type": "application/json"})
    ...     page = json.loads(conn.getresponse().read())
    ...     conn.close()
    >>> [owner["inode"] for owner in page["results"]]
    [3]
    """

    def __init__(self, backlog: Backlog, host: str = "127.0.0.1",
                 port: int = 0, quiet: bool = True) -> None:
        self.backlog = backlog
        self.quiet = quiet
        self.draining = False
        #: ``POST /query`` outcomes: answered (200), refused as malformed
        #: (400/413), and accepted but not answerable (500).  Handler threads
        #: move these, and ``_inflight``, only under ``_inflight_lock``.
        self.requests_served = 0
        self.requests_rejected = 0
        self.requests_failed = 0
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._server = _QueryHTTPServer((host, port), _Handler, self)
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------ lifecycle

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` -- with ``port=0``, the assigned port."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "QueryService":
        """Start accepting sessions (returns self for chaining)."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="backlog-query-service",
                                        kwargs={"poll_interval": 0.05})
        self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight pages, close.

        Idempotent.  After this returns, every session that had sent its
        request has received its full response and every handler thread has
        been joined.
        """
        if self._thread is None:
            return
        self.draining = True
        self._server.shutdown()
        # block_on_close joins the per-connection handler threads.
        self._server.server_close()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # ----------------------------------------------------------- telemetry

    def _begin_request(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def _end_request(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    def _count_request(self, outcome: str) -> None:
        """Count one ``POST /query`` as served / rejected / failed."""
        counter = f"requests_{outcome}"
        with self._inflight_lock:
            setattr(self, counter, getattr(self, counter) + 1)

    @property
    def inflight(self) -> int:
        """Requests currently being answered (0 after a clean drain)."""
        with self._inflight_lock:
            return self._inflight

    def stats(self) -> Dict[str, Any]:
        """The service's and the underlying engine's counters, JSON-ready.

        Engine counters come from ``backlog.service_stats()`` -- which both
        :class:`~repro.core.backlog.Backlog` and
        :class:`repro.cluster.ShardedBacklog` implement -- so the endpoint
        surfaces the flush/maintenance/query pool timings
        (:class:`~repro.core.stats.ExecutorStats`) and, when a cluster is
        being served, a per-shard breakdown under ``"shards"``.
        """
        with self._inflight_lock:
            payload = {
                "requests_served": self.requests_served,
                "requests_rejected": self.requests_rejected,
                "requests_failed": self.requests_failed,
                "inflight": self._inflight,
                "draining": self.draining,
            }
        payload.update(self.backlog.service_stats())
        return payload
