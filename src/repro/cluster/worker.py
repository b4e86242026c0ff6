"""The shard worker process: one Backlog slice behind a message loop.

Each worker owns the partitions the :class:`~repro.cluster.shard_map.
ShardMap` stripes onto it -- their write stores, Level-0 runs, compaction
and query pipelines -- as a completely ordinary
:class:`~repro.core.backlog.Backlog` over its own storage backend.  The
process boundary is what buys CPU parallelism: clone-chain expansion and
merge-joins for different partitions no longer share one interpreter lock.

Workers are *spawned*, not forked: the coordinator lives in a thread-heavy
parent (HTTP handler threads, executor pools), and forking a thread-heavy
process can clone held locks into the child.  Spawn re-imports this module
in a clean interpreter, so :func:`worker_main` and every argument it takes
must be picklable module-level state -- which they are: a pipe connection,
plain ints/strings, a frozen :class:`~repro.core.config.BacklogConfig` and
an optional frozen :class:`~repro.fsim.faults.FaultPlan`.  (That pickling is
``multiprocessing``'s own process bootstrap; no frame on the wire is
pickled -- see :mod:`repro.cluster.protocol`.)

Durability and crash recovery
-----------------------------

A disk-backed shard persists a tiny meta file (``shard-NN.meta.json``,
written via temp-file + ``os.replace``) after every successful checkpoint
*prepare* and every maintenance pass::

    {"cp": <last durably flushed CP>, "sequence": <max run sequence then>}

On restart, the recovery rule is: delete every **Level-0** run whose
sequence is greater than ``meta.sequence`` (the leftovers of a prepare
that never completed -- they were never acknowledged to the coordinator),
then open an ordinary :class:`~repro.core.backlog.Backlog` over whatever
remains; opening mounts the runs, skipping and removing invalid partial
files and honouring ``.retired`` tombstones.
Compaction outputs use the distinct ``compact`` level, so a crash mid-
maintenance never rolls back completed partitions: fully written compact
runs survive the L0-only pruning, and a partition's half-written output is
an invalid file the rebuild deletes (its inputs are still catalogued).
The coordinator then replays the update batches since the shard's last
durable CP -- exactly the journal-replay contract single-process recovery
has always had, with the coordinator's pending log standing in for the
file system journal.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, Optional, Sequence

from repro.core.backlog import Backlog
from repro.core.config import BacklogConfig
from repro.core.cursor import QuerySpec
from repro.core.lsm import parse_run_name
from repro.core.masking import VersionAuthority
from repro.fsim.blockdev import DiskBackend, MemoryBackend
from repro.fsim.faults import FaultPlan, FaultyBackend

from repro.cluster.protocol import Channel, Opcode, ProtocolError, QueryPage

__all__ = ["worker_main", "shard_directory", "shard_meta_path"]


def shard_directory(directory: str, shard: int) -> str:
    """The run directory of ``shard`` under a cluster's root directory."""
    return os.path.join(directory, f"shard-{shard:02d}")


def shard_meta_path(directory: str, shard: int) -> str:
    """The durable per-shard checkpoint meta file."""
    return os.path.join(directory, f"shard-{shard:02d}.meta.json")


class _SyncedAuthority(VersionAuthority):
    """The coordinator's view of valid versions, re-applied per request.

    Workers cannot consult the file system's snapshot manager directly (it
    lives in the coordinator process), so every masking-sensitive request
    (query, relocate, maintain) carries a ``{line: sorted versions}`` table
    computed by the coordinator's authority at send time.  ``None`` -- the
    whole table or a single line's entry -- means "all versions valid",
    mirroring :class:`~repro.core.masking.AllVersionsAuthority`.
    """

    def __init__(self) -> None:
        self._table: Optional[Dict[int, Optional[Sequence[int]]]] = None

    def apply(self, state: Optional[Dict[int, Optional[Sequence[int]]]]) -> None:
        # Applied in place, like mutating an ExplicitVersionAuthority in the
        # single-process case: already-built pipelines keep the masking they
        # were constructed with (parked-cursor invalidation is driven by the
        # SNAPSHOT_DELETED event, not by table refreshes -- same as the
        # in-process listener callbacks).
        self._table = state

    def valid_versions(self, line: int) -> Optional[Sequence[int]]:
        if self._table is None:
            return None
        return self._table.get(line)


def _max_run_sequence(backend) -> int:
    """Highest run sequence currently on the backend (0 when empty)."""
    highest = 0
    for name in backend.list_files():
        parsed = parse_run_name(name)
        if parsed is not None:
            highest = max(highest, parsed[3])
    return highest


class _ShardWorker:
    """Backlog slice + request dispatch for one worker process."""

    def __init__(self, shard: int, num_shards: int, directory: Optional[str],
                 config: BacklogConfig, fault_plan: Optional[FaultPlan],
                 time_scale: float = 0.0) -> None:
        self.shard = shard
        self.num_shards = num_shards
        self.directory = directory
        self.config = config
        self._plan = fault_plan
        self._time_scale = time_scale
        self.authority = _SyncedAuthority()
        self.faulty: Optional[FaultyBackend] = None
        self.meta: Dict[str, int] = {"cp": 0, "sequence": 0}
        self._meta_path: Optional[str] = None
        self._disk: Optional[DiskBackend] = None
        self.backlog = self._mount()

    # ------------------------------------------------------------- mounting

    def _mount(self) -> Backlog:
        if self.directory is None:
            backend: Any = MemoryBackend()
        else:
            self._disk = DiskBackend(shard_directory(self.directory, self.shard))
            self._meta_path = shard_meta_path(self.directory, self.shard)
            if os.path.exists(self._meta_path):
                with open(self._meta_path, "r", encoding="utf-8") as handle:
                    self.meta.update(json.load(handle))
            # The recovery rule: Level-0 runs past the last acknowledged
            # sequence are unacknowledged prepare leftovers -- drop them
            # before the mount ever sees them.  Compact-level outputs are
            # never pruned by sequence (see the module docstring).
            for name in list(self._disk.list_files()):
                parsed = parse_run_name(name)
                if (parsed is not None and parsed[2] == "L0"
                        and parsed[3] > self.meta["sequence"]):
                    self._disk.delete(name)
            backend = self._disk
        if self._plan is not None:
            backend = self.faulty = FaultyBackend(backend, self._plan)
            self.faulty.disarm()
        backlog = Backlog(backend=self._throttled(backend), config=self.config,
                          version_authority=self.authority)
        backlog.run_manager.reserve_through(self.meta["sequence"])
        if self.meta["cp"]:
            backlog.current_cp = self.meta["cp"] + 1
        return backlog

    def _throttled(self, backend):
        """Optionally wrap the mount in device-time modelling.

        ``time_scale > 0`` makes every page transfer cost (GIL-releasing)
        simulated device time inside this worker process -- the same
        :class:`ThrottledBackend` regime the flush/query benchmarks use, so
        shard-scaling measurements reflect device overlap on any host.  The
        wrapper sits outermost: fault injection and recovery still see the
        raw page stream.
        """
        if self._time_scale <= 0.0:
            return backend
        from repro.fsim.blockdev import ThrottledBackend
        return ThrottledBackend(backend, time_scale=self._time_scale)

    # ------------------------------------------------------------ durability

    def _persist_meta(self) -> None:
        if self._meta_path is None:
            return
        # Sequence is read off the real directory listing (not the faulty
        # wrapper): the meta records which runs are *acknowledged*, and the
        # listing is the ground truth for what the prepare just wrote.
        self.meta["sequence"] = _max_run_sequence(self._disk)
        tmp = self._meta_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.meta, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._meta_path)

    # ------------------------------------------------------------- handlers

    def handle(self, opcode: Opcode, payload: Any) -> Any:
        if opcode is Opcode.SYNC:
            return self._handle_sync(payload)
        if opcode is Opcode.UPDATE:
            return self._handle_update(payload)
        if opcode is Opcode.CHECKPOINT_PREPARE:
            return self._handle_prepare(payload)
        if opcode is Opcode.MAINTAIN:
            return self._handle_maintain(payload)
        if opcode in (Opcode.QUERY_OPEN, Opcode.QUERY_PAGE):
            return self._handle_query(payload)
        if opcode is Opcode.STATS:
            return self._handle_stats()
        if opcode is Opcode.RELOCATE:
            return self._handle_relocate(payload)
        if opcode is Opcode.CLONE:
            return self._handle_clone(payload)
        if opcode is Opcode.SNAPSHOT_DELETED:
            return self._handle_snapshot_deleted(payload)
        if opcode is Opcode.FAULT:
            return self._handle_fault(payload)
        if opcode is Opcode.SHUTDOWN:
            self.backlog.close()
            return {"shard": self.shard}
        raise ValueError(f"worker cannot handle opcode {opcode!r}")

    def _handle_sync(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        # Only what the mount cannot rebuild from the shard's own runs.  The
        # authority table and the CP need no resync: every masking request
        # carries its table, and every update op its CP.
        for line, parent, version in payload["clones"]:
            try:
                self.backlog.clone_graph.add_clone(line, parent, version)
            except ValueError:
                pass  # already registered (SYNC is idempotent by design)
        for block, inode, offset, line in payload["suppressed"]:
            self.backlog.deletion_vector.suppress(block, inode, offset, line)
        return {"shard": self.shard}

    def _handle_update(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        for kind, block, inode, offset, line, cp in payload["ops"]:
            if kind == "add":
                self.backlog.add_reference(block, inode, offset, line, cp=cp)
            elif kind == "remove":
                self.backlog.remove_reference(block, inode, offset, line, cp=cp)
            else:
                raise ValueError(f"unknown update kind {kind!r}")
        return {"pending": self.backlog.pending_updates()}

    def _handle_prepare(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        cp = payload["cp"]
        self.authority.apply(payload.get("authority"))
        # May raise OSError (ENOSPC, exhausted retries): the flush is atomic
        # -- nothing registered, write stores intact -- and the error reply
        # carries the errno back to the coordinator's two-phase logic.
        self.backlog.on_consistency_point(cp)
        self.meta["cp"] = cp
        self._persist_meta()
        last = self.backlog.stats.checkpoints[-1]
        return {"cp": cp, "stats": dataclasses.asdict(last)}

    def _handle_maintain(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.authority.apply(payload.get("authority"))
        result = self.backlog.maintain()
        self._persist_meta()
        return {
            "stats": dataclasses.asdict(result),
            "deletion_vector": len(self.backlog.deletion_vector),
        }

    def _handle_query(self, payload: Dict[str, Any]) -> QueryPage:
        self.authority.apply(payload.get("authority"))
        fields = dict(payload["spec"])
        spec = QuerySpec(**fields)
        query_stats = self.backlog.stats.query
        before = query_stats.snapshot_counters()
        cursor = self.backlog.select(spec)
        # Drain raw owner tuples: the packed page frame ships them as flat
        # columnar arrays, so no BackReference is ever built on the worker
        # -- the coordinator's decode materialises.
        results = cursor.all_rows()
        after = query_stats.snapshot_counters()
        return QueryPage(
            results=results,
            resume_token=cursor.resume_token,
            exhausted=cursor.exhausted,
            stats={name: after[name] - before[name] for name in after},
        )

    def _handle_stats(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "pid": os.getpid(),
            "pending_updates": self.backlog.pending_updates(),
            "prepared_cp": self.meta["cp"],
            "service": self.backlog.service_stats(),
        }

    def _handle_relocate(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.authority.apply(payload.get("authority"))
        vector = self.backlog.deletion_vector
        before = set(vector.keys())
        suppressed = self.backlog.relocate_block(
            payload["block"], payload.get("new_block"))
        added = [key for key in vector.keys() if key not in before]
        return {"suppressed": suppressed, "keys": added}

    def _handle_clone(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.backlog.on_clone_created(
            payload["line"], payload["parent_line"],
            payload["parent_version"], payload["cp"])
        return {}

    def _handle_snapshot_deleted(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.backlog.on_snapshot_deleted(
            payload["line"], payload["version"],
            payload["is_zombie"], payload["cp"])
        return {}

    def _handle_fault(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        action = payload["action"]
        if action == "exit":
            # Simulated crash for the recovery tests: no reply, no cleanup,
            # no atexit -- the pipe breaks and the coordinator's crash
            # detection takes over.
            os._exit(17)
        if self.faulty is None:
            raise ValueError("shard has no fault plan installed")
        if action == "arm":
            self.faulty.arm()
        elif action == "disarm":
            self.faulty.disarm()
        elif action == "free_space":
            self.faulty.free_space(payload.get("pages"))
        else:
            raise ValueError(f"unknown fault action {action!r}")
        return {"armed": self.faulty.armed}


def _error_reply(exc: Exception) -> Dict[str, Any]:
    """An ERROR frame's payload (see ``protocol.raise_reply_error``)."""
    return {"kind": type(exc).__name__, "message": str(exc),
            "errno": getattr(exc, "errno", None)}


def worker_main(connection, shard: int, num_shards: int,
                directory: Optional[str], config: BacklogConfig,
                fault_plan: Optional[FaultPlan] = None,
                time_scale: float = 0.0) -> None:
    """Entry point of a spawned shard worker process.

    Mounts (or recovers) the shard's Backlog, announces itself with one
    unsolicited OK frame carrying its recovered state, then serves framed
    requests until SHUTDOWN, a broken pipe (coordinator death), or an
    injected crash.  Request handling is strictly serial -- parallelism
    inside a shard still comes from the Backlog's own worker pools, and
    parallelism across shards comes from there being N of these processes.
    """
    channel = Channel(connection)
    try:
        worker = _ShardWorker(shard, num_shards, directory, config, fault_plan,
                              time_scale)
    except Exception as exc:  # pragma: no cover - mount failures are fatal
        channel.send(Opcode.ERROR, _error_reply(exc))
        return
    channel.send(Opcode.OK, {
        "shard": shard,
        "pid": os.getpid(),
        "cp": worker.meta["cp"],
        "recovered_runs": worker.backlog.run_manager.run_count(),
    })
    while True:
        try:
            opcode, payload = channel.recv()
        except (EOFError, OSError):
            break
        except ProtocolError as exc:
            # The frame arrived whole but does not decode: refuse it and
            # stay in step (one frame in, one reply out).
            channel.send(Opcode.ERROR, _error_reply(exc))
            continue
        try:
            reply = worker.handle(opcode, payload)
        except Exception as exc:
            channel.send(Opcode.ERROR, _error_reply(exc))
            continue
        channel.send(Opcode.OK, reply)
        if opcode is Opcode.SHUTDOWN:
            break
