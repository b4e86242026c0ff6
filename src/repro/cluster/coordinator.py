"""The cluster coordinator: a Backlog-shaped facade over N worker processes.

:class:`ShardedBacklog` is the process-cluster counterpart of
:class:`~repro.core.backlog.Backlog`: it accepts the same update, clone,
snapshot, checkpoint, maintenance, relocation and query calls (and the same
:class:`~repro.fsim.filesystem.ReferenceListener` callbacks, so a
:class:`~repro.fsim.FileSystem` can drive a cluster exactly like a single
instance), but owns no records itself -- every partition's data lives in
the worker process the :class:`~repro.cluster.shard_map.ShardMap` assigns
it to, and the coordinator's job is routing, fan-out and merge.

Determinism is inherited, not re-proven: the coordinator decomposes every
operation into per-partition pieces *before* anything crosses a process
boundary, and the decomposition depends only on the partitioner -- never on
the shard count.  An update batch routes each op by its block's partition;
a query becomes the identical sequence of per-partition sub-queries whether
one worker answers them all or three workers answer a third each.  That is
the whole equivalence argument, and ``tests/test_parallel_equivalence.py``
enforces its observable consequences: answers, resume-token page
boundaries and folded ``QueryStats.pages_read`` are identical at shards
1 and 3, and identical to a single in-process Backlog.

Two-phase checkpoints
---------------------

``checkpoint()`` drains the per-shard update buffers, then runs **prepare**
on every shard (each flushes its write stores -- atomically, PR 6 contract
-- and persists its shard meta), and only when *every* shard acknowledged
does the coordinator durably publish the global CP (``cluster.meta.json``)
and broadcast **commit**.  A shard that fails prepare (ENOSPC, torn write,
crash) fails the whole checkpoint with every surviving shard's write
stores intact and the coordinator's pending update log untouched, so the
caller retries the checkpoint exactly like a failed single-process CP; a
shard that *died* is respawned, recovered from its own meta via
:func:`~repro.core.recovery.recover_backlog`, re-synced (clone graph,
suppressions, zombies) and replayed the pending updates it lost.  No
partial CP is ever visible: the published global CP only moves after all
shards are durable, and un-checkpointed updates are always queryable from
exactly one place (a worker's write stores, or the replay log of a worker
being revived).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.config import BacklogConfig
from repro.core.cursor import QueryResult, QuerySpec, encode_resume_token
from repro.core.masking import VersionAuthority
from repro.core.records import BackReference
from repro.core.stats import BacklogStats, CheckpointStats, MaintenanceStats
from repro.fsim.faults import FaultPlan
from repro.fsim.filesystem import ReferenceListener

from repro.cluster.protocol import Channel, ChannelClosedError, Opcode
from repro.cluster.shard_map import ShardMap
from repro.cluster.worker import worker_main

__all__ = [
    "ClusterError",
    "ClusterCheckpointError",
    "ShardedBacklog",
]


class ClusterError(RuntimeError):
    """A cluster-level failure (dead unrecoverable worker, closed cluster)."""


class ClusterCheckpointError(ClusterError):
    """A two-phase checkpoint failed in prepare; no global CP was published.

    The cluster is still consistent: prepared shards flushed durably,
    failed shards kept their write stores (or were revived and replayed),
    and every buffered update remains queryable.  Retrying ``checkpoint()``
    after clearing the fault re-prepares the same CP.
    """


class _Worker:
    """Coordinator-side handle of one spawned shard process."""

    def __init__(self, index: int, process, channel: Channel,
                 hello: Dict[str, Any]) -> None:
        self.index = index
        self.process = process
        self.channel = channel
        self.pid: int = hello["pid"]
        self.prepared_cp: int = hello["cp"]


def _cluster_meta_path(directory: str) -> str:
    return os.path.join(directory, "cluster.meta.json")


class ShardedBacklog(ReferenceListener):
    """Shard the device block range across N worker processes.

    Parameters
    ----------
    num_shards:
        Worker process count; defaults to
        :attr:`~repro.core.config.BacklogConfig.cluster_shards` (which
        honours ``REPRO_CLUSTER_SHARDS``).
    config:
        The :class:`~repro.core.config.BacklogConfig` every worker builds
        its Backlog slice from (the partition size also parameterises the
        shard map).
    directory:
        Root directory for durable shards: each worker stores its runs
        under ``<directory>/shard-NN`` plus a recovery meta file, and the
        coordinator publishes the global CP to ``cluster.meta.json``.
        ``None`` (default) gives memory-backed workers -- fast, but a dead
        worker is unrecoverable then.
    version_source:
        The coordinator-side :class:`~repro.core.masking.VersionAuthority`
        (the file system's snapshot manager, or an explicit table).  Its
        view is serialised into every masking-sensitive request, so workers
        mask with the same versions a single-process query would have.
    fault_plans:
        Test hook: ``{shard_index: FaultPlan}`` wraps that worker's backend
        in a :class:`~repro.fsim.faults.FaultyBackend` (spawned disarmed;
        drive it with :meth:`debug_fault`).
    update_batch_size:
        Buffered ops per shard before the coordinator pushes an UPDATE
        batch ahead of the next checkpoint.
    query_page_records:
        Internal page size of the scatter-gather cursor: the per-partition
        sub-query limit used to bound a single reply frame.
    time_scale:
        When positive, every worker wraps its backend in a
        :class:`~repro.fsim.blockdev.ThrottledBackend` with this scale:
        page transfers cost (GIL-releasing) simulated device time inside
        the worker processes.  Benchmark hook -- it makes cross-shard
        overlap measurable regardless of the host's core count.
    """

    def __init__(
        self,
        num_shards: Optional[int] = None,
        config: Optional[BacklogConfig] = None,
        directory: Optional[str] = None,
        version_source: Optional[VersionAuthority] = None,
        fault_plans: Optional[Dict[int, FaultPlan]] = None,
        update_batch_size: int = 256,
        query_page_records: int = 512,
        time_scale: float = 0.0,
    ) -> None:
        self.config = config or BacklogConfig()
        self.num_shards = num_shards if num_shards is not None else self.config.cluster_shards
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.shard_map = ShardMap(self.num_shards, self.config.partition_size_blocks)
        self.directory = directory
        self.version_source = version_source
        self.stats = BacklogStats()
        self.current_cp = 1
        self.committed_cp = 0
        self._update_batch_size = update_batch_size
        self._query_page_records = query_page_records
        self._fault_plans = dict(fault_plans or {})
        self._time_scale = time_scale
        self._lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._closed = False
        self._ops_this_cp = 0
        #: Per-shard update log since that shard's last *acknowledged*
        #: prepare: the cluster's replay journal.  ``_sent[i]`` marks the
        #: prefix already pushed to the live worker incarnation.
        self._pending: List[List[Tuple]] = [[] for _ in range(self.num_shards)]
        self._sent: List[int] = [0] * self.num_shards
        #: Retained cluster-wide state re-installed into revived workers.
        self._clones: List[Tuple[int, int, int]] = []
        self._zombies: Set[Tuple[int, int]] = set()
        self._suppressed: List[Set[Tuple[int, int, int, int]]] = [
            set() for _ in range(self.num_shards)]
        self._known_lines: Set[int] = {0}
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            meta_path = _cluster_meta_path(directory)
            if os.path.exists(meta_path):
                with open(meta_path, "r", encoding="utf-8") as handle:
                    self.committed_cp = json.load(handle)["cp"]
                self.current_cp = self.committed_cp + 1
        self._context = multiprocessing.get_context("spawn")
        self._workers: List[_Worker] = [
            self._spawn(index) for index in range(self.num_shards)]
        for worker in self._workers:
            self._sync(worker)

    # ----------------------------------------------------------- lifecycle

    def _spawn(self, index: int) -> _Worker:
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=worker_main,
            args=(child_end, index, self.num_shards, self.directory,
                  self.config, self._fault_plans.get(index),
                  self._time_scale),
            name=f"backlog-shard-{index:02d}",
            daemon=True,
        )
        process.start()
        child_end.close()
        channel = Channel(parent_end)
        opcode, hello = channel.recv()
        if opcode is not Opcode.OK:
            raise ClusterError(
                f"shard {index} failed to start: {hello.get('kind')}: "
                f"{hello.get('message')}")
        return _Worker(index, process, channel, hello)

    def _sync(self, worker: _Worker) -> None:
        """(Re)install coordinator-retained state into a worker."""
        worker.channel.request(Opcode.SYNC, {
            "clones": list(self._clones),
            "suppressed": sorted(self._suppressed[worker.index]),
            "zombies": sorted(self._zombies),
            "authority": self._authority_state(),
            "current_cp": self.current_cp,
        })

    def _revive(self, index: int) -> _Worker:
        """Respawn a dead worker and recover it to the cluster's state.

        Directory-backed shards recover their durable runs through the
        worker's own meta-driven ``recover_backlog`` mount, then receive a
        SYNC plus a replay of every pending update the dead incarnation's
        write stores lost.  Memory-backed shards have nothing to recover
        from -- their death is unrecoverable data loss, reported loudly.
        """
        dead = self._workers[index]
        try:
            dead.channel.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        if dead.process.is_alive():
            dead.process.terminate()
        dead.process.join(timeout=5)
        if self.directory is None:
            self._closed = True
            raise ClusterError(
                f"shard {index} worker died; memory-backed shards cannot "
                f"recover (give the cluster a directory)")
        worker = self._spawn(index)
        self._workers[index] = worker
        self._sync(worker)
        if worker.prepared_cp >= self.current_cp:
            # The dead incarnation durably flushed the in-flight CP before
            # the reply was lost: its pending log is already on disk.
            self._pending[index].clear()
        self._sent[index] = 0
        self._push_updates(index)
        return worker

    def close(self) -> None:
        """Shut down every worker (drain its loop, join the process)."""
        with self._lock:
            if self._closed and not any(w.process.is_alive() for w in self._workers):
                return
            self._closed = True
            for worker in self._workers:
                try:
                    worker.channel.request(Opcode.SHUTDOWN, {})
                except (ChannelClosedError, ClusterError):
                    pass
                try:
                    worker.channel.close()
                except OSError:  # pragma: no cover
                    pass
                worker.process.join(timeout=5)
                if worker.process.is_alive():  # pragma: no cover - stuck worker
                    worker.process.terminate()
                    worker.process.join(timeout=5)

    def __enter__(self) -> "ShardedBacklog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def worker_pids(self) -> List[int]:
        """Live worker process ids, shard order (smoke tests kill by pid)."""
        return [worker.pid for worker in self._workers]

    # ------------------------------------------------------------ plumbing

    def _ensure_open(self) -> None:
        if self._closed:
            raise ClusterError("cluster is closed")

    def _authority_state(self) -> Optional[Dict[int, Optional[List[int]]]]:
        if self.version_source is None:
            return None
        state: Dict[int, Optional[List[int]]] = {}
        for line in self._known_lines:
            versions = self.version_source.valid_versions(line)
            state[line] = None if versions is None else list(versions)
        return state

    def _call(self, index: int, opcode: Opcode, payload: Any,
              retry: bool = True) -> Any:
        """One RPC with transparent dead-worker recovery.

        A broken pipe (the worker crashed or was killed) triggers a revive
        -- respawn, recover, re-sync, replay -- and, for idempotent
        requests, a single retry against the new incarnation.  Worker-side
        *errors* (an ENOSPC flush, a bad spec) are not transport failures
        and propagate to the caller unchanged.
        """
        worker = self._workers[index]
        try:
            return worker.channel.request(opcode, payload)
        except ChannelClosedError:
            with self._lock:
                if self._workers[index] is worker:
                    self._revive(index)
            if retry:
                return self._call(index, opcode, payload, retry=False)
            raise

    def _push_updates(self, index: int) -> None:
        """Send the unsent suffix of a shard's pending update log."""
        pending = self._pending[index]
        if self._sent[index] >= len(pending):
            return
        batch = pending[self._sent[index]:]
        self._call(index, Opcode.UPDATE, {"ops": batch}, retry=False)
        self._sent[index] = len(pending)

    def _drain(self, index: int) -> None:
        with self._lock:
            try:
                self._push_updates(index)
            except ChannelClosedError:
                self._revive(index)
                self._push_updates(index)

    # ------------------------------------------------- ReferenceListener API

    def on_reference_added(self, block: int, inode: int, offset: int,
                           line: int, cp: int) -> None:
        self._buffer_update("add", block, inode, offset, line, cp)

    def on_reference_removed(self, block: int, inode: int, offset: int,
                             line: int, cp: int) -> None:
        self._buffer_update("remove", block, inode, offset, line, cp)

    def _buffer_update(self, kind: str, block: int, inode: int, offset: int,
                       line: int, cp: int) -> None:
        with self._lock:
            self._ensure_open()
            index = self.shard_map.shard_of_block(block)
            self._pending[index].append((kind, block, inode, offset, line, cp))
            self._known_lines.add(line)
            self._ops_this_cp += 1
            if kind == "add":
                self.stats.references_added += 1
            else:
                self.stats.references_removed += 1
            if len(self._pending[index]) - self._sent[index] >= self._update_batch_size:
                self._drain(index)

    def on_clone_created(self, new_line: int, parent_line: int,
                         parent_version: int, cp: int) -> None:
        with self._lock:
            self._ensure_open()
            self._clones.append((new_line, parent_line, parent_version))
            self._known_lines.add(new_line)
            for index in range(self.num_shards):
                try:
                    self._call(index, Opcode.CLONE, {
                        "line": new_line, "parent_line": parent_line,
                        "parent_version": parent_version, "cp": cp})
                except ChannelClosedError:  # pragma: no cover - revive resyncs
                    pass

    def on_snapshot_deleted(self, line: int, version: int, is_zombie: bool,
                            cp: int) -> None:
        with self._lock:
            self._ensure_open()
            if is_zombie:
                self._zombies.add((line, version))
            else:
                self._zombies.discard((line, version))
            for index in range(self.num_shards):
                try:
                    self._call(index, Opcode.SNAPSHOT_DELETED, {
                        "line": line, "version": version,
                        "is_zombie": is_zombie, "cp": cp})
                except ChannelClosedError:  # pragma: no cover - revive resyncs
                    pass

    def on_consistency_point(self, cp: int) -> None:
        self._checkpoint_at(cp)

    # --------------------------------------------------------- standalone API

    def add_reference(self, block: int, inode: int, offset: int, line: int = 0,
                      cp: Optional[int] = None) -> None:
        self.on_reference_added(block, inode, offset, line,
                                cp if cp is not None else self.current_cp)

    def remove_reference(self, block: int, inode: int, offset: int,
                         line: int = 0, cp: Optional[int] = None) -> None:
        self.on_reference_removed(block, inode, offset, line,
                                  cp if cp is not None else self.current_cp)

    def set_version_authority(self, authority: VersionAuthority) -> None:
        """Install the coordinator-side version authority (Backlog parity).

        Workers never see this object directly -- the coordinator serialises
        its view into every masking-sensitive request -- so swapping it here
        takes effect on the next query/maintain/checkpoint, exactly like
        mutating a single-process Backlog's authority.
        """
        self.version_source = authority

    def register_clone(self, new_line: int, parent_line: int,
                       parent_version: int) -> None:
        self.on_clone_created(new_line, parent_line, parent_version,
                              self.current_cp)

    def checkpoint(self) -> int:
        """Two-phase consistency point across every shard; returns the CP."""
        cp = self.current_cp
        self._checkpoint_at(cp)
        return cp

    def _checkpoint_at(self, cp: int) -> None:
        with self._lock:
            self._ensure_open()
            state = self._authority_state()
            failures: List[Tuple[int, BaseException]] = []
            prepared: List[Dict[str, Any]] = []
            for index in range(self.num_shards):
                try:
                    self._drain(index)
                    reply = self._call(
                        index, Opcode.CHECKPOINT_PREPARE,
                        {"cp": cp, "authority": state}, retry=False)
                except ChannelClosedError as exc:
                    # The worker died mid-prepare.  _call already revived
                    # and replayed it (directory mode); the checkpoint
                    # still fails -- the caller retries it as a whole.
                    failures.append((index, exc))
                    continue
                except Exception as exc:  # noqa: BLE001 - relayed worker error
                    failures.append((index, exc))
                    continue
                # This shard's updates are durable: prune its replay log.
                self._pending[index].clear()
                self._sent[index] = 0
                prepared.append(reply["stats"])
            if failures:
                shards = ", ".join(str(index) for index, _ in failures)
                raise ClusterCheckpointError(
                    f"checkpoint {cp} failed in prepare on shard(s) {shards}: "
                    f"{failures[0][1]}") from failures[0][1]
            self._publish(cp)
            for index in range(self.num_shards):
                try:
                    self._call(index, Opcode.CHECKPOINT_COMMIT, {"cp": cp})
                except (ChannelClosedError, ClusterError):  # pragma: no cover
                    # Commit is advisory bookkeeping; a revived worker's
                    # durable prepare already covers the published CP.
                    pass
            self.current_cp = cp + 1
            self._fold_checkpoint(cp, prepared)

    def _publish(self, cp: int) -> None:
        """Durably publish the global CP (phase two's commit record)."""
        self.committed_cp = cp
        if self.directory is None:
            return
        path = _cluster_meta_path(self.directory)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"cp": cp, "shards": self.num_shards}, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _fold_checkpoint(self, cp: int, prepared: List[Dict[str, Any]]) -> None:
        pruned = sum(stats["pruned_pairs"] for stats in prepared)
        self.stats.pruned_pairs += pruned
        self.stats.consistency_points += 1
        self.stats.flush_seconds += max(
            (stats["flush_seconds"] for stats in prepared), default=0.0)
        self.stats.checkpoints.append(CheckpointStats(
            cp=cp,
            block_ops=self._ops_this_cp,
            persistent_ops=sum(s["persistent_ops"] for s in prepared),
            pages_written=sum(s["pages_written"] for s in prepared),
            flush_seconds=max((s["flush_seconds"] for s in prepared), default=0.0),
            ws_records_flushed=sum(s["ws_records_flushed"] for s in prepared),
            pruned_pairs=pruned,
            cumulative_update_seconds=self.stats.update_seconds,
        ))
        self._ops_this_cp = 0

    # ----------------------------------------------------------- maintenance

    def maintain(self) -> MaintenanceStats:
        """Fan database maintenance out to every shard; fold the tallies."""
        with self._lock:
            self._ensure_open()
            state = self._authority_state()
            replies = []
            for index in range(self.num_shards):
                self._drain(index)
                reply = self._call(index, Opcode.MAINTAIN, {"authority": state})
                replies.append(reply)
                if reply["deletion_vector"] == 0:
                    # The shard's compactor folded its suppressions into the
                    # rewritten runs and cleared its vector; stop replaying
                    # them into future revivals of this shard.
                    self._suppressed[index].clear()
            folded = MaintenanceStats(
                sequence=max(r["stats"]["sequence"] for r in replies),
                partitions_processed=sum(
                    r["stats"]["partitions_processed"] for r in replies),
                records_in=sum(r["stats"]["records_in"] for r in replies),
                records_out=sum(r["stats"]["records_out"] for r in replies),
                records_purged=sum(r["stats"]["records_purged"] for r in replies),
                bytes_before=sum(r["stats"]["bytes_before"] for r in replies),
                bytes_after=sum(r["stats"]["bytes_after"] for r in replies),
                seconds=max(r["stats"]["seconds"] for r in replies),
            )
            self.stats.maintenance_runs.append(folded)
            return folded

    def relocate_block(self, old_block: int, new_block: Optional[int] = None) -> int:
        """Suppress stale references of a moved block on its owning shard."""
        with self._lock:
            self._ensure_open()
            index = self.shard_map.shard_of_block(old_block)
            self._drain(index)
            reply = self._call(index, Opcode.RELOCATE, {
                "block": old_block, "new_block": new_block,
                "authority": self._authority_state()})
            self._suppressed[index].update(map(tuple, reply["keys"]))
            return reply["suppressed"]

    # -------------------------------------------------------------- queries

    def select(self, spec: Optional[QuerySpec] = None, /, **kwargs) -> QueryResult:
        """Open a lazy scatter-gather cursor (the cluster's ``select``).

        The cursor is the engine's own :class:`~repro.core.cursor.QueryResult`
        -- iteration, terminal helpers, limits, ``resume_token`` -- driven by
        this coordinator's :meth:`open_cursor` and :meth:`query_range`.
        Sub-queries are issued per partition, in ascending partition order,
        each drained completely before the next partition is opened: the
        same partition-boundary merge the in-process lazy gather performs,
        so emission order is globally sorted and ``.first()`` on a
        whole-device range contacts only the shard owning the first
        partition.  Tokens are the engine's own (the owner identity, nothing
        about shards): routing on resume is by block, so cluster tokens also
        resume on a single-process Backlog or on another shard count.
        """
        self._ensure_open()
        if spec is None:
            spec = QuerySpec(**kwargs)
        elif kwargs:
            raise TypeError("pass either a QuerySpec or keyword fields, not both")
        return QueryResult(self, spec)

    def open_cursor(self, spec: QuerySpec, *,
                    reopened: bool = False) -> Iterator[BackReference]:
        """The owners of ``spec``, streamed out of the shard replies in order.

        What :class:`~repro.core.cursor.QueryResult` pulls from, as it does
        from :meth:`repro.core.query.QueryEngine.open_cursor`.  ``reopened``
        marks a re-entry of a cursor released early (``first()``): it
        resumes an already-counted query, so only a fresh open counts one.
        """
        if not reopened:
            with self._stats_lock:
                self.stats.query.queries += 1
                self.stats.query.cursors_opened += 1
        return (ref for page in self._scatter(spec) for ref in page)

    def query(self, block: int) -> List[BackReference]:
        return self.select(QuerySpec(block)).all()

    def query_range(self, first_block: int, num_blocks: int) -> List[BackReference]:
        """Every owner of the range: each shard reply's list extended whole.

        The list surface an unfiltered cursor's ``all()`` delegates to;
        counts one query, as the engine's list surface does.
        """
        spec = QuerySpec(first_block, num_blocks)
        self._ensure_open()
        with self._stats_lock:
            self.stats.query.queries += 1
        owners: List[BackReference] = []
        for page in self._scatter(spec):
            owners.extend(page)
        return owners

    def owners_at_version(self, block: int, version: int) -> List[BackReference]:
        return self.select(QuerySpec(block).at_version(version)).all()

    def live_owners(self, block: int) -> List[BackReference]:
        return self.select(QuerySpec(block).live()).all()

    @property
    def query_stats(self):
        return self.stats.query

    def _scatter(self, spec: QuerySpec) -> Iterator[List[BackReference]]:
        """Per-partition sub-queries against the owning shards, in order.

        Yields the results of each non-empty reply: the reply's list moves
        to the caller whole (no reply ever exceeds what is left of
        ``spec.limit``, so nothing is ever trimmed from one).  Counting the
        query is the caller's job.

        The decomposition (and hence each worker's page reads) depends only
        on the partitioner, never the shard count; per-shard page tallies
        are folded into the coordinator's :class:`QueryStats` as each reply
        arrives, which is what keeps ``pages_read`` exact across the
        process boundary.
        """
        resume_key = spec.resume_key
        remaining = spec.limit
        for partition, shard, first, count in self.shard_map.subranges(
                spec.first_block, spec.num_blocks):
            token: Optional[str] = None
            if resume_key is not None:
                if resume_key.block >= first + count:
                    continue  # partition lies wholly before the token
                if resume_key.block >= first:
                    token = encode_resume_token(resume_key)
                resume_key = None  # later partitions scan fresh
            opcode = Opcode.QUERY_OPEN
            while True:
                page_limit = (self._query_page_records if remaining is None
                              else min(remaining, self._query_page_records))
                with self._lock:
                    self._drain(shard)
                reply = self._call(shard, opcode, {
                    "authority": self._authority_state(),
                    "spec": {
                        "first_block": first,
                        "num_blocks": count,
                        "version_window": spec.version_window,
                        "live_only": spec.live_only,
                        "lines": spec.lines,
                        "inodes": spec.inodes,
                        "limit": page_limit,
                        "resume_token": token,
                    },
                })
                delta = dict(reply["stats"])
                delta.pop("queries", None)
                delta.pop("cursors_opened", None)
                with self._stats_lock:
                    self.stats.query.add_counters(delta)
                results = reply["results"]
                if results:
                    yield results
                    if remaining is not None:
                        remaining -= len(results)
                        if remaining <= 0:
                            return
                if reply["exhausted"]:
                    break
                token = reply["resume_token"]
                opcode = Opcode.QUERY_PAGE

    # ----------------------------------------------------------- accounting

    def _broadcast_stats(self) -> List[Dict[str, Any]]:
        return [self._call(index, Opcode.STATS, {})
                for index in range(self.num_shards)]

    def pinned_snapshots(self) -> int:
        """Snapshots pinned across all shards (0 between worker requests)."""
        return sum(shard["service"]["pinned_snapshots"]
                   for shard in self._broadcast_stats())

    def database_size_bytes(self) -> int:
        return sum(shard["service"]["database_size_bytes"]
                   for shard in self._broadcast_stats())

    def quarantined_bytes(self) -> int:
        return sum(shard["service"]["quarantined_bytes"]
                   for shard in self._broadcast_stats())

    def deferred_bytes(self) -> int:
        return sum(shard["service"]["deferred_bytes"]
                   for shard in self._broadcast_stats())

    def pending_updates(self) -> int:
        """Updates buffered anywhere: coordinator log + worker write stores."""
        with self._lock:
            unsent = sum(len(self._pending[i]) - self._sent[i]
                         for i in range(self.num_shards))
        return unsent + sum(shard["pending_updates"]
                            for shard in self._broadcast_stats())

    def service_stats(self) -> Dict[str, Any]:
        """Cluster counters in the same shape ``Backlog.service_stats`` has.

        Coordinator-level query counters (folded exactly from per-shard
        tallies) plus a ``"shards"`` breakdown, so ``GET /stats`` over a
        cluster shows both the merged view and each worker's own pools.
        """
        shards = self._broadcast_stats()
        query = self.stats.query
        return {
            "queries": query.queries,
            "cursors_opened": query.cursors_opened,
            "resume_cache_hits": query.resume_cache_hits,
            "pages_read": query.pages_read,
            "query": query.to_dict(),
            "flush_pool": self.stats.flush_pool.to_dict(),
            "maintenance_pool": self.stats.maintenance_pool.to_dict(),
            "query_pool": self.stats.query_pool.to_dict(),
            "pinned_snapshots": sum(
                s["service"]["pinned_snapshots"] for s in shards),
            "database_size_bytes": sum(
                s["service"]["database_size_bytes"] for s in shards),
            "quarantined_bytes": sum(
                s["service"]["quarantined_bytes"] for s in shards),
            "deferred_bytes": sum(
                s["service"]["deferred_bytes"] for s in shards),
            "cluster": {
                "num_shards": self.num_shards,
                "committed_cp": self.committed_cp,
                "current_cp": self.current_cp,
                "worker_pids": self.worker_pids(),
            },
            "shards": shards,
        }

    # ------------------------------------------------------------ test hooks

    def debug_fault(self, shard: int, action: str,
                    pages: Optional[int] = None) -> Dict[str, Any]:
        """Drive a shard's FaultyBackend (arm/disarm/free_space)."""
        return self._call(shard, Opcode.FAULT,
                          {"action": action, "pages": pages})

    def debug_kill(self, shard: int) -> int:
        """Hard-crash a worker (``os._exit`` -- no reply, no cleanup).

        Returns the killed pid.  The next request routed to the shard
        detects the broken pipe and runs the revive path.
        """
        pid = self._workers[shard].pid
        self._workers[shard].channel.send(Opcode.FAULT, {"action": "exit"})
        self._workers[shard].process.join(timeout=5)
        return pid
