"""The back-reference query engine.

Queries answer "which objects reference physical block(s) b .. b+n-1, and in
which snapshot versions?".  The engine (§5.1, §4.2):

1. identifies the partitions covering the requested block range and, within
   them, the read-store runs whose Bloom filters admit the range -- one probe
   of each partition's run index in the pinned snapshot
   (:meth:`~repro.core.catalogue.CatalogueSnapshot.runs_for_block_range`),
   not one probe per run;
2. gathers matching records from those runs and from the in-memory write
   stores;
3. filters out tuples suppressed by the deletion vector;
4. joins From/To/Combined records into the Combined view;
5. expands structural inheritance for writable clones; and
6. masks away versions that belong to deleted snapshots, folding the
   survivors into one :class:`~repro.core.records.BackReference` per owner.

Results are returned as :class:`~repro.core.records.BackReference` tuples,
one per ``(block, inode, offset, line)`` owner, each carrying the merged list
of version ranges in which the owner references the block.

Every query is dispatched on its size -- the candidate run count
(``BacklogConfig.narrow_dispatch_max_runs``) and the range width
(:data:`NARROW_QUERY_MAX_BLOCKS`):

* **Narrow** (at most a couple of candidate runs, at most 1024 blocks): the
  whole intermediate result is a handful of records, so steps 2-6 run as flat
  list code over record NamedTuples -- gather each run's slice as a list,
  :func:`~repro.core.join.materialized_join`,
  :func:`~repro.core.inheritance.materialized_expand`,
  :func:`~repro.core.masking.mask_records` and the dict-based
  :meth:`QueryEngine._group`.

* **Wide** (everything else): steps 2-6 run on big-endian byte *rows*
  (:mod:`repro.core.columnar`), never building a record object.  Every source
  is sorted identically and rows ``memcmp`` in record order, so the cursor
  surface merges per-run page iterators lazily (``heapq.merge``), joins them
  with :func:`~repro.core.columnar.join_rows_for_query` and fuses clone
  expansion, masking and the owner fold in
  :func:`~repro.core.columnar.fold_rows_for_query`; transient memory is
  bounded by one reference group plus one open page per probed run of the
  active partition.  The list surface (:meth:`QueryEngine.query_range`)
  drains its result anyway, so it gathers whole row lists and runs the same
  stages as flat passes (:func:`~repro.core.columnar.scan_rows_bulk`).

Both arms return identical answers; ``tests/test_streaming_equivalence.py``
holds the wide arm to the narrow arm's stages on live instances.

On top of both sits the cursor surface (:meth:`QueryEngine.open_cursor`,
described by :class:`repro.core.cursor.QuerySpec`): a lazy generator of
owners with the spec's filters pushed into the pipeline stages --

* the **inode filter** below the merge-join (whole join keys skipped before
  any joining), the **line filter** into clone expansion (filtered lines
  never reach masking or grouping);
* the **version window** and **live-only** predicates are decided per owner,
  as each owner's ranges first exist, instead of post-filtering a
  materialised list;
* the **limit** and terminal helpers such as ``.first()`` ride the chain's
  laziness: abandoning the generator stops the gather step mid-run, so an
  early exit reads only the pages behind the results actually emitted -- and
  over an aged partition opens only the runs behind them: a window too wide
  for the Bloom filters (more than 256 blocks) whose first partition holds
  more than :data:`HEAD_WINDOW_MIN_RUNS` candidate runs is entered through
  **head windows** of 1, 2, 4, ... 256 blocks, each prefiltered through the
  run index and piped on its own, before the remainder is gathered whole
  (:meth:`QueryEngine._head_window_owners`, which also says why the owner
  stream is unchanged);
* a **resume token** re-enters the key-ordered pipeline at the interrupted
  reference group (``start_key`` pushdown into the per-run page iterators),
  never re-reading partitions or leaves before it.

The same dispatch applies: a narrow resumed/filtered cursor is answered by
filtering the narrow arm's small list.

With ``BacklogConfig.query_workers > 1`` the wide arm additionally **fans the
gather step out**: once the first partition's merged stream is exhausted, the
gathers of later partitions are drained on
:class:`~repro.core.executor.PartitionExecutor` workers (a bounded window of
in-flight partitions) while the caller consumes earlier ones.  Streams merge
strictly at the partition boundary in submission order, so emission order,
resume tokens and answers are byte-identical to serial; each job tallies its
own page reads thread-locally and the consumer folds them into
``QueryStats`` when it takes the job's rows, so ``reads_per_query`` stays
exact.  Because nothing is submitted before partition 0 finishes, ``.first()``
on partition 0 still pays for partition 0 only.

Both surfaces degrade rather than fail on storage corruption: a
:class:`~repro.core.read_store.CorruptPageError` raised while decoding a
page quarantines the damaged run (dropped from the catalogue, file left on
disk for ``repro scrub``) and the query is re-answered -- or, for a cursor,
the pipeline re-entered just past the last emitted owner -- from the
surviving runs plus the write stores.
"""

from __future__ import annotations

import heapq
import threading
import time
from bisect import bisect_left
from collections import OrderedDict, defaultdict, deque
from functools import partial
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.bloom import MAX_RANGE_BLOCKS
from repro.core.catalogue import Catalogue, CatalogueSnapshot
from repro.core.columnar import (
    fold_rows_for_query,
    join_rows_for_query,
    scan_rows_bulk,
)
from repro.core.config import BacklogConfig
from repro.core.cursor import QuerySpec
from repro.core.deletion_vector import DeletionVector
from repro.core.executor import PartitionExecutor
from repro.core.inheritance import CloneGraph, materialized_expand
from repro.core.join import materialized_join
from repro.core.lsm import RunManager
from repro.core.masking import VersionAuthority, mask_records
from repro.core.partitioning import Partitioner
from repro.core.read_store import RECORD_KINDS, CorruptPageError, ReadStoreReader
from repro.core.records import (
    INFINITY,
    BackReference,
    CombinedRecord,
    FromRecord,
    ToRecord,
    records_to_rows,
)
from repro.core.stats import ExecutorStats, QueryStats
from repro.core.write_store import WriteStore
from repro.fsim.blockdev import StorageBackend
from repro.util.intervals import merge_adjacent_ranges

__all__ = ["QueryEngine", "NARROW_QUERY_MAX_BLOCKS"]

FROM_KIND = RECORD_KINDS["from"]
TO_KIND = RECORD_KINDS["to"]
COMBINED_KIND = RECORD_KINDS["combined"]

#: Widest block range the narrow arm may serve.  The run-count dispatch alone
#: would let a *wide* query over a freshly compacted database (one or two
#: runs holding everything) materialise its entire result as records,
#: forfeiting the row pipeline's flat-memory guarantee; bounding the width
#: keeps the narrow arm to the queries it exists for while capping its
#: transient memory at a few leaf pages per run.
NARROW_QUERY_MAX_BLOCKS = 1024

#: Most candidate runs of one partition the cursor chain opens up front for a
#: window the Bloom filters cannot narrow; past it the window is entered
#: through head windows (:meth:`QueryEngine._head_window_owners`).  The value
#: is where the two costs meet, measured on the aged benchmark database
#: (``bench`` workload ``query_aged``): opening a run -- a seek and a leaf
#: decode -- costs ~19 us, and a head window that finds nothing -- a run-index
#: probe and an empty pipeline -- ~34 us, so all nine together cost what
#: opening 16 runs costs.  Up to 16 runs, opening them is never dearer than
#: the head windows could turn out; beyond, head windows lose at most that
#: much when the first owner lies past them, and otherwise save every run
#: that does not hold the first few blocks.
HEAD_WINDOW_MIN_RUNS = 16


class QueryEngine:
    """Executes point and range queries over the back-reference database."""

    def __init__(
        self,
        backend: StorageBackend,
        run_manager: RunManager,
        partitioner: Partitioner,
        ws_from: WriteStore,
        ws_to: WriteStore,
        clone_graph: CloneGraph,
        authority: VersionAuthority,
        deletion_vector: DeletionVector,
        config: BacklogConfig,
        stats: QueryStats,
        catalogue: Catalogue,
        executor: PartitionExecutor,
        executor_stats: ExecutorStats,
        mutation_stamp: Optional[Callable[[], Tuple]] = None,
    ) -> None:
        self.backend = backend
        self.run_manager = run_manager
        self.partitioner = partitioner
        self.ws_from = ws_from
        self.ws_to = ws_to
        self.clone_graph = clone_graph
        self.authority = authority
        self.deletion_vector = deletion_vector
        self.config = config
        # Every query pins a CatalogueSnapshot from here for its whole
        # lifetime -- that pin is what keeps run files alive under the
        # reader (see core/catalogue.py).
        self.catalogue = catalogue
        self.stats = stats
        # The session-scoped cursor resume cache: resume-token -> suspended
        # pipeline, populated when a limit-bounded page fills and consulted
        # when that token comes back (see _park_cursor / _take_parked).
        # ``mutation_stamp`` is the owner's cheap change detector (the
        # Backlog passes its reference-update counters); without one there
        # is no safe way to know the write stores are unchanged, so parking
        # is disabled.
        self._mutation_stamp = mutation_stamp
        # Entries are (refs, stamp, snapshot): the parked pipeline, the
        # mutation stamp taken at park time, and the pinned catalogue
        # snapshot whose custody the pipeline carries (dropping an entry
        # must release the pin).  Guarded by _parked_lock: concurrent
        # service sessions park and take from the same engine.
        self._parked: "OrderedDict[Tuple, Tuple[Iterator[BackReference], Tuple, Optional[CatalogueSnapshot]]]" = \
            OrderedDict()
        self._parked_lock = threading.Lock()
        # The read-side fan-out pool (``BacklogConfig.query_workers``): with
        # workers > 1, _merge_sources drains later partitions' gathers on
        # workers while the caller consumes earlier ones; one worker keeps
        # the pipeline literally serial.
        self._executor = executor
        self._executor_stats = executor_stats

    # ------------------------------------------------------------------ API

    def query_range(self, first_block: int, num_blocks: int) -> List[BackReference]:
        """All owners of blocks in ``[first_block, first_block + num_blocks)``.

        Returns one :class:`~repro.core.records.BackReference` per owner,
        sorted by ``(block, inode, offset, line)``, with each owner's version
        ranges merged and sorted.  Dispatches on the query's size (see the
        module docstring); both arms return identical results.
        """
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        start_time = time.perf_counter()
        backend_stats = self.backend.stats
        # Exact page accounting: an open thread-local read tally collects
        # this thread's page reads, and fan-out workers' reads are folded in
        # when their drained records are taken (``IOStats.add_tallied_reads``)
        # -- so concurrent sessions and pool workers never leak pages into
        # each other's QueryStats the way the old sample-the-shared-counter
        # scheme did.
        backend_stats.push_read_tally()
        try:
            # Degraded operation: a checksum mismatch quarantines the damaged
            # run and the query is re-answered from the surviving runs plus the
            # write stores.  The loop is bounded -- every round removes a run
            # from the catalogue (or re-raises if it cannot).
            count_dispatch = True
            while True:
                # Pin a snapshot for the attempt: the runs it references cannot
                # be deleted (only deferred) while it is held, so a concurrent
                # checkpoint/compaction cannot pull pages out from under the
                # scan.  Both arms materialise their result list before the
                # release below.
                with self.catalogue.select() as snapshot:
                    try:
                        # Inside the retry: the prefilter's run index loads
                        # the filters recovery left on disk, and a damaged
                        # filter page quarantines its run like any other.
                        candidate_runs = self._candidate_runs(snapshot, first_block,
                                                              num_blocks)
                        if self._dispatch_narrow(candidate_runs, num_blocks,
                                                 count=count_dispatch):
                            results = self._query_materialized(
                                snapshot, candidate_runs, first_block, num_blocks)
                        else:
                            results = self._query_wide(
                                snapshot, candidate_runs, first_block, num_blocks)
                        break
                    except CorruptPageError as error:
                        # Re-pin after quarantine: the fresh snapshot no longer
                        # contains the damaged run.
                        self._quarantine(error)
                        count_dispatch = False
        finally:
            pages_read = backend_stats.pop_read_tally()

        self.stats.queries += 1
        self.stats.back_references_returned += len(results)
        self.stats.pages_read += pages_read
        self.stats.seconds += time.perf_counter() - start_time
        return results

    # -------------------------------------------------------------- cursors

    def open_cursor(self, spec: QuerySpec, *,
                    reopened: bool = False) -> Iterator[Tuple]:
        """A lazy generator of the owners described by ``spec``.

        The entry point behind :meth:`repro.core.backlog.Backlog.select`:
        results stream out in ``(block, inode, offset, line)`` order with the
        spec's filters pushed into the pipeline (see the module docstring).
        Owners are emitted *raw* -- :class:`BackReference` from the narrow
        arm, shape-identical plain tuples from the row pipeline; the cursor
        surface
        (:class:`~repro.core.cursor.QueryResult`) materialises at its
        public boundary, so wire paths can ship rows without ever building
        the NamedTuples.
        Abandoning the generator (``close()``, or just dropping it) is the
        early exit -- nothing past the last emitted owner is read.  Query
        statistics are finalised when the generator finishes or is closed;
        ``reopened`` marks a re-entry of a logical cursor that was already
        counted (a :class:`~repro.core.cursor.QueryResult` continuing after
        an early release), so it accumulates work done -- results, pages,
        seconds -- without counting another query.
        """
        resume_key = spec.resume_key
        if resume_key is None:
            first_block, num_blocks = spec.first_block, spec.num_blocks
            start_key = None
        else:
            # Resume pushdown: re-enter at the interrupted owner's reference
            # group.  The group boundary -- not the owner itself -- is the
            # correct seek target because clone expansion resolves
            # inheritance from the *whole* ``(block, inode, offset)`` group;
            # owners at or before the resume identity are skipped after
            # expansion, in the grouping pass.
            first_block = resume_key.block
            num_blocks = spec.first_block + spec.num_blocks - resume_key.block
            start_key = (resume_key.block, resume_key.inode, resume_key.offset, 0, 0)
        return self._cursor_iter(spec, resume_key, first_block, num_blocks,
                                 start_key, reopened)

    def _cursor_iter(
        self,
        spec: QuerySpec,
        resume_key: Optional[Tuple[int, int, int, int]],
        first_block: int,
        num_blocks: int,
        start_key: Optional[Tuple[int, ...]],
        reopened: bool,
    ) -> Iterator[Tuple]:
        """The cursor generator: dispatch, owner filters, limit, stats.

        Wall-clock accounting covers only the time spent *inside* the
        generator (the interval between a pull and its yield), so a consumer
        that thinks between pages does not inflate ``QueryStats.seconds``.
        Page-read accounting follows the same discipline exactly: a
        thread-local read tally (``IOStats.push_read_tally``) is opened and
        closed in step with the timing toggles, so only pages read while
        the generator is running -- plus the pages of any fan-out gather
        whose records this generator consumed -- are charged to this
        cursor's ``QueryStats``.  Interleaved queries on the same thread
        tally into their own (nested) frame, and other sessions' reads
        never appear here at all.

        A checksum mismatch surfacing mid-stream quarantines the damaged run
        and rebuilds the pipeline just past the last owner already emitted
        (``last_identity`` doubles as the resume seek target), so the
        consumer sees an uninterrupted, still-sorted owner stream -- degraded
        to the surviving runs, with nothing re-emitted and nothing before the
        corruption point lost.
        """
        stats = self.stats
        backend_stats = self.backend.stats
        emitted = 0
        elapsed = 0.0
        pages_read = 0
        window = spec.version_window
        started = time.perf_counter()
        backend_stats.push_read_tally()
        # The last identity the consumer must not see again: the spec's
        # resume token at entry, then the identity of every owner yielded.
        # Refs arrive in strictly increasing identity order, so the skip
        # test only ever fires on a resumed or rebuilt pipeline.
        last_identity = resume_key
        count_dispatch = not reopened
        # The pinned snapshot the pipeline reads from.  The generator owns
        # it -- and releases it in the finally -- except when a full page
        # parks the pipeline, which transfers custody (pin included) to the
        # resume cache so the parked iterators keep their run files alive.
        snapshot: Optional[CatalogueSnapshot] = None
        try:
            refs: Optional[Iterator[BackReference]] = None
            if resume_key is not None:
                parked = self._take_parked(spec, resume_key)
                if parked is not None:
                    # The parked pipeline is already positioned just past the
                    # resume identity: no Bloom prefilter and no per-run
                    # re-seek (the skip test above never fires on it).
                    refs, snapshot = parked
                    stats.resume_cache_hits += 1
            while True:
                try:
                    if refs is None:
                        if snapshot is None:
                            snapshot = self.catalogue.select()
                        candidate_runs, skipped = self._prefilter(
                            snapshot, first_block, num_blocks)
                        if self._dispatch_narrow(candidate_runs, num_blocks,
                                                 count=count_dispatch):
                            # The narrow arm already returns a small, fully
                            # grouped list; the record-level
                            # pushdowns would not pay for themselves, so the
                            # spec's filters apply per owner below.  ``iter``
                            # keeps the loop's position in ``refs`` itself so
                            # a full page can be parked.
                            self._count_probed(candidate_runs, skipped)
                            refs = iter(self._query_materialized(
                                snapshot, candidate_runs, first_block, num_blocks
                            ))
                        elif self._wants_head_windows(candidate_runs, num_blocks):
                            refs = self._head_window_owners(
                                snapshot, first_block, num_blocks, start_key, spec)
                        else:
                            self._count_probed(candidate_runs, skipped)
                            refs = self._cursor_owners(
                                snapshot, candidate_runs, first_block, num_blocks,
                                start_key, spec
                            )
                    # Owner filters are index-based because ``refs`` yields
                    # either BackReferences (narrow arm) or the row
                    # pipeline's shape-identical plain tuples;
                    # materialisation is the cursor surface's job, not this
                    # generator's.
                    for ref in refs:
                        if last_identity is not None and ref[:4] <= last_identity:
                            continue
                        if spec.inodes is not None and ref[1] not in spec.inodes:
                            continue
                        if spec.lines is not None and ref[3] not in spec.lines:
                            continue
                        if spec.live_only and not any(
                            stop == INFINITY for _, stop in ref[4]
                        ):
                            continue
                        if window is not None and not any(
                            start < window[1] and window[0] < stop
                            for start, stop in ref[4]
                        ):
                            continue
                        emitted += 1
                        last_identity = ref[:4]
                        elapsed += time.perf_counter() - started
                        # ``None`` marks the generator as suspended at the
                        # yield: if the consumer closes (or drops) the cursor
                        # while it sits there, the finally block must not
                        # charge the time the consumer spent holding it --
                        # and the read tally pops with it, both because the
                        # consumer's between-page reads are not this query's
                        # and because a suspended tally left open would be
                        # popped from the *wrong thread's* stack if another
                        # session drops a parked pipeline.
                        started = None
                        pages_read += backend_stats.pop_read_tally()
                        page_full = spec.limit is not None and emitted >= spec.limit
                        if page_full:
                            # Park *before* the yield: the consumer usually
                            # closes the cursor the moment its page fills, and
                            # the pipeline must already be in the cache (not
                            # torn down with the generator) when the resume
                            # token comes back.  Parking takes custody of the
                            # snapshot pin along with the iterators.
                            if self._park_cursor(spec, ref, refs, snapshot):
                                snapshot = None
                        yield ref
                        started = time.perf_counter()
                        backend_stats.push_read_tally()
                        if page_full:
                            return
                    return
                except CorruptPageError as error:
                    # Quarantine and re-enter just past the last owner the
                    # consumer saw.  The broken generator chain was already
                    # closed by the propagating exception; parked pipelines
                    # were dropped by the quarantine's invalidation.  The
                    # pinned snapshot still holds the damaged run, so drop it
                    # and re-pin: the fresh snapshot excludes the quarantined
                    # run, which bounds the retry loop.
                    self._quarantine(error)
                    count_dispatch = False
                    refs = None
                    if snapshot is not None:
                        snapshot.release()
                        snapshot = None
                    if last_identity is not None:
                        first_block = last_identity[0]
                        num_blocks = (spec.first_block + spec.num_blocks
                                      - last_identity[0])
                        start_key = (last_identity[0], last_identity[1],
                                     last_identity[2], 0, 0)
        finally:
            if snapshot is not None:
                snapshot.release()
            if started is not None:
                elapsed += time.perf_counter() - started
                pages_read += backend_stats.pop_read_tally()
            if not reopened:
                stats.queries += 1
                stats.cursors_opened += 1
            stats.back_references_returned += emitted
            stats.pages_read += pages_read
            stats.seconds += elapsed

    def _cursor_owners(
        self,
        snapshot: CatalogueSnapshot,
        candidate_runs: List[ReadStoreReader],
        first_block: int,
        num_blocks: int,
        start_key: Optional[Tuple[int, ...]],
        spec: QuerySpec,
    ) -> Iterator[Tuple[int, int, int, int, Tuple[Tuple[int, int], ...]]]:
        """The wide arm's lazy owner pipeline with the spec's pushdowns applied.

        Gathers big-endian rows, joins them with
        :func:`~repro.core.columnar.join_rows_for_query` and fuses clone
        expansion, masking and the owner fold in
        :func:`~repro.core.columnar.fold_rows_for_query`.  Yields plain owner
        tuples, shape-identical to :class:`BackReference`; the cursor surface
        materialises at emission.
        """
        frows, trows, crows = self._gather(
            snapshot, candidate_runs, first_block, num_blocks, start_key)
        joined = join_rows_for_query(frows, trows, crows, inode_filter=spec.inodes)
        return fold_rows_for_query(joined, self.clone_graph, self.authority,
                                   line_filter=spec.lines)

    def _wants_head_windows(self, candidate_runs: List[ReadStoreReader],
                            num_blocks: int) -> bool:
        """True when opening the window whole would seek a partition's worth of runs.

        That is: the window is wider than the Bloom filters answer for, so
        ``candidate_runs`` is every run whose fence overlaps it, and the
        first partition it reaches -- the one the chain opens before it can
        emit anything -- contributes more than :data:`HEAD_WINDOW_MIN_RUNS`
        of them.
        """
        if num_blocks <= MAX_RANGE_BLOCKS or len(candidate_runs) <= HEAD_WINDOW_MIN_RUNS \
                or not self.config.use_bloom_filters:
            return False
        return candidate_runs[HEAD_WINDOW_MIN_RUNS].partition == candidate_runs[0].partition

    def _head_window_owners(
        self,
        snapshot: CatalogueSnapshot,
        first_block: int,
        num_blocks: int,
        start_key: Optional[Tuple[int, ...]],
        spec: QuerySpec,
    ) -> Iterator[Tuple[int, int, int, int, Tuple[Tuple[int, int], ...]]]:
        """:meth:`_cursor_owners` over geometric head windows, then the rest.

        The window is cut at block boundaries into sub-windows of 1, 2, 4,
        ... :data:`~repro.core.bloom.MAX_RANGE_BLOCKS` blocks from its
        (resumed) start, each narrow enough for the run index to prefilter,
        and one remainder gathered as the whole window used to be.  Each
        piece runs the full pipeline over its own candidate runs, opened
        only when the consumer reaches it, so an early exit seeks the few
        runs that hold its first blocks instead of every run of the
        partition.

        The pieces are disjoint and ascending and every stage keys on the
        block first -- the join on ``(block, inode, offset, line)``, clone
        expansion and the owner fold on the ``(block, inode, offset)``
        group -- so their owner streams concatenate to exactly the whole
        window's: same owners, same order, hence the same resume tokens,
        parked pipelines and corruption re-entry.  ``start_key`` lies in the
        first block, so only the first piece seeks to it.  Run statistics
        count each piece's prefilter as it is opened.
        """
        end_block = first_block + num_blocks
        width = 1
        while first_block < end_block:
            if width > MAX_RANGE_BLOCKS:
                width = end_block - first_block
            width = min(width, end_block - first_block)
            yield from self._cursor_owners(
                snapshot, self._candidate_runs(snapshot, first_block, width),
                first_block, width, start_key, spec)
            start_key = None
            first_block += width
            width *= 2

    # ------------------------------------------- cursor resume cache

    # A resumed page re-runs the Bloom prefilter over the remaining range and
    # re-seeks every run in the active partition just to get back to where
    # the previous page stopped.  For a hot paginated scan that re-entry cost
    # is pure overhead: the previous page's pipeline was *already* positioned
    # exactly there when its limit hit.  So when a page fills, the suspended
    # owner stream is parked keyed by the resume token it handed out, and a
    # resume with that token continues it instead of rebuilding.
    #
    # Correctness: a parked pipeline carries the pinned CatalogueSnapshot its
    # gather step opened -- candidate runs, write-store snapshot slices --
    # so its files stay alive in the cache.  It is still only resumed when
    # nothing has changed (the answer must reflect the *current* database,
    # not the parked view): the Backlog invalidates the cache at every
    # data-flushing checkpoint (idle checkpoints change nothing and leave it
    # intact), maintenance pass, relocation, clone registration and snapshot
    # deletion, and the mutation stamp (the reference-update counters)
    # catches write-store changes between pages.  Anything else -- mismatched
    # spec, evicted entry, stamp drift -- falls back to the re-seek path,
    # which the differential tests hold identical.

    @staticmethod
    def _spec_core(spec: QuerySpec) -> Tuple:
        """The spec fields that shape the pipeline (everything but paging)."""
        return (spec.first_block, spec.num_blocks, spec.version_window,
                spec.live_only, spec.lines, spec.inodes)

    def _park_cursor(self, spec: QuerySpec, last_ref: Tuple,
                     refs: Iterator,
                     snapshot: Optional[CatalogueSnapshot]) -> bool:
        """Park a full page's suspended pipeline under its resume token.

        Returns True when the cache took custody of ``refs`` *and*
        ``snapshot`` (the caller must stop releasing the pin), False when
        parking is disabled and the caller keeps ownership.
        """
        capacity = self.config.resume_cache_size
        if capacity <= 0 or self._mutation_stamp is None:
            return False
        key = (self._spec_core(spec), tuple(last_ref[:4]))
        dropped: List[Tuple] = []
        with self._parked_lock:
            stale = self._parked.pop(key, None)
            if stale is not None:
                dropped.append(stale)
            self._parked[key] = (refs, self._mutation_stamp(), snapshot)
            while len(self._parked) > capacity:
                _, evicted = self._parked.popitem(last=False)
                dropped.append(evicted)
        for entry in dropped:
            self._drop_parked(entry)
        return True

    def _take_parked(
        self, spec: QuerySpec, resume_key: Tuple,
    ) -> Optional[Tuple[Iterator[BackReference], Optional[CatalogueSnapshot]]]:
        """The parked pipeline for this spec + token, if still trustworthy.

        Returns ``(refs, snapshot)`` -- the caller takes the snapshot pin
        back along with the iterators -- or None for a cache miss.
        """
        if not self._parked or self._mutation_stamp is None:
            return None
        key = (self._spec_core(spec), tuple(resume_key))
        with self._parked_lock:
            entry = self._parked.pop(key, None)
        if entry is None:
            return None
        refs, stamp, snapshot = entry
        if stamp != self._mutation_stamp():
            self._drop_parked(entry)
            return None
        return refs, snapshot

    def invalidate_parked_cursors(self) -> None:
        """Drop every parked pipeline (the database is about to change)."""
        with self._parked_lock:
            dropped = list(self._parked.values())
            self._parked.clear()
        for entry in dropped:
            self._drop_parked(entry)

    @staticmethod
    def _drop_parked(entry: Tuple) -> None:
        refs, _, snapshot = entry
        close = getattr(refs, "close", None)
        if close is not None:
            close()
        if snapshot is not None:
            snapshot.release()

    # ------------------------------------------------------------ internals

    def _quarantine(self, error: CorruptPageError) -> None:
        """Convert a checksum mismatch into quarantine + degraded operation.

        Drops the damaged run from the catalogue (the file stays on the
        backend for ``repro scrub`` to report and reclaim) and invalidates
        the parked cursors, whose frozen pipelines may hold the corrupt run
        open.  Re-raises the error when the run is not in the catalogue --
        nothing left to degrade away from, so the caller must not loop.
        """
        self.stats.corrupt_pages_detected += 1
        if self.run_manager.quarantine_run(error.run_name):
            self.stats.runs_quarantined += 1
        elif error.run_name not in self.run_manager.quarantined:
            # Not in the catalogue and not quarantined by anyone: nothing
            # left to degrade away from, so the caller must not loop.  (A
            # concurrent reader quarantining the same run first is fine --
            # the re-pinned snapshot will exclude it either way.)
            raise error
        self.invalidate_parked_cursors()

    def _dispatch_narrow(self, candidate_runs: List[ReadStoreReader],
                         num_blocks: int, count: bool = True) -> bool:
        """The size dispatch, shared by the list and cursor surfaces.

        True sends the query to the narrow arm; False keeps it on the row
        pipeline.  One definition on purpose: the two surfaces
        must never dispatch the same range differently.  ``count=False``
        suppresses the fast-path counter for pipeline re-entries that were
        already counted (a reopened cursor), mirroring the query counter.
        """
        max_runs = self.config.narrow_dispatch_max_runs
        if max_runs and len(candidate_runs) <= max_runs \
                and num_blocks <= NARROW_QUERY_MAX_BLOCKS:
            if count:
                self.stats.narrow_fast_path_queries += 1
            return True
        return False

    def _prefilter(self, snapshot: CatalogueSnapshot, first_block: int,
                   num_blocks: int) -> Tuple[List[ReadStoreReader], int]:
        """Step 1: the runs whose Bloom filters admit the range, and how many do not."""
        partitions = self.partitioner.partitions_for_range(first_block, num_blocks)
        if not self.config.use_bloom_filters:
            return [run for p in partitions for run in snapshot.runs_for(p)], 0
        candidate_runs = snapshot.runs_for_block_range(partitions, first_block, num_blocks)
        total_runs = sum(len(snapshot.runs_for(p)) for p in partitions)
        return candidate_runs, total_runs - len(candidate_runs)

    def _count_probed(self, candidate_runs: List[ReadStoreReader], skipped: int) -> None:
        """Charge a prefilter whose candidate runs are about to be read."""
        self.stats.runs_skipped_by_bloom += skipped
        self.stats.runs_probed += len(candidate_runs)

    def _candidate_runs(self, snapshot: CatalogueSnapshot, first_block: int,
                        num_blocks: int) -> List[ReadStoreReader]:
        """:meth:`_prefilter`, charged to the query statistics."""
        candidate_runs, skipped = self._prefilter(snapshot, first_block, num_blocks)
        self._count_probed(candidate_runs, skipped)
        return candidate_runs

    # ------------------------------------------------------------ wide arm

    def _query_wide(
        self, snapshot: CatalogueSnapshot, candidate_runs: List[ReadStoreReader],
        first_block: int, num_blocks: int
    ) -> List[BackReference]:
        """Steps 2-6 as flat passes over drained row lists."""
        frows, trows, crows = self._gather_row_lists(
            snapshot, candidate_runs, first_block, num_blocks)
        owners = scan_rows_bulk(frows, trows, crows,
                                self.clone_graph, self.authority)
        # The one materialisation point of the wide list surface: a bulk
        # C-level _make over the owner tuples, not one ctor per stage.
        return list(map(BackReference._make, owners))

    @staticmethod
    def _partition_buckets(
        candidate_runs: List[ReadStoreReader],
    ) -> Dict[int, List[List[ReadStoreReader]]]:
        """Candidate runs as per-partition buckets, keyed by record kind.

        Every kind's bucket list has one (possibly empty) bucket per
        partition, in ascending partition order.
        """
        # Dispatch on the numeric record kind: the ``table`` property does a
        # name lookup per call, which adds up over many candidate runs.
        # Candidate runs arrive partition-ordered (the snapshot walks the
        # ascending partition list) and carry the partition the catalogue
        # stamped on them, so grouping is a linear scan.
        sources: Dict[int, List[List[ReadStoreReader]]] = \
            {FROM_KIND: [], TO_KIND: [], COMBINED_KIND: []}
        last_partition: Optional[int] = None
        for run in candidate_runs:
            partition = run.partition
            if partition != last_partition or not sources[run.record_kind]:
                for buckets in sources.values():
                    buckets.append([])
                last_partition = partition
            sources[run.record_kind][-1].append(run)
        return sources

    def _gather(
        self, snapshot: CatalogueSnapshot, candidate_runs: List[ReadStoreReader],
        first_block: int, num_blocks: int,
        start_key: Optional[Tuple[int, ...]] = None,
    ) -> Tuple[Iterator[bytes], Iterator[bytes], Iterator[bytes]]:
        """Sorted, lazily merged row streams for the block range.

        Each run contributes a lazy per-page iterator of big-endian row bytes
        (:meth:`~repro.core.read_store.ReadStoreReader.iter_rows_block_range`)
        and each write store its sorted snapshot slice
        (:func:`~repro.core.records.records_to_rows`); per table the sources
        are merged with ``heapq.merge`` (rows compare in record order and
        every source is sorted identically), so the join consumes one sorted
        stream per table without any whole-range lists.

        ``start_key`` (cursor resume pushdown) begins every source at the
        first record at or past the key instead of the start of the range.

        Runs are merged *per partition* and the partition merges are chained
        lazily: partitions cover disjoint, ascending block ranges, so the
        chain is globally sorted, and a later partition's runs are not even
        opened until the scan reaches them.  That is what keeps an early exit
        (``.first()``, a page-limited cursor) from decoding one leaf of every
        run on the device just to prime a single whole-range heap, and what
        bounds the cursor chain's transient memory by one open page per
        probed run *of the active partition*.
        """
        sources = {
            kind: [[run.iter_rows_block_range(first_block, num_blocks, start_key)
                    for run in bucket] for bucket in buckets]
            for kind, buckets in self._partition_buckets(candidate_runs).items()
        }
        ws_from_records = snapshot.ws_from.records_for_block_range(first_block, num_blocks)
        if start_key is not None and ws_from_records:
            ws_from_records = ws_from_records[bisect_left(ws_from_records, start_key):]
        ws_to_records = snapshot.ws_to.records_for_block_range(first_block, num_blocks)
        if start_key is not None and ws_to_records:
            ws_to_records = ws_to_records[bisect_left(ws_to_records, start_key):]

        deletion_vector = snapshot.deletion_vector
        return (
            self._merge_sources(sources[FROM_KIND], records_to_rows(ws_from_records, 5),
                                deletion_vector, snapshot),
            self._merge_sources(sources[TO_KIND], records_to_rows(ws_to_records, 5),
                                deletion_vector, snapshot),
            self._merge_sources(sources[COMBINED_KIND], None,
                                deletion_vector, snapshot),
        )

    def _gather_row_lists(
        self, snapshot: CatalogueSnapshot, candidate_runs: List[ReadStoreReader],
        first_block: int, num_blocks: int,
    ) -> Tuple[List[bytes], List[bytes], List[bytes]]:
        """:meth:`_gather`, drained to three sorted row lists.

        The list surface's gather: a whole-range ``query_range`` consumes
        every gathered record anyway, so the lazy per-row heap merge only
        adds per-element overhead there.  Sources are drained to lists and
        merged with ``sorted`` -- timsort's run detection makes merging a
        handful of sorted runs effectively one C-level pass -- which yields
        exactly the heap merge's sequence (identical multiset, total order
        on row bytes).

        With a fan-out pool configured and more than one ``(table,
        partition)`` bucket in play, the *drains themselves* run as pool
        jobs: each job reads its bucket's pages under its own thread-local
        read tally and snapshot pin (:meth:`_fanout_job`, the same
        accounting and custody contract the cursor's prefetch uses), so the
        throttled page I/O of later partitions overlaps instead of being
        paid serially before dispatch -- while the per-bucket drain stays
        the eager C-speed ``rows_for_block_range`` path, never a per-row
        generator.  Folding
        each job's page count into the caller's open tally keeps
        ``pages_read`` exactly equal to serial.
        """
        sources = self._partition_buckets(candidate_runs)
        ws_rows = {
            FROM_KIND: records_to_rows(
                snapshot.ws_from.records_for_block_range(first_block, num_blocks), 5),
            TO_KIND: records_to_rows(
                snapshot.ws_to.records_for_block_range(first_block, num_blocks), 5),
            COMBINED_KIND: [],
        }
        deletion_vector = snapshot.deletion_vector

        def drain(bucket: List[ReadStoreReader]) -> List[bytes]:
            if len(bucket) == 1:
                return bucket[0].rows_for_block_range(first_block, num_blocks)
            rows: List[bytes] = []
            for run in bucket:
                rows.extend(run.rows_for_block_range(first_block, num_blocks))
            return rows

        buckets = [(kind, bucket) for kind, kind_buckets in sources.items()
                   for bucket in kind_buckets if bucket]
        if self._executor.workers > 1 and len(buckets) > 1:
            self._executor_stats.count_dispatch()
            backend_stats = self.backend.stats
            drained: List[List[bytes]] = []
            for rows, pages in self._executor.map(
                    [self._fanout_job(snapshot, partial(drain, bucket))
                     for _, bucket in buckets],
                    self._executor_stats):
                backend_stats.add_tallied_reads(pages)
                drained.append(rows)
        else:
            drained = [drain(bucket) for _, bucket in buckets]

        gathered = {}
        parts_by_kind: Dict[int, List[List[bytes]]] = \
            {FROM_KIND: [], TO_KIND: [], COMBINED_KIND: []}
        for (kind, _), rows in zip(buckets, drained):
            parts_by_kind[kind].append(rows)
        for kind, parts in parts_by_kind.items():
            # Partitions cover disjoint ascending ranges: concatenating the
            # per-bucket lists is sorted except across runs *within* a
            # partition, which the sort below re-merges.
            rows = list(chain.from_iterable(parts))
            if ws_rows[kind]:
                rows.extend(ws_rows[kind])
            rows.sort()
            if deletion_vector:
                rows = list(deletion_vector.filter_rows(rows))
            gathered[kind] = rows
        return gathered[FROM_KIND], gathered[TO_KIND], gathered[COMBINED_KIND]

    def _merge_sources(self, partition_buckets: List[List[Iterator[bytes]]],
                       write_store_rows: Optional[List[bytes]],
                       deletion_vector: DeletionVector,
                       snapshot: CatalogueSnapshot) -> Iterator[bytes]:
        """One sorted stream per table: lazily chained per-partition merges.

        Each partition's run iterators merge through ``heapq.merge``; the
        per-partition streams are concatenated with ``chain.from_iterable``
        (sound because partitions hold disjoint ascending block ranges) and
        the write store's snapshot slice -- which can span partitions -- is
        folded in with one binary merge on top.  Deletion-vector
        suppressions are filtered on the combined stream.

        With a fan-out pool configured and more than one partition in play,
        the per-partition streams come from :meth:`_prefetched_streams`
        instead: identical elements in identical order (the merge boundary
        is the partition either way), but later partitions drain on workers
        while the caller consumes earlier ones.
        """
        buckets = [bucket for bucket in partition_buckets if bucket]
        if self._executor.workers > 1 and len(buckets) > 1:
            merged: Iterator = chain.from_iterable(
                self._prefetched_streams(buckets, snapshot))
        else:
            merged_partitions = [
                bucket[0] if len(bucket) == 1 else heapq.merge(*bucket)
                for bucket in buckets
            ]
            if not merged_partitions:
                merged = iter(())
            elif len(merged_partitions) == 1:
                merged = merged_partitions[0]
            else:
                merged = chain.from_iterable(merged_partitions)
        if write_store_rows:
            merged = heapq.merge(merged, iter(write_store_rows))
        if deletion_vector:
            return deletion_vector.filter_rows(merged)
        return merged

    def _prefetched_streams(self, buckets: List[List[Iterator]],
                            snapshot: CatalogueSnapshot) -> Iterator[Iterable]:
        """Per-partition streams with later partitions drained on workers.

        Yields one iterable per partition bucket, in bucket order.  The
        first bucket is yielded as the plain lazy merge -- *nothing* is
        submitted to the pool until the consumer has exhausted it, which is
        what preserves the lazy-gather guarantee (``.first()`` satisfied
        from partition 0 spawns zero background work and reads exactly the
        serial pages).  From then on a bounded window of at most
        ``workers`` later buckets is kept in flight; each job drains its
        bucket's merge to a list and returns it with the page count its
        reads tallied, which the consumer folds into its own open read
        tally (``IOStats.add_tallied_reads``) the moment it takes the list
        -- never earlier, so per-query accounting matches serial.

        Snapshot custody: every job holds its own pin (:meth:`_fanout_job`),
        so in-flight gathers keep their run files alive even if the consumer
        abandons the cursor -- abandoned futures just run to completion,
        release their pins and have their tallied pages discarded (serial
        would never have read them ahead either... the *charge* is what must
        match, and unconsumed work charges nothing).
        """
        first = buckets[0]
        yield first[0] if len(first) == 1 else heapq.merge(*first)
        executor = self._executor
        backend_stats = self.backend.stats
        self._executor_stats.count_dispatch()
        pending: "deque" = deque()
        index = 1
        while index < len(buckets) or pending:
            while index < len(buckets) and len(pending) < executor.workers:
                bucket = buckets[index]
                stream = bucket[0] if len(bucket) == 1 else heapq.merge(*bucket)
                pending.append(executor.submit(
                    self._fanout_job(snapshot, partial(list, stream)),
                    self._executor_stats))
                index += 1
            records, pages = pending.popleft().result()
            backend_stats.add_tallied_reads(pages)
            yield records

    def _fanout_job(self, snapshot: CatalogueSnapshot,
                    drain: Callable[[], List]) -> Callable[[], Tuple[List, int]]:
        """One fan-out pool job: ``drain()`` under its own pin and read tally.

        The pin is taken here, on the dispatching thread, and released in
        the job's ``finally``; the job returns the drained list with the
        page reads it tallied, which the consumer folds into its own open
        tally (``IOStats.add_tallied_reads``) when it takes the list.
        """
        release = snapshot.acquire()
        backend_stats = self.backend.stats

        def job() -> Tuple[List, int]:
            try:
                backend_stats.push_read_tally()
                try:
                    drained = drain()
                finally:
                    pages = backend_stats.pop_read_tally()
                return drained, pages
            finally:
                release()

        return job

    # ---------------------------------------------------------- narrow arm

    def _query_materialized(
        self, snapshot: CatalogueSnapshot, candidate_runs: List[ReadStoreReader],
        first_block: int, num_blocks: int
    ) -> List[BackReference]:
        """The record-list pipeline, used below the dispatch bound.

        Gathers each source's range slice as a list and runs the
        materialising join / expansion / grouping.  With one or two candidate
        runs the whole intermediate result is a handful of records, and the
        flat list code beats the generator chain's per-record overhead (the
        ``narrow_dispatch`` benchmark section quantifies this).
        """
        froms: List[FromRecord] = []
        tos: List[ToRecord] = []
        combined: List[CombinedRecord] = []
        sinks: Dict[int, List] = {FROM_KIND: froms, TO_KIND: tos, COMBINED_KIND: combined}
        for run in candidate_runs:
            sinks[run.record_kind].extend(run.records_for_block_range(first_block, num_blocks))
        froms.extend(snapshot.ws_from.records_for_block_range(first_block, num_blocks))
        tos.extend(snapshot.ws_to.records_for_block_range(first_block, num_blocks))
        deletion_vector = snapshot.deletion_vector
        if deletion_vector:
            froms = list(deletion_vector.filter(froms))
            tos = list(deletion_vector.filter(tos))
            combined = list(deletion_vector.filter(combined))
        combined_view = materialized_join(froms, tos, combined)
        expanded = materialized_expand(combined_view, self.clone_graph)
        masked = mask_records(expanded, self.authority)
        return self._group(masked)

    @staticmethod
    def _group(records: Sequence[CombinedRecord]) -> List[BackReference]:
        """Fold Combined records into one BackReference per owner.

        A dict pass keyed by owner identity plus a final sort, accepting
        records in any order; the narrow arm's inputs are tiny.
        """
        grouped: Dict[Tuple[int, int, int, int], List[Tuple[int, int]]] = defaultdict(list)
        for record in records:
            grouped[(record.block, record.inode, record.offset, record.line)].append(
                (record.from_cp, record.to_cp)
            )
        results = []
        for (block, inode, offset, line), ranges in sorted(grouped.items()):
            merged = tuple(merge_adjacent_ranges(ranges))
            results.append(BackReference(block, inode, offset, line, merged))
        return results
