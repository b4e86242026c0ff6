"""The per-partition run index behind ``CatalogueSnapshot.runs_for_block_range``.

The index replaced a linear walk that asked every run of a partition, one at
a time, whether its fence and Bloom filter admit a block range.  That walk is
kept here as the oracle (:func:`reference_walk`): the index must return
exactly its list -- same runs, same order -- for every range class, filter
shape and catalogue history, because the candidate set decides which pages a
query reads and what ``QueryStats`` reports.

Also here: the bit-sliced :class:`~repro.core.bloom.BloomFilterBank` against
per-filter probes, the memory and page accounting of the index, and the two
scale-free guards CI's ``bench`` job runs (prefilter cost does not follow the
run count; ``.first()`` on a wide window opens a handful of runs).
"""

from __future__ import annotations

import random
import time
from typing import List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Backlog, BacklogConfig, MemoryBackend, QuerySpec, recover_backlog
from repro.core.bloom import (
    MAX_RANGE_BLOCKS,
    BloomFilter,
    BloomFilterBank,
    hash_pair,
    range_probe_keys,
)
from repro.core.catalogue import Catalogue, CatalogueSnapshot
from repro.core.deletion_vector import DeletionVector
from repro.core.lsm import RunManager, run_name
from repro.core.read_store import ReadStoreReader, ReadStoreWriter
from repro.core.records import CombinedRecord, FromRecord, ToRecord
from repro.core.write_store import WriteStore

FILTER_BITS = (1024, 2048, 8192, 65536)         # 1 Kbit .. 64 Kbit
BLOCK_SPACE = 2400

_RECORD = {
    "from": lambda block: FromRecord(block, 1, 0, 0, 1),
    "to": lambda block: ToRecord(block, 1, 0, 0, 2),
    "combined": lambda block: CombinedRecord(block, 1, 0, 0, 1, 2),
}


def reference_walk(snapshot: CatalogueSnapshot, partitions: Sequence[int],
                   first_block: int, num_blocks: int) -> List[ReadStoreReader]:
    """The replaced prefilter: per run, the fence, then the run's own filter."""
    return [run for partition in partitions for run in snapshot.runs_for(partition)
            if run.might_contain_range(first_block, num_blocks)]


def _catalogue(manager: RunManager) -> Catalogue:
    return Catalogue(manager, WriteStore("from"), WriteStore("to"), DeletionVector())


def _write_run(manager: RunManager, partition: int, table: str, blocks: Sequence[int],
               num_bits: int) -> ReadStoreReader:
    """A run file over ``blocks``, opened with a filter of the given shape."""
    blocks = sorted(blocks)
    name = run_name(partition, table, "L0", manager.next_sequence())
    ReadStoreWriter(manager.backend, name, table).build(
        [_RECORD[table](block) for block in blocks])
    bloom = BloomFilter(num_bits, 4)
    bloom.add_many(blocks)
    return ReadStoreReader(manager.backend, name, bloom=bloom)


# One run: where its blocks cluster (so fences differ and overlap), how many,
# and the shape of its filter.
_runs = st.lists(
    st.tuples(
        st.sampled_from(["from", "to", "combined"]),
        st.integers(0, BLOCK_SPACE - 1),            # lowest block
        st.integers(1, 700),                        # spread
        st.integers(1, 40),                         # blocks
        st.sampled_from(FILTER_BITS),
        st.integers(0, 2**32),                      # the run's own seed
    ),
    max_size=14,
)

# The four range classes: a point, per-block keys, stride keys, fence only.
_widths = st.one_of(st.just(1), st.integers(2, 16), st.integers(17, MAX_RANGE_BLOCKS),
                    st.integers(MAX_RANGE_BLOCKS + 1, 2 * BLOCK_SPACE))
_queries = st.lists(st.tuples(st.integers(0, BLOCK_SPACE + 300), _widths),
                    min_size=1, max_size=12)


def _blocks_of(description: Tuple) -> List[int]:
    _table, low, spread, count, _bits, seed = description
    rng = random.Random(seed)
    return sorted({low + rng.randrange(spread) for _ in range(count)})


def _edge_queries(runs: Sequence[ReadStoreReader]) -> List[Tuple[int, int]]:
    """Ranges that touch, and just miss, each run's ``[min_block, max_block]``."""
    queries = []
    for run in runs:
        for width in (1, 7, 40, MAX_RANGE_BLOCKS + 44):
            for first in (run.min_block - width,        # first + n == min_block
                          run.min_block - width + 1,
                          run.max_block,                # first == max_block
                          run.max_block + 1):
                if first >= 0:
                    queries.append((first, width))
    return queries


def _assert_matches_walk(snapshot: CatalogueSnapshot,
                         queries: Sequence[Tuple[int, int]]) -> None:
    partitions = snapshot.partitions() + [max(snapshot.partitions(), default=0) + 5]
    for first_block, num_blocks in queries:
        for asked in (partitions, partitions[:1], partitions[-1:]):
            assert snapshot.runs_for_block_range(asked, first_block, num_blocks) \
                == reference_walk(snapshot, asked, first_block, num_blocks), \
                (asked, first_block, num_blocks)


class TestBloomFilterBank:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FILTER_BITS),
           st.lists(st.lists(st.integers(0, 5000), max_size=60), min_size=1, max_size=20),
           st.lists(st.integers(0, 5200), min_size=1, max_size=40), st.integers(0, 19))
    def test_probe_answers_for_every_member(self, num_bits, members, keys, cut):
        """Bit ``8 * i`` of a probe is member ``i``'s own ``might_contain``."""
        filters = []
        for blocks in members:
            bloom = BloomFilter(num_bits, 4)
            bloom.add_many(sorted(blocks))
            filters.append(bloom)
        cut = min(cut, len(filters) - 1)
        bank = BloomFilterBank(filters[:cut + 1]).extended(filters[cut + 1:])
        assert len(bank) == len(filters)
        assert bank.size_bytes == sum(bloom.size_bytes for bloom in filters)
        for key in keys:
            hits = bank.probe([hash_pair(key)])
            assert [index for index in range(len(filters)) if hits >> (8 * index) & 1] \
                == [index for index, bloom in enumerate(filters) if bloom.might_contain(key)]
            assert not hits & ~int.from_bytes(b"\x01" * len(filters), "little")
        # Several keys: any one present admits the member, as a range probe does.
        for first in keys[:6]:
            hits = bank.probe([hash_pair(key) for key in range_probe_keys(first, 40)])
            assert [index for index in range(len(filters)) if hits >> (8 * index) & 1] \
                == [index for index, bloom in enumerate(filters)
                    if bloom.might_contain_range(first, 40)]

    def test_members_must_share_a_shape(self):
        small, large = BloomFilter(1024), BloomFilter(2048)
        for odd in (large, BloomFilter(1024, num_hashes=3)):
            try:
                BloomFilterBank([small, odd])
            except ValueError:
                pass
            else:
                raise AssertionError("a bank accepted filters of two shapes")
            try:
                BloomFilterBank([small]).extended([odd])
            except ValueError:
                continue
            raise AssertionError("a bank was extended with another shape")


class TestIndexMatchesReferenceWalk:
    @settings(max_examples=60, deadline=None)
    @given(_runs, _runs, _queries)
    def test_any_partition_any_range(self, first_partition, second_partition, queries):
        """Mixed filter sizes, all four range classes, edges."""
        manager = RunManager(MemoryBackend())
        for partition, descriptions in ((0, first_partition), (3, second_partition)):
            for description in descriptions:
                manager.add_run(partition, description[0], _write_run(
                    manager, partition, description[0], _blocks_of(description),
                    description[4]))
        with _catalogue(manager).select() as snapshot:
            runs = [run for p in snapshot.partitions() for run in snapshot.runs_for(p)]
            _assert_matches_walk(snapshot, list(queries) + _edge_queries(runs))
            # Asked again, the memoised index answers the same.
            _assert_matches_walk(snapshot, queries)

    def test_empty_catalogue_and_single_run(self):
        manager = RunManager(MemoryBackend())
        catalogue = _catalogue(manager)
        with catalogue.select() as snapshot:
            assert snapshot.runs_for_block_range([0, 1], 0, 10) == []
        only = _write_run(manager, 0, "from", [10, 20, 30], 1024)
        manager.add_run(0, "from", only)
        with catalogue.select() as snapshot:
            assert snapshot.runs_for_block_range([0], 20, 1) == [only]
            assert snapshot.runs_for_block_range([0], 0, 10) == []          # ends at min_block
            assert snapshot.runs_for_block_range([0], 0, 11) == [only]
            assert snapshot.runs_for_block_range([0], 30, 500) == [only]    # starts at max_block
            assert snapshot.runs_for_block_range([0], 31, 500) == []
            assert snapshot.runs_for_block_range([0], 20, 0) == []
            _assert_matches_walk(snapshot, _edge_queries([only]))

    @settings(max_examples=25, deadline=None)
    @given(_runs, st.lists(st.tuples(st.sampled_from(["add", "add", "replace", "quarantine"]),
                                     _runs.filter(bool).map(lambda runs: runs[0])),
                           min_size=1, max_size=6), _queries)
    def test_catalogue_mutations_never_serve_a_stale_index(self, initial, steps, queries):
        """After every ``add_run`` / ``replace_partition`` / ``quarantine_run``
        a new snapshot answers for the new run list, and every snapshot pinned
        earlier still answers for its own."""
        manager = RunManager(MemoryBackend())
        catalogue = _catalogue(manager)

        def add(description):
            reader = _write_run(manager, 0, description[0], _blocks_of(description),
                                description[4])
            manager.add_run(0, description[0], reader)
            return reader

        for description in initial:
            add(description)
        pinned = [catalogue.select()]
        try:
            _assert_matches_walk(pinned[0], queries)
            for action, description in steps:
                before = manager.runs_for(0)
                if action == "add":
                    add(description)
                elif action == "replace":
                    keep = {"from": [], "to": [], "combined": []}
                    keep[description[0]].append(_write_run(
                        manager, 0, description[0], _blocks_of(description),
                        description[4]))
                    manager.replace_partition(0, keep)
                elif before:
                    assert manager.quarantine_run(before[description[1] % len(before)].name)
                snapshot = catalogue.select()
                pinned.append(snapshot)
                assert snapshot.runs_for(0) == manager.runs_for(0)
                every = list(queries) + _edge_queries(snapshot.runs_for(0))
                for held in pinned:
                    _assert_matches_walk(held, every)
        finally:
            for snapshot in pinned:
                snapshot.release()

    def test_untouched_partitions_keep_their_index_and_added_runs_extend_it(self):
        manager = RunManager(MemoryBackend())
        catalogue = _catalogue(manager)
        for partition in (0, 1):
            for low in (0, 100, 200):
                manager.add_run(partition, "from", _write_run(
                    manager, partition, "from", range(low, low + 50), 1024))
        with catalogue.select() as snapshot:
            snapshot.runs_for_block_range([0, 1], 10, 1)
            built = dict(snapshot._index)
        assert sorted(built) == [0, 1]
        added = _write_run(manager, 1, "from", range(300, 350), 1024)
        manager.add_run(1, "from", added)
        with catalogue.select() as snapshot:
            assert snapshot._index is not built
            assert snapshot.runs_for_block_range([0, 1], 310, 1) == [added]
            assert snapshot._index[0] is built[0]           # carried over as it is
            extended = snapshot._index[1]
            assert extended is not built[1] and extended.runs is snapshot.runs_for(1)
            (bank, members), = extended._banks.values()     # one shape: one bank, grown
            assert members[-1] is added and len(bank) == 4
            _assert_matches_walk(snapshot, [(0, 1), (310, 1), (120, 30), (0, 1000)])


class TestAccounting:
    def test_reported_bloom_memory_covers_the_index(self):
        backlog = Backlog(MemoryBackend(), BacklogConfig(partition_size_blocks=1024))
        for cp in range(6):
            for block in range(cp * 40, cp * 40 + 40):
                backlog.add_reference(block, 1, block)
            backlog.checkpoint()
        manager = backlog.run_manager
        filters = sum(run.bloom.size_bytes for run in manager.runs_for(0))
        assert manager.bloom_memory_bytes() == filters          # nothing indexed yet
        footprint = backlog.memory_footprint_bytes()
        assert backlog.query(17)
        snapshot = backlog.catalogue.select()
        index_bytes = snapshot._index[0].size_bytes
        snapshot.release()
        assert index_bytes == filters                           # a second copy of the bits
        assert manager.bloom_memory_bytes() == filters + index_bytes
        assert backlog.memory_footprint_bytes() >= footprint + index_bytes
        backlog.maintain()      # the retired runs' index goes with them
        assert manager.bloom_memory_bytes() == sum(
            run.bloom.size_bytes for run in manager.runs_for(0))

    def test_filters_recovery_left_on_disk_load_inside_the_first_querys_tally(self):
        backend = MemoryBackend()
        config = BacklogConfig(partition_size_blocks=1024)
        backlog = Backlog(backend, config)
        for cp in range(5):
            for block in range(cp * 30, cp * 30 + 30):
                backlog.add_reference(block, 1, block)
            backlog.checkpoint()
        expected = backlog.query(42)
        recovered = recover_backlog(backend, config=config)
        runs = recovered.run_manager.runs_for(0)
        assert len(runs) == 5 and all(run._bloom is None for run in runs)
        stats = recovered.stats.query
        device_before, tallied_before = backend.stats.pages_read, stats.pages_read
        assert recovered.query(42) == expected
        assert all(run._bloom is not None for run in runs)      # loaded by the index build
        first_query = stats.pages_read - tallied_before
        assert first_query == backend.stats.pages_read - device_before
        assert first_query >= sum(run.bloom_num_pages for run in runs)
        recovered.cache.clear()
        tallied_before = stats.pages_read
        assert recovered.query(42) == expected
        assert stats.pages_read - tallied_before \
            == first_query - sum(run.bloom_num_pages for run in runs)


# --------------------------------------------------------- scale-free guards


def _aged_partition(runs: int, seed: int = 7) -> Tuple[RunManager, List[int]]:
    """One partition of ``runs`` same-shaped runs, ~2.5 of which hold any block."""
    rng = random.Random(seed)
    manager = RunManager(MemoryBackend())
    blocks_per_run = 60
    space = runs * blocks_per_run * 2 // 5
    for index in range(runs):
        blocks = sorted({rng.randrange(space) for _ in range(blocks_per_run)})
        manager.add_run(0, "from" if index % 2 else "to",
                        _write_run(manager, 0, "from" if index % 2 else "to",
                                   blocks, 2048))
    return manager, [rng.randrange(space) for _ in range(300)]


def _prefilter_seconds(manager: RunManager, blocks: Sequence[int]) -> float:
    with _catalogue(manager).select() as snapshot:
        partitions = [0]
        snapshot.runs_for_block_range(partitions, blocks[0], 1)     # build the index
        best = float("inf")
        for _ in range(9):
            start = time.perf_counter()
            for block in blocks:
                snapshot.runs_for_block_range(partitions, block, 1)
            best = min(best, time.perf_counter() - start)
    return best


def test_prefilter_cost_does_not_follow_the_run_count():
    """16x the runs of one shape costs a point prefilter < 4x, not ~16x.

    A ratio inside one process, minimum of several passes, no absolute
    threshold: a per-run interpreted probe behind ``runs_for_block_range``
    reads ~16 here; the bit-sliced index reads under 2.
    """
    few_manager, few_blocks = _aged_partition(8)
    many_manager, many_blocks = _aged_partition(128)
    ratio = min(_prefilter_seconds(many_manager, many_blocks)
                / _prefilter_seconds(few_manager, few_blocks) for _ in range(3))
    assert ratio < 4.0, f"128-run / 8-run prefilter cost ratio {ratio:.1f}"


def test_first_on_a_wide_window_opens_a_handful_of_runs():
    """``.first()`` over 4 096 blocks of a 128-run partition: exact counts.

    It probes at most 16 runs (the whole-window gather opened all ~128), and
    reads no more pages than the narrow queries over the head windows it went
    through -- the empty ones before its first owner, and the one holding it.
    """
    backlog = Backlog(MemoryBackend(), BacklogConfig(partition_size_blocks=1 << 16))
    rng = random.Random(11)
    live = set()
    for cp in range(65):
        # Only references flushed by an earlier CP are removed, so every CP
        # after the first writes a To run beside its From run.
        for block in rng.sample(sorted(live), min(6, len(live))):
            backlog.remove_reference(block, 1, block)
            live.remove(block)
        for _ in range(30):
            block = 64 + rng.randrange(6000)
            if block not in live:
                live.add(block)
                backlog.add_reference(block, 1, block)
        backlog.checkpoint()
    assert len(backlog.run_manager.runs_for(0)) >= 128
    stats = backlog.stats.query

    def cold(query) -> Tuple[object, int, int]:
        backlog.cache.clear()
        pages, probed = stats.pages_read, stats.runs_probed
        answer = query()
        return answer, stats.pages_read - pages, stats.runs_probed - probed

    for first_block in (0, 63, min(live), sorted(live)[len(live) // 2], 2000, 5000):
        expected = backlog.query_range(first_block, 4096)[0]
        answer, pages, probed = cold(
            lambda: backlog.select(QuerySpec(first_block, 4096)).first())
        assert answer == expected
        assert probed <= 16, (first_block, probed)
        allowance, block, width = 0, first_block, 1
        while block <= expected.block:
            allowance += cold(lambda: backlog.query_range(block, width))[1]
            block, width = block + width, width * 2
        assert pages <= allowance, (first_block, pages, allowance)
