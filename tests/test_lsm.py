"""Tests for the stepped-merge run catalogue."""

from __future__ import annotations

import time

import pytest

from repro.core.bloom import DEFAULT_FILTER_BITS
from repro.core.lsm import RunManager, merge_sorted_runs, run_name
from repro.core.records import FromRecord, ToRecord, rows_to_records
from repro.fsim.blockdev import MemoryBackend
from repro.fsim.cache import PageCache

from test_run_index import _catalogue


def _records(blocks, cp=1):
    return [FromRecord(block, 1, 0, 0, cp) for block in sorted(blocks)]


class TestRunName:
    def test_format(self):
        assert run_name(3, "from", "L0", 12) == "p000003/from/L0_0000000012"

    def test_names_sort_by_partition(self):
        names = [run_name(p, "from", "L0", 1) for p in (10, 2, 0)]
        assert sorted(names) == [run_name(0, "from", "L0", 1),
                                 run_name(2, "from", "L0", 1),
                                 run_name(10, "from", "L0", 1)]


class TestMergeSortedRuns:
    def test_merges_in_order(self):
        a = iter(_records([1, 5, 9]))
        b = iter(_records([2, 5, 10]))
        merged = list(merge_sorted_runs([a, b]))
        assert [r.block for r in merged] == [1, 2, 5, 5, 9, 10]

    def test_empty_and_single(self):
        assert list(merge_sorted_runs([])) == []
        assert [r.block for r in merge_sorted_runs([iter(_records([3, 4]))])] == [3, 4]


class TestRunManager:
    def test_write_run_and_query(self):
        manager = RunManager(MemoryBackend())
        reader = manager.write_run(0, "from", "L0", _records(range(50)), 1024 * 8)
        assert reader is not None
        assert manager.run_count() == 1
        assert manager.run_count("from") == 1
        assert manager.run_count("to") == 0
        assert manager.partitions() == [0]
        assert manager.total_records() == 50

    def test_write_empty_run_is_noop(self):
        manager = RunManager(MemoryBackend())
        assert manager.write_run(0, "from", "L0", [], 1024 * 8) is None
        assert manager.run_count() == 0

    def test_unknown_table_rejected(self):
        manager = RunManager(MemoryBackend())
        with pytest.raises(ValueError):
            manager.add_run(0, "bogus", None)

    def test_runs_for_block_range_uses_bloom(self):
        manager = RunManager(MemoryBackend())
        low = manager.write_run(0, "from", "L0", _records(range(0, 100)), 1024 * 8)
        high = manager.write_run(0, "from", "L0", _records(range(5_000, 5_100)), 1024 * 8)
        with _catalogue(manager).select() as snapshot:
            assert snapshot.runs_for_block_range([0], 10, 5) == [low]
            assert snapshot.runs_for_block_range([0], 5_050, 5) == [high]
            assert snapshot.runs_for_block_range([0], 200_000, 5) == []
            assert snapshot.runs_for_block_range([0], 0, 6_000) == [low, high]
            assert snapshot.runs_for_block_range([1], 10, 5) == []

    def test_iter_table_merges_runs(self):
        """A table's runs merge row by row, as compaction reads them."""
        manager = RunManager(MemoryBackend())
        manager.write_run(0, "from", "L0", _records([1, 4, 7]), 1024 * 8)
        manager.write_run(0, "from", "L0", _records([2, 4, 9]), 1024 * 8)

        def table_rows(table):
            return merge_sorted_runs([run.iter_rows() for run in manager.runs_for(0, table)])

        merged = rows_to_records(list(table_rows("from")), FromRecord)
        assert [r.block for r in merged] == [1, 2, 4, 4, 7, 9]
        assert list(table_rows("to")) == []

    def test_replace_partition_deletes_old_files(self):
        backend = MemoryBackend()
        cache = PageCache(1024 * 1024)
        manager = RunManager(backend, cache=cache)
        manager.write_run(0, "from", "L0", _records(range(20)), 1024 * 8)
        manager.write_run(0, "to", "L0", [ToRecord(1, 1, 0, 0, 2)], 1024 * 8)
        old_names = [run.name for run in manager.runs_for(0)]
        replacement = manager.write_run(1, "from", "L0", _records([500]), 1024 * 8)
        # Swap in an empty partition 0.
        deleted = manager.replace_partition(0, {"from": [], "to": [], "combined": []})
        assert sorted(deleted) == sorted(old_names)
        for name in old_names:
            assert not backend.exists(name)
        assert manager.runs_for(0) == []
        assert manager.runs_for(1) == [replacement]

    def test_level0_run_count_and_sizes(self):
        manager = RunManager(MemoryBackend())
        manager.write_run(0, "from", "L0", _records(range(10)), 1024 * 8)
        manager.write_run(0, "to", "L0", [ToRecord(2, 1, 0, 0, 3)], 1024 * 8)
        assert manager.level0_run_count() == 2
        assert manager.total_size_bytes() > 0
        assert manager.bloom_memory_bytes() > 0

    def test_partitioned_runs_are_separate(self):
        manager = RunManager(MemoryBackend())
        manager.write_run(0, "from", "L0", _records([5]), 1024 * 8)
        manager.write_run(3, "from", "L0", _records([3 * (1 << 20) + 7]), 1024 * 8)
        assert manager.partitions() == [0, 3]
        assert len(manager.runs_for(0)) == 1
        assert len(manager.runs_for(3)) == 1

    def test_small_run_cost_ignores_the_configured_filter_size(self):
        """Scale-free guard: a 1-record run built with the default 32 KB
        ``run_bloom_bits`` costs about what it costs with a 1 Kbit filter
        (the ratio was ~20 while every run folded a full-size filter down
        with an interpreted loop)."""
        manager = RunManager(MemoryBackend(), PageCache(1 << 20))

        def fastest(bloom_bits):
            best = float("inf")
            for _ in range(30):
                name = run_name(0, "from", "L0", manager.next_sequence())
                start = time.perf_counter()
                manager.build_run(name, "from", _records([7]), bloom_bits)
                best = min(best, time.perf_counter() - start)
            return best

        assert fastest(DEFAULT_FILTER_BITS) < 5 * fastest(1024)

    def test_build_run_opens_the_run_once(self):
        backend = MemoryBackend()
        cache = PageCache(1 << 20)
        reader = RunManager(backend, cache).build_run(
            run_name(0, "from", "L0", 1), "from", _records(range(10)), 1024 * 8)
        assert reader.cache is cache
        assert backend.stats.pages_read == 1 == cache.stats.misses
