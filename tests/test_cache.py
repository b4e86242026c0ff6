"""Tests for the LRU page cache."""

from __future__ import annotations

import time

import pytest

from repro.fsim.blockdev import MemoryBackend, PAGE_SIZE
from repro.fsim.cache import PageCache


def _backend_with_file(name="f", pages=10):
    backend = MemoryBackend()
    page_file = backend.create(name)
    for index in range(pages):
        page_file.append_page(bytes([index]) * 16)
    return backend, page_file


class TestPageCache:
    def test_hit_after_miss(self):
        backend, page_file = _backend_with_file()
        cache = PageCache(1024 * 1024)
        first = cache.read_page(page_file, 3)
        second = cache.read_page(page_file, 3)
        assert first == second
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert backend.stats.pages_read == 1  # only the miss touched the backend

    def test_eviction_at_capacity(self):
        backend, page_file = _backend_with_file(pages=10)
        cache = PageCache(3 * PAGE_SIZE)
        for index in range(10):
            cache.read_page(page_file, index)
        assert len(cache) == 3
        assert cache.stats.evictions == 7
        assert cache.used_bytes == 3 * PAGE_SIZE

    def test_lru_order(self):
        _, page_file = _backend_with_file(pages=4)
        cache = PageCache(2 * PAGE_SIZE)
        cache.read_page(page_file, 0)
        cache.read_page(page_file, 1)
        cache.read_page(page_file, 0)      # page 0 becomes most recent
        cache.read_page(page_file, 2)      # evicts page 1
        assert cache.peek(page_file.name, 0) is not None
        assert cache.peek(page_file.name, 1) is None

    def test_zero_capacity_disables_caching(self):
        backend, page_file = _backend_with_file()
        cache = PageCache(0)
        cache.read_page(page_file, 0)
        cache.read_page(page_file, 0)
        assert backend.stats.pages_read == 2
        assert len(cache) == 0

    def test_invalidate_file(self):
        backend, page_file = _backend_with_file(name="a")
        other_file = backend.create("b")
        other_file.append_page(b"other")
        cache = PageCache(1024 * 1024)
        cache.read_page(page_file, 0)
        cache.read_page(other_file, 0)
        cache.invalidate_file("a")
        assert cache.peek("a", 0) is None
        assert cache.peek("b", 0) is not None

    def test_clear_and_hit_ratio(self):
        _, page_file = _backend_with_file()
        cache = PageCache(1024 * 1024)
        assert cache.stats.hit_ratio == 0.0
        cache.read_page(page_file, 0)
        cache.read_page(page_file, 0)
        assert cache.stats.hit_ratio == pytest.approx(0.5)
        cache.clear()
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PageCache(-1)


class TestInvalidateFileIndex:
    """`invalidate_file` behaviour after the per-file key-index refactor."""

    def test_invalidate_drops_only_that_file(self):
        backend = MemoryBackend()
        files = []
        for name in ("a", "b", "c"):
            page_file = backend.create(name)
            for index in range(4):
                page_file.append_page(name.encode() * (index + 1))
            files.append(page_file)
        cache = PageCache(1024 * 1024)
        for page_file in files:
            for index in range(4):
                cache.read_page(page_file, index)
        cache.invalidate_file("b")
        assert len(cache) == 8
        for index in range(4):
            assert cache.peek("a", index) is not None
            assert cache.peek("b", index) is None
            assert cache.peek("c", index) is not None

    def test_invalidate_unknown_file_is_noop(self):
        backend, page_file = _backend_with_file()
        cache = PageCache(1024 * 1024)
        cache.read_page(page_file, 0)
        cache.invalidate_file("never-cached")
        assert len(cache) == 1

    def test_index_survives_evictions(self):
        """Pages evicted by LRU must leave the file index consistent."""
        backend, page_file = _backend_with_file(pages=10)
        cache = PageCache(3 * PAGE_SIZE)
        for index in range(10):
            cache.read_page(page_file, index)
        # Pages 0..6 were evicted; invalidation must only touch 7, 8, 9 and
        # must not fail on the evicted ones.
        cache.invalidate_file(page_file.name)
        assert len(cache) == 0
        # The cache still works afterwards.
        cache.read_page(page_file, 0)
        assert cache.peek(page_file.name, 0) is not None

    def test_invalidate_then_reread_misses(self):
        backend, page_file = _backend_with_file()
        cache = PageCache(1024 * 1024)
        cache.read_page(page_file, 2)
        cache.invalidate_file(page_file.name)
        cache.read_page(page_file, 2)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_interleaved_invalidations_and_evictions(self):
        """Stress the index: many files, invalidations between evictions."""
        backend = MemoryBackend()
        files = []
        for n in range(6):
            page_file = backend.create(f"f{n}")
            for index in range(5):
                page_file.append_page(bytes([n, index]))
            files.append(page_file)
        cache = PageCache(8 * PAGE_SIZE)
        for round_number in range(3):
            for page_file in files:
                for index in range(5):
                    cache.read_page(page_file, index)
                if round_number == 1:
                    cache.invalidate_file(page_file.name)
        assert len(cache) <= 8
        # Internal consistency: every cached entry is tracked by the index
        # and vice versa.
        indexed = {(name, page) for name, pages in cache._file_pages.items()
                   for page in pages}
        assert indexed == set(cache._entries)

    def test_capacity_zero_invalidate_passthrough(self):
        backend, page_file = _backend_with_file()
        cache = PageCache(0)
        cache.read_page(page_file, 0)
        cache.invalidate_file(page_file.name)  # nothing cached: no-op
        assert len(cache) == 0
        assert cache.stats.misses == 2 - 1  # only the one read so far


def _invalidate_seconds(other_files: int, pages_per_file: int = 48) -> float:
    """Fastest ``invalidate_file`` of one file beside ``other_files`` cached ones."""
    backend = MemoryBackend()
    page_files = []
    for number in range(other_files + 1):
        page_file = backend.create(f"f{number}")
        for index in range(pages_per_file):
            page_file.append_page(bytes([number, index]))
        page_files.append(page_file)
    cache = PageCache((other_files + 1) * pages_per_file * PAGE_SIZE)
    for page_file in page_files:
        for index in range(pages_per_file):
            cache.read_page(page_file, index)
    victim = page_files[0]
    best = float("inf")
    for _ in range(40):
        start = time.perf_counter()
        cache.invalidate_file(victim.name)
        best = min(best, time.perf_counter() - start)
        assert len(cache) == other_files * pages_per_file
        for index in range(pages_per_file):
            cache.read_page(victim, index)
    return best


def test_invalidate_cost_ignores_other_files_pages():
    """Dropping one file's 48 pages beside 60 other cached files costs < 5x
    what it costs beside 1, not the ~30x of a scan over every cached page.

    A ratio inside one process, minimum of several passes, no absolute
    threshold -- compaction calls this once per retired run, so a cost that
    followed the cache size would make cleanup quadratic.
    """
    ratio = min(_invalidate_seconds(60) / _invalidate_seconds(1) for _ in range(3))
    assert ratio < 5.0, f"60-file / 1-file invalidate_file cost ratio {ratio:.1f}"


class TestCacheStatsAccounting:
    def test_clear_preserves_stats(self):
        """Benchmarks clear the cache between batches but keep the counters."""
        backend, page_file = _backend_with_file()
        cache = PageCache(1024 * 1024)
        cache.read_page(page_file, 0)
        cache.read_page(page_file, 0)
        cache.clear()
        assert len(cache) == 0
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        # After clear() the same page misses again and the index repopulates.
        cache.read_page(page_file, 0)
        assert cache.stats.misses == 2
        assert cache.peek(page_file.name, 0) is not None

    def test_reset_zeroes_all_counters(self):
        backend, page_file = _backend_with_file(pages=5)
        cache = PageCache(2 * PAGE_SIZE)
        for index in range(5):
            cache.read_page(page_file, index)
        assert cache.stats.evictions == 3
        cache.stats.reset()
        assert (cache.stats.hits, cache.stats.misses, cache.stats.evictions) == (0, 0, 0)
        assert cache.stats.accesses == 0
        assert cache.stats.hit_ratio == 0.0
        # Entries survive a stats reset; only counters are zeroed.
        assert len(cache) == 2

    def test_eviction_counter_tracks_lru_evictions(self):
        backend, page_file = _backend_with_file(pages=6)
        cache = PageCache(2 * PAGE_SIZE)
        for index in range(6):
            cache.read_page(page_file, index)
        assert cache.stats.evictions == 4
        assert cache.stats.misses == 6
        assert cache.stats.hits == 0
