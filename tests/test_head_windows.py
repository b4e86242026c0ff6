"""Head windows: a wide cursor enters an aged partition a few blocks at a time.

When a window is wider than the Bloom filters answer for and its first
partition holds more candidate runs than ``HEAD_WINDOW_MIN_RUNS``, the cursor
arm runs the pipeline over sub-windows of 1, 2, 4, ... 256 blocks before the
remainder (``QueryEngine._head_window_owners``).  That must change nothing a
consumer can see.  The reference here is the same engine with the threshold
out of reach -- the whole window gathered at once, as before -- held equal on
live instances: the owner stream, every page and resume token of a paginated
pass (parked pipelines included), ``.first()`` against the head of ``.all()``,
serially and with the gather fanned out over four workers, and never a page
read more.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import query as query_module
from repro.core.backlog import Backlog
from repro.core.config import BacklogConfig
from repro.core.cursor import QuerySpec
from repro.core.masking import ExplicitVersionAuthority
from repro.fsim.blockdev import MemoryBackend

from test_streaming_equivalence import _all_blocks, _random_ops, _replay

SEED = 13


def _aged_backlog(query_workers: int) -> Tuple[Backlog, int]:
    """24 unmaintained CPs over three 1 024-block partitions (~30 runs each)."""
    authority = ExplicitVersionAuthority()
    backlog = Backlog(
        backend=MemoryBackend(),
        config=BacklogConfig(partition_size_blocks=1024, query_workers=query_workers),
        version_authority=authority)
    ops = _random_ops(SEED, num_cps=24)
    _replay(backlog, authority, ops)
    assert len(backlog.run_manager.runs_for(0)) > query_module.HEAD_WINDOW_MIN_RUNS
    return backlog, max(_all_blocks(ops)) + 1


#: Hypothesis shares prebuilt instances: workload replay dominates runtime.
_INSTANCES = {workers: _aged_backlog(workers) for workers in (1, 4)}


@contextmanager
def whole_window(backlog: Backlog):
    """The reference: no head windows, every wide window gathered at once."""
    engine = backlog._query_engine
    engine.invalidate_parked_cursors()      # pipelines parked by the other mode
    threshold = query_module.HEAD_WINDOW_MIN_RUNS
    query_module.HEAD_WINDOW_MIN_RUNS = 10 ** 9
    try:
        yield
    finally:
        query_module.HEAD_WINDOW_MIN_RUNS = threshold
        engine.invalidate_parked_cursors()


def _cold(backlog: Backlog, query):
    """``query()`` from an empty page cache, with the pages it was charged."""
    backlog.cache.clear()
    before = backlog.stats.query.pages_read
    answer = query()
    return answer, backlog.stats.query.pages_read - before


def _paginate(backlog: Backlog, spec: QuerySpec, page_size: int) -> List[Tuple]:
    """Every page of a paginated pass with the token it handed out."""
    pages, token = [], None
    while True:
        result = backlog.select(spec.with_limit(page_size).after(token))
        owners = result.all()
        token = result.resume_token
        pages.append((owners, token))
        if token is None:
            return pages


_specs = st.builds(
    dict,
    first=st.integers(0, 1500),
    width=st.integers(257, 2000),
    live_only=st.booleans(),
    inode=st.one_of(st.none(), st.integers(1, 4)),
    line=st.one_of(st.none(), st.integers(0, 3)),
    version=st.one_of(st.none(), st.integers(1, 24)),
)


def _spec(first, width, live_only, inode, line, version) -> QuerySpec:
    spec = QuerySpec(first, width, live_only=live_only,
                     inodes=None if inode is None else frozenset({inode}),
                     lines=None if line is None else frozenset({line}))
    return spec if version is None else spec.at_version(version)


@settings(max_examples=60, deadline=None)
@given(workers=st.sampled_from([1, 4]), parts=_specs,
       limit=st.one_of(st.none(), st.integers(1, 12)), page_size=st.integers(1, 40))
def test_head_windows_change_nothing_a_consumer_sees(workers, parts, limit, page_size):
    backlog, _top = _INSTANCES[workers]
    spec = _spec(**parts)
    bounded = spec if limit is None else spec.with_limit(limit)
    with whole_window(backlog):
        expected, expected_pages = _cold(backlog, lambda: backlog.select(bounded).all())
        expected_paginated = _paginate(backlog, spec, page_size)
        expected_first, expected_first_pages = _cold(
            backlog, lambda: backlog.select(spec).first())

    answer, pages_read = _cold(backlog, lambda: backlog.select(bounded).all())
    assert answer == expected
    assert pages_read <= expected_pages
    # Page by page, tokens included; every page after the first resumes the
    # pipeline the page before it parked.
    hits = backlog.stats.query.resume_cache_hits
    paginated = _paginate(backlog, spec, page_size)
    assert paginated == expected_paginated
    assert backlog.stats.query.resume_cache_hits - hits == len(paginated) - 1
    # ... and re-entered from the token alone.
    backlog._query_engine.invalidate_parked_cursors()
    for (_, token), (following, _) in list(zip(paginated, paginated[1:]))[:3]:
        assert backlog.select(spec.with_limit(page_size).after(token)).all() == following
        backlog._query_engine.invalidate_parked_cursors()
    first, first_pages = _cold(backlog, lambda: backlog.select(spec).first())
    assert first == expected_first
    if limit is None:
        assert first == (expected[0] if expected else None)
    assert first_pages <= expected_first_pages


@pytest.mark.parametrize("workers", [1, 4])
def test_wide_windows_over_the_aged_partitions_do_take_head_windows(workers, monkeypatch):
    """The property above is not vacuous."""
    backlog, top = _INSTANCES[workers]
    engine = backlog._query_engine
    taken = []
    original = engine._head_window_owners

    def counted(*args, **kwargs):
        taken.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "_head_window_owners", counted)
    for first_block in range(0, top - 300, 97):
        expected = backlog.query_range(first_block, top - first_block)
        assert backlog.select(QuerySpec(first_block, top - first_block)).first() == expected[0]
        assert backlog.select(QuerySpec(first_block, top - first_block)).all() == expected
    assert len(taken) >= 10
    # Narrow enough for the filters, or few enough runs: gathered whole.
    taken.clear()
    backlog.select(QuerySpec(0, 256)).all()
    assert not taken


def test_windows_cover_the_range_once_in_order():
    """1, 2, 4, ... 256 blocks, then the rest; clamped to a short range."""
    backlog, _top = _INSTANCES[1]
    engine = backlog._query_engine
    seen: List[Tuple[int, int, Optional[Tuple]]] = []

    def record(snapshot, runs, first_block, num_blocks, start_key, spec):
        seen.append((first_block, num_blocks, start_key))
        return iter(())

    original = engine._cursor_owners
    engine._cursor_owners = record
    try:
        with backlog.catalogue.select() as snapshot:
            list(engine._head_window_owners(snapshot, 10, 4096, (10, 3, 0, 0, 0), QuerySpec(10, 4096)))
            assert seen[0] == (10, 1, (10, 3, 0, 0, 0))
            assert [width for _, width, _ in seen] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 4096 - 511]
            assert all(start_key is None for _, _, start_key in seen[1:])
            assert all(seen[i][0] + seen[i][1] == seen[i + 1][0] for i in range(len(seen) - 1))
            del seen[:]
            list(engine._head_window_owners(snapshot, 0, 300, None, QuerySpec(0, 300)))
            assert [width for _, width, _ in seen] == [1, 2, 4, 8, 16, 32, 64, 128, 45]
    finally:
        engine._cursor_owners = original
