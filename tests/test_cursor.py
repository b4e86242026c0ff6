"""The cursor query surface: QuerySpec/QueryResult semantics and equivalence.

Three layers of coverage:

* **Unit semantics** -- QuerySpec validation and derivation, resume-token
  round trips, QueryResult's iterator/terminal/limit/resume state machine.
* **Differential equivalence** -- over the same seeded randomized workloads
  the streaming-equivalence suite uses (and hypothesis-chosen specs), every
  filtered/paginated ``select`` must return exactly what post-filtering the
  legacy list surface returns, with the size dispatch both enabled and
  disabled.
* **Resource behaviour** -- pagination across checkpoint/maintenance
  boundaries, and tracemalloc flatness of a paginated whole-device scan
  (the transient working set must not grow with the scanned range).
"""

from __future__ import annotations

import random
import tracemalloc
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backlog import Backlog
from repro.core.config import BacklogConfig
from repro.core.cursor import (
    QueryResult,
    QuerySpec,
    decode_resume_token,
    encode_resume_token,
)
from repro.core.records import ReferenceKey
from repro.fsim.blockdev import MemoryBackend

from test_streaming_equivalence import (
    _all_blocks,
    _fresh_backlog,
    _random_ops,
    _replay,
)


# ------------------------------------------------------------- QuerySpec


class TestQuerySpec:
    def test_defaults_are_a_point_query(self):
        spec = QuerySpec(7)
        assert (spec.first_block, spec.num_blocks) == (7, 1)
        assert spec.is_unfiltered

    @pytest.mark.parametrize("kwargs", [
        dict(first_block=-1),
        dict(first_block=0, num_blocks=0),
        dict(first_block=0, limit=0),
        dict(first_block=0, version_window=(5, 5)),
        dict(first_block=0, version_window=(6, 2)),
        dict(first_block=0, resume_token="not-a-token"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuerySpec(**kwargs)

    def test_filters_normalise_to_frozensets(self):
        spec = QuerySpec(0, 8, lines=[1, 2, 2], inodes={3})
        assert spec.lines == frozenset({1, 2})
        assert spec.inodes == frozenset({3})
        assert not spec.is_unfiltered

    def test_derivation_helpers(self):
        spec = QuerySpec(10, 4)
        assert spec.at_version(9).version_window == (9, 10)
        assert spec.live().live_only
        assert spec.with_limit(5).limit == 5
        token = encode_resume_token(ReferenceKey(11, 2, 3, 0))
        assert spec.after(token).resume_key == ReferenceKey(11, 2, 3, 0)
        # Derivation never mutates the original.
        assert spec.is_unfiltered

    def test_resume_token_must_fall_inside_the_range(self):
        token = encode_resume_token(ReferenceKey(100, 1, 0, 0))
        with pytest.raises(ValueError, match="outside"):
            QuerySpec(0, 50, resume_token=token)
        assert QuerySpec(0, 101, resume_token=token).resume_key.block == 100


class TestResumeTokens:
    def test_round_trip(self):
        key = ReferenceKey(2**40, 17, 2**33 + 5, 3)
        assert decode_resume_token(encode_resume_token(key)) == key

    @pytest.mark.parametrize("token", ["", "bkq1.", "bkq1.abc", "xxqq.AAAA", None, 42])
    def test_malformed_tokens_raise(self, token):
        with pytest.raises(ValueError):
            decode_resume_token(token)

    def test_tokens_are_url_safe(self):
        token = encode_resume_token(ReferenceKey(2**64 - 1, 2**64 - 1, 0, 255))
        assert token.replace(".", "").replace("-", "").replace("_", "").isalnum()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_decode_fails_closed(self, data):
        """Fuzz: arbitrary text, bodies behind the retired ``bkq2.`` prefix and
        valid tokens with one character changed either raise ``ValueError``
        or decode to the key that encodes back to the very same string -- the
        last character's spare base64 bits included."""
        u64 = st.integers(0, 2**64 - 1)
        valid = encode_resume_token(ReferenceKey(*data.draw(st.tuples(u64, u64, u64, u64))))
        alphabet = st.sampled_from(
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_=.+/ \n")
        token = data.draw(st.one_of(
            st.text(max_size=60),
            st.text(alphabet, max_size=60).map("bkq1.".__add__),
            st.text(alphabet, max_size=60).map("bkq2.".__add__),
            st.just("bkq2." + valid[len("bkq1."):]),
            st.builds(lambda position, char: valid[:position] + char + valid[position + 1:],
                      st.integers(0, len(valid) - 1), alphabet)))
        try:
            key = decode_resume_token(token)
        except ValueError:
            return
        assert encode_resume_token(key) == token and token.startswith("bkq1.")


# --------------------------------------------------------- QueryResult


def _small_backlog() -> Backlog:
    backlog = Backlog(backend=MemoryBackend())
    for i in range(8):
        backlog.add_reference(block=100 + i, inode=7, offset=i)
    backlog.add_reference(block=100, inode=9, offset=0)
    backlog.checkpoint()
    backlog.remove_reference(block=103, inode=7, offset=3)
    backlog.checkpoint()
    return backlog


class TestQueryResult:
    def test_iteration_matches_query_range(self):
        backlog = _small_backlog()
        refs = list(backlog.select(QuerySpec(100, 8)))
        assert refs == backlog.query_range(100, 8)

    def test_all_matches_query_range(self):
        backlog = _small_backlog()
        assert backlog.select(QuerySpec(100, 8)).all() == backlog.query_range(100, 8)

    def test_first_and_close(self):
        backlog = _small_backlog()
        result = backlog.select(QuerySpec(100, 8))
        first = result.first()
        assert first == backlog.query_range(100, 8)[0]
        # The cursor continues after the early exit without replaying.
        rest = list(result)
        assert [first] + rest == backlog.query_range(100, 8)

    def test_first_on_empty_range(self):
        backlog = _small_backlog()
        assert backlog.select(QuerySpec(10**9)).first() is None

    def test_one_or_none(self):
        backlog = _small_backlog()
        assert backlog.select(QuerySpec(101)).one_or_none() is not None
        assert backlog.select(QuerySpec(10**9)).one_or_none() is None
        with pytest.raises(ValueError, match="at most one"):
            backlog.select(QuerySpec(100)).one_or_none()  # two owners share 100

    def test_count_without_materialising(self):
        backlog = _small_backlog()
        assert backlog.select(QuerySpec(100, 8)).count() == len(backlog.query_range(100, 8))

    def test_limit_pages_reassemble_exactly(self):
        backlog = _small_backlog()
        full = backlog.query_range(100, 8)
        for page_size in (1, 2, 3, len(full), len(full) + 5):
            pages: List = []
            token = None
            for _ in range(len(full) + 2):  # bounded loop: must terminate
                result = backlog.select(QuerySpec(100, 8, limit=page_size).after(token))
                page = list(result)
                pages.extend(page)
                assert len(page) <= page_size
                token = result.resume_token
                if token is None:
                    assert result.exhausted or len(page) == page_size
                    break
            assert token is None
            assert pages == full

    def test_resume_token_none_when_exhausted(self):
        backlog = _small_backlog()
        result = backlog.select(QuerySpec(100, 8))
        result.all()
        assert result.exhausted
        assert result.resume_token is None

    def test_limit_rebuild_before_iteration_only(self):
        backlog = _small_backlog()
        result = backlog.select(QuerySpec(100, 8))
        limited = result.limit(2)
        assert isinstance(limited, QueryResult)
        assert len(list(limited)) == 2
        with pytest.raises(RuntimeError):
            limited.limit(1)

    def test_select_accepts_keyword_fields(self):
        backlog = _small_backlog()
        assert backlog.select(first_block=100, num_blocks=8).all() == \
            backlog.query_range(100, 8)
        with pytest.raises(TypeError):
            backlog.select(QuerySpec(100), first_block=100)

    def test_cursor_stats_accounting(self):
        backlog = _small_backlog()
        stats = backlog.query_stats
        stats.reset()
        backlog.select(QuerySpec(100, 8, limit=3)).all()
        assert stats.cursors_opened == 1
        assert stats.queries == 1
        assert stats.back_references_returned == 3
        # The unfiltered .all() fast path is the legacy list query: it counts
        # as a query but not as a cursor.
        backlog.select(QuerySpec(100, 8)).all()
        assert stats.cursors_opened == 1
        assert stats.queries == 2

    def test_reopened_cursor_counts_as_one_query(self):
        backlog = _small_backlog()
        stats = backlog.query_stats
        stats.reset()
        result = backlog.select(QuerySpec(100, 8))
        result.first()          # releases the pipeline early
        remaining = list(result)  # transparently reopens and continues
        assert remaining
        assert stats.cursors_opened == 1
        assert stats.queries == 1
        assert stats.narrow_fast_path_queries <= stats.queries
        assert stats.back_references_returned == 1 + len(remaining)

    def test_consumer_think_time_is_not_charged_to_query_stats(self):
        import time as _time

        backlog = _small_backlog()
        stats = backlog.query_stats
        stats.reset()
        result = backlog.select(QuerySpec(100, 8, lines={0}))  # force the cursor path
        next(iter(result))
        _time.sleep(0.05)       # consumer thinks while the cursor is open...
        result.close()          # ...then abandons it
        assert stats.seconds < 0.05, stats.seconds


# ------------------------------------------------- filter equivalence


def _legacy_filtered(backlog: Backlog, spec: QuerySpec) -> List:
    """The pre-cursor way to answer a filtered query: post-filter the list."""
    refs = backlog.query_range(spec.first_block, spec.num_blocks)
    if spec.resume_token is not None:
        key = spec.resume_key
        refs = [r for r in refs if (r.block, r.inode, r.offset, r.line) > tuple(key)]
    if spec.inodes is not None:
        refs = [r for r in refs if r.inode in spec.inodes]
    if spec.lines is not None:
        refs = [r for r in refs if r.line in spec.lines]
    if spec.live_only:
        refs = [r for r in refs if r.is_live]
    if spec.version_window is not None:
        lo, hi = spec.version_window
        refs = [r for r in refs
                if any(start < hi and lo < stop for start, stop in r.ranges)]
    if spec.limit is not None:
        refs = refs[:spec.limit]
    return refs


@pytest.mark.parametrize("narrow_dispatch_max_runs", [0, 2], ids=["streaming", "dispatched"])
@pytest.mark.parametrize("seed", [1, 23])
def test_select_matches_legacy_post_filtering(seed, narrow_dispatch_max_runs):
    """Every filter combination answers exactly like the legacy surface."""
    ops = _random_ops(seed)
    backlog, authority = _fresh_backlog(
        narrow_dispatch_max_runs=narrow_dispatch_max_runs)
    _replay(backlog, authority, ops)

    blocks = _all_blocks(ops)
    top = max(blocks) + 2
    current_cp = backlog.current_cp
    specs = [
        QuerySpec(0, top),
        QuerySpec(0, top).live(),
        QuerySpec(0, top).at_version(max(1, current_cp // 2)),
        QuerySpec(0, top, lines={0, 1}),
        QuerySpec(0, top, inodes={1, 3}),
        QuerySpec(0, top, inodes={2}, lines={0}, live_only=True),
        QuerySpec(0, top, limit=5),
        QuerySpec(blocks[len(blocks) // 2], top - blocks[len(blocks) // 2], limit=3,
                  inodes={1, 2, 4}),
    ]
    for block in blocks[::7]:
        specs.append(QuerySpec(block).live())
        specs.append(QuerySpec(block).at_version(max(1, current_cp - 1)))

    def check():
        for spec in specs:
            assert backlog.select(spec).all() == _legacy_filtered(backlog, spec), spec

    check()                 # mixed run + write-store state
    backlog.maintain()
    check()                 # compacted (Combined pass-through) state


@settings(max_examples=40, deadline=None)
@given(
    seed=st.sampled_from([5, 31]),
    first=st.integers(0, 120),
    width=st.integers(1, 160),
    page_size=st.integers(1, 9),
    live_only=st.booleans(),
    inode=st.one_of(st.none(), st.integers(1, 4)),
    version=st.one_of(st.none(), st.integers(1, 9)),
)
def test_hypothesis_pagination_equivalence(seed, first, width, page_size,
                                           live_only, inode, version):
    """Property: any paginated, filtered scan reassembles the legacy answer."""
    backlog, authority = _BACKLOGS[seed]
    spec = QuerySpec(
        first, width,
        live_only=live_only,
        inodes=None if inode is None else frozenset({inode}),
    )
    if version is not None:
        spec = spec.at_version(version)
    expected = _legacy_filtered(backlog, spec)

    pages: List = []
    token = None
    while True:
        result = backlog.select(spec.with_limit(page_size).after(token))
        pages.extend(result)
        token = result.resume_token
        if token is None:
            break
    assert pages == expected


#: Hypothesis shares prebuilt instances: workload replay dominates runtime.
_BACKLOGS = {}
for _seed in (5, 31):
    _bl, _auth = _fresh_backlog()
    _replay(_bl, _auth, _random_ops(_seed))
    if _seed == 31:
        _bl.maintain()
    _BACKLOGS[_seed] = (_bl, _auth)


# ------------------------------------- resumption across database change


@pytest.mark.parametrize("seed", [9, 47])
def test_pagination_resumes_across_checkpoint_and_maintenance(seed):
    """A resume token stays valid across flushes and compactions.

    Tokens are positional, so pages fetched after a checkpoint or a
    maintenance pass must continue exactly where the scan stopped, over the
    re-laid-out (but observationally identical) database.
    """
    ops = _random_ops(seed)
    backlog, authority = _fresh_backlog()
    _replay(backlog, authority, ops)

    top = max(_all_blocks(ops)) + 2
    expected = backlog.query_range(0, top)
    assert len(expected) > 6, "workload too small to paginate meaningfully"

    spec = QuerySpec(0, top, limit=max(2, len(expected) // 5))
    pages: List = []
    token = None
    boundary_actions = iter([
        lambda: backlog.checkpoint(),       # flush (empty write stores: no-op data change)
        lambda: backlog.maintain(),         # full compaction between pages
        lambda: None,
    ])
    while True:
        result = backlog.select(spec.after(token))
        pages.extend(result)
        token = result.resume_token
        if token is None:
            break
        next(boundary_actions, lambda: None)()
    assert pages == expected


def test_resume_skips_additions_before_the_cursor():
    """New references sorting before the token are (by contract) not revisited."""
    backlog = Backlog(backend=MemoryBackend())
    for block in (10, 20, 30):
        backlog.add_reference(block=block, inode=1, offset=0)
    backlog.checkpoint()

    result = backlog.select(QuerySpec(0, 100, limit=2))
    first_page = [ref.block for ref in result]
    assert first_page == [10, 20]
    token = result.resume_token

    backlog.add_reference(block=15, inode=1, offset=5)   # sorts before the cursor
    backlog.add_reference(block=40, inode=1, offset=6)   # sorts after the cursor
    backlog.checkpoint()

    rest = [ref.block for ref in backlog.select(QuerySpec(0, 100).after(token))]
    assert rest == [30, 40]


# ----------------------------------------------------- resource behaviour


def _wide_backlog(device_blocks: int, refs: int) -> Backlog:
    config = BacklogConfig(partition_size_blocks=device_blocks // 8)
    backlog = Backlog(backend=MemoryBackend(), config=config)
    rng = random.Random(4)
    for cp in range(4):
        for i in range(refs // 4):
            backlog.add_reference(block=rng.randrange(device_blocks),
                                  inode=1 + i % 32, offset=cp * refs + i)
        backlog.checkpoint()
    return backlog


def test_paginated_scan_memory_is_flat_in_range_width():
    """tracemalloc: a paginated scan's transient set must not track the range."""
    device = 1 << 14
    backlog = _wide_backlog(device, refs=6000)

    def scan_transient(width: int) -> int:
        backlog.clear_caches()
        tracemalloc.start()
        token = None
        while True:
            result = backlog.select(QuerySpec(0, width, limit=64).after(token))
            for _ in result:
                pass
            token = result.resume_token
            if token is None:
                break
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak - current

    half = scan_transient(device // 2)
    full = scan_transient(device)
    assert full <= half * 1.5, (half, full)

    # The materialised whole-device answer, by contrast, tracks the width.
    def materialised_transient(width: int) -> int:
        backlog.clear_caches()
        tracemalloc.start()
        backlog.query_range(0, width)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak - current

    assert materialised_transient(device) >= 1.5 * materialised_transient(device // 2)


def test_first_reads_less_than_full_scan():
    """.first() on a wide range must not read the whole device's pages."""
    device = 1 << 14
    backlog = _wide_backlog(device, refs=6000)

    stats = backlog.query_stats
    backlog.clear_caches()
    stats.reset()
    assert backlog.select(QuerySpec(0, device)).first() is not None
    first_reads = stats.pages_read

    backlog.clear_caches()
    stats.reset()
    backlog.query_range(0, device)
    full_reads = stats.pages_read
    assert first_reads * 4 <= full_reads, (first_reads, full_reads)


def test_relocate_block_suppresses_through_the_cursor():
    """relocate_block must stream and suppress every owner identity."""
    backlog = Backlog(backend=MemoryBackend())
    for inode in (1, 2, 3):
        backlog.add_reference(block=55, inode=inode, offset=0)
    backlog.add_reference(block=56, inode=9, offset=0)
    backlog.checkpoint()

    assert backlog.relocate_block(55) == 3
    assert backlog.query(55) == []
    assert [ref.inode for ref in backlog.query(56)] == [9]
