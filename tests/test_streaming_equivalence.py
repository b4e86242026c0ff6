"""Differential tests locking the streaming stages to the materialised ones.

The references are the live narrow-arm stages, driven side by side with the
streaming code over identical inputs:

* :func:`repro.core.join.materialized_join` (dict re-grouping) vs
  :func:`repro.core.columnar.join_rows_for_query` (row sort-merge join) and
  vs the compactor's split of that join into Combined and From runs;
* ``_legacy_query`` -- gather lists, ``materialized_join``,
  ``materialized_expand``, ``mask_records``, ``QueryEngine._group`` -- vs the
  production query engine on live instances, with the narrow arm on and off.

The property tests here assert *observational identity*: same query answers
and same record streams over seeded randomized workloads mixing allocations,
frees, overwrites, clones, snapshots, snapshot deletions and block
relocations across multiple lines; compaction is held to unchanged query
answers and, across storage backends, to byte-identical run files.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backlog import Backlog
from repro.core.config import BacklogConfig
from repro.core.columnar import join_rows_for_query
from repro.core.join import materialized_join
from repro.core.masking import ExplicitVersionAuthority, mask_records
from repro.core.inheritance import materialized_expand
from repro.core.records import (
    INFINITY,
    CombinedRecord,
    FromRecord,
    ToRecord,
    records_to_rows,
    rows_to_records,
)
from repro.fsim.blockdev import MemoryBackend

from test_join import split_tables


# ------------------------------------------------------------ join-level


_from_records = st.lists(
    st.builds(FromRecord, st.integers(0, 30), st.integers(1, 4),
              st.integers(0, 4), st.integers(0, 2), st.integers(1, 15)),
    max_size=60,
)
_to_records = st.lists(
    st.builds(ToRecord, st.integers(0, 30), st.integers(1, 4),
              st.integers(0, 4), st.integers(0, 2), st.integers(1, 15)),
    max_size=60,
)
_combined_records = st.lists(
    st.builds(CombinedRecord, st.integers(0, 30), st.integers(1, 4),
              st.integers(0, 4), st.integers(0, 2), st.integers(0, 10),
              st.integers(11, 20)),
    max_size=30,
)


@settings(max_examples=120, deadline=None)
@given(_from_records, _to_records, _combined_records)
def test_merge_join_matches_materialized_join(froms, tos, combined):
    """Property: the row merge-join emits exactly the materialized result."""
    expected = materialized_join(froms, tos, combined)
    streamed = join_rows_for_query(records_to_rows(sorted(froms), 5),
                                   records_to_rows(sorted(tos), 5),
                                   records_to_rows(sorted(combined), 6))
    assert rows_to_records(list(streamed), CombinedRecord) == expected


@settings(max_examples=120, deadline=None)
@given(_from_records, _to_records, _combined_records)
def test_stream_join_tables_matches_join_tables(froms, tos, combined):
    """Property: a compaction pass splits the materialized join.

    Complete records are the Combined view's bounded ones; the live rest
    stays in the From table as ``FromRecord``s.  (The run writers reject
    unsorted input, so the streaming split also arrives sorted per table.)
    """
    joined = materialized_join(froms, tos, combined)
    complete, incomplete = split_tables(froms, tos, combined)
    assert complete == [r for r in joined if r.to_cp != INFINITY]
    assert incomplete == [FromRecord(*r[:5]) for r in joined if r.to_cp == INFINITY]


# ------------------------------------------------- seeded workload driver


def _random_ops(seed: int, num_cps: int = 8, ops_per_cp: int = 35,
                line_base: int = 1) -> List[Tuple]:
    """A deterministic workload: allocs/frees/overwrites, clones, snapshots.

    Returned as a list of plain op tuples so the same workload can be
    replayed into any number of Backlog instances.
    """
    rng = random.Random(seed)
    ops: List[Tuple] = []
    live: Dict[Tuple[int, int, int], int] = {}  # (inode, offset, line) -> block
    lines = [0]
    next_line = line_base
    next_block = 0
    cp = 1

    def fresh_block() -> int:
        nonlocal next_block
        # Mostly fresh blocks walking up the device, occasionally a shared
        # one (two owners of the same physical block, as dedup would create).
        if live and rng.random() < 0.15:
            return rng.choice(list(live.values()))
        next_block += rng.randrange(1, 9)
        return next_block

    for _ in range(num_cps):
        for _ in range(ops_per_cp):
            roll = rng.random()
            if roll < 0.55 or not live:
                key = (rng.randrange(1, 5), rng.randrange(0, 6), rng.choice(lines))
                if key in live:
                    continue
                block = fresh_block()
                live[key] = block
                ops.append(("add", block, *key))
            elif roll < 0.75:
                key = rng.choice(list(live))
                block = live.pop(key)
                ops.append(("remove", block, *key))
            else:  # overwrite: free the old block, allocate a new one
                key = rng.choice(list(live))
                old = live[key]
                ops.append(("remove", old, *key))
                new = fresh_block()
                live[key] = new
                ops.append(("add", new, *key))
        if rng.random() < 0.6:
            ops.append(("snapshot", rng.choice(lines), cp))
        if rng.random() < 0.25 and len(lines) < 4:
            parent = rng.choice(lines)
            ops.append(("clone", next_line, parent, cp))
            lines.append(next_line)
            next_line += 1
        ops.append(("checkpoint",))
        cp += 1
        if rng.random() < 0.3:
            ops.append(("unsnapshot", rng.choice(lines), rng.randrange(1, cp)))
        if live and rng.random() < 0.25:
            ops.append(("relocate", rng.choice(list(live.values()))))
    return ops


def _replay(backlog: Backlog, authority: ExplicitVersionAuthority, ops: List[Tuple]) -> None:
    for op in ops:
        kind = op[0]
        if kind == "add":
            _, block, inode, offset, line = op
            backlog.add_reference(block, inode, offset, line)
        elif kind == "remove":
            _, block, inode, offset, line = op
            backlog.remove_reference(block, inode, offset, line)
        elif kind == "checkpoint":
            backlog.checkpoint()
            authority.set_current_cp(backlog.current_cp)
        elif kind == "snapshot":
            authority.add_snapshot(op[1], op[2])
        elif kind == "unsnapshot":
            authority.remove_snapshot(op[1], op[2])
        elif kind == "clone":
            _, new_line, parent_line, version = op
            backlog.register_clone(new_line, parent_line, version)
            authority.add_line(new_line)
        elif kind == "relocate":
            backlog.relocate_block(op[1])
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown op {kind!r}")


def _fresh_backlog(narrow_dispatch_max_runs: int = 2,
                   backend=None,
                   ) -> Tuple[Backlog, ExplicitVersionAuthority]:
    authority = ExplicitVersionAuthority()
    config = BacklogConfig(
        partition_size_blocks=64,  # small partitions: flush + compaction split
        narrow_dispatch_max_runs=narrow_dispatch_max_runs,
    )
    backlog = Backlog(backend=backend if backend is not None else MemoryBackend(),
                      config=config, version_authority=authority)
    return backlog, authority


def _all_blocks(ops: List[Tuple]) -> List[int]:
    return sorted({op[1] for op in ops if op[0] in ("add", "remove")})


def _backend_bytes(backend: MemoryBackend) -> Dict[str, List[bytes]]:
    """Every file's raw pages, for byte-level comparison."""
    contents: Dict[str, List[bytes]] = {}
    for name in backend.list_files():
        page_file = backend.open(name)
        contents[name] = [page_file.read_page(i) for i in range(page_file.num_pages)]
    return contents


# -------------------------------------------------- query-path equivalence


def _legacy_query(backlog: Backlog, first_block: int, num_blocks: int):
    """The narrow arm's stages over every run: gather lists, dict-join, group.

    Skips the Bloom prefilter and the size dispatch, so the production
    engine -- whichever arm it picks -- can be checked against it on a live
    instance.
    """
    engine = backlog._query_engine
    froms, tos, combined = [], [], []
    partitions = backlog.partitioner.partitions_for_range(first_block, num_blocks)
    runs = [run for p in partitions for run in backlog.run_manager.runs_for(p)]
    sinks = {1: froms, 2: tos, 3: combined}
    for run in runs:
        records = run.records_for_block_range(first_block, num_blocks)
        if backlog.deletion_vector:
            records = list(backlog.deletion_vector.filter(records))
        sinks[run.record_kind].extend(records)
    for store, sink in ((backlog.ws_from, froms), (backlog.ws_to, tos)):
        records = store.records_for_block_range(first_block, num_blocks)
        if backlog.deletion_vector:
            records = list(backlog.deletion_vector.filter(records))
        sink.extend(records)
    combined_view = materialized_join(froms, tos, combined)
    expanded = materialized_expand(combined_view, backlog.clone_graph)
    masked = mask_records(expanded, backlog.version_authority)
    return engine._group(masked)


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
@pytest.mark.parametrize("narrow_dispatch_max_runs", [0, 2], ids=["streaming", "dispatched"])
def test_streaming_query_matches_legacy_pipeline(seed, narrow_dispatch_max_runs):
    """Same answers for point, narrow, wide and whole-device queries.

    Run once with the narrow arm disabled (every query goes through the
    row pipeline) and once with the default size dispatch, so both arms are
    differentially checked against ``_legacy_query``.
    """
    ops = _random_ops(seed)
    backlog, authority = _fresh_backlog(
        narrow_dispatch_max_runs=narrow_dispatch_max_runs)
    _replay(backlog, authority, ops)

    blocks = _all_blocks(ops)
    top = max(blocks) + 2
    ranges = [(block, 1) for block in blocks]
    ranges += [(0, 16), (top // 2, 40), (0, top)]

    def check_everywhere():
        for first, width in ranges:
            assert backlog.query_range(first, width) == _legacy_query(backlog, first, width)

    check_everywhere()           # mixed run + write-store state
    backlog.maintain()
    check_everywhere()           # pure compacted (Combined pass-through) state
    if narrow_dispatch_max_runs == 0:
        assert backlog.query_stats.narrow_fast_path_queries == 0
    else:
        # After compaction each partition holds at most a couple of runs, so
        # at least the point queries must have taken the fast path.
        assert backlog.query_stats.narrow_fast_path_queries > 0


@pytest.mark.parametrize("seed", [2, 13, 57])
def test_narrow_dispatch_matches_forced_streaming(seed):
    """The size-dispatched engine answers exactly like a streaming-only one."""
    ops = _random_ops(seed)
    dispatched, auth_d = _fresh_backlog(narrow_dispatch_max_runs=2)
    streaming_only, auth_s = _fresh_backlog(narrow_dispatch_max_runs=0)
    _replay(dispatched, auth_d, ops)
    _replay(streaming_only, auth_s, ops)

    blocks = _all_blocks(ops)
    queries = [(block, 1) for block in blocks] + [(0, max(blocks) + 1)]
    for first, width in queries:
        assert dispatched.query_range(first, width) == \
            streaming_only.query_range(first, width)
    assert streaming_only.query_stats.narrow_fast_path_queries == 0

    dispatched.maintain()
    streaming_only.maintain()
    for first, width in queries:
        assert dispatched.query_range(first, width) == \
            streaming_only.query_range(first, width)
    assert dispatched.query_stats.narrow_fast_path_queries > 0
    # The per-batch reset must zero the dispatch counter with the rest.
    dispatched.query_stats.reset()
    assert dispatched.query_stats.narrow_fast_path_queries == 0


# --------------------------------------------- backend-differential tier


@pytest.mark.parametrize("seed", [7, 23])
def test_pipeline_equivalent_on_every_backend(backend_factory, seed):
    """The whole flush/query/compaction pipeline is backend-invariant.

    MemoryBackend is the reference; DiskBackend (batched appends, reversibly
    escaped flat names) and DiskImageBackend (one block-addressed image file)
    must produce byte-identical run files and identical answers for the same
    workload, before and after maintenance.  ``_backend_bytes`` walks
    ``list_files``/``read_page``, so the DiskBackend leg also round-trips
    every hierarchical run name through the flat-file escape.
    """
    ops = _random_ops(seed)
    reference, auth_ref = _fresh_backlog()
    candidate, auth_c = _fresh_backlog(backend=backend_factory())
    _replay(reference, auth_ref, ops)
    _replay(candidate, auth_c, ops)

    blocks = _all_blocks(ops)
    queries = [(block, 1) for block in blocks] + [(0, max(blocks) + 1)]
    for first, width in queries:
        assert candidate.query_range(first, width) == \
            reference.query_range(first, width)
    assert _backend_bytes(candidate.backend) == _backend_bytes(reference.backend)

    reference.maintain()
    candidate.maintain()
    assert _backend_bytes(candidate.backend) == _backend_bytes(reference.backend)
    for first, width in queries:
        assert candidate.query_range(first, width) == \
            reference.query_range(first, width)


@pytest.mark.parametrize("seed", [5, 19])
def test_compaction_preserves_query_answers(seed):
    """Compaction must not change any query answer."""
    ops = _random_ops(seed)
    backlog, authority = _fresh_backlog()
    _replay(backlog, authority, ops)

    blocks = _all_blocks(ops)
    before = {block: backlog.query(block) for block in blocks}
    whole_device_before = backlog.query_range(0, max(blocks) + 1)
    backlog.maintain()
    after = {block: backlog.query(block) for block in blocks}
    assert after == before
    assert backlog.query_range(0, max(blocks) + 1) == whole_device_before
