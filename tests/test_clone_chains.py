"""Deep clone-chain coverage: equivalence and memory behaviour.

The wide arm's row expansion (:func:`~repro.core.inheritance.expand_row_group`
driven group by group, and the fused
:func:`~repro.core.columnar.fold_rows_for_query`) is locked to
:func:`~repro.core.inheritance.materialized_expand` over randomly generated
clone DAGs (hypothesis), over deep linear chains and branching trees, and
through the full Backlog query path.  The tracemalloc tests assert the
property the streaming pipeline exists for: its transient working set stays
flat as the query result grows, while the materialised expansion's grows
linearly with it.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backlog import Backlog
from repro.core.config import BacklogConfig
from repro.core.columnar import fold_rows_for_query
from repro.core.inheritance import CloneGraph, materialized_expand
from repro.core.masking import AllVersionsAuthority, ExplicitVersionAuthority, mask_records
from repro.core.query import QueryEngine
from repro.core.records import CombinedRecord, INFINITY, records_to_rows
from repro.fsim.blockdev import MemoryBackend

from test_inheritance import fold_owners, row_expand


# --------------------------------------------------- hypothesis equivalence


@st.composite
def clone_graphs(draw):
    """A random clone forest: every child clones some earlier line."""
    num_clones = draw(st.integers(0, 6))
    graph = CloneGraph()
    for child in range(1, num_clones + 1):
        parent = draw(st.integers(0, child - 1))
        version = draw(st.integers(0, 15))
        graph.add_clone(child, parent, version)
    return graph


_records = st.lists(
    st.builds(
        CombinedRecord,
        st.integers(0, 8),           # block
        st.integers(1, 3),           # inode
        st.integers(0, 2),           # offset
        st.integers(0, 6),           # line
        st.integers(0, 10),          # from (0 = override)
        st.one_of(st.integers(11, 20), st.just(INFINITY)),  # to
    ),
    max_size=40,
)


def _masking_authority() -> ExplicitVersionAuthority:
    """Lines 0-3 live at CP 12, every line snapshotted at CP 6 only."""
    authority = ExplicitVersionAuthority()
    authority.set_current_cp(12)
    for line in range(7):
        authority.add_snapshot(line, 6)
        if 0 < line <= 3:
            authority.add_line(line)
    return authority


@settings(max_examples=200, deadline=None)
@given(clone_graphs(), _records)
def test_streaming_expansion_matches_materialized(graph, records):
    """Property: identical output over random clone DAGs and record sets.

    Record for record through the grouped row expansion, and owner for owner
    through the fused expansion + masking + fold.
    """
    expected = materialized_expand(records, graph)
    assert row_expand(records, graph) == expected
    authority = _masking_authority()
    assert list(fold_owners(records, graph, authority)) == \
        QueryEngine._group(mask_records(expected, authority))


@settings(max_examples=100, deadline=None)
@given(clone_graphs(), _records, _records)
def test_streaming_expansion_handles_duplicate_gathers(graph, records, extra):
    """Duplicated input records (re-gathered copies) change nothing."""
    doubled = records + records + extra
    expected = materialized_expand(doubled, graph)
    assert row_expand(doubled, graph) == expected
    assert list(fold_owners(doubled, graph)) == QueryEngine._group(expected)


# ------------------------------------------------------ deep, wide chains


def _linear_chain(depth: int, version: int = 5) -> CloneGraph:
    graph = CloneGraph()
    for child in range(1, depth + 1):
        graph.add_clone(child, child - 1, version)
    return graph


def _parent_records(num_blocks: int) -> list:
    return [CombinedRecord(block, 1 + block % 7, block % 3, 0, 1, INFINITY)
            for block in range(num_blocks)]


def test_deep_linear_chain_inherits_to_every_line():
    depth = 32
    graph = _linear_chain(depth)
    records = _parent_records(10)
    out = row_expand(records, graph)
    assert out == materialized_expand(records, graph)
    assert len(out) == len(records) * (depth + 1)
    assert {r.line for r in out} == set(range(depth + 1))


def test_deep_chain_with_overrides_at_every_other_level():
    depth = 16
    graph = _linear_chain(depth)
    records = [CombinedRecord(9, 1, 0, 0, 1, INFINITY)]
    records += [CombinedRecord(9, 1, 0, line, 0, 8) for line in range(2, depth + 1, 2)]
    out = row_expand(records, graph)
    assert out == materialized_expand(records, graph)
    # Overridden lines keep only their override record; others inherit.
    for line in range(2, depth + 1, 2):
        assert CombinedRecord(9, 1, 0, line, 0, INFINITY) not in out
    for line in range(1, depth + 1, 2):
        assert CombinedRecord(9, 1, 0, line, 0, INFINITY) in out


def test_branching_clone_tree():
    """A full binary tree of clones: every leaf-to-root path inherits."""
    graph = CloneGraph()
    depth = 5
    lines = 2 ** (depth + 1) - 1  # complete binary tree, line 0 is the root
    for child in range(1, lines):
        graph.add_clone(child, (child - 1) // 2, 5)
    records = _parent_records(20)
    out = row_expand(records, graph)
    assert out == materialized_expand(records, graph)
    assert len(out) == len(records) * lines


# ----------------------------------------------------- memory flatness


def _line_count(graph) -> int:
    """Lines of a clone tree rooted at line 0: the root plus one per clone."""
    return 1 + sum(map(len, graph.children_map().values()))


def _streaming_peak(records, graph) -> int:
    rows = records_to_rows(records, 6)
    authority = AllVersionsAuthority()
    tracemalloc.start()
    count = sum(1 for _ in fold_rows_for_query(iter(rows), graph, authority))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == len(records) * _line_count(graph)
    return peak


def _materialized_peak(records, graph) -> int:
    tracemalloc.start()
    result = materialized_expand(records, graph)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(result) == len(records) * _line_count(graph)
    return peak


def test_incremental_expansion_memory_stays_flat():
    """Streaming transient memory is flat in query width; materialised grows.

    This is the acceptance property of the incremental rewrite: quadrupling
    the number of expanded reference groups must not grow the row pipeline's
    working set (it holds one group at a time), while the materialised
    expansion's peak tracks the full result size.
    """
    depth = 12
    graph = _linear_chain(depth)
    narrow = _parent_records(1500)
    wide = _parent_records(6000)

    # The generator's peak is a few KB of group state at *any* width -- far
    # too small for its own growth ratio to be a stable signal (allocator
    # noise dominates), so compare it against the materialised peak of the
    # *narrower* query instead: even at 4x the width, the generator must
    # stay well under a fraction of the smaller materialised working set.
    # The materialised peak is megabytes and grows with the result, so its
    # growth ratio is meaningful directly.
    materialized_narrow = _materialized_peak(narrow, graph)
    for records in (narrow, wide):
        peak = _streaming_peak(records, graph)
        assert peak * 20 < materialized_narrow, (
            f"streaming expansion peaked at {peak} bytes "
            f"(materialised narrow peak: {materialized_narrow})"
        )
    materialized_growth = _materialized_peak(wide, graph) / materialized_narrow
    assert materialized_growth > 2.5, f"materialised expansion grew only {materialized_growth:.2f}x"


def test_incremental_expansion_peak_is_group_sized():
    """The generator's peak is orders of magnitude below the result size."""
    graph = _linear_chain(12)
    records = _parent_records(6000)
    streaming_peak = _streaming_peak(records, graph)
    materialized_peak = _materialized_peak(records, graph)
    assert streaming_peak * 10 < materialized_peak, (
        f"streaming peak {streaming_peak} vs materialised {materialized_peak}"
    )


# ------------------------------------------------- through the query path


def test_backlog_query_sees_every_chain_descendant():
    """End to end: a 20-deep clone chain answers with 21 owners per block."""
    depth = 20
    backlog = Backlog(backend=MemoryBackend())
    backlog.add_reference(block=100, inode=2, offset=0)
    cp = backlog.checkpoint()
    for child in range(1, depth + 1):
        backlog.register_clone(child, child - 1, cp)
    refs = backlog.query(100)
    assert len(refs) == depth + 1
    assert {ref.line for ref in refs} == set(range(depth + 1))
    # Inherited references cover the full version range.
    for ref in refs:
        if ref.line > 0:
            assert ref.ranges == ((0, INFINITY),)


@pytest.mark.parametrize("narrow_dispatch_max_runs", [0, 2], ids=["streaming", "dispatched"])
def test_backlog_deep_chain_queries_agree_across_strategies(narrow_dispatch_max_runs):
    """Both execution strategies answer deep-chain range queries identically."""
    config = BacklogConfig(narrow_dispatch_max_runs=narrow_dispatch_max_runs)
    backlog = Backlog(backend=MemoryBackend(), config=config)
    for block in range(64):
        backlog.add_reference(block=block, inode=1 + block % 5, offset=block % 4)
    cp = backlog.checkpoint()
    for child in range(1, 16):
        backlog.register_clone(child, child - 1, cp)
    backlog.remove_reference(block=3, inode=1 + 3 % 5, offset=3 % 4, line=0)
    backlog.checkpoint()

    refs = backlog.query_range(0, 64)
    assert {ref.line for ref in refs} == set(range(16))
    # The same answer computed through the retained materialised pipeline.
    from tests.test_streaming_equivalence import _legacy_query
    assert refs == _legacy_query(backlog, 0, 64)
