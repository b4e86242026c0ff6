"""Tests for the From/To outer join, including the paper's worked examples.

The Combined-view cases run against :func:`materialized_join` (records, any
order) and against the row merge-join :func:`join_rows_for_query` (sorted
packed rows); the table-split cases run one real compaction pass, which
splits the same row join's output into the compacted Combined and From runs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import join_rows_for_query
from repro.core.compaction import Compactor
from repro.core.config import BacklogConfig
from repro.core.deletion_vector import DeletionVector
from repro.core.inheritance import CloneGraph
from repro.core.join import materialized_join
from repro.core.lsm import RunManager
from repro.core.masking import AllVersionsAuthority
from repro.core.records import (
    CombinedRecord,
    FromRecord,
    INFINITY,
    ToRecord,
    records_to_rows,
    rows_to_records,
)
from repro.fsim.blockdev import MemoryBackend


def combined_view(froms, tos, combined=()):
    """The Combined view of the records, identical from both query joins."""
    view = materialized_join(froms, tos, combined)
    rows = join_rows_for_query(records_to_rows(sorted(froms), 5),
                               records_to_rows(sorted(tos), 5),
                               records_to_rows(sorted(combined), 6))
    assert rows_to_records(list(rows), CombinedRecord) == view
    return view


def split_tables(froms, tos, combined=()):
    """``(complete, incomplete)`` tables as one compaction pass writes them.

    The records become one run per table; a compactor that purges nothing
    joins their rows and splits the output into its Combined and From runs.
    """
    manager = RunManager(MemoryBackend())
    for table, records in (("from", froms), ("to", tos), ("combined", combined)):
        manager.write_run(0, table, "L0", sorted(records), 1024)
    Compactor(manager, BacklogConfig(), AllVersionsAuthority(), CloneGraph(),
              DeletionVector()).compact_partition(0)
    assert manager.runs_for(0, "to") == []
    return ([record for run in manager.runs_for(0, "combined") for record in run.iter_all()],
            [record for run in manager.runs_for(0, "from") for record in run.iter_all()])


class TestPaperExamples:
    def test_section_4_1_example(self):
        """Inode 2 creates two blocks at CP 4 and truncates to one at CP 7."""
        froms = [FromRecord(100, 2, 0, 0, 4), FromRecord(101, 2, 1, 0, 4)]
        tos = [ToRecord(101, 2, 1, 0, 7)]
        combined = combined_view(froms, tos)
        assert CombinedRecord(100, 2, 0, 0, 4, INFINITY) in combined
        assert CombinedRecord(101, 2, 1, 0, 4, 7) in combined
        assert len(combined) == 2

    def test_section_4_2_1_join_example(self):
        """Block 103: inode 4 has it during [10,12) and [16,20); inode 5 from 30."""
        froms = [
            FromRecord(103, 4, 0, 0, 10),
            FromRecord(103, 4, 0, 0, 16),
            FromRecord(103, 5, 2, 0, 30),
        ]
        tos = [
            ToRecord(103, 4, 0, 0, 12),
            ToRecord(103, 4, 0, 0, 20),
        ]
        combined = combined_view(froms, tos)
        assert combined == [
            CombinedRecord(103, 4, 0, 0, 10, 12),
            CombinedRecord(103, 4, 0, 0, 16, 20),
            CombinedRecord(103, 5, 2, 0, 30, INFINITY),
        ]

    def test_section_4_2_2_writable_clone_example(self):
        """Block 103 in line 0 from CP 30; overridden in clone line 1 at CP 43."""
        froms = [
            FromRecord(103, 5, 2, 0, 30),
            FromRecord(107, 5, 2, 1, 43),
        ]
        tos = [ToRecord(103, 5, 2, 1, 43)]
        combined = combined_view(froms, tos)
        assert CombinedRecord(103, 5, 2, 0, 30, INFINITY) in combined
        assert CombinedRecord(107, 5, 2, 1, 43, INFINITY) in combined
        # The lone To entry joins with an implicit from = 0: an override record.
        assert CombinedRecord(103, 5, 2, 1, 0, 43) in combined


class TestCombineForQuery:
    def test_precomputed_combined_passes_through(self):
        existing = [CombinedRecord(50, 1, 0, 0, 2, 9)]
        result = combined_view([], [], existing)
        assert result == existing

    def test_multiple_lifetimes_same_key(self):
        froms = [FromRecord(7, 1, 0, 0, 1), FromRecord(7, 1, 0, 0, 5), FromRecord(7, 1, 0, 0, 9)]
        tos = [ToRecord(7, 1, 0, 0, 3), ToRecord(7, 1, 0, 0, 7)]
        result = combined_view(froms, tos)
        assert result == [
            CombinedRecord(7, 1, 0, 0, 1, 3),
            CombinedRecord(7, 1, 0, 0, 5, 7),
            CombinedRecord(7, 1, 0, 0, 9, INFINITY),
        ]

    def test_reference_removed_then_readded_in_clone(self):
        """An override To followed by a later re-allocation in the same line."""
        froms = [FromRecord(9, 3, 0, 1, 50)]
        tos = [ToRecord(9, 3, 0, 1, 43)]
        result = combined_view(froms, tos)
        assert result == [
            CombinedRecord(9, 3, 0, 1, 0, 43),
            CombinedRecord(9, 3, 0, 1, 50, INFINITY),
        ]

    def test_result_sorted(self):
        froms = [FromRecord(9, 1, 0, 0, 1), FromRecord(3, 1, 0, 0, 1)]
        result = combined_view(froms, [])
        assert [r.block for r in result] == [3, 9]


class TestJoinTables:
    def test_live_records_stay_in_from_table(self):
        """Compaction keeps incomplete records in the From table (§5.2)."""
        froms = [FromRecord(1, 1, 0, 0, 2), FromRecord(2, 1, 1, 0, 3)]
        tos = [ToRecord(1, 1, 0, 0, 5)]
        complete, incomplete = split_tables(froms, tos)
        assert complete == [CombinedRecord(1, 1, 0, 0, 2, 5)]
        assert incomplete == [FromRecord(2, 1, 1, 0, 3)]

    def test_existing_combined_merged_and_sorted(self):
        existing = [CombinedRecord(5, 1, 0, 0, 1, 2)]
        froms = [FromRecord(3, 1, 0, 0, 1)]
        tos = [ToRecord(3, 1, 0, 0, 4)]
        complete, incomplete = split_tables(froms, tos, existing)
        assert complete == [CombinedRecord(3, 1, 0, 0, 1, 4), CombinedRecord(5, 1, 0, 0, 1, 2)]
        assert incomplete == []

    def test_empty_inputs(self):
        complete, incomplete = split_tables([], [])
        assert complete == [] and incomplete == []


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 50), max_size=8),
    st.lists(st.integers(1, 50), max_size=8),
)
def test_join_single_key_properties(from_cps, to_cps):
    """Property checks on a single reference identity.

    * every From CP appears as the start of exactly one output record,
    * every To CP appears as the end of exactly one output record,
    * every bounded record satisfies ``from < to``.
    """
    froms = [FromRecord(1, 1, 0, 0, cp) for cp in set(from_cps)]
    tos = [ToRecord(1, 1, 0, 0, cp) for cp in set(to_cps)]
    result = combined_view(froms, tos)

    starts = sorted(r.from_cp for r in result if not r.is_override)
    assert starts == sorted({cp for cp in from_cps})

    ends = sorted(r.to_cp for r in result if not r.is_live)
    assert ends == sorted({cp for cp in to_cps})

    for record in result:
        if not record.is_live:
            assert record.from_cp < record.to_cp
