"""Tests for structural inheritance (writable clone expansion).

Both expansion implementations are covered: the behavioural tests run
against :func:`materialized_expand` (records in any order, returns a list)
and against the row form the query engine's wide arm uses
(:func:`expand_row_group` over sorted packed rows, one reference group at a
time); contract tests for the streaming row pipeline follow.
"""

from __future__ import annotations

import pytest

from repro.core.columnar import _expand_rows, fold_rows_for_query
from repro.core.inheritance import CloneGraph, materialized_expand, pack_children_map
from repro.core.masking import AllVersionsAuthority
from repro.core.query import QueryEngine
from repro.core.records import (
    CombinedRecord,
    INFINITY,
    records_to_rows,
    rows_to_records,
)


def row_expand(records, graph):
    """Drive the row expansion the way the wide arm does, records in and out.

    Sorted packed rows stream through :func:`repro.core.columnar._expand_rows`,
    which splits them into ``(block, inode, offset)`` groups and runs
    :func:`repro.core.inheritance.expand_row_group` on each.
    """
    rows = _expand_rows(records_to_rows(sorted(records), 6),
                        pack_children_map(graph.children_map()))
    return rows_to_records(list(rows), CombinedRecord)


def fold_owners(records, graph, authority=None):
    """The wide arm's fused expansion + masking + owner fold over ``records``."""
    return fold_rows_for_query(records_to_rows(sorted(records), 6), graph,
                               authority or AllVersionsAuthority())


@pytest.fixture(params=[materialized_expand, row_expand], ids=["materialized", "streaming"])
def expand(request):
    return request.param


class TestCloneGraph:
    def test_add_and_lookup(self):
        graph = CloneGraph()
        graph.add_clone(1, 0, 10)
        graph.add_clone(2, 0, 20)
        graph.add_clone(3, 1, 30)
        assert graph.parent_of(1) == (0, 10)
        assert graph.parent_of(0) is None
        assert graph.children_of(0) == [(1, 10), (2, 20)]
        assert graph.clone_versions(0) == [10, 20]

    def test_add_clone_validation(self):
        graph = CloneGraph()
        graph.add_clone(1, 0, 10)
        with pytest.raises(ValueError):
            graph.add_clone(1, 0, 20)
        with pytest.raises(ValueError):
            graph.add_clone(5, 5, 1)

    def test_remove_line(self):
        graph = CloneGraph()
        graph.add_clone(1, 0, 10)
        graph.remove_line(1)
        assert graph.parent_of(1) is None
        assert graph.children_of(0) == []
        # Removing an unknown line is harmless.
        graph.remove_line(99)

    def test_bool_reflects_clone_existence(self):
        graph = CloneGraph()
        assert not graph
        graph.add_clone(1, 0, 10)
        assert graph
        graph.remove_line(1)
        assert not graph

    def test_children_map_is_pruned_on_remove(self):
        graph = CloneGraph()
        graph.add_clone(1, 0, 10)
        graph.add_clone(2, 0, 20)
        graph.remove_line(1)
        assert graph.children_map() == {0: [(2, 20)]}
        graph.remove_line(2)
        assert graph.children_map() == {}


class TestExpandClones:
    def test_paper_section_4_2_2(self, expand):
        """Clone line 1 overrides block 103 at CP 43; block 107 replaces it."""
        graph = CloneGraph()
        graph.add_clone(1, 0, 40)  # line 1 cloned from (0, 40)
        records = [
            CombinedRecord(103, 5, 2, 0, 30, INFINITY),   # parent's reference
            CombinedRecord(103, 5, 2, 1, 0, 43),          # override in the clone
            CombinedRecord(107, 5, 2, 1, 43, INFINITY),   # the clone's new block
        ]
        expanded = expand(records, graph)
        # The override suppresses inheritance: no (103, line 1, 0, INF) record.
        assert CombinedRecord(103, 5, 2, 1, 0, INFINITY) not in expanded
        assert set(expanded) == set(records)

    def test_inherited_record_added_when_no_override(self, expand):
        graph = CloneGraph()
        graph.add_clone(1, 0, 40)
        records = [CombinedRecord(200, 9, 0, 0, 30, INFINITY)]
        expanded = expand(records, graph)
        assert CombinedRecord(200, 9, 0, 1, 0, INFINITY) in expanded
        assert len(expanded) == 2

    def test_no_inheritance_when_clone_point_outside_lifetime(self, expand):
        graph = CloneGraph()
        graph.add_clone(1, 0, 40)
        records = [CombinedRecord(200, 9, 0, 0, 50, INFINITY)]  # allocated after the clone
        expanded = expand(records, graph)
        assert expanded == records

    def test_recursive_expansion_through_clone_chains(self, expand):
        """A clone of a clone inherits transitively (the iterative algorithm)."""
        graph = CloneGraph()
        graph.add_clone(1, 0, 10)
        graph.add_clone(2, 1, 20)
        graph.add_clone(3, 2, 30)
        records = [CombinedRecord(77, 4, 1, 0, 5, INFINITY)]
        expanded = expand(records, graph)
        lines = {r.line for r in expanded}
        assert lines == {0, 1, 2, 3}
        for line in (1, 2, 3):
            assert CombinedRecord(77, 4, 1, line, 0, INFINITY) in expanded

    def test_override_stops_propagation_only_for_that_branch(self, expand):
        graph = CloneGraph()
        graph.add_clone(1, 0, 10)
        graph.add_clone(2, 0, 10)
        records = [
            CombinedRecord(5, 1, 0, 0, 1, INFINITY),
            CombinedRecord(5, 1, 0, 1, 0, 12),  # line 1 dropped the block at CP 12
        ]
        expanded = expand(records, graph)
        assert CombinedRecord(5, 1, 0, 2, 0, INFINITY) in expanded
        assert CombinedRecord(5, 1, 0, 1, 0, INFINITY) not in expanded

    def test_expansion_result_is_sorted_and_deduplicated(self, expand):
        graph = CloneGraph()
        graph.add_clone(1, 0, 10)
        record = CombinedRecord(5, 1, 0, 0, 1, INFINITY)
        expanded = expand([record, record], graph)
        assert list(expanded) == sorted(set(expanded), key=CombinedRecord.sort_key)

    def test_empty_input(self, expand):
        assert list(expand([], CloneGraph())) == []


class TestStreamingContract:
    """Contracts specific to the wide arm's streaming row pipeline."""

    def test_returns_iterator_not_list(self):
        result = fold_owners([], CloneGraph())
        assert iter(result) is result

    def test_no_clones_is_a_dedup_pass_through(self):
        records = [
            CombinedRecord(1, 1, 0, 0, 1, 5),
            CombinedRecord(1, 1, 0, 0, 1, 5),
            CombinedRecord(2, 1, 0, 0, 1, INFINITY),
        ]
        assert row_expand(records, CloneGraph()) == [records[0], records[2]]
        assert list(fold_owners(records, CloneGraph())) == [
            (1, 1, 0, 0, ((1, 5),)),
            (2, 1, 0, 0, ((1, INFINITY),)),
        ]

    def test_lazy_one_group_at_a_time(self):
        """The pipeline must not read past the group it is emitting."""
        graph = CloneGraph()
        graph.add_clone(1, 0, 10)
        pulled = []

        def source():
            for record in [
                CombinedRecord(5, 1, 0, 0, 1, INFINITY),
                CombinedRecord(6, 1, 0, 0, 1, INFINITY),
                CombinedRecord(7, 1, 0, 0, 1, INFINITY),
            ]:
                pulled.append(record.block)
                yield from records_to_rows([record], 6)

        stream = fold_rows_for_query(source(), graph, AllVersionsAuthority())
        first = next(stream)
        assert first[0] == 5
        # Emitting block 5's group required reading one row beyond the
        # group boundary (block 6) but never block 7.
        assert pulled == [5, 6]

    def test_streaming_output_is_globally_sorted(self):
        graph = CloneGraph()
        graph.add_clone(3, 0, 10)  # child line sorts *after* other lines
        graph.add_clone(1, 3, 20)
        records = sorted([
            CombinedRecord(5, 1, 0, 0, 1, INFINITY),
            CombinedRecord(5, 1, 0, 2, 4, INFINITY),
            CombinedRecord(9, 2, 1, 0, 1, INFINITY),
        ])
        out = row_expand(records, graph)
        assert out == sorted(out)
        assert out == materialized_expand(records, graph)
        owners = list(fold_owners(records, graph))
        assert owners == sorted(owners)
        assert owners == QueryEngine._group(out)

    def test_duplicates_across_group_boundary(self):
        graph = CloneGraph()
        graph.add_clone(1, 0, 10)
        a = CombinedRecord(5, 1, 0, 0, 1, INFINITY)
        b = CombinedRecord(6, 1, 0, 0, 1, INFINITY)
        expected = materialized_expand([a, a, b, b], graph)
        assert row_expand([a, a, b, b], graph) == expected
        assert list(fold_owners([a, a, b, b], graph)) == QueryEngine._group(expected)

    def test_synthesized_records_do_not_act_as_overrides(self):
        """Only *initial* from=0 records suppress inheritance (§4.2.2)."""
        graph = CloneGraph()
        graph.add_clone(1, 0, 10)
        graph.add_clone(2, 1, 20)
        records = [CombinedRecord(5, 1, 0, 0, 1, INFINITY)]
        out = row_expand(records, graph)
        # Line 1 inherits (from=0), and despite that record having from=0 it
        # must still propagate to line 2.
        assert CombinedRecord(5, 1, 0, 2, 0, INFINITY) in out
        assert out == materialized_expand(records, graph)
