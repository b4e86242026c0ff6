"""Tests for database maintenance (compaction)."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.backlog import Backlog
from repro.core.config import BacklogConfig
from repro.core.masking import ExplicitVersionAuthority
from repro.core.records import CombinedRecord, INFINITY

from test_streaming_equivalence import _fresh_backlog, _random_ops, _replay


def _standalone_backlog(authority=None):
    return Backlog(version_authority=authority or ExplicitVersionAuthority())


def _database_digest(backend) -> str:
    """SHA-256 over every file's name and pages, in name order."""
    digest = hashlib.sha256()
    for name in sorted(backend.list_files()):
        page_file = backend.open(name)
        digest.update(name.encode())
        for index in range(page_file.num_pages):
            digest.update(page_file.read_page(index))
    return digest.hexdigest()


@pytest.mark.parametrize("seed,suppressed,counters,expected", [
    (3, 5, (326, 94, 88),
     "b6d7f1d6f5939ec58172a3734645e414394b908ff137d069b27052beed3ee675"),
    (11, 2, (319, 126, 64),
     "2a43e0fbec2aa6567da2c84c8d7322f2452c10d7132cbc6983d17ab14bcb1cd7"),
    (29, 1, (268, 77, 66),
     "0da81c5527f770d972b293c9b6de6e29f545025b2c5778f203a86d2d8b9ad16e"),
    (41, 3, (311, 117, 57),
     "bbad12663b4931eca8797bffc99dce2e89d5443a98b73f7edc902398a2334b54"),
    (77, 3, (283, 93, 61),
     "c0b60d32f16ff7cb6eabbcd29925e59e3bf4f863cd01bce83017fbacad90ad9d"),
])
def test_compacted_files_match_the_previous_release(seed, suppressed, counters, expected):
    """Golden hashes recorded from the compactor that joined record objects:
    maintenance on rows writes the same bytes and the same counters, with
    relocations pending in the deletion vector, clones, snapshot deletions
    and purges in every workload."""
    backlog, authority = _fresh_backlog()
    _replay(backlog, authority, _random_ops(seed, num_cps=12, ops_per_cp=40))
    backlog.checkpoint()
    assert len(backlog.deletion_vector) == suppressed
    result = backlog.maintain()
    assert (result.records_in, result.records_out, result.records_purged) == counters
    assert _database_digest(backlog.backend) == expected
    assert not backlog.deletion_vector


class TestMergeAndJoin:
    def test_compaction_reduces_run_count(self):
        backlog = _standalone_backlog()
        for cp in range(5):
            for i in range(50):
                backlog.add_reference(block=i, inode=1, offset=cp * 50 + i)
            backlog.checkpoint()
        assert backlog.run_manager.run_count() == 5
        result = backlog.maintain()
        assert backlog.run_manager.run_count() <= 2
        assert result.partitions_processed == 1
        assert result.records_in > 0

    def test_combined_precomputed_after_compaction(self):
        authority = ExplicitVersionAuthority()
        backlog = _standalone_backlog(authority)
        backlog.add_reference(10, 1, 0)
        authority.add_snapshot(0, 1)
        backlog.checkpoint()          # CP 1
        authority.set_current_cp(2)
        backlog.remove_reference(10, 1, 0)
        authority.add_snapshot(0, 2)
        backlog.checkpoint()          # CP 2
        authority.set_current_cp(3)
        backlog.maintain()
        combined_runs = backlog.run_manager.runs_for(0, "combined")
        assert len(combined_runs) == 1
        records = list(combined_runs[0].iter_all())
        assert records == [CombinedRecord(10, 1, 0, 0, 1, 2)]
        # From/To Level-0 runs are gone.
        assert backlog.run_manager.runs_for(0, "to") == []

    def test_live_records_stay_in_from_run(self):
        backlog = _standalone_backlog()
        backlog.add_reference(10, 1, 0)
        backlog.checkpoint()
        backlog.maintain()
        from_runs = backlog.run_manager.runs_for(0, "from")
        assert len(from_runs) == 1
        assert list(from_runs[0].iter_all())[0].from_cp == 1
        # Queries still see the live reference.
        assert backlog.query(10)[0].is_live

    def test_compaction_reduces_database_size(self):
        """Merging runs and purging dead records shrinks the database (§6.2.1)."""
        authority = ExplicitVersionAuthority()
        backlog = _standalone_backlog(authority)
        for cp in range(1, 21):
            authority.set_current_cp(cp)
            for i in range(100):
                backlog.add_reference(block=i, inode=1, offset=i, cp=cp)
                backlog.remove_reference(block=i, inode=1, offset=i, cp=cp + 0)
            # disable pruning effect by alternating cp? records here all prune;
            # instead add some that persist across CPs:
            backlog.add_reference(block=1000 + cp, inode=2, offset=cp, cp=cp)
            backlog.checkpoint()
        for cp in range(1, 11):
            authority.set_current_cp(20 + cp)
            backlog.remove_reference(block=1000 + cp, inode=2, offset=cp, cp=20 + cp)
            backlog.checkpoint()
        size_before = backlog.database_size_bytes()
        result = backlog.maintain()
        assert backlog.database_size_bytes() < size_before
        assert result.bytes_after < result.bytes_before
        assert 0.0 < result.reduction_ratio <= 1.0


class TestPurging:
    def test_records_of_deleted_versions_are_purged(self):
        authority = ExplicitVersionAuthority()
        backlog = _standalone_backlog(authority)
        authority.set_current_cp(1)
        backlog.add_reference(5, 1, 0, cp=1)
        backlog.checkpoint()
        authority.set_current_cp(2)
        backlog.remove_reference(5, 1, 0, cp=2)
        backlog.checkpoint()
        authority.set_current_cp(3)
        # No snapshot retains CP 1, so the record [1, 2) is purgeable.
        result = backlog.maintain()
        assert result.records_purged == 1
        assert backlog.query(5) == []

    def test_records_covering_retained_snapshot_survive(self):
        authority = ExplicitVersionAuthority()
        backlog = _standalone_backlog(authority)
        authority.set_current_cp(1)
        backlog.add_reference(5, 1, 0, cp=1)
        authority.add_snapshot(0, 1)
        backlog.checkpoint()
        authority.set_current_cp(2)
        backlog.remove_reference(5, 1, 0, cp=2)
        backlog.checkpoint()
        result = backlog.maintain()
        assert result.records_purged == 0
        refs = backlog.query(5)
        assert refs and refs[0].ranges == ((1, 2),)

    def test_clone_override_records_never_purged_while_clone_exists(self):
        """Purging an override would resurrect inherited references."""
        authority = ExplicitVersionAuthority()
        backlog = _standalone_backlog(authority)
        authority.set_current_cp(1)
        backlog.add_reference(5, 1, 0, line=0, cp=1)
        authority.add_snapshot(0, 1)
        backlog.checkpoint()
        backlog.register_clone(new_line=1, parent_line=0, parent_version=1)
        authority.add_line(1)
        authority.set_current_cp(2)
        # The clone drops the block (override record), no snapshot of line 1
        # retains any version before the drop.
        backlog.remove_reference(5, 1, 0, line=1, cp=2)
        backlog.checkpoint()
        authority.set_current_cp(3)
        backlog.maintain()
        refs = {ref.line: ref for ref in backlog.query(5)}
        assert refs[0].is_live          # parent still references the block
        # The clone must NOT inherit the reference back: it is either absent
        # (its only lifetime is masked) or present with a closed lifetime.
        assert 1 not in refs or not refs[1].is_live

    def test_cloned_snapshot_backrefs_pinned_by_clone_point(self):
        authority = ExplicitVersionAuthority()
        backlog = _standalone_backlog(authority)
        authority.set_current_cp(1)
        backlog.add_reference(8, 1, 0, line=0, cp=1)
        backlog.checkpoint()
        backlog.register_clone(new_line=1, parent_line=0, parent_version=1)
        authority.add_line(1)
        authority.set_current_cp(2)
        backlog.remove_reference(8, 1, 0, line=0, cp=2)
        backlog.checkpoint()
        authority.set_current_cp(3)
        # Line 0 retains nothing in [1, 2), but the clone was taken at
        # version 1, so the record must survive for inheritance.
        backlog.maintain()
        refs = {ref.line for ref in backlog.query(8)}
        assert 1 in refs

    def test_deletion_vector_folded_in(self):
        backlog = _standalone_backlog()
        backlog.add_reference(9, 1, 0)
        backlog.checkpoint()
        backlog.relocate_block(9)
        assert len(backlog.deletion_vector) == 1
        backlog.maintain()
        assert len(backlog.deletion_vector) == 0
        assert backlog.query(9) == []


class TestMaintenanceStats:
    def test_stats_accumulate(self):
        backlog = _standalone_backlog()
        backlog.add_reference(1, 1, 0)
        backlog.checkpoint()
        first = backlog.maintain()
        second = backlog.maintain()
        assert first.sequence == 1
        assert second.sequence == 2
        assert len(backlog.stats.maintenance_runs) == 2
        assert first.seconds >= 0.0

    def test_compact_empty_database(self):
        backlog = _standalone_backlog()
        result = backlog.maintain()
        assert result.partitions_processed == 0
        assert result.records_in == 0
