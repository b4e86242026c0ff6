"""Tests for the Backlog manager (standalone API and listener behaviour)."""

from __future__ import annotations

import pytest

from repro.core.backlog import Backlog
from repro.core.compaction import Compactor
from repro.core.config import BacklogConfig
from repro.core.records import FromRecord, INFINITY, ToRecord
from repro.fsim.blockdev import MemoryBackend


class TestConfigValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            BacklogConfig(partition_size_blocks=0)
        with pytest.raises(ValueError):
            BacklogConfig(run_bloom_bits=0)
        with pytest.raises(ValueError):
            BacklogConfig(cache_bytes=-1)
        with pytest.raises(ValueError):
            BacklogConfig(maintenance_interval_cps=0)

    def test_removed_implementation_flags_fail_closed(self):
        """A stale caller cannot believe it selected a path that is gone."""
        with pytest.raises(TypeError):
            BacklogConfig(columnar_pipeline=False)
        with pytest.raises(TypeError):
            BacklogConfig(streaming_compaction=False)
        backlog = Backlog()
        with pytest.raises(TypeError):
            Compactor(backlog.run_manager, backlog.config,
                      backlog.version_authority, backlog.clone_graph,
                      backlog.deletion_vector, streaming=False)


class TestStandaloneUpdates:
    def test_add_then_query_from_write_store(self):
        backlog = Backlog()
        backlog.add_reference(block=100, inode=2, offset=0)
        refs = backlog.query(100)
        assert len(refs) == 1
        assert refs[0].inode == 2
        assert refs[0].is_live
        assert backlog.pending_updates() == 1

    def test_checkpoint_flushes_and_queries_still_work(self):
        backlog = Backlog()
        backlog.add_reference(100, 2, 0)
        backlog.add_reference(101, 2, 1)
        cp = backlog.checkpoint()
        assert cp == 1
        assert backlog.current_cp == 2
        assert backlog.pending_updates() == 0
        assert backlog.database_size_bytes() > 0
        assert {ref.block for ref in backlog.query_range(100, 2)} == {100, 101}

    def test_remove_reference_closes_lifetime(self):
        backlog = Backlog()
        backlog.add_reference(100, 2, 0)
        backlog.checkpoint()       # CP 1
        backlog.remove_reference(100, 2, 0)
        backlog.checkpoint()       # CP 2
        refs = backlog.query(100)
        assert refs[0].ranges == ((1, 2),)
        assert not refs[0].is_live

    def test_paper_section_4_1_example_via_api(self):
        """Inode 2: two blocks created at CP 4, truncated to one at CP 7."""
        backlog = Backlog()
        backlog.current_cp = 4
        backlog.add_reference(100, 2, 0)
        backlog.add_reference(101, 2, 1)
        for _ in range(4, 7):
            backlog.checkpoint()
        assert backlog.current_cp == 7
        backlog.remove_reference(101, 2, 1)
        backlog.checkpoint()
        ref_100 = backlog.query(100)[0]
        ref_101 = backlog.query(101)[0]
        assert ref_100.ranges == ((4, INFINITY),)
        assert ref_101.ranges == ((4, 7),)


class TestProactivePruning:
    def test_add_remove_within_cp_never_persists(self):
        backlog = Backlog()
        backlog.add_reference(50, 1, 0)
        backlog.remove_reference(50, 1, 0)
        assert backlog.pending_updates() == 0
        assert backlog.stats.pruned_pairs == 1
        backlog.checkpoint()
        assert backlog.query(50) == []

    def test_remove_then_readd_within_cp_restores_single_lifetime(self):
        """A reference removed and re-added in the same CP keeps one record."""
        backlog = Backlog()
        backlog.current_cp = 3
        backlog.add_reference(70, 1, 0)
        backlog.checkpoint()   # CP 3 -> reference live since CP 3
        backlog.current_cp = 4
        backlog.remove_reference(70, 1, 0)
        backlog.add_reference(70, 1, 0)      # re-allocated within CP 4
        backlog.checkpoint()
        refs = backlog.query(70)
        assert refs[0].ranges == ((3, INFINITY),)

    def test_pruning_can_be_disabled(self):
        backlog = Backlog(config=BacklogConfig(proactive_pruning=False))
        backlog.add_reference(50, 1, 0)
        backlog.remove_reference(50, 1, 0)
        assert backlog.pending_updates() == 2
        assert backlog.stats.pruned_pairs == 0


class TestFlushBehaviour:
    def test_no_disk_reads_during_normal_operation(self):
        """Updates and flushes never read from disk (§4, §5.1)."""
        backend = MemoryBackend()
        backlog = Backlog(backend=backend)
        for cp in range(5):
            for i in range(200):
                backlog.add_reference(block=cp * 200 + i, inode=1, offset=i)
            backlog.checkpoint()
        assert backend.stats.pages_written > 0
        # The only reads are the header-page reads that open each new run.
        assert backend.stats.pages_read <= backend.stats.files_created * 2

    def test_checkpoint_stats_recorded(self):
        backlog = Backlog()
        backlog.add_reference(1, 1, 0)
        backlog.checkpoint()
        assert len(backlog.stats.checkpoints) == 1
        cp_stats = backlog.stats.checkpoints[0]
        assert cp_stats.block_ops == 1
        assert cp_stats.persistent_ops == 1
        assert cp_stats.pages_written > 0
        assert backlog.stats.writes_per_block_op > 0
        assert backlog.stats.microseconds_per_block_op > 0
        series = backlog.stats.overhead_series()
        assert series["cp"] == [1]

    def test_empty_checkpoint_writes_nothing(self):
        backend = MemoryBackend()
        backlog = Backlog(backend=backend)
        backlog.checkpoint()
        assert backend.stats.pages_written == 0
        assert backlog.stats.checkpoints[0].pages_written == 0

    def test_runs_partitioned_by_block(self):
        backlog = Backlog(config=BacklogConfig(partition_size_blocks=100))
        backlog.add_reference(5, 1, 0)
        backlog.add_reference(250, 1, 1)
        backlog.checkpoint()
        assert backlog.run_manager.partitions() == [0, 2]

    def test_automatic_maintenance_interval(self):
        backlog = Backlog(config=BacklogConfig(maintenance_interval_cps=2))
        for cp in range(4):
            backlog.add_reference(cp, 1, cp)
            backlog.checkpoint()
        assert len(backlog.stats.maintenance_runs) == 2


class TestClonesAndRelocation:
    def test_register_clone_affects_queries(self):
        backlog = Backlog()
        backlog.add_reference(10, 1, 0, line=0)
        backlog.checkpoint()   # CP 1
        backlog.register_clone(new_line=1, parent_line=0, parent_version=1)
        refs = backlog.query(10)
        lines = {ref.line for ref in refs}
        assert lines == {0, 1}

    def test_duplicate_clone_registration_rejected(self):
        backlog = Backlog()
        backlog.register_clone(1, 0, 1)
        with pytest.raises(ValueError):
            backlog.register_clone(1, 0, 2)

    def test_relocate_block_suppresses_old_references(self):
        backlog = Backlog()
        backlog.add_reference(10, 1, 0)
        backlog.checkpoint()
        suppressed = backlog.relocate_block(10)
        assert suppressed == 1
        assert backlog.query(10) == []
        # After maintenance the suppression is folded in and the vector cleared.
        backlog.maintain()
        assert backlog.query(10) == []
        assert len(backlog.deletion_vector) == 0

    def test_zombie_tracking(self):
        backlog = Backlog()
        backlog.on_snapshot_deleted(0, 5, True, 6)
        assert (0, 5) in backlog.zombies
        backlog.on_snapshot_deleted(0, 5, False, 7)
        assert (0, 5) not in backlog.zombies


class TestAccounting:
    def test_space_overhead(self):
        backlog = Backlog()
        for i in range(100):
            backlog.add_reference(i, 1, i)
        backlog.checkpoint()
        assert backlog.space_overhead(0) == 0.0
        overhead = backlog.space_overhead(100 * 4096)
        assert 0.0 < overhead < 1.0

    def test_memory_footprint(self):
        backlog = Backlog()
        backlog.add_reference(1, 1, 0)
        assert backlog.memory_footprint_bytes() > 0

    def test_timing_can_be_disabled(self):
        backlog = Backlog(config=BacklogConfig(track_timing=False))
        backlog.add_reference(1, 1, 0)
        backlog.checkpoint()
        assert backlog.stats.update_seconds == 0.0
