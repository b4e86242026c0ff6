"""Tests for crash recovery of the back-reference database."""

from __future__ import annotations

import pytest

from repro.core.backlog import Backlog
from repro.core.lsm import parse_run_name, rebuild_run_manager, run_name
from repro.core.recovery import recover_backlog
from repro.fsim.blockdev import DiskBackend, MemoryBackend
from repro.fsim.filesystem import FileSystem, FileSystemConfig
from repro.fsim.journal import Journal
from repro.core.masking import SnapshotManagerAuthority
from repro.core.verify import verify_backlog


class TestParseRunName:
    def test_valid_names(self):
        assert parse_run_name("p000001/from/L0_0000000003") == (1, "from", "L0", 3)
        assert parse_run_name("p000010/combined/compact_0000000042") == (10, "combined", "compact", 42)

    def test_invalid_names(self):
        assert parse_run_name("naive/conceptual_table") is None
        assert parse_run_name("p1/bogus/L0_1") is None
        assert parse_run_name("random-file.txt") is None


class TestRebuildRunManager:
    def test_rebuild_finds_all_runs(self):
        backend = MemoryBackend()
        original = Backlog(backend=backend)
        for cp in range(3):
            for i in range(20):
                original.add_reference(block=i, inode=1, offset=i, cp=cp + 1)
            original.checkpoint()
        rebuilt = rebuild_run_manager(backend)
        assert rebuilt.run_count() == original.run_manager.run_count()
        assert rebuilt.total_records() == original.run_manager.total_records()

    def test_rebuild_ignores_foreign_files(self):
        backend = MemoryBackend()
        backend.create("unrelated").append_page(b"junk")
        manager = rebuild_run_manager(backend)
        assert manager.run_count() == 0


class TestRecoverBacklog:
    def test_opening_mounts_the_runs_already_on_the_backend(self):
        """A second instance answers the first one's references and names
        its runs past them, so nothing the first wrote is overwritten."""
        backend = MemoryBackend()
        first = Backlog(backend=backend)
        first.add_reference(5, 1, 0)
        first.checkpoint()
        first.close()
        second = Backlog(backend=backend)
        assert [(ref.block, ref.inode) for ref in second.query(5)] == [(5, 1)]
        second.add_reference(6, 2, 0)
        second.checkpoint()
        second.close()
        assert backend.exists(run_name(0, "from", "L0", 1))
        assert backend.exists(run_name(0, "from", "L0", 2))
        recovered = recover_backlog(backend)
        assert [(ref.block, ref.inode) for ref in recovered.query_range(5, 2)] == \
            [(5, 1), (6, 2)]

    def test_state_before_last_cp_survives_crash(self):
        backend = MemoryBackend()
        original = Backlog(backend=backend)
        original.add_reference(100, 2, 0)
        original.add_reference(101, 2, 1)
        original.checkpoint()
        # Crash: the original instance (and its write stores) disappear.
        recovered = recover_backlog(backend, current_cp=original.current_cp)
        assert {ref.block for ref in recovered.query_range(100, 2)} == {100, 101}

    def test_journal_replay_restores_post_cp_updates(self):
        backend = MemoryBackend()
        journal = Journal()
        original = Backlog(backend=backend)
        original.add_reference(100, 2, 0, cp=1)
        journal.log_add(100, 2, 0, 0, 1)
        original.checkpoint()
        # Journal is truncated at the CP, as the file system would do.
        journal.truncate()
        # Updates after the CP are only in memory + journal.
        original.add_reference(200, 3, 0, cp=2)
        journal.log_add(200, 3, 0, 0, 2)
        original.remove_reference(100, 2, 0, cp=2)
        journal.log_remove(100, 2, 0, 0, 2)

        recovered = recover_backlog(backend, journal=journal, current_cp=2)
        assert recovered.pending_updates() == 2
        assert recovered.query(200)[0].is_live
        assert recovered.query(100)[0].ranges == ((1, 2),)

    def test_recovery_from_disk_backend(self, tmp_path):
        directory = str(tmp_path / "backlog-db")
        backend = DiskBackend(directory)
        original = Backlog(backend=backend)
        for i in range(50):
            original.add_reference(block=i, inode=1, offset=i)
        original.checkpoint()
        # Re-open from a fresh DiskBackend instance, as after a real restart.
        recovered = recover_backlog(DiskBackend(directory), current_cp=2)
        assert len(recovered.query_range(0, 50)) == 50

    def test_full_crash_recovery_against_filesystem(self):
        """End to end: crash after CP + journaled tail, verify against the FS."""
        backend = MemoryBackend()
        backlog = Backlog(backend=backend)
        fs = FileSystem(FileSystemConfig(ops_per_cp=10**9, auto_cp=False),
                        listeners=[backlog])
        backlog.set_version_authority(SnapshotManagerAuthority(fs))
        files = [fs.create_file(num_blocks=5) for _ in range(10)]
        fs.take_consistency_point()
        for inode in files[:5]:
            fs.write(inode, 0, 2)
        # Crash now: Backlog's write stores are lost, but the FS journal holds
        # the operations since the last CP.
        recovered = recover_backlog(
            backend,
            journal=fs.journal,
            version_authority=SnapshotManagerAuthority(fs),
            current_cp=fs.global_cp,
        )
        report = verify_backlog(fs, recovered)
        assert report.ok, report.mismatches[:5]


class TestRecoverBacklogEdgeCases:
    """CP inference corner cases: the docstring rule, pinned down."""

    def test_empty_journal_and_no_current_cp_keeps_fresh_default(self):
        backend = MemoryBackend()
        original = Backlog(backend=backend)
        original.add_reference(100, 2, 0)
        original.checkpoint()
        # Nothing to infer from: no explicit CP, an empty journal.
        for journal in (None, Journal()):
            recovered = recover_backlog(backend, journal=journal)
            assert recovered.current_cp == 1
            assert recovered.pending_updates() == 0
            assert {ref.block for ref in recovered.query_range(100, 1)} == {100}

    def test_explicit_current_cp_wins_over_journal_inference(self):
        backend = MemoryBackend()
        original = Backlog(backend=backend)
        original.add_reference(100, 2, 0, cp=1)
        original.checkpoint()
        journal = Journal()
        # A (stale or disagreeing) journal claiming CP 2; the caller knows
        # the file system's counter says 7.
        journal.log_add(200, 3, 0, 0, 2)
        recovered = recover_backlog(backend, journal=journal, current_cp=7)
        assert recovered.current_cp == 7
        # The journal is still replayed -- inference, not replay, is what
        # the explicit value overrides.
        assert recovered.pending_updates() == 1

    def test_backend_with_only_invalid_runs_recovers_empty(self):
        backend = MemoryBackend()
        # Three crash leftovers: an empty file, a truncated garbage run and
        # a foreign non-run file that must simply be ignored.
        backend.create("p000000/from/L0_0000000001")
        backend.create("p000000/to/L0_0000000002").append_page(b"garbage")
        backend.create("unrelated.txt").append_page(b"not a run")
        recovered = recover_backlog(backend)
        assert recovered.run_manager.run_count() == 0
        assert recovered.query_range(0, 1024) == []
        # remove_invalid reclaimed the leftovers but left the foreign file.
        assert not backend.exists("p000000/from/L0_0000000001")
        assert not backend.exists("p000000/to/L0_0000000002")
        assert backend.exists("unrelated.txt")
        # The leftover sequence numbers still advanced the counter, so new
        # runs cannot collide with the deleted names.
        assert recovered.run_manager.next_sequence() == 3
