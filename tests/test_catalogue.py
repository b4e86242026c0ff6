"""Catalogue snapshots: pinning, epoch reclamation, tombstones, accounting."""

from __future__ import annotations

import pytest

from repro import (
    Backlog,
    BacklogConfig,
    DiskBackend,
    QuerySpec,
    recover_backlog,
    scrub_backend,
)
from repro.core.lsm import (
    TOMBSTONE_SUFFIX,
    parse_tombstone_name,
    tombstone_name,
)
from repro.core.lsm import rebuild_run_manager

CONFIG = dict(partition_size_blocks=256, narrow_dispatch_max_runs=0)


def _backlog(tmp_path):
    return Backlog(backend=DiskBackend(str(tmp_path / "runs")),
                   config=BacklogConfig(**CONFIG))


def _populate(backlog, blocks=512, rounds=4):
    per_round = blocks // rounds
    for round_index in range(rounds):
        for i in range(round_index * per_round, (round_index + 1) * per_round):
            backlog.add_reference(block=i, inode=1 + (i % 7), offset=i)
        backlog.checkpoint()


def _catalogued_names(manager):
    return {run.name for partition in manager.partitions()
            for run in manager.runs_for(partition)}


# -------------------------------------------------------------- snapshot API


class TestSnapshotLifecycle:
    def test_select_pins_and_release_unpins(self, tmp_path):
        backlog = _backlog(tmp_path)
        _populate(backlog)
        snapshot = backlog.catalogue.select()
        assert backlog.catalogue.pinned_snapshots() == 1
        assert not snapshot.released
        snapshot.release()
        assert snapshot.released
        assert backlog.catalogue.pinned_snapshots() == 0

    def test_release_is_idempotent(self, tmp_path):
        backlog = _backlog(tmp_path)
        _populate(backlog)
        snapshot = backlog.catalogue.select()
        snapshot.release()
        snapshot.release()          # must not double-decrement
        assert backlog.catalogue.pinned_snapshots() == 0
        other = backlog.catalogue.select()
        assert backlog.catalogue.pinned_snapshots() == 1
        other.release()

    def test_context_manager_releases(self, tmp_path):
        backlog = _backlog(tmp_path)
        _populate(backlog)
        with backlog.catalogue.select() as snapshot:
            assert snapshot.runs_for_block_range(snapshot.partitions(), 0, 512)
            assert backlog.catalogue.pinned_snapshots() == 1
        assert backlog.catalogue.pinned_snapshots() == 0

    def test_snapshot_runs_are_immune_to_catalogue_mutation(self, tmp_path):
        backlog = _backlog(tmp_path)
        _populate(backlog)
        with backlog.catalogue.select() as snapshot:
            before = set(snapshot.run_names())
            backlog.maintain()      # retires the L0 runs behind the pin
            assert set(snapshot.run_names()) == before
            live = _catalogued_names(backlog.run_manager)
            assert live.isdisjoint(before) or live != before


# --------------------------------------------------------- epoch reclamation


class TestEpochReclamation:
    def test_no_pins_means_immediate_delete(self, tmp_path):
        backlog = _backlog(tmp_path)
        _populate(backlog)
        old_names = _catalogued_names(backlog.run_manager)
        backlog.maintain()
        manager = backlog.run_manager
        assert manager.deferred_run_names() == []
        assert manager.deferred_bytes() == 0
        for name in old_names - _catalogued_names(manager):
            assert not backlog.backend.exists(name)
            assert not backlog.backend.exists(tombstone_name(name))

    def test_pin_defers_deletion_and_writes_tombstones(self, tmp_path):
        backlog = _backlog(tmp_path)
        _populate(backlog)
        manager = backlog.run_manager
        old_names = _catalogued_names(manager)
        snapshot = backlog.catalogue.select()
        backlog.maintain()
        deferred = set(manager.deferred_run_names())
        assert deferred  # compaction retired the pinned L0 files
        assert deferred <= old_names
        assert manager.deferred_bytes() > 0
        for name in deferred:
            assert backlog.backend.exists(name)
            assert backlog.backend.exists(tombstone_name(name))
            assert name in manager.pinned_run_names()
        # Deferred files are not database size.
        assert backlog.database_size_bytes() == sum(
            run.size_bytes for partition in manager.partitions()
            for run in manager.runs_for(partition))

        snapshot.release()
        assert manager.deferred_run_names() == []
        for name in deferred:
            assert not backlog.backend.exists(name)
            assert not backlog.backend.exists(tombstone_name(name))

    def test_release_order_respects_oldest_pin(self, tmp_path):
        backlog = _backlog(tmp_path)
        _populate(backlog)
        manager = backlog.run_manager
        old_pin = backlog.catalogue.select()          # version V
        backlog.maintain()                            # retires at V+1
        first_wave = set(manager.deferred_run_names())
        assert first_wave
        new_pin = backlog.catalogue.select()          # version >= V+1
        # The newer pin never saw the retired files; only the old pin
        # holds them.
        old_pin.release()
        assert manager.deferred_run_names() == []
        for name in first_wave:
            assert not backlog.backend.exists(name)
        # Retirements behind the *newer* pin still defer.
        _populate(backlog, blocks=512, rounds=2)
        backlog.maintain()
        second_wave = set(manager.deferred_run_names())
        assert second_wave
        new_pin.release()
        assert manager.deferred_run_names() == []

    def test_pinned_snapshot_still_answers_after_retirement(self, tmp_path):
        """The point of it all: a pinned reader's files stay readable."""
        backlog = _backlog(tmp_path)
        _populate(backlog)
        cursor = backlog.select(QuerySpec(first_block=0, num_blocks=512))
        first = next(cursor)                 # cursor now pins the catalogue
        backlog.maintain()
        rest = [(ref.block, ref.inode, ref.offset) for ref in cursor]
        seen = {(first.block, first.inode, first.offset), *rest}
        assert seen == {(i, 1 + (i % 7), i) for i in range(512)}


# ------------------------------------------------------------- frozen views


class TestFrozenViews:
    def test_snapshot_write_store_survives_checkpoint_clear(self, tmp_path):
        backlog = _backlog(tmp_path)
        backlog.add_reference(block=3, inode=9, offset=0)
        backlog.add_reference(block=4, inode=9, offset=1)
        with backlog.catalogue.select() as snapshot:
            assert len(snapshot.ws_from) == 2
            backlog.checkpoint()             # clears the live write stores
            assert len(backlog.ws_from) == 0
            assert len(snapshot.ws_from) == 2    # frozen view is immune

    def test_records_visible_exactly_once_across_checkpoint(self, tmp_path):
        backlog = _backlog(tmp_path)
        backlog.add_reference(block=3, inode=9, offset=0)
        before = backlog.catalogue.select()
        backlog.checkpoint()
        after = backlog.catalogue.select()
        # Before the CP: the record lives in the write store, not in runs.
        assert len(before.ws_from) == 1
        assert not before.runs_for_block_range(before.partitions(), 3, 1)
        # After the CP: in runs, not in the write store.
        assert len(after.ws_from) == 0
        assert after.runs_for_block_range(after.partitions(), 3, 1)
        before.release()
        after.release()

    def test_frozen_deletion_vector_sees_later_suppressions(self, tmp_path):
        """Suppression is monotone hiding: pinned readers honour it too."""
        backlog = _backlog(tmp_path)
        _populate(backlog, blocks=64, rounds=1)
        with backlog.catalogue.select() as snapshot:
            suppressed = backlog.relocate_block(7)
            assert suppressed == 1
            record = next(iter(backlog.select(QuerySpec(8)).all()))
            assert not snapshot.deletion_vector.is_suppressed(record)


# ------------------------------------------------- crash recovery and scrub


class TestTombstoneRecovery:
    def _crash_with_deferred(self, tmp_path):
        """A backend state as left by a crash mid-defer: tombstoned files."""
        backlog = _backlog(tmp_path)
        _populate(backlog)
        pin = backlog.catalogue.select()
        backlog.maintain()
        deferred = set(backlog.run_manager.deferred_run_names())
        assert deferred
        # Simulated crash: the process dies with the pin outstanding.
        del pin
        return backlog.backend, deferred

    def test_rebuild_skips_tombstoned_runs(self, tmp_path):
        backend, deferred = self._crash_with_deferred(tmp_path)
        manager = rebuild_run_manager(backend)
        assert deferred.isdisjoint(_catalogued_names(manager))
        # ... and never hands out a colliding sequence number.
        highest = max(int(name.rsplit("_", 1)[1])
                      for name in deferred | _catalogued_names(manager))
        assert manager.next_sequence() > highest

    def test_recover_backlog_answers_without_tombstoned_runs(self, tmp_path):
        backend, _ = self._crash_with_deferred(tmp_path)
        recovered = recover_backlog(backend, config=BacklogConfig(**CONFIG))
        seen = {(ref.block, ref.inode, ref.offset)
                for ref in recovered.select(QuerySpec(first_block=0,
                                                      num_blocks=512))}
        assert seen == {(i, 1 + (i % 7), i) for i in range(512)}
        assert recovered.catalogue.run_manager is recovered.run_manager

    def test_scrub_reports_deferred_and_reclaims(self, tmp_path):
        backend, deferred = self._crash_with_deferred(tmp_path)
        report = scrub_backend(backend)
        assert set(report.files_deferred) >= deferred
        assert report.clean                  # deferred leftovers are benign
        reclaimed = scrub_backend(backend, reclaim=True)
        assert set(reclaimed.files_deferred) >= deferred
        for name in deferred:
            assert not backend.exists(name)
            assert not backend.exists(tombstone_name(name))
        assert scrub_backend(backend).files_deferred == []

    def test_orphan_tombstone_is_reported_and_removed(self, tmp_path):
        backlog = _backlog(tmp_path)
        _populate(backlog, blocks=64, rounds=1)
        name = next(iter(_catalogued_names(backlog.run_manager)))
        marker = tombstone_name(name + "9")   # run name that never existed
        # An orphan marker: its run file is gone (deleted before the crash).
        backlog.backend.create(marker).append_page(b"retired")
        report = scrub_backend(backlog.backend)
        assert marker in report.files_deferred
        rebuild_run_manager(backlog.backend, remove_invalid=True)
        assert not backlog.backend.exists(marker)

    def test_tombstone_name_round_trip(self):
        name = "p000001/from/L0_0000000042"
        marker = tombstone_name(name)
        assert marker.endswith(TOMBSTONE_SUFFIX)
        assert parse_tombstone_name(marker) == name
        assert parse_tombstone_name(name) is None
        assert parse_tombstone_name("junk" + TOMBSTONE_SUFFIX) is None


# ---------------------------------------------------------------- accounting


class TestAccounting:
    def test_quarantine_excluded_from_database_size(self, tmp_path):
        backlog = _backlog(tmp_path)
        _populate(backlog)
        manager = backlog.run_manager
        size_before = backlog.database_size_bytes()
        victim = next(run for partition in manager.partitions()
                      for run in manager.runs_for(partition))
        assert manager.quarantine_run(victim.name)
        assert backlog.database_size_bytes() == size_before - victim.size_bytes
        assert backlog.quarantined_bytes() == victim.size_bytes
        assert backlog.backend.exists(victim.name)   # kept for post-mortem
        # Once an external scrub reclaims the file, the bytes drop to zero.
        backlog.backend.delete(victim.name)
        assert backlog.quarantined_bytes() == 0

    def test_deferred_bytes_track_pending_reclamation(self, tmp_path):
        backlog = _backlog(tmp_path)
        _populate(backlog)
        with backlog.catalogue.select():
            backlog.maintain()
            assert backlog.deferred_bytes() == sum(
                size for _, _, size in backlog.run_manager._deferred)
            assert backlog.deferred_bytes() > 0
        assert backlog.deferred_bytes() == 0

    def test_double_quarantine_returns_false(self, tmp_path):
        backlog = _backlog(tmp_path)
        _populate(backlog, blocks=64, rounds=1)
        manager = backlog.run_manager
        victim = next(run for partition in manager.partitions()
                      for run in manager.runs_for(partition))
        assert manager.quarantine_run(victim.name) is True
        assert manager.quarantine_run(victim.name) is False
        assert manager.quarantine_run("p000000/from/L0_0000009999") is False


# ---------------------------------------------------------------- misc guards


class TestGuards:
    def test_unknown_table_rejected_by_replace(self, tmp_path):
        backlog = _backlog(tmp_path)
        with pytest.raises(ValueError):
            backlog.run_manager.replace_partition(0, {"sideways": []})
