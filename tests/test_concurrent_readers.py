"""Concurrent-reader regressions: live cursors vs. checkpoint/maintenance.

The bug this suite pins down: before snapshot isolation, a paginated or
suspended cursor kept :class:`~repro.core.read_store.ReadStoreReader` handles
into run files that ``maintain()`` (compaction) or ``checkpoint()``-triggered
retirement would delete out from under it.  On :class:`MemoryBackend` the
deleted pages stayed readable (the Python list lives on), which is why the
race survived six PRs of green tests; on :class:`DiskBackend` the file is
really gone and the cursor dies with ``IndexError: page N out of range`` --
or worse, silently resumes over a half-merged view.

Post-PR, every query attempt and every cursor pins a
:class:`~repro.core.catalogue.CatalogueSnapshot`; retirement defers file
deletion until the last pin referencing the old catalogue version drops.
The acceptance invariant -- *no run file is ever deleted while a pinned
reader holds it* -- is enforced here mechanically by a delete-guard backend
wrapper in the stress test.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time

from repro import (
    Backlog,
    BacklogConfig,
    DiskBackend,
    FileSystem,
    FileSystemConfig,
    QuerySpec,
    SnapshotManagerAuthority,
)
from repro.baselines.brute_force import BruteForceQuerier

from test_run_index import reference_walk

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20100223"))

# Small partitions so a modest block range spans several partitions and a
# handful of checkpoints stacks several L0 runs per partition -- i.e. real
# compaction work for ``maintain()`` to retire files with.
SMALL_PARTITIONS = dict(partition_size_blocks=256, narrow_dispatch_max_runs=0)

# Churn writes land far above every static block so they can never collide
# with the oracle-checked range.
CHURN_BASE = 1 << 22


def _disk_backlog(tmp_path, backend=None):
    backend = backend or DiskBackend(str(tmp_path / "runs"))
    return Backlog(backend=backend, config=BacklogConfig(**SMALL_PARTITIONS))


def _populate_static(backlog, blocks=2048, rounds=8):
    """``blocks`` static references flushed across ``rounds`` checkpoints."""
    per_round = blocks // rounds
    for round_index in range(rounds):
        for i in range(round_index * per_round, (round_index + 1) * per_round):
            backlog.add_reference(block=i, inode=1 + (i % 31), offset=i, line=0)
        backlog.checkpoint()
    return {(i, 1 + (i % 31), i) for i in range(blocks)}


def _churn_round(backlog, rng, round_index):
    for i in range(32):
        backlog.add_reference(block=CHURN_BASE + rng.randrange(512),
                              inode=997, offset=round_index * 32 + i, line=0)
    backlog.checkpoint()


# --------------------------------------------------------------- regression


class TestMidStreamCursor:
    """The deterministic form of the race: one thread, a suspended cursor."""

    def test_cursor_survives_checkpoint_and_maintain_midstream(self, tmp_path):
        """A cursor opened before maintenance must finish its own snapshot.

        Pre-PR this dies on DiskBackend with ``IndexError: page N out of
        range`` once compaction deletes the L0 files the suspended cursor
        still holds readers into.
        """
        backlog = _disk_backlog(tmp_path)
        expected = _populate_static(backlog)

        cursor = backlog.select(QuerySpec(first_block=0, num_blocks=2048))
        seen = []
        for _ in range(10):                       # suspend mid-stream
            ref = next(cursor)
            seen.append((ref.block, ref.inode, ref.offset))

        rng = random.Random(CHAOS_SEED)
        for round_index in range(4):              # retire the cursor's files
            _churn_round(backlog, rng, round_index)
        backlog.maintain()

        for ref in cursor:                        # drain after the churn
            seen.append((ref.block, ref.inode, ref.offset))

        assert set(seen) == expected
        assert len(seen) == len(expected)         # no replays either
        assert backlog.catalogue.pinned_snapshots() == 0
        # The last release reclaimed every deferred file.
        assert backlog.run_manager.deferred_run_names() == []

    def test_paginated_cursor_survives_maintenance_between_pages(self, tmp_path):
        """Resume tokens must re-enter the *current* catalogue correctly.

        Each page pins a fresh snapshot, so pages straddling a maintenance
        pass see different physical runs -- but the same logical answers.
        """
        backlog = _disk_backlog(tmp_path)
        expected = _populate_static(backlog)

        seen = []
        token = None
        rng = random.Random(CHAOS_SEED + 1)
        page_index = 0
        while True:
            spec = QuerySpec(first_block=0, num_blocks=2048, limit=97,
                             resume_token=token)
            page = backlog.select(spec)
            for ref in page:
                seen.append((ref.block, ref.inode, ref.offset))
            if page.exhausted:
                break
            token = page.resume_token
            # Maintenance (and churn checkpoints) between *every* page.
            _churn_round(backlog, rng, page_index)
            if page_index % 2 == 0:
                backlog.maintain()
            page_index += 1

        assert set(seen) == expected
        assert len(seen) == len(expected)
        assert backlog.catalogue.pinned_snapshots() == 0


# ----------------------------------------------------- oracle-checked thread


class TestCursorVsMaintainerThread:
    """The issue's headline scenario: a paginating reader in one thread,
    checkpoints and compaction in another, answers checked against the
    brute-force baseline."""

    def test_whole_device_cursor_races_maintenance(self, tmp_path):
        backend = DiskBackend(str(tmp_path / "runs"))
        backlog = Backlog(backend=backend,
                          config=BacklogConfig(**SMALL_PARTITIONS))
        fs = FileSystem(FileSystemConfig(ops_per_cp=10 ** 9, auto_cp=False),
                        listeners=[backlog])
        backlog.set_version_authority(SnapshotManagerAuthority(fs))

        # Static files populated first so their physical blocks sit below
        # everything the churn file will ever allocate.
        for _ in range(40):
            fs.create_file(num_blocks=8)
            if fs.volume().inodes and len(fs.volume().inodes) % 8 == 0:
                fs.take_consistency_point()
        fs.take_consistency_point()
        static_limit = 1 + max(
            inode.physical_block(i)
            for inode in fs.volume().inodes.values()
            for i in range(inode.size_blocks))
        oracle = BruteForceQuerier(fs).query_range(0, static_limit)
        assert oracle

        churn_inode = fs.create_file(num_blocks=4)
        fs.take_consistency_point()

        errors = []
        seen = {}

        def reader():
            try:
                token = None
                while True:
                    page = backlog.select(QuerySpec(
                        first_block=0, num_blocks=static_limit,
                        limit=33, resume_token=token))
                    for ref in page:
                        seen[(ref.block, ref.inode, ref.offset, ref.line)] = ref
                    if page.exhausted:
                        return
                    token = page.resume_token
                    time.sleep(0.001)     # let the maintainer interleave
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        rng = random.Random(CHAOS_SEED + 2)
        round_index = 0
        while thread.is_alive() and round_index < 200:
            fs.write(churn_inode, rng.randrange(4), num_blocks=1)
            fs.append(churn_inode, num_blocks=1)
            fs.take_consistency_point()
            if round_index % 3 == 2:
                backlog.maintain()
            round_index += 1
        thread.join()

        assert not errors, errors
        for block, inode, offset, line, version in oracle:
            ref = seen.get((block, inode, offset, line))
            assert ref is not None, (block, inode, offset, line)
            assert ref.covers_version(version), (ref, version)
        assert backlog.catalogue.pinned_snapshots() == 0
        assert backlog.run_manager.deferred_run_names() == []


# ------------------------------------------------------------ chaos stress


class _DeleteGuard:
    """Backend wrapper enforcing the acceptance invariant on every delete.

    If any code path ever deletes a run file while a pinned catalogue
    snapshot still references it, the violation is recorded (and the test
    fails) instead of surfacing later as a flaky read error.
    """

    def __init__(self, inner):
        self._inner = inner
        self.manager = None           # wired after the Backlog exists
        self.violations = []

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    def delete(self, name):
        manager = self.manager
        if manager is not None and name in manager.pinned_run_names():
            self.violations.append(name)
        self._inner.delete(name)


class TestConcurrentReaderStress:
    def test_mixed_readers_race_checkpoint_maintain_relocate_quarantine(
            self, tmp_path):
        guard = _DeleteGuard(DiskBackend(str(tmp_path / "runs")))
        backlog = _disk_backlog(tmp_path, backend=guard)
        guard.manager = backlog.run_manager

        static_blocks = 1024
        expected = _populate_static(backlog, blocks=static_blocks, rounds=8)
        by_block = {}
        for block, inode, offset in expected:
            by_block.setdefault(block, set()).add((inode, offset))

        stop = threading.Event()
        errors = []

        def guarded(fn):
            def runner():
                try:
                    fn()
                except Exception as exc:  # pragma: no cover - regression
                    errors.append(exc)
                    stop.set()
            return runner

        def full_scan_reader():
            rng = random.Random(CHAOS_SEED + 10)
            while not stop.is_set():
                token, seen = None, set()
                while True:
                    page = backlog.select(QuerySpec(
                        first_block=0, num_blocks=static_blocks,
                        limit=rng.choice([61, 97, 151]), resume_token=token))
                    seen.update((r.block, r.inode, r.offset) for r in page)
                    if page.exhausted:
                        break
                    token = page.resume_token
                assert seen == expected

        def live_range_reader():
            rng = random.Random(CHAOS_SEED + 11)
            while not stop.is_set():
                first = rng.randrange(static_blocks - 64)
                refs = backlog.select(QuerySpec(
                    first_block=first, num_blocks=64, live_only=True)).all()
                seen = {(r.block, r.inode, r.offset) for r in refs}
                wanted = {(b, i, o) for (b, i, o) in expected
                          if first <= b < first + 64}
                assert seen == wanted

        def inode_filter_reader():
            rng = random.Random(CHAOS_SEED + 12)
            while not stop.is_set():
                inode = 1 + rng.randrange(31)
                refs = backlog.select(QuerySpec(
                    first_block=0, num_blocks=static_blocks,
                    inodes=frozenset({inode}))).all()
                seen = {(r.block, r.inode, r.offset) for r in refs}
                wanted = {(b, i, o) for (b, i, o) in expected if i == inode}
                assert seen == wanted

        def point_reader():
            rng = random.Random(CHAOS_SEED + 13)
            while not stop.is_set():
                block = rng.randrange(static_blocks)
                owners = {(r.inode, r.offset) for r in backlog.query(block)}
                assert owners == by_block.get(block, set())

        readers = [threading.Thread(target=guarded(fn)) for fn in
                   (full_scan_reader, live_range_reader,
                    inode_filter_reader, point_reader)]
        for thread in readers:
            thread.start()

        # One writer/maintainer thread (this one): churn checkpoints,
        # compaction, relocation and quarantine, all against the same
        # catalogue the readers are pinned into.  Churn and quarantine are
        # confined to partitions above the static range so the readers'
        # oracle stays exact.
        churn_partition = CHURN_BASE // SMALL_PARTITIONS["partition_size_blocks"]
        rng = random.Random(CHAOS_SEED + 14)
        try:
            for round_index in range(25):
                if errors:
                    break
                _churn_round(backlog, rng, round_index)
                if round_index % 4 == 1:
                    backlog.maintain()
                if round_index % 5 == 2:
                    backlog.relocate_block(CHURN_BASE + rng.randrange(512))
                if round_index % 7 == 3:
                    victims = [
                        run.name
                        for partition in backlog.run_manager.partitions()
                        if partition >= churn_partition
                        for run in backlog.run_manager.runs_for(partition)]
                    if victims:
                        backlog.run_manager.quarantine_run(rng.choice(victims))
        finally:
            stop.set()
            for thread in readers:
                thread.join()

        assert not errors, errors
        assert not guard.violations, guard.violations
        assert backlog.catalogue.pinned_snapshots() == 0
        # With every pin dropped, retirement reclaims synchronously again.
        backlog.maintain()
        assert backlog.run_manager.deferred_run_names() == []
        # Quarantined files are excluded from the database size but kept on
        # disk for forensics.
        catalogued = {
            run.name
            for partition in backlog.run_manager.partitions()
            for run in backlog.run_manager.runs_for(partition)}
        for name in backlog.run_manager.quarantined:
            assert name not in catalogued


class TestRunIndexRace:
    """Readers build the run index lazily; the writer keeps republishing it.

    Unlike the stress test above, every checkpoint here adds runs to the very
    partitions the readers query, so each pin after a CP sees new run lists
    and some reader -- whichever gets there first, possibly several at once
    -- extends the partition's index while ``checkpoint()`` and
    ``maintain()`` carry on.  A stale or half-built index would surface as a
    candidate list that differs from the per-run reference walk over the
    same pinned snapshot, or as a wrong answer.
    """

    def test_readers_race_the_lazy_build_against_checkpoint_and_maintain(self, tmp_path):
        backlog = Backlog(backend=DiskBackend(str(tmp_path / "runs")),
                          config=BacklogConfig(partition_size_blocks=256))
        blocks = 1024
        static = range(0, blocks, 2)            # churn lands on the odd blocks
        for round_index in range(8):
            for block in static[round_index::8]:
                backlog.add_reference(block=block, inode=1 + block % 31, offset=block)
            backlog.checkpoint()
        static_inodes = frozenset(range(1, 32))
        partitions = list(range(blocks // 256))

        stop = threading.Event()
        errors = []
        checked = [0]

        def guarded(fn, seed):
            def runner():
                rng = random.Random(CHAOS_SEED + seed)
                try:
                    while not stop.is_set():
                        fn(rng)
                        checked[0] += 1
                except Exception as exc:  # pragma: no cover - regression
                    errors.append(exc)
                    stop.set()
            return runner

        def prefilter_reader(rng):
            with backlog.catalogue.select() as snapshot:
                for _ in range(8):
                    first = rng.randrange(blocks)
                    width = rng.choice([1, 1, rng.randrange(2, 17),
                                        rng.randrange(17, 257), rng.randrange(257, 2048)])
                    assert snapshot.runs_for_block_range(partitions, first, width) \
                        == reference_walk(snapshot, partitions, first, width)

        def point_reader(rng):
            block = 2 * rng.randrange(blocks // 2)
            owners = {(r.inode, r.offset) for r in backlog.query(block) if r.inode != 997}
            assert owners == {(1 + block % 31, block)}

        def first_reader(rng):
            block = 2 * rng.randrange(blocks // 2)
            ref = backlog.select(QuerySpec(block, 4096, inodes=static_inodes)).first()
            assert (ref.block, ref.inode, ref.offset) == (block, 1 + block % 31, block)

        def range_reader(rng):
            first = rng.randrange(blocks - 64)
            refs = backlog.select(QuerySpec(first, 64, inodes=static_inodes)).all()
            assert [r.block for r in refs] == [b for b in range(first, first + 64) if b % 2 == 0]

        readers = [threading.Thread(target=guarded(fn, seed))
                   for seed, fn in enumerate((prefilter_reader, prefilter_reader, point_reader,
                                              point_reader, first_reader, range_reader))]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        rng = random.Random(CHAOS_SEED + 99)
        try:
            for thread in readers:
                thread.start()
            for round_index in range(40):
                if errors:
                    break
                for i in range(24):
                    backlog.add_reference(block=1 + 2 * rng.randrange(blocks // 2),
                                          inode=997, offset=round_index * 24 + i)
                backlog.checkpoint()
                if round_index % 6 == 5:
                    backlog.maintain()
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
            sys.setswitchinterval(switch_interval)

        assert not errors, errors
        assert not any(thread.is_alive() for thread in readers)
        assert checked[0] > len(readers)
        assert backlog.catalogue.pinned_snapshots() == 0


# ------------------------------------------------- backend differential


class TestEveryBackend:
    """The snapshot-isolation contract, re-run on every storage backend.

    The original race only *manifested* on DiskBackend (MemoryBackend kept
    deleted pages readable); this leg keeps all three backends honest --
    including the image backend, whose deleted files return their pages to a
    free list that concurrent appends immediately reuse.
    """

    def test_cursor_survives_maintenance_on_every_backend(
            self, tmp_path, backend_factory):
        backlog = _disk_backlog(tmp_path, backend=backend_factory())
        expected = _populate_static(backlog, blocks=512, rounds=4)

        cursor = backlog.select(QuerySpec(first_block=0, num_blocks=512))
        seen = []
        for _ in range(10):                       # suspend mid-stream
            ref = next(cursor)
            seen.append((ref.block, ref.inode, ref.offset))

        rng = random.Random(CHAOS_SEED)
        for round_index in range(3):              # retire the cursor's files
            _churn_round(backlog, rng, round_index)
        backlog.maintain()

        for ref in cursor:                        # drain after the churn
            seen.append((ref.block, ref.inode, ref.offset))

        assert set(seen) == expected
        assert len(seen) == len(expected)         # no replays either
        assert backlog.catalogue.pinned_snapshots() == 0
        assert backlog.run_manager.deferred_run_names() == []
