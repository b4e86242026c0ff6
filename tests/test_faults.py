"""Unit tests for the fault-injection harness and the reaction layers.

Covers `fsim/faults.py` (the deterministic `FaultyBackend`), the
`RetryPolicy` in `core/executor.py`, checksum quarantine in the query and
compaction paths, atomic flush failure + serial fallback, and the
`scrub_backend` audit.  The randomized end-to-end scenarios live in
`tests/test_chaos.py`; these tests pin each mechanism down in isolation.
"""

from __future__ import annotations

import errno

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Backlog,
    BacklogConfig,
    CorruptPageError,
    FaultPlan,
    FaultyBackend,
    FileSystem,
    FileSystemConfig,
    MemoryBackend,
    QuerySpec,
    RetryPolicy,
    ScrubReport,
    SnapshotManagerAuthority,
    TornWriteError,
    TransientIOError,
    recover_backlog,
    scrub_backend,
)
from repro.core.executor import PartitionExecutor
from repro.core.read_store import ReadStoreReader, ReadStoreWriter
from repro.core.records import FromRecord
from repro.core.recovery import rebuild_run_manager
from repro.core.verify import verify_backlog
from repro.fsim.blockdev import PAGE_SIZE, DiskBackend
from repro.fsim.faults import is_transient_fault


def _page(fill: int) -> bytes:
    return bytes([fill]) * PAGE_SIZE


def build_faulty_system(plan: FaultPlan, config: BacklogConfig | None = None):
    """A (FileSystem, Backlog, FaultyBackend) triple wired together."""
    backend = FaultyBackend(MemoryBackend(), plan, clock=lambda _s: None)
    backend.disarm()  # tests arm explicitly once setup is done
    backlog = Backlog(backend=backend, config=config or BacklogConfig())
    fs = FileSystem(FileSystemConfig(ops_per_cp=10**9, auto_cp=False),
                    listeners=[backlog])
    backlog.set_version_authority(SnapshotManagerAuthority(fs))
    return fs, backlog, backend


def _sample_records(n: int = 64):
    return [FromRecord(block, 7, block, 0, 3) for block in range(n)]


def _write_run(backend, name: str = "p000000/from/L0_0000000001") -> ReadStoreReader:
    return ReadStoreWriter(backend, name, "from").build(_sample_records())


def _xor_byte(backend, name: str, page_index: int, offset: int, mask: int) -> None:
    """Damage one stored byte in place (``corrupt_page`` flips a single bit)."""
    data = bytearray(backend.open(name).read_page(page_index))
    data[offset] ^= mask
    FaultyBackend(backend, FaultPlan())._overwrite_page(name, page_index, bytes(data))


# --------------------------------------------------------------- FaultyBackend


class TestFaultyBackend:
    def test_deterministic_schedule(self):
        def run_once():
            plan = FaultPlan(seed=99, write_error_rate=0.3, torn_write_rate=0.1,
                             bit_flip_rate=0.1, latency_spike_rate=0.2,
                             latency_spike_s=0.5)
            backend = FaultyBackend(MemoryBackend(), plan, clock=lambda _s: None)
            page_file = backend.create("f")
            for i in range(60):
                try:
                    page_file.append_page(_page(i % 251))
                except (TransientIOError, TornWriteError):
                    pass
            return backend.fault_stats.events

        assert run_once() == run_once()
        assert run_once()  # the rates above must actually fire

    def test_transient_write_heals_after_consecutive_failures(self):
        backend = FaultyBackend(MemoryBackend(), FaultPlan(transient_attempts=3))
        page_file = backend.create("f")
        backend._healing[("write", "f", 0)] = 2
        for _ in range(2):
            with pytest.raises(TransientIOError):
                page_file.append_page(_page(1))
        assert page_file.append_page(_page(1)) == 0  # healed
        assert backend.fault_stats.transient_write_errors == 2

    def test_torn_write_persists_prefix_then_fails(self):
        backend = FaultyBackend(MemoryBackend(), FaultPlan(seed=5, torn_write_rate=1.0))
        page_file = backend.create("f")
        data = _page(0xAB)
        with pytest.raises(TornWriteError):
            page_file.append_page(data)
        backend.disarm()
        stored = backend.open("f").read_page(0)
        prefix = len(stored.rstrip(b"\x00"))
        assert 0 < prefix < PAGE_SIZE
        assert stored[:prefix] == data[:prefix]
        assert stored[prefix:] == b"\x00" * (PAGE_SIZE - prefix)
        assert backend.fault_stats.torn_writes == 1

    def test_enospc_fires_after_budget_and_clears_on_free_space(self):
        backend = FaultyBackend(MemoryBackend(), FaultPlan(enospc_after_pages=2))
        page_file = backend.create("f")
        page_file.append_page(_page(1))
        page_file.append_page(_page(2))
        with pytest.raises(OSError) as excinfo:
            page_file.append_page(_page(3))
        assert excinfo.value.errno == errno.ENOSPC
        assert not is_transient_fault(excinfo.value)
        backend.free_space()
        assert page_file.append_page(_page(3)) == 2
        assert backend.fault_stats.enospc_errors == 1

    def test_bit_flip_on_write_is_silent_single_bit(self):
        backend = FaultyBackend(MemoryBackend(), FaultPlan(seed=3, bit_flip_rate=1.0))
        page_file = backend.create("f")
        data = _page(0x55)
        page_file.append_page(data)  # no exception: the corruption is silent
        backend.disarm()
        stored = backend.open("f").read_page(0)
        assert stored != data
        differing = sum(bin(a ^ b).count("1") for a, b in zip(stored, data))
        assert differing == 1

    def test_latency_spike_uses_injected_clock(self):
        sleeps = []
        backend = FaultyBackend(
            MemoryBackend(),
            FaultPlan(latency_spike_rate=1.0, latency_spike_s=0.25),
            clock=sleeps.append)
        page_file = backend.create("f")
        page_file.append_page(_page(1))
        page_file.read_page(0)
        assert sleeps == [0.25, 0.25]
        assert backend.fault_stats.latency_spikes == 2

    def test_disarm_passes_everything_through(self):
        backend = FaultyBackend(
            MemoryBackend(),
            FaultPlan(write_error_rate=1.0, read_error_rate=1.0))
        backend.disarm()
        page_file = backend.create("f")
        page_file.append_page(_page(9))
        assert page_file.read_page(0) == _page(9)
        assert backend.fault_stats.total == 0

    @pytest.mark.parametrize("make_backend", [
        lambda tmp: MemoryBackend(),
        lambda tmp: DiskBackend(str(tmp)),
    ], ids=["memory", "disk"])
    def test_corrupt_page_flips_one_bit_at_rest(self, tmp_path, make_backend):
        backend = FaultyBackend(make_backend(tmp_path), FaultPlan())
        page_file = backend.create("f")
        data = _page(0xF0)
        page_file.append_page(data)
        backend.corrupt_page("f", 0, bit=13)
        stored = backend.open("f").read_page(0)
        assert stored[1] == data[1] ^ (1 << 5)  # bit 13 = byte 1, bit 5
        assert stored[:1] == data[:1] and stored[2:] == data[2:]
        assert backend.fault_stats.bit_flips == 1


def test_is_transient_fault_classification():
    assert is_transient_fault(TransientIOError(errno.EIO, "x"))
    assert is_transient_fault(OSError(errno.EINTR, "x"))
    assert is_transient_fault(OSError(errno.EAGAIN, "x"))
    assert is_transient_fault(OSError(errno.EIO, "x"))
    assert not is_transient_fault(TornWriteError(errno.EIO, "x"))
    assert not is_transient_fault(OSError(errno.ENOSPC, "x"))
    assert not is_transient_fault(RuntimeError("crash"))
    assert not is_transient_fault(ValueError("corrupt"))


# ----------------------------------------------------------------- RetryPolicy


class _Flaky:
    """A job that fails ``failures`` times with ``error`` then succeeds."""

    def __init__(self, failures: int, error: BaseException):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "done"


class TestRetryPolicy:
    def test_absorbs_transient_failures_with_growing_backoff(self):
        sleeps, retried = [], []
        policy = RetryPolicy(attempts=4, backoff_s=0.01, multiplier=2.0,
                             sleep=sleeps.append, on_retry=retried.append)
        job = _Flaky(2, TransientIOError(errno.EIO, "flaky"))
        assert policy.run(job) == "done"
        assert job.calls == 3
        assert sleeps == [0.01, 0.02]
        assert len(retried) == 2

    def test_exhausted_attempts_reraise(self):
        policy = RetryPolicy(attempts=2, backoff_s=0.0)
        job = _Flaky(5, TransientIOError(errno.EIO, "flaky"))
        with pytest.raises(TransientIOError):
            policy.run(job)
        assert job.calls == 2

    def test_non_retryable_raises_immediately(self):
        policy = RetryPolicy(attempts=5, backoff_s=0.0)
        for error in (TornWriteError(errno.EIO, "torn"),
                      OSError(errno.ENOSPC, "full"),
                      RuntimeError("crash")):
            job = _Flaky(1, error)
            with pytest.raises(type(error)):
                policy.run(job)
            assert job.calls == 1

    def test_zero_backoff_never_sleeps(self):
        sleeps = []
        policy = RetryPolicy(attempts=3, backoff_s=0.0, sleep=sleeps.append)
        assert policy.run(_Flaky(2, TransientIOError(errno.EIO, "x"))) == "done"
        assert sleeps == []

    def test_executor_applies_policy_per_job(self):
        retried = []
        executor = PartitionExecutor(
            workers=1,
            retry=RetryPolicy(attempts=3, backoff_s=0.0, on_retry=retried.append))
        jobs = [_Flaky(1, TransientIOError(errno.EIO, "a")), _Flaky(0, None),
                _Flaky(2, TransientIOError(errno.EIO, "b"))]
        assert executor.map(jobs) == ["done", "done", "done"]
        assert len(retried) == 3


# ------------------------------------------------- flush retries and fallback


def _run_small_workload(fs, blocks: int = 24):
    inode = fs.create_file(num_blocks=blocks)
    fs.take_consistency_point()
    return inode


def test_flush_absorbs_transient_faults_and_counts_retries():
    plan = FaultPlan(seed=2, write_error_rate=0.15)
    config = BacklogConfig(io_retries=4, io_retry_backoff_s=0.0)
    fs, backlog, backend = build_faulty_system(plan, config)
    fs.create_file(num_blocks=256)
    backend.arm()
    fs.take_consistency_point()
    backend.disarm()
    assert backend.fault_stats.transient_write_errors > 0
    assert backlog.stats.flush_pool.retries == backend.fault_stats.transient_write_errors
    report = verify_backlog(fs, backlog)
    assert report.ok, report.summary()


def test_enospc_fails_checkpoint_atomically_then_retry_succeeds():
    plan = FaultPlan(enospc_after_pages=2)
    fs, backlog, backend = build_faulty_system(plan)
    fs.create_file(num_blocks=48)
    pending_before = backlog.pending_updates()
    assert pending_before > 0
    registered_before = backlog.run_manager.run_count()
    backend.arm()
    with pytest.raises(OSError) as excinfo:
        fs.take_consistency_point()
    assert excinfo.value.errno == errno.ENOSPC
    # Atomic failure: nothing registered, no partial files, memory intact.
    assert backlog.pending_updates() == pending_before
    assert backlog.run_manager.run_count() == registered_before
    registered = {run.name for p in backlog.run_manager.partitions()
                  for run in backlog.run_manager.runs_for(p)}
    from repro.core.lsm import parse_run_name
    leftovers = [name for name in backend.list_files()
                 if parse_run_name(name) is not None and name not in registered]
    assert leftovers == []
    # The operator frees space; retrying the same CP completes it.
    backend.free_space()
    fs.take_consistency_point()
    backend.disarm()
    assert backlog.pending_updates() == 0
    report = verify_backlog(fs, backlog)
    assert report.ok, report.summary()


class _FirstAppendsFail(MemoryBackend):
    """Once activated, fails ``budget`` page appends with a transient error."""

    def __init__(self, budget: int):
        super().__init__()
        self.budget = budget
        self.active = False

    def create(self, name):
        page_file = super().create(name)
        backend = self

        original_append = page_file._append

        def flaky_append(data):
            if backend.active and backend.budget > 0:
                backend.budget -= 1
                raise TransientIOError(errno.EIO, "injected append failure")
            return original_append(data)

        page_file._append = flaky_append
        return page_file


def test_parallel_flush_falls_back_to_serial():
    backend = _FirstAppendsFail(budget=1)
    config = BacklogConfig(flush_workers=2, maintenance_workers=1, io_retries=0)
    backlog = Backlog(backend=backend, config=config)
    fs = FileSystem(FileSystemConfig(ops_per_cp=10**9, auto_cp=False),
                    listeners=[backlog])
    backlog.set_version_authority(SnapshotManagerAuthority(fs))
    # An overwrite of a block flushed at an earlier CP populates both write
    # stores, so the second flush has two jobs (one per table) to fan out.
    inode = fs.create_file(num_blocks=4)
    fs.take_consistency_point()
    fs.write(inode, 0)
    backend.active = True
    fs.take_consistency_point()
    backend.active = False

    assert backlog.stats.flush_pool.serial_fallbacks == 1
    assert backlog.pending_updates() == 0
    report = verify_backlog(fs, backlog)
    assert report.ok, report.summary()


# ---------------------------------------------------- checksums and quarantine


def test_query_quarantines_corrupt_run_and_degrades():
    fs, backlog, backend = build_faulty_system(FaultPlan())
    inode = fs.create_file(num_blocks=16)
    fs.take_consistency_point()
    blocks = [fs.volume().inodes[inode].physical_block(i) for i in range(16)]
    baseline = {b: backlog.query(b) for b in blocks}

    victim = backlog.run_manager.runs_for(backlog.run_manager.partitions()[0],
                                          "from")[0]
    backend.corrupt_page(victim.name, 0, bit=7)  # page 0 is a leaf page
    backlog.clear_caches()

    for b in blocks:
        degraded = backlog.query(b)
        # Degraded-but-correct: only owners the full database knew about,
        # never invented ones (their ranges may shrink with the lost run).
        baseline_identities = {ref[:4] for ref in baseline[b]}
        assert {ref[:4] for ref in degraded} <= baseline_identities
        # And the degraded answer is stable on re-query.
        assert backlog.query(b) == degraded
    assert backlog.stats.query.corrupt_pages_detected >= 1
    assert backlog.stats.query.runs_quarantined == 1
    assert victim.name in backlog.run_manager.quarantined
    assert backend.exists(victim.name)  # quarantine keeps the file on disk


@pytest.mark.parametrize("surface", ["list", "cursor"])
def test_corrupt_filter_page_met_by_the_index_build_quarantines_its_run(surface):
    """Recovery leaves filters on disk; the first query of a partition loads
    them all to build its run index, so a damaged filter page of *any* of its
    runs must degrade that query, not fail it."""
    fs, backlog, backend = build_faulty_system(FaultPlan())
    for _ in range(4):
        fs.create_file(num_blocks=8)
        fs.take_consistency_point()
    baseline = backlog.query_range(0, 4096)
    recovered = recover_backlog(backend, config=backlog.config)
    partition = recovered.run_manager.partitions()[0]
    victim = recovered.run_manager.runs_for(partition, "from")[-1]
    assert victim._bloom is None
    backend.corrupt_page(victim.name, victim.bloom_first_page, bit=77)
    recovered.clear_caches()

    block = baseline[0].block       # held by the first run, not the victim
    if surface == "list":
        degraded = recovered.query_range(block, 1)
    else:
        degraded = recovered.select(QuerySpec(block, 1)).all()
    assert {ref[:4] for ref in degraded} == {ref[:4] for ref in baseline if ref.block == block}
    assert recovered.stats.query.runs_quarantined == 1
    assert recovered.run_manager.quarantined == [victim.name]


def test_checksum_verification_has_no_off_switch():
    """Every decode verifies its page: there is no flag to turn that off,
    and a record-data bit flip -- a page that still decodes structurally --
    quarantines its run."""
    with pytest.raises(TypeError):
        BacklogConfig(verify_checksums=False)
    with pytest.raises(TypeError):
        ReadStoreReader(MemoryBackend(), "run", verify_checksums=False)
    fs, backlog, backend = build_faulty_system(FaultPlan())
    fs.create_file(num_blocks=8)
    fs.take_consistency_point()
    victim = backlog.run_manager.runs_for(backlog.run_manager.partitions()[0],
                                          "from")[0]
    backend.corrupt_page(victim.name, 0, bit=240)
    backlog.clear_caches()
    backlog.query_range(0, 4096)
    assert backlog.stats.query.runs_quarantined == 1


def test_compaction_quarantines_corrupt_input_run():
    fs, backlog, backend = build_faulty_system(FaultPlan())
    inode = fs.create_file(num_blocks=16)
    fs.take_consistency_point()
    fs.write(inode, 0)
    fs.take_consistency_point()

    partition = backlog.run_manager.partitions()[0]
    victim = backlog.run_manager.runs_for(partition, "from")[0]
    backend.corrupt_page(victim.name, 0, bit=21)
    backlog.clear_caches()

    backlog.maintain()  # must not raise: the damaged run is quarantined
    assert victim.name in backlog.run_manager.quarantined
    report = scrub_backend(backlog.backend)
    # The quarantined file is still on disk and still corrupt...
    assert victim.name in report.runs_corrupt
    # ...but every *registered* run is clean.
    registered = {run.name for p in backlog.run_manager.partitions()
                  for run in backlog.run_manager.runs_for(p)}
    assert not registered & set(report.runs_corrupt)


# ------------------------------------------------------------------ scrubbing


def test_scrub_reports_and_reclaims():
    backend = MemoryBackend()
    ok = _write_run(backend, "p000000/from/L0_0000000001")
    bad = _write_run(backend, "p000000/from/L0_0000000003")
    faulty = FaultyBackend(backend, FaultPlan())
    faulty.corrupt_page(bad.name, 0, bit=40)
    # An unopenable leftover: a run-named file with one garbage page.
    backend.create("p000000/to/L0_0000000004").append_page(b"garbage")

    report = scrub_backend(backend)
    assert isinstance(report, ScrubReport)
    assert not report.clean
    assert report.runs_ok == [ok.name]
    assert list(report.runs_corrupt) == [bad.name]
    page_index, kind = report.runs_corrupt[bad.name][0]
    assert (page_index, kind) == (0, "leaf")
    assert report.files_invalid == ["p000000/to/L0_0000000004"]
    assert "CORRUPT" in report.summary() and "INVALID" in report.summary()

    reclaimed = scrub_backend(backend, reclaim=True)
    assert sorted(reclaimed.files_reclaimed) == sorted(
        [bad.name, "p000000/to/L0_0000000004"])
    assert not backend.exists(bad.name)
    after = scrub_backend(backend)
    assert after.clean
    assert after.runs_ok == [ok.name]
    assert "legacy" not in after.summary()


def test_scrub_detects_header_corruption():
    backend = MemoryBackend()
    run = _write_run(backend)
    faulty = FaultyBackend(backend, FaultPlan())
    header_page = backend.open(run.name).num_pages - 1
    # Flip a header *field* bit (past the 8-byte magic) so the file is still
    # recognised as a v2 run whose header CRC then fails.
    faulty.corrupt_page(run.name, header_page, bit=12 * 8)
    report = scrub_backend(backend)
    assert report.runs_corrupt[run.name][0][1] == "header"
    # And the recovery scan treats it as invalid rather than crashing.
    manager = rebuild_run_manager(backend)
    assert manager.run_count() == 0


# ------------------------------------------------------------- one run format


def test_backlog1_header_is_rejected():
    """The checksum-less ``BACKLOG1`` layout of early builds is a foreign file.

    (Was ``test_v1_runs_stay_readable_and_rebuildable``: nothing writes that
    layout any more, and a reader for it is a way around every checksum.)
    """
    backend = MemoryBackend()
    with pytest.raises(TypeError):
        ReadStoreWriter(backend, "p000000/from/L0_0000000001", "from", format_version=1)
    run = _write_run(backend, "p000000/from/L0_0000000001")
    assert not hasattr(run, "format_version")
    header_page = backend.open(run.name).num_pages - 1
    assert backend.open(run.name).read_page(header_page)[:8] == b"2GOLKCAB"
    _xor_byte(backend, run.name, header_page, 0, 0x32 ^ 0x31)      # "BACKLOG1"
    with pytest.raises(ValueError, match="not a Backlog read store"):
        ReadStoreReader(backend, run.name)
    assert rebuild_run_manager(backend).run_count() == 0


def test_magic_downgrade_cannot_switch_checksums_off(tmp_path, capsys):
    """Regression: ``BACKLOG2`` -> ``BACKLOG1`` is two bits of one byte, and a
    v1 header had no CRC -- so that flip used to open the run with every
    checksum off, serve a damaged leaf record, re-register the run at
    recovery and scrub as clean."""
    from repro.cli import main

    backend = DiskBackend(str(tmp_path))
    run = _write_run(backend)
    header_page = backend.open(run.name).num_pages - 1
    _xor_byte(backend, run.name, header_page, 0, 0x32 ^ 0x31)
    _xor_byte(backend, run.name, 0, 8 + 3, 0x10)                   # a leaf record byte
    with pytest.raises(ValueError):
        ReadStoreReader(backend, run.name)
    assert rebuild_run_manager(backend).run_count() == 0
    report = scrub_backend(backend)
    assert not report.clean
    assert report.files_invalid == [run.name] and not report.runs_ok
    assert main(["scrub", "--directory", str(tmp_path)]) == 1
    assert f"INVALID  {run.name}" in capsys.readouterr().out


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(0, 223), st.integers(0, PAGE_SIZE - 1)), st.integers(1, 255))
def test_damaged_header_page_never_yields_a_reader(offset, mask):
    """Fuzz: whichever single byte of the header page changes -- magic,
    layout field, either CRC, the zero padding -- opening the run raises."""
    backend = MemoryBackend()
    run = _write_run(backend)
    _xor_byte(backend, run.name, backend.open(run.name).num_pages - 1, offset, mask)
    with pytest.raises(ValueError):                 # CorruptPageError is one
        ReadStoreReader(backend, run.name)
    assert rebuild_run_manager(backend).run_count() == 0
    assert not scrub_backend(backend).clean
