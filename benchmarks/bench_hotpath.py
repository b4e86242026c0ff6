"""Executor and I/O microbenchmark: serial vs. parallel, per-page vs. batched.

What is left of the hot-path benchmark: the four comparisons that need
throttled I/O, real files or several processes, and so have no counterpart
among ``bench/``'s per-layer metrics yet.  Each drives a baseline and the
current configuration through identical inputs, asserts identical answers
(or bytes) inline before reporting any timing, and the ratios land in
``BENCH_hotpath.json``.  (The sections that raced a retained copy of deleted
code -- MD5 Bloom hashing, v1 run decode, the seed's leaf decoder, heap
merge, dict join, scan invalidation and list surface -- are retired; their
last ratios and the ``bench/`` metric that reports each stage now are in
``docs/ARCHITECTURE.md``, "Retired implementations".)

* ``flush_parallel`` -- ``flush_workers=1`` against the partition-sharded
  flush and compaction executor over a :class:`ThrottledBackend`, the two
  backends byte-identical;
* ``query_fanout`` -- ``query_workers=1`` (the serial per-partition gather
  loop) against the read-side fan-out over a throttled
  :class:`DiskImageBackend`, with byte-identical answers and exact page
  accounting;
* ``shard_scale`` -- a single-shard process cluster against 3 shard
  processes on Zipf-skewed, CPU-bound deep clone-chain point queries --
  aggregate client queries/sec, identical answers;
* ``disk_backend`` -- open/append/close-per-page run writes against the
  batched single-descriptor write path on real files, byte-identical.

Run with::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--check] [--output PATH]

``--check`` exits non-zero when a speedup target (``TARGETS``) is not met.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import List, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.core.backlog import Backlog
from repro.core.config import BacklogConfig
from repro.core.cursor import QuerySpec
from repro.fsim.blockdev import (
    DiskBackend,
    DiskImageBackend,
    MemoryBackend,
    PAGE_SIZE,
    ThrottledBackend,
)

DEFAULT_OUTPUT = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_hotpath.json")

#: Acceptance targets, each the minimum ``legacy / new`` wall-time ratio.
TARGETS = {
    # The partition-sharded flush executor -- a multi-partition flush over a
    # device-time-modelling backend must be at least 1.5x faster with 4
    # workers than serial.
    "flush_parallel": 1.5,
    # The read-side partition fan-out -- a whole-device query over a
    # (throttled) disk-image backend must be >= 1.5x faster with 4 query
    # workers than serial; and batched DiskBackend run writes must beat the
    # historical open/append/close-per-page pattern by >= 1.2x.
    "query_fanout": 1.5,
    "disk_backend": 1.2,
    # The coordinator/worker process cluster -- aggregate point-query
    # throughput on CPU-bound deep clone-chain expansion must be >= 1.5x
    # with 3 shard processes vs a single-shard cluster.
    "shard_scale": 1.5,
}


# ------------------------------------------------------------ parallel flush

def _drive_partitioned_workload(workers: int, num_cps: int, refs_per_cp: int,
                                device_blocks: int, partition_blocks: int,
                                time_scale: float):
    """Feed a deterministic multi-partition workload; time flush + maintain.

    The backend is a :class:`ThrottledBackend`: simulated per-page device
    time actually elapses (and, like real file I/O, releases the GIL), so
    wall-clock flush time includes the device component that independent
    partition writes can overlap.
    """
    inner = MemoryBackend()
    backend = ThrottledBackend(inner, time_scale=time_scale)
    config = BacklogConfig(partition_size_blocks=partition_blocks,
                           flush_workers=workers, maintenance_workers=workers)
    backlog = Backlog(backend=backend, config=config)
    rng = random.Random(606)
    flush_seconds = 0.0
    for cp in range(num_cps):
        for i in range(refs_per_cp):
            backlog.add_reference(block=rng.randrange(device_blocks),
                                  inode=1 + i % 64, offset=cp * refs_per_cp + i)
        start = time.perf_counter()
        backlog.checkpoint()
        flush_seconds += time.perf_counter() - start
    start = time.perf_counter()
    backlog.maintain()
    maintenance_seconds = time.perf_counter() - start
    backlog.close()
    return flush_seconds, maintenance_seconds, inner


def bench_flush_parallel(num_cps: int, refs_per_cp: int, workers: int) -> dict:
    """Partition-sharded flush & compaction executor: serial vs N workers.

    One operation = one consistency-point flush spanning every partition of
    the device.  ``legacy`` runs the identical workload with
    ``flush_workers=1`` (the pre-executor serial loop); ``new`` fans the
    per-``(table, partition)`` run writes across ``workers`` threads.  The
    determinism contract is asserted inline: both instances must leave
    **byte-identical** backends behind -- after every flush and after a full
    maintenance pass -- before any timing is reported (the differential
    suite in ``tests/test_parallel_equivalence.py`` enforces the same
    property over richer workloads).  ``compaction_speedup`` reports the
    same comparison for ``maintain()``'s per-partition jobs.
    """
    device_blocks, partition_blocks = 1 << 16, 1 << 12  # 16 partitions
    time_scale = 4.0
    serial_flush, serial_maint, serial_backend = _drive_partitioned_workload(
        1, num_cps, refs_per_cp, device_blocks, partition_blocks, time_scale)
    parallel_flush, parallel_maint, parallel_backend = _drive_partitioned_workload(
        workers, num_cps, refs_per_cp, device_blocks, partition_blocks, time_scale)

    if serial_backend._files != parallel_backend._files:
        raise AssertionError("parallel flush/compaction is not byte-identical")

    entry = _entry(serial_flush, parallel_flush, num_cps)
    entry["workers"] = workers
    entry["partitions"] = device_blocks // partition_blocks
    entry["device_time_scale"] = time_scale
    entry["byte_identical"] = True
    entry["compaction_legacy_us_per_op"] = round(serial_maint * 1e6, 4)
    entry["compaction_new_us_per_op"] = round(parallel_maint * 1e6, 4)
    entry["compaction_speedup"] = (
        round(serial_maint / parallel_maint, 2) if parallel_maint else float("inf"))
    return entry


# ------------------------------------------------------------- query fan-out

def _build_fanout_backlog(query_workers: int, image_path: str, num_cps: int,
                          refs_per_cp: int, device_blocks: int,
                          partition_blocks: int, time_scale: float) -> Backlog:
    """A multi-partition, multi-run database over a throttled disk image."""
    backend = ThrottledBackend(DiskImageBackend(image_path),
                               time_scale=time_scale)
    config = BacklogConfig(partition_size_blocks=partition_blocks,
                           query_workers=query_workers,
                           # A tiny cache keeps every query's reads on the
                           # (throttled) device instead of memory bandwidth.
                           cache_bytes=16 * PAGE_SIZE)
    backlog = Backlog(backend=backend, config=config)
    rng = random.Random(1717)
    for cp in range(num_cps):
        for i in range(refs_per_cp):
            backlog.add_reference(block=rng.randrange(device_blocks),
                                  inode=1 + i % 64, offset=cp * refs_per_cp + i)
        backlog.checkpoint()
    return backlog


def bench_query_fanout(num_cps: int, refs_per_cp: int, workers: int,
                       num_queries: int) -> dict:
    """Read-side partition fan-out: serial gather vs ``query_workers`` pool.

    One operation = one whole-device range query against an un-compacted
    multi-run database stored in a :class:`DiskImageBackend` behind a
    :class:`ThrottledBackend` -- page reads cost (GIL-releasing) simulated
    device time served through one shared descriptor, the regime in which
    per-partition gather jobs actually overlap.  ``legacy`` is
    ``query_workers=1`` (the serial partition loop); ``new`` fans the
    per-partition gathers across ``workers`` threads and merges at partition
    boundaries.  The fan-out contract is asserted inline before any timing:
    byte-identical answers, and *exact* page accounting -- the fanned
    engine's ``QueryStats.pages_read`` must equal the serial engine's to the
    page (each worker drains its partition under its own thread-local read
    tally; the merge folds the counts back in).
    """
    import tempfile

    device_blocks, partition_blocks = 1 << 16, 1 << 12  # 16 partitions
    time_scale = 16.0
    directory = tempfile.mkdtemp(prefix="bench-fanout-")
    serial = _build_fanout_backlog(
        1, os.path.join(directory, "serial.img"), num_cps, refs_per_cp,
        device_blocks, partition_blocks, time_scale)
    fanned = _build_fanout_backlog(
        workers, os.path.join(directory, "fanned.img"), num_cps, refs_per_cp,
        device_blocks, partition_blocks, time_scale)

    serial.stats.query.reset()
    fanned.stats.query.reset()
    if serial.query_range(0, device_blocks) != fanned.query_range(0, device_blocks):
        raise AssertionError("fanned query answers differ from serial")
    if serial.stats.query.pages_read != fanned.stats.query.pages_read or \
            serial.stats.query.pages_read == 0:
        raise AssertionError(
            "fan-out page accounting is not exact: "
            f"{fanned.stats.query.pages_read} != {serial.stats.query.pages_read}")
    pages_per_query = serial.stats.query.pages_read

    start = time.perf_counter()
    for _ in range(num_queries):
        serial.query_range(0, device_blocks)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(num_queries):
        fanned.query_range(0, device_blocks)
    fanned_seconds = time.perf_counter() - start

    if fanned.stats.query_pool.dispatches == 0:
        raise AssertionError("the fanned engine never dispatched to the pool")
    serial.close()
    fanned.close()

    entry = _entry(serial_seconds, fanned_seconds, num_queries)
    entry["workers"] = workers
    entry["partitions"] = device_blocks // partition_blocks
    entry["device_time_scale"] = time_scale
    entry["backend"] = "DiskImageBackend (throttled)"
    entry["pages_per_query"] = pages_per_query
    entry["byte_identical"] = True
    entry["exact_accounting"] = True
    return entry


# -------------------------------------------------------------- shard scale


def _build_shard_cluster(num_shards: int, num_blocks: int,
                         owners_per_block: int, chain_depth: int):
    """A clone-heavy cluster whose point queries are CPU-bound in the worker.

    Every block carries ``owners_per_block`` line-0 owners and the volume is
    cloned ``chain_depth`` deep, so each point query expands its reference
    groups through the whole chain inside the owning worker process --
    deliberately heavy relative to the coordinator's framing work, the
    regime the process cluster exists for.  The workers mount their slices
    behind ``time_scale=32`` device-time modelling (the same
    :class:`ThrottledBackend` regime the flush/fan-out sections use): page
    reads cost GIL-releasing simulated device time *inside each worker
    process*, so the cross-shard overlap being measured does not depend on
    the host's core count.
    """
    from repro.cluster import ShardedBacklog

    config = BacklogConfig(partition_size_blocks=64,
                           # A tiny worker-side cache keeps every query's
                           # page reads on the (throttled) device.
                           cache_bytes=16 * PAGE_SIZE)
    cluster = ShardedBacklog(num_shards=num_shards, config=config,
                             time_scale=32.0)
    for block in range(num_blocks):
        for owner in range(owners_per_block):
            cluster.add_reference(
                block, 1 + (block * owners_per_block + owner) % 997, owner, 0)
    cluster.checkpoint()
    for child in range(1, chain_depth + 1):
        cluster.register_clone(child, child - 1, 1)
    return cluster


def _drive_shard_clients(cluster, blocks: Sequence[int], num_threads: int,
                         lines) -> float:
    """``num_threads`` client threads split the point-query list; wall time."""
    import threading

    errors: List[BaseException] = []

    def client(worker: int) -> None:
        try:
            for block in blocks[worker::num_threads]:
                cluster.select(QuerySpec(block, lines=lines)).all()
        except BaseException as exc:  # pragma: no cover - bench guard
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(worker,))
               for worker in range(num_threads)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise AssertionError(f"shard client failed: {errors[0]!r}") from errors[0]
    return elapsed


def bench_shard_scale(num_blocks: int, owners_per_block: int,
                      chain_depth: int, num_queries: int,
                      num_threads: int) -> dict:
    """Process-cluster query scaling: 1 worker shard vs 3.

    One operation = one point query whose reference groups expand through a
    ``chain_depth``-deep clone chain in the owning worker process.
    ``legacy`` is a single-shard cluster (every query serialises onto one
    worker's channel); ``new`` stripes the same partitions over 3 shard
    processes, so concurrent clients land on different workers and the
    expansion compute genuinely overlaps across processes.  The speedup is
    the aggregate queries/sec ratio; identical answers are asserted inline
    on a sample of the query targets before any timing.

    The queries filter to the deepest clone line: the worker still resolves
    inheritance through the *entire* chain (the line filter participates in
    resolution, it only gates emission), but the reply carries a handful of
    owners instead of the full expansion -- keeping the measured work the
    workers' CPU, not the coordinator's unpickling of bulk results.

    The query targets are drawn from :class:`ZipfBlockPopularity` -- the
    skewed block-popularity model the workload generator ships -- so the
    comparison includes the realistic case where a hot set dominates; the
    rank permutation scatters hot blocks across partitions (and hence
    shards), which is what keeps a skewed stream from collapsing onto one
    worker.
    """
    from repro.workloads.synthetic import ZipfBlockPopularity

    zipf_exponent = 1.1
    single = _build_shard_cluster(1, num_blocks, owners_per_block, chain_depth)
    sharded = _build_shard_cluster(3, num_blocks, owners_per_block, chain_depth)
    try:
        popularity = ZipfBlockPopularity(num_blocks, exponent=zipf_exponent,
                                         seed=99)
        blocks = popularity.sample_many(num_queries)

        lines = frozenset({chain_depth})
        sample = sorted(set(blocks))[::max(1, len(set(blocks)) // 16)]
        owners_per_query = None
        for block in sample:
            reference = single.select(QuerySpec(block, lines=lines)).all()
            if reference != sharded.select(QuerySpec(block, lines=lines)).all():
                raise AssertionError("shard counts disagree on point queries")
            if single.query_range(block, 1) != sharded.query_range(block, 1):
                raise AssertionError("shard counts disagree on full expansion")
            owners_per_query = owners_per_query or len(reference)

        single_seconds = _drive_shard_clients(single, blocks, num_threads,
                                              lines)
        sharded_seconds = _drive_shard_clients(sharded, blocks, num_threads,
                                               lines)
    finally:
        single.close()
        sharded.close()

    entry = _entry(single_seconds, sharded_seconds, num_queries)
    entry["shards"] = 3
    entry["client_threads"] = num_threads
    entry["chain_depth"] = chain_depth
    entry["owners_per_query"] = owners_per_query
    entry["zipf_exponent"] = zipf_exponent
    entry["zipf_hot_set_50pct"] = len(popularity.hot_set(0.5))
    entry["single_qps"] = round(num_queries / single_seconds, 1)
    entry["sharded_qps"] = round(num_queries / sharded_seconds, 1)
    entry["byte_identical"] = True
    return entry


# ------------------------------------------------------------- disk backend

def bench_disk_backend(num_files: int, pages_per_file: int) -> dict:
    """Run writes on real files: batched descriptor vs open/append/close.

    One operation = one page appended to a run file on disk.  ``legacy`` is
    the seed's DiskBackend write path -- open the file in append mode, write
    one page, close -- repeated per page; ``new`` is the current batched
    :class:`DiskBackend`: one descriptor per created file, appends buffered
    and flushed with single positional ``os.pwrite`` batches.  The files
    both paths leave behind are verified byte-identical before timing is
    reported.

    The whole timed workload is tens of milliseconds of real-filesystem
    syscalls, so a single pass is hostage to whatever the kernel happens to
    be writing back at that moment.  Each path therefore runs an untimed
    warmup pass (the first batched flush in a process pays one-off
    allocator/page-cache costs an order of magnitude above steady state)
    and then ``rounds`` alternating timed passes, keeping the *minimum* per
    path -- the standard transient-rejecting estimator for micro-scale I/O.
    """
    import shutil
    import tempfile

    directory = tempfile.mkdtemp(prefix="bench-diskio-")
    payload = b"\xab" * PAGE_SIZE
    legacy_dir = os.path.join(directory, "legacy")
    os.makedirs(legacy_dir)
    backend = DiskBackend(os.path.join(directory, "new"))

    def legacy_pass() -> float:
        start = time.perf_counter()
        for index in range(num_files):
            path = os.path.join(legacy_dir, f"run-{index}")
            open(path, "wb").close()
            for _ in range(pages_per_file):
                with open(path, "ab") as handle:
                    handle.write(payload)
        return time.perf_counter() - start

    def new_pass() -> float:
        start = time.perf_counter()
        for index in range(num_files):
            page_file = backend.create(f"run-{index}")
            for _ in range(pages_per_file):
                page_file.append_page(payload)
            page_file.close()
        return time.perf_counter() - start

    legacy_pass()
    new_pass()
    rounds = 3
    legacy_seconds = min(legacy_pass() for _ in range(rounds))
    new_seconds = min(new_pass() for _ in range(rounds))

    with open(os.path.join(legacy_dir, "run-0"), "rb") as handle:
        legacy_bytes = handle.read()
    new_file = backend.open("run-0")
    new_bytes = b"".join(new_file.read_page(i) for i in range(new_file.num_pages))
    if legacy_bytes != new_bytes:
        raise AssertionError("batched disk writes are not byte-identical")
    shutil.rmtree(directory, ignore_errors=True)

    entry = _entry(legacy_seconds, new_seconds, num_files * pages_per_file)
    entry["files"] = num_files
    entry["pages_per_file"] = pages_per_file
    entry["rounds"] = rounds
    return entry


# ------------------------------------------------------------------- harness

def _entry(legacy_seconds: float, new_seconds: float, operations: int) -> dict:
    return {
        "legacy_us_per_op": round(legacy_seconds / operations * 1e6, 4),
        "new_us_per_op": round(new_seconds / operations * 1e6, 4),
        "speedup": round(legacy_seconds / new_seconds, 2) if new_seconds else float("inf"),
        "operations": operations,
    }


def run() -> dict:
    """Every section at the one size its target was calibrated against.

    Each comparison is a ratio against fixed simulated device time, real
    worker processes or real-filesystem syscalls: a shrunk workload would
    let per-checkpoint, process-spawn or per-file constants swamp the
    overlap being measured, so there is no smaller CI size.
    """
    return {
        "flush_parallel": bench_flush_parallel(
            num_cps=6, refs_per_cp=4_000, workers=4),
        "query_fanout": bench_query_fanout(
            num_cps=6, refs_per_cp=4_000, workers=4, num_queries=4),
        "shard_scale": bench_shard_scale(
            num_blocks=4096, owners_per_block=6, chain_depth=48,
            num_queries=600, num_threads=3),
        "disk_backend": bench_disk_backend(num_files=16, pages_per_file=256),
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when speedup targets are missed")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    results = run()
    report = {
        "benchmark": "hotpath",
        "python": sys.version.split()[0],
        "unix_time": int(time.time()),
        "comparison": (
            "legacy = serial executors (flush_workers=1, query_workers=1), a "
            "single-shard cluster, open/append/close-per-page file writes; "
            "new = the parallel executors, 3 shard processes, batched writes"
        ),
        "targets": TARGETS,
        "results": results,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    width = max(len(name) for name in results)
    print("hotpath microbenchmark")
    for name, entry in results.items():
        print(f"  {name:<{width}}  legacy {entry['legacy_us_per_op']:>9.3f} us/op"
              f"  new {entry['new_us_per_op']:>9.3f} us/op"
              f"  speedup {entry['speedup']:>6.2f}x")
    print(f"wrote {os.path.abspath(args.output)}")

    failed = [name for name, minimum in TARGETS.items()
              if results[name]["speedup"] < minimum]
    if failed:
        print(f"targets missed: {', '.join(failed)}")
        if args.check:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
