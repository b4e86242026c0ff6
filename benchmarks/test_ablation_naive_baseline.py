"""Ablation: the naive conceptual-table design vs Backlog (§4.1).

The paper motivates the split From/To design by reporting that a prototype of
the single-table, update-in-place approach "slowed the file system to a crawl
after only a few hundred consistency points": every deallocation is a
read-modify-write of the on-disk table and every allocation an insert, so the
per-operation I/O is on the order of one page write (plus a read) instead of
Backlog's ~0.01 page writes.

This benchmark runs the same workload against both implementations and
reports I/O writes, I/O reads and CPU time per block operation, asserting the
orders-of-magnitude gap and that the naive design's on-disk table keeps
growing (write-anywhere page rewrites accumulate until compacted).
"""

from __future__ import annotations

from repro import FileSystem, FileSystemConfig
from repro.analysis.reporting import format_table
from repro.baselines.naive import NaiveBackReferences
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

from bench_common import build_instrumented_system

NUM_CPS = 20
OPS_PER_CP = 500


def _workload():
    return SyntheticWorkload(SyntheticWorkloadConfig(
        num_cps=NUM_CPS, ops_per_cp=OPS_PER_CP, initial_files=80, seed=42,
        clones_per_100_cps=0.0,  # the naive design copies records per clone; keep it comparable
    ))


def test_ablation_naive_vs_backlog(benchmark, report):
    results = {}

    def run_both():
        fs, backlog = build_instrumented_system(dedup=None)
        _workload().run(fs)
        results["backlog"] = {
            "writes_per_op": backlog.stats.writes_per_block_op,
            "reads_per_op": backlog.backend.stats.pages_read / max(1, backlog.stats.block_ops),
            "us_per_op": backlog.stats.microseconds_per_block_op,
            "db_bytes": backlog.database_size_bytes(),
        }

        naive = NaiveBackReferences()
        naive_fs = FileSystem(FileSystemConfig(ops_per_cp=10**9, auto_cp=False, dedup=None),
                              listeners=[naive])
        _workload().run(naive_fs)
        results["naive"] = {
            "writes_per_op": naive.stats.writes_per_block_op,
            "reads_per_op": naive.stats.reads_per_block_op,
            "us_per_op": naive.stats.microseconds_per_block_op,
            "db_bytes": naive.table_size_bytes(),
        }

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    report("ablation_naive_baseline", format_table(
        "Ablation (§4.1): naive conceptual table vs Backlog, same workload",
        ["implementation", "io writes/op", "io reads/op", "us/op", "on-disk bytes"],
        [
            [name,
             round(stats["writes_per_op"], 4),
             round(stats["reads_per_op"], 4),
             round(stats["us_per_op"], 2),
             stats["db_bytes"]]
            for name, stats in results.items()
        ],
        note="paper: naive design needs ~1 read-modify-write per op and grinds to a halt; "
             "Backlog needs ~0.01 writes/op and no reads",
    ), wall_clock=["us/op"])

    backlog_stats = results["backlog"]
    naive_stats = results["naive"]
    # Orders of magnitude: the naive design writes at least 10x more pages
    # per operation and performs reads where Backlog performs none.
    assert naive_stats["writes_per_op"] > 10 * backlog_stats["writes_per_op"]
    assert naive_stats["writes_per_op"] > 0.9
    assert naive_stats["reads_per_op"] > 0.5
    assert backlog_stats["reads_per_op"] < 0.05
