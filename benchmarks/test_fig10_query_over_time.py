"""Figure 10: query performance over the life of the file system.

The paper evaluates 8192 queries every 100 CPs on a 1000-CP workload, just
before and just after the periodic maintenance pass, for several run lengths.
The two findings are: maintenance improves query throughput at every age, and
once the database reaches a certain size the (post-maintenance) throughput
levels off rather than continuing to fall as the database keeps growing.

This benchmark interleaves workload epochs with query measurements before and
after maintenance and asserts both findings.
"""

from __future__ import annotations

from repro.analysis.metrics import measure_query_performance
from repro.analysis.reporting import format_table
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

from bench_common import build_instrumented_system

EPOCHS = 4
CPS_PER_EPOCH = 15
OPS_PER_CP = 1_000
RUN_LENGTHS = (64, 256)
QUERIES_PER_POINT = 512


def test_fig10_query_performance_over_time(benchmark, report):
    fs, backlog = build_instrumented_system()
    workload = SyntheticWorkload(SyntheticWorkloadConfig(
        num_cps=CPS_PER_EPOCH, ops_per_cp=OPS_PER_CP, initial_files=120, seed=42,
    ))
    rows = []

    def run_all():
        for epoch in range(1, EPOCHS + 1):
            workload.run(fs, num_cps=CPS_PER_EPOCH)
            blocks = sorted({block for block, *_ in fs.iter_live_references()})
            cp_now = fs.global_cp - 1
            for run_length in RUN_LENGTHS:
                before = measure_query_performance(
                    backlog, blocks, run_length, QUERIES_PER_POINT,
                    cps_since_maintenance=CPS_PER_EPOCH,
                )
                rows.append((cp_now, run_length, "before maintenance",
                             before.queries_per_second, before.reads_per_query))
            backlog.maintain()
            for run_length in RUN_LENGTHS:
                after = measure_query_performance(
                    backlog, blocks, run_length, QUERIES_PER_POINT,
                    cps_since_maintenance=0,
                )
                rows.append((cp_now, run_length, "after maintenance",
                             after.queries_per_second, after.reads_per_query))

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    report("fig10_query_over_time", format_table(
        "Figure 10: query throughput over time, before and after maintenance",
        ["cp", "run length", "when", "queries/s", "reads/query"],
        [
            [cp, run_length, when, round(qps, 1), round(reads, 4)]
            for cp, run_length, when, qps, reads in rows
        ],
        note=(
            "paper: maintenance improves throughput at every age; post-maintenance "
            "throughput levels off as the database grows"
        ),
    ), wall_clock=["queries/s"])

    # Maintenance improves (or at least does not hurt) query cost.  The I/O
    # reads per query are deterministic, so they carry the strict check; the
    # throughput check is looser because wall-clock timings at millisecond
    # scale are noisy.
    befores = {(cp, rl): (qps, reads) for cp, rl, when, qps, reads in rows
               if when == "before maintenance"}
    afters = {(cp, rl): (qps, reads) for cp, rl, when, qps, reads in rows
              if when == "after maintenance"}
    read_deltas = [befores[key][1] - afters[key][1] for key in befores]
    assert sum(read_deltas) / len(read_deltas) >= 0.0
    improvements = [afters[key][0] / befores[key][0] for key in befores]
    assert sum(improvements) / len(improvements) > 0.7

    # Post-maintenance query cost levels off rather than growing with the
    # database: the I/O reads per query (the deterministic, hardware-
    # independent half of the figure) at the last epoch stay within a small
    # factor of the first epoch's.
    first_cp = min(cp for cp, _ in afters)
    last_cp = max(cp for cp, _ in afters)
    for run_length in RUN_LENGTHS:
        assert afters[(last_cp, run_length)][1] < 3.0 * afters[(first_cp, run_length)][1] + 0.02
