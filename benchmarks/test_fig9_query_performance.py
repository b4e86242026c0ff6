"""Figure 9: query performance vs run length and database age.

The paper evaluates 8192 queries against a 1000-CP-old database, varying the
sequentiality of the requests (run length: how many physically adjacent
allocated blocks each batch covers) and the number of consistency points
since the last maintenance pass.  Two results matter:

* throughput rises steeply with run length (from ~290 single-block queries
  per second right after maintenance up to ~36 000 q/s for long sorted runs),
  because consecutive queries hit the same database pages; and
* a freshly maintained database is much faster than one that has accumulated
  hundreds of Level-0 runs, and I/O reads per query fall correspondingly.

This benchmark builds a synthetic-workload database, measures the same grid
(run length x CPs since maintenance), and asserts both monotonic trends.
"""

from __future__ import annotations

from repro.analysis.metrics import measure_query_performance
from repro.analysis.reporting import format_table
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

from bench_common import build_instrumented_system

BASE_CPS = 40                 # CPs before maintenance
AGE_CPS = 30                  # additional CPs after maintenance ("aged" database)
OPS_PER_CP = 1_000
RUN_LENGTHS = (1, 16, 64, 256)
QUERIES_PER_POINT = 512


def _allocated_blocks(fs):
    return sorted({block for block, *_ in fs.iter_live_references()})


def test_fig9_query_performance(benchmark, report):
    fs, backlog = build_instrumented_system()
    workload = SyntheticWorkload(SyntheticWorkloadConfig(
        num_cps=BASE_CPS, ops_per_cp=OPS_PER_CP, initial_files=120, seed=42,
    ))
    grid = []

    def run_all():
        # Age 1: many Level-0 runs, never maintained.
        workload.run(fs)
        blocks = _allocated_blocks(fs)
        for run_length in RUN_LENGTHS:
            point = measure_query_performance(
                backlog, blocks, run_length, QUERIES_PER_POINT,
                cps_since_maintenance=None,
            )
            grid.append(("no maintenance", run_length, point))

        # Age 0: immediately after maintenance.
        backlog.maintain()
        for run_length in RUN_LENGTHS:
            point = measure_query_performance(
                backlog, blocks, run_length, QUERIES_PER_POINT,
                cps_since_maintenance=0,
            )
            grid.append(("just maintained", run_length, point))

        # Aged again: more CPs accumulate after the maintenance pass.
        workload.run(fs, num_cps=AGE_CPS)
        blocks = _allocated_blocks(fs)
        for run_length in RUN_LENGTHS:
            point = measure_query_performance(
                backlog, blocks, run_length, QUERIES_PER_POINT,
                cps_since_maintenance=AGE_CPS,
            )
            grid.append((f"{AGE_CPS} CPs since maintenance", run_length, point))

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    report("fig9_query_performance", format_table(
        "Figure 9: query throughput and I/O reads vs run length and DB age",
        ["database age", "run length", "queries/s", "reads/query"],
        [
            [age, run_length, round(point.queries_per_second, 1), round(point.reads_per_query, 4)]
            for age, run_length, point in grid
        ],
        note=(
            "paper: ~290 q/s single-block after maintenance, up to ~36,000 q/s for "
            "long sorted runs; throughput drops and reads/query rise as runs accumulate"
        ),
    ), wall_clock=["queries/s"])

    by_age = {}
    for age, run_length, point in grid:
        by_age.setdefault(age, {})[run_length] = point

    # Throughput rises with run length for every database age.
    for age, points in by_age.items():
        assert points[RUN_LENGTHS[-1]].queries_per_second > points[1].queries_per_second, age

    # Right after maintenance, queries are at least as fast as against the
    # never-maintained database with its pile of Level-0 runs (compare the
    # single-block case, the paper's most sensitive point).
    assert (
        by_age["just maintained"][1].queries_per_second
        >= 0.8 * by_age["no maintenance"][1].queries_per_second
    )
    # ... and they need no more I/O per query.
    assert (
        by_age["just maintained"][1].reads_per_query
        <= by_age["no maintenance"][1].reads_per_query + 0.05
    )

    # Long runs amortise I/O: reads per query fall as run length grows.
    for age, points in by_age.items():
        assert points[RUN_LENGTHS[-1]].reads_per_query <= points[1].reads_per_query + 0.05, age
