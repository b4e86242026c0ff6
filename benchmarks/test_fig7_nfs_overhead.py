"""Figure 7: maintenance overhead while replaying an EECS03-like NFS trace.

The paper replays 16 days of the EECS03 trace with a consistency point every
10 seconds and reports 8-9 µs and 0.010-0.015 I/O writes per block operation,
stable over the whole trace, with spikes aligned to periods of *low* load
(the fixed per-CP cost is amortised over fewer operations) and a dip during a
truncate-heavy period (operations cancel within a CP and are pruned before
reaching disk).

This benchmark replays a synthesised trace with the same structure (diurnal
load, 1:2 write/read mix, a truncate burst) and asserts:

* overhead is flat over the trace (first third vs last third), and
* per-hour overhead is anti-correlated with load: the busiest hours have a
  lower per-operation overhead than the quietest hours.
"""

from __future__ import annotations

import statistics

from repro.analysis.reporting import format_series
from repro.workloads.nfs_trace import NFSTraceConfig, NFSTracePlayer, generate_eecs03_like_trace

from bench_common import build_instrumented_system

HOURS = 48
BASE_OPS_PER_HOUR = 1_500
OPS_PER_CP = 400


def test_fig7_nfs_trace_overhead(benchmark, report):
    fs, backlog = build_instrumented_system()
    player = NFSTracePlayer(fs, ops_per_cp=OPS_PER_CP)
    trace_config = NFSTraceConfig(hours=HOURS, base_ops_per_hour=BASE_OPS_PER_HOUR)

    hourly = []

    def run():
        pages_last = [backlog.backend.stats.pages_written]
        ops_last = [0]
        update_last = [0.0]
        flush_last = [0.0]

        def on_hour(summary, _fs):
            pages_now = backlog.backend.stats.pages_written
            ops_now = backlog.stats.block_ops
            update_now = backlog.stats.update_seconds
            flush_now = backlog.stats.flush_seconds
            block_ops = ops_now - ops_last[0]
            hourly.append({
                "hour": summary.hour,
                "block_ops": block_ops,
                "writes_per_op": (pages_now - pages_last[0]) / block_ops if block_ops else 0.0,
                "us_per_op": ((update_now - update_last[0]) + (flush_now - flush_last[0]))
                              * 1e6 / block_ops if block_ops else 0.0,
            })
            pages_last[0] = pages_now
            ops_last[0] = ops_now
            update_last[0] = update_now
            flush_last[0] = flush_now

        player.play(generate_eecs03_like_trace(trace_config), on_hour=on_hour)

    benchmark.pedantic(run, rounds=1, iterations=1)

    active = [h for h in hourly if h["block_ops"] > 0]
    report("fig7_nfs_overhead", format_series(
        f"Figure 7: NFS trace overhead during normal operation ({HOURS} hours)",
        "hour",
        [h["hour"] for h in active],
        {
            "block_ops": [h["block_ops"] for h in active],
            "io_writes_per_block_op": [h["writes_per_op"] for h in active],
            "us_per_block_op": [h["us_per_op"] for h in active],
        },
        note="paper: 8-9 us/op and 0.010-0.015 writes/op, spikes during low-load hours",
    ), wall_clock=["us_per_block_op"])

    writes = [h["writes_per_op"] for h in active]
    assert statistics.mean(writes) < 0.15

    # Stability: last third not more than 2x the first third.
    third = len(active) // 3
    early = statistics.mean(writes[:third])
    late = statistics.mean(writes[-third:])
    assert late < 2.0 * early + 1e-6

    # Spikes align with low load: the busiest quartile of hours must show a
    # lower mean per-op overhead than the quietest quartile.
    by_load = sorted(active, key=lambda h: h["block_ops"])
    quart = max(1, len(by_load) // 4)
    quiet = statistics.mean(h["writes_per_op"] for h in by_load[:quart])
    busy = statistics.mean(h["writes_per_op"] for h in by_load[-quart:])
    assert busy <= quiet
