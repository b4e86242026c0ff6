#!/usr/bin/env python3
"""The benchmark of record: one command, six workloads, absolute numbers.

    python3 bench/run.py --workload query_aged --seed 42 --seconds 10 --trace 0

runs one workload and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1`` (which also writes ``bench/out/trace-<workload>.json``).
``--workload all`` runs the set.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# The program under test is built from source in the checkout the command
# runs in; worker processes inherit this path through the spawn context.
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import layers  # noqa: E402
from bench.checks import Truth, check_all  # noqa: E402
from bench.harness import FULL, SMOKE, Scale, Spans, now, replay  # noqa: E402
from bench.workloads import (SPECS, Measured, Prepared, System,  # noqa: E402
                             WorkloadSpec, end_to_end_metrics, measure,
                             new_system, prepare)

OUT_DIR = os.path.join(BENCH_DIR, "out")
Metrics = Dict[str, Tuple[float, str]]


def load_contract() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def commit_id() -> str:
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build_reference(prepared: Prepared) -> System:
    """An in-process Backlog fed the served workload's trace: the engine the
    cluster's answers and costs are held against."""
    reference = new_system(WorkloadSpec("reference", "", trace="cluster"))
    replay(prepared.trace, prepared.segments, reference.target,
           reference.authority, maintain_at_end=True)
    return reference


def run_workload(name: str, seed: int, seconds: float, scale: Scale,
                 traced: bool) -> Dict[str, object]:
    """One run of one workload; returns the stamped result record."""
    spec = SPECS[name]
    wall_start = now()
    prepared = prepare(spec, seed, scale)
    spans = Spans() if traced else None
    reference: List[System] = []
    traced_state: Dict[str, object] = {}

    def after_queries(system: System) -> None:
        # Query-side ladders run on the database as the query round left it
        # (the aged workload compacts it right after this returns).
        traced_state["resume_cache_hits"] = system.target.stats.query.resume_cache_hits
        if spec.served:
            reference.append(build_reference(prepared))
        engine = reference[0].target if spec.served else system.target
        traced_state["query"] = layers.query_side(prepared, engine, spans)

    try:
        if traced:
            # The traced body is one replay and one query round under spans.
            measured = measure(prepared, 0.0, spans, after_queries)
        else:
            measured = measure(prepared, seconds)
        truth = Truth(prepared.trace.fs, scale.truth_sample, seed)
        if spec.served and not reference:
            reference.append(build_reference(prepared))
        if traced:
            metrics: Metrics = layers.per_layer_metrics(
                prepared, measured, traced_state["query"],
                traced_state["resume_cache_hits"], spans)
        else:
            metrics = end_to_end_metrics(prepared, measured, truth.distinct_owners)
        checked, failures = check_all(prepared, measured, truth,
                                      reference[0] if reference else None)
        failed = len(failures) + measured.system.surface.failed
    finally:
        # Whichever system is open now, also when measure() failed half-way:
        # an open service's handler threads would keep the process alive.
        prepared.system.close()
        for system in reference:
            system.close()
        gc.unfreeze()
    if spans is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans.write(os.path.join(OUT_DIR, f"trace-{name}.json"),
                    {"workload": name, "seed": seed, "scale": scale.name})
    return {
        "workload": name, "seed": seed, "scale": scale.name, "traced": traced,
        "seconds": seconds, "commit": commit_id(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "wall_s": round(now() - wall_start, 3),
        "measured_s": round(measured.wall_seconds, 3),
        "sample_counts": measured.sample_counts,
        "correct": not failures, "attempted": measured.attempted + checked,
        "failed": failed, "failures": failures[:20],
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def expected_names(contract: Dict[str, object], traced: bool) -> List[str]:
    return [metric["name"] for metric in
            contract["per_layer" if traced else "end_to_end"]]


def report(record: Dict[str, object]) -> None:
    print(f"# {record['workload']}  seed={record['seed']} scale={record['scale']} "
          f"traced={int(record['traced'])} wall={record['wall_s']}s "
          f"measured={record['measured_s']}s commit={record['commit'][:12]} "
          f"python={record['python']} nproc={record['nproc']}")
    print(f"# samples: {record['sample_counts']}")
    for key, metric in record["metrics"].items():
        print(f"{key:34s} {metric['value']:16.4f} {metric['unit']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")


def stop_helper_processes() -> None:
    """Leave no process behind: reap any worker still alive and stop the
    spawn context's resource tracker, waiting for each to end.

    ``ShardedBacklog.close()`` joins its workers, but the tracker process
    the spawn context starts beside them otherwise outlives the benchmark
    by a second or so (it only notices the parent is gone, then cleans up).
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()   # closes the tracker's pipe and waitpid()s it; no-op if not running


def main(argv: Optional[List[str]] = None) -> int:
    # A terminated run unwinds like a failed one, so the clean-up below and
    # multiprocessing's own exit handler still run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(argv)
    finally:
        stop_helper_processes()


def run(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "runs.jsonl"),
                        help="append one JSON record per run to this file")
    args = parser.parse_args(argv)
    scale = FULL if args.scale == "full" else SMOKE
    traced = bool(args.trace)
    selected = names if args.workload == "all" else [args.workload]

    records = []
    for name in selected:
        record = run_workload(name, args.seed, args.seconds, scale, traced)
        missing = set(expected_names(contract, traced)) ^ set(record["metrics"])
        if missing:
            record["correct"] = False
            record["failures"].append(f"metric names differ from BENCHMARK.json: {sorted(missing)}")
        report(record)
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{record['workload']}.{key}": metric
                   for record in records for key, metric in record["metrics"].items()}
    summary = {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] and summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
