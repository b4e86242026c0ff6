#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or report the spread of one.

    python3 bench/compare.py A.jsonl B.jsonl     # base vs new
    python3 bench/compare.py --spread A.jsonl    # steadiness of one set

A set is what ``bench/run.py --out FILE`` appends to: one JSON record per
run.  Per workload and end-to-end metric the comparison prints the base
median, the new median, their ratio (with its base), the regression bound
from ``BENCHMARK.json`` and a verdict:

``improved`` / ``regressed``
    the new median is better / worse than the base by more than the bound;
``unchanged``
    within the bound;
``unresolved``
    the sets' own spread (interquartile range over median) exceeds the
    bound, so the bound cannot be judged -- unless every new run reads
    better (worse) than every base run.

Smoke-scale records are refused: they measure nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
Samples = Dict[Tuple[str, str], List[float]]


def load_set(path: str) -> Samples:
    samples: Samples = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("scale") != "full":
                raise SystemExit(f"{path}: refusing a {record.get('scale')!r}-scale "
                                 f"record; only full-scale runs are comparable")
            if record.get("traced"):
                continue  # per-layer numbers have no bound
            for name, metric in record["metrics"].items():
                samples[(record["workload"], name)].append(metric["value"])
    if not samples:
        raise SystemExit(f"{path}: no untraced full-scale records")
    return samples


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for under 2 values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else 0.0


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    worsening = sign * (new_median - base_median) / base_median
    noisy = max(spread(base), spread(new)) > bound
    if noisy:
        separated_worse = min(sign * v for v in new) > max(sign * v for v in base)
        separated_better = max(sign * v for v in new) < min(sign * v for v in base)
        if not (separated_worse or separated_better):
            return "unresolved"
    if worsening > bound:
        return "regressed"
    if worsening < -bound:
        return "improved"
    return "unchanged"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", help="one (--spread) or two run files")
    parser.add_argument("--spread", action="store_true",
                        help="report each metric's spread against a third of its bound")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    workloads = [w["name"] for w in contract["workloads"]]

    if args.spread:
        if len(args.sets) != 1:
            parser.error("--spread takes exactly one set")
        samples = load_set(args.sets[0])
        worst = 0
        print(f"{'workload':18s} {'metric':24s} {'n':>3s} {'median':>14s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for workload in workloads:
            for name, metric in metrics.items():
                values = samples.get((workload, name))
                if not values:
                    continue
                share = spread(values)
                bound = metric["bound"]
                if name == "setup_s" or share <= bound / 3:
                    state = "steady"
                elif share <= bound:
                    state, worst = "loose", max(worst, 1)
                else:
                    state, worst = "UNSTEADY", 2
                print(f"{workload:18s} {name:24s} {len(values):3d} "
                      f"{statistics.median(values):14.4f} {share:8.4f} {bound:6.2f}  {state}")
        return 1 if worst == 2 else 0

    if len(args.sets) != 2:
        parser.error("a comparison takes exactly two sets")
    base_set, new_set = (load_set(path) for path in args.sets)
    regressed = False
    print(f"{'workload':18s} {'metric':24s} {'base':>14s} {'new':>14s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    for workload in workloads:
        for name, metric in metrics.items():
            base, new = base_set.get((workload, name)), new_set.get((workload, name))
            if not base or not new:
                continue
            base_median, new_median = statistics.median(base), statistics.median(new)
            outcome = verdict(base, new, metric["better"], metric["bound"])
            regressed |= outcome == "regressed"
            print(f"{workload:18s} {name:24s} {base_median:14.4f} {new_median:14.4f} "
                  f"{new_median / base_median:9.4f} {metric['bound']:6.2f}  {outcome}"
                  f"  (base {base_median:.4g} {metric['unit']}, n={len(base)}/{len(new)})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
