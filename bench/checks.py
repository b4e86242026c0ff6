"""Answer checks, run outside the timed regions.

Each function returns the number of operations it attempted and a list of
human-readable failures; an empty list means the answers were right.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.core.cursor import QuerySpec
from repro.core.recovery import recover_backlog
from repro.fsim.filesystem import FileSystem

from bench.harness import bench_config
from bench.traces import Trace
from bench.workloads import (FIRST_WINDOW, PAGE_LIMIT, Measured, Prepared, Round,
                             canon)

__all__ = ["Truth", "check_all"]

Key = Tuple[int, int, int, int]
Check = Tuple[int, List[str]]


class Truth:
    """The file system tree walk: who really owns what, in which versions."""

    def __init__(self, fs: FileSystem, sample_size: int, seed: int) -> None:
        current_cp = fs.global_cp
        owners: Set[Key] = set()
        blocks: Set[int] = set()
        walked: List[Tuple[Key, int]] = []
        for reference in fs.iter_live_references():
            walked.append((reference, current_cp))
        for *reference, version in fs.iter_snapshot_references():
            walked.append((tuple(reference), version))
        for key, _version in walked:
            owners.add(key)
            blocks.add(key[0])
        self.distinct_owners = len(owners)
        ordered = sorted(blocks)
        rng = random.Random(seed + 29)
        self.sample: List[int] = sorted(rng.sample(
            ordered, min(sample_size, len(ordered))))
        sampled = set(self.sample)
        self.expected: Dict[int, Dict[Key, Set[int]]] = {
            block: defaultdict(set) for block in self.sample}
        for key, version in walked:
            if key[0] in sampled:
                self.expected[key[0]][key].add(version)
        self._fs = fs

    def check(self, query: Callable[[int], Sequence]) -> Check:
        """The ``core/verify.py`` rule on the sampled blocks.

        No owner or version the walk found may be missing, and no answer may
        claim a retained, non-zombie version the walk did not find.
        """
        fs = self._fs
        failures: List[str] = []
        valid_versions: Dict[int, List[int]] = {}
        for block in self.sample:
            answer = {owner[:4]: owner[4] for owner in map(canon, query(block))}
            truth = self.expected[block]
            for key, versions in truth.items():
                ranges = answer.get(key, ())
                for version in versions:
                    if not any(start <= version < stop for start, stop in ranges):
                        failures.append(f"missing {key} at version {version}")
            for key, ranges in answer.items():
                line = key[3]
                if line not in valid_versions:
                    valid_versions[line] = fs.snapshots.retained_versions(
                        line, fs.global_cp if line in fs.volumes else None)
                known = truth.get(key, ())
                for version in valid_versions[line]:
                    if version in known or fs.snapshots.is_zombie((line, version)):
                        continue
                    if any(start <= version < stop for start, stop in ranges):
                        failures.append(f"spurious {key} at version {version}")
        return len(self.sample), failures


def _same(name: str, left: Sequence, right: Sequence) -> List[str]:
    if left == right:   # two in-process answers compare as they are
        return []
    left, right = list(map(canon, left)), list(map(canon, right))
    if left == right:
        return []
    return [f"{name}: {len(left)} vs {len(right)} owners, first difference at "
            f"{next((i for i, (a, b) in enumerate(zip(left, right)) if a != b), min(len(left), len(right)))}"]


def check_cursor_surface(last: Round, surface) -> Check:
    """Paginated pass == scan; ``.first()`` == head of the range answer."""
    scan = last.scan_answer
    if not last.paged_complete:   # the HTTP pass stops after a fixed page count
        scan = scan[:len(last.paged_answer)]
    failures = _same("paginated vs scan", last.paged_answer, scan)
    checked = last.first_answers[:10]
    for block, answer in checked:
        full = surface.range(block, FIRST_WINDOW)
        head = [full[0]] if full else []
        failures += _same(f"first({block})", [answer] if answer is not None else [], head)
    return 1 + len(checked), failures


def check_recovery(prepared: Prepared, measured: Measured, truth: Truth,
                   reference) -> Check:
    """A crash-recovered instance must answer exactly as before the crash."""
    trace: Trace = prepared.trace
    system = measured.system
    backend = system.backend if system.backend is not None else reference.backend
    live = system.target if system.backend is not None else reference.target
    recovered = recover_backlog(
        backend, config=bench_config(cache_bytes=prepared.spec.cache_bytes),
        version_authority=live.version_authority, current_cp=live.current_cp,
        clone_parents=trace.fs.snapshots.clone_parentage())
    failures: List[str] = []
    try:
        for block in truth.sample:
            failures += _same(f"recovered({block})", recovered.query(block),
                              live.query(block))
    finally:
        recovered.close()
    return len(truth.sample), failures


def check_surfaces_agree(prepared: Prepared, last: Round, cluster, reference) -> Check:
    """HTTP == coordinator == an in-process Backlog fed the same trace."""
    failures: List[str] = []
    for block, over_http in last.point_answers:
        engine = reference.query(block)
        failures += _same(f"http vs engine ({block})", over_http, engine)
        failures += _same(f"coordinator vs engine ({block})",
                          cluster.query(block), engine)
    scan = reference.query_range(0, prepared.device_blocks)
    failures += _same("http scan vs engine scan", last.scan_answer, scan)
    paged: List = []
    token = None
    while True:
        result = cluster.select(QuerySpec(0, prepared.device_blocks,
                                          limit=PAGE_LIMIT, resume_token=token))
        paged.extend(result.all())
        token = result.resume_token
        if token is None:
            break
    failures += _same("coordinator pages vs engine scan", paged, scan)
    return len(last.point_answers) + 2, failures


def check_all(prepared: Prepared, measured: Measured, truth: Truth,
              reference=None) -> Check:
    """Every check that applies to the workload; failures are concatenated.

    The tree-walk sample goes through the in-process surface even for the
    served workload (a thousand 44 ms round trips would take longer than
    the workload); what HTTP returned in the timed phase is then held
    against that surface.
    """
    target = measured.system.target
    last = measured.rounds[-1]
    results = [truth.check(target.query),
               check_cursor_surface(last, measured.system.surface),
               check_recovery(prepared, measured, truth, reference)]
    if prepared.spec.served:
        results.append(check_surfaces_agree(prepared, last, target, reference.target))
    attempted = sum(count for count, _ in results)
    failures = [failure for _, found in results for failure in found]
    return attempted, failures
