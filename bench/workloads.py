"""The six workloads, measured end to end through the public API only.

Every workload has the same two timed phases, because the contract of the
benchmark wants every end-to-end metric from every workload: an **ingest**
phase replaying a recorded trace (update, consistency-point, maintenance
and space figures) and a **query** phase over the database it leaves
behind (point, range, scan, paginated and early-exit figures).  What
differs is the trace, the maintenance schedule, the page-cache size, where
the point queries run and the surface they go through -- see ``SPECS``.
"""

from __future__ import annotations

import gc
import http.client
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import ShardedBacklog
from repro.core.backlog import Backlog
from repro.core.cursor import QuerySpec
from repro.fsim.blockdev import MemoryBackend
from repro.server.service import QueryService

from bench.harness import (ReplayTiming, Scale, Spans, bench_config, now,
                           percentile, replay)
from bench.traces import (OPS, RecordedAuthority, Trace,
                          record_nfs, record_synthetic, segment)

__all__ = ["WorkloadSpec", "SPECS", "Prepared", "Measured", "Round", "prepare",
           "measure", "fastest", "canon", "EngineSurface", "HttpSurface", "System"]

PAGE_LIMIT = 512
FIRST_WINDOW = 4096
RANGE_RUN = 64
INTERLEAVE_OPS = 250
INTERLEAVE_QUERIES = 8
RECENT_EVENTS = 2000
CLUSTER_SHARDS = 2


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    trace: str                      # "synthetic" | "nfs" | "cluster"
    maintain_during: bool = False   # maintain() every Scale.maintain_every CPs
    maintain_before_queries: bool = True
    cache_bytes: int = 32 * 1024 * 1024
    interleave: bool = False        # point queries between update chunks
    ingest_share: float = 0.5       # share of --seconds spent replaying
    min_replays: int = 2            # units a full-scale run makes at least
    min_rounds: int = 2             # (see ``fastest``)
    served: bool = False            # 2-shard cluster behind the HTTP service


SPECS: Dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    WorkloadSpec(
        "ingest_synthetic",
        "fig5: 2000-op CPs with clone churn, maintained every 25 CPs; write store, flush, run writer, Bloom build and compactor do the work",
        trace="synthetic", maintain_during=True, ingest_share=0.6, min_rounds=3),
    WorkloadSpec(
        "ingest_nfs",
        "fig7: 400-op CPs, one maintain() at the end; the fixed cost per L0 run dominates, so a bulk-flush gain that adds per-CP cost shows as a loss",
        trace="nfs", ingest_share=0.6, min_replays=3, min_rounds=3),
    WorkloadSpec(
        "query_aged",
        "fig9 no-maintenance row: ~500 runs, DB 14x the 1 MiB cache; Bloom probes, run seeks, merge and the resume cache dominate",
        trace="synthetic", maintain_before_queries=False,
        cache_bytes=1024 * 1024, ingest_share=0.0),
    WorkloadSpec(
        "query_compacted",
        "fig9 just-maintained row: 10 runs, DB fits the cache; leaf decode, join/fold, clone expansion and materialisation dominate, Bloom does nothing",
        trace="synthetic", ingest_share=0.0, min_rounds=3),
    WorkloadSpec(
        "mixed_interleaved",
        "8 point queries after every 250 updates in one thread: unflushed write-store reads, a DB that ages and is compacted in cycles, cursors invalidated each CP",
        trace="synthetic", maintain_during=True, interleave=True,
        ingest_share=0.7),
    WorkloadSpec(
        "served_cluster",
        "serve --shards 2 posture: HTTP framing and JSON, coordinator scatter, v2 frames and worker IPC on top of the same engine, one keep-alive client",
        trace="cluster", served=True, ingest_share=0.3),
)}


def canon(owner) -> Tuple:
    """One owner in comparable form, whichever surface returned it."""
    if isinstance(owner, dict):
        return (owner["block"], owner["inode"], owner["offset"], owner["line"],
                tuple((start, stop) for start, stop in owner["ranges"]))
    return (owner[0], owner[1], owner[2], owner[3], tuple(map(tuple, owner[4])))


class EngineSurface:
    """A ``Backlog`` or ``ShardedBacklog`` queried in process."""

    failed = 0
    max_pages = 1 << 30   # a paginated pass runs to the end of the device

    def __init__(self, system) -> None:
        self.system = system

    def pages_read(self) -> int:
        return self.system.stats.query.pages_read

    def close(self) -> None:
        pass

    def point(self, block: int) -> Sequence:
        return self.system.query(block)

    def range(self, first: int, count: int) -> Sequence:
        return self.system.query_range(first, count)

    def page(self, first: int, count: int, token: Optional[str]):
        result = self.system.select(
            QuerySpec(first, count, limit=PAGE_LIMIT, resume_token=token))
        return result.all(), result.resume_token

    def first(self, first: int, count: int):
        return self.system.select(QuerySpec(first, count)).first()


class HttpSurface(EngineSurface):
    """``POST /query`` over one keep-alive ``http.client`` connection.

    Deliberately the plainest client there is: every round trip costs
    ~44 ms today because the service sends header and body separately, and
    a client that worked around it would hide a later fix.
    """

    #: Pages per paginated pass: at ~48 ms a page the whole device would
    #: take longer than everything else in the round together.
    max_pages = 20

    def __init__(self, service: QueryService, system) -> None:
        super().__init__(system)   # page counts come from the cluster behind
        self.connection = http.client.HTTPConnection(*service.address, timeout=60)
        self.failed = 0
        self.body_bytes = 0

    def _post(self, body: Dict[str, object]) -> Dict[str, object]:
        self.connection.request("POST", "/query", json.dumps(body),
                                {"Content-Type": "application/json"})
        response = self.connection.getresponse()
        raw = response.read()
        self.body_bytes += len(raw)
        if response.status != 200:
            self.failed += 1
            return {"results": [], "resume_token": None}
        return json.loads(raw)

    def health(self) -> int:
        self.connection.request("GET", "/health")
        response = self.connection.getresponse()
        response.read()
        return response.status

    def point(self, block: int) -> Sequence:
        return self._post({"first_block": block})["results"]

    def range(self, first: int, count: int) -> Sequence:
        return self._post({"first_block": first, "num_blocks": count})["results"]

    def page(self, first: int, count: int, token: Optional[str]):
        body = {"first_block": first, "num_blocks": count, "limit": PAGE_LIMIT}
        if token is not None:
            body["resume_token"] = token
        reply = self._post(body)
        return reply["results"], reply["resume_token"]

    def first(self, first: int, count: int):
        results = self._post({"first_block": first, "num_blocks": count,
                              "limit": 1})["results"]
        return results[0] if results else None

    def close(self) -> None:
        self.connection.close()


@dataclass
class System:
    """One system under test and everything needed to tear it down."""

    target: object                       # Backlog or ShardedBacklog
    authority: RecordedAuthority
    backend: Optional[MemoryBackend] = None
    service: Optional[QueryService] = None
    surface: Optional[EngineSurface] = None
    spawn_seconds: float = 0.0

    def close(self) -> None:
        if self.surface is not None:
            self.surface.close()
        if self.service is not None:
            self.service.stop()
        self.target.close()


def new_system(spec: WorkloadSpec) -> System:
    authority = RecordedAuthority()
    if spec.served:
        start = now()
        cluster = ShardedBacklog(num_shards=CLUSTER_SHARDS,
                                 config=bench_config(CLUSTER_SHARDS),
                                 version_source=authority)
        return System(cluster, authority, spawn_seconds=now() - start)
    backend = MemoryBackend()
    backlog = Backlog(backend, bench_config(cache_bytes=spec.cache_bytes), authority)
    return System(backlog, authority, backend=backend)


def open_surface(spec: WorkloadSpec, system: System) -> None:
    if spec.served:
        system.service = QueryService(system.target).start()
        system.surface = HttpSurface(system.service, system.target)
    else:
        system.surface = EngineSurface(system.target)


# --------------------------------------------------------------- set-up


@dataclass
class RoundPlan:
    points: List[int]
    ranges: List[Tuple[int, int]]
    firsts: List[int]


@dataclass
class Prepared:
    """Everything built before the first timed operation."""

    spec: WorkloadSpec
    scale: Scale
    seed: int
    trace: Trace
    segments: List[Tuple]
    live_blocks: List[int]
    device_blocks: int
    interleaved: List[List[int]]   # per OPS chunk: the blocks to query after it
    system: System                 # the one open now: set-up's, then each replay's
    setup_seconds: float

    def round_plan(self) -> RoundPlan:
        """The query targets of every round: a function of the seed only.

        Every round asks the same questions, so the i-th query of one round
        is the same work as the i-th of another (see ``fastest``).
        """
        rng = random.Random(self.seed * 1_000_003)
        scale, live = self.scale, self.live_blocks
        served = self.spec.served
        points = scale.http_points if served else scale.points
        ranges = scale.http_ranges if served else scale.ranges
        firsts = scale.http_firsts if served else scale.firsts
        if self.spec.interleave:
            points = 0  # this workload's point queries run inside the replay
        span = min(RANGE_RUN, len(live))
        starts = [rng.randrange(len(live) - span + 1) for _ in range(ranges)]
        return RoundPlan(
            points=[rng.choice(live) for _ in range(points)],
            ranges=[(live[i], live[i + span - 1] - live[i] + 1) for i in starts],
            firsts=[rng.randrange(self.device_blocks) for _ in range(firsts)])


def _interleaved_targets(segments: Sequence[Tuple], seed: int) -> List[List[int]]:
    """Half the queries on a recently touched block, half on an older one."""
    rng = random.Random(seed + 17)
    touched: List[int] = []
    plans: List[List[int]] = []
    for item in segments:
        if item[0] != OPS:
            continue
        touched.extend(event[1] for event in item[1])
        recent = max(0, len(touched) - RECENT_EVENTS)
        plans.append([
            touched[rng.randrange(max(1, recent)) if i % 2
                    else rng.randrange(recent, len(touched))]
            for i in range(INTERLEAVE_QUERIES)])
    return plans


def prepare(spec: WorkloadSpec, seed: int, scale: Scale) -> Prepared:
    start = now()
    if spec.trace == "nfs":
        trace = record_nfs(seed, scale.nfs_hours)
    else:
        cps = scale.cluster_cps if spec.trace == "cluster" else scale.synthetic_cps
        trace = record_synthetic(seed, cps, clone_every=scale.clone_every,
                                 clone_delete_every=scale.clone_delete_every)
    segments = segment(trace.events, INTERLEAVE_OPS if spec.interleave else None)
    live = sorted({ref[0] for ref in trace.fs.iter_live_references()})
    interleaved = _interleaved_targets(segments, seed) if spec.interleave else []
    system = new_system(spec)
    # Park everything set-up built (the fs image, 200k event tuples) in the
    # permanent generation: the collector stays enabled for the program's
    # own objects but does not rescan the harness's on every full pass.
    gc.collect()
    gc.freeze()
    return Prepared(spec, scale, seed, trace, segments, live,
                    trace.max_block + 1, interleaved, system,
                    now() - start)


# ------------------------------------------------------------- measuring


@dataclass
class Round:
    """The samples of one query round (or, for the interleaved workload's
    point queries, of one replay)."""

    point_seconds: List[float] = field(default_factory=list)
    point_pages: int = 0
    range_refs: int = 0
    range_seconds: List[float] = field(default_factory=list)
    scan_refs: int = 0
    scan_seconds: float = 0.0
    page_seconds: List[float] = field(default_factory=list)
    first_seconds: List[float] = field(default_factory=list)
    operations: int = 0
    # Answers, kept for the checks that follow the timed region.
    scan_answer: Sequence = ()
    paged_answer: List = field(default_factory=list)
    paged_complete: bool = False
    point_answers: List[Tuple[int, Sequence]] = field(default_factory=list)
    first_answers: List[Tuple[int, object]] = field(default_factory=list)

    def drop_answers(self) -> None:
        self.scan_answer, self.paged_answer = (), []
        self.point_answers, self.first_answers = [], []


def query_round(surface, plan: RoundPlan, device_blocks: int, op: int,
                spans: Optional[Spans] = None) -> Round:
    """One fixed mix: points, ranges, a device scan, a paginated pass, firsts."""
    round_ = Round()
    gc.collect()

    pages_before = surface.pages_read()
    for block in plan.points:
        start = now()
        answer = surface.point(block)
        end = now()
        round_.point_seconds.append(end - start)
        round_.point_answers.append((block, answer))
        if spans is not None:
            spans.add("query.point", start, end, -1, op)
    round_.point_pages = surface.pages_read() - pages_before

    for first, count in plan.ranges:
        start = now()
        round_.range_refs += len(surface.range(first, count))
        end = now()
        round_.range_seconds.append(end - start)
        if spans is not None:
            spans.add("query.range", start, end, -1, op)

    start = now()
    round_.scan_answer = surface.range(0, device_blocks)
    end = now()
    round_.scan_seconds = end - start
    round_.scan_refs = len(round_.scan_answer)
    if spans is not None:
        spans.add("query.scan", start, end, -1, op)

    token = None
    while len(round_.page_seconds) < surface.max_pages:
        start = now()
        rows, token = surface.page(0, device_blocks, token)
        end = now()
        round_.page_seconds.append(end - start)
        round_.paged_answer.extend(rows)
        if spans is not None:
            spans.add("query.page", start, end, -1, op)
        if token is None:
            round_.paged_complete = True
            break

    for block in plan.firsts:
        start = now()
        answer = surface.first(block, FIRST_WINDOW)
        end = now()
        round_.first_seconds.append(end - start)
        round_.first_answers.append((block, answer))
        if spans is not None:
            spans.add("query.first", start, end, -1, op)
    round_.operations = (len(plan.points) + len(plan.ranges) + 1
                         + len(round_.page_seconds) + len(plan.firsts))
    return round_


def _budget_spent(deadline: float, unit_start: float) -> bool:
    """True unless at least half of another unit still fits before ``deadline``."""
    finished = now()
    return finished + 0.5 * (finished - unit_start) >= deadline


@dataclass
class Measured:
    replays: List[ReplayTiming]
    rounds: List[Round]
    interleaved: List[Round]       # mixed workload: point samples per replay
    system: System                 # the last replay's system, still open
    first_checkpoint_pages: int
    database_bytes: int
    spawn_seconds: List[float]
    attempted: int
    wall_seconds: float

    @property
    def point_units(self) -> List[Round]:
        """The units carrying this workload's point-query samples."""
        return self.interleaved or self.rounds

    @property
    def sample_counts(self) -> Dict[str, int]:
        return {
            "replays": len(self.replays),
            "cp": sum(len(t.cp_seconds) for t in self.replays),
            "maintain_passes": sum(len(t.maintain) for t in self.replays),
            "query_rounds": len(self.rounds),
            "point": sum(len(u.point_seconds) for u in self.point_units),
            "page": sum(len(r.page_seconds) for r in self.rounds),
            "first": sum(len(r.first_seconds) for r in self.rounds),
        }


def measure(prepared: Prepared, seconds: float, spans: Optional[Spans] = None,
            after_queries: Optional[Callable[[System], None]] = None) -> Measured:
    """The timed region: replays, then query rounds, inside ``seconds``.

    Both phases run their minimum number of units (a unit is one replay or
    one query round) and then repeat while their share of the budget lasts,
    so a faster program is measured on more samples, not for less time.
    ``after_queries`` runs untimed between the last query round and the aged
    workload's closing maintain().
    """
    spec, scale, trace = prepared.spec, prepared.scale, prepared.trace
    # A traced or smoke run makes one unit of each kind: it attributes or
    # checks plumbing, it does not report end-to-end figures.
    repeat = spans is None and scale.repeat_units
    min_replays = spec.min_replays if repeat else 1
    min_rounds = spec.min_rounds if repeat else 1
    replays: List[ReplayTiming] = []
    interleaved: List[Round] = []
    spawn_seconds: List[float] = []
    attempted = 0
    system = prepared.system
    started = now()
    ingest_deadline = started + seconds * spec.ingest_share
    first_checkpoint_pages = 0

    while True:
        spawn_seconds.append(system.spawn_seconds)
        target = system.target
        after_chunk = None
        if spec.interleave:
            unit = Round()
            pages_before = target.stats.query.pages_read
            query, plans, latencies = target.query, prepared.interleaved, unit.point_seconds

            def after_chunk(chunk: int) -> None:
                for block in plans[chunk]:
                    start = now()
                    query(block)
                    latencies.append(now() - start)

        gc.collect()
        unit_start = now()
        timing = replay(
            trace, prepared.segments, target, system.authority,
            maintain_every=scale.maintain_every if spec.maintain_during else None,
            maintain_at_end=spec.maintain_before_queries,
            after_chunk=after_chunk, spans=spans, op=len(replays))
        if spec.interleave:
            unit.point_pages = target.stats.query.pages_read - pages_before
            interleaved.append(unit)
        if not replays:
            first_checkpoint_pages = sum(
                cp.pages_written for cp in target.stats.checkpoints)
        replays.append(timing)
        attempted += (trace.block_ops + len(timing.cp_seconds)
                      + len(timing.maintain)
                      + INTERLEAVE_QUERIES * len(prepared.interleaved))
        if len(replays) >= min_replays and _budget_spent(ingest_deadline, unit_start):
            break
        system.close()
        # Kept where the caller can reach it, so a failure anywhere below
        # still closes the cluster and service that are open at that moment.
        system = prepared.system = new_system(spec)

    open_surface(spec, system)
    deadline = started + seconds
    rounds: List[Round] = []
    plan = prepared.round_plan()
    while True:
        unit_start = now()
        if rounds:
            rounds[-1].drop_answers()
        rounds.append(query_round(system.surface, plan, prepared.device_blocks,
                                  len(rounds), spans))
        attempted += rounds[-1].operations
        if len(rounds) >= min_rounds and _budget_spent(deadline, unit_start):
            break

    if after_queries is not None:
        # The traced run's query-side ladders need the database exactly as
        # the query phase saw it, before the aged workload compacts it.
        after_queries(system)
    if not spec.maintain_before_queries:
        # The aged database is compacted only now, after its queries: the
        # one pass is this workload's maintenance and space sample.
        start = now()
        stats = system.target.maintain()
        replays[-1].maintain.append((now() - start, stats.records_in,
                                     stats.records_purged))
        attempted += 1
    return Measured(replays, rounds, interleaved, system, first_checkpoint_pages,
                    system.target.database_size_bytes(), spawn_seconds,
                    attempted, now() - started)


def fastest(series: Sequence[Sequence[float]]) -> List[float]:
    """Per position, the fastest of an operation's repetitions.

    Units repeat the same work -- replays the same trace, rounds the same
    questions -- so position k of one unit is the same operation as position
    k of another.  The sandbox's cores are shared, and when a neighbour is
    busy everything runs ~1.45x slower for anything from 30 ms to seconds at
    a time (measured: a fixed loop flips between 26 and 38 ms, up to half the
    time in the slow state).  Interference only ever adds time, so each
    operation is reported at the fastest it ran; percentiles and sums are
    then taken over operations, not over repetitions.
    """
    return [min(samples) for samples in zip(*series)]


def end_to_end_metrics(prepared: Prepared, measured: Measured,
                       distinct_owners: int) -> Dict[str, Tuple[float, str]]:
    """The fifteen end-to-end metrics, by name, with their units."""
    replays, rounds = measured.replays, measured.rounds
    cp_seconds = fastest([timing.cp_seconds for timing in replays])
    update_seconds = sum(fastest([timing.update_batches for timing in replays]))
    # (Of the aged workload's replays only the last is ever maintained.)
    maintained = [timing for timing in replays if timing.maintain]
    maintain_seconds = sum(fastest([timing.maintain_seconds for timing in maintained]))
    records_in = sum(records for _seconds, records, _purged in maintained[0].maintain)
    point_seconds = fastest([unit.point_seconds for unit in measured.point_units])
    page_seconds = fastest([round_.page_seconds for round_ in rounds])
    first_seconds = fastest([round_.first_seconds for round_ in rounds])
    range_seconds = fastest([round_.range_seconds for round_ in rounds])
    first_points = measured.point_units[0]
    return {
        "setup_s": (prepared.setup_seconds, "s"),
        "update_us_per_op": ((update_seconds + sum(cp_seconds)) * 1e6
                             / prepared.trace.block_ops, "us"),
        "cp_ms_mean": (sum(cp_seconds) / len(cp_seconds) * 1e3, "ms"),
        "cp_ms_p90": (percentile(cp_seconds, 0.90) * 1e3, "ms"),
        "maintain_us_per_record": (maintain_seconds * 1e6 / records_in, "us"),
        "pages_written_per_op": (measured.first_checkpoint_pages
                                 / prepared.trace.block_ops, "pages"),
        "db_bytes_per_ref": (measured.database_bytes / distinct_owners, "bytes"),
        "point_us_p50": (percentile(point_seconds, 0.50) * 1e6, "us"),
        "point_us_p90": (percentile(point_seconds, 0.90) * 1e6, "us"),
        "range_refs_per_s": (rounds[0].range_refs / sum(range_seconds), "refs/s"),
        "scan_refs_per_s": (rounds[0].scan_refs
                            / min(round_.scan_seconds for round_ in rounds), "refs/s"),
        "page_ms_p50": (percentile(page_seconds, 0.50) * 1e3, "ms"),
        "page_ms_p90": (percentile(page_seconds, 0.90) * 1e3, "ms"),
        "first_us_p50": (percentile(first_seconds, 0.50) * 1e6, "us"),
        "pages_read_per_query": (first_points.point_pages
                                 / len(first_points.point_seconds), "pages"),
    }
