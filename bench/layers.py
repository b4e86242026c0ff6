"""Per-layer attribution for the traced run (``--trace 1``).

Nothing inside the program is instrumented.  Every timing here is taken
*from this file* by calling a module's public functions on inputs captured
from the workload -- the record batches of sampled consistency points, a
fixed sample of the point and range queries, one device scan -- and every
count is read from the program's public stats objects.  A query is rebuilt
stage by stage from those functions (the *ladder*); the time between two
rungs is that stage's cost, the ladder's sum over the end-to-end time of the
same operations is the coverage, and the remainder is ``query.other_us``.

A layer that is not on a workload's path reports 0 for it: the HTTP service
costs ``ingest_synthetic`` nothing.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import tempfile
import tracemalloc
from collections import defaultdict
from statistics import median
from typing import Dict, List, Sequence, Tuple

from repro.cluster.protocol import (Opcode, decode_frame, encode_frame,
                                    pack_back_references,
                                    unpack_back_references)
from repro.core.backlog import Backlog
from repro.core.bloom import BloomFilter
from repro.core.columnar import (fold_rows_for_query, join_rows_for_query,
                                 scan_rows_bulk)
from repro.core.cursor import (QuerySpec, decode_resume_token,
                               encode_resume_token)
from repro.core.inheritance import materialized_expand
from repro.core.join import materialized_join
from repro.core.lsm import RunManager, merge_sorted_runs, parse_run_name, run_name
from repro.core.masking import mask_records
from repro.core.partitioning import Partitioner
from repro.core.read_store import RECORD_KINDS
from repro.core.records import BackReference, FromRecord, ToRecord
from repro.core.recovery import recover_backlog
from repro.core.write_store import WriteStore
from repro.fsim.blockdev import PAGE_SIZE, DiskBackend, MemoryBackend
from repro.util.intervals import merge_adjacent_ranges

from bench.harness import PARTITION_SIZE_BLOCKS, Spans, now, percentile
from bench.traces import ADD, CP, REMOVE
from bench.workloads import (PAGE_LIMIT, RANGE_RUN, HttpSurface, Measured,
                             Prepared)

__all__ = ["query_side", "per_layer_metrics"]

Metrics = Dict[str, Tuple[float, str]]
FROM_KIND, TO_KIND, COMBINED_KIND = (RECORD_KINDS[t] for t in ("from", "to", "combined"))
MATERIALIZE_PAGES = 15
CP_SAMPLE = 20
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _drain(iterator) -> int:
    count = 0
    for _ in iterator:
        count += 1
    return count


# ------------------------------------------------------------ query side


def _point_ladder(engine: Backlog, block: int, spans: Spans, op: int) -> Dict[str, float]:
    """One point query rebuilt from public functions; seconds per rung."""
    config = engine.config
    rungs: Dict[str, float] = {}
    begin = now()
    snapshot = engine.catalogue.select()
    pinned = now()
    partitions = engine.partitioner.partitions_for_range(block, 1)
    candidates = snapshot.runs_for_block_range(partitions, block, 1)
    filtered = now()
    rungs["catalogue.pin"] = pinned - begin
    rungs["lsm.prefilter"] = filtered - pinned
    rungs["candidates"] = len(candidates)

    sinks: Dict[int, List] = {FROM_KIND: [], TO_KIND: [], COMBINED_KIND: []}
    empty = 0
    start = now()
    for run in candidates:
        records = run.records_for_block_range(block, 1)
        empty += not records
        sinks[run.record_kind].extend(records)
    sinks[FROM_KIND].extend(snapshot.ws_from.records_for_block_range(block, 1))
    sinks[TO_KIND].extend(snapshot.ws_to.records_for_block_range(block, 1))
    gathered = now()
    view = materialized_join(sinks[FROM_KIND], sinks[TO_KIND], sinks[COMBINED_KIND])
    joined = now()
    expanded = materialized_expand(view, engine.clone_graph)
    grown = now()
    masked = mask_records(expanded, engine.version_authority)
    done = now()
    # The owner fold the narrow path ends with, from its public pieces.
    grouped: Dict[Tuple, List[Tuple[int, int]]] = defaultdict(list)
    for record in masked:
        grouped[record[:4]].append((record[4], record[5]))
    [BackReference(*key, tuple(merge_adjacent_ranges(ranges)))
     for key, ranges in sorted(grouped.items())]
    folded = now()
    rungs.update({
        "read_store.gather": gathered - start, "join.materialized": joined - gathered,
        "inheritance.expand": grown - joined, "masking.mask": done - grown,
        "cursor.materialize": folded - done,
        "false_positives": empty, "records": sum(map(len, sinks.values())),
        "joined": len(view), "expanded": len(expanded), "masked": len(masked),
    })
    narrow = bool(config.narrow_dispatch_max_runs) and \
        len(candidates) <= config.narrow_dispatch_max_runs
    if narrow:
        path = ("read_store.gather", "join.materialized", "inheritance.expand",
                "masking.mask", "cursor.materialize")
    else:
        # More candidate runs than the narrow dispatch takes: the engine
        # answers through the bulk row path, so that is the ladder to sum.
        start = now()
        rows = {kind: [] for kind in sinks}
        for run in candidates:
            rows[run.record_kind].extend(run.rows_for_block_range(block, 1))
        for bucket in rows.values():
            bucket.sort()
        bulk_gathered = now()
        owners = scan_rows_bulk(rows[FROM_KIND], rows[TO_KIND], rows[COMBINED_KIND],
                                engine.clone_graph, engine.version_authority)
        scanned = now()
        list(map(BackReference._make, owners))
        made = now()
        rungs.update({"read_store.gather_rows": bulk_gathered - start,
                      "columnar.bulk_scan": scanned - bulk_gathered,
                      "cursor.materialize": made - scanned})
        path = ("read_store.gather_rows", "columnar.bulk_scan", "cursor.materialize")
    snapshot.release()
    rungs["ladder"] = (rungs["catalogue.pin"] + rungs["lsm.prefilter"]
                       + sum(rungs[name] for name in path))
    parent = spans.add("ladder.point", begin, now(), -1, op)
    cursor = begin
    for name in ("catalogue.pin", "lsm.prefilter") + path:
        spans.add(name, cursor, cursor + rungs[name], parent, op)
        cursor += rungs[name]
    return rungs


def _timed_point(engine: Backlog, block: int) -> float:
    start = now()
    engine.query(block)
    return now() - start


def _points_section(engine: Backlog, points: Sequence[int], spans: Spans) -> Metrics:
    """Point queries: end to end and as a ladder, on the same blocks."""
    stats = engine.stats.query
    end_to_end: List[float] = []
    ladders: List[Dict[str, float]] = []
    counted = dict.fromkeys(stats.snapshot_counters(), 0)
    for op, block in enumerate(points):
        # Whichever goes second finds the block's pages cached, so the order
        # alternates: neither side is systematically the warm one.
        if op % 2:
            ladders.append(_point_ladder(engine, block, spans, op))
        before = stats.snapshot_counters()
        end_to_end.append(_timed_point(engine, block))
        for key, value in stats.snapshot_counters().items():
            counted[key] += value - before[key]
        if not op % 2:
            ladders.append(_point_ladder(engine, block, spans, op))

    def total(name: str) -> float:
        return sum(ladder.get(name, 0.0) for ladder in ladders)

    # Tracing overhead: each query timed bare and under a span, back to back.
    scratch = Spans()
    bare, extra = [], []
    for op, block in enumerate(points):
        pair = [0.0, 0.0]
        for traced in ((0, 1) if op % 2 else (1, 0)):
            start = now()
            engine.query(block)
            end = now()
            if traced:
                scratch.add("query.point", start, end, -1, op)
                end = now()
            pair[traced] = end - start
        bare.append(pair[0])
        extra.append(pair[1] - pair[0])

    queries = len(points)
    candidates = total("candidates")
    return {
        "query.narrow_share": (_ratio(counted["narrow_fast_path_queries"], queries), "ratio"),
        "bloom.skipped_share": (_ratio(
            counted["runs_skipped_by_bloom"],
            counted["runs_skipped_by_bloom"] + counted["runs_probed"]), "ratio"),
        "bloom.false_positive_share": (_ratio(total("false_positives"), candidates), "ratio"),
        "lsm.candidate_runs_per_query": (candidates / queries, "count"),
        "lsm.prefilter_us_per_query": (total("lsm.prefilter") * 1e6 / queries, "us"),
        "catalogue.pin_us": (median([l["catalogue.pin"] for l in ladders]) * 1e6, "us"),
        "join.materialized_us_per_record": (
            _ratio(total("join.materialized") * 1e6, total("records")), "us"),
        "inheritance.expand_us_per_group": (total("inheritance.expand") * 1e6 / queries, "us"),
        "inheritance.expansion_factor": (_ratio(total("expanded"), total("joined")), "ratio"),
        "masking.mask_us_per_record": (
            _ratio(total("masking.mask") * 1e6, total("expanded")), "us"),
        "masking.masked_share": (1.0 - _ratio(total("masked"), total("expanded")), "ratio"),
        "query.other_us": ((sum(end_to_end) - total("ladder")) * 1e6 / queries, "us"),
        "trace.coverage_point": (total("ladder") / sum(end_to_end), "ratio"),
        "engine.point_us_p50": (median(end_to_end) * 1e6, "us"),
        "trace.overhead_pct": (median(extra) / median(bare) * 100.0, "%"),
    }


def _probe_section(engine: Backlog, snapshot, points: Sequence[int],
                   ranges: Sequence[Tuple[int, int]]) -> Metrics:
    """Bloom probes and run seeks over every run of the queried partitions."""
    partitioner = engine.partitioner
    probes = 0
    start = now()
    for block in points:
        for run in snapshot.runs_for(partitioner.partition_of(block)):
            run.bloom.might_contain(block)
            probes += 1
    point_probing = now() - start
    range_probes, range_probing, seeks = 0, 0.0, []
    for first, count in ranges:
        partitions = partitioner.partitions_for_range(first, count)
        runs = [run for p in partitions for run in snapshot.runs_for(p)]
        start = now()
        for run in runs:
            run.bloom.might_contain_range(first, count)
        range_probing += now() - start
        range_probes += len(runs)
        for run in snapshot.runs_for_block_range(partitions, first, count):
            rows = run.iter_rows_block_range(first, count)
            start = now()
            next(rows, None)
            seeks.append(now() - start)
    return {
        "bloom.probe_us": (_ratio(point_probing * 1e6, probes), "us"),
        "bloom.range_probe_us": (_ratio(range_probing * 1e6, range_probes), "us"),
        "read_store.seek_us_per_run": (median(seeks) * 1e6 if seeks else 0.0, "us"),
    }


def _scan_ladder(engine: Backlog, runs: Sequence, first: int, count: int):
    """The list-surface scan rebuilt from public functions: rungs and rows."""
    rows: Dict[int, List[bytes]] = {FROM_KIND: [], TO_KIND: [], COMBINED_KIND: []}
    begin = now()
    for run in runs:
        rows[run.record_kind].extend(run.rows_for_block_range(first, count))
    decoded = now()
    for bucket in rows.values():
        bucket.sort()
    merged = now()
    owners = scan_rows_bulk(rows[FROM_KIND], rows[TO_KIND], rows[COMBINED_KIND],
                            engine.clone_graph, engine.version_authority)
    scanned = now()
    made = list(map(BackReference._make, owners))
    finished = now()
    return (begin, decoded, merged, scanned, finished), rows, made


def _scan_section(engine: Backlog, snapshot, first: int, count: int,
                  spans: Spans) -> Metrics:
    """A one-partition scan: list surface, its ladder, the cursor chain's stages.

    One partition, not the device: the ladder re-does the scan several times
    over, and a fifth of the device attributes it just as well.
    """
    runs = snapshot.runs_for_block_range(
        engine.partitioner.partitions_for_range(first, count), first, count)
    pairs = []
    for _ in range(3):   # back-to-back pairs; the middle ratio is reported
        gc.collect()
        start = now()
        answer = engine.query_range(first, count)
        end_to_end = now() - start
        digest = (len(answer), answer[::499])
        del answer
        gc.collect()
        marks, rows, made = _scan_ladder(engine, runs, first, count)
        if (len(made), made[::499]) != digest:
            raise RuntimeError("the scan ladder does not reproduce query_range()")
        del made
        pairs.append(((marks[4] - marks[0]) / end_to_end, marks))
    coverage, (begin, decoded, merged, scanned, finished) = sorted(
        pairs, key=lambda pair: pair[0])[1]
    row_count = sum(map(len, rows.values()))
    parent = spans.add("ladder.scan", begin, finished, -1, 0)
    for name, lo, hi in (("read_store.decode", begin, decoded),
                         ("lsm.merge", decoded, merged),
                         ("columnar.bulk_scan", merged, scanned),
                         ("cursor.materialize", scanned, finished)):
        spans.add(name, lo, hi, parent, 0)
    out: Metrics = {
        "read_store.decode_us_per_row": (_ratio((decoded - begin) * 1e6, row_count), "us"),
        "columnar.bulk_scan_us_per_row": (_ratio((scanned - merged) * 1e6, row_count), "us"),
        "trace.coverage_scan": (coverage, "ratio"),
    }

    # The cursor chain's stages over the same rows, as a ladder.
    def streams():
        return (iter(rows[FROM_KIND]), iter(rows[TO_KIND]), iter(rows[COMBINED_KIND]))

    gc.collect()
    start = now()
    joined_rows = _drain(join_rows_for_query(*streams()))
    join_seconds = now() - start
    start = now()
    _drain(fold_rows_for_query(join_rows_for_query(*streams()),
                               engine.clone_graph, engine.version_authority))
    fold_seconds = now() - start - join_seconds
    out["columnar.join_us_per_row"] = (_ratio(join_seconds * 1e6, row_count), "us")
    out["columnar.fold_us_per_row"] = (_ratio(fold_seconds * 1e6, joined_rows), "us")

    # Heap merge of the cursor path: merged drain minus the bare drains.
    buckets: Dict[Tuple, List] = {}
    for run in runs:
        parsed = parse_run_name(run.name)
        buckets.setdefault((parsed[0] if parsed else -1, run.record_kind), []).append(run)
    start = now()
    for run in runs:
        _drain(run.iter_rows_block_range(first, count))
    bare_drain = now() - start
    start = now()
    for bucket in buckets.values():
        _drain(merge_sorted_runs([run.iter_rows_block_range(first, count)
                                  for run in bucket]))
    out["lsm.merge_us_per_row"] = (_ratio((now() - start - bare_drain) * 1e6, row_count), "us")

    # Transient memory of the list-surface scan (slow under tracemalloc: last).
    del rows
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        engine.query_range(first, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out["query.scan_peak_transient_kb"] = ((peak - baseline) / 1024.0, "kb")
    return out


def _paged(engine: Backlog, device: int, raw: bool, pages: int) -> Tuple[List[float], List]:
    """The first ``pages`` pages of the device scan: seconds per page, owners."""
    token, seconds, owners = None, [], []
    for _ in range(pages):
        result = engine.select(QuerySpec(0, device, limit=PAGE_LIMIT, resume_token=token))
        start = now()
        rows = result.all_rows() if raw else result.all()
        seconds.append(now() - start)
        owners.extend(rows)
        token = result.resume_token
        if token is None:
            break
    return seconds, owners


def _cursor_section(prepared: Prepared, engine: Backlog) -> Metrics:
    """Cursor surface and wire codec, on this workload's own answers."""
    device = prepared.device_blocks
    full, raw = [], []
    for _ in range(2):
        seconds, answer = _paged(engine, device, False, MATERIALIZE_PAGES)
        full.append(sum(seconds))
        raw.append(sum(_paged(engine, device, True, MATERIALIZE_PAGES)[0]))
    sample = answer[:1000]
    start = now()
    for ref in sample:
        decode_resume_token(encode_resume_token(ref))
    token_seconds = now() - start

    page = answer[:PAGE_LIMIT]
    request = {"authority": dict(prepared.trace.tables[-1]),
               "spec": {"first_block": 0, "num_blocks": device, "version_window": None,
                        "live_only": False, "lines": None, "inodes": None,
                        "limit": PAGE_LIMIT, "resume_token": None}}
    packs, unpacks, frames = [], [], []
    for _ in range(20):
        start = now()
        packed = pack_back_references(page)
        middle = now()
        unpack_back_references(packed)
        end = now()
        decode_frame(encode_frame(Opcode.QUERY_OPEN, request))
        frames.append(now() - end)
        packs.append(middle - start)
        unpacks.append(end - middle)
    return {
        "cursor.materialize_us_per_ref": (
            _ratio((min(full) - min(raw)) * 1e6, len(answer)), "us"),
        "cursor.token_roundtrip_us": (_ratio(token_seconds * 1e6, len(sample)), "us"),
        "protocol.pack_us_per_ref": (_ratio(median(packs) * 1e6, len(page)), "us"),
        "protocol.unpack_us_per_ref": (_ratio(median(unpacks) * 1e6, len(page)), "us"),
        "protocol.frame_bytes_per_ref": (_ratio(len(packed), len(page)), "bytes"),
        "protocol.frame_roundtrip_us": (median(frames) * 1e6, "us"),
    }


def _state_section(prepared: Prepared, engine: Backlog, spans: Spans) -> Metrics:
    """LSM shape, cache, device counters, recovery: the public stats objects."""
    manager = engine.run_manager
    written = engine.backend.stats.pages_written
    checkpoint_pages = sum(cp.pages_written for cp in engine.stats.checkpoints)
    start = now()
    recovered = recover_backlog(
        engine.backend, config=engine.config,
        version_authority=engine.version_authority, current_cp=engine.current_cp,
        clone_parents=prepared.trace.fs.snapshots.clone_parentage())
    rebuild = now() - start
    spans.add("recovery.rebuild", start, start + rebuild, -1, 0)
    runs = recovered.run_manager.run_count()
    recovered.close()
    return {
        "lsm.runs_total": (manager.run_count(), "count"),
        "lsm.l0_runs_per_partition": (
            _ratio(manager.level0_run_count(), len(manager.partitions())), "count"),
        "cache.hit_ratio": (engine.cache.stats.hit_ratio, "ratio"),
        "cache.evictions": (engine.cache.stats.evictions, "count"),
        "blockdev.pages_written": (written, "pages"),
        "blockdev.pages_read": (engine.backend.stats.pages_read, "pages"),
        "compaction.write_amp": (_ratio(written - checkpoint_pages, checkpoint_pages), "ratio"),
        "write_store.pruned_share": (
            _ratio(engine.stats.pruned_pairs, engine.stats.block_ops), "ratio"),
        "recovery.rebuild_ms": (rebuild * 1e3, "ms"),
        "recovery.ms_per_run": (_ratio(rebuild * 1e3, runs), "ms"),
    }


def query_side(prepared: Prepared, engine: Backlog, spans: Spans) -> Metrics:
    """Ladders over the database exactly as the query phase left it."""
    scale, live = prepared.scale, prepared.live_blocks
    rng = random.Random(prepared.seed + 41)
    points = [rng.choice(live) for _ in range(scale.layer_points)]
    span = min(RANGE_RUN, len(live))
    starts = [rng.randrange(len(live) - span + 1) for _ in range(scale.layer_ranges)]
    ranges = [(live[i], live[i + span - 1] - live[i] + 1) for i in starts]
    middle_partition = engine.partitioner.partition_of(prepared.device_blocks // 2)
    first, stop = engine.partitioner.block_range(middle_partition)

    # State first: the sections below read pages and park cursors of their
    # own.  (The engine under the cluster has served nothing yet, so there
    # the order is reversed and its counters describe the ladders.)
    served = prepared.spec.served
    out = {} if served else _state_section(prepared, engine, spans)
    out.update(_points_section(engine, points, spans))
    snapshot = engine.catalogue.select()
    try:
        out.update(_probe_section(engine, snapshot, points, ranges))
        out.update(_scan_section(engine, snapshot, first,
                                 min(stop, prepared.device_blocks) - first, spans))
    finally:
        snapshot.release()
    out.update(_cursor_section(prepared, engine))
    if served:
        # A separate instance, so its paginated pass is run here (elsewhere
        # the traced body's own pass supplies these two).
        hits = engine.stats.query.resume_cache_hits
        seconds, _owners = _paged(engine, prepared.device_blocks, False, 1 << 30)
        out["engine.page_ms_p50"] = (median(seconds) * 1e3, "ms")
        out["cursor.resume_cache_hit_ratio"] = (_ratio(
            engine.stats.query.resume_cache_hits - hits, len(seconds) - 1), "ratio")
        out.update(_state_section(prepared, engine, spans))
    return out


# ----------------------------------------------------------- ingest side


def _sampled_checkpoints(events: Sequence[Tuple], wanted: int) -> List[Tuple[int, List[Tuple]]]:
    """``(cp_index, [update events])`` for evenly spaced consistency points."""
    total = sum(1 for event in events if event[0] == CP)
    step = max(1, total // wanted)
    chosen = set(range(step // 2, total, step))
    batches, batch, index = [], [], 0
    for event in events:
        if event[0] <= REMOVE:
            batch.append(event)
        elif event[0] == CP:
            if index in chosen and batch:
                batches.append((index, batch))
            batch = []
            index += 1
    return batches


def ingest_side(prepared: Prepared, spans: Spans) -> Metrics:
    """Write store, partitioner, run writer and Bloom build on real CP batches.

    Each sampled batch is also flushed end to end through a scratch Backlog
    right before its ladder, so the two sides of ``trace.coverage_cp`` see
    the same moment of the sandbox.
    """
    config = prepared.system.target.config
    bloom_bits = config.run_bloom_bits
    partitioner = Partitioner(PARTITION_SIZE_BLOCKS)
    scratch = MemoryBackend()
    manager = RunManager(scratch)
    whole = Backlog(MemoryBackend(), config)
    inserting = probing = sorting = splitting = building = 0.0
    inserted = probed = sorted_records = built_records = runs_built = 0
    bloom_seconds = bloom_keys = 0
    serialise: List[float] = []
    coverage: List[float] = []

    for index, batch in _sampled_checkpoints(prepared.trace.events, CP_SAMPLE):
        for kind, *key in batch:
            (whole.on_reference_removed if kind else whole.on_reference_added)(*key)
        start = now()
        whole.on_consistency_point(batch[0][5])
        end_to_end = now() - start

        # What the stores hold at the flush, worked out the way Backlog does.
        arrivals = {"from": [], "to": []}
        pruned = {"from": [], "to": []}
        held = {"from": set(), "to": set()}
        for kind, *key in batch:
            mine, other = ("from", "to") if kind == ADD else ("to", "from")
            key = tuple(key)
            if key in held[other]:
                held[other].discard(key)
                pruned[other].append(key)
            else:
                held[mine].add(key)
                arrivals[mine].append((FromRecord if kind == ADD else ToRecord)(*key))
        stores = {"from": WriteStore("from"), "to": WriteStore("to")}
        start = now()
        for table, store in stores.items():
            insert = store.insert
            for record in arrivals[table]:
                insert(record)
        inserting += now() - start
        inserted += len(arrivals["from"]) + len(arrivals["to"])
        for table, store in stores.items():
            for key in pruned[table]:
                store.remove_key(*key)
        misses = [(block, inode, offset, line, cp + (1 << 40))
                  for _kind, block, inode, offset, line, cp in batch]
        start = now()
        remove_key = stores["to"].remove_key
        for key in misses:
            remove_key(*key)
        probing += now() - start
        probed += len(misses)

        begin = now()
        ordered = {table: store.sorted_records() for table, store in stores.items()}
        was_sorted = now()
        pieces = [(table, partition, records) for table in ("from", "to")
                  for partition, records in partitioner.split_sorted_records(ordered[table])]
        was_split = now()
        names = [run_name(partition, table, "L0", manager.next_sequence())
                 for table, partition, _records in pieces]
        build_start = now()
        for (table, _partition, records), name in zip(pieces, names):
            manager.build_run(name, table, records, bloom_bits)
        finished = now()
        flushed = sum(len(records) for _t, _p, records in pieces)
        sorting += was_sorted - begin
        splitting += was_split - was_sorted
        building += finished - build_start
        sorted_records += flushed
        built_records += flushed
        runs_built += len(pieces)
        coverage.append(((was_split - begin) + (finished - build_start)) / end_to_end)
        parent = spans.add("ladder.cp", begin, finished, -1, index)
        spans.add("write_store.sort", begin, was_sorted, parent, index)
        spans.add("partitioning.split", was_sorted, was_split, parent, index)
        spans.add("read_store.build_run", build_start, finished, parent, index)

        for table, _partition, records in pieces:
            blocks = [record[0] for record in records]
            start = now()
            bloom = BloomFilter(bloom_bits)
            bloom.add_many(blocks)
            middle = now()
            bloom.to_bytes()
            serialise.append(now() - middle)
            bloom_seconds += middle - start
            bloom_keys += len(blocks)

    whole.close()
    pages = scratch.stats.pages_written
    fixed = []
    for _ in range(20):
        name = run_name(0, "from", "L0", manager.next_sequence())
        start = now()
        manager.build_run(name, "from", [FromRecord(1, 2, 0, 0, 1)], bloom_bits)
        fixed.append(now() - start)

    after_insert = []
    adds = [event for event in prepared.trace.events if event[0] == ADD]
    for chunk in range(0, min(len(adds), 20 * 250), 250):
        store = WriteStore("from")
        for _kind, *key in adds[chunk:chunk + 250]:
            store.insert(FromRecord(*key))
        block = adds[min(chunk + 249, len(adds) - 1)][1]
        start = now()
        store.records_for_block_range(block, 1)
        after_insert.append(now() - start)

    return {
        "write_store.insert_us": (_ratio(inserting * 1e6, inserted), "us"),
        "write_store.remove_key_us": (_ratio(probing * 1e6, probed), "us"),
        "write_store.sort_us_per_record": (_ratio(sorting * 1e6, sorted_records), "us"),
        "write_store.range_after_insert_us": (median(after_insert) * 1e6, "us"),
        "partitioning.split_us_per_record": (_ratio(splitting * 1e6, sorted_records), "us"),
        "read_store.build_us_per_record": (_ratio(building * 1e6, built_records), "us"),
        "read_store.build_fixed_ms_per_run": (median(fixed) * 1e3, "ms"),
        "read_store.pages_per_run": (_ratio(pages, runs_built), "pages"),
        "bloom.build_us_per_key": (_ratio(bloom_seconds * 1e6, bloom_keys), "us"),
        "bloom.serialize_us_per_filter": (median(serialise) * 1e6, "us"),
        "trace.coverage_cp": (median(coverage), "ratio"),
    }


def device_side() -> Metrics:
    """What a page costs on this sandbox's disk (no end-to-end metric uses it)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="disk-", dir=OUT_DIR)
    try:
        page_file = DiskBackend(directory).create("bench.pages")
        payload = bytes(PAGE_SIZE)
        start = now()
        for _ in range(256):
            page_file.append_page(payload)
        page_file.flush()
        appended = now()
        for index in range(256):
            page_file.read_page(index)
        read = now()
        page_file.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"blockdev.disk_append_us_per_page": ((appended - start) * 1e6 / 256, "us"),
            "blockdev.disk_read_us_per_page": ((read - appended) * 1e6 / 256, "us")}


# ---------------------------------------------------------- served layers

def served_side(prepared: Prepared, measured: Measured) -> Metrics:
    """Coordinator and HTTP service, measured directly; 0 when not served."""
    names = {
        "coordinator.rpc_noop_us": "us", "coordinator.point_us_p50": "us",
        "coordinator.point_us_p95": "us", "coordinator.page_ms_p50": "ms",
        "coordinator.scan_refs_per_s": "refs/s", "coordinator.update_us_per_op": "us",
        "coordinator.cp_ms_p50": "ms", "coordinator.spawn_s": "s",
        "service.http_noop_ms": "ms", "service.overhead_ms": "ms",
        "service.page_bytes_per_ref": "bytes",
    }
    if not prepared.spec.served:
        return {name: (0.0, unit) for name, unit in names.items()}
    cluster = measured.system.target
    surface: HttpSurface = measured.system.surface
    device = prepared.device_blocks
    rng = random.Random(prepared.seed + 43)
    noop = []
    for _ in range(50):
        start = now()
        cluster.pinned_snapshots()
        noop.append(now() - start)
    points = []
    for _ in range(prepared.scale.coordinator_points):
        block = rng.choice(prepared.live_blocks)
        start = now()
        cluster.query(block)
        points.append(now() - start)
    start = now()
    scanned = len(cluster.query_range(0, device))
    scan_seconds = now() - start
    pages, token = [], None
    while True:
        result = cluster.select(QuerySpec(0, device, limit=PAGE_LIMIT, resume_token=token))
        start = now()
        result.all()
        pages.append(now() - start)
        token = result.resume_token
        if token is None:
            break
    health = []
    for _ in range(10):
        start = now()
        surface.health()
        health.append(now() - start)
    body_before, owners, token = surface.body_bytes, 0, None
    for _ in range(3):
        rows, token = surface.page(0, device, token)
        owners += len(rows)
        if token is None:
            break
    timing = measured.replays[0]
    http_point = percentile(measured.rounds[0].point_seconds, 0.5)
    values = {
        "coordinator.rpc_noop_us": median(noop) * 1e6 / cluster.num_shards,
        "coordinator.point_us_p50": percentile(points, 0.5) * 1e6,
        "coordinator.point_us_p95": percentile(points, 0.95) * 1e6,
        "coordinator.page_ms_p50": median(pages) * 1e3,
        "coordinator.scan_refs_per_s": scanned / scan_seconds,
        "coordinator.update_us_per_op": timing.update_us_per_op,
        "coordinator.cp_ms_p50": median(timing.cp_seconds) * 1e3,
        "coordinator.spawn_s": median(measured.spawn_seconds),
        "service.http_noop_ms": median(health) * 1e3,
        "service.overhead_ms": (http_point - percentile(points, 0.5)) * 1e3,
        "service.page_bytes_per_ref": _ratio(surface.body_bytes - body_before, owners),
    }
    return {name: (values[name], unit) for name, unit in names.items()}


# ------------------------------------------------------------- assembly


def per_layer_metrics(prepared: Prepared, measured: Measured,
                      query_metrics: Metrics, resume_cache_hits: int,
                      spans: Spans) -> Metrics:
    """Every per-layer metric of ``BENCHMARK.json`` for one traced run.

    ``query_metrics`` and ``resume_cache_hits`` were taken right after the
    traced body's query round, before anything else touched the database.
    """
    timing = measured.replays[0]
    out: Metrics = dict(query_metrics)
    out.update(ingest_side(prepared, spans))
    out.update(device_side())
    out.update(served_side(prepared, measured))

    target = measured.system.target
    flushed = sum(cp.ws_records_flushed for cp in target.stats.checkpoints)
    flush_seconds = sum(timing.cp_seconds)
    passes = timing.maintain
    records_in = sum(p[1] for p in passes)
    out["flush.us_per_record"] = (_ratio(flush_seconds * 1e6, flushed), "us")
    out["flush.share_of_update"] = (
        flush_seconds / (flush_seconds + timing.update_seconds), "ratio")
    out["compaction.us_per_record_in"] = (
        _ratio(sum(p[0] for p in passes) * 1e6, records_in), "us")
    out["compaction.purged_share"] = (_ratio(sum(p[2] for p in passes), records_in), "ratio")
    out["compaction.pass_ms_p50"] = (median([p[0] for p in passes]) * 1e3, "ms")
    out.setdefault("engine.page_ms_p50",
                   (median(measured.rounds[0].page_seconds) * 1e3, "ms"))
    out["query.point_us_p99"] = (percentile(
        measured.point_units[0].point_seconds, 0.99) * 1e6, "us")
    resumed = sum(len(round_.page_seconds) - 1 for round_ in measured.rounds)
    out.setdefault("cursor.resume_cache_hit_ratio",
                   (_ratio(resume_cache_hits, resumed), "ratio"))
    return out
