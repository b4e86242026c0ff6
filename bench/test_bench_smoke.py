"""Smoke test of the benchmark harness itself.

    PYTHONPATH=src python -m pytest bench -q

Runs every workload at smoke scale, twice untraced and twice traced with one
seed, and checks what must hold at any scale: the metric names are exactly
``BENCHMARK.json``'s, nothing failed, and every figure that is a count
repeats exactly.  Timings are not asserted -- smoke numbers measure nothing.
"""

import json
import os

import pytest

from bench import compare, run
from bench.harness import SMOKE
from bench.traces import record_nfs, record_synthetic

SEED = 3
CONTRACT = run.load_contract()
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
EXACT_END_TO_END = ("pages_written_per_op", "db_bytes_per_ref", "pages_read_per_query")
EXACT_PER_LAYER = ("lsm.runs_total", "lsm.l0_runs_per_partition",
                   "lsm.candidate_runs_per_query", "bloom.skipped_share",
                   "bloom.false_positive_share", "query.narrow_share",
                   "write_store.pruned_share", "compaction.purged_share",
                   "compaction.write_amp", "blockdev.pages_written",
                   "read_store.pages_per_run", "inheritance.expansion_factor",
                   "masking.masked_share")


@pytest.fixture(scope="module", params=WORKLOADS)
def records(request):
    """Two untraced and two traced smoke runs of one workload."""
    return {traced: [run.run_workload(request.param, SEED, 0.0, SMOKE, traced)
                     for _ in range(2)]
            for traced in (False, True)}


def test_contract_file_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["bench"]
    assert len(WORKLOADS) == 6
    assert len(CONTRACT["end_to_end"]) == 15
    assert all(0 < metric["bound"] <= 0.25 for metric in CONTRACT["end_to_end"])
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names)) and "setup_s" in names
    assert all(len(workload["why"]) <= 200 for workload in CONTRACT["workloads"])


@pytest.mark.parametrize("traced", [False, True])
def test_metric_names_match_and_nothing_failed(records, traced):
    expected = set(run.expected_names(CONTRACT, traced))
    for record in records[traced]:
        assert set(record["metrics"]) == expected
        assert record["failed"] == 0 and record["correct"], record["failures"]
        assert record["attempted"] >= 1 and record["scale"] == "smoke"
        assert all(isinstance(metric["value"], (int, float))
                   for metric in record["metrics"].values())


def test_end_to_end_metrics_are_never_zero(records):
    for record in records[False]:
        zeros = [name for name, metric in record["metrics"].items()
                 if not metric["value"] > 0]
        assert not zeros


@pytest.mark.parametrize("traced,names", [(False, EXACT_END_TO_END),
                                          (True, EXACT_PER_LAYER)])
def test_counts_repeat_exactly(records, traced, names):
    first, second = records[traced]
    for name in names:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_traced_run_writes_spans(records):
    workload = records[True][0]["workload"]
    with open(os.path.join(run.OUT_DIR, f"trace-{workload}.json")) as handle:
        trace = json.load(handle)
    assert trace["workload"] == workload and trace["spans"]
    names = {span[0] for span in trace["spans"]}
    assert {"replay", "flush.cp", "ladder.point", "ladder.cp"} <= names
    # A child span lies inside the span that caused it.
    for name, start, end, parent, _op in trace["spans"]:
        if parent >= 0:
            assert trace["spans"][parent][1] <= start and end <= trace["spans"][parent][2] + 1


def test_seed_changes_the_trace():
    assert record_synthetic(3, 3).events != record_synthetic(4, 3).events
    assert record_synthetic(3, 3).events == record_synthetic(3, 3).events
    assert record_nfs(3, 1).events != record_nfs(4, 1).events


def test_compare_refuses_smoke_results(tmp_path, records):
    path = tmp_path / "smoke.jsonl"
    path.write_text(json.dumps(records[False][0]) + "\n")
    with pytest.raises(SystemExit):
        compare.load_set(str(path))


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", 0.1) == "regressed"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "lower", 0.1) == "improved"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "higher", 0.1) == "improved"
    assert compare.verdict(steady, steady, "lower", 0.1) == "unchanged"
    noisy = [60.0, 100.0, 140.0, 180.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1) == "unresolved"
