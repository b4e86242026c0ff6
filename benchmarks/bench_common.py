"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one table or figure from the paper's
evaluation section at simulator scale: it runs the corresponding workload,
prints the same series/rows the paper reports, writes their deterministic
columns to ``benchmarks/reports/<experiment>.txt`` (wall-clock columns are
printed only, so a tier-1 run leaves the committed reports untouched), and
asserts the qualitative shape
(who wins, what stays flat, where the crossover is).  Absolute numbers differ
from the paper -- the substrate is a pure-Python simulator, not the authors'
C prototype on 2010 server hardware -- but the shapes are comparable.

Scale note: workload sizes are scaled down from the paper's (which used
32 000 operations per consistency point and multi-day traces) so the whole
suite completes in minutes.  Every module exposes its scale constants at the
top so they can be turned up for a longer, closer-to-paper run.
"""

from __future__ import annotations

import os
import re
from typing import Sequence

from repro import (
    Backlog,
    BacklogConfig,
    FileSystem,
    FileSystemConfig,
    SnapshotManagerAuthority,
)
from repro.fsim.dedup import DedupConfig
from repro.fsim.snapshots import SnapshotPolicy

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


def build_instrumented_system(
    backlog_config: BacklogConfig | None = None,
    dedup: DedupConfig | None = DedupConfig(),
    policy: SnapshotPolicy | None = None,
    listeners_extra=(),
):
    """A (FileSystem, Backlog) pair wired the way the evaluation uses them."""
    backlog = Backlog(config=backlog_config)
    fs = FileSystem(
        FileSystemConfig(
            ops_per_cp=10**9,      # workloads take CPs explicitly
            auto_cp=False,
            dedup=dedup,
            snapshot_policy=policy or SnapshotPolicy(),
        ),
        listeners=[backlog, *listeners_extra],
    )
    backlog.set_version_authority(SnapshotManagerAuthority(fs))
    return fs, backlog


def emit_report(name: str, text: str, wall_clock: Sequence[str] = ()) -> None:
    """Print a report section and persist it under benchmarks/reports/.

    ``wall_clock`` names the columns of a ``format_table`` / ``format_series``
    table that hold timings.  They are printed with the rest of the table
    but left out of the committed file, so that file changes only when
    behaviour -- I/O counts, sizes, shapes -- does.
    """
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_without_columns(text, wall_clock) + "\n")
    print("\n" + text)


def _without_columns(text: str, headers: Sequence[str]) -> str:
    """``text`` (title, header row, dash row, rows, optional note) minus the
    named columns; the dash row gives every column's exact span."""
    if not headers:
        return text
    lines = text.split("\n")
    spans = [match.span() for match in re.finditer(r"-+", lines[2])]
    names = [lines[1][start:stop].strip() for start, stop in spans]
    missing = set(headers) - set(names)
    if missing:
        raise ValueError(f"no column named {sorted(missing)} in report {lines[0]!r}")
    keep = [span for span, column in zip(spans, names) if column not in headers]

    def cut(line: str) -> str:
        return "  ".join(line[start:stop].ljust(stop - start)
                         for start, stop in keep).rstrip()

    return "\n".join(line if index == 0 or line.startswith("note: ") else cut(line)
                     for index, line in enumerate(lines))
