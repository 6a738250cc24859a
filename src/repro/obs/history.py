"""Benchmark history: append-only runs and the regression watch.

``benchmarks/BENCH_*.json`` snapshots overwrite each other, so the
benchmark *trajectory* across PRs was invisible — a 2x slowdown that
lands between two snapshot regenerations is never seen.  This module
gives the repo an append-only record:

* :func:`append_history` appends one ``repro.bench-history/1`` record
  (provenance-stamped: git commit, python, platform, timestamp) per
  ``collect_results.py`` run to ``benchmarks/BENCH_HISTORY.jsonl``;
* :func:`compare_latest` — the engine behind ``repro bench-watch`` —
  compares the newest record's metrics against a trailing baseline
  (the median of the previous ``window`` records, per metric) and
  flags any metric slower than ``threshold`` times its baseline.

One record::

    {
      "schema": "repro.bench-history/1",
      "created_unix": 1699...,
      "provenance": {"git": "996273f", "python": "3.12.1",
                     "platform": "Linux-...", "argv": "..."},
      "metrics": {"datalog-naive-tc.seconds": 0.41, ...}
    }

Metrics are "lower is better" seconds; the comparison is deliberately
unitless so counter-style metrics work too.  The median baseline makes
one noisy historical run harmless; the window keeps a slow drift from
poisoning the baseline forever.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional

from repro.errors import EncodingError
from repro.files import read_text

__all__ = [
    "HISTORY_SCHEMA",
    "provenance",
    "append_history",
    "load_history",
    "validate_history_record",
    "compare_latest",
    "render_watch_report",
]

#: schema identifier stamped on every bench-history record
HISTORY_SCHEMA = "repro.bench-history/1"


def provenance() -> dict:
    """Who/where/when produced this record (best effort; never raises)."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git = None
    return {
        "git": git,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": " ".join(sys.argv),
    }


def append_history(
    path: str,
    metrics: Dict[str, float],
    *,
    stamp: Optional[dict] = None,
) -> dict:
    """Append one provenance-stamped record to the JSONL file at
    ``path`` (created if missing); returns the record."""
    record = {
        "schema": HISTORY_SCHEMA,
        "created_unix": time.time(),
        "provenance": stamp if stamp is not None else provenance(),
        "metrics": {str(k): float(v) for k, v in metrics.items()},
    }
    validate_history_record(record)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True))
        handle.write("\n")
    return record


def _fail(message: str) -> None:
    raise EncodingError(f"invalid bench-history record: {message}")


def validate_history_record(record) -> dict:
    """Check one record's invariants; returns the record."""
    if not isinstance(record, dict):
        _fail("not an object")
    if record.get("schema") != HISTORY_SCHEMA:
        _fail(
            f"schema is {record.get('schema')!r}, expected {HISTORY_SCHEMA!r}"
        )
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        _fail("metrics must be an object")
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            _fail(f"metric {name!r} is not a number")
        if value < 0:
            _fail(f"metric {name!r} is negative")
    if "created_unix" not in record or "provenance" not in record:
        _fail("missing created_unix/provenance")
    return record


def load_history(path: str) -> List[dict]:
    """Read and validate every record in a JSONL history file."""
    records: List[dict] = []
    lines = read_text(path, "bench history").split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise EncodingError(
                f"bench history {path!r} line {lineno} is not JSON: {error}"
            ) from None
        records.append(validate_history_record(record))
    return records


def compare_latest(
    records: List[dict],
    *,
    threshold: float = 1.5,
    window: int = 5,
) -> dict:
    """Compare the newest record against the trailing baseline.

    Per metric in the latest record, the baseline is the median of the
    same metric over the previous up-to-``window`` records that carry
    it; the metric *regressed* when ``latest > threshold * baseline``.
    Metrics with no prior observations are reported but never flagged
    (a freshly added benchmark must not fail the watch).

    Returns ``{"status", "threshold", "window", "baseline_runs",
    "rows"}`` with status ``"ok"``, ``"regression"``, or
    ``"insufficient-history"`` (fewer than two records).
    """
    if len(records) < 2:
        return {
            "status": "insufficient-history",
            "threshold": threshold,
            "window": window,
            "baseline_runs": max(0, len(records) - 1),
            "rows": [],
        }
    latest = records[-1]
    trailing = records[-(window + 1):-1]
    rows = []
    regressed_any = False
    for name in sorted(latest["metrics"]):
        value = latest["metrics"][name]
        prior = [r["metrics"][name] for r in trailing if name in r["metrics"]]
        if not prior:
            rows.append(
                {"metric": name, "latest": value, "baseline": None,
                 "ratio": None, "regressed": False}
            )
            continue
        baseline = median(prior)
        ratio = value / baseline if baseline > 0 else float("inf")
        regressed = ratio > threshold
        regressed_any = regressed_any or regressed
        rows.append(
            {"metric": name, "latest": value, "baseline": baseline,
             "ratio": ratio, "regressed": regressed}
        )
    return {
        "status": "regression" if regressed_any else "ok",
        "threshold": threshold,
        "window": window,
        "baseline_runs": len(trailing),
        "rows": rows,
    }


def render_watch_report(report: dict) -> str:
    """The :func:`compare_latest` report as aligned text (the
    ``bench-watch`` CLI surface)."""
    if report["status"] == "insufficient-history":
        return (
            "bench-watch: insufficient history "
            f"({report['baseline_runs'] + 1} record(s); need at least 2)"
        )
    lines = [
        f"bench-watch: latest run vs median of previous "
        f"{report['baseline_runs']} run(s), threshold {report['threshold']:g}x"
    ]
    width = max((len(r["metric"]) for r in report["rows"]), default=6)
    width = max(width, len("metric"))
    lines.append(
        f"  {'metric'.ljust(width)} {'latest':>10} {'baseline':>10} "
        f"{'ratio':>7}  verdict"
    )
    for row in report["rows"]:
        if row["baseline"] is None:
            lines.append(
                f"  {row['metric'].ljust(width)} {row['latest']:>10.4f} "
                f"{'(new)':>10} {'-':>7}  ok"
            )
            continue
        verdict = "REGRESSED" if row["regressed"] else "ok"
        lines.append(
            f"  {row['metric'].ljust(width)} {row['latest']:>10.4f} "
            f"{row['baseline']:>10.4f} {row['ratio']:>6.2f}x  {verdict}"
        )
    lines.append(f"status: {report['status']}")
    return "\n".join(lines)
