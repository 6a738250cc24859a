"""Structured JSON export of traces, and the schema round-trip.

A *trace document* is the serialized form of one
:class:`~repro.obs.trace.Tracer` (plus, optionally, the
:class:`~repro.runtime.guard.EvaluationGuard` stats of the same run):

::

    {
      "schema": "repro.trace/1",
      "spans":   [{"id", "parent", "name", "start", "end", "attrs"}, ...],
      "events":  [{"name", "time", "parent", "attrs"}, ...],
      "metrics": {"counters": {...}, "histograms": {...}},
      "guard":   {...} | null,
      "dropped_spans": 0
    }

``start``/``end`` are seconds on a monotonic clock relative to the
tracer's epoch.  :func:`validate_trace` checks the invariants the
schema promises (field types: integer ids and parents, numeric times,
object attrs; parent references resolve, spans close after they open,
children nest inside their parents), so a document that loads cleanly
can be consumed by downstream tooling
(``benchmarks/collect_results.py`` ingests these into
``BENCH_PROFILES.json``) without defensive code.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.errors import EncodingError
from repro.files import read_json
from repro.obs.trace import Tracer

__all__ = [
    "TRACE_SCHEMA",
    "trace_document",
    "write_trace",
    "load_trace",
    "validate_trace",
    "guard_stats_table",
    "kernel_stats_table",
]

#: schema identifier stamped on every exported document
TRACE_SCHEMA = "repro.trace/1"

_JSON_SCALARS = (str, int, float, bool, type(None))


def _jsonable(value: Any) -> Any:
    """Coerce an attribute value to a JSON-safe scalar (str fallback)."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return value
    return str(value)


def _attrs(attrs: dict) -> dict:
    return {str(k): _jsonable(v) for k, v in attrs.items()}


def trace_document(tracer: Tracer, guard=None) -> dict:
    """The tracer (and optional guard stats) as a plain JSON-safe dict."""
    return {
        "schema": TRACE_SCHEMA,
        "spans": [
            {
                "id": s.span_id,
                "parent": s.parent_id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "attrs": _attrs(s.attrs),
            }
            for s in tracer.spans
        ],
        "events": [
            {
                "name": e["name"],
                "time": e["time"],
                "parent": e["parent"],
                "attrs": _attrs(e["attrs"]),
            }
            for e in tracer.events
        ],
        "metrics": tracer.metrics.snapshot(),
        "guard": guard.stats() if guard is not None else None,
        "dropped_spans": tracer.dropped_spans,
    }


def write_trace(path: str, tracer: Tracer, guard=None) -> dict:
    """Serialize the tracer to ``path`` (validated first); returns the doc."""
    document = validate_trace(trace_document(tracer, guard))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def load_trace(path: str) -> dict:
    """Read and validate a trace document from disk."""
    return validate_trace(read_json(path, "trace file"))


def _fail(message: str) -> None:
    raise EncodingError(f"invalid trace document: {message}")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_trace(document: Any) -> dict:
    """Check the trace-document invariants; returns the document."""
    if not isinstance(document, dict):
        _fail("not an object")
    if document.get("schema") != TRACE_SCHEMA:
        _fail(f"schema is {document.get('schema')!r}, expected {TRACE_SCHEMA!r}")
    spans = document.get("spans")
    events = document.get("events")
    metrics = document.get("metrics")
    if not isinstance(spans, list) or not isinstance(events, list):
        _fail("spans/events must be arrays")
    if not isinstance(metrics, dict) or not all(
        isinstance(metrics.get(key), dict) for key in ("counters", "histograms")
    ):
        _fail("metrics must hold counters and histograms objects")

    by_id: dict = {}
    for entry in spans:
        if not isinstance(entry, dict):
            _fail("span is not an object")
        for key in ("id", "parent", "name", "start", "end", "attrs"):
            if key not in entry:
                _fail(f"span missing key {key!r}")
        if not isinstance(entry["name"], str):
            _fail("span name is not a string")
        if not _is_int(entry["id"]):
            _fail(f"span id {entry['id']!r} is not an integer")
        if not (entry["parent"] is None or _is_int(entry["parent"])):
            _fail(f"span {entry['id']} parent {entry['parent']!r} is not an integer or null")
        if not _is_number(entry["start"]):
            _fail(f"span {entry['id']} start {entry['start']!r} is not a number")
        if not (entry["end"] is None or _is_number(entry["end"])):
            _fail(f"span {entry['id']} end {entry['end']!r} is not a number or null")
        if not isinstance(entry["attrs"], dict):
            _fail(f"span {entry['id']} attrs is not an object")
        if entry["id"] in by_id:
            _fail(f"duplicate span id {entry['id']}")
        by_id[entry["id"]] = entry
    for entry in spans:
        parent = entry["parent"]
        if parent == entry["id"]:
            _fail(f"span {entry['id']} is its own parent")
        if parent is not None and parent not in by_id:
            _fail(f"span {entry['id']} references unknown parent {parent}")
        start, end = entry["start"], entry["end"]
        if end is not None and end < start:
            _fail(f"span {entry['id']} closes before it opens")
        if parent is not None:
            outer = by_id[parent]
            if start < outer["start"]:
                _fail(f"span {entry['id']} starts before its parent")
    # parent chains must reach a root: stitching rewrites parent ids, so
    # a cycle (A under B under A) is a representable corruption, not a
    # can't-happen — walk each chain once with a memo of known-safe ids
    safe: set = set()
    for entry in spans:
        seen: list = []
        node = entry["id"]
        while node is not None and node not in safe:
            if node in seen:
                _fail(f"span parent chain contains a cycle at {node}")
            seen.append(node)
            node = by_id[node]["parent"]
        safe.update(seen)
    for entry in events:
        if not isinstance(entry, dict) or "name" not in entry or "time" not in entry:
            _fail("event missing name/time")
        if not isinstance(entry["name"], str):
            _fail("event name is not a string")
        if not _is_number(entry["time"]):
            _fail(f"event time {entry['time']!r} is not a number")
        if not isinstance(entry.get("attrs", {}), dict):
            _fail("event attrs is not an object")
        parent = entry.get("parent")
        if not (parent is None or _is_int(parent)):
            _fail(f"event parent {parent!r} is not an integer or null")
        if parent is not None and parent not in by_id:
            _fail(f"event references unknown parent {parent}")
    for name, value in metrics["counters"].items():
        if not isinstance(value, int):
            _fail(f"counter {name!r} is not an integer")
    for name, value in metrics["histograms"].items():
        if not isinstance(value, dict) or "count" not in value:
            _fail(f"histogram {name!r} lacks aggregates")
    return document


def guard_stats_table(stats: dict) -> str:
    """The ``EvaluationGuard.stats()`` payload as an aligned text table
    (the ``--stats`` CLI surface; also useful interactively)."""
    lines = [
        "guard stats: "
        f"elapsed {stats['elapsed']:.4f}s, ticks {stats['ticks']}, "
        f"tuples {stats['tuples_materialized']}, "
        f"rounds {stats['rounds_completed']}, "
        f"max depth {stats['max_depth_seen']}"
    ]
    sites = stats.get("sites") or {}
    if sites:
        width = max(len(name) for name in sites)
        lines.append(f"  {'site'.ljust(width)}  count")
        for name in sorted(sites):
            lines.append(f"  {name.ljust(width)}  {sites[name]}")
    else:
        lines.append("  (no per-site counters recorded)")
    return "\n".join(lines)


def kernel_stats_table(stats: dict, merged: Optional[dict] = None) -> str:
    """The :func:`repro.perf.kernel_stats` payload as aligned text
    (printed by ``--stats`` next to the guard table).

    ``stats`` is process-wide (this process, since startup).  ``merged``
    is an optional dict of this run's ``kernel.*`` tracer counters —
    the parent's delta *plus stitched worker deltas* — appended as an
    extra line so a ``--parallel --stats`` run shows the kernel
    activity that actually happened inside the pool, which the
    parent-process counters alone cannot see.
    """
    lookups = stats["cache.hits"] + stats["cache.misses"]
    rate = (100.0 * stats["cache.hits"] / lookups) if lookups else 0.0
    lines = [
        "kernel cache:%s "
        "hits %d, misses %d, hit rate %.1f%%, "
        "entries %d/%d, evictions %d"
        % (
            "" if stats["cache.enabled"] else " (disabled)",
            stats["cache.hits"],
            stats["cache.misses"],
            rate,
            stats["cache.entries"],
            stats["cache.capacity"],
            stats["cache.evictions"],
        ),
        "  interning:%s reused %d, interned %d, live %d"
        % (
            "" if stats["intern.enabled"] else " (disabled)",
            stats["intern.reused"],
            stats["intern.interned"],
            stats["intern.live"],
        ),
    ]
    if merged is not None:
        hits = merged.get("kernel.cache.hits", 0)
        misses = merged.get("kernel.cache.misses", 0)
        run_lookups = hits + misses
        run_rate = (100.0 * hits / run_lookups) if run_lookups else 0.0
        lines.append(
            "  this run (incl. workers): hits %d, misses %d, "
            "hit rate %.1f%%, interned reused %d"
            % (hits, misses, run_rate, merged.get("kernel.intern.reused", 0))
        )
    return "\n".join(lines)
