"""Cross-process trace stitching: worker telemetry → the parent tracer.

The shard kernels run inside pool workers where the parent's tracer is
invisible (a forked worker inheriting the parent's context variables
must not recurse into the parallel path; see
:mod:`repro.parallel.worker`).  Before this layer, every parallel run
had a blind spot exactly where the time went.  The seam has two halves:

* **worker side** — :func:`snapshot_telemetry` flattens one in-worker
  :class:`~repro.obs.trace.Tracer` (spans, events, and metric deltas
  including the ``kernel.*`` cache counters) into a picklable
  ``repro.worker-telemetry/1`` dict that rides back with the shard's
  result (:func:`~repro.parallel.worker.run_shard`).  The snapshot
  never leaves the process pair, so it is not a file format;

* **parent side** — :func:`stitch_telemetry` grafts the snapshot into
  the parent tracer at harvest time: span ids are remapped onto the
  parent's id sequence, the grafted roots are parented under the
  innermost open span (the backend drivers keep a
  ``parallel.<op>.dispatch`` span open across the dispatch) and
  stamped with ``pid`` / ``shard``, worker events follow their spans,
  and worker metric deltas merge into the parent registry.

Two clocks, one timeline: worker span times are seconds on the
*worker's* monotonic clock relative to the worker tracer's epoch.
Monotonic clocks differ across processes by offset only, so the graft
shifts every worker timestamp by one constant — chosen so the latest
worker span end lands at the parent's harvest instant — and clamps
into the open parent span, preserving the nesting invariants
:func:`repro.obs.export.validate_trace` checks.

Double-count avoidance: ``kernel.*`` counters are process-wide, so a
*thread*-pool worker's cache traffic is
already inside the parent tracer's own baseline delta.  Snapshots
whose ``pid`` matches the stitching process therefore contribute
spans, events and every other counter, but **not** ``kernel.*``
counter merges.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.obs.metrics import histogram_from_snapshot
from repro.obs.trace import SpanRecord, Tracer

__all__ = [
    "WORKER_TELEMETRY_SCHEMA",
    "snapshot_telemetry",
    "stitch_telemetry",
]

#: schema identifier stamped on every worker telemetry snapshot
WORKER_TELEMETRY_SCHEMA = "repro.worker-telemetry/1"

#: the metric prefix whose counters are process-wide (see docstring)
_KERNEL_PREFIX = "kernel."


def snapshot_telemetry(tracer: Tracer) -> dict:
    """Flatten a (deactivated) in-worker tracer into a picklable dict.

    Span attributes must already be picklable — the worker span layer
    only attaches scalars.
    """
    return {
        "schema": WORKER_TELEMETRY_SCHEMA,
        "pid": os.getpid(),
        "spans": [
            (s.span_id, s.parent_id, s.name, s.start, s.end, dict(s.attrs))
            for s in tracer.spans
        ],
        "events": [dict(e) for e in tracer.events],
        "counters": dict(tracer.metrics.counters),
        "histograms": {
            name: h.snapshot() for name, h in tracer.metrics.histograms.items()
        },
        "dropped_spans": tracer.dropped_spans,
    }


def _merge_histogram(metrics, name: str, aggregate: dict) -> None:
    other = histogram_from_snapshot(aggregate)
    mine = metrics.histograms.get(name)
    if mine is None:
        mine = metrics.histograms[name] = other
    else:
        mine.merge(other)


def stitch_telemetry(
    tracer: Optional[Tracer],
    snapshot: Optional[dict],
    *,
    shard: int,
) -> None:
    """Graft one worker snapshot into ``tracer`` (a no-op without one).

    Never raises on a malformed snapshot: stitching is telemetry, and
    telemetry must not be the thing that fails a finished shard.
    """
    if tracer is None or not isinstance(snapshot, dict):
        return
    try:
        _stitch(tracer, snapshot, shard)
    except Exception:  # pragma: no cover - defensive: drop, don't fail
        tracer.metrics.count("parallel.stitch_errors")


def _stitch(tracer: Tracer, snapshot: dict, shard: int) -> None:
    worker_pid = snapshot.get("pid")
    same_process = worker_pid == os.getpid()
    graft_under = tracer._stack[-1] if tracer._stack else None
    graft_parent = graft_under.span_id if graft_under is not None else None
    floor = graft_under.start if graft_under is not None else 0.0

    # one constant shift maps the worker clock onto the parent timeline:
    # the latest worker end lands at the parent's harvest instant
    spans = snapshot.get("spans") or ()
    ends = [s[4] for s in spans if s[4] is not None]
    shift = tracer.now() - (max(ends) if ends else 0.0)

    id_map: Dict[int, int] = {}
    for old_id, old_parent, name, start, end, attrs in spans:
        if len(tracer.spans) >= tracer.max_spans:
            tracer.dropped_spans += 1
            continue
        tracer._next_id += 1
        id_map[old_id] = tracer._next_id
        attrs = dict(attrs)
        if old_parent in id_map:
            parent = id_map[old_parent]
        else:
            # a worker root (or an orphan whose parent was dropped):
            # graft under the dispatch span and stamp provenance
            parent = graft_parent
            attrs.setdefault("pid", worker_pid)
            attrs["shard"] = shard
        start = max(start + shift, floor)
        record = SpanRecord(id_map[old_id], parent, name, start, attrs)
        record.end = max(end + shift, start) if end is not None else start
        tracer.spans.append(record)

    for entry in snapshot.get("events") or ():
        if len(tracer.events) >= tracer.max_spans:
            tracer.dropped_spans += 1
            continue
        tracer.events.append({
            "name": entry.get("name", "?"),
            "time": max(float(entry.get("time", 0.0)) + shift, floor),
            "parent": id_map.get(entry.get("parent"), graft_parent),
            "attrs": dict(entry.get("attrs") or {}),
        })

    for name, value in (snapshot.get("counters") or {}).items():
        if same_process and name.startswith(_KERNEL_PREFIX):
            # process-wide counters: the parent's own baseline delta
            # already covers a same-process worker
            continue
        tracer.metrics.count(name, value)
    for name, aggregate in (snapshot.get("histograms") or {}).items():
        _merge_histogram(tracer.metrics, name, aggregate)

    tracer.dropped_spans += int(snapshot.get("dropped_spans") or 0)
    tracer.metrics.count("parallel.stitched_shards")
    if id_map:
        tracer.metrics.count("parallel.stitched_spans", len(id_map))
