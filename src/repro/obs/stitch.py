"""Cross-process trace stitching: worker telemetry → the parent tracer.

The shard kernels run inside pool workers where the parent's tracer is
invisible (a forked worker inheriting the parent's context variables
must not recurse into the parallel path; see
:mod:`repro.parallel.worker`).  Before this layer, every parallel run
had a blind spot exactly where the time went.  The seam has two halves:

* **worker side** — :func:`snapshot_telemetry` flattens one in-worker
  :class:`~repro.obs.trace.Tracer` (spans, events, metric deltas
  including the ``kernel.*`` cache counters, and the ``repro.log/1``
  records a :class:`~repro.obs.sink.CollectingSink` captured) into a
  picklable ``repro.worker-telemetry/1`` dict that rides back in the
  shard's :class:`~repro.parallel.worker.ShardEnvelope`;

* **parent side** — :func:`stitch_telemetry` grafts the snapshot into
  the parent tracer at harvest time: span ids are remapped onto the
  parent's id sequence, the grafted roots are parented under the
  innermost open span (the backend drivers keep a
  ``parallel.<op>.dispatch`` span open across the dispatch) and
  stamped with ``pid`` / ``shard`` / ``attempt`` (plus
  ``quarantined`` when the resilience layer re-ran the shard
  in-process), worker metric deltas merge into the parent registry,
  and worker log records replay through the parent's sinks and the
  flight recorder with the parent's trace id.

Two clocks, one timeline: worker span times are seconds on the
*worker's* monotonic clock relative to the worker tracer's epoch.
Monotonic clocks differ across processes by offset only, so the graft
shifts every worker timestamp by one constant — chosen so the latest
worker span end lands at the parent's harvest instant — and clamps
into the open parent span, preserving the nesting invariants
:func:`repro.obs.export.validate_trace` checks.

Double-count avoidance: ``kernel.*`` counters are process-wide, so a
*thread*-pool worker's (or a quarantined re-run's) cache traffic is
already inside the parent tracer's own baseline delta.  Snapshots
whose ``pid`` matches the stitching process therefore contribute
spans, events, and log-sink replay, but **not** ``kernel.*`` counter
merges or flight-recorder re-records (the worker tracer already hit
the process-global ring).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.obs.flightrec import record as _flight_record
from repro.obs.metrics import histogram_from_snapshot
from repro.obs.sink import level_number
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


def snapshot_telemetry(tracer: Tracer, logs: List[dict]) -> dict:
    """Flatten a (deactivated) in-worker tracer into a picklable dict.

    ``logs`` is the record list of the :class:`CollectingSink` that was
    attached for the shard (the tracer itself holds live sink objects
    and is not picklable).  Span attributes must already be picklable —
    the worker span layer only attaches scalars.
    """
    return {
        "schema": WORKER_TELEMETRY_SCHEMA,
        "pid": os.getpid(),
        "trace": tracer.trace_id,
        "spans": [
            (s.span_id, s.parent_id, s.name, s.start, s.end, dict(s.attrs))
            for s in tracer.spans
        ],
        "events": [dict(e) for e in tracer.events],
        "counters": dict(tracer.metrics.counters),
        "histograms": {
            name: h.snapshot() for name, h in tracer.metrics.histograms.items()
        },
        "logs": list(logs),
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
    attempt: int,
    quarantined: bool = False,
) -> None:
    """Graft one worker snapshot into ``tracer`` (a no-op without one).

    Never raises on a malformed snapshot: stitching is telemetry, and
    telemetry must not be the thing that fails a recovered shard.
    """
    if tracer is None or not isinstance(snapshot, dict):
        return
    try:
        _stitch(tracer, snapshot, shard, attempt, quarantined)
    except Exception:  # pragma: no cover - defensive: drop, don't fail
        tracer.metrics.count("parallel.stitch_errors")


def _stitch(
    tracer: Tracer,
    snapshot: dict,
    shard: int,
    attempt: int,
    quarantined: bool,
) -> None:
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
            attrs["attempt"] = attempt
            if quarantined:
                attrs["quarantined"] = True
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

    for record in snapshot.get("logs") or ():
        rewritten = dict(record)
        rewritten["trace"] = tracer.trace_id
        rewritten["span"] = id_map.get(rewritten.get("span"), graft_parent)
        rewritten["ts"] = max(float(rewritten.get("ts", 0.0)) + shift, floor)
        attrs = dict(rewritten.get("attrs") or {})
        attrs.setdefault("worker_pid", worker_pid)
        attrs.setdefault("shard", shard)
        rewritten["attrs"] = attrs
        if not same_process:
            # a same-process worker tracer already hit the ring live
            _flight_record(rewritten)
        if tracer.sinks:
            severity = level_number(rewritten.get("level", "debug"))
            for sink in tracer.sinks:
                if severity >= level_number(sink.min_level):
                    sink.emit(rewritten)

    tracer.dropped_spans += int(snapshot.get("dropped_spans") or 0)
    tracer.metrics.count("parallel.stitched_shards")
    if id_map:
        tracer.metrics.count("parallel.stitched_spans", len(id_map))
