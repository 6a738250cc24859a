"""Trace analysis: critical paths, bottlenecks and the run report.

The obs layer *captures* where the time went (``repro.trace/1``
documents, stitched across processes); this module *answers* the
question.  Everything here consumes the plain exported document — not
a live :class:`~repro.obs.trace.Tracer` — so analyses run offline, on
traces from other machines, and inside the ``repro trace`` CLI family
without re-executing anything.

* :func:`critical_path` — the chain of spans that determined the
  trace's wall time.  On a stitched parallel trace the worker spans
  participate: when the latest work under a dispatch span happened
  inside a pool worker, the path descends into that worker's grafted
  spans, so "the query was slow because shard 3's join kernel was
  slow" falls out of the walk.

* :func:`analyze_trace` — the timeline analysis: the critical path,
  per-span-name operator aggregates (calls, total, *self* seconds —
  duration minus child durations, the time a span spent in its own
  code), and per-phase aggregates (the leading dotted component of the
  span name: ``fo``, ``seminaive``, ``relation``, ``parallel``,
  ``worker``, ...).

* :func:`relation_algebra`, :func:`qe_totals` and
  :func:`fixpoint_rounds` — what the engines' metrics and round spans
  record: per-operator calls and tuple flows, quantifier eliminations,
  and rounds with their delta sizes.

* :func:`render_report` — the one report of a run.  ``repro explain``
  prints it of the document it builds (and writes for ``--trace``),
  ``repro trace analyze`` of a saved one: the same document gives the
  same bytes.  It reads no dict in insertion order, because
  :func:`~repro.obs.export.write_trace` sorts keys.

Critical-path algorithm (the standard one for span trees): walk
backwards from a span's end; repeatedly take the *latest-ending* child
that closed before the cursor, attribute the uncovered gap to the
current span, recurse into that child, and continue from the child's
start.  Gaps are the span's own (self) contribution; the segment
seconds therefore partition the root's duration exactly — the
reconciliation invariant ``sum(segment.seconds) == root.duration``
(within float error) that ``tests/obs/test_analyze.py`` pins.
Overlapping siblings (parallel workers) are handled naturally: the
cursor jumps to the chosen child's start, skipping siblings whose work
was hidden under it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.memory import memory_summary

__all__ = [
    "critical_path",
    "span_self_seconds",
    "operator_hotspots",
    "phase_totals",
    "analyze_trace",
    "relation_algebra",
    "qe_totals",
    "fixpoint_rounds",
    "render_report",
]

#: the relation-algebra operators whose in/out sizes the algebra records
OPERATORS = ("join", "project", "complement", "absorb")

#: the span attrs a critical-path segment shows next to its name
_MARKS = ("pid", "shard", "error")


def _closed_spans(document: dict) -> List[dict]:
    """The document's closed spans (open spans carry no duration and
    cannot sit on a timed path)."""
    return [s for s in document.get("spans", ()) if s.get("end") is not None]


def _children_index(spans: List[dict]) -> Dict[Optional[int], List[dict]]:
    index: Dict[Optional[int], List[dict]] = {}
    for span in spans:
        index.setdefault(span["parent"], []).append(span)
    return index


def _descend(span: dict, index, segments: List[dict], depth: int) -> None:
    """Attribute ``span``'s interval to the critical chain below it."""
    children = sorted(
        index.get(span["id"], ()), key=lambda s: s["end"], reverse=True
    )
    cursor = span["end"]
    chosen: List[dict] = []
    for child in children:
        # the latest-ending child that closed before the cursor is the
        # one that determined the wall clock at that instant; children
        # overlapping it (parallel siblings) were hidden under it
        if child["end"] <= cursor and child["end"] > child["start"]:
            chosen.append(child)
            cursor = child["start"]
            if cursor <= span["start"]:
                break
    # chosen is in reverse time order; the gaps between consecutive
    # chosen children (and before the first / after the last) are the
    # span's own contribution
    gap_total = span["end"] - span["start"]
    for child in chosen:
        gap_total -= min(child["end"], span["end"]) - max(
            child["start"], span["start"]
        )
    segments.append(
        {
            "span": span["id"],
            "name": span["name"],
            "depth": depth,
            "start": span["start"],
            "end": span["end"],
            "seconds": max(gap_total, 0.0),
            "attrs": dict(span.get("attrs") or {}),
        }
    )
    for child in reversed(chosen):  # chronological order
        _descend(child, index, segments, depth + 1)


def critical_path(document: dict) -> List[dict]:
    """The spans that determined the trace's wall time, in tree order.

    Returns one segment dict per span on the path: ``span`` (id),
    ``name``, ``depth``, ``start``/``end`` (the span's own interval),
    ``seconds`` (the *exclusive* share of wall time attributed to the
    span — its duration minus the path-children intervals inside it),
    and ``attrs``.  Segment seconds over all entries sum to the total
    duration of the root spans, so the path is an exact decomposition
    of the wall time, not a sampling.
    """
    spans = _closed_spans(document)
    if not spans:
        return []
    index = _children_index(spans)
    segments: List[dict] = []
    roots = sorted(index.get(None, ()), key=lambda s: s["start"])
    for root in roots:
        _descend(root, index, segments, 0)
    return segments


def span_self_seconds(spans: List[dict]) -> Dict[int, float]:
    """Per-span *self* time: duration minus the summed durations of its
    direct children, clamped at zero (overlapping worker children can
    sum past the parent)."""
    child_total: Dict[Optional[int], float] = {}
    for span in spans:
        child_total[span["parent"]] = child_total.get(span["parent"], 0.0) + (
            span["end"] - span["start"]
        )
    return {
        span["id"]: max(
            span["end"] - span["start"] - child_total.get(span["id"], 0.0), 0.0
        )
        for span in spans
    }


def operator_hotspots(document: dict) -> List[dict]:
    """Per-span-name aggregates, hottest self-time first.

    One row per distinct span name: ``name``, ``calls``, ``seconds``
    (summed durations), ``self_seconds`` (summed exclusive time — the
    honest bottleneck metric: a parent that merely waits on children
    aggregates near zero), ``max_seconds`` (slowest single call).
    """
    spans = _closed_spans(document)
    self_seconds = span_self_seconds(spans)
    rows: Dict[str, dict] = {}
    for span in spans:
        row = rows.get(span["name"])
        if row is None:
            row = rows[span["name"]] = {
                "name": span["name"], "calls": 0, "seconds": 0.0,
                "self_seconds": 0.0, "max_seconds": 0.0,
            }
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["seconds"] += duration
        row["self_seconds"] += self_seconds[span["id"]]
        row["max_seconds"] = max(row["max_seconds"], duration)
    return sorted(
        rows.values(), key=lambda r: (-r["self_seconds"], r["name"])
    )


def phase_totals(document: dict) -> List[dict]:
    """Self-time grouped by phase — the leading dotted component of the
    span name (``relation.join`` → ``relation``) — largest first."""
    spans = _closed_spans(document)
    self_seconds = span_self_seconds(spans)
    rows: Dict[str, dict] = {}
    for span in spans:
        phase = span["name"].split(".", 1)[0]
        row = rows.get(phase)
        if row is None:
            row = rows[phase] = {"phase": phase, "spans": 0, "self_seconds": 0.0}
        row["spans"] += 1
        row["self_seconds"] += self_seconds[span["id"]]
    return sorted(rows.values(), key=lambda r: (-r["self_seconds"], r["phase"]))


def analyze_trace(document: dict) -> dict:
    """The full analysis of one ``repro.trace/1`` document.

    Keys: ``total_seconds`` (summed root durations), ``spans`` (closed
    span count), ``open_spans``, ``critical_path`` (see
    :func:`critical_path`, each segment with a ``pct`` share of total),
    ``operators`` (:func:`operator_hotspots`), ``phases``
    (:func:`phase_totals`), ``worker_seconds`` (summed durations of
    stitched ``worker.*`` spans — 0.0 on a serial trace).
    """
    spans = _closed_spans(document)
    roots = [s for s in spans if s["parent"] is None]
    total = sum(s["end"] - s["start"] for s in roots)
    path = critical_path(document)
    for segment in path:
        segment["pct"] = 100.0 * segment["seconds"] / total if total else 0.0
    return {
        "total_seconds": total,
        "spans": len(spans),
        "open_spans": len(document.get("spans", ())) - len(spans),
        "critical_path": path,
        "operators": operator_hotspots(document),
        "phases": phase_totals(document),
        "worker_seconds": sum(
            s["end"] - s["start"]
            for s in spans
            if s["name"].startswith("worker.")
        ),
    }


def _metrics(document: dict):
    """The document's counters and histogram snapshots (empty when a
    hand-built document carries no metrics)."""
    metrics = document.get("metrics") or {}
    return metrics.get("counters") or {}, metrics.get("histograms") or {}


def relation_algebra(document: dict) -> List[dict]:
    """One row per relation-algebra operator that ran, from the
    ``relation.<op>.*`` metrics: ``operator``, ``calls``,
    ``in_tuples``, ``out_tuples``, ``max_out_tuples``, ``seconds``,
    and ``parallel_calls`` (the ``parallel.<op>.calls`` counter: how
    many of the calls sharded on a worker pool)."""
    counters, histograms = _metrics(document)
    rows = []
    for op in OPERATORS:
        calls = counters.get(f"relation.{op}.calls", 0)
        if not calls:
            continue
        tuples_in = histograms.get(f"relation.{op}.in_tuples") or {}
        tuples_out = histograms.get(f"relation.{op}.out_tuples") or {}
        seconds = histograms.get(f"relation.{op}.seconds") or {}
        rows.append(
            {
                "operator": op,
                "calls": calls,
                "in_tuples": int(tuples_in.get("total", 0)),
                "out_tuples": int(tuples_out.get("total", 0)),
                "max_out_tuples": int(tuples_out.get("max") or 0),
                "seconds": seconds.get("total", 0.0),
                "parallel_calls": counters.get(f"parallel.{op}.calls", 0),
            }
        )
    return rows


def qe_totals(document: dict) -> dict:
    """``calls`` (projections that eliminated a column) and
    ``eliminated_vars`` (variables existentially eliminated)."""
    counters, _ = _metrics(document)
    return {
        "calls": counters.get("qe.calls", 0),
        "eliminated_vars": counters.get("qe.eliminated_vars", 0),
    }


def fixpoint_rounds(document: dict) -> dict:
    """``rounds`` per engine (its ``<engine>.rounds`` counter) and the
    per-round ``deltas`` (the ``delta_tuples`` attrs of its
    ``<engine>.round`` spans, in span order)."""
    counters, _ = _metrics(document)
    rounds = {
        name[: -len(".rounds")]: counters[name]
        for name in sorted(counters)
        if name.endswith(".rounds") and not name.startswith("guard.")
    }
    deltas: Dict[str, list] = {}
    for span in document.get("spans", ()):
        attrs = span.get("attrs") or {}
        if span["name"].endswith(".round") and "delta_tuples" in attrs:
            engine = span["name"][: -len(".round")]
            deltas.setdefault(engine, []).append(attrs["delta_tuples"])
    return {"rounds": rounds, "deltas": deltas}


def _fmt(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:9.3f} s "
    if seconds >= 0.001:
        return f"{seconds * 1000:9.3f} ms"
    return f"{seconds * 1e6:9.1f} µs"


def _header(analysis: dict, dropped: int) -> List[str]:
    line = (
        f"trace analysis: {analysis['spans']} span(s), "
        f"total {_fmt(analysis['total_seconds']).strip()}"
    )
    if analysis["open_spans"]:
        line += f", {analysis['open_spans']} never closed"
    if analysis["worker_seconds"]:
        line += f", {_fmt(analysis['worker_seconds']).strip()} inside workers"
    if dropped:
        line += f", {dropped} span(s) dropped (max_spans cap)"
    return [line]


def _path_lines(analysis: dict, max_path: int) -> List[str]:
    path = analysis["critical_path"]
    if not path:
        return []
    total = analysis["total_seconds"]
    lines = [f"critical path ({len(path)} segment(s)):"]
    for segment in path[:max_path]:
        attrs = segment["attrs"]
        marks = [f"{key}={attrs[key]}" for key in _MARKS if key in attrs]
        extras = f" [{', '.join(marks)}]" if marks else ""
        lines.append(
            f"  {_fmt(segment['seconds'])} {segment['pct']:5.1f}%  "
            f"{'  ' * segment['depth']}{segment['name']}{extras}"
        )
    if len(path) > max_path:
        rest = sum(s["seconds"] for s in path[max_path:])
        lines.append(
            f"  {_fmt(rest)} {100.0 * rest / total if total else 0.0:5.1f}%  "
            f"… {len(path) - max_path} more segment(s)"
        )
    return lines


def _hotspot_lines(analysis: dict) -> List[str]:
    operators = analysis["operators"][:15]
    if not operators:
        return []
    width = max(len("span"), *(len(r["name"]) for r in operators))
    lines = [
        "hotspots (self time):",
        f"  {'span'.ljust(width)} {'calls':>6} {'self':>12} "
        f"{'total':>12} {'max call':>12}",
    ]
    for row in operators:
        lines.append(
            f"  {row['name'].ljust(width)} {row['calls']:>6} "
            f"{_fmt(row['self_seconds'])} {_fmt(row['seconds'])} "
            f"{_fmt(row['max_seconds'])}"
        )
    return lines


def _phase_lines(analysis: dict) -> List[str]:
    phases = analysis["phases"]
    if not phases:
        return []
    total = analysis["total_seconds"]
    width = max(len("phase"), *(len(r["phase"]) for r in phases))
    lines = ["phases (self time):"]
    for row in phases:
        share = 100.0 * row["self_seconds"] / total if total else 0.0
        lines.append(
            f"  {row['phase'].ljust(width)} {_fmt(row['self_seconds'])} "
            f"{share:5.1f}%  ({row['spans']} span(s))"
        )
    return lines


def _operator_lines(document: dict) -> List[str]:
    rows = relation_algebra(document)
    if not rows:
        return []
    lines = [
        "relation algebra",
        f"  {'operator':<12} {'calls':>6} {'tuples in':>10} "
        f"{'tuples out':>10} {'max out':>8} {'seconds':>10} {'parallel':>9}",
    ]
    for row in rows:
        parallel = (
            f"{row['parallel_calls']}/{row['calls']}"
            if row["parallel_calls"] else "serial"
        )
        lines.append(
            f"  {row['operator']:<12} {row['calls']:>6} {row['in_tuples']:>10} "
            f"{row['out_tuples']:>10} {row['max_out_tuples']:>8} "
            f"{row['seconds']:>10.4f} {parallel:>9}"
        )
    return lines


def _qe_lines(document: dict) -> List[str]:
    qe = qe_totals(document)
    if not (qe["calls"] or qe["eliminated_vars"]):
        return []
    return [
        f"quantifier elimination: {qe['calls']} call(s), "
        f"{qe['eliminated_vars']} variable(s) eliminated"
    ]


def _fixpoint_lines(document: dict) -> List[str]:
    fixpoint = fixpoint_rounds(document)
    if not fixpoint["rounds"]:
        return []
    lines = ["fixpoint"]
    for engine, rounds in fixpoint["rounds"].items():
        sizes = fixpoint["deltas"].get(engine)
        suffix = f", delta sizes {sizes}" if sizes else ""
        lines.append(f"  {engine}: {rounds} round(s){suffix}")
    return lines


def _quantile_lines(document: dict) -> List[str]:
    """p50/p95/p99 of every ``*.seconds`` histogram with a sample, as
    its snapshot estimated them."""
    _, histograms = _metrics(document)
    keys = ("p50", "p95", "p99")
    rows = [
        (name, histograms[name])
        for name in sorted(histograms)
        if name.endswith(".seconds")
        and all(isinstance(histograms[name].get(k), (int, float)) for k in keys)
    ]
    if not rows:
        return []
    width = max(len(name) for name, _ in rows)
    lines = ["latency quantiles"]
    for name, h in rows:
        lines.append(
            f"  {name.ljust(width)}  p50={h['p50']:.6f} p95={h['p95']:.6f} "
            f"p99={h['p99']:.6f} (n={h['count']})"
        )
    return lines


def _memory_lines(document: dict) -> List[str]:
    rows = memory_summary(document)
    if not rows:
        return []
    width = max(len("span"), *(len(r["name"]) for r in rows))
    lines = [
        "memory attribution",
        f"  {'span'.ljust(width)} {'calls':>6} {'alloc blocks':>13} "
        f"{'alloc bytes':>12} {'peak bytes':>11}",
    ]
    for row in rows:
        alloc_bytes = row["alloc_bytes"] or "—"
        lines.append(
            f"  {row['name'].ljust(width)} {row['calls']:>6} "
            f"{row['alloc_blocks']:>13} {alloc_bytes:>12} "
            f"{row['peak_bytes']:>11}"
        )
    return lines


def _kernel_lines(document: dict) -> List[str]:
    counters, _ = _metrics(document)
    hits = counters.get("kernel.cache.hits", 0)
    misses = counters.get("kernel.cache.misses", 0)
    memo_hits = counters.get("kernel.memo.hits", 0)
    memo_misses = counters.get("kernel.memo.misses", 0)
    # a run the operation memo served entirely makes no cache lookup,
    # and its line must not vanish for that
    if not (hits or misses or memo_hits or memo_misses):
        return []
    rate = 100.0 * hits / (hits + misses) if hits or misses else 0.0
    return [
        f"kernel cache: {hits} hit(s), {misses} miss(es) "
        f"({rate:.1f}% hit rate), "
        f"{counters.get('kernel.intern.reused', 0)} interned tuple reuse(s), "
        f"memo {memo_hits} hit(s) / {memo_misses} miss(es)"
    ]


def _guard_lines(document: dict) -> List[str]:
    stats = document.get("guard")
    if not stats:
        return []
    lines = [
        f"guard stats: elapsed {stats['elapsed']:.4f}s, "
        f"ticks {stats.get('ticks', 0)}, "
        f"tuples {stats.get('tuples_materialized', 0)}, "
        f"rounds {stats.get('rounds_completed', 0)}, "
        f"max depth {stats.get('max_depth_seen', 0)}"
    ]
    sites = stats.get("sites") or {}
    if not sites:
        return lines + ["  (no per-site counters recorded)"]
    width = max(len(name) for name in sites)
    lines.append(f"  {'site'.ljust(width)}  count")
    for name in sorted(sites):
        lines.append(f"  {name.ljust(width)}  {sites[name]}")
    return lines


def render_report(document: dict, *, max_path: int = 40) -> str:
    """The report of one run, from its ``repro.trace/1`` document.

    The timeline first: the critical path (its segments sum to the wall
    time; at most ``max_path`` printed), the self-time hotspots and the
    phases.  Then what the metrics, the guard section and the span
    attrs record: the relation-algebra operator table, the quantifier
    elimination line, fixpoint rounds with their delta sizes, latency
    quantiles, memory attribution (a ``--memory`` run), the kernel
    cache line and the guard table.  A section with nothing to show is
    left out.
    """
    analysis = analyze_trace(document)
    blocks = [
        _header(analysis, document.get("dropped_spans") or 0),
        _path_lines(analysis, max_path),
        _hotspot_lines(analysis),
        _phase_lines(analysis),
        _operator_lines(document),
        _qe_lines(document),
        _fixpoint_lines(document),
        _quantile_lines(document),
        _memory_lines(document),
        _kernel_lines(document),
        _guard_lines(document),
    ]
    return "\n\n".join("\n".join(block) for block in blocks if block)
