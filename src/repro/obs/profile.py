"""EXPLAIN-style cost trees built from a trace.

Turns one :class:`~repro.obs.trace.Tracer` into the per-phase cost
report the ``explain`` CLI subcommand prints:

* the **span tree** — engine runs and their fixpoint rounds, with
  wall-clock per node and round attributes (delta sizes) inline;
  repeated same-name leaf spans under one parent are folded into a
  single ``×N`` line so a 40-round trace stays readable;
* the **relation-algebra table** — per-operator call counts, input and
  output representation sizes, and total seconds, from the metrics
  histograms the algebra records;
* the **QE / fixpoint summary lines** — eliminations performed, rounds
  per engine, per-round delta sizes from the round events;
* the **cost-ledger table** — estimated-vs-actual cardinalities and
  kernel-cache hit rates per operator, when the tracer's
  :class:`~repro.obs.ledger.CostLedger` recorded any calls (``repro
  explain --out`` also exports it as a ``repro.profile/1`` document).

:func:`phase_breakdown` returns the same content as a plain dict —
the machine-readable form ``benchmarks/collect_results.py`` folds into
``BENCH_PROFILES.json`` so benchmark entries carry per-phase
breakdowns, not just wall-clock.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import Metrics
from repro.obs.trace import SpanRecord, Tracer

__all__ = ["phase_breakdown", "render_profile", "render_metrics_summary"]

#: the relation-algebra operators whose in/out sizes the algebra records
OPERATORS = ("join", "complement", "project")


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f} s "
    if seconds >= 0.001:
        return f"{seconds * 1000:8.3f} ms"
    return f"{seconds * 1e6:8.1f} µs"


def _span_label(record: SpanRecord) -> str:
    attrs = {k: v for k, v in record.attrs.items() if k != "error"}
    label = record.name
    if "round" in attrs:
        label += f" #{attrs.pop('round')}"
    if attrs:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        label += f" [{inner}]"
    if "error" in record.attrs:
        label += f" !{record.attrs['error']}"
    return label


def _children_index(tracer: Tracer) -> Dict[Optional[int], List[SpanRecord]]:
    index: Dict[Optional[int], List[SpanRecord]] = {}
    for record in tracer.spans:
        index.setdefault(record.parent_id, []).append(record)
    return index


def _render_span(
    record: SpanRecord,
    index: Dict[Optional[int], List[SpanRecord]],
    lines: List[str],
    prefix: str,
    is_last: bool,
) -> None:
    branch = "└─ " if is_last else "├─ "
    lines.append(
        f"{prefix}{branch}{_span_label(record):<46} {_format_seconds(record.duration)}"
    )
    child_prefix = prefix + ("   " if is_last else "│  ")
    children = index.get(record.span_id, [])
    # fold runs of same-name childless leaves (e.g. per-rule fo.evaluate)
    rendered: List[SpanRecord] = []
    folded: Dict[str, List[SpanRecord]] = {}
    for child in children:
        if index.get(child.span_id) or "round" in child.attrs:
            rendered.append(child)
        else:
            folded.setdefault(child.name, []).append(child)
    for name, group in folded.items():
        if len(group) == 1:
            rendered.append(group[0])
        else:
            rendered.append(_fold(name, group))
    rendered.sort(key=lambda s: s.start)
    for i, child in enumerate(rendered):
        _render_span(child, index, lines, child_prefix, i == len(rendered) - 1)


def _fold(name: str, group: List[SpanRecord]) -> SpanRecord:
    total = sum(s.duration for s in group)
    record = SpanRecord(-1, None, f"{name} ×{len(group)}", group[0].start, {})
    record.end = group[0].start + total
    return record


def _operator_rows(metrics: Metrics) -> List[dict]:
    rows = []
    for op in OPERATORS:
        calls = metrics.counter(f"relation.{op}.calls")
        if not calls:
            continue
        tin = metrics.histogram(f"relation.{op}.in_tuples")
        tout = metrics.histogram(f"relation.{op}.out_tuples")
        secs = metrics.histogram(f"relation.{op}.seconds")
        rows.append(
            {
                "operator": op,
                "calls": calls,
                "in_tuples": int(tin.total) if tin else 0,
                "out_tuples": int(tout.total) if tout else 0,
                "max_out_tuples": int(tout.max) if tout and tout.max else 0,
                "seconds": secs.total if secs else 0.0,
            }
        )
    return rows


def _round_deltas(tracer: Tracer) -> Dict[str, List[int]]:
    """Per-engine per-round delta sizes, from the round spans in order."""
    out: Dict[str, List[int]] = {}
    for record in tracer.spans:
        if record.name.endswith(".round") and "delta_tuples" in record.attrs:
            engine = record.name[: -len(".round")]
            out.setdefault(engine, []).append(int(record.attrs["delta_tuples"]))
    return out


def phase_breakdown(tracer: Tracer) -> dict:
    """The per-phase costs as a plain dict (machine-readable profile).

    Keys: ``total_seconds``, ``operators`` (per-operator calls/sizes/
    seconds), ``qe`` (calls + variables eliminated), ``fixpoint``
    (per-engine rounds + delta sizes), ``counters`` (everything else).
    """
    metrics = tracer.metrics
    rounds = {
        name[: -len(".rounds")]: value
        for name, value in metrics.counters.items()
        if name.endswith(".rounds") and not name.startswith("guard.")
    }
    return {
        "total_seconds": tracer.total_seconds(),
        "operators": _operator_rows(metrics),
        "qe": {
            "calls": metrics.counter("qe.calls"),
            "eliminated_vars": metrics.counter("qe.eliminated_vars"),
        },
        "fixpoint": {
            "rounds": rounds,
            "deltas": _round_deltas(tracer),
        },
        "counters": dict(sorted(metrics.counters.items())),
    }


def _memory_rows(tracer: Tracer) -> List[dict]:
    """Per-span-name memory aggregates when the run traced with
    ``--memory`` (empty otherwise); delegates to
    :func:`repro.obs.memory.memory_summary` over the span attrs."""
    from repro.obs.memory import memory_summary

    return memory_summary(
        {
            "spans": [
                {"name": s.name, "attrs": s.attrs}
                for s in tracer.spans
            ]
        }
    )


def render_profile(tracer: Tracer, guard=None) -> str:
    """The full EXPLAIN-style report: span tree + per-phase tables."""
    lines: List[str] = []
    roots = tracer.root_spans()
    total = sum(s.duration for s in roots)
    lines.append(f"evaluation profile  (total {_format_seconds(total).strip()})")
    index = _children_index(tracer)
    for i, root in enumerate(roots):
        _render_span(root, index, lines, "", i == len(roots) - 1)
    if tracer.dropped_spans:
        lines.append(f"  … {tracer.dropped_spans} span(s) dropped (max_spans cap)")

    metrics = tracer.metrics
    rows = _operator_rows(metrics)
    if rows:
        lines.append("")
        lines.append("relation algebra")
        lines.append(
            f"  {'operator':<12} {'calls':>6} {'tuples in':>10} "
            f"{'tuples out':>10} {'max out':>8} {'seconds':>10}"
        )
        for row in rows:
            lines.append(
                f"  {row['operator']:<12} {row['calls']:>6} {row['in_tuples']:>10} "
                f"{row['out_tuples']:>10} {row['max_out_tuples']:>8} "
                f"{row['seconds']:>10.4f}"
            )
    qe_calls = metrics.counter("qe.calls")
    eliminated = metrics.counter("qe.eliminated_vars")
    if qe_calls or eliminated:
        lines.append("")
        lines.append(
            f"quantifier elimination: {qe_calls} call(s), "
            f"{eliminated} variable(s) eliminated"
        )
    deltas = _round_deltas(tracer)
    round_counters = {
        name[: -len(".rounds")]: value
        for name, value in metrics.counters.items()
        if name.endswith(".rounds") and not name.startswith("guard.")
    }
    if round_counters:
        lines.append("")
        lines.append("fixpoint")
        for engine in sorted(round_counters):
            sizes = deltas.get(engine)
            suffix = f", delta sizes {sizes}" if sizes else ""
            lines.append(f"  {engine}: {round_counters[engine]} round(s){suffix}")
    quantile_rows = [
        (name, metrics.histograms[name])
        for name in sorted(metrics.histograms)
        if name.endswith(".seconds") and metrics.histograms[name].count
    ]
    if quantile_rows:
        lines.append("")
        lines.append("latency quantiles")
        width = max(len(name) for name, _ in quantile_rows)
        for name, h in quantile_rows:
            lines.append(
                f"  {name.ljust(width)}  p50={h.quantile(0.5):.6f} "
                f"p95={h.quantile(0.95):.6f} p99={h.quantile(0.99):.6f} "
                f"(n={h.count})"
            )
    memory_rows = _memory_rows(tracer)
    if memory_rows:
        lines.append("")
        lines.append("memory attribution")
        width = max(len(r["name"]) for r in memory_rows)
        width = max(width, len("span"))
        lines.append(
            f"  {'span'.ljust(width)} {'calls':>6} {'alloc blocks':>13} "
            f"{'alloc bytes':>12} {'peak bytes':>11}"
        )
        for row in memory_rows:
            alloc_bytes = (
                f"{row['alloc_bytes']:>12}" if row["alloc_bytes"]
                else f"{'—':>12}"
            )
            lines.append(
                f"  {row['name'].ljust(width)} {row['calls']:>6} "
                f"{row['alloc_blocks']:>13} {alloc_bytes} "
                f"{row['peak_bytes']:>11}"
            )
    hits = metrics.counter("kernel.cache.hits")
    misses = metrics.counter("kernel.cache.misses")
    memo_hits = metrics.counter("kernel.memo.hits")
    memo_misses = metrics.counter("kernel.memo.misses")
    # a run the operation memo served entirely makes no cache lookup,
    # and its line must not vanish for that
    if hits or misses or memo_hits or memo_misses:
        rate = 100.0 * hits / (hits + misses) if hits or misses else 0.0
        reused = metrics.counter("kernel.intern.reused")
        lines.append("")
        lines.append(
            f"kernel cache: {hits} hit(s), {misses} miss(es) "
            f"({rate:.1f}% hit rate), {reused} interned tuple reuse(s), "
            f"memo {memo_hits} hit(s) / {memo_misses} miss(es)"
        )
    if not tracer.ledger.is_empty():
        from repro.obs.ledger import render_cost_ledger

        lines.append("")
        lines.append(render_cost_ledger(tracer.ledger))
    if guard is not None:
        from repro.obs.export import guard_stats_table

        lines.append("")
        lines.append(guard_stats_table(guard.stats()))
    return "\n".join(lines)


def render_metrics_summary(metrics: Metrics) -> str:
    """A compact one-counter-per-line summary (the ``-v`` CLI surface)."""
    if metrics.is_empty():
        return "metrics: (none recorded)"
    lines = ["metrics:"]
    width = max(len(name) for name in metrics.counters) if metrics.counters else 0
    for name in sorted(metrics.counters):
        lines.append(f"  {name.ljust(width)}  {metrics.counters[name]}")
    for name in sorted(metrics.histograms):
        h = metrics.histograms[name]
        lines.append(
            f"  {name}: n={h.count} total={h.total:g} mean={h.mean:g} "
            f"min={h.min:g} max={h.max:g}"
        )
        if h.count:
            lines.append(
                f"  {name}: p50={h.quantile(0.5):g} "
                f"p95={h.quantile(0.95):g} p99={h.quantile(0.99):g}"
            )
    return "\n".join(lines)
