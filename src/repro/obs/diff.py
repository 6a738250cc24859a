"""Trace diffing: attribute a latency delta to named operators.

Two runs of the same workload took different times;
:func:`diff_traces` tells you *where*.  It compares two
``repro.trace/1`` documents of the same (or comparable) workload by
joining their per-span-name aggregates — calls, total seconds, *self*
seconds (the exclusive time that actually locates a bottleneck; a
parent that merely awaits children diffs near zero) — and emits a
``repro.trace-diff/1`` document whose rows are sorted by absolute
self-time delta, so the operator responsible for the regression is the
first line of the report.

Phase rows (the leading dotted component of the span name) ride along
for the coarse view, and counter deltas for the ``kernel.*`` /
``parallel.*`` metrics both traces snapshot explain *why* an operator
moved (cache hit-rate collapse, shard retries, ...).

The document shape follows the repo's export conventions
(:mod:`repro.obs.export`): a ``schema`` stamp, plain JSON-safe values,
a ``validate_trace_diff`` structural checker that raises
:class:`~repro.errors.EncodingError`, and a writer/loader pair.
:func:`render_trace_diff` is the aligned-text table the ``repro trace
diff`` CLI prints.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import EncodingError
from repro.files import read_json
from repro.obs.analyze import operator_hotspots, phase_totals

__all__ = [
    "TRACE_DIFF_SCHEMA",
    "diff_traces",
    "validate_trace_diff",
    "write_trace_diff",
    "load_trace_diff",
    "render_trace_diff",
]

#: schema identifier stamped on every trace-diff document
TRACE_DIFF_SCHEMA = "repro.trace-diff/1"


def _total_seconds(document: dict) -> float:
    return sum(
        s["end"] - s["start"]
        for s in document.get("spans", ())
        if s.get("end") is not None and s.get("parent") is None
    )


def _join_rows(
    before: List[dict], after: List[dict], key: str
) -> List[dict]:
    """Full outer join of aggregate rows on ``key``; absent sides read
    as zero so appearing/disappearing operators diff cleanly."""
    names = {row[key] for row in before} | {row[key] for row in after}
    b_index = {row[key]: row for row in before}
    a_index = {row[key]: row for row in after}
    empty = {"calls": 0, "spans": 0, "seconds": 0.0, "self_seconds": 0.0}
    rows = []
    for name in names:
        b = b_index.get(name, empty)
        a = a_index.get(name, empty)
        rows.append(
            {
                key: name,
                "before_calls": b.get("calls", b.get("spans", 0)),
                "after_calls": a.get("calls", a.get("spans", 0)),
                "before_seconds": b.get("seconds", b["self_seconds"]),
                "after_seconds": a.get("seconds", a["self_seconds"]),
                "before_self_seconds": b["self_seconds"],
                "after_self_seconds": a["self_seconds"],
                "delta_self_seconds": a["self_seconds"] - b["self_seconds"],
            }
        )
    rows.sort(key=lambda r: (-abs(r["delta_self_seconds"]), r[key]))
    return rows


def _counter_deltas(before: dict, after: dict) -> Dict[str, int]:
    b = (before.get("metrics") or {}).get("counters") or {}
    a = (after.get("metrics") or {}).get("counters") or {}
    deltas = {}
    for name in set(b) | set(a):
        delta = a.get(name, 0) - b.get(name, 0)
        if delta:
            deltas[name] = delta
    return dict(sorted(deltas.items()))


def diff_traces(
    before: dict,
    after: dict,
    *,
    label_before: str = "before",
    label_after: str = "after",
) -> dict:
    """Diff two ``repro.trace/1`` documents into a
    ``repro.trace-diff/1`` document.

    Keys: ``schema``; ``labels``; ``total`` (before/after/delta wall
    seconds over root spans); ``operators`` — one row per span name in
    either trace, with before/after calls, total seconds, self
    seconds, and ``delta_self_seconds``, sorted by absolute self-time
    delta (the attribution the acceptance criteria ask for);
    ``phases`` — the same join at phase granularity; ``counters`` —
    nonzero metric counter deltas.
    """
    total_before = _total_seconds(before)
    total_after = _total_seconds(after)
    return {
        "schema": TRACE_DIFF_SCHEMA,
        "labels": {"before": label_before, "after": label_after},
        "total": {
            "before_seconds": total_before,
            "after_seconds": total_after,
            "delta_seconds": total_after - total_before,
        },
        "operators": _join_rows(
            operator_hotspots(before), operator_hotspots(after), "name"
        ),
        "phases": _join_rows(
            phase_totals(before), phase_totals(after), "phase"
        ),
        "counters": _counter_deltas(before, after),
    }


def _fail(reason: str) -> None:
    raise EncodingError(f"invalid trace-diff document: {reason}")


def _is_number(value) -> bool:
    """A JSON number: ``true``/``false`` are ``int`` in Python, not here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_trace_diff(document: dict) -> dict:
    """Structurally validate a trace-diff document; returns it."""
    if not isinstance(document, dict):
        _fail("not an object")
    if document.get("schema") != TRACE_DIFF_SCHEMA:
        _fail(f"bad schema {document.get('schema')!r}")
    labels = document.get("labels")
    if not isinstance(labels, dict):
        _fail("missing labels")
    for key in ("before", "after"):
        if not isinstance(labels.get(key), str):
            _fail(f"labels.{key} is {labels.get(key)!r}")
    total = document.get("total")
    if not isinstance(total, dict):
        _fail("missing total")
    for key in ("before_seconds", "after_seconds", "delta_seconds"):
        if not _is_number(total.get(key)):
            _fail(f"total.{key} is {total.get(key)!r}")
    for section, key in (("operators", "name"), ("phases", "phase")):
        rows = document.get(section)
        if not isinstance(rows, list):
            _fail(f"missing {section}")
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or not isinstance(
                row.get(key), str
            ):
                _fail(f"{section}[{i}] has no {key}")
            for field in (
                "before_self_seconds",
                "after_self_seconds",
                "delta_self_seconds",
            ):
                if not _is_number(row.get(field)):
                    _fail(f"{section}[{i}].{field} is {row.get(field)!r}")
    counters = document.get("counters")
    if not isinstance(counters, dict):
        _fail("missing counters")
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool):
            _fail(f"counter {name!r} is {value!r}")
    return document


def write_trace_diff(path: str, document: dict) -> str:
    """Validate and write a trace-diff document to ``path``."""
    payload = json.dumps(
        validate_trace_diff(document), indent=2, sort_keys=True
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.write("\n")
    return path


def load_trace_diff(path: str) -> dict:
    """Read and validate a trace-diff document from ``path``."""
    return validate_trace_diff(read_json(path, "trace-diff file"))


def _fmt(seconds: float) -> str:
    if abs(seconds) >= 1.0:
        return f"{seconds:+9.3f} s "
    if abs(seconds) >= 0.001:
        return f"{seconds * 1000:+9.3f} ms"
    return f"{seconds * 1e6:+9.1f} µs"


def _fmt_abs(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f} s "
    if seconds >= 0.001:
        return f"{seconds * 1000:8.3f} ms"
    return f"{seconds * 1e6:8.1f} µs"


def render_trace_diff(
    document: dict, *, max_rows: int = 15, max_counters: int = 12
) -> str:
    """The trace-diff as an aligned-text table, biggest mover first."""
    labels = document["labels"]
    total = document["total"]
    delta = total["delta_seconds"]
    pct = (
        100.0 * delta / total["before_seconds"]
        if total["before_seconds"]
        else 0.0
    )
    lines = [
        f"trace diff: {labels['before']} → {labels['after']}",
        f"  total {_fmt_abs(total['before_seconds'])} → "
        f"{_fmt_abs(total['after_seconds'])}  ({_fmt(delta).strip()}, "
        f"{pct:+.1f}%)",
    ]
    rows = [
        r for r in document["operators"] if r["delta_self_seconds"] != 0.0
    ]
    if rows:
        lines.append("")
        lines.append("operators by self-time delta:")
        width = max(len(r["name"]) for r in rows[:max_rows])
        width = max(width, len("span"))
        lines.append(
            f"  {'span'.ljust(width)} {'calls':>11} {'self before':>12} "
            f"{'self after':>12} {'delta':>12}"
        )
        for row in rows[:max_rows]:
            calls = f"{row['before_calls']}→{row['after_calls']}"
            lines.append(
                f"  {row['name'].ljust(width)} {calls:>11} "
                f"{_fmt_abs(row['before_self_seconds'])} "
                f"{_fmt_abs(row['after_self_seconds'])} "
                f"{_fmt(row['delta_self_seconds'])}"
            )
        if len(rows) > max_rows:
            lines.append(f"  … {len(rows) - max_rows} more operator(s)")
    phases = [
        r for r in document["phases"] if r["delta_self_seconds"] != 0.0
    ]
    if phases:
        lines.append("")
        lines.append("phases:")
        width = max(len(r["phase"]) for r in phases)
        for row in phases:
            lines.append(
                f"  {row['phase'].ljust(width)} "
                f"{_fmt_abs(row['before_self_seconds'])} → "
                f"{_fmt_abs(row['after_self_seconds'])}  "
                f"({_fmt(row['delta_self_seconds']).strip()})"
            )
    counters = document["counters"]
    if counters:
        lines.append("")
        lines.append("counter deltas:")
        shown = list(counters.items())[:max_counters]
        width = max(len(name) for name, _ in shown)
        for name, value in shown:
            lines.append(f"  {name.ljust(width)} {value:+d}")
        if len(counters) > max_counters:
            lines.append(f"  … {len(counters) - max_counters} more counter(s)")
    return "\n".join(lines)
