"""Trace analysis: critical paths and bottleneck aggregation.

The core invariant: the critical path is an *exact decomposition* of
the root spans' wall time — segment seconds sum to the total, so the
report never silently loses time.  The stitched-trace test pins the
headline capability of the toolkit: the path descends through a
``worker.*`` span grafted from another process's tracer.
"""

from __future__ import annotations

import pytest

from repro.core.relation import Relation
from repro.obs import (
    Tracer,
    analyze_trace,
    critical_path,
    operator_hotspots,
    phase_totals,
    render_report,
    span_self_seconds,
    trace_document,
    validate_trace,
)
from repro.parallel import ExecutionContext


def _doc(spans):
    """A minimal repro.trace/1-shaped document from (id, parent, name,
    start, end[, attrs]) tuples."""
    return {
        "spans": [
            {
                "id": s[0],
                "parent": s[1],
                "name": s[2],
                "start": s[3],
                "end": s[4],
                "attrs": s[5] if len(s) > 5 else {},
            }
            for s in spans
        ]
    }


NESTED = _doc([
    (1, None, "query", 0.0, 10.0),
    (2, 1, "fo.evaluate", 1.0, 4.0),
    (3, 1, "relation.join", 5.0, 9.0),
    (4, 3, "qe.eliminate", 6.0, 8.0),
])


class TestCriticalPath:
    def test_segments_sum_exactly_to_root_duration(self):
        path = critical_path(NESTED)
        assert sum(s["seconds"] for s in path) == pytest.approx(10.0)

    def test_path_walks_latest_ending_children(self):
        names = [s["name"] for s in critical_path(NESTED)]
        assert names == ["query", "fo.evaluate", "relation.join", "qe.eliminate"]

    def test_parent_keeps_only_gap_time(self):
        by_name = {s["name"]: s for s in critical_path(NESTED)}
        # query: 10s minus [1,4] and [5,9] = 3s of gaps
        assert by_name["query"]["seconds"] == pytest.approx(3.0)
        # relation.join: 4s minus the 2s child
        assert by_name["relation.join"]["seconds"] == pytest.approx(2.0)
        assert by_name["qe.eliminate"]["depth"] == 2

    def test_open_spans_are_ignored(self):
        doc = _doc([
            (1, None, "query", 0.0, 5.0),
            (2, 1, "crashed", 1.0, None),
        ])
        assert [s["name"] for s in critical_path(doc)] == ["query"]

    def test_empty_document(self):
        assert critical_path({"spans": []}) == []

    def test_multiple_roots_in_chronological_order(self):
        doc = _doc([
            (1, None, "b", 5.0, 7.0),
            (2, None, "a", 0.0, 2.0),
        ])
        assert [s["name"] for s in critical_path(doc)] == ["a", "b"]

    def test_overlapping_parallel_children_do_not_double_count(self):
        # two workers covering [1,9] and [2,8]: the exact-partition
        # invariant must hold even when sibling intervals overlap
        doc = _doc([
            (1, None, "dispatch", 0.0, 10.0),
            (2, 1, "worker.join_shard", 1.0, 9.0),
            (3, 1, "worker.join_shard", 2.0, 8.0),
        ])
        path = critical_path(doc)
        assert sum(s["seconds"] for s in path) == pytest.approx(10.0)


class TestSelfTime:
    def test_self_excludes_direct_children(self):
        self_s = span_self_seconds(NESTED["spans"])
        assert self_s[1] == pytest.approx(3.0)
        assert self_s[3] == pytest.approx(2.0)
        assert self_s[4] == pytest.approx(2.0)

    def test_overlapping_children_clamp_at_zero(self):
        doc = _doc([
            (1, None, "dispatch", 0.0, 4.0),
            (2, 1, "worker.a", 0.0, 3.0),
            (3, 1, "worker.b", 0.0, 3.0),
        ])
        assert span_self_seconds(doc["spans"])[1] == 0.0


class TestAggregates:
    def test_hotspots_sorted_by_self_time(self):
        rows = operator_hotspots(NESTED)
        assert rows[0]["name"] in ("query", "fo.evaluate")
        assert all(
            rows[i]["self_seconds"] >= rows[i + 1]["self_seconds"]
            for i in range(len(rows) - 1)
        )

    def test_hotspot_row_counts_calls(self):
        doc = _doc([
            (1, None, "q", 0.0, 6.0),
            (2, 1, "fo.evaluate", 0.0, 2.0),
            (3, 1, "fo.evaluate", 3.0, 6.0),
        ])
        row = {r["name"]: r for r in operator_hotspots(doc)}["fo.evaluate"]
        assert row["calls"] == 2
        assert row["seconds"] == pytest.approx(5.0)
        assert row["max_seconds"] == pytest.approx(3.0)

    def test_phases_group_by_leading_component(self):
        phases = {r["phase"] for r in phase_totals(NESTED)}
        assert phases == {"query", "fo", "relation", "qe"}

    def test_phase_self_time_sums_to_total(self):
        total = sum(r["self_seconds"] for r in phase_totals(NESTED))
        assert total == pytest.approx(10.0)


class TestAnalyzeTrace:
    def test_reconciliation_within_one_percent(self):
        """The acceptance bar: path totals reconcile with the trace's
        wall time (the decomposition is exact, so this is tight)."""
        analysis = analyze_trace(NESTED)
        path_total = sum(s["seconds"] for s in analysis["critical_path"])
        assert path_total == pytest.approx(analysis["total_seconds"], rel=0.01)

    def test_percentages_sum_to_hundred(self):
        analysis = analyze_trace(NESTED)
        assert sum(s["pct"] for s in analysis["critical_path"]) == pytest.approx(100.0)

    def test_serial_trace_has_zero_worker_seconds(self):
        assert analyze_trace(NESTED)["worker_seconds"] == 0.0

    def test_render_mentions_path_and_hotspots(self):
        text = render_report(NESTED)
        assert "critical path" in text
        assert "hotspots" in text
        assert "relation.join" in text

    def test_render_truncates_long_paths(self):
        spans = [(1, None, "root", 0.0, 100.0)]
        for i in range(2, 60):
            spans.append((i, 1, f"step.{i}", float(i), float(i) + 0.5))
        text = render_report(_doc(spans), max_path=5)
        assert "more segment(s)" in text


class TestStitchedTrace:
    def test_critical_path_crosses_a_worker_span(self):
        """End to end on a real stitched document: a planned-parallel
        two-hop run's critical path descends into a ``worker.*`` span
        captured inside the pool, and still reconciles exactly."""
        r = Relation.from_points(
            ("x", "y"), [(i, (i * 7 + 3) % 40) for i in range(40)]
        )
        tracer = Tracer()
        ctx = ExecutionContext(workers=2, pool="thread")
        try:
            with tracer, ctx:
                with tracer.span("query"):
                    r.join(r.rename({"x": "y", "y": "z"})).project(("x", "z"))
        finally:
            ctx.close()
        document = validate_trace(trace_document(tracer))
        analysis = analyze_trace(document)
        assert analysis["worker_seconds"] > 0.0
        names = [s["name"] for s in analysis["critical_path"]]
        assert any(n.startswith("worker.") for n in names)
        path_total = sum(s["seconds"] for s in analysis["critical_path"])
        assert path_total == pytest.approx(analysis["total_seconds"], rel=0.01)
        depths = {s["name"]: s["depth"] for s in analysis["critical_path"]}
        worker_depth = max(
            d for n, d in depths.items() if n.startswith("worker.")
        )
        assert worker_depth > depths["query"]
