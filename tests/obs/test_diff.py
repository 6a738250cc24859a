"""Trace diffing: the repro.trace-diff/1 document and its report.

The acceptance scenario lives in ``TestPlannedParallelDiff``: diffing
a serial run's trace against a planned-parallel run of the *same*
workload attributes the latency delta to named operators — the
``worker.*`` and ``parallel.*`` spans that exist only on one side.
"""

from __future__ import annotations

import pytest

from repro.core.relation import Relation
from repro.errors import EncodingError
from repro.obs import (
    TRACE_DIFF_SCHEMA,
    Tracer,
    diff_traces,
    load_trace_diff,
    render_trace_diff,
    trace_document,
    validate_trace_diff,
    write_trace_diff,
)
from repro.parallel import ExecutionContext


def _doc(spans, counters=None):
    document = {
        "spans": [
            {"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
             "end": s[4], "attrs": {}}
            for s in spans
        ]
    }
    if counters is not None:
        document["metrics"] = {"counters": counters}
    return document


BEFORE = _doc(
    [
        (1, None, "query", 0.0, 10.0),
        (2, 1, "relation.join", 1.0, 9.0),
    ],
    counters={"kernel.cache.hits": 10, "qe.calls": 2},
)
AFTER = _doc(
    [
        (1, None, "query", 0.0, 6.0),
        (2, 1, "relation.join", 1.0, 3.0),
        (3, 1, "relation.project", 3.0, 5.0),
    ],
    counters={"kernel.cache.hits": 25, "qe.calls": 2},
)


class TestDiffDocument:
    def test_schema_and_totals(self):
        document = diff_traces(BEFORE, AFTER)
        assert document["schema"] == TRACE_DIFF_SCHEMA
        assert document["total"]["before_seconds"] == pytest.approx(10.0)
        assert document["total"]["after_seconds"] == pytest.approx(6.0)
        assert document["total"]["delta_seconds"] == pytest.approx(-4.0)

    def test_rows_sorted_by_absolute_delta(self):
        rows = diff_traces(BEFORE, AFTER)["operators"]
        deltas = [abs(r["delta_self_seconds"]) for r in rows]
        assert deltas == sorted(deltas, reverse=True)

    def test_operator_only_in_after_joins_against_zero(self):
        rows = {r["name"]: r for r in diff_traces(BEFORE, AFTER)["operators"]}
        project = rows["relation.project"]
        assert project["before_calls"] == 0
        assert project["after_calls"] == 1
        assert project["before_self_seconds"] == 0.0
        assert project["delta_self_seconds"] == pytest.approx(2.0)

    def test_operator_only_in_before_joins_against_zero(self):
        rows = {r["name"]: r for r in diff_traces(AFTER, BEFORE)["operators"]}
        assert rows["relation.project"]["after_calls"] == 0
        assert rows["relation.project"]["delta_self_seconds"] == pytest.approx(-2.0)

    def test_counter_deltas_keep_only_nonzero(self):
        counters = diff_traces(BEFORE, AFTER)["counters"]
        assert counters == {"kernel.cache.hits": 15}

    def test_labels_ride_along(self):
        document = diff_traces(BEFORE, AFTER, label_before="v1", label_after="v2")
        assert document["labels"] == {"before": "v1", "after": "v2"}


class TestValidationAndRoundTrip:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "diff.json")
        document = diff_traces(BEFORE, AFTER)
        write_trace_diff(path, document)
        assert load_trace_diff(path) == document

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {", encoding="utf-8")
        with pytest.raises(EncodingError, match="trace-diff file .* is not JSON"):
            load_trace_diff(str(path))

    def test_load_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        with pytest.raises(EncodingError, match="trace-diff file .* is not UTF-8"):
            load_trace_diff(str(path))

    def test_bad_schema_rejected(self):
        document = diff_traces(BEFORE, AFTER)
        document["schema"] = "repro.trace/1"
        with pytest.raises(EncodingError):
            validate_trace_diff(document)

    def test_missing_total_rejected(self):
        document = diff_traces(BEFORE, AFTER)
        del document["total"]
        with pytest.raises(EncodingError):
            validate_trace_diff(document)

    def test_non_numeric_row_field_rejected(self):
        document = diff_traces(BEFORE, AFTER)
        document["operators"][0]["delta_self_seconds"] = "fast"
        with pytest.raises(EncodingError):
            validate_trace_diff(document)


class TestRender:
    def test_report_names_biggest_mover_first(self):
        text = render_trace_diff(diff_traces(BEFORE, AFTER))
        lines = text.splitlines()
        table_start = lines.index("operators by self-time delta:")
        # relation.join moved by -6s of self time; project by +2s
        assert "relation.join" in lines[table_start + 2]

    def test_report_shows_signed_deltas_and_totals(self):
        text = render_trace_diff(diff_traces(BEFORE, AFTER))
        assert "-4.000 s" in text or "-4.000" in text
        assert "counter deltas:" in text
        assert "kernel.cache.hits" in text

    def test_identical_traces_render_without_tables(self):
        text = render_trace_diff(diff_traces(BEFORE, BEFORE))
        assert "operators by self-time delta:" not in text


class TestPlannedParallelDiff:
    def test_serial_vs_parallel_attributes_delta_to_named_operators(self):
        """Acceptance: the diff of a serial trace against a parallel
        trace of the same two-hop workload names the operators that
        moved — the worker/dispatch spans on the parallel side."""
        r = Relation.from_points(
            ("x", "y"), [(i, (i * 7 + 3) % 40) for i in range(40)]
        )

        def two_hop():
            return r.join(r.rename({"x": "y", "y": "z"})).project(("x", "z"))

        serial = Tracer()
        with serial:
            with serial.span("query"):
                expected = two_hop()
        parallel = Tracer()
        ctx = ExecutionContext(workers=2, pool="thread")
        try:
            with parallel, ctx:
                with parallel.span("query"):
                    got = two_hop()
        finally:
            ctx.close()
        assert set(got.tuples) == set(expected.tuples)

        document = validate_trace_diff(
            diff_traces(
                trace_document(serial),
                trace_document(parallel),
                label_before="serial",
                label_after="parallel",
            )
        )
        rows = {r["name"]: r for r in document["operators"]}
        worker_rows = [n for n in rows if n.startswith("worker.")]
        assert worker_rows, "parallel-side worker spans must appear as movers"
        for name in worker_rows:
            assert rows[name]["before_calls"] == 0
            assert rows[name]["after_calls"] > 0
            assert rows[name]["delta_self_seconds"] > 0.0
        text = render_trace_diff(document)
        assert "serial → parallel" in text
        assert any(name in text for name in worker_rows)
