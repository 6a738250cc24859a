"""Trace-document export: schema validation and JSON round-trip."""

import json

import pytest

from repro.core.database import Database
from repro.core.relation import Relation
from repro.datalog.engine import evaluate_program
from repro.errors import EncodingError
from repro.lang import parse_program
from repro.obs import (
    TRACE_SCHEMA,
    Tracer,
    fixpoint_rounds,
    load_trace,
    relation_algebra,
    render_report,
    trace_document,
    validate_trace,
    write_trace,
)
from repro.runtime.guard import EvaluationGuard


@pytest.fixture
def traced_run():
    db = Database()
    db["E"] = Relation.from_points(("x", "y"), [(0, 1), (1, 2), (2, 3)])
    program = parse_program("T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).\n")
    tracer = Tracer()
    guard = EvaluationGuard()
    with tracer:
        evaluate_program(program, db, guard=guard)
    return tracer, guard


class TestDocument:
    def test_document_shape(self, traced_run):
        tracer, guard = traced_run
        doc = trace_document(tracer, guard)
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["spans"]
        assert doc["metrics"]["counters"]
        assert doc["guard"]["rounds_completed"] >= 1
        assert doc["dropped_spans"] == 0

    def test_document_is_json_serializable(self, traced_run):
        tracer, guard = traced_run
        text = json.dumps(trace_document(tracer, guard))
        assert TRACE_SCHEMA in text

    def test_validate_accepts_own_output(self, traced_run):
        tracer, guard = traced_run
        doc = trace_document(tracer, guard)
        assert validate_trace(doc) is doc

    def test_non_scalar_attrs_coerced_to_strings(self):
        tracer = Tracer()
        with tracer.span("s", payload=object()):
            pass
        doc = trace_document(tracer)
        assert isinstance(doc["spans"][0]["attrs"]["payload"], str)


class TestRoundTrip:
    def test_write_then_load(self, traced_run, tmp_path):
        tracer, guard = traced_run
        path = tmp_path / "trace.json"
        written = write_trace(str(path), trace_document(tracer, guard))
        loaded = load_trace(str(path))
        assert loaded == written
        assert loaded["schema"] == TRACE_SCHEMA

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {", encoding="utf-8")
        with pytest.raises(EncodingError):
            load_trace(str(path))

    def test_load_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        with pytest.raises(EncodingError, match="trace file .* is not UTF-8"):
            load_trace(str(path))


class TestValidation:
    def base(self):
        return {
            "schema": TRACE_SCHEMA,
            "spans": [],
            "events": [],
            "metrics": {"counters": {}, "histograms": {}},
            "guard": None,
            "dropped_spans": 0,
        }

    def test_wrong_schema_rejected(self):
        doc = self.base()
        doc["schema"] = "repro.trace/99"
        with pytest.raises(EncodingError):
            validate_trace(doc)

    def test_duplicate_span_id_rejected(self):
        doc = self.base()
        span = {"id": 1, "parent": None, "name": "s", "start": 0.0, "end": 1.0,
                "attrs": {}}
        doc["spans"] = [span, dict(span)]
        with pytest.raises(EncodingError):
            validate_trace(doc)

    def test_unknown_parent_rejected(self):
        doc = self.base()
        doc["spans"] = [
            {"id": 1, "parent": 99, "name": "s", "start": 0.0, "end": 1.0,
             "attrs": {}}
        ]
        with pytest.raises(EncodingError):
            validate_trace(doc)

    def test_span_closing_before_opening_rejected(self):
        doc = self.base()
        doc["spans"] = [
            {"id": 1, "parent": None, "name": "s", "start": 5.0, "end": 1.0,
             "attrs": {}}
        ]
        with pytest.raises(EncodingError):
            validate_trace(doc)

    def test_non_integer_counter_rejected(self):
        doc = self.base()
        doc["metrics"]["counters"] = {"c": "three"}
        with pytest.raises(EncodingError):
            validate_trace(doc)


class TestProfileRendering:
    def test_report_mentions_rounds_and_operators(self, traced_run):
        tracer, guard = traced_run
        text = render_report(trace_document(tracer, guard))
        assert "datalog.naive" in text
        assert "relation algebra" in text
        assert "guard stats" in text

    def test_report_helpers_machine_readable(self, traced_run):
        tracer, _ = traced_run
        document = trace_document(tracer)
        fixpoint = fixpoint_rounds(document)
        assert fixpoint["rounds"]["datalog.naive"] >= 1
        assert fixpoint["deltas"]["datalog.naive"][-1] == 0
        operators = {row["operator"] for row in relation_algebra(document)}
        assert "project" in operators
