"""``repro.trace/1`` validation failures: malformed nesting, negative
durations, unknown schema ids, and other corrupted documents.

``tests/obs/test_export.py`` checks that well-formed documents round
trip; this battery checks the other direction — every invariant named
in :func:`repro.obs.export.validate_trace` actually rejects."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.core.relation import Relation
from repro.datalog.engine import evaluate_program
from repro.errors import EncodingError
from repro.lang import parse_program
from repro.obs import (
    TRACE_SCHEMA,
    Tracer,
    analyze_trace,
    collapsed_stacks,
    trace_document,
    validate_trace,
)
from tests.strategies import json_values


def base_document():
    return {
        "schema": TRACE_SCHEMA,
        "spans": [],
        "events": [],
        "metrics": {"counters": {}, "histograms": {}},
        "guard": None,
        "dropped_spans": 0,
    }


def span_entry(span_id, parent=None, start=0.0, end=1.0, name="s"):
    return {
        "id": span_id, "parent": parent, "name": name,
        "start": start, "end": end, "attrs": {},
    }


class TestSchemaId:
    @pytest.mark.parametrize(
        "schema",
        ["repro.trace/2", "repro.trace", "trace/1", "", None, 1],
    )
    def test_unknown_schema_id_rejected(self, schema):
        doc = base_document()
        doc["schema"] = schema
        with pytest.raises(EncodingError, match="schema"):
            validate_trace(doc)

    def test_missing_schema_rejected(self):
        doc = base_document()
        del doc["schema"]
        with pytest.raises(EncodingError):
            validate_trace(doc)

    def test_non_object_rejected(self):
        with pytest.raises(EncodingError):
            validate_trace([base_document()])


class TestSpanNesting:
    def test_child_starting_before_parent_rejected(self):
        doc = base_document()
        doc["spans"] = [
            span_entry(1, start=5.0, end=9.0),
            span_entry(2, parent=1, start=2.0, end=6.0),
        ]
        with pytest.raises(EncodingError, match="before its parent"):
            validate_trace(doc)

    def test_self_parent_rejected(self):
        # stitching rewrites parent ids, so a span claiming itself as
        # parent is a representable corruption the validator must catch
        # (it would make the span tree unrenderable)
        doc = base_document()
        doc["spans"] = [span_entry(1, parent=1)]
        with pytest.raises(EncodingError, match="own parent"):
            validate_trace(doc)

    def test_two_span_parent_cycle_rejected(self):
        # A under B under A: every parent reference resolves and every
        # span nests "inside" the other, so only the chain walk sees it
        doc = base_document()
        doc["spans"] = [
            span_entry(1, parent=2, start=1.0, end=2.0),
            span_entry(2, parent=1, start=1.0, end=2.0),
        ]
        with pytest.raises(EncodingError, match="cycle"):
            validate_trace(doc)

    def test_cycle_below_valid_subtree_rejected(self):
        # the memo of known-safe ids must not mask a cycle elsewhere
        doc = base_document()
        doc["spans"] = [
            span_entry(1, start=0.0, end=9.0),
            span_entry(2, parent=1, start=1.0, end=2.0),
            span_entry(3, parent=4, start=3.0, end=4.0),
            span_entry(4, parent=3, start=3.0, end=4.0),
        ]
        with pytest.raises(EncodingError, match="cycle"):
            validate_trace(doc)

    def test_colliding_span_ids_rejected(self):
        # span ids are the join key for events, log records, and
        # stitched worker subtrees — a collision silently reparents
        # all of them, so the validator must refuse the document
        doc = base_document()
        doc["spans"] = [
            span_entry(1, start=0.0, end=2.0),
            span_entry(1, start=1.0, end=2.0, name="imposter"),
        ]
        with pytest.raises(EncodingError, match="duplicate span id"):
            validate_trace(doc)

    def test_forward_parent_reference_allowed(self):
        # span order in the document is collection order, not tree
        # order; a parent listed later must still resolve
        doc = base_document()
        doc["spans"] = [
            span_entry(2, parent=1, start=1.0, end=2.0),
            span_entry(1, start=0.5, end=3.0),
        ]
        assert validate_trace(doc) is doc


class TestDurations:
    def test_negative_duration_rejected(self):
        doc = base_document()
        doc["spans"] = [span_entry(1, start=3.0, end=1.0)]
        with pytest.raises(EncodingError, match="closes before it opens"):
            validate_trace(doc)

    def test_open_span_tolerated(self):
        doc = base_document()
        doc["spans"] = [span_entry(1, end=None)]
        assert validate_trace(doc) is doc

    def test_zero_duration_tolerated(self):
        doc = base_document()
        doc["spans"] = [span_entry(1, start=1.0, end=1.0)]
        assert validate_trace(doc) is doc


class TestEvents:
    def test_event_with_unknown_parent_rejected(self):
        doc = base_document()
        doc["events"] = [{"name": "e", "time": 0.0, "parent": 404, "attrs": {}}]
        with pytest.raises(EncodingError, match="unknown parent"):
            validate_trace(doc)

    def test_event_missing_time_rejected(self):
        doc = base_document()
        doc["events"] = [{"name": "e"}]
        with pytest.raises(EncodingError):
            validate_trace(doc)


class TestStructure:
    def test_span_missing_key_rejected(self):
        doc = base_document()
        entry = span_entry(1)
        del entry["attrs"]
        doc["spans"] = [entry]
        with pytest.raises(EncodingError, match="missing key"):
            validate_trace(doc)

    def test_non_string_span_name_rejected(self):
        doc = base_document()
        doc["spans"] = [span_entry(1, name=7)]
        with pytest.raises(EncodingError):
            validate_trace(doc)

    def test_spans_must_be_an_array(self):
        doc = base_document()
        doc["spans"] = {"1": span_entry(1)}
        with pytest.raises(EncodingError):
            validate_trace(doc)

    def test_histogram_without_aggregates_rejected(self):
        doc = base_document()
        doc["metrics"]["histograms"] = {"h": {"total": 3.0}}
        with pytest.raises(EncodingError):
            validate_trace(doc)


def real_document():
    db = Database()
    db["E"] = Relation.from_points(("x", "y"), [(0, 1), (1, 2)])
    program = parse_program(
        "T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).\n"
    )
    tracer = Tracer()
    with tracer:
        evaluate_program(program, db)
        tracer.event("probe", detail=1)
    return validate_trace(trace_document(tracer))


#: one real trace, corrupted field by field below (never mutated itself)
REAL = real_document()

class TestCorruptedRealDocument:
    def test_real_trace_survives_then_breaks_when_corrupted(self):
        doc = real_document()
        doc["spans"][0]["start"] = doc["spans"][0]["end"] + 1.0
        with pytest.raises(EncodingError):
            validate_trace(doc)

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("spans", "id", [1]),
            ("spans", "id", True),
            ("spans", "parent", {"id": 1}),
            ("spans", "start", "0.5"),
            ("spans", "end", [0.5]),
            ("spans", "attrs", ["k", "v"]),
            ("events", "parent", [1]),
            ("events", "time", "now"),
        ],
        ids=[
            "span-id-list", "span-id-bool", "span-parent-object",
            "span-start-string", "span-end-list", "span-attrs-list",
            "event-parent-list", "event-time-string",
        ],
    )
    def test_mistyped_fields_are_encoding_errors(self, section, field, value):
        doc = copy.deepcopy(REAL)
        doc[section][0][field] = value
        with pytest.raises(EncodingError):
            validate_trace(doc)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["spans", "events"]),
        st.data(),
        json_values,
    )
    def test_any_field_value_is_rejected_or_valid(self, section, data, value):
        doc = copy.deepcopy(REAL)
        entry = data.draw(st.sampled_from(doc[section]))
        entry[data.draw(st.sampled_from(sorted(entry)))] = value
        try:
            validate_trace(doc)
        except EncodingError:
            return
        # a document that validates is safe for the trace commands
        analyze_trace(doc)
        collapsed_stacks(doc)
