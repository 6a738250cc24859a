"""Flame-graph export: collapsed stacks and speedscope documents.

The speedscope export uses the ``sampled`` profile type because
stitched sibling worker spans overlap in time, which an ``evented``
profile forbids; the stitched-trace test pins that a trace of a
two-shard batch on two workers still exports a document our validator
(and hence speedscope's loader contract) accepts.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import EncodingError
from repro.obs import (
    SPEEDSCOPE_SCHEMA,
    Tracer,
    collapsed_stacks,
    speedscope_document,
    trace_document,
    validate_speedscope,
    write_flame,
)
from repro.parallel import ExecutionContext


def _doc(spans):
    return {
        "spans": [
            {"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
             "end": s[4], "attrs": {}}
            for s in spans
        ]
    }


SIMPLE = _doc([
    (1, None, "query", 0.0, 10.0),
    (2, 1, "fo.evaluate", 1.0, 4.0),
    (3, 1, "relation.join", 5.0, 9.0),
])


def _double(payload):
    return payload * 2


class TestCollapsedStacks:
    def test_lines_carry_self_time_in_microseconds(self):
        lines = collapsed_stacks(SIMPLE).splitlines()
        assert "query 3000000" in lines
        assert "query;fo.evaluate 3000000" in lines
        assert "query;relation.join 4000000" in lines

    def test_same_path_spans_fold_into_one_line(self):
        doc = _doc([
            (1, None, "q", 0.0, 6.0),
            (2, 1, "fo.evaluate", 0.0, 2.0),
            (3, 1, "fo.evaluate", 3.0, 6.0),
        ])
        lines = collapsed_stacks(doc).splitlines()
        assert lines.count("q;fo.evaluate 5000000") == 1

    def test_zero_self_time_paths_are_dropped(self):
        doc = _doc([
            (1, None, "wrapper", 0.0, 4.0),
            (2, 1, "inner", 0.0, 4.0),
        ])
        assert "wrapper;inner" in collapsed_stacks(doc)
        assert "\nwrapper " not in "\n" + collapsed_stacks(doc)

    def test_empty_trace_is_empty_text(self):
        assert collapsed_stacks({"spans": []}) == ""


class TestSpeedscope:
    def test_document_validates(self):
        validate_speedscope(speedscope_document(SIMPLE))

    def test_end_value_covers_total_weight(self):
        doc = speedscope_document(SIMPLE)
        profile = doc["profiles"][0]
        assert profile["endValue"] == pytest.approx(sum(profile["weights"]))
        assert profile["endValue"] == pytest.approx(10.0)

    def test_frames_deduplicate_by_name(self):
        doc = _doc([
            (1, None, "q", 0.0, 6.0),
            (2, 1, "fo.evaluate", 0.0, 2.0),
            (3, 1, "fo.evaluate", 3.0, 6.0),
        ])
        out = speedscope_document(doc)
        names = [f["name"] for f in out["shared"]["frames"]]
        assert names.count("fo.evaluate") == 1

    def test_samples_reference_frame_table(self):
        out = speedscope_document(SIMPLE)
        nframes = len(out["shared"]["frames"])
        for stack in out["profiles"][0]["samples"]:
            assert stack
            assert all(0 <= i < nframes for i in stack)

    def test_validator_rejects_missing_schema(self):
        out = speedscope_document(SIMPLE)
        del out["$schema"]
        with pytest.raises(EncodingError):
            validate_speedscope(out)

    def test_validator_rejects_dangling_frame_index(self):
        out = speedscope_document(SIMPLE)
        out["profiles"][0]["samples"][0] = [999]
        with pytest.raises(EncodingError):
            validate_speedscope(out)

    def test_validator_rejects_mismatched_weights(self):
        out = speedscope_document(SIMPLE)
        out["profiles"][0]["weights"].append(1.0)
        with pytest.raises(EncodingError):
            validate_speedscope(out)


class TestWriteFlame:
    def test_speedscope_file_round_trips(self, tmp_path):
        path = str(tmp_path / "x.speedscope.json")
        write_flame(path, SIMPLE, name="unit")
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        validate_speedscope(loaded)
        assert loaded["$schema"] == SPEEDSCOPE_SCHEMA
        assert loaded["name"] == "unit"

    def test_collapsed_file(self, tmp_path):
        path = str(tmp_path / "x.collapsed")
        write_flame(path, SIMPLE, fmt="collapsed")
        with open(path, encoding="utf-8") as handle:
            assert "query;relation.join 4000000" in handle.read()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(EncodingError):
            write_flame(str(tmp_path / "x"), SIMPLE, fmt="svg")


class TestStitchedTraceExport:
    def test_two_shard_trace_exports_validly(self):
        """A captured two-shard batch on two workers — overlapping
        sibling worker spans with ``pid``/``shard`` attrs — still
        yields a valid speedscope document with the worker frames."""
        tracer = Tracer()
        ctx = ExecutionContext(workers=2, pool="thread")
        try:
            with tracer:
                with tracer.span("query"):
                    out = ctx.run_shards(_double, [4, 5])
        finally:
            ctx.close()
        assert out == [8, 10]
        workers = [s for s in tracer.spans if s.name == "worker._double"]
        assert sorted(s.attrs["shard"] for s in workers) == [0, 1]
        document = trace_document(tracer)
        speedscope = validate_speedscope(speedscope_document(document))
        frame_names = {f["name"] for f in speedscope["shared"]["frames"]}
        assert any(n.startswith("worker.") for n in frame_names)
        text = collapsed_stacks(document)
        assert "worker._double" in text
