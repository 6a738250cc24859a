"""Bench history records and the regression watch
(``repro.bench-history/1`` + ``repro bench-watch``)."""

import json

import pytest

from repro.errors import EncodingError
from repro.obs import (
    HISTORY_SCHEMA,
    append_history,
    compare_latest,
    load_history,
    render_watch_report,
    validate_history_record,
)
from repro.obs.history import provenance


def record(**metrics):
    return {
        "schema": HISTORY_SCHEMA,
        "created_unix": 1.0,
        "provenance": {"git": None, "python": "x", "platform": "y", "argv": "z"},
        "metrics": metrics,
    }


class TestAppendAndLoad:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_history(path, {"tc_seconds": 0.5})
        append_history(path, {"tc_seconds": 0.6, "fo_seconds": 0.1})
        records = load_history(path)
        assert len(records) == 2
        assert records[0]["metrics"] == {"tc_seconds": 0.5}
        assert records[1]["metrics"]["fo_seconds"] == 0.1

    def test_records_are_provenance_stamped(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        appended = append_history(path, {"m": 1.0})
        stamp = appended["provenance"]
        assert set(stamp) == {"git", "python", "platform", "argv"}
        assert stamp["python"]

    def test_append_is_append_only(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(str(path), {"m": 1.0})
        before = path.read_text(encoding="utf-8")
        append_history(str(path), {"m": 2.0})
        after = path.read_text(encoding="utf-8")
        assert after.startswith(before)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(
            json.dumps(record(m=1.0)) + "\n\n" + json.dumps(record(m=2.0)) + "\n",
            encoding="utf-8",
        )
        assert len(load_history(str(path))) == 2

    def test_bad_json_line_reported_with_lineno(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(
            json.dumps(record(m=1.0)) + "\n{broken\n", encoding="utf-8"
        )
        with pytest.raises(EncodingError, match="line 2"):
            load_history(str(path))

    def test_non_utf8_file_raises_encoding_error(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        with pytest.raises(EncodingError, match="bench history .* is not UTF-8"):
            load_history(str(path))

    def test_provenance_never_raises(self):
        stamp = provenance()
        assert "python" in stamp and "platform" in stamp


class TestValidation:
    def test_wrong_schema_rejected(self):
        bad = record(m=1.0)
        bad["schema"] = "repro.bench-history/99"
        with pytest.raises(EncodingError):
            validate_history_record(bad)

    def test_negative_metric_rejected(self):
        with pytest.raises(EncodingError, match="negative"):
            validate_history_record(record(m=-0.1))

    def test_non_numeric_metric_rejected(self):
        with pytest.raises(EncodingError):
            validate_history_record(record(m="fast"))

    def test_boolean_metric_rejected(self):
        with pytest.raises(EncodingError):
            validate_history_record(record(m=True))

    def test_missing_provenance_rejected(self):
        bad = record(m=1.0)
        del bad["provenance"]
        with pytest.raises(EncodingError):
            validate_history_record(bad)


class TestCompareLatest:
    def test_insufficient_history(self):
        report = compare_latest([record(m=1.0)])
        assert report["status"] == "insufficient-history"
        assert report["rows"] == []

    def test_flat_history_is_ok(self):
        report = compare_latest(
            [record(m=1.0), record(m=0.98), record(m=1.02)]
        )
        assert report["status"] == "ok"
        (row,) = report["rows"]
        assert not row["regressed"] and row["ratio"] == pytest.approx(
            1.02 / 0.99, rel=1e-6
        )

    def test_2x_slowdown_flagged(self):
        report = compare_latest(
            [record(m=1.0), record(m=1.0), record(m=2.0)], threshold=1.5
        )
        assert report["status"] == "regression"
        assert report["rows"][0]["regressed"]

    def test_threshold_is_respected(self):
        records = [record(m=1.0), record(m=1.0), record(m=2.0)]
        assert compare_latest(records, threshold=2.5)["status"] == "ok"

    def test_median_baseline_shrugs_off_one_noisy_run(self):
        report = compare_latest(
            [record(m=1.0), record(m=9.0), record(m=1.0), record(m=1.1)]
        )
        assert report["status"] == "ok"
        assert report["rows"][0]["baseline"] == 1.0

    def test_window_limits_the_baseline(self):
        # ancient fast runs outside the window must not poison the
        # baseline of a workload that legitimately got slower
        records = [record(m=0.1)] * 10 + [record(m=1.0)] * 5 + [record(m=1.1)]
        report = compare_latest(records, threshold=1.5, window=5)
        assert report["status"] == "ok"
        assert report["rows"][0]["baseline"] == 1.0
        assert report["baseline_runs"] == 5

    def test_new_metric_reported_but_never_flagged(self):
        report = compare_latest(
            [record(old=1.0), record(old=1.0, fresh=99.0)]
        )
        assert report["status"] == "ok"
        rows = {r["metric"]: r for r in report["rows"]}
        assert rows["fresh"]["baseline"] is None
        assert not rows["fresh"]["regressed"]

    def test_multiple_metrics_one_regression_suffices(self):
        report = compare_latest(
            [record(a=1.0, b=1.0), record(a=1.0, b=1.0), record(a=1.0, b=3.0)]
        )
        assert report["status"] == "regression"
        rows = {r["metric"]: r for r in report["rows"]}
        assert not rows["a"]["regressed"] and rows["b"]["regressed"]


class TestRenderReport:
    def test_report_mentions_every_metric_and_status(self):
        report = compare_latest(
            [record(a=1.0, b=1.0), record(a=1.0, b=1.0), record(a=1.0, b=3.0)]
        )
        text = render_watch_report(report)
        assert "a" in text and "b" in text
        assert "REGRESSED" in text
        assert text.endswith("status: regression")

    def test_insufficient_history_report(self):
        text = render_watch_report(compare_latest([record(m=1.0)]))
        assert "insufficient history" in text

    def test_new_metric_rendered_as_new(self):
        report = compare_latest([record(old=1.0), record(old=1.0, fresh=2.0)])
        assert "(new)" in render_watch_report(report)
