"""Flight recorder: ring capture, post-mortem documents, dump hooks."""

import json

import pytest

from repro.core.database import Database
from repro.core.relation import Relation
from repro.datalog.engine import evaluate_program
from repro.errors import EncodingError
from repro.lang import parse_program
from repro.obs import (
    POSTMORTEM_SCHEMA,
    Tracer,
    flight_recorder,
    last_postmortem,
    load_postmortem,
    validate_postmortem,
)
from repro.obs.flightrec import FlightRecorder
from repro.runtime.budget import Budget, BudgetExceeded
from repro.runtime.faults import FaultRegistry, fault_point
from repro.runtime.guard import EvaluationGuard

TC_PROGRAM = "T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).\n"


@pytest.fixture(autouse=True)
def clean_recorder():
    """Tests share the process-wide recorder; leave it as found."""
    recorder = flight_recorder()
    saved = (recorder.dump_dir, recorder.enabled)
    recorder.reset()
    yield recorder
    recorder.dump_dir, recorder.enabled = saved
    recorder.reset()


def tc_database():
    db = Database()
    db["E"] = Relation.from_points(("x", "y"), [(0, 1), (1, 2), (2, 3)])
    return db


class TestRecording:
    def test_tracer_records_into_global_ring(self, clean_recorder):
        tracer = Tracer()
        with tracer:
            tracer.log("hello", round=1)
        names = [r["name"] for r in clean_recorder.ring.snapshot()]
        assert "hello" in names

    def test_disabled_recorder_records_nothing(self, clean_recorder):
        clean_recorder.enabled = False
        with Tracer() as tracer:
            tracer.log("dropped")
        assert len(clean_recorder.ring) == 0

    def test_private_instance_is_bounded(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record({"name": f"e{i}"})
        assert len(recorder.ring) == 4
        assert recorder.ring.dropped == 6


class TestPostmortemDocument:
    def test_validate_accepts_own_output(self):
        recorder = FlightRecorder()
        recorder.record({"name": "e1"})
        doc = recorder.postmortem(reason="manual")
        assert validate_postmortem(doc) is doc
        assert doc["schema"] == POSTMORTEM_SCHEMA
        assert doc["error"] is None
        assert [e["name"] for e in doc["events"]] == ["e1"]

    def test_error_and_guard_and_trace_sections(self):
        recorder = FlightRecorder()
        guard = EvaluationGuard()
        tracer = Tracer()
        with guard, tracer:
            error = BudgetExceeded("too much", site="t", limit=1)
            doc = recorder.postmortem(error=error, guard=guard, tracer=tracer)
        assert doc["error"]["type"] == "BudgetExceeded"
        assert doc["error"]["diagnostics"]["limit"] == 1
        assert doc["guard"]["ticks"] == guard.stats()["ticks"]
        assert doc["trace"]["id"] == tracer.trace_id
        assert "cache.hits" in doc["kernel"]
        json.dumps(doc, default=str)

    def test_open_spans_listed_as_active(self):
        recorder = FlightRecorder()
        tracer = Tracer()
        with tracer:
            context = tracer.span("stuck.phase", depth=3)
            context.__enter__()
            doc = recorder.postmortem(tracer=tracer)
        assert [s["name"] for s in doc["trace"]["active_spans"]] == ["stuck.phase"]
        assert doc["trace"]["active_spans"][0]["attrs"]["depth"] == 3


class TestDump:
    def test_dump_without_dir_keeps_document_in_memory(self, clean_recorder):
        assert clean_recorder.dump(reason="manual") is None
        assert last_postmortem()["reason"] == "manual"
        assert clean_recorder.last_path is None

    def test_dump_with_dir_writes_file(self, clean_recorder, tmp_path):
        clean_recorder.configure(dump_dir=str(tmp_path / "pm"))
        path = clean_recorder.dump(error=ValueError("boom"), reason="manual")
        assert path is not None and path.endswith(".json")
        doc = load_postmortem(path)
        assert doc["error"]["type"] == "ValueError"

    def test_same_error_object_dumped_once(self, clean_recorder, tmp_path):
        clean_recorder.configure(dump_dir=str(tmp_path))
        error = ValueError("boom")
        first = clean_recorder.dump(error=error)
        again = clean_recorder.dump(error=error)
        assert first == again
        assert clean_recorder.dumps == 1

    def test_distinct_errors_get_distinct_files(self, clean_recorder, tmp_path):
        clean_recorder.configure(dump_dir=str(tmp_path))
        first = clean_recorder.dump(error=ValueError("a"))
        second = clean_recorder.dump(error=ValueError("b"))
        assert first != second


class TestGuardHook:
    def test_budget_trip_inside_guard_captures_postmortem(self, clean_recorder):
        program = parse_program(TC_PROGRAM)
        guard = EvaluationGuard(Budget(max_rounds=1))
        tracer = Tracer()
        with pytest.raises(BudgetExceeded):
            with tracer:
                evaluate_program(program, tc_database(), guard=guard)
        doc = last_postmortem()
        assert doc is not None and doc["reason"] == "guard"
        assert doc["error"]["type"] == "RoundLimitExceeded"
        assert doc["guard"]["rounds_completed"] >= 1
        assert any(e["name"] == "datalog.naive.round" for e in doc["events"])

    def test_uncaught_exception_inside_guard_captured(self, clean_recorder):
        guard = EvaluationGuard()
        with pytest.raises(RuntimeError):
            with guard:
                raise RuntimeError("engine bug")
        assert last_postmortem()["error"]["type"] == "RuntimeError"

    def test_clean_exit_captures_nothing(self, clean_recorder):
        with EvaluationGuard():
            pass
        assert last_postmortem() is None


class TestFaultHook:
    def test_fired_fault_dumps_with_fault_reason(self, clean_recorder):
        registry = FaultRegistry().inject("s", error=ValueError("injected"))
        with pytest.raises(ValueError):
            with registry:
                fault_point("s")
        doc = last_postmortem()
        assert doc["reason"] == "fault"
        assert any(e["name"] == "fault.fired" for e in doc["events"])

    def test_fault_inside_guard_dumped_once(self, clean_recorder, tmp_path):
        clean_recorder.configure(dump_dir=str(tmp_path))
        registry = FaultRegistry().inject("s", error=ValueError("injected"))
        with pytest.raises(ValueError):
            with EvaluationGuard(), registry:
                fault_point("s")
        assert clean_recorder.dumps == 1


class TestValidation:
    def base(self):
        return FlightRecorder().postmortem()

    def test_wrong_schema_rejected(self):
        doc = self.base()
        doc["schema"] = "repro.postmortem/99"
        with pytest.raises(EncodingError):
            validate_postmortem(doc)

    def test_missing_key_rejected(self):
        doc = self.base()
        del doc["events_dropped"]
        with pytest.raises(EncodingError):
            validate_postmortem(doc)

    def test_nameless_event_rejected(self):
        doc = self.base()
        doc["events"] = [{"kind": "log"}]
        with pytest.raises(EncodingError):
            validate_postmortem(doc)

    def test_error_without_type_rejected(self):
        doc = self.base()
        doc["error"] = {"message": "boom"}
        with pytest.raises(EncodingError):
            validate_postmortem(doc)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "pm.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(EncodingError):
            load_postmortem(str(path))

    def test_load_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "pm.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        with pytest.raises(EncodingError, match="postmortem file .* is not UTF-8"):
            load_postmortem(str(path))


class TestCliAcceptance:
    def test_max_rounds_kill_produces_valid_postmortem(self, tmp_path, capsys):
        """The ISSUE's acceptance check: a --max-rounds kill on the CLI
        leaves a loadable repro.postmortem/1 with ring events and guard
        counters."""
        from repro.cli import EXIT_BUDGET, main
        from repro.encoding.standard import encode_database

        db = Database()
        db["e"] = Relation.from_points(("x", "y"), [(0, 1), (1, 2), (2, 3)])
        db_path = tmp_path / "db.cdb"
        db_path.write_text(encode_database(db), encoding="utf-8")
        program_path = tmp_path / "tc.dl"
        program_path.write_text(
            "tc(x, y) :- e(x, y).\ntc(x, z) :- tc(x, y), e(y, z).\n",
            encoding="utf-8",
        )
        pm_dir = tmp_path / "pm"
        code = main(
            [
                "datalog", str(db_path), str(program_path),
                "--max-rounds", "1", "--postmortem-dir", str(pm_dir),
            ]
        )
        assert code == EXIT_BUDGET
        assert "post-mortem:" in capsys.readouterr().err
        dumps = sorted(pm_dir.glob("postmortem-*.json"))
        assert len(dumps) == 1
        doc = load_postmortem(str(dumps[0]))
        assert doc["reason"] == "guard"
        assert doc["error"]["type"] == "RoundLimitExceeded"
        assert doc["guard"]["rounds_completed"] >= 1
        assert any(e["name"] == "datalog.naive.round" for e in doc["events"])
