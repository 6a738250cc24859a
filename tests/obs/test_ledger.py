"""The per-operator cost ledger: records, bounds, document round-trip,
rendering, and its CLI surface (``repro explain``, ``--out``)."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.core.database import Database
from repro.core.relation import Relation
from repro.encoding.standard import encode_database
from repro.errors import EncodingError
from repro.obs import (
    PROFILE_SCHEMA,
    CostLedger,
    CostRecord,
    Tracer,
    load_profile,
    profile_document,
    render_cost_ledger,
    validate_profile,
    write_profile,
)
from repro.obs.ledger import OPERATORS
from repro.parallel import ExecutionContext


def _rel(n=20):
    return Relation.from_points(
        ("x", "y"), [(i, (i * 7 + 3) % n) for i in range(n)]
    )


def _traced_workload():
    tracer = Tracer()
    with tracer:
        with tracer.span("query"):
            r = _rel()
            joined = r.join(r.rename({"x": "y", "y": "z"}))
            joined.project(("x", "z"))
            Relation.from_points(("x",), [(1,), (2,)]).complement()
    return tracer


# ------------------------------------------------------------------- records


class TestCostRecord:
    def test_fields_and_atoms_per_tuple(self):
        record = CostRecord(
            "join", in_tuples=10, out_tuples=4, est_out=8, out_atoms=12,
            cache_hits=3, cache_misses=1, seconds=0.5, shards=2, skew=1.2,
            parallel=True,
        )
        assert record.atoms_per_tuple == 3.0
        d = record.as_dict()
        assert d["op"] == "join" and d["parallel"] is True
        assert d["est_out"] == 8 and d["skew"] == 1.2

    def test_negative_cache_counts_clamped(self):
        record = CostRecord(
            "join", in_tuples=1, out_tuples=1, est_out=1,
            cache_hits=-5, cache_misses=-2,
        )
        assert record.cache_hits == 0 and record.cache_misses == 0

    def test_empty_output_has_zero_atoms_per_tuple(self):
        record = CostRecord("project", in_tuples=3, out_tuples=0, est_out=3)
        assert record.atoms_per_tuple == 0.0


class TestCostLedger:
    def test_bounded_appends_count_dropped(self):
        ledger = CostLedger(max_records=2)
        for _ in range(5):
            ledger.add("join", in_tuples=1, out_tuples=1, est_out=1)
        assert len(ledger) == 2
        assert ledger.dropped == 3
        assert not ledger.is_empty()

    def test_operator_summary_orders_known_ops_first(self):
        ledger = CostLedger()
        ledger.add("zeta", in_tuples=1, out_tuples=1, est_out=1)
        ledger.add("absorb", in_tuples=2, out_tuples=1, est_out=2)
        ledger.add("join", in_tuples=4, out_tuples=3, est_out=5,
                   shards=2, skew=1.5, parallel=True)
        ledger.add("join", in_tuples=2, out_tuples=1, est_out=2)
        rows = ledger.operator_summary()
        assert [r["operator"] for r in rows] == ["join", "absorb", "zeta"]
        join_row = rows[0]
        assert join_row["calls"] == 2
        assert join_row["in_tuples"] == 6
        assert join_row["parallel_calls"] == 1
        assert join_row["max_skew"] == 1.5


# ---------------------------------------------------------- tracer integration


class TestTracerLedger:
    def test_serial_traced_ops_append_records(self):
        tracer = _traced_workload()
        ops = {record.op for record in tracer.ledger}
        # complement drives _absorb internally, so all four appear
        assert ops == set(OPERATORS)
        assert all(not record.parallel for record in tracer.ledger)
        assert all(record.shards == 0 for record in tracer.ledger)

    def test_complement_estimate_is_an_upper_bound(self):
        # the tightened estimator (min of the per-stage linear bound
        # and the capped DNF product) must still never under-estimate
        tracer = _traced_workload()
        complements = [r for r in tracer.ledger if r.op == "complement"]
        assert complements
        for record in complements:
            assert record.est_out >= record.out_tuples

    def test_join_estimate_is_an_upper_bound(self):
        tracer = _traced_workload()
        joins = [r for r in tracer.ledger if r.op == "join"]
        assert joins
        for record in joins:
            assert record.est_out >= record.out_tuples

    def test_parallel_records_carry_dispatch_shape(self):
        tracer = Tracer()
        ctx = ExecutionContext(workers=2, pool="thread")
        try:
            with tracer, ctx:
                with tracer.span("query"):
                    r = _rel(40)
                    r.join(r.rename({"x": "y", "y": "z"})).project(("x", "z"))
        finally:
            ctx.close()
        parallel = [record for record in tracer.ledger if record.parallel]
        assert parallel
        assert all(record.shards >= 1 for record in parallel)
        assert all(record.skew >= 1.0 for record in parallel)

    def test_untraced_ops_record_nothing(self):
        r = _rel()
        r.join(r.rename({"x": "y", "y": "z"}))
        # no tracer was active; nothing observable to assert except that
        # the call ran without a ledger (no ambient tracer to hold one)
        tracer = Tracer()
        assert tracer.ledger.is_empty()


# -------------------------------------------------------- document round-trip


class TestProfileDocument:
    def test_round_trip(self, tmp_path):
        tracer = _traced_workload()
        path = tmp_path / "profile.json"
        written = write_profile(str(path), tracer)
        loaded = load_profile(str(path))
        assert loaded == written
        assert loaded["schema"] == PROFILE_SCHEMA
        assert loaded["trace"] == tracer.trace_id
        assert len(loaded["records"]) == len(tracer.ledger)
        assert loaded["dropped_records"] == 0
        assert "cache.hits" in loaded["kernel"]

    def test_guard_stats_ride_along(self, tmp_path):
        from repro.runtime.guard import EvaluationGuard

        tracer = Tracer()
        guard = EvaluationGuard(None)
        with tracer, guard:
            with tracer.span("query"):
                _rel().join(_rel().rename({"x": "y", "y": "z"}))
        document = profile_document(tracer, guard)
        assert document["guard"] is not None
        validate_profile(document)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.update(schema="repro.profile/2"), "schema"),
            (lambda d: d.update(records=7), "arrays"),
            (lambda d: d.update(dropped_records=-1), "dropped_records"),
            (lambda d: d["records"][0].update(op=3), "op"),
            (lambda d: d["records"][0].update(in_tuples="x"), "in_tuples"),
            (lambda d: d["records"][0].update(seconds=-1.0), "negative"),
            (lambda d: d["records"][0].update(parallel="yes"), "parallel"),
            (lambda d: d["operators"][0].update(calls=0), "calls"),
            (lambda d: d.update(kernel=None), "kernel"),
        ],
    )
    def test_corrupted_documents_rejected(self, mutate, match):
        document = profile_document(_traced_workload())
        mutate(document)
        with pytest.raises(EncodingError, match=match):
            validate_profile(document)

    def test_estimator_field_is_optional(self):
        # records no longer carry an estimator kind; documents written
        # while they did still load
        document = profile_document(_traced_workload())
        assert all("estimator" not in record for record in document["records"])
        validate_profile(document)
        for record in document["records"]:
            record["estimator"] = "join.indexed"
        validate_profile(document)

    def test_parallel_record_without_shards_rejected(self):
        document = profile_document(_traced_workload())
        document["records"][0]["parallel"] = True
        document["records"][0]["shards"] = 0
        with pytest.raises(EncodingError, match="shards"):
            validate_profile(document)

    def test_non_json_file_raises_encoding_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(EncodingError, match="not JSON"):
            load_profile(str(path))

    def test_non_utf8_file_raises_encoding_error(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        with pytest.raises(EncodingError, match="profile file .* is not UTF-8"):
            load_profile(str(path))


# ------------------------------------------------------------------ rendering


class TestRenderCostLedger:
    def test_empty_ledger_renders_placeholder(self):
        assert "no operator calls" in render_cost_ledger(CostLedger())

    def test_table_has_estimate_and_cache_columns(self):
        tracer = _traced_workload()
        text = render_cost_ledger(tracer.ledger)
        assert "est out" in text and "actual out" in text
        assert "est/act" in text and "hit%" in text
        assert "join" in text and "serial" in text

    def test_zero_output_renders_dash_ratio(self):
        ledger = CostLedger()
        ledger.add("join", in_tuples=5, out_tuples=0, est_out=25)
        text = render_cost_ledger(ledger)
        assert "—" in text

    def test_dropped_records_noted(self):
        ledger = CostLedger(max_records=1)
        ledger.add("join", in_tuples=1, out_tuples=1, est_out=1)
        ledger.add("join", in_tuples=1, out_tuples=1, est_out=1)
        assert "1 dropped" in render_cost_ledger(ledger)

    def test_parallel_column_counts_parallel_calls(self):
        ledger = CostLedger()
        ledger.add("join", in_tuples=4, out_tuples=2, est_out=4,
                   shards=2, parallel=True)
        ledger.add("join", in_tuples=4, out_tuples=2, est_out=4)
        assert "1/2" in render_cost_ledger(ledger)


# ------------------------------------------------------------------ CLI surface


@pytest.fixture()
def workload(tmp_path):
    n = 12
    edges = [(i, (i + 1) % n) for i in range(n)]
    db = Database({"edge": Relation.from_points(("x", "y"), edges)})
    db_path = tmp_path / "db.cdb"
    db_path.write_text(encode_database(db))
    program = tmp_path / "tc.dl"
    program.write_text("tc(x, y) :- edge(x, y).\ntc(x, z) :- tc(x, y), edge(y, z).\n")
    return str(db_path), str(program)


def _run_cli(argv):
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestProfileCli:
    def test_profile_prints_ledger_table(self, workload):
        db, program = workload
        code, out, _ = _run_cli(["explain", db, program, "--engine", "seminaive"])
        assert code == 0
        assert "cost ledger" in out
        assert "join" in out and "est out" in out

    def test_profile_out_writes_valid_document(self, workload, tmp_path):
        db, program = workload
        out_path = tmp_path / "profile.json"
        code, _, _ = _run_cli(
            ["explain", db, program, "--out", str(out_path)]
        )
        assert code == 0
        document = load_profile(str(out_path))
        assert document["schema"] == PROFILE_SCHEMA
        assert document["records"]
        assert json.loads(out_path.read_text())["operators"]

    def test_profile_budget_abort_still_emits_partial_ledger(self, workload, tmp_path):
        db, program = workload
        out_path = tmp_path / "profile.json"
        code, out, err = _run_cli(
            ["explain", db, program, "--max-tuples", "1",
             "--out", str(out_path)]
        )
        assert code == 3
        assert "budget exceeded" in err
        assert "cost ledger" in out
        document = load_profile(str(out_path))
        assert document["guard"] is not None

    def test_profile_accepts_parallel_flags(self, workload):
        db, program = workload
        code, out, _ = _run_cli(
            ["explain", db, program, "--parallel", "--workers", "2"]
        )
        assert code == 0
        assert "cost ledger" in out
