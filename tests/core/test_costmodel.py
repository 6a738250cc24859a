"""The ledger-calibrated cost model: document round-trip, fitting from
profile documents, and plan-tree estimation over rule-engine plans."""

import json

import pytest

from repro.core.atoms import le, lt
from repro.core.costmodel import (
    COST_MODEL_SCHEMA,
    DEFAULT_COEFFICIENTS,
    DEFAULT_DISPATCH,
    CostModel,
    estimate_plan,
    fit_cost_model,
    load_cost_model,
    validate_cost_model,
)
from repro.core.database import Database
from repro.core.formula import Not, constraint, exists, rel
from repro.core.planner import Absorb, Join, Scan, Shared, Union, compile_formula
from repro.core.relation import Relation
from repro.core.rules import heuristic_engine
from repro.core.terms import Var
from repro.core.theory import DENSE_ORDER
from repro.errors import EncodingError
from repro.obs import Tracer, profile_document


def _profile_doc(n=24):
    """A real repro.profile/1 document from a traced workload."""
    tracer = Tracer()
    with tracer:
        with tracer.span("query"):
            r = Relation.from_points(
                ("x", "y"), [(i, (i * 7 + 3) % n) for i in range(n)]
            )
            joined = r.join(r.rename({"x": "y", "y": "z"}))
            joined.project(("x", "z"))
            Relation.from_points(("x",), [(1,), (2,)]).complement()
    return profile_document(tracer)


def _synthetic_doc(coefs, calls=12):
    """Records whose seconds follow ``coefs`` exactly, with enough
    spread in (in, unit, out) for the normal equations to recover them."""
    records = []
    for i in range(1, calls + 1):
        in_t, out_t = 3 * i, 2 * i
        unit = float(out_t)  # join's work term
        seconds = (
            coefs["base"] + coefs["per_input"] * in_t
            + coefs["per_unit"] * unit + coefs["per_output"] * out_t
        )
        records.append({
            "op": "join", "estimator": "join.indexed",
            "in_tuples": in_t, "out_tuples": out_t, "est_out": out_t * 2,
            "out_atoms": out_t, "cache_hits": 0, "cache_misses": 0,
            "seconds": seconds, "shards": 0, "skew": 1.0, "parallel": False,
        })
    return {
        "schema": "repro.profile/1", "trace": "t" * 8, "records": records,
        "operators": [{
            "operator": "join", "calls": calls,
            "in_tuples": sum(r["in_tuples"] for r in records),
            "out_tuples": sum(r["out_tuples"] for r in records),
            "est_out": sum(r["est_out"] for r in records),
            "out_atoms": sum(r["out_atoms"] for r in records),
            "seconds": sum(r["seconds"] for r in records),
            "cache_hits": 0, "cache_misses": 0,
            "parallel_calls": 0, "max_skew": 1.0,
        }],
        "dropped_records": 0, "kernel": {"cache.hits": 0},
        "spans": [], "guard": None,
    }


class TestCostModelDocument:
    def test_default_model_document_is_valid(self):
        model = CostModel()
        document = validate_cost_model(model.as_document())
        assert document["schema"] == COST_MODEL_SCHEMA
        assert document["source"] == "default"
        assert set(document["coefficients"]) >= {"join", "project", "complement", "absorb"}

    def test_save_load_round_trip(self, tmp_path):
        model = CostModel(
            coefficients={"join": {"per_unit": 1.5e-4}},
            ratios={"join.cross": 0.25},
            source="fit", records_used=42,
        )
        path = tmp_path / "model.json"
        model.save(str(path))
        loaded = load_cost_model(str(path))
        assert loaded.coefficients["join"]["per_unit"] == 1.5e-4
        assert loaded.ratio("join.cross") == 0.25
        assert loaded.source == "fit" and loaded.records_used == 42
        # unspecified operators keep their defaults
        assert loaded.coefficients["project"] == DEFAULT_COEFFICIENTS["project"]

    def test_non_json_file_raises_encoding_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(EncodingError, match="not JSON"):
            load_cost_model(str(path))

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.update(schema="repro.cost-model/2"), "schema"),
            (lambda d: d.update(source=3), "source"),
            (lambda d: d.update(records_used=-1), "records_used"),
            (lambda d: d.update(coefficients=None), "coefficients"),
            (lambda d: d["coefficients"]["join"].update(base="x"), "join.base"),
            (lambda d: d["coefficients"]["join"].update(per_unit=-1.0), "negative"),
            (lambda d: d.update(dispatch=[]), "dispatch"),
            (lambda d: d["dispatch"].update(per_shard=None), "per_shard"),
            (lambda d: d["dispatch"].update(efficiency=1.5), "efficiency"),
            (lambda d: d.update(ratios=7), "ratios"),
            (lambda d: d["ratios"].update({"join.cross": 0.0}), "positive"),
        ],
    )
    def test_corrupted_documents_rejected(self, mutate, match):
        document = CostModel(ratios={"join.cross": 1.0}).as_document()
        mutate(document)
        with pytest.raises(EncodingError, match=match):
            validate_cost_model(document)


class TestPricing:
    def test_op_seconds_grows_with_work(self):
        model = CostModel()
        assert model.op_seconds("join", 100, 50) > model.op_seconds("join", 10, 5)
        # unknown operators price like a scan rather than failing
        assert model.op_seconds("mystery", 10, 10) > 0

    def test_ratio_defaults_to_one(self):
        model = CostModel(ratios={"join.cross": 0.5})
        assert model.ratio("join.cross") == 0.5
        assert model.ratio("project.input") == 1.0
        assert model.corrected("join.cross", 100.0) == 50.0

    def test_parallel_seconds_includes_dispatch_overhead(self):
        model = CostModel()
        serial = 1e-4  # a tiny op: sharding must look like a loss
        assert model.parallel_seconds(serial, 4, 100) > serial
        # a big op amortizes the overhead and wins
        big = 10.0
        assert model.parallel_seconds(big, 4, 100) < big

    def test_single_shard_still_pays_the_dispatch_base(self):
        model = CostModel()
        assert model.parallel_seconds(1.0, 1, 10) == 1.0 + DEFAULT_DISPATCH["base"]


class TestFitting:
    def test_fit_recovers_synthetic_coefficients(self):
        truth = {"base": 1e-4, "per_input": 2e-5, "per_unit": 5e-5, "per_output": 3e-5}
        model = fit_cost_model([_synthetic_doc(truth)])
        fitted = model.coefficients["join"]
        predicted = model.op_seconds("join", 30, 20, unit=20.0)
        expected = (
            truth["base"] + truth["per_input"] * 30
            + truth["per_unit"] * 20 + truth["per_output"] * 20
        )
        assert predicted == pytest.approx(expected, rel=1e-3)
        assert all(v >= 0 for v in fitted.values())

    def test_fit_computes_estimator_ratios(self):
        truth = {"base": 1e-4, "per_input": 2e-5, "per_unit": 5e-5, "per_output": 3e-5}
        model = fit_cost_model([_synthetic_doc(truth)])
        # est_out is always 2x the actual in the synthetic doc
        assert model.ratio("join.indexed") == pytest.approx(0.5)

    def test_fit_from_real_profile_document(self):
        model = fit_cost_model([_profile_doc()], source="calibrated")
        assert model.source == "calibrated"
        assert model.records_used > 0
        document = validate_cost_model(model.as_document())
        assert document["records_used"] == model.records_used

    def test_too_few_records_keeps_defaults(self):
        doc = _synthetic_doc(
            {"base": 1e-4, "per_input": 2e-5, "per_unit": 5e-5, "per_output": 3e-5},
            calls=2,
        )
        model = fit_cost_model([doc])
        assert model.coefficients["join"] == DEFAULT_COEFFICIENTS["join"]
        assert model.dispatch == DEFAULT_DISPATCH

    def test_ratios_clamped_against_pathological_records(self):
        doc = _synthetic_doc(
            {"base": 1e-4, "per_input": 2e-5, "per_unit": 5e-5, "per_output": 3e-5}
        )
        for record in doc["records"]:
            record["est_out"] = 10_000_000
        model = fit_cost_model([doc])
        assert model.ratio("join.indexed") == 1e-3

    def test_invalid_profile_document_rejected(self):
        with pytest.raises(EncodingError):
            fit_cost_model([{"schema": "wrong"}])


class TestEstimatePlan:
    def _db(self):
        database = Database()
        database["S"] = Relation.from_points(("x",), [(i,) for i in range(6)])
        database["T"] = Relation.from_atoms(
            ("x", "y"), [[le("x", "y"), le(0, "x"), le("y", 10)]], DENSE_ORDER
        )
        return database

    def test_scan_rows_come_from_the_database(self):
        db = self._db()
        est = estimate_plan(Scan("S", (Var("x"),)), db)
        assert est.rows == 6.0
        assert est.node == Scan("S", (Var("x"),))
        # unknown relations get a token default instead of crashing
        unknown = estimate_plan(Scan("Z", (Var("x"),)), db)
        assert unknown.rows == 8.0

    def test_tree_totals_include_children(self):
        db = self._db()
        f = exists("y", rel("T", "x", "y") & constraint(lt("y", 5)))
        est = estimate_plan(heuristic_engine(db).run(compile_formula(f)), db)
        assert est.total_seconds >= est.seconds
        assert est.children
        assert est.total_seconds == pytest.approx(
            est.seconds + sum(c.total_seconds for c in est.children)
        )

    def test_estimator_kinds_match_the_ledger(self):
        db = self._db()
        f = Not(rel("S", "x") & rel("S", "y"))
        est = estimate_plan(heuristic_engine(db).run(compile_formula(f)), db)
        kinds = set()

        def visit(e):
            if e.estimator:
                kinds.add(e.estimator)
            for c in e.children:
                visit(c)

        visit(est)
        assert "complement.linear" in kinds

    def test_ratios_scale_estimates(self):
        db = self._db()
        plan = Join((Scan("S", (Var("x"),)), Scan("S", (Var("y"),))))
        plain = estimate_plan(plan, db)
        tight = estimate_plan(plan, db, CostModel(ratios={"join.cross": 0.1}))
        assert tight.rows == pytest.approx(plain.rows * 0.1)

    def test_shared_subtrees_priced_once(self):
        db = self._db()
        sub = Join((Scan("S", (Var("x"),)), Scan("S", (Var("y"),))))
        plan = Union((Shared(sub), Shared(sub)))
        est = estimate_plan(plan, db)
        first, second = est.children
        assert not first.cached and second.cached
        assert second.total_seconds == 0.0
        assert second.rows == first.rows

    def test_absorb_estimate_does_not_inflate_rows(self):
        db = self._db()
        est = estimate_plan(Absorb(Scan("S", (Var("x"),))), db)
        assert est.rows <= 6.0
        assert est.estimator == "absorb.dedup"
