"""Physical planning: per-operator dispatch decisions, the plan
executor, and the QueryPlanner facade.  Plans come from the rule engine
(``heuristic_engine(db).run``) and run through ``execute_plan``."""

import pytest

from repro.core.atoms import le, lt
from repro.core.costmodel import CostModel
from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.formula import Not, constraint, exists, rel
from repro.core.physical import (
    OPTIMIZE_MODES,
    PARALLEL_OPS,
    QueryPlanner,
    execute_plan,
    plan_physical,
    render_plan,
)
from repro.core.planner import (
    Absorb,
    Join,
    Scan,
    Shared,
    Union,
    compile_formula,
)
from repro.core.relation import Relation
from repro.core.rules import heuristic_engine
from repro.core.terms import Var
from repro.core.theory import DENSE_ORDER
from repro.obs import Tracer
from repro.parallel import ExecutionContext


def _db(n=16):
    database = Database()
    database["E"] = Relation.from_points(
        ("x", "y"), [(i, (i + 1) % n) for i in range(n)]
    )
    database["S"] = Relation.from_points(("x",), [(1,), (5,), (9,)])
    database["T"] = Relation.from_atoms(
        ("x", "y"), [[le("x", "y"), le(0, "x"), le("y", 10)]], DENSE_ORDER
    )
    return database


def _join_plan(db):
    f = exists("y", rel("E", "x", "y") & rel("E", "y", "z"))
    return heuristic_engine(db).run(compile_formula(f))


def _cheap_dispatch_model():
    """A model under which sharding is nearly free: parallel wins."""
    return CostModel(
        coefficients={"join": {"base": 0.0, "per_input": 1e-3,
                               "per_unit": 1e-3, "per_output": 1e-3}},
        dispatch={"base": 1e-9, "per_shard": 1e-9, "per_tuple": 1e-12,
                  "efficiency": 1.0},
    )


class TestPlanPhysical:
    def test_capacity_one_means_all_serial(self):
        db = _db()
        decisions = plan_physical(_join_plan(db), db, max_workers=1)
        assert decisions  # joins and the project got verdicts
        assert all(not d.parallel for d in decisions.values())
        assert all("capacity" in d.reason for d in decisions.values())

    def test_default_model_keeps_small_inputs_serial(self):
        # conservative dispatch pricing: milliseconds of overhead never
        # pay off against microsecond ops — the 1-core regression fix
        db = _db()
        decisions = plan_physical(_join_plan(db), db, max_workers=4)
        assert all(not d.parallel for d in decisions.values())

    def test_cheap_dispatch_model_goes_parallel(self):
        db = _db(64)
        decisions = plan_physical(
            _join_plan(db), db, _cheap_dispatch_model(), max_workers=4
        )
        parallel = [d for d in decisions.values() if d.parallel]
        assert parallel
        assert all(1 < d.workers <= 4 for d in parallel)
        assert all(d.est_parallel < d.est_serial for d in parallel)

    def test_tiny_inputs_stay_below_the_shard_floor(self):
        db = _db()
        db["P"] = Relation.from_points(("x",), [(1,)])
        plan = Join((Scan("P", (Var("x"),)), Scan("P", (Var("x"),))))
        decisions = plan_physical(
            plan, db, _cheap_dispatch_model(), max_workers=4
        )
        (decision,) = decisions.values()
        assert not decision.parallel
        assert "floor" in decision.reason

    def test_absorb_prefers_cell_strategy(self):
        db = _db(64)
        plan = Absorb(_join_plan(db))
        decisions = plan_physical(
            plan, db, _cheap_dispatch_model(), max_workers=4,
            default_strategy="hash",
        )
        absorb = decisions[plan]
        if absorb.parallel:
            assert absorb.strategy == "cell"
        joins = [d for node, d in decisions.items()
                 if isinstance(node, Join) and d.parallel]
        assert all(d.strategy == "hash" for d in joins)

    def test_decisions_keyed_by_node_value(self):
        db = _db()
        plan = _join_plan(db)
        decisions = plan_physical(plan, db)
        target = next(n for n in decisions if isinstance(n, PARALLEL_OPS))
        assert decisions[target].as_attrs()["node"]


class TestExecutePlan:
    def test_matches_direct_evaluation(self):
        db = _db()
        f = exists("y", rel("E", "x", "y") & rel("E", "y", "z"))
        direct = evaluate(f, db)
        planned = execute_plan(heuristic_engine(db).run(compile_formula(f)), db)
        assert planned.equivalent(direct)

    def test_shared_subtrees_execute_once(self):
        db = _db()
        calls = []
        original = Relation.join

        def counting_join(self, other, **kwargs):
            calls.append(1)
            return original(self, other, **kwargs)

        sub = Join((Scan("E", (Var("x"), Var("y"))),
                    Scan("E", (Var("y"), Var("z")))))
        plan = Union((Shared(sub), Shared(sub)))
        try:
            Relation.join = counting_join
            execute_plan(plan, db)
        finally:
            Relation.join = original
        assert sum(calls) == 1

    def test_parallel_decisions_match_serial_results(self):
        db = _db(32)
        plan = _join_plan(db)
        serial = execute_plan(plan, db)
        ctx = ExecutionContext(workers=2, pool="thread")
        try:
            decisions = plan_physical(
                plan, db, _cheap_dispatch_model(), max_workers=2
            )
            assert any(d.parallel for d in decisions.values())
            parallel = execute_plan(plan, db, context=ctx, decisions=decisions)
        finally:
            ctx.close()
        assert parallel.equivalent(serial)

    def test_context_settings_restored_after_dispatch(self):
        db = _db(32)
        plan = _join_plan(db)
        ctx = ExecutionContext(workers=4, shard_strategy="hash", pool="thread")
        try:
            decisions = plan_physical(
                plan, db, _cheap_dispatch_model(), max_workers=2
            )
            execute_plan(plan, db, context=ctx, decisions=decisions)
            assert ctx.workers == 4
            assert ctx.shard_strategy == "hash"
        finally:
            ctx.close()


class TestQueryPlanner:
    def test_mode_validation(self):
        assert OPTIMIZE_MODES == ("heuristic", "cost")
        with pytest.raises(ValueError, match="mode"):
            QueryPlanner(mode="fast")
        # "none" is the CLI's word for "no planner", not a planner mode
        with pytest.raises(ValueError, match="mode"):
            QueryPlanner(mode="none")

    def test_run_matches_evaluator(self):
        db = _db()
        f = Not(rel("S", "x")) & constraint(lt("x", 20)) & constraint(lt(0, "x"))
        for mode in ("heuristic", "cost"):
            planner = QueryPlanner(mode=mode)
            assert planner.run(f, db, db.theory).equivalent(evaluate(f, db))

    def test_logical_plans_are_cached(self):
        db = _db()
        f = exists("y", rel("E", "x", "y"))
        planner = QueryPlanner(mode="cost")
        first = planner.logical_plan(f, db)
        second = planner.logical_plan(f, db)
        assert first is second

    def test_heuristic_mode_never_dispatches(self):
        db = _db()
        ctx = ExecutionContext(workers=4, pool="thread")
        try:
            planner = QueryPlanner(mode="heuristic", context=ctx)
            assert planner.max_workers == 1
            plan = planner.logical_plan(exists("y", rel("E", "x", "y")), db)
            assert planner.physical_plan(plan, db) == {}
        finally:
            ctx.close()

    def test_planner_metrics_and_decision_logs(self):
        from repro.obs.sink import CollectingSink

        db = _db()
        f = exists("y", rel("E", "x", "y") & rel("E", "y", "z"))
        planner = QueryPlanner(mode="cost")
        tracer = Tracer()
        sink = tracer.add_sink(CollectingSink())
        with tracer:
            with tracer.span("query"):
                planner.run(f, db, db.theory)
                planner.run(f, db, db.theory)  # second plan hits the cache
        counters = tracer.metrics.counters
        assert counters.get("planner.plans") == 1
        assert counters.get("planner.cache.hits") == 1
        assert counters.get("planner.nodes.serial", 0) >= 1
        decisions = [r for r in sink.records if r["name"] == "planner.decision"]
        assert decisions
        assert {"node", "parallel", "reason"} <= set(decisions[0]["attrs"])
        spans = [r for r in sink.records
                 if r["kind"] == "span" and r["name"] == "planner.plan"]
        assert spans  # plan provenance rides the trace

    def test_guard_counters_attributed(self):
        from repro.runtime.guard import EvaluationGuard

        db = _db()
        f = exists("y", rel("E", "x", "y") & rel("E", "y", "z"))
        guard = EvaluationGuard()
        planner = QueryPlanner(mode="cost")
        planner.run(f, db, db.theory, guard=guard)
        assert guard.tuples_materialized > 0


class TestRenderPlan:
    def test_listing_shape(self):
        db = _db()
        text = render_plan(_join_plan(db), db, max_workers=1)
        assert "est_rows" in text and "est_cost" in text
        assert "[serial]" in text
        assert "total modeled cost" in text
        assert "pool capacity: 1 worker(s)" in text

    def test_parallel_verdicts_rendered(self):
        db = _db(64)
        text = render_plan(
            _join_plan(db), db, _cheap_dispatch_model(), max_workers=4
        )
        assert "parallel×" in text
        assert "chosen parallel" in text
