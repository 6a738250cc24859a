"""The plan executor, the QueryPlanner facade and the plan listing.
Plans come from the rule engine (``heuristic_engine(db).run``) and run
through ``execute_plan``."""

import pytest

from repro.core.atoms import le, lt
from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.formula import Not, constraint, exists, rel
from repro.core.physical import (
    OPTIMIZE_MODES,
    QueryPlanner,
    execute_plan,
    render_plan,
)
from repro.core.planner import Join, Scan, Shared, Union, compile_formula
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

    def test_activated_context_shards_the_plan(self):
        # the plan runs unchanged inside an activated pool; the kernels
        # that see the context shard on it
        db = _db(32)
        plan = _join_plan(db)
        serial = execute_plan(plan, db)
        ctx = ExecutionContext(workers=2, pool="thread", min_tuples=2)
        tracer = Tracer()
        try:
            with tracer, ctx:
                parallel = execute_plan(plan, db)
        finally:
            ctx.close()
        assert parallel.equivalent(serial)
        assert tracer.metrics.counter("parallel.join.calls") > 0


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
        for mode in OPTIMIZE_MODES:
            planner = QueryPlanner(mode=mode)
            assert planner.run(f, db, db.theory).equivalent(evaluate(f, db))

    def test_logical_plans_are_cached(self):
        db = _db()
        f = exists("y", rel("E", "x", "y"))
        planner = QueryPlanner()
        first = planner.logical_plan(f, db)
        second = planner.logical_plan(f, db)
        assert first is second

    def test_heuristic_mode_never_dispatches(self):
        db = _db()
        ctx = ExecutionContext(workers=4, pool="thread")
        try:
            planner = QueryPlanner(mode="heuristic", context=ctx)
            plan = planner.logical_plan(exists("y", rel("E", "x", "y")), db)
            assert planner.physical_plan(plan, db) == {}
        finally:
            ctx.close()

    def test_cost_mode_and_context_change_nothing(self):
        # both stay accepted for the benchmark harness only: the
        # planner owns no pool, so a granted context is never activated
        db = _db(32)
        f = exists("y", rel("E", "x", "y") & rel("E", "y", "z"))
        ctx = ExecutionContext(workers=2, pool="thread", min_tuples=2)
        tracer = Tracer()
        try:
            with tracer:
                planned = QueryPlanner(mode="cost", context=ctx).run(f, db, db.theory)
        finally:
            ctx.close()
        assert planned.equivalent(QueryPlanner().run(f, db, db.theory))
        counters = tracer.metrics.counters
        assert counters["relation.join.calls"]
        assert not [name for name in counters if name.startswith("parallel.")]

    def test_planner_metrics_and_plan_span(self):
        db = _db()
        f = exists("y", rel("E", "x", "y") & rel("E", "y", "z"))
        planner = QueryPlanner()
        tracer = Tracer()
        with tracer:
            with tracer.span("query"):
                planner.run(f, db, db.theory)
                planner.run(f, db, db.theory)  # second plan hits the cache
        counters = tracer.metrics.counters
        assert counters.get("planner.plans") == 1
        assert counters.get("planner.cache.hits") == 1
        spans = [r for r in tracer.spans if r.name == "planner.plan"]
        assert len(spans) == 2  # plan provenance rides the trace

    def test_guard_counters_attributed(self):
        from repro.runtime.guard import EvaluationGuard

        db = _db()
        f = exists("y", rel("E", "x", "y") & rel("E", "y", "z"))
        guard = EvaluationGuard()
        planner = QueryPlanner()
        planner.run(f, db, db.theory, guard=guard)
        assert guard.tuples_materialized > 0


class TestRenderPlan:
    def test_listing_shape(self):
        db = _db()
        text = render_plan(_join_plan(db), db)
        heading, *nodes = text.splitlines()
        assert heading.startswith("plan")
        # one row estimate per node, and nothing else: no cost figure,
        # no total, no dispatch verdict
        assert nodes and all(line.count("est_rows=") == 1 for line in nodes)
        assert "cost" not in text and "total" not in text
        assert "serial" not in text and "parallel" not in text
