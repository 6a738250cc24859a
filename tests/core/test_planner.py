"""Tests for the plan IR: compilation, rule-engine rewrites (planned
with ``heuristic_engine(db).run``), execution through ``execute_plan``
and the ``render_plan`` listing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import le, lt
from repro.core.costmodel import estimate_plan
from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.formula import Not, constraint, exists, forall, rel
from repro.core.physical import execute_plan, render_plan
from repro.core.planner import (
    Complement,
    ConstraintScan,
    Join,
    Plan,
    Project,
    Scan,
    Select,
    Union,
    compile_formula,
)
from repro.core.relation import Relation
from repro.core.rules import heuristic_engine
from repro.core.theory import DENSE_ORDER
from tests.strategies import formulas, fractions as fracs


@pytest.fixture
def db():
    database = Database()
    database["T"] = Relation.from_atoms(
        ("x", "y"), [[le("x", "y"), le(0, "x"), le("y", 10)]], DENSE_ORDER
    )
    database["S"] = Relation.from_points(("x",), [(1,), (5,), (9,)])
    return database


class TestCompile:
    def test_relation_atom(self):
        plan = compile_formula(rel("T", "a", "b"))
        assert isinstance(plan, Scan)
        assert plan.schema == ("a", "b")

    def test_and_is_join(self):
        plan = compile_formula(rel("S", "x") & constraint(lt("x", 5)))
        assert isinstance(plan, Join)

    def test_exists_is_project(self):
        plan = compile_formula(exists("y", rel("T", "x", "y")))
        assert isinstance(plan, Project)
        assert plan.schema == ("x",)

    def test_forall_compiles_via_duals(self):
        plan = compile_formula(forall("y", rel("T", "x", "y")))
        assert isinstance(plan, Complement)


class TestOptimizePasses:
    def test_constraint_becomes_selection(self):
        f = rel("S", "x") & constraint(lt("x", 5))
        plan = heuristic_engine().run(compile_formula(f))
        assert isinstance(plan, Select)
        assert isinstance(plan.source, Scan)

    def test_join_flattening(self):
        f = (rel("S", "x") & rel("T", "x", "y")) & rel("S", "y")
        plan = heuristic_engine().run(compile_formula(f))
        assert isinstance(plan, Join)
        assert len(plan.parts) == 3

    def test_join_reordering_by_size(self, db):
        big = Relation.from_points(("x",), [(i,) for i in range(8)])
        db["Big"] = big
        f = rel("Big", "x") & rel("S", "x")
        plan = heuristic_engine(db).run(compile_formula(f))
        assert isinstance(plan, Join)
        # with only 2 parts order is untouched; with 3+, smallest first
        f3 = rel("Big", "x") & rel("S", "x") & rel("T", "x", "y")
        plan3 = heuristic_engine(db).run(compile_formula(f3))
        sizes = [estimate_plan(part, db).rows for part in plan3.parts]
        assert sizes == sorted(sizes)
        assert [part.name for part in plan3.parts] == ["T", "S", "Big"]

    def test_explain_renders(self, db):
        f = exists("y", rel("T", "x", "y") & constraint(lt("y", 5)))
        text = render_plan(heuristic_engine().run(compile_formula(f)))
        assert "Project" in text
        assert "Scan T" in text
        assert "Select" in text


class TestExecution:
    def test_matches_evaluator_on_example(self, db):
        f = exists("y", rel("T", "x", "y") & constraint(lt("y", 5)))
        direct = evaluate(f, db)
        naive = execute_plan(compile_formula(f), db)
        optimized = execute_plan(heuristic_engine(db).run(compile_formula(f)), db)
        assert naive.equivalent(direct)
        assert optimized.equivalent(direct)

    def test_union_with_mixed_schemas(self, db):
        f = rel("S", "x") | constraint(lt("y", 0))
        plan = heuristic_engine(db).run(compile_formula(f))
        out = execute_plan(plan, db)
        assert out.schema == ("x", "y")
        assert out.contains_point([1, 100])
        assert out.contains_point([100, -1])

    def test_complement(self, db):
        f = Not(rel("S", "x"))
        out = execute_plan(heuristic_engine(db).run(compile_formula(f)), db)
        assert out.contains_point([2])
        assert not out.contains_point([5])

    @settings(max_examples=80, deadline=None)
    @given(formulas(depth=2), st.data())
    def test_random_formulas_agree(self, f, data):
        """compile -> rewrite -> execute_plan == evaluate, pointwise."""
        direct = evaluate(f)
        via_plan = execute_plan(heuristic_engine().run(compile_formula(f)))
        names = sorted(v.name for v in f.free_variables())
        point = [data.draw(fracs) for _ in names]
        assert direct.contains_point(point) == via_plan.contains_point(point)

    def test_sentences(self, db):
        f = exists(["x", "y"], rel("T", "x", "y"))
        out = execute_plan(heuristic_engine(db).run(compile_formula(f)), db)
        assert not out.is_empty()


class TestOptimizerWins:
    def test_selection_pushdown_shrinks_intermediates(self, db):
        """With the selection pushed into the scan, the join sees fewer
        tuples; verify via representation sizes, not wall-clock."""
        f = rel("S", "x") & rel("S", "y") & constraint(lt("x", 2)) & constraint(lt("y", 2))
        naive_plan = compile_formula(f)
        fast_plan = heuristic_engine(db).run(naive_plan)
        naive_out = execute_plan(naive_plan, db)
        fast_out = execute_plan(fast_plan, db)
        assert fast_out.equivalent(naive_out)
        # the optimized plan has selections directly on scans
        text = render_plan(fast_plan, db)
        assert text.count("Select") >= 2
