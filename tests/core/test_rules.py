"""The rewrite-rule engine: named rules, fixpoint, firing budget,
absorption placement, and common-subplan dedup.  Rewritten plans run
through ``execute_plan``, the one plan executor."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import le, lt
from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.formula import Not, constraint, exists, rel
from repro.core.physical import execute_plan
from repro.core.planner import (
    Absorb,
    Complement,
    Empty,
    Join,
    Plan,
    Project,
    Scan,
    Select,
    Shared,
    Union,
    Universe,
    compile_formula,
)
from repro.core.relation import Relation
from repro.core.rules import (
    DEFAULT_FIRING_BUDGET,
    HEURISTIC_RULES,
    DedupCommonSubplans,
    PlaceAbsorb,
    PropagateEmpty,
    RemoveDoubleComplement,
    RuleEngine,
    heuristic_engine,
)
from repro.core.terms import Var
from repro.core.theory import DENSE_ORDER
from tests.strategies import formulas, fractions as fracs


def _scan(name, *cols):
    return Scan(name, tuple(Var(c) for c in cols))


def _db():
    database = Database()
    database["S"] = Relation.from_points(("x",), [(1,), (5,), (9,)])
    database["T"] = Relation.from_atoms(
        ("x", "y"), [[le("x", "y"), le(0, "x"), le("y", 10)]], DENSE_ORDER
    )
    return database


def _nodes(plan: Plan):
    yield plan
    for child in plan.children():
        yield from _nodes(child)


class TestEngine:
    def test_named_rules_record_firing_counts(self):
        f = (rel("S", "x") & rel("T", "x", "y")) & constraint(lt("x", 5))
        engine = heuristic_engine(_db())
        engine.run(compile_formula(f))
        assert engine.fired  # at least one rule fired
        assert all(isinstance(k, str) and v >= 1 for k, v in engine.fired.items())
        assert "flatten-join" in engine.fired

    def test_run_reaches_fixpoint(self):
        f = exists("y", rel("T", "x", "y") & constraint(lt("y", 5)))
        engine = heuristic_engine(_db())
        plan = engine.run(compile_formula(f))
        # a second pass over the output is a no-op: the plan is stable
        again = heuristic_engine(_db())
        assert again.run(plan) == plan
        assert not again.fired

    def test_firing_budget_bounds_work(self):
        f = (rel("S", "x") & rel("T", "x", "y")) & constraint(lt("x", 5))
        engine = RuleEngine(HEURISTIC_RULES, _db(), budget=1)
        engine.run(compile_formula(f))
        assert sum(engine.fired.values()) <= 1

    def test_default_budget_is_generous(self):
        assert DEFAULT_FIRING_BUDGET >= 1024

    def test_unchanged_apply_is_not_a_firing(self):
        # ReorderJoin matches any >=3-way join but returns it unchanged
        # when already sorted; that must not burn budget
        db = _db()
        db["A"] = Relation.from_points(("x",), [(1,)])
        db["B"] = Relation.from_points(("x",), [(1,), (2,)])
        plan = Join((_scan("A", "x"), _scan("T", "x", "y"), _scan("B", "x")))
        engine = heuristic_engine(db)
        out = engine.run(plan)
        assert out == plan
        assert "reorder-join" not in engine.fired


class TestIndividualRules:
    def test_double_complement_collapses(self):
        inner = _scan("S", "x")
        plan = Complement(Complement(inner))
        rule = RemoveDoubleComplement()
        assert rule.matches(plan)
        assert rule.apply(plan, None) == inner

    def test_propagate_empty_preserves_schema(self):
        rule = PropagateEmpty()
        plan = Project(Empty(("x", "y")), ("x",))
        out = rule.apply(plan, None)
        assert isinstance(out, Empty)
        assert out.schema == ("x",)
        comp = Complement(Universe(("x",)))
        assert rule.apply(comp, None) == Empty(("x",))

    def test_propagate_empty_keeps_widening_union_parts(self):
        # dropping an Empty part that carries schema columns would
        # change the output schema; the rule must refuse
        rule = PropagateEmpty()
        plan = Union((_scan("S", "x"), Empty(("x", "y"))))
        assert rule.apply(plan, None) == plan

    def test_join_with_empty_folds_to_empty(self):
        rule = PropagateEmpty()
        plan = Join((_scan("T", "x", "y"), Empty(("x",))))
        out = rule.apply(plan, None)
        assert isinstance(out, Empty)
        assert out.schema == ("x", "y")

    def test_place_absorb_under_complement(self):
        plan = Complement(Join((_scan("S", "x"), _scan("T", "x", "y"))))
        rule = PlaceAbsorb()
        assert rule.matches(plan)
        out = rule.apply(plan, None)
        assert isinstance(out, Complement)
        assert isinstance(out.source, Absorb)
        # idempotent: once wrapped, the consumer no longer matches
        assert not rule.matches(out)

    def test_place_absorb_over_wide_unions(self):
        wide = Union(tuple(Scan(n, ("x",)) for n in ("A", "B", "C")))
        plan = Project(wide, ("x",))
        rule = PlaceAbsorb()
        assert rule.matches(plan)
        out = rule.apply(plan, None)
        assert isinstance(out.source, Absorb)
        # a 2-part union is left alone
        narrow = Project(Union((_scan("A", "x"), _scan("B", "x"))), ("x",))
        assert not rule.matches(narrow)

    def test_dedup_wraps_repeated_subtrees(self):
        sub = Select(_scan("T", "x", "y"), (lt("x", 5),))
        plan = Union((Project(sub, ("x",)), Complement(sub)))
        out = DedupCommonSubplans().apply(plan, None)
        shared = [n for n in _nodes(out) if isinstance(n, Shared)]
        assert len(shared) == 2
        assert all(s.source == sub for s in shared)

    def test_dedup_never_wraps_root_or_leaves(self):
        leaf = _scan("S", "x")
        plan = Union((leaf, leaf))
        out = DedupCommonSubplans().apply(plan, None)
        assert out == plan  # leaves are free to re-execute
        root_repeat = Select(_scan("T", "x", "y"), (lt("x", 5),))
        assert not isinstance(
            DedupCommonSubplans().apply(root_repeat, None), Shared
        )

    def test_dedup_is_idempotent(self):
        sub = Select(_scan("T", "x", "y"), (lt("x", 5),))
        plan = Union((Project(sub, ("x",)), Complement(sub)))
        rule = DedupCommonSubplans()
        once = rule.apply(plan, None)
        assert rule.apply(once, None) == once


class TestPinnedShapes:
    """The plan shapes the seed tests pinned for the fixed rewrite
    passes, which the rule engine must still produce."""

    def test_optimize_delegates_to_engine(self):
        f = rel("S", "x") & constraint(lt("x", 5))
        plan = heuristic_engine(_db()).run(compile_formula(f))
        assert isinstance(plan, Select)
        assert isinstance(plan.source, Scan)

    def test_absorb_placed_by_full_pipeline(self):
        f = Not(rel("S", "x") & rel("T", "x", "y"))
        plan = heuristic_engine(_db()).run(compile_formula(f))
        absorbs = [n for n in _nodes(plan) if isinstance(n, Absorb)]
        assert absorbs, "complement of a join should absorb its input"


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(formulas(depth=2), st.data())
    def test_rule_engine_preserves_semantics(self, f, data):
        direct = evaluate(f)
        plan = heuristic_engine(None).run(compile_formula(f))
        via_plan = execute_plan(plan)
        assert via_plan.schema == direct.schema
        names = sorted(v.name for v in f.free_variables())
        point = [data.draw(fracs) for _ in names]
        assert direct.contains_point(point) == via_plan.contains_point(point)

    def test_shared_and_absorb_execute_correctly(self, ):
        db = _db()
        sub = Select(_scan("T", "x", "y"), (lt("x", 5),))
        plan = Union((Project(Shared(sub), ("x",)), Project(Shared(sub), ("x",))))
        out = execute_plan(plan, db)
        ref = execute_plan(Union((Project(sub, ("x",)), Project(sub, ("x",)))), db)
        assert out.equivalent(ref)
        wrapped = Complement(Absorb(_scan("S", "x")))
        assert execute_plan(wrapped, db).equivalent(execute_plan(Complement(_scan("S", "x")), db))
