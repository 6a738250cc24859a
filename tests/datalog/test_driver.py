"""The one Datalog driver behind the naive, semi-naive and stratified
engines: a cut anywhere in a round returns the last completed round,
semi-naive computes the naive stages round for round, delta absorption
stores the stages a full absorption pass stores, and the planner
changes no engine's answer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.core.atoms import eq, lt
from repro.core.database import Database
from repro.core.physical import QueryPlanner
from repro.core.relation import Relation
from repro.datalog.ast import Program, cons, negated, pred, rule
from repro.datalog.engine import evaluate_program
from repro.datalog.seminaive import evaluate_seminaive
from repro.datalog.stratified import evaluate_stratified
from repro.lang import parse_program
from repro.obs import Tracer
from repro.queries.library import interval_overlap_tc_program, transitive_closure_program
from repro.runtime.budget import Budget
from repro.runtime.faults import FaultRegistry
from repro.workloads.generators import interval_pairs_relation, path_graph, point_set
from tests.perf.test_equivalence_properties import mixed_edge_relations

ENGINES = (evaluate_program, evaluate_seminaive, evaluate_stratified)

#: two strata for the stratified engine: ``b`` reads the finished ``a``
TWO_LEVEL = """
a(x, z) :- E(x, z).
a(x, z) :- a(x, y), E(y, z).
b(x, z) :- a(x, y), a(y, z).
"""

#: over :func:`absorbing_database`, round 2 derives ``0 < x < 1``,
#: which absorbs the stored ``x = 1/2``
ABSORBING = """
p(x) :- A(x).
p(x) :- p(y), B(y, x).
"""


def absorbing_database():
    half = Fraction(1, 2)
    return Database({
        "A": Relation.from_atoms(("x",), [[eq("x", half)]]),
        "B": Relation.from_atoms(("y", "x"), [[eq("y", half), lt(0, "x"), lt("x", 1)]]),
    })


def full_absorption_runs(run, rounds):
    """``run(i)`` for every ``i`` up to ``rounds``, with
    :meth:`Relation.simplify` testing every pair whatever prefix its
    caller says is absorbed."""
    full = Relation.simplify
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Relation, "simplify", lambda self, *, absorbed=0: full(self))
        return [run(i) for i in range(1, rounds + 1)]


def tuple_sets(program, result):
    return {name: frozenset(result[name].tuples) for name in program.idb}


def staging_program():
    """Inflationary negation staged by nullary guards (the minimum of S)."""
    return Program(
        [
            rule("stage1", []),
            rule("stage2", [], pred("stage1")),
            rule("smaller", ["x"], pred("S", "x"), pred("S", "y"), cons(lt("y", "x"))),
            rule(
                "minimum",
                ["x"],
                pred("S", "x"),
                negated("smaller", "x"),
                pred("stage2"),
            ),
        ],
        edb={"S": 1},
    )


class TestWholeRoundCommit:
    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_every_cut_returns_the_last_completed_round(self, engine):
        """A budget cut at any rule-body evaluation returns exactly the
        state that a round budget of the completed rounds returns."""
        program = parse_program(TWO_LEVEL)
        db = path_graph(6)
        with FaultRegistry() as reg:
            engine(program, db)
        hits = reg.hits["evaluator.eval"]
        assert hits > 10
        for hit in range(1, hits + 1):
            with FaultRegistry() as reg:
                reg.inject("evaluator.eval", charge_tuples=10**9, after=hit - 1)
                cut = engine(
                    program, db, budget=Budget(max_tuples=10**8), on_budget="partial"
                )
            assert not cut.reached_fixpoint, hit
            stopped = engine(
                program, db, budget=Budget(max_rounds=cut.rounds), on_budget="partial"
            )
            assert stopped.rounds == cut.rounds, hit
            assert tuple_sets(program, cut) == tuple_sets(program, stopped), hit


def assert_same_stages(program, db):
    """Naive and semi-naive agree on every stage up to the fixpoint."""
    final = evaluate_program(program, db)
    for i in range(1, final.rounds + 1):
        naive = evaluate_program(program, db, max_rounds=i, on_budget="partial")
        semi = evaluate_seminaive(program, db, max_rounds=i, on_budget="partial")
        assert naive.rounds == semi.rounds == i
        assert naive.reached_fixpoint == semi.reached_fixpoint == (i == final.rounds)
        for name in program.idb:
            assert naive[name].equivalent(semi[name]), (i, name)


def assert_full_pass_stages(engine, program, db):
    """Every stage is stored absorbed, and holds the tuples, in order,
    of the same stage under full absorption."""
    def run(i):
        return engine(program, db, max_rounds=i, on_budget="partial")

    rounds = engine(program, db).rounds
    stages = [run(i) for i in range(1, rounds + 1)]
    for i, (stage, full) in enumerate(zip(stages, full_absorption_runs(run, rounds)), 1):
        assert (stage.rounds, stage.reached_fixpoint) == (full.rounds, full.reached_fixpoint)
        for name in program.idb:
            assert stage[name].tuples == full[name].tuples, (i, name)
            assert stage[name].simplify().tuples == stage[name].tuples, (i, name)


class TestStages:
    @pytest.mark.parametrize("n", [3, 6])
    def test_transitive_closure(self, n):
        assert_same_stages(transitive_closure_program(), path_graph(n))

    def test_negation_staging(self):
        assert_same_stages(staging_program(), point_set(3))

    def test_constraint_recursion(self):
        assert_same_stages(interval_overlap_tc_program(), interval_pairs_relation(13, count=4))

    @settings(max_examples=15, deadline=None)
    @given(mixed_edge_relations(max_tuples=4))
    def test_intervals_and_diagonals(self, edges):
        db = Database({"E": edges})
        # TC and the TC of the converse, whose scans swap E's columns
        for program in (transitive_closure_program(), parse_program(
            "tc(x, y) :- E(y, x).\ntc(x, z) :- tc(x, y), E(z, y).\n"
        )):
            assert_same_stages(program, db)
            for engine in ENGINES:
                assert_full_pass_stages(engine, program, db)


class TestDeltaAbsorption:
    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_new_tuple_absorbs_a_stored_one(self, engine):
        program = parse_program(ABSORBING)
        db = absorbing_database()
        with Tracer() as tracer:
            result = engine(program, db)
        assert result.rounds == 3
        assert result["p"].tuples == Relation.from_atoms(
            ("a0",), [[lt(0, "a0"), lt("a0", 1)]]
        ).tuples
        assert tracer.metrics.counter("relation.simplify.tuples_absorbed") == 2
        assert_full_pass_stages(engine, program, db)


class TestPlanned:
    @pytest.mark.parametrize("engine", [evaluate_seminaive, evaluate_stratified],
                             ids=lambda e: e.__name__)
    @pytest.mark.parametrize("case", ["tc", "two_level", "intervals"])
    def test_planned_equals_unplanned(self, engine, case):
        program, db = {
            "tc": (transitive_closure_program(), path_graph(6)),
            "two_level": (parse_program(TWO_LEVEL), path_graph(5)),
            "intervals": (
                interval_overlap_tc_program(), interval_pairs_relation(13, count=4)
            ),
        }[case]
        plain = engine(program, db)
        planned = engine(program, db, planner=QueryPlanner(mode="heuristic"))
        assert planned.reached_fixpoint and planned.rounds == plain.rounds
        for name in program.idb:
            assert planned[name].equivalent(plain[name]), name
