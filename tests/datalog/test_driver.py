"""The one Datalog driver behind the naive, semi-naive and stratified
engines: a cut anywhere in a round returns the last completed round,
semi-naive computes the naive stages round for round, and the planner
changes no engine's answer."""

import pytest
from hypothesis import given, settings

from repro.core.atoms import lt
from repro.core.database import Database
from repro.core.physical import QueryPlanner
from repro.datalog.ast import Program, cons, negated, pred, rule
from repro.datalog.engine import evaluate_program
from repro.datalog.seminaive import evaluate_seminaive
from repro.datalog.stratified import evaluate_stratified
from repro.lang import parse_program
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
        assert_same_stages(transitive_closure_program(), db)
        assert_same_stages(parse_program(
            "tc(x, y) :- E(y, x).\ntc(x, z) :- tc(x, y), E(z, y).\n"
        ), db)


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
