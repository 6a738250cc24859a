"""Tests for semi-naive evaluation (equivalence with the naive engine)."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import lt
from repro.core.database import Database
from repro.core.relation import Relation
from repro.datalog.ast import Program, cons, negated, pred, rule
from repro.datalog.engine import evaluate_program
from repro.datalog.seminaive import evaluate_seminaive
from repro.lang import parse_program
from repro.queries.library import (
    interval_overlap_tc_program,
    reachability_program,
    transitive_closure_program,
)
from repro.workloads.generators import (
    interval_pairs_relation,
    path_graph,
    point_set,
    random_finite_graph,
)


def same_idb(program, naive, seminaive):
    for name in program.idb:
        if not naive[name].equivalent(seminaive[name]):
            return False
    return True


class TestEquivalence:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_transitive_closure(self, n):
        db = path_graph(n)
        program = transitive_closure_program()
        naive = evaluate_program(program, db)
        fast = evaluate_seminaive(program, db)
        assert fast.reached_fixpoint
        assert same_idb(program, naive, fast)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        db = random_finite_graph(seed, vertex_count=5, edge_probability=0.4)
        program = transitive_closure_program()
        naive = evaluate_program(program, db)
        fast = evaluate_seminaive(program, db)
        assert same_idb(program, naive, fast)

    def test_reachability(self):
        db = path_graph(5)
        db["Src"] = Relation.from_points(("x",), [(0,)])
        program = reachability_program()
        naive = evaluate_program(program, db)
        fast = evaluate_seminaive(program, db)
        assert same_idb(program, naive, fast)

    def test_constraint_recursion(self):
        db = interval_pairs_relation(13, count=4)
        program = interval_overlap_tc_program()
        naive = evaluate_program(program, db)
        fast = evaluate_seminaive(program, db)
        assert same_idb(program, naive, fast)

    def test_negation_falls_back_correctly(self):
        """Rules negating IDB predicates evaluate fully each round --
        semantics must match the naive engine exactly, staging included."""
        db = point_set(3)
        program = Program(
            [
                rule("stage1", []),
                rule("stage2", [], pred("stage1")),
                rule(
                    "smaller",
                    ["x"],
                    pred("S", "x"),
                    pred("S", "y"),
                    cons(lt("y", "x")),
                ),
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
        naive = evaluate_program(program, db)
        fast = evaluate_seminaive(program, db)
        assert same_idb(program, naive, fast)
        assert fast["minimum"].contains_point([0])
        assert not fast["minimum"].contains_point([1])

    def test_delta_name_is_not_captured(self):
        """A stored relation named like a delta (``__delta_tc``) is read
        as itself, not overwritten by the last round's additions."""
        program = parse_program(
            "tc(x, y) :- E(x, y).\ntc(x, z) :- tc(x, y), __delta_tc(y, z).\n"
        )
        db = Database({
            "E": Relation.from_points(("x", "y"), [(0, 1), (5, 6)]),
            "__delta_tc": Relation.from_points(("x", "y"), [(1, 2), (2, 3)]),
        })
        naive = evaluate_program(program, db)
        fast = evaluate_seminaive(program, db)
        assert same_idb(program, naive, fast)
        assert fast["tc"].contains_point([0, 3])


class TestPerformance:
    def test_seminaive_does_less_work_on_long_paths(self):
        """On a long path, semi-naive must not be slower (and is
        usually faster: deltas shrink the join fan-in)."""
        db = path_graph(10)
        program = transitive_closure_program()
        t0 = time.perf_counter()
        evaluate_program(program, db)
        naive_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        evaluate_seminaive(program, db)
        fast_time = time.perf_counter() - t0
        assert fast_time < naive_time * 1.5  # generous: no regression


class TestGuards:
    def test_missing_edb(self):
        program = transitive_closure_program()
        from repro.errors import DatalogError

        with pytest.raises(DatalogError):
            evaluate_seminaive(program, Database())

    def test_max_rounds(self):
        from repro.runtime.budget import RoundLimitExceeded

        db = path_graph(6)
        with pytest.raises(RoundLimitExceeded):
            evaluate_seminaive(transitive_closure_program(), db, max_rounds=1)
        result = evaluate_seminaive(
            transitive_closure_program(), db, max_rounds=1, on_budget="partial"
        )
        assert not result.reached_fixpoint
        assert result.cut is not None
