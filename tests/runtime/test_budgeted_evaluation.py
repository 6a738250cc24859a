"""Acceptance tests: budgets threaded through every evaluation path.

The adversarial inputs come from :mod:`repro.workloads.generators`:
stacked complements over fragmented intervals (representation blowup)
and single-step transitive closure over long paths (round blowup).
Deadlines are driven both deterministically (injected clock advanced by
a fault hook) and against the real wall clock (one test, generous
margins).
"""

import time

import pytest

from repro.cobjects.calculus import CAnd, CExists, CRelation, COr
from repro.cobjects.fixpoint import FixpointQuery, PartialRelation, evaluate_fixpoint
from repro.cobjects.while_loop import WhileQuery, evaluate_while
from repro.core.evaluator import evaluate
from repro.core.formula import Not, rel
from repro.core.terms import as_term
from repro.datalog.engine import evaluate_program
from repro.datalog.seminaive import evaluate_seminaive
from repro.datalog.stratified import evaluate_stratified
from repro.runtime.budget import (
    Budget,
    DeadlineExceeded,
    DepthLimitExceeded,
    EvaluationCancelled,
    RoundLimitExceeded,
    TupleLimitExceeded,
)
from repro.runtime.faults import FaultRegistry
from repro.runtime.guard import EvaluationGuard
from repro.workloads.generators import (
    deep_negation_formula,
    fragmented_interval_database,
    slow_tc_workload,
)


def R(name, *args):
    return CRelation(name, tuple(as_term(a) for a in args))


def tc_step():
    return COr(
        (
            R("E", "x", "y"),
            CExists(("z",), CAnd((R("TC", "x", "z"), R("E", "z", "y")))),
        )
    )


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadlines:
    def test_deterministic_deadline_mid_evaluation(self):
        """A fault hook advances the injected clock past the deadline
        mid-formula; the very next tick aborts the evaluation."""
        clock = FakeClock()
        guard = EvaluationGuard(Budget(deadline_seconds=5.0), clock=clock)
        db = fragmented_interval_database(4)
        with FaultRegistry() as reg:
            reg.inject("relation.complement", on_fire=lambda: clock.advance(10.0))
            with pytest.raises(DeadlineExceeded) as info:
                evaluate(deep_negation_formula(2), db, guard=guard)
        assert info.value.elapsed > 5.0
        assert info.value.limit == 5.0

    def test_wall_clock_deadline_on_adversarial_negation(self):
        """The canonical acceptance case: a deep-negation formula that
        needs ~2s unguarded (1.6-2.6s over 120 fragments on a 2-core
        VM) aborts well within a 0.2s deadline."""
        db = fragmented_interval_database(120)
        guard = EvaluationGuard(Budget(deadline_seconds=0.2))
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            evaluate(deep_negation_formula(6), db, guard=guard)
        # aborted promptly: nowhere near the unguarded ~2s runtime
        assert time.monotonic() - started < 1.5

    def test_datalog_deadline_via_budget(self):
        clock = FakeClock()
        program, db = slow_tc_workload(8)
        guard = EvaluationGuard(Budget(deadline_seconds=3.0), clock=clock)
        with FaultRegistry() as reg:
            reg.inject(
                "datalog.round", after=2, on_fire=lambda: clock.advance(10.0)
            )
            with pytest.raises(DeadlineExceeded):
                evaluate_program(program, db, guard=guard)


class TestTupleLimits:
    def test_complement_trips_tuple_budget(self):
        db = fragmented_interval_database(30)
        guard = EvaluationGuard(Budget(max_tuples=25))
        with pytest.raises(TupleLimitExceeded) as info:
            evaluate(Not(rel("S", "x")), db, guard=guard)
        assert info.value.site.startswith("relation.")
        assert info.value.tuples > 25

    def test_within_budget_is_untouched(self):
        db = fragmented_interval_database(5)
        guard = EvaluationGuard(Budget(max_tuples=10_000))
        out = evaluate(Not(rel("S", "x")), db, guard=guard)
        assert out.contains_point([2])
        assert not out.contains_point([0.5])


class TestDepthLimit:
    def test_deep_formula_trips(self):
        db = fragmented_interval_database(2)
        guard = EvaluationGuard(Budget(max_depth=3))
        with pytest.raises(DepthLimitExceeded):
            evaluate(deep_negation_formula(10), db, guard=guard)

    def test_shallow_formula_passes(self):
        db = fragmented_interval_database(2)
        guard = EvaluationGuard(Budget(max_depth=10))
        evaluate(deep_negation_formula(2), db, guard=guard)


class TestCancellation:
    def test_cancel_mid_fixpoint(self):
        program, db = slow_tc_workload(8)
        guard = EvaluationGuard()
        with FaultRegistry() as reg:
            reg.inject("datalog.round", after=3, on_fire=guard.cancel)
            with pytest.raises(EvaluationCancelled):
                evaluate_program(program, db, guard=guard)


class TestPartialResults:
    """on_budget="partial" returns the last completed round, tagged."""

    def test_datalog_partial_is_tagged_and_sound(self):
        program, db = slow_tc_workload(8)
        result = evaluate_program(
            program, db, budget=Budget(max_rounds=3), on_budget="partial"
        )
        assert not result.reached_fixpoint
        assert result.rounds == 3
        assert "round" in result.cut
        # sound under-approximation: everything derived is true...
        assert result["tc"].contains_point([0, 1])
        # ...but the far reaches of the closure were cut
        assert not result["tc"].contains_point([0, 7])
        full = evaluate_program(program, db)
        assert full["tc"].contains_point([0, 7])

    def test_seminaive_partial(self):
        program, db = slow_tc_workload(8)
        result = evaluate_seminaive(
            program, db, budget=Budget(max_rounds=2), on_budget="partial"
        )
        assert not result.reached_fixpoint
        assert result.cut is not None

    def test_stratified_partial(self):
        program, db = slow_tc_workload(8)
        result = evaluate_stratified(
            program, db, budget=Budget(max_rounds=2), on_budget="partial"
        )
        assert not result.reached_fixpoint
        assert result.cut is not None

    def test_converged_results_are_untagged(self):
        program, db = slow_tc_workload(4)
        result = evaluate_program(program, db, budget=Budget(max_rounds=100))
        assert result.reached_fixpoint
        assert result.cut is None

    def test_ccalc_fixpoint_partial_relation(self):
        from repro.workloads.generators import path_graph

        db = path_graph(7)
        query = FixpointQuery("TC", ("x", "y"), tc_step())
        out = evaluate_fixpoint(
            query, db, budget=Budget(max_rounds=2), on_budget="partial"
        )
        assert isinstance(out, PartialRelation)
        assert not out.reached_fixpoint
        assert out.rounds == 2
        assert "round" in out.cut
        # behaves as an ordinary relation
        assert out.contains_point([0, 1])
        assert not out.contains_point([0, 6])

    def test_ccalc_fixpoint_raises_by_default(self):
        from repro.workloads.generators import path_graph

        db = path_graph(7)
        query = FixpointQuery("TC", ("x", "y"), tc_step())
        with pytest.raises(RoundLimitExceeded):
            evaluate_fixpoint(query, db, budget=Budget(max_rounds=2))

    def test_ccalc_while_partial_relation(self):
        from repro.workloads.generators import path_graph

        db = path_graph(7)
        query = WhileQuery("TC", ("x", "y"), tc_step())
        out = evaluate_while(query, db, max_rounds=2, on_budget="partial")
        assert isinstance(out, PartialRelation)
        assert not out.reached_fixpoint
        assert out.rounds == 2

    def test_invalid_on_budget_rejected(self):
        program, db = slow_tc_workload(3)
        with pytest.raises(ValueError):
            evaluate_program(program, db, on_budget="explode")


class TestGuardReuse:
    def test_one_guard_accumulates_across_calls(self):
        """One guard governs a whole request: budgets span evaluations."""
        db = fragmented_interval_database(10)
        guard = EvaluationGuard(Budget(max_tuples=200))
        evaluate(Not(rel("S", "x")), db, guard=guard)
        spent = guard.tuples_materialized
        assert spent > 0
        with pytest.raises(TupleLimitExceeded):
            for _ in range(10):
                evaluate(Not(rel("S", "x")), db, guard=guard)

    def test_stats_report_where_work_went(self):
        db = fragmented_interval_database(5)
        guard = EvaluationGuard()
        evaluate(Not(rel("S", "x")), db, guard=guard)
        stats = guard.stats()
        assert stats["sites"]["relation.complement"] >= 1
        assert stats["tuples_materialized"] > 0
