"""Unit tests for EvaluationGuard: checkpoints, clock, activation."""

import gc
import weakref

import pytest

from repro.core.atoms import lt
from repro.core.relation import Relation
from repro.core.theory import DENSE_ORDER
from repro.datalog.engine import evaluate_program
from repro.perf import reset_kernel_cache
from repro.queries.library import transitive_closure_program
from repro.runtime.budget import (
    AtomLimitExceeded,
    Budget,
    BudgetExceeded,
    DeadlineExceeded,
    DepthLimitExceeded,
    EvaluationCancelled,
    RoundLimitExceeded,
    TupleLimitExceeded,
)
from repro.runtime.guard import EvaluationGuard, active_guard
from repro.workloads.generators import path_graph


class FakeClock:
    """A manually advanced monotonic clock for deterministic deadlines."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


class TestDeadline:
    def test_tick_before_deadline_passes(self, clock):
        guard = EvaluationGuard(Budget(deadline_seconds=1.0), clock=clock)
        clock.advance(0.5)
        guard.tick("site")  # no raise

    def test_tick_after_deadline_raises(self, clock):
        guard = EvaluationGuard(Budget(deadline_seconds=1.0), clock=clock)
        clock.advance(1.5)
        with pytest.raises(DeadlineExceeded) as info:
            guard.tick("relation.complement")
        assert info.value.site == "relation.complement"
        assert info.value.elapsed == pytest.approx(1.5)

    def test_remaining_seconds(self, clock):
        guard = EvaluationGuard(Budget(deadline_seconds=2.0), clock=clock)
        clock.advance(0.5)
        assert guard.remaining_seconds() == pytest.approx(1.5)
        assert EvaluationGuard(clock=clock).remaining_seconds() is None

    def test_no_deadline_never_trips(self, clock):
        guard = EvaluationGuard(clock=clock)
        clock.advance(1e9)
        guard.tick()


class TestTupleBudget:
    def test_cumulative_charge(self):
        guard = EvaluationGuard(Budget(max_tuples=5))
        guard.on_tuples(3, "relation.join")
        with pytest.raises(TupleLimitExceeded) as info:
            guard.on_tuples(3, "relation.join")
        assert info.value.tuples == 6
        assert info.value.limit == 5

    def test_atom_cap_per_relation(self):
        guard = EvaluationGuard(Budget(max_atoms_per_relation=1))
        fat = Relation.from_atoms(
            ("x",), [[lt(0, "x"), lt("x", 1)]], DENSE_ORDER
        )
        with pytest.raises(AtomLimitExceeded):
            guard.check_atoms(fat, "relation.complement")

    def test_charge_relation_counts_tuples_and_atoms(self):
        guard = EvaluationGuard(Budget(max_tuples=100, max_atoms_per_relation=100))
        r = Relation.from_atoms(("x",), [[lt(0, "x")]], DENSE_ORDER)
        guard.charge_relation(r, "relation.join")
        assert guard.tuples_materialized == 1


class TestRoundsAndDepth:
    def test_round_limit_trips_before_the_over_budget_round(self):
        guard = EvaluationGuard(Budget(max_rounds=2))
        guard.on_round("datalog.round")
        guard.on_round("datalog.round")
        with pytest.raises(RoundLimitExceeded) as info:
            guard.on_round("datalog.round")
        # the failed round did no work: diagnostics report 2 completed
        assert info.value.rounds == 2
        assert guard.rounds_completed == 2

    def test_depth_limit(self):
        guard = EvaluationGuard(Budget(max_depth=2))
        guard.enter_depth("evaluator.eval")
        guard.enter_depth("evaluator.eval")
        with pytest.raises(DepthLimitExceeded):
            guard.enter_depth("evaluator.eval")
        guard.exit_depth()
        guard.exit_depth()

    def test_max_depth_seen_tracks_high_water(self):
        guard = EvaluationGuard()
        guard.enter_depth()
        guard.enter_depth()
        guard.exit_depth()
        guard.exit_depth()
        assert guard.max_depth_seen == 2
        assert guard.depth == 0


class TestCancellation:
    def test_cancel_trips_next_tick(self):
        guard = EvaluationGuard()
        guard.tick()
        guard.cancel()
        with pytest.raises(EvaluationCancelled):
            guard.tick("evaluator.eval")


class TestActivation:
    def test_context_manager_sets_ambient_guard(self):
        guard = EvaluationGuard()
        assert active_guard() is None
        with guard:
            assert active_guard() is guard
        assert active_guard() is None

    def test_nesting_restores_outer(self):
        outer, inner = EvaluationGuard(), EvaluationGuard()
        with outer:
            with inner:
                assert active_guard() is inner
            assert active_guard() is outer

    def test_reentrant_activation(self):
        guard = EvaluationGuard()
        with guard:
            with guard:
                assert active_guard() is guard
            assert active_guard() is guard


class TestStats:
    def test_counters_and_snapshot(self):
        guard = EvaluationGuard()
        guard.note("relation.join")
        guard.note("relation.join")
        guard.note("qe", 5)
        guard.on_tuples(3)
        guard.on_round("datalog.round")
        snapshot = guard.stats()
        assert snapshot["sites"]["relation.join"] == 2
        assert snapshot["sites"]["qe"] == 5
        assert snapshot["tuples_materialized"] == 3
        assert snapshot["rounds_completed"] == 1
        assert snapshot["ticks"] >= 1


def _aborted_transitive_closure():
    """Abort TC over a 40-vertex path on its round budget, drop the
    error, and return only a weak reference to one input tuple."""
    database = path_graph(40)
    probe = weakref.ref(database["E"].tuples[0])
    try:
        with EvaluationGuard(Budget(max_rounds=30)) as guard:
            evaluate_program(
                transitive_closure_program(), database, guard=guard
            )
    except BudgetExceeded:
        pass
    else:  # pragma: no cover - the budget is sized to trip
        raise AssertionError("the round budget did not trip")
    return probe


class TestAbortKeepsNothingAlive:
    def test_aborted_evaluation_releases_its_input(self):
        probe = _aborted_transitive_closure()
        # the operation memo holds interned tuples strongly
        reset_kernel_cache()
        gc.collect()
        assert probe() is None
