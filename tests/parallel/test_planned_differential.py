"""Differential suite for the planner running inside the worker pool.

``--optimize heuristic --parallel`` runs the rule-engine-rewritten
plan inside an activated pool, so every planned Join/Project/Absorb
whose input reaches the pool's floor shards.  Every worker count in
{1, 2, 4} is pinned twice:

* **semantic equivalence** — the planned result inside the pool
  denotes the same pointset as the plain serial evaluator's;
* **guard parity** — the same planner run without a pool walks the
  *same* plan, so a guard must report identical relation-level
  counters, materialized tuples, and completed rounds on both sides.
  (Parity against the unplanned evaluator is deliberately not asserted:
  executing fewer/cheaper operator calls than the naive evaluation
  order is exactly what the optimizer is for.)
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.evaluator import evaluate
from repro.core.physical import QueryPlanner
from repro.datalog.engine import evaluate_program
from repro.encoding.cells import relations_equivalent
from repro.queries.library import transitive_closure_program
from repro.runtime.guard import EvaluationGuard

from tests.parallel.oracle import WORKER_COUNTS, guard_totals, make_context
from tests.parallel.test_differential import _edge_db, small_digraphs
from tests.strategies import formulas

_CONTEXTS = {}


def _context(workers):
    if workers not in _CONTEXTS:
        _CONTEXTS[workers] = make_context(workers)
    return _CONTEXTS[workers]


@pytest.fixture(scope="module", autouse=True)
def _close_contexts():
    yield
    while _CONTEXTS:
        _CONTEXTS.popitem()[1].close()


def check_fo_planned(formula, database=None, planner=None, ctx=None):
    """Assert planner.run == evaluate (semantics), inside ``ctx`` when
    one is given, and that the same planner mode without a pool agrees
    on guard accounting."""
    serial = evaluate(formula, database)
    theory = database.theory if database is not None else serial.theory
    baseline_guard = EvaluationGuard()
    baseline = QueryPlanner(mode=planner.mode).run(
        formula, database, theory, guard=baseline_guard
    )
    planned_guard = EvaluationGuard()
    with ctx if ctx is not None else contextlib.nullcontext():
        planned = planner.run(formula, database, theory, guard=planned_guard)
    assert serial.schema == planned.schema
    assert relations_equivalent(serial, planned), (
        f"planned FO result diverged from serial for {formula}:\n"
        f"serial:\n{serial.pretty()}\nplanned:\n{planned.pretty()}"
    )
    assert relations_equivalent(baseline, planned)
    assert guard_totals(baseline_guard) == guard_totals(planned_guard), (
        f"guard accounting diverged for {formula}: "
        f"{guard_totals(baseline_guard)} != {guard_totals(planned_guard)}"
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestPlannedDifferential:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(formula=formulas())
    def test_fo_formulas(self, workers, formula):
        check_fo_planned(
            formula, planner=QueryPlanner(mode="heuristic"),
            ctx=_context(workers),
        )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(edges=small_digraphs())
    def test_datalog_rule_bodies_through_the_planner(self, workers, edges):
        program = transitive_closure_program()
        db = _edge_db(edges)
        serial = evaluate_program(program, db)
        baseline_guard = EvaluationGuard()
        baseline = evaluate_program(
            program, db, guard=baseline_guard,
            planner=QueryPlanner(mode="heuristic"),
        )
        planned_guard = EvaluationGuard()
        planned = evaluate_program(
            program, db, guard=planned_guard,
            context=_context(workers),
            planner=QueryPlanner(mode="heuristic"),
        )
        assert serial.rounds == planned.rounds == baseline.rounds
        assert serial.reached_fixpoint == planned.reached_fixpoint
        for name in program.idb:
            assert relations_equivalent(serial[name], planned[name]), (
                f"planned IDB {name!r} diverged from serial:\n"
                f"serial:\n{serial[name].pretty()}\n"
                f"planned:\n{planned[name].pretty()}"
            )
        assert guard_totals(baseline_guard) == guard_totals(planned_guard)


class TestDefaultModelEquivalence:
    """Without a pool, both accepted planner modes must agree with the
    evaluator too (``"cost"`` is a synonym of ``"heuristic"``)."""

    @settings(max_examples=25, deadline=None)
    @given(formula=formulas())
    def test_cost_mode_without_context(self, formula):
        check_fo_planned(formula, planner=QueryPlanner(mode="cost"))

    @settings(max_examples=25, deadline=None)
    @given(formula=formulas())
    def test_heuristic_mode(self, formula):
        check_fo_planned(formula, planner=QueryPlanner(mode="heuristic"))
