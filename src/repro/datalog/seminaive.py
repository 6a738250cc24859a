"""Semi-naive evaluation of Datalog(not) over constraint relations.

The naive engine (:mod:`repro.datalog.engine`) re-derives every fact
every round.  Semi-naive evaluation is the classical fix: a rule can
only produce *new* facts in round ``i`` if at least one of its positive
IDB literals is matched against a tuple first derived in round
``i - 1``, so each rule is evaluated once per positive-IDB position
with that position restricted to the previous round's *delta*.

Constraint-database twist: "new" is a semantic notion here.  Deltas are
computed per generalized tuple (tuples whose canonical form was not in
the previous representation), which over-approximates semantic novelty
-- sound, still a large win on recursion like transitive closure.

Rules with negated IDB literals (or no positive IDB literal at all, or
head variables unconstrained by the body) fall back to full evaluation
each round: inflationary negation is non-monotone, so delta reasoning
does not apply to them.

``evaluate_seminaive`` is the naive engine's driver
(:func:`~repro.datalog.engine.run_program`) with deltas on, a drop-in
replacement for :func:`~repro.datalog.engine.evaluate_program`,
equivalence-tested against it stage by stage.
"""

from __future__ import annotations

from typing import Optional

from repro.core.database import Database
from repro.datalog.ast import Program
from repro.datalog.engine import FixpointResult, run_program
from repro.runtime.budget import Budget
from repro.runtime.guard import EvaluationGuard

__all__ = ["evaluate_seminaive"]


def evaluate_seminaive(
    program: Program,
    database: Database,
    max_rounds: Optional[int] = None,
    *,
    budget: Optional[Budget] = None,
    guard: Optional[EvaluationGuard] = None,
    on_budget: str = "raise",
    context=None,
    planner=None,
) -> FixpointResult:
    """Inflationary fixpoint via semi-naive evaluation.

    Same result as :func:`~repro.datalog.engine.evaluate_program`
    (the fixpoint is unique; each stage is equivalent to the naive one,
    though a round count may differ when a naive round re-derives
    covered facts in a new representation), and the same options:
    budgets (``on_budget="raise"`` raises on exhaustion, ``"partial"``
    returns the last completed round tagged with what was cut),
    ``context`` (an :class:`~repro.parallel.context.ExecutionContext`
    activated for the run) and ``planner`` (every rule-body evaluation,
    delta variants included, planned by a
    :class:`~repro.core.physical.QueryPlanner`).
    """
    return run_program(
        program, database, "datalog.seminaive", "seminaive.round", deltas=True,
        max_rounds=max_rounds, budget=budget, guard=guard, on_budget=on_budget,
        context=context, planner=planner,
    )
