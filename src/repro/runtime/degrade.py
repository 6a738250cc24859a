"""Graceful degradation policies for budgeted fixpoint evaluation.

:func:`run_with_policy` wraps a Datalog¬ engine call and turns budget
exhaustion into the best answer the budget allows, instead of an
exception, according to a :class:`DegradePolicy`:

1. **transient retry** — injected/infrastructural
   :class:`~repro.runtime.faults.TransientEvaluationError` failures are
   retried up to ``retry_transient`` times (a
   :class:`~repro.errors.ShardFailedError` is not: a shard kernel is a
   pure function of its payload, so a retry would fail the same way);
2. **partial fallback** — when the budget cuts evaluation short,
   rerun truncated (``on_budget="partial"``) and return the partial
   :class:`~repro.datalog.engine.FixpointResult` with
   ``reached_fixpoint=False`` and ``cut`` describing what was cut —
   sound under inflationary semantics, where every derived fact is
   final.

The wrapper is engine-agnostic: pass ``engine=`` any of the three
Datalog¬ engines (naive, semi-naive, stratified), which share one
signature.  Every engine absorbs each round's derived tuples, so a
representation blowup has no cheaper retry.

A traced run records each attempt as its own engine span: an aborted
attempt's span carries the ``error`` attribute naming the exception
that ended it, and the partial rerun follows as a second span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.runtime.budget import Budget, BudgetExceeded
from repro.runtime.faults import TransientEvaluationError

__all__ = ["DegradePolicy", "run_with_policy"]


@dataclass(frozen=True)
class DegradePolicy:
    """What to do when a budgeted evaluation fails.

    ``retry_transient``     retries for transient failures;
    ``partial_on_budget``   degrade to a truncated partial result
                            instead of re-raising;
    ``fallback_max_rounds`` round cap for the partial rerun (default:
                            the rounds the failed attempt completed,
                            when > 0).
    """

    retry_transient: int = 1
    partial_on_budget: bool = True
    fallback_max_rounds: Optional[int] = None


def run_with_policy(
    program,
    database,
    *,
    budget: Optional[Budget] = None,
    policy: DegradePolicy = DegradePolicy(),
    engine=None,
    max_rounds: Optional[int] = None,
):
    """Evaluate ``program`` under ``budget``, degrading per ``policy``.

    Returns the engine's :class:`FixpointResult`; when degradation
    kicked in, ``reached_fixpoint`` is ``False`` and ``cut`` names what
    the budget cut.  Raises the original :class:`BudgetExceeded` when
    the policy forbids (or cannot produce) a partial answer.
    """
    if engine is None:
        from repro.datalog.engine import evaluate_program as engine

    def attempt(on_budget: str, rounds_cap: Optional[int]):
        return engine(
            program, database, max_rounds=rounds_cap, budget=budget, on_budget=on_budget
        )

    transient_left = policy.retry_transient
    while True:
        try:
            return attempt("raise", max_rounds)
        except TransientEvaluationError:
            if transient_left <= 0:
                raise
            transient_left -= 1
        except BudgetExceeded as error:
            fallback = policy.fallback_max_rounds
            if fallback is None and error.rounds > 0:
                fallback = error.rounds
            if not policy.partial_on_budget or not fallback:
                raise
            return attempt("partial", fallback)
