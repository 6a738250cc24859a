"""Differential-testing oracle: parallel evaluation vs the serial reference.

Serial evaluation is the reference semantics; a parallel backend is
exactly the kind of change that silently diverges from it.  The oracle
therefore pins every workload twice:

* **semantic equivalence** — the parallel result denotes the same
  pointset as the serial result, decided by the existing checker
  (:func:`repro.encoding.cells.relations_equivalent`: cell-signature
  canonical forms with an exact containment fallback);
* **guard parity** — an :class:`EvaluationGuard` run under the
  parallel backend reports the *same* per-site counters, materialized
  tuples, and completed rounds as the serial run, so budgets keep
  meaning the same thing (tick counts are excluded: they are pure
  checkpoint frequency, not work accounting).

The helpers are used by the Hypothesis differential suite
(``test_differential.py``); ``python tests/parallel/oracle.py`` runs a
canned corpus at every worker count and prints a summary.

The pool kind comes from ``REPRO_DIFF_POOL`` (default ``thread`` —
fast to spin up everywhere; the CI differential job sets ``process``
to exercise pickled shard payloads and the owner-pid recursion guard).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.relation import Relation
from repro.datalog.engine import evaluate_program
from repro.encoding.cells import relations_equivalent
from repro.parallel import ExecutionContext
from repro.runtime.guard import EvaluationGuard

__all__ = [
    "make_context",
    "guard_totals",
    "check_fo",
    "check_datalog",
    "WORKER_COUNTS",
]

#: the worker counts every differential check runs at
WORKER_COUNTS = (1, 2, 4)


def make_context(workers: int) -> ExecutionContext:
    """A context for differential runs: tiny ``min_tuples`` so even the
    small relations Hypothesis generates actually take the shard path."""
    pool = os.environ.get("REPRO_DIFF_POOL", "thread")
    return ExecutionContext(workers=workers, pool=pool, min_tuples=2)


def guard_totals(guard: EvaluationGuard) -> Tuple[Dict[str, int], int, int]:
    """The guard's work accounting (counters, tuples, rounds)."""
    return (dict(guard.counters), guard.tuples_materialized, guard.rounds_completed)


def check_fo(formula, database: Optional[Database] = None, ctx=None) -> None:
    """Assert serial == parallel for one FO formula."""
    serial_guard = EvaluationGuard()
    serial = evaluate(formula, database, guard=serial_guard)
    parallel_guard = EvaluationGuard()
    parallel = evaluate(formula, database, guard=parallel_guard, context=ctx)
    assert serial.schema == parallel.schema
    assert relations_equivalent(serial, parallel), (
        f"parallel FO result diverged from serial for {formula}:\n"
        f"serial:\n{serial.pretty()}\nparallel:\n{parallel.pretty()}"
    )
    assert guard_totals(serial_guard) == guard_totals(parallel_guard), (
        f"guard accounting diverged for {formula}: "
        f"{guard_totals(serial_guard)} != {guard_totals(parallel_guard)}"
    )


def check_datalog(program, database: Database, ctx=None, engine=evaluate_program) -> None:
    """Assert serial == parallel for one Datalog program (any engine)."""
    serial_guard = EvaluationGuard()
    serial = engine(program, database, guard=serial_guard)
    parallel_guard = EvaluationGuard()
    parallel = engine(program, database, guard=parallel_guard, context=ctx)
    assert serial.rounds == parallel.rounds
    assert serial.reached_fixpoint == parallel.reached_fixpoint
    for name in program.idb:
        assert relations_equivalent(serial[name], parallel[name]), (
            f"parallel IDB {name!r} diverged from serial:\n"
            f"serial:\n{serial[name].pretty()}\nparallel:\n{parallel[name].pretty()}"
        )
    assert guard_totals(serial_guard) == guard_totals(parallel_guard)


# --------------------------------------------------------------- canned corpus


def _corpus():
    """(label, runner) pairs covering joins, QE, negation, fixpoints."""
    from repro.lang import parse_formula
    from repro.queries.library import transitive_closure_program

    edges = [(i, i + 1) for i in range(8)] + [(0, 4), (2, 7)]
    db = Database({"E": Relation.from_points(("x", "y"), edges)})

    cases = [
        ("two-hop join", lambda ctx: check_fo(
            parse_formula("exists y (E(x, y) and E(y, z))"), db, ctx)),
        ("join + negation", lambda ctx: check_fo(
            parse_formula("E(x, y) and not (x < 3)"), db, ctx)),
        ("quantifier elimination", lambda ctx: check_fo(
            parse_formula("exists y (E(x, y) and y < 6)"), db, ctx)),
        ("transitive closure", lambda ctx: check_datalog(
            transitive_closure_program(), db, ctx)),
        # regression: _complement charges the guard per input tuple and
        # early-exits, so its accounting used to depend on tuple order —
        # which shard merges permute.  This formula's final complement
        # sees a merged (reordered) relation and diverged by one
        # tuples_materialized at workers=4 before _complement pinned a
        # canonical iteration order.
        ("order-sensitive complement accounting", lambda ctx: check_fo(
            parse_formula("forall x (0 < v and 1 < y and x < 0)"), None, ctx)),
    ]
    return cases


def main() -> int:
    ran = 0
    for workers in WORKER_COUNTS:
        ctx = make_context(workers)
        try:
            for label, runner in _corpus():
                runner(ctx)
                ran += 1
        finally:
            ctx.close()
    print(f"oracle: {ran} workload runs agreed with the serial "
          f"reference (workers={WORKER_COUNTS})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
