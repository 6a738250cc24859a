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
canned corpus under both shard strategies and prints a summary.

The pool kind comes from ``REPRO_DIFF_POOL`` (default ``thread`` —
fast to spin up everywhere; the CI differential job sets ``process``
to exercise pickled shard payloads and the owner-pid recursion guard).

Chaos mode: ``REPRO_CHAOS=1`` arms a deterministic
:class:`~repro.runtime.faults.FaultRegistry` around every *parallel*
run — transient failures and a worker crash at each shard-kernel site
(fired inside the workers via the cross-process chaos harness; see
:mod:`repro.parallel.worker`) — and then asserts the *same* semantic
equivalence and guard parity.  The resilience layer must absorb every
injected failure without changing a single answer or a single guard
counter; ``REPRO_CHAOS_SEED`` varies the (still deterministic)
schedule.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterable, Optional, Tuple

from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.relation import Relation
from repro.datalog.engine import evaluate_program
from repro.encoding.cells import relations_equivalent
from repro.parallel import ExecutionContext
from repro.runtime.faults import FaultRegistry, TransientEvaluationError
from repro.runtime.guard import EvaluationGuard

__all__ = [
    "make_context",
    "guard_totals",
    "check_fo",
    "check_datalog",
    "chaos_registry",
    "CHAOS",
    "WORKER_COUNTS",
    "STRATEGIES",
]

#: the differential matrix of the acceptance criteria
WORKER_COUNTS = (1, 2, 4)
STRATEGIES = ("hash", "cell")

#: chaos mode: inject worker failures around every parallel run
CHAOS = os.environ.get("REPRO_CHAOS") == "1"

#: the shard-kernel fault sites the chaos schedule arms
_WORKER_SITES = ("worker.join_shard", "worker.project_shard",
                 "worker.absorb_shard")


def chaos_registry(seed: Optional[int] = None) -> FaultRegistry:
    """The deterministic chaos schedule: per shard-kernel site, two
    transient failures (exercises retry + backoff), one shard delay
    (a slow worker, not a failed one), and one hard crash on the fifth
    hit (exercises pool restart under a process pool, the retryable
    :class:`WorkerCrashError` under threads).

    The parent-side fault budgets are pre-exhausted after arming:
    :meth:`export_spec` ships fault *configuration*, so the rehydrated
    worker-side copies still fire with full budgets, while the ambient
    registry the quarantine path fires against is already spent — a
    quarantined shard always recovers here.  (Every restarted worker
    process rehydrates a fresh budget, so under a process pool retries
    alone cannot be guaranteed to converge; quarantine is the designed
    backstop, and the oracle pins that it preserves semantics.  The
    quarantine-*failure* paths are pinned separately by
    ``tests/parallel/test_resilience.py``.)"""
    if seed is None:
        seed = int(os.environ.get("REPRO_CHAOS_SEED", "1234"))
    registry = FaultRegistry(seed=seed)
    for site in _WORKER_SITES:
        registry.inject(
            site, error=TransientEvaluationError(f"chaos at {site}"), times=2
        )
        registry.inject(site, delay=0.01, after=2, times=1)
        registry.inject(site, crash=True, after=4, times=1)
    with registry:
        for site in _WORKER_SITES:
            for _ in range(5):
                try:
                    registry.fire(site)
                except Exception:
                    pass
    return registry


def _chaos() -> contextlib.AbstractContextManager:
    """An armed registry when chaos mode is on, else a no-op."""
    return chaos_registry() if CHAOS else contextlib.nullcontext()


def make_context(workers: int, strategy: str) -> ExecutionContext:
    """A context for differential runs: tiny ``min_tuples`` so even the
    small relations Hypothesis generates actually take the shard path."""
    pool = os.environ.get("REPRO_DIFF_POOL", "thread")
    resilience = None
    if CHAOS:
        # chaos-tolerant policy: every restarted worker process
        # rehydrates a fresh fault budget, so a shard can catch more
        # failures than the default 2 retries; the oracle pins that
        # *recovery* preserves semantics, while the quarantine-failure
        # paths are pinned by tests/parallel/test_resilience.py
        from repro.parallel import ResiliencePolicy

        resilience = ResiliencePolicy(
            max_retries=6, backoff_base=0.005, max_pool_restarts=3
        )
    return ExecutionContext(
        workers=workers, shard_strategy=strategy, pool=pool, min_tuples=2,
        resilience=resilience,
    )


def guard_totals(guard: EvaluationGuard) -> Tuple[Dict[str, int], int, int]:
    """The guard's work accounting (counters, tuples, rounds)."""
    return (dict(guard.counters), guard.tuples_materialized, guard.rounds_completed)


def check_fo(formula, database: Optional[Database] = None, ctx=None) -> None:
    """Assert serial == parallel for one FO formula."""
    serial_guard = EvaluationGuard()
    serial = evaluate(formula, database, guard=serial_guard)
    parallel_guard = EvaluationGuard()
    with _chaos():
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
    with _chaos():
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
    recovered = 0
    for strategy in STRATEGIES:
        for workers in WORKER_COUNTS:
            ctx = make_context(workers, strategy)
            try:
                for label, runner in _corpus():
                    runner(ctx)
                    ran += 1
            finally:
                recovered += ctx.retries + ctx.quarantined + ctx.pool_restarts
                ctx.close()
    mode = "chaos" if CHAOS else "clean"
    print(f"oracle[{mode}]: {ran} workload runs agreed with the serial "
          f"reference (strategies={STRATEGIES}, workers={WORKER_COUNTS})")
    if CHAOS:
        # the schedule must have actually hurt something: a chaos run
        # with zero recoveries means the harness never fired
        assert recovered > 0, "chaos mode injected no recoverable failures"
        print(f"oracle[chaos]: {recovered} recovery action(s) absorbed "
              f"with byte-identical results and guard parity")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
