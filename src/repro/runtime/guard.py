"""Budget enforcement: cheap checkpoints threaded through evaluation.

An :class:`EvaluationGuard` turns a declarative
:class:`~repro.runtime.budget.Budget` into enforcement.  The guarded
code — the closed-form evaluator, the expensive relation-algebra
operations, and the fixpoint engines — calls back at checkpoints:

* :meth:`EvaluationGuard.tick` — deadline and cancellation check, one
  clock read; placed inside the loops that can run long;
* :meth:`EvaluationGuard.on_tuples` — charges materialized generalized
  tuples against the tuple budget;
* :meth:`EvaluationGuard.charge_relation` — charges one materialized
  relation (tuples plus the per-relation atom cap);
* :meth:`EvaluationGuard.on_round` — counts a fixpoint round against
  the round budget;
* :meth:`EvaluationGuard.enter_depth` / :meth:`exit_depth` — bracket
  formula recursion against the depth budget.

Per-site counters (``joins``, ``complements``, ``projections``,
``qe``, ``rounds``...) accumulate on every checkpoint, so a finished —
or aborted — evaluation can report where the work went
(:meth:`EvaluationGuard.stats`).

Guards reach the relation algebra through a :mod:`contextvars` slot:
:func:`evaluate` and the fixpoint engines *activate* their guard
(``with guard: ...``) and :func:`active_guard` hands it to
``Relation.complement`` / ``join`` / ``project`` without widening
every algebra signature.  When no guard is active the checkpoint cost
is a single context-variable read.

Cancellation is cooperative: :meth:`EvaluationGuard.cancel` may be
called from another thread (or a fault hook); the next ``tick`` raises
:class:`~repro.runtime.budget.EvaluationCancelled`.

Observability: when a guard deactivates (outermost ``__exit__``) while
a :class:`~repro.obs.trace.Tracer` is active, the per-site counters
and totals accumulated *during that activation* are merged into the
tracer's metrics under the ``guard.`` prefix — guard checkpoints and
trace metrics share one collection surface without a second code path
through the algebra.

An aborted evaluation keeps its account: the merge above also runs
when the outermost ``__exit__`` unwinds an exception, the spans it
unwinds through carry the exception's name as their ``error``
attribute, and :func:`repro.obs.export.trace_document` embeds
:meth:`EvaluationGuard.stats` as the document's ``guard`` section.
The guard keeps no reference to the exception, so an aborted run
holds nothing alive once its caller drops the error.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Callable, Dict, Optional

from repro.obs.trace import active_tracer
from repro.runtime.budget import (
    UNLIMITED,
    AtomLimitExceeded,
    Budget,
    DeadlineExceeded,
    DepthLimitExceeded,
    EvaluationCancelled,
    RoundLimitExceeded,
    TupleLimitExceeded,
)

__all__ = ["EvaluationGuard", "active_guard", "round_limit_error"]

_ACTIVE: ContextVar[Optional["EvaluationGuard"]] = ContextVar(
    "repro_active_guard", default=None
)


def active_guard() -> Optional["EvaluationGuard"]:
    """The innermost guard activated on this context, or ``None``."""
    return _ACTIVE.get()


def round_limit_error(
    site: str,
    limit: int,
    rounds: int,
    guard: Optional["EvaluationGuard"] = None,
) -> RoundLimitExceeded:
    """A :class:`RoundLimitExceeded` with diagnostics for an engine's
    local ``max_rounds`` cut (shared by every fixpoint engine, so
    non-convergence is reported identically everywhere)."""
    return RoundLimitExceeded(
        f"fixpoint did not converge within {limit} round(s) at {site}",
        site=site,
        limit=limit,
        rounds=rounds,
        tuples=guard.tuples_materialized if guard is not None else 0,
        elapsed=guard.elapsed() if guard is not None else 0.0,
    )


class EvaluationGuard:
    """Enforces one :class:`Budget` across an evaluation.

    ``clock`` is injectable (default ``time.monotonic``) so tests can
    drive deadlines deterministically.
    """

    __slots__ = (
        "budget",
        "clock",
        "started_at",
        "deadline_at",
        "counters",
        "tuples_materialized",
        "rounds_completed",
        "depth",
        "max_depth_seen",
        "ticks",
        "cancelled",
        "_tokens",
        "_obs_snapshot",
    )

    def __init__(
        self,
        budget: Optional[Budget] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.budget = budget if budget is not None else UNLIMITED
        self.clock = clock
        self.started_at = clock()
        self.deadline_at: Optional[float] = (
            self.started_at + self.budget.deadline_seconds
            if self.budget.deadline_seconds is not None
            else None
        )
        self.counters: Dict[str, int] = {}
        self.tuples_materialized = 0
        self.rounds_completed = 0
        self.depth = 0
        self.max_depth_seen = 0
        self.ticks = 0
        self.cancelled = False
        self._tokens = []
        self._obs_snapshot: Optional[tuple] = None

    # ------------------------------------------------------------ activation

    def __enter__(self) -> "EvaluationGuard":
        self._tokens.append(_ACTIVE.set(self))
        if len(self._tokens) == 1:
            # delta snapshot: a reactivated guard must only merge what
            # this activation accumulated into the tracer metrics
            self._obs_snapshot = (
                dict(self.counters),
                self.ticks,
                self.tuples_materialized,
                self.rounds_completed,
            )
        return self

    def __exit__(self, exc_type=None, exc=None, tb=None) -> None:
        _ACTIVE.reset(self._tokens.pop())
        if not self._tokens:
            tracer = active_tracer()
            if tracer is not None:
                self._merge_into(tracer)

    def _merge_into(self, tracer) -> None:
        """Merge this activation's deltas into the tracer (``guard.*``)."""
        counters, ticks, tuples, rounds = self._obs_snapshot or ({}, 0, 0, 0)
        metrics = tracer.metrics
        for site, value in self.counters.items():
            delta = value - counters.get(site, 0)
            if delta:
                metrics.count(f"guard.{site}", delta)
        if self.ticks > ticks:
            metrics.count("guard.ticks", self.ticks - ticks)
        if self.tuples_materialized > tuples:
            metrics.count(
                "guard.tuples_materialized", self.tuples_materialized - tuples
            )
        if self.rounds_completed > rounds:
            metrics.count(
                "guard.rounds_completed", self.rounds_completed - rounds
            )

    # ------------------------------------------------------------- inspection

    def elapsed(self) -> float:
        """Wall-clock seconds since the guard was created."""
        return self.clock() - self.started_at

    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when no deadline is set)."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - self.clock()

    def stats(self) -> dict:
        """A snapshot of the per-site counters and totals."""
        return {
            "elapsed": self.elapsed(),
            "ticks": self.ticks,
            "tuples_materialized": self.tuples_materialized,
            "rounds_completed": self.rounds_completed,
            "max_depth_seen": self.max_depth_seen,
            "cancelled": self.cancelled,
            "sites": dict(self.counters),
        }

    # ------------------------------------------------------------ checkpoints

    def _raise(self, cls, message: str, site: str, limit) -> None:
        raise cls(
            message,
            site=site,
            limit=limit,
            rounds=self.rounds_completed,
            tuples=self.tuples_materialized,
            elapsed=self.elapsed(),
        )

    def cancel(self) -> None:
        """Request cooperative cancellation (effective at the next tick)."""
        self.cancelled = True

    def tick(self, site: str = "") -> None:
        """Deadline + cancellation checkpoint; cheap enough for loops."""
        self.ticks += 1
        if self.cancelled:
            self._raise(
                EvaluationCancelled, f"evaluation cancelled at {site or 'tick'}",
                site, None,
            )
        if self.deadline_at is not None and self.clock() > self.deadline_at:
            self._raise(
                DeadlineExceeded,
                f"deadline of {self.budget.deadline_seconds}s exceeded "
                f"at {site or 'tick'}",
                site,
                self.budget.deadline_seconds,
            )

    def note(self, site: str, n: int = 1) -> None:
        """Bump the per-site counter (no budget check)."""
        self.counters[site] = self.counters.get(site, 0) + n

    def on_tuples(self, n: int, site: str = "") -> None:
        """Charge ``n`` freshly materialized generalized tuples."""
        self.tuples_materialized += n
        limit = self.budget.max_tuples
        if limit is not None and self.tuples_materialized > limit:
            self._raise(
                TupleLimitExceeded,
                f"materialized {self.tuples_materialized} generalized tuples "
                f"(budget {limit}) at {site or 'on_tuples'}",
                site,
                limit,
            )

    def check_atoms(self, relation, site: str = "") -> None:
        """Enforce the per-relation atom cap on one materialized relation."""
        limit = self.budget.max_atoms_per_relation
        if limit is not None:
            atoms = sum(len(t.atoms) for t in relation.tuples)
            if atoms > limit:
                self._raise(
                    AtomLimitExceeded,
                    f"relation holds {atoms} constraint atoms "
                    f"(budget {limit} per relation) at {site or 'charge'}",
                    site,
                    limit,
                )

    def charge_relation(self, relation, site: str = "") -> None:
        """Charge one materialized relation: tuples plus the atom cap."""
        self.on_tuples(len(relation.tuples), site)
        self.check_atoms(relation, site)

    def on_round(self, site: str = "") -> int:
        """Start a fixpoint round, counting it against the round budget.

        Call at the top of each round: the round that would overrun the
        budget raises *before* doing its work, and the diagnostics
        report the rounds actually completed.
        """
        limit = self.budget.max_rounds
        if limit is not None and self.rounds_completed + 1 > limit:
            self._raise(
                RoundLimitExceeded,
                f"fixpoint did not converge within {limit} round(s) "
                f"at {site or 'on_round'}",
                site,
                limit,
            )
        self.rounds_completed += 1
        self.note("rounds")
        self.tick(site)
        return self.rounds_completed

    def enter_depth(self, site: str = "") -> None:
        """Push one level of formula recursion against the depth budget."""
        self.depth += 1
        if self.depth > self.max_depth_seen:
            self.max_depth_seen = self.depth
        limit = self.budget.max_depth
        if limit is not None and self.depth > limit:
            self._raise(
                DepthLimitExceeded,
                f"formula recursion deeper than {limit} at {site or 'enter'}",
                site,
                limit,
            )

    def exit_depth(self) -> None:
        self.depth -= 1
