"""C-CALC with fixpoint and while (Theorem 5.6).

The paper extends C-CALC with fixpoint and while constructs "similarly
to [KKR90, GV91]" and shows ``C-CALC_i + fixpoint = H_i-TIME``.  This
module implements the *inflationary fixpoint* operator over the flat
fragment:

    fixpoint(S/k, phi)  --  iterate  S := S union { x | phi(S, x) }

where ``phi`` is a C-CALC formula referring to the k-ary relation
variable ``S`` through an ordinary relation atom.  Each iteration
evaluates ``phi`` under the active-domain semantics with the current
``S`` injected as a database relation; the iteration terminates because
the sequence is inflationary and confined to the cells of the input
decomposition.

``C-CALC_0 + fixpoint`` already expresses transitive closure (not FO);
experiment E10 demonstrates the theorem's flavor by measuring it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from repro.cobjects.active_domain import ActiveDomain
from repro.cobjects.calculus import CFormula, evaluate_ccalc
from repro.core.database import Database
from repro.core.relation import Relation
from repro.core.theory import DENSE_ORDER
from repro.datalog.engine import check_on_budget, resolve_guard, run_rounds
from repro.errors import DatalogError
from repro.obs.trace import span
from repro.runtime.budget import Budget
from repro.runtime.guard import EvaluationGuard

__all__ = ["FixpointQuery", "PartialRelation", "evaluate_fixpoint"]


class PartialRelation(Relation):
    """A truncated iteration result: the relation computed so far,
    tagged with what the budget cut.

    Behaves as an ordinary :class:`Relation` everywhere (same schema,
    same algebra); ``reached_fixpoint`` is always ``False``, ``rounds``
    counts the completed rounds, and ``cut`` names the budget that
    tripped — the same tagging the Datalog engines put on a partial
    :class:`~repro.datalog.engine.FixpointResult`.
    """

    __slots__ = ("reached_fixpoint", "rounds", "cut")

    def __init__(self, relation: Relation, rounds: int, cut: str) -> None:
        super().__init__(relation.theory, relation.schema, relation.tuples)
        self.reached_fixpoint = False
        self.rounds = rounds
        self.cut = cut


@dataclass
class FixpointQuery:
    """An inflationary fixpoint ``S := S union {x | phi(S, x)}``.

    ``variables`` lists the point variables of the head (the tuple
    collected each round); ``formula`` may mention the relation
    variable by ``name`` and any database relations.
    """

    name: str
    variables: Tuple[str, ...]
    formula: CFormula

    @property
    def arity(self) -> int:
        return len(self.variables)


def stage(
    query,
    current: Relation,
    database: Database,
    extra_constants: Iterable[Fraction],
    adom: ActiveDomain,
) -> Relation:
    """``{x | phi(S, x)}`` for a fixpoint or while ``query``, with its
    relation variable ``S`` bound to ``current``: one round's relation."""
    schema = tuple(query.variables)
    working = database.copy()
    working[query.name] = current
    derived = evaluate_ccalc(query.formula, working, extra_constants, adom)
    missing = [v for v in schema if v not in derived.schema]
    if missing:
        derived = derived.extend(tuple(derived.schema) + tuple(missing))
    projected = derived.project(tuple(sorted(schema)))
    return Relation(DENSE_ORDER, schema, [t.reorder(schema) for t in projected.tuples])


def evaluate_fixpoint(
    query: FixpointQuery,
    database: Database,
    extra_constants: Iterable[Fraction] = (),
    max_rounds: Optional[int] = None,
    *,
    budget: Optional[Budget] = None,
    guard: Optional[EvaluationGuard] = None,
    on_budget: str = "raise",
) -> Relation:
    """Run the inflationary fixpoint to convergence.

    Returns the final value of the relation variable.  The active
    domain is fixed once, from the input database plus
    ``extra_constants`` (iterations add no new constants, mirroring the
    closed-form property of the dense-order engine).

    Non-convergence within ``max_rounds`` (or the budget) is reported
    like every other fixpoint engine, through the shared round protocol
    (:func:`~repro.datalog.engine.run_rounds`): raise
    :class:`~repro.runtime.budget.RoundLimitExceeded` (an
    :class:`EvaluationError`) by default, or return the sound partial
    state as a tagged :class:`PartialRelation` under
    ``on_budget="partial"``.
    """
    check_on_budget(on_budget)
    guard = resolve_guard(guard, budget)
    if query.name in database:
        raise DatalogError(
            f"relation variable {query.name!r} clashes with a stored relation"
        )
    adom = ActiveDomain(database, extra_constants)
    current = Relation.empty(tuple(query.variables), DENSE_ORDER)

    def step(_round: int, traced: bool):
        nonlocal current
        grown = current.union(
            stage(query, current, database, extra_constants, adom)
        ).simplify(absorbed=len(current))
        # syntactic stagnation of canonical tuples is a sound fixpoint
        # test for inflationary iteration (see repro.datalog.engine)
        old, new = frozenset(current.tuples), frozenset(grown.tuples)
        if new != old:
            current = grown
        return new != old, {"delta_tuples": len(new - old)} if traced else None

    with guard if guard is not None else contextlib.nullcontext(), span(
        "ccalc.fixpoint", relvar=query.name, arity=query.arity
    ):
        rounds, cut = run_rounds(
            "ccalc.fixpoint", "ccalc.fixpoint.round", step,
            guard=guard, on_budget=on_budget, max_rounds=max_rounds,
        )
    return current if cut is None else PartialRelation(current, rounds, cut)
