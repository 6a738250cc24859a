"""The while extension of C-CALC (Theorem 5.6).

``C-CALC_i + while = H_i-SPACE``: alongside the (inflationary) fixpoint
operator, the paper extends C-CALC with a *while* construct "similarly
to [KKR90, GV91]".  Unlike fixpoint, while-iteration *replaces* the
relation variable each round::

    while S changes:  S := { x | phi(S, x) }

Replacement semantics is non-monotone: the iteration may enter a cycle
and never stabilize (that is exactly why while climbs from Hi-TIME to
Hi-SPACE).  :func:`evaluate_while` detects both outcomes precisely:

* stabilization -- the canonical state repeats the *previous* state:
  return it;
* a longer cycle -- some earlier state recurs: the loop provably
  diverges; raise :class:`WhileDivergence`.

Cycle detection is exact because states are canonical cell signatures
over the fixed input constants, a finite space.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.cobjects.active_domain import ActiveDomain
from repro.cobjects.calculus import CFormula
from repro.cobjects.fixpoint import PartialRelation, stage
from repro.core.database import Database
from repro.core.relation import Relation
from repro.core.theory import DENSE_ORDER
from repro.datalog.engine import check_on_budget, resolve_guard, run_rounds
from repro.encoding.cells import CellDecomposition
from repro.errors import DatalogError, EvaluationError
from repro.obs.trace import span
from repro.runtime.budget import Budget
from repro.runtime.guard import EvaluationGuard

__all__ = ["WhileQuery", "WhileDivergence", "evaluate_while"]


class WhileDivergence(EvaluationError):
    """The while-loop entered a state cycle and cannot terminate."""


@dataclass
class WhileQuery:
    """``while S changes: S := {x | phi(S, x)}`` (replacement semantics)."""

    name: str
    variables: Tuple[str, ...]
    formula: CFormula

    @property
    def arity(self) -> int:
        return len(self.variables)


def _state_key(relation: Relation, decomposition) -> FrozenSet:
    return decomposition.signature(relation)


def _formula_constants(formula: CFormula) -> FrozenSet[Fraction]:
    """All rational constants of a C-CALC formula (atoms, set constants,
    comprehension bodies) -- the loop's states never leave the cell
    decomposition these induce together with the database constants."""
    from repro.cobjects.calculus import (
        CAnd,
        CConstraint,
        CExists,
        CForAll,
        CNot,
        COr,
        Comprehension,
        ExistsSet,
        ForAllSet,
        Member,
        MemberSet,
        SetConst,
        SetEq,
        SetTerm,
    )
    from repro.cobjects.objects import RegionObject

    out: set = set()

    def from_term(term: SetTerm) -> None:
        if isinstance(term, SetConst) and isinstance(term.value, RegionObject):
            out.update(term.value.relation.constants())
        elif isinstance(term, Comprehension):
            walk(term.body)

    def walk(node: CFormula) -> None:
        if isinstance(node, CConstraint) and not isinstance(node.atom, bool):
            out.update(node.atom.constants)
        elif isinstance(node, (CAnd, COr)):
            for s in node.subs:
                walk(s)
        elif isinstance(node, CNot):
            walk(node.sub)
        elif isinstance(node, (CExists, CForAll, ExistsSet, ForAllSet)):
            walk(node.sub)
        elif isinstance(node, Member):
            from_term(node.term)
        elif isinstance(node, MemberSet):
            from_term(node.element)
            from_term(node.term)
        elif isinstance(node, SetEq):
            from_term(node.left)
            from_term(node.right)

    walk(formula)
    return frozenset(out)


def evaluate_while(
    query: WhileQuery,
    database: Database,
    extra_constants: Iterable[Fraction] = (),
    max_rounds: Optional[int] = None,
    *,
    budget: Optional[Budget] = None,
    guard: Optional[EvaluationGuard] = None,
    on_budget: str = "raise",
) -> Relation:
    """Iterate until stabilization; raise :class:`WhileDivergence` on a
    provable cycle (exact, via canonical cell signatures).

    Non-convergence within ``max_rounds`` (or the budget) is reported
    like every other fixpoint engine: raise
    :class:`~repro.runtime.budget.RoundLimitExceeded` by default, or
    return the state of the last completed round as a tagged
    :class:`~repro.cobjects.fixpoint.PartialRelation` under
    ``on_budget="partial"`` (best effort only — replacement semantics
    is non-monotone, so unlike the inflationary engines a truncated
    while-state is not a sound under-approximation of the limit).
    """
    check_on_budget(on_budget)
    guard = resolve_guard(guard, budget)
    if query.name in database:
        raise DatalogError(
            f"relation variable {query.name!r} clashes with a stored relation"
        )
    loop_constants = (
        set(database.constants())
        | set(extra_constants)
        | set(_formula_constants(query.formula))
    )
    adom = ActiveDomain(database, loop_constants)
    decomposition = CellDecomposition(loop_constants)
    current = Relation.empty(tuple(query.variables), DENSE_ORDER)
    seen: Dict[FrozenSet, int] = {_state_key(current, decomposition): 0}

    def step(this_round: int, traced: bool):
        nonlocal current
        new = stage(query, current, database, extra_constants, adom)
        fields = None
        if traced:
            # replacement semantics: the delta is the symmetric
            # difference between consecutive states
            delta = len(frozenset(new.tuples) ^ frozenset(current.tuples))
            fields = {"delta_tuples": delta, "state_tuples": len(new.tuples)}
        key = _state_key(new, decomposition)
        previous_round = seen.get(key)
        if previous_round is not None and previous_round != this_round - 1:
            raise WhileDivergence(
                f"state of round {this_round} repeats round {previous_round}: "
                f"cycle of length {this_round - previous_round}, the loop diverges"
            )
        # stabilized when the state repeats the previous round's:
        # S = {x | phi(S, x)}
        if previous_round is None:
            seen[key] = this_round
        current = new
        return previous_round is None, fields

    with guard if guard is not None else contextlib.nullcontext(), span(
        "ccalc.while", relvar=query.name, arity=query.arity
    ):
        rounds, cut = run_rounds(
            "ccalc.while", "ccalc.while.round", step,
            guard=guard, on_budget=on_budget, max_rounds=max_rounds,
        )
    return current if cut is None else PartialRelation(current, rounds, cut)
