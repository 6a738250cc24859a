"""Inflationary evaluation of Datalog(not) over constraint relations.

[KKR90] showed (and the paper recalls in Section 4) that Datalog with
negation over dense-order constraints can be evaluated *bottom-up and
in closed form*: each IDB predicate's value after every round is again
a generalized relation.  Under the inflationary semantics the rounds
are monotone (facts are only added), and because quantifier elimination
over dense order never invents constants, the state space is bounded by
the finitely many pointsets definable over the input constants -- so
the iteration reaches a fixpoint and the data complexity is PTIME
(the easy half of Theorem 4.4).

Each rule body is translated to an FO formula (positive literal ->
relation atom, negated literal -> negated relation atom, constraint ->
constraint) and evaluated with the closed-form evaluator against the
*previous* round's state; the derived head facts of all rules are then
added at once.

Every constraint fixpoint engine iterates through :func:`run_rounds`,
which owns the round protocol (guard, fault point, span and metrics,
budget cuts).  :func:`run_program` is the one Datalog driver built on
it: the naive engine here, the semi-naive engine (the same driver with
deltas on) and the stratified engine (the driver once per stratum).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.formula import Constraint, Formula, Not, RelationAtom, conj
from repro.core.relation import Relation
from repro.core.theory import ConstraintTheory
from repro.datalog.ast import ConstraintLiteral, PredicateLiteral, Program, Rule
from repro.errors import DatalogError
from repro.obs.trace import active_tracer, span
from repro.runtime.budget import Budget, BudgetExceeded
from repro.runtime.faults import fault_point
from repro.runtime.guard import EvaluationGuard, round_limit_error

__all__ = [
    "FixpointResult",
    "evaluate_program",
    "body_formula",
    "head_schema",
    "resolve_guard",
    "check_on_budget",
    "run_rounds",
    "run_program",
]


def resolve_guard(
    guard: Optional[EvaluationGuard], budget: Optional[Budget]
) -> Optional[EvaluationGuard]:
    """One guard for an engine run: an explicit guard wins, a bare
    budget gets a fresh guard, neither means unguarded."""
    if guard is not None:
        return guard
    if budget is not None:
        return EvaluationGuard(budget)
    return None


def check_on_budget(on_budget: str) -> None:
    if on_budget not in ("raise", "partial"):
        raise ValueError(f"on_budget must be 'raise' or 'partial', got {on_budget!r}")


def head_schema(arity: int) -> Tuple[str, ...]:
    """Canonical column names for an IDB predicate of given arity."""
    return tuple(f"a{i}" for i in range(arity))


def body_formula(r: Rule) -> Formula:
    """The rule body as an FO formula over the rule's variables."""
    parts: List[Formula] = []
    for literal in r.body:
        if isinstance(literal, PredicateLiteral):
            atom = RelationAtom(literal.name, literal.args)
            parts.append(Not(atom) if literal.negated else atom)
        elif isinstance(literal, ConstraintLiteral):
            parts.append(Constraint(literal.atom))
        else:  # pragma: no cover - closed union
            raise DatalogError(f"unknown literal {literal!r}")
    return conj(*parts)


@dataclass
class FixpointResult:
    """Outcome of an inflationary evaluation.

    Under inflationary semantics every derived fact is final, so a
    truncated result is *sound but possibly incomplete*: all tuples
    present belong to the fixpoint.  ``cut`` says what the budget cut
    (``None`` for a complete run).
    """

    database: Database  #: EDB plus final IDB relations
    rounds: int  #: number of completed rounds
    reached_fixpoint: bool  #: False only when a budget cut evaluation short
    cut: Optional[str] = None  #: what was cut, when reached_fixpoint is False

    def __getitem__(self, name: str) -> Relation:
        return self.database[name]


def run_rounds(
    name: str,
    site: str,
    step: Callable[[int, bool], Tuple[bool, Optional[dict]]],
    *,
    guard: Optional[EvaluationGuard],
    on_budget: str,
    max_rounds: Optional[int],
    rounds: int = 0,
    **attrs,
) -> Tuple[int, Optional[str]]:
    """Run ``step`` round after round until it reports no change.

    This is the round protocol of every constraint fixpoint engine.
    Each round opens a ``<name>.round`` span (with ``attrs``), counts
    against the guard's round budget at ``site``, fires the ``site``
    fault point, then runs ``step(round, traced)``, which returns
    whether the round changed the state and, when ``traced``, the
    attributes of the round's span (``delta_tuples`` at least).  A
    traced round also records the ``<name>.rounds`` counter and the
    ``<name>.delta_tuples`` histogram.  A step must commit its
    new state only once nothing of the round can raise, so that a cut
    leaves the state of the last completed round.

    Returns ``(rounds, cut)``: the rounds completed so far (counting on
    from ``rounds``), and ``None`` at the fixpoint or the description
    of what was cut.  A budget cut or ``max_rounds`` raises under
    ``on_budget="raise"`` and is returned as ``cut`` under
    ``"partial"``.
    """
    while True:
        with span(f"{name}.round", round=rounds + 1, **attrs) as sp:
            try:
                if guard is not None:
                    guard.on_round(site)
                fault_point(site)
                changed, fields = step(rounds + 1, sp is not None)
            except BudgetExceeded as error:
                if on_budget == "partial":
                    return rounds, str(error)
                raise
            if sp is not None:
                sp.attrs.update(fields)
                tracer = active_tracer()
                tracer.metrics.count(f"{name}.rounds")
                tracer.metrics.observe(f"{name}.delta_tuples", fields["delta_tuples"])
        rounds += 1
        if not changed:
            return rounds, None
        if max_rounds is not None and rounds >= max_rounds:
            error = round_limit_error(site, max_rounds, rounds, guard)
            if on_budget == "partial":
                return rounds, str(error)
            raise error


def _derive(
    body: Formula,
    head: Tuple[str, ...],
    state: Database,
    theory: ConstraintTheory,
    planner=None,
) -> Relation:
    """Evaluate one rule body against ``state``; relation over the
    canonical schema of its head variables ``head`` (distinct by Rule
    validation)."""
    if planner is not None:
        # rule bodies compile through the same plan IR as FO queries;
        # the planner caches the logical plan per body formula and
        # recomputes physical dispatch from current relation sizes
        derived = planner.run(body, state, theory)
    else:
        derived = evaluate(body, state, theory)
    missing = [n for n in head if n not in derived.schema]
    if missing:
        # head variables unconstrained by the body range over all of Q
        derived = derived.extend(tuple(derived.schema) + tuple(missing))
    projected = derived.project(tuple(sorted(head)))
    ordered = Relation._trusted(
        theory, head, [t.reorder(head) for t in projected.tuples]
    )
    return ordered.rename(dict(zip(head, head_schema(len(head)))))


def _delta_variants(
    r: Rule, recursive: Set[str], delta_names: Dict[str, str]
) -> List[Tuple[str, str, Formula]]:
    """One ``(predicate, alias, body)`` per delta position of ``r``: a
    positive literal of a ``recursive`` predicate, which the variant's
    body reads from ``alias``, where the previous round's additions are
    stored.  A rule that negates a recursive predicate has none:
    inflationary negation is non-monotone, so it runs in full every
    round, as does a rule with no delta position."""
    if any(
        isinstance(l, PredicateLiteral) and l.negated and l.name in recursive
        for l in r.body
    ):
        return []
    variants = []
    for i, literal in enumerate(r.body):
        if isinstance(literal, PredicateLiteral) and literal.name in recursive:
            alias = PredicateLiteral(delta_names[literal.name], literal.args)
            body = r.body[:i] + (alias,) + r.body[i + 1:]
            variants.append(
                (literal.name, alias.name, body_formula(replace(r, body=body)))
            )
    return variants


def run_program(
    program: Program,
    database: Database,
    name: str,
    site: str,
    *,
    deltas: bool = False,
    strata: Optional[Sequence[Sequence[Rule]]] = None,
    max_rounds: Optional[int] = None,
    budget: Optional[Budget] = None,
    guard: Optional[EvaluationGuard] = None,
    on_budget: str = "raise",
    context=None,
    planner=None,
    **attrs,
) -> FixpointResult:
    """The Datalog driver: iterate ``program`` over ``database`` to its
    inflationary fixpoint, one :func:`run_rounds` loop per stratum.

    ``strata`` lists the rules of each stratum, lowest first (default:
    one stratum of every rule); round spans then carry ``stratum=``,
    and the round count runs on across strata.  A round evaluates each
    rule against the previous round's state, unions the derived facts
    per head, absorbs (:meth:`Relation.simplify`) and tests for change
    against the tuple sets of the previous round.  With ``deltas`` on,
    a rule is evaluated once per delta position
    (:func:`_delta_variants`) against the tuples the previous round
    added, after a first round in full.  Only a completed round
    reaches the state.

    ``name`` names the engine span (opened with ``rules=`` and
    ``attrs``) and its round spans and metrics; ``site`` is the guard
    and fault site of the rounds.
    """
    check_on_budget(on_budget)
    guard = resolve_guard(guard, budget)
    theory = database.theory
    for edb, arity in program.edb.items():
        if edb not in database:
            raise DatalogError(f"EDB predicate {edb!r} missing from the database")
        if database.arity(edb) != arity:
            raise DatalogError(
                f"EDB predicate {edb!r} has arity {database.arity(edb)}, "
                f"program declares {arity}"
            )
    state = database.copy()
    for idb, arity in program.idb.items():
        if idb in state:
            raise DatalogError(f"IDB predicate {idb!r} already stored in the database")
        state[idb] = Relation.empty(head_schema(arity), theory)

    delta_names = None
    if deltas:
        # where a delta position reads the previous round's additions:
        # a name neither stored nor a predicate of the program, fixed
        # for the run so a planner's per-body plan cache hits every round
        taken = set(state) | program.predicates()
        delta_names = {}
        for idb in program.idb:
            alias = f"__delta_{idb}"
            while alias in taken:
                alias = "_" + alias
            taken.add(alias)
            delta_names[idb] = alias
    if strata is not None:
        attrs["strata"] = len(strata)
    # per stratum, each rule as a round evaluates it: head, head
    # variables, body formula and delta variants
    compiled = []
    for rules in [program.rules] if strata is None else strata:
        recursive = {r.head_name for r in rules}
        compiled.append([
            (
                r.head_name,
                tuple(v.name for v in r.head_args),
                body_formula(r),
                _delta_variants(r, recursive, delta_names) if deltas else [],
            )
            for r in rules
        ])
    if deltas:
        attrs["delta_rules"] = sum(1 for rules in compiled for c in rules if c[3])

    # per-predicate tuple sets, carried across rounds so the change test
    # builds one frozenset per predicate per round instead of
    # re-freezing the previous state
    state_sets: Dict[str, frozenset] = {idb: frozenset() for idb in program.idb}
    # the tuples each predicate gained in the previous round (None
    # before a stratum's first round, which evaluates in full)
    added: Optional[Dict[str, Relation]] = None

    def step(rules, _round: int, traced: bool):
        nonlocal added
        pending: Dict[str, Relation] = {}
        for head_name, head, body, variants in rules:
            value = pending.get(head_name, state[head_name])
            if added is None or not variants:
                value = value.union(_derive(body, head, state, theory, planner))
            else:
                for predicate, alias, delta_body in variants:
                    delta = added[predicate]
                    if delta.tuples:
                        scratch = state.copy()
                        scratch[alias] = delta
                        value = value.union(
                            _derive(delta_body, head, scratch, theory, planner)
                        )
            pending[head_name] = value
        changed = False
        new_sets: Dict[str, frozenset] = {}
        new_added: Dict[str, Relation] = {}
        delta_tuples = 0
        for head, value in pending.items():
            # the stored stage leads the union and is already absorbed
            value = pending[head] = value.simplify(absorbed=len(state[head]))
            # Inflationary rounds only add tuples, and tuples are stored
            # in canonical form over a constant set that never grows, so
            # the *syntactic* tuple sets live in a finite space: comparing
            # them is a sound and terminating fixpoint test (and avoids
            # the exponential complement of a semantic equivalence check).
            old = state_sets[head]
            new = new_sets[head] = frozenset(value.tuples)
            changed = changed or new != old
            if deltas:
                fresh = [t for t in value.tuples if t not in old]
                new_added[head] = Relation._trusted(theory, value.schema, fresh)
                delta_tuples += len(fresh)
            elif traced and new != old:
                delta_tuples += len(new - old)
        # nothing below raises: the round is complete, commit it
        for head, value in pending.items():
            state[head] = value
        state_sets.update(new_sets)
        added = new_added
        return changed, {"delta_tuples": delta_tuples} if traced else None

    rounds, cut = 0, None
    with contextlib.nullcontext() if context is None else context, \
            contextlib.nullcontext() if guard is None else guard:
        with span(name, rules=len(program.rules), **attrs):
            for level, rules in enumerate(compiled):
                added = None
                rounds, cut = run_rounds(
                    name, site, partial(step, rules),
                    guard=guard, on_budget=on_budget, max_rounds=max_rounds,
                    rounds=rounds, **({} if strata is None else {"stratum": level}),
                )
                if cut is not None:
                    break
    return FixpointResult(state, rounds, cut is None, cut)


def evaluate_program(
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
    """Run ``program`` to its inflationary fixpoint over ``database``.

    The reference engine: :func:`run_program` with deltas off.  The
    returned database contains the EDB relations unchanged plus one
    relation per IDB predicate (canonical schema ``a0, a1, ...``).

    ``max_rounds`` bounds the iteration; ``budget``/``guard`` bound it
    further (deadline, tuple, round budgets — termination is otherwise
    guaranteed over dense-order constraints, but may take long).  When
    a bound trips, ``on_budget="raise"`` (the default) raises the
    :class:`~repro.runtime.budget.BudgetExceeded` subclass with
    diagnostics; ``on_budget="partial"`` returns the state of the last
    completed round as a partial :class:`FixpointResult` with
    ``reached_fixpoint=False`` and ``cut`` naming what was cut —
    sound under inflationary semantics (facts are only ever added).

    ``context`` optionally activates a
    :class:`~repro.parallel.context.ExecutionContext` for the whole
    run, sharding the expensive relation kernels of every round across
    its worker pool; serial evaluation stays the reference.

    ``planner`` optionally routes every rule-body evaluation through a
    :class:`~repro.core.physical.QueryPlanner` (compile → rule-engine
    rewrites → plan execution) instead of the direct evaluator.  The
    two compose: a planned run inside an activated ``context`` shards
    the planned operators on its pool, as an unplanned run would.
    """
    return run_program(
        program, database, "datalog.naive", "datalog.round",
        max_rounds=max_rounds, budget=budget, guard=guard, on_budget=on_budget,
        context=context, planner=planner, idb=len(program.idb),
    )
