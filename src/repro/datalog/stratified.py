"""Stratified Datalog(not): the classical alternative semantics.

The paper evaluates *inflationary* Datalog(not) (Theorem 4.4) and notes
in Section 6 that over discrete gap-orders even *stratified* Datalog
can express every Turing-computable function [Rev93] -- so the choice
of semantics matters.  This module implements the stratified semantics
over dense-order constraint relations for comparison:

* a program is *stratifiable* when no predicate depends negatively on
  itself through a cycle; :func:`stratify` computes the strata
  (Tarjan-style SCC condensation of the dependency graph);
* each stratum is evaluated to its *naive least fixpoint* with all
  negated predicates fully computed in earlier strata -- so negation is
  exact, no staging tricks needed (contrast the ``stage2`` guards the
  inflationary programs in :mod:`repro.encoding.ptime` must use);
* for stratifiable programs both semantics agree on negation-free
  programs, and stratified evaluation gives the intended model where
  inflationary programs would need guards (tested).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.database import Database
from repro.datalog.ast import PredicateLiteral, Program
from repro.datalog.engine import FixpointResult, run_program
from repro.errors import DatalogError
from repro.runtime.budget import Budget
from repro.runtime.guard import EvaluationGuard

__all__ = ["stratify", "is_stratifiable", "evaluate_stratified"]


def _dependencies(program: Program) -> Dict[str, Set[Tuple[str, bool]]]:
    """IDB dependency edges: head -> {(body predicate, negated?)}."""
    out: Dict[str, Set[Tuple[str, bool]]] = {name: set() for name in program.idb}
    for r in program.rules:
        for literal in r.body:
            if isinstance(literal, PredicateLiteral) and literal.name in program.idb:
                out[r.head_name].add((literal.name, literal.negated))
    return out


def stratify(program: Program) -> List[List[str]]:
    """Partition the IDB predicates into strata (lowest first).

    Raises :class:`DatalogError` when a predicate depends negatively on
    itself through a cycle (not stratifiable).
    """
    deps = _dependencies(program)
    # longest-path style stratum assignment: stratum(p) >= stratum(q) for
    # positive edges p->q, and > for negative ones
    stratum: Dict[str, int] = {name: 0 for name in program.idb}
    n = len(program.idb)
    for _ in range(n * n + 1):
        changed = False
        for head, edges in deps.items():
            for body, negated in edges:
                needed = stratum[body] + (1 if negated else 0)
                if stratum[head] < needed:
                    stratum[head] = needed
                    if stratum[head] > n:
                        raise DatalogError(
                            f"program is not stratifiable: {head} depends "
                            "negatively on itself through a cycle"
                        )
                    changed = True
        if not changed:
            break
    layers: Dict[int, List[str]] = {}
    for name, level in stratum.items():
        layers.setdefault(level, []).append(name)
    return [sorted(layers[level]) for level in sorted(layers)]


def is_stratifiable(program: Program) -> bool:
    """Does the program admit a stratification?"""
    try:
        stratify(program)
        return True
    except DatalogError:
        return False


def evaluate_stratified(
    program: Program,
    database: Database,
    max_rounds: Optional[int] = None,
    *,
    budget: Optional[Budget] = None,
    guard: Optional[EvaluationGuard] = None,
    on_budget: str = "raise",
    planner=None,
) -> FixpointResult:
    """Evaluate under the stratified semantics (perfect model).

    Strata are computed once; the naive engine's driver
    (:func:`~repro.datalog.engine.run_program`) then iterates each
    stratum's rules to their least fixpoint, with predicates of earlier
    strata (and the EDB) fixed, and counts rounds on across strata.
    Negated literals only ever refer to *completed* relations, so no
    inflationary staging is required.

    Budgets and ``planner`` behave as in
    :func:`~repro.datalog.engine.evaluate_program`; a partial result
    stops at the stratum the budget cut (later strata would negate
    incomplete relations, which is unsound, so they are not evaluated
    at all).
    """
    strata = stratify(program)
    # validate the stratification property rule-by-rule: a negated IDB
    # literal must live in a strictly earlier stratum than the head
    level_of = {name: i for i, layer in enumerate(strata) for name in layer}
    for r in program.rules:
        for literal in r.body:
            if (
                isinstance(literal, PredicateLiteral)
                and literal.negated
                and literal.name in program.idb
                and level_of[literal.name] >= level_of[r.head_name]
            ):
                raise DatalogError(
                    f"rule {r} negates {literal.name} inside its own stratum"
                )
    return run_program(
        program, database, "datalog.stratified", "stratified.round",
        strata=[[r for r in program.rules if r.head_name in layer] for layer in strata],
        max_rounds=max_rounds, budget=budget, guard=guard, on_budget=on_budget,
        planner=planner,
    )
