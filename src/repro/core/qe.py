"""Quantifier elimination for dense-order formulas.

The theory of dense linear order without endpoints admits quantifier
elimination ([CK73]; paper Section 2) -- and by [GS94] this is exactly
what makes FO a query language on finitely representable databases.
This module exposes QE at the formula level, on top of the closed-form
evaluator: a (pure constraint) formula is evaluated to a generalized
relation, which *is* a quantifier-free DNF, and converted back to a
formula.

Also provided: satisfiability, validity, and semantic equivalence of
constraint formulas -- the decision procedures used throughout the test
suite and the genericity experiments.
"""

from __future__ import annotations

from typing import Optional

from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.formula import Constraint, Formula, FALSE, TRUE, conj, disj
from repro.core.relation import Relation
from repro.core.theory import ConstraintTheory, DENSE_ORDER
from repro.errors import EvaluationError
from repro.obs.trace import active_tracer

__all__ = [
    "eliminate_quantifiers",
    "relation_to_formula",
    "formula_to_relation",
    "is_satisfiable",
    "is_valid",
    "equivalent",
]


def formula_to_relation(
    formula: Formula, theory: ConstraintTheory = DENSE_ORDER
) -> Relation:
    """Solutions of a pure constraint formula, as a generalized relation."""
    if formula.relation_names():
        raise EvaluationError(
            "formula mentions database relations; use repro.core.evaluator.evaluate"
        )
    tracer = active_tracer()
    if tracer is None:
        return evaluate(formula, Database(theory=theory), theory)
    free = len(formula.free_variables())
    with tracer.span("qe.eliminate", free_vars=free):
        return evaluate(formula, Database(theory=theory), theory)


def relation_to_formula(relation: Relation) -> Formula:
    """The quantifier-free DNF formula denoting ``relation``."""
    disjuncts = []
    for t in relation.tuples:
        disjuncts.append(conj(*(Constraint(a) for a in sorted(t.atoms, key=str))))
    if not disjuncts:
        return FALSE
    return disj(*disjuncts)


def eliminate_quantifiers(
    formula: Formula, theory: ConstraintTheory = DENSE_ORDER
) -> Formula:
    """An equivalent quantifier-free formula (pure constraint input).

    The free variables are preserved; a sentence collapses to ``TRUE``
    or ``FALSE``.
    """
    relation = formula_to_relation(formula, theory)
    if not relation.schema:
        return FALSE if relation.is_empty() else TRUE
    return relation_to_formula(relation)


def is_satisfiable(formula: Formula, theory: ConstraintTheory = DENSE_ORDER) -> bool:
    """Does the constraint formula have a rational solution?"""
    return not formula_to_relation(formula, theory).is_empty()


def is_valid(formula: Formula, theory: ConstraintTheory = DENSE_ORDER) -> bool:
    """Does every rational assignment satisfy the constraint formula?"""
    from repro.core.formula import Not

    return not is_satisfiable(Not(formula), theory)


def equivalent(
    left: Formula, right: Formula, theory: ConstraintTheory = DENSE_ORDER
) -> bool:
    """Semantic equivalence of two pure constraint formulas."""
    return is_valid(left.iff(right), theory)
