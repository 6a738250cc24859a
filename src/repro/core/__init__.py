"""Dense-order constraint algebra: the paper's data model and FO engine.

Public surface re-exported here:

* terms and atoms: :class:`Var`, :class:`Const`, :func:`atom` and the
  ``lt/le/eq/ne/ge/gt`` helpers;
* :class:`GTuple` and :class:`Relation` -- generalized tuples/relations;
* the formula AST (:class:`Formula`, :func:`exists`, :func:`forall`,
  :func:`rel`, ...) and :func:`evaluate` / :func:`evaluate_boolean`;
* the query-planner stack, one path per step: plan IR
  (:func:`compile_formula`), rewrite rules (:class:`RuleEngine`,
  driven by :meth:`QueryPlanner.logical_plan`), the ledger-calibrated
  :class:`CostModel`, per-operator dispatch (:func:`plan_physical`),
  the plan executor (:func:`execute_plan`) and the plan listing
  (:func:`render_plan`), all behind :class:`QueryPlanner`;
* quantifier elimination and decision procedures in :mod:`repro.core.qe`;
* the canonical 1-D form (:class:`Interval`, :class:`IntervalSet`) and
  the box fast path (:class:`Box`, :class:`BoxSet`).
"""

from repro.core.atoms import Atom, Op, atom, eq, ge, gt, le, lt, ne
from repro.core.boxes import Box, BoxSet
from repro.core.database import Database
from repro.core.evaluator import evaluate, evaluate_boolean
from repro.core.formula import (
    FALSE,
    TRUE,
    And,
    Constraint,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    RelationAtom,
    conj,
    constraint,
    disj,
    exists,
    forall,
    rel,
)
from repro.core.gtuple import GTuple
from repro.core.intervals import Interval, IntervalSet
from repro.core.normal_forms import (
    is_quantifier_free,
    matrix_and_prefix,
    to_nnf,
    to_prenex,
)
from repro.core.costmodel import (
    CostModel,
    estimate_plan,
    fit_cost_model,
    load_cost_model,
)
from repro.core.physical import QueryPlanner, execute_plan, plan_physical, render_plan
from repro.core.planner import compile_formula
from repro.core.rules import RewriteRule, RuleEngine, heuristic_engine
from repro.core.qe import (
    eliminate_quantifiers,
    equivalent,
    formula_to_relation,
    is_satisfiable,
    is_valid,
    relation_to_formula,
)
from repro.core.relation import Relation
from repro.core.sampling import eval_at, evaluate_sentence, sample_points
from repro.core.terms import Const, Term, Var, as_fraction, as_term
from repro.core.theory import DENSE_ORDER, ConstraintTheory, DenseOrderTheory

__all__ = [
    "Atom",
    "Op",
    "atom",
    "eq",
    "ge",
    "gt",
    "le",
    "lt",
    "ne",
    "Box",
    "BoxSet",
    "Database",
    "evaluate",
    "evaluate_boolean",
    "FALSE",
    "TRUE",
    "And",
    "Constraint",
    "Exists",
    "ForAll",
    "Formula",
    "Not",
    "Or",
    "RelationAtom",
    "conj",
    "constraint",
    "disj",
    "exists",
    "forall",
    "rel",
    "GTuple",
    "Interval",
    "IntervalSet",
    "is_quantifier_free",
    "matrix_and_prefix",
    "to_nnf",
    "to_prenex",
    "compile_formula",
    "CostModel",
    "estimate_plan",
    "fit_cost_model",
    "load_cost_model",
    "QueryPlanner",
    "execute_plan",
    "plan_physical",
    "render_plan",
    "RewriteRule",
    "RuleEngine",
    "heuristic_engine",
    "eliminate_quantifiers",
    "equivalent",
    "formula_to_relation",
    "is_satisfiable",
    "is_valid",
    "relation_to_formula",
    "Relation",
    "eval_at",
    "evaluate_sentence",
    "sample_points",
    "Const",
    "Term",
    "Var",
    "as_fraction",
    "as_term",
    "DENSE_ORDER",
    "ConstraintTheory",
    "DenseOrderTheory",
]
