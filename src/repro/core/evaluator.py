"""Closed-form bottom-up evaluation of FO queries (paper Section 3).

[KKR90] showed that the relational calculus with dense-order constraints
can be evaluated *bottom-up and in closed form*: instances are mapped to
instances.  This module implements that evaluation compositionally:

* a constraint atom denotes the relation of its solutions;
* ``R(t1..tk)`` denotes the stored relation, specialised to the argument
  terms;
* ``and`` is natural join, ``or`` is union (over the padded common
  schema), ``not`` is complement, ``exists`` is projection, ``forall``
  is the dual of projection.

The result schema of a formula is the *sorted* tuple of its free
variable names; a sentence yields an arity-0 relation, read as a boolean
by :func:`evaluate_boolean`.

Because every step stays inside the finitely-representable class, this
is also a quantifier-elimination procedure: see :mod:`repro.core.qe`.

Evaluation is *resource-governed*: pass ``guard=`` an
:class:`~repro.runtime.guard.EvaluationGuard` (or evaluate inside an
active one) and every recursion step checks the wall-clock deadline,
the formula-depth budget, and cooperative cancellation, while the
relation algebra underneath charges materialized tuples against the
tuple budget.  Without a guard the checkpoints are near-free.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Optional, Sequence, Tuple

from repro.core.database import Database
from repro.core.formula import (
    And,
    Constraint,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    RelationAtom,
    _Boolean,
)
from repro.core.gtuple import GTuple
from repro.core.relation import Relation
from repro.core.terms import Const, Var
from repro.core.theory import ConstraintTheory, DENSE_ORDER
from repro.errors import EvaluationError, SchemaError
from repro.obs.trace import active_tracer
from repro.runtime.faults import fault_point
from repro.runtime.guard import EvaluationGuard, active_guard

__all__ = ["evaluate", "evaluate_boolean"]


def _formula_label(formula: Formula, limit: int = 60) -> str:
    text = str(formula)
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _result_schema(formula: Formula) -> Tuple[str, ...]:
    return tuple(sorted(v.name for v in formula.free_variables()))


def _common_schema(*schemas: Sequence[str]) -> Tuple[str, ...]:
    out: set = set()
    for s in schemas:
        out |= set(s)
    return tuple(sorted(out))


def evaluate(
    formula: Formula,
    database: Optional[Database] = None,
    theory: ConstraintTheory = DENSE_ORDER,
    *,
    guard: Optional[EvaluationGuard] = None,
    context=None,
) -> Relation:
    """Evaluate ``formula`` against ``database`` in closed form.

    Returns a :class:`Relation` whose schema is the sorted free-variable
    names of the formula.  ``database`` may be omitted for pure
    constraint formulas.  ``guard`` bounds the evaluation (deadline,
    tuple/depth budgets, cancellation); when omitted, the guard active
    on the calling context (if any) governs the run.  ``context``
    optionally activates a
    :class:`~repro.parallel.context.ExecutionContext` for the run, so
    the expensive relation kernels are sharded across its worker pool;
    serial evaluation (the reference semantics) is the default.
    """
    if database is None:
        database = Database(theory=theory)
    if database.theory is not theory:
        # theories are value objects: separately constructed instances of
        # the same theory are interchangeable.  Normalize onto the
        # database's instance so downstream identity fast paths hold.
        if database.theory != theory:
            raise EvaluationError(
                f"theory mismatch: evaluating with {theory.name!r} over a "
                f"{database.theory.name!r} database"
            )
        theory = database.theory
    tracer = active_tracer()
    with context if context is not None else contextlib.nullcontext():
        if tracer is None:
            if guard is None:
                guard = active_guard()
                result = _eval(formula, database, theory, guard)
            else:
                with guard:
                    result = _eval(formula, database, theory, guard)
        else:
            with tracer.span("fo.evaluate", formula=_formula_label(formula)) as sp:
                if guard is None:
                    guard = active_guard()
                    result = _eval(formula, database, theory, guard)
                else:
                    with guard:
                        result = _eval(formula, database, theory, guard)
                sp.attrs["out_tuples"] = len(result.tuples)
    target = _result_schema(formula)
    if result.schema != target:  # pragma: no cover - _eval keeps schemas sorted
        result = result.extend(_common_schema(result.schema, target)).project(target)
    return result


def evaluate_boolean(
    formula: Formula,
    database: Optional[Database] = None,
    theory: ConstraintTheory = DENSE_ORDER,
    *,
    guard: Optional[EvaluationGuard] = None,
    context=None,
) -> bool:
    """Evaluate a sentence (closed formula) to a boolean."""
    free = formula.free_variables()
    if free:
        names = ", ".join(sorted(v.name for v in free))
        raise EvaluationError(f"formula is not a sentence; free variables: {names}")
    return not evaluate(
        formula, database, theory, guard=guard, context=context
    ).is_empty()


# --------------------------------------------------------------------- core


def _eval(
    formula: Formula,
    db: Database,
    theory: ConstraintTheory,
    guard: Optional[EvaluationGuard],
) -> Relation:
    fault_point("evaluator.eval")
    if guard is None:
        return _eval_node(formula, db, theory, guard)
    guard.tick("evaluator.eval")
    guard.enter_depth("evaluator.eval")
    try:
        return _eval_node(formula, db, theory, guard)
    finally:
        guard.exit_depth()


def _eval_node(
    formula: Formula,
    db: Database,
    theory: ConstraintTheory,
    guard: Optional[EvaluationGuard],
) -> Relation:
    if isinstance(formula, _Boolean):
        schema: Tuple[str, ...] = ()
        if formula.value:
            return Relation.universe(schema, theory)
        return Relation.empty(schema, theory)

    if isinstance(formula, Constraint):
        return _eval_constraint(formula, theory)

    if isinstance(formula, RelationAtom):
        return _eval_relation_atom(formula, db, theory)

    if isinstance(formula, And):
        if not formula.subs:
            return Relation.universe((), theory)
        result = _eval(formula.subs[0], db, theory, guard)
        for sub in formula.subs[1:]:
            if result.is_empty():
                # short-circuit, but keep the full schema for downstream ops
                break
            result = result.join(_eval(sub, db, theory, guard))
        schema = _result_schema(formula)
        return result.extend(_common_schema(result.schema, schema)).project(schema)

    if isinstance(formula, Or):
        schema = _result_schema(formula)
        result = Relation.empty(schema, theory)
        for sub in formula.subs:
            piece = _eval(sub, db, theory, guard)
            padded = piece.extend(_common_schema(piece.schema, schema))
            result = result.union(padded.project(schema) if padded.schema != schema else padded)
        return result

    if isinstance(formula, Not):
        fault_point("evaluator.not")
        if guard is not None:
            guard.note("evaluator.not")
        tracer = active_tracer()
        if tracer is not None:
            tracer.metrics.count("fo.negations")
        inner = _eval(formula.sub, db, theory, guard)
        return inner.complement()

    if isinstance(formula, Exists):
        tracer = active_tracer()
        if tracer is not None:
            tracer.metrics.count("fo.projections")
        inner = _eval(formula.sub, db, theory, guard)
        victims = {v.name for v in formula.variables}
        target = tuple(c for c in inner.schema if c not in victims)
        return inner.project(target)

    if isinstance(formula, ForAll):
        rewritten = Not(Exists(formula.variables, Not(formula.sub)))
        return _eval(rewritten, db, theory, guard)

    raise EvaluationError(f"cannot evaluate formula node {type(formula).__name__}")


def _eval_constraint(formula: Constraint, theory: ConstraintTheory) -> Relation:
    schema = _result_schema(formula)
    disjuncts = formula.atom.expand_ne()
    return Relation.from_atoms(schema, [[d] for d in disjuncts], theory)


def _eval_relation_atom(
    formula: RelationAtom, db: Database, theory: ConstraintTheory
) -> Relation:
    stored = db[formula.name]
    if stored.arity != len(formula.args):
        raise SchemaError(
            f"{formula.name} has arity {stored.arity}, called with {len(formula.args)} args"
        )
    # a column whose argument is a variable not seen earlier in the atom
    # is renamed straight to it.  Only constant and repeated-variable
    # positions get a fresh column (never a variable of the atom, so
    # user names like ``__arg1`` cannot be captured), equated with the
    # argument and projected away; without those the projection below
    # only reorders the columns into the sorted result schema
    taken = {v.name for v in formula.free_variables()}
    candidates = (f"__arg{i}" for i in itertools.count())
    fresh = (name for name in candidates if name not in taken)
    columns = []
    selectors = []
    for arg in formula.args:
        if isinstance(arg, Var) and arg.name not in columns:
            columns.append(arg.name)
            continue
        column = next(fresh)
        columns.append(column)
        selectors.append(theory.equality_atom(Var(column), arg))
    renamed = stored.rename(dict(zip(stored.schema, columns)))
    if selectors:
        renamed = renamed.select(selectors)
    return renamed.project(_result_schema(formula))
