"""Query plans: the relational-algebra IR every planned run goes through.

The closed-form evaluator (:mod:`repro.core.evaluator`) walks the
formula tree directly.  For a database *system*, query processing wants
an explicit plan stage: compile the formula to an algebra tree, rewrite
it, then execute.  This module holds the first step and the IR:

* :class:`Plan` nodes: ``Scan``, ``ConstraintScan``, ``Select``,
  ``Project``, ``Join``, ``Union``, ``Complement``, ``Absorb``,
  ``Shared``, ``Universe``, ``Empty``;
* :func:`compile_formula` -- formula to a naive plan mirroring the
  evaluator's recursion (Datalog¬ rule bodies compile through the same
  IR: :mod:`repro.datalog.engine` builds the body formula and hands it
  to the planner when one is attached).

The rest of the path lives one layer up, behind one entry point each:
:class:`repro.core.physical.QueryPlanner` rewrites a compiled plan with
the rule engine in :mod:`repro.core.rules` (``logical_plan``),
:func:`repro.core.physical.execute_plan` runs it, and
:func:`repro.core.physical.render_plan` prints it with the row
estimates of :mod:`repro.core.costmodel`.

Planned runs are equivalence-tested against ``evaluate(f, db)`` and
against the sampling oracle (:mod:`repro.core.sampling`) on random
formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.evaluator import _common_schema
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
from repro.core.terms import Var
from repro.errors import EvaluationError

__all__ = [
    "Plan",
    "Scan",
    "ConstraintScan",
    "Universe",
    "Empty",
    "Select",
    "Project",
    "Join",
    "Union",
    "Complement",
    "Absorb",
    "Shared",
    "compile_formula",
]


# ------------------------------------------------------------------ plan tree


@dataclass(frozen=True)
class Plan:
    """Base plan node; ``schema`` is the (sorted) output columns."""

    @property
    def schema(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def children(self) -> Tuple["Plan", ...]:
        return ()


@dataclass(frozen=True)
class Scan(Plan):
    """Read a stored relation, specialized to argument terms."""

    name: str
    args: Tuple  # terms, parallel to the stored schema

    @property
    def schema(self) -> Tuple[str, ...]:
        return tuple(sorted({t.name for t in self.args if isinstance(t, Var)}))


@dataclass(frozen=True)
class ConstraintScan(Plan):
    """The solution set of one constraint atom."""

    atom: object

    @property
    def schema(self) -> Tuple[str, ...]:
        return tuple(sorted(v.name for v in self.atom.variables))


@dataclass(frozen=True)
class Universe(Plan):
    columns: Tuple[str, ...]

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.columns


@dataclass(frozen=True)
class Empty(Plan):
    columns: Tuple[str, ...]

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.columns


@dataclass(frozen=True)
class Select(Plan):
    source: Plan
    atoms: Tuple  # constraint atoms over source columns

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.source.schema

    def children(self) -> Tuple[Plan, ...]:
        return (self.source,)


@dataclass(frozen=True)
class Project(Plan):
    source: Plan
    columns: Tuple[str, ...]

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.columns

    def children(self) -> Tuple[Plan, ...]:
        return (self.source,)


@dataclass(frozen=True)
class Join(Plan):
    parts: Tuple[Plan, ...]

    @property
    def schema(self) -> Tuple[str, ...]:
        return _common_schema(*(p.schema for p in self.parts))

    def children(self) -> Tuple[Plan, ...]:
        return self.parts


@dataclass(frozen=True)
class Union(Plan):
    parts: Tuple[Plan, ...]

    @property
    def schema(self) -> Tuple[str, ...]:
        return _common_schema(*(p.schema for p in self.parts))

    def children(self) -> Tuple[Plan, ...]:
        return self.parts


@dataclass(frozen=True)
class Complement(Plan):
    source: Plan

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.source.schema

    def children(self) -> Tuple[Plan, ...]:
        return (self.source,)


@dataclass(frozen=True)
class Absorb(Plan):
    """Containment absorption (``Relation.simplify``) as a plan node.

    Semantics-free on the pointset (absorption only drops subsumed
    tuples); placed by the rule engine where a smaller representation
    pays downstream — above unions that accumulate redundant tuples
    and below complements, whose cost is exponential in the input
    tuple count.
    """

    source: Plan

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.source.schema

    def children(self) -> Tuple[Plan, ...]:
        return (self.source,)


@dataclass(frozen=True)
class Shared(Plan):
    """A marker for a subplan occurring more than once in the tree.

    Plan nodes are value objects, so equal duplicated subtrees compare
    equal; the common-subplan-dedup rule wraps every occurrence in
    ``Shared`` and :func:`repro.core.physical.execute_plan` memoizes on
    the wrapped source, evaluating it once per query.
    """

    source: Plan

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.source.schema

    def children(self) -> Tuple[Plan, ...]:
        return (self.source,)


# ------------------------------------------------------------------ compile


def compile_formula(formula: Formula) -> Plan:
    """The naive plan mirroring the evaluator's recursion."""
    if isinstance(formula, _Boolean):
        return Universe(()) if formula.value else Empty(())
    if isinstance(formula, Constraint):
        disjuncts = formula.atom.expand_ne()
        scans = tuple(ConstraintScan(d) for d in disjuncts)
        return scans[0] if len(scans) == 1 else Union(scans)
    if isinstance(formula, RelationAtom):
        return Scan(formula.name, formula.args)
    if isinstance(formula, And):
        return Join(tuple(compile_formula(s) for s in formula.subs))
    if isinstance(formula, Or):
        return Union(tuple(compile_formula(s) for s in formula.subs))
    if isinstance(formula, Not):
        return Complement(compile_formula(formula.sub))
    if isinstance(formula, Exists):
        inner = compile_formula(formula.sub)
        victims = {v.name for v in formula.variables}
        return Project(inner, tuple(c for c in inner.schema if c not in victims))
    if isinstance(formula, ForAll):
        return compile_formula(Not(Exists(formula.variables, Not(formula.sub))))
    raise EvaluationError(f"cannot compile node {type(formula).__name__}")


# ------------------------------------------------------------------ rewrite


def _rewrite_children(plan: Plan, rewrite) -> Plan:
    if isinstance(plan, Select):
        return Select(rewrite(plan.source), plan.atoms)
    if isinstance(plan, Project):
        return Project(rewrite(plan.source), plan.columns)
    if isinstance(plan, Join):
        return Join(tuple(rewrite(p) for p in plan.parts))
    if isinstance(plan, Union):
        return Union(tuple(rewrite(p) for p in plan.parts))
    if isinstance(plan, Complement):
        return Complement(rewrite(plan.source))
    if isinstance(plan, Absorb):
        return Absorb(rewrite(plan.source))
    if isinstance(plan, Shared):
        return Shared(rewrite(plan.source))
    return plan
