"""HepPlanner-style rewrite-rule engine for query plans.

The architecture Calcite's HepPlanner popularized (see SNIPPETS.md
Snippet 2): a list of named :class:`RewriteRule` objects, each a
``matches``/``apply`` pair over a single plan node, driven to fixpoint
by a :class:`RuleEngine` under a total rule-firing budget.  It is the
only plan rewriter; :meth:`repro.core.physical.QueryPlanner.logical_plan`
is its one caller in the engine.

Rules must be semantics-preserving on the query's pointset and must
keep the plan's output schema unchanged -- both are checked by the
random-formula equivalence tests in ``tests/core``.

The engine is purely logical: apart from the crude tuple-count
estimate :class:`ReorderJoin` orders join parts by, cardinality/cost
estimation lives in :mod:`repro.core.costmodel` and serial-vs-parallel
dispatch in :mod:`repro.core.physical`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.database import Database
from repro.core.planner import (
    Absorb,
    Complement,
    ConstraintScan,
    Empty,
    Join,
    Plan,
    Project,
    Scan,
    Select,
    Shared,
    Union,
    Universe,
    _rewrite_children,
)

__all__ = [
    "RewriteRule",
    "RuleEngine",
    "HEURISTIC_RULES",
    "heuristic_engine",
    "DEFAULT_FIRING_BUDGET",
]

DEFAULT_FIRING_BUDGET = 4096
_MAX_PASSES = 32


class RewriteRule:
    """A named, local plan rewrite: ``matches`` guards, ``apply`` fires.

    ``apply`` receives the node (children already rewritten -- the
    engine works bottom-up) and must return an equivalent plan with the
    same schema; returning the node unchanged means "no match after
    all" and is not counted as a firing.
    """

    name = "?"

    def matches(self, plan: Plan) -> bool:
        raise NotImplementedError

    def apply(self, plan: Plan, db: Optional[Database]) -> Plan:
        raise NotImplementedError


class FlattenJoin(RewriteRule):
    """``Join(Join(a, b), c)`` -> ``Join(a, b, c)``."""

    name = "flatten-join"

    def matches(self, plan: Plan) -> bool:
        return isinstance(plan, Join) and any(isinstance(p, Join) for p in plan.parts)

    def apply(self, plan: Plan, db: Optional[Database]) -> Plan:
        parts: List[Plan] = []
        for p in plan.parts:
            parts.extend(p.parts if isinstance(p, Join) else (p,))
        return Join(tuple(parts))


class FlattenUnion(RewriteRule):
    """``Union(Union(a, b), c)`` -> ``Union(a, b, c)``."""

    name = "flatten-union"

    def matches(self, plan: Plan) -> bool:
        return isinstance(plan, Union) and any(isinstance(p, Union) for p in plan.parts)

    def apply(self, plan: Plan, db: Optional[Database]) -> Plan:
        parts: List[Plan] = []
        for p in plan.parts:
            parts.extend(p.parts if isinstance(p, Union) else (p,))
        return Union(tuple(parts))


class MergeSelects(RewriteRule):
    """``Select(Select(x, a), b)`` -> ``Select(x, a + b)``.

    Constraint-selection merging: stacked selections become one
    operator call conjoining all atoms at once.
    """

    name = "merge-selects"

    def matches(self, plan: Plan) -> bool:
        return isinstance(plan, Select) and isinstance(plan.source, Select)

    def apply(self, plan: Plan, db: Optional[Database]) -> Plan:
        return Select(plan.source.source, plan.source.atoms + plan.atoms)


class PushSelectIntoJoin(RewriteRule):
    """Push each selection atom into the join part covering its variables."""

    name = "push-select-join"

    def matches(self, plan: Plan) -> bool:
        if not (isinstance(plan, Select) and isinstance(plan.source, Join)):
            return False
        schemas = [set(p.schema) for p in plan.source.parts]
        return any(
            any({v.name for v in atom.variables} <= s for s in schemas)
            for atom in plan.atoms
        )

    def apply(self, plan: Plan, db: Optional[Database]) -> Plan:
        remaining: List = []
        parts = list(plan.source.parts)
        for atom in plan.atoms:
            needed = {v.name for v in atom.variables}
            for i, part in enumerate(parts):
                if needed <= set(part.schema):
                    parts[i] = Select(part, (atom,))
                    break
            else:
                remaining.append(atom)
        pushed = Join(tuple(parts))
        return Select(pushed, tuple(remaining)) if remaining else pushed


class PushSelectIntoUnion(RewriteRule):
    """Distribute a selection over a union when every part covers it."""

    name = "push-select-union"

    def matches(self, plan: Plan) -> bool:
        if not (isinstance(plan, Select) and isinstance(plan.source, Union)):
            return False
        needed = set()
        for atom in plan.atoms:
            needed |= {v.name for v in atom.variables}
        return all(needed <= set(p.schema) for p in plan.source.parts)

    def apply(self, plan: Plan, db: Optional[Database]) -> Plan:
        return Union(tuple(Select(p, plan.atoms) for p in plan.source.parts))


class ConstraintJoinToSelect(RewriteRule):
    """``Join(R, sigma)`` with a covered constraint -> ``Select(R, sigma)``."""

    name = "constraint-join-select"

    def matches(self, plan: Plan) -> bool:
        if not isinstance(plan, Join):
            return False
        relational = [p for p in plan.parts if not isinstance(p, ConstraintScan)]
        constraints = [p for p in plan.parts if isinstance(p, ConstraintScan)]
        if not relational or not constraints:
            return False
        return any(
            any(set(c.schema) <= set(r.schema) for r in relational)
            for c in constraints
        )

    def apply(self, plan: Plan, db: Optional[Database]) -> Plan:
        relational = [p for p in plan.parts if not isinstance(p, ConstraintScan)]
        leftover: List[Plan] = []
        for scan in plan.parts:
            if not isinstance(scan, ConstraintScan):
                continue
            needed = set(scan.schema)
            for i, part in enumerate(relational):
                if needed <= set(part.schema):
                    relational[i] = Select(part, (scan.atom,))
                    break
            else:
                leftover.append(scan)
        parts = relational + leftover
        return parts[0] if len(parts) == 1 else Join(tuple(parts))


def _estimate(plan: Plan, db: Optional[Database]) -> int:
    """Crude representation-size estimate (tuple counts) for join order."""
    if isinstance(plan, Scan):
        if db is not None and plan.name in db:
            return max(1, len(db[plan.name]))
        return 8
    if isinstance(plan, (ConstraintScan, Universe, Empty)):
        return 1
    if isinstance(plan, (Select, Project, Absorb, Shared)):
        return _estimate(plan.source, db)
    if isinstance(plan, Join):
        product = 1
        for p in plan.parts:
            product *= _estimate(p, db)
        return product
    if isinstance(plan, Union):
        return sum(_estimate(p, db) for p in plan.parts)
    if isinstance(plan, Complement):
        return 2 ** min(_estimate(plan.source, db), 16)
    return 4  # pragma: no cover


class ReorderJoin(RewriteRule):
    """Order >=3-way join parts smallest-estimate first."""

    name = "reorder-join"

    def matches(self, plan: Plan) -> bool:
        return isinstance(plan, Join) and len(plan.parts) > 2

    def apply(self, plan: Plan, db: Optional[Database]) -> Plan:
        ordered = tuple(sorted(plan.parts, key=lambda p: _estimate(p, db)))
        return plan if ordered == plan.parts else Join(ordered)


class RemoveDoubleComplement(RewriteRule):
    """``Complement(Complement(x))`` -> ``x`` (same schema, same pointset)."""

    name = "double-complement"

    def matches(self, plan: Plan) -> bool:
        return isinstance(plan, Complement) and isinstance(plan.source, Complement)

    def apply(self, plan: Plan, db: Optional[Database]) -> Plan:
        return plan.source.source


class PropagateEmpty(RewriteRule):
    """Constant-fold Empty/Universe children without changing schemas."""

    name = "propagate-empty"

    def matches(self, plan: Plan) -> bool:
        return self.apply(plan, None) != plan

    def apply(self, plan: Plan, db: Optional[Database]) -> Plan:
        if isinstance(plan, Select) and isinstance(plan.source, Empty):
            return plan.source
        if isinstance(plan, Project) and isinstance(plan.source, Empty):
            return Empty(plan.columns)
        if isinstance(plan, Complement) and isinstance(plan.source, Empty):
            return Universe(plan.source.columns)
        if isinstance(plan, Complement) and isinstance(plan.source, Universe):
            return Empty(plan.source.columns)
        if isinstance(plan, Join):
            if any(isinstance(p, Empty) for p in plan.parts):
                return Empty(plan.schema)
            kept = [p for p in plan.parts if not isinstance(p, Universe)]
            if len(kept) < len(plan.parts) and kept:
                slimmer = kept[0] if len(kept) == 1 else Join(tuple(kept))
                if slimmer.schema == plan.schema:
                    return slimmer
        if isinstance(plan, Union):
            kept = [p for p in plan.parts if not isinstance(p, Empty)]
            if not kept:
                return Empty(plan.schema)
            if len(kept) < len(plan.parts):
                slimmer = kept[0] if len(kept) == 1 else Union(tuple(kept))
                if slimmer.schema == plan.schema:
                    return slimmer
        return plan


class PlaceAbsorb(RewriteRule):
    """Insert absorption where a smaller representation pays downstream.

    Two placements: below a Complement whose input is a Join or Union
    (complement cost is exponential in input tuple count), and above
    wide (>=3-part) unions feeding another operator (unions accumulate
    subsumed tuples).  Firing at the *consumer* keeps the rule
    idempotent: once wrapped, the child is an Absorb and no longer
    matches.
    """

    name = "place-absorb"

    @staticmethod
    def _wants_absorb(child: Plan) -> bool:
        return isinstance(child, Union) and len(child.parts) >= 3

    def matches(self, plan: Plan) -> bool:
        if isinstance(plan, Complement) and isinstance(plan.source, (Join, Union)):
            return True
        if isinstance(plan, (Select, Project)) and self._wants_absorb(plan.source):
            return True
        if isinstance(plan, Join) and any(self._wants_absorb(p) for p in plan.parts):
            return True
        return False

    def apply(self, plan: Plan, db: Optional[Database]) -> Plan:
        if isinstance(plan, Complement):
            return Complement(Absorb(plan.source))
        if isinstance(plan, Select):
            return Select(Absorb(plan.source), plan.atoms)
        if isinstance(plan, Project):
            return Project(Absorb(plan.source), plan.columns)
        return Join(
            tuple(Absorb(p) if self._wants_absorb(p) else p for p in plan.parts)
        )


class DedupCommonSubplans(RewriteRule):
    """Wrap repeated non-leaf subtrees in ``Shared`` markers.

    Plan nodes are value objects, so duplicated subtrees compare equal;
    executors memoize on a Shared node's source and evaluate it once.
    Whole-tree rule: the engine applies it at the root only.
    """

    name = "dedup-subplans"
    whole_tree = True

    def matches(self, plan: Plan) -> bool:
        return True

    def apply(self, plan: Plan, db: Optional[Database]) -> Plan:
        counts: Counter = Counter()

        def visit(p: Plan) -> None:
            if not isinstance(p, Shared) and p.children():
                counts[p] += 1
            for c in p.children():
                visit(c)

        visit(plan)
        targets = {p for p, n in counts.items() if n >= 2}
        if not targets:
            return plan

        def wrap(p: Plan, under_shared: bool) -> Plan:
            if not under_shared and not isinstance(p, Shared) and p in targets:
                return Shared(p)
            return _rewrite_children(p, lambda c: wrap(c, isinstance(p, Shared)))

        # never wrap the root itself: a top-level Shared buys nothing
        return _rewrite_children(plan, lambda c: wrap(c, isinstance(plan, Shared)))


HEURISTIC_RULES: Tuple[RewriteRule, ...] = (
    FlattenJoin(),
    FlattenUnion(),
    MergeSelects(),
    PushSelectIntoJoin(),
    PushSelectIntoUnion(),
    ConstraintJoinToSelect(),
    RemoveDoubleComplement(),
    PropagateEmpty(),
    ReorderJoin(),
    PlaceAbsorb(),
    DedupCommonSubplans(),
)


class RuleEngine:
    """Drive a rule list to fixpoint with a total firing budget.

    Each pass rewrites the tree bottom-up, trying every node-local rule
    at every node in list order, then the whole-tree rules at the root.
    Passes repeat until the plan stops changing, the firing budget is
    exhausted, or the pass cap is hit.  ``fired`` records per-rule
    firing counts for the ``planner.rule.fired`` metrics.
    """

    def __init__(
        self,
        rules: Sequence[RewriteRule] = HEURISTIC_RULES,
        database: Optional[Database] = None,
        budget: int = DEFAULT_FIRING_BUDGET,
    ) -> None:
        self.rules = tuple(rules)
        self.database = database
        self.budget = budget
        self.fired: Dict[str, int] = {}
        self._spent = 0

    def run(self, plan: Plan) -> Plan:
        for _ in range(_MAX_PASSES):
            new = self._pass(plan)
            if new == plan or self._spent >= self.budget:
                return new
            plan = new
        return plan

    def _fire(self, rule: RewriteRule, plan: Plan) -> Plan:
        if self._spent >= self.budget or not rule.matches(plan):
            return plan
        new = rule.apply(plan, self.database)
        if new != plan:
            self._spent += 1
            self.fired[rule.name] = self.fired.get(rule.name, 0) + 1
            return new
        return plan

    def _pass(self, plan: Plan) -> Plan:
        plan = self._node_pass(plan)
        for rule in self.rules:
            if getattr(rule, "whole_tree", False):
                plan = self._fire(rule, plan)
        return plan

    def _node_pass(self, plan: Plan) -> Plan:
        plan = _rewrite_children(plan, self._node_pass)
        for rule in self.rules:
            if not getattr(rule, "whole_tree", False):
                plan = self._fire(rule, plan)
        return plan


def heuristic_engine(database: Optional[Database] = None) -> RuleEngine:
    """A fresh engine with the standard heuristic rule list."""
    return RuleEngine(HEURISTIC_RULES, database)
