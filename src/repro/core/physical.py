"""The plan executor, the planning facade and the plan listing.

The logical layers (:mod:`repro.core.planner`, :mod:`repro.core.rules`)
decide *what* to compute; this module runs and prints the result:

* :func:`execute_plan` -- the plan executor, the only one: it evaluates
  every node itself and memoizes ``Shared`` subtrees so duplicated
  subplans evaluate once;
* :class:`QueryPlanner` -- the facade every planned entry point uses
  (``query``/``datalog``/``explain --optimize heuristic``, ``repro
  plan``, the Datalog engines): rule-engine rewrites (``logical_plan``,
  the only caller of the rule engine), a logical-plan cache,
  ``planner.*`` metrics and a ``planner.plan`` span for trace
  provenance;
* :func:`render_plan` -- the ``repro plan`` listing: one line per node,
  labelled with the node's own text (``Scan edge(x, y)``,
  ``Select [x < 5]``), with the estimated rows of
  :func:`repro.core.costmodel.estimate_plan`, the figure the rule
  engine's join reordering sorts by.

The planner only rewrites.  Where an operator runs is not a planning
decision: ``--parallel`` activates an
:class:`~repro.parallel.context.ExecutionContext` around the whole run,
and every kernel that sees the active context shards on it, planned or
not.

Equivalence is the whole contract: a planned run must produce a
relation equivalent to the unplanned evaluator's, also inside an
activated pool, with the same guard totals as the planned run without
one — pinned by ``tests/parallel/test_planned_differential.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.costmodel import PlanEstimate, estimate_plan
from repro.core.database import Database
from repro.core.evaluator import _common_schema, _eval_relation_atom
from repro.core.formula import RelationAtom
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
    compile_formula,
)
from repro.core.relation import Relation
from repro.core.theory import ConstraintTheory, DENSE_ORDER
from repro.errors import EvaluationError

__all__ = ["execute_plan", "QueryPlanner", "render_plan"]


# ------------------------------------------------------------------ executor


def execute_plan(
    plan: Plan,
    database: Optional[Database] = None,
    theory: ConstraintTheory = DENSE_ORDER,
) -> Relation:
    """Run a plan bottom-up, evaluating each ``Shared`` subtree once."""
    db = database if database is not None else Database(theory=theory)
    memo: Dict[Plan, Relation] = {}

    def run(node: Plan) -> Relation:
        if isinstance(node, Shared):
            cached = memo.get(node.source)
            if cached is None:
                cached = memo[node.source] = run(node.source)
            return cached
        if isinstance(node, Scan):
            return _eval_relation_atom(
                RelationAtom(node.name, node.args), db, theory
            )
        if isinstance(node, ConstraintScan):
            return Relation.from_atoms(node.schema, [[node.atom]], theory)
        if isinstance(node, Universe):
            return Relation.universe(node.columns, theory)
        if isinstance(node, Empty):
            return Relation.empty(node.columns, theory)
        if isinstance(node, Select):
            return run(node.source).select(list(node.atoms))
        if isinstance(node, Project):
            return run(node.source).project(node.columns)
        if isinstance(node, Absorb):
            return run(node.source).simplify()
        if isinstance(node, Complement):
            return run(node.source).complement()
        if isinstance(node, Join):
            parts = [run(p) for p in node.parts]
            result = parts[0]
            for piece in parts[1:]:
                result = result.join(piece)
            target = node.schema
            if result.schema != target:
                result = result.extend(
                    _common_schema(result.schema, target)
                ).project(target)
            return result
        if isinstance(node, Union):
            target = node.schema
            result = Relation.empty(target, theory)
            for p in node.parts:
                piece = run(p)
                padded = piece.extend(_common_schema(piece.schema, target))
                if padded.schema != target:
                    padded = padded.project(target)
                result = result.union(padded)
            return result
        raise EvaluationError(
            f"cannot execute plan node {type(node).__name__}"
        )  # pragma: no cover

    return run(plan)


# ------------------------------------------------------------------- facade


#: accepted planner modes (the CLI's ``--optimize none`` builds no
#: planner); ``"cost"`` is a synonym of ``"heuristic"``
OPTIMIZE_MODES = ("heuristic", "cost")


class QueryPlanner:
    """The planning facade behind ``--optimize heuristic`` and
    ``repro plan``: rule-engine rewrites, then :func:`execute_plan`.

    ``mode`` must be ``"heuristic"``.  ``"cost"`` is accepted as a
    synonym, only because ``perfbench/`` still builds
    ``QueryPlanner(mode="cost", context=…)``; ``context`` is accepted
    for the same reason and unused, since a planner no longer owns a
    worker pool.  There is no ``"none"`` mode: unplanned runs build no
    planner and go through the direct evaluator.

    Logical plans are cached per formula (Datalog re-derives the same
    rule bodies every round; ``planner.cache.hits`` counts the wins).
    When a tracer is active, each planning step runs under a
    ``planner.plan`` span, and ``planner.*`` metrics count plans and
    rule firings.
    """

    def __init__(self, mode: str = "heuristic", context=None) -> None:
        if mode not in OPTIMIZE_MODES:
            raise ValueError(
                f"mode must be one of {OPTIMIZE_MODES}, got {mode!r}"
            )
        self.mode = mode
        self._logical_cache: Dict[object, Plan] = {}

    def logical_plan(self, formula, db: Optional[Database]) -> Plan:
        from repro.core.rules import heuristic_engine
        from repro.obs.trace import active_tracer

        cached = self._logical_cache.get(formula)
        tracer = active_tracer()
        if cached is not None:
            if tracer is not None:
                tracer.metrics.count("planner.cache.hits")
            return cached
        engine = heuristic_engine(db)
        plan = engine.run(compile_formula(formula))
        self._logical_cache[formula] = plan
        if tracer is not None:
            tracer.metrics.count("planner.plans")
            for rule, fired in engine.fired.items():
                tracer.metrics.count(f"planner.rule.{rule}", fired)
        return plan

    def physical_plan(self, plan: Plan, db: Optional[Database]) -> dict:
        """Always ``{}``, and nothing in the engine calls it.  It stays
        only because ``perfbench/layers.py`` patches it by name."""
        return {}

    def run(
        self,
        formula,
        db: Optional[Database] = None,
        theory: ConstraintTheory = DENSE_ORDER,
        guard=None,
    ) -> Relation:
        """Plan and execute one formula (the evaluator replacement)."""
        from repro.obs.trace import span

        with span("planner.plan", mode=self.mode):
            plan = self.logical_plan(formula, db)
        if guard is None:
            return execute_plan(plan, db, theory)
        with guard:
            return execute_plan(plan, db, theory)


# ------------------------------------------------------------------ rendering


def _node_text(node: Plan) -> str:
    """One plan node as text, without its children: ``Scan edge(x, y)``,
    ``Select [x < 5]``, ``Project ('x', 'z')``, ``Join``."""
    if isinstance(node, Scan):
        return f"Scan {node.name}({', '.join(str(a) for a in node.args)})"
    if isinstance(node, ConstraintScan):
        return f"Constraint [{node.atom}]"
    if isinstance(node, Select):
        return f"Select [{' and '.join(str(a) for a in node.atoms)}]"
    if isinstance(node, Project):
        return f"Project {node.columns}"
    if isinstance(node, (Universe, Empty)):
        return f"{type(node).__name__} {node.columns}"
    return type(node).__name__


def render_plan(plan: Plan, db: Optional[Database] = None) -> str:
    """The ``repro plan`` listing: the tree with est rows per node."""
    lines: List[str] = ["plan (estimated rows: generalized tuples per node)"]

    def walk(est: PlanEstimate, depth: int) -> None:
        label = "  " * depth + _node_text(est.node)
        lines.append(
            f"  {label:<32} est_rows={est.rows:>10d}"
            + ("  [memoized]" if est.cached else "")
        )
        for child in est.children:
            walk(child, depth + 1)

    walk(estimate_plan(plan, db), 0)
    return "\n".join(lines)
