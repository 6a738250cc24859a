"""Physical planning: per-operator serial-vs-parallel dispatch, the
plan executor, and the planning facade.

The logical layers (:mod:`repro.core.rules`, :mod:`repro.core.costmodel`)
decide *what* to compute; this module decides *how*: for every Join,
Project, and Absorb node it compares the cost model's serial price
against the modeled sharded price over candidate worker counts and
picks the cheaper side.  With ``--parallel`` the CLI passes an
:class:`~repro.parallel.context.ExecutionContext` as a *capability*;
the planner decides where it is actually used.

* :func:`plan_physical` -- a :class:`Decision` per parallelizable node
  (plan nodes are value objects, so the map is keyed by the node);
* :func:`execute_plan` -- the plan executor, the only one: it evaluates
  every node itself, activates the execution context only around nodes
  whose decision says parallel (temporarily pinning the context's
  worker count and shard strategy to the decision), and memoizes
  ``Shared`` subtrees so duplicated subplans evaluate once;
* :class:`QueryPlanner` -- the facade every planned entry point uses
  (``query``/``datalog``/``explain --optimize``, ``repro plan``, the
  Datalog engine): rule-engine rewrites (``logical_plan``, the only
  caller of the rule engine), a logical-plan cache, dispatch decisions
  (``physical_plan``), ``planner.*`` metrics, ``planner.decision`` log
  records, and a ``planner.plan`` span for trace provenance;
* :func:`render_plan` -- the ``repro plan`` listing: one line per node,
  labelled with the node's own text (``Scan edge(x, y)``,
  ``Select [x < 5]``), with estimated rows, modeled cost, and the
  dispatch verdict.

Equivalence is the whole contract: a planned run must produce a
relation equivalent to the unplanned evaluator's, and planned-serial
vs planned-parallel of the *same* plan must agree on guard counters —
both pinned by ``tests/parallel/test_planned_differential.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.costmodel import CostModel, PlanEstimate, estimate_plan
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

__all__ = [
    "Decision",
    "plan_physical",
    "execute_plan",
    "QueryPlanner",
    "render_plan",
    "PARALLEL_OPS",
]

#: plan nodes with a sharded kernel behind them
PARALLEL_OPS = (Join, Project, Absorb)

#: modeled parallel cost must beat serial by this factor before the
#: planner commits to dispatch (process pools have variance the model
#: does not capture; a marginal win is not worth it)
_DISPATCH_MARGIN = 1.25

#: candidate worker counts are powers of two up to the pool size
_MIN_PARALLEL_ROWS = 4.0


@dataclass
class Decision:
    """One node's dispatch verdict.

    ``est_serial`` / ``est_parallel`` are modeled seconds for this
    node alone; ``reason`` is a short human-readable justification
    rendered by ``repro plan`` and logged as ``planner.decision``.
    """

    label: str
    parallel: bool
    workers: int
    strategy: str
    est_serial: float
    est_parallel: float
    reason: str

    def as_attrs(self) -> dict:
        return {
            "node": self.label,
            "parallel": self.parallel,
            "workers": self.workers,
            "strategy": self.strategy,
            "est_serial": round(self.est_serial, 6),
            "est_parallel": round(self.est_parallel, 6),
            "reason": self.reason,
        }


def _candidate_workers(max_workers: int) -> List[int]:
    counts = []
    w = 2
    while w < max_workers:
        counts.append(w)
        w *= 2
    if max_workers >= 2:
        counts.append(max_workers)
    return counts


def _strategy_for(node: Plan, default: str) -> str:
    # absorption shards best cell-aligned (comparable tuples land in
    # the same shard, so subsumption is caught locally); joins and
    # projections balance better under the stable hash
    if isinstance(node, Absorb):
        return "cell"
    return default


def plan_physical(
    plan: Plan,
    db: Optional[Database] = None,
    model: Optional[CostModel] = None,
    max_workers: int = 1,
    default_strategy: str = "hash",
) -> Dict[Plan, Decision]:
    """Serial-vs-parallel :class:`Decision` per Join/Project/Absorb node.

    ``max_workers`` is the pool capacity the caller is willing to
    grant (1 disables dispatch entirely — every decision is serial,
    which is how ``--optimize=cost`` without ``--parallel`` runs).
    """
    model = model if model is not None else CostModel()
    estimate = estimate_plan(plan, db, model)
    decisions: Dict[Plan, Decision] = {}

    def walk(est: PlanEstimate) -> None:
        for child in est.children:
            walk(child)
        node = est.node
        if not isinstance(node, PARALLEL_OPS) or node in decisions:
            return
        label = est.label
        in_rows = sum(c.rows for c in est.children) if est.children else 0.0
        serial = est.seconds
        if max_workers < 2:
            decisions[node] = Decision(
                label, False, 1, default_strategy, serial, serial,
                "serial: pool capacity is 1",
            )
            return
        if in_rows < _MIN_PARALLEL_ROWS:
            decisions[node] = Decision(
                label, False, 1, default_strategy, serial, serial,
                f"serial: ~{in_rows:.0f} input row(s) is below the "
                f"shard floor",
            )
            return
        best_workers, best_cost = 1, serial
        for workers in _candidate_workers(max_workers):
            cost = model.parallel_seconds(serial, workers, in_rows)
            if cost < best_cost:
                best_workers, best_cost = workers, cost
        if best_workers > 1 and serial > best_cost * _DISPATCH_MARGIN:
            strategy = _strategy_for(node, default_strategy)
            decisions[node] = Decision(
                label, True, best_workers, strategy, serial, best_cost,
                f"parallel×{best_workers}/{strategy}: modeled "
                f"{serial * 1e3:.2f}ms serial vs {best_cost * 1e3:.2f}ms",
            )
        else:
            decisions[node] = Decision(
                label, False, 1, default_strategy, serial,
                min(best_cost, serial),
                "serial: dispatch overhead exceeds the modeled win",
            )

    walk(estimate)
    return decisions


# ------------------------------------------------------------------ executor


def execute_plan(
    plan: Plan,
    database: Optional[Database] = None,
    theory: ConstraintTheory = DENSE_ORDER,
    context=None,
    decisions: Optional[Dict[Plan, Decision]] = None,
) -> Relation:
    """Run a plan with per-node dispatch and Shared-subtree memoization.

    ``context`` is the (inactive) :class:`ExecutionContext` capability;
    it is activated only around nodes whose :class:`Decision` chose
    parallel, with its worker count and shard strategy pinned to the
    decision for the duration of that one operator.  With ``context``
    or ``decisions`` absent every node runs serially — still through
    this executor, so planned-serial and planned-parallel walk the
    exact same plan.
    """
    db = database if database is not None else Database(theory=theory)
    decisions = decisions or {}
    memo: Dict[Plan, Relation] = {}

    def dispatched(node: Plan, thunk):
        decision = decisions.get(node)
        if decision is None or not decision.parallel or context is None:
            return thunk()
        saved = (context.workers, context.shard_strategy, context.min_tuples)
        context.workers = decision.workers
        context.shard_strategy = decision.strategy
        # the planner already sized this node; keep only a degenerate
        # floor so 0/1-tuple actuals never shard
        context.min_tuples = 2
        try:
            with context:
                return thunk()
        finally:
            (context.workers, context.shard_strategy,
             context.min_tuples) = saved

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
            source = run(node.source)
            return dispatched(node, lambda: source.project(node.columns))
        if isinstance(node, Absorb):
            source = run(node.source)
            return dispatched(node, source.simplify)
        if isinstance(node, Complement):
            return run(node.source).complement()
        if isinstance(node, Join):
            parts = [run(p) for p in node.parts]

            def fold() -> Relation:
                result = parts[0]
                for piece in parts[1:]:
                    result = result.join(piece)
                return result

            result = dispatched(node, fold)
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


#: accepted planner modes (the CLI's ``--optimize none`` builds no planner)
OPTIMIZE_MODES = ("heuristic", "cost")


class QueryPlanner:
    """The planning facade behind ``--optimize`` and ``repro plan``.

    ``mode``:

    * ``"heuristic"`` — rule-engine rewrites, always-serial execution.
    * ``"cost"`` — rewrites plus cost-modeled per-operator dispatch
      through ``context`` when one is granted.

    There is no ``"none"`` mode: unplanned runs build no planner and
    go through the direct evaluator.

    Logical plans are cached per formula (Datalog re-derives the same
    rule bodies every round; ``planner.cache.hits`` counts the wins),
    while physical decisions are recomputed per call from current
    relation sizes.  When a tracer is active, each planning step runs
    under a ``planner.plan`` span, decisions are logged as
    ``planner.decision`` records, and ``planner.*`` metrics count
    plans, rule firings, and dispatch verdicts.
    """

    def __init__(
        self,
        mode: str = "cost",
        model: Optional[CostModel] = None,
        context=None,
        default_strategy: str = "hash",
    ) -> None:
        if mode not in OPTIMIZE_MODES:
            raise ValueError(
                f"mode must be one of {OPTIMIZE_MODES}, got {mode!r}"
            )
        self.mode = mode
        self.model = model if model is not None else CostModel()
        self.context = context
        self.default_strategy = default_strategy
        self._logical_cache: Dict[object, Plan] = {}
        self._scan_names: Dict[Plan, tuple] = {}
        self._physical_cache: Dict[tuple, Dict[Plan, Decision]] = {}

    # ------------------------------------------------------------- planning

    @property
    def max_workers(self) -> int:
        if self.mode != "cost" or self.context is None:
            return 1
        return self.context.workers

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

    def _db_signature(self, plan: Plan, db: Optional[Database]) -> tuple:
        """Scanned-relation cardinalities: the only database facts the
        cost estimate reads, so they key the physical-decision memo —
        Datalog fixpoints replan a rule body only on rounds where an
        input relation actually changed size."""
        names = self._scan_names.get(plan)
        if names is None:
            found = set()

            def walk(node: Plan) -> None:
                if isinstance(node, Scan):
                    found.add(node.name)
                for child in node.children():
                    walk(child)

            walk(plan)
            names = tuple(sorted(found))
            self._scan_names[plan] = names
        if db is None:
            return names
        return tuple(
            (name, len(db[name]) if name in db else None) for name in names
        )

    def physical_plan(
        self, plan: Plan, db: Optional[Database]
    ) -> Dict[Plan, Decision]:
        if self.mode != "cost":
            return {}
        from repro.obs.trace import active_tracer

        key = (plan, self.max_workers, self._db_signature(plan, db))
        cached = self._physical_cache.get(key)
        if cached is not None:
            tracer = active_tracer()
            if tracer is not None:
                tracer.metrics.count("planner.physical.cache.hits")
            return cached
        decisions = plan_physical(
            plan, db, self.model,
            max_workers=self.max_workers,
            default_strategy=self.default_strategy,
        )
        self._physical_cache[key] = decisions
        tracer = active_tracer()
        if tracer is not None:
            for decision in decisions.values():
                tracer.metrics.count(
                    "planner.nodes.parallel" if decision.parallel
                    else "planner.nodes.serial"
                )
                tracer.log("planner.decision", **decision.as_attrs())
        return decisions

    # ------------------------------------------------------------ execution

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
            decisions = self.physical_plan(plan, db)
        context = self.context if self.mode == "cost" else None
        if context is not None and any(
            d.parallel for d in decisions.values()
        ):
            # size the pool once at its capacity; per-node decisions
            # only lower the shard count
            context._ensure_executor()
        if guard is None:
            return execute_plan(plan, db, theory, context, decisions)
        with guard:
            return execute_plan(plan, db, theory, context, decisions)


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


def render_plan(
    plan: Plan,
    db: Optional[Database] = None,
    model: Optional[CostModel] = None,
    max_workers: int = 1,
    default_strategy: str = "hash",
) -> str:
    """The ``repro plan`` listing: tree, est rows/cost, dispatch verdict."""
    model = model if model is not None else CostModel()
    estimate = estimate_plan(plan, db, model)
    decisions = plan_physical(
        plan, db, model, max_workers=max_workers,
        default_strategy=default_strategy,
    )
    lines: List[str] = [
        f"plan (cost model: {model.source}, "
        f"pool capacity: {max_workers} worker(s))",
    ]

    def walk(est: PlanEstimate, depth: int) -> None:
        verdict = ""
        decision = decisions.get(est.node)
        if decision is not None:
            verdict = (
                f"  [{'parallel×' + str(decision.workers) + '/' + decision.strategy if decision.parallel else 'serial'}]"
                f"  ({decision.reason})"
            )
        elif est.cached:
            verdict = "  [memoized]"
        label = "  " * depth + _node_text(est.node)
        lines.append(
            f"  {label:<32} est_rows={est.rows:>10.0f} "
            f"est_cost={est.seconds * 1e3:>9.3f}ms{verdict}"
        )
        for child in est.children:
            walk(child, depth + 1)

    walk(estimate, 0)
    total = estimate.total_seconds
    parallel_nodes = sum(1 for d in decisions.values() if d.parallel)
    lines.append(
        f"  total modeled cost {total * 1e3:.3f}ms; "
        f"{parallel_nodes} node(s) chosen parallel, "
        f"{len(decisions) - parallel_nodes} serial"
    )
    return "\n".join(lines)
