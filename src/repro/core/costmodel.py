"""Row and cost estimates for plan nodes: the one plan estimator.

:func:`estimate_plan` annotates a plan tree with per-node estimated
rows (generalized tuples) and modeled serial seconds.  Two consumers
read it: the rule engine's ``ReorderJoin`` orders join parts by the
row figure, and ``repro plan`` prints both figures per node.

Rows follow the representation, not the pointset: a scan has its
stored tuple count, selection, projection and absorption keep their
input's, a join multiplies its parts' and a union adds them.  A
complement is priced at its DNF worst case, ``2^n`` for ``n`` input
tuples (capped at ``2^16``), since negating a disjunction of ``n``
conjunctions distributes into a product.

Seconds come from fixed per-operator coefficients (:data:`COEFFICIENTS`,
``seconds ~ base + per_input·in + per_unit·unit + per_output·out``,
where ``unit`` is the operator's dominant work term: candidate pairs
for join, input size for project, in·out for complement, in² for
absorption).  They are fixed order-of-magnitude figures, fitted to no
measurement, that only ``repro plan`` prints (its ``est_cost``
column); no code acts on them.

Rows are exact Python integers, so a wide join of complements can pass
the float range; seconds price any row figure above
:data:`_PRICED_ROWS_CAP` as that cap instead of overflowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import EncodingError

__all__ = ["COEFFICIENTS", "PlanEstimate", "estimate_plan", "op_seconds"]

#: rows of a scanned relation the database does not hold
_UNKNOWN_SCAN_ROWS = 8

#: complement rows are ``2 ** min(input rows, this)``
_COMPLEMENT_EXPONENT_CAP = 16

#: row and work figures above this are priced as this (floats end near 1.8e308)
_PRICED_ROWS_CAP = 1e300

# Order-of-magnitude figures for the pure-python kernels: tens of
# microseconds per tuple touched.
COEFFICIENTS: Dict[str, Dict[str, float]] = {
    "join": {"base": 2e-5, "per_input": 5e-6, "per_unit": 6e-5, "per_output": 2e-5},
    "project": {"base": 1e-5, "per_input": 8e-5, "per_unit": 0.0, "per_output": 1e-5},
    "complement": {"base": 2e-5, "per_input": 6e-5, "per_unit": 1e-5, "per_output": 3e-5},
    "absorb": {"base": 1e-5, "per_input": 1e-5, "per_unit": 4e-6, "per_output": 0.0},
    "select": {"base": 1e-5, "per_input": 3e-5, "per_unit": 0.0, "per_output": 0.0},
    "union": {"base": 5e-6, "per_input": 3e-6, "per_unit": 0.0, "per_output": 0.0},
    "scan": {"base": 5e-6, "per_input": 2e-6, "per_unit": 0.0, "per_output": 0.0},
}


def _unit_of(op: str, in_tuples: float, out_tuples: float) -> float:
    """The operator's dominant work term (see module docstring)."""
    if op == "join":
        return out_tuples
    if op == "project":
        return in_tuples
    if op == "complement":
        return in_tuples * out_tuples
    if op == "absorb":
        return in_tuples * in_tuples
    return 0.0


def op_seconds(
    op: str, in_tuples: float, out_tuples: float, unit: Optional[float] = None
) -> float:
    """Modeled serial wall seconds for one operator call (an unknown
    operator is priced like a scan)."""
    coefs = COEFFICIENTS.get(op, COEFFICIENTS["scan"])
    work = _unit_of(op, in_tuples, out_tuples) if unit is None else unit
    in_tuples, out_tuples, work = (
        float(min(n, _PRICED_ROWS_CAP)) for n in (in_tuples, out_tuples, work)
    )
    return (
        coefs["base"]
        + coefs["per_input"] * in_tuples
        + coefs["per_unit"] * work
        + coefs["per_output"] * out_tuples
    )


@dataclass
class PlanEstimate:
    """Per-node row and cost annotation of a plan tree.

    ``rows`` is the estimated output cardinality (generalized tuples),
    ``seconds`` the modeled serial cost of this node alone and
    ``total_seconds`` includes the children.  Shared subtrees are
    priced once: repeated ``Shared`` occurrences report ``cached=True``
    with zero marginal cost.
    """

    label: str
    rows: int
    seconds: float
    total_seconds: float
    cached: bool = False
    children: List["PlanEstimate"] = field(default_factory=list)
    node: Any = None  #: the plan node this estimate annotates


def estimate_plan(plan, db=None) -> PlanEstimate:
    """Annotate ``plan`` with estimated rows and modeled seconds."""
    from repro.core import planner as p

    shared_seen: Dict[object, PlanEstimate] = {}

    def walk(node) -> PlanEstimate:
        estimate = _walk(node)
        estimate.node = node
        return estimate

    def unary(label: str, op: str, node, rows_of=None, unit_of=None) -> PlanEstimate:
        child = walk(node.source)
        rows = child.rows if rows_of is None else rows_of(child.rows)
        unit = None if unit_of is None else unit_of(child.rows, rows)
        cost = op_seconds(op, child.rows, rows, unit=unit)
        return PlanEstimate(
            label, rows, cost, cost + child.total_seconds, children=[child]
        )

    def _walk(node) -> PlanEstimate:
        if isinstance(node, p.Scan):
            rows = _UNKNOWN_SCAN_ROWS
            if db is not None and node.name in db:
                rows = max(1, len(db[node.name]))
            cost = op_seconds("scan", rows, rows)
            return PlanEstimate(f"Scan {node.name}", rows, cost, cost)
        if isinstance(node, p.ConstraintScan):
            return PlanEstimate("Constraint", 1, 0.0, 0.0)
        if isinstance(node, p.Universe):
            return PlanEstimate("Universe", 1, 0.0, 0.0)
        if isinstance(node, p.Empty):
            return PlanEstimate("Empty", 0, 0.0, 0.0)
        if isinstance(node, p.Select):
            return unary("Select", "select", node)
        if isinstance(node, p.Project):
            return unary("Project", "project", node)
        if isinstance(node, p.Absorb):
            return unary("Absorb", "absorb", node)
        if isinstance(node, p.Complement):
            return unary(
                "Complement", "complement", node,
                rows_of=lambda n: 2 ** min(n, _COMPLEMENT_EXPONENT_CAP),
                unit_of=lambda n, out: n * out,
            )
        if isinstance(node, p.Join):
            children = [walk(part) for part in node.parts]
            # left-deep accumulation, matching execute_plan's fold
            rows = children[0].rows
            cost = 0.0
            for child in children[1:]:
                pairs = rows * child.rows
                cost += op_seconds("join", rows + child.rows, pairs, unit=pairs)
                rows = pairs
            total = cost + sum(c.total_seconds for c in children)
            return PlanEstimate("Join", rows, cost, total, children=children)
        if isinstance(node, p.Union):
            children = [walk(part) for part in node.parts]
            rows = sum(c.rows for c in children)
            cost = op_seconds("union", rows, rows)
            total = cost + sum(c.total_seconds for c in children)
            return PlanEstimate("Union", rows, cost, total, children=children)
        if isinstance(node, p.Shared):
            cached = shared_seen.get(node)
            if cached is not None:
                return PlanEstimate("Shared", cached.rows, 0.0, 0.0, cached=True)
            child = walk(node.source)
            estimate = PlanEstimate(
                "Shared", child.rows, 0.0, child.total_seconds, children=[child]
            )
            shared_seen[node] = estimate
            return estimate
        raise EncodingError(
            f"cannot estimate plan node {type(node).__name__}"
        )  # pragma: no cover

    return walk(plan)
