"""Row estimates for plan nodes: the one plan estimator.

:func:`estimate_plan` annotates a plan tree with per-node estimated
rows (generalized tuples).  Two consumers read it: the rule engine's
``ReorderJoin`` orders join parts by the row figure, and ``repro
plan`` prints it per node.

Rows follow the representation, not the pointset: a scan has its
stored tuple count, selection, projection and absorption keep their
input's, a join multiplies its parts' and a union adds them.  A
complement is priced at its DNF worst case, ``2^n`` for ``n`` input
tuples (capped at ``2^16``), since negating a disjunction of ``n``
conjunctions distributes into a product.  Rows are exact Python
integers, so a wide join of complements never overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.errors import EncodingError

__all__ = ["PlanEstimate", "estimate_plan"]

#: rows of a scanned relation the database does not hold
_UNKNOWN_SCAN_ROWS = 8

#: complement rows are ``2 ** min(input rows, this)``
_COMPLEMENT_EXPONENT_CAP = 16


@dataclass
class PlanEstimate:
    """Per-node row annotation of a plan tree.

    ``rows`` is the estimated output cardinality (generalized tuples).
    Shared subtrees are estimated once: repeated ``Shared`` occurrences
    report ``cached=True`` and no children.
    """

    label: str
    rows: int
    cached: bool = False
    children: List["PlanEstimate"] = field(default_factory=list)
    node: Any = None  #: the plan node this estimate annotates


def estimate_plan(plan, db=None) -> PlanEstimate:
    """Annotate ``plan`` with estimated rows."""
    from repro.core import planner as p

    shared_seen: Dict[object, PlanEstimate] = {}

    def walk(node) -> PlanEstimate:
        estimate = _walk(node)
        estimate.node = node
        return estimate

    def unary(label: str, node, rows_of=None) -> PlanEstimate:
        child = walk(node.source)
        rows = child.rows if rows_of is None else rows_of(child.rows)
        return PlanEstimate(label, rows, children=[child])

    def _walk(node) -> PlanEstimate:
        if isinstance(node, p.Scan):
            rows = _UNKNOWN_SCAN_ROWS
            if db is not None and node.name in db:
                rows = max(1, len(db[node.name]))
            return PlanEstimate(f"Scan {node.name}", rows)
        if isinstance(node, p.ConstraintScan):
            return PlanEstimate("Constraint", 1)
        if isinstance(node, p.Universe):
            return PlanEstimate("Universe", 1)
        if isinstance(node, p.Empty):
            return PlanEstimate("Empty", 0)
        if isinstance(node, p.Select):
            return unary("Select", node)
        if isinstance(node, p.Project):
            return unary("Project", node)
        if isinstance(node, p.Absorb):
            return unary("Absorb", node)
        if isinstance(node, p.Complement):
            return unary(
                "Complement", node,
                rows_of=lambda n: 2 ** min(n, _COMPLEMENT_EXPONENT_CAP),
            )
        if isinstance(node, p.Join):
            children = [walk(part) for part in node.parts]
            rows = 1
            for child in children:
                rows *= child.rows
            return PlanEstimate("Join", rows, children=children)
        if isinstance(node, p.Union):
            children = [walk(part) for part in node.parts]
            rows = sum(c.rows for c in children)
            return PlanEstimate("Union", rows, children=children)
        if isinstance(node, p.Shared):
            cached = shared_seen.get(node)
            if cached is not None:
                return PlanEstimate("Shared", cached.rows, cached=True)
            child = walk(node.source)
            estimate = PlanEstimate("Shared", child.rows, children=[child])
            shared_seen[node] = estimate
            return estimate
        raise EncodingError(
            f"cannot estimate plan node {type(node).__name__}"
        )  # pragma: no cover

    return walk(plan)
