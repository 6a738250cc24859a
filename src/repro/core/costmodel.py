"""Ledger-calibrated cost model for plan nodes.

The cost ledger (:mod:`repro.obs.ledger`) records, for every traced
operator call, the input/output cardinalities, the pre-execution
estimate and which estimator produced it, wall seconds, and the
dispatch shape.  This module turns that record stream into numbers a
planner can compare:

* :class:`CostModel` -- per-operator wall-cost coefficients
  (``seconds ~ base + per_input·in + per_unit·unit + per_output·out``
  where ``unit`` is the operator's dominant work term: candidate pairs
  for join, input size for project, in·out for complement, in² for
  absorption), per-estimator-kind correction ratios (observed
  actual/estimated output cardinality), and dispatch-overhead
  coefficients for the parallel backend;
* :func:`fit_cost_model` -- least-squares calibration from recorded
  ``repro.profile/1`` documents (pure-python normal equations; no
  numpy dependency), exposed on the CLI as ``repro calibrate`` over
  the documents ``repro explain --out`` writes;
* a schema-versioned ``repro.cost-model/1`` JSON document round-trip
  (:meth:`CostModel.save` / :func:`load_cost_model` /
  :func:`validate_cost_model`) so a fitted model persists and is
  loaded at plan time;
* :func:`estimate_plan` -- annotate a logical plan with per-node
  estimated rows and seconds, the input to the serial-vs-parallel
  decisions in :mod:`repro.core.physical`.

The **default** (uncalibrated) model is deliberately conservative
about parallelism: dispatch overhead is priced at observed
process-pool magnitudes, so on small inputs the planner picks serial
-- which is exactly the 1-core regression BENCH_PARALLEL documented.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import EncodingError
from repro.files import read_json

__all__ = [
    "COST_MODEL_SCHEMA",
    "CostModel",
    "PlanEstimate",
    "fit_cost_model",
    "load_cost_model",
    "validate_cost_model",
    "estimate_plan",
]

#: schema identifier stamped on every exported cost-model document
COST_MODEL_SCHEMA = "repro.cost-model/1"

#: coefficient keys per operator, in document order
_COEF_KEYS = ("base", "per_input", "per_unit", "per_output")

#: dispatch-overhead keys (parallel cost = serial/(shards·efficiency)
#: + base + per_shard·shards + per_tuple·in_tuples)
_DISPATCH_KEYS = ("base", "per_shard", "per_tuple", "efficiency")

#: operators the model prices (superset of the ledger's OPERATORS:
#: select/union/scan never dispatch but still need serial prices)
_PRICED_OPS = ("join", "project", "complement", "absorb", "select", "union", "scan")

# Conservative defaults, measured order-of-magnitude for the
# pure-python kernels: tens of microseconds per tuple touched, and
# milliseconds per process-pool dispatch.  A fitted model replaces
# them wholesale.
DEFAULT_COEFFICIENTS: Dict[str, Dict[str, float]] = {
    "join": {"base": 2e-5, "per_input": 5e-6, "per_unit": 6e-5, "per_output": 2e-5},
    "project": {"base": 1e-5, "per_input": 8e-5, "per_unit": 0.0, "per_output": 1e-5},
    "complement": {"base": 2e-5, "per_input": 6e-5, "per_unit": 1e-5, "per_output": 3e-5},
    "absorb": {"base": 1e-5, "per_input": 1e-5, "per_unit": 4e-6, "per_output": 0.0},
    "select": {"base": 1e-5, "per_input": 3e-5, "per_unit": 0.0, "per_output": 0.0},
    "union": {"base": 5e-6, "per_input": 3e-6, "per_unit": 0.0, "per_output": 0.0},
    "scan": {"base": 5e-6, "per_input": 2e-6, "per_unit": 0.0, "per_output": 0.0},
}

DEFAULT_DISPATCH: Dict[str, float] = {
    "base": 4e-3, "per_shard": 1.5e-3, "per_tuple": 3e-5, "efficiency": 0.85,
}

#: known estimator kinds (free-form strings are accepted; these are
#: the ones the relation kernels emit today)
ESTIMATOR_KINDS = (
    "join.indexed", "join.cross", "project.input",
    "complement.linear", "complement.product", "absorb.dedup",
)


def _unit_of(op: str, in_tuples: float, out_tuples: float) -> float:
    """The operator's dominant work term (see module docstring)."""
    if op == "join":
        return out_tuples  # candidate pairs ~ the recorded estimate basis
    if op == "project":
        return in_tuples
    if op == "complement":
        return in_tuples * out_tuples
    if op == "absorb":
        return in_tuples * in_tuples
    return 0.0


class CostModel:
    """Calibrated (or default) operator cost coefficients.

    Immutable in practice; construct via :func:`fit_cost_model`,
    :func:`load_cost_model`, or the no-argument default.
    """

    __slots__ = ("coefficients", "dispatch", "ratios", "source", "records_used")

    def __init__(
        self,
        coefficients: Optional[Dict[str, Dict[str, float]]] = None,
        dispatch: Optional[Dict[str, float]] = None,
        ratios: Optional[Dict[str, float]] = None,
        source: str = "default",
        records_used: int = 0,
    ) -> None:
        self.coefficients = {
            op: dict(DEFAULT_COEFFICIENTS[op]) for op in _PRICED_OPS
        }
        for op, coefs in (coefficients or {}).items():
            if op in self.coefficients:
                self.coefficients[op].update(coefs)
        self.dispatch = dict(DEFAULT_DISPATCH)
        self.dispatch.update(dispatch or {})
        self.ratios = dict(ratios or {})
        self.source = source
        self.records_used = records_used

    # ------------------------------------------------------------- pricing

    def op_seconds(
        self, op: str, in_tuples: float, out_tuples: float,
        unit: Optional[float] = None,
    ) -> float:
        """Modeled serial wall seconds for one operator call."""
        coefs = self.coefficients.get(op, DEFAULT_COEFFICIENTS["scan"])
        work = _unit_of(op, in_tuples, out_tuples) if unit is None else unit
        return (
            coefs["base"]
            + coefs["per_input"] * in_tuples
            + coefs["per_unit"] * work
            + coefs["per_output"] * out_tuples
        )

    def ratio(self, estimator: str) -> float:
        """Observed actual/estimated correction for an estimator kind."""
        return self.ratios.get(estimator, 1.0)

    def corrected(self, estimator: str, est_rows: float) -> float:
        """An estimate scaled by the estimator's observed bias."""
        return max(0.0, est_rows * self.ratio(estimator))

    def parallel_seconds(
        self, serial_seconds: float, shards: int, in_tuples: float
    ) -> float:
        """Modeled wall seconds for the same call sharded ``shards`` ways."""
        if shards <= 1:
            return serial_seconds + self.dispatch["base"]
        efficiency = max(0.05, self.dispatch["efficiency"])
        return (
            serial_seconds / (shards * efficiency)
            + self.dispatch["base"]
            + self.dispatch["per_shard"] * shards
            + self.dispatch["per_tuple"] * in_tuples
        )

    # ----------------------------------------------------------- documents

    def as_document(self) -> dict:
        return {
            "schema": COST_MODEL_SCHEMA,
            "source": self.source,
            "records_used": self.records_used,
            "coefficients": {
                op: {key: self.coefficients[op][key] for key in _COEF_KEYS}
                for op in _PRICED_OPS
            },
            "dispatch": {key: self.dispatch[key] for key in _DISPATCH_KEYS},
            "ratios": dict(self.ratios),
        }

    def save(self, path: str) -> dict:
        document = validate_cost_model(self.as_document())
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return document

    @classmethod
    def from_document(cls, document: Any) -> "CostModel":
        document = validate_cost_model(document)
        return cls(
            coefficients=document["coefficients"],
            dispatch=document["dispatch"],
            ratios=document["ratios"],
            source=document["source"],
            records_used=document["records_used"],
        )

    def __repr__(self) -> str:
        return (
            f"<CostModel source={self.source!r} "
            f"records_used={self.records_used}>"
        )


def load_cost_model(path: str) -> CostModel:
    """Read and validate a ``repro.cost-model/1`` document from disk."""
    return CostModel.from_document(read_json(path, "cost-model file"))


def _fail(message: str) -> None:
    raise EncodingError(f"invalid cost-model document: {message}")


def validate_cost_model(document: Any) -> dict:
    """Check the cost-model document invariants; returns the document."""
    if not isinstance(document, dict):
        _fail("not an object")
    if document.get("schema") != COST_MODEL_SCHEMA:
        _fail(
            f"schema is {document.get('schema')!r}, "
            f"expected {COST_MODEL_SCHEMA!r}"
        )
    if not isinstance(document.get("source"), str):
        _fail("source must be a string")
    used = document.get("records_used")
    if not isinstance(used, int) or isinstance(used, bool) or used < 0:
        _fail("records_used must be a non-negative integer")
    coefficients = document.get("coefficients")
    if not isinstance(coefficients, dict):
        _fail("coefficients section missing")
    for op, coefs in coefficients.items():
        if not isinstance(coefs, dict):
            _fail(f"coefficients for {op!r} is not an object")
        for key in _COEF_KEYS:
            value = coefs.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                _fail(f"coefficient {op}.{key} is not a number")
            if value < 0:
                _fail(f"coefficient {op}.{key} is negative")
    dispatch = document.get("dispatch")
    if not isinstance(dispatch, dict):
        _fail("dispatch section missing")
    for key in _DISPATCH_KEYS:
        value = dispatch.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            _fail(f"dispatch {key} is not a number")
        if value < 0:
            _fail(f"dispatch {key} is negative")
    if not 0 < dispatch["efficiency"] <= 1:
        _fail("dispatch efficiency must be in (0, 1]")
    ratios = document.get("ratios")
    if not isinstance(ratios, dict):
        _fail("ratios section missing")
    for kind, value in ratios.items():
        if not isinstance(kind, str):
            _fail("ratio key is not a string")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            _fail(f"ratio {kind!r} is not a number")
        if value <= 0:
            _fail(f"ratio {kind!r} is not positive")
    return document


# ------------------------------------------------------------------ fitting


def _solve(matrix: List[List[float]], rhs: List[float]) -> Optional[List[float]]:
    """Gaussian elimination with partial pivoting; None when singular."""
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-18:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for row in range(n):
            if row == col:
                continue
            factor = aug[row][col] / aug[col][col]
            for k in range(col, n + 1):
                aug[row][k] -= factor * aug[col][k]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def _fit_op(rows: List[Tuple[float, float, float, float]],
            seconds: List[float]) -> Optional[Dict[str, float]]:
    """Nonnegative-clamped least squares ``seconds ~ [1, in, unit, out]``.

    Normal equations with a small ridge term for stability; negative
    coefficients are clamped to zero (a cost cannot decrease with more
    work -- negative fits are noise).
    """
    n = len(rows)
    if n < len(_COEF_KEYS):
        return None
    dim = len(_COEF_KEYS)
    ata = [[0.0] * dim for _ in range(dim)]
    atb = [0.0] * dim
    for row, y in zip(rows, seconds):
        for i in range(dim):
            atb[i] += row[i] * y
            for j in range(dim):
                ata[i][j] += row[i] * row[j]
    for i in range(dim):
        ata[i][i] += 1e-9  # ridge: keeps near-collinear designs solvable
    solution = _solve(ata, atb)
    if solution is None:
        return None
    clamped = [max(0.0, x) for x in solution]
    return dict(zip(_COEF_KEYS, clamped))


def fit_cost_model(
    documents: Iterable[dict], source: str = "fit"
) -> CostModel:
    """Calibrate a :class:`CostModel` from ``repro.profile/1`` documents.

    Serial records fit the per-operator coefficients; per-estimator
    actual/estimated totals fit the correction ratios; parallel
    records fit the dispatch overhead from the residual over the
    modeled per-shard serial cost.  Operators or sections without
    enough data keep their defaults -- calibration degrades gracefully
    to the conservative model.
    """
    from repro.obs.ledger import validate_profile

    serial_rows: Dict[str, List[Tuple[float, float, float, float]]] = {}
    serial_secs: Dict[str, List[float]] = {}
    est_totals: Dict[str, List[float]] = {}
    act_totals: Dict[str, List[float]] = {}
    parallel_records: List[dict] = []
    used = 0
    for document in documents:
        document = validate_profile(document)
        for record in document["records"]:
            used += 1
            op = record["op"]
            estimator = record.get("estimator") or op
            est_totals.setdefault(estimator, []).append(float(record["est_out"]))
            act_totals.setdefault(estimator, []).append(float(record["out_tuples"]))
            if record["parallel"]:
                parallel_records.append(record)
                continue
            unit = _unit_of(op, record["in_tuples"], record["out_tuples"])
            serial_rows.setdefault(op, []).append(
                (1.0, float(record["in_tuples"]), unit, float(record["out_tuples"]))
            )
            serial_secs.setdefault(op, []).append(float(record["seconds"]))

    coefficients: Dict[str, Dict[str, float]] = {}
    for op, rows in serial_rows.items():
        fitted = _fit_op(rows, serial_secs[op])
        if fitted is not None:
            coefficients[op] = fitted

    ratios: Dict[str, float] = {}
    for kind, ests in est_totals.items():
        est_sum = sum(ests)
        act_sum = sum(act_totals[kind])
        if est_sum > 0 and act_sum > 0:
            # clamp: one pathological record must not turn the planner blind
            ratios[kind] = min(1e3, max(1e-3, act_sum / est_sum))

    dispatch: Dict[str, float] = {}
    if parallel_records:
        model = CostModel(coefficients=coefficients, ratios=ratios)
        overhead_rows: List[Tuple[float, float, float]] = []
        overhead_secs: List[float] = []
        for record in parallel_records:
            shards = max(1, int(record["shards"]))
            serial = model.op_seconds(
                record["op"], record["in_tuples"], record["out_tuples"]
            )
            residual = record["seconds"] - serial / (
                shards * DEFAULT_DISPATCH["efficiency"]
            )
            overhead_rows.append((1.0, float(shards), float(record["in_tuples"])))
            overhead_secs.append(max(0.0, residual))
        if len(overhead_rows) >= 3:
            dim = 3
            ata = [[0.0] * dim for _ in range(dim)]
            atb = [0.0] * dim
            for row, y in zip(overhead_rows, overhead_secs):
                for i in range(dim):
                    atb[i] += row[i] * y
                    for j in range(dim):
                        ata[i][j] += row[i] * row[j]
            for i in range(dim):
                ata[i][i] += 1e-9
            solution = _solve(ata, atb)
            if solution is not None:
                dispatch = {
                    "base": max(0.0, solution[0]),
                    "per_shard": max(0.0, solution[1]),
                    "per_tuple": max(0.0, solution[2]),
                    "efficiency": DEFAULT_DISPATCH["efficiency"],
                }

    return CostModel(
        coefficients=coefficients,
        dispatch=dispatch or None,
        ratios=ratios,
        source=source,
        records_used=used,
    )


# ------------------------------------------------------------- plan pricing


@dataclass
class PlanEstimate:
    """Per-node cardinality and cost annotation of a plan tree.

    ``rows`` is the estimated output cardinality (generalized tuples),
    ``seconds`` the modeled serial cost of this node alone,
    ``total_seconds`` includes the children, and ``estimator`` names
    the cardinality estimator used (matching the ledger's kinds, so a
    fitted model's ratios apply).  Shared subtrees are priced once:
    repeated ``Shared`` occurrences report ``cached=True`` with zero
    marginal cost.
    """

    label: str
    rows: float
    seconds: float
    total_seconds: float
    estimator: str = ""
    cached: bool = False
    children: List["PlanEstimate"] = field(default_factory=list)
    node: Any = None  #: the plan node this estimate annotates


def estimate_plan(plan, db=None, model: Optional[CostModel] = None) -> PlanEstimate:
    """Annotate ``plan`` with estimated rows and modeled seconds."""
    from repro.core import planner as p

    model = model if model is not None else CostModel()
    shared_seen: Dict[object, PlanEstimate] = {}

    def walk(node) -> PlanEstimate:
        estimate = _walk(node)
        estimate.node = node
        return estimate

    def _walk(node) -> PlanEstimate:
        if isinstance(node, p.Scan):
            rows = 8.0
            if db is not None and node.name in db:
                rows = float(max(1, len(db[node.name])))
            return PlanEstimate(
                f"Scan {node.name}", rows,
                model.op_seconds("scan", rows, rows),
                model.op_seconds("scan", rows, rows),
            )
        if isinstance(node, p.ConstraintScan):
            return PlanEstimate("Constraint", 1.0, 0.0, 0.0)
        if isinstance(node, p.Universe):
            return PlanEstimate("Universe", 1.0, 0.0, 0.0)
        if isinstance(node, p.Empty):
            return PlanEstimate("Empty", 0.0, 0.0, 0.0)
        if isinstance(node, p.Select):
            child = walk(node.source)
            rows = child.rows
            cost = model.op_seconds("select", child.rows, rows)
            return PlanEstimate(
                "Select", rows, cost, cost + child.total_seconds,
                children=[child],
            )
        if isinstance(node, p.Project):
            child = walk(node.source)
            rows = model.corrected("project.input", child.rows)
            cost = model.op_seconds("project", child.rows, rows)
            return PlanEstimate(
                "Project", rows, cost, cost + child.total_seconds,
                estimator="project.input", children=[child],
            )
        if isinstance(node, p.Join):
            children = [walk(part) for part in node.parts]
            # left-deep accumulation, matching execute_plan's fold
            rows = children[0].rows
            cost = 0.0
            for child in children[1:]:
                pairs = rows * child.rows
                out = model.corrected("join.cross", pairs)
                cost += model.op_seconds("join", rows + child.rows, out, unit=pairs)
                rows = out
            total = cost + sum(c.total_seconds for c in children)
            return PlanEstimate(
                "Join", rows, cost, total,
                estimator="join.cross", children=children,
            )
        if isinstance(node, p.Union):
            children = [walk(part) for part in node.parts]
            rows = sum(c.rows for c in children)
            cost = model.op_seconds("union", rows, rows)
            total = cost + sum(c.total_seconds for c in children)
            return PlanEstimate("Union", rows, cost, total, children=children)
        if isinstance(node, p.Complement):
            child = walk(node.source)
            # atoms-per-tuple unknown at plan time; the linear regime's
            # per-stage bound with ~(arity + 1) atoms per tuple is the
            # planning proxy (the ledger's complement.linear estimator)
            atoms = child.rows * (len(node.schema) + 1.0)
            rows = model.corrected("complement.linear", 1.0 + 2.0 * atoms)
            cost = model.op_seconds(
                "complement", child.rows, rows, unit=child.rows * rows
            )
            return PlanEstimate(
                "Complement", rows, cost, cost + child.total_seconds,
                estimator="complement.linear", children=[child],
            )
        if isinstance(node, p.Absorb):
            child = walk(node.source)
            rows = model.corrected("absorb.dedup", child.rows)
            cost = model.op_seconds("absorb", child.rows, rows)
            return PlanEstimate(
                "Absorb", rows, cost, cost + child.total_seconds,
                estimator="absorb.dedup", children=[child],
            )
        if isinstance(node, p.Shared):
            cached = shared_seen.get(node)
            if cached is not None:
                return PlanEstimate(
                    "Shared", cached.rows, 0.0, 0.0,
                    cached=True, children=[],
                )
            child = walk(node.source)
            estimate = PlanEstimate(
                "Shared", child.rows, 0.0, child.total_seconds,
                children=[child],
            )
            shared_seen[node] = estimate
            return estimate
        raise EncodingError(
            f"cannot estimate plan node {type(node).__name__}"
        )  # pragma: no cover

    return walk(plan)
