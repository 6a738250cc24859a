"""Per-operator cost ledger: the planner's measurement substrate.

Every instrumented ``Relation`` operation (join, projection,
complement, absorption) appends one :class:`CostRecord` to the active
tracer's :class:`CostLedger` — operator, input/output cardinalities,
output atom count, kernel-cache hits/misses attributed to the call
(parent-side delta plus any stitched worker deltas), wall seconds,
and the dispatch shape (shard count, skew, serial vs parallel).  The
ledger is the exact input contract for a cost-based planner deciding
serial-vs-parallel per operator: estimated output cardinality is
recorded *next to* the actual one, so misestimation is a first-class
column, not a post-hoc join against logs.

Estimates are computed **before** the operator runs, from information
a planner would have (sizes and the partition index), so the
estimated-vs-actual table measures the estimator the planner would
actually use:

* **join** — candidate pairs under the partition index (bucket size
  plus unpinned remainder per pinned left tuple; ``|L| × |R|``
  without an index).  Every output tuple comes from one considered
  pair, so this is a sound upper bound.
* **project** — the input size (quantifier elimination is tuple-local
  and can split tuples, but one-output-per-input is the planner's
  base rate).
* **complement** — the product of per-tuple atom counts, capped: the
  DNF-negation distribution bound.
* **absorb** — the deduplicated input size (absorption only removes).

The ledger is bounded (``max_records``; excess appends are counted in
``dropped``, never stored), serialized as a schema-versioned
``repro.profile/1`` document by :func:`profile_document` /
:func:`write_profile` (``repro explain --out``), and rendered as the
estimated-vs-actual table (:func:`render_cost_ledger`, folded into
:func:`repro.obs.profile.render_profile`, which ``repro explain``
prints).

This module must not import :mod:`repro.obs.trace` at module level
(the tracer owns a ledger; the import goes the other way).
"""

from __future__ import annotations

import json
from typing import Any, List, Optional

from repro.errors import EncodingError

__all__ = [
    "PROFILE_SCHEMA",
    "CostRecord",
    "CostLedger",
    "profile_document",
    "write_profile",
    "load_profile",
    "validate_profile",
    "render_cost_ledger",
]

#: schema identifier stamped on every exported cost-ledger document
PROFILE_SCHEMA = "repro.profile/1"

#: operators a record may carry (order fixes the rendered table order)
OPERATORS = ("join", "project", "complement", "absorb")

#: the per-record numeric fields, in export order
_NUMERIC_FIELDS = (
    "in_tuples",
    "out_tuples",
    "est_out",
    "out_atoms",
    "cache_hits",
    "cache_misses",
    "seconds",
    "shards",
    "skew",
)

#: memory-attribution fields (``--memory``); optional in validation so
#: documents written before the fields existed stay loadable
_MEMORY_FIELDS = ("alloc_blocks", "alloc_bytes", "peak_bytes")


class CostRecord:
    """One operator invocation's observed cost and cardinalities.

    ``est_out`` is the pre-execution output-cardinality estimate (see
    the module docstring for the per-operator estimators);
    ``estimator`` names which estimator produced it (e.g.
    ``"join.indexed"`` vs ``"join.cross"``), so calibration can weight
    estimators separately instead of pooling a tight index-derived
    bound with a loose cross-product one; ``shards`` is 0 and ``skew``
    1.0 for a serial call; ``cache_hits`` / ``cache_misses`` include
    stitched worker deltas for process-pool dispatches.
    """

    __slots__ = ("op", "in_tuples", "out_tuples", "est_out", "out_atoms",
                 "cache_hits", "cache_misses", "seconds", "shards", "skew",
                 "parallel", "estimator", "alloc_blocks", "alloc_bytes",
                 "peak_bytes")

    def __init__(
        self,
        op: str,
        *,
        in_tuples: int,
        out_tuples: int,
        est_out: int,
        out_atoms: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        seconds: float = 0.0,
        shards: int = 0,
        skew: float = 1.0,
        parallel: bool = False,
        estimator: str = "",
        alloc_blocks: int = 0,
        alloc_bytes: int = 0,
        peak_bytes: int = 0,
    ) -> None:
        self.op = op
        self.estimator = estimator or op
        self.in_tuples = in_tuples
        self.out_tuples = out_tuples
        self.est_out = est_out
        self.out_atoms = out_atoms
        # kernel counters are monotone, but a mid-run cache reconfigure
        # resets them; clamp so a ledger row can never go negative
        self.cache_hits = max(0, cache_hits)
        self.cache_misses = max(0, cache_misses)
        self.seconds = seconds
        self.shards = shards
        self.skew = skew
        self.parallel = parallel
        # memory attribution (0 unless the run traced with --memory;
        # see repro.obs.memory for the backend semantics)
        self.alloc_blocks = max(0, alloc_blocks)
        self.alloc_bytes = max(0, alloc_bytes)
        self.peak_bytes = max(0, peak_bytes)

    @property
    def atoms_per_tuple(self) -> float:
        """Mean constraint atoms per output tuple (0.0 on empty output)."""
        return self.out_atoms / self.out_tuples if self.out_tuples else 0.0

    def as_dict(self) -> dict:
        out: dict = {"op": self.op, "estimator": self.estimator}
        for field in _NUMERIC_FIELDS:
            out[field] = getattr(self, field)
        out["parallel"] = self.parallel
        for field in _MEMORY_FIELDS:
            value = getattr(self, field)
            if value:
                out[field] = value
        return out

    def __repr__(self) -> str:
        mode = f"parallel×{self.shards}" if self.parallel else "serial"
        return (
            f"<CostRecord {self.op} {self.in_tuples}→{self.out_tuples} "
            f"(est {self.est_out}) {mode}>"
        )


class CostLedger:
    """A bounded, append-only store of :class:`CostRecord` entries.

    One ledger per observed evaluation (it hangs off the
    :class:`~repro.obs.trace.Tracer`).  Past ``max_records`` new
    appends are counted in :attr:`dropped` but not stored — profiling
    must never be the thing that blows the evaluation up.
    """

    __slots__ = ("records", "max_records", "dropped")

    def __init__(self, max_records: int = 4096) -> None:
        self.records: List[CostRecord] = []
        self.max_records = max_records
        self.dropped = 0

    def add(self, op: str, **fields: Any) -> Optional[CostRecord]:
        """Append one record (dropped silently past the bound)."""
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return None
        record = CostRecord(op, **fields)
        self.records.append(record)
        return record

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def is_empty(self) -> bool:
        return not self.records and not self.dropped

    def operator_summary(self) -> List[dict]:
        """Per-operator aggregates, in :data:`OPERATORS` order.

        Keys per row: ``operator``, ``calls``, ``in_tuples``,
        ``out_tuples``, ``est_out``, ``out_atoms``, ``cache_hits``,
        ``cache_misses``, ``seconds``, ``parallel_calls``,
        ``max_skew``, ``alloc_blocks``, ``alloc_bytes``,
        ``peak_bytes`` (summed allocation, max single-call peak; all
        zero unless the run traced with ``--memory``).
        """
        by_op: dict = {}
        for record in self.records:
            row = by_op.get(record.op)
            if row is None:
                row = by_op[record.op] = {
                    "operator": record.op, "calls": 0, "in_tuples": 0,
                    "out_tuples": 0, "est_out": 0, "out_atoms": 0,
                    "cache_hits": 0, "cache_misses": 0, "seconds": 0.0,
                    "parallel_calls": 0, "max_skew": 0.0,
                    "alloc_blocks": 0, "alloc_bytes": 0, "peak_bytes": 0,
                }
            row["calls"] += 1
            for field in ("in_tuples", "out_tuples", "est_out", "out_atoms",
                          "cache_hits", "cache_misses", "seconds",
                          "alloc_blocks", "alloc_bytes"):
                row[field] += getattr(record, field)
            row["peak_bytes"] = max(row["peak_bytes"], record.peak_bytes)
            if record.parallel:
                row["parallel_calls"] += 1
                row["max_skew"] = max(row["max_skew"], record.skew)
        known = [by_op.pop(op) for op in OPERATORS if op in by_op]
        return known + [by_op[op] for op in sorted(by_op)]


# ------------------------------------------------------- document round-trip


def profile_document(tracer, guard=None) -> dict:
    """The tracer's cost ledger (plus optional guard stats) as a plain
    JSON-safe ``repro.profile/1`` dict."""
    ledger: CostLedger = tracer.ledger
    metrics = tracer.metrics
    return {
        "schema": PROFILE_SCHEMA,
        "trace": tracer.trace_id,
        "total_seconds": tracer.total_seconds(),
        "records": [record.as_dict() for record in ledger.records],
        "dropped_records": ledger.dropped,
        "operators": ledger.operator_summary(),
        "kernel": {
            "cache.hits": metrics.counter("kernel.cache.hits"),
            "cache.misses": metrics.counter("kernel.cache.misses"),
            "intern.reused": metrics.counter("kernel.intern.reused"),
        },
        "guard": guard.stats() if guard is not None else None,
    }


def write_profile(path: str, tracer, guard=None) -> dict:
    """Serialize the ledger to ``path`` (validated first); returns the doc."""
    document = validate_profile(profile_document(tracer, guard))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def load_profile(path: str) -> dict:
    """Read and validate a ``repro.profile/1`` document from disk."""
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as error:
            raise EncodingError(
                f"profile file {path!r} is not JSON: {error}"
            ) from None
    return validate_profile(document)


def _fail(message: str) -> None:
    raise EncodingError(f"invalid profile document: {message}")


def validate_profile(document: Any) -> dict:
    """Check the profile-document invariants; returns the document."""
    if not isinstance(document, dict):
        _fail("not an object")
    if document.get("schema") != PROFILE_SCHEMA:
        _fail(
            f"schema is {document.get('schema')!r}, expected {PROFILE_SCHEMA!r}"
        )
    records = document.get("records")
    operators = document.get("operators")
    if not isinstance(records, list) or not isinstance(operators, list):
        _fail("records/operators must be arrays")
    dropped = document.get("dropped_records")
    if not isinstance(dropped, int) or dropped < 0:
        _fail("dropped_records must be a non-negative integer")
    for entry in records:
        if not isinstance(entry, dict):
            _fail("record is not an object")
        if not isinstance(entry.get("op"), str):
            _fail("record op is not a string")
        # estimator is optional (documents written before the field
        # existed stay loadable); when present it must be a string
        if "estimator" in entry and not isinstance(entry["estimator"], str):
            _fail("record estimator is not a string")
        for field in _NUMERIC_FIELDS:
            value = entry.get(field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                _fail(f"record field {field!r} is not a number")
            if value < 0:
                _fail(f"record field {field!r} is negative")
        if not isinstance(entry.get("parallel"), bool):
            _fail("record parallel flag is not a boolean")
        if entry["parallel"] and entry["shards"] < 1:
            _fail("parallel record has no shards")
        # memory fields are optional (pre---memory documents); when
        # present they must be non-negative numbers
        for field in _MEMORY_FIELDS:
            if field in entry:
                value = entry[field]
                if (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool)
                    or value < 0
                ):
                    _fail(f"record field {field!r} is not a non-negative number")
    for row in operators:
        if not isinstance(row, dict) or not isinstance(row.get("operator"), str):
            _fail("operator summary row lacks an operator name")
        if not isinstance(row.get("calls"), int) or row["calls"] < 1:
            _fail(f"operator {row.get('operator')!r} has no calls")
    kernel = document.get("kernel")
    if not isinstance(kernel, dict):
        _fail("kernel section missing")
    return document


# ------------------------------------------------------------------ rendering


def render_cost_ledger(ledger: CostLedger) -> str:
    """The estimated-vs-actual cardinality table (``repro explain``).

    One row per operator: calls, summed input/output cardinalities,
    summed pre-execution estimates, the est/actual ratio (the
    planner's misestimation factor), mean atoms per output tuple,
    kernel-cache hit rate, seconds, and how many calls went parallel.
    A run traced with ``--memory`` adds a per-operator memory block;
    a ledger that hit its record cap ends with an explicit warning —
    the totals above it are truncated, and the reader must know.
    """
    if ledger.is_empty():
        return "cost ledger: (no operator calls recorded)"
    rows = ledger.operator_summary()
    lines = [
        f"cost ledger ({PROFILE_SCHEMA}): {len(ledger.records)} record(s)"
        + (f", {ledger.dropped} dropped (max_records cap)"
           if ledger.dropped else ""),
        f"  {'operator':<12} {'calls':>6} {'tuples in':>10} {'est out':>9} "
        f"{'actual out':>10} {'est/act':>8} {'atoms/t':>8} {'hit%':>6} "
        f"{'seconds':>10} {'parallel':>9}",
    ]
    for row in rows:
        ratio = (
            f"{row['est_out'] / row['out_tuples']:>8.2f}"
            if row["out_tuples"] else f"{'—':>8}"
        )
        atoms = (
            f"{row['out_atoms'] / row['out_tuples']:>8.1f}"
            if row["out_tuples"] else f"{'—':>8}"
        )
        lookups = row["cache_hits"] + row["cache_misses"]
        hit = (
            f"{100.0 * row['cache_hits'] / lookups:>5.1f}%"
            if lookups else f"{'—':>6}"
        )
        par = (
            f"{row['parallel_calls']}/{row['calls']}"
            if row["parallel_calls"] else "serial"
        )
        lines.append(
            f"  {row['operator']:<12} {row['calls']:>6} "
            f"{row['in_tuples']:>10} {row['est_out']:>9} "
            f"{row['out_tuples']:>10} {ratio} {atoms} {hit} "
            f"{row['seconds']:>10.4f} {par:>9}"
        )
    if any(
        row["alloc_blocks"] or row["alloc_bytes"] or row["peak_bytes"]
        for row in rows
    ):
        lines.append(
            f"  {'memory':<12} {'alloc blocks':>14} {'alloc bytes':>13} "
            f"{'peak bytes':>12}"
        )
        for row in rows:
            if not (
                row["alloc_blocks"] or row["alloc_bytes"] or row["peak_bytes"]
            ):
                continue
            alloc_bytes = (
                f"{row['alloc_bytes']:>13}" if row["alloc_bytes"]
                else f"{'—':>13}"
            )
            lines.append(
                f"  {row['operator']:<12} {row['alloc_blocks']:>14} "
                f"{alloc_bytes} {row['peak_bytes']:>12}"
            )
    if ledger.dropped:
        lines.append(
            f"  warning: {ledger.dropped} cost record(s) dropped at the "
            f"{ledger.max_records}-record cap; totals above are truncated"
        )
    return "\n".join(lines)
