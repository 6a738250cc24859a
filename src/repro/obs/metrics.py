"""Metrics registry: counters and histograms for evaluation internals.

The complexity theorems this repo reproduces are claims about *cost
growth* — QE step counts, relation sizes, fixpoint rounds — so the
engines report exactly those quantities here.  A :class:`Metrics`
registry is a plain value object: the engines never talk to it
directly but through the ambient :class:`~repro.obs.trace.Tracer`
(one ``ContextVar`` read on the disabled path; see
:mod:`repro.obs.trace`).

Two instrument kinds:

* **counters** — monotone event counts (``metrics.count(name, n)``);
* **histograms** — summaries of an observed quantity
  (``metrics.observe(name, value)``): count, sum, min, max, plus a
  fixed set of power-of-two buckets from which p50/p95/p99 are
  estimated.  Histograms keep aggregates and bucket counts only,
  never samples, so recording stays O(1) in space no matter how hot
  the path.

Metric-name conventions (all emitted by the instrumented hot paths):

======================================  =====================================
``qe.calls``                            quantifier-elimination entry points
``qe.eliminated_vars``                  variables existentially eliminated
``qe.survivors``                        tuples surviving one elimination pass
``relation.{join,complement,project}.calls``      operator invocations
``relation.{join,complement,project}.in_tuples``  input representation size
``relation.{join,complement,project}.out_tuples`` output representation size
``relation.{join,complement,project}.seconds``    per-call wall time
``relation.simplify.calls``             absorption passes
``relation.simplify.atoms_removed``     constraint atoms simplified away
``relation.simplify.tuples_absorbed``   subsumed tuples dropped
``fo.negations`` / ``fo.projections``   evaluator complement / ∃ nodes
``{engine}.rounds``                     fixpoint rounds per engine site
``{engine}.delta_tuples``               per-round newly derived tuples
``cells.signatures``                    canonical cell signatures computed
``cells.types_checked``                 complete types tested per signature
``guard.<site>``                        per-site EvaluationGuard counters,
                                        merged when a guard deactivates
``kernel.cache.{hits,misses,evictions}``  KernelCache traffic during the
                                        tracer's outermost activation
``kernel.memo.{hits,misses}``           operation-memo traffic (renames
                                        and projections), same window
``kernel.intern.{reused,interned}``     GTuple intern-pool traffic, same
                                        window (see :mod:`repro.perf`)
``relation.join.indexed``               joins that used the partition index
``relation.join.pairs_skipped``         tuple pairs pruned by that index
``parallel.{join,project,absorb}.calls``  sharded operator dispatches
``parallel.shards`` / ``parallel.skew``   shard count / max-over-mean size
``parallel.worker_seconds``             summed in-worker kernel seconds
``parallel.merge_seconds``              parent-side merge wall time
``parallel.utilization``                worker seconds / (wall × workers)
``parallel.pool_fallbacks``             process→thread pool degradations
                                        (emitted every dispatch, 0 included)
``parallel.retries``                    shard re-dispatches after failures
``parallel.shard_deadline_exceeded``    shards past the per-shard deadline
``parallel.quarantined``                shards re-executed serially in-process
``parallel.dropped_shards``             shards abandoned (on_failure=partial)
``parallel.pool_restarts``              fresh pools after worker crashes
``parallel.stitched_shards``            worker telemetry snapshots grafted
                                        into the parent tracer
``parallel.stitched_spans``             worker spans added by stitching
``parallel.stitch_errors``              snapshots that failed to stitch
                                        (counted, never raised)
======================================  =====================================

The six resilience gauges (``pool_fallbacks`` through
``pool_restarts``) are emitted unconditionally on every sharded
dispatch — a zero means "nothing went wrong", which dashboards and the
differential oracle need as an explicit data point, not a missing key.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

__all__ = ["Histogram", "Metrics", "QUANTILES", "histogram_from_snapshot"]

#: the quantiles every surface reports for a histogram, in order
QUANTILES = (0.5, 0.95, 0.99)

#: bucket ``i`` covers values in ``[2**(i - _BUCKET_OFFSET),
#: 2**(i + 1 - _BUCKET_OFFSET))``; the offset puts 2**-40 (~1e-12, well
#: below a clock tick) in bucket 0 and 2**55 (~3.6e16 — bytes, tuples,
#: seconds all fit) in the last bucket
_BUCKET_OFFSET = 40
_BUCKET_COUNT = 96


def _bucket_index(value: float) -> int:
    if value <= 0.0:
        return 0
    index = int(math.log2(value)) + _BUCKET_OFFSET
    # int() truncates toward zero: values below 1.0 need the floor
    if value < 1.0 and 2.0 ** (index - _BUCKET_OFFSET) > value:
        index -= 1
    if index < 0:
        return 0
    if index >= _BUCKET_COUNT:
        return _BUCKET_COUNT - 1
    return index


class Histogram:
    """Aggregate summary of an observed quantity (no samples kept).

    Alongside count/total/min/max, observations land in sparse
    power-of-two buckets (``buckets[i]`` counts values in
    ``[2**(i-40), 2**(i-39))``), from which :meth:`quantile` estimates
    p50/p95/p99 by geometric interpolation — good to a factor of
    ``sqrt(2)``, which is what a latency summary needs, at O(1) space.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """The estimated ``q``-quantile (``None`` on an empty histogram).

        Walks the buckets to the one holding the ``q``-th observation
        and returns its geometric midpoint, clamped into
        ``[min, max]`` so a single-bucket histogram reports exact
        bounds rather than a bucket artifact.
        """
        if not self.count:
            return None
        rank = q * self.count
        seen = 0
        estimate = self.max if self.max is not None else 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                low = 2.0 ** (index - _BUCKET_OFFSET)
                estimate = low * math.sqrt(2.0)
                break
        if self.min is not None and estimate < self.min:
            estimate = self.min
        if self.max is not None and estimate > self.max:
            estimate = self.max
        return estimate

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's aggregates into this one."""
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            if self.min is None or bound < self.min:
                self.min = bound
            if self.max is None or bound > self.max:
                self.max = bound
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    def snapshot(self) -> dict:
        """The aggregates as a plain dict (stable keys; JSON-safe).

        Buckets are exported with string keys (JSON objects cannot key
        on integers); :func:`histogram_from_snapshot` reverses the
        round-trip.  Quantile estimates ride along so exported trace
        documents carry p50/p95/p99 without the reader reimplementing
        the bucket walk.
        """
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(i): n for i, n in sorted(self.buckets.items())},
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return (
            f"<Histogram n={self.count} total={self.total:g} "
            f"min={self.min} max={self.max}>"
        )


def histogram_from_snapshot(aggregate: Mapping) -> "Histogram":
    """Rebuild a :class:`Histogram` from a :meth:`Histogram.snapshot`
    dict (tolerates pre-bucket documents: buckets default empty, so
    quantiles degrade to the min/max clamp)."""
    histogram = Histogram()
    histogram.count = int(aggregate.get("count", 0))
    histogram.total = float(aggregate.get("total", 0.0))
    histogram.min = aggregate.get("min")
    histogram.max = aggregate.get("max")
    for key, n in (aggregate.get("buckets") or {}).items():
        histogram.buckets[int(key)] = int(n)
    return histogram


class Metrics:
    """A registry of named counters and histograms."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------- recording

    def count(self, name: str, n: int = 1) -> None:
        """Bump the named counter by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def merge_counters(self, counters: Mapping[str, int], prefix: str = "") -> None:
        """Fold a counter mapping in (used for guard per-site counters)."""
        for name, value in counters.items():
            if value:
                self.count(prefix + name, value)

    def merge(self, other: "Metrics") -> None:
        """Fold another registry's counters and histograms into this one."""
        self.merge_counters(other.counters)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(histogram)

    # ------------------------------------------------------------ inspection

    def counter(self, name: str) -> int:
        """The named counter's value (0 when never bumped)."""
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self.histograms.get(name)

    def is_empty(self) -> bool:
        return not self.counters and not self.histograms

    def snapshot(self) -> dict:
        """All instruments as a plain nested dict (stable, JSON-safe)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: h.snapshot() for name, h in sorted(self.histograms.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"<Metrics {len(self.counters)} counter(s), "
            f"{len(self.histograms)} histogram(s)>"
        )
