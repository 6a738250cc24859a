"""Shard / fan-out / merge drivers for the parallel relation algebra.

Each driver here is called from a ``Relation`` operation *between* its
existing preamble (fault point, guard note, tracer call counters) and
postamble (result charging, in/out metrics), replacing only the inner
loop: shard the tuple set (:mod:`repro.parallel.shards`), run the
picklable kernels (:mod:`repro.parallel.worker`) on the context's pool,
and merge.

Two invariants carry the correctness story:

* **Set equivalence** — a relation is the union of its tuples, so the
  union of per-shard outputs of a tuple-local kernel equals the serial
  output *set* (join, projection), and the absorption merge is
  byte-identical to serial (contiguous index ranges, concatenated in
  order).

* **Guard parity** — workers never see the guard; the parent replays
  the serial-equivalent charges at merge time (one ``qe`` note per
  eliminated column with the summed survivor count, one tuple charge
  for the same total), so an :class:`EvaluationGuard`'s counters and
  ``tuples_materialized`` match a serial run of the same query exactly
  and budgets keep binding under parallel evaluation.

Every driver emits ``parallel.*`` metrics into the active tracer:
shard count, skew (max/mean shard size), summed worker seconds, merge
seconds, and utilization (worker seconds over wall seconds × workers).
Each dispatch runs under an ambient ``parallel.<op>.dispatch`` span —
the graft point for cross-process trace stitching
(:mod:`repro.obs.stitch`) — and every driver returns a trailing
``{"shards": n}`` dict with the batch's shard count, which the
engine ignores and ``perfbench/layers.py``'s dispatch wrapper reads.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from repro.obs.trace import active_tracer, span
from repro.parallel.context import ExecutionContext
from repro.parallel.shards import index_ranges, shard_indices, shard_skew
from repro.parallel.worker import absorb_shard, join_shard, project_shard

__all__ = ["parallel_join", "parallel_project", "parallel_absorb"]


def _run(op: str, ctx: ExecutionContext, fn, payloads, shards):
    """Dispatch one batch under an ambient ``parallel.<op>.dispatch``
    span — the graft point: worker telemetry harvested inside
    ``run_shards`` stitches under the innermost open span, so every
    worker span nests under the dispatch that ran it."""
    with span(f"parallel.{op}.dispatch", shards=len(shards),
              workers=ctx.workers, pool=ctx.pool_kind):
        return ctx.run_shards(fn, payloads)


def _emit(
    op: str,
    shards: Sequence[Sequence],
    ctx: ExecutionContext,
    wall: float,
    worker_seconds: float,
    merge_seconds: float,
) -> None:
    tracer = active_tracer()
    if tracer is None:
        return
    metrics = tracer.metrics
    metrics.count(f"parallel.{op}.calls")
    metrics.observe("parallel.shards", len(shards))
    metrics.observe("parallel.skew", shard_skew(shards))
    metrics.observe("parallel.worker_seconds", worker_seconds)
    metrics.observe("parallel.merge_seconds", merge_seconds)
    if wall > 0:
        metrics.observe(
            "parallel.utilization", worker_seconds / (wall * ctx.workers)
        )
    metrics.observe("parallel.pool_fallbacks", ctx.fallbacks)


def parallel_join(
    left_tuples: Sequence,
    wide_b: Sequence,
    combined: Tuple[str, ...],
    partition,
    ctx: ExecutionContext,
    guard,
) -> Tuple[list, int, dict]:
    """Fan the left side's pairing loop out across shards.

    The right side (already widened) and the partition index are
    replicated to every shard; only the left tuples are partitioned.
    Returns ``(merged_tuples, pairs_considered, {"shards": n})`` — the
    same multiset of merged tuples and the same pair count as the
    serial loop, plus the shard count.
    """
    shards = shard_indices(left_tuples, ctx.workers)
    if partition is None:
        buckets, unpinned, pins_a = None, (), [None] * len(left_tuples)
    else:
        buckets, unpinned, pins_a = partition
    payloads = [
        (
            [(left_tuples[i], pins_a[i]) for i in shard],
            combined,
            list(wide_b),
            buckets,
            unpinned,
        )
        for shard in shards
    ]
    t0 = time.perf_counter()
    results = _run("join", ctx, join_shard, payloads, shards)
    wall = time.perf_counter() - t0
    merge0 = time.perf_counter()
    out: List = []
    considered = 0
    worker_seconds = 0.0
    for shard_out, shard_considered, seconds in results:
        out.extend(shard_out)
        considered += shard_considered
        worker_seconds += seconds
    if guard is not None:
        # the serial loop ticks once per left tuple; one deadline /
        # cancellation check per shard keeps budgets binding without a
        # pretend-loop (tick counts are not part of guard parity)
        for _ in shards:
            guard.tick("relation.join")
    merge_seconds = time.perf_counter() - merge0
    _emit("join", shards, ctx, wall, worker_seconds, merge_seconds)
    return out, considered, {"shards": len(shards)}


def parallel_project(
    tuples: Sequence,
    victims: Sequence[str],
    target: Tuple[str, ...],
    ctx: ExecutionContext,
    guard,
    tracer,
) -> Tuple[list, dict]:
    """Fan the column-elimination pass out across shards of tuples.

    Quantifier elimination is tuple-local, so shards run the whole
    victim-column sequence independently.  Guard parity: the serial
    loop notes ``qe`` / charges tuples once per column with that
    column's survivor count; the summed per-shard counts are replayed
    here in the same column order, so counters and charged tuples are
    identical to serial.  Returns ``(reordered_tuples, {"shards": n})``.
    """
    shards = shard_indices(tuples, ctx.workers)
    payloads = [
        ([tuples[i] for i in shard], tuple(victims), target) for shard in shards
    ]
    t0 = time.perf_counter()
    results = _run("project", ctx, project_shard, payloads, shards)
    wall = time.perf_counter() - t0
    merge0 = time.perf_counter()
    out: List = []
    worker_seconds = 0.0
    column_totals = [0] * len(victims)
    for shard_out, counts, seconds in results:
        out.extend(shard_out)
        worker_seconds += seconds
        for c, n in enumerate(counts):
            column_totals[c] += n
    for total in column_totals:
        if guard is not None:
            guard.note("qe", total)
            guard.on_tuples(total, "relation.project")
            guard.tick("relation.project")
        if tracer is not None:
            tracer.metrics.count("qe.eliminated_vars")
            tracer.metrics.observe("qe.survivors", total)
    merge_seconds = time.perf_counter() - merge0
    _emit("project", shards, ctx, wall, worker_seconds, merge_seconds)
    return out, {"shards": len(shards)}


def parallel_absorb(
    distinct: Sequence, ctx: ExecutionContext, absorbed: int = 0
) -> Tuple[list, dict]:
    """Fan the absorption survivor scan out across index ranges.

    Each shard receives the full deduplicated list (subsumption is a
    global test), the length of its already-absorbed prefix, and
    decides one contiguous range; concatenating the surviving indices
    in range order reproduces the serial ``_absorb(distinct, absorbed)``
    result byte-for-byte, skipped pairs included.  Returns
    ``(kept_tuples, {"shards": n})``.
    """
    ranges = index_ranges(len(distinct), ctx.workers)
    distinct = list(distinct)
    payloads = [(distinct, r.start, r.stop, absorbed) for r in ranges]
    t0 = time.perf_counter()
    results = _run("absorb", ctx, absorb_shard, payloads, ranges)
    wall = time.perf_counter() - t0
    merge0 = time.perf_counter()
    kept: List = []
    worker_seconds = 0.0
    for indices, seconds in results:
        kept.extend(distinct[i] for i in indices)
        worker_seconds += seconds
    merge_seconds = time.perf_counter() - merge0
    _emit("absorb", ranges, ctx, wall, worker_seconds, merge_seconds)
    return kept, {"shards": len(ranges)}
