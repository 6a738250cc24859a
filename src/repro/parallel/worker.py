"""Picklable shard kernels, executed inside pool workers.

Each function here is a pure, module-level function of one payload
tuple — exactly what a :class:`~concurrent.futures.ProcessPoolExecutor`
can ship to a child process.  They replicate the inner loops of the
corresponding ``Relation`` operations **without** touching the guard,
tracer, fault-injection, or execution-context context variables:
budgets and metrics are the parent's job (the merge step replays the
serial-equivalent accounting; see :mod:`repro.parallel.backend`), and
a forked worker inheriting the parent's context variables must not
recurse into the parallel path or double-charge a budget.

Every kernel returns its own wall-clock seconds as the last element,
so the parent can report worker utilization without a second clock
source in the children.

Worker-side telemetry capture: when the dispatching process has a
tracer active, :meth:`~repro.parallel.context.ExecutionContext.run_shards`
submits each shard through :func:`run_shard`, which runs the kernel
under a lightweight in-worker :class:`~repro.obs.trace.Tracer` (its
own object, never the parent's inherited one) and returns the result
with the tracer's spans, events and metric deltas (including the
``kernel.*`` cache counters) as a picklable
``repro.worker-telemetry/1`` snapshot.  The parent grafts the snapshot
into its own tracer at harvest time (:mod:`repro.obs.stitch`), so
``--trace`` and the ``explain`` report see inside the pool.
"""

from __future__ import annotations

import os
import time
from typing import List, Tuple

from repro.core.relation import _absorb_survivors

__all__ = [
    "join_shard",
    "project_shard",
    "absorb_shard",
    "run_shard",
]

#: span cap for one shard's in-worker tracer: a shard runs one kernel,
#: so this is pure blast-radius protection, not a tuning knob
_WORKER_MAX_SPANS = 2048


def run_shard(payload) -> Tuple[object, dict]:
    """Run one kernel under a fresh in-worker tracer.

    Payload: ``(kernel, kernel_payload, memory)``.  Returns the
    kernel's result and the tracer's ``repro.worker-telemetry/1``
    snapshot.  The root span is ``worker.<kernel>`` with the worker
    ``pid`` attached; the parent stamps the ``shard`` index at stitch
    time (the worker does not know it).  ``memory`` names a
    :class:`~repro.obs.memory.MemoryProfiler` backend to arm on the
    in-worker tracer (the parent's ``--memory`` flag crossing the
    process boundary), so the root span carries memory attrs, plain
    ints that ride the snapshot like any other attr; ``None`` arms
    none.  The obs imports are lazy, so dispatches without a tracer
    never pay them in a cold worker.
    """
    from repro.obs.stitch import snapshot_telemetry
    from repro.obs.trace import Tracer

    kernel, kernel_payload, memory = payload
    tracer = Tracer(max_spans=_WORKER_MAX_SPANS)
    if memory is not None:
        from repro.obs.memory import MemoryProfiler

        tracer.memory = MemoryProfiler(memory)
    with tracer:
        with tracer.span(f"worker.{kernel.__name__}", pid=os.getpid()):
            result = kernel(kernel_payload)
    return result, snapshot_telemetry(tracer)


def join_shard(payload) -> Tuple[list, int, float]:
    """Join one shard of left tuples against the full widened right side.

    Payload: ``(left, combined, wide_b, buckets, unpinned)`` where
    ``left`` is a sequence of ``(tuple, pin)`` pairs — ``pin`` is the
    constant the partition column is equated to (``None`` when the
    tuple is unpinned or no partition index applies) — and ``buckets``
    / ``unpinned`` are the right-side partition index (``buckets`` is
    ``None`` for the plain nested loop).  Mirrors ``Relation.join``'s
    pairing loop exactly, so the union of shard outputs is the serial
    output set.  Returns ``(merged_tuples, pairs_considered, seconds)``.
    """
    left, combined, wide_b, buckets, unpinned = payload
    t0 = time.perf_counter()
    out: List = []
    considered = 0
    nb = len(wide_b)
    for a, pin in left:
        wide_a = a.extend(combined)
        if buckets is None or pin is None:
            matches = range(nb)
        else:
            # preserve the nested loop's right-side order
            matches = sorted(buckets.get(pin, ()) + unpinned)
        for bi in matches:
            considered += 1
            merged = wide_a.merge(wide_b[bi], combined)
            if merged is not None:
                out.append(merged)
    return out, considered, time.perf_counter() - t0


def project_shard(payload) -> Tuple[list, List[int], float]:
    """Eliminate the victim columns from one shard of tuples.

    Payload: ``(tuples, victims, target)``.  Quantifier elimination is
    tuple-local, so each shard runs the full column-by-column pass on
    its own tuples; the per-column survivor counts are returned so the
    parent can replay the serial guard charges (summed across shards
    they equal the serial counts exactly).  Returns
    ``(reordered_tuples, per_column_survivors, seconds)``.
    """
    tuples, victims, target = payload
    t0 = time.perf_counter()
    current = list(tuples)
    counts: List[int] = []
    for column in victims:
        survivors: List = []
        for t in current:
            survivors.extend(t.project_out_all(column))
        current = survivors
        counts.append(len(survivors))
    out = [t.reorder(target) for t in current]
    return out, counts, time.perf_counter() - t0


def absorb_shard(payload) -> Tuple[List[int], float]:
    """Absorption survivors for one contiguous index range.

    Payload: ``(distinct, start, stop, absorbed)`` — the **full**
    deduplicated tuple list, the range this shard decides, and the
    length of the list's already-absorbed prefix, whose pairs are not
    tested (see :func:`~repro.core.relation._absorb_survivors`).
    Survival of index ``i`` depends on the whole list (any tuple may
    subsume it) but not on other survival decisions, so disjoint ranges
    computed independently and concatenated in order reproduce the
    serial result byte-for-byte.  Returns
    ``(surviving_indices, seconds)``.
    """
    distinct, start, stop, absorbed = payload
    t0 = time.perf_counter()
    kept = _absorb_survivors(distinct, start, stop, absorbed)
    return kept, time.perf_counter() - t0
