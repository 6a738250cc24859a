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
tracer active, the resilient dispatch loop asks :func:`run_shard` for
*capture* mode — the shard runs under a lightweight in-worker
:class:`~repro.obs.trace.Tracer` (its own object, never the parent's
inherited one) whose spans, metric deltas (including the ``kernel.*``
cache counters), and ``repro.log/1`` records ride back to the parent
inside a :class:`ShardEnvelope` as a picklable
``repro.worker-telemetry/1`` snapshot.  The parent grafts the snapshot
into its own tracer at harvest time (:mod:`repro.obs.stitch`), so
``--trace`` / ``--stats`` / ``explain`` / the flight recorder finally
see inside the pool.  Guard and execution-context variables stay
untouched in workers: budgets and charge parity remain the parent's
job, exactly as before.

Cross-process chaos: when a :class:`~repro.runtime.faults.FaultRegistry`
with faults armed at the ``worker.*`` sites is active in the parent,
the resilient dispatch loop wraps each shard in :func:`run_shard`,
which rehydrates the exported armed-fault table on the receiving side
(cached per process and registry epoch, so ``after``/``times``/seeded-
probability state accumulates across that worker's tasks) and fires
the kernel's ``worker.<kernel>`` site before running it.
:func:`run_quarantined` fires the same site against the parent's own
ambient registry, so the serial quarantine path is chaos-visible too.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Tuple

from repro.core.relation import _absorb_survivors
from repro.runtime.faults import FaultRegistry, fault_point

__all__ = [
    "ShardEnvelope",
    "join_shard",
    "project_shard",
    "absorb_shard",
    "shard_site",
    "run_shard",
    "run_quarantined",
    "probe_fault_sequence",
]

#: span cap for one shard's in-worker tracer: a shard runs one kernel,
#: so this is pure blast-radius protection, not a tuning knob
_WORKER_MAX_SPANS = 2048


class ShardEnvelope:
    """A shard result plus its ``repro.worker-telemetry/1`` snapshot.

    The dispatch loop unwraps envelopes at harvest time (stitching the
    telemetry into the parent tracer); merge drivers only ever see the
    bare ``result``.  Picklable by construction: both fields are plain
    data.
    """

    __slots__ = ("result", "telemetry")

    def __init__(self, result: object, telemetry: dict) -> None:
        self.result = result
        self.telemetry = telemetry

    def __getstate__(self):
        return (self.result, self.telemetry)

    def __setstate__(self, state):
        self.result, self.telemetry = state


def shard_site(fn) -> str:
    """The fault-point site name for a shard kernel."""
    return f"worker.{fn.__name__}"


# one rehydrated registry per (arming registry, epoch); a single slot
# suffices because one dispatch loop ships one spec at a time
_CACHED_KEY: Optional[tuple] = None
_CACHED_REGISTRY: Optional[FaultRegistry] = None


def _rehydrated(spec: Optional[dict]) -> Optional[FaultRegistry]:
    global _CACHED_KEY, _CACHED_REGISTRY
    if spec is None:
        return None
    key = tuple(spec["key"])
    if _CACHED_KEY != key:
        _CACHED_KEY = key
        _CACHED_REGISTRY = FaultRegistry.from_spec(spec)
    return _CACHED_REGISTRY


def _captured(kernel, kernel_payload, memory=None) -> "ShardEnvelope":
    """Run one kernel under a fresh in-worker tracer; envelope the
    result with the telemetry snapshot.

    The root span is the kernel's ``worker.*`` site name with the
    worker ``pid`` attached; ``shard`` / ``attempt`` provenance is
    stamped parent-side at stitch time (the worker does not know its
    shard index).  ``memory`` names a
    :class:`~repro.obs.memory.MemoryProfiler` backend to arm on the
    in-worker tracer (the parent's ``--memory`` flag crossing the
    process boundary): the root span then carries memory attrs, which
    are plain ints and ride the snapshot like any other attr.
    Imported lazily so capture-free dispatches never pay the obs
    imports in a cold worker.
    """
    from repro.obs.sink import CollectingSink
    from repro.obs.stitch import snapshot_telemetry
    from repro.obs.trace import Tracer

    tracer = Tracer(max_spans=_WORKER_MAX_SPANS)
    if memory is not None:
        from repro.obs.memory import MemoryProfiler

        tracer.memory = MemoryProfiler(memory)
    logs = tracer.add_sink(CollectingSink())
    with tracer:
        with tracer.span(shard_site(kernel), pid=os.getpid()):
            result = kernel(kernel_payload)
    return ShardEnvelope(result, snapshot_telemetry(tracer, logs.records))


def run_shard(payload) -> object:
    """Worker-side entry point for chaos-wrapped / captured shards.

    Payload: ``(spec, kernel, kernel_payload)``, optionally extended
    with ``capture`` and a ``memory`` backend name, where ``spec`` is
    an exported armed-fault table (or ``None``) and ``capture`` asks
    for a :class:`ShardEnvelope` with the in-worker telemetry
    snapshot.  Rehydrates the faults, fires the kernel's ``worker.*``
    site, then runs the kernel.  The rehydrated registry is cached per
    process, so its hit counters and seeded random stream persist
    across the tasks this worker runs — the same deterministic
    schedule semantics as the parent's registry.  The fault point
    fires *before* capture starts: a failed attempt ships no telemetry
    (the attempt that succeeds does).
    """
    spec, kernel, kernel_payload = payload[0], payload[1], payload[2]
    capture = len(payload) > 3 and payload[3]
    memory = payload[4] if len(payload) > 4 else None
    registry = _rehydrated(spec)
    if registry is None:
        return (
            _captured(kernel, kernel_payload, memory)
            if capture else kernel(kernel_payload)
        )
    with registry:
        fault_point(shard_site(kernel))
        return (
            _captured(kernel, kernel_payload, memory)
            if capture else kernel(kernel_payload)
        )


def run_quarantined(fn, payload, capture: bool = False, memory=None) -> object:
    """Serial in-process re-execution of a poisoned shard.

    Fires the kernel's ``worker.*`` site against the *ambient* (parent)
    registry — a deterministically poisoned shard stays poisoned here,
    which is what lets tests drive the quarantine-failure path — then
    runs the kernel on the caller's thread.  With ``capture``, the
    kernel runs under a fresh in-worker tracer exactly like a pool
    shard (the nested activation shadows the parent's tracer for the
    kernel's duration) and returns a :class:`ShardEnvelope`, so
    quarantined re-runs stitch into the trace like any other attempt.
    """
    fault_point(shard_site(fn))
    if capture:
        return _captured(fn, payload, memory)
    return fn(payload)


def probe_fault_sequence(payload) -> List[Tuple[str, int, str]]:
    """Rehydrate ``spec`` fresh and fire ``site`` ``hits`` times.

    Payload: ``(spec, site, hits)``.  Returns the registry's log — the
    exact (site, hit, action) firing sequence.  Module-level and
    picklable, so the determinism tests can run it both in-process and
    inside a spawned worker and assert the sequences are identical for
    a fixed seed.  Errors raised by armed faults are recorded and
    swallowed (the probe observes the schedule, not the unwind).
    """
    spec, site, hits = payload
    registry = FaultRegistry.from_spec(spec)
    with registry:
        for _ in range(hits):
            try:
                fault_point(site)
            except Exception:
                pass
    return registry.log


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
