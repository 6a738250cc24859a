"""Fault-tolerant shard dispatch: retries, deadlines, crash recovery.

The PR-5 dispatch loop treated any worker failure as fatal to the
whole query; this module makes a lost, hung, or poisoned shard degrade
a query instead of killing it.  Every shard batch a
:class:`~repro.parallel.context.ExecutionContext` runs goes through
:func:`dispatch_shards`, which drives a per-shard state machine::

    dispatched ──ok──────────────────────────────▶ merged
        │
        ├─ deadline exceeded ─┐
        ├─ shard error ───────┤ attempts ≤ max_retries: backoff, retry
        │                     └ attempts >  max_retries: quarantine
        │
        └─ pool died (BrokenProcessPool / unpicklable) ─▶ restart pool
           or degrade to threads; re-dispatch ONLY the unfinished
           shards (completed results are kept, never recomputed)

    quarantine: re-execute the shard serially in-process
        ├─ ok ───────────────────────────────────▶ merged
        └─ fails again (a truly poisoned shard):
             on_failure="fail"/"serial" ▶ raise ShardFailedError
             on_failure="partial"       ▶ drop the shard's output
                                          (or a semantically exact
                                          degraded fallback when the
                                          operation has one) and tag
                                          the context as partial

Retry backoff is exponential with *deterministic seeded jitter*: one
``random.Random`` per batch, seeded from the policy (or, when a
:class:`~repro.runtime.faults.FaultRegistry` is active, from its seed),
so a fixed chaos seed reproduces the exact retry schedule.  Backoff
waits go through :meth:`EvaluationGuard.wait` when a guard is active,
so deadlines and cancellation keep binding between attempts.

Telemetry crosses the process boundary here too: when the dispatching
process has a tracer active (and the context's ``capture`` flag is
on), shards run through :func:`~repro.parallel.worker.run_shard` in
capture mode and come back as
:class:`~repro.parallel.worker.ShardEnvelope` objects; every harvest
site — first-try results, retried attempts, shards rescued from a
dying pool, and quarantined re-runs — unwraps the envelope and
stitches the worker telemetry into the parent tracer
(:mod:`repro.obs.stitch`) with ``shard`` / ``attempt`` /
``quarantined`` provenance, so the stitched trace covers exactly the
attempts that produced the merged results.

Recovery preserves the PR-5 invariants: shard kernels are pure
functions of their payloads, so a retried, re-pooled, or quarantined
shard returns the same value as a first-try shard, the merge is
byte-identical to serial, and guard-counter parity survives any
injected failure the loop recovers from.  Every recovery decision is
counted on the context (``retries`` / ``deadline_exceeded`` /
``quarantined`` / ``dropped_shards`` / ``pool_restarts``) and emitted
as ``parallel.*`` metrics by the backend drivers.
"""

from __future__ import annotations

import pickle
import random
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.errors import ShardFailedError
from repro.obs.stitch import stitch_telemetry
from repro.obs.trace import active_tracer
from repro.runtime.faults import active_fault_registry
from repro.runtime.guard import active_guard
from repro.parallel.worker import (
    ShardEnvelope,
    run_quarantined,
    run_shard,
)

__all__ = ["ResiliencePolicy", "BatchReport", "dispatch_shards", "DEFAULT_POLICY"]

#: accepted terminal behaviors for a shard that failed quarantine
ON_FAILURE = ("fail", "serial", "partial")

#: exceptions that mean the *pool* broke, not the shard's computation
_POOL_ERRORS = (BrokenProcessPool, OSError, EOFError)
#: exceptions that mean the payload/result cannot cross the process
#: boundary at all — retrying the same pool kind cannot help
_PICKLE_ERRORS = (pickle.PicklingError, AttributeError, TypeError)


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard a context fights for each shard before giving up.

    ``shard_timeout``     per-shard deadline in seconds (``None`` = no
                          deadline); clipped to the active guard's
                          remaining budget deadline when one is set;
    ``max_retries``       pool re-dispatches per shard after the first
                          attempt, before quarantine;
    ``backoff_base``      first retry delay in seconds;
    ``backoff_factor``    multiplier per retry round;
    ``backoff_max``       delay ceiling;
    ``jitter_seed``       seed for the deterministic backoff jitter
                          (``None``: inherit the active
                          :class:`FaultRegistry` seed, or 0);
    ``on_failure``        terminal behavior after quarantine fails:
                          ``"fail"`` raise :class:`ShardFailedError`
                          *without* quarantining, ``"serial"`` (default)
                          quarantine then raise, ``"partial"``
                          quarantine then drop the shard;
    ``max_pool_restarts`` fresh process pools per batch after crashes,
                          before degrading to the thread fallback.
    """

    shard_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    jitter_seed: Optional[int] = None
    on_failure: str = "serial"
    max_pool_restarts: int = 2

    def __post_init__(self) -> None:
        if self.on_failure not in ON_FAILURE:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE}, got {self.on_failure!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")


#: the default: no deadline, two retries, quarantine before failing
DEFAULT_POLICY = ResiliencePolicy()


class BatchReport:
    """Recovery accounting for one shard batch (one ``run_shards``)."""

    __slots__ = ("retries", "deadline_exceeded", "quarantined", "dropped",
                 "pool_restarts")

    def __init__(self) -> None:
        self.retries = 0
        self.deadline_exceeded = 0
        self.quarantined = 0
        self.dropped = 0
        self.pool_restarts = 0

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _jitter_rng(policy: ResiliencePolicy) -> random.Random:
    seed = policy.jitter_seed
    if seed is None:
        registry = active_fault_registry()
        seed = registry.seed if registry is not None else 0
    return random.Random(seed)


def _backoff_delay(policy: ResiliencePolicy, round_index: int,
                   rng: random.Random) -> float:
    """Exponential delay for retry round ``round_index`` (0-based),
    jittered into [0.5, 1.0] of the nominal value — deterministic for a
    fixed seed, desynchronized between differently-seeded runs."""
    nominal = min(policy.backoff_max,
                  policy.backoff_base * policy.backoff_factor ** round_index)
    return nominal * (0.5 + 0.5 * rng.random())


def _sleep(seconds: float, guard) -> None:
    if seconds <= 0:
        return
    if guard is not None:
        guard.wait(seconds, "parallel.backoff")
    else:
        time.sleep(seconds)


def _effective_timeout(policy: ResiliencePolicy, guard) -> Optional[float]:
    """The per-shard deadline, clipped by the guard's remaining budget
    deadline so a shard can never be granted more time than the query
    has left."""
    timeout = policy.shard_timeout
    if guard is not None:
        remaining = guard.remaining_seconds()
        if remaining is not None and (timeout is None or remaining < timeout):
            timeout = max(remaining, 0.001)
    return timeout


def _chaos_spec() -> Optional[dict]:
    """The active registry's exported fault table, when it arms any
    ``worker.*`` site — ``None`` otherwise, so chaos-free runs ship
    bare kernel payloads with zero wrapping overhead."""
    registry = active_fault_registry()
    if registry is None:
        return None
    spec = registry.export_spec()
    if any(f["site"].startswith("worker.") for f in spec["faults"]):
        return spec
    return None


def dispatch_shards(
    ctx,
    fn: Callable,
    payloads: Sequence,
    degraded: Optional[Callable] = None,
) -> List:
    """Run ``fn`` over every payload with retry/deadline/crash recovery.

    Returns the per-shard results in payload order.  A shard dropped
    under ``on_failure="partial"`` yields ``degraded(payload)`` when
    the operation supplied a semantically exact fallback (absorption:
    keep the whole range unfiltered), else ``None`` — callers must
    skip ``None`` entries and treat the merge as a tagged partial
    result.  Raises :class:`ShardFailedError` when a shard exhausts
    every recovery path and the policy forbids partial results.

    The recovery accounting for the batch lands in ``ctx.last_report``
    (a :class:`BatchReport`) and is accumulated onto the context's
    lifetime counters.
    """
    policy: ResiliencePolicy = ctx.resilience or DEFAULT_POLICY
    report = BatchReport()
    ctx.last_report = report
    guard = active_guard()
    rng = _jitter_rng(policy)
    spec = _chaos_spec()
    # worker telemetry capture: only when someone is watching AND the
    # context allows it — with neither chaos nor capture in play the
    # payloads ship bare, keeping the no-telemetry path byte-identical
    # to the pre-stitching dispatch (the E19 off-switch gate)
    tracer = active_tracer()
    capture = tracer is not None and getattr(ctx, "capture", True)
    memory = getattr(ctx, "memory", None) if capture else None

    results: List = [None] * len(payloads)
    attempts = [0] * len(payloads)
    pending = list(range(len(payloads)))
    round_index = 0

    def submit(executor, i):
        if spec is not None or capture:
            return executor.submit(
                run_shard, (spec, fn, payloads[i], capture, memory)
            )
        return executor.submit(fn, payloads[i])

    def land(i, raw):
        """Unwrap a shard result, stitching any telemetry envelope
        into the parent tracer under the currently open span."""
        if not isinstance(raw, ShardEnvelope):
            return raw
        stitch_telemetry(
            tracer, raw.telemetry, shard=i, attempt=attempts[i] + 1,
        )
        return raw.result

    while pending:
        executor = ctx._ensure_executor()
        is_process = ctx.pool_kind == "process"
        retry: List[int] = []
        quarantine: List[int] = []
        infra: List[int] = []
        pool_broken = pickle_broken = False
        futures = []
        for i in pending:
            if pool_broken:
                infra.append(i)
                continue
            try:
                futures.append((i, submit(executor, i)))
            except _POOL_ERRORS:
                if not is_process:
                    raise
                # the pool broke before this batch (e.g. a worker
                # crashed after delivering the previous batch's
                # results): route the whole batch through the same
                # restart/degrade machinery as a mid-batch break
                pool_broken = True
                infra.append(i)
        timeout = _effective_timeout(policy, guard)
        deadline = None if timeout is None else time.monotonic() + timeout
        for i, future in futures:
            if pool_broken or pickle_broken:
                # the pool is gone: harvest shards that finished before
                # it died; everything still in flight is
                # infrastructure-failed, not shard-failed
                if future.done():
                    try:
                        results[i] = land(i, future.result(timeout=0))
                        continue
                    except Exception:
                        pass
                future.cancel()
                infra.append(i)
                continue
            try:
                remaining = (None if deadline is None
                             else max(0.0, deadline - time.monotonic()))
                results[i] = land(i, future.result(timeout=remaining))
                continue
            except FuturesTimeoutError:
                future.cancel()
                report.deadline_exceeded += 1
                ctx.deadline_exceeded += 1
                failure: Optional[BaseException] = None
            except _POOL_ERRORS as error:
                if not is_process:
                    failure = error  # a thread raised it: shard-level
                else:
                    pool_broken = True
                    infra.append(i)
                    continue
            except _PICKLE_ERRORS as error:
                if not is_process:
                    failure = error
                else:
                    pickle_broken = True
                    infra.append(i)
                    continue
            except Exception as error:  # shard-level failure
                failure = error
            attempts[i] += 1
            if attempts[i] <= policy.max_retries:
                retry.append(i)
            elif policy.on_failure == "fail":
                raise ShardFailedError(
                    f"shard {i} of {fn.__name__} failed "
                    f"{attempts[i]} attempt(s) and the policy forbids "
                    f"quarantine (on_failure='fail')",
                    op=fn.__name__, shard=i, attempts=attempts[i],
                    cause=failure,
                )
            else:
                quarantine.append(i)

        if pool_broken:
            if report.pool_restarts < policy.max_pool_restarts:
                report.pool_restarts += 1
                ctx.pool_restarts += 1
                ctx._restart_pool()
            else:
                ctx._degrade_to_threads()
        elif pickle_broken:
            ctx._degrade_to_threads()

        for i in quarantine:
            report.quarantined += 1
            ctx.quarantined += 1
            try:
                raw = run_quarantined(
                    fn, payloads[i], capture=capture, memory=memory
                )
                if isinstance(raw, ShardEnvelope):
                    # a quarantined re-run is the shard's final attempt;
                    # same-process, so no kernel counters merge and the
                    # graft carries the quarantined marker
                    stitch_telemetry(
                        tracer, raw.telemetry, shard=i,
                        attempt=attempts[i] + 1, quarantined=True,
                    )
                    raw = raw.result
                results[i] = raw
            except Exception as error:
                if policy.on_failure != "partial":
                    raise ShardFailedError(
                        f"shard {i} of {fn.__name__} failed "
                        f"{attempts[i]} pool attempt(s) and its serial "
                        f"quarantine re-execution",
                        op=fn.__name__, shard=i, attempts=attempts[i],
                        cause=error,
                    ) from error
                results[i] = degraded(payloads[i]) if degraded is not None else None
                if degraded is None:
                    report.dropped += 1
                    ctx.dropped_shards += 1

        if retry:
            report.retries += len(retry)
            ctx.retries += len(retry)
            _sleep(_backoff_delay(policy, round_index, rng), guard)
            round_index += 1

        pending = sorted(infra + retry)

    return results
