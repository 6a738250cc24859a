"""Opt-in parallel execution contexts for the relation algebra.

An :class:`ExecutionContext` owns a :mod:`concurrent.futures` worker
pool and the sharding policy (worker count, minimum shardable size).
Activation mirrors :class:`EvaluationGuard`: the FO evaluator and the
Datalog engines activate a context (``with ctx:``) around a run, and
:func:`active_execution_context` hands it to ``Relation.join`` /
``project`` / ``simplify`` without widening the algebra signatures.
Serial evaluation remains the default and the reference: with no
context active the cost at each hook is a single context-variable
read.

Pools: ``"process"`` fans shards out to a
:class:`~concurrent.futures.ProcessPoolExecutor` (shard payloads are
picklable by construction; see :mod:`repro.parallel.worker`),
``"thread"`` to a :class:`~concurrent.futures.ThreadPoolExecutor`, and
``"auto"`` picks processes when more than one worker was requested.
A process pool that cannot start degrades to threads, counted in
:attr:`ExecutionContext.fallbacks`.

A shard runs once.  Shard kernels are pure functions of their
payloads, so a shard that raised would raise again; the first failure
of a batch, from a kernel or from the pool, cancels the rest and
raises :class:`~repro.errors.ShardFailedError`.

This module imports nothing from the rest of the package at module
level (stdlib only), so :mod:`repro.core.relation` can import it
without a cycle; :meth:`ExecutionContext.run_shards` imports the
worker wrapper, the tracer and the guard when it dispatches.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from contextvars import ContextVar
from typing import Callable, List, Optional, Sequence

__all__ = ["ExecutionContext", "active_execution_context"]

#: accepted pool kinds ("auto" resolves at construction)
POOL_KINDS = ("auto", "process", "thread")
#: accepted worker memory-attribution backends (mirrors
#: ``repro.obs.memory.BACKENDS``; duplicated so this module stays
#: stdlib-only — a unit test pins the two tuples equal)
MEMORY_BACKENDS = ("rss", "tracemalloc")

_ACTIVE: ContextVar[Optional["ExecutionContext"]] = ContextVar(
    "repro_active_execution_context", default=None
)


def active_execution_context() -> Optional["ExecutionContext"]:
    """The innermost context activated *in this process*, or ``None``.

    Worker processes forked by a process pool inherit the parent's
    context variables; the owner-pid check makes the inherited context
    invisible there, so shard kernels never re-parallelize recursively.
    """
    ctx = _ACTIVE.get()
    if ctx is None or ctx._owner_pid != os.getpid() or ctx.closed:
        return None
    return ctx


class ExecutionContext:
    """Sharding policy plus a lazily created worker pool.

    ``workers``: pool size (default: the machine's CPU count).
    ``pool``: ``"auto"`` / ``"process"`` / ``"thread"``.
    ``min_tuples``: inputs smaller than this stay on the serial path
    (sharding a tiny relation costs more than it saves).
    ``capture``: allow worker-side telemetry capture + cross-process
    trace stitching when a tracer is active in the dispatching
    process (default on; the capture only happens under a tracer, so
    untraced runs never pay for it — ``capture=False`` is the
    explicit off-switch the E19 benchmark gates).
    ``memory``: a memory-attribution backend name (``"rss"`` /
    ``"tracemalloc"``) to arm on the in-worker tracer of captured
    shards, so stitched worker spans carry memory attrs like parent
    spans do (``None``, the default, costs workers nothing).

    The executor is created on first use and reused across
    activations; call :meth:`close` (or use the context as an argument
    to ``contextlib.closing``) when done with it.
    """

    __slots__ = (
        "workers",
        "pool",
        "min_tuples",
        "capture",
        "memory",
        "fallbacks",
        "batches",
        "closed",
        "_pool_kind",
        "_executor",
        "_owner_pid",
        "_tokens",
    )

    #: always 0: a shard runs once.  Kept only because
    #: ``perfbench/layers.py`` reads them by name.
    retries = 0
    quarantined = 0
    dropped_shards = 0

    def __init__(
        self,
        workers: Optional[int] = None,
        pool: str = "auto",
        min_tuples: int = 8,
        capture: bool = True,
        memory: Optional[str] = None,
    ) -> None:
        if memory is not None and memory not in MEMORY_BACKENDS:
            raise ValueError(
                f"memory must be one of {MEMORY_BACKENDS} or None, "
                f"got {memory!r}"
            )
        if pool not in POOL_KINDS:
            raise ValueError(f"pool must be one of {POOL_KINDS}, got {pool!r}")
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.pool = pool
        self.min_tuples = int(min_tuples)
        self.capture = bool(capture)
        self.memory = memory
        self.fallbacks = 0  #: process pools that could not start
        self.batches = 0  #: shard batches dispatched to the pool
        self.closed = False
        self._pool_kind = (
            pool if pool != "auto" else ("process" if self.workers > 1 else "thread")
        )
        self._executor = None
        self._owner_pid = os.getpid()
        self._tokens: list = []

    # ------------------------------------------------------------ activation

    def __enter__(self) -> "ExecutionContext":
        self._tokens.append(_ACTIVE.set(self))
        return self

    def __exit__(self, exc_type=None, exc=None, tb=None) -> None:
        _ACTIVE.reset(self._tokens.pop())

    # -------------------------------------------------------------- policy

    def eligible(self, size: int) -> bool:
        """Is an input of ``size`` tuples worth sharding?"""
        return size >= self.min_tuples

    @property
    def pool_kind(self) -> str:
        """The resolved pool kind ("process" or "thread")."""
        return self._pool_kind

    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "pool": self._pool_kind,
            "capture": self.capture,
            "memory": self.memory,
            "batches": self.batches,
            "fallbacks": self.fallbacks,
        }

    # ------------------------------------------------------------ execution

    def _ensure_executor(self):
        if self.closed:
            raise RuntimeError("ExecutionContext is closed")
        if self._executor is None:
            if self._pool_kind == "process":
                try:
                    self._executor = ProcessPoolExecutor(max_workers=self.workers)
                except (OSError, ValueError):
                    self.fallbacks += 1
                    self._pool_kind = "thread"
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
        return self._executor

    def run_shards(self, fn: Callable, payloads: Sequence) -> List:
        """Run ``fn`` once over every payload on the pool, results in
        payload order.

        Under an active tracer (and ``capture``), each shard runs
        wrapped in :func:`~repro.parallel.worker.run_shard`, and its
        worker telemetry is stitched into the tracer as it is
        harvested.  The first exception, from a kernel or from the pool
        (a lost worker, a payload that does not pickle), cancels the
        shards not yet started and raises
        :class:`~repro.errors.ShardFailedError` naming the kernel, the
        shard and the cause.  Under a guard with a deadline, the wait
        is clipped to the guard's remaining seconds, and past them the
        guard's :meth:`~repro.runtime.guard.EvaluationGuard.tick`
        raises :class:`~repro.runtime.budget.DeadlineExceeded`.
        """
        if not payloads:
            return []
        executor = self._ensure_executor()
        self.batches += 1
        from repro.errors import ShardFailedError
        from repro.obs.stitch import stitch_telemetry
        from repro.obs.trace import active_tracer
        from repro.parallel.worker import run_shard
        from repro.runtime.guard import active_guard

        tracer = active_tracer() if self.capture else None
        guard = active_guard()
        if guard is not None and guard.deadline_at is None:
            guard = None
        futures: List = []
        try:
            for shard, payload in enumerate(payloads):
                try:
                    if tracer is None:
                        futures.append(executor.submit(fn, payload))
                    else:
                        futures.append(executor.submit(
                            run_shard, (fn, payload, self.memory)
                        ))
                except Exception as cause:
                    raise ShardFailedError(fn.__name__, shard, cause) from cause
            results: List = []
            for shard, future in enumerate(futures):
                if guard is not None:
                    while not wait(
                        (future,), timeout=max(guard.remaining_seconds(), 0.0)
                    ).done:
                        guard.tick("parallel.dispatch")
                try:
                    result = future.result()
                except Exception as cause:
                    raise ShardFailedError(fn.__name__, shard, cause) from cause
                if tracer is not None:
                    result, telemetry = result
                    stitch_telemetry(tracer, telemetry, shard=shard)
                results.append(result)
            return results
        finally:
            for future in futures:
                future.cancel()

    def close(self) -> None:
        """Shut the worker pool down; the context cannot be reused."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.closed = True

    def __repr__(self) -> str:
        return (
            f"<ExecutionContext workers={self.workers} pool={self._pool_kind}"
            f"{' closed' if self.closed else ''}>"
        )

