"""Deterministic, seedable fault injection for the evaluation runtime.

Robustness code that only runs when production breaks is untested code.
This module lets the test suite *schedule* failures at named sites in
the evaluator and the fixpoint engines, deterministically:

* the instrumented code calls :func:`fault_point` with a site name
  (``"evaluator.eval"``, ``"relation.complement"``,
  ``"datalog.round"``, ...) — a no-op unless a registry is active;
* a test activates a :class:`FaultRegistry` and arms faults with
  :meth:`FaultRegistry.inject`: raise a
  :class:`TransientEvaluationError` (or any exception), sleep, charge
  tuples against the active guard's budget, crash the hosting worker
  process (``crash=True``), or run an arbitrary hook (e.g.
  ``guard.cancel``);
* firing is deterministic by construction — ``after`` (skip the first
  k hits) and ``times`` (fire at most n times) — and *seedably* random
  via ``probability`` (one ``random.Random(seed)`` per registry, so a
  given seed always yields the same firing sequence).

The registry records every hit and fire (:attr:`FaultRegistry.log`),
so tests can assert not just outcomes but the exact failure schedule.

Cross-process chaos
-------------------
Armed faults can cross a process boundary: :meth:`export_spec`
serializes the picklable subset of the armed-fault table (everything
except ``on_fire`` hooks and guard charges, which only make sense in
the parent), and :meth:`FaultRegistry.from_spec` rehydrates it on the
receiving side.  The parallel backend ships the spec inside shard
payloads (:mod:`repro.parallel.worker`), so faults armed in a test
fire *inside worker processes* — including hard crashes
(``crash=True`` calls ``os._exit`` when the rehydrated registry runs
in a different process than the one that armed it; in the arming
process the same fault raises a retryable
:class:`WorkerCrashError` instead, so thread pools stay safe).
Because the rehydrated registry is seeded with the parent's seed, the
fire sequence for a given number of hits is identical whether the
faults fire in-process or inside a spawned worker.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Type, Union

from repro.errors import EvaluationError
from repro.runtime.guard import active_guard

__all__ = [
    "TransientEvaluationError",
    "WorkerCrashError",
    "FaultRegistry",
    "fault_point",
    "active_fault_registry",
    "KNOWN_SITES",
]

#: the named sites instrumented across the engines (kept in sync with
#: the ``fault_point`` calls; tests assert against this list)
KNOWN_SITES = (
    "evaluator.eval",
    "evaluator.not",
    "relation.complement",
    "relation.join",
    "relation.project",
    "datalog.round",
    "seminaive.round",
    "stratified.round",
    "ccalc.fixpoint.round",
    "ccalc.while.round",
    # shard-kernel entry points, fired inside pool workers (process or
    # thread) by repro.parallel.worker.run_shard, and in the parent by
    # the quarantine re-execution path
    "worker.join_shard",
    "worker.project_shard",
    "worker.absorb_shard",
)


class TransientEvaluationError(EvaluationError):
    """A retryable failure (injected or infrastructural, not logical)."""


class WorkerCrashError(TransientEvaluationError):
    """A ``crash=True`` fault fired in the process that armed it.

    In a spawned worker the same fault hard-kills the process
    (``os._exit``), which the parent observes as a broken pool; raising
    instead of exiting in the arming process keeps thread-pool runs —
    where "worker" and "parent" are the same process — survivable.
    """


_ACTIVE: ContextVar[Optional["FaultRegistry"]] = ContextVar(
    "repro_active_faults", default=None
)

#: creation indices for export keys (see :attr:`FaultRegistry._serial`)
_SERIALS = itertools.count(1)


def fault_point(site: str) -> None:
    """Checkpoint for fault injection; no-op without an active registry."""
    registry = _ACTIVE.get()
    if registry is not None:
        registry.fire(site)


def active_fault_registry() -> Optional["FaultRegistry"]:
    """The innermost registry activated on this context, or ``None``."""
    return _ACTIVE.get()


@dataclass
class _Fault:
    error: Optional[Union[Type[BaseException], BaseException]] = None
    delay: float = 0.0
    charge_tuples: int = 0
    on_fire: Optional[Callable[[], None]] = None
    after: int = 0
    times: int = 1
    probability: Optional[float] = None
    crash: bool = False
    fired: int = 0


class FaultRegistry:
    """Armed faults per site, consumed deterministically on activation."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._faults: Dict[str, List[_Fault]] = {}
        self.hits: Dict[str, int] = {}
        #: (site, hit index, action) triples, in firing order
        self.log: List[Tuple[str, int, str]] = []
        #: pid of the process that armed this registry; a rehydrated
        #: copy in a worker keeps the parent's pid so crash faults know
        #: whether os._exit is survivable for the query
        self.owner_pid = os.getpid()
        #: bumped on every inject; part of the export key so workers
        #: re-rehydrate when the armed table changes
        self.epoch = 0
        #: process-unique creation index; ``id()`` would be reused
        #: after garbage collection, letting a fresh registry collide
        #: with a stale worker-side cache entry
        self._serial = next(_SERIALS)
        self._tokens: list = []

    # ------------------------------------------------------------ activation

    def __enter__(self) -> "FaultRegistry":
        self._tokens.append(_ACTIVE.set(self))
        return self

    def __exit__(self, *exc_info) -> None:
        _ACTIVE.reset(self._tokens.pop())

    # ---------------------------------------------------------------- arming

    def inject(
        self,
        site: str,
        *,
        error: Optional[Union[Type[BaseException], BaseException]] = None,
        delay: float = 0.0,
        charge_tuples: int = 0,
        on_fire: Optional[Callable[[], None]] = None,
        after: int = 0,
        times: int = 1,
        probability: Optional[float] = None,
        crash: bool = False,
    ) -> "FaultRegistry":
        """Arm a fault at ``site``.

        ``error`` — exception (class or instance) to raise; defaults to
        a :class:`TransientEvaluationError` when no other action is
        given.  ``delay`` — seconds to sleep first.  ``charge_tuples``
        — tuples to charge against the active guard (budget pressure).
        ``on_fire`` — arbitrary hook (e.g. ``guard.cancel``).
        ``crash`` — hard-kill the hosting process when fired inside a
        spawned worker (``os._exit``); raises a retryable
        :class:`WorkerCrashError` when fired in the arming process.
        ``after`` — skip the first ``after`` hits of the site.
        ``times`` — fire at most this many times.  ``probability`` —
        fire each eligible hit with this chance (seeded, so
        deterministic per registry seed).  Returns ``self`` (chains).
        """
        if (error is None and delay == 0.0 and charge_tuples == 0
                and on_fire is None and not crash):
            error = TransientEvaluationError(f"injected fault at {site}")
        self._faults.setdefault(site, []).append(
            _Fault(error, delay, charge_tuples, on_fire, after, times,
                   probability, crash)
        )
        self.epoch += 1
        return self

    # ------------------------------------------------------- cross-process

    def export_spec(self) -> dict:
        """The armed-fault table as one picklable document.

        ``on_fire`` hooks and ``charge_tuples`` faults are excluded:
        hooks are arbitrary closures, and the guard a charge would
        pressure lives in the parent — both are parent-side concerns by
        construction.  ``error`` values must themselves pickle (classes
        by reference, instances via their args) to cross a process
        boundary; the standard injected errors do.
        """
        faults = []
        for site, site_faults in sorted(self._faults.items()):
            for f in site_faults:
                if f.on_fire is not None or f.charge_tuples:
                    continue
                faults.append({
                    "site": site,
                    "error": f.error,
                    "delay": f.delay,
                    "after": f.after,
                    "times": f.times,
                    "probability": f.probability,
                    "crash": f.crash,
                })
        return {
            "key": (self.owner_pid, self._serial, self.epoch),
            "seed": self.seed,
            "owner_pid": self.owner_pid,
            "faults": faults,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "FaultRegistry":
        """Rehydrate an exported armed-fault table.

        The copy is seeded with the parent's seed, so for a given
        number of hits the fire sequence is identical to the parent's
        — the cross-process determinism the chaos tests pin.
        """
        registry = cls(seed=spec["seed"])
        registry.owner_pid = spec["owner_pid"]
        for f in spec["faults"]:
            registry.inject(
                f["site"],
                error=f["error"],
                delay=f["delay"],
                after=f["after"],
                times=f["times"],
                probability=f["probability"],
                crash=f["crash"],
            )
        return registry

    # ---------------------------------------------------------------- firing

    def fire(self, site: str) -> None:
        hit = self.hits.get(site, 0) + 1
        self.hits[site] = hit
        for fault in self._faults.get(site, ()):
            if fault.fired >= fault.times or hit <= fault.after:
                continue
            if fault.probability is not None and self._rng.random() >= fault.probability:
                continue
            fault.fired += 1
            if fault.delay:
                self.log.append((site, hit, f"delay:{fault.delay}"))
                time.sleep(fault.delay)
            if fault.charge_tuples:
                self.log.append((site, hit, f"charge:{fault.charge_tuples}"))
                guard = active_guard()
                if guard is not None:
                    guard.on_tuples(fault.charge_tuples, site=f"fault:{site}")
            if fault.on_fire is not None:
                self.log.append((site, hit, "hook"))
                fault.on_fire()
            if fault.crash:
                self.log.append((site, hit, "crash"))
                if os.getpid() != self.owner_pid:
                    # a true worker process: die the way production
                    # workers die — no exception, no cleanup, the
                    # parent sees a broken pool
                    os._exit(13)
                raise WorkerCrashError(f"simulated worker crash at {site}")
            if fault.error is not None:
                error = fault.error() if isinstance(fault.error, type) else fault.error
                self.log.append((site, hit, f"raise:{type(error).__name__}"))
                raise error
