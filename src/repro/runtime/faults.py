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
  tuples against the active guard's budget, or run an arbitrary hook
  (e.g. ``guard.cancel``);
* firing is deterministic by construction — ``after`` (skip the first
  k hits) and ``times`` (fire at most n times) — and *seedably* random
  via ``probability`` (one ``random.Random(seed)`` per registry, so a
  given seed always yields the same firing sequence).

The registry records every hit and fire (:attr:`FaultRegistry.log`),
so tests can assert not just outcomes but the exact failure schedule.
The sites live in the dispatching process only: shard kernels run in
pool workers without fault points (a shard runs once, and a failing
one fails its batch; see :mod:`repro.parallel.context`).
"""

from __future__ import annotations

import random
import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Type, Union

from repro.errors import EvaluationError
from repro.runtime.guard import active_guard

__all__ = [
    "TransientEvaluationError",
    "FaultRegistry",
    "fault_point",
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
)


class TransientEvaluationError(EvaluationError):
    """A retryable failure (injected or infrastructural, not logical)."""


_ACTIVE: ContextVar[Optional["FaultRegistry"]] = ContextVar(
    "repro_active_faults", default=None
)


def fault_point(site: str) -> None:
    """Checkpoint for fault injection; no-op without an active registry."""
    registry = _ACTIVE.get()
    if registry is not None:
        registry.fire(site)


@dataclass
class _Fault:
    error: Optional[Union[Type[BaseException], BaseException]] = None
    delay: float = 0.0
    charge_tuples: int = 0
    on_fire: Optional[Callable[[], None]] = None
    after: int = 0
    times: int = 1
    probability: Optional[float] = None
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
    ) -> "FaultRegistry":
        """Arm a fault at ``site``.

        ``error`` — exception (class or instance) to raise; defaults to
        a :class:`TransientEvaluationError` when no other action is
        given.  ``delay`` — seconds to sleep first.  ``charge_tuples``
        — tuples to charge against the active guard (budget pressure).
        ``on_fire`` — arbitrary hook (e.g. ``guard.cancel``).
        ``after`` — skip the first ``after`` hits of the site.
        ``times`` — fire at most this many times.  ``probability`` —
        fire each eligible hit with this chance (seeded, so
        deterministic per registry seed).  Returns ``self`` (chains).
        """
        if error is None and delay == 0.0 and charge_tuples == 0 and on_fire is None:
            error = TransientEvaluationError(f"injected fault at {site}")
        self._faults.setdefault(site, []).append(
            _Fault(error, delay, charge_tuples, on_fire, after, times, probability)
        )
        return self

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
            if fault.error is not None:
                error = fault.error() if isinstance(fault.error, type) else fault.error
                self.log.append((site, hit, f"raise:{type(error).__name__}"))
                raise error
