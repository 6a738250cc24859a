"""Kernel fast path: interning, memoized canonicalization, the kernel.

Every algebra operation bottoms out in
:meth:`repro.core.gtuple.GTuple.make`, which runs the dense-order
kernel (a :class:`~repro.perf.columnar.BoundsMatrix` closure) on each
candidate conjunction.  Joins, complements, projections, and every
Datalog fixpoint round therefore pay the full kernel cost repeatedly
on conjunctions they have already seen -- the per-round work Grohe &
Schwandtner identify as the dominant cost of Datalog over linear
orders.  This package removes the repeated work without touching any
semantics:

* :mod:`repro.perf.cache` -- a bounded, LRU-keyed memo
  (``frozenset(atoms)`` -> entailment kernel + canonical form +
  satisfiability verdict) consulted by
  :class:`~repro.core.theory.DenseOrderTheory`;
* :mod:`repro.perf.interning` -- a weak interning pool making
  structurally equal :class:`~repro.core.gtuple.GTuple` instances the
  *same object*, so equality short-circuits on identity and the
  per-tuple entailer is shared;
* :mod:`repro.perf.columnar` -- the kernel itself: one dense bounds
  matrix per conjunction, closed by a pure-Python Floyd–Warshall pass.

All layers are invalidation-free: atoms, canonical atom sets, and
generalized tuples are immutable, so a cached verdict never goes
stale.  ``--no-cache`` on the CLI (or :func:`kernel_cache_disabled`)
routes every call through the uncached kernel; cached and uncached
evaluation are property-tested to produce ``equivalent()`` relations
(``tests/perf``), and E15 (``benchmarks/bench_e15_kernel_cache.py``)
gates the speedup and the disabled-path overhead.
"""

from repro.perf.cache import (
    KernelCache,
    configure_kernel_cache,
    kernel_cache,
    kernel_cache_disabled,
    kernel_counters,
    kernel_stats,
    reset_kernel_cache,
)
from repro.perf.interning import InternPool, intern_pool
from repro.perf.columnar import BoundsMatrix

__all__ = [
    "BoundsMatrix",
    "InternPool",
    "KernelCache",
    "configure_kernel_cache",
    "intern_pool",
    "kernel_cache",
    "kernel_cache_disabled",
    "kernel_counters",
    "kernel_stats",
    "reset_kernel_cache",
]
