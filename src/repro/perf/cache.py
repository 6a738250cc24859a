"""Bounded memo cache for the dense-order constraint kernel.

One :class:`KernelCache` maps a *conjunction key* -- the ``frozenset``
of its atoms -- to a :class:`KernelEntry` holding everything the
kernel ever derives from that conjunction: the bounds matrix
(:class:`~repro.perf.columnar.BoundsMatrix`, which answers
satisfiability, entailment and witnesses), and (computed lazily) the
canonical atom set.
:class:`~repro.core.theory.DenseOrderTheory` consults the process-wide
cache from :meth:`is_satisfiable`, :meth:`canonicalize`,
:meth:`canonicalize_if_satisfiable`, :meth:`entails`,
:meth:`make_entailer`, and :meth:`solve`.

The same cache holds the *operation memo* (:meth:`KernelCache.memo_map`):
one table per (operation, parameters) key, mapping an interned
dense-order :class:`~repro.core.gtuple.GTuple` to that operation's
result.  :meth:`Relation.rename <repro.core.relation.Relation.rename>`
(key: target schema and ``Var -> Var`` substitution) and the serial
loop of :meth:`Relation.project <repro.core.relation.Relation.project>`
(key: the eliminated column) consult it, so a fixpoint round stops
renaming and projecting again the tuples earlier rounds already did.

Design notes:

* **Keys are syntactic.**  Two logically equivalent but syntactically
  different conjunctions occupy two entries; correctness never depends
  on the key capturing equivalence, only on atoms being immutable
  value objects (they are: frozen dataclasses with cached hashes).
* **Invalidation-free.**  Nothing a cached entry holds can go stale --
  atoms never mutate and the graph is only queried, never extended --
  so eviction is purely a memory-bound concern (LRU, ``capacity``
  entries).
* **The disabled path is one attribute read.**  When ``enabled`` is
  False the theory methods fall through to the direct kernel before
  any key is built, so ``--no-cache`` runs pay a single branch per
  call, and one more per ``rename`` or ``project`` call for the
  operation memo.  E15 prints a 2% target for that branch and
  asserts < 10% (single-shot timings are noisy).
* **The operation memo is exact.**  A dense-order tuple is an interned
  canonical value, and renaming or projecting it is a deterministic
  function of (tuple, parameters), so a memoized result is the very
  tuple the operation would build again.  It is on exactly when
  ``enabled`` is, skips every other theory (linear tuples are not
  canonical), and holds at most ``capacity`` entries over all its
  tables: a miss that finds it full empties it first.  It holds its
  tuples strongly, so they outlive their last engine-side reference
  until :meth:`KernelCache.clear`, :func:`reset_kernel_cache` or that
  flush drops them.

The cache is process-global (like the ambient tracer/guard slots it
sits beside) and is *not* thread-safe beyond the atomicity of the
underlying dict operations; the engines are single-threaded.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from typing import Callable, Dict, FrozenSet, Hashable, Iterator, List, Optional, Sequence

__all__ = [
    "DEFAULT_CAPACITY",
    "KernelCache",
    "KernelEntry",
    "configure_kernel_cache",
    "kernel_cache",
    "kernel_cache_disabled",
    "kernel_counters",
    "kernel_stats",
    "reset_kernel_cache",
]

#: default bound on memo entries; a few thousand conjunctions cover the
#: working set of even the adversarial fixpoint workloads, and entries
#: are small (one closure graph + one frozenset)
DEFAULT_CAPACITY = 16384

#: sentinel distinguishing "canonical form not computed yet" from
#: "computed: unsatisfiable" (which is stored as None)
_UNSET = object()


class KernelEntry:
    """Everything derived from one conjunction of dense-order atoms.

    The graph is built eagerly (it answers satisfiability, entailment,
    and witnesses); the canonical atom set is computed on first demand
    because entailer-only consumers never need it.
    """

    __slots__ = ("graph", "_canonical")

    def __init__(self, graph) -> None:
        self.graph = graph
        self._canonical = _UNSET

    def canonical(self) -> Optional[FrozenSet]:
        """Canonical atom set, or None when unsatisfiable (memoized)."""
        if self._canonical is _UNSET:
            if self.graph.is_satisfiable():
                self._canonical = self.graph.canonical_atoms()
            else:
                self._canonical = None
        return self._canonical


class KernelCache:
    """A bounded LRU memo of :class:`KernelEntry` objects, plus the
    operation memo of :meth:`memo_map`."""

    __slots__ = (
        "capacity", "enabled", "hits", "misses", "evictions", "entries",
        "memo", "memo_entries", "memo_hits", "memo_misses",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.entries: "OrderedDict[FrozenSet, KernelEntry]" = OrderedDict()
        #: (operation, parameters) -> {interned tuple: result}; every
        #: table here holds at least one entry
        self.memo: Dict[Hashable, Dict] = {}
        self.memo_entries = 0  #: entries over all memo tables
        self.memo_hits = 0
        self.memo_misses = 0

    def lookup(self, key: FrozenSet) -> Optional[KernelEntry]:
        """The entry for ``key``, refreshed to most-recently-used."""
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self.entries.move_to_end(key)
        return entry

    def store(self, key: FrozenSet, entry: KernelEntry) -> None:
        self.entries[key] = entry
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def memo_map(
        self, key: Hashable, tuples: Sequence, compute: Callable[[object], object]
    ) -> List:
        """``[compute(t) for t in tuples]``, served from the memo table ``key``.

        ``key`` names an operation and its parameters; ``compute`` must
        be a deterministic function of the tuple's value under that key
        and never return None.  A hit returns what ``compute`` gave an
        equal tuple, so the list is the plain loop's, in its order.  A
        miss that finds the memo holding ``capacity`` entries empties it
        first: a working set above the bound costs recomputation, never
        per-hit bookkeeping.
        """
        table = self.memo.get(key)
        if table is None:
            table = {}
        out = []
        misses = 0
        for t in tuples:
            result = table.get(t)
            if result is None:
                result = compute(t)
                if self.memo_entries >= self.capacity:
                    self.clear_memo()
                    table = {}
                if not table:
                    self.memo[key] = table
                table[t] = result
                self.memo_entries += 1
                misses += 1
            out.append(result)
        self.memo_hits += len(out) - misses
        self.memo_misses += misses
        return out

    def clear_memo(self) -> None:
        """Drop every operation-memo table (counters are kept)."""
        self.memo = {}
        self.memo_entries = 0

    def clear(self) -> None:
        """Drop all entries and the operation memo (counters are kept:
        they are monotone)."""
        self.entries.clear()
        self.clear_memo()

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"<KernelCache {state} {len(self.entries)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses} evictions={self.evictions} "
            f"memo={self.memo_entries}>"
        )


#: the process-wide cache the dense-order theory consults
_CACHE = KernelCache()


def kernel_cache() -> KernelCache:
    """The process-wide kernel memo cache."""
    return _CACHE


def configure_kernel_cache(
    *, capacity: Optional[int] = None, enabled: Optional[bool] = None
) -> KernelCache:
    """Adjust the process-wide cache; shrinking evicts oldest entries."""
    if capacity is not None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        _CACHE.capacity = capacity
        while len(_CACHE.entries) > capacity:
            _CACHE.entries.popitem(last=False)
            _CACHE.evictions += 1
        if _CACHE.memo_entries > capacity:
            _CACHE.clear_memo()
    if enabled is not None:
        _CACHE.enabled = enabled
    return _CACHE


def reset_kernel_cache() -> None:
    """Drop all cached entries, the operation memo and interned tuples,
    reset all counters.

    (Test isolation hook, and what makes a benchmark case cold;
    production code never needs it because the cache is
    invalidation-free.)
    """
    from repro.perf.interning import intern_pool

    _CACHE.clear()
    _CACHE.hits = _CACHE.misses = _CACHE.evictions = 0
    _CACHE.memo_hits = _CACHE.memo_misses = 0
    pool = intern_pool()
    pool.clear()
    pool.reused = pool.interned = 0


@contextlib.contextmanager
def kernel_cache_disabled() -> Iterator[None]:
    """Route every kernel call through the uncached path (``--no-cache``).

    Disables the memo cache (operation memo included) and the interning
    pool, restoring their previous states on exit.  Column renames then
    canonicalize their result through the kernel too: the dense-order
    rename shortcut (``DenseOrderTheory.rename_canonical``) is gated on
    the cache, so this is the seed behavior the fast path is tested
    against.  Existing entries are kept -- they cannot go stale -- so
    re-enabling resumes where the cache left off.
    """
    from repro.perf.interning import intern_pool

    pool = intern_pool()
    was_cache, was_pool = _CACHE.enabled, pool.enabled
    _CACHE.enabled = False
    pool.enabled = False
    try:
        yield
    finally:
        _CACHE.enabled = was_cache
        pool.enabled = was_pool


def kernel_counters() -> Dict[str, int]:
    """The monotone kernel counters (cache, operation memo, interning),
    for metrics.

    Only ever-increasing quantities belong here: the ambient
    :class:`~repro.obs.trace.Tracer` snapshots these on activation and
    merges the per-run *delta* into its metrics registry under the
    ``kernel.`` prefix.
    """
    from repro.perf.interning import intern_pool

    pool = intern_pool()
    return {
        "cache.hits": _CACHE.hits,
        "cache.misses": _CACHE.misses,
        "cache.evictions": _CACHE.evictions,
        "memo.hits": _CACHE.memo_hits,
        "memo.misses": _CACHE.memo_misses,
        "intern.reused": pool.reused,
        "intern.interned": pool.interned,
    }


def kernel_stats() -> Dict[str, object]:
    """Point-in-time kernel statistics (counters plus sizes/state)."""
    from repro.perf.interning import intern_pool

    pool = intern_pool()
    out: Dict[str, object] = dict(kernel_counters())
    out["cache.entries"] = len(_CACHE)
    out["cache.capacity"] = _CACHE.capacity
    out["cache.enabled"] = _CACHE.enabled
    out["memo.entries"] = _CACHE.memo_entries
    out["intern.live"] = len(pool)
    out["intern.enabled"] = pool.enabled
    return out
