"""Weak interning pool for generalized tuples.

:meth:`repro.core.gtuple.GTuple.make` canonicalizes every conjunction,
so structurally equal tuples already *compare* equal -- but each call
used to allocate a fresh object, which meant repeated hashing of the
same atom sets in the engines' dedup dictionaries and one private
entailer per copy.  The pool makes the canonical instance unique:
construction sites look up ``(theory, schema, atoms)`` first and reuse
the existing object, so

* ``==`` short-circuits on identity for the overwhelmingly common
  "same tuple again" case (see ``GTuple.__eq__``);
* the lazily built per-tuple entailer is computed once per *distinct*
  tuple instead of once per copy;
* set/dict membership tests in the fixpoint engines hit identity
  before falling back to structural comparison.

Lifetime: values are held weakly (:class:`weakref.WeakValueDictionary`),
so the pool itself never extends a tuple's life -- when the last
reference drops, the entry disappears with it.  One holder is not the
engines': the kernel cache's operation memo
(:meth:`repro.perf.cache.KernelCache.memo_map`) keeps the tuples it
renamed or projected, and their results, strongly, so those stay
pooled until the memo is reset, cleared or emptied at its bound.
There is nothing to invalidate: tuples are immutable and the key *is*
the identity.
"""

from __future__ import annotations

import weakref
from typing import Optional

__all__ = ["InternPool", "intern_pool"]


class InternPool:
    """A weak pool of canonical :class:`~repro.core.gtuple.GTuple` objects."""

    __slots__ = ("enabled", "reused", "interned", "_pool")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.reused = 0  #: lookups satisfied by an existing instance
        self.interned = 0  #: fresh instances entered into the pool
        self._pool: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def get(self, key) -> Optional[object]:
        found = self._pool.get(key)
        if found is not None:
            self.reused += 1
        return found

    def add(self, key, value) -> None:
        self._pool[key] = value
        self.interned += 1

    def clear(self) -> None:
        self._pool.clear()

    def __len__(self) -> int:
        return len(self._pool)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"<InternPool {state} {len(self._pool)} live, "
            f"reused={self.reused} interned={self.interned}>"
        )


#: the process-wide pool GTuple construction sites consult
_POOL = InternPool()


def intern_pool() -> InternPool:
    """The process-wide generalized-tuple interning pool."""
    return _POOL
