"""Semantics-preserving partitioning of generalized-tuple sets.

A generalized relation is the *union* of its generalized tuples (paper
Section 2): the denoted pointset is the disjunction of the per-tuple
conjunctions.  Union is associative and commutative, so **any**
partition of the tuple set evaluates correctly shard-by-shard for the
tuple-local kernels (join partner matching, per-tuple quantifier
elimination) — the merged result denotes the same pointset as the
serial pass.

Tuples are sharded by a stable digest of their canonical form, which
spreads them uniformly.  The digest is :func:`zlib.crc32` over the
schema and the sorted atom renderings, never Python's salted
``hash()``, so the same input shards identically across processes and
runs (``PYTHONHASHSEED`` independence is load-bearing: worker
processes may have a different seed than the parent).
"""

from __future__ import annotations

import zlib
from typing import List, Sequence

__all__ = [
    "stable_digest",
    "shard_indices",
    "index_ranges",
    "shard_skew",
]


def stable_digest(t) -> int:
    """A process-stable digest of a generalized tuple's canonical form.

    crc32 over the schema plus the sorted atom renderings: equal tuples
    digest equally in every process regardless of hash salting.
    """
    parts = [",".join(t.schema)]
    parts.extend(sorted(str(a) for a in t.atoms))
    return zlib.crc32("|".join(parts).encode("utf-8"))


def shard_indices(tuples: Sequence, n: int) -> List[List[int]]:
    """Partition ``range(len(tuples))`` into at most ``n`` shards by
    :func:`stable_digest`.

    Every index appears in exactly one shard; empty shards are dropped.
    Within a shard, indices keep the input order (merges that
    concatenate shard outputs stay deterministic).
    """
    n = max(1, min(n, len(tuples)))
    shards: List[List[int]] = [[] for _ in range(n)]
    for i, t in enumerate(tuples):
        shards[stable_digest(t) % n].append(i)
    return [s for s in shards if s]


def index_ranges(total: int, n: int) -> List[range]:
    """Split ``range(total)`` into at most ``n`` contiguous ranges.

    Used where the merge must preserve the exact serial order (the
    absorption pass keeps survivors in input order): contiguous ranges
    concatenated in order are index order.
    """
    n = max(1, min(n, total))
    base, extra = divmod(total, n)
    out: List[range] = []
    start = 0
    for i in range(n):
        stop = start + base + (1 if i < extra else 0)
        if stop > start:
            out.append(range(start, stop))
        start = stop
    return out


def shard_skew(shards: Sequence[Sequence]) -> float:
    """Largest shard over the mean shard size (1.0 = perfectly even)."""
    sizes = [len(s) for s in shards if len(s)]
    if not sizes:
        return 1.0
    return max(sizes) / (sum(sizes) / len(sizes))
