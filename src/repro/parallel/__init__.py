"""Opt-in sharded parallel evaluation (see DESIGN.md section 2.12).

The relation algebra's expensive per-tuple kernels — join partner
matching, quantifier elimination, absorption — decompose over the
tuples of a generalized relation, because a relation is the union of
its tuples.  An active :class:`ExecutionContext` makes ``Relation``
shard those kernels across a worker pool and merge the results; serial
evaluation stays the default and the reference semantics.

A shard runs once (see DESIGN.md section 2.13): the first shard that
raises, or that the pool loses, fails its batch with
:class:`~repro.errors.ShardFailedError`.

Only the context machinery is imported eagerly (it is stdlib-only, so
:mod:`repro.core.relation` can depend on it without a cycle); the
shard/merge drivers load lazily at the algebra hooks.
"""

from repro.errors import ShardFailedError
from repro.parallel.context import ExecutionContext, active_execution_context

__all__ = [
    "ExecutionContext",
    "active_execution_context",
    "ShardFailedError",
]
