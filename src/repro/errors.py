"""Exception hierarchy for the repro package.

All errors raised deliberately by the library derive from
:class:`ReproError`, so callers can catch library failures without
masking programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation, tuple, or query was used with an incompatible schema."""


class TheoryError(ReproError):
    """A constraint atom is malformed or outside the supported theory."""


class EvaluationError(ReproError):
    """A query could not be evaluated against the given database."""


class ShardFailedError(EvaluationError):
    """A parallel shard raised, or the worker pool lost it.

    Raised by :meth:`~repro.parallel.context.ExecutionContext.run_shards`
    on the first failure of a batch.  A shard runs once: its kernel is
    a pure function of its payload, so it would fail again.  Carries
    what the CLI's exit code ``5`` and its ``diagnostics:`` line print:
    the kernel (``op``), the shard index and the underlying cause.
    """

    def __init__(self, op: str, shard: int, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard} of {op} failed: {type(cause).__name__}: {cause}"
        )
        self.op = op
        self.shard = shard
        self.cause = cause

    def diagnostics(self) -> dict:
        """Structured failure facts (mirrors ``BudgetExceeded``)."""
        return {
            "op": self.op,
            "shard": self.shard,
            "cause": type(self.cause).__name__,
        }


class ParseError(ReproError):
    """A textual query or program could not be parsed."""


class DatalogError(ReproError):
    """A Datalog program is ill-formed (arity mismatch, unknown predicate...)."""


class TypeCheckError(ReproError):
    """A complex-object value does not match its declared c-type."""


class EncodingError(ReproError):
    """A database instance could not be encoded or decoded."""
