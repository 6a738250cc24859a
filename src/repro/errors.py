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
    """A parallel shard exhausted every recovery path.

    Raised by the resilient dispatch loop
    (:mod:`repro.parallel.resilience`) when a shard failed all retries
    and — unless the policy said ``on_failure="fail"`` — its serial
    in-process quarantine re-execution failed too.  Carries enough
    structure for the CLI's exit-code contract (exit ``5``) and its
    ``diagnostics:`` line: the operation, the shard index, how many
    attempts were made, and the underlying cause.
    """

    def __init__(self, message: str, *, op: str = "", shard: int = -1,
                 attempts: int = 0, cause: BaseException = None) -> None:
        super().__init__(message)
        self.op = op
        self.shard = shard
        self.attempts = attempts
        self.cause = cause

    def diagnostics(self) -> dict:
        """Structured failure facts (mirrors ``BudgetExceeded``)."""
        return {
            "op": self.op,
            "shard": self.shard,
            "attempts": self.attempts,
            "cause": type(self.cause).__name__ if self.cause else None,
        }


class ParseError(ReproError):
    """A textual query or program could not be parsed."""


class DatalogError(ReproError):
    """A Datalog program is ill-formed (arity mismatch, unknown predicate...)."""


class TypeCheckError(ReproError):
    """A complex-object value does not match its declared c-type."""


class EncodingError(ReproError):
    """A database instance could not be encoded or decoded."""
