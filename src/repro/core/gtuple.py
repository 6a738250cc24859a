"""Generalized tuples ([KKR90]; paper Section 2).

A *k-ary generalized tuple* is a conjunction of constraint atoms over k
distinguished variables -- a finite representation of a potentially
infinite set of points in ``Q^k``.  For instance the paper's triangle::

    (x <= y  and  x >= 0  and  y <= 10)

is a binary generalized tuple.  A classical tuple ``(a, b)`` is the
special case ``x = a and y = b``.

A :class:`GTuple` pairs a *schema* (ordered column names) with a
canonicalized, satisfiable-or-empty set of atoms drawn from a
:class:`~repro.core.theory.ConstraintTheory`.  Construction filters
trivially-true atoms and canonicalizes, so two logically equivalent
conjunctions over the same schema compare (and hash) equal for the
dense-order theory.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.terms import Term, Var
from repro.core.theory import ConstraintTheory
from repro.errors import SchemaError, TheoryError
from repro.perf.interning import intern_pool

__all__ = ["GTuple", "Schema", "check_schema", "rename_substitution"]

Schema = Tuple[str, ...]


def _restore_gtuple(theory: ConstraintTheory, schema: Schema, atoms: FrozenSet) -> "GTuple":
    """Unpickle through the interning constructor (see GTuple.__reduce__)."""
    return GTuple._canonical(theory, schema, atoms)


def rename_substitution(mapping: Mapping[str, str]) -> Dict[Var, Var]:
    """The variable substitution of a column renaming (identities dropped)."""
    return {Var(old): Var(new) for old, new in mapping.items() if old != new}


def check_schema(schema: Sequence[str]) -> Schema:
    """Validate and freeze a schema (ordered, distinct column names)."""
    out = tuple(schema)
    if len(set(out)) != len(out):
        raise SchemaError(f"duplicate column names in schema {out}")
    for col in out:
        if not isinstance(col, str) or not col:
            raise SchemaError(f"invalid column name {col!r}")
    return out


class GTuple:
    """One generalized tuple: schema + satisfiable conjunction of atoms.

    Instances are immutable and hashable.  Use
    :meth:`GTuple.make` to construct (it returns None when the
    conjunction is unsatisfiable, which callers treat as "no tuple").
    """

    __slots__ = ("theory", "schema", "atoms", "_hash", "_entailer", "__weakref__")

    def __init__(self, theory: ConstraintTheory, schema: Schema, atoms: FrozenSet) -> None:
        self.theory = theory
        self.schema = schema
        self.atoms = atoms
        self._hash = hash((theory.name, schema, atoms))
        self._entailer = None

    # ------------------------------------------------------------ construction

    @classmethod
    def _canonical(
        cls, theory: ConstraintTheory, schema: Schema, atoms: FrozenSet
    ) -> "GTuple":
        """The unique pooled instance for already-canonical parts.

        Interning makes structurally equal tuples the same object, so
        equality short-circuits on identity and the lazily built
        entailer is shared across all construction sites.  With the
        pool disabled this is a plain allocation.
        """
        pool = intern_pool()
        if not pool.enabled:
            return cls(theory, schema, atoms)
        key = (theory, schema, atoms)
        found = pool.get(key)
        if found is not None:
            return found
        made = cls(theory, schema, atoms)
        pool.add(key, made)
        return made

    @classmethod
    def make(
        cls,
        theory: ConstraintTheory,
        schema: Sequence[str],
        atoms: Iterable = (),
    ) -> Optional["GTuple"]:
        """Build a generalized tuple; None when unsatisfiable.

        Atoms may include booleans (``True`` is dropped, ``False``
        yields None).  Every atom must only mention schema variables.
        """
        frozen_schema = check_schema(schema)
        allowed = {Var(c) for c in frozen_schema}
        kept: List = []
        for a in atoms:
            if a is True:
                continue
            if a is False:
                return None
            extra = theory.atom_variables(a) - allowed
            if extra:
                names = ", ".join(sorted(v.name for v in extra))
                raise SchemaError(f"atom {a} mentions non-schema variables: {names}")
            kept.append(a)
        canonical = theory.canonicalize_if_satisfiable(kept)
        if canonical is None:
            return None
        return cls._canonical(theory, frozen_schema, canonical)

    @classmethod
    def universe(cls, theory: ConstraintTheory, schema: Sequence[str]) -> "GTuple":
        """The unconstrained tuple (all of ``Q^k``)."""
        return cls._canonical(theory, check_schema(schema), frozenset())

    @classmethod
    def point(
        cls, theory: ConstraintTheory, schema: Sequence[str], values: Sequence
    ) -> "GTuple":
        """The classical tuple ``x1 = v1 and ... and xk = vk``."""
        from repro.core.terms import as_term

        frozen_schema = check_schema(schema)
        if len(values) != len(frozen_schema):
            raise SchemaError("value count does not match schema arity")
        made = cls.make(
            theory,
            frozen_schema,
            [theory.equality_atom(Var(c), as_term(v)) for c, v in zip(frozen_schema, values)],
        )
        if made is None:  # pragma: no cover - equalities to constants are satisfiable
            raise TheoryError("point tuple unexpectedly unsatisfiable")
        return made

    # -------------------------------------------------------------- inspection

    @property
    def arity(self) -> int:
        return len(self.schema)

    def variables(self) -> FrozenSet[Var]:
        return frozenset(Var(c) for c in self.schema)

    def constants(self) -> FrozenSet[Fraction]:
        return self.theory.conjunction_constants(self.atoms)

    def __eq__(self, other: object) -> bool:
        if self is other:  # interning makes this the common case
            return True
        return (
            isinstance(other, GTuple)
            and self.theory is other.theory
            and self.schema == other.schema
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Ship only (theory, schema, atoms): the cached hash is salted
        # and the lazy entailer closes over unpicklable kernel state,
        # so both are rebuilt on the receiving side -- and routing
        # through _canonical re-interns the tuple into that process's
        # pool, keeping the identity fast paths effective for shard
        # payloads crossing a process boundary.
        return (_restore_gtuple, (self.theory, self.schema, self.atoms))

    def __repr__(self) -> str:
        cols = ", ".join(self.schema)
        body = " and ".join(sorted(str(a) for a in self.atoms)) or "true"
        return f"<GTuple ({cols}) | {body}>"

    # -------------------------------------------------------------- operations

    def conjoin(self, atoms: Iterable) -> Optional["GTuple"]:
        """Add atoms; None when the result is unsatisfiable."""
        return GTuple.make(self.theory, self.schema, list(self.atoms) + list(atoms))

    def merge(self, other: "GTuple", schema: Sequence[str]) -> Optional["GTuple"]:
        """Conjunction of two tuples over a common target schema."""
        if self.theory is not other.theory and self.theory != other.theory:
            raise TheoryError("cannot merge tuples from different theories")
        atoms = list(self.atoms) + list(other.atoms)
        if self.schema == other.schema == schema:
            # both sides already range over ``schema``, so make's schema
            # re-validation is redundant; canonicalize make's own atom
            # list, since LinearTheory's pruning depends on atom order
            canonical = self.theory.canonicalize_if_satisfiable(atoms)
            if canonical is None:
                return None
            return GTuple._canonical(self.theory, self.schema, canonical)
        return GTuple.make(self.theory, schema, atoms)

    def project_out(self, column: str) -> Optional["GTuple"]:
        """Existentially eliminate one column.  None when unsatisfiable.

        (The conjunction is satisfiable by construction and dense-order
        projection preserves satisfiability, but theories with case
        splits may produce several tuples; see :meth:`project_out_all`.)
        """
        results = self.project_out_all(column)
        if not results:
            return None
        if len(results) > 1:  # pragma: no cover - single-case for shipped theories
            raise TheoryError("projection split into cases; use project_out_all")
        return results[0]

    def project_out_all(self, column: str) -> List["GTuple"]:
        """Existential elimination returning all case-split results."""
        if column not in self.schema:
            raise SchemaError(f"column {column!r} not in schema {self.schema}")
        new_schema = tuple(c for c in self.schema if c != column)
        out: List[GTuple] = []
        for conj in self.theory.project_out(list(self.atoms), Var(column)):
            made = GTuple.make(self.theory, new_schema, conj)
            if made is not None:
                out.append(made)
        return out

    def extend(self, schema: Sequence[str]) -> "GTuple":
        """Reinterpret over a larger schema (new columns unconstrained)."""
        frozen = check_schema(schema)
        if frozen == self.schema:
            return self
        missing = set(self.schema) - set(frozen)
        if missing:
            raise SchemaError(f"extend target schema drops columns {sorted(missing)}")
        return GTuple._canonical(self.theory, frozen, self.atoms)

    def rename(self, mapping: Mapping[str, str]) -> "GTuple":
        """Rename columns according to ``mapping`` (missing = identity).

        A renaming is injective on the columns, so it cannot change
        what the conjunction says.  When the theory can rename the
        canonical atoms directly (:meth:`ConstraintTheory.rename_canonical`:
        dense order with the kernel cache on and no ``Var = Var``
        atom) the result is interned as is; otherwise the renamed
        atoms go through :meth:`make` like any other conjunction.
        Both give the same tuple.
        """
        new_schema = check_schema(tuple(mapping.get(c, c) for c in self.schema))
        return self._renamed(new_schema, rename_substitution(mapping))

    def _renamed(self, new_schema: Schema, subst: Mapping[Var, Var]) -> "GTuple":
        """:meth:`rename` with the schema checked and ``subst`` built."""
        atoms = self.theory.rename_canonical(self.atoms, subst)
        if atoms is not None:
            return GTuple._canonical(self.theory, new_schema, atoms)
        atoms = []
        for a in self.atoms:
            sub = self.theory.substitute_atom(a, subst)
            if sub is True:
                continue
            if sub is False:  # pragma: no cover - renaming cannot falsify
                raise TheoryError("rename folded an atom to false")
            atoms.append(sub)
        made = GTuple.make(self.theory, new_schema, atoms)
        if made is None:  # pragma: no cover - renaming preserves satisfiability
            raise TheoryError("rename produced an unsatisfiable tuple")
        return made

    def substitute(self, mapping: Mapping[str, Term]) -> Optional["GTuple"]:
        """Substitute terms for columns; result ranges over remaining columns."""
        subst = {Var(c): t for c, t in mapping.items()}
        new_schema = tuple(c for c in self.schema if c not in mapping)
        atoms = []
        for a in self.atoms:
            sub = self.theory.substitute_atom(a, subst)
            if sub is True:
                continue
            if sub is False:
                return None
            atoms.append(sub)
        return GTuple.make(self.theory, new_schema, atoms)

    def reorder(self, schema: Sequence[str]) -> "GTuple":
        """Same columns in a different order."""
        frozen = check_schema(schema)
        if frozen == self.schema:
            return self
        if set(frozen) != set(self.schema):
            raise SchemaError(f"reorder changes column set: {self.schema} -> {frozen}")
        return GTuple._canonical(self.theory, frozen, self.atoms)

    # -------------------------------------------------------------- semantics

    def contains_point(self, values: Sequence[Fraction]) -> bool:
        """Is the rational point in the denoted set?"""
        if len(values) != self.arity:
            raise SchemaError("point arity does not match schema")
        assignment = {Var(c): v for c, v in zip(self.schema, values)}
        return all(self.theory.evaluate_atom(a, assignment) for a in self.atoms)

    def sample_point(self) -> Dict[str, Fraction]:
        """An explicit rational point in the denoted (non-empty) set."""
        witness = self.theory.solve(list(self.atoms))
        if witness is None:  # pragma: no cover - tuples are satisfiable by construction
            raise TheoryError("satisfiable tuple produced no witness")
        return {c: witness.get(Var(c), Fraction(0)) for c in self.schema}

    def entails(self, a) -> bool:
        """Does this tuple's conjunction imply atom ``a``?

        Repeated checks share one preprocessed entailment context.
        """
        if self._entailer is None:
            self._entailer = self.theory.make_entailer(self.atoms)
        return self._entailer(a)
