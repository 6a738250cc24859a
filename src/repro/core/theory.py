"""The constraint-theory interface, and the dense-order instance.

The engine is parametric in the constraint theory: generalized tuples,
generalized relations, the relational algebra, formula evaluation, and
the Datalog engine all manipulate atoms only through the small
interface defined by :class:`ConstraintTheory`.  The paper's two
languages plug in here:

* :class:`DenseOrderTheory` -- atoms over ``(Q, <=)`` (Sections 2-4);
* :class:`repro.linear.theory.LinearTheory` -- linear atoms with
  addition, for FO+ (Section 4).

A theory must provide, for *conjunctions* of its atoms: satisfiability,
negation of a single atom (as a disjunction of atoms), existential
projection of one variable (as a disjunction of conjunctions),
substitution, canonicalization, and ground evaluation.  Everything else
(DNF bookkeeping, set operations, quantifiers) is theory-independent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core.atoms import Atom, Op, atom
from repro.core.terms import Const, Term, Var
from repro.errors import TheoryError
from repro.perf.cache import KernelEntry, kernel_cache
from repro.perf.columnar import BoundsMatrix

__all__ = ["ConstraintTheory", "DenseOrderTheory", "DENSE_ORDER"]


class ConstraintTheory(ABC):
    """Operations a constraint theory must support.

    Atoms are opaque hashable values; ``True``/``False`` stand for the
    trivially valid / unsatisfiable atom throughout.
    """

    #: short name used in reprs and error messages
    name: str = "abstract"

    def __eq__(self, other: object) -> bool:
        """Theories are value objects: two separately constructed
        instances of the same (stateless) theory class are the same
        theory.  Identity checks remain valid — equal instances are
        interchangeable — but callers comparing theories should use
        ``==``."""
        return type(self) is type(other) and self.name == other.name

    def __hash__(self) -> int:
        return hash((type(self), self.name))

    @abstractmethod
    def atom_variables(self, a) -> FrozenSet[Var]:
        """The variables occurring in atom ``a``."""

    @abstractmethod
    def atom_constants(self, a) -> FrozenSet[Fraction]:
        """The rational constants occurring in atom ``a``."""

    @abstractmethod
    def negate_atom(self, a) -> List:
        """The negation of ``a`` as a disjunction (list) of atoms."""

    @abstractmethod
    def substitute_atom(self, a, mapping: Mapping[Var, Term]) -> Union[object, bool]:
        """Apply a variable-to-term substitution; may fold to a bool."""

    @abstractmethod
    def is_satisfiable(self, conjunction: Iterable) -> bool:
        """Satisfiability of a conjunction of atoms over Q."""

    @abstractmethod
    def project_out(self, conjunction: Sequence, var: Var) -> List[List]:
        """Existentially eliminate ``var`` from a conjunction.

        Returns a disjunction (list) of conjunctions (lists of atoms)
        equivalent to ``exists var . /\\ conjunction``.  For both dense
        order and linear constraints the result is a single conjunction,
        but the interface allows case splits.
        """

    @abstractmethod
    def canonicalize(self, conjunction: Iterable) -> FrozenSet:
        """A canonical frozenset of atoms for a satisfiable conjunction.

        Logically stronger than syntactic dedup: equivalent conjunctions
        over the same terms should normalize identically whenever the
        theory can afford it.  Soundness requirement: the canonical set
        must be logically equivalent to the input conjunction.
        """

    @abstractmethod
    def evaluate_atom(self, a, assignment: Mapping[Var, Fraction]) -> bool:
        """Ground truth of ``a`` under a total rational assignment."""

    @abstractmethod
    def entails(self, conjunction: Iterable, a) -> bool:
        """Does the conjunction imply atom ``a``?  (Used for pruning.)"""

    @abstractmethod
    def solve(self, conjunction: Iterable) -> Optional[Dict[Var, Fraction]]:
        """A rational witness of a conjunction, or None if unsatisfiable."""

    @abstractmethod
    def equality_atom(self, left: Term, right: Term) -> Union[object, bool]:
        """The atom ``left = right`` in this theory's language."""

    @abstractmethod
    def weaken_atom(self, a) -> object:
        """The non-strict version of ``a`` (``<`` becomes ``<=``).

        Weakening every atom of a *satisfiable* convex conjunction
        yields exactly its topological closure -- the fact behind the
        region-connectivity algorithm in :mod:`repro.linear.region`.
        """

    # ------------------------------------------------------------ conveniences

    def make_entailer(self, conjunction: Iterable):
        """A reusable ``atom -> bool`` entailment checker for one conjunction.

        Theories override this when repeated checks against the same
        conjunction can share preprocessing (the dense-order theory
        reuses one transitive closure).
        """
        atoms = list(conjunction)
        return lambda a: self.entails(atoms, a)

    def canonicalize_if_satisfiable(self, conjunction: Iterable) -> Optional[FrozenSet]:
        """Fused satisfiability + canonicalization (None when unsat)."""
        atoms = list(conjunction)
        if not self.is_satisfiable(atoms):
            return None
        return self.canonicalize(atoms)

    def rename_canonical(
        self, atoms: FrozenSet, mapping: Mapping[Var, Var]
    ) -> Optional[FrozenSet]:
        """The canonical form of ``atoms`` under an injective renaming.

        ``atoms`` is already canonical; a theory overrides this when it
        can read the renamed canonical form off the atoms without
        canonicalizing again.  None means "canonicalize the renamed
        atoms" (:meth:`GTuple.rename` then goes through
        :meth:`GTuple.make`), which is always correct.
        """
        return None

    def conjunction_variables(self, conjunction: Iterable) -> FrozenSet[Var]:
        out: set = set()
        for a in conjunction:
            out |= self.atom_variables(a)
        return frozenset(out)

    def conjunction_constants(self, conjunction: Iterable) -> FrozenSet[Fraction]:
        out: set = set()
        for a in conjunction:
            out |= self.atom_constants(a)
        return frozenset(out)


class DenseOrderTheory(ConstraintTheory):
    """The theory of ``(Q, <=)``: dense linear order without endpoints.

    Atoms are :class:`repro.core.atoms.Atom` with operators in
    ``{LT, LE, EQ}`` (NE is expanded on entry).  Quantifier elimination
    relies on the two characteristic axioms:

    * density:       ``exists x (l < x and x < u)  <=>  l < u``
    * no endpoints:  ``exists x (l < x)`` and ``exists x (x < u)`` hold.
    """

    name = "dense-order"

    # ------------------------------------------------------------ kernel memo
    #
    # Every query below bottoms out in a BoundsMatrix over the same
    # conjunction; the process-wide KernelCache memoizes that kernel
    # (and the canonical form derived from it) keyed by
    # frozenset(atoms).  Atoms are immutable value objects and the
    # kernel is only queried, never extended, so entries never go
    # stale.  The disabled path (``--no-cache``) is a single attribute
    # read before falling through to the direct kernel.

    def _entry(self, conjunction: Iterable[Atom]) -> KernelEntry:
        cache = kernel_cache()
        key = (
            conjunction
            if isinstance(conjunction, frozenset)
            else frozenset(conjunction)
        )
        entry = cache.lookup(key)
        if entry is None:
            entry = KernelEntry(BoundsMatrix(key))
            cache.store(key, entry)
        return entry

    def coerce_atom(self, a: Union[Atom, bool]) -> Union[Atom, bool]:
        """Validate/normalize an atom for storage in a conjunction."""
        if isinstance(a, bool):
            return a
        if not isinstance(a, Atom):
            raise TheoryError(f"not a dense-order atom: {a!r}")
        if a.op in (Op.GE, Op.GT):  # pragma: no cover - atom() normalizes
            raise TheoryError("unnormalized atom")
        if a.op is Op.NE:
            raise TheoryError(
                "NE atoms cannot appear in conjunctions; expand to LT/GT disjunction"
            )
        return a

    def atom_variables(self, a: Atom) -> FrozenSet[Var]:
        return a.variables

    def atom_constants(self, a: Atom) -> FrozenSet[Fraction]:
        return a.constants

    def negate_atom(self, a: Atom) -> List[Atom]:
        return a.negate()

    def substitute_atom(self, a: Atom, mapping: Mapping[Var, Term]) -> Union[Atom, bool]:
        return a.substitute(mapping)

    def is_satisfiable(self, conjunction: Iterable[Atom]) -> bool:
        if not kernel_cache().enabled:
            return BoundsMatrix(conjunction).is_satisfiable()
        return self._entry(conjunction).graph.is_satisfiable()

    def project_out(self, conjunction: Sequence[Atom], var: Var) -> List[List[Atom]]:
        """Eliminate ``exists var`` from an NE-free conjunction.

        If some atom pins ``var = t``, substitute ``t``.  Otherwise all
        atoms mentioning ``var`` are one-sided bounds; compose each
        lower bound with each upper bound.  The composed comparison is
        strict unless *both* bounds are weak:

            exists x (l <= x and x <= u)  <=>  l <= u
            exists x (l <  x and x <= u)  <=>  l <  u      (density)

        One-sided (or empty) bound sets eliminate to nothing at all
        because the order has no endpoints.
        """
        keep: List[Atom] = []
        lowers: List[tuple] = []  # (term, strict)
        uppers: List[tuple] = []
        pin: Optional[Term] = None
        for a in conjunction:
            if var not in a.variables:
                keep.append(a)
                continue
            if a.op is Op.EQ:
                pin = a.right if a.left == var else a.left
                continue
            if a.left == var and a.right == var:  # pragma: no cover - folded earlier
                continue
            if a.left == var:
                uppers.append((a.right, a.op is Op.LT))
            else:
                lowers.append((a.left, a.op is Op.LT))
        if pin is not None:
            mapping = {var: pin}
            out: List[Atom] = []
            for a in conjunction:
                if a.op is Op.EQ and (
                    (a.left == var and a.right == pin) or (a.right == var and a.left == pin)
                ):
                    continue
                sub = a.substitute(mapping)
                if sub is True:
                    continue
                if sub is False:
                    return []
                out.append(sub)
            return [out]
        for low, low_strict in lowers:
            for high, high_strict in uppers:
                op = Op.LT if (low_strict or high_strict) else Op.LE
                made = atom(low, op, high)
                if made is True:
                    continue
                if made is False:
                    return []
                keep.append(made)
        return [keep]

    def canonicalize(self, conjunction: Iterable[Atom]) -> FrozenSet[Atom]:
        if not kernel_cache().enabled:
            return BoundsMatrix(conjunction).canonical_atoms()
        # canonical_atoms (not KernelEntry.canonical) so an unsatisfiable
        # input raises TheoryError exactly as the uncached kernel does
        return self._entry(conjunction).graph.canonical_atoms()

    def evaluate_atom(self, a: Atom, assignment: Mapping[Var, Fraction]) -> bool:
        return a.evaluate(assignment)

    def entails(self, conjunction: Iterable[Atom], a: Atom) -> bool:
        if not kernel_cache().enabled:
            return BoundsMatrix(conjunction).implies(a)
        return self._entry(conjunction).graph.implies(a)

    def solve(self, conjunction: Iterable[Atom]) -> Optional[Dict[Var, Fraction]]:
        if not kernel_cache().enabled:
            return BoundsMatrix(conjunction).solve()
        return self._entry(conjunction).graph.solve()

    def make_entailer(self, conjunction: Iterable[Atom]):
        if not kernel_cache().enabled:
            return BoundsMatrix(conjunction).implies
        return self._entry(conjunction).graph.implies

    def canonicalize_if_satisfiable(
        self, conjunction: Iterable[Atom]
    ) -> Optional[FrozenSet[Atom]]:
        if not kernel_cache().enabled:
            kernel = BoundsMatrix(conjunction)
            if not kernel.is_satisfiable():
                return None
            return kernel.canonical_atoms()
        return self._entry(conjunction).canonical()

    def rename_canonical(
        self, atoms: FrozenSet[Atom], mapping: Mapping[Var, Var]
    ) -> Optional[FrozenSet[Atom]]:
        """Rename a canonical conjunction without the kernel.

        ``BoundsMatrix.canonical_atoms`` reads variable names in one
        place only: a constant-free equality class takes its
        ``term_key``-least member as representative, written as a
        ``Var = Var`` atom.  Pinned variables (``v = c``), the
        transitive reduction among representatives, edge strictness
        and the orientation of ``<``/``<=`` do not depend on names, so
        without a ``Var = Var`` atom the renamed atoms are the
        canonical form of the renamed conjunction.  An injective
        renaming never folds an atom, and ``v = c`` keeps its
        variable on the left, so each atom is rebuilt as is.

        None (canonicalize instead) for a ``Var = Var`` atom, and with
        the kernel cache off: ``--no-cache`` is the seed path the
        shortcut is checked against.
        """
        if not kernel_cache().enabled:
            return None
        renamed = []
        for a in atoms:
            left, right = a.left, a.right
            if a.op is Op.EQ and isinstance(right, Var):
                return None
            renamed.append(Atom(mapping.get(left, left), a.op, mapping.get(right, right)))
        return frozenset(renamed)

    def equality_atom(self, left: Term, right: Term) -> Union[Atom, bool]:
        from repro.core.atoms import eq

        return eq(left, right)

    def weaken_atom(self, a: Atom) -> Atom:
        if a.op is Op.LT:
            return Atom(a.left, Op.LE, a.right)
        return a


#: the shared dense-order theory instance
DENSE_ORDER = DenseOrderTheory()
