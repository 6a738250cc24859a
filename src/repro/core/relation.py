"""Generalized (finitely representable) relations and their algebra.

A *generalized relation* ([KKR90]; paper Section 2) is a finite set of
generalized tuples over a common schema -- the disjunction of their
conjunctions, denoting a (possibly infinite) pointset in ``Q^k``.

:class:`Relation` provides the closed-form relational algebra the paper
relies on (Section 3, after [KKR90]): union, intersection, natural
join, projection (existential quantification), selection, renaming,
complement, and difference.  Every operation returns a new relation in
the same finitely-representable class -- this *closure* property is what
makes the relational calculus a constraint query language.

Complement distributes negation over the representation and is
exponential in the number of tuples in the worst case; ``difference``
and the containment tests route through it tuple-by-tuple with early
pruning.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.atoms import Op
from repro.core.gtuple import GTuple, Schema, check_schema, rename_substitution
from repro.core.terms import Const, Term, Var
from repro.core.theory import ConstraintTheory, DenseOrderTheory, DENSE_ORDER
from repro.errors import SchemaError, TheoryError
from repro.obs.trace import active_tracer
from repro.parallel.context import active_execution_context
from repro.perf.cache import kernel_cache
from repro.runtime.faults import fault_point
from repro.runtime.guard import active_guard

__all__ = ["Relation"]


class Relation:
    """A finitely representable relation: finite set of generalized tuples."""

    __slots__ = ("theory", "schema", "tuples")

    def __init__(
        self,
        theory: ConstraintTheory,
        schema: Sequence[str],
        tuples: Iterable[GTuple] = (),
    ) -> None:
        self.theory = theory
        self.schema: Schema = check_schema(schema)
        seen: Dict[GTuple, None] = {}
        for t in tuples:
            if t.schema != self.schema:
                raise SchemaError(f"tuple schema {t.schema} != relation schema {self.schema}")
            if t.theory is not theory and t.theory != theory:
                raise TheoryError("tuple theory differs from relation theory")
            seen.setdefault(t, None)
        self.tuples: Tuple[GTuple, ...] = tuple(seen)

    # ------------------------------------------------------------ construction

    @classmethod
    def _trusted(
        cls, theory: ConstraintTheory, schema: Schema, tuples: Iterable[GTuple]
    ) -> "Relation":
        """Internal fast-path constructor for algebra-produced parts.

        ``schema`` must already be a validated :data:`Schema` and every
        tuple must be known to match it (because it came out of this
        algebra over the same schema).  Skips the per-tuple schema and
        theory re-validation of ``__init__`` but keeps the dedup the
        fixpoint engines rely on; interning makes that dedup an
        identity-hash pass.
        """
        self = object.__new__(cls)
        self.theory = theory
        self.schema = schema
        self.tuples = tuple(dict.fromkeys(tuples))
        return self

    @classmethod
    def empty(cls, schema: Sequence[str], theory: ConstraintTheory = DENSE_ORDER) -> "Relation":
        """The empty relation over ``schema``."""
        return cls(theory, schema, ())

    @classmethod
    def universe(
        cls, schema: Sequence[str], theory: ConstraintTheory = DENSE_ORDER
    ) -> "Relation":
        """All of ``Q^k`` over ``schema``."""
        return cls(theory, schema, (GTuple.universe(theory, schema),))

    @classmethod
    def from_atoms(
        cls,
        schema: Sequence[str],
        disjuncts: Iterable[Iterable],
        theory: ConstraintTheory = DENSE_ORDER,
    ) -> "Relation":
        """Build from a DNF: an iterable of conjunctions (atom iterables)."""
        tuples = []
        for conj in disjuncts:
            made = GTuple.make(theory, schema, conj)
            if made is not None:
                tuples.append(made)
        return cls(theory, schema, tuples)

    @classmethod
    def from_points(
        cls,
        schema: Sequence[str],
        points: Iterable[Sequence],
        theory: ConstraintTheory = DENSE_ORDER,
    ) -> "Relation":
        """A classical finite relation: one point tuple per row."""
        return cls(theory, schema, [GTuple.point(theory, schema, p) for p in points])

    # -------------------------------------------------------------- inspection

    @property
    def arity(self) -> int:
        return len(self.schema)

    def is_empty(self) -> bool:
        """Emptiness of the denoted pointset (tuples are satisfiable)."""
        return not self.tuples

    def constants(self) -> FrozenSet[Fraction]:
        out: set = set()
        for t in self.tuples:
            out |= t.constants()
        return frozenset(out)

    def __len__(self) -> int:
        """Number of generalized tuples in the representation (not points)."""
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __repr__(self) -> str:
        cols = ", ".join(self.schema)
        return f"<Relation ({cols}) with {len(self.tuples)} generalized tuple(s)>"

    def pretty(self) -> str:
        """Multi-line rendering of the representation."""
        lines = [f"({', '.join(self.schema)}):"]
        if not self.tuples:
            lines.append("  false")
        for t in self.tuples:
            body = " and ".join(sorted(str(a) for a in t.atoms)) or "true"
            lines.append(f"  {body}")
        return "\n".join(lines)

    # -------------------------------------------------------------- set algebra

    def _require_compatible(self, other: "Relation") -> None:
        # identity fast path; theories are value objects (see ConstraintTheory)
        if self.theory is not other.theory and self.theory != other.theory:
            raise TheoryError("relations from different theories")
        if self.schema != other.schema:
            raise SchemaError(f"schema mismatch: {self.schema} vs {other.schema}")

    def union(self, other: "Relation") -> "Relation":
        self._require_compatible(other)
        return Relation._trusted(self.theory, self.schema, self.tuples + other.tuples)

    def intersection(self, other: "Relation") -> "Relation":
        self._require_compatible(other)
        out: List[GTuple] = []
        for a in self.tuples:
            for b in other.tuples:
                merged = a.merge(b, self.schema)
                if merged is not None:
                    out.append(merged)
        return Relation._trusted(self.theory, self.schema, out)

    def complement(self) -> "Relation":
        """The complement ``Q^k minus R`` in closed form.

        Negation of a DNF: conjunction over tuples of the disjunction of
        the negated atoms, built one stage per tuple.  Worst case
        exponential in ``len(self)`` (through the arity: for a fixed
        arity it is polynomial); unsatisfiable branches are pruned as
        they are built, and parts already disjoint from a tuple skip its
        stage's split (:meth:`_complement`).  An active
        :class:`~repro.runtime.guard.EvaluationGuard` is consulted per
        distribution stage, so blowups trip the deadline or tuple
        budget mid-operation instead of after it; an active
        :class:`~repro.obs.trace.Tracer` records in/out sizes and wall
        time (one context-variable read per call when disabled).
        """
        tracer = active_tracer()
        if tracer is None:
            return self._complement()
        t0 = tracer.clock()
        metrics = tracer.metrics
        metrics.count("relation.complement.calls")
        metrics.observe("relation.complement.in_tuples", len(self.tuples))
        result = self._complement()
        metrics.observe("relation.complement.out_tuples", len(result.tuples))
        metrics.observe("relation.complement.seconds", tracer.clock() - t0)
        return result

    def _complement(self) -> "Relation":
        """The DNF product, one stage ``partial and not t`` per tuple ``t``.

        The full product splits every parent ``p`` of ``partial`` on
        every negated atom ``b`` of ``t`` into ``p and b`` and absorbs
        the stage.  A dense-order parent that entails some ``b`` is
        disjoint from ``t``, so it is *settled*: it enters the stage
        whole and its pieces are never built.  That is exact.  For an
        entailed ``b``, ``p and b`` is ``p`` itself, because dense-order
        tuples are canonical, and every other piece lies inside ``p``,
        so absorption drops it.  The universe, stage one's lone parent,
        entails no negated atom, so it is split without a probe.
        Settled parents are the previous stage's absorbed output, so
        they lead the stage as an absorbed prefix and only pairs
        involving a split piece are tested; the kept tuples are then
        sorted back into the full product's order.
        Each stage thus holds the full product's tuples in its order.
        Other theories split every parent: a linear ``p and b`` can drop
        an atom of ``p`` that ``b`` makes redundant, so the piece the
        full product keeps is not ``p``, and finding it costs more than
        the split.  The guard is charged for the tuples that enter a
        stage's absorption: one per settled parent, one per satisfiable
        piece.
        """
        fault_point("relation.complement")
        guard = active_guard()
        if guard is not None:
            guard.note("relation.complement")
        dense = isinstance(self.theory, DenseOrderTheory)
        partial: List[GTuple] = [GTuple.universe(self.theory, self.schema)]
        # canonical iteration order: the conjunction-of-negations product
        # below charges the guard once per input tuple and early-exits
        # when the partial product empties, so its *accounting* (not
        # just its result set) depends on tuple order -- and parallel
        # join/project merges reorder tuples relative to serial.  Sort
        # by the same stable key _absorb uses so serial and sharded
        # runs charge identically for the same tuple multiset.
        for t in sorted(self.tuples, key=lambda t: sorted(str(a) for a in t.atoms)):
            if not t.atoms:  # a universe tuple: complement is empty
                return Relation._trusted(self.theory, self.schema, ())
            negated: List = []
            # sorted: t.atoms is a frozenset whose iteration order is
            # hash-salted; the complement's *tuple set* is order-
            # independent, but which duplicate representative survives
            # dedup (and hence the representation order downstream) is
            # not -- pin it so runs agree across PYTHONHASHSEED values
            # and shard merges
            for a in sorted(t.atoms, key=str):
                negated.extend(self.theory.negate_atom(a))
            settled: List[GTuple] = []
            pieces: List[GTuple] = []
            first: Dict[GTuple, int] = {}  # position in the full product
            for p in partial:
                if guard is not None:
                    guard.tick("relation.complement")
                if dense and p.atoms and any(p.entails(neg) for neg in negated):
                    settled.append(p)
                    first.setdefault(p, len(first))
                    continue
                for neg in negated:
                    ext = p.conjoin([neg])
                    if ext is not None:
                        pieces.append(ext)
                        first.setdefault(ext, len(first))
            if guard is not None:
                # charge before absorption: the quadratic subsumption
                # pass is itself expensive on a blown-up stage
                guard.on_tuples(len(settled) + len(pieces), "relation.complement")
            partial = _absorb(settled + pieces, len(settled))
            if not partial:
                return Relation._trusted(self.theory, self.schema, ())
            partial.sort(key=first.__getitem__)
        result = Relation._trusted(self.theory, self.schema, partial)
        if guard is not None:
            guard.check_atoms(result, "relation.complement")
        return result

    def difference(self, other: "Relation") -> "Relation":
        self._require_compatible(other)
        if other.is_empty() or self.is_empty():
            return self
        return self.intersection(other.complement())

    # ---------------------------------------------------------- relational ops

    def select(self, atoms: Iterable) -> "Relation":
        """Conjoin constraint atoms (over schema columns) to every tuple."""
        atoms = list(atoms)
        out = []
        for t in self.tuples:
            kept = t.conjoin(atoms)
            if kept is not None:
                out.append(kept)
        return Relation._trusted(self.theory, self.schema, out)

    def project(self, columns: Sequence[str]) -> "Relation":
        """Project onto ``columns`` (existentially eliminating the rest)."""
        target = check_schema(columns)
        extra = set(target) - set(self.schema)
        if extra:
            raise SchemaError(f"cannot project onto unknown columns {sorted(extra)}")
        victims = [c for c in self.schema if c not in target]
        current = list(self.tuples)
        if victims:
            fault_point("relation.project")
        guard = active_guard() if victims else None
        tracer = active_tracer() if victims else None
        if guard is not None:
            guard.note("relation.project")
        t0 = 0.0
        if tracer is not None:
            t0 = tracer.clock()
            metrics = tracer.metrics
            metrics.count("relation.project.calls")
            # one quantifier elimination per projection, serial or sharded
            metrics.count("qe.calls")
            metrics.observe("relation.project.in_tuples", len(current))
        ctx = active_execution_context() if victims else None
        if ctx is not None and ctx.eligible(len(current)):
            from repro.parallel.backend import parallel_project

            reordered, _ = parallel_project(
                current, victims, target, ctx, guard, tracer
            )
        else:
            cache = self._memo_cache()
            for column in victims:
                survivors: List[GTuple] = []
                if cache is None:
                    for t in current:
                        survivors.extend(t.project_out_all(column))
                else:
                    for results in cache.memo_map(
                        ("project", column), current,
                        lambda t, column=column: tuple(t.project_out_all(column)),
                    ):
                        survivors.extend(results)
                current = survivors
                if guard is not None:
                    guard.note("qe", len(survivors))
                    guard.on_tuples(len(survivors), "relation.project")
                    guard.tick("relation.project")
                if tracer is not None:
                    metrics.count("qe.eliminated_vars")
                    metrics.observe("qe.survivors", len(survivors))
            reordered = [t.reorder(target) for t in current]
        if tracer is not None:
            metrics.observe("relation.project.out_tuples", len(reordered))
            metrics.observe("relation.project.seconds", tracer.clock() - t0)
        return Relation._trusted(self.theory, target, reordered)

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename columns (missing entries = identity).

        The target schema and the variable substitution are built once
        for all tuples; each tuple is renamed by
        :meth:`GTuple.rename`'s rule, so dense-order tuples skip the
        kernel while the kernel cache is on, and a tuple renamed the
        same way before is served from the operation memo.
        """
        target = check_schema(tuple(mapping.get(c, c) for c in self.schema))
        subst = rename_substitution(mapping)
        cache = self._memo_cache()
        if cache is None:
            renamed = [t._renamed(target, subst) for t in self.tuples]
        else:
            renamed = cache.memo_map(
                ("rename", target, frozenset(subst.items())), self.tuples,
                lambda t: t._renamed(target, subst),
            )
        return Relation._trusted(self.theory, target, renamed)

    def _memo_cache(self):
        """The kernel cache when its operation memo serves this relation:
        the cache is on and the tuples are dense-order (interned,
        canonical values); None otherwise."""
        cache = kernel_cache()
        if cache.enabled and isinstance(self.theory, DenseOrderTheory):
            return cache
        return None

    def extend(self, schema: Sequence[str]) -> "Relation":
        """Pad with unconstrained columns to a wider schema."""
        target = check_schema(schema)
        return Relation._trusted(
            self.theory, target, [t.extend(target) for t in self.tuples]
        )

    def join(self, other: "Relation") -> "Relation":
        """Natural join on shared column names.

        When both sides are large enough and some shared column is
        pinned to a constant on most tuples (the classical-tuple case:
        graph edges, point sets), the pairing is driven by a partition
        index on that column -- only buckets with compatible constants
        are paired, plus the unpinned remainder.  Skipped pairs are
        exactly those whose merge would be unsatisfiable (two distinct
        constants forced equal), so the result is identical to the
        nested loop, which remains the transparent fallback.
        """
        if self.theory is not other.theory and self.theory != other.theory:
            raise TheoryError("relations from different theories")
        fault_point("relation.join")
        guard = active_guard()
        tracer = active_tracer()
        t0 = 0.0
        if tracer is not None:
            t0 = tracer.clock()
            metrics = tracer.metrics
            metrics.count("relation.join.calls")
            metrics.observe("relation.join.in_tuples", len(self.tuples) + len(other.tuples))
        if guard is not None:
            guard.note("relation.join")
        combined = self.schema + tuple(c for c in other.schema if c not in self.schema)
        # widen the right side once, not once per pair
        wide_b = [b.extend(combined).reorder(combined) for b in other.tuples]
        partition = _join_partition(self, other)
        if partition is not None and tracer is not None:
            metrics.count("relation.join.indexed")
        out: List[GTuple] = []
        considered = 0
        ctx = active_execution_context()
        if ctx is not None and wide_b and ctx.eligible(len(self.tuples)):
            from repro.parallel.backend import parallel_join

            out, considered, _ = parallel_join(
                self.tuples, wide_b, combined, partition, ctx, guard
            )
        else:
            for ai, a in enumerate(self.tuples):
                if guard is not None:
                    guard.tick("relation.join")
                wide_a = a.extend(combined)
                if partition is None:
                    matches: Iterable[int] = range(len(wide_b))
                else:
                    buckets, unpinned, pins_a = partition
                    pin = pins_a[ai]
                    if pin is None:
                        matches = range(len(wide_b))
                    else:
                        # preserve the nested loop's right-side order
                        matches = sorted(buckets.get(pin, ()) + unpinned)
                for bi in matches:
                    considered += 1
                    merged = wide_a.merge(wide_b[bi], combined)
                    if merged is not None:
                        out.append(merged)
        result = Relation._trusted(self.theory, combined, out)
        if guard is not None:
            guard.charge_relation(result, "relation.join")
        if tracer is not None:
            skipped = len(self.tuples) * len(other.tuples) - considered
            if skipped:
                metrics.count("relation.join.pairs_skipped", skipped)
            metrics.observe("relation.join.out_tuples", len(result.tuples))
            metrics.observe("relation.join.seconds", tracer.clock() - t0)
        return result

    # ------------------------------------------------------------- comparisons

    def contains(self, other: "Relation") -> bool:
        """Pointset containment ``other included in self`` (exact)."""
        self._require_compatible(other)
        return other.difference(self).is_empty()

    def equivalent(self, other: "Relation") -> bool:
        """Pointset equality (exact, via both containments)."""
        return self.contains(other) and other.contains(self)

    def contains_point(self, values: Sequence) -> bool:
        """Membership of one rational point."""
        vals = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
        return any(t.contains_point(vals) for t in self.tuples)

    # ------------------------------------------------------------ maintenance

    def simplify(self, *, absorbed: int = 0) -> "Relation":
        """Drop tuples subsumed by other tuples (containment absorption).

        ``absorbed`` says that the first ``absorbed`` tuples are the
        output of an earlier absorption, so no two of them subsume each
        other: those pairs are not tested (delta absorption).  The kept
        tuples and their order are those of the full pass, the default.
        A prefix that is not absorbed can only keep extra subsumed
        tuples; the pointset is the same.
        """
        kept = _absorb(list(self.tuples), absorbed)
        tracer = active_tracer()
        if tracer is not None:
            metrics = tracer.metrics
            metrics.count("relation.simplify.calls")
            dropped = len(self.tuples) - len(kept)
            if dropped:
                metrics.count("relation.simplify.tuples_absorbed", dropped)
                removed = sum(len(t.atoms) for t in self.tuples) - sum(
                    len(t.atoms) for t in kept
                )
                metrics.count("relation.simplify.atoms_removed", removed)
        return Relation._trusted(self.theory, self.schema, kept)

    def sample_points(self) -> List[Dict[str, Fraction]]:
        """One explicit rational point per generalized tuple."""
        return [t.sample_point() for t in self.tuples]


def _absorb(tuples: List[GTuple], absorbed: int = 0) -> List[GTuple]:
    """Remove tuples whose conjunction is subsumed by another tuple's.

    ``t`` is subsumed by ``s`` when ``t`` entails every atom of ``s``
    (then the pointset of ``t`` is included in that of ``s``).

    The first ``absorbed`` tuples must be the output of an earlier
    absorption (see :meth:`Relation.simplify`): a pair of them is never
    tested, so an inflationary round tests only the pairs that involve
    a new tuple.  Both the hash dedup and :meth:`Relation.union` keep
    first occurrences, so that prefix survives dedup unchanged.

    The pairwise pass is still quadratic in the worst case, but most
    candidate pairs are dismissed without touching the entailment
    kernel: duplicates are hash-deduplicated up front, a universe tuple
    short-circuits the whole pass, and (for the dense-order theory) a
    pair is skipped when the candidate subsumer mentions a variable the
    other tuple leaves unconstrained or pins a variable the other tuple
    does not pin to the same constant, or accepted when its atoms are a
    syntactic subset.  Distinct point tuples therefore never reach the
    kernel.
    """
    tracer = active_tracer()
    t0 = 0.0
    if tracer is not None:
        t0 = tracer.clock()
        metrics = tracer.metrics
        metrics.count("relation.absorb.calls")
        metrics.observe("relation.absorb.in_tuples", len(tuples))
    distinct: List[GTuple] = list(dict.fromkeys(tuples))
    kept: Optional[List[GTuple]] = None
    if len(distinct) <= 1:
        kept = distinct
    else:
        for t in distinct:
            if not t.atoms:
                # a universe tuple subsumes every other tuple and is
                # subsumed by none, so the pairwise pass reduces to [t]
                kept = [t]
                break
    if kept is None:
        ctx = active_execution_context()
        if ctx is not None and ctx.eligible(len(distinct)):
            from repro.parallel.backend import parallel_absorb

            kept, _ = parallel_absorb(distinct, ctx, absorbed)
        else:
            kept = [
                distinct[i]
                for i in _absorb_survivors(distinct, 0, len(distinct), absorbed)
            ]
    if tracer is not None:
        metrics.observe("relation.absorb.out_tuples", len(kept))
        metrics.observe("relation.absorb.seconds", tracer.clock() - t0)
    return kept


def _absorb_survivors(
    distinct: List[GTuple], start: int, stop: int, absorbed: int = 0
) -> List[int]:
    """Indices in ``[start, stop)`` of tuples not absorbed by any other.

    ``distinct`` must be deduplicated, non-trivial (no universe tuple,
    length > 1) and is never mutated.  Whether index ``i`` survives
    depends only on the full list, not on other survival decisions, so
    disjoint ranges can be decided independently (the parallel backend
    fans them out) and concatenated in order to reproduce the full
    serial pass.

    ``distinct[:absorbed]`` must be pairwise non-subsuming, as the
    output of an earlier absorption is: an ``i`` in it is tested only
    against ``j >= absorbed``, any other ``i`` against every ``j``.
    Skipping those pairs is exact.  If kept tuples ``i`` and ``j``
    had ``j`` subsume ``i``, keeping ``i`` would need ``i`` to subsume
    ``j`` and win the tie-break below, and keeping ``j`` would need
    ``j`` to win the same tie.
    """
    theory = distinct[0].theory
    dense = isinstance(theory, DenseOrderTheory)
    var_sets: List[FrozenSet[Var]] = (
        [theory.conjunction_variables(t.atoms) for t in distinct] if dense else []
    )
    pin_sets: List[FrozenSet[Tuple[Var, Fraction]]] = (
        [frozenset(_pins(t).items()) for t in distinct] if dense else []
    )

    def subsumes(si: int, ti: int) -> bool:
        s, t = distinct[si], distinct[ti]
        if dense:
            # an atom mentioning a variable absent from t's conjunction
            # is never entailed by it (that variable is unconstrained)
            if not var_sets[si] <= var_sets[ti]:
                return False
            # t entails ``v = c`` only if its closure pins v to c, and
            # the canonical form writes ``v = c`` for every pinned v:
            # each pin of s must be a pin of t
            if not pin_sets[si] <= pin_sets[ti]:
                return False
            # entailment is reflexive, so a syntactic subset subsumes
            if s.atoms <= t.atoms:
                return True
        return all(t.entails(a) for a in s.atoms)

    def stable_key(i: int) -> List[str]:
        return sorted(str(a) for a in distinct[i].atoms)

    kept: List[int] = []
    for i in range(start, stop):
        dropped = False
        for j in range(absorbed if i < absorbed else 0, len(distinct)):
            if i == j or not subsumes(j, i):
                continue
            if subsumes(i, j):
                # mutual subsumption: the tuples denote the same
                # pointset.  Keep the one with the smaller canonical
                # rendering -- an input-order-independent tie-break, so
                # the surviving representative does not depend on how
                # (or in which shard) the list was assembled.  Dense-
                # order tuples are canonicalized, so distinct-but-
                # equivalent tuples cannot arise there and this branch
                # only governs other theories.
                ki, kj = stable_key(i), stable_key(j)
                if (ki, i) < (kj, j):
                    continue
            dropped = True
            break
        if not dropped:
            kept.append(i)
    return kept


#: join uses the partition index only when both sides have at least this
#: many tuples (below that the nested loop wins on setup cost) ...
_JOIN_INDEX_MIN_TUPLES = 4
#: ... and at least this fraction of each side pins the shared column
_JOIN_INDEX_MIN_PINNED = 0.5


def _pins(t: GTuple) -> Dict[Var, Fraction]:
    """The constant each variable is equated to in ``t``, by variable.

    On a canonical dense-order tuple these are exactly the variables
    its closure pins: the canonical form writes ``member = const`` for
    every member of an equality class that contains a constant.
    """
    out: Dict[Var, Fraction] = {}
    for a in t.atoms:
        if a.op is Op.EQ:
            if isinstance(a.left, Var) and isinstance(a.right, Const):
                out[a.left] = a.right.value
            elif isinstance(a.right, Var) and isinstance(a.left, Const):
                out[a.right] = a.left.value
    return out


def _join_partition(left: "Relation", right: "Relation"):
    """A partition index for ``left.join(right)``, or None.

    Picks the shared column most often pinned to a constant on both
    sides and groups the right side by that constant.  A left tuple
    pinning the column to ``v`` only needs the ``v`` bucket plus the
    unpinned remainder: any other bucket forces two distinct constants
    equal, so those merges are unsatisfiable and contribute nothing.
    Returns ``(buckets, unpinned, left_pins)`` with right-side tuples
    referred to by index.
    """
    if not isinstance(left.theory, DenseOrderTheory):
        return None
    if (
        len(left.tuples) < _JOIN_INDEX_MIN_TUPLES
        or len(right.tuples) < _JOIN_INDEX_MIN_TUPLES
    ):
        return None
    right_cols = set(right.schema)
    shared = [c for c in left.schema if c in right_cols]
    if not shared:
        return None
    left_pins = [_pins(t) for t in left.tuples]
    right_pins = [_pins(t) for t in right.tuples]
    best = None
    for col in shared:
        var = Var(col)
        pins_a = [pins.get(var) for pins in left_pins]
        na = sum(p is not None for p in pins_a)
        if na < _JOIN_INDEX_MIN_PINNED * len(left.tuples):
            continue
        pins_b = [pins.get(var) for pins in right_pins]
        nb = sum(p is not None for p in pins_b)
        if nb < _JOIN_INDEX_MIN_PINNED * len(right.tuples):
            continue
        score = na + nb
        if best is None or score > best[0]:
            best = (score, pins_a, pins_b)
    if best is None:
        return None
    _, pins_a, pins_b = best
    buckets: Dict[Fraction, List[int]] = {}
    unpinned: List[int] = []
    for bi, pin in enumerate(pins_b):
        if pin is None:
            unpinned.append(bi)
        else:
            buckets.setdefault(pin, []).append(bi)
    return (
        {value: tuple(indices) for value, indices in buckets.items()},
        tuple(unpinned),
        pins_a,
    )
