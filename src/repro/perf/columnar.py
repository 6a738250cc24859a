"""The dense-order constraint kernel: one conjunction as a bounds matrix.

Every closed-form operation of the engine (FO by quantifier
elimination, Datalog fixpoints) reduces to three questions about one
conjunction of NE-free dense-order atoms: is it satisfiable, does it
entail a given atom, and what is its canonical form.  This module
answers them for :class:`~repro.core.theory.DenseOrderTheory`.

A conjunction becomes a *dense bounds matrix*: one row and column per
variable-or-constant slot, entries drawn from::

    0  unconstrained        (no derived relation row -> col)
    1  weak                 (row <= col derivable, row < col not)
    2  strict               (row <  col derivable)

backed by a flat ``bytearray``.  The closure is one pure-Python
Floyd–Warshall pass over the max semiring on ``{0, 1, 2}`` -- a path
is strict iff any edge on it is.  Because ``(Q, <=)`` is a dense linear
order without endpoints, the only sources of inconsistency are a
strict cycle and two distinct constants forced equal; constants carry
their numeric order implicitly, which the closure materializes as
strict edges between consecutive constants present in the matrix.

``tests/core/test_kernel_semantics.py`` checks every verdict against
the sample-point semantics of :mod:`repro.core.sampling`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = ["BoundsMatrix", "kernel_selector"]

#: matrix entries
_NONE, _WEAK, _STRICT = 0, 1, 2


class _OneKernel:
    __slots__ = ()

    #: read-only: the bounds matrix is the only kernel
    columnar = True


_ONE_KERNEL = _OneKernel()


def kernel_selector() -> _OneKernel:
    """A constant whose ``.columnar`` is True and cannot be set.

    The bounds matrix is the engine's only kernel; this remains because
    ``perfbench/bench.py`` reads it for the ``kernel`` field of its run
    record.
    """
    return _ONE_KERNEL


class BoundsMatrix:
    """One conjunction of NE-free dense-order atoms as a bounds matrix.

    Built once from a whole conjunction; the closure, the
    satisfiability verdict and the sorted constant slots are computed
    lazily and memoized.  :class:`~repro.core.theory.DenseOrderTheory`
    keeps one per conjunction in its
    :class:`~repro.perf.cache.KernelEntry`.
    """

    __slots__ = ("_terms", "_index", "_n", "_edges", "_matrix", "_sat", "_consts")

    def __init__(self, atoms: Iterable = ()) -> None:
        index: Dict = {}
        terms: List = []
        triples: List[Tuple[int, int, int]] = []
        for a in atoms:
            op = a.op
            if op is Op.NE:
                raise TheoryError("BoundsMatrix handles NE-free conjunctions only")
            if op in (Op.GE, Op.GT):  # pragma: no cover - atoms normalize these away
                raise TheoryError("atoms must be normalized before reaching BoundsMatrix")
            i = index.get(a.left)
            if i is None:
                i = index[a.left] = len(terms)
                terms.append(a.left)
            j = index.get(a.right)
            if j is None:
                j = index[a.right] = len(terms)
                terms.append(a.right)
            if op is Op.LT:
                triples.append((i, j, _STRICT))
            elif op is Op.LE:
                triples.append((i, j, _WEAK))
            else:  # EQ: weak edges both ways
                triples.append((i, j, _WEAK))
                triples.append((j, i, _WEAK))
        n = len(terms)
        edges = bytearray(n * n)
        for i, j, w in triples:
            k = i * n + j
            if edges[k] < w:
                edges[k] = w
        self._terms = terms
        self._index = index
        self._n = n
        self._edges = edges
        self._matrix: Optional[bytearray] = None
        self._sat: Optional[bool] = None
        self._consts: Optional[List[Tuple[int, Fraction]]] = None

    # ------------------------------------------------------------- inspection

    @property
    def nodes(self) -> FrozenSet:
        return frozenset(self._terms)

    def edge_bytes(self) -> bytes:
        """The pre-closure edge matrix as a flat int array (row-major)."""
        return bytes(self._edges)

    def __reduce__(self):
        # the cheap shard-payload form: term slots + flat int array
        # (the closure, verdict, and const index are all derived state)
        return (_restore_matrix, (tuple(self._terms), bytes(self._edges)))

    def __repr__(self) -> str:
        return f"<BoundsMatrix {self._n} slot(s)>"

    # ---------------------------------------------------------------- closure

    def _const_slots(self) -> List[Tuple[int, Fraction]]:
        if self._consts is None:
            self._consts = sorted(
                ((i, t.value) for i, t in enumerate(self._terms) if isinstance(t, Const)),
                key=lambda pair: pair[1],
            )
        return self._consts

    def _closure(self) -> bytearray:
        if self._matrix is not None:
            return self._matrix
        n = self._n
        m = bytearray(self._edges)
        # materialize the numeric order of the constants present
        consts = self._const_slots()
        for (lo, _), (hi, _) in zip(consts, consts[1:]):
            m[lo * n + hi] = _STRICT
        rng = range(n)
        for k in rng:
            kn = k * n
            for i in rng:
                w_ik = m[i * n + k]
                if not w_ik:
                    continue
                row = i * n
                for j in rng:
                    w_kj = m[kn + j]
                    if not w_kj:
                        continue
                    w = w_ik if w_ik > w_kj else w_kj
                    if m[row + j] < w:
                        m[row + j] = w
        self._matrix = m
        return m

    # ---------------------------------------------------------------- queries

    def is_satisfiable(self) -> bool:
        """True iff the conjunction has a rational solution (memoized)."""
        if self._sat is None:
            self._sat = self._satisfiable()
        return self._sat

    def _satisfiable(self) -> bool:
        m = self._closure()
        n = self._n
        for i in range(n):
            if m[i * n + i] == _STRICT:  # strict cycle
                return False
        # two distinct constants forced equal
        consts = self._const_slots()
        for a in range(len(consts)):
            i = consts[a][0]
            row = i * n
            for b in range(a + 1, len(consts)):
                j = consts[b][0]
                if m[row + j] and m[j * n + i]:
                    return False
        return True

    def relation_between(self, a, b) -> Optional["Op"]:
        """Strongest derived relation ``a op b``; None if unconstrained."""
        if a == b:
            return Op.EQ
        if isinstance(a, Const) and isinstance(b, Const):
            return Op.LT if a.value < b.value else (Op.EQ if a.value == b.value else Op.GT)
        m = self._closure()
        n = self._n
        index = self._index
        ia = index.get(a)
        ib = index.get(b)
        fwd = bwd = _NONE
        if ia is not None and ib is not None:
            fwd = m[ia * n + ib]
            bwd = m[ib * n + ia]
        if fwd and bwd:
            return Op.EQ  # (unsat if either is strict; caller checks satisfiability)
        if fwd == _STRICT:
            return Op.LT
        if fwd == _WEAK:
            return Op.LE
        if bwd == _STRICT:
            return Op.GT
        if bwd == _WEAK:
            return Op.GE
        # fall back to numeric reasoning when one side is a constant the
        # matrix has never seen (e.g. {x = -1} entails x <= 0)
        if isinstance(b, Const) and ib is None and ia is not None:
            return self._relation_to_fresh_constant(ia, b)
        if isinstance(a, Const) and ia is None and ib is not None:
            rel = self._relation_to_fresh_constant(ib, a)
            return rel.flipped if rel is not None else None
        return None

    def _relation_to_fresh_constant(self, node: int, c) -> Optional["Op"]:
        """Strongest relation ``node op c`` for a constant not in the matrix."""
        m = self._closure()
        n = self._n
        value = c.value
        at_most_c = False
        at_least_c = False
        for oi, oval in self._const_slots():
            fwd = m[node * n + oi]
            if fwd:  # node </<= other
                if oval < value or (oval == value and fwd == _STRICT):
                    return Op.LT
                if oval == value:
                    at_most_c = True
            bwd = m[oi * n + node]
            if bwd:  # other </<= node
                if oval > value or (oval == value and bwd == _STRICT):
                    return Op.GT
                if oval == value:
                    at_least_c = True
        if at_most_c and at_least_c:
            return Op.EQ
        if at_most_c:
            return Op.LE
        if at_least_c:
            return Op.GE
        return None

    def implies(self, candidate) -> bool:
        """Entailment: does the (satisfiable) conjunction imply ``candidate``?

        An unsatisfiable conjunction implies everything.
        """
        if isinstance(candidate, bool):
            return candidate or not self.is_satisfiable()
        if not self.is_satisfiable():
            return True
        rel = self.relation_between(candidate.left, candidate.right)
        if candidate.op is Op.NE:
            return rel in (Op.LT, Op.GT)
        if rel is None:
            return False
        if candidate.op is Op.EQ:
            return rel is Op.EQ
        if candidate.op is Op.LT:
            return rel is Op.LT
        if candidate.op is Op.LE:
            return rel in (Op.LT, Op.LE, Op.EQ)
        raise TheoryError(f"non-normalized candidate atom {candidate}")

    # ------------------------------------------------------------ equivalence

    def equality_classes(self) -> List[FrozenSet]:
        """Partition of the slots' terms into classes forced equal."""
        m = self._closure()
        n = self._n
        terms = self._terms
        order = sorted(range(n), key=lambda i: term_key(terms[i]))
        assigned = [False] * n
        classes: List[FrozenSet] = []
        for i in order:
            if assigned[i]:
                continue
            assigned[i] = True
            members = {terms[i]}
            row = i * n
            for j in range(n):
                if assigned[j]:
                    continue
                if m[row + j] and m[j * n + i]:
                    assigned[j] = True
                    members.add(terms[j])
            classes.append(frozenset(members))
        return classes

    def _representatives(self) -> Dict:
        """Map each term to its class representative (a constant if any)."""
        rep: Dict = {}
        for cls in self.equality_classes():
            consts = sorted((t for t in cls if isinstance(t, Const)), key=term_key)
            members = sorted(cls, key=term_key)
            chosen = consts[0] if consts else members[0]
            for member in cls:
                rep[member] = chosen
        return rep

    def canonical_atoms(self) -> FrozenSet:
        """A deterministic minimal generating set of the conjunction.

        One representative per equality class (preferring constants),
        ``member = rep`` equalities, then the transitive reduction of
        the order on the representatives with constant-to-constant
        edges dropped.  Raises :class:`TheoryError` when unsatisfiable.
        """
        if not self.is_satisfiable():
            raise TheoryError("canonical form of an unsatisfiable conjunction")
        rep = self._representatives()
        out: set = set()
        for member, chosen in rep.items():
            if member != chosen:
                made = eq(member, chosen)
                if not isinstance(made, bool):
                    out.add(made)
        m = self._closure()
        n = self._n
        index = self._index
        reps = sorted({r for r in rep.values()}, key=term_key)
        edges: Dict[Tuple, bool] = {}
        for i, u in enumerate(reps):
            for v in reps[i + 1 :]:
                rel = self.relation_between(u, v)
                if rel in (Op.LT, Op.LE):
                    edges[(u, v)] = rel is Op.LT
                elif rel in (Op.GT, Op.GE):
                    edges[(v, u)] = rel is Op.GT

        def reachable(a, b) -> Optional[bool]:
            if isinstance(a, Const) and isinstance(b, Const):
                if a.value < b.value:
                    return True
                return None
            entry = m[index[a] * n + index[b]]
            return None if entry == _NONE else entry == _STRICT

        for (u, v), strict in edges.items():
            if isinstance(u, Const) and isinstance(v, Const):
                continue  # numeric order is implicit
            redundant = False
            for w in reps:
                if w == u or w == v:
                    continue
                first = reachable(u, w)
                second = reachable(w, v)
                if first is None or second is None:
                    continue
                path_strict = bool(first) or bool(second)
                if path_strict or not strict:
                    redundant = True
                    break
            if not redundant:
                made = lt(u, v) if strict else le(u, v)
                if not isinstance(made, bool):
                    out.add(made)
        return frozenset(out)

    # ------------------------------------------------------------------ solve

    def solve(self) -> Optional[Dict]:
        """An explicit rational witness; None when unsatisfiable.

        Representatives are placed in ``term_key`` order inside their
        feasible intervals.
        """
        if not self.is_satisfiable():
            return None
        rep = self._representatives()
        m = self._closure()
        n = self._n
        index = self._index
        reps = sorted(set(rep.values()), key=term_key)
        values: Dict = {}
        pending = []
        for r in reps:
            if isinstance(r, Const):
                values[r] = r.value
            else:
                pending.append(r)
        consts = [self._terms[i] for i, _ in self._const_slots()]

        def entry(u, v) -> int:
            return m[index[u] * n + index[v]]

        def const_bounds(node) -> Tuple[Optional[Fraction], Optional[Fraction]]:
            lo: Optional[Fraction] = None
            hi: Optional[Fraction] = None
            for c in consts:
                if rep[c] == node:
                    continue
                if entry(node, c):  # node <= / < c
                    hi = c.value if hi is None else min(hi, c.value)
                if entry(c, node):  # c <= / < node
                    lo = c.value if lo is None else max(lo, c.value)
            return lo, hi

        def preds(node) -> List:
            result = []
            for other in pending:
                if other == node:
                    continue
                if entry(other, node):
                    result.append(other)
            return result

        remaining = list(pending)
        ordered: List = []
        placed: set = set()
        while remaining:
            progressed = False
            for node in list(remaining):
                if all(p in placed for p in preds(node)):
                    ordered.append(node)
                    placed.add(node)
                    remaining.remove(node)
                    progressed = True
            if not progressed:  # pragma: no cover - impossible once satisfiable
                raise TheoryError("cyclic order among distinct classes")

        for node in ordered:
            lo, hi = const_bounds(node)
            for p in preds(node):
                pv = values[p]
                lo = pv if lo is None else max(lo, pv)
            if lo is None and hi is None:
                values[node] = Fraction(0)
            elif lo is None:
                values[node] = hi - 1
            elif hi is None:
                values[node] = lo + 1
            else:
                if not lo < hi:  # pragma: no cover - guarded by satisfiability
                    raise TheoryError("no interior point available for witness")
                values[node] = (lo + hi) / 2

        witness: Dict = {}
        for node in self._terms:
            if isinstance(node, Var):
                chosen = rep[node]
                witness[node] = values[chosen] if isinstance(chosen, Var) else chosen.value
        return witness


def _restore_matrix(terms: tuple, edges: bytes) -> BoundsMatrix:
    """Rebuild a pickled matrix from its slots + flat int array."""
    m = BoundsMatrix.__new__(BoundsMatrix)
    m._terms = list(terms)
    m._index = {t: i for i, t in enumerate(terms)}
    m._n = len(terms)
    m._edges = bytearray(edges)
    m._matrix = None
    m._sat = None
    m._consts = None
    return m


# Core imports live at the *bottom*: importing ``repro.core.atoms``
# executes ``repro.core.__init__``, whose import chain re-enters this
# module through ``repro.core.theory`` (`from repro.perf.columnar
# import BoundsMatrix`).  Every public name above is already bound by
# the time that re-entry happens; the names below are only referenced
# from inside function bodies, at call time.
from repro.core.atoms import Op, eq, le, lt  # noqa: E402
from repro.core.terms import Const, Var, term_key  # noqa: E402
from repro.errors import TheoryError  # noqa: E402
