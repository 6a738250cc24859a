"""The linear constraint theory: Fourier-Motzkin elimination over Q.

FO+ (paper Section 4) is first-order logic with linear constraints.
Because the structure ``(Q, +, <=)`` is the *additive* fragment of
Tarski's decidable theory of the reals [Tar51], quantifier elimination
does not need cylindrical algebraic decomposition: Fourier-Motzkin
elimination with strict/weak bookkeeping is complete.

:class:`LinearTheory` plugs this into the generic engine: generalized
tuples, relations, formulas and the Datalog engine all work unchanged
with linear atoms.

Every decision runs on *integer rows*.  A row is one atom
``c_1*x_1 + ... + c_n*x_n + c_0 op 0`` over the conjunction's sorted
variables, scaled by the LCM of its denominators and stored as the
tuple ``(c_1, ..., c_n, c_0, kind)`` with kind ``=``, ``<=`` or ``<``
(:data:`_EQ`, :data:`_LE`, :data:`_LT`).  One elimination step
(:func:`_eliminate`) removes a column: it substitutes the first
equality that mentions it, or else pairs every lower row with every
upper row using positive integer multipliers; each new row is divided
by the gcd of its entries and ground rows fold to true (dropped) or
false (the conjunction is unsatisfiable).  Satisfiability eliminates
every column, entailment tests ``C and not a`` per negated row of
``a``, canonicalization prunes entailed atoms, and :meth:`project_out`
converts the rows of one step back to atoms through
:func:`~repro.linear.latoms.linatom`.  Witnesses are produced by
back-substitution through the elimination order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.terms import Const, Term, Var
from repro.core.theory import ConstraintTheory
from repro.errors import TheoryError
from repro.linear.latoms import LinAtom, LinExpr, LinOp, lin_eq, linatom

__all__ = ["LinearTheory", "LINEAR"]


def _solve_for(a: LinAtom, name: str) -> Tuple[str, LinExpr, bool]:
    """Rewrite ``a`` as a bound on variable ``name``.

    Returns ``(kind, bound_expr, strict)`` with kind in
    ``{"lower", "upper", "equal"}`` such that the atom is equivalent to
    ``var (>|>=) bound``, ``var (<|<=) bound`` or ``var = bound``.
    """
    coeff = a.expr.coefficient(name)
    if not coeff:
        raise TheoryError(f"atom {a} does not mention {name}")  # pragma: no cover
    bound = a.expr.drop(name).scale(Fraction(-1) / coeff)
    if a.op is LinOp.EQ:
        return ("equal", bound, False)
    strict = a.op is LinOp.LT
    if coeff > 0:  # coeff*var + rest op 0  =>  var op bound
        return ("upper", bound, strict)
    return ("lower", bound, strict)


#: row kinds, ordered by strictness: combining two inequalities keeps
#: the larger kind, strict when either side is
_EQ, _LE, _LT = 0, 1, 2
_KIND = {LinOp.EQ: _EQ, LinOp.LE: _LE, LinOp.LT: _LT}
_OP = (LinOp.EQ, LinOp.LE, LinOp.LT)

#: ``(c_1, ..., c_n, c_0, kind)``: integer coefficients over sorted
#: variable names, the integer constant and the comparison kind
Row = Tuple[int, ...]


def _row(a: LinAtom, index: Mapping[str, int]) -> Row:
    """``a`` as a row over the columns of ``index``, scaled by the LCM
    of its denominators."""
    expr = a.expr
    scale = lcm(expr.const.denominator, *(c.denominator for _, c in expr.coeffs))
    out = [0] * (len(index) + 2)
    for name, c in expr.coeffs:
        out[index[name]] = c.numerator * (scale // c.denominator)
    out[-2] = expr.const.numerator * (scale // expr.const.denominator)
    out[-1] = _KIND[a.op]
    return tuple(out)


def _rows(atoms: Sequence[LinAtom]) -> Tuple[List[Row], List[str]]:
    """The rows of ``atoms`` over their sorted variables, and the
    variables' names."""
    names = sorted({n for a in atoms for n, _ in a.expr.coeffs})
    index = {n: i for i, n in enumerate(names)}
    return [_row(a, index) for a in atoms], names


def _atom(row: Row, names: Sequence[str]) -> LinAtom:
    """The normalized atom of a non-ground row."""
    expr = LinExpr(
        tuple((n, Fraction(c)) for n, c in zip(names, row) if c), Fraction(row[-2])
    )
    return linatom(expr, _OP[row[-1]])


def _combine(a: int, r: Row, b: int, s: Row, kind: int) -> Union[Row, bool]:
    """``a*r + b*s`` with comparison ``kind``, divided by the gcd of its
    entries; a ground combination folds to its truth value."""
    entries = [a * x + b * y for x, y in zip(r[:-1], s[:-1])]
    if not any(entries[:-1]):
        const = entries[-1]
        return const == 0 if kind == _EQ else const <= 0 if kind == _LE else const < 0
    g = gcd(*entries)
    if g != 1:
        entries = [e // g for e in entries]
    entries.append(kind)
    return tuple(entries)


def _eliminate(rows: Sequence[Row], k: int) -> Optional[List[Row]]:
    """One Fourier-Motzkin step: ``exists x_k`` of the conjunction of
    ``rows``, as rows without column ``k``; None when a new row folds
    to false.

    If an equality mentions ``x_k``, the first one is substituted into
    every other row that does, in place.  Otherwise the rows without
    ``x_k`` come first, then every lower row (negative coefficient)
    combined with every upper row, lower-major.  Every multiplier that
    scales an inequality is positive, so each new row is a positive
    multiple of the bound difference the atom-level elimination forms.
    """
    out: List[Row] = []
    pivot = next((r for r in rows if r[k] and r[-1] == _EQ), None)
    if pivot is not None:
        e = pivot[k]
        for r in rows:
            if r is pivot:
                continue
            c = r[k]
            if not c:
                out.append(r)
                continue
            # |e| * r - sign(e) * c * pivot cancels column k
            made = _combine(abs(e), r, -c if e > 0 else c, pivot, r[-1])
            if made is True:
                continue
            if made is False:
                return None
            out.append(made)
        return out
    lowers: List[Row] = []
    uppers: List[Row] = []
    for r in rows:
        c = r[k]
        if not c:
            out.append(r)
        elif c < 0:
            lowers.append(r)
        else:
            uppers.append(r)
    for low in lowers:
        for high in uppers:
            made = _combine(high[k], low, -low[k], high, max(low[-1], high[-1]))
            if made is True:
                continue
            if made is False:
                return None
            out.append(made)
    return out


def _satisfiable(rows: Iterable[Row]) -> bool:
    """Eliminate every column, last first, deduplicating between steps."""
    rows = list(dict.fromkeys(rows))
    if not rows:
        return True
    for k in range(len(rows[0]) - 3, -1, -1):  # the columns before c_0 and kind
        if any(r[k] for r in rows):
            rows = _eliminate(rows, k)
            if rows is None:
                return False
            rows = list(dict.fromkeys(rows))
    return True


def _negations(row: Row) -> List[Row]:
    """``not row`` as a disjunction of rows."""
    flipped = tuple(-x for x in row[:-1])
    kind = row[-1]
    if kind == _LT:  # not(e < 0) == -e <= 0
        return [flipped + (_LE,)]
    if kind == _LE:  # not(e <= 0) == -e < 0
        return [flipped + (_LT,)]
    return [row[:-1] + (_LT,), flipped + (_LT,)]  # e < 0 or -e < 0


def _entails(rows: List[Row], row: Row) -> bool:
    """``rows`` imply ``row``: each negated row contradicts them.  An
    unsatisfiable ``rows`` entails everything, with no separate check."""
    return not any(_satisfiable(rows + [n]) for n in _negations(row))


def _prune(atoms: List[LinAtom], rows: List[Row]) -> FrozenSet[LinAtom]:
    """Drop each atom the kept atoms before it and all atoms after it
    entail, in input order."""
    kept: List[LinAtom] = []
    kept_rows: List[Row] = []
    for i, (a, r) in enumerate(zip(atoms, rows)):
        others = kept_rows + rows[i + 1 :]
        if others and _entails(others, r):
            continue
        kept.append(a)
        kept_rows.append(r)
    return frozenset(kept)


class LinearTheory(ConstraintTheory):
    """Conjunctions of linear atoms, with Fourier-Motzkin projection."""

    name = "linear"

    def coerce_atom(self, a: Union[LinAtom, bool]) -> Union[LinAtom, bool]:
        if isinstance(a, bool):
            return a
        if not isinstance(a, LinAtom):
            raise TheoryError(f"not a linear atom: {a!r}")
        return a

    def atom_variables(self, a: LinAtom) -> FrozenSet[Var]:
        return a.variables

    def atom_constants(self, a: LinAtom) -> FrozenSet[Fraction]:
        return a.constants

    def negate_atom(self, a: LinAtom) -> List[LinAtom]:
        return a.negate()

    def substitute_atom(self, a: LinAtom, mapping: Mapping[Var, Term]) -> Union[LinAtom, bool]:
        return a.substitute(mapping)

    def equality_atom(self, left: Term, right: Term) -> Union[LinAtom, bool]:
        return lin_eq(LinExpr.of_term(left), LinExpr.of_term(right))

    def weaken_atom(self, a: LinAtom) -> LinAtom:
        if a.op is LinOp.LT:
            return LinAtom(a.expr, LinOp.LE)
        return a

    def evaluate_atom(self, a: LinAtom, assignment: Mapping[Var, Fraction]) -> bool:
        return a.evaluate(assignment)

    # ------------------------------------------------------------- projection

    def project_out(self, conjunction: Sequence[LinAtom], var: Var) -> List[List[LinAtom]]:
        """Fourier-Motzkin elimination of one variable.

        One :func:`_eliminate` step on the conjunction's rows: an
        equality pins the variable and is substituted; otherwise each
        lower bound is combined with each upper bound, strict when
        either side is strict.  The result is a single conjunction (no
        case splits), its rows converted back to normalized atoms, and
        may be unsatisfiable only through ground folding, reported as
        an empty disjunction.
        """
        atoms = list(conjunction)
        rows, names = _rows(atoms)
        if var.name not in names:
            return [atoms]
        # a row the step passes through unchanged is its own atom again
        known = dict(zip(rows, atoms))
        rows = _eliminate(rows, names.index(var.name))
        if rows is None:
            return []
        return [[known.get(r) or _atom(r, names) for r in rows]]

    # ---------------------------------------------------------- satisfiability

    def is_satisfiable(self, conjunction: Iterable[LinAtom]) -> bool:
        """Eliminate every variable, last name first, on integer rows."""
        rows, _ = _rows(list(conjunction))
        return _satisfiable(rows)

    def entails(self, conjunction: Iterable[LinAtom], a: LinAtom) -> bool:
        """``conjunction and n`` is unsatisfiable for each negation ``n``
        of ``a``."""
        atoms = list(conjunction)
        atoms.append(a)
        rows, _ = _rows(atoms)
        return _entails(rows[:-1], rows[-1])

    def canonicalize(self, conjunction: Iterable[LinAtom]) -> FrozenSet[LinAtom]:
        """Normalized-atom set with entailed atoms pruned.

        Cheaper than a true canonical form (which would need a full
        redundancy analysis); sound because only implied atoms are
        dropped.  The input is converted to rows once.
        """
        atoms = list(dict.fromkeys(conjunction))
        rows, _ = _rows(atoms)
        return _prune(atoms, rows)

    def canonicalize_if_satisfiable(
        self, conjunction: Iterable[LinAtom]
    ) -> Optional[FrozenSet[LinAtom]]:
        """:meth:`canonicalize` when satisfiable, else None, on one
        conversion to rows."""
        atoms = list(dict.fromkeys(conjunction))
        rows, _ = _rows(atoms)
        if not _satisfiable(rows):
            return None
        return _prune(atoms, rows)

    # ----------------------------------------------------------------- solve

    def solve(self, conjunction: Iterable[LinAtom]) -> Optional[Dict[Var, Fraction]]:
        atoms = list(conjunction)
        if not self.is_satisfiable(atoms):
            return None
        names = sorted({n for a in atoms for n, _ in a.expr.coeffs})
        return self._solve_ordered(atoms, names)

    def _solve_ordered(
        self, atoms: List[LinAtom], names: List[str]
    ) -> Dict[Var, Fraction]:
        if not names:
            return {}
        name = names[-1]
        cases = self.project_out(atoms, Var(name))
        if not cases:  # pragma: no cover - caller checked satisfiability
            raise TheoryError("projection of a satisfiable system became empty")
        [reduced] = cases
        witness = self._solve_ordered(reduced, names[:-1])
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        lo_strict = hi_strict = False
        pin: Optional[Fraction] = None
        for a in atoms:
            if not a.expr.coefficient(name):
                continue
            kind, bound, strict = _solve_for(a, name)
            value = bound.evaluate(witness)
            if kind == "equal":
                pin = value
            elif kind == "lower":
                if lo is None or value > lo or (value == lo and strict):
                    lo, lo_strict = value, strict
            else:
                if hi is None or value < hi or (value == hi and strict):
                    hi, hi_strict = value, strict
        if pin is not None:
            choice = pin
        elif lo is None and hi is None:
            choice = Fraction(0)
        elif lo is None:
            choice = hi - 1
        elif hi is None:
            choice = lo + 1
        elif lo == hi:
            if lo_strict or hi_strict:  # pragma: no cover - unsat, filtered earlier
                raise TheoryError("empty interval for witness")
            choice = lo
        else:
            choice = (lo + hi) / 2
        witness = dict(witness)
        witness[Var(name)] = choice
        return witness


#: the shared linear theory instance
LINEAR = LinearTheory()
