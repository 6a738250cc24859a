"""The integer-row Fourier-Motzkin kernel against its atom-level reference.

``LinearTheory`` decides satisfiability, entailment and pruning, and
projects one variable, on integer rows (:mod:`repro.linear.theory`).
The functions ``reference_linear_*`` below are the atom-level
elimination it replaced, verbatim but for one dead branch: every
bound is rebuilt as a ``Fraction``-valued :class:`LinExpr` and every
step goes through ``project_out``.  The row kernel must give the same
verdicts, the same pruned sets and the same projected atoms in the
same order, so the engine's FO+ output does not change.  A last check
shares no code with either kernel: it evaluates the atoms under the
witnesses ``solve`` returns.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.terms import Var
from repro.errors import TheoryError
from repro.linear.latoms import LinAtom, LinExpr, LinOp, lin_eq, lin_le, lin_lt, linatom
from repro.linear.theory import LINEAR

# ------------------------------------------------------------------ reference


def _reference_solve_for(a: LinAtom, name: str) -> Tuple[str, LinExpr, bool]:
    coeff = a.expr.coefficient(name)
    if not coeff:
        raise TheoryError(f"atom {a} does not mention {name}")
    bound = a.expr.drop(name).scale(Fraction(-1) / coeff)
    if a.op is LinOp.EQ:
        return ("equal", bound, False)
    strict = a.op is LinOp.LT
    if coeff > 0:
        return ("upper", bound, strict)
    return ("lower", bound, strict)


def reference_linear_project_out(conjunction, var: Var) -> List[List[LinAtom]]:
    """Fourier-Motzkin on ``LinExpr`` bounds, as the seed did it (its
    dead second-equality branch aside: a set ``pin`` always returns
    through the substitution)."""
    name = var.name
    keep: List[LinAtom] = []
    lowers: List[Tuple[LinExpr, bool]] = []
    uppers: List[Tuple[LinExpr, bool]] = []
    pin: Optional[LinExpr] = None
    pin_atom: Optional[LinAtom] = None
    for a in conjunction:
        if not a.expr.coefficient(name):
            keep.append(a)
            continue
        kind, bound, strict = _reference_solve_for(a, name)
        if kind == "equal":
            if pin is None:
                pin, pin_atom = bound, a
        elif kind == "lower":
            lowers.append((bound, strict))
        else:
            uppers.append((bound, strict))
    if pin is not None:
        out: List[LinAtom] = []
        replacement = {name: pin}
        for a in conjunction:
            if a is pin_atom:
                continue
            sub = linatom(a.expr.substitute(replacement), a.op)
            if sub is True:
                continue
            if sub is False:
                return []
            out.append(sub)
        return [out]
    for low, low_strict in lowers:
        for high, high_strict in uppers:
            op = LinOp.LT if (low_strict or high_strict) else LinOp.LE
            made = linatom(low - high, op)
            if made is True:
                continue
            if made is False:
                return []
            keep.append(made)
    return [keep]


def reference_linear_is_satisfiable(conjunction) -> bool:
    atoms = list(conjunction)
    while True:
        names = sorted({n for a in atoms for n, _ in a.expr.coeffs})
        if not names:
            return True
        cases = reference_linear_project_out(atoms, Var(names[-1]))
        if not cases:
            return False
        [atoms] = cases


def reference_linear_entails(conjunction, a: LinAtom) -> bool:
    atoms = list(conjunction)
    if not reference_linear_is_satisfiable(atoms):
        return True
    for disjunct in a.negate():
        if reference_linear_is_satisfiable(atoms + [disjunct]):
            return False
    return True


def reference_linear_canonicalize(conjunction):
    atoms = list(dict.fromkeys(conjunction))
    kept: List[LinAtom] = []
    for i, a in enumerate(atoms):
        others = kept + atoms[i + 1 :]
        if others and reference_linear_entails(others, a):
            continue
        kept.append(a)
    return frozenset(kept)


def reference_linear_canonicalize_if_satisfiable(conjunction):
    atoms = list(conjunction)
    if not reference_linear_is_satisfiable(atoms):
        return None
    return reference_linear_canonicalize(atoms)


def reference_linear_solve(conjunction) -> Optional[Dict[Var, Fraction]]:
    atoms = list(conjunction)
    if not reference_linear_is_satisfiable(atoms):
        return None
    return _reference_solve_ordered(atoms, sorted({n for a in atoms for n, _ in a.expr.coeffs}))


def _reference_solve_ordered(atoms, names) -> Dict[Var, Fraction]:
    if not names:
        return {}
    name = names[-1]
    [reduced] = reference_linear_project_out(atoms, Var(name))
    witness = _reference_solve_ordered(reduced, names[:-1])
    lo = hi = pin = None
    lo_strict = hi_strict = False
    for a in atoms:
        if not a.expr.coefficient(name):
            continue
        kind, bound, strict = _reference_solve_for(a, name)
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
        choice = lo
    else:
        choice = (lo + hi) / 2
    witness = dict(witness)
    witness[Var(name)] = choice
    return witness


# ----------------------------------------------------------------- strategies

VARIABLES = ("u", "x", "y", "z")

#: fractional and negative coefficients
nonzero = st.sampled_from(
    [Fraction(v) for v in (1, -1, 2, -2, 3)]
    + [Fraction(-3, 2), Fraction(-1, 3), Fraction(1, 2), Fraction(2, 3)]
)
#: zero often, so atoms mention few variables, and eliminations cancel
#: variables and fold to ground
coefficients = st.one_of(st.just(Fraction(0)), nonzero)
constants = st.sampled_from(
    [Fraction(v) for v in (0, 1, -1, 3, -2)] + [Fraction(-1, 2), Fraction(5, 4)]
)
comparisons = st.sampled_from([lin_lt, lin_le, lin_eq])


@st.composite
def row_atoms(draw, names):
    """A non-ground atom ``sum(c * v) op k`` over ``names``."""
    coeffs = {n: draw(coefficients) for n in names}
    coeffs[draw(st.sampled_from(names))] = draw(nonzero)
    return draw(comparisons)(coeffs, draw(constants))


@st.composite
def row_conjunctions(draw, max_atoms=5):
    """1-4 variables, 0-``max_atoms`` atoms, some of them repeated."""
    names = VARIABLES[: draw(st.integers(1, 4))]
    atoms = draw(st.lists(row_atoms(names), max_size=max_atoms))
    for _ in range(draw(st.integers(0, 2)) if atoms else 0):
        atoms.insert(draw(st.integers(0, len(atoms))), atoms[draw(st.integers(0, len(atoms) - 1))])
    return names, atoms


# ---------------------------------------------------------------------- tests


class TestVerdictsMatchReference:
    @settings(max_examples=400, deadline=None)
    @given(row_conjunctions())
    def test_is_satisfiable(self, drawn):
        _, atoms = drawn
        assert LINEAR.is_satisfiable(atoms) == reference_linear_is_satisfiable(atoms)

    @settings(max_examples=400, deadline=None)
    @given(row_conjunctions(max_atoms=4), st.data())
    def test_entails(self, drawn, data):
        names, atoms = drawn
        target = data.draw(row_atoms(names))
        assert LINEAR.entails(atoms, target) == reference_linear_entails(atoms, target)
        for a in atoms:  # each atom of a conjunction is entailed by it
            assert LINEAR.entails(atoms, a)

    @settings(max_examples=300, deadline=None)
    @given(row_conjunctions())
    def test_canonicalize(self, drawn):
        _, atoms = drawn
        assert LINEAR.canonicalize(atoms) == reference_linear_canonicalize(atoms)
        assert (
            LINEAR.canonicalize_if_satisfiable(atoms)
            == reference_linear_canonicalize_if_satisfiable(atoms)
        )

    @settings(max_examples=300, deadline=None)
    @given(row_conjunctions())
    def test_solve(self, drawn):
        _, atoms = drawn
        assert LINEAR.solve(atoms) == reference_linear_solve(atoms)


class TestProjectionMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(row_conjunctions(), st.data())
    def test_same_atoms_in_same_order(self, drawn, data):
        names, atoms = drawn
        var = Var(data.draw(st.sampled_from(names + ("w",))))  # "w" is never mentioned
        assert LINEAR.project_out(atoms, var) == reference_linear_project_out(atoms, var)

    def test_unsatisfiable_projection_is_empty(self):
        atoms = [lin_le({"x": 2}, 1), lin_lt(1, "x")]
        assert reference_linear_project_out(atoms, Var("x")) == []
        assert LINEAR.project_out(atoms, Var("x")) == []

    def test_two_equalities_on_the_eliminated_variable(self):
        """The first equality is substituted into the second: ``x = y +
        1`` and ``2x = z`` leave ``2y + 2 = z``."""
        atoms = [lin_eq("x", LinExpr.make({"y": 1}, 1)), lin_eq({"x": 2}, "z"), lin_le("x", 4)]
        expected = reference_linear_project_out(atoms, Var("x"))
        assert expected == [[lin_eq(LinExpr.make({"y": 2}, 2), "z"), lin_le("y", 3)]]
        assert LINEAR.project_out(atoms, Var("x")) == expected

    def test_pinned_duplicate_folds_away(self):
        """A second copy of the substituted equality becomes ``0 = 0``
        and is dropped."""
        pin = lin_eq({"x": 3}, "y")
        atoms = [pin, lin_lt("y", "x"), pin]
        expected = reference_linear_project_out(atoms, Var("x"))
        assert expected == [[lin_lt({"y": 2}, 0)]]
        assert LINEAR.project_out(atoms, Var("x")) == expected


class TestWitnesses:
    """Ground truth by evaluation alone: a satisfiable verdict comes
    with a point of the conjunction, and a non-entailed atom with a
    point of the conjunction where it is false."""

    @settings(max_examples=300, deadline=None)
    @given(row_conjunctions(max_atoms=4), st.data())
    def test_verdicts_have_witnesses(self, drawn, data):
        names, atoms = drawn
        if LINEAR.is_satisfiable(atoms):
            witness = LINEAR.solve(atoms)
            assert all(a.evaluate(witness) for a in atoms)
        target = data.draw(row_atoms(names))
        if not LINEAR.entails(atoms, target):
            counter = [
                LINEAR.solve(atoms + [n]) for n in target.negate()
                if LINEAR.is_satisfiable(atoms + [n])
            ]
            assert counter
            witness = counter[0]
            assert all(a.evaluate(witness) for a in atoms)
            assert not target.evaluate(witness)

    def test_equality_needs_both_negations(self):
        """``x = 1`` negates to ``x < 1`` or ``1 < x``; ``1 <= x`` fails
        to entail it only through the second."""
        atoms = [lin_le("x", 1), lin_le(0, "x")]
        assert not LINEAR.entails(atoms, lin_eq("x", 1))
        assert not LINEAR.entails([lin_le(1, "x")], lin_eq("x", 1))
        assert LINEAR.entails([lin_le(1, "x"), lin_le("x", 1)], lin_eq("x", 1))
