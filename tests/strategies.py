"""Shared hypothesis strategies for the test suite."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from repro.core.atoms import Op, atom
from repro.core.formula import (
    Constraint,
    Exists,
    ForAll,
    Formula,
    Not,
    conj,
    constraint,
    disj,
)
from repro.core.intervals import Interval, IntervalSet

#: small exact rationals (keeps witnesses readable and arithmetic fast)
fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=4
)

variable_names = st.sampled_from(["x", "y", "z", "u", "v"])

ops = st.sampled_from([Op.LT, Op.LE, Op.EQ, Op.NE, Op.GE, Op.GT])


@st.composite
def terms(draw):
    if draw(st.booleans()):
        return draw(variable_names)
    return draw(fractions)


@st.composite
def atoms(draw):
    """A random (possibly folding) atom over small terms."""
    return atom(draw(terms()), draw(ops), draw(terms()))


@st.composite
def real_atoms(draw):
    """A random non-folding atom (guaranteed Atom instance)."""
    a = draw(atoms())
    if isinstance(a, bool):
        a = atom(draw(variable_names), Op.LE, draw(fractions))
    if isinstance(a, bool):  # pragma: no cover - var vs const never folds
        raise AssertionError
    return a


@st.composite
def ne_free_atoms(draw):
    a = draw(real_atoms())
    if a.op is Op.NE:
        return a.expand_ne()[0]
    return a


@st.composite
def conjunctions(draw, min_size=0, max_size=5):
    return draw(st.lists(ne_free_atoms(), min_size=min_size, max_size=max_size))


@st.composite
def quantifier_free(draw, depth=2):
    """A quantifier-free formula over constraint atoms."""
    if depth == 0:
        return constraint(draw(atoms()))
    branch = draw(st.integers(min_value=0, max_value=3))
    if branch == 0:
        return constraint(draw(atoms()))
    if branch == 1:
        return Not(draw(quantifier_free(depth=depth - 1)))
    subs = draw(st.lists(quantifier_free(depth=depth - 1), min_size=1, max_size=3))
    return conj(*subs) if branch == 2 else disj(*subs)


@st.composite
def formulas(draw, depth=2):
    """A random constraint formula with quantifiers."""
    if depth == 0:
        return constraint(draw(atoms()))
    branch = draw(st.integers(min_value=0, max_value=5))
    if branch == 0:
        return constraint(draw(atoms()))
    if branch == 1:
        return Not(draw(formulas(depth=depth - 1)))
    if branch in (2, 3):
        subs = draw(st.lists(formulas(depth=depth - 1), min_size=1, max_size=3))
        return conj(*subs) if branch == 2 else disj(*subs)
    bound = draw(variable_names)
    body = draw(formulas(depth=depth - 1))
    return Exists(bound, body) if branch == 4 else ForAll(bound, body)


@st.composite
def intervals(draw):
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return Interval.point(draw(fractions))
    if kind == 1:
        return Interval.all()
    if kind == 2:
        lo = draw(fractions)
        return draw(
            st.sampled_from(
                [Interval.less_than(lo), Interval.at_most(lo), Interval.greater_than(lo), Interval.at_least(lo)]
            )
        )
    lo, hi = draw(fractions), draw(fractions)
    if lo > hi:
        lo, hi = hi, lo
    return Interval.make(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def interval_sets(draw, max_size=4):
    return IntervalSet(draw(st.lists(intervals(), max_size=max_size)))


#: any JSON value, small: the replacement drawn by the one-field
#: corruption suites of the document validators
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
