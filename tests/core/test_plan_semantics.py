"""Planned evaluation against the paper's semantics.

Every plan path -- the compiled plan run through ``execute_plan``, and
the rewritten plan run through ``QueryPlanner.run`` -- is checked against
:func:`repro.core.sampling.eval_at`, which decides a formula at a point
by sample points and shares no code with the planner or the relation
algebra.  Formulas mix relation atoms over a random database with
constraint atoms, negation and both quantifiers, so scans, joins,
unions, complements and projections of stored generalized tuples are
all exercised.  Databases hold ``S/1`` and ``T/2``, each with up to
three generalized tuples of one to three atoms over the constants 0-3.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, Op, atom
from repro.core.database import Database
from repro.core.formula import Exists, ForAll, Not, conj, constraint, disj, rel
from repro.core.physical import QueryPlanner, execute_plan
from repro.core.planner import compile_formula
from repro.core.relation import Relation
from repro.core.sampling import eval_at, sample_points
from repro.core.terms import Var
from repro.core.theory import DENSE_ORDER

VARIABLES = ("x", "y", "z")
CONSTANTS = (0, 1, 2, 3)


def _atoms(names, ops):
    terms = st.one_of(st.sampled_from(names), st.sampled_from(CONSTANTS))
    made = st.builds(atom, terms, st.sampled_from(ops), terms)
    return made.filter(lambda a: isinstance(a, Atom))


def _relations(schema):
    stored = st.lists(_atoms(schema, [Op.LT, Op.LE, Op.EQ]), min_size=1, max_size=3)
    return st.lists(stored, max_size=3).map(
        lambda tuples: Relation.from_atoms(schema, tuples, DENSE_ORDER)
    )


databases = st.builds(
    lambda s, t: Database({"S": s, "T": t}), _relations(("a",)), _relations(("a", "b"))
)

_terms = st.one_of(st.sampled_from(VARIABLES), st.sampled_from(CONSTANTS))
_leaves = st.one_of(
    st.builds(lambda t: rel("S", t), _terms),
    st.builds(lambda s, t: rel("T", s, t), _terms, _terms),
    st.builds(atom, _terms, st.sampled_from([Op.LT, Op.LE, Op.EQ, Op.NE]), _terms).map(
        constraint
    ),
)


@st.composite
def formulas(draw, depth=3):
    """Relation and constraint atoms under not/and/or/exists/forall."""
    branch = draw(st.integers(min_value=0, max_value=5)) if depth else 0
    if branch == 0:
        return draw(_leaves)
    if branch == 1:
        return Not(draw(formulas(depth - 1)))
    if branch in (2, 3):
        subs = draw(st.lists(formulas(depth - 1), min_size=2, max_size=3))
        return conj(*subs) if branch == 2 else disj(*subs)
    quantifier = Exists if branch == 4 else ForAll
    return quantifier(draw(st.sampled_from(VARIABLES)), draw(formulas(depth - 1)))


def _answers(formula, db):
    yield "execute_plan", execute_plan(compile_formula(formula), db)
    yield "QueryPlanner.run", QueryPlanner().run(formula, db, db.theory)


class TestPlansAgainstSampling:
    @settings(max_examples=150, deadline=None)
    @given(databases, formulas())
    def test_every_plan_path_matches_the_oracle(self, db, formula):
        names = tuple(sorted(v.name for v in formula.free_variables()))
        base = set(db.constants()) | {Fraction(c) for c in CONSTANTS}
        for path, answer in _answers(formula, db):
            assert answer.schema == names, (path, formula)
            points = sample_points(base | answer.constants())
            for values in itertools.product(points, repeat=len(names)):
                expected = eval_at(formula, db, dict(zip(map(Var, names), values)))
                assert answer.contains_point(values) == expected, (path, formula, values)
