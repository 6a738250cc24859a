"""Relation-atom scans ``R(t1, ..., tk)`` against ground truth.

``_eval_relation_atom`` renames each stored column straight to its
argument when the argument is a variable not seen earlier in the atom.
Only constant and repeated-variable positions get a fresh column, which
is equated with the argument and projected away.  These tests hold the
scan to two references over dense-order and linear relations:

* the sample-point oracle (``core/sampling.py``), which shares no code
  with the closed-form evaluator, at every point of the cell grid;
* tuple for tuple, the fresh-column-for-every-position pipeline
  (rename, extend, select, project) the scan used to run, kept here as
  :func:`reference_scan`.  Where that pipeline's representation of a
  linear tuple depends on hash order, the tuples are compared as
  pointsets instead.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Op, atom, eq
from repro.core.database import Database
from repro.core.evaluator import _eval_relation_atom, evaluate
from repro.core.formula import RelationAtom, rel
from repro.core.gtuple import GTuple
from repro.core.relation import Relation
from repro.core.sampling import eval_at, sample_points
from repro.core.terms import Const, Var
from repro.core.theory import DENSE_ORDER
from repro.linear.latoms import LinOp, lin_eq, lin_le, lin_lt
from repro.linear.theory import LINEAR

#: stored column names, some shared with argument variables (so a scan
#: can swap columns) and some spelled like the scan's fresh columns
COLUMNS = ("a", "b", "x", "y", "__arg0", "__arg1")
#: argument variables the reference pipeline handles correctly
VARIABLES = ("x", "y", "z")
#: ... and ones it captures with its own fresh columns
CAPTURING = VARIABLES + ("__arg0", "__arg1")

constants = st.integers(-2, 2).map(Fraction)


def reference_scan(formula: RelationAtom, db: Database, theory) -> Relation:
    """The earlier scan: a fresh column for every position, verbatim."""
    stored = db[formula.name]
    fresh = tuple(f"__arg{i}" for i in range(stored.arity))
    renamed = stored.rename(dict(zip(stored.schema, fresh)))
    schema = tuple(sorted(v.name for v in formula.free_variables()))
    wide = renamed.extend(tuple(sorted(set(fresh) | set(schema))))
    selectors = [
        theory.equality_atom(Var(column), arg)
        for column, arg in zip(fresh, formula.args)
    ]
    return wide.select(selectors).project(schema)


@st.composite
def dense_atoms(draw, schema):
    terms = st.one_of(st.sampled_from(schema), constants)
    op = draw(st.sampled_from([Op.LT, Op.LE, Op.EQ]))
    return atom(draw(terms), op, draw(terms))


@st.composite
def linear_atoms(draw, schema):
    columns = draw(st.lists(st.sampled_from(schema), min_size=1, unique=True))
    coeffs = {c: draw(st.integers(-2, 2).filter(bool)) for c in columns}
    build = draw(st.sampled_from([lin_le, lin_lt, lin_eq]))
    return build(coeffs, draw(constants))


@st.composite
def stored_relations(draw, theory):
    arity = draw(st.integers(1, 3))
    schema = tuple(
        draw(st.lists(st.sampled_from(COLUMNS), min_size=arity, max_size=arity, unique=True))
    )
    make_atom = dense_atoms if theory is DENSE_ORDER else linear_atoms
    tuples = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            point = draw(st.lists(constants, min_size=arity, max_size=arity))
            tuples.append(GTuple.point(theory, schema, point))
            continue
        made = GTuple.make(theory, schema, draw(st.lists(make_atom(schema), max_size=3)))
        if made is not None:
            tuples.append(made)
    return Relation(theory, schema, tuples)


@st.composite
def scans(draw, theory, names):
    """A database with one stored relation ``R`` and a scan of it whose
    arguments mix distinct variables, repeated variables and constants."""
    stored = draw(stored_relations(theory))
    arg = st.one_of(st.sampled_from(names).map(Var), constants.map(Const))
    args = draw(st.lists(arg, min_size=stored.arity, max_size=stored.arity))
    db = Database(theory=theory)
    db["R"] = stored
    return RelationAtom("R", tuple(args)), db


def assert_agrees_with_oracle(formula: RelationAtom, db: Database) -> None:
    out = _eval_relation_atom(formula, db, db.theory)
    names = tuple(sorted(v.name for v in formula.free_variables()))
    assert out.schema == names
    grid = sample_points(db.constants() | formula.constants())
    for values in itertools.product(grid, repeat=len(names)):
        env = {Var(n): v for n, v in zip(names, values)}
        assert out.contains_point(values) == eval_at(formula, db, env), (
            f"{formula} at {values}"
        )


def has_equalities(relation: Relation) -> bool:
    """Whether some tuple of the linear ``relation`` has an equality."""
    return any(a.op is LinOp.EQ for t in relation.tuples for a in t.atoms)


def same_pointset(s: GTuple, t: GTuple) -> bool:
    return all(t.entails(a) for a in s.atoms) and all(s.entails(a) for a in t.atoms)


def assert_matches_reference(formula: RelationAtom, db: Database) -> None:
    out = _eval_relation_atom(formula, db, db.theory)
    expected = reference_scan(formula, db, db.theory)
    assert out.schema == expected.schema
    if db.theory is LINEAR and has_equalities(db[formula.name]):
        # the reference eliminates each fresh column through whichever
        # equality on it comes first in frozenset order: its selector or
        # a stored equality such as ``x - 1 = 0``.  Substituting one or
        # the other into the tuple's remaining atoms gives different
        # representations of one pointset, and which the reference
        # returns varies with PYTHONHASHSEED.  So match the tuples one
        # to one by pointset (absorption's tie-break between equivalent
        # tuples follows the representation, so not by position)
        assert len(out.tuples) == len(expected.tuples)
        for xs, ys in ((out.tuples, expected.tuples), (expected.tuples, out.tuples)):
            for x in xs:
                assert any(same_pointset(x, y) for y in ys), x
    else:
        assert out.tuples == expected.tuples


class TestScanAgainstSamplingOracle:
    @settings(max_examples=150, deadline=None)
    @given(scans(DENSE_ORDER, CAPTURING))
    def test_dense_order(self, case):
        assert_agrees_with_oracle(*case)

    @settings(max_examples=80, deadline=None)
    @given(scans(LINEAR, CAPTURING))
    def test_linear(self, case):
        assert_agrees_with_oracle(*case)


class TestScanMatchesFreshColumnPipeline:
    @settings(max_examples=300, deadline=None)
    @given(scans(DENSE_ORDER, VARIABLES))
    def test_dense_order(self, case):
        assert_matches_reference(*case)

    @settings(max_examples=100, deadline=None)
    @given(scans(LINEAR, VARIABLES))
    def test_linear(self, case):
        assert_matches_reference(*case)


class TestFreshColumnsAvoidArguments:
    """Arguments spelled like the scan's fresh columns (``__argN`` is a
    legal identifier) must not be captured by them."""

    @pytest.fixture
    def db(self):
        d = Database()
        d["R"] = Relation.from_points(("a", "b"), [(1, 3), (2, 4)])
        return d

    def test_constant_beside_a_fresh_column_name(self, db):
        out = evaluate(rel("R", "__arg1", 3), db)
        assert out.schema == ("__arg1",)
        assert [t.atoms for t in out.tuples] == [frozenset({eq("__arg1", 1)})]

    def test_swap_onto_fresh_column_names(self, db):
        out = evaluate(rel("R", "__arg1", "__arg0"), db)
        expected = Relation.from_points(("__arg0", "__arg1"), [(3, 1), (4, 2)])
        assert out.tuples == expected.tuples


class TestRenameOnlyScans:
    def test_distinct_variables_need_no_elimination(self, monkeypatch):
        db = Database()
        db["R"] = Relation.from_points(("a", "b"), [(1, 3), (5, 5)])
        eliminations = []
        original = GTuple.project_out_all

        def counting(self, column):
            eliminations.append(column)
            return original(self, column)

        monkeypatch.setattr(GTuple, "project_out_all", counting)
        out = evaluate(rel("R", "y", "x"), db)
        assert eliminations == []
        assert out.tuples == Relation.from_points(("x", "y"), [(3, 1), (5, 5)]).tuples
        # a repeated variable still goes through a fresh column
        out = evaluate(rel("R", "x", "x"), db)
        assert eliminations == ["__arg0"]
        assert out.tuples == Relation.from_points(("x",), [(5,)]).tuples
